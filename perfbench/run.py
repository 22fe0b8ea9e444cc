#!/usr/bin/env python3
"""The repository benchmark: one seeded workload, timed, checked and reported.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solo-large --seed 1 --seconds 20 --trace 0

Workloads (see ``spec.py`` and ``BENCHMARK.json``): ``solo-large``,
``burst-shared`` and ``fleet`` (and, for diagnosis only, ``open-fleet``).
The program under test runs in child processes (``sut.py``) with BLAS
pinned to one thread; this process generates the seeded requests, offers
the load, and checks every answer.

With ``--trace 0`` a run measures set-up (the median of several cold
starts), then offers load for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it answers the workload's check set twice,
untraced and with spans around each layer, and reports the per-layer
metrics.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when the answer gate passes.  Results, span files, archives and
schedule digests go to ``.perfbench/`` in the checkout (span files of
the latest traced run only).  ``--tiny``
shrinks every network for the harness self-test (``test_harness.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Largest report line a child may print (a 24x24 report is ~200 KB).
LINE_LIMIT = 1 << 26
CHILD_EXIT_TIMEOUT_S = 60.0


# -- the process under test ---------------------------------------------------


class Sut:
    """One ``sut.py`` child process and its JSON-lines pipe."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc
        self.ready: dict[str, Any] = {}

    @classmethod
    async def start(cls, mode: str, trace: int, *args: str) -> "Sut":
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            str(HERE / "sut.py"),
            "--mode", mode,
            "--trace", str(trace),
            "--out", str(OUT),
            *args,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=host.child_env(str(SRC)),
            cwd=str(ROOT),
            limit=LINE_LIMIT,
        )
        return cls(proc)

    async def read(self) -> dict[str, Any]:
        line = await self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"process under test exited (code {await self.proc.wait()})")
        return json.loads(line)

    async def send(self, payload: dict[str, Any]) -> None:
        self.proc.stdin.write(json.dumps(payload).encode() + b"\n")
        await self.proc.stdin.drain()

    async def finish(self) -> dict[str, Any]:
        """Close stdin, collect the final record, and wait for exit."""
        try:
            self.proc.stdin.close()
            while "final" not in (message := await self.read()):
                pass
            await asyncio.wait_for(self.proc.wait(), CHILD_EXIT_TIMEOUT_S)
        finally:
            await self.kill()
        return message["final"]

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


@dataclass
class Phase:
    """One stretch of offered load against one set of processes under test."""

    samples: list[Any]
    wall_s: float
    finals: list[dict[str, Any]]
    setup_s: list[float] = field(default_factory=list)
    probes: list[Any] = field(default_factory=list)


async def finish_all(suts: list[Sut]) -> list[dict[str, Any]]:
    """Stop every process under test (front ones first) and collect finals."""
    finals = []
    try:
        for sut in reversed(suts):
            finals.append(await sut.finish())
    finally:
        for sut in suts:
            await sut.kill()
    return finals


# -- workloads ----------------------------------------------------------------


class Workload:
    """How one workload boots its processes under test and offers load."""

    check_count = 0
    #: Cold starts per untraced run; ``setup_s`` is their median.
    setup_repeats = 5
    open_loop = False

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        self.seed, self.seconds, self.tiny = seed, seconds, tiny

    async def boot(self, trace: int) -> tuple[list[Sut], Any]:
        """Start the processes under test; return them and a connection."""
        raise NotImplementedError

    async def disconnect(self, conn: Any) -> None:
        return None

    async def submit_probe(self, suts: list[Sut], conn: Any):
        """Answer the request whose answer ends a cold start."""
        raise NotImplementedError

    async def offer(self, suts: list[Sut], conn: Any, check_only: bool) -> tuple[list, float]:
        raise NotImplementedError

    def throughput(self, phase: Phase) -> tuple[float, int]:
        """``throughput_rps`` and its sample count: ok answers per wall second."""
        ok = sum(s.ok for s in phase.samples)
        return ok / phase.wall_s, ok

    async def cold_start(self, trace: int) -> tuple[list[Sut], Any, Any, float]:
        """Boot fresh processes under test and answer the probe."""
        start = time.perf_counter()
        suts: list[Sut] = []
        try:
            suts, conn = await self.boot(trace)
            probe = await self.submit_probe(suts, conn)
        except BaseException:
            for sut in suts:
                await sut.kill()
            raise
        return suts, conn, probe, time.perf_counter() - start

    async def phase(self, trace: int, setups: int, check_only: bool) -> Phase:
        setup_s, probes = [], []
        for attempt in range(setups):
            suts, conn, probe, seconds = await self.cold_start(trace)
            setup_s.append(seconds)
            probes.append(probe)
            if attempt < setups - 1:
                await self.disconnect(conn)
                await finish_all(suts)
        # The load generator keeps every answer for the gate; with the
        # cyclic collector on, its full collections over that growing heap
        # stall the generator for tens of ms (late sends in the open loop)
        # and take CPU from the program on a small host.
        gc.collect()
        gc.disable()
        try:
            samples, wall_s = await self.offer(suts, conn, check_only)
        finally:
            gc.enable()
            await self.disconnect(conn)
            finals = await finish_all(suts)
        return Phase(samples, wall_s, finals, setup_s, probes)


class SoloLarge(Workload):
    setup_repeats = 3  # each cold start includes a ~4 s 24x24 solve

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from workloads import SOLO_CHECK_COUNT

        self.check_count = SOLO_CHECK_COUNT

    def request(self, index: int):
        from workloads import solo_request

        return solo_request(self.seed, index, self.tiny)

    async def _solve(self, sut: Sut, request) -> Any:
        from loadgen import Sample
        from repro.api.request import request_to_dict

        sent = time.perf_counter()
        await sut.send({"request": request_to_dict(request)})
        answer = await sut.read()
        sample = Sample(request, False, sent, sent, sent + answer["latency_s"])
        if "report" in answer:
            sample.frame = {"type": "report", "report": answer["report"]}
        else:
            sample.error = answer.get("error", "no report")
        return sample

    async def boot(self, trace: int) -> tuple[list[Sut], Any]:
        return [await Sut.start("solo", trace)], None

    async def submit_probe(self, suts: list[Sut], conn: Any):
        return await self._solve(suts[0], self.request(0))

    async def offer(self, suts: list[Sut], conn: Any, check_only: bool):
        sut = suts[0]
        samples = []
        start = time.perf_counter()
        index = 1
        while len(samples) < self.check_count or (
            not check_only and time.perf_counter() - start < self.seconds
        ):
            samples.append(await self._solve(sut, self.request(index)))
            index += 1
        return samples, time.perf_counter() - start


class _Networked(Workload):
    """Workloads that reach their processes under test over TCP."""

    connections = 1

    async def boot(self, trace: int) -> tuple[list[Sut], Any]:
        suts = await self.start_servers(trace)
        from repro.service import AsyncServiceClient

        port = int(suts[-1].ready["ready"])
        return suts, [
            await AsyncServiceClient.connect(port=port) for _ in range(self.connections)
        ]

    async def start_servers(self, trace: int) -> list[Sut]:
        raise NotImplementedError

    async def disconnect(self, conn: Any) -> None:
        for client in conn or ():
            await client.close()

    def probe(self):
        raise NotImplementedError

    async def submit_probe(self, suts: list[Sut], conn: Any):
        from loadgen import Sample, connection_submitter

        sent = time.perf_counter()
        sample = Sample(self.probe(), False, sent, sent)
        sample.frame, _ = await connection_submitter(conn)(sample.request, False)
        sample.done = time.perf_counter()
        return sample


async def start_server(mode: str, trace: int, *args: str) -> Sut:
    """Start a service or router child and wait until it listens."""
    sut = await Sut.start(mode, trace, *args)
    try:
        sut.ready = await sut.read()
    except BaseException:
        await sut.kill()
        raise
    return sut


class BurstShared(_Networked):
    """One 2-worker service (``repro serve``), one pipelining connection."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from workloads import BURST_CHECK_BURSTS

        self.check_bursts = BURST_CHECK_BURSTS
        self.check_count = sum(len(self.next_burst(i)) for i in range(self.check_bursts))

    def next_burst(self, index: int) -> list:
        from workloads import burst

        return burst(self.seed, index, self.tiny)

    async def start_servers(self, trace: int) -> list[Sut]:
        return [await start_server("service", trace, "--workers", "2")]

    def probe(self):
        return self.next_burst(0)[0]

    async def offer(self, suts: list[Sut], conn: Any, check_only: bool):
        from loadgen import closed_bursts, connection_submitter

        return await closed_bursts(
            connection_submitter(conn),
            self.next_burst,
            0.0 if check_only else self.seconds,
            self.check_bursts,
        )


#: Shards run at a lower CPU priority than the router and the load
#: generator, as if the router had a core of its own: on a 2-core host the
#: two solving shards otherwise delay every router hop and answer-cache hit
#: by whole scheduler time slices.
SHARD_NICE = 5


class _Fleet(_Networked):
    """Two 1-worker shards and a router, each its own process."""

    connections = 2

    async def start_servers(self, trace: int) -> list[Sut]:
        started = await asyncio.gather(
            *(
                start_server("service", trace, "--workers", "1", "--nice", str(SHARD_NICE))
                for _ in range(2)
            ),
            return_exceptions=True,
        )
        suts = [s for s in started if isinstance(s, Sut)]
        try:
            for outcome in started:
                if isinstance(outcome, BaseException):
                    raise outcome
            shards = [f"--shard=127.0.0.1:{s.ready['ready']}" for s in suts]
            suts.append(await start_server("router", trace, *shards))
        except BaseException:
            for sut in suts:
                await sut.kill()
            raise
        return suts


class Fleet(_Fleet):
    """Closed-loop callers of the fleet mix (``repro route`` + 2 ``repro serve``)."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from workloads import FLEET_CHECK_COUNT, FLEET_STREAM_RPS, fleet_requests

        self.check_count = FLEET_CHECK_COUNT
        count = max(FLEET_CHECK_COUNT, round(FLEET_STREAM_RPS * self.seconds))
        self.items = fleet_requests(self.seed, count, self.tiny)

    def probe(self):
        return self.items[0][0]

    async def offer(self, suts: list[Sut], conn: Any, check_only: bool):
        from loadgen import closed_loop, connection_submitter
        from workloads import FLEET_CALLERS

        return await closed_loop(
            connection_submitter(conn),
            self.items,
            0.0 if check_only else self.seconds,
            self.check_count,
            FLEET_CALLERS,
        )


class OpenFleet(_Fleet):
    """The fleet mix as open-loop Poisson arrivals at a fixed rate.

    Not listed in BENCHMARK.json: on a shared 2-core host its latency
    percentiles spread beyond the 0.25 bound between runs of one commit,
    so it is kept for diagnosis (``--workload open-fleet``) only.
    """

    open_loop = True

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        from workloads import fleet_arrivals

        self.arrivals = fleet_arrivals(self.seed, self.seconds, self.tiny)
        self.check_count = len(self.arrivals)

    def probe(self):
        return self.arrivals[0].request

    async def offer(self, suts: list[Sut], conn: Any, check_only: bool):
        from loadgen import connection_submitter, open_loop

        return await open_loop(connection_submitter(conn), self.arrivals)

    def throughput(self, phase: Phase) -> tuple[float, int]:
        """Request/reply answers within the latency target per offered second.

        The offered load is fixed, so ok answers per wall second would
        echo the offered rate whatever the program does; counting only
        the answers that meet the target makes the figure fall when
        latency grows.
        """
        from metrics import request_latencies_ms
        from workloads import FLEET_LATENCY_TARGET_MS

        latencies = request_latencies_ms(phase.samples)
        met = sum(latency <= FLEET_LATENCY_TARGET_MS for latency in latencies)
        return met / self.seconds, len(latencies)


WORKLOADS = {
    "solo-large": SoloLarge,
    "burst-shared": BurstShared,
    "fleet": Fleet,
    "open-fleet": OpenFleet,
}


# -- output -------------------------------------------------------------------


def fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "n/a"
    return f"{value:.6g}"


def print_row(workload: str, metrics: dict[str, tuple[float, int]], units: dict[str, str]) -> None:
    from metrics import P95_MIN_SAMPLES

    cells = []
    for name, (value, n) in metrics.items():
        note = ""
        if name == "latency_p95_ms" and n < P95_MIN_SAMPLES:
            note = f" < {P95_MIN_SAMPLES}: placeholder, not a percentile"
        cells.append(f"{name}={fmt(value)} {units[name]} (n={n}{note})")
    print(f"{workload:<13} " + "  ".join(cells))


def print_layers(workload: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    """The traced-run table, one block per layer of ``spec.LAYER_MAP``."""
    import spec

    print(
        f"traced run {workload}: trace.overhead_frac={fmt(metrics['trace.overhead_frac'])}"
        f"  other.self_ms={fmt(metrics['other.self_ms'])}"
    )
    for layer, entry in spec.LAYER_MAP.items():
        print(f"  {layer} (should move: {entry['moves']})")
        for name in entry["metrics"]:
            print(f"    {name:<40} {fmt(metrics[name]):>14} {units[name]}")


# -- main ---------------------------------------------------------------------


async def run(args: argparse.Namespace) -> int:
    import spec
    from check import Checker, compare_digest, source_hash
    from metrics import end_to_end, per_layer, quantile, report_of
    from spans import PROTOCOL_SPANS, Tracer, install

    OUT.mkdir(exist_ok=True)
    env = host.environment(args.seed)
    calib = host.calibrate()
    print(
        "env " + " ".join(f"{k}={v}" for k, v in env.items())
        + f" calib_py_ms={fmt(calib['host.calib_py_ms'])}"
        + f" calib_gemm_ms={fmt(calib['host.calib_gemm_ms'])}"
    )
    workload = WORKLOADS[args.workload](args.seed, float(args.seconds), args.tiny)
    checker = Checker()
    reasons: list[str] = []
    if args.trace:
        for stale in OUT.glob("spans-*.npz"):  # keep the latest traced run only
            stale.unlink()
        untraced = await workload.phase(trace=0, setups=1, check_only=True)
        client_tracer = Tracer()
        uninstall = install(client_tracer, only=PROTOCOL_SPANS)
        try:
            traced = await workload.phase(trace=1, setups=1, check_only=True)
        finally:
            uninstall()
        phases = [untraced, traced]
        metrics = per_layer(
            traced, untraced, client_tracer.summary(), calib, workload.open_loop
        )
        listed = spec.units("per_layer")
        units = listed | spec.SERVICE_LAYER
    else:
        phases = [await workload.phase(trace=0, setups=workload.setup_repeats, check_only=False)]
    verdicts = [
        checker.verdict(
            [report_of(s) for s in phase.samples + phase.probes], workload.check_count
        )
        for phase in phases
    ]
    if len({v.digest for v in verdicts}) > 1:
        reasons.append("the traced run answered differently from the untraced run")
    verdict = verdicts[-1]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    for v in verdicts:
        reasons += v.reasons()
    key = f"{args.workload}:seed={args.seed}:tiny={int(args.tiny)}"
    if args.workload == "open-fleet":
        key += f":seconds={args.seconds}"
    source = source_hash([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")], ROOT)
    mismatch = compare_digest(OUT / "digests.json", key, verdict.digest, source)
    if mismatch:
        reasons.append(mismatch)

    if args.trace:
        print_layers(args.workload, metrics, units)
        emitted = {n: {"value": metrics[n], "unit": units[n]} for n in listed}
    else:
        e2e = end_to_end(phases[0], verdict, workload.throughput(phases[0]))
        listed = spec.units("end_to_end")
        units = listed | dict(spec.GATED)
        print_row(args.workload, e2e, units)
        if workload.open_loop:
            late = [(s.sent - s.due) * 1e3 for s in phases[0].samples]
            print(f"soundness: loadgen.late_p99_ms={fmt(quantile(late, 0.99))} (n={len(late)})")
        emitted = {n: {"value": e2e[n][0], "unit": u} for n, u in listed.items()}
    print(
        f"digest {args.workload} seed={args.seed}: {verdict.digest} "
        f"({verdict.check_count} checked answers, {len(verdict.per_request)} distinct requests)"
    )
    if verdict.hot_baselines:
        print(f"note: {verdict.hot_baselines} baseline-solver report(s) exceed TL (not gated)")
    print("gate: " + ("pass" if not reasons else "FAIL: " + "; ".join(reasons)))
    record = {
        "workload": args.workload,
        "env": env,
        "calibration": calib,
        "metrics": emitted,
        "digest": verdict.digest,
        "schedules": verdict.per_request,
        "gate": reasons,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(
        json.dumps(
            {
                "correct": not reasons,
                "attempted": attempted,
                "failed": failed,
                "metrics": emitted,
            }
        )
    )
    return 0 if not reasons else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="2x2/3x3 networks (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    host.pin_blas()
    sys.path.insert(0, str(SRC))
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
