"""The process under test, started and driven by ``run.py``.

Modes:

``solo``
    One in-process caller of :meth:`repro.api.Workbench.solve`: each
    stdin line ``{"request": {...}}`` is answered with one stdout line
    ``{"latency_s": ..., "report": {...}}`` (or ``"error"``), so the
    benchmark drives a closed loop one request at a time.
``service``
    A :class:`~repro.service.ScheduleService` (thread backend,
    ``--workers`` workers, default settings, archive on) behind a
    :class:`~repro.service.ScheduleServer` — ``repro serve``.
``router``
    A :class:`~repro.service.FleetRouter` over the ``--shard``
    addresses — ``repro route``.

Service modes print ``{"ready": <port>}`` once they accept connections.
Every mode ends at stdin EOF by printing ``{"final": {...}}`` — peak RSS,
service and router counters, and with ``--trace 1`` the span summary —
and exiting 0.  Spans are also written to ``<out>/spans-<mode>-<pid>.npz``.

Run by hand (``src`` on the path, BLAS pinned by the caller)::

    PYTHONPATH=src python3 perfbench/sut.py --mode service --workers 2 --out .perfbench
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any

from host import peak_rss_mb
from spans import Tracer, install

from repro.api import Workbench
from repro.api.request import report_to_dict, request_from_dict
from repro.errors import ReproError
from repro.obs.histogram import HistogramRegistry
from repro.service import FleetRouter, ScheduleServer, ScheduleService


def emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def run_solo() -> dict[str, Any]:
    workbench = Workbench()
    for line in sys.stdin:
        request = request_from_dict(json.loads(line)["request"])
        start = time.perf_counter()
        try:
            report = workbench.solve(request)
        except ReproError as exc:
            emit({"latency_s": time.perf_counter() - start, "error": repr(exc)})
            continue
        latency = time.perf_counter() - start
        emit({"latency_s": latency, "report": report_to_dict(report)})
    return {}


def _quantile_ms(registry: HistogramRegistry, name: str, q: float) -> float:
    if name not in registry.names():
        return math.nan
    return registry.histogram(name).quantile(q) * 1e3


def service_counters(service: ScheduleService) -> dict[str, Any]:
    """The service's counters and latency quantiles (with sample counts)."""
    histograms = service.latency_histograms
    counters = {
        key: value
        for key, value in service.metrics().to_dict().items()
        if isinstance(value, int) and not isinstance(value, bool)
    }
    quantiles = {
        family: {
            "count": histograms.histogram(family).count if family in histograms.names() else 0,
            "p50_ms": _quantile_ms(histograms, family, 0.5),
            "p95_ms": _quantile_ms(histograms, family, 0.95),
        }
        for family in ("queue_wait", "solve", "answer_hit", "archive_append")
    }
    return {"counters": counters, "quantiles": quantiles}


async def _until_stdin_closes() -> None:
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)


async def run_service(workers: int, out: Path) -> dict[str, Any]:
    archive = out / f"archive-{os.getpid()}.jsonl"
    try:
        async with ScheduleService(
            backend="thread", max_workers=workers, archive=archive
        ) as service:
            server = ScheduleServer(service, port=0)
            await server.start()
            emit({"ready": server.port})
            try:
                await _until_stdin_closes()
                return service_counters(service)
            finally:
                await server.stop()
    finally:
        archive.unlink(missing_ok=True)  # written to be timed, not kept


async def run_router(shards: list[str]) -> dict[str, Any]:
    router = FleetRouter(shards, port=0)
    await router.start()
    emit({"ready": router.port})
    try:
        await _until_stdin_closes()
        return {"router": router.router_counters()}
    finally:
        await router.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("solo", "service", "router"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workers", type=int, default=2, help="service mode")
    parser.add_argument(
        "--shard", action="append", default=[], help="router mode: HOST:PORT"
    )
    parser.add_argument("--nice", type=int, default=0, help="lower this process's priority")
    args = parser.parse_args(argv)
    os.nice(args.nice)
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    if args.mode == "solo":
        final = run_solo()
    elif args.mode == "service":
        final = asyncio.run(run_service(args.workers, args.out))
    else:
        final = asyncio.run(run_router(args.shard))
    final["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        final["trace"] = tracer.summary()
        path = args.out / f"spans-{args.mode}-{os.getpid()}.npz"
        tracer.write(path)
        final["trace_file"] = str(path)
    emit({"final": final})
    return 0


if __name__ == "__main__":
    sys.exit(main())
