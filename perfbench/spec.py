"""What the benchmark measures beyond what ``BENCHMARK.json`` holds.

``BENCHMARK.json`` at the repository root names the workloads (with a
one-line ``why``) and every reported metric with its unit, direction
and bound; ``benchmark()`` reads it.  This module adds what that file
has no room for: each workload's loop type, traffic and rationale, the
gated metrics, the printed-only service-layer metrics and the layer ->
end-to-end metric -> workload map, so later changes cite these names
instead of re-describing them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def benchmark() -> dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text())


def units(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``, in order."""
    return {m["name"]: m["unit"] for m in benchmark()[section]}


#: One entry per workload: how load is offered, what it asks and why.
WORKLOADS: dict[str, dict[str, str]] = {
    "solo-large": {
        "loop": "closed loop, 1 in-process caller of api.Workbench.solve",
        "traffic": (
            "thermal_aware on 24x24 grids (576 cores); every request has a "
            "seeded power profile and its own TL and STCL headrooms"
        ),
        "rationale": (
            "STC growth in core.session_model and core.scheduler dominates "
            "the wall time; scenario build, caches, service and codecs do "
            "little. Growth and adjacency work must show here, service or "
            "codec work must not."
        ),
    },
    "burst-shared": {
        "loop": (
            "closed loop, 1 TCP connection pipelining one 27-request burst at "
            "a time (the next after the previous one is answered)"
        ),
        "traffic": (
            "alpha15, worked_example6, 4x4 and 8x8 grids and a 15-block "
            "slicing floorplan, each swept over TL headrooms at shared STCL "
            "headrooms; ~25% exact repeats; a minority power_constrained "
            "or sequential"
        ),
        "rationale": (
            "Each solve takes 5-100 ms, so scenario build, model-cache "
            "lookup, limit resolution, queue dispatch, codec encode/decode "
            "and archive append dominate. Thread backend, 2 workers, default "
            "settings, archive on, no coalescing option."
        ),
    },
    "fleet": {
        "loop": (
            "closed loop, 8 callers (each sends its next request when the "
            "previous one is answered) over 2 connections from 1 generator "
            "process"
        ),
        "traffic": (
            "engine.generate_fleet mix plus 1 in 12 heavy 8x8/12x12 grids; "
            "1 in 4 questions is new, the rest repeat with a Zipf "
            "distribution; 1 in 20 is a streamed watch. The router and each "
            "1-worker shard (thread backend, archive on) run in processes of "
            "their own, as repro route / repro serve deploy them; the shards "
            "run at nice +5 so the router and the generator keep a core"
        ),
        "rationale": (
            "Independent callers instead of bursts: cache-hit reads sit "
            "beside solves and archive writes, streaming beside "
            "request/reply, and every request crosses a router hop. A change "
            "that raises burst throughput at the cost of queue wait or hit "
            "latency shows as p50/p95 here. The open-loop form of this "
            "traffic (open-fleet) is kept for diagnosis only: its latency "
            "percentiles spread past the 0.25 bound between runs of one "
            "commit on a shared 2-core host, while these closed callers "
            "stay near 0.1."
        ),
    },
    "open-fleet": {
        "loop": (
            "open loop at a fixed 75 req/s (about half the closed-loop "
            "capacity of this traffic, ~150 req/s on the 2-core host that "
            "defined the benchmark), 1 generator process with 2 connections; "
            "throughput_rps counts the request/reply answers that arrive "
            "within 150 ms of their due time per offered second, so it "
            "falls when the tail grows instead of echoing the offered rate. "
            "Not in BENCHMARK.json: run it by name for diagnosis"
        ),
        "traffic": "as fleet, arriving as seeded Poisson arrivals",
        "rationale": (
            "Requests arrive on a schedule, so queue wait behind heavy "
            "solves and hit latency show without the closed loop's "
            "self-throttling; generator lateness is recorded."
        ),
    },
}

#: End-to-end metrics that are zero on every sound run.  They are
#: printed in every workload row and enforced by the answer gate (a
#: non-zero value fails the run) instead of being compared by bound.
GATED: list[tuple[str, str]] = [
    ("error_frac", "ratio"),
    ("unsafe_reports", "count"),
]

#: Per-layer metrics of the layers solo-large never crosses (the wire
#: codec, the service, the answer cache, the router, streaming and the
#: open-loop generator), as ``name -> unit``.  They are printed in the
#: traced table, as ``n/a`` where the workload does not cross the layer,
#: but kept out of BENCHMARK.json, whose per-layer list holds only
#: metrics measured on every workload.  The service and router counters
#: among them (rejected, timeouts, failovers, relayed errors) are 0 on
#: every sound run.
SERVICE_LAYER: dict[str, str] = {
    "protocol.encode.self_us": "us",
    "protocol.decode.self_us": "us",
    "protocol.bytes_per_req": "bytes",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p95_ms": "ms",
    "service.solve_p50_ms": "ms",
    "service.solve_p95_ms": "ms",
    "service.solves_per_req": "ratio",
    "service.dedup_ratio": "ratio",
    "service.rejected": "count",
    "service.timeouts": "count",
    "answer_cache.hit_ratio": "ratio",
    "service.answer_hit_p50_ms": "ms",
    "service.archive_append_p50_ms": "ms",
    "client.overhead_p50_ms": "ms",
    "router.routed": "count",
    "router.failovers": "count",
    "router.relayed_errors": "count",
    "reactive.first_frame_p50_ms": "ms",
    "reactive.runs": "count",
    "loadgen.late_p99_ms": "ms",
}

#: Layer (repo module) -> its metrics and the end-to-end metric, on which
#: workload, each should move.  A change that claims a gain on one layer
#: cites these names.
LAYER_MAP: dict[str, dict[str, object]] = {
    "engine.scenarios, floorplan.adjacency": {
        "metrics": [
            "scenarios.build_soc.self_ms",
            "scenarios.build_soc.calls",
            "adjacency.build.self_ms",
        ],
        "moves": "throughput_rps on burst-shared; setup_s everywhere",
    },
    "engine.cache": {
        "metrics": ["cache.simulator_for.self_ms", "cache.hit_ratio"],
        "moves": "throughput_rps on burst-shared; setup_s, peak_rss_mb",
    },
    "core.session_model": {
        "metrics": [
            "session_model.build.self_ms",
            "session_model.stc_if_added.self_ms",
            "session_model.stc_if_added.calls",
            "session_model.add.self_ms",
            "session_model.admit_ratio",
        ],
        "moves": (
            "throughput_rps, latency_p50_ms on solo-large; "
            "latency_p95_ms on fleet"
        ),
    },
    "core.scheduler, api.workbench": {
        "metrics": [
            "scheduler.phase_a.self_ms",
            "scheduler.sessions",
            "scheduler.discard_ratio",
            "scheduler.steady_solves",
            "workbench.solve.self_ms",
        ],
        "moves": "throughput_rps on solo-large; test_length_s must not move",
    },
    "thermal.simulator, thermal.reduced": {
        "metrics": [
            "simulator.block_steady_state.self_ms",
            "simulator.block_steady_state.calls",
            "simulator.batch.self_ms",
        ],
        "moves": "throughput_rps on solo-large",
    },
    "service.protocol": {
        "metrics": [
            "protocol.encode.self_us",
            "protocol.decode.self_us",
            "protocol.bytes_per_req",
        ],
        "moves": "throughput_rps, latency_p50_ms on burst-shared",
    },
    "service.service": {
        "metrics": [
            "service.queue_wait_p50_ms",
            "service.queue_wait_p95_ms",
            "service.solve_p50_ms",
            "service.solve_p95_ms",
            "service.solves_per_req",
            "service.dedup_ratio",
            "service.rejected",
            "service.timeouts",
        ],
        "moves": "latency_p95_ms on fleet and burst-shared",
    },
    "service.answer_cache, service.archive": {
        "metrics": [
            "answer_cache.hit_ratio",
            "service.answer_hit_p50_ms",
            "service.archive_append_p50_ms",
        ],
        "moves": "latency_p50_ms on fleet",
    },
    "service.fleet.router, service.client": {
        "metrics": [
            "client.overhead_p50_ms",
            "router.routed",
            "router.failovers",
            "router.relayed_errors",
        ],
        "moves": "latency_p50_ms on fleet",
    },
    "reactive": {
        "metrics": ["reactive.first_frame_p50_ms", "reactive.runs"],
        "moves": "latency_p95_ms on fleet",
    },
    "load generator, host, trace": {
        "metrics": [
            "loadgen.late_p99_ms",
            "host.calib_py_ms",
            "host.calib_gemm_ms",
            "trace.overhead_frac",
            "other.self_ms",
        ],
        "moves": "none: they show whether the run itself is sound",
    },
}
