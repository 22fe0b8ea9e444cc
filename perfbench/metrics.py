"""End-to-end and per-layer metrics computed from one run's phases."""

from __future__ import annotations

import math
import statistics
from typing import Any


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile (``nan`` when empty)."""
    if not values:
        return math.nan
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


#: Fewest samples a ``latency_p95_ms`` needs to be a percentile (so that
#: at least 10 lie beyond it).  Below it the value is still reported,
#: because every run must emit every end-to-end metric, but the printed
#: row marks it a placeholder: with a handful of samples it is close to
#: the largest latency of the run.
P95_MIN_SAMPLES = 200


def end_to_end(
    phase: Any, verdict: Any, throughput: tuple[float, int]
) -> dict[str, tuple[float, int]]:
    """End-to-end metrics as ``name -> (value, sample count)``.

    *throughput* is the workload's own figure (see ``Workload.throughput``
    in ``run.py``).  Latency percentiles cover request/reply submissions.
    A watch's terminal frame ends a stream of simulated timeline events,
    so its duration is not a request latency; watches count toward the
    gate, and their first-frame time is a per-layer metric.
    """
    latencies = request_latencies_ms(phase.samples)
    return {
        "throughput_rps": throughput,
        "latency_p50_ms": (quantile(latencies, 0.5), len(latencies)),
        "latency_p95_ms": (quantile(latencies, 0.95), len(latencies)),
        "setup_s": (statistics.median(phase.setup_s), len(phase.setup_s)),
        "peak_rss_mb": (sum(f["peak_rss_mb"] for f in phase.finals), len(phase.finals)),
        "test_length_s": (verdict.test_length_s, verdict.check_count),
        "error_frac": (verdict.error_frac, verdict.attempted),
        "unsafe_reports": (float(verdict.unsafe), verdict.attempted),
    }


def request_latencies_ms(samples: list[Any]) -> list[float]:
    """Client latencies (ms) of the ok request/reply submissions."""
    return [s.latency_s * 1e3 for s in samples if s.ok and not s.watch]


def per_layer(
    traced: Any,
    untraced: Any,
    client_trace: dict[str, Any],
    calib: dict[str, float],
    open_loop: bool,
) -> dict[str, float]:
    """Per-layer metrics of the traced phase, normalised per request.

    Span self times and call counts are summed over every process under
    test plus the client's codec spans, then divided by the requests
    answered.  Both phases answer the same requests, so
    ``trace.overhead_frac`` compares their summed request wall times;
    ``other.self_ms`` is the request wall time no span covers (queue
    waits, transport and the gaps between traced calls).  Metrics of a
    layer the workload does not cross (no service, no router, no wire
    codec, no watch, no open-loop generator) are ``nan``.
    """
    samples = traced.probes + traced.samples
    n = len(samples)
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    service: dict[str, int] = {}
    families: dict[str, list[dict[str, float]]] = {}
    router: dict[str, Any] = {}
    for final in [*traced.finals, {"trace": client_trace}]:
        trace = final.get("trace", {"spans": {}, "counters": {}})
        for name, entry in trace["spans"].items():
            mine = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            spans[name] = {k: mine[k] + entry[k] for k in mine}
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in final.get("counters", {}).items():
            service[name] = service.get(name, 0) + value
        for family, entry in final.get("quantiles", {}).items():
            families.setdefault(family, []).append(entry)
        router = final.get("router") or router

    def service_ms(family: str, label: str) -> float:
        """Count-weighted mean over shards of one service latency quantile."""
        entries = [e for e in families.get(family, []) if e["count"]]
        total = sum(e["count"] for e in entries)
        if not total:
            return math.nan
        return sum(e[label] * e["count"] for e in entries) / total

    def self_ms(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0) / n * 1e3

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def crossed(present: bool, value: float) -> float:
        return value if present else math.nan

    fresh = [r for r in map(report_of, samples) if r is not None and not r.get("cached")]
    sessions = sum(len(r["result"]["schedule"]["sessions"]) for r in fresh)
    discarded = sum(len(r["result"]["discarded"]) for r in fresh)
    submitted = service.get("submitted", 0)
    has_service = "submitted" in service
    has_codec = spans.get("protocol.encode", {}).get("calls", 0) > 0
    watch_first = [
        (s.first_event - s.sent) * 1e3 for s in samples if s.watch and s.first_event
    ]
    overhead = [
        (s.done - s.sent - r["timings"]["service_total"]) * 1e3
        for s, r in ((s, report_of(s)) for s in samples)
        if r is not None and not r.get("cached") and "service_total" in (r.get("timings") or {})
    ]
    traced_lat = sum(s.done - s.sent for s in samples)
    untraced_lat = sum(s.done - s.sent for s in untraced.probes + untraced.samples)
    covered = sum(entry["self_s"] for entry in spans.values())
    metrics = {
        "scenarios.build_soc.self_ms": self_ms("scenarios.build_soc"),
        "scenarios.build_soc.calls": calls("scenarios.build_soc"),
        "adjacency.build.self_ms": self_ms("adjacency.build"),
        "cache.simulator_for.self_ms": self_ms("cache.simulator_for"),
        "cache.hit_ratio": ratio(counters.get("cache.hits", 0), counters.get("cache.lookups", 0)),
        "session_model.build.self_ms": self_ms("session_model.build"),
        "session_model.stc_if_added.self_ms": self_ms("session_model.stc_if_added"),
        "session_model.stc_if_added.calls": calls("session_model.stc_if_added"),
        "session_model.add.self_ms": self_ms("session_model.add"),
        "session_model.admit_ratio": ratio(
            calls("session_model.add"), calls("session_model.stc_if_added")
        ),
        "scheduler.phase_a.self_ms": self_ms("scheduler.phase_a"),
        "scheduler.sessions": ratio(sessions, len(fresh)),
        "scheduler.discard_ratio": ratio(discarded, sessions + discarded),
        "scheduler.steady_solves": ratio(sum(r["steady_solves"] for r in fresh), len(fresh)),
        "workbench.solve.self_ms": self_ms("workbench.solve"),
        "simulator.block_steady_state.self_ms": self_ms("simulator.block_steady_state"),
        "simulator.block_steady_state.calls": calls("simulator.block_steady_state"),
        "simulator.batch.self_ms": self_ms("simulator.batch"),
        "host.calib_py_ms": calib["host.calib_py_ms"],
        "host.calib_gemm_ms": calib["host.calib_gemm_ms"],
        "trace.overhead_frac": traced_lat / untraced_lat - 1.0,
        "other.self_ms": (traced_lat - covered) / n * 1e3,
        # Layers only the networked workloads cross.
        "protocol.encode.self_us": crossed(has_codec, self_ms("protocol.encode") * 1e3),
        "protocol.decode.self_us": crossed(has_codec, self_ms("protocol.decode") * 1e3),
        "protocol.bytes_per_req": crossed(has_codec, counters.get("protocol.bytes", 0) / n),
        "service.queue_wait_p50_ms": service_ms("queue_wait", "p50_ms"),
        "service.queue_wait_p95_ms": service_ms("queue_wait", "p95_ms"),
        "service.solve_p50_ms": service_ms("solve", "p50_ms"),
        "service.solve_p95_ms": service_ms("solve", "p95_ms"),
        "service.solves_per_req": crossed(
            has_service, ratio(service.get("solves_started", 0), submitted)
        ),
        "service.dedup_ratio": crossed(has_service, ratio(service.get("deduped", 0), submitted)),
        "service.rejected": crossed(has_service, service.get("rejected", 0)),
        "service.timeouts": crossed(has_service, service.get("timeouts", 0)),
        "answer_cache.hit_ratio": crossed(
            has_service, ratio(service.get("answer_hits", 0), submitted)
        ),
        "service.answer_hit_p50_ms": service_ms("answer_hit", "p50_ms"),
        "service.archive_append_p50_ms": service_ms("archive_append", "p50_ms"),
        "client.overhead_p50_ms": quantile(overhead, 0.5),
        "router.routed": crossed(bool(router), router.get("routed", 0)),
        "router.failovers": crossed(bool(router), router.get("failovers", 0)),
        "router.relayed_errors": crossed(bool(router), router.get("relayed_errors", 0)),
        "reactive.runs": crossed(has_service, service.get("reactive_runs", 0)),
        "reactive.first_frame_p50_ms": quantile(watch_first, 0.5),
        "loadgen.late_p99_ms": crossed(
            open_loop, quantile([(s.sent - s.due) * 1e3 for s in traced.samples], 0.99)
        ),
    }
    return metrics


def report_of(sample: Any) -> dict[str, Any] | None:
    """The report dict a sample's answer carries (``None`` on failure)."""
    return sample.frame["report"] if sample.ok else None
