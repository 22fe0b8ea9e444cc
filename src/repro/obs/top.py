"""Text rendering for ``repro top`` — a live service dashboard.

:func:`render_top` turns one stats-frame payload
(:meth:`repro.service.service.ServiceMetrics.to_dict`) into a terminal
screen: queue-depth bar, worker band, hit rates and the latency
percentile table.  It is a pure function of the stats dict, so the CLI
loop stays trivial and tests render known dicts without a server.
"""

from __future__ import annotations

from typing import Any, Mapping

#: Latency families shown in the table, in display order.
_LATENCY_ROWS: tuple[tuple[str, str], ...] = (
    ("queue_wait", "queue wait"),
    ("solve", "solve"),
    ("e2e", "end-to-end"),
    ("answer_hit", "answer hit"),
    ("archive_append", "archive append"),
)


def _bar(value: int, total: int, width: int = 24) -> str:
    """A ``[####----]`` utilisation bar (total 0 renders empty)."""
    filled = 0
    if total > 0:
        filled = min(width, round(width * value / total))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def format_duration(seconds: float) -> str:
    """Human duration: ``42 s``, ``3.5 min``, ``2.1 h``."""
    if seconds < 120.0:
        return f"{seconds:.0f} s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f} min"
    return f"{seconds / 3600.0:.1f} h"


def _format_ms(value: "float | None") -> str:
    if value is None:
        return "-"
    ms = value * 1e3
    if ms >= 1000.0:
        return f"{ms / 1e3:.2f}s"
    if ms >= 100.0:
        return f"{ms:.0f}ms"
    return f"{ms:.2f}ms"


def _rate(part: int, whole: int) -> str:
    return f"{part / whole * 100.0:.0f}%" if whole else "-"


def render_top(stats: Mapping[str, Any]) -> str:
    """One dashboard screen from one stats-frame payload."""
    lines = [
        (
            f"repro top — backend {stats.get('backend', '?')!r}, "
            f"up {format_duration(float(stats.get('uptime_s', 0.0)))}, "
            f"{float(stats.get('requests_per_s', 0.0)):.1f} req/s"
        )
    ]

    depth = int(stats.get("queue_depth", 0))
    capacity = int(stats.get("queue_capacity", 0))
    lines.append(
        f"queue   {_bar(depth, capacity)} {depth}/{capacity}"
        f"  in-flight {stats.get('in_flight', 0)}"
    )
    current = int(stats.get("current_workers", 0))
    workers = int(stats.get("workers", 0))
    minimum = int(stats.get("min_workers", 0))
    lines.append(
        f"workers {_bar(current, workers)} {current}/{workers}"
        f" (floor {minimum}, +{stats.get('scale_ups', 0)}"
        f"/-{stats.get('scale_downs', 0)} scaling)"
    )

    submitted = int(stats.get("submitted", 0))
    lines.append(
        f"traffic {submitted} submitted: "
        f"{stats.get('answer_hits', 0)} answer hits "
        f"({_rate(int(stats.get('answer_hits', 0)), submitted)}), "
        f"{stats.get('deduped', 0)} deduped "
        f"({_rate(int(stats.get('deduped', 0)), submitted)}), "
        f"{stats.get('completed', 0)} ok, {stats.get('errors', 0)} errors, "
        f"{stats.get('rejected', 0)} rejected"
    )
    solves = int(stats.get("solves_started", 0))
    lines.append(
        f"solves  {solves} started / {stats.get('solves_completed', 0)} "
        f"done, {stats.get('cache_hits', 0)} model-cache hits "
        f"({_rate(int(stats.get('cache_hits', 0)), solves)})"
    )

    latency = stats.get("latency")
    if latency:
        lines.append("")
        lines.append(
            f"{'latency':<16}{'p50':>9}{'p95':>9}{'p99':>9}{'samples':>9}"
        )
        for key, label in _LATENCY_ROWS:
            snap = latency.get(key)
            if not snap or not snap.get("count"):
                continue
            lines.append(
                f"{label:<16}"
                f"{_format_ms(snap.get('p50')):>9}"
                f"{_format_ms(snap.get('p95')):>9}"
                f"{_format_ms(snap.get('p99')):>9}"
                f"{snap['count']:>9}"
            )

    answer_cache = stats.get("answer_cache")
    if answer_cache:
        lines.append(
            f"answers {answer_cache.get('entries', 0)} cached, "
            f"{answer_cache.get('hits', 0)} hits / "
            f"{answer_cache.get('misses', 0)} misses, "
            f"{answer_cache.get('expirations', 0)} expired, "
            f"{answer_cache.get('warmed', 0)} warmed"
        )
    cache = stats.get("cache")
    if cache:
        lines.append(
            f"models  {cache.get('entries', 0)} cached, "
            f"{cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses"
        )
    return "\n".join(lines)
