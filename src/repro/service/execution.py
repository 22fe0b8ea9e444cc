"""Worker-pool execution path of the scheduling service.

A worker takes one :class:`~repro.api.ScheduleRequest` and returns a
:class:`SolveOutcome` — *always*, never an exception: the pool boundary
is exactly where the batch engine's "failures become records" rule
applies, so one infeasible request cannot poison a worker or lose the
queue position of the requests behind it.

Workers reuse the engine's execution substrate: thread workers share the
service's :class:`~repro.engine.cache.ThermalModelCache`, process
workers use the same per-process cache
(:func:`~repro.engine.cache.process_local_cache`) as the batch runner's
process backend, so warm factorisations survive across clients, bursts
and even interleaved batch runs.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Literal

from ..api.request import ScheduleRequest, SolveReport
from ..api.workbench import execute_request
from ..engine.cache import ThermalModelCache, process_local_cache


@dataclass(frozen=True)
class SolveOutcome:
    """The terminal record of one service job (success or failure).

    Attributes
    ----------
    status:
        ``"ok"`` or ``"error"``.
    report:
        The solve report (``None`` on error).
    error:
        ``"ExcType: message"`` failure description (``None`` on
        success).
    error_type:
        Exception class name, so clients can distinguish an infeasible
        request from a timeout without parsing messages.
    elapsed_s:
        Wall-clock time inside the worker (queue wait excluded).
    steady_solves:
        Steady-state solves the job issued (errors included, via the
        effort the exception carried out).
    cache_hit:
        Whether the thermal model came out of a cache.
    """

    status: Literal["ok", "error"]
    report: SolveReport | None
    error: str | None
    error_type: str | None
    elapsed_s: float
    steady_solves: int = 0
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        """True when the job produced a report."""
        return self.status == "ok"


def error_outcome(exc: BaseException, elapsed_s: float) -> SolveOutcome:
    """Wrap an exception into an error outcome (effort preserved)."""
    return SolveOutcome(
        status="error",
        report=None,
        error=f"{type(exc).__name__}: {exc}",
        error_type=type(exc).__name__,
        elapsed_s=elapsed_s,
        steady_solves=getattr(exc, "solve_steady_solves", 0),
        cache_hit=getattr(exc, "solve_cache_hit", False),
    )


def solve_request_outcome(
    request: ScheduleRequest, cache: ThermalModelCache | None = None
) -> SolveOutcome:
    """Execute one request; failures become error outcomes, not raises."""
    start = time.perf_counter()
    try:
        report = execute_request(request, cache=cache)
    # Catch everything, not just ReproError: a buggy registered solver
    # must not take down a long-lived service worker.
    except Exception as exc:
        return error_outcome(exc, time.perf_counter() - start)
    elapsed_s = time.perf_counter() - start
    # The engine-side wall time used to be discarded on this path; carry
    # it as the "worker" phase so batch and service reports compare.
    report = dataclasses.replace(
        report, timings={**(report.timings or {}), "worker": elapsed_s}
    )
    return SolveOutcome(
        status="ok",
        report=report,
        error=None,
        error_type=None,
        elapsed_s=elapsed_s,
        steady_solves=report.steady_solves,
        cache_hit=report.cache_hit,
    )


def process_solve(request: ScheduleRequest) -> SolveOutcome:
    """Module-level (hence picklable) process-pool worker (cached)."""
    return solve_request_outcome(request, process_local_cache())


def process_solve_uncached(request: ScheduleRequest) -> SolveOutcome:
    """Process-pool worker for ``use_cache=False`` services."""
    return solve_request_outcome(request, None)

