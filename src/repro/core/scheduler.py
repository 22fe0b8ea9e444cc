"""Thermal-aware test schedule generation — the paper's Algorithm 1.

The flow (Section 3 of the paper):

* **Phase A (lines 1-7)** — simulate every core tested alone and record
  its *best-case max temperature* (BCMT).  A core whose BCMT already
  reaches the limit ``TL`` cannot be scheduled at all; the paper fixes
  this by redesigning the core's test infrastructure or raising ``TL``,
  neither of which an algorithm can do, so we raise
  :class:`~repro.errors.CoreThermalViolationError`.
* **Phase B (lines 8-28)** — repeatedly grow a test session by scanning
  the unscheduled cores in order and admitting each core whose addition
  keeps the session thermal characteristic within the limit
  (``STC(TS) <= STCL``); then validate the full session with an
  accurate thermal simulation.  On any violation (``MaxTemp >= TL``)
  the session is discarded and the violators' weights are escalated
  (``W *= 1.1``), making them look hotter to the STC heuristic on the
  next attempt; otherwise the session is committed and its cores
  retired.  Loop until every core is scheduled.

Two metrics instrument the run exactly as the paper reports them:

* *test schedule length* — the sum of committed session durations;
* *simulation effort* — the total session time submitted to the
  accurate simulator in phase B, **including discarded sessions**.
  Phase-A singleton simulations are not counted (the paper's "for very
  tight constraints the simulation effort equals the schedule length"
  observation only holds under this accounting).

Termination: every discarded session strictly escalates at least one
weight by a factor > 1, so any session that keeps violating eventually
exceeds ``STCL`` and stops being proposed; in the limit only singleton
sessions remain, and phase A guarantees those commit.  With
``weight_factor = 1.0`` (ablation: no feedback) that argument fails, so
the scheduler additionally enforces ``max_discards``.

One situation the paper's pseudocode does not handle: no remaining core
fits an *empty* session (its singleton STC already exceeds ``STCL``,
e.g. after heavy weight escalation or under an unrealistically tight
limit).  ``on_stuck`` selects between forcing the best core through as
a singleton (default; a singleton is thermally identical to its phase-A
simulation, so it always commits) or raising
:class:`~repro.errors.ScheduleInfeasibleError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np

from ..errors import (
    CoreThermalViolationError,
    ScheduleInfeasibleError,
    SchedulingError,
)
from ..soc.system import SocUnderTest
from ..thermal.simulator import ThermalSimulator
from .session import TestSchedule, TestSession
from .session_model import PAPER_SESSION_MODEL, SessionModelConfig, SessionThermalModel
from .weights import PAPER_WEIGHT_FACTOR, WeightStore

#: Candidate-scan orders for session growth (paper: input order).
CandidateOrder = Literal["input", "power_desc", "area_asc", "density_desc"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of the thermal-aware scheduler.

    Attributes
    ----------
    weight_factor:
        Escalation factor for violating cores (paper: 1.1; 1.0 turns
        the feedback loop off for the ablation study).
    candidate_order:
        Order in which unscheduled cores are scanned when growing a
        session.  The paper scans "FOR EACH Ci in A" without further
        qualification, i.e. input order; the alternatives are provided
        for sensitivity studies.
    on_stuck:
        Behaviour when no core fits an empty session: ``"force"``
        commits the lowest-STC core as a singleton; ``"error"`` raises.
    max_discards:
        Hard cap on discarded sessions per run (safety net; the paper's
        configuration terminates long before hitting it).
    count_phase_a_effort:
        When true, phase-A singleton simulations are added to the
        simulation-effort metric.  The paper does not count them.
    validation:
        How sessions are thermally validated.  ``"steady"`` is the
        paper's modification M1 (steady-state temperatures, a
        conservative upper bound).  ``"transient"`` validates against
        the actual transient peak over the session duration starting
        from ambient — tighter, so schedules pack harder, at the cost
        of a (far) more expensive simulation per attempt.  The M1
        validation study (`repro.experiments.m1_validation`) quantifies
        the gap between the two.
    transient_dt_s:
        Integration step for ``"transient"`` validation.
    steady_path:
        How ``"steady"`` validations are computed.  ``"reduced"``
        (default) applies the precomputed block-level influence
        operator — one small matvec per candidate session, with phase A
        batched into a single GEMM.  ``"dense"`` issues a full-network
        back-substitution per candidate (the pre-reduced behaviour);
        it exists for equivalence testing and benchmarking, and the two
        agree to solver precision (same factorisation, superposed).
    """

    weight_factor: float = PAPER_WEIGHT_FACTOR
    candidate_order: CandidateOrder = "input"
    on_stuck: Literal["force", "error"] = "force"
    max_discards: int = 10_000
    count_phase_a_effort: bool = False
    validation: Literal["steady", "transient"] = "steady"
    transient_dt_s: float = 1e-2
    steady_path: Literal["reduced", "dense"] = "reduced"

    def __post_init__(self) -> None:
        if self.weight_factor < 1.0:
            raise SchedulingError(
                f"weight_factor must be >= 1.0, got {self.weight_factor!r}"
            )
        if self.max_discards < 1:
            raise SchedulingError(
                f"max_discards must be >= 1, got {self.max_discards!r}"
            )
        if self.transient_dt_s <= 0.0:
            raise SchedulingError(
                f"transient_dt_s must be positive, got {self.transient_dt_s!r}"
            )


#: Configuration matching the paper exactly.
PAPER_SCHEDULER = SchedulerConfig()


@dataclass(frozen=True)
class DiscardedSession:
    """Record of a session rejected by thermal validation.

    Attributes
    ----------
    cores:
        The candidate session's cores.
    duration_s:
        Its duration (charged to simulation effort).
    violators:
        Cores whose simulated temperature reached ``TL``.
    max_temperature_c:
        Peak simulated temperature over the session's cores.
    iteration:
        1-based phase-B iteration number.
    """

    cores: tuple[str, ...]
    duration_s: float
    violators: tuple[str, ...]
    max_temperature_c: float
    iteration: int


@dataclass(frozen=True)
class ScheduleResult:
    """Everything a thermal-aware scheduling run produced.

    Attributes
    ----------
    schedule:
        The committed, thermally validated test schedule.
    tl_c, stcl:
        The limits the run was given.
    length_s:
        Test schedule length (the paper's first metric).
    effort_s:
        Simulation effort in seconds of simulated session time (the
        paper's second metric).
    max_temperature_c:
        Peak simulated temperature over the final schedule (the paper's
        third metric, Table 1 column 5).
    bcmt_c:
        Phase-A best-case max temperature per core.
    weights:
        Final weight of every core.
    discarded:
        All rejected sessions, in order.
    forced_singletons:
        How many sessions had to be forced through the ``on_stuck``
        path (0 in every paper-regime run).
    steady_solves:
        Number of steady-state solves the run issued against the
        simulator (phase A + every candidate session).  Unlike
        ``effort_s`` (simulated seconds, the paper's metric) this
        counts actual linear-system solves, so it tracks real compute
        and surfaces perf regressions in benchmark output.
    """

    schedule: TestSchedule
    tl_c: float
    stcl: float
    length_s: float
    effort_s: float
    max_temperature_c: float
    bcmt_c: Mapping[str, float]
    weights: Mapping[str, float]
    discarded: tuple[DiscardedSession, ...] = field(default_factory=tuple)
    forced_singletons: int = 0
    steady_solves: int = 0

    @property
    def n_sessions(self) -> int:
        """Number of committed sessions."""
        return len(self.schedule)

    @property
    def n_discarded(self) -> int:
        """Number of rejected sessions."""
        return len(self.discarded)

    def describe(self) -> str:
        """Multi-line human-readable run summary."""
        lines = [
            f"Thermal-aware schedule (TL={self.tl_c:g} degC, STCL={self.stcl:g}): "
            f"length {self.length_s:g} s, effort {self.effort_s:g} s, "
            f"max temp {self.max_temperature_c:.2f} degC",
            self.schedule.describe(),
        ]
        if self.steady_solves:
            lines.append(f"  steady-state solves: {self.steady_solves}")
        if self.discarded:
            lines.append(f"  discarded sessions: {self.n_discarded}")
        if self.forced_singletons:
            lines.append(f"  forced singletons: {self.forced_singletons}")
        return "\n".join(lines)


class ThermalAwareScheduler:
    """Algorithm 1 of the paper, bound to one SoC.

    Parameters
    ----------
    soc:
        The system under test.
    simulator:
        The accurate thermal simulator (built from the SoC's floorplan
        and package when omitted) — the HotSpot stand-in.
    session_model:
        The STC session model (built with the paper configuration when
        omitted).
    config:
        Scheduler tunables (defaults reproduce the paper).
    """

    def __init__(
        self,
        soc: SocUnderTest,
        simulator: ThermalSimulator | None = None,
        session_model: SessionThermalModel | None = None,
        session_model_config: SessionModelConfig = PAPER_SESSION_MODEL,
        config: SchedulerConfig = PAPER_SCHEDULER,
    ) -> None:
        self._soc = soc
        self._simulator = (
            simulator
            if simulator is not None
            else ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
        )
        self._model = (
            session_model
            if session_model is not None
            else SessionThermalModel(soc, session_model_config)
        )
        self._config = config

    @property
    def soc(self) -> SocUnderTest:
        """The system under test."""
        return self._soc

    @property
    def simulator(self) -> ThermalSimulator:
        """The accurate thermal simulator used for validation."""
        return self._simulator

    @property
    def session_model(self) -> SessionThermalModel:
        """The STC session model guiding session growth."""
        return self._model

    @property
    def config(self) -> SchedulerConfig:
        """The scheduler configuration."""
        return self._config

    # -- phase A ------------------------------------------------------------------

    def _use_reduced(self) -> bool:
        return (
            self._config.validation == "steady"
            and self._config.steady_path == "reduced"
        )

    def _session_temperatures(
        self, power_map: dict[str, float], duration_s: float, cores: list[str]
    ) -> np.ndarray:
        """Per-core validation temperatures for one candidate session.

        Returns an array aligned with *cores* (Celsius).  ``"steady"``
        uses the reduced block-level operator (one matvec) or, on the
        ``"dense"`` path, the cached full-network solve (the paper's
        M1); ``"transient"`` uses the true transient peak over the
        session duration starting from ambient.
        """
        if self._config.validation == "steady":
            if self._use_reduced():
                field_ = self._simulator.block_steady_state(power_map)
                return field_.temperatures_for(cores)
            field_ = self._simulator.steady_state(power_map)
            return np.array([field_.temperature_c(c) for c in cores])
        peaks = self._simulator.block_peak_transient_c(
            power_map, duration_s, dt=self._config.transient_dt_s
        )
        return np.array([peaks[c] for c in cores])

    def best_case_max_temperatures(self) -> tuple[dict[str, float], float]:
        """Simulate the purely sequential schedule (lines 1-3).

        On the reduced steady path, every singleton session is one
        column of a single batched operator application (one GEMM for
        the whole of phase A).

        Returns
        -------
        (bcmt, effort_s)
            Per-core best-case max temperature (Celsius) and the
            simulated time spent (only charged to the effort metric
            when :attr:`SchedulerConfig.count_phase_a_effort` is set).
        """
        names = self._ordered(list(self._soc.core_names))
        effort = sum(self._soc[name].test_time_s for name in names)
        if self._use_reduced():
            batch = self._simulator.block_steady_state_batch(
                [{name: self._soc[name].test_power_w} for name in names]
            )
            own = batch.own_temperatures_c(names)
            return dict(zip(names, own.tolist())), effort

        bcmt: dict[str, float] = {}
        for name in names:
            core = self._soc[name]
            temps = self._session_temperatures(
                {name: core.test_power_w}, core.test_time_s, [name]
            )
            bcmt[name] = float(temps[0])
        return bcmt, effort

    # -- phase B helpers -------------------------------------------------------------

    def _ordered(self, names: list[str]) -> list[str]:
        order = self._config.candidate_order
        if order == "input":
            return list(names)
        if order == "power_desc":
            return sorted(names, key=lambda n: -self._soc[n].test_power_w)
        if order == "area_asc":
            return sorted(names, key=lambda n: self._soc.floorplan[n].area)
        if order == "density_desc":
            return sorted(
                names,
                key=lambda n: -self._soc[n].test_power_w / self._soc.floorplan[n].area,
            )
        raise SchedulingError(f"unknown candidate order {order!r}")

    def _grow_session(
        self, pending: list[str], stcl: float, weights: Mapping[str, float]
    ) -> tuple[list[str], dict[str, float]]:
        """Lines 9-15: greedily admit cores while STC stays within STCL.

        The STC of each tentative candidate is maintained incrementally
        (:class:`~repro.core.session_model.SessionGrowth`): admitting a
        core only rewires its direct neighbours' escape paths, so only
        those contributions are recomputed — bit-identical to the
        from-scratch evaluation, at O(degree) contribution evaluations
        per candidate whatever the session size.  Every pending core is
        still priced once per session, so one growth pass costs
        O(pending * degree).

        Returns the admitted cores and the STC each candidate was priced
        at.  When nothing was admitted, every price is the candidate's
        singleton STC.
        """
        growth = self._model.start_session(weights)
        session: list[str] = []
        priced: dict[str, float] = {}
        for candidate in self._ordered(pending):
            stc = priced[candidate] = growth.stc_if_added(candidate)
            if stc <= stcl:
                growth.add(candidate)
                session.append(candidate)
        return session, priced

    # -- the full flow ----------------------------------------------------------------

    def schedule(self, tl_c: float, stcl: float) -> ScheduleResult:
        """Generate a thermal-safe test schedule.

        Parameters
        ----------
        tl_c:
            Maximum allowable temperature ``TL`` (Celsius); a simulated
            core temperature **at or above** this value is a violation
            (the paper's ``MaxTemp >= TL`` test, line 19).
        stcl:
            Session thermal characteristic limit ``STCL``.

        Returns
        -------
        ScheduleResult

        Raises
        ------
        CoreThermalViolationError
            When a core violates ``TL`` even tested alone (phase A).
        ScheduleInfeasibleError
            When ``on_stuck="error"`` and no core fits an empty
            session, or ``max_discards`` is exhausted.
        """
        if stcl <= 0.0:
            raise SchedulingError(f"STCL must be positive, got {stcl!r}")
        solves_before = self._simulator.steady_solve_count

        # Phase A: individual-core thermal sanity (lines 1-7).
        bcmt, phase_a_effort = self.best_case_max_temperatures()
        for name, temperature in bcmt.items():
            if temperature >= tl_c:
                raise CoreThermalViolationError(name, temperature, tl_c)

        # Phase B: session packing (lines 8-28).
        weights = WeightStore(self._soc.core_names, self._config.weight_factor)
        pending = list(self._soc.core_names)
        committed: list[TestSession] = []
        discarded: list[DiscardedSession] = []
        effort_s = phase_a_effort if self._config.count_phase_a_effort else 0.0
        forced_singletons = 0
        iteration = 0

        while pending:
            iteration += 1
            session_cores, priced = self._grow_session(
                pending, stcl, weights.as_mapping()
            )
            if not session_cores:
                if self._config.on_stuck == "error":
                    raise ScheduleInfeasibleError(
                        f"no remaining core fits an empty session at STCL={stcl:g} "
                        f"(pending: {pending}); weights may have escalated past "
                        f"the limit"
                    )
                # Nothing was admitted, so growth priced every pending core
                # as a singleton; scanning in pending order keeps the ties
                # of the from-scratch pick under every candidate order.
                best = min(pending, key=priced.__getitem__)
                session_cores = [best]
                forced_singletons += 1

            duration = self._soc.session_duration_s(session_cores)
            power_map = self._soc.session_power_map(session_cores)
            temps = self._session_temperatures(power_map, duration, session_cores)
            effort_s += duration

            # Vectorised violator detection: one comparison against TL
            # over the whole session instead of a per-core Python loop.
            violator_mask = temps >= tl_c
            if violator_mask.any():
                # Lines 19-22: discard, escalate, retry.
                violators = tuple(
                    c for c, bad in zip(session_cores, violator_mask) if bad
                )
                weights.penalise_all(violators, iteration)
                discarded.append(
                    DiscardedSession(
                        cores=tuple(session_cores),
                        duration_s=duration,
                        violators=violators,
                        max_temperature_c=float(temps.max()),
                        iteration=iteration,
                    )
                )
                if len(discarded) >= self._config.max_discards:
                    raise ScheduleInfeasibleError(
                        f"exceeded max_discards={self._config.max_discards} at "
                        f"TL={tl_c:g}, STCL={stcl:g}; the weight feedback is not "
                        f"converging (weight_factor="
                        f"{self._config.weight_factor:g})"
                    )
                continue

            # Lines 24-27: commit the session.
            session = TestSession(
                cores=tuple(session_cores), duration_s=duration
            ).with_temperatures(dict(zip(session_cores, temps.tolist())))
            committed.append(session)
            retained = set(session_cores)
            pending = [c for c in pending if c not in retained]

        schedule = TestSchedule(committed, self._soc)
        return ScheduleResult(
            schedule=schedule,
            tl_c=tl_c,
            stcl=stcl,
            length_s=schedule.length_s,
            effort_s=effort_s,
            max_temperature_c=schedule.max_temperature_c,
            bcmt_c=bcmt,
            weights=weights.as_mapping(),
            discarded=tuple(discarded),
            forced_singletons=forced_singletons,
            steady_solves=self._simulator.steady_solve_count - solves_before,
        )
