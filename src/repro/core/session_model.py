"""The paper's low-complexity test-session thermal model (Section 2).

For a test session ``TS`` the model assigns every **active** core an
equivalent thermal resistance built from the *same* resistance formulas
as the full RC simulation (:mod:`repro.thermal.resistances`), rewired
by the paper's three modifications:

* **M1 (steady state only)** — capacitances are dropped; the model is
  purely resistive.
* **M2 (no active-active exchange)** — the lateral resistance between
  two cores tested in the same session is removed: both run hot, so
  their temperature difference (and the heat they exchange) is small.
* **M3 (passive cores are thermal ground)** — a lateral resistance from
  an active core to a passive neighbour now connects straight to
  ambient, because the passive core is assumed to stay at ambient
  temperature for the whole session.

With the actives decoupled from each other (M2) and every remaining
path terminating at ground (M3), the network falls apart into one
independent star per active core, and the equivalent resistance is a
plain parallel combination — the paper's Figure 4.  That is what makes
the model "low-complexity": evaluating a candidate session is O(degree)
arithmetic instead of a linear solve.

On top of ``Rth`` the model defines (paper, end of Section 2):

* the **core thermal characteristic** ``TC_TS(i) = P(i) * Rth_TS(i)`` —
  a temperature-rise estimate for core *i* in session *TS*;
* the **session thermal characteristic**
  ``STC(TS) = max_i TC_TS(i) * P(i) * W(i)`` over the active cores,
  with ``W`` the adaptive weights of :mod:`repro.core.weights`.

The paper's Figures 3-4 draw only *lateral* paths (the vertical path
through the spreader is the one the model is trying to keep from
becoming the only escape route), so the default configuration is
lateral-only; ``include_vertical=True`` adds the per-core vertical
stack in parallel as an ablation.  A fully landlocked core whose
neighbours are all active then has ``Rth = inf`` and an infinite STC —
the scheduler reads that as "never admit this core into this session",
which is exactly the conservative behaviour wanted.

``stc_scale`` normalises STC values so that the STCL axis of the
paper's Figure 5 / Table 1 (20..100) is meaningful for a given SoC; the
paper's own STCL values are tied to their unpublished RC constants, so
the scale is part of the experiment calibration (DESIGN.md,
substitution 3).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Container, Iterable, Mapping

from ..errors import SchedulingError
from ..floorplan.adjacency import AdjacencyMap
from ..soc.system import SocUnderTest
from ..thermal.package import PackageConfig
from ..thermal.resistances import (
    boundary_edge_resistance,
    lateral_interface_resistance,
    shared_path_resistance,
    vertical_stack_resistance,
)
from ..units import parallel


@dataclass(frozen=True)
class SessionModelConfig:
    """Configuration (and ablation switches) for the session model.

    Attributes
    ----------
    drop_active_active:
        Paper modification M2.  ``False`` keeps the resistance between
        concurrently tested cores, treating the active neighbour as if
        it were grounded — a deliberately *optimistic* ablation that
        under-predicts hot spots (benchmarked in the ablation suite).
    ground_passive:
        Paper modification M3.  ``False`` removes passive-neighbour
        paths entirely instead of grounding them — a *pessimistic*
        ablation (only die-edge and vertical paths remain).
    include_vertical:
        Add the per-core vertical stack (die + TIM + spreading +
        shared spreader/sink path) in parallel with the lateral paths.
        The paper's Figure 4 shows lateral paths only, so the default
        is ``False``.
    stc_scale:
        STC values are divided by this constant; calibrated per SoC so
        the STCL sweep range matches the paper's 20..100 axis.
    """

    drop_active_active: bool = True
    ground_passive: bool = True
    include_vertical: bool = False
    stc_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.stc_scale <= 0.0:
            raise SchedulingError(
                f"stc_scale must be positive, got {self.stc_scale!r}"
            )


#: The configuration matching the paper exactly (all defaults).
PAPER_SESSION_MODEL = SessionModelConfig()


class SessionThermalModel:
    """Evaluates Rth / TC / STC for candidate test sessions of one SoC.

    All lateral and vertical resistances are precomputed once per SoC;
    evaluating a session is then pure parallel-resistance arithmetic.

    Parameters
    ----------
    soc:
        The system under test (supplies floorplan, adjacency, package
        and per-core test powers).
    config:
        Model variant switches (defaults reproduce the paper).
    """

    def __init__(
        self, soc: SocUnderTest, config: SessionModelConfig = PAPER_SESSION_MODEL
    ) -> None:
        self._soc = soc
        self._config = config
        adjacency: AdjacencyMap = soc.adjacency
        package: PackageConfig = soc.package
        floorplan = soc.floorplan

        # Lateral resistance to each neighbour, per core.
        self._neighbour_r: dict[str, dict[str, float]] = {
            name: {} for name in floorplan.block_names
        }
        for interface in adjacency.interfaces:
            block_a = floorplan[interface.block_a]
            block_b = floorplan[interface.block_b]
            resistance = lateral_interface_resistance(
                block_a, block_b, interface, package
            )
            self._neighbour_r[block_a.name][block_b.name] = resistance
            self._neighbour_r[block_b.name][block_a.name] = resistance

        # Die-edge escape paths, combined in parallel per core (they all
        # terminate at the package periphery, i.e. thermal ground in
        # this model).
        self._edge_r: dict[str, float] = {}
        for block in floorplan:
            segments = adjacency.boundary_segments(block.name)
            if segments:
                self._edge_r[block.name] = parallel(
                    *(
                        boundary_edge_resistance(block, segment, package)
                        for segment in segments
                    )
                )
            else:
                self._edge_r[block.name] = math.inf

        # Optional vertical path: per-core stack plus the shared
        # spreader/sink/convection tail.
        shared_tail = shared_path_resistance(package)
        self._vertical_r: dict[str, float] = {
            block.name: vertical_stack_resistance(block, package) + shared_tail
            for block in floorplan
        }

        # What pricing a core reads, gathered once: the escape paths
        # that do not depend on the session (die edge when present, then
        # the vertical stack when modelled) and the test power.
        self._fixed_paths: dict[str, tuple[float, ...]] = {}
        for name in floorplan.block_names:
            fixed = [] if math.isinf(self._edge_r[name]) else [self._edge_r[name]]
            if config.include_vertical:
                fixed.append(self._vertical_r[name])
            self._fixed_paths[name] = tuple(fixed)
        self._power: dict[str, float] = soc.test_power_map()

    # -- introspection ----------------------------------------------------------

    @property
    def soc(self) -> SocUnderTest:
        """The SoC this model was built for."""
        return self._soc

    @property
    def config(self) -> SessionModelConfig:
        """The model configuration."""
        return self._config

    def neighbour_resistances(self, core: str) -> Mapping[str, float]:
        """Lateral resistance to each neighbour of *core* (K/W)."""
        try:
            return dict(self._neighbour_r[core])
        except KeyError:
            raise SchedulingError(f"unknown core {core!r}") from None

    def edge_resistance(self, core: str) -> float:
        """Combined die-edge escape resistance of *core* (K/W; inf if landlocked)."""
        try:
            return self._edge_r[core]
        except KeyError:
            raise SchedulingError(f"unknown core {core!r}") from None

    def vertical_resistance(self, core: str) -> float:
        """Vertical stack resistance of *core* incl. the shared tail (K/W)."""
        try:
            return self._vertical_r[core]
        except KeyError:
            raise SchedulingError(f"unknown core {core!r}") from None

    # -- the paper's quantities -----------------------------------------------------

    def equivalent_resistance(self, core: str, active: Iterable[str]) -> float:
        """``Rth_TS(core)``: the paper's equivalent thermal resistance (K/W).

        Parallel combination of the core's escape paths given the
        session's active set (Figure 4 of the paper).  Returns
        ``math.inf`` when no escape path remains (landlocked core with
        every neighbour active, lateral-only model).

        Parameters
        ----------
        core:
            The active core being evaluated (must be in *active*).
        active:
            All cores of the candidate session, including *core*.
        """
        active_list = list(active)
        self._require_known([core, *active_list])
        active_set = frozenset(active_list)
        if core not in active_set:
            raise SchedulingError(
                f"core {core!r} must be part of the active set it is "
                f"evaluated against"
            )
        return self._rth(core, active_set)

    def _require_known(self, cores: Iterable[str]) -> None:
        for core in cores:
            if core not in self._neighbour_r:
                raise SchedulingError(f"unknown core {core!r}")

    def _rth(self, core: str, active: Container[str]) -> float:
        """``Rth`` of a known *core* against the active-set membership test."""
        # An active neighbour's path is dropped under M2 (kept, grounded,
        # in the no-M2 ablation); a passive neighbour's is grounded under
        # M3 (absent in the no-M3 ablation).
        keep_active = not self._config.drop_active_active
        keep_passive = self._config.ground_passive
        paths = [
            resistance
            for neighbour, resistance in self._neighbour_r[core].items()
            if (keep_active if neighbour in active else keep_passive)
        ]
        paths.extend(self._fixed_paths[core])
        if not paths:
            return math.inf
        return parallel(*paths)

    def _contribution(
        self,
        core: str,
        active: Container[str],
        weights: Mapping[str, float] | None,
    ) -> float:
        """Unscaled STC term ``TC * P * W`` of a known *core* (``inf`` if trapped)."""
        rth = self._rth(core, active)
        if math.isinf(rth):
            return math.inf
        power = self._power[core]
        weight = 1.0 if weights is None else weights.get(core, 1.0)
        return power * rth * power * weight

    def thermal_characteristic(self, core: str, active: Iterable[str]) -> float:
        """``TC_TS(core) = P(core) * Rth_TS(core)`` (kelvin-rise estimate)."""
        rth = self.equivalent_resistance(core, active)
        if math.isinf(rth):
            return math.inf
        return self._soc[core].test_power_w * rth

    def session_thermal_characteristic(
        self,
        active: Iterable[str],
        weights: Mapping[str, float] | None = None,
    ) -> float:
        """``STC(TS) = max_i TC_TS(i) * P(i) * W(i) / stc_scale``.

        Parameters
        ----------
        active:
            The candidate session's cores.  An empty session has
            ``STC = 0`` (nothing dissipates), so any first core whose
            singleton STC fits the limit can seed a session.
        weights:
            Optional per-core weights ``W(i)`` (default all 1.0).

        Returns
        -------
        float
            The STC value; ``math.inf`` when any active core has no
            escape path.
        """
        active_list = self._session_cores(active)
        active_set = frozenset(active_list)
        worst = 0.0
        for core in active_list:
            contribution = self._contribution(core, active_set, weights)
            if math.isinf(contribution):
                return math.inf
            worst = max(worst, contribution)
        return worst / self._config.stc_scale

    def _session_cores(self, active: Iterable[str]) -> list[str]:
        """*active* as a list of known, distinct cores."""
        active_list = list(active)
        if len(set(active_list)) != len(active_list):
            raise SchedulingError(f"duplicate cores in session: {active_list}")
        self._require_known(active_list)
        return active_list

    def start_session(
        self, weights: Mapping[str, float] | None = None
    ) -> "SessionGrowth":
        """An incremental accumulator for greedy session growth.

        The scheduler's growth loop evaluates ``STC(S + [c])`` for every
        tentative candidate ``c``.  A :class:`SessionGrowth` prices each
        candidate in O(degree * log |S|): it recomputes only the
        contributions the candidate changes (its own and its admitted
        neighbours') and takes the max over the rest from a heap,
        producing **bit-identical** STC values, because an unaffected
        core's contribution depends only on which of its own neighbours
        are active.
        """
        return SessionGrowth(self, weights)

    def core_contributions(
        self,
        active: Iterable[str],
        weights: Mapping[str, float] | None = None,
    ) -> dict[str, float]:
        """Per-core ``TC * P * W / scale`` terms of the STC max (diagnostics)."""
        active_list = self._session_cores(active)
        active_set = frozenset(active_list)
        return {
            core: self._contribution(core, active_set, weights)
            / self._config.stc_scale
            for core in active_list
        }


class SessionGrowth:
    """Incrementally maintained STC of one growing test session.

    Created by :meth:`SessionThermalModel.start_session`.  Maintains
    the admitted cores as a live set, their **unscaled** STC
    contributions (``TC * P * W``) and a max-heap over those
    contributions.  :meth:`stc_if_added` prices a tentative candidate
    by recomputing only the contributions the candidate perturbs — the
    candidate itself and its admitted neighbours, read from the
    candidate's neighbour map (adding an active core only rewires its
    direct neighbours' escape paths) — and taking the max against the
    untouched remainder: the heap top, after setting aside at most
    ``degree`` entries of perturbed members.  Per candidate that is
    O(degree) contribution evaluations plus O(degree * log |S|) heap
    work, independent of the session size otherwise.

    The heap deletes lazily: :meth:`add` pushes a fresh entry for each
    changed contribution, and an entry counts only while it is the
    member's live one; stale entries are dropped when they reach the
    top.

    Equivalence: for any admission sequence, :meth:`stc_if_added`
    returns exactly
    ``model.session_thermal_characteristic(session + [candidate], weights)``
    (same float operations on the same operands, so bit-identical);
    the test suite asserts this property over random floorplans.
    """

    def __init__(
        self,
        model: SessionThermalModel,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        self._model = model
        self._weights = weights
        #: Admitted cores (plus, while one is priced, the candidate).
        self._members: set[str] = set()
        #: The live heap entry ``(-contribution, core)`` of each admitted
        #: core, keyed in admission order; contributions are unscaled
        #: (``TC * P * W``).
        self._entry: dict[str, tuple[float, str]] = {}
        #: Max-heap of ``(-contribution, core)`` entries, deleted lazily.
        self._heap: list[tuple[float, str]] = []

    @property
    def cores(self) -> tuple[str, ...]:
        """The admitted cores, in admission order."""
        return tuple(self._entry)

    def _affected_members(self, candidate: str) -> list[str]:
        """Admitted cores whose escape paths *candidate* rewires."""
        if candidate in self._members:
            raise SchedulingError(
                f"core {candidate!r} is already part of the session"
            )
        try:
            neighbours = self._model._neighbour_r[candidate]
        except KeyError:
            raise SchedulingError(f"unknown core {candidate!r}") from None
        return [core for core in neighbours if core in self._members]

    def _max_unchanged(self, affected: list[str]) -> float:
        """Largest contribution among members not in *affected* (0.0 if none)."""
        heap = self._heap
        set_aside: list[tuple[float, str]] = []
        worst = 0.0
        while heap:
            entry = heap[0]
            core = entry[1]
            if self._entry.get(core) is not entry:
                heapq.heappop(heap)
            elif core in affected:
                set_aside.append(heapq.heappop(heap))
            else:
                worst = -entry[0]
                break
        for entry in set_aside:
            heapq.heappush(heap, entry)
        return worst

    def stc_if_added(self, candidate: str) -> float:
        """``STC(session + [candidate])`` without committing the candidate."""
        affected = self._affected_members(candidate)
        worst = self._max_unchanged(affected)
        if math.isinf(worst):
            return math.inf
        self._members.add(candidate)
        try:
            for core in affected + [candidate]:
                contribution = self._model._contribution(
                    core, self._members, self._weights
                )
                if math.isinf(contribution):
                    return math.inf
                worst = max(worst, contribution)
        finally:
            self._members.discard(candidate)
        return worst / self._model.config.stc_scale

    def add(self, candidate: str) -> None:
        """Admit *candidate*, updating the perturbed contributions."""
        affected = self._affected_members(candidate)
        self._members.add(candidate)
        for core in affected + [candidate]:
            contribution = self._model._contribution(
                core, self._members, self._weights
            )
            entry = (-contribution, core)
            if self._entry.get(core) != entry:
                self._entry[core] = entry
                heapq.heappush(self._heap, entry)

    def stc(self) -> float:
        """STC of the session as admitted so far (0.0 when empty)."""
        worst = self._max_unchanged([])
        if math.isinf(worst):
            return math.inf
        return worst / self._model.config.stc_scale
