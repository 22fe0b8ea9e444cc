"""Scheduler equivalence: reduced steady path vs dense, incremental STC.

Two independent guarantees:

* switching ``SchedulerConfig.steady_path`` between ``"reduced"`` and
  ``"dense"`` changes *how* candidate sessions are validated but not
  *what* is decided — same sessions, same discards, same effort, same
  solve counts; temperatures agree to solver precision;
* :class:`~repro.core.session_model.SessionGrowth` returns
  **bit-identical** STC values to the from-scratch
  ``session_thermal_characteristic`` for every admission sequence and
  every ablation configuration.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import SchedulerConfig, ThermalAwareScheduler
from repro.core.session_model import SessionModelConfig, SessionThermalModel
from repro.errors import SchedulingError
from repro.floorplan.generator import grid_floorplan, slicing_floorplan
from repro.power.generator import (
    PowerGeneratorConfig,
    generate_power_profile,
    uniform_test_power_profile,
)
from repro.soc.library import (
    ALPHA15_STC_SCALE,
    alpha15_soc,
    grid_soc,
    hypothetical7_soc,
)
from repro.soc.system import SocUnderTest
from repro.thermal.simulator import ThermalSimulator


def build_random_soc(n_cores: int, seed: int) -> SocUnderTest:
    plan = slicing_floorplan(n_cores, seed=seed)
    profile = generate_power_profile(plan, PowerGeneratorConfig(seed=seed))
    return SocUnderTest.from_profile(plan, profile)


def run_schedule(soc, model, path, tl_c, stcl):
    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    scheduler = ThermalAwareScheduler(
        soc,
        simulator=simulator,
        session_model=model,
        config=SchedulerConfig(steady_path=path),
    )
    return scheduler.schedule(tl_c=tl_c, stcl=stcl)


def assert_same_decisions(reduced, dense):
    """Same partition, same discards, same metrics; temps to precision."""
    assert [s.cores for s in reduced.schedule] == [s.cores for s in dense.schedule]
    assert [s.duration_s for s in reduced.schedule] == [
        s.duration_s for s in dense.schedule
    ]
    assert reduced.length_s == dense.length_s
    assert reduced.effort_s == dense.effort_s
    assert reduced.steady_solves == dense.steady_solves
    assert reduced.forced_singletons == dense.forced_singletons
    assert dict(reduced.weights) == dict(dense.weights)
    assert [(d.cores, d.violators, d.iteration) for d in reduced.discarded] == [
        (d.cores, d.violators, d.iteration) for d in dense.discarded
    ]
    assert reduced.max_temperature_c == pytest.approx(
        dense.max_temperature_c, abs=1e-9
    )
    for name in reduced.bcmt_c:
        assert reduced.bcmt_c[name] == pytest.approx(
            dense.bcmt_c[name], abs=1e-9
        )


class TestReducedVsDenseScheduling:
    @pytest.mark.parametrize(
        "tl_c, stcl", [(165.0, 60.0), (175.0, 40.0), (180.0, 90.0)]
    )
    def test_alpha15_decisions_identical(self, tl_c, stcl):
        soc = alpha15_soc()
        model = SessionThermalModel(
            soc, SessionModelConfig(stc_scale=ALPHA15_STC_SCALE)
        )
        reduced = run_schedule(soc, model, "reduced", tl_c, stcl)
        dense = run_schedule(soc, model, "dense", tl_c, stcl)
        assert_same_decisions(reduced, dense)

    def test_hypothetical7_decisions_identical(self):
        soc = hypothetical7_soc()
        model = SessionThermalModel(soc, SessionModelConfig(include_vertical=True))
        reduced = run_schedule(soc, model, "reduced", 200.0, 4000.0)
        dense = run_schedule(soc, model, "dense", 200.0, 4000.0)
        assert_same_decisions(reduced, dense)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_cores=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=5_000),
        tl_c=st.floats(min_value=100.0, max_value=220.0),
        stcl=st.floats(min_value=10.0, max_value=3_000.0),
    )
    def test_random_soc_decisions_identical(self, n_cores, seed, tl_c, stcl):
        soc = build_random_soc(n_cores, seed)
        model = SessionThermalModel(soc)
        try:
            reduced = run_schedule(soc, model, "reduced", tl_c, stcl)
        except Exception as reduced_exc:
            with pytest.raises(type(reduced_exc)):
                run_schedule(soc, model, "dense", tl_c, stcl)
            return
        dense = run_schedule(soc, model, "dense", tl_c, stcl)
        assert_same_decisions(reduced, dense)


class TestSessionGrowth:
    @pytest.fixture(scope="class")
    def soc(self):
        return alpha15_soc()

    def _grow_and_compare(self, model, names, weights, admit_threshold):
        """Greedy growth double-checked against from-scratch STC."""
        growth = model.start_session(weights)
        session: list[str] = []
        for candidate in names:
            incremental = growth.stc_if_added(candidate)
            scratch = model.session_thermal_characteristic(
                session + [candidate], weights
            )
            # Bit-identical, not approximately equal: the accumulator
            # must run the same float operations on the same operands.
            if math.isinf(scratch):
                assert math.isinf(incremental)
            else:
                assert incremental == scratch
            if incremental <= admit_threshold:
                growth.add(candidate)
                session.append(candidate)
                assert growth.stc() == model.session_thermal_characteristic(
                    session, weights
                )
        assert list(growth.cores) == session

    @pytest.mark.parametrize(
        "config",
        [
            SessionModelConfig(),
            SessionModelConfig(drop_active_active=False),
            SessionModelConfig(ground_passive=False),
            SessionModelConfig(drop_active_active=False, ground_passive=False),
            SessionModelConfig(include_vertical=True),
            SessionModelConfig(stc_scale=ALPHA15_STC_SCALE),
        ],
        ids=[
            "paper",
            "no-M2",
            "no-M3",
            "no-M2-no-M3",
            "vertical",
            "scaled",
        ],
    )
    def test_bit_identical_across_configs(self, soc, config):
        model = SessionThermalModel(soc, config)
        rng = random.Random(7)
        names = list(soc.core_names)
        weights = {n: 1.0 + rng.random() for n in names}
        for trial in range(5):
            rng.shuffle(names)
            threshold = rng.uniform(1e-3, 1e6)
            self._grow_and_compare(model, list(names), weights, threshold)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_cores=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
        order_seed=st.integers(min_value=0, max_value=10_000),
        threshold=st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_bit_identical_on_random_floorplans(
        self, n_cores, seed, order_seed, threshold
    ):
        soc = build_random_soc(n_cores, seed)
        model = SessionThermalModel(soc)
        rng = random.Random(order_seed)
        names = list(soc.core_names)
        rng.shuffle(names)
        weights = {n: 1.0 + rng.random() * 3.0 for n in names}
        self._grow_and_compare(model, names, weights, threshold)

    def test_duplicate_admission_rejected(self, soc):
        model = SessionThermalModel(soc)
        growth = model.start_session()
        first = soc.core_names[0]
        growth.add(first)
        with pytest.raises(SchedulingError, match="already part"):
            growth.add(first)
        with pytest.raises(SchedulingError, match="already part"):
            growth.stc_if_added(first)

    def test_unknown_core_rejected(self, soc):
        model = SessionThermalModel(soc)
        growth = model.start_session()
        with pytest.raises(SchedulingError, match="unknown core"):
            growth.stc_if_added("nope")

    def test_empty_session_stc_is_zero(self, soc):
        model = SessionThermalModel(soc)
        assert model.start_session().stc() == 0.0


class TestGrowthCost:
    def test_pricing_evaluates_only_the_candidate_and_its_admitted_neighbours(
        self,
    ):
        """Pricing a candidate costs O(degree), however large the session."""
        soc = grid_soc(16, 16, seed=5)
        model = SessionThermalModel(soc)
        evaluated: list[str] = []
        contribution = model._contribution

        def counting(core, active, weights):
            evaluated.append(core)
            return contribution(core, active, weights)

        model._contribution = counting
        names = list(soc.core_names)
        random.Random(11).shuffle(names)
        singles = sorted(model.session_thermal_characteristic([n]) for n in names)
        threshold = 1.5 * singles[len(singles) // 2]
        weights = {n: 1.0 + (i % 7) / 10.0 for i, n in enumerate(names)}

        growth = model.start_session(weights)
        session: list[str] = []
        for candidate in names:
            evaluated.clear()
            stc = growth.stc_if_added(candidate)
            admitted_neighbours = set(
                model.neighbour_resistances(candidate)
            ).intersection(session)
            assert len(evaluated) <= 1 + len(admitted_neighbours)
            assert set(evaluated) <= admitted_neighbours | {candidate}
            scratch = model.session_thermal_characteristic(
                session + [candidate], weights
            )
            assert stc == scratch or (math.isinf(stc) and math.isinf(scratch))
            if stc <= threshold:
                growth.add(candidate)
                session.append(candidate)
        # Mid-growth for real: the session grew large while being priced.
        assert 40 <= len(session) < len(names)
        assert growth.stc() == model.session_thermal_characteristic(session, weights)


def uniform_grid_soc(rows: int, cols: int) -> SocUnderTest:
    """Equal powers on a grid: symmetric cores tie on singleton STC."""
    plan = grid_floorplan(rows, cols)
    return SocUnderTest.from_profile(plan, uniform_test_power_profile(plan, 4.0))


def coarsen(model: SessionThermalModel, levels: int) -> None:
    """Round the model's contributions up onto a few levels, so cores of
    different power (and so different positions in a sorted candidate
    order) tie on singleton STC."""
    contribution = model._contribution
    singles = [contribution(n, {n}, None) for n in model.soc.core_names]
    step = max(singles) / levels

    def coarse(core, active, weights):
        value = contribution(core, active, weights)
        return value if math.isinf(value) else math.ceil(value / step) * step

    model._contribution = coarse


class TestForcedSingletons:
    @pytest.mark.parametrize(
        "order", ["input", "power_desc", "area_asc", "density_desc"]
    )
    @pytest.mark.parametrize(
        "soc_factory, levels",
        [
            (lambda: grid_soc(5, 5, seed=3), None),
            (lambda: grid_soc(5, 5, seed=3), 4),
            (lambda: uniform_grid_soc(4, 4), None),
        ],
        ids=["random-powers", "random-powers-coarse", "uniform-powers"],
    )
    def test_forced_pick_is_the_lowest_singleton_stc_in_pending_order(
        self, soc_factory, levels, order
    ):
        soc = soc_factory()
        model = SessionThermalModel(soc)
        if levels is not None:
            coarsen(model, levels)
        scheduler = ThermalAwareScheduler(
            soc,
            session_model=model,
            config=SchedulerConfig(candidate_order=order),
        )
        bcmt, _ = scheduler.best_case_max_temperatures()
        singles = sorted(
            model.session_thermal_characteristic([n]) for n in soc.core_names
        )
        # About a quarter of the cores never fit even an empty session,
        # and TL sits just above the hottest singleton, so sessions also
        # get discarded and weights escalate between forced picks.
        stcl = singles[3 * len(singles) // 4]
        tl_c = max(bcmt.values()) + 0.2

        events: list[tuple[str, object]] = []
        order_sensitive = 0
        grow = scheduler._grow_session
        validate = scheduler._session_temperatures

        def spy_grow(pending, stcl_, weights):
            nonlocal order_sensitive
            grown = grow(pending, stcl_, weights)
            if not grown[0]:

                def singleton_stc(core):
                    return model.session_thermal_characteristic([core], weights)

                expected = min(pending, key=singleton_stc)
                events.append(("forced", expected))
                if min(scheduler._ordered(pending), key=singleton_stc) != expected:
                    order_sensitive += 1
            return grown

        def spy_validate(power_map, duration_s, cores):
            events.append(("validated", list(cores)))
            return validate(power_map, duration_s, cores)

        scheduler._grow_session = spy_grow
        scheduler._session_temperatures = spy_validate
        result = scheduler.schedule(tl_c, stcl)

        forced = [i for i, (kind, _) in enumerate(events) if kind == "forced"]
        assert len(forced) == result.forced_singletons > 0
        assert result.discarded
        for i in forced:
            assert events[i + 1] == ("validated", [events[i][1]])
        if levels is not None and order in ("power_desc", "density_desc"):
            # Ties that a scan in growth order would break differently.
            assert order_sensitive > 0
