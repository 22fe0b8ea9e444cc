"""Unit tests for the test-session thermal model (paper Section 2).

The tests verify the model's algebra against hand-computed parallel
combinations on the worked-example layout (Figures 2-4), the semantics
of the three modifications M1-M3 and their ablations, and the STC
definition with weights.
"""

from __future__ import annotations

import math

import pytest

from repro.core.session_model import (
    PAPER_SESSION_MODEL,
    SessionModelConfig,
    SessionThermalModel,
)
from repro.errors import SchedulingError
from repro.floorplan.generator import grid_floorplan
from repro.floorplan.library import WORKED_EXAMPLE_SESSION
from repro.power.generator import uniform_test_power_profile
from repro.soc.system import SocUnderTest
from repro.units import parallel


@pytest.fixture(scope="module")
def example_model(example_soc) -> SessionThermalModel:
    return SessionThermalModel(example_soc, PAPER_SESSION_MODEL)


@pytest.fixture(scope="module")
def grid_soc_3x3() -> SocUnderTest:
    plan = grid_floorplan(3, 3)
    return SocUnderTest.from_profile(
        plan, uniform_test_power_profile(plan, 10.0)
    )


class TestEquivalentResistanceAlgebra:
    def test_singleton_is_parallel_of_all_paths(self, example_model):
        """Alone in a session, every neighbour is passive (grounded) and
        every die-edge path is available: Figure 4's algebra."""
        core = "B2"
        neighbours = example_model.neighbour_resistances(core)
        edge = example_model.edge_resistance(core)
        expected = parallel(*neighbours.values(), edge)
        assert example_model.equivalent_resistance(core, [core]) == pytest.approx(
            expected
        )

    def test_worked_example_b2(self, example_model):
        """B2 in session {B2,B4,B5}: no active neighbours, so its Rth is
        unchanged from the singleton case (paper Figure 4: R_1,2 ||
        R_2,N || R_2,3 — all passive-or-edge paths)."""
        active = list(WORKED_EXAMPLE_SESSION)
        assert example_model.equivalent_resistance(
            "B2", active
        ) == pytest.approx(example_model.equivalent_resistance("B2", ["B2"]))

    def test_worked_example_b4_loses_b5_path(self, example_model):
        """B4 in session {B2,B4,B5}: the B4-B5 resistance is dropped
        (modification M2), so Rth must exceed the singleton value."""
        active = list(WORKED_EXAMPLE_SESSION)
        in_session = example_model.equivalent_resistance("B4", active)
        alone = example_model.equivalent_resistance("B4", ["B4"])
        assert in_session > alone
        # And equals the parallel combination without the B5 branch.
        neighbours = example_model.neighbour_resistances("B4")
        paths = [r for n, r in neighbours.items() if n != "B5"]
        paths.append(example_model.edge_resistance("B4"))
        assert in_session == pytest.approx(parallel(*paths))

    def test_more_active_neighbours_monotonically_raise_rth(
        self, grid_soc_3x3
    ):
        """Each co-activated neighbour removes an escape path."""
        model = SessionThermalModel(grid_soc_3x3, PAPER_SESSION_MODEL)
        centre = "C1_1"
        neighbours = ["C0_1", "C1_0", "C1_2", "C2_1"]
        previous = model.equivalent_resistance(centre, [centre])
        for k in range(1, len(neighbours) + 1):
            active = [centre] + neighbours[:k]
            current = model.equivalent_resistance(centre, active)
            assert current > previous
            previous = current

    def test_landlocked_core_with_all_neighbours_active_is_infinite(
        self, grid_soc_3x3
    ):
        """The centre of a 3x3 grid has no die edge; with all four
        neighbours active the lateral-only model leaves no escape path."""
        model = SessionThermalModel(grid_soc_3x3, PAPER_SESSION_MODEL)
        active = ["C1_1", "C0_1", "C1_0", "C1_2", "C2_1"]
        assert math.isinf(model.equivalent_resistance("C1_1", active))
        assert math.isinf(model.session_thermal_characteristic(active))

    def test_core_must_be_in_active_set(self, example_model):
        with pytest.raises(SchedulingError):
            example_model.equivalent_resistance("B1", ["B2"])

    def test_unknown_core_rejected(self, example_model):
        with pytest.raises(SchedulingError):
            example_model.neighbour_resistances("zz")
        with pytest.raises(SchedulingError):
            example_model.edge_resistance("zz")
        with pytest.raises(SchedulingError):
            example_model.vertical_resistance("zz")

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda model: model.equivalent_resistance("zz", ["zz"]),
            lambda model: model.equivalent_resistance("B2", ["B2", "zz"]),
            lambda model: model.thermal_characteristic("zz", ["zz"]),
            lambda model: model.session_thermal_characteristic(["zz"]),
            lambda model: model.session_thermal_characteristic(["B2", "zz"]),
            lambda model: model.core_contributions(["zz"]),
            lambda model: model.core_contributions(["B2", "zz"]),
        ],
        ids=[
            "equivalent_resistance",
            "equivalent_resistance-mixed",
            "thermal_characteristic",
            "stc",
            "stc-mixed",
            "core_contributions",
            "core_contributions-mixed",
        ],
    )
    def test_unknown_core_is_a_scheduling_error(self, example_model, evaluate):
        # A domain error (ReproError), not a bare KeyError from a lookup.
        with pytest.raises(SchedulingError, match="unknown core 'zz'"):
            evaluate(example_model)


class TestModificationAblations:
    def test_no_m2_keeps_active_active_paths(self, example_soc):
        """Ablation: keeping active-active resistances can only lower
        Rth (optimistic model)."""
        paper = SessionThermalModel(example_soc, PAPER_SESSION_MODEL)
        no_m2 = SessionThermalModel(
            example_soc, SessionModelConfig(drop_active_active=False)
        )
        active = list(WORKED_EXAMPLE_SESSION)
        assert no_m2.equivalent_resistance("B4", active) < paper.equivalent_resistance(
            "B4", active
        )

    def test_no_m3_removes_passive_paths(self, example_soc):
        """Ablation: un-grounding passive neighbours removes paths and
        raises Rth (pessimistic model)."""
        paper = SessionThermalModel(example_soc, PAPER_SESSION_MODEL)
        no_m3 = SessionThermalModel(
            example_soc, SessionModelConfig(ground_passive=False)
        )
        active = list(WORKED_EXAMPLE_SESSION)
        assert no_m3.equivalent_resistance("B4", active) > paper.equivalent_resistance(
            "B4", active
        )

    def test_include_vertical_bounds_rth(self, grid_soc_3x3):
        """With the vertical path included, Rth stays finite even for a
        fully surrounded landlocked core."""
        model = SessionThermalModel(
            grid_soc_3x3, SessionModelConfig(include_vertical=True)
        )
        active = ["C1_1", "C0_1", "C1_0", "C1_2", "C2_1"]
        rth = model.equivalent_resistance("C1_1", active)
        assert math.isfinite(rth)
        assert rth == pytest.approx(model.vertical_resistance("C1_1"))


class TestThermalCharacteristic:
    def test_tc_is_power_times_rth(self, example_model, example_soc):
        active = list(WORKED_EXAMPLE_SESSION)
        for core in active:
            tc = example_model.thermal_characteristic(core, active)
            expected = example_soc[
                core
            ].test_power_w * example_model.equivalent_resistance(core, active)
            assert tc == pytest.approx(expected)

    def test_stc_is_max_of_contributions(self, example_model):
        active = list(WORKED_EXAMPLE_SESSION)
        contributions = example_model.core_contributions(active)
        stc = example_model.session_thermal_characteristic(active)
        assert stc == pytest.approx(max(contributions.values()))

    def test_empty_session_has_zero_stc(self, example_model):
        assert example_model.session_thermal_characteristic([]) == 0.0

    def test_duplicate_cores_rejected(self, example_model):
        with pytest.raises(SchedulingError, match="duplicate"):
            example_model.session_thermal_characteristic(["B2", "B2"])
        with pytest.raises(SchedulingError, match="duplicate"):
            example_model.core_contributions(["B2", "B3", "B2"])

    def test_weights_scale_contributions(self, example_model):
        active = list(WORKED_EXAMPLE_SESSION)
        base = example_model.session_thermal_characteristic(active)
        # Boost the maximal contributor's weight by 2x.
        contributions = example_model.core_contributions(active)
        worst = max(contributions, key=contributions.get)
        boosted = example_model.session_thermal_characteristic(
            active, weights={worst: 2.0}
        )
        assert boosted == pytest.approx(2.0 * base)

    def test_stc_scale_divides(self, example_soc):
        base = SessionThermalModel(
            example_soc, SessionModelConfig(stc_scale=1.0)
        ).session_thermal_characteristic(["B2"])
        scaled = SessionThermalModel(
            example_soc, SessionModelConfig(stc_scale=10.0)
        ).session_thermal_characteristic(["B2"])
        assert scaled == pytest.approx(base / 10.0)

    def test_bad_stc_scale_rejected(self):
        with pytest.raises(SchedulingError):
            SessionModelConfig(stc_scale=0.0)


class TestAgainstFullSimulation:
    def test_stc_ranking_predicts_simulated_heat(self, hypo_soc):
        """The model's purpose: rank sessions by thermal risk without
        simulating.  The Figure 1 hot session must out-rank the cool one
        in STC, matching the full simulation's verdict.

        The hypothetical7 floorplan is not fully tiled (isolated cores
        with no lateral neighbours at all), so the vertical path must be
        part of the model — lateral-only Rth would be infinite for both
        sessions and rank nothing.
        """
        from repro.thermal.simulator import ThermalSimulator

        model = SessionThermalModel(
            hypo_soc, SessionModelConfig(include_vertical=True)
        )
        sim = ThermalSimulator(
            hypo_soc.floorplan, hypo_soc.package, hypo_soc.adjacency
        )
        hot, cool = ["C2", "C3", "C4"], ["C5", "C6", "C7"]
        stc_hot = model.session_thermal_characteristic(hot)
        stc_cool = model.session_thermal_characteristic(cool)
        sim_hot = sim.steady_state(hypo_soc.session_power_map(hot))
        sim_cool = sim.steady_state(hypo_soc.session_power_map(cool))
        assert stc_hot > stc_cool
        assert sim_hot.max_temperature_c() > sim_cool.max_temperature_c()
