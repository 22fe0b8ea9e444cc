"""Scaling study: scheduler cost vs SoC size (DESIGN.md section 7).

The paper's algorithm was demonstrated on 15 cores; this benchmark
measures how the implementation scales to larger synthetic SoCs (grid
floorplans up to 100 cores), separating the one-off network setup from
the per-run scheduling cost.

``test_bench_warm_solve_curve`` is the tracked curve: one warm
``Workbench.solve`` per grid size from 4x4 to 32x32 (1024 cores), the
request shape of the ``solo-large`` workload.  CI runs it with BLAS on
one thread (``OPENBLAS_NUM_THREADS=1``) and archives the results as
``BENCH_scaling.json``.
"""

from __future__ import annotations

import pytest

from repro.api import ScheduleRequest, Workbench
from repro.core.scheduler import SchedulerConfig, ThermalAwareScheduler
from repro.core.session_model import (
    SessionGrowth,
    SessionModelConfig,
    SessionThermalModel,
)
from repro.engine import ScenarioSpec
from repro.soc.library import grid_soc
from repro.thermal.simulator import ThermalSimulator


@pytest.mark.parametrize("side", [3, 5, 8, 10])
def test_bench_scheduler_scaling(benchmark, side):
    """Full scheduling run on an n = side^2 core grid SoC."""
    soc = grid_soc(side, side, seed=7, power_scale=2.0)
    simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)
    model = SessionThermalModel(soc, SessionModelConfig())

    # Choose limits relative to this SoC's own regime so the run always
    # has work to do but terminates: TL halfway between the hottest
    # singleton and the all-active peak, STCL at 3x the max singleton STC.
    singleton_peak = max(
        simulator.steady_state(
            {n: soc[n].test_power_w}
        ).temperature_c(n)
        for n in soc.core_names
    )
    all_active_peak = simulator.steady_state(
        soc.test_power_map()
    ).max_temperature_c()
    tl_c = (singleton_peak + all_active_peak) / 2.0
    stcl = 3.0 * max(
        model.session_thermal_characteristic([n]) for n in soc.core_names
    )

    scheduler = ThermalAwareScheduler(
        soc,
        simulator=simulator,
        session_model=model,
        config=SchedulerConfig(max_discards=5_000),
    )
    result = benchmark(scheduler.schedule, tl_c, stcl)
    assert result.max_temperature_c < tl_c
    benchmark.extra_info["cores"] = side * side
    benchmark.extra_info["sessions"] = result.n_sessions
    benchmark.extra_info["effort_s"] = result.effort_s


def _grid_request(side: int, power_seed: int) -> ScheduleRequest:
    return ScheduleRequest(
        scenario=ScenarioSpec(
            kind="grid", rows=side, cols=side, power_seed=power_seed
        ),
        tl_headroom=1.2,
        stcl_headroom=1.5,
    )


@pytest.mark.parametrize("side", [4, 8, 16, 24, 32])
def test_bench_warm_solve_curve(benchmark, monkeypatch, side):
    """One warm solve on a side x side grid, end to end through the workbench.

    The warm-up solve (another power seed) leaves the factorised thermal
    network in the workbench's model cache, as on a long-running
    service; the timed solve then pays for the SoC build, adjacency,
    session model, phase A, STC growth and validation.
    """
    workbench = Workbench()
    workbench.solve(_grid_request(side, power_seed=0))
    request = _grid_request(side, power_seed=1)
    report = benchmark.pedantic(
        workbench.solve, args=(request,), rounds=1, iterations=1
    )

    # Count the candidates STC growth priced, on an untimed repeat so the
    # counting wrapper does not show in the timing.
    priced = 0
    stc_if_added = SessionGrowth.stc_if_added

    def counting(self, candidate):
        nonlocal priced
        priced += 1
        return stc_if_added(self, candidate)

    monkeypatch.setattr(SessionGrowth, "stc_if_added", counting)
    repeat = workbench.solve(request)
    assert [s.cores for s in repeat.result.schedule] == [
        s.cores for s in report.result.schedule
    ]
    benchmark.extra_info["cores"] = side * side
    benchmark.extra_info["sessions"] = report.result.n_sessions
    benchmark.extra_info["priced_candidates"] = priced
