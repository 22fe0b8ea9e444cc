"""Solves on a warm shared model cache must equal uncached solves.

Every solve borrows its thermal network from a
:class:`~repro.engine.cache.ThermalModelCache` when one is on: the
library's process-wide workbench, the batch runner's workers on
memory-sharing backends, and the service's thread workers all push
whole batches of requests through one cache.  The design rests on one
property: **sharing must be observationally invisible**.  These tests
state it as a property over randomly generated floorplans and every
built-in solver — each report a batch of requests gets from one warm
shared cache equals, field for field, the report a ``use_cache=False``
solve of the same request returns, ``steady_solves`` included.

``steady_solves`` can match because the cache hands every solve its
own simulator facade over the shared network: the effort counters
belong to the solve, not to the model.
"""

from __future__ import annotations

import random

import pytest

from repro.api import ScheduleRequest, Workbench
from repro.api.request import report_to_dict
from repro.engine.cache import ThermalModelCache
from repro.engine.scenarios import ScenarioSpec
from repro.errors import ReproError

#: Report fields that legitimately differ between two executions of the
#: same request: wall-clock stamps and cache provenance.  Everything
#: else — schedule, temperatures, weights, BCMT, effort counters — must
#: be bit-identical.
_NONDETERMINISTIC_FIELDS = ("elapsed_s", "timings", "cache_hit")

#: The built-in solvers, each exercised against the shared cache.
SOLVERS = ("thermal_aware", "sequential", "power_constrained", "random", "optimal")


def canonical(report) -> dict:
    """A report's deterministic content, ready for exact comparison."""
    data = report_to_dict(report)
    for field in _NONDETERMINISTIC_FIELDS:
        data.pop(field, None)
    return data


def uncached(request: ScheduleRequest):
    """A solve on a network built for this request alone."""
    return Workbench(use_cache=False).solve(request)


def random_scenarios(rng: random.Random, count: int) -> list[ScenarioSpec]:
    """Seeded random floorplans, mixing grid and slicing kinds."""
    specs = []
    for _ in range(count):
        if rng.random() < 0.5:
            specs.append(
                ScenarioSpec(
                    kind="grid",
                    rows=rng.randint(2, 3),
                    cols=rng.randint(2, 3),
                    power_seed=rng.randint(0, 5),
                )
            )
        else:
            specs.append(
                ScenarioSpec(
                    kind="slicing",
                    n_blocks=rng.randint(5, 8),
                    floorplan_seed=rng.randint(0, 3),
                    power_seed=rng.randint(0, 5),
                )
            )
    return specs


def random_requests(seed: int, count: int) -> list[ScheduleRequest]:
    """A mixed burst: random floorplans, every solver, varied limits.

    Solvers cycle through :data:`SOLVERS`, so any ``count`` of at least
    five covers each of them.  Scenario duplicates are likely by
    construction (small seed spaces), so the shared cache genuinely
    serves hits rather than degenerating into one model per request.
    """
    rng = random.Random(seed)
    requests = []
    for index, spec in enumerate(random_scenarios(rng, count)):
        solver = SOLVERS[index % len(SOLVERS)]
        kwargs: dict = {"scenario": spec, "solver": solver}
        kwargs["tl_headroom"] = rng.choice([8.0, 12.0, 16.0])
        if solver == "thermal_aware":
            kwargs["stcl_headroom"] = rng.choice([4.0, 6.0])
        requests.append(ScheduleRequest(**kwargs))
    return requests


def warm_workbench(requests: list[ScheduleRequest]) -> Workbench:
    """A workbench whose cache already holds every request's network."""
    workbench = Workbench(cache=ThermalModelCache())
    for request in requests:
        workbench.solve(request)
    return workbench


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_reports_bit_identical_to_solo(self, seed):
        requests = random_requests(seed, count=8)
        workbench = warm_workbench(requests)
        for request in requests:
            shared = workbench.solve(request)
            solo = uncached(request)
            assert shared.cache_hit and not solo.cache_hit
            assert canonical(shared) == canonical(solo)
            # Effort accounting matches exactly: the shared network's
            # facade bills each solve what it would have spent alone.
            assert shared.steady_solves == solo.steady_solves

    def test_same_scenario_varied_limits_share_and_still_match(self):
        spec = ScenarioSpec(kind="grid", rows=3, cols=3, power_seed=7)
        requests = [
            ScheduleRequest(scenario=spec, tl_headroom=h, stcl_headroom=5.0)
            for h in (8.0, 10.0, 12.0, 14.0)
        ]
        workbench = Workbench(cache=ThermalModelCache())
        for request in requests:
            assert canonical(workbench.solve(request)) == canonical(
                uncached(request)
            )
        assert workbench.cache is not None
        assert len(workbench.cache) == 1

    def test_mid_batch_infeasible_request_is_isolated(self):
        spec = ScenarioSpec(kind="grid", rows=2, cols=2, power_seed=3)
        good = ScheduleRequest(scenario=spec, tl_headroom=10.0, stcl_headroom=5.0)
        # An absolute limit below ambient cannot be met by any core.
        bad = ScheduleRequest(scenario=spec, tl_c=1.0, stcl=60.0)
        tail = ScheduleRequest(scenario=spec, tl_headroom=14.0, stcl_headroom=5.0)
        workbench = Workbench(cache=ThermalModelCache())
        assert canonical(workbench.solve(good)) == canonical(uncached(good))
        with pytest.raises(ReproError) as shared_error:
            workbench.solve(bad)
        with pytest.raises(type(shared_error.value)):
            uncached(bad)
        # The request *after* the failure still matches solo exactly:
        # the error did not poison the shared model.
        assert canonical(workbench.solve(tail)) == canonical(uncached(tail))

    def test_batch_outputs_independent_of_group_order(self):
        requests = random_requests(seed=4, count=6)
        forward_bench = Workbench(cache=ThermalModelCache())
        backward_bench = Workbench(cache=ThermalModelCache())
        forward = [forward_bench.solve(request) for request in requests]
        backward = [
            backward_bench.solve(request) for request in reversed(requests)
        ]
        for a, b in zip(forward, reversed(backward)):
            assert canonical(a) == canonical(b)
