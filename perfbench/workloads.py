"""Seeded request generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed
always yields the same requests, and the program under test receives
only the generated :class:`~repro.api.ScheduleRequest` objects.
``tiny=True`` shrinks every network (2x2 and 3x3 grids) for the
harness self-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.api import ScheduleRequest
from repro.engine import FleetConfig, ScenarioSpec, generate_fleet

#: Requests of each workload whose answers are always collected, digested
#: and summed into ``test_length_s``, however fast the program runs.
SOLO_CHECK_COUNT = 4
BURST_CHECK_BURSTS = 10

#: TL headroom sweep points (paper-style parameter sweep); each request
#: jitters its point so no two requests share a content hash.
TL_SWEEP = (1.12, 1.18, 1.24, 1.30)

#: Concurrent callers of the closed-loop fleet workload, its check-set
#: size, and the longest stream it may need: a run stops early only if the
#: program answers more than ``FLEET_STREAM_RPS`` per second.
FLEET_CALLERS = 8
FLEET_CHECK_COUNT = 1500
FLEET_STREAM_RPS = 600
#: Offered rate of the open-loop fleet workload, fixed in the benchmark:
#: about half the ~150 req/s this traffic reached in a closed loop
#: (``FLEET_CALLERS`` requests in flight) on the 2-core host that defined
#: the benchmark.
FLEET_RATE_RPS = 75.0
#: Latency target of the open-loop fleet workload: its ``throughput_rps``
#: counts the request/reply answers that arrive within this many ms of
#: their due time.  About the p95 latency of this traffic on the host that
#: defined the benchmark, so the figure moves with the tail.
FLEET_LATENCY_TARGET_MS = 150.0
FLEET_ZIPF_S = 1.0
#: One arrival in 12 (~8%) is heavy and one in 20 (5%) is a streamed
#: watch.  In each class (light, heavy) one arrival in 4, spread evenly,
#: asks a question not asked before; the others repeat one.
FLEET_HEAVY_EVERY = 12
FLEET_WATCH_EVERY = 20
FLEET_NEW_SHARE = 1 / 4


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


# -- solo-large ---------------------------------------------------------------


def solo_request(seed: int, index: int, tiny: bool = False) -> ScheduleRequest:
    """Request *index* of the solo-large stream: a 24x24 thermal_aware solve."""
    rng = _rng(seed, 1, index)
    side = 2 if tiny else 24
    tl = TL_SWEEP[index % len(TL_SWEEP)] + float(rng.uniform(-0.01, 0.01))
    return ScheduleRequest(
        scenario=ScenarioSpec(
            kind="grid", rows=side, cols=side, power_seed=int(rng.integers(2**31 - 1))
        ),
        tl_headroom=tl,
        stcl_headroom=float(rng.uniform(1.3, 1.8)),
    )


# -- burst-shared -------------------------------------------------------------


def burst_networks(seed: int, index: int, tiny: bool = False) -> list[ScenarioSpec]:
    """The five small networks burst *index* sweeps.

    Their geometry is shared by every burst (the slicing floorplan cycles
    through three), so the model cache is warm after the first bursts;
    each burst draws fresh power profiles.
    """
    rng = _rng(seed, 2, index)
    small, large, blocks = (2, 3, 6) if tiny else (4, 8, 15)

    def power_seed() -> int:
        return int(rng.integers(2**31 - 1))

    return [
        ScenarioSpec(kind="alpha15", power_seed=power_seed()),
        ScenarioSpec(kind="worked_example6"),
        ScenarioSpec(kind="grid", rows=small, cols=small, power_seed=power_seed()),
        ScenarioSpec(kind="grid", rows=large, cols=large, power_seed=power_seed()),
        ScenarioSpec(
            kind="slicing",
            n_blocks=blocks,
            floorplan_seed=index % 3,
            power_seed=power_seed(),
        ),
    ]


def _burst_solver(index: int, cell: int) -> str:
    """Three of the 20 sweep cells of each burst use a baseline solver.

    The cells rotate with the burst index alone, so every seed gets the
    same solver mix at the same places.
    """
    if cell in ((7 * index) % 20, (7 * index + 10) % 20):
        return "power_constrained"
    if cell == (7 * index + 5) % 20:
        return "sequential"
    return "thermal_aware"


def _burst_sweep(seed: int, index: int, tiny: bool) -> list[ScheduleRequest]:
    rng = _rng(seed, 3, index)
    stcl_pool = (1.4, 2.0)
    return [
        ScheduleRequest(
            scenario=scenario,
            tl_headroom=tl + float(rng.uniform(-0.01, 0.01)),
            stcl_headroom=stcl_pool[(n + k) % len(stcl_pool)],
            solver=_burst_solver(index, n * len(TL_SWEEP) + k),
        )
        for n, scenario in enumerate(burst_networks(seed, index, tiny))
        for k, tl in enumerate(TL_SWEEP)
    ]


def burst(seed: int, index: int, tiny: bool = False) -> list[ScheduleRequest]:
    """Burst *index*: a TL sweep per network at shared STCL headrooms.

    20 fresh requests (15% of them ``power_constrained`` or
    ``sequential``) plus 7 exact repeats, a quarter of the burst: one
    request per network from the previous burst (answered from the
    answer cache) and two from this burst (deduplicated in flight),
    inserted at seeded positions.
    """
    sweep = _burst_sweep(seed, index, tiny)
    previous = _burst_sweep(seed, index - 1, tiny) if index else sweep
    width = len(TL_SWEEP)
    repeats = [
        previous[n * width + (index + n) % width] for n in range(len(sweep) // width)
    ]
    repeats += [
        sweep[((index + 2 * j) % 5) * width + (index + 1) % width] for j in range(2)
    ]
    out = list(sweep)
    rng = _rng(seed, 6, index)
    for request in repeats:
        out.insert(int(rng.integers(0, len(out) + 1)), request)
    return out


# -- fleet and open-fleet -----------------------------------------------------


@dataclass(frozen=True)
class Arrival:
    """One open-loop submission: when it is due and what it asks."""

    due_s: float
    request: ScheduleRequest
    watch: bool


def _fleet_questions(
    seed: int, n_light: int, n_heavy: int, tiny: bool
) -> tuple[list[ScheduleRequest], list[ScheduleRequest]]:
    """Fresh light and heavy questions, in the order they are first asked.

    Light questions are an ``engine.generate_fleet`` mix; heavy ones
    alternate 8x8 and 12x12 grids.
    """
    config = FleetConfig(grid_dims=((2, 2), (3, 3))) if tiny else FleetConfig()
    light = [
        job.to_request() for job in generate_fleet(n_light, seed=seed, config=config)
    ]
    rng = _rng(seed, 4)
    sides = (3, 3) if tiny else (8, 12)
    heavy = [
        ScheduleRequest(
            scenario=ScenarioSpec(
                kind="grid",
                rows=sides[i % 2],
                cols=sides[i % 2],
                power_seed=int(rng.integers(2**31 - 1)),
            ),
            tl_headroom=float(rng.uniform(1.1, 1.3)),
            stcl_headroom=float(rng.uniform(1.3, 2.0)),
        )
        for i in range(n_heavy)
    ]
    return light, heavy


def fleet_requests(
    seed: int, count: int, tiny: bool = False
) -> list[tuple[ScheduleRequest, bool]]:
    """The first *count* fleet submissions, as ``(request, watch)``.

    The mix is fixed: every ``FLEET_HEAVY_EVERY``-th submission is
    heavy, every ``FLEET_WATCH_EVERY``-th is a streamed watch (light
    only), and in each class an evenly spread ``FLEET_NEW_SHARE`` asks a
    new question.  The others repeat a question already asked, drawn
    with a Zipf distribution over the order questions were first asked
    — so the rate of new solves stays constant through the stream
    instead of front-loading while an answer cache fills.
    """
    rng = _rng(seed, 5)
    n_heavy = sum(i % FLEET_HEAVY_EVERY == FLEET_HEAVY_EVERY // 2 for i in range(count))
    light, heavy = _fleet_questions(
        seed,
        math.ceil((count - n_heavy) * FLEET_NEW_SHARE) + 1,
        math.ceil(n_heavy * FLEET_NEW_SHARE) + 1,
        tiny,
    )
    fresh = {False: iter(light), True: iter(heavy)}
    asked: dict[bool, list[ScheduleRequest]] = {False: [], True: []}
    turns = {False: 0, True: 0}
    out = []
    for i in range(count):
        is_heavy = i % FLEET_HEAVY_EVERY == FLEET_HEAVY_EVERY // 2
        seen = asked[is_heavy]
        turn = turns[is_heavy]
        turns[is_heavy] += 1
        if not seen or math.floor((turn + 1) * FLEET_NEW_SHARE) > math.floor(turn * FLEET_NEW_SHARE):
            seen.append(next(fresh[is_heavy]))
            request = seen[-1]
        else:
            weights = 1.0 / np.arange(1, len(seen) + 1) ** FLEET_ZIPF_S
            request = seen[int(rng.choice(len(seen), p=weights / weights.sum()))]
        out.append((request, not is_heavy and i % FLEET_WATCH_EVERY == 3))
    return out


def fleet_arrivals(seed: int, seconds: float, tiny: bool = False) -> list[Arrival]:
    """Seeded Poisson arrivals of the fleet mix over *seconds* at ``FLEET_RATE_RPS``.

    The count is fixed at ``round(FLEET_RATE_RPS * seconds)`` and the due
    times are its uniform order statistics (a Poisson process conditioned
    on its count), so every seed offers the same load.
    """
    count = max(1, round(FLEET_RATE_RPS * seconds))
    dues = np.sort(_rng(seed, 7).uniform(0.0, seconds, size=count))
    return [
        Arrival(due_s=float(due), request=request, watch=watch)
        for due, (request, watch) in zip(dues, fleet_requests(seed, count, tiny))
    ]
