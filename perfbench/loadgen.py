"""Closed- and open-loop load generators over an async submit function.

A *submit* function takes ``(request, watch)`` and returns the terminal
frame (a ``report`` or ``error`` frame dict) and, for a watch, the time
its first reactive ``event`` frame arrived.  ``connection_submitter``
builds one over real service connections; the self-test plugs in stubs.

The open loop sends each request when it is due whatever the system is
doing, and times it from the due time, so a stall is charged to every
request it delays; how late the generator itself ran is recorded as
``sent - due``.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

from repro.api import ScheduleRequest
from repro.errors import ReproError

Submit = Callable[[ScheduleRequest, bool], Awaitable[tuple[dict[str, Any], float | None]]]

#: How long the open loop waits for stragglers after the last due time.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One submission: its timing and terminal frame."""

    request: ScheduleRequest
    watch: bool
    due: float
    sent: float
    done: float = float("nan")
    frame: dict[str, Any] | None = None
    first_event: float | None = None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        """Client-side latency, timed from when the request was due."""
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.frame is not None and self.frame.get("type") == "report"


def connection_submitter(clients: Sequence[Any]) -> Submit:
    """Round-robin submits over already connected ``AsyncServiceClient`` s."""
    turn = itertools.count()

    async def submit(request: ScheduleRequest, watch: bool):
        client = clients[next(turn) % len(clients)]
        if not watch:
            return await client.submit_raw(request), None
        first_event = None
        last: dict[str, Any] = {}
        async for frame in client.watch(request):
            if frame.get("type") == "event" and first_event is None:
                first_event = time.perf_counter()
            last = frame
        return last, first_event

    return submit


async def _send(submit: Submit, sample: Sample) -> Sample:
    sample.sent = time.perf_counter()
    try:
        sample.frame, sample.first_event = await submit(sample.request, sample.watch)
    except (ReproError, OSError, asyncio.TimeoutError) as exc:
        sample.error = repr(exc)
    sample.done = time.perf_counter()
    return sample


async def closed_bursts(
    submit: Submit,
    next_burst: Callable[[int], list[ScheduleRequest]],
    seconds: float,
    min_bursts: int,
) -> tuple[list[Sample], float]:
    """Pipeline one burst at a time until *seconds* pass (and *min_bursts*).

    Returns every sample and the wall time of the whole loop.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    index = 0
    while index < min_bursts or time.perf_counter() - start < seconds:
        sent = time.perf_counter()
        batch = [Sample(r, False, sent, sent) for r in next_burst(index)]
        samples += await asyncio.gather(*(_send(submit, s) for s in batch))
        index += 1
    return samples, time.perf_counter() - start


async def closed_loop(
    submit: Submit,
    items: Sequence[tuple[ScheduleRequest, bool]],
    seconds: float,
    min_count: int,
    callers: int,
) -> tuple[list[Sample], float]:
    """*callers* callers, each sending the next ``(request, watch)`` of
    *items* when its previous answer arrives, until *seconds* pass and at
    least *min_count* items were sent (or *items* run out).

    Samples are returned in send order, so the first *min_count* are the
    first *min_count* items on every run; with the wall time of the loop.
    """
    samples: list[Sample] = []
    stream = iter(items)
    start = time.perf_counter()

    async def caller() -> None:
        for request, watch in stream:
            if len(samples) >= min_count and time.perf_counter() - start >= seconds:
                return
            now = time.perf_counter()
            sample = Sample(request, watch, now, now)
            samples.append(sample)
            await _send(submit, sample)

    await asyncio.gather(*(caller() for _ in range(callers)))
    return samples, time.perf_counter() - start


async def open_loop(
    submit: Submit,
    arrivals: Sequence[Any],
) -> tuple[list[Sample], float]:
    """Send each arrival (``due_s``, ``request``, ``watch``) when it is due.

    Returns every sample and the wall time from the start of the loop to
    the last answer.
    """
    start = time.perf_counter()
    tasks = []
    samples = []
    for arrival in arrivals:
        due = start + arrival.due_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sample = Sample(arrival.request, arrival.watch, due, due)
        samples.append(sample)
        tasks.append(asyncio.ensure_future(_send(submit, sample)))
    done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for sample in samples:
        if sample.frame is None and sample.error is None:
            sample.error = "no answer before the drain timeout"
            sample.done = time.perf_counter()
    for task in done:
        task.result()
    return samples, max(s.done for s in samples) - start
