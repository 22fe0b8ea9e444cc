"""Span tracing for the traced benchmark run, installed from outside.

The program has no spans of its own at these boundaries yet, so the
benchmark wraps the public calls into each layer (``TRACED_CALLS``) at
run time.  Each span records its name, the request it serves (the
request's content hash, set by the ``workbench.solve`` span), start,
end and self time: its duration minus the time its child spans cover.
Span stacks are per thread, because service workers are threads.
Spans stay in memory and are written out once, when the run ends.

The wrappers cost a Python call per span, which is why the end-to-end
numbers come from untraced runs; ``trace.overhead_frac`` measures the
difference.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: (module, owner class or None for a module function, attribute, span name)
TRACED_CALLS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.engine.scenarios", "ScenarioSpec", "build_soc", "scenarios.build_soc"),
    ("repro.floorplan.adjacency", "AdjacencyMap", "__init__", "adjacency.build"),
    ("repro.engine.cache", "ThermalModelCache", "simulator_for", "cache.simulator_for"),
    ("repro.core.session_model", "SessionThermalModel", "__init__", "session_model.build"),
    ("repro.core.session_model", "SessionGrowth", "stc_if_added", "session_model.stc_if_added"),
    ("repro.core.session_model", "SessionGrowth", "add", "session_model.add"),
    (
        "repro.core.scheduler",
        "ThermalAwareScheduler",
        "best_case_max_temperatures",
        "scheduler.phase_a",
    ),
    (
        "repro.thermal.simulator",
        "ThermalSimulator",
        "block_steady_state",
        "simulator.block_steady_state",
    ),
    (
        "repro.thermal.simulator",
        "ThermalSimulator",
        "block_steady_state_batch",
        "simulator.batch",
    ),
    ("repro.api.workbench", "Workbench", "solve", "workbench.solve"),
    ("repro.service.protocol", None, "encode_frame", "protocol.encode"),
    ("repro.service.protocol", None, "decode_frame", "protocol.decode"),
)

#: The span names of the wire codec (the only ones a client process needs).
PROTOCOL_SPANS = ("protocol.encode", "protocol.decode")


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._names: list[str] = []
        #: (name index, request id, start, end, self seconds) per span.
        self.spans: list[tuple[int, str | None, float, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.request = None
        return stack

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_result: Callable[[Any], None] | None = None,
        request_of: Callable[..., str | None] | None = None,
    ) -> Callable[..., Any]:
        """Return *fn* wrapped in a span called *name*.

        *request_of* maps the call's arguments to a request id that this
        span and every span under it on the same thread carry.
        """
        index = len(self._names)
        self._names.append(name)
        clock = time.perf_counter
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            outer_request = local.request
            if request_of is not None:
                local.request = request_of(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                spans.append((index, local.request, start, end, duration - frame[0]))
                local.request = outer_request
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict[str, Any]:
        """Per-name call counts and self seconds, plus counters."""
        by_name: dict[str, dict[str, float]] = {}
        for index, _request, _start, _end, self_s in self.spans:
            entry = by_name.setdefault(self._names[index], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return {"spans": by_name, "counters": dict(self.counters)}

    def write(self, path: Path) -> None:
        """Write every span as compact arrays (``numpy.savez_compressed``)."""
        import numpy as np

        requests = sorted({r for _, r, _, _, _ in self.spans if r is not None})
        request_index = {r: i for i, r in enumerate(requests)}
        np.savez_compressed(
            path,
            names=np.asarray(self._names),
            requests=np.asarray(requests, dtype=str),
            name=np.asarray([s[0] for s in self.spans], dtype=np.int32),
            request=np.asarray(
                [request_index.get(s[1], -1) for s in self.spans], dtype=np.int32
            ),
            start=np.asarray([s[2] for s in self.spans]),
            end=np.asarray([s[3] for s in self.spans]),
            self_s=np.asarray([s[4] for s in self.spans]),
        )


def install(tracer: Tracer, only: tuple[str, ...] | None = None) -> Callable[[], None]:
    """Wrap the traced calls (those named in *only*, if given).

    Module functions are replaced in every loaded ``repro`` module that
    imported them by name.  Returns a function that restores the
    originals.
    """
    undo: list[tuple[object, str, object]] = []

    def count_hit(result: Any) -> None:
        tracer.counters["cache.lookups"] += 1
        tracer.counters["cache.hits"] += int(bool(result[1]))

    def count_bytes(result: Any) -> None:
        tracer.counters["protocol.bytes"] += len(result)

    def request_hash(_self: Any, request: Any) -> str:
        return request.content_hash()

    hooks: dict[str, dict[str, Callable[..., Any]]] = {
        "cache.simulator_for": {"on_result": count_hit},
        "protocol.encode": {"on_result": count_bytes},
        "workbench.solve": {"request_of": request_hash},
    }
    for module_name, owner_name, attr, span in TRACED_CALLS:
        if only is not None and span not in only:
            continue
        module = importlib.import_module(module_name)
        owner: object = module if owner_name is None else getattr(module, owner_name)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, span, **hooks.get(span, {}))
        targets = [owner]
        if owner_name is None:
            targets += [
                m
                for n, m in list(sys.modules.items())
                if n.startswith("repro") and m is not module
                and getattr(m, attr, None) is original
            ]
        for target in targets:
            undo.append((target, attr, original))
            setattr(target, attr, wrapped)

    def uninstall() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall
