"""Fast self-test of the benchmark harness (tiny networks, short runs).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py -q

It checks that every named metric is emitted with its unit, that the
answer gate trips on a planted unsafe report, and that the open-loop
generator times latency from each request's due time.
"""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
from check import Checker  # noqa: E402
from loadgen import open_loop  # noqa: E402
from workloads import Arrival  # noqa: E402

from repro.api import ScheduleRequest, Workbench  # noqa: E402
from repro.api.request import report_from_dict, report_to_dict  # noqa: E402
from repro.core import audit_schedule  # noqa: E402
from repro.engine import ScenarioSpec  # noqa: E402

BENCHMARK = spec.benchmark()


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = (
        [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
        if trace
        else [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    )
    assert [(n, v["unit"]) for n, v in result["metrics"].items()] == expected
    for _, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float))
        assert math.isfinite(value["value"])
    printed = "\n".join(lines[:-1])
    names = (
        expected + list(spec.SERVICE_LAYER.items())
        if trace
        else expected + spec.GATED
    )
    for name, unit in names:
        assert name in printed and unit in printed, name


def _tiny_report() -> dict:
    request = ScheduleRequest(
        scenario=ScenarioSpec(kind="grid", rows=2, cols=2, power_seed=3),
        tl_headroom=1.2,
        stcl_headroom=1.5,
    )
    return report_to_dict(Workbench().solve(request))


def test_gate_passes_a_sound_report_and_trips_on_a_planted_unsafe_one():
    report = _tiny_report()
    checker = Checker()
    assert checker.verdict([report], 1).reasons() == []

    decoded = report_from_dict(report)
    peak = audit_schedule(decoded.schedule, decoded.tl_c).max_temperature_c
    planted = json.loads(json.dumps(report))
    planted["tl_c"] = peak - 0.5  # a TL the schedule's audited peak breaks
    verdict = Checker().verdict([planted], 1)
    assert verdict.unsafe == 1
    assert verdict.reasons()

    for bad in (None, math.inf, math.nan):
        broken = dict(report, stcl=bad)
        assert Checker().verdict([broken], 1).nonfinite == 1
    failed = Checker().verdict([report, None], 1)
    assert failed.error_frac == 0.5 and failed.reasons()


def test_open_loop_times_latency_from_the_due_time():
    service_s = 0.05
    calls = []

    async def submit(request, watch):
        if not calls:
            time.sleep(0.15)  # stall the generator: later sends go out late
        calls.append(request)
        await asyncio.sleep(service_s)
        return {"type": "report", "report": {}}, None

    arrivals = [Arrival(due_s=d, request=f"q{i}", watch=False) for i, d in enumerate((0.0, 0.02, 0.04))]
    samples, _ = asyncio.run(open_loop(submit, arrivals))
    assert len(samples) == 3
    for sample in samples:
        assert sample.latency_s == pytest.approx(sample.done - sample.due)
        assert sample.latency_s >= (sample.sent - sample.due) + service_s * 0.9
    for sample in samples[1:]:
        assert sample.sent - sample.due >= 0.08  # queued behind the stall
        assert sample.latency_s > sample.done - sample.sent + 0.08
