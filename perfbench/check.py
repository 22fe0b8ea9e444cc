"""The answer-checking gate: re-audit, finiteness, errors and digests.

Every ok report is decoded (which revalidates its schedule against a
rebuilt SoC) and re-audited with :func:`repro.core.audit_schedule` on
the dense steady-state path — a network the benchmark builds itself,
independent of the program's model cache and of ``thermal.reduced``.
A report from a TL-validating solver with a core at or above its TL is
*unsafe*.

The gate fails a run when any report is unsafe, any ok report carries
a TL or STCL that is not finite, any request failed or was refused, or
two answers to one request differ.  The digest of a workload's check
set (its first requests, answered on every run) must be identical
between two runs of one program on one seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.api.request import report_from_dict
from repro.core import audit_schedule
from repro.thermal import ThermalSimulator

#: Solvers that validate their sessions against TL.  The baselines
#: (power_constrained, sequential, random) promise nothing about TL; a
#: hot baseline schedule is the paper's point, so it is counted, not gated.
TL_VALIDATING = frozenset({"thermal_aware", "optimal"})


def schedule_digest(report: dict[str, Any]) -> str:
    """SHA-256 of a report's request hash, session core lists and length."""
    result = report["result"]
    payload = [
        report.get("request_hash"),
        [list(s["cores"]) for s in result["schedule"]["sessions"]],
        result["length_s"],
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@dataclass
class Verdict:
    """What the gate found in one run's answers."""

    attempted: int = 0
    failed: int = 0
    unsafe: int = 0
    nonfinite: int = 0
    inconsistent: int = 0
    hot_baselines: int = 0
    test_length_s: float = 0.0
    check_count: int = 0
    digest: str = ""
    per_request: dict[str, str] = field(default_factory=dict)

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def reasons(self) -> list[str]:
        """Why the gate trips (empty when the run is sound)."""
        out = []
        if self.unsafe:
            out.append(f"{self.unsafe} unsafe report(s)")
        if self.nonfinite:
            out.append(f"{self.nonfinite} ok report(s) with a non-finite TL or STCL")
        if self.failed:
            out.append(f"{self.failed} of {self.attempted} request(s) failed")
        if self.inconsistent:
            out.append(f"{self.inconsistent} request(s) answered inconsistently")
        if not self.attempted:
            out.append("no request was attempted")
        return out


class Checker:
    """Audits reports, caching the dense networks and past audits."""

    def __init__(self) -> None:
        self._simulators: dict[tuple, ThermalSimulator] = {}
        self._audited: dict[tuple[str, str, float], bool] = {}

    def _simulator(self, report) -> ThermalSimulator:
        request = report.request
        key = request.scenario.thermal_key() if request.scenario else (request.soc,)
        simulator = self._simulators.get(key)
        if simulator is None:
            soc = report.schedule.soc
            simulator = self._simulators[key] = ThermalSimulator(
                soc.floorplan, soc.package, soc.adjacency
            )
        return simulator

    def is_unsafe(self, report_dict: dict[str, Any]) -> bool:
        """Whether the report's schedule breaks its own TL on re-audit."""
        key = (
            str(report_dict.get("request_hash")),
            schedule_digest(report_dict),
            float(report_dict["tl_c"]),
        )
        found = self._audited.get(key)
        if found is None:
            report = report_from_dict(report_dict)
            audit = audit_schedule(report.schedule, report.tl_c, self._simulator(report))
            found = self._audited[key] = not audit.is_safe
        return found

    def verdict(
        self, reports: Iterable[dict[str, Any] | None], check_count: int
    ) -> Verdict:
        """Check every answer; *reports* holds ``None`` for each failure.

        The first *check_count* answers form the check set: their
        lengths sum to ``test_length_s`` and their schedules to the
        run's digest.
        """
        verdict = Verdict(check_count=check_count)
        digest = hashlib.sha256()
        for index, report in enumerate(reports):
            verdict.attempted += 1
            if report is None:
                verdict.failed += 1
                continue
            tl, stcl = report.get("tl_c"), report.get("stcl")
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (tl, stcl)):
                verdict.nonfinite += 1
                continue
            schedule = schedule_digest(report)
            request_hash = str(report.get("request_hash"))
            if verdict.per_request.setdefault(request_hash, schedule) != schedule:
                verdict.inconsistent += 1
            if self.is_unsafe(report):
                if report["solver"] in TL_VALIDATING:
                    verdict.unsafe += 1
                else:
                    verdict.hot_baselines += 1
            if index < check_count:
                verdict.test_length_s += float(report["result"]["length_s"])
                digest.update(schedule.encode())
        verdict.digest = digest.hexdigest()
        return verdict


def source_hash(paths: Iterable[Path], root: Path) -> str:
    """Content hash of the given source files ("one commit" of the code)."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def compare_digest(store: Path, key: str, digest: str, source: str) -> str | None:
    """Record *digest* for *key* in *store*; say why if it contradicts one.

    An earlier digest counts only when it came from the same *source*
    hash: two runs of one commit on one seed must answer identically.
    """
    known = json.loads(store.read_text()) if store.exists() else {}
    earlier = known.get(key)
    if earlier is not None and earlier["source"] == source:
        if earlier["digest"] != digest:
            return (
                f"schedule digest {digest[:12]} differs from an earlier run "
                f"of this code ({earlier['digest'][:12]})"
            )
        return None
    known[key] = {"source": source, "digest": digest}
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None
