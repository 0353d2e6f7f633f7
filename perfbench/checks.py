"""Correctness checks over the JSON reports of one benchmark run.

The benchmark processes (child.py) only gather evidence; every verdict is
made here, by pure functions over those reports, so the self-tests can feed
a deliberately tampered report to each check and watch it trip.  A failed
check counts against the run's ``failed`` total exactly like an operation
that raised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: chaos mechanisms that must each fire at least once in fleet-chaos.
CHAOS_MECHANISMS = ("retries", "requeues", "hedges", "scale_events", "degraded")


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def sim_identical(reports: list[dict]) -> list[Check]:
    """Every simulated value repeats exactly across processes.

    Plans are compared one by one (paper-sweep processes hold disjoint
    points; a plan reported by more than one process must match), the rest
    of the simulated values as a whole.
    """
    seen: dict[str, tuple[str, int]] = {}
    bad = []
    for i, rep in enumerate(reports):
        sim = dict(rep["sim"])
        items = [(f"plan {key}", value) for key, value in sim.pop("plans", {}).items()]
        if sim:
            items.append(("the rest", sim))
        for key, value in items:
            text = _canonical(value)
            if key in seen and seen[key][0] != text:
                bad.append(f"{key} (process {seen[key][1]} vs {i})")
            seen.setdefault(key, (text, i))
    return [Check("sim values identical across processes", not bad, ", ".join(bad[:3]))]


def paper_coverage(reports: list[dict], expected_points: int) -> list[Check]:
    points = set()
    for rep in reports:
        points.update(rep["sim"].get("plans", {}))
    return [Check("every Fig. 10/11 point measured", len(points) == expected_points,
                  f"({len(points)} of {expected_points})")]


def kernel_checks(rep: dict) -> list[Check]:
    checks = []
    for key, value in sorted(rep["evidence"].items()):
        kind, name = key.split("/", 1)
        if kind == "counters":
            checks.append(Check(f"{name}: functional counters == run_analytic counters",
                                value["functional"] == value["analytic"]))
        elif kind == "repeat":
            checks.append(Check(f"{name}: output repeats across cycles",
                                value[0] == value[1]))
        elif kind == "engines":
            if name == "int8":
                same = value["fast_digest"] == value["reference_digest"]
                what = "bit-equal"
            else:
                same = value["tolerance_excess"] <= 0.0
                what = "allclose"
            checks.append(Check(f"fast vs reference engine outputs {what} ({name})", same))
            checks.append(Check(f"fast vs reference engine counters ({name})",
                                value["fast_counters"] == value["reference_counters"]))
    return checks


def accounting_checks(rep: dict) -> list[Check]:
    checks = []
    for key, a in sorted(rep["evidence"].items()):
        if not key.startswith("accounts/"):
            continue
        label = key.split("/", 1)[1]
        closed = a["served"] + a["shed"] + a["lost"]
        checks.append(Check(f"{label}: served + shed + lost == offered",
                            closed == a["offered"], f"({closed} != {a['offered']})"))
        split = a["attained"] + a["late"]
        checks.append(Check(f"{label}: attained + late == served",
                            split == a["served"], f"({split} != {a['served']})"))
    return checks


def chaos_checks(rep: dict) -> list[Check]:
    sim = rep["sim"]
    counts = {
        "retries": sim["faults"]["retries"],
        "requeues": sim["faults"]["requeues"],
        "hedges": sim["faults"]["hedges"],
        "scale_events": sim["scale_events"],
        "degraded": sim["degraded"],
    }
    return [Check(f"chaos recorded {name}", counts[name] > 0, f"({counts[name]})")
            for name in CHAOS_MECHANISMS]


def check_reports(workload: str, reports: list[dict], expected_points: int = 0) -> list[Check]:
    """All checks for one run: per-process evidence, then cross-process."""
    checks: list[Check] = []
    for rep in reports:
        if workload == "kernel-infer":
            checks += kernel_checks(rep)
        elif workload in ("fleet-steady", "fleet-chaos"):
            checks += accounting_checks(rep)
            if workload == "fleet-chaos" and rep["sim"]:
                checks += chaos_checks(rep)
    if workload == "paper-sweep":
        checks += paper_coverage(reports, expected_points)
    checks += sim_identical(reports)
    return checks
