"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py

* A tiny run of every workload, traced and untraced, emits every declared
  metric name with its declared unit and passes its checks.
* A deliberately tampered process report trips each correctness check.
* Without the program's sources, the benchmark fails without a result.

Takes about two minutes; everything it writes stays under perfbench/out/.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

from checks import CHAOS_MECHANISMS, check_reports
from child import CONFIG, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SIZE = "tiny"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def child(workload: str, part: int = 0, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
         "--part", str(part), "--size", SIZE],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def failing(checks) -> set[str]:
    return {c.label for c in checks if not c.ok}


class TestEmittedNames(unittest.TestCase):
    """Tiny runs emit every declared name with its unit, and pass their checks."""

    def run_mode(self, workload: str, trace: int) -> dict:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", SIZE)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout + proc.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"]
                 for m in DECLARED["per_layer" if trace else "end_to_end"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    emitted = self.run_mode(workload, trace)
                    self.assertEqual(set(emitted), {m["name"] for m in DECLARED[key]})


class TestTamperedReports(unittest.TestCase):
    """Each correctness check trips on a report tampered to violate it."""

    @classmethod
    def setUpClass(cls):
        cls.reports = {w: child(w) for w in WORKLOADS}
        cls.paper = [child("paper-sweep", part) for part in range(3)]
        cls.points = len(CONFIG[SIZE]["paper_models"]) * 2 * 3

    def checks(self, workload, reports):
        return check_reports(workload, reports, self.points)

    def test_untampered_reports_pass(self):
        self.assertEqual(failing(self.checks("paper-sweep", self.paper)), set())
        for workload in ("kernel-infer", "fleet-steady", "fleet-chaos"):
            rep = self.reports[workload]
            self.assertEqual(failing(self.checks(workload, [rep, copy.deepcopy(rep)])), set())

    def test_functional_counters_must_equal_analytic(self):
        rep = copy.deepcopy(self.reports["kernel-infer"])
        key = next(k for k in rep["evidence"] if k.startswith("counters/"))
        rep["evidence"][key]["functional"][0][3] += 1  # one more byte read
        name = key.split("/", 1)[1]
        self.assertIn(f"{name}: functional counters == run_analytic counters",
                      failing(self.checks("kernel-infer", [rep])))

    def test_outputs_must_repeat(self):
        rep = copy.deepcopy(self.reports["kernel-infer"])
        key = next(k for k in rep["evidence"] if k.startswith("repeat/"))
        rep["evidence"][key][1] = "0" * 64
        name = key.split("/", 1)[1]
        self.assertIn(f"{name}: output repeats across cycles",
                      failing(self.checks("kernel-infer", [rep])))

    def test_engines_must_agree(self):
        rep = copy.deepcopy(self.reports["kernel-infer"])
        rep["evidence"]["engines/int8"]["reference_digest"] = "0" * 64
        rep["evidence"]["engines/fp32"]["tolerance_excess"] = 1e-3
        rep["evidence"]["engines/fp32"]["fast_counters"][0][4] += 1
        bad = failing(self.checks("kernel-infer", [rep]))
        self.assertIn("fast vs reference engine outputs bit-equal (int8)", bad)
        self.assertIn("fast vs reference engine outputs allclose (fp32)", bad)
        self.assertIn("fast vs reference engine counters (fp32)", bad)

    def test_fleet_accounting_must_close(self):
        for workload in ("fleet-steady", "fleet-chaos"):
            rep = copy.deepcopy(self.reports[workload])
            key = next(k for k in rep["evidence"] if k.startswith("accounts/"))
            label = key.split("/", 1)[1]
            rep["evidence"][key]["served"] += 1
            bad = failing(self.checks(workload, [rep]))
            self.assertIn(f"{label}: served + shed + lost == offered", bad)
            self.assertIn(f"{label}: attained + late == served", bad)

    def test_sim_values_must_repeat_across_processes(self):
        for workload in ("kernel-infer", "fleet-steady", "fleet-chaos"):
            rep = self.reports[workload]
            other = copy.deepcopy(rep)
            if workload == "kernel-infer":
                other["sim"]["totals"]["launches"] += 1
            else:
                other["sim"]["p99_ms"] += 1e-9
            self.assertIn("sim values identical across processes",
                          failing(self.checks(workload, [rep, other])))
        again = copy.deepcopy(self.paper[0])
        point = next(iter(again["sim"]["plans"].values()))
        point["speedup_vs_tvm"] *= 1.0 + 1e-12
        self.assertIn("sim values identical across processes",
                      failing(self.checks("paper-sweep", self.paper + [again])))

    def test_every_paper_point_must_be_measured(self):
        short = copy.deepcopy(self.paper)
        short[0]["sim"]["plans"].popitem()
        self.assertIn("every Fig. 10/11 point measured",
                      failing(self.checks("paper-sweep", short)))

    def test_chaos_mechanisms_must_fire(self):
        for mechanism in CHAOS_MECHANISMS:
            rep = copy.deepcopy(self.reports["fleet-chaos"])
            if mechanism in rep["sim"]["faults"]:
                rep["sim"]["faults"][mechanism] = 0
            else:
                rep["sim"][mechanism] = 0
            self.assertIn(f"chaos recorded {mechanism}",
                          failing(self.checks("fleet-chaos", [rep])))


class TestWithoutProgram(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = bench("--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
