#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see perfbench/README.md for why each exists):
  paper-sweep   every Fig. 10/11 point, planner + runtime + TVM baseline
  kernel-infer  functional inference through the simulated kernels
  fleet-steady  a Poisson stream below capacity over a 4-GPU fleet, then a
                ladder of offered rates for capacity
  fleet-chaos   faults, retries, hedging, autoscaling and degrade admission

Every sample is a fresh interpreter (perfbench/child.py), started one at a
time: at least three (five on fleet-chaos), and more until ``--seconds`` of
wall time have passed.  ``--trace 0`` prints the end-to-end metrics (median, spread as
IQR/median, sample count); ``--trace 1`` runs one untraced and one traced
pass of the same work and prints the per-layer metrics, the share of wall
time the layer spans leave unattributed, and the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Check, check_reports
from child import CONFIG, WORKLOADS
from metrics import (
    WORK,
    end_to_end,
    host_layers,
    load_trace_view,
    sim_layers,
    spread,
    wall_throughput,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: set-up is sampled once per process; the median needs at least three.
#: One fleet-chaos process is one replay, and identical ones spread by 11%
#: in throughput, so that median takes five.
MIN_SAMPLES = {"fleet-chaos": 5}
#: paper-sweep splits the 24 points over this many processes (one per GPU slot).
PAPER_PARTS = 3
#: no new process starts once this much wall time has passed (limit: 180 s).
DEADLINE_S = 150.0


class ChildError(RuntimeError):
    """A benchmark process ended without a report (crash, timeout)."""


def spawn(args: argparse.Namespace, part: int, started: float, *, trace: int = 0,
          extra: tuple = ()) -> tuple[dict, float]:
    """Run one benchmark process to completion; returns (report, wall seconds)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--part", str(part), "--size", args.size,
           "--trace", str(trace), *extra]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT / f"{args.workload}-seed{args.seed}-part{part}.json")]
    timeout = max(1.0, 175.0 - (time.perf_counter() - started))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{args.workload} part {part} timed out after {timeout:.0f} s") from exc
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{args.workload} part {part} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def measure(args: argparse.Namespace, started: float) -> tuple[list[dict], list[dict]]:
    """Untraced samples until ``--seconds`` have passed; returns (samples,
    verifying-only reports)."""
    samples: list[dict] = []
    walls: list[float] = []
    while True:
        if args.workload == "paper-sweep":
            parts = range(PAPER_PARTS)
        else:
            parts = [len(samples)]
        for part in parts:
            report, wall = spawn(args, part, started)
            samples.append(report)
            walls.append(wall)
        elapsed = time.perf_counter() - started
        if len(samples) >= MIN_SAMPLES.get(args.workload, 3) and (
            elapsed >= args.seconds or elapsed + sum(walls[-len(parts):]) > DEADLINE_S
        ):
            break
    verify = []
    if args.workload == "paper-sweep":
        # Re-run one seeded point in a fresh process: the simulated results
        # of the sweep must repeat exactly across processes.
        part = args.seed % PAPER_PARTS
        verify.append(spawn(args, part, started, extra=("--only-point", str(args.seed)))[0])
    return samples, verify


def trace_passes(args: argparse.Namespace, started: float):
    """One untraced and one traced pass over the same work."""
    parts = range(PAPER_PARTS) if args.workload == "paper-sweep" else [0]
    passes = {}
    for trace in (0, 1):
        runs = [spawn(args, part, started, trace=trace) for part in parts]
        passes[trace] = ([r for r, _ in runs], sum(w for _, w in runs))
    return passes


def expected_points(size: str) -> int:
    return len(CONFIG[size]["paper_models"]) * 2 * PAPER_PARTS


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: the repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(CONFIG), default="full",
                        help="tiny shrinks every workload (self-tests only)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running benchmark process instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[key]}

    started = time.perf_counter()
    try:
        if args.trace:
            passes = trace_passes(args, started)
            reports = passes[0][0] + passes[1][0]
        else:
            samples, verify = measure(args, started)
            reports = samples + verify
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks = check_reports(args.workload, reports, expected_points(args.size))
    attempted = sum(r["ops"] for r in reports) + len(checks)
    failed = sum(r["failed"] for r in reports) + sum(not c.ok for c in checks)

    if args.trace:
        traced, traced_wall = passes[1]
        untraced_wall = passes[0][1]
        values = host_layers([r["trace_file"] for r in traced], load_trace_view(ROOT))
        values.update(sim_layers(reports))
        values["trace.traced_wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_ratio"] = traced_wall / untraced_wall
        series = {name: [v] for name, v in values.items()}
    else:
        ok_frac = 1.0 - failed / attempted if attempted else 0.0
        series = end_to_end(samples, ok_frac, reports)

    undeclared = sorted(set(series) - set(units))
    if undeclared:
        print(f"perfbench: metrics not declared in BENCHMARK.json: {undeclared}",
              file=sys.stderr)
        return 1
    metrics = {}
    rows = []
    for name in units:
        vals = series.get(name, [])
        value = statistics.median(vals) if vals and all(finite(v) for v in vals) else None
        if value is None:
            attempted += 1
            failed += 1
            checks.append(Check(f"metric {name} measured", False, "(no finite value)"))
        metrics[name] = {"value": value, "unit": units[name]}
        rows.append((name, units[name], value, spread(vals) if value is not None else 0.0,
                     len(vals)))

    n = len(reports)
    mode = "per-layer (traced pass vs untraced pass)" if args.trace else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}: {mode}, "
          f"{n} process(es), {time.perf_counter() - started:.1f} s")
    print(f"  {'metric':<44s} {'unit':<8s} {'median':>14s} {'spread':>8s} {'n':>3s}")
    for name, unit, value, sp, count in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44s} {unit:<8s} {shown:>14s} {sp:>7.1%} {count:>3d}")
    if not args.trace:
        wall = wall_throughput(samples)
        label = f"({WORK[args.workload]} per wall second)"
        print(f"  {label:<44s} {'1/s':<8s} {statistics.median(wall):>14.6g} "
              f"{spread(wall):>7.1%} {len(wall):>3d}")
        setup = [r["setup_s"] for r in samples]
        print(f"  {'(set-up in wall seconds)':<44s} {'s':<8s} {statistics.median(setup):>14.6g} "
              f"{spread(setup):>7.1%} {len(setup):>3d}")
    print(f"  checks: {sum(c.ok for c in checks)} passed, {sum(not c.ok for c in checks)} "
          f"failed; operations: {attempted - len(checks)}, failed_frac "
          f"{failed / attempted if attempted else 0.0:.4f}")
    for c in checks:
        if not c.ok:
            print(f"  FAILED check: {c.label} {c.detail}".rstrip())
    for r in reports:
        for err in r["errors"]:
            print(f"  FAILED operation in part {r['part']}: {err}", file=sys.stderr)
    if args.trace:
        print("  note: byte and MAC counts are computed from simulator counters, "
              "not measured on a GPU; sim_* and sim.* are simulated time")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
