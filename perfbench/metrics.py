"""Turn the JSON reports of one benchmark run into named metrics.

Every workload reports every metric.  End-to-end metrics are lists of
samples, one per benchmark process where the metric is per process (host
time, set-up, memory) and one per run where it is computed over the whole
run (the geomeans over plans).  ``run.py`` reports each list's median, its
spread and its sample count.  Per-layer metrics are single values from the
traced pass; a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
from pathlib import Path

from child import CONFIG, STEP_KINDS, _case_name

#: the unit of work ``work_per_s`` counts, per workload.
WORK = {"paper-sweep": "Fig. 10/11 points", "kernel-infer": "images",
        "fleet-steady": "requests", "fleet-chaos": "requests"}

#: host spans recorded around public calls (child.py names); a workload
#: that makes no such call reports 0 for it.
HOST_SPANS = ("models.build", "planner.plan", "runtime.session_init", "runtime.analytic",
              "baselines.tvm_compile", "baselines.tvm_session_init",
              "baselines.tvm_analytic", "serve.fleet_init", "serve.preplan", "serve.replay")
RUN_CASES = tuple(_case_name(*case) for case in CONFIG["full"]["kernel_cases"])
#: the boot workers of fleet-steady (fleet-chaos boots the first three).
WORKERS = ("RTX-0", "RTX-1", "GTX-2", "Orin-3")
ROOT_SPAN = "perfbench.process"


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(samples: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    med = statistics.median(samples)
    return (q3 - q1) / abs(med) if med else 0.0


def wall_throughput(samples: list[dict]) -> list[float]:
    """Work per wall second, before the probe's speed correction."""
    return [r["work"] / r["work_s"] for r in samples if r["work_s"] > 0]


def merged_plans(reports: list[dict]) -> dict:
    """Every plan any process priced against TVM, by (GPU, model, dtype) or case."""
    merged: dict = {}
    for rep in reports:
        merged.update(rep["sim"].get("plans", {}))
    return merged


def end_to_end(samples: list[dict], ok_frac: float,
               all_reports: list[dict]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric.

    ``samples`` are the processes that count as measurements; ``all_reports``
    adds the ones that only verify (paper-sweep's repeated point).
    """
    out: dict[str, list[float]] = {
        "setup_s": [r["setup_ref_s"] for r in samples],
        "peak_rss_mb": [r["rss_mb"] for r in samples],
        "ok_frac": [ok_frac],
        "work_per_s": [r["work"] / r["ref_s"] for r in samples if r["ref_s"] > 0],
    }
    plans = list(merged_plans(all_reports).values())
    if plans:
        for name in ("speedup_vs_tvm", "gma_vs_tvm", "energy_vs_tvm"):
            out[f"sim_{name}"] = [geomean(p[name] for p in plans)]
    return {k: v for k, v in out.items() if v}


def load_trace_view(root: Path):
    """The in-tree offline trace summariser (tools/trace_view.py)."""
    spec = importlib.util.spec_from_file_location("trace_view", root / "tools" / "trace_view.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def host_layers(trace_files: list[str], trace_view) -> dict[str, float]:
    """Per-call self time of each layer span, plus the unattributed share."""
    totals: dict[str, list[float]] = {}
    root_total = 0.0
    for path in trace_files:
        events = trace_view.load_events(path)
        for name, (self_us, count) in trace_view.self_times(events).items():
            acc = totals.setdefault(name, [0.0, 0])
            acc[0] += self_us / 1e6
            acc[1] += count
        root_total += sum(ev["dur"] for ev in events
                          if ev.get("ph") == "X" and ev["name"] == ROOT_SPAN) / 1e6
    spans = {span: span + "_s" for span in HOST_SPANS}
    spans.update({f"runtime.run.{case}": f"runtime.run_s.{case}" for case in RUN_CASES})
    out = dict.fromkeys(spans.values(), 0.0)
    for span, metric in spans.items():
        if span in totals:
            self_s, count = totals[span]
            out[metric] = self_s / count
    root_self = totals.get(ROOT_SPAN, [0.0, 0])[0]
    out["trace.unattributed_frac"] = root_self / root_total if root_total else float("nan")
    return out


def sim_layers(reports: list[dict]) -> dict[str, float]:
    """Per-layer metrics computed from simulator counters and fleet accounting."""
    out: dict[str, float] = {"planner.fused_layer_frac": 0.0}
    plans = list(merged_plans(reports).values())
    for kind in STEP_KINDS:
        out[f"sim.gma_mb.{kind}"] = sum(p["gma_mb"][kind] for p in plans)
        out[f"sim.time_ms.{kind}"] = sum(p["time_ms"][kind] for p in plans)
    if plans:
        out["planner.fused_layer_frac"] = statistics.fmean(p["fused_layer_frac"] for p in plans)

    sims = [r["sim"] for r in reports]
    t = next((s["totals"] for s in sims if "totals" in s), None)
    out["kernels.gma_mb"] = t["gma_bytes"] / 1e6 if t else 0.0
    out["kernels.macs_m"] = t["macs"] / 1e6 if t else 0.0
    out["kernels.redundant_mac_frac"] = t["redundant_macs"] / t["macs"] if t and t["macs"] else 0.0
    out["kernels.launches"] = t["launches"] if t else 0

    # Distinct digests of one (model, dtype)'s weights across the processes.
    digests: dict[str, set] = {}
    for rep in reports:
        for key, digest in rep["weight_digests"].items():
            digests.setdefault(key, set()).add(digest)
    out["runtime.weight_digests_distinct"] = max((len(d) for d in digests.values()), default=0)

    s = next((s for s in sims if "p50_ms" in s), {})
    out["serve.p50_ms"] = s.get("p50_ms", 0.0)
    out["serve.p99_ms"] = s.get("p99_ms", 0.0)
    out["serve.attainment"] = s.get("attainment", 0.0)
    out["serve.capacity_rps"] = s.get("capacity_rps", 0.0)
    out["serve.batches"] = s.get("batches", 0)
    out["serve.mean_batch"] = s.get("mean_batch", 0.0)
    out["serve.plan_hit_rate"] = s.get("plan_hit_rate", 0.0)
    out["serve.critical_path_planner_invocations"] = s.get("critical_path_planner_invocations", 0)
    busy = s.get("busy_frac", {})
    for worker in WORKERS:
        out["serve.busy_frac." + worker] = busy.get(worker.replace("-", "#"), 0.0)
    out["admission.shed"] = s.get("shed", 0)
    out["admission.degraded"] = s.get("degraded", 0)
    out["serve.late"] = s.get("late", 0)
    waits = [r["layers"]["serve.queue_wait_p99_ms"] for r in reports
             if "serve.queue_wait_p99_ms" in r["layers"]]
    out["serve.queue_wait_p99_ms"] = waits[0] if waits else 0.0
    f = s.get("faults", {})
    for name in ("requeues", "retries", "budget_denied", "lost", "breaker_trips"):
        out[f"faults.{name}"] = f.get(name, 0)
    out["faults.hedge_win_frac"] = f["hedges_won"] / f["hedges"] if f.get("hedges") else 0.0
    out["faults.availability"] = s.get("availability", 0.0)
    out["autoscale.scale_events"] = s.get("scale_events", 0)
    out["autoscale.peak_workers"] = s.get("peak_workers", 0)
    return out
