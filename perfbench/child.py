"""One benchmark process: set up one workload cold, run it, print a JSON report.

``run.py`` starts this script once per sample, so every sample begins in a
fresh interpreter: the planner's process-wide ``GeometryMemo``, the lru
caches and the lazy imports start cold, as they do for a CLI or figure user.
The script times only calls into public ``repro`` functions made from this
file, and changes nothing under ``src/``.

Two clocks stay apart.  *Host* numbers (``setup_s``, ``work_s``, span self
times) are wall seconds of this process; ``setup_ref_s`` and ``ref_s`` are
the same set-up and work converted to reference seconds by a speed probe.
*Simulated* numbers (everything under ``"sim"``) are outputs of the modelled
GPU; they are deterministic and ``run.py`` checks that every process reports
them identically.  Every
workload prices the plans it ran against the TVM baseline's plans for the
same graph, GPU and precision (``["sim"]["plans"]``), outside its timed
region.

With ``--trace 1`` the public calls are wrapped in spans on a
:class:`repro.obs.Tracer` whose clock is ``time.perf_counter``, injected
here so that ``src/`` stays free of ambient wall-clock reads, and the spans
are exported as Chrome-trace JSON.  Without it the same ``with`` statements
hit the zero-cost null tracer, so the untraced run executes the same code.

Usage (normally via run.py):
    python3 perfbench/child.py --workload paper-sweep --seed 1 --part 0
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before any repro import: set-up includes imports

import argparse  # noqa: E402
import difflib  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import textwrap  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

#: the checkout root; the program under test is imported from its src/.
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("paper-sweep", "kernel-infer", "fleet-steady", "fleet-chaos")
#: plan-step kinds of our runtime (the paper's Fig. 8 split).
STEP_KINDS = ("fcm", "lbl", "std", "glue")

#: Workload parameters.  "full" is what the benchmark measures; "tiny" only
#: exists so the self-tests can run every workload in seconds.
CONFIG = {
    "full": {
        "paper_models": ("mobilenet_v1", "mobilenet_v2", "xception", "proxylessnas"),
        # (model, dtype, max_chain, batch): together these plans use every
        # kernel family (lbl-dw, lbl-pw, fcm-dwpw, fcm-pwdw, fcm-pwdw_r,
        # chain-3, std, glue) in both dtypes; batch > 1 goes through run_batch.
        "kernel_cases": (
            ("proxylessnas", "fp32", 2, 1),
            ("proxylessnas", "int8", 2, 1),
            ("mobilenet_v1", "fp32", 3, 1),
            ("mobilenet_v1", "int8", 3, 1),
            ("mobilenet_v2", "fp32", 2, 4),
        ),
        "kernel_cycles": 2,
        "steady_models": ("mobilenet_v1", "mobilenet_v2", "xception", "proxylessnas"),
        "steady_requests": 5000,
        "ladder_requests": 1500,
        "chaos_requests": 3000,
        "chaos_transients": 40,
    },
    "tiny": {
        "paper_models": ("mobilenet_v1",),
        "kernel_cases": (
            ("mobilenet_v1", "fp32", 3, 1),
            ("mobilenet_v1", "int8", 3, 1),
            ("mobilenet_v2", "fp32", 2, 4),
        ),
        "kernel_cycles": 1,
        "steady_models": ("mobilenet_v1", "mobilenet_v2"),
        "steady_requests": 400,
        "ladder_requests": 200,
        "chaos_requests": 1500,
        "chaos_transients": 20,
    },
}

#: fleet-steady: one Poisson stream below capacity, then a capacity ladder.
STEADY_RATE_RPS = 4000.0
STEADY_SLO_S = 12e-3
LADDER_RATES_RPS = (5000.0, 6000.0, 7000.0, 8000.0)
#: share of offered requests that must meet the SLO for a ladder rung to pass.
#: Attainment falls steeper around this share than near 0.99, so the
#: interpolated crossing moves less with the seed (capacity spread over
#: seeds: 10% at 0.99, 8% here).
ATTAINMENT_TARGET = 0.95

#: fleet-chaos: bursty lognormal arrivals over a small autoscaled fleet.
CHAOS_MODELS = ("mobilenet_v1", "mobilenet_v2")
CHAOS_RATE_RPS = 9000.0
CHAOS_SIGMA = 0.5
CHAOS_SLO_S = 4e-3
#: (share, SLO) of latency-critical requests.  Their FP32 projection busts
#: the SLO behind even a short backlog while the INT8 one still fits, so
#: degrade admission fires on every seed, not only in bursts.
CHAOS_TIGHT = (0.1, 1.5e-3)
CHAOS_MAX_WORKERS = 4
#: spill to a non-holder at half a micro-batch of extra backlog, so the cold
#: worker grown after the first crash picks up every plan on every seed
#: (at the default 2.0 it took 1 to 4 plans, and p50 moved 10% with it).
CHAOS_SPILL = 0.5
#: batching window (default 2 ms).  At 2 ms the median request was, on most
#: seeds, a lone INT8 request flushed at the window's end, so p50 read the
#: same 2.1439 ms on 7 of 8 seeds; at 2.5 ms it falls between plateaus.
CHAOS_MAX_DELAY_S = 2.5e-3


def _case_name(model: str, dtype: str, max_chain: int, batch: int) -> str:
    name = f"{model}-{dtype}-c{max_chain}"
    return name if batch == 1 else f"{name}-b{batch}"


# ---- host-speed probe ------------------------------------------------------------

#: The probe's duration at the reference speed; host seconds are converted
#: to reference seconds by the ratio of this to the probes' measured time.
PROBE_REF_S = 0.015
#: Elasticity of program time to probe time, per workload.  On paper-sweep
#: and kernel-infer the probe reacts to the host's speed drift more strongly
#: than the program does: over 22 fresh processes a log-log fit of program
#: time on probe time gave 0.64 and 0.67, and with the exponent the
#: process-to-process spread of program time fell from 10-12% to 2-4%
#: (dividing by the probe time outright left 5-7%).  The fleets' replays,
#: with their larger heaps, follow the drift fully: the fit gave 0.99 over
#: ten fleet-steady processes (spread 22.7% raw, 9.9% at 0.65, 9.0% at 1)
#: and 1.09 over nine fleet-chaos ones.
PROBE_ELASTICITY = {"paper-sweep": 0.65, "kernel-infer": 0.65,
                    "fleet-steady": 1.0, "fleet-chaos": 1.0}
#: Probes taken after each measured operation: at least this many, and
#: more to cover 5% of the operation's wall time.
PROBE_MIN = 3

_PROBE_WORDS = [f"w{i % 97}x{i % 13}" for i in range(3000)]


class _ProbeItem:
    __slots__ = ("key", "name", "weight")

    def __init__(self, key: int, name: str, weight: float) -> None:
        self.key, self.name, self.weight = key, name, weight

    @property
    def score(self) -> float:
        return self.weight * (self.key % 7 + 1)


def probe() -> float:
    """Seconds this host takes for a fixed, varied slice of benchmark-owned
    work: pure-Python stdlib (difflib, fractions, json, re, textwrap,
    sorting, a heap loop over small objects, statistics) and small NumPy
    kernels.  It never calls the program, so no change to the program can
    move it; the variety keeps it from hinging on one code path's luck with
    memory layout, which made a single tight loop differ by 75% between
    processes."""
    start = time.perf_counter()
    words = _PROBE_WORDS
    difflib.SequenceMatcher(None, words[:600], words[300:900]).ratio()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    json.loads(json.dumps([{"k": i, "v": [i, i * 0.5, str(i)]} for i in range(1500)]))
    text = " ".join(words)
    re.findall(r"w(\d+)x1", text)
    textwrap.fill(text[:6000], width=70)
    items = sorted((_ProbeItem(i, words[i], i * 0.37 % 5.0) for i in range(2000)),
                   key=lambda it: (it.score, it.name))
    heap: list = []
    acc: dict = {}
    for it in items:
        heapq.heappush(heap, (it.score, it.key, it))
        if len(heap) > 32:
            _, _, done = heapq.heappop(heap)
            acc[done.key % 11] = acc.get(done.key % 11, 0.0) + done.weight
    statistics.quantiles([it.weight for it in items], n=4)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    for _ in range(10):
        a = np.tanh(a @ a * 0.01)
    w = rng.standard_normal((32, 32, 3, 3)).astype(np.float32)
    rows = rng.integers(0, 32, 100)
    for r in rows:
        w[r, :, 1, 1] += np.float32(0.001) * w[0, :, 1, 1]
    np.einsum("oikl,oikl->o", w, w)
    return time.perf_counter() - start


def probe_for(seconds: float) -> list[float]:
    """Probe at least ``PROBE_MIN`` times and for at least ``seconds``."""
    times: list[float] = []
    while len(times) < PROBE_MIN or sum(times) < seconds:
        times.append(probe())
    return times


class Run:
    """Bookkeeping shared by the workloads: tracer, failures, host time."""

    def __init__(self, args: argparse.Namespace) -> None:
        from repro.obs import NULL_TRACER, Tracer

        self.args = args
        self.cfg = CONFIG[args.size]
        self.tracer = (
            Tracer(clock=time.perf_counter, pid="perfbench") if args.trace else NULL_TRACER
        )
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []
        self.report: dict = {"sim": {}, "layers": {}, "evidence": {}, "weight_digests": {},
                             "work": 0, "work_s": 0.0, "ref_s": 0.0}
        self._probes: list[float] = []
        self.elasticity = PROBE_ELASTICITY[args.workload]

    def op(self, label: str, fn):
        """Run one counted operation; an exception counts as a failure."""
        self.ops += 1
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a failed operation is a measurement
            self.fail(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    def timed(self, label: str, fn, *, work: int = 1):
        """One measured operation, with host-speed probes on either side.

        Its wall time adds to ``work_s``; the same time in reference seconds,
        ``wall * (PROBE_REF_S / probe) ** elasticity`` with the mean
        probe time around it, adds to ``ref_s``; its ``work`` (points,
        images, requests) adds to ``work``.
        """
        start = time.perf_counter()
        out = self.op(label, fn)
        wall = time.perf_counter() - start
        with self.tracer.span("perfbench.probe"):
            after = probe_for(0.05 * wall)
        speed = statistics.fmean(self._probes + after)
        self._probes = after
        rep = self.report
        rep["work_s"] += wall
        rep["ref_s"] += self.ref_seconds(wall, speed)
        rep["work"] += work
        return out

    def ref_seconds(self, wall: float, probe_s: float) -> float:
        return wall * (PROBE_REF_S / probe_s) ** self.elasticity

    def setup_done(self) -> None:
        """End of set-up: records its wall time, then probes the host's speed
        for the timed work and for set-up's time in reference seconds (as
        after a measured operation: the longer set-up, the longer the probe,
        else a few probes' luck moves a long set-up's reference time)."""
        setup_s = time.perf_counter() - T0
        with self.tracer.span("perfbench.probe"):
            probe()  # warm-up: first-call costs (imports, regex compile)
            self._probes = probe_for(0.05 * setup_s)
        self.report["setup_s"] = setup_s
        self.report["setup_ref_s"] = self.ref_seconds(setup_s, statistics.fmean(self._probes))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


# ---- paper-sweep --------------------------------------------------------------


def paper_points(models, part: int, seed: int, gpus, dtypes):
    """This process's share of the Fig. 10/11 points, in seeded order.

    Part ``p`` gets every (model, dtype) once, on GPU ``(m + d + p) % 3``, so
    the three parts hold the same model mix and together cover every point.
    """
    points = [
        (model, dtype, gpus[(mi + di + part) % len(gpus)])
        for mi, model in enumerate(models)
        for di, dtype in enumerate(dtypes)
    ]
    random.Random(seed).shuffle(points)
    return points


def paper_sweep(run: Run) -> None:
    from repro.baselines.tvm import TvmCompiler
    from repro.core.dtypes import DType
    from repro.gpu.specs import ALL_GPUS
    from repro.models.zoo import build_model
    from repro.planner.planner import FusePlanner
    from repro.runtime.network_params import materialize_network
    from repro.runtime.session import InferenceSession, TvmSession

    args, tr = run.args, run.tracer
    points = paper_points(
        run.cfg["paper_models"], args.part, args.seed, ALL_GPUS, (DType.FP32, DType.INT8)
    )
    if args.only_point is not None:
        points = [points[args.only_point % len(points)]]
    run.setup_done()

    def point(model, dtype, gpu):
        # The reproducer's path (experiments.fig10_fig11.end_to_end_point),
        # step by step.  Sessions stay params=None, so weights materialize.
        with tr.span("models.build"):
            graph = build_model(model, dtype)
        with tr.span("planner.plan"):
            plan = FusePlanner(gpu).plan(graph)
        with tr.span("runtime.session_init"):
            session = InferenceSession(graph, plan, params=None)
        with tr.span("runtime.analytic"):
            ours = session.run_analytic()
        with tr.span("baselines.tvm_compile"):
            tvm_plan = TvmCompiler(gpu).compile(graph, dtype)
        with tr.span("baselines.tvm_session_init"):
            tvm_session = TvmSession(graph, tvm_plan, params=None)
        with tr.span("baselines.tvm_analytic"):
            tvm = tvm_session.run_analytic()
        return plan, ours, tvm

    results = [
        (model, dtype, gpu, run.timed(model, lambda: point(model, dtype, gpu)))
        for model, dtype, gpu in points
    ]

    plans = run.report["sim"].setdefault("plans", {})
    for model, dtype, gpu, out in results:
        if out is not None:
            plans[f"{gpu.name}/{model}/{dtype.value}"] = plan_record(*out)
    # The weights a params=None session materializes, for the digest count.
    graph = build_model(run.cfg["paper_models"][0], DType.FP32)
    run.report["weight_digests"] = {
        f"{graph.name}/fp32": weights_digest(materialize_network(graph, DType.FP32))
    }


def plan_record(plan, ours, tvm) -> dict:
    """Simulated results of one of our plans against the TVM baseline's plan
    for the same graph, GPU and precision, both at batch 1."""
    gma = {k: 0 for k in STEP_KINDS}
    time_s = {k: 0.0 for k in STEP_KINDS}
    for rec in ours.records:
        gma[rec.kind] += rec.counters.total_bytes
        time_s[rec.kind] += rec.time_s
    return {
        "speedup_vs_tvm": tvm.latency_s / ours.latency_s,
        "gma_vs_tvm": ours.total_gma_bytes / tvm.total_gma_bytes,
        "energy_vs_tvm": ours.energy_j / tvm.energy_j,
        "fused_layer_frac": plan.fused_layer_fraction,
        "gma_mb": {k: v / 1e6 for k, v in gma.items()},
        "time_ms": {k: v * 1e3 for k, v in time_s.items()},
    }


def tvm_record(tr, graph, plan, ours, params) -> dict:
    """:func:`plan_record` against a TVM plan compiled here; the TVM session
    reuses ``params`` (an analytic run never reads them)."""
    from repro.baselines.tvm import TvmCompiler
    from repro.runtime.session import TvmSession

    with tr.span("baselines.tvm_compile"):
        tvm_plan = TvmCompiler(plan.gpu).compile(graph, plan.dtype)
    with tr.span("baselines.tvm_session_init"):
        tvm_session = TvmSession(graph, tvm_plan, params=params)
    with tr.span("baselines.tvm_analytic"):
        tvm = tvm_session.run_analytic()
    return plan_record(plan, ours, tvm)


def weights_digest(params) -> str:
    digest = hashlib.sha256()
    for layer in sorted(params.layers):
        digest.update(np.ascontiguousarray(params[layer].weights).tobytes())
    return digest.hexdigest()


# ---- kernel-infer -------------------------------------------------------------

#: global-memory and compute counters the analytic path must reproduce exactly
#: (shared-memory traffic is only modelled by the functional kernels).
COUNTER_FIELDS = ("read_bytes", "write_bytes", "total_bytes", "macs", "redundant_macs",
                  "kernel_launches")
#: allclose tolerance for FP32 fast-vs-reference outputs (INT8 must be bit-equal).
ENGINE_RTOL = ENGINE_ATOL = 1e-4


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _counter_rows(report) -> list:
    rows = []
    for rec in report.records:
        snap = rec.counters.snapshot()
        rows.append([rec.name, rec.kind, rec.time_s] + [snap[f] for f in COUNTER_FIELDS])
    return rows


def kernel_infer(run: Run) -> None:
    from repro.core.dtypes import DType
    from repro.gpu.specs import RTX_A4000
    from repro.models.zoo import build_model
    from repro.planner.planner import FusePlanner
    from repro.runtime.network_params import materialize_network
    from repro.runtime.session import InferenceSession, seeded_input

    args, tr = run.args, run.tracer
    cases = []
    for i, (model, dtype_name, max_chain, batch) in enumerate(run.cfg["kernel_cases"]):
        dtype = DType(dtype_name)
        with tr.span("models.build"):
            graph = build_model(model, dtype)
        with tr.span("planner.plan"):
            plan = FusePlanner(RTX_A4000, max_chain=max_chain).plan(graph)
        with tr.span("runtime.session_init"):
            session = InferenceSession(graph, plan, materialize_network(graph, dtype))
        x = seeded_input(graph, dtype, seed=args.seed * 101 + i, batch=batch)
        cases.append((_case_name(model, dtype_name, max_chain, batch), session, x, batch))
    run.setup_done()

    def infer(session, x, batch):
        return session.run(x) if batch == 1 else session.run_batch(x)

    def traced_infer(name, session, x, batch):
        with tr.span(f"runtime.run.{name}"):
            return infer(session, x, batch)

    first: dict = {}
    last: dict = {}
    for _ in range(run.cfg["kernel_cycles"]):
        for name, session, x, batch in cases:
            out = run.timed(name, lambda: traced_infer(name, session, x, batch), work=batch)
            if out is not None:
                first.setdefault(name, out)
                last[name] = out

    # ---- evidence for the checks (checks.py), outside the timed region ----
    sim, evidence = run.report["sim"], run.report["evidence"]
    plans, counters = sim.setdefault("plans", {}), sim.setdefault("counters", {})
    totals = {"gma_bytes": 0, "macs": 0, "redundant_macs": 0, "launches": 0}
    for name, session, x, batch in cases:
        if name not in first:
            continue
        rep = first[name]
        with tr.span("runtime.analytic"):
            analytic = (session.run_analytic() if batch == 1
                        else session.run_analytic_batch(batch))
        rows = _counter_rows(rep)
        evidence[f"counters/{name}"] = {"functional": rows, "analytic": _counter_rows(analytic)}
        evidence[f"repeat/{name}"] = [_digest(rep.output), _digest(last[name].output)]
        counters[name] = rows
        if batch != 1:
            with tr.span("runtime.analytic"):
                analytic = session.run_analytic()
        plans[name] = tvm_record(tr, session.graph, session.plan, analytic, session.params)
        totals["gma_bytes"] += rep.total_gma_bytes
        totals["macs"] += sum(r.counters.total_macs for r in rep.records)
        totals["redundant_macs"] += sum(r.counters.redundant_macs for r in rep.records)
        totals["launches"] += rep.kernel_launches
    sim["totals"] = totals

    if args.part == 0:
        # The fast and reference engines on the smallest plans.
        from repro.runtime.session import build_session

        for dtype in (DType.FP32, DType.INT8):
            session = build_session("mobilenet_v1", RTX_A4000, dtype, max_chain=3)
            x = seeded_input(session.graph, dtype, seed=args.seed)
            with tr.span("runtime.run_engines"):
                fast = run.op("engine-fast", lambda: session.run(x, engine="fast"))
                ref = run.op("engine-reference", lambda: session.run(x, engine="reference"))
            if fast is None or ref is None:
                continue
            evidence[f"engines/{dtype.value}"] = {
                "fast_digest": _digest(fast.output),
                "reference_digest": _digest(ref.output),
                # > 0 where |fast - ref| exceeds atol + rtol * |ref| (allclose)
                "tolerance_excess": float(np.max(
                    np.abs(fast.output.astype(np.float64) - ref.output)
                    - ENGINE_RTOL * np.abs(ref.output.astype(np.float64)) - ENGINE_ATOL
                )),
                "fast_counters": _counter_rows(fast),
                "reference_counters": _counter_rows(ref),
            }

    run.report["weight_digests"] = {
        f"{session.graph.name}/{session.dtype.value}": weights_digest(session.params)
        for _, session, _, _ in cases
    }


# ---- serving fleets -----------------------------------------------------------


def _stream(models, n, rate, seed, slo_s, kind, tight=(0.0, None), **shape):
    """Seeded request trace: arrivals of ``kind``, model and dtype drawn per
    request; a ``tight = (share, slo)`` share of requests gets the tighter SLO."""
    from repro.serve import TraceRequest, generate_arrivals

    times = generate_arrivals(kind, n, rate, seed=seed, **shape)
    rng = np.random.default_rng([seed, 1])
    model_ix = rng.integers(0, len(models), n)
    dtype_ix = rng.integers(0, 2, n)
    slos = np.where(rng.uniform(size=n) < tight[0], tight[1] or slo_s, slo_s)
    return [
        TraceRequest(t=t, model=models[m], dtype=("fp32", "int8")[d], slo_s=float(slo))
        for t, m, d, slo in zip(times, model_ix, dtype_ix, slos)
    ]


def _served(report) -> int:
    return len(report.latencies_s)


def _accounts(report) -> dict:
    """Request accounting of one replay (checked by checks.py)."""
    return {
        "offered": report.n_requests,
        "served": _served(report),
        "shed": report.shed,
        "lost": report.fault_stats.lost if report.fault_stats is not None else 0,
        "attained": report.attained,
        "late": report.late,
    }


def _fleet_sim(report, boot_workers) -> dict:
    """Deterministic outputs of one fleet replay (simulated time)."""
    busy = {w.worker: w.busy_s / report.duration_s for w in report.per_worker}
    return {
        "p50_ms": report.latency_p50_s * 1e3,
        "p99_ms": report.latency_p99_s * 1e3,
        "attainment": report.attainment,
        "offered": report.n_requests,
        "served": _served(report),
        "attained": report.attained,
        "late": report.late,
        "shed": report.shed,
        "degraded": report.degraded,
        "batches": sum(w.batches for w in report.per_worker),
        "mean_batch": report.mean_batch,
        "plan_hit_rate": report.plan_hit_rate,
        "critical_path_planner_invocations": report.critical_path_planner_invocations,
        "busy_frac": {name: busy[name] for name in boot_workers if name in busy},
        "duration_s": report.duration_s,
        "scale_events": len(report.scale_events),
        "peak_workers": report.peak_workers,
        "availability": report.availability,
    }


def held_plans(fleet) -> list:
    """The distinct plans a fleet holds: one cache entry per (GPU, model, dtype)."""
    held: dict = {}
    for worker in fleet.workers:
        for key in worker.server.cache.keys():
            held.setdefault((key.gpu, key.model, key.dtype), worker.server.cache.peek(key))
    return [held[k] for k in sorted(held)]


def fleet_plans(run: Run, held: list) -> None:
    """Our plans the fleet served with, against TVM's, and their weights'
    digests; outside the timed region (the entries' memoized batch reports
    are left alone)."""
    plans = run.report["sim"].setdefault("plans", {})
    digests = run.report["weight_digests"]
    for entry in held:
        key = entry.key
        with run.tracer.span("runtime.analytic"):
            ours = entry.session.run_analytic()
        plans[f"{key.gpu}/{key.model}/{key.dtype}"] = tvm_record(
            run.tracer, entry.graph, entry.plan, ours, entry.params)
        if f"{key.model}/{key.dtype}" not in digests:
            digests[f"{key.model}/{key.dtype}"] = weights_digest(entry.params)


def _queue_wait_p99_ms(sim_tracer) -> float:
    from repro.serve import percentile

    waits = [s.duration_s for s in sim_tracer.spans if s.name == "request.wait"]
    return percentile(waits, 99) * 1e3 if waits else float("nan")


def capacity_from_ladder(rungs: list[dict], target: float) -> float:
    """Highest offered rate that meets ``target`` attainment without a growing
    backlog, refined by linear interpolation of attainment between the last
    passing rung and the first failing one (0.0 when the lowest rung fails)."""
    passed = None
    for rung in rungs:
        if rung["ok"]:
            passed = rung
            continue
        if passed is None:
            return 0.0
        drop = passed["attainment"] - rung["attainment"]
        frac = (passed["attainment"] - target) / drop if drop > 0 else 0.0
        return passed["rate"] + min(frac, 1.0) * (rung["rate"] - passed["rate"])
    return passed["rate"] if passed is not None else 0.0


def fleet_steady(run: Run) -> None:
    from repro.core.dtypes import DType
    from repro.gpu.specs import GTX1660, ORIN, RTX_A4000
    from repro.obs import Tracer
    from repro.serve import FakeClock, Fleet, fleet_replay

    args, tr, cfg = run.args, run.tracer, run.cfg
    gpus = [RTX_A4000, RTX_A4000, GTX1660, ORIN]
    models = cfg["steady_models"]

    def fleet(tracer=None):
        clock = FakeClock()
        return Fleet(gpus, clock=clock, sleep=clock.sleep, tracer=tracer)

    with tr.span("serve.fleet_init"):
        template = fleet()
    with tr.span("serve.preplan"):
        template.preplan(models, (DType.FP32, DType.INT8))
    run.setup_done()
    boot = [w.name for w in template.workers]

    def warm(tracer=None):
        # Every replay gets a fresh fleet holding the set-up plans, adopted
        # from the template's same-position workers (no planning, no weights).
        f = fleet(tracer)
        for worker, source in zip(f.workers, template.workers):
            for key in source.server.cache.keys():
                worker.server.cache.adopt(source.server.cache.peek(key))
        return f

    steady = _stream(models, cfg["steady_requests"], STEADY_RATE_RPS, args.seed,
                     STEADY_SLO_S, "poisson")
    ladder = [
        (rate, _stream(models, cfg["ladder_requests"], rate, args.seed, STEADY_SLO_S,
                       "poisson"))
        for rate in LADDER_RATES_RPS
    ]
    sim_tracer = Tracer() if args.trace else None

    replays = [("steady", STEADY_RATE_RPS, steady, sim_tracer)]
    replays += [(f"ladder@{rate:g}", rate, stream, None) for rate, stream in ladder]
    reports = {}
    for label, _rate, stream, sink in replays:
        with tr.span("serve.adopt"):
            f = warm(sink)

        def replay():
            with tr.span("serve.replay"):
                return fleet_replay(gpus, fleet=f, request_trace=stream, admission="shed")

        rep = run.timed(label, replay, work=len(stream))
        if rep is not None:
            run.report["evidence"][f"accounts/{label}"] = _accounts(rep)
            reports[label] = (rep, stream)

    fleet_plans(run, held_plans(template))
    sim = run.report["sim"]
    if "steady" in reports:
        sim.update(_fleet_sim(reports["steady"][0], boot))
    rungs = []
    for label, rate, stream, _ in replays[1:]:
        if label not in reports:
            continue
        rep = reports[label][0]
        span = stream[-1].t - stream[0].t
        # A growing backlog shows as a drain that outlasts the SLO.
        drained = rep.duration_s - span <= STEADY_SLO_S
        rungs.append({"rate": rate, "attainment": rep.attainment,
                      "ok": bool(rep.attainment >= ATTAINMENT_TARGET and drained)})
    sim["ladder"] = rungs
    sim["capacity_rps"] = capacity_from_ladder(rungs, ATTAINMENT_TARGET)
    if sim_tracer is not None:
        run.report["layers"]["serve.queue_wait_p99_ms"] = _queue_wait_p99_ms(sim_tracer)


def chaos_inputs(cfg: dict, seed: int, boot: int):
    """The seeded chaos scenario: request trace and fault plan.

    Faults are stratified rather than drawn from MTBF/MTTR, so every seed
    gets the same amount of chaos and only its timing moves: each boot
    worker crashes once (in its own quarter of the stream) and is throttled
    3x once (in the next quarter), and transient batch failures are spread
    evenly over the stream, round-robin over the boot workers.
    """
    from repro.serve import FaultEvent, FaultPlan

    stream = _stream(CHAOS_MODELS, cfg["chaos_requests"], CHAOS_RATE_RPS, seed,
                     CHAOS_SLO_S, "lognormal", tight=CHAOS_TIGHT, sigma=CHAOS_SIGMA)
    duration = float(stream[-1].t)
    slot = duration / (boot + 1)
    rng = np.random.default_rng([seed, 3])
    events = []
    for w in range(boot):
        down = (w + rng.uniform(0.25, 0.75)) * slot
        events.append(FaultEvent(t=down, worker=w, kind="crash"))
        events.append(FaultEvent(t=down + rng.uniform(0.75, 1.25) * duration / 20, worker=w,
                                 kind="recover"))
        slow = (w + 1 + rng.uniform(0.1, 0.4)) * slot
        events.append(FaultEvent(t=slow, worker=w, kind="slowdown", factor=3.0))
        events.append(FaultEvent(t=slow + rng.uniform(0.75, 1.25) * duration / 10, worker=w,
                                 kind="recover"))
    n = cfg["chaos_transients"]
    for i in range(n):
        events.append(FaultEvent(t=(i + rng.uniform()) * duration / n, worker=i % boot,
                                 kind="transient"))
    events.sort(key=lambda e: (e.t, e.worker))
    return stream, FaultPlan(tuple(events)), duration


def fleet_chaos(run: Run) -> None:
    from repro.core.dtypes import DType
    from repro.gpu.specs import GTX1660, RTX_A4000
    from repro.obs import Tracer
    from repro.serve import AutoscalePolicy, FakeClock, Fleet, RetryPolicy, fleet_replay

    args, tr, cfg = run.args, run.tracer, run.cfg
    gpus = [RTX_A4000, RTX_A4000, GTX1660]
    sim_tracer = Tracer() if args.trace else None
    clock = FakeClock()
    with tr.span("serve.fleet_init"):
        fleet = Fleet(gpus, clock=clock, sleep=clock.sleep, tracer=sim_tracer,
                      spill_factor=CHAOS_SPILL, max_delay_s=CHAOS_MAX_DELAY_S)
    with tr.span("serve.preplan"):
        fleet.preplan(CHAOS_MODELS, (DType.FP32, DType.INT8))
    run.setup_done()
    boot = [w.name for w in fleet.workers]

    stream, plan, duration = chaos_inputs(cfg, args.seed, len(gpus))
    retry = RetryPolicy(max_attempts=3, budget=0.1, hedge_delay_s=0.8 * CHAOS_SLO_S)
    scale = AutoscalePolicy(gpu=RTX_A4000, min_workers=len(gpus),
                            max_workers=CHAOS_MAX_WORKERS, cooldown_s=duration / 4)

    def replay():
        with tr.span("serve.replay"):
            return fleet_replay(gpus, fleet=fleet, request_trace=stream, admission="degrade",
                                faults=plan, retry=retry, autoscale=scale)

    held = held_plans(fleet)  # crashes clear the caches; the entries survive
    rep = run.timed("chaos", replay, work=len(stream))
    fleet_plans(run, held)
    if rep is None:
        return
    run.report["evidence"]["accounts/chaos"] = _accounts(rep)
    fs = rep.fault_stats
    sim = run.report["sim"]
    sim.update(_fleet_sim(rep, boot))
    sim["faults"] = {
        "crashes": fs.crashes, "slowdowns": fs.slowdowns, "transients": fs.transients,
        "retries": fs.retries, "requeues": fs.requeues, "budget_denied": fs.budget_denied,
        "hedges": fs.hedges, "hedges_won": fs.hedges_won, "lost": fs.lost,
        "breaker_trips": fs.breaker_trips,
    }
    if sim_tracer is not None:
        run.report["layers"]["serve.queue_wait_p99_ms"] = _queue_wait_p99_ms(sim_tracer)


# ---- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0,
                        help="which share of the workload this process runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(CONFIG), default="full")
    parser.add_argument("--trace-out", default=None,
                        help="Chrome-trace JSON path for the host spans (--trace 1)")
    parser.add_argument("--only-point", type=int, default=None,
                        help="paper-sweep: run only this index (mod the count) of the "
                        "part's points")
    args = parser.parse_args(argv)

    run = Run(args)
    body = {"paper-sweep": paper_sweep, "kernel-infer": kernel_infer,
            "fleet-steady": fleet_steady, "fleet-chaos": fleet_chaos}[args.workload]
    body(run)
    end = time.perf_counter()
    report = run.report
    report.update(
        workload=args.workload, seed=args.seed, part=args.part, trace=args.trace,
        ops=run.ops, failed=run.failed, errors=run.errors,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace and args.trace_out:
        from repro.obs import write_chrome_trace

        # The root span covers the whole process from before the imports;
        # whatever its layer spans leave uncovered is unattributed time.
        run.tracer.add_span("perfbench.process", T0, end)
        write_chrome_trace(run.tracer, args.trace_out)
        report["trace_file"] = args.trace_out
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
