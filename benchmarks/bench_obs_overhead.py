"""Observability overhead: replay with null sinks vs live tracer+metrics.

Not a paper artifact — this is the zero-overhead acceptance gate for the
obs layer (`repro.obs`).  One request stream replays twice: once with the
default ``NullTracer``/``NullMetrics`` (the hot path every other benchmark
and test exercises) and once with a live ``Tracer`` + ``MetricsRegistry``
exporting Chrome-trace JSON and Prometheus text.  The two
``FleetStreamReport`` results of the one-worker ``fleet_replay`` must be
*identical* (instrumentation may observe, never perturb), and enabled
tracing must stay within a generous constant factor of the uninstrumented
run.
"""

import dataclasses
import time

from repro.gpu.specs import RTX_A4000
from repro.obs import MetricsRegistry, Tracer, chrome_trace_json, prometheus_text
from repro.serve import fleet_replay

#: enabled-tracing budget: a replay records a few hundred spans; anything
#: past this factor (plus absolute slack for timer noise on a ~10ms run)
#: means an emission crept onto the per-request hot path un-guarded.
MAX_OVERHEAD_RATIO = 5.0
SLACK_S = 0.05


def _replay(n_requests, tracer=None, metrics=None):
    return fleet_replay(
        [RTX_A4000], "mobilenet_v2", n_requests=n_requests, rate_rps=5000.0,
        tracer=tracer, metrics=metrics,
    )


def _best_of(fn, rounds):
    best, result = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def test_obs_overhead(benchmark, once, smoke, capsys):
    n_requests = 64 if smoke else 256
    rounds = 3 if smoke else 5

    base_s, base_report = _best_of(lambda: _replay(n_requests), rounds)

    def traced():
        tracer, metrics = Tracer(), MetricsRegistry()
        report = _replay(n_requests, tracer=tracer, metrics=metrics)
        return report, chrome_trace_json(tracer), prometheus_text(metrics)

    obs_s, (obs_report, trace_json, metrics_text) = _best_of(traced, rounds)
    once(benchmark, traced)

    ratio = obs_s / base_s
    benchmark.extra_info["baseline_s"] = base_s
    benchmark.extra_info["traced_s"] = obs_s
    benchmark.extra_info["overhead_ratio"] = ratio

    with capsys.disabled():
        print(f"\n[Obs] replay x{n_requests} requests: "
              f"null sinks {base_s * 1e3:.1f} ms, "
              f"traced+exported {obs_s * 1e3:.1f} ms "
              f"({ratio:.2f}x, {len(trace_json)} trace bytes, "
              f"{len(metrics_text)} metrics bytes)")

    # Instrumentation observes, never perturbs: every report field (incl.
    # the full latency vector) must match the uninstrumented replay.
    assert dataclasses.asdict(obs_report) == dataclasses.asdict(base_report)
    # And both exporters actually captured the stream.
    assert trace_json.count('"ph":"X"') > n_requests  # waits + batches + steps
    assert "repro_requests_total" in metrics_text
    assert obs_s <= MAX_OVERHEAD_RATIO * base_s + SLACK_S, (
        f"tracing overhead {ratio:.2f}x exceeds {MAX_OVERHEAD_RATIO}x budget"
    )
