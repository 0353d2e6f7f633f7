"""Observability suite: tracer, metrics, exporters, determinism, overhead.

Covers the acceptance criteria of the observability PR:

* **tracer/metrics** — nested spans timestamp from the injected clock
  (never wall time), attributes canonicalize, instruments validate names /
  label sets / bucket shapes, and the null sinks are inert;
* **exporters** — Chrome-trace JSON and Prometheus text are schema-valid
  and byte-stable for identical contents; histogram bucket boundaries
  survive a canonical JSON round trip;
* **determinism** — replaying the same stream twice (a one-worker fleet and
  an autoscaled fleet) produces *byte-identical* trace JSON and metrics text;
* **zero overhead** — with the default null sinks every report (stream,
  fleet, tuning DB) is field/byte-identical to an instrumented run, so
  observability can never perturb what it measures;
* **tooling** — `tools/trace_view.py` summarizes a real trace offline and
  the CLI `--trace-out/--metrics-out` flags write both artifacts.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import register_tiny_zoo
from repro.errors import PlanError
from repro.gpu.specs import GTX1660
from repro.obs import (
    BATCH_SIZE_BUCKETS,
    NULL_METRICS,
    NULL_TRACER,
    QUEUE_WAIT_BUCKETS_S,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Tracer,
    chrome_trace_json,
    prometheus_text,
    resolve_metrics,
    resolve_tracer,
    write_chrome_trace,
    write_prometheus,
)
from repro.serve import AutoscalePolicy, FakeClock, capacity_rps, fleet_replay

SEED = 7
TOOLS = Path(__file__).resolve().parent.parent / "tools"


# ---- tracer -----------------------------------------------------------------


class TestTracer:
    def test_span_reads_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer", model="m"):
            clock.t = 2.0
        (span,) = tracer.spans
        assert (span.start_s, span.end_s) == (0.0, 2.0)
        assert span.duration_s == 2.0
        assert span.attrs == (("model", "m"),)

    def test_nesting_depth_and_parent(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # children close (and record) first
        assert (outer.depth, outer.parent_seq) == (0, -1)
        assert (inner.depth, inner.parent_seq) == (1, outer.seq)

    def test_no_clock_stamps_zero_not_walltime(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.instant("i")
        assert (tracer.spans[0].start_s, tracer.spans[0].end_s) == (0.0, 0.0)
        assert tracer.instants[0].t_s == 0.0

    def test_span_closes_on_exception(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]
        assert tracer._stack == []

    def test_add_span_is_flat_and_clockless(self):
        tracer = Tracer()  # no clock needed: caller owns the timestamps
        tracer.add_span("busy", 1.0, 3.0, pid="RTX#0", tid=1, batch_seq=4)
        (span,) = tracer.spans
        assert (span.start_s, span.end_s, span.pid, span.tid) == (1.0, 3.0, "RTX#0", 1)
        assert (span.depth, span.parent_seq) == (0, -1)

    def test_attrs_canonicalized_sorted(self):
        tracer = Tracer()
        tracer.instant("i", t_s=0.5, zeta=1, alpha=2)
        assert tracer.instants[0].attrs == (("alpha", 2), ("zeta", 1))

    def test_null_tracer_inert(self):
        assert not NullTracer.enabled
        with NULL_TRACER.span("ignored", attr=1):
            pass
        NULL_TRACER.add_span("x", 0.0, 1.0)
        NULL_TRACER.instant("y")
        assert len(NULL_TRACER) == 0
        assert resolve_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer


# ---- metrics ----------------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", help="x")
        c.inc(worker="a")
        c.inc(2.0, worker="a")
        c.inc(worker="b")
        assert c.value(worker="a") == 3.0
        assert c.value(worker="b") == 1.0
        assert c.value(worker="absent") == 0.0

    def test_counter_rejects_negative(self):
        with pytest.raises(PlanError, match="negative"):
            MetricsRegistry().counter("repro_x_total").inc(-1.0)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("repro_workers")
        g.set(2)
        g.set(5)
        assert g.value() == 5.0

    def test_histogram_cumulative_buckets(self):
        h = MetricsRegistry().histogram("repro_wait", (1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        series = h.series[()]
        assert series.bucket_counts == [1, 2, 3]  # cumulative, +Inf == count
        assert series.count == 4
        assert series.sum == 555.5

    def test_histogram_validates_bounds(self):
        reg = MetricsRegistry()
        with pytest.raises(PlanError, match="at least one"):
            reg.histogram("repro_empty", ())
        with pytest.raises(PlanError, match="strictly increase"):
            reg.histogram("repro_bad", (1.0, 1.0))
        with pytest.raises(PlanError, match="non-finite"):
            reg.histogram("repro_inf", (1.0, float("inf")))

    def test_registry_get_or_create_and_shape_conflicts(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total")
        assert reg.counter("repro_x_total") is c
        with pytest.raises(PlanError, match="already registered"):
            reg.gauge("repro_x_total")
        reg.histogram("repro_h", (1.0, 2.0))
        with pytest.raises(PlanError, match="different buckets"):
            reg.histogram("repro_h", (1.0, 3.0))

    def test_names_and_labels_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(PlanError, match="invalid metric name"):
            reg.counter("bad-name")
        with pytest.raises(PlanError, match="invalid metric label"):
            reg.counter("repro_ok_total").inc(**{"bad-label": 1})

    def test_families_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("repro_z_total")
        reg.gauge("repro_a")
        assert [f.name for f in reg.families()] == ["repro_a", "repro_z_total"]

    def test_null_metrics_inert(self):
        assert not NullMetrics.enabled
        NULL_METRICS.counter("repro_x_total").inc(5.0, worker="a")
        NULL_METRICS.gauge("repro_g").set(1.0)
        NULL_METRICS.histogram("repro_h", (1.0,)).observe(0.5)
        assert NULL_METRICS.families() == []
        assert len(NULL_METRICS) == 0
        assert resolve_metrics(None) is NULL_METRICS
        reg = MetricsRegistry()
        assert resolve_metrics(reg) is reg


# ---- exporters --------------------------------------------------------------


def _demo_tracer() -> Tracer:
    clock = FakeClock()
    tracer = Tracer(clock, pid="RTX#0")
    with tracer.span("batch.execute", model="tiny", batch_size=2):
        clock.t = 1e-3
    tracer.add_span("worker.busy", 0.0, 1e-3, pid="RTX#1", tid=1)
    tracer.instant("fleet.route", t_s=5e-4, pid="RTX#0", seq=0)
    return tracer


class TestChromeTrace:
    def test_schema_valid(self):
        doc = json.loads(chrome_trace_json(_demo_tracer()))
        assert set(doc) == {"displayTimeUnit", "traceEvents"}
        events = doc["traceEvents"]
        for ev in events:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"RTX#0", "RTX#1"}
        xs = [e for e in events if e["ph"] == "X"]
        assert all({"ts", "dur", "cat", "args"} <= set(e) for e in xs)
        assert [e["name"] for e in xs] == ["batch.execute", "worker.busy"]
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["s"] == "p" and instant["ts"] == 500.0

    def test_events_time_ordered_and_byte_stable(self):
        a, b = chrome_trace_json(_demo_tracer()), chrome_trace_json(_demo_tracer())
        assert a == b
        events = json.loads(a)["traceEvents"]
        stamped = [e for e in events if "ts" in e]
        assert [e["ts"] for e in stamped] == sorted(e["ts"] for e in stamped)

    def test_non_json_attrs_stringified(self):
        tracer = Tracer()
        tracer.add_span("s", 0.0, 1.0, dtype=GTX1660)  # arbitrary object attr
        args = json.loads(chrome_trace_json(tracer))["traceEvents"][-1]["args"]
        assert args["dtype"] == str(GTX1660)

    def test_write_returns_path_with_trailing_newline(self, tmp_path):
        out = tmp_path / "trace.json"
        assert write_chrome_trace(_demo_tracer(), out) == str(out)
        text = out.read_text()
        assert text.endswith("\n") and json.loads(text)


class TestPrometheusText:
    def test_exposition_layout(self):
        reg = MetricsRegistry()
        reg.counter("repro_req_total", help="Requests").inc(3, worker="a")
        reg.histogram("repro_wait", (1.0, 10.0), help="Waits").observe(5.0)
        text = prometheus_text(reg)
        lines = text.splitlines()
        assert lines[0] == "# HELP repro_req_total Requests"
        assert 'repro_req_total{worker="a"} 3' in lines
        assert 'repro_wait_bucket{le="1"} 0' in lines
        assert 'repro_wait_bucket{le="10"} 1' in lines
        assert 'repro_wait_bucket{le="+Inf"} 1' in lines
        assert "repro_wait_sum 5" in lines
        assert "repro_wait_count 1" in lines
        assert text.endswith("\n")

    def test_series_sorted_and_byte_stable(self):
        def build():
            reg = MetricsRegistry()
            c = reg.counter("repro_x_total")
            c.inc(worker="b")
            c.inc(worker="a")
            return reg

        a, b = prometheus_text(build()), prometheus_text(build())
        assert a == b
        assert a.index('worker="a"') < a.index('worker="b"')

    def test_empty_registry_renders_empty(self, tmp_path):
        assert prometheus_text(MetricsRegistry()) == ""
        out = tmp_path / "m.txt"
        assert write_prometheus(MetricsRegistry(), out) == str(out)
        assert out.read_text() == ""

    @pytest.mark.parametrize("buckets", [QUEUE_WAIT_BUCKETS_S, BATCH_SIZE_BUCKETS])
    def test_bucket_bounds_survive_canonical_json_round_trip(self, buckets):
        # The fixed boundaries must re-parse to the exact same floats (and
        # hence the exact same `le` labels) after a canonical JSON round
        # trip — the format replay artifacts are stored in.
        round_tripped = json.loads(
            json.dumps(list(buckets), sort_keys=True, separators=(",", ":"))
        )
        assert tuple(round_tripped) == tuple(buckets)
        assert MetricsRegistry().histogram("repro_h", round_tripped).buckets == buckets


# ---- replay determinism -----------------------------------------------------


def _cold_memo():
    # Byte-identical acceptance compares two *process* invocations; the
    # planner's shared GeometryMemo would otherwise be warm on the second
    # in-process run and skew the memo hit/miss counters.
    from repro.planner.memo import shared_memo

    shared_memo().clear()


def _traced_replay():
    _cold_memo()
    tracer, metrics = Tracer(), MetricsRegistry()
    report = fleet_replay(
        [GTX1660], "tiny_a", n_requests=24, rate_rps=20000.0, max_batch=4,
        slo_s=5e-3, admission="shed", tracer=tracer, metrics=metrics,
    )
    return report, chrome_trace_json(tracer), prometheus_text(metrics)


def _traced_fleet_replay():
    _cold_memo()
    tracer, metrics = Tracer(), MetricsRegistry()
    cap = capacity_rps(GTX1660, "tiny_a", max_batch=4)
    report = fleet_replay(
        [GTX1660], ["tiny_a", "tiny_b"], n_requests=24, rate_rps=cap * 8,
        max_batch=4, arrival="lognormal", seed=SEED,
        autoscale=AutoscalePolicy(
            min_workers=1, max_workers=3, grow_backlog_s=2e-5,
            shrink_backlog_s=1e-6,
        ),
        tracer=tracer, metrics=metrics,
    )
    return report, chrome_trace_json(tracer), prometheus_text(metrics)


@pytest.fixture
def tiny_zoo(monkeypatch):
    register_tiny_zoo(monkeypatch)


class TestReplayDeterminism:
    def test_replay_twice_byte_identical(self, tiny_zoo):
        _, trace_a, metrics_a = _traced_replay()
        _, trace_b, metrics_b = _traced_replay()
        assert trace_a == trace_b
        assert metrics_a == metrics_b

    def test_autoscaled_fleet_replay_twice_byte_identical(self, tiny_zoo):
        report_a, trace_a, metrics_a = _traced_fleet_replay()
        report_b, trace_b, metrics_b = _traced_fleet_replay()
        assert trace_a == trace_b
        assert metrics_a == metrics_b
        assert report_a.scale_events  # the autoscaler actually acted

    def test_fleet_trace_covers_the_whole_stack(self, tiny_zoo):
        _, trace, metrics_text = _traced_fleet_replay()
        events = json.loads(trace)["traceEvents"]
        names = {e["name"] for e in events}
        # Execution, occupancy and request lanes plus routing/scaling
        # instants: the span taxonomy the README documents.
        assert {"batch.execute", "worker.busy", "request.wait",
                "fleet.route", "server.enqueue", "planner.plan"} <= names
        assert any(n.startswith("autoscale.") for n in names)
        for ev in events:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
        for family in ("repro_requests_total", "repro_batches_total",
                       "repro_queue_wait_seconds_bucket", "repro_plans_total",
                       "repro_scale_events_total", "repro_fleet_workers"):
            assert family in metrics_text


# ---- zero overhead ----------------------------------------------------------


class TestZeroOverhead:
    def test_replay_report_unperturbed_by_tracing(self, tiny_zoo):
        kwargs = dict(n_requests=24, rate_rps=20000.0, max_batch=4)
        plain = fleet_replay([GTX1660], "tiny_a", **kwargs)
        traced = fleet_replay(
            [GTX1660], "tiny_a", tracer=Tracer(), metrics=MetricsRegistry(),
            **kwargs,
        )
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain)

    def test_fleet_report_unperturbed_by_tracing(self, tiny_zoo):
        cap = capacity_rps(GTX1660, "tiny_a", max_batch=4)
        kwargs = dict(
            n_requests=24, rate_rps=cap * 8, max_batch=4, arrival="lognormal",
            seed=SEED,
            autoscale=AutoscalePolicy(
                min_workers=1, max_workers=3, grow_backlog_s=2e-5,
                shrink_backlog_s=1e-6,
            ),
        )
        plain = fleet_replay([GTX1660], ["tiny_a", "tiny_b"], **kwargs)
        traced = fleet_replay(
            [GTX1660], ["tiny_a", "tiny_b"], tracer=Tracer(),
            metrics=MetricsRegistry(), **kwargs,
        )
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain)

    def test_tuning_db_bytes_unperturbed_by_tracing(self, tiny_zoo):
        from repro.core.dtypes import DType
        from repro.tune.measure import measure_model
        from repro.tune.records import TuningDB

        def run(**sinks):
            db = TuningDB()
            measure_model("tiny_a", GTX1660, DType.FP32, db=db, iterations=4,
                          **sinks)
            return db.dumps()

        metrics = MetricsRegistry()
        assert run() == run(tracer=Tracer(), metrics=metrics)
        assert metrics.counter("repro_tune_candidates_total").value(
            model="tiny_a", gpu=GTX1660.name
        ) > 0

    def test_reused_server_keeps_its_own_sinks(self, tiny_zoo):
        from repro.serve import Fleet

        tracer = Tracer()
        clock = FakeClock()
        fleet = Fleet(
            [GTX1660], max_batch=4, clock=clock, sleep=clock.sleep, tracer=tracer
        )
        fleet_replay([GTX1660], "tiny_a", n_requests=8, rate_rps=20000.0, fleet=fleet)
        assert any(s.name == "batch.execute" for s in tracer.spans)


# ---- tooling ----------------------------------------------------------------


class TestTraceView:
    def test_summarizes_fleet_trace(self, tiny_zoo, tmp_path):
        _, trace, _ = _traced_fleet_replay()
        path = tmp_path / "TRACE_test.json"
        path.write_text(trace + "\n")
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "trace_view.py"), str(path)],
            capture_output=True, text=True, check=True,
        )
        out = proc.stdout
        assert "top" in out and "self time" in out
        assert "per-worker device occupancy" in out
        assert "queue wait" in out
        assert "GTX#0" in out

    def test_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "trace_view.py"), str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0


class TestCliExport:
    def test_serve_writes_both_artifacts(self, tiny_zoo, tmp_path, capsys):
        from repro.cli import main

        trace_out = tmp_path / "TRACE_cli.json"
        metrics_out = tmp_path / "METRICS_cli.txt"
        rc = main([
            "serve", "tiny_a", "--gpu", "GTX", "--requests", "8",
            "--rate", "20000", "--max-batch", "4",
            "--trace-out", str(trace_out), "--metrics-out", str(metrics_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "metrics:" in out
        doc = json.loads(trace_out.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert "repro_requests_total" in metrics_out.read_text()
