"""Serving subsystem tests: plan cache, batched execution, micro-batching.

Registers tiny synthetic models into the zoo so planning stays subsecond;
the full-size acceptance sweep lives in benchmarks/bench_serving_throughput.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import register_tiny_zoo, tiny_model_builder

from repro.core.dtypes import DType
from repro.errors import PlanError, ShapeError
from repro.gpu.specs import GTX1660
from repro.planner.planner import FusePlanner
from repro.runtime.network_params import materialize_network
from repro.runtime.session import InferenceSession
from repro.serve import FakeClock, ModelServer, PlanCache, fleet_replay


@pytest.fixture(autouse=True)
def tiny_zoo(monkeypatch):
    """Register fast-to-plan models the cache/server tests serve."""
    register_tiny_zoo(monkeypatch)


def _toy_session(dtype=DType.FP32):
    g = tiny_model_builder("toy", 16)(dtype)
    net = materialize_network(g, dtype)
    plan = FusePlanner(GTX1660).plan(g)
    return InferenceSession(g, plan, net)


def _server(**kw) -> ModelServer:
    clock = FakeClock()
    kw.setdefault("clock", clock)
    kw.setdefault("sleep", clock.sleep)
    srv = ModelServer(GTX1660, **kw)
    srv.test_clock = clock  # convenience handle for tests
    return srv


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache(capacity=4)
        a1 = cache.get("tiny_a", DType.FP32, GTX1660)
        a2 = cache.get("tiny_a", DType.FP32, GTX1660)
        assert a1 is a2
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.stats.planner_invocations == 1
        cache.get("tiny_a", DType.INT8, GTX1660)  # dtype is part of the key
        assert cache.stats.misses == 2
        assert cache.stats.planner_invocations == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.get("tiny_a", DType.FP32, GTX1660)
        cache.get("tiny_b", DType.FP32, GTX1660)
        cache.get("tiny_a", DType.FP32, GTX1660)  # refresh a's recency
        cache.get("tiny_c", DType.FP32, GTX1660)  # evicts b, not a
        models = [k.model for k in cache.keys()]
        assert models == ["tiny_a", "tiny_c"]
        assert cache.stats.evictions == 1
        cache.get("tiny_b", DType.FP32, GTX1660)  # re-planned after eviction
        assert cache.stats.planner_invocations == 4

    def test_capacity_validated(self):
        with pytest.raises(PlanError):
            PlanCache(capacity=0)

    def test_32_requests_plan_once(self):
        """Acceptance: serving N=32 requests invokes FusePlanner exactly once."""
        srv = _server(max_batch=8)
        for _ in range(32):
            srv.enqueue("tiny_a")
        results = srv.serve_forever()
        assert len(results) == 32
        assert srv.cache.stats.planner_invocations == 1
        assert srv.stats.batches == 4 and srv.stats.images_served == 32


class TestBatchedExecution:
    @pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
    def test_batched_equals_sequential(self, dtype, rng):
        sess = _toy_session(dtype)
        x = (
            rng.integers(-128, 128, (3, 3, 32, 32)).astype(np.int8)
            if dtype is DType.INT8
            else rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
        )
        batched = sess.run_batch(x)
        assert batched.batch_size == 3 and batched.output.shape[0] == 3
        for i in range(3):
            np.testing.assert_array_equal(batched.output[i], sess.run(x[i]).output)

    def test_batched_accounting(self, rng):
        sess = _toy_session()
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        per_image = sess.run(x[0])
        batched = sess.run_batch(x)
        # One launch per step regardless of batch; GMA scales with the batch.
        assert batched.kernel_launches == per_image.kernel_launches
        assert batched.total_gma_bytes == 4 * per_image.total_gma_bytes
        # Launch overhead + weight re-stream amortization: the batch runs
        # strictly faster and cheaper per image than four sequential passes.
        assert batched.latency_per_image_s < per_image.latency_s
        assert batched.energy_per_image_j < per_image.energy_j

    def test_analytic_matches_functional_batched(self, rng):
        sess = _toy_session()
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        functional = sess.run_batch(x)
        analytic = sess.run_analytic_batch(4)
        assert functional.total_gma_bytes == analytic.total_gma_bytes
        assert functional.kernel_launches == analytic.kernel_launches
        assert functional.latency_s == pytest.approx(analytic.latency_s, rel=1e-6)

    def test_batch_one_reduces_to_single_image(self):
        sess = _toy_session()
        single = sess.run_analytic()
        b1 = sess.run_analytic_batch(1)
        assert b1.total_gma_bytes == single.total_gma_bytes
        assert b1.latency_s == pytest.approx(single.latency_s, rel=1e-12)

    def test_throughput_strictly_improves(self):
        sess = _toy_session()
        tp = [sess.run_analytic_batch(b).throughput_img_s for b in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(tp, tp[1:])), tp

    def test_run_batch_rejects_unbatched_input(self, rng):
        sess = _toy_session()
        with pytest.raises(ShapeError):
            sess.run_batch(rng.standard_normal((3, 32, 32)).astype(np.float32))


class TestMicroBatching:
    def test_deadline_flushes_partial_batch(self):
        srv = _server(max_batch=8, max_delay_s=0.01)
        for _ in range(3):
            srv.enqueue("tiny_a")
        assert srv.step() == []  # neither full nor past deadline
        srv.test_clock.advance(0.011)
        results = srv.step()
        assert len(results) == 3
        assert {r.batch_seq for r in results} == {results[0].batch_seq}
        assert all(r.batch_size == 3 for r in results)
        assert all(r.wait_s >= 0.01 for r in results)

    def test_flush_exactly_at_deadline(self):
        # Regression: a clock pinned to next_deadline() must flush even when
        # float rounding makes (enqueued + delay) - enqueued < delay.
        srv = _server(max_batch=8, max_delay_s=2e-3)
        srv.test_clock.t = 0.02327244060848874
        srv.enqueue("tiny_a")
        srv.test_clock.t = srv.next_deadline()
        assert len(srv.step()) == 1

    def test_full_batches_flush_immediately(self):
        srv = _server(max_batch=4, max_delay_s=10.0)
        for _ in range(8):
            srv.enqueue("tiny_a")
        results = srv.step()  # no clock movement needed: two full batches
        assert len(results) == 8
        assert sorted({r.batch_seq for r in results}) == [0, 1]
        assert all(r.batch_size == 4 for r in results)

    def test_models_never_share_a_batch(self):
        srv = _server(max_batch=8)
        srv.enqueue("tiny_a"), srv.enqueue("tiny_b"), srv.enqueue("tiny_a")
        results = srv.step(force=True)
        by_model = {r.model: r.batch_seq for r in results}
        assert by_model["tiny_a"] != by_model["tiny_b"]
        assert sum(r.model == "tiny_a" for r in results) == 2

    def test_serve_forever_drains_via_deadline(self):
        srv = _server(max_batch=8, max_delay_s=0.005)
        for _ in range(5):
            srv.enqueue("tiny_a")
        results = srv.serve_forever()  # FakeClock sleep ages the batch out
        assert len(results) == 5 and srv.pending() == 0

    def test_functional_queue_returns_outputs(self, rng):
        srv = _server(max_batch=2, max_delay_s=10.0)
        xs = [rng.standard_normal((3, 32, 32)).astype(np.float32) for _ in range(2)]
        ids = [srv.enqueue("tiny_a", x) for x in xs]
        results = {r.request_id: r for r in srv.step()}
        want = srv.submit("tiny_a", np.stack(xs))
        for i, rid in enumerate(ids):
            np.testing.assert_array_equal(results[rid].output, want.output[i])

    def test_submit_single_image(self, rng):
        srv = _server()
        rep = srv.submit("tiny_a", rng.standard_normal((3, 32, 32)).astype(np.float32))
        assert rep.batch_size == 1 and rep.output.shape[0] == 1

    def test_mixed_batch_returns_real_outputs(self, rng):
        """Regression: an analytic placeholder in the queue must not demote
        real-tensor requests to output=None — the flush partitions by kind."""
        srv = _server(max_batch=8)
        xs = [rng.standard_normal((3, 32, 32)).astype(np.float32) for _ in range(2)]
        rid_real0 = srv.enqueue("tiny_a", xs[0])
        rid_analytic = srv.enqueue("tiny_a")
        rid_real1 = srv.enqueue("tiny_a", xs[1])
        results = {r.request_id: r for r in srv.step(force=True)}
        assert len(results) == 3
        # Interleaved kinds split into three homogeneous micro-batches.
        assert len({r.batch_seq for r in results.values()}) == 3
        assert results[rid_analytic].output is None
        # Real outputs must match the synchronous batched path exactly.
        ref = srv.submit("tiny_a", np.stack(xs))
        np.testing.assert_array_equal(results[rid_real0].output, ref.output[0])
        np.testing.assert_array_equal(results[rid_real1].output, ref.output[1])

    def test_mixed_batch_preserves_contiguous_runs(self, rng):
        """Contiguous same-kind requests stay in one micro-batch: the split
        is per run, not per request."""
        srv = _server(max_batch=8)
        xs = [rng.standard_normal((3, 32, 32)).astype(np.float32) for _ in range(2)]
        real_ids = [srv.enqueue("tiny_a", x) for x in xs]
        analytic_ids = [srv.enqueue("tiny_a") for _ in range(3)]
        results = {r.request_id: r for r in srv.step(force=True)}
        real_seqs = {results[i].batch_seq for i in real_ids}
        analytic_seqs = {results[i].batch_seq for i in analytic_ids}
        assert len(real_seqs) == 1 and len(analytic_seqs) == 1
        assert real_seqs != analytic_seqs
        assert all(results[i].batch_size == 2 for i in real_ids)
        assert all(results[i].batch_size == 3 for i in analytic_ids)
        assert all(results[i].output is not None for i in real_ids)


class TestServeForeverCap:
    def test_max_batches_one_is_exact(self):
        """Regression: max_batches=1 must flush exactly one micro-batch even
        when several full batches are already due."""
        srv = _server(max_batch=4)
        for _ in range(12):
            srv.enqueue("tiny_a")
        results = srv.serve_forever(max_batches=1)
        assert len(results) == 4
        assert {r.batch_seq for r in results} == {results[0].batch_seq}
        assert srv.stats.batches == 1 and srv.pending() == 8

    def test_max_batches_all_but_one(self):
        """Regression: stopping one short of the drain leaves exactly one
        batch's worth of requests queued (N = batches - 1 boundary)."""
        srv = _server(max_batch=4)
        for _ in range(12):  # 3 full batches
            srv.enqueue("tiny_a")
        results = srv.serve_forever(max_batches=2)
        assert len(results) == 8 and srv.stats.batches == 2
        assert srv.pending() == 4
        rest = srv.serve_forever()  # no cap: drains the remainder
        assert len(rest) == 4 and srv.pending() == 0
        assert srv.stats.batches == 3

    def test_max_batches_cap_spans_models(self):
        """The cap is global across per-model queues, not per queue."""
        srv = _server(max_batch=2)
        for _ in range(2):
            srv.enqueue("tiny_a")
        for _ in range(2):
            srv.enqueue("tiny_b")
        results = srv.serve_forever(max_batches=1)
        assert len(results) == 2
        assert {r.model for r in results} == {"tiny_a"}
        assert srv.pending() == 2

    def test_max_batches_validated(self):
        srv = _server()
        srv.enqueue("tiny_a")
        with pytest.raises(PlanError):
            srv.serve_forever(max_batches=0)


class TestReplay:
    def test_replay_saturates_batches(self):
        report = fleet_replay(
            [GTX1660], "tiny_a", n_requests=32, rate_rps=1e7, max_batch=8
        )
        assert report.planner_invocations == 1
        assert report.mean_batch == pytest.approx(8.0)
        assert report.latency_p99_s >= report.latency_p50_s > 0
        assert report.throughput_img_s > 0

    def test_overload_latency_reflects_backlog(self):
        # All requests arrive at once; a deeper backlog must surface as a
        # worse latency tail (device-busy wait counts toward latency).
        kw = dict(rate_rps=1e9, max_batch=8)
        shallow = fleet_replay([GTX1660], "tiny_a", n_requests=8, **kw)
        deep = fleet_replay([GTX1660], "tiny_a", n_requests=64, **kw)
        assert deep.latency_p99_s > 2 * shallow.latency_p99_s

    def test_slow_arrivals_flush_by_deadline(self):
        # At 10 req/s every request ages out alone: batches of 1.
        report = fleet_replay(
            [GTX1660], "tiny_a", n_requests=4, rate_rps=10.0,
            max_batch=8, max_delay_s=1e-3,
        )
        assert report.mean_batch == pytest.approx(1.0)
        assert report.n_requests == 4

    def test_p99_nearest_rank_on_small_stream(self):
        """Regression: p99 on a 10-sample stream must be the worst observed
        latency (nearest-rank-above), not an optimistic interpolation below
        it."""
        # Burst arrivals with max_batch=1 serialize on the device, so the 10
        # latencies form a strictly increasing staircase — distinct samples.
        report = fleet_replay(
            [GTX1660], "tiny_a", n_requests=10, rate_rps=1e9, max_batch=1
        )
        latencies = report.latencies_s
        assert len(latencies) == 10
        assert len(set(latencies)) == 10
        assert report.latency_p99_s == latencies[-1]
        # Linear interpolation would have under-reported the tail.
        assert float(np.percentile(latencies, 99)) < report.latency_p99_s
        # p50 follows the same convention: an observed sample, rank above.
        assert report.latency_p50_s == latencies[5]

    def test_percentile_helper_convention(self):
        from repro.serve import percentile

        samples = [1.0, 2.0, 3.0, 4.0]
        # "higher" rounds the interpolated rank up to an observed sample.
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 99) == 4.0
        assert percentile([7.0], 99) == 7.0
