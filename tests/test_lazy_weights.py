"""Weights stay off the analytic path.

Pricing a plan reads shapes, dtypes and GPU characteristics, never a weight,
so a session built without explicit parameters materializes them only when a
functional walk first reads ``params``.  These tests gate that contract with
a deterministic counter (calls to ``make_layer_params``), check that the
lazily materialized network is the eager one, and check that a report's
aggregates are the plain left-to-right sums of its records.
"""

from __future__ import annotations

import pytest

from helpers import TINY_ZOO, register_tiny_zoo
from repro.baselines.tvm import TvmCompiler
from repro.core.dtypes import DType
from repro.errors import PlanError
from repro.experiments.fig10_fig11 import end_to_end_point
from repro.gpu.specs import GTX1660, RTX_A4000
from repro.models.zoo import build_model
from repro.planner.planner import FusePlanner
from repro.runtime import network_params
from repro.runtime.network_params import materialize_network
from repro.runtime.session import InferenceSession, TvmSession, seeded_input
from repro.serve.cache import PlanCache
from repro.serve.fleet import Fleet
from repro.serve.loadgen import FakeClock, fleet_replay


@pytest.fixture
def layer_params_calls(monkeypatch):
    """Count every per-layer weight materialization in this test."""
    calls: list[str] = []
    real = network_params.make_layer_params

    def counted(spec, *args, **kwargs):
        calls.append(spec.name)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(network_params, "make_layer_params", counted)
    return calls


class TestMaterializationCounter:
    def test_paper_point_materializes_nothing(self, layer_params_calls):
        end_to_end_point("mobilenet_v1", RTX_A4000, DType.FP32)
        assert layer_params_calls == []

    def test_preplanned_analytic_replay_materializes_nothing(
        self, monkeypatch, layer_params_calls
    ):
        register_tiny_zoo(monkeypatch)
        models = [name for name, _ in TINY_ZOO]
        gpus = [GTX1660, RTX_A4000]
        clock = FakeClock()
        fleet = Fleet(gpus, clock=clock, sleep=clock.sleep)
        fleet.preplan(models, (DType.FP32, DType.INT8))
        report = fleet_replay(gpus, models, 48, 4000.0, fleet=fleet)
        assert len(report.latencies_s) == 48
        assert layer_params_calls == []

    def test_first_functional_run_materializes_each_conv_once(
        self, monkeypatch, layer_params_calls
    ):
        register_tiny_zoo(monkeypatch)
        model = TINY_ZOO[0][0]
        entry = PlanCache().get(model, DType.INT8, GTX1660)
        entry.analytic_report(4)
        assert layer_params_calls == []
        x = seeded_input(entry.graph, DType.INT8, batch=2)
        entry.session.run_batch(x)
        convs = [spec.name for spec in entry.graph.conv_layers()]
        assert sorted(layer_params_calls) == sorted(convs)
        entry.session.run_batch(x)
        assert len(layer_params_calls) == len(convs)
        assert entry.params is entry.session.params


@pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
def test_lazy_params_equal_eager(dtype):
    """A ``params=None`` session runs exactly the network its seed names."""
    seed = 3
    graph = build_model("mobilenet_v1", dtype)
    plan = FusePlanner(RTX_A4000).plan(graph)
    tvm_plan = TvmCompiler(RTX_A4000).compile(graph, dtype)
    net = materialize_network(graph, dtype, seed)
    x = seeded_input(graph, dtype)
    for lazy, eager in [
        (InferenceSession(graph, plan, seed=seed), InferenceSession(graph, plan, net)),
        (TvmSession(graph, tvm_plan, seed=seed), TvmSession(graph, tvm_plan, net)),
    ]:
        got, want = lazy.run(x), eager.run(x)
        assert got.output.tobytes() == want.output.tobytes()
        assert got.records == want.records


def test_wrong_dtype_params_rejected_at_construction():
    graph = build_model("mobilenet_v1", DType.FP32)
    plan = FusePlanner(RTX_A4000).plan(graph)
    with pytest.raises(PlanError):
        InferenceSession(graph, plan, materialize_network(graph, DType.INT8))


def _assert_aggregates(report):
    assert isinstance(report.records, tuple)
    assert report.latency_s == sum(r.time_s for r in report.records)
    assert report.energy_j == sum(r.energy_j for r in report.records)
    assert report.total_gma_bytes == sum(
        r.counters.total_bytes for r in report.records
    )
    assert report.kernel_launches == sum(
        r.counters.kernel_launches for r in report.records
    )


@pytest.mark.parametrize("dtype", [DType.FP32, DType.INT8])
def test_report_aggregates_are_sums_of_records(monkeypatch, dtype):
    register_tiny_zoo(monkeypatch)
    graph = build_model(TINY_ZOO[1][0], dtype)
    session = InferenceSession(graph, FusePlanner(GTX1660).plan(graph))
    tvm = TvmSession(graph, TvmCompiler(GTX1660).compile(graph, dtype))
    for report in [
        session.run(seeded_input(graph, dtype)),
        session.run_batch(seeded_input(graph, dtype, batch=3)),
        session.run_analytic_batch(4),
        tvm.run_analytic(),
    ]:
        _assert_aggregates(report)
