"""End-to-end inference sessions: ours (FCM + LBL plan) and the TVM baseline.

Both sessions execute the *same* network parameters
(:mod:`repro.runtime.network_params`), so outputs are comparable numerically;
they differ exactly where the paper's systems differ:

* ours runs FusePlanner's plan — fused FCM kernels where suggested, tuned
  LBL kernels elsewhere, shared cuDNN-modelled kernels for standard convs,
  and pays for residual-add glue;
* the TVM session runs every conv through its tuned cuDNN-backend algorithm
  and gets residual adds for free (injective fusion).

:class:`InferenceSession` has one functional walk, :meth:`~InferenceSession.
run_batch` (real tensors through the simulated kernels), and one analytic
walk, :meth:`~InferenceSession.run_analytic_batch` (counters only, byte-
identical totals via the measured-convention estimators), which prices every
step through :func:`price_step`.  A single image is a batch of one: ``run``
and ``run_analytic`` delegate to the batched walks.

Analytic walks never read a weight.  A session built with ``params=None``
therefore holds its weights on first functional use: the first read of
``params`` materializes them from ``(graph, dtype, seed)`` and keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..baselines.cudnn import (
    CudnnAlgo,
    cudnn_batched,
    cudnn_counters,
    cudnn_timing,
    run_cudnn,
)
from ..baselines.tvm import TvmConvStep, TvmPlan
from ..core.dtypes import DType
from ..errors import PlanError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.energy import energy_of
from ..gpu.fastpath import DEFAULT_ENGINE, resolve_engine
from ..gpu.roofline import KernelTiming, time_kernel
from ..gpu.specs import GpuSpec
from ..ir.graph import ModelGraph
from ..kernels.registry import build_chain_kernel, build_lbl_kernel
from ..planner.analytic import chain_counters, lbl_counters
from ..planner.plan import (
    ChainStep,
    ExecutionPlan,
    GlueStep,
    LblStep,
    PlanStep,
    StdStep,
)
from .glue import apply_glue, glue_counters
from .network_params import NetworkParams, materialize_network

__all__ = [
    "StepRecord",
    "SessionReport",
    "InferenceSession",
    "TvmSession",
    "build_session",
    "price_step",
    "seeded_input",
]

#: cuDNN efficiency knobs applied to standard-conv steps in *both* runtimes.
_STD_ALGO = CudnnAlgo.IMPLICIT_PRECOMP_GEMM


@dataclass(frozen=True)
class StepRecord:
    """Per-step accounting: traffic, time, energy, boundedness."""

    name: str
    kind: str  # 'fcm' | 'lbl' | 'std' | 'glue' | 'tvm-conv'
    counters: AccessCounters
    time_s: float
    energy_j: float
    bound: str


@dataclass
class SessionReport:
    """Aggregated result of one end-to-end inference (optionally batched).

    ``batch_size > 1`` means every record describes a *batched* launch — one
    kernel covering the whole batch — and ``output`` carries a leading batch
    dimension.  ``latency_s`` is then the batch's wall time; the per-image
    views (:attr:`throughput_img_s`, :attr:`energy_per_image_j`) are what the
    serving layer reports.  ``records`` is a tuple, so the aggregates are
    summed once, on first read.
    """

    model_name: str
    gpu: GpuSpec
    dtype: DType
    records: tuple[StepRecord, ...] = ()
    output: np.ndarray | None = None
    batch_size: int = 1

    @cached_property
    def latency_s(self) -> float:
        return sum(r.time_s for r in self.records)

    @property
    def latency_per_image_s(self) -> float:
        return self.latency_s / self.batch_size

    @property
    def throughput_img_s(self) -> float:
        """Images per second at this batch size (batch wall time amortized)."""
        return self.batch_size / self.latency_s

    @property
    def energy_per_image_j(self) -> float:
        return self.energy_j / self.batch_size

    @cached_property
    def energy_j(self) -> float:
        return sum(r.energy_j for r in self.records)

    @cached_property
    def total_gma_bytes(self) -> int:
        return sum(r.counters.total_bytes for r in self.records)

    @cached_property
    def kernel_launches(self) -> int:
        return sum(r.counters.kernel_launches for r in self.records)

    def describe(self) -> str:
        batch = f" batch={self.batch_size}" if self.batch_size > 1 else ""
        return (
            f"{self.model_name} on {self.gpu.name} ({self.dtype}{batch}): "
            f"{self.latency_s * 1e3:.3f} ms, {self.energy_j * 1e3:.3f} mJ, "
            f"{self.total_gma_bytes / 1e6:.2f} MB GMA, "
            f"{self.kernel_launches} kernel launches"
        )


def _record(
    name: str,
    kind: str,
    counters: AccessCounters,
    gpu: GpuSpec,
    dtype: DType,
    timing: KernelTiming | None = None,
) -> StepRecord:
    t = timing if timing is not None else time_kernel(counters, gpu, dtype)
    e = energy_of(counters, t, gpu, dtype)
    return StepRecord(
        name=name, kind=kind, counters=counters, time_s=t.t_total_s,
        energy_j=e.total_j, bound=t.bound,
    )


def price_step(
    step: PlanStep, gpu: GpuSpec, dtype: DType, batch_size: int
) -> StepRecord:
    """Counters-only record of one plan step launched over ``batch_size`` images.

    The one analytic step pricer: :meth:`InferenceSession.run_analytic_batch`
    (hence :meth:`~InferenceSession.run_analytic`), the functional walk's
    standard-conv and glue records and the tuner's measured step cost all
    come from here.  DW/PW steps use the measured-convention counter
    builders, which the functional kernels match byte for byte.
    """
    if isinstance(step, ChainStep):
        counters = chain_counters(step.specs, step.tiling, step.fcm_type).batched(
            batch_size, sum(sp.weights_bytes for sp in step.specs)
        )
        return _record("+".join(step.layer_names), "fcm", counters, gpu, dtype)
    if isinstance(step, LblStep):
        counters = lbl_counters(step.spec, step.tiling).batched(
            batch_size, step.spec.weights_bytes
        )
        return _record(step.spec.name, "lbl", counters, gpu, dtype)
    if isinstance(step, StdStep):
        counters, timing = cudnn_batched(step.spec, _STD_ALGO, gpu, batch_size)
        return _record(step.spec.name, "std", counters, gpu, dtype, timing)
    if isinstance(step, GlueStep):
        counters = glue_counters(step.spec, dtype).batched(batch_size)
        return _record(step.spec.name, "glue", counters, gpu, dtype)
    raise PlanError(f"unknown plan step {step!r}")  # pragma: no cover - exhaustive


class _Session:
    """What both sessions share: a plan over a graph, and the network's
    weights, given or materialized on first read of :attr:`params`."""

    def __init__(
        self,
        graph: ModelGraph,
        plan: ExecutionPlan | TvmPlan,
        params: NetworkParams | None = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.gpu = plan.gpu
        self.dtype = plan.dtype
        self._params = params
        self._seed = seed

    @property
    def params(self) -> NetworkParams:
        """The network's weights; only the functional walks read them."""
        if self._params is None:
            self._params = materialize_network(self.graph, self.dtype, self._seed)
        return self._params


class InferenceSession(_Session):
    """Execute a FusePlanner :class:`ExecutionPlan` end to end.

    ``engine`` selects how DW/PW simulated kernels execute: ``"fast"``
    (default) runs each grid as one vectorized pass with bulk counter
    accounting, ``"reference"`` interprets block by block.  Reports are
    identical down to the counters; only wall-clock differs.  Per-call
    ``engine=`` arguments override the session default.
    """

    def __init__(
        self,
        graph: ModelGraph,
        plan: ExecutionPlan,
        params: NetworkParams | None = None,
        seed: int = 0,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        super().__init__(graph, plan, params, seed)
        self.engine = resolve_engine(engine)
        if params is not None and params.dtype is not plan.dtype:
            raise PlanError("network params precision differs from the plan's")

    # ---- functional execution -------------------------------------------------
    def run(self, input_array: np.ndarray, engine: str | None = None) -> SessionReport:
        """Run one ``(C, H, W)`` image: :meth:`run_batch` over a batch of one."""
        if input_array.ndim != 3:
            raise ShapeError(f"run expects (C, H, W), got shape {input_array.shape}")
        report = self.run_batch(input_array[None], engine)
        report.output = report.output[0]
        return report

    def run_batch(
        self, batch_input: np.ndarray, engine: str | None = None
    ) -> SessionReport:
        """Run a stack of inputs (leading batch dim) through batched launches.

        Real tensors go through the simulated kernels per the plan.  Per step
        the whole batch goes through one kernel launch: per-image traffic and
        compute scale with the batch while launch overhead is paid once and
        cross-image weight re-streams are served from L2 (see
        :meth:`~repro.gpu.counters.AccessCounters.batched`).  Standard-conv
        and glue records come from :func:`price_step`, which prices them
        without tensors.
        """
        engine = self.engine if engine is None else resolve_engine(engine)
        if batch_input.ndim != 4:
            raise ShapeError(
                f"run_batch expects (batch, C, H, W), got shape {batch_input.shape}"
            )
        n = batch_input.shape[0]
        net = self.params
        records: list[StepRecord] = []
        values: dict[str, np.ndarray] = {}

        def input_of(layer_name: str) -> np.ndarray:
            preds = self.graph.predecessors(layer_name)
            if not preds:
                return batch_input
            return values[preds[0]]

        for step in self.plan.steps:
            if isinstance(step, ChainStep):
                kernel = build_chain_kernel(
                    [net[sp.name] for sp in step.specs],
                    step.tiling,
                    step.fcm_type,
                )
                res = kernel.simulate_batch(
                    input_of(step.specs[0].name), self.gpu, engine
                )
                values[step.specs[-1].name] = res.output
                records.append(
                    _record(
                        "+".join(step.layer_names), "fcm", res.counters, self.gpu,
                        self.dtype, res.timing(),
                    )
                )
            elif isinstance(step, LblStep):
                kernel = build_lbl_kernel(net[step.spec.name], step.tiling)
                res = kernel.simulate_batch(input_of(step.spec.name), self.gpu, engine)
                values[step.spec.name] = res.output
                records.append(
                    _record(step.spec.name, "lbl", res.counters, self.gpu,
                            self.dtype, res.timing())
                )
            elif isinstance(step, StdStep):
                params = net[step.spec.name]
                values[step.spec.name] = np.stack([
                    run_cudnn(params, ifm, _STD_ALGO, self.gpu)[0]
                    for ifm in input_of(step.spec.name)
                ])
                records.append(price_step(step, self.gpu, self.dtype, n))
            elif isinstance(step, GlueStep):
                spec = step.spec
                preds = self.graph.predecessors(spec.name)
                scales = [net.out_scales.get(p) for p in preds]
                outs = []
                for i in range(n):
                    inputs = [
                        values[p][i] if p in values else batch_input[i] for p in preds
                    ]
                    out, _scale = apply_glue(spec, inputs, scales, self.dtype)
                    outs.append(out)
                values[spec.name] = np.stack(outs)
                records.append(price_step(step, self.gpu, self.dtype, n))
            else:  # pragma: no cover - exhaustive
                raise PlanError(f"unknown plan step {step!r}")
        return SessionReport(
            self.plan.model_name, self.gpu, self.dtype, records=tuple(records),
            output=values.get(self._output_name()), batch_size=n,
        )

    def _output_name(self) -> str:
        names = [s.name for s in self.graph.topological()]
        return names[-1]

    # ---- analytic execution -----------------------------------------------------
    def run_analytic(self) -> SessionReport:
        """Counters-only batch-1 execution: :meth:`run_analytic_batch` of one."""
        return self.run_analytic_batch(1)

    def run_analytic_batch(self, batch_size: int) -> SessionReport:
        """Counters-only batched execution via the measured-convention estimators.

        Byte/MAC totals equal :meth:`run_batch` exactly, with no tensors
        materialized, so full-size models sweep in milliseconds and one call
        per (plan, batch size) prices a whole serving micro-batch.
        """
        if batch_size < 1:
            raise PlanError(f"batch_size must be >= 1, got {batch_size}")
        return SessionReport(
            self.plan.model_name, self.gpu, self.dtype,
            records=tuple(
                price_step(step, self.gpu, self.dtype, batch_size)
                for step in self.plan.steps
            ),
            batch_size=batch_size,
        )


def build_session(
    model: str,
    gpu: GpuSpec,
    dtype: DType = DType.FP32,
    *,
    max_chain: int = 2,
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
) -> InferenceSession:
    """Plan ``model`` on ``gpu`` and materialize a ready session.

    The build-graph -> plan -> materialize -> session scaffold every
    functional entry point needs (CLI ``run``, ``make profile``, the engine
    benches); keep them on this one helper so the setup can't drift apart.
    The weights are materialized here, not on the first functional run, so
    a caller timing ``run`` times inference alone.
    """
    from ..models.zoo import build_model
    from ..planner.planner import FusePlanner

    graph = build_model(model, dtype)
    plan = FusePlanner(gpu, max_chain=max_chain).plan(graph)
    params = materialize_network(graph, dtype, seed)
    return InferenceSession(graph, plan, params, engine=engine)


def seeded_input(graph: ModelGraph, dtype: DType, seed: int = 0, batch: int = 1) -> np.ndarray:
    """Deterministic random input matching the graph's first layer.

    ``batch > 1`` prepends a batch dimension (for :meth:`InferenceSession.
    run_batch`); INT8 graphs get full-range int8 samples, FP32 standard
    normals.
    """
    shape = next(iter(graph.topological())).ifm.shape
    if batch > 1:
        shape = (batch,) + shape
    rng = np.random.default_rng(seed)
    if dtype is DType.INT8:
        return rng.integers(-128, 128, shape).astype(np.int8)
    return rng.standard_normal(shape).astype(np.float32)


class TvmSession(_Session):
    """Execute a :class:`TvmPlan` (cuDNN-backend per-layer, fused adds)."""

    def run(self, input_array: np.ndarray) -> SessionReport:
        """Functional execution (reference ops + cuDNN accounting)."""
        net = self.params
        records: list[StepRecord] = []
        values: dict[str, np.ndarray] = {}
        for step in self.plan.steps:
            if isinstance(step, TvmConvStep):
                preds = self.graph.predecessors(step.spec.name)
                ifm = values[preds[0]] if preds else input_array
                out, counters, timing = run_cudnn(
                    net[step.spec.name], ifm, step.algo, self.gpu,
                    gemm_tile=step.gemm_tile,
                )
                values[step.spec.name] = out
                records.append(
                    _record(step.spec.name, "tvm-conv", counters, self.gpu,
                            self.dtype, timing)
                )
            else:
                spec = step.spec
                preds = self.graph.predecessors(spec.name)
                inputs = [values[p] if p in values else input_array for p in preds]
                scales = [net.out_scales.get(p) for p in preds]
                out, _scale = apply_glue(spec, inputs, scales, self.dtype)
                values[spec.name] = out
                counters = glue_counters(spec, self.dtype, fused=step.fused)
                records.append(
                    _record(spec.name, "glue", counters, self.gpu, self.dtype)
                )
        names = [s.name for s in self.graph.topological()]
        return SessionReport(
            self.plan.model_name, self.gpu, self.dtype, records=tuple(records),
            output=values.get(names[-1]),
        )

    def run_analytic(self) -> SessionReport:
        """Counters-only execution of the TVM plan."""
        records: list[StepRecord] = []
        for step in self.plan.steps:
            if isinstance(step, TvmConvStep):
                counters = cudnn_counters(step.spec, step.algo, gemm_tile=step.gemm_tile)
                timing = cudnn_timing(step.spec, step.algo, self.gpu, gemm_tile=step.gemm_tile)
                records.append(
                    _record(step.spec.name, "tvm-conv", counters, self.gpu,
                            self.dtype, timing)
                )
            else:
                counters = glue_counters(step.spec, self.dtype, fused=step.fused)
                records.append(
                    _record(step.spec.name, "glue", counters, self.gpu, self.dtype)
                )
        return SessionReport(
            self.plan.model_name, self.gpu, self.dtype, records=tuple(records)
        )
