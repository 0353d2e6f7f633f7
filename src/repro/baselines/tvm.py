"""TVM-like end-to-end compiler baseline (paper §V-C).

The paper's strongest end-to-end comparator is TVM with the cuDNN backend:
it fuses each convolution with its trailing normalization/activation (but
never conv with conv), auto-tunes for 20 iterations, and applies graph-level
optimizations that our conv-conv-fused runtime does not (most relevantly,
folding elementwise residual adds into producer kernels — the reason the
paper sees TVM closest on complex-DAG models and our largest win on the
linear MobileNetV1, §VI-C).

``TvmCompiler`` reproduces that surface: per conv layer it tunes over
(algorithm x GEMM blocking) candidates with :func:`random_search`, and its
plan marks add-glue as free (fused).  ``TvmSession``-style execution lives in
:mod:`repro.runtime.session` via the shared step abstractions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from ..core.dtypes import DType
from ..errors import PlanError
from ..gpu.counters import AccessCounters
from ..gpu.roofline import time_kernel
from ..gpu.specs import GpuSpec
from ..ir.graph import GlueSpec, ModelGraph
from ..ir.layers import ConvSpec
from .autotune import random_search
from .cudnn import CudnnAlgo, cudnn_timing

__all__ = ["TvmConvStep", "TvmGlueStep", "TvmPlan", "TvmCompiler"]


@dataclass(frozen=True)
class TvmConvStep:
    """One conv layer as TVM executes it: tuned cuDNN-backend kernel."""

    spec: ConvSpec
    algo: CudnnAlgo
    gemm_tile: int
    tuned_cost_s: float


@dataclass(frozen=True)
class TvmGlueStep:
    """A non-conv node; ``fused`` add-glue costs no extra traffic under TVM."""

    spec: GlueSpec
    fused: bool


@dataclass
class TvmPlan:
    """Compiled TVM execution plan for one model/GPU/precision."""

    model_name: str
    gpu: GpuSpec
    dtype: DType
    steps: list[TvmConvStep | TvmGlueStep] = field(default_factory=list)

    @property
    def conv_steps(self) -> list[TvmConvStep]:
        return [s for s in self.steps if isinstance(s, TvmConvStep)]

    def describe(self) -> str:
        lines = [f"TvmPlan[{self.model_name} on {self.gpu.name}, {self.dtype}]"]
        for s in self.steps:
            if isinstance(s, TvmConvStep):
                lines.append(
                    f"  CONV {s.spec.name}: {s.algo.value} tile={s.gemm_tile} "
                    f"t={s.tuned_cost_s * 1e6:.1f}us"
                )
            else:
                tag = "fused" if s.fused else "kernel"
                lines.append(f"  GLUE {s.spec.name} ({s.spec.op}, {tag})")
        return "\n".join(lines)


class TvmCompiler:
    """Graph compiler with conv+elementwise fusion and seeded auto-tuning."""

    #: GEMM output-tile blockings the tuner may pick.
    TILE_CANDIDATES = (32, 64, 128)

    def __init__(self, gpu: GpuSpec, tuning_iterations: int = 20, seed: int = 0) -> None:
        if tuning_iterations <= 0:
            raise PlanError("tuning_iterations must be positive")
        self.gpu = gpu
        self.tuning_iterations = tuning_iterations
        self.seed = seed

    def tune_layer(self, spec: ConvSpec) -> TvmConvStep:
        """Pick (algorithm, blocking) minimizing modelled latency."""
        candidates = [
            (algo, tile) for algo in CudnnAlgo for tile in self.TILE_CANDIDATES
        ]

        def evaluate(cfg: tuple[CudnnAlgo, int]) -> float:
            algo, tile = cfg
            return cudnn_timing(spec, algo, self.gpu, gemm_tile=tile).t_total_s

        # Per-layer seed keeps tuning deterministic yet layer-diverse; CRC-32
        # rather than builtin hash(), which is salted per process.
        lseed = (self.seed * 1000003 + zlib.crc32(spec.name.encode("utf-8"))) % (2**31)
        (algo, tile), cost, _evaluated = random_search(
            candidates, evaluate, self.tuning_iterations, seed=lseed
        )
        return TvmConvStep(spec=spec, algo=algo, gemm_tile=tile, tuned_cost_s=cost)

    def compile(self, graph: ModelGraph, dtype: DType | None = None) -> TvmPlan:
        """Compile a model: tune every conv, fuse elementwise glue."""
        graph.validate()
        plan = TvmPlan(
            model_name=graph.name,
            gpu=self.gpu,
            dtype=dtype if dtype is not None else DType.FP32,
        )
        for spec in graph.topological():
            if isinstance(spec, GlueSpec):
                # TVM's injective-fusion folds residual adds into producers.
                plan.steps.append(TvmGlueStep(spec=spec, fused=spec.op == "add"))
                continue
            conv = spec.with_dtype(dtype) if dtype is not None else spec
            plan.steps.append(self.tune_layer(conv))
        return plan

    # ---- analytic aggregate -----------------------------------------------------
    def plan_latency_s(self, plan: TvmPlan) -> float:
        """Modelled end-to-end latency: sum of tuned per-kernel times."""
        total = 0.0
        for s in plan.steps:
            if isinstance(s, TvmConvStep):
                total += s.tuned_cost_s
            elif not s.fused:
                total += _glue_time_s(s.spec, plan.dtype, self.gpu)
        return total


def _glue_time_s(spec: GlueSpec, dtype: DType, gpu: GpuSpec) -> float:
    """Memory-bound elementwise node: read inputs + write output once."""
    counters = AccessCounters()
    counters.kernel_launches = 1
    nbytes = spec.out_elements * dtype.nbytes
    counters.read("glue", 2 * nbytes if spec.op == "add" else nbytes)
    counters.write("glue", nbytes)
    return time_kernel(counters, gpu, dtype).t_total_s
