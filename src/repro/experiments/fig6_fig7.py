"""Figures 6 & 7 — FCM speedup over layer-by-layer execution.

For every Table II fusion case on every GPU: time the two-kernel LBL
execution (FusePlanner-minimal tilings, two launches) against the single
fused kernel, both through the roofline over exact analytic counters.
Paper findings to reproduce in shape: FCMs win in the large majority of the
72 experiments; FP32 max ~1.6x / avg ~1.3x, INT8 max ~1.8x / avg ~1.4x; a
few slowdown cases exist, concentrated on the GPU with the smallest
L1/shared per-SM budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dtypes import DType
from ..gpu.roofline import time_kernel
from ..gpu.specs import ALL_GPUS, GpuSpec
from ..planner.analytic import fcm_counters, pair_lbl_counters
from ..planner.planner import FusePlanner
from .fusion_cases import FusionCase, select_fusion_cases

__all__ = ["SpeedupPoint", "fcm_vs_lbl_case", "figure6_7"]


@dataclass(frozen=True)
class SpeedupPoint:
    """One bar of Fig. 6/7: a fusion case on one GPU."""

    case_id: str
    gpu: str
    fcm_type: str
    lbl_time_s: float
    fcm_time_s: float
    lbl_gma_bytes: int
    fcm_gma_bytes: int
    redundancy_ratio: float

    @property
    def speedup(self) -> float:
        return self.lbl_time_s / self.fcm_time_s

    @property
    def gma_saving(self) -> float:
        return 1.0 - self.fcm_gma_bytes / self.lbl_gma_bytes


def fcm_vs_lbl_case(case: FusionCase, gpu: GpuSpec) -> SpeedupPoint | None:
    """Evaluate one fusion case on one GPU; None if no module is feasible."""
    planner = FusePlanner(gpu)
    lbl_first = planner.lbl_plan(case.first)
    lbl_second = planner.lbl_plan(case.second)
    decision = planner.evaluate_pair(case.first, case.second)
    if decision is None:
        return None
    c_lbl = pair_lbl_counters(
        case.first, case.second, lbl_first.tiling, lbl_second.tiling
    )
    c_fcm = fcm_counters(
        decision.fcm_type, case.first, case.second, decision.fcm.tiling
    )
    dtype = case.dtype
    t_lbl = time_kernel(c_lbl, gpu, dtype)
    t_fcm = time_kernel(c_fcm, gpu, dtype)
    return SpeedupPoint(
        case_id=case.case_id,
        gpu=gpu.name,
        fcm_type=decision.fcm_type.name,
        lbl_time_s=t_lbl.t_total_s,
        fcm_time_s=t_fcm.t_total_s,
        lbl_gma_bytes=c_lbl.total_bytes,
        fcm_gma_bytes=c_fcm.total_bytes,
        redundancy_ratio=c_fcm.redundancy_ratio,
    )


def figure6_7(
    dtype: DType, gpus: tuple[GpuSpec, ...] = ALL_GPUS
) -> list[SpeedupPoint]:
    """All speedup points of Fig. 6 (FP32) or Fig. 7 (INT8)."""
    points: list[SpeedupPoint] = []
    for case in select_fusion_cases(dtype, gpus):
        for gpu in gpus:
            p = fcm_vs_lbl_case(case, gpu)
            if p is not None:
                points.append(p)
    return points
