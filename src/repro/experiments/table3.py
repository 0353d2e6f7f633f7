"""Table III — roofline classification of LBL and FCM kernels (GTX, RTX).

For each FP32 fusion case the paper marks, per GPU, whether each constituent
LBL kernel and the fused kernel are compute- ('C') or memory-bound ('M').
Patterns to reproduce: most LBL DW/PW kernels are memory-bound; fusion turns
several memory-bound pairs compute-bound on the smaller GPU (GTX) — the
paper's explanation for GTX's lower speedups — while more cases stay
memory-bound on RTX.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dtypes import DType
from ..gpu.roofline import time_kernel
from ..gpu.specs import GTX1660, RTX_A4000, GpuSpec
from ..planner.analytic import fcm_counters, lbl_counters
from ..planner.planner import FusePlanner
from .fusion_cases import select_fusion_cases

__all__ = ["BoundRow", "table3"]


@dataclass(frozen=True)
class BoundRow:
    """One Table III cell group: LBL pair bounds + FCM bound."""

    case_id: str
    gpu: str
    lbl_first_bound: str
    lbl_second_bound: str
    fcm_bound: str

    @property
    def lbl_label(self) -> str:
        return f"{self.lbl_first_bound}, {self.lbl_second_bound}"


def table3(
    gpus: tuple[GpuSpec, ...] = (GTX1660, RTX_A4000), dtype: DType = DType.FP32
) -> list[BoundRow]:
    """Classify every fusion case's kernels on the requested GPUs."""
    rows: list[BoundRow] = []
    for case in select_fusion_cases(dtype):
        for gpu in gpus:
            planner = FusePlanner(gpu)
            decision = planner.evaluate_pair(case.first, case.second)
            if decision is None:
                continue
            b1 = time_kernel(
                lbl_counters(case.first, planner.lbl_plan(case.first).tiling),
                gpu, dtype,
            ).bound
            b2 = time_kernel(
                lbl_counters(case.second, planner.lbl_plan(case.second).tiling),
                gpu, dtype,
            ).bound
            bf = time_kernel(
                fcm_counters(
                    decision.fcm_type, case.first, case.second, decision.fcm.tiling
                ),
                gpu, dtype,
            ).bound
            rows.append(BoundRow(case.case_id, gpu.name, b1, b2, bf))
    return rows
