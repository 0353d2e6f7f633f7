"""Figure 8 — global-memory access time, loads/stores split, FCM vs LBL.

The paper normalizes every bar to the LBL execution's total global-memory
time and splits each into read (load) and write (store) shares, on GTX and
RTX with FP32.  Fusion's signature is visible in both components: stores
drop because the intermediate is never written back; loads drop because it
is never re-read (minus the halo-recompute overhead of PWDW_R cases).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dtypes import DType
from ..gpu.roofline import time_kernel
from ..gpu.specs import GTX1660, RTX_A4000, GpuSpec
from ..planner.analytic import fcm_counters, pair_lbl_counters
from ..planner.planner import FusePlanner
from .fusion_cases import select_fusion_cases

__all__ = ["GmaTimeBar", "figure8"]


@dataclass(frozen=True)
class GmaTimeBar:
    """One stacked bar: read/write GM time normalized to the LBL total."""

    case_id: str
    gpu: str
    variant: str  # 'LBL' | 'FCM'
    read_share: float
    write_share: float

    @property
    def total(self) -> float:
        return self.read_share + self.write_share


def figure8(
    gpus: tuple[GpuSpec, ...] = (GTX1660, RTX_A4000), dtype: DType = DType.FP32
) -> list[GmaTimeBar]:
    """Compute all Fig. 8 bars (paper uses GTX and RTX at FP32)."""
    bars: list[GmaTimeBar] = []
    for case in select_fusion_cases(dtype):
        for gpu in gpus:
            planner = FusePlanner(gpu)
            decision = planner.evaluate_pair(case.first, case.second)
            if decision is None:
                continue
            c_lbl = pair_lbl_counters(
                case.first,
                case.second,
                planner.lbl_plan(case.first).tiling,
                planner.lbl_plan(case.second).tiling,
            )
            c_fcm = fcm_counters(
                decision.fcm_type, case.first, case.second, decision.fcm.tiling
            )
            t_lbl = time_kernel(c_lbl, gpu, dtype)
            t_fcm = time_kernel(c_fcm, gpu, dtype)
            base = t_lbl.t_memory_s
            bars.append(
                GmaTimeBar(
                    case.case_id, gpu.name, "LBL",
                    t_lbl.t_mem_read_s / base, t_lbl.t_mem_write_s / base,
                )
            )
            bars.append(
                GmaTimeBar(
                    case.case_id, gpu.name, "FCM",
                    t_fcm.t_mem_read_s / base, t_fcm.t_mem_write_s / base,
                )
            )
    return bars
