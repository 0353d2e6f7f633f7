"""Kernel registry: build LBL or FCM kernels from specs + tiling choices.

The planner emits *what* to run (fuse or not, which FCM type, which tile
sizes); this registry turns those decisions into concrete simulated kernels.
Tile-size vocabularies differ per kernel, so the registry also defines the
canonical tiling-dict keys each kernel understands.  A DWPW module is the
chain dataflow at length 2, so it runs on
:class:`~repro.kernels.fused_chain.FusedChainKernel`; PWDW, PWDW_R and PWPW
keep their own kernels for the ``tile_f`` / flat ``tile_hw`` vocabularies.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.fcm import FcmType
from ..core.tiling import DwTiling, PwTiling
from ..errors import ShapeError, UnsupportedError
from ..ir.layers import ConvKind
from .base import SimKernel
from .direct_dw import DwDirectKernel
from .direct_pw import PwDirectKernel
from .fused_chain import FusedChainKernel
from .fused_pwdw import PwDwFusedKernel
from .fused_pwdw_r import PwDwRFusedKernel
from .fused_pwpw import PwPwFusedKernel
from .params import LayerParams

__all__ = ["build_lbl_kernel", "build_fcm_kernel", "build_chain_kernel"]


def build_lbl_kernel(params: LayerParams, tiling: Mapping[str, int]) -> SimKernel:
    """Build the layer-by-layer kernel for one DW or PW layer.

    ``tiling`` keys: PW -> ``tile_m``, ``tile_hw``; DW -> ``tile_c``,
    ``tile_h``, ``tile_w``.
    """
    kind = params.spec.kind
    if kind is ConvKind.POINTWISE:
        return PwDirectKernel(params, PwTiling(tiling["tile_m"], tiling["tile_hw"]))
    if kind is ConvKind.DEPTHWISE:
        return DwDirectKernel(
            params, DwTiling(tiling["tile_c"], tiling["tile_h"], tiling["tile_w"])
        )
    raise UnsupportedError(f"no direct LBL kernel for {kind} layers in this library")


def build_fcm_kernel(
    fcm_type: FcmType,
    first: LayerParams,
    second: LayerParams,
    tiling: Mapping[str, int],
) -> SimKernel:
    """Build a fused kernel of the given FCM type.

    ``tiling`` keys per type:

    * DWPW   -> ``tile_h``, ``tile_w``, ``tile_m`` (the two-stage chain kernel)
    * PWDW   -> ``tile_f``
    * PWDW_R -> ``tile_f``, ``tile_h``, ``tile_w``
    * PWPW   -> ``tile_hw``, ``tile_m``
    """
    if fcm_type is FcmType.DWPW:
        if (first.spec.kind, second.spec.kind) != (ConvKind.DEPTHWISE, ConvKind.POINTWISE):
            raise ShapeError("a DWPW module fuses a DW layer followed by a PW layer")
        return FusedChainKernel(
            [first, second], tiling["tile_h"], tiling["tile_w"], tiling["tile_m"]
        )
    if fcm_type is FcmType.PWDW:
        return PwDwFusedKernel(first, second, tiling["tile_f"])
    if fcm_type is FcmType.PWDW_R:
        return PwDwRFusedKernel(
            first, second, tiling["tile_f"], tiling["tile_h"], tiling["tile_w"]
        )
    if fcm_type is FcmType.PWPW:
        return PwPwFusedKernel(first, second, tiling["tile_hw"], tiling["tile_m"])
    raise UnsupportedError(f"unknown FCM type {fcm_type}")


def build_chain_kernel(
    stages: Sequence[LayerParams],
    tiling: Mapping[str, int],
    fcm_type: FcmType | None = None,
) -> SimKernel:
    """Build the fused kernel for a chain of any length.

    Length-2 chains carrying their pairwise ``fcm_type`` go through
    :func:`build_fcm_kernel` (whose tiling vocabularies match the pairwise
    estimators byte-for-byte; DWPW comes back as the chain kernel); longer
    chains build :class:`~repro.kernels.fused_chain.FusedChainKernel` with
    the chain vocabulary ``tile_h``/``tile_w``[/``tile_m``].
    """
    if len(stages) < 2:
        raise UnsupportedError("a fused chain kernel needs at least two stages")
    if len(stages) == 2 and fcm_type is not None:
        return build_fcm_kernel(fcm_type, stages[0], stages[1], tiling)
    return FusedChainKernel(
        stages, tiling["tile_h"], tiling["tile_w"], tiling.get("tile_m")
    )
