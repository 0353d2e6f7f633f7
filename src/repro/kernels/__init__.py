"""Simulated GPU kernels: layer-by-layer (LBL) and fused (FCM)."""

from .base import KernelResult, SimKernel
from .direct_dw import DwDirectKernel
from .direct_pw import PwDirectKernel
from .epilogue import ConvEpilogue
from .fused_chain import FusedChainKernel
from .fused_pwdw import PwDwFusedKernel
from .fused_pwdw_r import PwDwRFusedKernel
from .fused_pwpw import PwPwFusedKernel
from .params import LayerParams, chain_quant, make_layer_params
from .registry import build_chain_kernel, build_fcm_kernel, build_lbl_kernel

__all__ = [
    "KernelResult",
    "SimKernel",
    "DwDirectKernel",
    "PwDirectKernel",
    "ConvEpilogue",
    "FusedChainKernel",
    "PwDwFusedKernel",
    "PwDwRFusedKernel",
    "PwPwFusedKernel",
    "LayerParams",
    "chain_quant",
    "make_layer_params",
    "build_chain_kernel",
    "build_fcm_kernel",
    "build_lbl_kernel",
]
