"""Baselines: simulated cuDNN algorithms and a TVM-like end-to-end compiler."""

from .autotune import SearchOutcome, random_search
from .cudnn import (
    CudnnAlgo,
    cudnn_counters,
    cudnn_timing,
    run_cudnn,
)
from .im2col import conv_via_im2col, depthwise_via_im2col, im2col
from .tvm import TvmCompiler, TvmConvStep, TvmGlueStep, TvmPlan

__all__ = [
    "SearchOutcome",
    "random_search",
    "CudnnAlgo",
    "cudnn_counters",
    "cudnn_timing",
    "run_cudnn",
    "conv_via_im2col",
    "depthwise_via_im2col",
    "im2col",
    "TvmCompiler",
    "TvmConvStep",
    "TvmGlueStep",
    "TvmPlan",
]
