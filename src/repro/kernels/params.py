"""Layer parameter generation: weights + epilogue, FP32 and INT8.

Inference-time evaluation does not need trained weights — the paper measures
memory traffic and latency, which depend only on shapes and dtypes.  This
module materializes deterministic pseudo-random parameters for any
:class:`~repro.ir.layers.ConvSpec`, including a chained INT8 quantization
setup where a layer's output scale becomes the next layer's input scale
(exactly how static-quantized inference graphs are calibrated).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..core.dtypes import DType
from ..core.quantize import QuantParams, choose_scale, quantize
from ..ir.layers import ConvSpec
from .epilogue import ConvEpilogue

__all__ = ["LayerParams", "make_layer_params", "chain_quant"]


@dataclass(frozen=True)
class LayerParams:
    """Materialized parameters of one conv layer: weights + epilogue."""

    spec: ConvSpec
    weights: np.ndarray
    epilogue: ConvEpilogue

    @property
    def in_scale(self) -> QuantParams | None:
        return self.epilogue.in_scale

    @property
    def out_scale(self) -> QuantParams | None:
        return self.epilogue.out_scale


def _rng_for(spec: ConvSpec, seed: int) -> np.random.Generator:
    """Deterministic per-layer RNG (stable across runs and processes).

    The key is a CRC-32 of the layer's identifying fields, never builtin
    ``hash()``, which Python salts per process (``PYTHONHASHSEED``)."""
    canon = f"{spec.name}|{spec.kind.value}|{spec.in_channels}|{spec.out_channels}"
    key = zlib.crc32(canon.encode("utf-8")) % (2**31)
    return np.random.default_rng(seed ^ key)


def make_layer_params(
    spec: ConvSpec,
    seed: int = 0,
    in_scale: QuantParams | None = None,
) -> LayerParams:
    """Generate weights and epilogue parameters for a layer.

    For INT8 specs, weights are quantized symmetrically and an output scale is
    derived from a conservative range estimate; pass ``in_scale`` to chain the
    producer's output scale (defaults to a fresh unit-range scale).
    """
    rng = _rng_for(spec, seed)
    w_fp = rng.standard_normal(spec.weights_shape).astype(np.float32) * 0.1
    norm_scale = rng.uniform(0.5, 1.5, spec.out_channels).astype(np.float32)
    norm_shift = rng.uniform(-0.1, 0.1, spec.out_channels).astype(np.float32)
    if not spec.epilogue.norm:
        norm_scale = norm_shift = None

    if spec.dtype is DType.INT8:
        w_q = choose_scale(w_fp)
        weights = quantize(w_fp, w_q)
        inp = in_scale if in_scale is not None else QuantParams(scale=1.0 / 127.0)
        # Conservative output range estimate: accumulator spread grows with
        # the sqrt of the reduction depth for zero-mean operands.
        depth = spec.kernel * spec.kernel
        if spec.kind.value != "dw":
            depth *= spec.in_channels
        out = QuantParams(scale=max(inp.scale * w_q.scale * np.sqrt(depth), 1e-8))
        epi = ConvEpilogue(
            norm_scale=norm_scale,
            norm_shift=norm_shift,
            activation=spec.epilogue.activation,
            in_scale=inp,
            w_scale=w_q,
            out_scale=out,
        )
        return LayerParams(spec=spec, weights=weights, epilogue=epi)

    epi = ConvEpilogue(
        norm_scale=norm_scale,
        norm_shift=norm_shift,
        activation=spec.epilogue.activation,
    )
    return LayerParams(spec=spec, weights=w_fp, epilogue=epi)


def chain_quant(first: LayerParams, second_spec: ConvSpec, seed: int = 0) -> LayerParams:
    """Generate the consumer layer's params with its input scale chained.

    For FP32 this is just :func:`make_layer_params`; for INT8 the consumer's
    ``in_scale`` is the producer's ``out_scale`` so fused and layer-by-layer
    executions are numerically identical.
    """
    return make_layer_params(second_spec, seed=seed, in_scale=first.out_scale)
