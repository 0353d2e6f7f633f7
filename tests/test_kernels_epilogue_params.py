"""Epilogue and parameter-generation coverage beyond the kernel paths."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import dw_spec, pw_spec
from repro.core.dtypes import DType
from repro.core.quantize import QuantParams
from repro.errors import ShapeError, UnsupportedError
from repro.kernels.epilogue import ConvEpilogue
from repro.kernels.params import chain_quant, make_layer_params


class TestConvEpilogue:
    def test_fp32_norm_and_act(self, rng):
        scale = np.array([2.0, 0.5], dtype=np.float32)
        shift = np.array([1.0, -1.0], dtype=np.float32)
        epi = ConvEpilogue(norm_scale=scale, norm_shift=shift, activation="relu")
        acc = rng.standard_normal((2, 5)).astype(np.float32)
        out = epi.apply(acc, 0, 2, DType.FP32)
        want = np.maximum(acc * scale[:, None] + shift[:, None], 0)
        np.testing.assert_allclose(out, want, rtol=1e-6)
        assert out.dtype == np.float32

    def test_channel_slice(self, rng):
        scale = np.arange(1, 9, dtype=np.float32)
        shift = np.zeros(8, dtype=np.float32)
        epi = ConvEpilogue(norm_scale=scale, norm_shift=shift, activation=None)
        acc = np.ones((2, 3), dtype=np.float32)
        out = epi.apply(acc, 4, 6, DType.FP32)
        np.testing.assert_allclose(out[:, 0], [5.0, 6.0])

    def test_slice_mismatch_rejected(self):
        epi = ConvEpilogue(
            norm_scale=np.ones(8, np.float32), norm_shift=np.zeros(8, np.float32)
        )
        with pytest.raises(ShapeError):
            epi.apply(np.ones((3, 2), np.float32), 0, 2, DType.FP32)

    def test_norm_pair_required(self):
        with pytest.raises(ShapeError):
            ConvEpilogue(norm_scale=np.ones(2, np.float32), norm_shift=None)

    def test_int8_requires_scales(self):
        epi = ConvEpilogue(activation=None)
        with pytest.raises(UnsupportedError):
            epi.apply(np.ones((2, 2), np.int32), 0, 2, DType.INT8)

    def test_int8_saturates(self):
        epi = ConvEpilogue(
            activation=None,
            in_scale=QuantParams(1.0),
            w_scale=QuantParams(1.0),
            out_scale=QuantParams(1.0),
        )
        acc = np.array([[10**6, -(10**6)]], dtype=np.int32)
        out = epi.apply(acc, 0, 1, DType.INT8)
        np.testing.assert_array_equal(out, [[127, -128]])


class TestLayerParams:
    def test_deterministic_per_seed(self):
        spec = pw_spec()
        a = make_layer_params(spec, seed=3)
        b = make_layer_params(spec, seed=3)
        c = make_layer_params(spec, seed=4)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_weights_identical_across_hash_seeds(self):
        """Layer seeds must not depend on Python's per-process string-hash
        salt: one model's INT8 weights and scales, materialized in two
        processes under different ``PYTHONHASHSEED``s, digest identically."""
        script = (
            "import hashlib\n"
            "from repro.core.dtypes import DType\n"
            "from repro.models.zoo import build_model\n"
            "from repro.runtime.network_params import materialize_network\n"
            "params = materialize_network(build_model('mobilenet_v1'), DType.INT8)\n"
            "digest = hashlib.sha256()\n"
            "for name in sorted(params.layers):\n"
            "    digest.update(params[name].weights.tobytes())\n"
            "    digest.update(repr(params[name].out_scale).encode())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, digests

    def test_weight_shapes(self):
        assert make_layer_params(pw_spec(c_in=8, c_out=16)).weights.shape == (16, 8)
        assert make_layer_params(dw_spec(c=8, kernel=5)).weights.shape == (8, 5, 5)

    def test_int8_weights_are_int8(self):
        p = make_layer_params(pw_spec(dtype=DType.INT8))
        assert p.weights.dtype == np.int8
        assert p.epilogue.is_quantized
        assert p.out_scale is not None and p.out_scale.scale > 0

    def test_chain_quant_links_scales(self):
        p1 = make_layer_params(pw_spec("a", dtype=DType.INT8))
        p2 = chain_quant(p1, dw_spec("b", c=16, dtype=DType.INT8))
        assert p2.in_scale is p1.out_scale

    def test_chain_quant_fp32_noop(self):
        p1 = make_layer_params(pw_spec("a"))
        p2 = chain_quant(p1, dw_spec("b", c=16))
        assert p2.in_scale is None and p2.out_scale is None

    def test_no_norm_layer(self):
        p = make_layer_params(pw_spec(norm=False))
        assert p.epilogue.norm_scale is None
