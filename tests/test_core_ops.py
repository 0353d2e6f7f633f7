"""Unit + property tests for the reference convolution operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import (
    ACTIVATIONS,
    apply_activation,
    conv2d_depthwise,
    conv2d_pointwise,
    conv2d_standard,
    out_dim,
)
from repro.errors import ShapeError


class TestOutDim:
    def test_basic(self):
        assert out_dim(112, 3, 2, 1) == 56
        assert out_dim(224, 3, 2, 1) == 112
        assert out_dim(14, 3, 1, 1) == 14
        assert out_dim(299, 3, 2, 0) == 149

    def test_kernel_one(self):
        assert out_dim(10, 1, 1, 0) == 10
        assert out_dim(10, 1, 2, 0) == 5

    def test_invalid(self):
        with pytest.raises(ShapeError):
            out_dim(0, 3, 1, 1)
        with pytest.raises(ShapeError):
            out_dim(10, 3, 0, 1)
        with pytest.raises(ShapeError):
            out_dim(2, 5, 1, 0)


class TestStandardConv:
    def test_identity_filter(self, rng):
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        w = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for i in range(3):
            w[i, i, 0, 0] = 1.0
        np.testing.assert_allclose(conv2d_standard(x, w), x, rtol=1e-6)

    def test_matches_manual_small(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        y = conv2d_standard(x, w)
        assert y.shape == (1, 3, 3)
        assert y[0, 0, 0] == x[0, 0, 0] + x[0, 0, 1] + x[0, 1, 0] + x[0, 1, 1]

    def test_stride_and_padding_shape(self, rng):
        x = rng.standard_normal((2, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        assert conv2d_standard(x, w, stride=2, padding=1).shape == (4, 5, 5)

    def test_int_accumulates_int32(self, rng):
        x = rng.integers(-128, 128, (2, 5, 5)).astype(np.int8)
        w = rng.integers(-128, 128, (3, 2, 3, 3)).astype(np.int8)
        y = conv2d_standard(x, w, padding=1)
        assert y.dtype == np.int32

    def test_channel_mismatch(self, rng):
        x = rng.standard_normal((2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            conv2d_standard(x, w)


class TestDepthwiseConv:
    def test_equals_grouped_standard(self, rng):
        """DW == a standard conv with a block-diagonal filter bank."""
        c, h, w = 4, 8, 8
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        wd = rng.standard_normal((c, 3, 3)).astype(np.float32)
        ws = np.zeros((c, c, 3, 3), dtype=np.float32)
        for i in range(c):
            ws[i, i] = wd[i]
        np.testing.assert_allclose(
            conv2d_depthwise(x, wd, padding=1),
            conv2d_standard(x, ws, padding=1),
            rtol=1e-5,
        )

    def test_stride2(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        wd = rng.standard_normal((3, 3, 3)).astype(np.float32)
        assert conv2d_depthwise(x, wd, stride=2, padding=1).shape == (3, 4, 4)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            conv2d_depthwise(
                rng.standard_normal((3, 5, 5)).astype(np.float32),
                rng.standard_normal((4, 3, 3)).astype(np.float32),
            )


class TestPointwiseConv:
    def test_equals_standard_1x1(self, rng):
        x = rng.standard_normal((5, 7, 7)).astype(np.float32)
        w = rng.standard_normal((8, 5)).astype(np.float32)
        np.testing.assert_allclose(
            conv2d_pointwise(x, w),
            conv2d_standard(x, w.reshape(8, 5, 1, 1)),
            rtol=1e-5,
        )

    def test_stride_subsamples(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((2, 3)).astype(np.float32)
        y = conv2d_pointwise(x, w, stride=2)
        assert y.shape == (2, 4, 4)
        np.testing.assert_allclose(y, conv2d_pointwise(x[:, ::2, ::2], w), rtol=1e-6)


class TestEpilogueOps:
    def test_activations_pointwise_props(self, rng):
        x = rng.standard_normal(100).astype(np.float32)
        assert (apply_activation(x, "relu") >= 0).all()
        assert (apply_activation(x, "relu6") <= 6).all()
        np.testing.assert_array_equal(apply_activation(x, None), x)
        np.testing.assert_array_equal(apply_activation(x, "identity"), x)

    def test_unknown_activation(self):
        with pytest.raises(ShapeError):
            apply_activation(np.zeros(3), "swishh")

    def test_registry_complete(self):
        for name in ("relu", "relu6", "hswish", "gelu", "identity", None):
            assert name in ACTIVATIONS


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 6),
    m=st.integers(1, 8),
    h=st.integers(3, 10),
    w=st.integers(3, 10),
    k=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 2),
)
def test_conv_linearity_property(c, m, h, w, k, stride):
    """Convolution is linear: conv(a*x + b*y) == a*conv(x) + b*conv(y)."""
    if h + 2 * (k // 2) < k or w + 2 * (k // 2) < k:
        return
    rng = np.random.default_rng(c * 1000 + m * 100 + h * 10 + w)
    pad = k // 2
    x = rng.standard_normal((c, h, w)).astype(np.float64)
    y = rng.standard_normal((c, h, w)).astype(np.float64)
    wt = rng.standard_normal((m, c, k, k)).astype(np.float64)
    lhs = conv2d_standard(2.0 * x + 3.0 * y, wt, stride, pad)
    rhs = 2.0 * conv2d_standard(x, wt, stride, pad) + 3.0 * conv2d_standard(
        y, wt, stride, pad
    )
    # conv2d_standard accumulates in fp32 for float inputs.
    np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 6),
    h=st.integers(4, 12),
    w=st.integers(4, 12),
    k=st.sampled_from([2, 3]),
    stride=st.integers(1, 2),
)
def test_depthwise_channel_independence(c, h, w, k, stride):
    """Each DW output channel depends only on its own input channel."""
    rng = np.random.default_rng(c + h * 7 + w * 13 + k)
    x = rng.standard_normal((c, h, w)).astype(np.float32)
    wt = rng.standard_normal((c, k, k)).astype(np.float32)
    base = conv2d_depthwise(x, wt, stride, k // 2)
    x2 = x.copy()
    x2[0] += 100.0  # perturb channel 0 only
    pert = conv2d_depthwise(x2, wt, stride, k // 2)
    np.testing.assert_allclose(base[1:], pert[1:], rtol=1e-5)
    assert not np.allclose(base[0], pert[0])
