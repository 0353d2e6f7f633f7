"""Functional correctness and accounting of the four FCM types.

PWDW, PWDW_R and PWPW run on their own kernels; DWPW runs on the two-stage
:class:`~repro.kernels.fused_chain.FusedChainKernel`.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import dw_spec, pw_spec, random_ifm, ref_layer
from repro.core.dtypes import DType
from repro.core.fcm import FcmType
from repro.errors import CapacityError, ShapeError, UnsupportedError
from repro.gpu.specs import ORIN, RTX_A4000
from repro.kernels.params import chain_quant, make_layer_params
from repro.kernels.registry import build_fcm_kernel, build_lbl_kernel


def _pair(first_spec, second_spec, seed=0):
    p1 = make_layer_params(first_spec, seed=seed)
    p2 = chain_quant(p1, second_spec, seed=seed)
    x = random_ifm(first_spec, seed)
    return p1, p2, x, ref_layer(p2, ref_layer(p1, x))


class TestDwPwFused:
    def test_matches_reference(self):
        dw = dw_spec(c=8, h=14, w=14)
        pw = pw_spec(c_in=8, c_out=24, h=14, w=14)
        p1, p2, x, ref = _pair(dw, pw)
        res = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 5, "tile_w": 5, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)
        assert res.counters.redundant_macs == 0

    def test_strided_dw_producer(self):
        dw = dw_spec(c=8, h=14, w=14, stride=2)
        pw = pw_spec(c_in=8, c_out=16, h=7, w=7)
        p1, p2, x, ref = _pair(dw, pw)
        res = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 3, "tile_w": 3, "tile_m": 16}
        ).simulate(x, RTX_A4000)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)

    def test_intermediate_never_in_global(self):
        dw = dw_spec(c=8, h=14, w=14)
        pw = pw_spec(c_in=8, c_out=24, h=14, w=14)
        p1, p2, x, _ = _pair(dw, pw)
        res = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 7, "tile_w": 7, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        # Global writes must be exactly the final OFM.
        assert res.counters.write_bytes == pw.ofm.nbytes
        assert res.counters.shared_bytes > 0  # commBuffer traffic happened

    def test_saves_traffic_vs_lbl(self):
        dw = dw_spec(c=16, h=28, w=28)
        pw = pw_spec(c_in=16, c_out=32, h=28, w=28)
        p1, p2, x, _ = _pair(dw, pw)
        fcm = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 7, "tile_w": 7, "tile_m": 32}
        ).simulate(x, RTX_A4000)
        l1 = build_lbl_kernel(p1, {"tile_c": 16, "tile_h": 7, "tile_w": 7}).simulate(
            x, RTX_A4000
        )
        l2 = build_lbl_kernel(p2, {"tile_m": 32, "tile_hw": 98}).simulate(
            l1.output, RTX_A4000
        )
        assert fcm.counters.total_bytes < l1.counters.total_bytes + l2.counters.total_bytes

    def test_pair_mismatch_rejected(self):
        dw = dw_spec(c=8, h=14, w=14)
        pw = pw_spec(c_in=16, c_out=24, h=14, w=14)  # wrong channel count
        p1 = make_layer_params(dw)
        p2 = make_layer_params(pw)
        with pytest.raises(ShapeError):
            build_fcm_kernel(FcmType.DWPW, p1, p2, {"tile_h": 7, "tile_w": 7, "tile_m": 8})


class TestPwDwFused:
    def test_matches_reference_no_redundancy(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12, stride=2)
        p1, p2, x, ref = _pair(pw, dw)
        res = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 4}).simulate(x, ORIN)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)
        assert res.counters.redundant_macs == 0

    def test_ifm_restreamed_per_group(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        p1, p2, x, _ = _pair(pw, dw)
        r4 = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 4}).simulate(x, ORIN)
        r16 = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 16}).simulate(x, ORIN)
        assert r4.counters.global_reads["ifm"] == 4 * r16.counters.global_reads["ifm"]

    def test_weights_read_once_total(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        p1, p2, x, _ = _pair(pw, dw)
        res = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 4}).simulate(x, ORIN)
        assert res.counters.global_reads["weights"] == (
            pw.weights_bytes + dw.weights_bytes
        )


class TestPwDwRFused:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_reference(self, stride):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12, stride=stride)
        p1, p2, x, ref = _pair(pw, dw)
        res = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 8, "tile_h": 3, "tile_w": 3}
        ).simulate(x, RTX_A4000)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)

    def test_redundancy_reported_and_positive(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        p1, p2, x, _ = _pair(pw, dw)
        res = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 8, "tile_h": 4, "tile_w": 4}
        ).simulate(x, RTX_A4000)
        assert res.counters.redundant_macs > 0
        assert 0 < res.counters.redundancy_ratio < 0.5
        # Total executed MACs conserved: useful part equals the pair's MACs.
        assert res.counters.macs == pw.macs + dw.macs

    def test_full_spatial_tile_no_redundancy(self):
        """With one spatial tile the _R variant degenerates redundancy-free."""
        pw = pw_spec(c_in=8, c_out=16, h=10, w=10)
        dw = dw_spec(c=16, h=10, w=10)
        p1, p2, x, _ = _pair(pw, dw)
        res = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 4, "tile_h": 10, "tile_w": 10}
        ).simulate(x, RTX_A4000)
        assert res.counters.redundant_macs == 0

    def test_smaller_tiles_more_redundancy(self):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12)
        dw = dw_spec(c=16, h=12, w=12)
        p1, p2, x, _ = _pair(pw, dw)
        big = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 8, "tile_h": 6, "tile_w": 6}
        ).simulate(x, RTX_A4000)
        small = build_fcm_kernel(
            FcmType.PWDW_R, p1, p2, {"tile_f": 8, "tile_h": 2, "tile_w": 2}
        ).simulate(x, RTX_A4000)
        assert small.counters.redundancy_ratio > big.counters.redundancy_ratio


class TestPwPwFused:
    def test_matches_reference(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10)
        p1, p2, x, ref = _pair(pw1, pw2)
        res = build_fcm_kernel(
            FcmType.PWPW, p1, p2, {"tile_hw": 25, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        np.testing.assert_allclose(res.output, ref, rtol=1e-4, atol=1e-4)
        assert res.counters.redundant_macs == 0

    def test_ifm_read_once(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10)
        p1, p2, x, _ = _pair(pw1, pw2)
        res = build_fcm_kernel(
            FcmType.PWPW, p1, p2, {"tile_hw": 25, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        assert res.counters.global_reads["ifm"] == pw1.ifm.nbytes

    def test_strided_second_rejected(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10, stride=2)
        p1 = make_layer_params(pw1)
        p2 = chain_quant(p1, pw2)
        with pytest.raises(UnsupportedError):
            build_fcm_kernel(FcmType.PWPW, p1, p2, {"tile_hw": 25, "tile_m": 8})


class TestInt8FusedEquivalence:
    """Fused INT8 must be bit-exact against the two-kernel LBL execution."""

    @pytest.mark.parametrize("fcm_type", [FcmType.PWDW, FcmType.PWDW_R])
    def test_pw_dw_variants(self, fcm_type):
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12, dtype=DType.INT8)
        dw = dw_spec(c=16, h=12, w=12, dtype=DType.INT8)
        p1, p2, x, _ = _pair(pw, dw)
        l1 = build_lbl_kernel(p1, {"tile_m": 8, "tile_hw": 36}).simulate(x, RTX_A4000)
        l2 = build_lbl_kernel(p2, {"tile_c": 8, "tile_h": 4, "tile_w": 4}).simulate(
            l1.output, RTX_A4000
        )
        tiling = (
            {"tile_f": 8} if fcm_type is FcmType.PWDW
            else {"tile_f": 8, "tile_h": 4, "tile_w": 4}
        )
        fused = build_fcm_kernel(fcm_type, p1, p2, tiling).simulate(x, RTX_A4000)
        np.testing.assert_array_equal(fused.output, l2.output)

    def test_dwpw(self):
        dw = dw_spec(c=8, h=12, w=12, dtype=DType.INT8)
        pw = pw_spec(c_in=8, c_out=16, h=12, w=12, dtype=DType.INT8)
        p1, p2, x, _ = _pair(dw, pw)
        l1 = build_lbl_kernel(p1, {"tile_c": 8, "tile_h": 4, "tile_w": 4}).simulate(
            x, RTX_A4000
        )
        l2 = build_lbl_kernel(p2, {"tile_m": 8, "tile_hw": 36}).simulate(
            l1.output, RTX_A4000
        )
        fused = build_fcm_kernel(
            FcmType.DWPW, p1, p2, {"tile_h": 4, "tile_w": 4, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        np.testing.assert_array_equal(fused.output, l2.output)

    def test_pwpw(self):
        pw1 = pw_spec("pw1", c_in=8, c_out=24, h=10, w=10, dtype=DType.INT8)
        pw2 = pw_spec("pw2", c_in=24, c_out=16, h=10, w=10, dtype=DType.INT8)
        p1, p2, x, _ = _pair(pw1, pw2)
        l1 = build_lbl_kernel(p1, {"tile_m": 8, "tile_hw": 25}).simulate(x, RTX_A4000)
        l2 = build_lbl_kernel(p2, {"tile_m": 8, "tile_hw": 25}).simulate(
            l1.output, RTX_A4000
        )
        fused = build_fcm_kernel(
            FcmType.PWPW, p1, p2, {"tile_hw": 25, "tile_m": 8}
        ).simulate(x, RTX_A4000)
        np.testing.assert_array_equal(fused.output, l2.output)


class TestFusedCapacity:
    def test_comm_buffer_overflow(self, tiny_gpu):
        pw = pw_spec(c_in=16, c_out=256, h=32, w=32)
        dw = dw_spec(c=256, h=32, w=32)
        p1, p2, x, _ = _pair(pw, dw)
        k = build_fcm_kernel(FcmType.PWDW, p1, p2, {"tile_f": 256})
        with pytest.raises(CapacityError):
            k.simulate(x, tiny_gpu)
