"""Whole-grid tile-size evaluation: the search families as array programs.

The scalar sweeps in :mod:`repro.planner.search` visit every pow2 candidate
with Python loops — after the fast-path engine removed kernel execution from
the profile, that interpreter-bound search became the dominant planning cost.
This module evaluates each family's *entire* candidate grid at once: the
pow2 axes are materialized as 1-D ``int64`` arrays, Eq. 2/3/4-family
feasibility and GMA become broadcast expressions over their outer product,
and the winner falls out of one stable lexsort.

Every estimator here is axis-separable: GMA and footprint terms factor into
small per-axis tables (``ceil_div`` ladders, Eq. 1 overlap terms, the
measured convention's clamped ``loaded``/``covered`` extents), so a grid of
thousands of candidates costs a handful of table builds plus a few
broadcast multiplies.  All arithmetic stays in ``int64`` — the same exact
integers the scalar path computes — and the rank order reproduces
``search._rank_key`` bit-for-bit: warp-multiple thread blocks first, then
GMA, then larger tiles, ties broken by the scalar sweep's visiting order
(C-order flat index, axes nested exactly like the reference loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.chain import FusedChain, composed_receptive_field
from ..core.fcm import FcmType
from ..errors import PlanError, UnsupportedError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from .chain_costs import (
    _stage_macs_per_elem,
    chain_axis_tables,
    chain_tiling_keys,
    chain_window_extents,
)
from .costs import STREAM_CHUNK, _check_convention, loaded_axis_table
from .fcm_costs import _validate_pair, covered_axis_table

__all__ = [
    "TilingGrid",
    "pow2_candidates",
    "lbl_grid",
    "fcm_grid",
    "chain_grid",
]


@lru_cache(maxsize=None)
def pow2_candidates(limit: int, minimum: int = 1) -> tuple[int, ...]:
    """Powers of two in ``[minimum, limit]``, always including ``limit``.

    Pure in its arguments and heavily repeated across layers (every 7x7 /
    14x14 / 28x28 zoo geometry rebuilds the same ladder), so the result is
    cached and immutable.
    """
    vals: list[int] = []
    v = minimum
    while v < limit:
        vals.append(v)
        v *= 2
    vals.append(limit)
    return tuple(sorted(set(vals)))


def _cdiv(a, b):
    """``ceil_div`` for int64 arrays (floor division identity)."""
    return -(-a // b)


def _axis(vals) -> np.ndarray:
    return np.asarray(vals, dtype=np.int64)


@lru_cache(maxsize=None)
def _pow2_axis(limit: int, minimum: int = 1) -> np.ndarray:
    """The pow2 candidate ladder as a cached (treat-as-immutable) array."""
    return _axis(pow2_candidates(limit, minimum))


@lru_cache(maxsize=None)
def _loaded_table(
    out: int, tiles: tuple[int, ...], k: int, s: int, pad: int, in_size: int
) -> np.ndarray:
    """Cached measured-convention loaded-extent table (pure in its args)."""
    return _axis(loaded_axis_table(out, tiles, k, s, pad, in_size))


@lru_cache(maxsize=None)
def _covered_table(
    out: int, tiles: tuple[int, ...], k: int, s: int, pad: int, in_size: int
) -> np.ndarray:
    """Cached measured-convention covered-extent table (pure in its args)."""
    return _axis(covered_axis_table(out, tiles, k, s, pad, in_size))


@dataclass(frozen=True)
class TilingGrid:
    """One search family's full candidate grid, evaluated as arrays.

    ``axes[i]`` holds the pow2 candidates of ``keys[i]``; the result arrays
    all broadcast to the outer-product shape, with axes ordered exactly as
    the scalar sweep nests its loops — so a C-order flat index *is* the
    scalar enumeration index, which is what makes :meth:`best` reproduce
    the reference tie-breaking.
    """

    keys: tuple[str, ...]
    axes: tuple[np.ndarray, ...]
    feasible: np.ndarray
    gma_bytes: np.ndarray
    redundant_macs: np.ndarray
    useful_macs: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    @property
    def n_candidates(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    def threads(self) -> np.ndarray:
        """Thread-block size (tile-dimension product) of every candidate."""
        n = len(self.axes)
        out = np.ones(self.shape, dtype=np.int64)
        for i, ax in enumerate(self.axes):
            out = out * ax.reshape((1,) * i + (-1,) + (1,) * (n - i - 1))
        return out

    def tiling_at(self, flat_index: int) -> dict[str, int]:
        """The tiling dict of one candidate by scalar-sweep (C-order) index."""
        idx = np.unravel_index(flat_index, self.shape)
        return {k: int(ax[i]) for k, ax, i in zip(self.keys, self.axes, idx)}

    def best(self, warp_size: int) -> tuple[dict[str, int], int, float] | None:
        """Winner under the scalar rank order, or ``None`` if none feasible.

        Returns ``(tiling, gma_bytes, redundancy_ratio)``.  A stable lexsort
        on (warp-multiple, GMA, -threads) over the feasible cells leaves
        equal-ranked candidates in ascending flat-index order — the scalar
        sweep's first-minimum-wins tie-break.
        """
        flat = np.flatnonzero(self.feasible.ravel())
        if flat.size == 0:
            return None
        idx = np.unravel_index(flat, self.shape)
        thr = self.axes[0][idx[0]]
        for ax, ii in zip(self.axes[1:], idx[1:]):
            thr = thr * ax[ii]
        gma = self.gma_bytes[idx]
        warp_bad = thr % warp_size != 0
        at = int(np.lexsort((-thr, gma, warp_bad))[0])
        sel = tuple(int(ii[at]) for ii in idx)
        red = int(self.redundant_macs[sel])
        useful = int(self.useful_macs[sel])
        total = red + useful
        ratio = red / total if total else 0.0
        tiling = {k: int(ax[i]) for k, ax, i in zip(self.keys, self.axes, sel)}
        return tiling, int(gma[at]), ratio


# ---- layer-by-layer (Eq. 2 / Eq. 3) -------------------------------------------


def lbl_grid(spec: ConvSpec, gpu: GpuSpec, convention: str = "paper") -> TilingGrid:
    """Eq. 2 / Eq. 3 GMA and feasibility over the full LBL candidate grid."""
    _check_convention(convention)
    eb = spec.dtype.nbytes
    if spec.kind is ConvKind.POINTWISE:
        m, c = spec.out_channels, spec.in_channels
        out_hw = spec.out_h * spec.out_w
        tm = _pow2_axis(m)
        thw = _pow2_axis(out_hw, 4)
        n_w = _cdiv(m, tm)[:, None]
        n_sp = _cdiv(out_hw, thw)[None, :]
        # Eq. 2 is convention-independent (1x1 filters: no halo, no clamping).
        reads = n_w * (c * out_hw) + n_sp * (m * c)
        gma = (reads + m * out_hw) * eb
        l1 = (tm[:, None] * thw[None, :] + STREAM_CHUNK * (tm[:, None] + thw[None, :])) * eb
        feasible = (l1 <= gpu.l1_bytes) & (n_w * n_sp >= gpu.sm_count)
        zeros = np.zeros(gma.shape, dtype=np.int64)
        return TilingGrid(("tile_m", "tile_hw"), (tm, thw), feasible, gma, zeros, zeros)
    if spec.kind is ConvKind.DEPTHWISE:
        c, k, s, pad = spec.in_channels, spec.kernel, spec.stride, spec.padding
        tc = _pow2_axis(c)
        th = _pow2_axis(spec.out_h)
        tw = _pow2_axis(spec.out_w)
        shape = (tc.size, th.size, tw.size)
        n_sp = _cdiv(spec.out_h, th)[:, None] * _cdiv(spec.out_w, tw)[None, :]
        weights = c * k * k
        if convention == "paper":
            # Eq. 1 overlap is a sum of one th-term and one tw-term.
            ovl = ((_cdiv(spec.in_h, th * s) - 1) * max(k - s, 0) * spec.in_w)[:, None] + (
                (_cdiv(spec.in_w, tw * s) - 1) * max(k - s, 0) * spec.in_h
            )[None, :]
            reads = 2 * c * ovl + c * spec.in_h * spec.in_w + n_sp * weights
        else:
            rows = _loaded_table(spec.out_h, pow2_candidates(spec.out_h), k, s, pad, spec.in_h)
            cols = _loaded_table(spec.out_w, pow2_candidates(spec.out_w), k, s, pad, spec.in_w)
            reads = c * rows[:, None] * cols[None, :] + n_sp * weights
        gma = np.broadcast_to(
            ((reads + c * spec.out_h * spec.out_w) * eb)[None, :, :], shape
        )
        ext_hw = ((th - 1) * s + k)[:, None] * ((tw - 1) * s + k)[None, :]
        per_c = ext_hw + th[:, None] * tw[None, :] + k * k
        l1 = tc[:, None, None] * per_c[None, :, :] * eb
        n_ofm = _cdiv(c, tc)[:, None, None] * n_sp[None, :, :]
        feasible = (l1 <= gpu.l1_bytes) & (n_ofm >= gpu.sm_count)
        zeros = np.zeros(shape, dtype=np.int64)
        return TilingGrid(("tile_c", "tile_h", "tile_w"), (tc, th, tw), feasible, gma, zeros, zeros)
    raise PlanError(f"{spec.name}: LBL search supports only DW/PW layers")


# ---- pairwise FCMs (Eq. 4 family) ---------------------------------------------


def fcm_grid(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    gpu: GpuSpec,
    convention: str = "paper",
) -> TilingGrid:
    """One pairwise FCM's GMA, redundancy and feasibility over its full grid.

    DWPW is the two-stage chain: its grid is :func:`chain_grid` of the pair.
    """
    if convention not in ("paper", "measured"):
        raise UnsupportedError(f"unknown cost convention {convention!r}")
    _validate_pair(fcm_type, first, second)
    if fcm_type is FcmType.DWPW:
        return chain_grid(FusedChain((first, second)), gpu, convention)
    eb = first.dtype.nbytes
    if fcm_type is FcmType.PWDW:
        pw, dw = first, second
        c, cmid, k = pw.in_channels, pw.out_channels, dw.kernel
        tf = _pow2_axis(cmid)
        n_f = _cdiv(cmid, tf)
        reads = n_f * (c * pw.out_h * pw.out_w) + cmid * c + cmid * k * k
        gma = (reads + cmid * dw.out_h * dw.out_w) * eb
        comm = tf * pw.out_h * pw.out_w * eb
        l1 = tf * k * k * eb + STREAM_CHUNK * (tf + pw.out_w) * eb + tf * dw.out_w * eb + comm
        feasible = (l1 <= gpu.l1_bytes) & (comm <= gpu.shared_bytes) & (n_f >= gpu.sm_count)
        zeros = np.zeros(gma.shape, dtype=np.int64)
        useful = np.broadcast_to(np.int64(pw.macs + dw.macs), gma.shape)
        return TilingGrid(("tile_f",), (tf,), feasible, gma, zeros, useful)
    if fcm_type is FcmType.PWDW_R:
        pw, dw = first, second
        c, cmid = pw.in_channels, pw.out_channels
        k, s, pad = dw.kernel, dw.stride, dw.padding
        tf = _pow2_axis(cmid)
        th = _pow2_axis(dw.out_h)
        tw = _pow2_axis(dw.out_w)
        shape = (tf.size, th.size, tw.size)
        n_f = _cdiv(cmid, tf)
        n_sp = _cdiv(dw.out_h, th)[:, None] * _cdiv(dw.out_w, tw)[None, :]
        if convention == "paper":
            ovl = ((_cdiv(dw.in_h, th * s) - 1) * max(k - s, 0) * dw.in_w)[:, None] + (
                (_cdiv(dw.in_w, tw * s) - 1) * max(k - s, 0) * dw.in_h
            )[None, :]
            ifm = (2 * c * ovl + c * pw.out_h * pw.out_w)[None, :, :] * n_f[:, None, None]
            executed = cmid * (dw.in_h * dw.in_w + ovl)
            unique = np.broadcast_to(np.int64(cmid * dw.in_h * dw.in_w), executed.shape)
        else:
            rows = _loaded_table(dw.out_h, pow2_candidates(dw.out_h), k, s, pad, dw.in_h)
            cols = _loaded_table(dw.out_w, pow2_candidates(dw.out_w), k, s, pad, dw.in_w)
            rows_u = _covered_table(dw.out_h, pow2_candidates(dw.out_h), k, s, pad, dw.in_h)
            cols_u = _covered_table(dw.out_w, pow2_candidates(dw.out_w), k, s, pad, dw.in_w)
            ifm = n_f[:, None, None] * (c * rows[:, None] * cols[None, :])[None, :, :]
            executed = cmid * rows[:, None] * cols[None, :]
            unique = cmid * rows_u[:, None] * cols_u[None, :]
        reads = ifm + (n_sp * (cmid * c) + n_sp * (cmid * k * k))[None, :, :]
        gma = (reads + cmid * dw.out_h * dw.out_w) * eb
        redundant = np.broadcast_to((np.maximum(executed - unique, 0) * c)[None, :, :], shape)
        useful = np.broadcast_to((unique * c + dw.macs)[None, :, :], shape)
        wrc = ((th - 1) * s + k)[:, None] * ((tw - 1) * s + k)[None, :]
        comm = tf[:, None, None] * wrc[None, :, :] * eb
        l1 = (
            comm
            + (tf * k * k * eb)[:, None, None]
            + STREAM_CHUNK * (tf[:, None, None] + wrc[None, :, :]) * eb
            + tf[:, None, None] * (th[:, None] * tw[None, :])[None, :, :] * eb
        )
        n_tiles = n_f[:, None, None] * n_sp[None, :, :]
        feasible = (
            (l1 <= gpu.l1_bytes) & (comm <= gpu.shared_bytes) & (n_tiles >= gpu.sm_count)
        )
        return TilingGrid(("tile_f", "tile_h", "tile_w"), (tf, th, tw), feasible, gma, redundant, useful)
    if fcm_type is FcmType.PWPW:
        pw1, pw2 = first, second
        c, cmid, m = pw1.in_channels, pw1.out_channels, pw2.out_channels
        out_hw = pw2.out_h * pw2.out_w
        thw = _pow2_axis(out_hw, 4)
        tm = _pow2_axis(m)
        shape = (thw.size, tm.size)
        n_sp = _cdiv(out_hw, thw)
        reads = c * out_hw + n_sp * (cmid * c + m * cmid)
        gma = np.broadcast_to(((reads + m * out_hw) * eb)[:, None], shape)
        comm = cmid * thw * eb
        l1 = (comm + STREAM_CHUNK * (cmid + thw) * eb)[:, None] + (
            tm[None, :] * thw[:, None] + STREAM_CHUNK * (tm[None, :] + thw[:, None])
        ) * eb
        feasible = (
            (l1 <= gpu.l1_bytes)
            & (comm[:, None] <= gpu.shared_bytes)
            & (n_sp[:, None] >= gpu.sm_count)
        )
        zeros = np.zeros(shape, dtype=np.int64)
        useful = np.broadcast_to(np.int64(pw1.macs + pw2.macs), shape)
        return TilingGrid(("tile_hw", "tile_m"), (thw, tm), feasible, gma, zeros, useful)
    raise PlanError(f"unknown FCM type {fcm_type}")


# ---- N-stage chains -----------------------------------------------------------


def chain_grid(chain: FusedChain, gpu: GpuSpec, convention: str = "paper") -> TilingGrid:
    """The compositional chain model over the full (th, tw[, tm]) grid.

    Mirrors :func:`repro.planner.chain_costs.chain_gma` /
    :func:`~repro.planner.chain_costs.chain_footprints` term for term; the
    per-boundary overlap, clamped-extent and window-extent quantities come
    from the cost module's axis tables, one entry per candidate tile size.
    """
    if convention not in ("paper", "measured"):
        raise UnsupportedError(f"unknown cost convention {convention!r}")
    n = chain.length
    first, last = chain.first, chain.last
    eb = chain.dtype.nbytes
    keys = chain_tiling_keys(chain)
    th = _pow2_axis(last.out_h)
    tw = _pow2_axis(last.out_w)
    has_tm = last.kind is ConvKind.POINTWISE
    n_sp = _cdiv(last.out_h, th)[:, None] * _cdiv(last.out_w, tw)[None, :]
    weights = sum(s.weights_elements for s in chain.specs)
    writes = last.out_channels * last.out_h * last.out_w
    in_b = 1 if first.kind is ConvKind.POINTWISE else 0

    def grid_hw(b: int) -> tuple[int, int]:
        if b == 0:
            return first.in_h, first.in_w
        sp = chain.specs[b - 1]
        return sp.out_h, sp.out_w

    sp_shape = (th.size, tw.size)
    redundant = np.zeros(sp_shape, dtype=np.int64)
    useful = np.full(sp_shape, last.macs, dtype=np.int64)
    if convention == "paper":

        def ovl_at(b: int) -> np.ndarray:
            h, w = grid_hw(b)
            k_eff, s_eff = composed_receptive_field(chain.specs[b:])
            o = max(k_eff - s_eff, 0)
            return ((_cdiv(h, th * s_eff) - 1) * o * w)[:, None] + (
                (_cdiv(w, tw * s_eff) - 1) * o * h
            )[None, :]

        h_in, w_in = grid_hw(in_b)
        ifm = first.in_channels * (2 * ovl_at(in_b) + h_in * w_in)
        for b in range(1, n):
            h, w = grid_hw(b)
            stage = chain.specs[b - 1]
            mpe = _stage_macs_per_elem(stage)
            redundant = redundant + stage.out_channels * ovl_at(b) * mpe
            useful = useful + stage.out_channels * h * w * mpe
    else:
        row_tot, row_cov = chain_axis_tables(chain, th.tolist(), 0)
        col_tot, col_cov = chain_axis_tables(chain, tw.tolist(), 1)
        ifm = first.in_channels * _axis(row_tot[in_b])[:, None] * _axis(col_tot[in_b])[None, :]
        for b in range(1, n):
            stage = chain.specs[b - 1]
            mpe = _stage_macs_per_elem(stage)
            executed = stage.out_channels * _axis(row_tot[b])[:, None] * _axis(col_tot[b])[None, :]
            unique = stage.out_channels * _axis(row_cov[b])[:, None] * _axis(col_cov[b])[None, :]
            redundant = redundant + (executed - unique) * mpe
            useful = useful + unique * mpe
    gma = (ifm + n_sp * weights + writes) * eb

    # Footprints: commBuffers from the worst-case window extents, plus the
    # same per-stage residency terms as chain_footprints.
    eh = [_axis(v) for v in chain_window_extents(chain, th.tolist())]
    ew = [_axis(v) for v in chain_window_extents(chain, tw.tolist())]
    comms = [
        chain.specs[b - 1].out_channels * eh[b][:, None] * ew[b][None, :] * eb
        for b in range(1, n)
    ]
    if n == 2:
        shared = comms[0]
    else:
        shared = None
        for j in range(len(comms)):
            pair = comms[j] + (comms[j + 1] if j + 1 < len(comms) else 0)
            shared = pair if shared is None else np.maximum(shared, pair)
    l1 = sum(comms)
    if first.kind is ConvKind.DEPTHWISE:
        l1 = l1 + first.in_channels * eh[0][:, None] * ew[0][None, :] * eb
        l1 = l1 + first.in_channels * first.kernel * first.kernel * eb
    else:
        l1 = l1 + STREAM_CHUNK * (first.out_channels + eh[1][:, None] * ew[1][None, :]) * eb
    for b in range(2, n):
        stage = chain.specs[b - 1]
        if stage.kind is ConvKind.DEPTHWISE:
            l1 = l1 + stage.out_channels * stage.kernel * stage.kernel * eb
        else:
            l1 = l1 + STREAM_CHUNK * (stage.out_channels + eh[b][:, None] * ew[b][None, :]) * eb

    if has_tm:
        tm = _pow2_axis(last.out_channels)
        shape = (th.size, tw.size, tm.size)
        thw = th[:, None, None] * tw[None, :, None]
        l1_3 = l1[:, :, None] + (
            tm[None, None, :] * thw + STREAM_CHUNK * (tm[None, None, :] + thw)
        ) * eb
        feasible = (
            (l1_3 <= gpu.l1_bytes)
            & (shared[:, :, None] <= gpu.shared_bytes)
            & (n_sp[:, :, None] >= gpu.sm_count)
        )
        return TilingGrid(
            keys,
            (th, tw, tm),
            feasible,
            np.broadcast_to(gma[:, :, None], shape),
            np.broadcast_to(redundant[:, :, None], shape),
            np.broadcast_to(useful[:, :, None], shape),
        )
    l1 = l1 + last.out_channels * last.kernel * last.kernel * eb
    l1 = l1 + last.out_channels * th[:, None] * tw[None, :] * eb
    feasible = (l1 <= gpu.l1_bytes) & (shared <= gpu.shared_bytes) & (n_sp >= gpu.sm_count)
    return TilingGrid(keys, (th, tw), feasible, gma, redundant, useful)
