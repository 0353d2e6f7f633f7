"""Generic fused-chain kernel: N conv stages, one launch, on-chip intermediates.

This kernel executes an arbitrary-length
:class:`~repro.core.chain.FusedChain` with the spatial-tiling discipline the
chain cost models price (:mod:`repro.planner.chain_costs`):

* one thread block owns a ``tile_h x tile_w`` tile of the *final* stage's
  output; the required window of every earlier boundary is found by walking
  the stage geometries backward (the same ``tile_input_range`` composition
  the cost model uses, so metered bytes match the measured-convention
  estimates exactly);
* each intermediate is computed over its halo-extended window into a shared
  commBuffer; a buffer is freed as soon as the consuming stage finishes, so
  at most two commBuffers are live at once (the capacity rule
  :func:`~repro.planner.chain_costs.chain_footprints` enforces);
* halo elements of any boundary feeding a later DW stage are recomputed by
  every sharing block — :meth:`finalize` reclassifies them as redundant
  MACs, generalizing the PWDW_R accounting;
* a final PW stage streams its filter matrix in ``tile_m`` groups against
  the resident last commBuffer; a final DW stage consumes it channel-wise.

At length 2 over a DW->PW pair this *is* the paper's DWPW module (Fig. 3b,
4): all channels of a spatial tile's DW output stay in one commBuffer and
the PW filters stream against it in ``tile_m`` groups, with no redundant
computation.  The registry builds every DWPW plan step on this kernel; the
PWDW, PWDW_R and PWPW modules keep their specialized kernels, whose
channel-grouped (``tile_f``) and flat (``tile_hw``) vocabularies the chain
dataflow cannot express.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.chain import FusedChain
from ..core.dtypes import DType
from ..core.tiling import ceil_div, tile_input_range
from ..errors import CapacityError, ShapeError
from ..gpu.counters import AccessCounters
from ..gpu.fastpath import grid_depthwise, grid_matmul
from ..gpu.memory import SharedMemory
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind
from .base import SimKernel
from .direct_dw import depthwise_tile
from .params import LayerParams

__all__ = ["FusedChainKernel"]


class FusedChainKernel(SimKernel):
    """Simulated N-stage fused kernel exchanging intermediates via shared memory."""

    def __init__(
        self,
        stages: Sequence[LayerParams],
        tile_h: int,
        tile_w: int,
        tile_m: int | None = None,
    ) -> None:
        self.stages = list(stages)
        self.chain = FusedChain(tuple(p.spec for p in self.stages))
        last = self.chain.last
        self.dtype: DType = self.chain.dtype
        self.name = f"fcm_chain[{self.chain.name}]"
        self.tile_h = min(tile_h, last.out_h)
        self.tile_w = min(tile_w, last.out_w)
        if last.kind is ConvKind.POINTWISE:
            if tile_m is None:
                raise ShapeError(f"{self.name}: a final PW stage needs tile_m")
            self.tile_m: int | None = min(tile_m, last.out_channels)
        else:
            self.tile_m = None
        self._counters: AccessCounters | None = None

    def _tiling(self) -> dict[str, int]:
        t = {"tile_h": self.tile_h, "tile_w": self.tile_w}
        if self.tile_m is not None:
            t["tile_m"] = self.tile_m
        return t

    # ---- capacity -------------------------------------------------------------
    def check_capacity(self, gpu: GpuSpec) -> None:
        from ..planner.chain_costs import chain_footprints

        l1, shared, _ = chain_footprints(self.chain, self._tiling())
        if l1 > gpu.l1_bytes:
            raise CapacityError(
                f"{self.name}: working set {l1}B exceeds L1 {gpu.l1_bytes}B"
            )
        if shared > gpu.shared_bytes:
            raise CapacityError(
                f"{self.name}: commBuffers {shared}B exceed shared {gpu.shared_bytes}B"
            )

    # ---- launch ---------------------------------------------------------------
    def grid(self) -> Sequence[tuple[int, ...]]:
        def build() -> list[tuple[int, ...]]:
            last = self.chain.last
            nh = ceil_div(last.out_h, self.tile_h)
            nw = ceil_div(last.out_w, self.tile_w)
            return [(hi, wi) for hi in range(nh) for wi in range(nw)]

        return self._memo_grid(build)

    def bind(self, ifm: np.ndarray, counters: AccessCounters) -> None:
        first = self.chain.first
        if ifm.shape != first.ifm.shape:
            raise ShapeError(
                f"{self.name}: IFM shape {ifm.shape} != {first.ifm.shape}"
            )
        if first.kind is ConvKind.POINTWISE:
            # A strided first PW touches only the subsampled pixels; bind that
            # view on the boundary-1 grid so later DW windows index it directly.
            s = first.stride
            x = np.ascontiguousarray(ifm[:, ::s, ::s])
        else:
            x = ifm
        self._ifm = self.make_buffer("ifm", x, "ifm", counters)
        self._weights = [
            self.make_buffer(f"w{i}_{p.spec.name}", p.weights, "weights", counters)
            for i, p in enumerate(self.stages)
        ]
        out = self._fresh_output(self.chain.last.ofm.shape, self.dtype.np_dtype)
        self._out = self.make_buffer("ofm", out, "ofm", counters)
        self._counters = counters

    def _block_ranges(
        self, r0: int, r1: int, q0: int, q1: int
    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Per-boundary clamped ((row lo, hi), (col lo, hi)) for one block.

        Index ``b`` is the boundary (0 = chain input, N = final output);
        the same backward composition as the chain cost model.
        """
        rows, cols = (r0, r1), (q0, q1)
        per = [(rows, cols)]
        for spec in reversed(self.chain.specs):
            rows = tile_input_range(
                rows[0], rows[1] - rows[0], spec.kernel, spec.stride, spec.padding, spec.in_h
            )
            cols = tile_input_range(
                cols[0], cols[1] - cols[0], spec.kernel, spec.stride, spec.padding, spec.in_w
            )
            per.append((rows, cols))
        per.reverse()
        return per

    def run_block(self, coord: tuple[int, ...], shared: SharedMemory) -> None:
        hi, wi = coord
        specs = self.chain.specs
        n = len(specs)
        last = self.chain.last
        acc_t = self.dtype.acc_dtype
        r0 = hi * self.tile_h
        r1 = min(r0 + self.tile_h, last.out_h)
        q0 = wi * self.tile_w
        q1 = min(q0 + self.tile_w, last.out_w)
        ranges = self._block_ranges(r0, r1, q0, q1)

        # Boundary the block reads from global memory: a first PW stage reads
        # input pixels 1:1 with the boundary-1 window it computes.
        in_b = 1 if specs[0].kind is ConvKind.POINTWISE else 0
        (lo_r, hi_r), (lo_q, hi_q) = ranges[in_b]
        cur = self._ifm.load((slice(None), slice(lo_r, hi_r), slice(lo_q, hi_q)))
        cur_origin = (lo_r, lo_q)  # where `cur` sits on boundary (stage input) grid

        prev_slot: str | None = None
        for i, (params, spec) in enumerate(zip(self.stages, specs)):
            stage_last = i == n - 1
            (o_lo_r, o_hi_r), (o_lo_q, o_hi_q) = ranges[i + 1]
            nr, nc = o_hi_r - o_lo_r, o_hi_q - o_lo_q
            # A first PW stage reads the pre-subsampled view: its window is
            # indexed on the boundary-1 grid, pixel-per-output (stride 1).
            pw_stride = 1 if i == 0 and in_b == 1 else spec.stride
            if spec.kind is ConvKind.DEPTHWISE:
                weights = self._weights[i].load(slice(None))
                acc = depthwise_tile(
                    window=cur.astype(acc_t, copy=False),
                    weights=weights,
                    rows_out=nr,
                    cols_out=nc,
                    row_off=cur_origin[0] - (o_lo_r * spec.stride - spec.padding),
                    col_off=cur_origin[1] - (o_lo_q * spec.stride - spec.padding),
                    kernel=spec.kernel,
                    stride=spec.stride,
                    acc_dtype=acc_t,
                )
                y = params.epilogue.apply(acc, 0, spec.out_channels, self.dtype)
                self._counters.compute(
                    spec.out_channels * nr * nc * spec.kernel * spec.kernel
                )
                if stage_last:
                    self._out.store(
                        (slice(None), slice(o_lo_r, o_hi_r), slice(o_lo_q, o_hi_q)), y
                    )
            elif stage_last:
                # Final PW: stream filter groups against the resident window.
                assert self.tile_m is not None
                x = _pw_window(cur, cur_origin, o_lo_r, nr, o_lo_q, nc, pw_stride)
                xf = x.reshape(spec.in_channels, nr * nc).astype(acc_t)
                m_total = spec.out_channels
                for mi in range(ceil_div(m_total, self.tile_m)):
                    m0 = mi * self.tile_m
                    m1 = min(m0 + self.tile_m, m_total)
                    w_tile = self._weights[i].load((slice(m0, m1), slice(None)))
                    if prev_slot is not None and mi > 0:
                        # Re-reads of the resident commBuffer per filter group.
                        shared.read(prev_slot)
                    acc = w_tile.astype(acc_t) @ xf
                    y = params.epilogue.apply(acc, m0, m1, self.dtype)
                    self._out.store(
                        (slice(m0, m1), slice(o_lo_r, o_hi_r), slice(o_lo_q, o_hi_q)),
                        y.reshape(m1 - m0, nr, nc),
                    )
                    self._counters.compute((m1 - m0) * spec.in_channels * nr * nc)
            else:
                # Interior PW: full filter matrix over the required window.
                x = _pw_window(cur, cur_origin, o_lo_r, nr, o_lo_q, nc, pw_stride)
                w_full = self._weights[i].load((slice(None), slice(None)))
                acc = w_full.astype(acc_t) @ x.reshape(spec.in_channels, nr * nc).astype(acc_t)
                y = params.epilogue.apply(acc, 0, spec.out_channels, self.dtype)
                y = y.reshape(spec.out_channels, nr, nc)
                self._counters.compute(spec.out_channels * spec.in_channels * nr * nc)

            if not stage_last:
                slot = f"comm{i + 1}"
                shared.alloc(slot, (spec.out_channels, nr, nc), y.dtype, self.dtype.nbytes)
                shared.write(slot, y)
                if prev_slot is not None:
                    shared.free(prev_slot)
                cur = shared.read(slot)
                cur_origin = (o_lo_r, o_lo_q)
                prev_slot = slot

    def _axis_extents(self, vertical: bool) -> list[list[int]]:
        """Per-boundary clamped extents along one axis, one entry per tile.

        ``out[b][t]`` is the row (or column) extent of boundary ``b``'s
        window in tile ``t`` — the same backward composition
        :meth:`_block_ranges` performs, but separable per axis because
        :func:`~repro.core.tiling.tile_input_range` composes rows and
        columns independently.
        """
        last = self.chain.last
        total = last.out_h if vertical else last.out_w
        tile = self.tile_h if vertical else self.tile_w
        per_tile: list[list[tuple[int, int]]] = []
        for t0 in range(0, total, tile):
            rng = (t0, min(t0 + tile, total))
            per = [rng]
            for spec in reversed(self.chain.specs):
                in_size = spec.in_h if vertical else spec.in_w
                rng = tile_input_range(
                    rng[0], rng[1] - rng[0], spec.kernel, spec.stride,
                    spec.padding, in_size,
                )
                per.append(rng)
            per.reverse()
            per_tile.append(per)
        n_bounds = len(self.chain.specs) + 1
        return [
            [per[b][1] - per[b][0] for per in per_tile] for b in range(n_bounds)
        ]

    def run_grid(self) -> int:
        """Whole-grid fast path: the chain as N full-tensor stage passes.

        Bulk charges come from the separable per-axis window extents every
        interpreted block derives with :meth:`_block_ranges`: stage weights
        stream once per spatial tile (a final PW streams per filter group,
        summing to the same total), intermediate commBuffers see one write
        plus one read each (plus the final PW's per-group re-reads), and the
        halo-extended stage extents reproduce the redundant compute that
        :meth:`finalize` later reclassifies.
        """
        specs = self.chain.specs
        n = len(specs)
        eb = self.dtype.nbytes
        rows = self._axis_extents(vertical=True)
        cols = self._axis_extents(vertical=False)
        sum_r = [sum(r) for r in rows]
        sum_c = [sum(c) for c in cols]
        n_sp = len(rows[0]) * len(cols[0])
        in_b = 1 if specs[0].kind is ConvKind.POINTWISE else 0
        last = self.chain.last
        n_groups = (
            ceil_div(last.out_channels, self.tile_m)
            if last.kind is ConvKind.POINTWISE
            else 0
        )
        ctr = self._counters
        ctr.read_bulk("ifm", specs[0].in_channels * sum_r[in_b] * sum_c[in_b] * eb)
        for i, spec in enumerate(specs):
            if spec.kind is ConvKind.DEPTHWISE:
                per_block_w = spec.out_channels * spec.kernel * spec.kernel
                stage_macs = (
                    spec.out_channels * spec.kernel * spec.kernel
                    * sum_r[i + 1] * sum_c[i + 1]
                )
            else:
                per_block_w = spec.out_channels * spec.in_channels
                stage_macs = (
                    spec.out_channels * spec.in_channels * sum_r[i + 1] * sum_c[i + 1]
                )
            ctr.read_bulk("weights", per_block_w * eb, n_sp)
            ctr.compute(stage_macs)
        ctr.write_bulk("ofm", last.out_channels * sum_r[n] * sum_c[n] * eb)
        # commBuffer traffic: slot i (stage i's output window) is written
        # once and read once when consumed; a final PW re-reads the last
        # slot once per extra filter group.
        comm_totals = [
            specs[i].out_channels * sum_r[i + 1] * sum_c[i + 1] * eb
            for i in range(n - 1)
        ]
        for total in comm_totals:
            ctr.smem_bulk(2 * total)
        if n_groups > 1:
            ctr.smem_bulk((n_groups - 1) * comm_totals[-1])

        # Peak shared bytes: walk every block's alloc/free timeline (sizes
        # are per-axis products, so this is integer-only and tiny).
        peak = 0
        for hi in range(len(rows[0])):
            for wi in range(len(cols[0])):
                sizes = [
                    specs[i].out_channels * rows[i + 1][hi] * cols[i + 1][wi] * eb
                    for i in range(n - 1)
                ]
                block_peak = sizes[0]
                for a, b in zip(sizes, sizes[1:]):
                    block_peak = max(block_peak, a + b)
                peak = max(peak, block_peak)

        # Functional pass: every stage over its full tensor.
        acc_t = self.dtype.acc_dtype
        cur = self._ifm.array
        for i, (params, spec) in enumerate(zip(self.stages, specs)):
            if spec.kind is ConvKind.DEPTHWISE:
                acc = grid_depthwise(
                    window=cur,
                    weights=self._weights[i].array,
                    rows_out=spec.out_h,
                    cols_out=spec.out_w,
                    row_off=spec.padding,
                    col_off=spec.padding,
                    kernel=spec.kernel,
                    stride=spec.stride,
                    acc_dtype=acc_t,
                )
                cur = params.epilogue.apply(acc, 0, spec.out_channels, self.dtype)
            else:
                # A first PW reads the pre-subsampled view bound at stride 1.
                pw_stride = 1 if i == 0 and in_b == 1 else spec.stride
                x = cur if pw_stride == 1 else cur[:, ::pw_stride, ::pw_stride]
                acc = grid_matmul(
                    self._weights[i].array,
                    np.ascontiguousarray(x).reshape(spec.in_channels, -1),
                    acc_t,
                )
                cur = params.epilogue.apply(acc, 0, spec.out_channels, self.dtype)
                cur = cur.reshape(spec.out_channels, spec.out_h, spec.out_w)
        self._out.array[...] = cur
        return peak

    def output_array(self) -> np.ndarray:
        return self._out.array

    def weight_bytes(self) -> int:
        return self.chain.weights_bytes

    def finalize(self, counters: AccessCounters) -> None:
        """Reclassify recomputed halo elements and annotate re-reads.

        The analytic :func:`~repro.planner.analytic.chain_counters` uses the
        same backward range composition, so its useful/redundant split and
        re-read annotations apply to this launch byte-for-byte.
        """
        from ..planner.analytic import chain_counters

        ref = chain_counters(self.chain.specs, self._tiling())
        counters.macs -= ref.redundant_macs
        counters.redundant_macs += ref.redundant_macs
        counters.rereads.extend(ref.rereads)


def _pw_window(
    cur: np.ndarray,
    origin: tuple[int, int],
    o_lo_r: int,
    nr: int,
    o_lo_q: int,
    nc: int,
    stride: int,
) -> np.ndarray:
    """Select the input pixels a PW stage needs from the resident window."""
    ro = o_lo_r * stride - origin[0]
    co = o_lo_q * stride - origin[1]
    return cur[
        :,
        ro : ro + (nr - 1) * stride + 1 : stride,
        co : co + (nc - 1) * stride + 1 : stride,
    ]
