"""Analytic counter builders with L2 re-read annotations.

These produce :class:`~repro.gpu.counters.AccessCounters` byte-identical to
what the simulated kernels meter, plus *re-read annotations*: portions of the
read traffic that revisit a tensor already streamed once (weight tiles
re-fetched per spatial tile, IFMs re-streamed per filter group, halo lines).
The roofline serves re-reads of L2-resident tensors on-chip, which is what
lets weight-heavy layers (e.g. Xception's 728-channel middle flow) run at
paper-like speed despite their nominal GMA.
"""

from __future__ import annotations

from typing import Mapping

from ..core.chain import FusedChain
from ..core.fcm import FcmType
from ..core.tiling import DwTiling, PwTiling, ceil_div
from ..errors import UnsupportedError
from ..gpu.counters import AccessCounters
from ..ir.layers import ConvKind, ConvSpec
from .chain_costs import chain_gma
from .costs import lbl_gma
from .fcm_costs import fcm_gma

__all__ = ["lbl_counters", "fcm_counters", "chain_counters", "pair_lbl_counters"]


def _pw_rereads(spec: ConvSpec, tiling: PwTiling, counters: AccessCounters) -> None:
    eb = spec.dtype.nbytes
    out_hw = spec.out_h * spec.out_w
    tile_m = min(tiling.tile_m, spec.out_channels)
    tile_hw = min(tiling.tile_hw, out_hw)
    n_w = ceil_div(spec.out_channels, tile_m)
    n_sp = ceil_div(out_hw, tile_hw)
    ifm_pass = spec.in_channels * out_hw * eb
    w = spec.weights_elements * eb
    counters.reread(ifm_pass, (n_w - 1) * ifm_pass)
    counters.reread(w, (n_sp - 1) * w)


def _dw_rereads(spec: ConvSpec, tiling: DwTiling, counters: AccessCounters) -> None:
    eb = spec.dtype.nbytes
    tile_h = min(tiling.tile_h, spec.out_h)
    tile_w = min(tiling.tile_w, spec.out_w)
    n_sp = ceil_div(spec.out_h, tile_h) * ceil_div(spec.out_w, tile_w)
    w = spec.weights_elements * eb
    counters.reread(w, (n_sp - 1) * w)
    # Halo re-loads: everything the kernel read beyond one IFM pass.
    ifm_bytes = spec.ifm.nbytes
    halo = counters.global_reads.get("lbl", counters.read_bytes) - w * n_sp - ifm_bytes
    counters.reread(ifm_bytes, max(halo, 0))


def lbl_counters(spec: ConvSpec, tiling: Mapping[str, int]) -> AccessCounters:
    """Counters of one layer-by-layer kernel launch (measured convention)."""
    if spec.kind is ConvKind.POINTWISE:
        t = PwTiling(tiling["tile_m"], tiling["tile_hw"])
    elif spec.kind is ConvKind.DEPTHWISE:
        t = DwTiling(tiling["tile_c"], tiling["tile_h"], tiling["tile_w"])
    else:
        raise UnsupportedError(f"{spec.name}: no LBL counters for {spec.kind}")
    est = lbl_gma(spec, t, "measured")
    counters = AccessCounters()
    counters.kernel_launches = 1
    counters.read("lbl", est.read_bytes)
    counters.write("lbl", est.write_bytes)
    counters.compute(spec.macs)
    if spec.kind is ConvKind.POINTWISE:
        _pw_rereads(spec, t, counters)
    else:
        _dw_rereads(spec, t, counters)
    return counters


def fcm_counters(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    tiling: Mapping[str, int],
) -> AccessCounters:
    """Counters of one fused-module launch (redundant MACs included).

    A DWPW module is a two-stage chain: its counters are
    :func:`chain_counters` of the pair.
    """
    if fcm_type is FcmType.DWPW:
        return chain_counters((first, second), tiling)
    cost = fcm_gma(fcm_type, first, second, tiling, "measured")
    counters = AccessCounters()
    counters.kernel_launches = 1
    counters.read("fcm", cost.gma.read_bytes)
    counters.write("fcm", cost.gma.write_bytes)
    counters.compute(cost.useful_macs, cost.redundant_macs)
    eb = first.dtype.nbytes
    w1 = first.weights_elements * eb
    w2 = second.weights_elements * eb
    if fcm_type is FcmType.PWDW:
        pw = first
        tile_f = min(tiling["tile_f"], pw.out_channels)
        n_f = ceil_div(pw.out_channels, tile_f)
        ifm_pass = pw.in_channels * pw.out_h * pw.out_w * eb
        counters.reread(ifm_pass, (n_f - 1) * ifm_pass)
    elif fcm_type is FcmType.PWDW_R:
        pw, dw = first, second
        tile_f = min(tiling["tile_f"], pw.out_channels)
        tile_h = min(tiling["tile_h"], dw.out_h)
        tile_w = min(tiling["tile_w"], dw.out_w)
        n_f = ceil_div(pw.out_channels, tile_f)
        n_sp = ceil_div(dw.out_h, tile_h) * ceil_div(dw.out_w, tile_w)
        counters.reread(w1, (n_sp - 1) * w1)
        counters.reread(w2, (n_sp - 1) * w2)
        ifm_pass = pw.in_channels * pw.out_h * pw.out_w * eb
        ifm_extra = counters.read_bytes - n_sp * (w1 + w2) - ifm_pass
        counters.reread(ifm_pass, max(ifm_extra, 0))
    elif fcm_type is FcmType.PWPW:
        pw2 = second
        out_hw = pw2.out_h * pw2.out_w
        tile_hw = min(tiling["tile_hw"], out_hw)
        n_sp = ceil_div(out_hw, tile_hw)
        counters.reread(w1, (n_sp - 1) * w1)
        counters.reread(w2, (n_sp - 1) * w2)
    return counters


def chain_counters(
    specs: tuple[ConvSpec, ...],
    tiling: Mapping[str, int],
    fcm_type: FcmType | None = None,
) -> AccessCounters:
    """Counters of one fused-chain launch (redundant MACs included).

    Length-2 chains with a pairwise ``fcm_type`` delegate to
    :func:`fcm_counters` so the PWDW / PWDW_R / PWPW annotations are
    preserved byte-for-byte (DWPW comes straight back here); everything
    else uses the compositional chain estimator.
    """
    if fcm_type is not None and len(specs) == 2:
        return fcm_counters(fcm_type, specs[0], specs[1], tiling)
    chain = FusedChain(specs)
    cost = chain_gma(chain, tiling, "measured")
    counters = AccessCounters()
    counters.kernel_launches = 1
    counters.read("fcm", cost.gma.read_bytes)
    counters.write("fcm", cost.gma.write_bytes)
    counters.compute(cost.useful_macs, cost.redundant_macs)
    # Re-read annotations: every stage's weights stream once per spatial
    # tile; any input traffic beyond one pass over the (subsampled) IFM is
    # halo re-loading of an L2-resident tensor.
    eb = chain.dtype.nbytes
    first, last = chain.first, chain.last
    tile_h = min(tiling["tile_h"], last.out_h)
    tile_w = min(tiling["tile_w"], last.out_w)
    n_sp = ceil_div(last.out_h, tile_h) * ceil_div(last.out_w, tile_w)
    for spec in chain.specs:
        w = spec.weights_elements * eb
        counters.reread(w, (n_sp - 1) * w)
    if first.kind is ConvKind.POINTWISE:
        ifm_pass = first.in_channels * first.out_h * first.out_w * eb
    else:
        ifm_pass = first.ifm.nbytes
    total_w = chain.weights_bytes
    ifm_extra = counters.read_bytes - n_sp * total_w - ifm_pass
    counters.reread(ifm_pass, max(ifm_extra, 0))
    return counters


def pair_lbl_counters(
    first: ConvSpec,
    second: ConvSpec,
    first_tiling: Mapping[str, int],
    second_tiling: Mapping[str, int],
) -> AccessCounters:
    """Counters of the two-kernel layer-by-layer execution of a pair."""
    agg = lbl_counters(first, first_tiling)
    agg.merge(lbl_counters(second, second_tiling))
    return agg
