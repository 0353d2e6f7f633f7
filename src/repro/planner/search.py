"""Tile-size search: enumerate feasible tilings and minimize estimated GMA.

FusePlanner "explores all tile sizes that meet the constraints in Equations
2, 3 and 4 and identifies the ones that minimize the global memory accesses"
(§IV-B), with candidates "restricted to multiples of the warp size to avoid
resource underutilization".  The warp rule applies to a thread block's
*thread count* — the product of the tile dimensions — so late layers with
tiny spatial extents (7x7) can still trade pixels for filters.  Among
feasible configurations, warp-multiple blocks are preferred, then minimum
GMA, then larger tiles (fewer blocks) as the tie-break.

Two engines implement the same search contract, mirroring the kernel
simulator's ``fast``/``reference`` split (:mod:`repro.gpu.fastpath`):

* ``vectorized`` (default) — the whole candidate grid evaluated as array
  programs (:mod:`repro.planner.grid_search`);
* ``reference`` — the original scalar sweep, kept as the oracle the parity
  suite compares against.

Both produce bit-identical :class:`SearchResult` winners; an optional
:class:`repro.planner.memo.GeometryMemo` caches winners across planner
instances (and, persisted, across processes).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Mapping

from ..core.chain import FusedChain
from ..core.fcm import FcmType
from ..core.tiling import DwTiling, PwTiling
from ..errors import PlanError, UnsupportedError
from ..gpu.specs import GpuSpec
from ..ir.layers import ConvKind, ConvSpec
from .chain_costs import chain_feasible, chain_gma
from .costs import dw_feasible, dw_gma, pw_feasible, pw_gma
from .fcm_costs import FcmCost, fcm_feasible, fcm_gma
from .grid_search import chain_grid, fcm_grid, lbl_grid, pow2_candidates

__all__ = [
    "SearchResult",
    "SEARCH_ENGINES",
    "DEFAULT_SEARCH_ENGINE",
    "resolve_search_engine",
    "best_lbl_tiling",
    "best_fcm_tiling",
    "best_chain_tiling",
    "enumerate_lbl_tilings",
    "enumerate_fcm_tilings",
    "enumerate_chain_tilings",
]


@dataclass(frozen=True)
class SearchResult:
    """Winner of one tile-size sweep."""

    tiling: dict[str, int]
    gma_bytes: int
    redundancy_ratio: float = 0.0


SEARCH_ENGINES = ("vectorized", "reference")

#: The whole-grid array evaluation is the default everywhere; the scalar
#: per-candidate sweep stays available as the reference oracle.
DEFAULT_SEARCH_ENGINE = "vectorized"


def resolve_search_engine(engine: str | None) -> str:
    """Normalize a search-engine name (``None`` -> the default), or raise."""
    if engine is None:
        return DEFAULT_SEARCH_ENGINE
    if engine not in SEARCH_ENGINES:
        raise UnsupportedError(
            f"unknown search engine {engine!r}; choose from {SEARCH_ENGINES}"
        )
    return engine


def _pow2_upto(limit: int, minimum: int = 1) -> tuple[int, ...]:
    """Powers of two in [minimum, limit], always including ``limit`` itself."""
    return pow2_candidates(limit, minimum)


def _rank_key(tiling: Mapping[str, int], gma: int, warp: int) -> tuple[int, int, int]:
    """Search ordering: warp-multiple blocks first, then GMA, then big tiles."""
    threads = prod(tiling.values())
    return (0 if threads % warp == 0 else 1, gma, -threads)


def _best(
    scored: Iterable[tuple[tuple[int, int, int], dict[str, int], float]],
) -> tuple[dict[str, int], int, float] | None:
    """Pick the minimum-ranked configuration; returns (tiling, gma, redund)."""
    best = None
    for key, tiling, redundancy in scored:
        if best is None or key < best[0]:
            best = (key, tiling, redundancy)
    if best is None:
        return None
    return best[1], best[0][1], best[2]


def enumerate_lbl_tilings(spec: ConvSpec, gpu: GpuSpec) -> list[dict[str, int]]:
    """All *feasible* LBL tiling dicts for one DW/PW layer, in sweep order.

    The grid the planner minimizes over — and the candidate space the
    :mod:`repro.tune` measurement harness searches by observed cost.
    """
    out: list[dict[str, int]] = []
    if spec.kind is ConvKind.POINTWISE:
        out_hw = spec.out_h * spec.out_w
        for tm in _pow2_upto(spec.out_channels):
            for thw in _pow2_upto(out_hw, minimum=4):
                if pw_feasible(spec, PwTiling(tm, thw), gpu):
                    out.append({"tile_m": tm, "tile_hw": thw})
    elif spec.kind is ConvKind.DEPTHWISE:
        for tc in _pow2_upto(spec.in_channels):
            for th in _pow2_upto(spec.out_h):
                for tw in _pow2_upto(spec.out_w):
                    if dw_feasible(spec, DwTiling(tc, th, tw), gpu):
                        out.append({"tile_c": tc, "tile_h": th, "tile_w": tw})
    else:
        raise PlanError(f"{spec.name}: LBL search supports only DW/PW layers")
    return out


def _search_lbl(spec: ConvSpec, gpu: GpuSpec, convention: str, engine: str) -> SearchResult | None:
    if engine == "vectorized":
        win = lbl_grid(spec, gpu, convention).best(gpu.warp_size)
        if win is None:
            return None
        return SearchResult(tiling=win[0], gma_bytes=win[1])
    scored: list[tuple[tuple[int, int, int], dict[str, int], float]] = []
    for d in enumerate_lbl_tilings(spec, gpu):
        if spec.kind is ConvKind.POINTWISE:
            gma = pw_gma(spec, PwTiling(d["tile_m"], d["tile_hw"]), convention).total_bytes
        else:
            gma = dw_gma(
                spec, DwTiling(d["tile_c"], d["tile_h"], d["tile_w"]), convention
            ).total_bytes
        scored.append((_rank_key(d, gma, gpu.warp_size), d, 0.0))
    win = _best(scored)
    if win is None:
        return None
    return SearchResult(tiling=win[0], gma_bytes=win[1])


def best_lbl_tiling(
    spec: ConvSpec,
    gpu: GpuSpec,
    convention: str = "paper",
    *,
    engine: str | None = None,
    memo=None,
) -> SearchResult:
    """Minimize Eq. 2 / Eq. 3 over the feasible tile grid for one layer.

    ``engine`` picks the grid evaluation (:data:`SEARCH_ENGINES`); ``memo``
    is an optional :class:`repro.planner.memo.GeometryMemo` consulted before
    searching.
    """
    engine = resolve_search_engine(engine)
    if memo is None:
        res = _search_lbl(spec, gpu, convention, engine)
    else:
        res = memo.get_or_search(
            memo.lbl_key(spec, gpu, convention),
            lambda: _search_lbl(spec, gpu, convention, engine),
        )
    if res is None:
        raise PlanError(
            f"{spec.name}: no feasible LBL tiling on {gpu.name} "
            f"(L1 {gpu.l1_kb}KiB, {gpu.sm_count} SMs)"
        )
    return res


def _fcm_tiling_candidates(
    fcm_type: FcmType, first: ConvSpec, second: ConvSpec
) -> list[dict[str, int]]:
    if fcm_type is FcmType.DWPW:
        return _chain_tiling_candidates(FusedChain((first, second)))
    if fcm_type is FcmType.PWDW:
        return [{"tile_f": tf} for tf in _pow2_upto(first.out_channels)]
    if fcm_type is FcmType.PWDW_R:
        dw = second
        return [
            {"tile_f": tf, "tile_h": th, "tile_w": tw}
            for tf in _pow2_upto(first.out_channels)
            for th in _pow2_upto(dw.out_h)
            for tw in _pow2_upto(dw.out_w)
        ]
    if fcm_type is FcmType.PWPW:
        out_hw = second.out_h * second.out_w
        return [
            {"tile_hw": thw, "tile_m": tm}
            for thw in _pow2_upto(out_hw, minimum=4)
            for tm in _pow2_upto(second.out_channels)
        ]
    raise PlanError(f"unknown FCM type {fcm_type}")


def enumerate_fcm_tilings(
    fcm_type: FcmType, first: ConvSpec, second: ConvSpec, gpu: GpuSpec
) -> list[dict[str, int]]:
    """All *feasible* tiling dicts of one pairwise FCM, in sweep order."""
    return [
        t
        for t in _fcm_tiling_candidates(fcm_type, first, second)
        if fcm_feasible(fcm_type, first, second, t, gpu)
    ]


def _search_fcm(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    gpu: GpuSpec,
    convention: str,
    engine: str,
) -> SearchResult | None:
    if engine == "vectorized":
        win = fcm_grid(fcm_type, first, second, gpu, convention).best(gpu.warp_size)
        if win is None:
            return None
        return SearchResult(tiling=win[0], gma_bytes=win[1], redundancy_ratio=win[2])
    scored: list[tuple[tuple[int, int, int], dict[str, int], float]] = []
    for tiling in enumerate_fcm_tilings(fcm_type, first, second, gpu):
        cost: FcmCost = fcm_gma(fcm_type, first, second, tiling, convention)
        scored.append(
            (
                _rank_key(tiling, cost.gma.total_bytes, gpu.warp_size),
                dict(tiling),
                cost.redundancy_ratio,
            )
        )
    win = _best(scored)
    if win is None:
        return None
    return SearchResult(tiling=win[0], gma_bytes=win[1], redundancy_ratio=win[2])


def best_fcm_tiling(
    fcm_type: FcmType,
    first: ConvSpec,
    second: ConvSpec,
    gpu: GpuSpec,
    convention: str = "paper",
    *,
    engine: str | None = None,
    memo=None,
) -> SearchResult | None:
    """Minimize the FCM estimator over the feasible tile grid.

    Returns ``None`` when no tiling satisfies the fused constraints — the
    module is infeasible on this GPU at this precision (paper §IV-B: "PWPW
    fusion is less likely when the weights use FP32").  ``None`` outcomes
    are memoized too when a ``memo`` is supplied.
    """
    engine = resolve_search_engine(engine)
    if memo is None:
        return _search_fcm(fcm_type, first, second, gpu, convention, engine)
    return memo.get_or_search(
        memo.fcm_key(fcm_type, first, second, gpu, convention),
        lambda: _search_fcm(fcm_type, first, second, gpu, convention, engine),
    )


def _chain_tiling_candidates(chain: FusedChain) -> list[dict[str, int]]:
    last = chain.last
    spatial = [
        {"tile_h": th, "tile_w": tw}
        for th in _pow2_upto(last.out_h)
        for tw in _pow2_upto(last.out_w)
    ]
    if last.kind is not ConvKind.POINTWISE:
        return spatial
    return [
        {**d, "tile_m": tm}
        for d in spatial
        for tm in _pow2_upto(last.out_channels)
    ]


def enumerate_chain_tilings(chain: FusedChain, gpu: GpuSpec) -> list[dict[str, int]]:
    """All *feasible* tiling dicts of one fused chain, in sweep order."""
    return [
        t for t in _chain_tiling_candidates(chain) if chain_feasible(chain, t, gpu)
    ]


def _search_chain(chain: FusedChain, gpu: GpuSpec, convention: str, engine: str) -> SearchResult | None:
    if engine == "vectorized":
        win = chain_grid(chain, gpu, convention).best(gpu.warp_size)
        if win is None:
            return None
        return SearchResult(tiling=win[0], gma_bytes=win[1], redundancy_ratio=win[2])
    scored: list[tuple[tuple[int, int, int], dict[str, int], float]] = []
    for tiling in enumerate_chain_tilings(chain, gpu):
        cost: FcmCost = chain_gma(chain, tiling, convention)
        scored.append(
            (
                _rank_key(tiling, cost.gma.total_bytes, gpu.warp_size),
                dict(tiling),
                cost.redundancy_ratio,
            )
        )
    win = _best(scored)
    if win is None:
        return None
    return SearchResult(tiling=win[0], gma_bytes=win[1], redundancy_ratio=win[2])


def best_chain_tiling(
    chain: FusedChain,
    gpu: GpuSpec,
    convention: str = "paper",
    *,
    engine: str | None = None,
    memo=None,
) -> SearchResult | None:
    """Minimize the N-stage chain estimator over the feasible tile grid.

    Same sweep discipline as the pairwise search — powers of two per tile
    axis, warp-multiple thread blocks preferred, minimum GMA, then larger
    tiles — applied to the chain vocabulary (``tile_h``/``tile_w`` on the
    final output plus ``tile_m`` when the last stage is pointwise).
    Returns ``None`` when no tiling satisfies the chained constraints.
    """
    engine = resolve_search_engine(engine)
    if memo is None:
        return _search_chain(chain, gpu, convention, engine)
    return memo.get_or_search(
        memo.chain_key(chain, gpu, convention),
        lambda: _search_chain(chain, gpu, convention, engine),
    )
