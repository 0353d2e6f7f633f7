"""cProfile one functional model run, one planning pass or one paper point.

``--what run`` (default) plans the model, materializes parameters, runs one
warm-up inference, then profiles a second run.  ``--what plan`` profiles
FusePlanner's whole-model pass in isolation — the tiling search over every
layer and fusion candidate — which is what the vectorized search engine
targets (``--search-engine reference`` profiles the scalar oracle instead).
``--what point`` profiles one cold Fig. 10/11 point
(:func:`repro.experiments.fig10_fig11.end_to_end_point`: build, plan, TVM
compile and both analytic sessions), the unit of the paper sweep; with the
weights off the analytic path its hot frames are ``FusePlanner.plan`` and
``TvmCompiler.compile``.
Every mode prints the top-N functions by cumulative and by internal time —
the starting point for every simulator perf PR (this is how the fast-path
engine's and the grid search's hot spots were found).

Usage::

    PYTHONPATH=src python tools/profile_run.py [model] [--what run|plan|point]
                                               [--engine fast|reference]
                                               [--search-engine vectorized|reference]
                                               [--dtype fp32|int8] [--gpu RTX]
                                               [--max-chain 2] [--top 25]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _profile(fn, top: int) -> "object":
    profiler = cProfile.Profile()
    profiler.enable()
    out = fn()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model", nargs="?", default="mobilenet_v2")
    parser.add_argument("--what", choices=["run", "plan", "point"], default="run",
                        help="profile one functional inference (default), "
                             "one FusePlanner whole-model pass in isolation, "
                             "or one cold Fig. 10/11 point")
    parser.add_argument("--engine", choices=["fast", "reference"], default="fast")
    parser.add_argument("--search-engine", choices=["vectorized", "reference"],
                        default="vectorized",
                        help="tiling search engine for --what plan")
    parser.add_argument("--dtype", choices=["fp32", "int8"], default="fp32")
    parser.add_argument("--gpu", default="RTX")
    parser.add_argument("--max-chain", type=int, default=2)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

    from repro.core.dtypes import DType
    from repro.gpu.specs import gpu_by_name

    dtype = DType.INT8 if args.dtype == "int8" else DType.FP32
    gpu = gpu_by_name(args.gpu)

    if args.what == "plan":
        from repro.models.zoo import build_model
        from repro.planner.memo import GeometryMemo
        from repro.planner.planner import FusePlanner

        graph = build_model(args.model, dtype)

        def plan_once():
            # A fresh memo per pass: profile the search itself, not the
            # cross-model cache hits a prior pass would leave behind.
            planner = FusePlanner(
                gpu, max_chain=args.max_chain,
                search_engine=args.search_engine, memo=GeometryMemo(),
            )
            return planner.plan(graph)

        plan = _profile(plan_once, args.top)
        print(f"{len(plan.steps)} plan steps for {args.model} on {gpu.name} "
              f"[search_engine={args.search_engine}]")
        return 0

    if args.what == "point":
        from repro.experiments.fig10_fig11 import end_to_end_point

        point = _profile(lambda: end_to_end_point(args.model, gpu, dtype), args.top)
        print(f"{point.model} on {point.gpu} ({point.dtype}): "
              f"{point.speedup_vs_tvm:.3f}x vs TVM")
        return 0

    from repro.runtime.session import build_session, seeded_input

    session = build_session(
        args.model, gpu, dtype, max_chain=args.max_chain, engine=args.engine
    )
    x = seeded_input(session.graph, dtype)
    session.run(x)  # warm-up: BLAS threads, planner caches, allocators
    report = _profile(lambda: session.run(x), args.top)
    print(f"{report.describe()}  [engine={args.engine}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
