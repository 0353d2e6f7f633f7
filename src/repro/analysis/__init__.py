"""Static analysis: AST-level enforcement of the simulator's contracts.

The test suite defends the repo's invariants *dynamically* — replay
determinism on the shared ``FakeClock``, byte-identical canonical JSONL
(:class:`~repro.tune.records.TuningDB`,
:class:`~repro.planner.memo.GeometryMemo`, request traces), fast/reference
engine parity, and the ``core -> gpu -> planner -> kernels -> runtime ->
serve``/``tune`` layering.  This package enforces the same contracts
*statically*, before a single test runs: a rule-driven analyzer over the
stdlib ``ast`` (no third-party dependencies) with a rule registry mirroring
the house ``ENGINES``/``SEARCH_ENGINES`` resolver style.

Rules ship as ``RPR0xx`` identifiers (see :mod:`repro.analysis.rules`);
individual lines opt out with an explicit, reasoned suppression comment::

    t0 = time.perf_counter()  # repro: allow[RPR001] operator-facing wall clock

Run it as ``python -m repro.analysis src`` or ``python -m repro.cli lint``;
``--format json`` emits the canonical machine-readable report CI archives.
"""

from __future__ import annotations

from .base import Finding, Rule, resolve_rules, rule_registry
from .importgraph import ImportGraph, build_import_graph
from .reporters import render_json, render_text
from .rules import ALL_RULE_IDS, LAYER_DEPS, SERIALIZER_ROOTS
from .runner import AnalysisContext, analyze_paths

__all__ = [
    "ALL_RULE_IDS",
    "AnalysisContext",
    "Finding",
    "ImportGraph",
    "LAYER_DEPS",
    "Rule",
    "SERIALIZER_ROOTS",
    "analyze_paths",
    "build_import_graph",
    "render_json",
    "render_text",
    "resolve_rules",
    "rule_registry",
]
