"""Analysis driver: collect files, parse, run rules, apply suppressions.

:func:`analyze_paths` is the programmatic entry point (the CLI and the
meta-test both sit on it): it walks the requested files/directories in
sorted order, parses each module once, runs the selected rules over the
shared :class:`AnalysisContext`, and filters findings through the
``# repro: allow[RULE] reason`` suppression comments.  Suppressions with
an empty reason do not suppress — they surface as ``RPR000`` findings,
because the written reason is the whole point of the mechanism.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import AnalysisError
from .base import (
    SUPPRESSION_RULE_ID,
    Finding,
    Suppression,
    parse_suppressions,
    resolve_rules,
    rule_registry,
)
from .importgraph import ImportGraph, build_import_graph

__all__ = [
    "AnalysisContext",
    "ModuleInfo",
    "analyze_paths",
    "collect_files",
    "run_context",
]


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source module plus everything rules need to inspect it."""

    path: str
    module: str
    is_package: bool
    tree: ast.Module
    source_lines: tuple[str, ...]
    suppressions: tuple[Suppression, ...]


@dataclass
class AnalysisContext:
    """The shared state one analysis run exposes to every rule."""

    modules: tuple[ModuleInfo, ...]
    rule_ids: tuple[str, ...]
    _import_graph: "ImportGraph | None" = field(default=None, repr=False)

    @property
    def import_graph(self) -> ImportGraph:
        if self._import_graph is None:
            self._import_graph = build_import_graph(self.modules)
        return self._import_graph

    @cached_property
    def by_module(self) -> dict[str, ModuleInfo]:
        return {info.module: info for info in self.modules}

    def find_module(self, suffix: str) -> "ModuleInfo | None":
        """The unique analyzed module whose dotted name ends with ``suffix``."""
        hits = [i for i in self.modules if i.module == suffix or i.module.endswith("." + suffix)]
        return hits[0] if len(hits) == 1 else None


def _module_name(path: Path) -> tuple[str, bool]:
    """Derive the dotted module name by walking up the ``__init__.py`` chain."""
    path = path.resolve()
    is_package = path.name == "__init__.py"
    parts: list[str] = [] if is_package else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:  # a bare top-level module (fixture snippets)
        parts = [path.stem]
    return ".".join(reversed(parts)), is_package


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py" and p.exists():
            out.append(p)
        else:
            raise AnalysisError(f"not a Python file or directory: {p}")
    seen: set[Path] = set()
    unique = []
    for p in sorted(out):
        rp = p.resolve()
        if rp not in seen:
            seen.add(rp)
            unique.append(p)
    return unique


def _parse(path: Path) -> ModuleInfo:
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from None
    lines = text.splitlines()
    module, is_package = _module_name(path)
    return ModuleInfo(
        path=str(path),
        module=module,
        is_package=is_package,
        tree=tree,
        source_lines=tuple(lines),
        suppressions=tuple(parse_suppressions(lines)),
    )


def run_context(ctx: AnalysisContext) -> list[Finding]:
    """Run ``ctx.rule_ids`` over ``ctx.modules``; returns sorted findings.

    Suppression comments matching a finding's (line, rule) drop it; every
    reason-less suppression comment becomes an ``RPR000`` finding whether
    or not it matched anything.
    """
    registry = rule_registry()
    raw: list[Finding] = []
    for rule_id in ctx.rule_ids:
        rule = registry[rule_id]()
        raw.extend(rule.check(ctx))

    findings: list[Finding] = []
    for info in ctx.modules:
        allowed = {
            (s.line, s.rule_id) for s in info.suppressions if s.reason
        }
        for f in raw:
            if f.path != info.path:
                continue
            if (f.line, f.rule_id) in allowed:
                continue
            findings.append(f)
        for s in info.suppressions:
            if not s.reason:
                findings.append(
                    Finding(
                        path=info.path,
                        line=s.line,
                        col=0,
                        rule_id=SUPPRESSION_RULE_ID,
                        message=(
                            f"suppression of {s.rule_id} has no reason; write "
                            f"`# repro: allow[{s.rule_id}] <why>`"
                        ),
                    )
                )
    # Overlapping call-graph walks (nested defs) can report a site twice.
    return sorted(set(findings))


def analyze_paths(
    paths: Sequence[str | Path], rules: "str | Iterable[str] | None" = None
) -> tuple[list[Finding], AnalysisContext]:
    """Parse every module under ``paths`` and run the selected rules."""
    infos = tuple(_parse(p) for p in collect_files(paths))
    ctx = AnalysisContext(modules=infos, rule_ids=resolve_rules(rules))
    return run_context(ctx), ctx
