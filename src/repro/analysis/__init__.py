"""``repro.analysis`` — the repo's own static-analysis framework.

A from-scratch, stdlib-only (``ast`` + ``symtable`` + ``tokenize``)
linter that enforces the architectural and concurrency invariants the
test suite cannot see: import layering, page-accounting discipline,
lock discipline, lock ordering, and the telemetry vocabulary.  Run it
as ``repro lint`` or ``python -m repro.analysis``.

Five rule families (catalogue in ``docs/architecture.md``):

* ``REPRO-ARCH01..03`` — import-layering DAG + cycle detection
  (:mod:`repro.analysis.importgraph`);
* ``REPRO-PAGE01..03`` — page-accounting discipline
  (:mod:`repro.analysis.rules`);
* ``REPRO-LOCK01..03`` — lock discipline (:mod:`repro.analysis.rules`);
* ``REPRO-ORDER01`` — lock-order / deadlock-cycle analysis
  (:mod:`repro.analysis.lockorder`);
* ``REPRO-TELE01..03`` — telemetry vocabulary
  (:mod:`repro.analysis.rules`).

Findings are suppressed per line with ``# repro: ignore[RULE-ID]``
(:mod:`repro.analysis.suppressions`).
"""

from __future__ import annotations

import os
from fnmatch import fnmatchcase
from typing import Iterable, Sequence

from repro.analysis import suppressions as suppress_mod

# Importing these modules registers their rules.
from repro.analysis import importgraph as _importgraph  # noqa: F401
from repro.analysis import lockorder as _lockorder  # noqa: F401
from repro.analysis.reporters import LintResult, render_json, render_text
from repro.analysis.rules import RULES, Rule, all_rules
from repro.analysis.walker import Finding, ModuleInfo, load_module

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "RULES",
    "Rule",
    "all_rules",
    "discover_files",
    "load_module",
    "render_json",
    "render_text",
    "run_lint",
]

_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".ruff_cache", ".pytest_cache", "fixtures"}
)


def discover_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    ``tests/fixtures`` trees are skipped during directory walks (they
    contain deliberate violations) but can still be linted by passing
    a fixture path explicitly — which is how the self-tests run.
    """
    out: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            out.add(os.path.abspath(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [
                name for name in sorted(dirnames) if name not in _SKIP_DIRS
            ]
            for name in filenames:
                if name.endswith(".py"):
                    out.add(os.path.abspath(os.path.join(dirpath, name)))
    return sorted(out)


def _selected(rule: Rule, select: Iterable[str] | None) -> bool:
    if not select:
        return True
    return any(
        fnmatchcase(rule.id, pattern) or rule.id.startswith(pattern)
        for pattern in select
    )


def run_lint(
    paths: Sequence[str], select: Iterable[str] | None = None
) -> LintResult:
    """Lint ``paths`` and return the structured result.

    ``select`` restricts to matching rule ids (exact, prefix, or
    glob).
    """
    result = LintResult()
    files = discover_files(paths)
    modules: list[ModuleInfo] = []
    for path in files:
        try:
            modules.append(load_module(path))
        except SyntaxError as exc:
            result.errors.append(
                f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
            )
        except OSError as exc:
            result.errors.append(f"{path}: unreadable: {exc}")
    result.files_checked = len(modules)

    rules = [rule for rule in all_rules() if _selected(rule, select)]
    raw: list[Finding] = []
    for rule in rules:
        if rule.scope == "project":
            raw.extend(rule.check_project(modules))
        else:
            for info in modules:
                if rule.applies_to(info):
                    raw.extend(rule.check(info))

    # Per-line suppressions, tracked so stale ones are reported.
    suppressions_by_path = {
        info.path: suppress_mod.collect(info.source) for info in modules
    }
    matched: dict[str, set[int]] = {}
    kept: list[Finding] = []
    for finding in raw:
        table = suppressions_by_path.get(finding.path, {})
        if suppress_mod.is_suppressed(finding, table):
            matched.setdefault(finding.path, set()).add(finding.line)
        else:
            kept.append(finding)
    for path, table in suppressions_by_path.items():
        for line in suppress_mod.unused_suppressions(
            table, matched.get(path, set())
        ):
            result.unused_suppressions.append((path, line))
    result.unused_suppressions.sort()
    result.findings = sorted(kept, key=Finding.sort_key)
    return result
