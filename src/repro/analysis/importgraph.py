"""Import-layering enforcement (``REPRO-ARCH01..03``).

The repo's packages form a strict DAG.  Each package has a *rank*;
a module may import (at module scope or deferred) only from packages
of strictly lower rank, its own package, or outside the project.  On
top of the ranks, Tarjan SCC over the module-level import graph
rejects cycles even within a package, and the *standalone* packages
(``obs``, ``concurrency``) may not import any sibling at all — they
are the foundation everything else reports into.

Note one deliberate deviation from the paper-era sketch that listed
``core`` below ``engine``: in this codebase :class:`~repro.core.query.
Workspace` *constructs* the :class:`~repro.engine.engine.
DistanceEngine`, while the engine never reaches up into ``core`` — so
``engine`` ranks below ``core``.  ``docs/architecture.md`` records the
rationale.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.rules import Rule, register
from repro.analysis.walker import Finding, ImportRecord, ModuleInfo

ROOT = "repro"

#: Package -> rank.  Lower imports into higher, never the reverse.
LAYERS: dict[str, int] = {
    "obs": 0,
    "concurrency": 0,
    "insight": 1,  # telemetry analysis over obs exhaust; service and
    # bench both import it, so it sits just above the foundation
    "geometry": 1,
    "columnar": 2,  # array-backed data plane: stdlib + obs only
    "storage": 2,
    "index": 3,
    "network": 4,
    "skyline": 5,
    "oracle": 5,  # preprocessed distance indexes over network + storage
    "engine": 6,
    "core": 7,
    "datasets": 8,
    "service": 9,
    "analysis": 10,
    "bench": 10,  # drives core, datasets and service; only the CLI is above
    "cli": 11,
}

#: Foundation packages: no imports from any sibling repro package.
STANDALONE = frozenset({"obs", "concurrency"})


def _package_of(module: str) -> str | None:
    """The layer package of a dotted module name, or None if foreign."""
    parts = module.split(".")
    if parts[0] != ROOT or len(parts) < 2:
        return None
    return parts[1]


def _rank(package: str) -> int | None:
    return LAYERS.get(package)


@register
class ArchLayerViolation(Rule):
    """No imports from an equal-or-higher-ranked foreign package."""

    id = "REPRO-ARCH01"
    summary = (
        "import from a package at an equal or higher layer rank; the "
        "package DAG is obs/concurrency < insight/geometry < "
        "columnar/storage < index < network < skyline/oracle < engine "
        "< core < datasets < service < analysis/bench < cli"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        own = info.package
        own_rank = _rank(own)
        if own_rank is None:
            return
        for record in info.imports:
            target = _package_of(record.module)
            if target is None or target == own:
                continue
            target_rank = _rank(target)
            if target_rank is None:
                yield Finding(
                    self.id,
                    info.path,
                    record.line,
                    0,
                    f"import of unranked package repro.{target}; add it "
                    "to repro.analysis.importgraph.LAYERS",
                )
            elif target_rank >= own_rank:
                yield Finding(
                    self.id,
                    info.path,
                    record.line,
                    0,
                    f"{own} (rank {own_rank}) imports repro.{target} "
                    f"(rank {target_rank}); imports must flow strictly "
                    "downward in the layer DAG",
                )


@register
class ArchImportCycle(Rule):
    """No module-level import cycles anywhere in the tree."""

    id = "REPRO-ARCH02"
    summary = (
        "module-level import cycle (Tarjan SCC over the import graph)"
    )
    scope = "project"

    def check_project(
        self, modules: list[ModuleInfo]
    ) -> Iterator[Finding]:
        by_name = {info.module: info for info in modules}
        edges: dict[str, list[tuple[str, ImportRecord]]] = {
            name: [] for name in by_name
        }
        for info in modules:
            for record in info.imports:
                if not record.toplevel:
                    continue
                target = record.module
                # "from repro.core import query" records repro.core;
                # credit the submodule when that is what resolves.
                if target not in by_name:
                    continue
                edges[info.module].append((target, record))
        for component in _tarjan(edges):
            if len(component) < 2:
                continue
            member_set = set(component)
            cycle = " -> ".join(sorted(component))
            for name in sorted(component):
                info = by_name[name]
                witness = next(
                    (
                        record
                        for target, record in edges[name]
                        if target in member_set
                    ),
                    None,
                )
                yield Finding(
                    self.id,
                    info.path,
                    witness.line if witness else 1,
                    0,
                    f"module is part of an import cycle: {cycle}",
                )


@register
class ArchStandaloneLeak(Rule):
    """obs/concurrency import nothing from sibling packages."""

    id = "REPRO-ARCH03"
    summary = (
        "a standalone foundation package (obs, concurrency) imports a "
        "sibling repro package; the foundation must stay dependency-"
        "free so every layer can use it"
    )
    packages = STANDALONE

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        own = info.package
        for record in info.imports:
            target = _package_of(record.module)
            if target is not None and target != own:
                yield Finding(
                    self.id,
                    info.path,
                    record.line,
                    0,
                    f"standalone package {own} imports repro.{target}; "
                    "foundation packages may only use the stdlib and "
                    "their own modules",
                )
            elif record.module == ROOT and own != "":
                yield Finding(
                    self.id,
                    info.path,
                    record.line,
                    0,
                    f"standalone package {own} imports the repro "
                    "top-level package (which re-exports every layer)",
                )


def _tarjan(
    edges: dict[str, list[tuple[str, ImportRecord]]]
) -> list[list[str]]:
    """Strongly connected components, iterative Tarjan."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in edges:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = [target for target, _ in edges.get(node, ())]
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components
