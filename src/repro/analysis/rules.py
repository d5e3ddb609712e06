"""Rule registry and the per-module rule families.

Rule identity is stable and machine-readable: ``REPRO-<FAMILY><NN>``.
Families shipped here:

* ``REPRO-PAGE`` — page-accounting discipline (every network access
  flows through the page-charged store/expander path);
* ``REPRO-LOCK`` — lock discipline (guarded workspace mutation, no
  bare ``acquire()``, no blocking work inside a mutex);
* ``REPRO-TELE`` — telemetry vocabulary (span names, counter keys and
  metric families come from :mod:`repro.obs.names`).

The import-layering family (``REPRO-ARCH``) lives in
:mod:`repro.analysis.importgraph` and the lock-order family
(``REPRO-ORDER``) in :mod:`repro.analysis.lockorder`; both register
here.  Per-line suppression (``# repro: ignore[RULE-ID]``) is applied
by :func:`repro.analysis.run_lint`, not by individual rules.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Iterable, Iterator

from repro.analysis.walker import (
    Finding,
    ModuleInfo,
    ancestors,
    dotted_name,
    enclosing_function,
    fstring_glob,
    literal_str,
)

RULES: dict[str, "Rule"] = {}


class Rule:
    """One registered check.

    ``packages`` limits a module-scope rule to source packages under
    the project root (``None`` = every module).  Project-scope rules
    see the whole module set at once (import graph, lock graph).
    """

    id: str = ""
    summary: str = ""
    scope: str = "module"  # or "project"
    packages: frozenset[str] | None = None

    def applies_to(self, info: ModuleInfo) -> bool:
        return self.packages is None or info.package in self.packages

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, modules: list[ModuleInfo]
    ) -> Iterator[Finding]:
        return iter(())


def register(cls: type[Rule]) -> type[Rule]:
    rule = cls()
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    return [RULES[rule_id] for rule_id in sorted(RULES)]


# ----------------------------------------------------------------------
# REPRO-PAGE: page-accounting discipline
# ----------------------------------------------------------------------

#: Methods that walk raw adjacency without charging a page access.
_RAW_TRAVERSAL = frozenset({"neighbors", "seed_frontier"})
#: The page-charged expander types only network/ and the engine's
#: backend factories may construct.
_EXPANDER_TYPES = frozenset({"DijkstraExpander", "AStarExpander"})


@register
class PageRawTraversal(Rule):
    """Algorithm layers must not walk raw adjacency lists."""

    id = "REPRO-PAGE01"
    summary = (
        "direct adjacency traversal outside the store/expander path "
        "(.neighbors()/.seed_frontier()/._adjacency); route through "
        "DistanceEngine expanders so page accounting is charged"
    )
    packages = frozenset({"core", "engine", "skyline"})

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _RAW_TRAVERSAL:
                    yield Finding(
                        self.id,
                        info.path,
                        node.lineno,
                        node.col_offset,
                        f".{node.func.attr}() bypasses page accounting; "
                        "use a DistanceEngine expander "
                        "(engine.expander()/astar_expander()/ine_expander())",
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "_adjacency"
            ):
                yield Finding(
                    self.id,
                    info.path,
                    node.lineno,
                    node.col_offset,
                    "._adjacency access bypasses page accounting",
                )


@register
class PageUnchargedExpansion(Rule):
    """network/ traversal helpers must charge the store per node."""

    id = "REPRO-PAGE02"
    summary = (
        "a network/ function expands .neighbors() without a "
        "store.touch_node() page charge in the same function"
    )
    packages = frozenset({"network"})
    # graph.py defines the adjacency structure itself; its in-memory
    # helpers (connectivity, validation) are not on the query path.
    exempt_basenames = frozenset({"graph.py"})

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if info.basename in self.exempt_basenames:
            return
        for func in info.functions():
            traversals: list[ast.Call] = []
            charges = False
            for node in ast.walk(func):
                if node is not func and enclosing_function(node) is not func:
                    continue  # nested defs are visited on their own
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr == "neighbors":
                        traversals.append(node)
                    elif node.func.attr == "touch_node":
                        charges = True
                elif isinstance(node, ast.Attribute) and (
                    node.attr == "touch_node"
                ):
                    charges = True
            if charges:
                continue
            for call in traversals:
                yield Finding(
                    self.id,
                    info.path,
                    call.lineno,
                    call.col_offset,
                    f"{func.name}() expands .neighbors() without charging "
                    "store.touch_node(); page accounting is silently "
                    "skipped (the PR 1 store-less-expander bug class)",
                )


@register
class PageAdhocExpander(Rule):
    """Expander construction is the engine's job."""

    id = "REPRO-PAGE03"
    summary = (
        "DijkstraExpander/AStarExpander constructed outside network/ "
        "and engine/; pooled engine expanders keep page accounting "
        "and wavefront reuse intact"
    )

    def applies_to(self, info: ModuleInfo) -> bool:
        return info.package not in ("network", "engine", "")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            name = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id
                if isinstance(target, ast.Name)
                else None
            )
            if name in _EXPANDER_TYPES:
                yield Finding(
                    self.id,
                    info.path,
                    node.lineno,
                    node.col_offset,
                    f"ad-hoc {name} construction; use "
                    "workspace.engine.expander()/astar_expander()/"
                    "ine_expander() so the store and pool are wired in",
                )


# ----------------------------------------------------------------------
# REPRO-LOCK: lock discipline
# ----------------------------------------------------------------------

#: Attribute pairs (owner attr, method) that mutate Workspace-derived
#: state and must run under workspace.mutating().
_GUARDED_MUTATIONS = frozenset(
    {
        ("objects", "add"),
        ("objects", "remove"),
        ("middle", "add_object"),
        ("middle", "remove_object"),
        ("object_rtree", "insert_point"),
        ("object_rtree", "delete_point"),
        ("network", "update_edge_length"),
    }
)

#: Callee terminal names that block (I/O, sleeps, batch distance work).
_BLOCKING_CALLS = frozenset(
    {
        "distances",
        "vectors",
        "sleep",
        "urlopen",
        "serve_forever",
        "getresponse",
    }
)

_LOCKISH_FRAGMENTS = ("lock", "cond", "mutex", "sem")
#: with-item calls that take the exclusive side of a lock.
_EXCLUSIVE_CONTEXTS = frozenset({"write_locked", "mutating"})


def _receiver_terminal(node: ast.Call) -> str | None:
    """For ``a.b.method()`` the penultimate name ``b`` (or ``a`` for
    ``a.method()``)."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _is_lockish_expr(expr: ast.expr) -> bool:
    """Heuristic: does this with-item expression denote a mutex?

    Matches plain lock objects (``self._lock``, ``self._cond``, a
    ``*lock*``-named local) and exclusive-side context calls
    (``.write_locked()``, ``.mutating()``).  Read-side contexts
    (``reading()``/``read_locked()``) are deliberately excluded:
    queries hold the shared side for their entire execution by design.
    """
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Attribute):
            return expr.func.attr in _EXCLUSIVE_CONTEXTS
        return False
    dotted = dotted_name(expr)
    if dotted is None:
        return False
    terminal = dotted.rsplit(".", 1)[-1].lower()
    return any(fragment in terminal for fragment in _LOCKISH_FRAGMENTS)


def _held_lock_items(node: ast.AST) -> list[ast.withitem]:
    """The lock-like with-items statically enclosing ``node``."""
    held = []
    for up in ancestors(node):
        if isinstance(up, (ast.With, ast.AsyncWith)):
            for item in up.items:
                if _is_lockish_expr(item.context_expr):
                    held.append(item)
    return held


@register
class LockUnguardedMutation(Rule):
    """Workspace-derived state mutates only under mutating()."""

    id = "REPRO-LOCK01"
    summary = (
        "Workspace state mutation (.objects/.middle/.object_rtree/"
        ".network writers) outside a with ...mutating() block"
    )
    packages = frozenset({"core", "service", "engine"})

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            owner = _receiver_terminal(node)
            if owner is None or (owner, func.attr) not in _GUARDED_MUTATIONS:
                continue
            guarded = any(
                isinstance(item.context_expr, ast.Call)
                and isinstance(item.context_expr.func, ast.Attribute)
                and item.context_expr.func.attr == "mutating"
                for up in ancestors(node)
                if isinstance(up, (ast.With, ast.AsyncWith))
                for item in up.items
            )
            if not guarded:
                yield Finding(
                    self.id,
                    info.path,
                    node.lineno,
                    node.col_offset,
                    f".{owner}.{func.attr}() mutates workspace state "
                    "outside `with workspace.mutating():`; concurrent "
                    "readers can observe a torn snapshot",
                )


@register
class LockBareAcquire(Rule):
    """No bare Lock.acquire() without with/try-finally."""

    id = "REPRO-LOCK02"
    summary = (
        "bare .acquire()/.acquire_read()/.acquire_write() statement "
        "without a `with` context or an immediate try/finally release"
    )

    _ACQUIRES = {
        "acquire": "release",
        "acquire_read": "release_read",
        "acquire_write": "release_write",
    }

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in self._ACQUIRES
            ):
                continue
            receiver = dotted_name(node.value.func.value)
            release = self._ACQUIRES[node.value.func.attr]
            if self._released_in_finally(node, receiver, release):
                continue
            yield Finding(
                self.id,
                info.path,
                node.lineno,
                node.col_offset,
                f"bare .{node.value.func.attr}() without a matching "
                f".{release}() in an immediate try/finally; use a "
                "`with` context so errors cannot leak the lock",
            )

    @staticmethod
    def _released_in_finally(
        stmt: ast.Expr, receiver: str | None, release: str
    ) -> bool:
        def releases(try_node: ast.Try) -> bool:
            for inner in ast.walk(ast.Module(body=try_node.finalbody, type_ignores=[])):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr == release
                    and (
                        receiver is None
                        or dotted_name(inner.func.value) == receiver
                    )
                ):
                    return True
            return False

        parent = getattr(stmt, "parent", None)
        # Pattern A: acquire(); try: ... finally: release()
        body = getattr(parent, "body", None)
        if isinstance(body, list) and stmt in body:
            index = body.index(stmt)
            if index + 1 < len(body) and isinstance(body[index + 1], ast.Try):
                if releases(body[index + 1]):
                    return True
        # Pattern B: the acquire is already inside such a try's body.
        for up in ancestors(stmt):
            if isinstance(up, ast.Try) and releases(up):
                return True
        return False


@register
class LockBlockingCall(Rule):
    """No blocking work while statically holding a mutex."""

    id = "REPRO-LOCK03"
    summary = (
        "blocking call (engine.distances/vectors, sleep, HTTP I/O) made "
        "while statically inside a mutex/exclusive-lock context"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            terminal = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else node.func.id
                if isinstance(node.func, ast.Name)
                else None
            )
            if terminal not in _BLOCKING_CALLS:
                continue
            held = _held_lock_items(node)
            if not held:
                continue
            locks = ", ".join(
                filter(
                    None,
                    (
                        dotted_name(item.context_expr)
                        or ast.unparse(item.context_expr)
                        for item in held
                    ),
                )
            )
            yield Finding(
                self.id,
                info.path,
                node.lineno,
                node.col_offset,
                f"blocking call .{terminal}() while holding {locks}; "
                "every other thread contending for the lock stalls for "
                "the full call — move the work outside the critical "
                "section",
            )


# ----------------------------------------------------------------------
# REPRO-PERF: columnar hot-path allocation discipline
# ----------------------------------------------------------------------

#: Builtin constructors that allocate a fresh container per call.
_BUILTIN_ALLOCATORS = frozenset({"tuple", "list", "dict", "set"})
#: Targets/values of a tuple swap that reference existing storage.
_SWAP_SIMPLE = (ast.Name, ast.Attribute, ast.Subscript)


def _is_swap_assign(node: ast.AST) -> bool:
    """``x, y = y, x`` style rotations; CPython never materialises the
    tuple for these, and the Hilbert curve kernel leans on the idiom."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    target, value = node.targets[0], node.value
    if not (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)):
        return False
    return all(isinstance(e, _SWAP_SIMPLE) for e in target.elts) and all(
        isinstance(e, _SWAP_SIMPLE) for e in value.elts
    )


@register
class PerfLoopAllocation(Rule):
    """repro.columnar loop bodies stay allocation-free."""

    id = "REPRO-PERF01"
    summary = (
        "per-element object construction (container literal, "
        "tuple()/list()/dict()/set(), comprehension, or class "
        "instantiation) inside a repro.columnar loop body; the "
        "columnar contract is flat-buffer arithmetic with no per-row "
        "Python objects on the hot path"
    )
    packages = frozenset({"columnar"})

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        seen: set[tuple[int, int]] = set()
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.For, ast.While)):
                for stmt in [*node.body, *node.orelse]:
                    yield from self._scan(info, stmt, seen)

    def _scan(
        self, info: ModuleInfo, node: ast.AST, seen: set[tuple[int, int]]
    ) -> Iterator[Finding]:
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Raise),
        ):
            # Error paths and nested callables are not per-row work.
            return
        if _is_swap_assign(node):
            return
        message = self._allocation(node)
        if message is not None:
            key = (node.lineno, node.col_offset)
            if key not in seen:
                seen.add(key)
                yield Finding(
                    self.id, info.path, node.lineno, node.col_offset, message
                )
        for child in ast.iter_child_nodes(node):
            yield from self._scan(info, child, seen)

    @staticmethod
    def _allocation(node: ast.AST) -> str | None:
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return (
                "comprehension builds a fresh container every iteration; "
                "write into a preallocated buffer instead"
            )
        if isinstance(node, (ast.List, ast.Set, ast.Dict)):
            return (
                "container literal allocated per iteration; hoist it out "
                "of the loop or use a flat buffer"
            )
        if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
            return (
                "tuple materialised per iteration; keep rows in the flat "
                "float buffer and pass (buffer, offset) instead"
            )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name in _BUILTIN_ALLOCATORS:
                return (
                    f"{name}() allocates a container per iteration; "
                    "preallocate outside the loop"
                )
            if name[:1].isupper() and not name.isupper():
                return (
                    f"{name}(...) instantiates an object per iteration; "
                    "the columnar plane passes index handles, not objects"
                )
        return None


# ----------------------------------------------------------------------
# REPRO-TELE: telemetry vocabulary
# ----------------------------------------------------------------------

_RECORD_TARGETS = frozenset(
    {"repro.obs.tracing.record", "repro.obs.record"}
)
_SPAN_TARGETS = frozenset({"repro.obs.tracing.span", "repro.obs.span"})
_REGISTRY_METHODS = frozenset(
    {"counter", "gauge", "histogram", "register_callback"}
)
_REGISTRY_RECEIVERS = frozenset({"registry", "metrics"})


def _vocab():
    # Imported lazily so the analysis package stays importable even if
    # repro.obs is mid-refactor; the vocabulary itself is plain data.
    from repro.obs import names

    return names


def _name_arg(node: ast.Call) -> ast.expr | None:
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg in ("name", "key"):
            return keyword.value
    return None


def _check_name(
    rule: Rule,
    info: ModuleInfo,
    call: ast.Call,
    kind: str,
    exact: Iterable[str],
    patterns: Iterable[str],
) -> Iterator[Finding]:
    arg = _name_arg(call)
    if arg is None:
        return
    value = literal_str(arg)
    if value is not None:
        if value in exact or any(
            fnmatchcase(value, pattern) for pattern in patterns
        ):
            return
        yield Finding(
            rule.id,
            info.path,
            call.lineno,
            call.col_offset,
            f"{kind} {value!r} is not registered in repro.obs.names; "
            "add it to the vocabulary (or fix the typo) so /metricsz "
            "and trace reconciliation cannot drift",
        )
        return
    glob = fstring_glob(arg)
    if glob is None:
        # Dynamic names (variables) are out of static reach; the
        # runtime reconciliation tests cover those.
        return
    if glob in patterns or any(fnmatchcase(name, glob) for name in exact):
        return
    yield Finding(
        rule.id,
        info.path,
        call.lineno,
        call.col_offset,
        f"f-string {kind} matching {glob!r} has no registered "
        "counterpart in repro.obs.names (expected one of the "
        "registered patterns)",
    )


@register
class TelemetryCounterKey(Rule):
    """record() keys come from the registered vocabulary."""

    id = "REPRO-TELE01"
    summary = (
        "tracing.record() counter key not registered in "
        "repro.obs.names.COUNTER_KEYS"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        names = _vocab()
        for node in ast.walk(info.tree):
            if (
                isinstance(node, ast.Call)
                and info.resolve(node.func) in _RECORD_TARGETS
            ):
                yield from _check_name(
                    self,
                    info,
                    node,
                    "counter key",
                    names.COUNTER_KEYS,
                    names.COUNTER_KEY_PATTERNS,
                )


@register
class TelemetrySpanName(Rule):
    """span() names come from the registered vocabulary."""

    id = "REPRO-TELE02"
    summary = (
        "tracing.span() name not registered in "
        "repro.obs.names.SPAN_NAMES/SPAN_NAME_PATTERNS"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        names = _vocab()
        for node in ast.walk(info.tree):
            if (
                isinstance(node, ast.Call)
                and info.resolve(node.func) in _SPAN_TARGETS
            ):
                yield from _check_name(
                    self,
                    info,
                    node,
                    "span name",
                    names.SPAN_NAMES,
                    names.SPAN_NAME_PATTERNS,
                )


@register
class TelemetryMetricFamily(Rule):
    """Registered Prometheus families only."""

    id = "REPRO-TELE03"
    summary = (
        "metric family registered on a MetricRegistry is not in "
        "repro.obs.names.METRIC_FAMILIES"
    )

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        if info.module.startswith("repro.obs."):
            return  # the registry implementation itself
        names = _vocab()
        for node in ast.walk(info.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REGISTRY_METHODS
            ):
                continue
            receiver = _receiver_terminal(node)
            if receiver not in _REGISTRY_RECEIVERS:
                continue
            yield from _check_name(
                self, info, node, "metric family", names.METRIC_FAMILIES, ()
            )
