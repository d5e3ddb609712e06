"""Hierarchical tracing spans propagated via :mod:`contextvars`.

A :class:`Span` is a node in a per-query tree: it has a trace id shared
by the whole tree, its own span id, wall-clock + perf-counter timings,
free-form attributes, and a ``counts`` dict fed by the hot-path
:func:`record` helper.  Children attach to their parent *at creation
time*, so :meth:`Span.total` sees live counts from still-open children
— the first-result probe in :class:`~repro.core.base.SkylineAlgorithm`
relies on this.

Propagation is purely contextvar-based, which makes it work unchanged
across the service's worker threads: :func:`activate` pins a span as
the ambient parent for the current context, :func:`span` opens a child
under whatever is ambient, and :func:`record` charges counters to the
innermost active span (bubbling happens at read time via
:meth:`Span.total`, not at write time, so a single dict update is the
entire hot-path cost).

Work that must *not* be charged to the current query — e.g. the lazy
landmark-table build triggered by the first A*+landmarks query — runs
under :func:`suppressed`, which detaches the ambient span for the
duration.

A span holds its children but no reference back to its parent, so a
finished tree is acyclic and freed as soon as its last holder drops
it, without waiting for the cyclic garbage collector.

:func:`format_trace` renders a tree as indented text for ``repro query
--stats``.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
from contextvars import ContextVar
from typing import Any, Iterator

_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)


# Span and trace ids: 64 random bits from a private generator, seeded
# from the OS once per process (and again in each forked child), so a
# span costs no syscall and reseeding the ``random`` module cannot make
# ids repeat.
_IDS = random.Random(os.urandom(16))
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _IDS.seed(os.urandom(16)))


def _new_id() -> str:
    """16 lowercase hex digits."""
    return f"{_IDS.getrandbits(64):016x}"


class Span:
    """One timed node in a trace tree with its own counters.

    Not locked: a span is written by exactly one thread (the one that
    opened it); cross-thread visibility of children is creation-time
    list append, which is safe under the GIL for the read patterns
    ``total``/``to_dict`` use.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_wall",
        "start_perf",
        "end_perf",
        "attributes",
        "counts",
        "children",
    )

    def __init__(
        self, name: str, parent: "Span | None" = None, **attributes: Any
    ) -> None:
        self.name = name
        self.trace_id = parent.trace_id if parent is not None else _new_id()
        self.span_id = _new_id()
        self.parent_id = parent.span_id if parent is not None else None
        self.start_wall = time.time()
        self.start_perf = time.perf_counter()
        self.end_perf: float | None = None
        self.attributes: dict[str, Any] = dict(attributes)
        self.counts: dict[str, float] = {}
        self.children: list[Span] = []
        if parent is not None:
            parent.children.append(self)

    # -- lifecycle ----------------------------------------------------

    def finish(self) -> None:
        if self.end_perf is None:
            self.end_perf = time.perf_counter()

    @property
    def duration_s(self) -> float:
        end = self.end_perf if self.end_perf is not None else time.perf_counter()
        return end - self.start_perf

    # -- counters -----------------------------------------------------

    def record(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def own(self, key: str) -> float:
        """This span's directly charged count (children excluded)."""
        return self.counts.get(key, 0.0)

    def total(self, key: str) -> float:
        """This span's count plus all descendants', recursively."""
        value = self.counts.get(key, 0.0)
        for child in self.children:
            value += child.total(key)
        return value

    def totals(self) -> dict[str, float]:
        """All counter keys in the subtree, summed."""
        out: dict[str, float] = dict(self.counts)
        for child in self.children:
            for key, value in child.totals().items():
                out[key] = out.get(key, 0.0) + value
        return out

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "counts": dict(self.counts),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, counts={self.counts}, "
            f"children={len(self.children)})"
        )


# -- ambient-context helpers ------------------------------------------


def current_span() -> Span | None:
    """The innermost active span in this context, if any."""
    return _CURRENT.get()


def record(key: str, value: float = 1.0) -> None:
    """Charge ``value`` to the innermost active span (no-op outside one).

    This is *the* hot path — called once per settled node, per buffer
    miss, per memo probe — so it is a contextvar read plus one dict
    update and nothing else.
    """
    span = _CURRENT.get()
    if span is not None:
        span.counts[key] = span.counts.get(key, 0.0) + value


@contextlib.contextmanager
def span(name: str, **attributes: Any) -> Iterator[Span]:
    """Open a child span under the ambient one (or a new root)."""
    node = Span(name, parent=_CURRENT.get(), **attributes)
    token = _CURRENT.set(node)
    try:
        yield node
    finally:
        node.finish()
        _CURRENT.reset(token)


@contextlib.contextmanager
def activate(node: Span | None) -> Iterator[Span | None]:
    """Pin an existing span as this context's ambient parent.

    Used by the service to re-enter a request's span from a worker
    thread, and by ``execute_plan`` to attribute each execution unit to
    the request it serves.  ``activate(None)`` is a harmless no-op
    context, so call sites don't need to branch on tracing-enabled.
    """
    token = _CURRENT.set(node)
    try:
        yield node
    finally:
        _CURRENT.reset(token)


@contextlib.contextmanager
def suppressed() -> Iterator[None]:
    """Detach the ambient span for the duration.

    For shared, amortised work that must not be billed to whichever
    query happened to trigger it (lazy landmark-table and oracle
    builds): inside this context, :func:`record` and :func:`span`
    behave as if no trace were active.
    """
    token = _CURRENT.set(None)
    try:
        yield
    finally:
        _CURRENT.reset(token)


# -- rendering --------------------------------------------------------

# Counters every line shows as subtree totals (a line adds its own
# nonzero other counters), and the deepest level rendered.
_TREE_KEYS = ("network_pages", "nodes_settled")
_MAX_DEPTH = 8


def format_trace(root: Span) -> str:
    """Render a span tree as indented text with per-span counters.

    Sibling spans sharing a name are aggregated into one line with a
    ``×count`` multiplier — an LBC query opens one ``lbc.resolve`` span
    per candidate, and a thousand identical lines helps nobody.
    """
    lines: list[str] = []

    def describe(spans: list[Span], depth: int) -> None:
        if depth > _MAX_DEPTH or not spans:
            return
        first = spans[0]
        label = first.name
        if len(spans) > 1:
            label += f" ×{len(spans)}"
        duration = sum(s.duration_s for s in spans)
        parts = [f"{'  ' * depth}{label}", f"{duration * 1e3:.2f}ms"]
        for key in _TREE_KEYS:
            total = sum(s.total(key) for s in spans)
            if total:
                parts.append(f"{key}={int(total) if total == int(total) else total}")
        extra_keys = sorted(
            k
            for s in spans
            for k in s.counts
            if k not in _TREE_KEYS and s.counts[k]
        )
        for key in dict.fromkeys(extra_keys):
            total = sum(s.own(key) for s in spans)
            parts.append(f"{key}={int(total) if total == int(total) else total}")
        lines.append("  ".join(parts))
        # Group each generation of children by name, preserving order.
        grouped: dict[str, list[Span]] = {}
        for parent in spans:
            for child in parent.children:
                grouped.setdefault(child.name, []).append(child)
        for name in grouped:
            describe(grouped[name], depth + 1)

    header = f"trace {root.trace_id}"
    if root.attributes:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(root.attributes.items()))
        header += f"  [{attrs}]"
    lines.append(header)
    describe([root], 0)
    return "\n".join(lines)
