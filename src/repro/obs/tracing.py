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

:func:`format_trace` renders a tree (live, or loaded back from JSON
via :meth:`Span.from_dict`) as indented text for ``repro trace``.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from contextvars import ContextVar
from typing import Any, Iterator

_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)

# Thread id -> innermost active span, mirrored from the contextvar by
# the span()/activate()/suppressed() context managers.  The contextvar
# is invisible from outside the owning thread, so the sampling profiler
# (:mod:`repro.profiling`) reads this map instead to attribute a
# ``sys._current_frames()`` sample to the span the sampled thread was
# executing under.  Two dict writes per *span* (not per record()) keep
# the hot path untouched.
_ACTIVE_BY_THREAD: dict[int, "Span | None"] = {}


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
        "parent",
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
        self.parent = parent
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

    # -- ancestry -----------------------------------------------------

    def path(self) -> tuple[str, ...]:
        """Span names from the root down to this span.

        The sampling profiler uses this as the prefix of a collapsed
        stack line, so a flamegraph groups Python frames under the
        query phase that was executing when the sample was taken.
        """
        names: list[str] = []
        node: Span | None = self
        while node is not None:
            names.append(node.name)
            node = node.parent
        return tuple(reversed(names))

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

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        span = cls.__new__(cls)
        span.name = data["name"]
        span.trace_id = data["trace_id"]
        span.span_id = data["span_id"]
        span.parent_id = data.get("parent_id")
        span.start_wall = data.get("start_wall", 0.0)
        span.start_perf = 0.0
        span.end_perf = data.get("duration_s", 0.0)
        span.attributes = dict(data.get("attributes", {}))
        span.counts = dict(data.get("counts", {}))
        span.parent = None
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        for child in span.children:
            child.parent = span
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, counts={self.counts}, "
            f"children={len(self.children)})"
        )


# -- ambient-context helpers ------------------------------------------


def current_span() -> Span | None:
    """The innermost active span in this context, if any."""
    return _CURRENT.get()


def active_span_of_thread(thread_id: int) -> Span | None:
    """The innermost span thread ``thread_id`` is currently under.

    Cross-thread read for the sampling profiler; anything inside the
    running thread should use :func:`current_span` instead.  Reads the
    mirror map the context managers below maintain, so it only sees
    spans opened through :func:`span`/:func:`activate` (which is all of
    them).
    """
    return _ACTIVE_BY_THREAD.get(thread_id)


def active_spans() -> dict[int, Span]:
    """Snapshot of every thread's innermost active span.

    Cross-thread read (flight recorder, ``/debugz``): the dict copy is
    atomic under the GIL; the spans inside are live and may still be
    mutating.
    """
    return {
        ident: node
        for ident, node in dict(_ACTIVE_BY_THREAD).items()
        if node is not None
    }


def active_roots() -> dict[int, Span]:
    """Like :func:`active_spans` but walked up to each tree's root.

    The flight recorder dumps whole in-flight trees, not just the leaf
    phase a thread happens to be inside.
    """
    roots: dict[int, Span] = {}
    for ident, node in active_spans().items():
        while node.parent is not None:
            node = node.parent
        roots[ident] = node
    return roots


def _set_active(node: Span | None) -> int:
    ident = threading.get_ident()
    if node is None:
        _ACTIVE_BY_THREAD.pop(ident, None)
    else:
        _ACTIVE_BY_THREAD[ident] = node
    return ident


def _restore_active(ident: int, node: Span | None) -> None:
    if node is None:
        _ACTIVE_BY_THREAD.pop(ident, None)
    else:
        _ACTIVE_BY_THREAD[ident] = node


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
    previous = _CURRENT.get()
    node = Span(name, parent=previous, **attributes)
    token = _CURRENT.set(node)
    ident = _set_active(node)
    try:
        yield node
    finally:
        node.finish()
        _CURRENT.reset(token)
        _restore_active(ident, previous)


@contextlib.contextmanager
def activate(node: Span | None) -> Iterator[Span | None]:
    """Pin an existing span as this context's ambient parent.

    Used by the service to re-enter a request's span from a worker
    thread, and by ``execute_plan`` to attribute each execution unit to
    the request it serves.  ``activate(None)`` is a harmless no-op
    context, so call sites don't need to branch on tracing-enabled.
    """
    previous = _CURRENT.get()
    token = _CURRENT.set(node)
    ident = _set_active(node)
    try:
        yield node
    finally:
        _CURRENT.reset(token)
        _restore_active(ident, previous)


@contextlib.contextmanager
def suppressed() -> Iterator[None]:
    """Detach the ambient span for the duration.

    For shared, amortised work that must not be billed to whichever
    query happened to trigger it (lazy landmark-table builds, cache
    warmups): inside this context, :func:`record` and :func:`span`
    behave as if no trace were active — and the profiler attributes
    samples taken here to no span.
    """
    previous = _CURRENT.get()
    token = _CURRENT.set(None)
    ident = _set_active(None)
    try:
        yield
    finally:
        _CURRENT.reset(token)
        _restore_active(ident, previous)


# -- rendering --------------------------------------------------------

_TREE_KEYS = ("network_pages", "nodes_settled")


def format_trace(
    root: Span,
    keys: tuple[str, ...] = _TREE_KEYS,
    max_depth: int = 8,
) -> str:
    """Render a span tree as indented text with per-span counters.

    Sibling spans sharing a name are aggregated into one line with a
    ``×count`` multiplier — an LBC query opens one ``lbc.resolve`` span
    per candidate, and a thousand identical lines helps nobody.
    """
    lines: list[str] = []

    def describe(spans: list[Span], depth: int) -> None:
        if depth > max_depth or not spans:
            return
        first = spans[0]
        label = first.name
        if len(spans) > 1:
            label += f" ×{len(spans)}"
        duration = sum(s.duration_s for s in spans)
        parts = [f"{'  ' * depth}{label}", f"{duration * 1e3:.2f}ms"]
        for key in keys:
            total = sum(s.total(key) for s in spans)
            if total:
                parts.append(f"{key}={int(total) if total == int(total) else total}")
        extra_keys = sorted(
            k
            for s in spans
            for k in s.counts
            if k not in keys and s.counts[k]
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
