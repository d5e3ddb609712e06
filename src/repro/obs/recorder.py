"""Flight recorder: always-on crash/stall forensics for the serving plane.

Three cooperating pieces, all stdlib:

* :class:`FlightRecorder` — a bounded ring of recently *finished*
  queries' :class:`~repro.obs.events.Completion` records (one deque
  append per query; serialisation is deferred to dump time) plus
  :meth:`FlightRecorder.dump`, which writes a single self-contained
  JSON *flight record*: the ring contents, every *in-flight* query's
  live span tree (via the registry below and the per-thread
  active-span mirror in :mod:`repro.obs.tracing`), and a
  ``sys._current_frames`` stack snapshot of every thread.  Triggers
  are the caller's business: slow query, error, SIGUSR2, watchdog.
  The ring is the service's only store of retained traces: the slow
  view (:meth:`FlightRecorder.slow_records`, served at ``/slowlogz``)
  and the ``--trace-dir`` export (:meth:`FlightRecorder.export_traces`)
  both read it.
* :class:`InFlightTable` — the registry of admitted-but-unfinished
  queries (root span + progress bookkeeping) that the watchdog scans
  and ``GET /debugz`` renders.
* :class:`StallWatchdog` — a passive scanner (the service drives it
  from its diagnostics thread; tests drive :meth:`StallWatchdog.scan`
  directly with a fake clock) that flags any in-flight query whose
  root span has exceeded a deadline *with no counter progress* — the
  signature of a wedged expansion, a deadlock, or a client that will
  never get an answer.

Live span trees are serialised with :func:`safe_span_dict`: the owning
thread is still appending children and bumping counters while we walk,
so a ``RuntimeError`` from a mutating dict is retried and ultimately
degrades to a truncated snapshot instead of failing the dump.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable

import repro.obs.tracing as tracing
from repro.obs.events import Completion
from repro.obs.tracing import Span

FLIGHT_RECORD_VERSION = 1

DEFAULT_RING = 64
DEFAULT_MIN_DUMP_INTERVAL_S = 1.0


def thread_stacks() -> dict[str, list[str]]:
    """Formatted stack of every live thread, keyed ``name-ident``."""
    frames = sys._current_frames()
    names = {t.ident: t.name for t in threading.enumerate()}
    stacks: dict[str, list[str]] = {}
    for ident, frame in frames.items():
        label = f"{names.get(ident, 'thread')}-{ident}"
        stacks[label] = [
            line.rstrip("\n")
            for entry in traceback.format_stack(frame)
            for line in entry.splitlines()
        ]
    return stacks


def safe_span_dict(span: Span, retries: int = 3) -> dict[str, Any]:
    """``span.to_dict()`` hardened against concurrent mutation.

    A live span's children/counts are being written by its owning
    thread; dict/list copies can raise ``RuntimeError`` mid-iteration.
    Retry a few times (the window is microseconds), then fall back to
    a shallow snapshot so a dump never fails because a query was busy.
    """
    for _ in range(retries):
        try:
            return span.to_dict()
        except RuntimeError:
            continue
    return {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_wall": span.start_wall,
        "duration_s": span.duration_s,
        "attributes": {},
        "counts": {},
        "children": [],
        "truncated": True,
    }


def progress_signal(span: Span) -> float | None:
    """A scalar that changes whenever the span tree does any work.

    The sum of all recursive counter totals plus the subtree size.
    ``None`` means the walk raced a mutation — which is itself proof
    of progress, so callers treat it as "advancing".
    """
    try:
        totals = span.totals()
        return float(sum(totals.values())) + float(_subtree_size(span))
    except RuntimeError:
        return None


def _subtree_size(span: Span) -> int:
    size = 1
    for child in span.children:
        size += _subtree_size(child)
    return size


class InFlightEntry:
    """One admitted-but-unfinished query, as the watchdog sees it."""

    __slots__ = (
        "request_id",
        "algorithm",
        "span",
        "registered_at",
        "last_progress",
        "last_progress_at",
        "stalled",
    )

    def __init__(
        self,
        request_id,
        algorithm: str,
        span: Span | None,
        registered_at: float,
    ) -> None:
        self.request_id = request_id
        self.algorithm = algorithm
        self.span = span
        self.registered_at = registered_at
        self.last_progress: float | None = None
        self.last_progress_at = registered_at
        self.stalled = False

    def age_s(self, now: float) -> float:
        return now - self.registered_at

    def to_dict(self, now: float, with_span: bool = True) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "request_id": self.request_id,
            "algorithm": self.algorithm,
            "age_s": round(self.age_s(now), 6),
            "since_progress_s": round(now - self.last_progress_at, 6),
            "stalled": self.stalled,
            "trace_id": self.span.trace_id if self.span is not None else None,
        }
        if with_span and self.span is not None:
            payload["span"] = safe_span_dict(self.span)
        return payload


class InFlightTable:
    """Thread-safe registry of in-flight queries (admission → finish)."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._entries: dict[Any, InFlightEntry] = {}
        self._lock = threading.Lock()

    def register(
        self, request_id, algorithm: str, span: Span | None
    ) -> InFlightEntry:
        entry = InFlightEntry(request_id, algorithm, span, self._clock())
        with self._lock:
            self._entries[request_id] = entry
        return entry

    def deregister(self, request_id) -> None:
        with self._lock:
            self._entries.pop(request_id, None)

    def entries(self) -> list[InFlightEntry]:
        with self._lock:
            return list(self._entries.values())

    def snapshot(self, with_span: bool = True) -> list[dict[str, Any]]:
        """Every entry as a JSON-ready dict (``/debugz``, dumps)."""
        now = self._clock()
        return [
            entry.to_dict(now, with_span=with_span)
            for entry in self.entries()
        ]

    def count(self) -> int:
        with self._lock:
            return len(self._entries)

    def stalled_count(self) -> int:
        with self._lock:
            return sum(1 for e in self._entries.values() if e.stalled)


class StallWatchdog:
    """Flags in-flight queries past a deadline with no counter progress.

    Passive by design: :meth:`scan` does one pass over the table and is
    safe to call from any thread at any cadence.  A query is *stalled*
    when ``deadline_s`` has elapsed since its progress signal last
    changed (registration counts as the first change) — a long query
    that keeps settling nodes never trips it; a blocked one does.
    ``on_stall`` fires exactly once per stalled query.
    """

    def __init__(
        self,
        inflight: InFlightTable,
        *,
        deadline_s: float,
        on_stall: Callable[[InFlightEntry], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_s <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline_s}")
        self.inflight = inflight
        self.deadline_s = deadline_s
        self.on_stall = on_stall
        self._clock = clock
        self._stalls = 0
        self._lock = threading.Lock()

    @property
    def stall_count(self) -> int:
        with self._lock:
            return self._stalls

    def scan(self) -> list[InFlightEntry]:
        """One pass; returns the entries newly flagged as stalled."""
        now = self._clock()
        flagged: list[InFlightEntry] = []
        for entry in self.inflight.entries():
            if entry.stalled:
                continue
            signal = (
                progress_signal(entry.span)
                if entry.span is not None
                else None
            )
            if signal is None or signal != entry.last_progress:
                # None means the walk raced live mutation: progress.
                entry.last_progress = signal
                entry.last_progress_at = now
                continue
            if now - entry.last_progress_at < self.deadline_s:
                continue
            entry.stalled = True
            flagged.append(entry)
        if flagged:
            # Count only once the callbacks (the stall dumps) are done, so
            # a reader that sees the count also sees what it triggered.
            try:
                if self.on_stall is not None:
                    for entry in flagged:
                        self.on_stall(entry)
            finally:
                with self._lock:
                    self._stalls += len(flagged)
        return flagged


class FlightRecorder:
    """Ring of recent completion records + triggered black-box dumps."""

    def __init__(
        self,
        *,
        ring: int = DEFAULT_RING,
        dump_dir: str | None = None,
        inflight: InFlightTable | None = None,
        min_dump_interval_s: float = DEFAULT_MIN_DUMP_INTERVAL_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ring < 1:
            raise ValueError(f"ring size must be >= 1, got {ring}")
        self.dump_dir = dump_dir
        self.inflight = inflight
        self.min_dump_interval_s = min_dump_interval_s
        self._clock = clock
        self._ring: deque[Completion] = deque(maxlen=ring)
        self._lock = threading.Lock()
        self._dumps = 0
        self._dumps_suppressed = 0
        self._last_dump_at: float | None = None
        self._ids = 0

    # -- always-on side ------------------------------------------------

    def record(self, completion: Completion) -> None:
        """Retain one finished query (one deque append, no
        serialisation — dumps and exports pay that cost, not queries)."""
        with self._lock:
            self._ring.append(completion)

    def ring_entries(self) -> list[Completion]:
        with self._lock:
            return list(self._ring)

    def slow_records(self, threshold_s: float) -> list[Completion]:
        """Retained ``completed`` records at or over ``threshold_s``,
        slowest first (the ``/slowlogz`` view)."""
        slow = [
            entry
            for entry in self.ring_entries()
            if entry.outcome == "completed" and entry.latency_s >= threshold_s
        ]
        return sorted(slow, key=lambda entry: -entry.latency_s)

    def export_traces(self, directory: str) -> list[str]:
        """Write each retained span as ``trace-<trace_id>.json`` (the
        format ``repro trace --last`` renders); returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths: list[str] = []
        for entry in self.ring_entries():
            if entry.span is None:
                continue
            path = os.path.join(directory, f"trace-{entry.span.trace_id}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry.span.to_dict(), handle, indent=1)
            paths.append(path)
        return paths

    @property
    def ring_size(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def dump_count(self) -> int:
        with self._lock:
            return self._dumps

    @property
    def suppressed_count(self) -> int:
        with self._lock:
            return self._dumps_suppressed

    # -- dump side -----------------------------------------------------

    def dump_payload(
        self, reason: str, extra: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """The full flight record as a dict (no file written)."""
        now = self._clock()
        ring = [
            {
                "outcome": entry.outcome,
                "latency_s": entry.latency_s,
                "wall_time": entry.ts,
                "trace": (
                    safe_span_dict(entry.span) if entry.span is not None else {}
                ),
            }
            for entry in self.ring_entries()
        ]
        inflight = []
        if self.inflight is not None:
            inflight = [
                entry.to_dict(now, with_span=True)
                for entry in self.inflight.entries()
            ]
        active = {}
        for ident, root in tracing.active_roots().items():
            active[str(ident)] = safe_span_dict(root)
        payload: dict[str, Any] = {
            "flight_record": FLIGHT_RECORD_VERSION,
            "reason": reason,
            "wall_time": time.time(),
            "ring": ring,
            "inflight": inflight,
            "active_by_thread": active,
            "threads": thread_stacks(),
        }
        if extra:
            payload["extra"] = dict(extra)
        return payload

    def dump(
        self,
        reason: str,
        *,
        extra: dict[str, Any] | None = None,
        force: bool = False,
    ) -> str | None:
        """Write a flight record to ``dump_dir``; returns the path.

        Returns ``None`` when no directory is configured or when the
        rate limiter suppresses a burst (errors tend to arrive in
        herds; one record per interval captures the same state).
        """
        if self.dump_dir is None:
            return None
        now = self._clock()
        with self._lock:
            recent = (
                self._last_dump_at is not None
                and now - self._last_dump_at < self.min_dump_interval_s
            )
            if recent and not force:
                self._dumps_suppressed += 1
                return None
            self._last_dump_at = now
            self._dumps += 1
            sequence = self._ids = self._ids + 1
        payload = self.dump_payload(reason, extra=extra)
        os.makedirs(self.dump_dir, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        name = f"flightrecord-{stamp}-{sequence:04d}-{reason}.json"
        path = os.path.join(self.dump_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        return path

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "ring_retained": len(self._ring),
                "ring_capacity": self._ring.maxlen,
                "dumps_written": self._dumps,
                "dumps_suppressed": self._dumps_suppressed,
                "dump_dir": self.dump_dir,
            }


def install_signal_dump(recorder: FlightRecorder, signum=None) -> bool:
    """Dump a flight record on SIGUSR2 (no-op where unsupported).

    Python signal handlers run in the main thread between bytecodes,
    so writing the record inline is safe; the default rate limiter is
    bypassed — an operator pressing the button deserves a record.
    """
    import signal as signal_module

    if signum is None:
        signum = getattr(signal_module, "SIGUSR2", None)
    if signum is None:
        return False

    def _handler(received, frame):
        recorder.dump("sigusr2", force=True)

    try:
        signal_module.signal(signum, _handler)
    except ValueError:  # not the main thread
        return False
    return True


def load_flight_record(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if "flight_record" not in payload:
        raise ValueError(f"{path} is not a flight record")
    return payload


def latest_flight_record(directory: str) -> str | None:
    """Newest ``flightrecord-*.json`` under ``directory`` (by mtime)."""
    candidates = [
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("flightrecord-") and name.endswith(".json")
    ]
    if not candidates:
        return None
    return max(candidates, key=os.path.getmtime)


def format_flight_record(
    payload: dict[str, Any],
    *,
    max_depth: int = 6,
    include_threads: bool = True,
    keys: tuple[str, ...] = ("network_pages", "nodes_settled"),
) -> str:
    """Render a flight record for ``repro blackbox``."""
    lines: list[str] = []
    stamp = time.strftime(
        "%Y-%m-%d %H:%M:%SZ", time.gmtime(payload.get("wall_time", 0.0))
    )
    lines.append(
        f"flight record v{payload.get('flight_record')}  "
        f"reason={payload.get('reason')}  written={stamp}"
    )
    extra = payload.get("extra")
    if extra:
        parts = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        lines.append(f"  {parts}")

    ring = payload.get("ring", [])
    lines.append(f"\nrecent completed traces ({len(ring)}):")
    for entry in ring:
        trace = entry.get("trace", {})
        counts = _trace_totals(trace)
        summary = " ".join(
            f"{key}={int(counts[key])}" for key in keys if counts.get(key)
        )
        lines.append(
            f"  {trace.get('trace_id', '?'):>16s}  "
            f"{trace.get('name', '?'):<20s} "
            f"outcome={entry.get('outcome', '?'):<18s} "
            f"latency={entry.get('latency_s', 0.0) * 1e3:8.2f}ms  {summary}"
        )

    inflight = payload.get("inflight", [])
    lines.append(f"\nin-flight queries ({len(inflight)}):")
    for entry in inflight:
        flag = "STALLED" if entry.get("stalled") else "running"
        lines.append(
            f"  request {entry.get('request_id')} "
            f"[{entry.get('algorithm')}] {flag}  "
            f"age={entry.get('age_s', 0.0):.3f}s "
            f"since_progress={entry.get('since_progress_s', 0.0):.3f}s"
        )
        span_dict = entry.get("span")
        if span_dict:
            tree = tracing.format_trace(
                Span.from_dict(span_dict), keys=keys, max_depth=max_depth
            )
            lines.extend("    " + line for line in tree.splitlines())

    if include_threads:
        threads = payload.get("threads", {})
        lines.append(f"\nthread stacks ({len(threads)}):")
        for label in sorted(threads):
            lines.append(f"  -- {label}")
            lines.extend("    " + line for line in threads[label])
    return "\n".join(lines)


def _trace_totals(trace: dict[str, Any]) -> dict[str, float]:
    totals: dict[str, float] = dict(trace.get("counts", {}))
    for child in trace.get("children", []):
        for key, value in _trace_totals(child).items():
            totals[key] = totals.get(key, 0.0) + value
    return totals
