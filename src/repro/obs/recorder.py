"""Flight recorder: always-on crash forensics for the serving plane.

Two cooperating pieces, all stdlib:

* :class:`FlightRecorder` — a bounded ring of recently *finished*
  queries' :class:`~repro.obs.events.Completion` records (one deque
  append per query; serialisation is deferred to dump time) plus
  :meth:`FlightRecorder.dump`, which writes a single self-contained
  JSON *flight record*: the ring contents, every *in-flight* query's
  live span tree (via the registry below), and a
  ``sys._current_frames`` stack snapshot of every thread.  Triggers
  are the caller's business: slow query, error, SIGUSR2.  A record is
  plain JSON; read it with any JSON tool.
  The ring is the service's only store of retained traces: the slow
  view (:meth:`FlightRecorder.slow_records`, served at ``/slowlogz``)
  and the ``--trace-dir`` export (:meth:`FlightRecorder.export_traces`)
  both read it.
* :class:`InFlightTable` — the registry of admitted-but-unfinished
  queries and their root spans, which each dump lists.

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


class InFlightEntry:
    """One admitted-but-unfinished query and its live root span."""

    __slots__ = ("request_id", "algorithm", "span", "registered_at")

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

    def to_dict(self, now: float) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "request_id": self.request_id,
            "algorithm": self.algorithm,
            "age_s": round(now - self.registered_at, 6),
            "trace_id": self.span.trace_id if self.span is not None else None,
        }
        if self.span is not None:
            payload["span"] = safe_span_dict(self.span)
        return payload


class InFlightTable:
    """Thread-safe registry of in-flight queries (admission → finish)."""

    def __init__(self) -> None:
        self._entries: dict[Any, InFlightEntry] = {}
        self._lock = threading.Lock()

    def register(self, request_id, algorithm: str, span: Span | None) -> None:
        entry = InFlightEntry(request_id, algorithm, span, time.monotonic())
        with self._lock:
            self._entries[request_id] = entry

    def deregister(self, request_id) -> None:
        with self._lock:
            self._entries.pop(request_id, None)

    def entries(self) -> list[InFlightEntry]:
        with self._lock:
            return list(self._entries.values())

    def count(self) -> int:
        with self._lock:
            return len(self._entries)


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
        """Write each retained span as ``trace-<trace_id>.json``
        (:meth:`~repro.obs.tracing.Span.to_dict`); returns the paths."""
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

    # -- dump side -----------------------------------------------------

    def dump_payload(
        self, reason: str, extra: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """The full flight record as a dict (no file written)."""
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
            now = time.monotonic()  # the in-flight table's clock
            inflight = [
                entry.to_dict(now) for entry in self.inflight.entries()
            ]
        payload: dict[str, Any] = {
            "flight_record": FLIGHT_RECORD_VERSION,
            "reason": reason,
            "wall_time": time.time(),
            "ring": ring,
            "inflight": inflight,
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
        herds; one record per interval captures the same state).  A
        dump counts as written once its file is, so ``dumps_written``
        equals the files on disk.
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
            sequence = self._ids = self._ids + 1
        payload = self.dump_payload(reason, extra=extra)
        os.makedirs(self.dump_dir, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        name = f"flightrecord-{stamp}-{sequence:04d}-{reason}.json"
        path = os.path.join(self.dump_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        with self._lock:
            self._dumps += 1
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
