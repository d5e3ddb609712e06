"""The per-query completion record and the wide-event log it feeds.

A :class:`Completion` is everything known about one finished request
(metadata, outcome, both latency clocks, every span-derived cost
counter, batch/group id, trace id, and the finished request span).
The service builds exactly one per query and hands the same object to
every per-query sink: the wide-event log below, the live insight hub
(:mod:`repro.insight.live`) and the flight-recorder ring
(:mod:`repro.obs.recorder`).  Its :meth:`Completion.to_event` form is
the *wide event*: the record flattened into a single JSON line, so
"what happened to that query last night?" is one ``grep`` away and
joins against traces and flight dumps by ``trace_id``.

Design constraints of the log, in order:

* **The serving hot path never blocks on disk.**  :meth:`EventLog.emit`
  is a bounded-queue handoff to a dedicated writer thread; when the
  queue is full the event is *dropped and counted* (``events_dropped``)
  instead of stalling a worker.  The accounting identity
  ``emitted == written + dropped`` holds exactly once the log is
  closed, and is asserted by the backpressure tests.
* **Bounded disk.**  The writer rotates the file by size
  (``events.jsonl`` → ``events.jsonl.1`` → …), keeping a fixed number
  of rotated generations.
* **Reconciliation by construction.**  The record's ``counters`` block
  is built from the *same* :class:`~repro.core.stats.QueryStats` the
  client response carries (see ``QueryStats.counter_fields``), so the
  event and the stats row cannot drift apart.

``obs`` is a standalone foundation package: this module knows nothing
about the service or the core layer — callers fill the record with
plain values.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.obs.tracing import Span

WIDE_EVENT_VERSION = 1

DEFAULT_EVENT_QUEUE = 1024
DEFAULT_ROTATE_BYTES = 8 * 1024 * 1024
DEFAULT_ROTATE_KEEP = 3

_NUMBER_TYPES = (int, float)


@dataclass(frozen=True, slots=True)
class Completion:
    """One finished query, as every per-query sink sees it.

    Two clocks, deliberately kept apart: ``latency_s`` runs from
    admission to completion (queue wait included), ``span_duration_s``
    is the algorithm's own execution time (``QueryStats.total_response_s``;
    0.0 for queries that never produced an answer).  ``ts`` is a wall
    stamp for correlating with external logs.  ``span`` is the finished
    request span; it is retained by the flight recorder but never
    serialised into the event.
    """

    request_id: int | str
    algorithm: str
    outcome: str
    trace_id: str | None = None
    ts: float = field(default_factory=time.time)
    latency_s: float = 0.0
    span_duration_s: float = 0.0
    batch_id: int | None = None
    engine_backend: str = ""
    query_count: int = 0
    query_nodes: list = field(default_factory=list)
    skyline_count: int = 0
    candidate_count: int = 0
    counters: Mapping[str, float] = field(default_factory=dict)
    error: str | None = None
    extras: Mapping[str, Any] | None = None
    event: str = "query"
    span: Span | None = field(default=None, compare=False, repr=False)

    def to_event(self) -> dict[str, Any]:
        """The canonical wide event (a plain JSON-serialisable dict).

        ``counters`` values must be numbers — they are the span-derived
        cost counters and downstream consumers sum them; a non-numeric
        value fails here, at the producer, not in some 3am log query.
        """
        checked: dict[str, float] = {}
        for key, value in self.counters.items():
            if not isinstance(key, str) or not key:
                raise TypeError(
                    f"counter keys must be non-empty str, got {key!r}"
                )
            if isinstance(value, bool) or not isinstance(value, _NUMBER_TYPES):
                raise TypeError(
                    f"counters[{key!r}] must be a number, "
                    f"got {type(value).__name__}"
                )
            checked[key] = (
                int(value) if float(value).is_integer() else float(value)
            )
        record: dict[str, Any] = {
            "event": self.event,
            "v": WIDE_EVENT_VERSION,
            "ts": self.ts,
            "request_id": self.request_id,
            "algorithm": self.algorithm,
            "outcome": self.outcome,
            "trace_id": self.trace_id,
            "batch_id": self.batch_id,
            "engine_backend": self.engine_backend,
            "latency_s": self.latency_s,
            "span_duration_s": self.span_duration_s,
            "query_count": self.query_count,
            "query_nodes": list(self.query_nodes),
            "skyline_count": self.skyline_count,
            "candidate_count": self.candidate_count,
            "counters": checked,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.extras:
            record["extras"] = dict(self.extras)
        return record


class EventLog:
    """Bounded-queue async JSONL writer with size-based rotation.

    One writer thread owns the file; producers call :meth:`emit`, which
    either enqueues (cheap: one ``Queue.put_nowait``) or drops.  All
    four lifecycle counters — emitted, written, dropped, rotations —
    are exact, and ``flush()``/``close()`` provide the barriers tests
    and shutdown paths need.
    """

    def __init__(
        self,
        path: str,
        *,
        queue_limit: int = DEFAULT_EVENT_QUEUE,
        rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        rotate_keep: int = DEFAULT_ROTATE_KEEP,
    ) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {queue_limit}")
        if rotate_bytes < 1:
            raise ValueError(f"rotate_bytes must be >= 1, got {rotate_bytes}")
        if rotate_keep < 1:
            raise ValueError(f"rotate_keep must be >= 1, got {rotate_keep}")
        self.path = path
        self.rotate_bytes = rotate_bytes
        self.rotate_keep = rotate_keep
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._state = threading.Condition()
        # Guarded by _state's lock.
        self._emitted = 0
        self._written = 0
        self._dropped = 0
        self._rotations = 0
        self._closed = False

        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        self._size = self._handle.tell()
        self._thread = threading.Thread(
            target=self._writer_loop, name="repro-events", daemon=True
        )
        self._thread.start()

    # -- producer side -------------------------------------------------

    def emit(self, event: dict[str, Any]) -> bool:
        """Enqueue one event; returns False (and counts) when shedding.

        Never blocks: a full queue means the writer is behind, and a
        diagnostics plane that stalls the plane it diagnoses would be
        worse than a gap in the log.
        """
        with self._state:
            self._emitted += 1
            if self._closed:
                self._dropped += 1
                return False
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            with self._state:
                self._dropped += 1
            return False
        return True

    # -- writer side ---------------------------------------------------

    def _writer_loop(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                with self._state:
                    if self._closed and self._queue.empty():
                        return
                continue
            if item is None:  # close() sentinel
                return
            self._write_record(item)
            with self._state:
                self._written += 1
                self._state.notify_all()

    def _write_record(self, event: dict[str, Any]) -> None:
        """Serialise + append one record (writer thread only).

        Split out as a method so tests can subclass with an artificially
        slow writer to drive the backpressure path deterministically.
        """
        line = json.dumps(event, separators=(",", ":")) + "\n"
        encoded = len(line.encode("utf-8"))
        if self._size > 0 and self._size + encoded > self.rotate_bytes:
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        self._size += encoded

    def _rotate(self) -> None:
        """Shift ``path`` -> ``path.1`` -> … -> ``path.keep`` (dropped)."""
        self._handle.close()
        oldest = f"{self.path}.{self.rotate_keep}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.rotate_keep - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = 0
        with self._state:
            self._rotations += 1

    # -- barriers ------------------------------------------------------

    def flush(self, timeout: float | None = 5.0) -> bool:
        """Block until everything emitted so far is written or dropped."""
        with self._state:
            target = self._emitted
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._written + self._dropped < target:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._state.wait(remaining)
        return True

    def close(self, timeout: float | None = 5.0) -> None:
        """Drain the queue, stop the writer, close the file."""
        with self._state:
            if self._closed:
                return
            self._closed = True
        self.flush(timeout=timeout)
        try:
            self._queue.put_nowait(None)
        except queue.Full:
            pass
        self._thread.join(timeout=timeout)
        self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Exact lifecycle accounting (emitted = written + dropped
        once closed)."""
        with self._state:
            return {
                "emitted": self._emitted,
                "written": self._written,
                "dropped": self._dropped,
                "rotations": self._rotations,
                "queue_depth": self._queue.qsize(),
            }

    @property
    def emitted(self) -> int:
        with self._state:
            return self._emitted

    @property
    def written(self) -> int:
        with self._state:
            return self._written

    @property
    def dropped(self) -> int:
        with self._state:
            return self._dropped

    @property
    def rotations(self) -> int:
        with self._state:
            return self._rotations

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()


class EventReader:
    """Iterator over a wide-event log, oldest first, crash-tolerant.

    Two realities of reading a log that something else is writing:

    * **Partial records.**  A crash mid-``write`` (or reading the live
      file while the writer is between ``write`` and ``flush``) leaves
      a truncated final line; any line may also be corrupt on a bad
      disk.  Aborting the whole analysis over one bad line would make
      the log least readable exactly when it matters most, so corrupt
      and partial lines are *skipped and counted* —
      :attr:`corrupt_lines` reports how many, and callers surface it.
    * **Rotation races.**  Between listing generations and opening one,
      the writer may rotate it away (``path.2`` renamed to ``path.3``);
      a vanished generation is skipped rather than raised.

    Generations are ordered oldest first: ``path.N … path.1, path``.
    """

    def __init__(self, path: str, include_rotated: bool = True) -> None:
        self.path = path
        self.include_rotated = include_rotated
        self.corrupt_lines = 0
        self.files_read = 0
        self._iterator = self._iterate()

    def __iter__(self) -> "EventReader":
        return self

    def __next__(self) -> dict:
        return next(self._iterator)

    def _paths(self) -> list[str]:
        paths: list[str] = []
        if self.include_rotated:
            generation = 1
            rotated: list[str] = []
            while os.path.exists(f"{self.path}.{generation}"):
                rotated.append(f"{self.path}.{generation}")
                generation += 1
            paths.extend(reversed(rotated))
        if os.path.exists(self.path):
            paths.append(self.path)
        return paths

    def _iterate(self) -> Iterator[dict]:
        for file_path in self._paths():
            try:
                handle = open(file_path, encoding="utf-8")
            except FileNotFoundError:
                continue  # rotated away since _paths() listed it
            with handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        self.corrupt_lines += 1
                        continue
                    if not isinstance(event, dict):
                        self.corrupt_lines += 1
                        continue
                    yield event
            self.files_read += 1


def iter_events(path: str, include_rotated: bool = True) -> EventReader:
    """Parsed events, oldest first, optionally across rotated files.

    Returns an :class:`EventReader`; after (or during) iteration its
    ``corrupt_lines`` attribute counts skipped partial/corrupt lines.
    """
    return EventReader(path, include_rotated=include_rotated)


def read_events(path: str, include_rotated: bool = True) -> list[dict]:
    """All events under ``path`` (rotations included), oldest first."""
    return list(iter_events(path, include_rotated=include_rotated))
