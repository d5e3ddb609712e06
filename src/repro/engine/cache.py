"""Bounded LRU memo of settled network distances.

The :class:`DistanceMemo` is the engine's cross-query cache for
distances that cost a search: every ``(source, target)`` pair whose
exact distance an online wavefront or a CH lookup settled once — on
behalf of any algorithm — can be answered again without touching the
network store.  Distances are backend-independent (every backend is
exact), so the memo is keyed on locations only and a fill from one
backend serves them all.  A hub-label oracle bypasses it: the query
point's label column already is its table of resolved distances.

The memo is deliberately dumb about invalidation: it only knows how to
drop everything.  The :class:`~repro.engine.engine.DistanceEngine`
decides *when* (object churn, edge-weight mutation), because only it
sees those events.

The memo is **thread-safe**: every structural operation (lookup with
its move-to-end, insert with its evictions, clear) runs under one
internal lock, so concurrent workers sharing an engine can never
corrupt the LRU order or lose counter updates.  Values are plain
floats, so the worst a racing pair of writers can do is insert the
same exact distance twice — which the lock prevents anyway.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs import tracing

DEFAULT_MEMO_CAPACITY = 65536

MemoKey = tuple


@dataclass
class MemoCounters:
    """Monotone counters; consumers snapshot and delta them per query."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0


class DistanceMemo:
    """A bounded least-recently-used map of distance-pair keys."""

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[MemoKey, float] = OrderedDict()
        self._lock = threading.Lock()
        self.counters = MemoCounters()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: MemoKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: MemoKey, count: bool = True) -> float | None:
        """The cached distance, refreshing recency; None on a miss.

        ``count=False`` reads without counting a hit or miss — the
        engine's ``known_distance`` probe, which like a fill is not a
        lookup by ``distance()``.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                if count:
                    self.counters.misses += 1
                    tracing.record("engine_misses")
                return None
            self._entries.move_to_end(key)
            if count:
                self.counters.hits += 1
                tracing.record("engine_hits")
            return value

    def put(self, key: MemoKey, value: float) -> None:
        """Insert (or refresh) one settled distance, evicting LRU entries.

        Fills are not counted as hits or misses — only lookups are —
        so opportunistic recording (e.g. CE emissions) does not distort
        the hit ratio.
        """
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.counters.evictions += 1
                tracing.record("engine_evictions")

    def clear(self, count_invalidation: bool = True) -> None:
        """Drop every entry (a mutation made them unsafe)."""
        with self._lock:
            if self._entries and count_invalidation:
                self.counters.invalidations += 1
            self._entries.clear()
