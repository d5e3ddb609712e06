"""LRU buffer pool over the simulated disk.

The paper runs every experiment behind a **1 MiB LRU buffer** of
**4 KiB pages** (256 frames).  :class:`BufferPool` reproduces that cost
model: a page request is a *hit* (free) when the page is resident, a
*miss* (one physical read) otherwise, and a miss on a full pool evicts
the least recently used page.

The pool is **thread-safe**: one internal lock covers the resident
map, its recency order *and* the :class:`IOStats` increments, so
workers sharing a store never corrupt the recency order or lose
hit/miss updates (unguarded ``+=`` on the counters is a classic lost
update, and would make ``--stats`` undercount physical reads).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs import tracing
from repro.storage.disk import DiskManager
from repro.storage.page import Page
from repro.storage.stats import IOStats

DEFAULT_BUFFER_BYTES = 1024 * 1024
"""Default total buffer size (1 MiB), matching the paper's setup."""


class BufferPool:
    """Fixed-capacity LRU page cache with hit/miss accounting."""

    def __init__(
        self,
        disk: DiskManager,
        capacity_bytes: int = DEFAULT_BUFFER_BYTES,
        stats: IOStats | None = None,
        component: str | None = None,
    ) -> None:
        frames = capacity_bytes // disk.page_size
        if frames < 1:
            raise ValueError(
                f"buffer of {capacity_bytes} bytes holds no "
                f"{disk.page_size}-byte page"
            )
        self._disk = disk
        self._frames = frames
        # Resident pages, least recently used first.
        self._resident: OrderedDict[int, Page] = OrderedDict()
        # Guards residency, recency order and stats increments; see the
        # module docstring.
        self._lock = threading.Lock()
        self.stats = stats if stats is not None else IOStats()
        # Span-accounting key: a physical read is charged to the active
        # trace span as "<component>_pages" ("network", "index",
        # "middle").  None = unattributed pool (unit tests).
        self.component = component
        self._miss_key = f"{component}_pages" if component else None

    @property
    def frame_count(self) -> int:
        """Number of page frames in the pool."""
        return self._frames

    @property
    def resident_count(self) -> int:
        """Pages currently cached."""
        return len(self._resident)

    def fetch(self, page_id: int) -> Page:
        """Return a page, updating recency order and counters."""
        with self._lock:
            page = self._resident.get(page_id)
            if page is not None:
                self.stats.record_read(hit=True)
                self._resident.move_to_end(page_id)
                return page
            page = self._disk.read(page_id)
            self.stats.record_read(hit=False)
            if self._miss_key is not None:
                tracing.record(self._miss_key)
            if len(self._resident) >= self._frames:
                self._resident.popitem(last=False)
            self._resident[page_id] = page
            return page

    def fetch_many(self, page_ids: list[int]) -> None:
        """Fetch pages in order under one lock hold.

        Residency, recency order, stats and the span's miss count end up
        exactly as a loop of :meth:`fetch` over ``page_ids`` leaves them.
        """
        misses = 0
        with self._lock:
            resident = self._resident
            for page_id in page_ids:
                try:
                    resident.move_to_end(page_id)
                except KeyError:
                    misses += 1
                    if len(resident) >= self._frames:
                        resident.popitem(last=False)
                    resident[page_id] = self._disk.read(page_id)
            self.stats.logical_reads += len(page_ids)
            self.stats.physical_reads += misses
        if misses and self._miss_key is not None:
            tracing.record(self._miss_key, misses)

    def is_resident(self, page_id: int) -> bool:
        """True if the page is currently cached (no state change)."""
        with self._lock:
            return page_id in self._resident

    def clear(self) -> None:
        """Drop every cached page (a 'cold' restart between experiments)."""
        with self._lock:
            self._resident.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without evicting pages."""
        with self._lock:
            self.stats.reset()
