"""Binding in-memory tree nodes to simulated disk pages.

The indexes in :mod:`repro.index` are ordinary linked node structures;
what makes them "disk-resident" for cost purposes is a :class:`NodePager`
that assigns one page per node and routes every node visit through an
LRU :class:`~repro.storage.buffer.BufferPool`.  Structures without a
pager attached simply run without I/O accounting (handy in unit tests).
"""

from __future__ import annotations

from typing import Hashable

from repro.storage.buffer import DEFAULT_BUFFER_BYTES, BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import IOStats


class NodePager:
    """Maps node keys to simulated pages and charges accesses to a pool."""

    def __init__(
        self,
        disk: DiskManager | None = None,
        pool: BufferPool | None = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        page_size: int = DEFAULT_PAGE_SIZE,
        stats: IOStats | None = None,
        component: str | None = None,
    ) -> None:
        self.disk = disk if disk is not None else DiskManager(page_size=page_size)
        if pool is None:
            pool = BufferPool(
                self.disk,
                capacity_bytes=buffer_bytes,
                stats=stats,
                component=component,
            )
        self.pool = pool
        self._page_of: dict[Hashable, int] = {}

    @property
    def stats(self) -> IOStats:
        return self.pool.stats

    def register(self, node_key: Hashable) -> int:
        """Allocate (or look up) the page backing ``node_key``."""
        page_id = self._page_of.get(node_key)
        if page_id is None:
            page_id = self.disk.allocate().page_id
            self._page_of[node_key] = page_id
        return page_id

    def touch(self, node_key: Hashable) -> None:
        """Charge one page access for visiting ``node_key``."""
        page_id = self.register(node_key)
        self.pool.fetch(page_id)

    def forget(self, node_key: Hashable) -> None:
        """Drop the mapping for a deallocated node (page stays on disk)."""
        self._page_of.pop(node_key, None)

    def page_count(self) -> int:
        """Pages allocated so far."""
        return self.disk.page_count
