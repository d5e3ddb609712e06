"""Simulated storage stack: pages, disk, LRU buffer pool, I/O stats.

This package is the cost model beneath every disk-resident structure in
the library.  It reproduces the paper's experimental storage setup —
4 KiB pages behind a 1 MiB LRU buffer — so "network disk pages accessed"
can be measured exactly as the paper measures it.
"""

from repro.storage.binding import NodePager
from repro.storage.buffer import DEFAULT_BUFFER_BYTES, BufferPool
from repro.storage.disk import DiskManager, PageNotFoundError
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER_SIZE,
    Page,
    PageOverflowError,
)
from repro.storage.stats import IOStats

__all__ = [
    "DEFAULT_BUFFER_BYTES",
    "DEFAULT_PAGE_SIZE",
    "PAGE_HEADER_SIZE",
    "BufferPool",
    "DiskManager",
    "IOStats",
    "NodePager",
    "Page",
    "PageNotFoundError",
    "PageOverflowError",
]
