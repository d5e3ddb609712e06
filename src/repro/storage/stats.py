"""I/O statistics counters.

The paper's headline cost metric is *network disk pages accessed* under a
1 MiB LRU buffer with 4 KiB pages.  Every storage-backed structure in the
library (network adjacency store, R-trees, the middle layer's B+-tree)
funnels its page requests through a :class:`BufferPool` that records hits
and misses into an :class:`IOStats` instance, so experiments can report
exactly the quantity Figures 5(a) and 6(a)/(d) plot.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IOStats:
    """Mutable counters for logical and physical page reads."""

    logical_reads: int = 0
    physical_reads: int = 0

    def record_read(self, hit: bool) -> None:
        """Record one logical read; a miss also counts one physical read."""
        self.logical_reads += 1
        if not hit:
            self.physical_reads += 1

    @property
    def hit_ratio(self) -> float:
        """Buffer hit ratio over logical reads (1.0 when no reads yet)."""
        if self.logical_reads == 0:
            return 1.0
        return 1.0 - self.physical_reads / self.logical_reads

    def reset(self) -> None:
        """Zero all counters."""
        self.logical_reads = 0
        self.physical_reads = 0
