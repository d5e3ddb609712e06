"""Disk layout of the road network: clustered adjacency lists.

Section 6.1: "the adjacent lists of the network nodes are clustered on
the disk to minimize the I/O cost during network distance computation"
(the scheme of [22]).  We reproduce that by ordering nodes along a
Hilbert space-filling curve and packing their adjacency records into
4 KiB pages in that order; spatially close junctions then share pages,
so a compact wavefront touches few pages.

A node's record stores its coordinates plus, per incident edge, the
edge id, edge length and the *neighbor's id and coordinates* (the usual
denormalisation: A* needs neighbor coordinates for its heuristic at
relaxation time without a second page access).

Expanding a node therefore charges exactly one logical page access,
served through the experiment's shared LRU buffer pool — this is the
"network disk pages accessed" metric of Figures 5 and 6.
"""

from __future__ import annotations

from repro.columnar.curve import hilbert_index
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree
from repro.network.graph import RoadNetwork
from repro.storage.binding import NodePager
from repro.storage.buffer import DEFAULT_BUFFER_BYTES, BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE
from repro.storage.stats import IOStats

NODE_RECORD_BASE_BYTES = 16
"""Node id (4) + coordinates (8) + record header (4)."""

ADJACENCY_ENTRY_BYTES = 24
"""Neighbor id (4) + edge id (4) + length (8) + neighbor coords (8)."""


__all__ = [
    "ADJACENCY_ENTRY_BYTES",
    "NODE_RECORD_BASE_BYTES",
    "NetworkStore",
    "hilbert_index",  # re-exported from repro.columnar.curve
]


class NetworkStore:
    """Page-clustered adjacency storage with LRU-buffered access."""

    def __init__(
        self,
        network: RoadNetwork,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        stats: IOStats | None = None,
        hilbert_order: int = 10,
    ) -> None:
        self.network = network
        self.disk = DiskManager(page_size=page_size)
        self.pool = BufferPool(
            self.disk,
            capacity_bytes=buffer_bytes,
            stats=stats,
            component="network",
        )
        self._page_of_node: dict[int, int] = {}
        self._cluster(page_size, hilbert_order)

    def _cluster(self, page_size: int, hilbert_order: int) -> None:
        network = self.network
        if network.node_count == 0:
            return
        box = network.mbr()
        side = (1 << hilbert_order) - 1
        width = box.width or 1.0
        height = box.height or 1.0

        def key(node_id: int) -> int:
            p = network.node_point(node_id)
            gx = int((p.x - box.min_x) / width * side)
            gy = int((p.y - box.min_y) / height * side)
            return hilbert_index(gx, gy, hilbert_order)

        ordered = sorted(network.node_ids(), key=key)
        page = self.disk.allocate()
        for node_id in ordered:
            record_size = (
                NODE_RECORD_BASE_BYTES
                + ADJACENCY_ENTRY_BYTES * network.degree(node_id)
            )
            record_size = min(record_size, page_size - PAGE_HEADER_SIZE)
            if not page.fits(record_size):
                page = self.disk.allocate()
            page.add(node_id, record_size)
            self._page_of_node[node_id] = page.page_id

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def touch_node(self, node_id: int) -> None:
        """Charge the page access for reading a node's adjacency record."""
        self.pool.fetch(self._page_of_node[node_id])

    def page_of(self, node_id: int) -> int:
        return self._page_of_node[node_id]

    @property
    def stats(self) -> IOStats:
        return self.pool.stats

    @property
    def page_count(self) -> int:
        return self.disk.page_count

    def reset(self, cold: bool = True) -> None:
        """Zero the counters and (by default) empty the buffer."""
        self.pool.reset_stats()
        if cold:
            self.pool.clear()

    # ------------------------------------------------------------------
    # Companion edge index
    # ------------------------------------------------------------------
    def build_edge_rtree(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        pager: NodePager | None = None,
    ) -> RTree:
        """R-tree over edge MBRs ("the edges are indexed by an R-tree")."""
        network = self.network
        return RTree.bulk_load(
            ((network.edge_mbr(e.edge_id), e) for e in network.edges()),
            max_entries=max_entries,
            pager=pager,
        )
