"""Page-clustered layout of the oracle's query-time records.

The paper's cost model charges every structure through the 4 KiB page /
LRU buffer simulation; a preprocessed index is no exception, or its
"near-free" lookups would be free in a way no disk ever is.  Each
node's query-time record — its upward adjacency for a ``ch`` index,
its hub label for a ``hublabel`` index — is sized analogously to the
adjacency records of :class:`~repro.network.storage.NetworkStore` and
packed into pages along the same Hilbert order of the junction
coordinates, so spatially clustered lookups (a query's seed junctions
and its candidates' endpoints) share pages.

Reading a node's record is one logical page access through a
:class:`~repro.storage.buffer.BufferPool` with ``component="oracle"``:
physical misses are charged to the active span as ``oracle_pages``,
beside the other pools' ``network``/``index``/``middle`` pages.
"""

from __future__ import annotations

from repro.columnar.curve import hilbert_index
from repro.network.graph import RoadNetwork
from repro.oracle.index import OracleIndex
from repro.storage.buffer import DEFAULT_BUFFER_BYTES, BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import DEFAULT_PAGE_SIZE, PAGE_HEADER_SIZE
from repro.storage.stats import IOStats

ORACLE_RECORD_BASE_BYTES = 12
"""Node id (4) + entry count (4) + record header (4)."""

ORACLE_ENTRY_BYTES = 12
"""Hub/neighbor id (4) + distance (8)."""


class OracleStore:
    """Simulated-disk residence of one index's query-time records."""

    def __init__(
        self,
        index: OracleIndex,
        network: RoadNetwork,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        stats: IOStats | None = None,
        hilbert_order: int = 10,
    ) -> None:
        self.kind = index.kind
        self.disk = DiskManager(page_size=page_size)
        self.pool = BufferPool(
            self.disk,
            capacity_bytes=buffer_bytes,
            stats=stats,
            component="oracle",
        )
        self._page_of_node: dict[int, int] = {}
        self._pack(index, network, page_size, hilbert_order)

    def _entry_count(self, index: OracleIndex, node_id: int) -> int:
        if index.kind == "hublabel":
            assert index.labels is not None
            return len(index.labels.get(node_id, ()))
        return len(index.upward.get(node_id, ()))

    def _pack(
        self,
        index: OracleIndex,
        network: RoadNetwork,
        page_size: int,
        hilbert_order: int,
    ) -> None:
        if not index.order:
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

        ordered = sorted(index.order, key=key)
        page = self.disk.allocate()
        for node_id in ordered:
            record_size = (
                ORACLE_RECORD_BASE_BYTES
                + ORACLE_ENTRY_BYTES * self._entry_count(index, node_id)
            )
            record_size = min(record_size, page_size - PAGE_HEADER_SIZE)
            if not page.fits(record_size):
                page = self.disk.allocate()
            page.add(node_id, record_size)
            self._page_of_node[node_id] = page.page_id

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def touch(self, node_id: int) -> None:
        """Charge the page access for reading one node's oracle record."""
        self.pool.fetch(self._page_of_node[node_id])

    def touch_many(self, node_ids: list[int]) -> None:
        """Charge what :meth:`touch` on each node in turn would charge."""
        page_of = self._page_of_node
        self.pool.fetch_many([page_of[node_id] for node_id in node_ids])

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
