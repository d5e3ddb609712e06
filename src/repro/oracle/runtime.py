"""The queryable oracle handle the distance engine consults.

:class:`DistanceOracle` wraps an :class:`~repro.oracle.index.
OracleIndex` with the location semantics every other distance path in
the repo uses: a :class:`~repro.network.graph.NetworkLocation` is a
junction or an on-edge point, so

``d(a, b) = min(direct same-edge walk,
min over seed pairs of d_a + d_nodes(u, w) + d_b)``

where the seeds come from :meth:`RoadNetwork.seed_frontier` — exactly
the decomposition :class:`~repro.network.dijkstra.DijkstraExpander`
resolves online, which is what makes oracle answers drop-in exact.

Cost accounting per node-pair lookup:

* ``hublabel`` — both labels are read (one page touch each through the
  :class:`~repro.oracle.store.OracleStore`); the target's label is
  probed against the source's hub map, cached on the handle on first
  use, and ``oracle_label_entries`` charges the entries a sorted merge
  of the two labels visits;
* ``ch`` — every node the bidirectional upward search settles reads
  its shortcut record (page touch) and charges
  ``oracle_nodes_settled``.

A handle can be marked **stale** after a network mutation: stale
handles refuse to answer (the engine then records ``oracle_fallbacks``
and resolves online), so a persisted index can never serve distances
of a graph that no longer exists.
"""

from __future__ import annotations

import math

from repro.network.graph import NetworkLocation, RoadNetwork
from repro.obs import tracing
from repro.oracle.ch import ch_node_distance
from repro.oracle.hublabel import hub_label_distance
from repro.oracle.index import OracleIndex
from repro.oracle.store import OracleStore

INFINITY = math.inf


class DistanceOracle:
    """Query-side view of one preprocessed index."""

    __slots__ = ("index", "kind", "network", "store", "stale", "_hub_maps")

    def __init__(
        self,
        index: OracleIndex,
        network: RoadNetwork,
        store: OracleStore | None = None,
    ) -> None:
        self.index = index
        self.kind = index.kind
        self.network = network
        self.store = store
        self.stale = False
        # Source node -> dict(label): built on a node's first lookup as
        # the source, and dropped with the handle, so a rebuilt index
        # never sees another index's maps.  Two threads filling the
        # same entry build equal maps.
        self._hub_maps: dict[int, dict[int, float]] = {}

    def mark_stale(self) -> None:
        """Refuse further answers (the backing graph mutated)."""
        self.stale = True

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def node_distance(self, source: int, target: int) -> float:
        """Exact junction-to-junction distance (inf when disconnected)."""
        if self.kind == "hublabel":
            labels = self.index.labels
            assert labels is not None
            if self.store is not None:
                self.store.touch(source)
                self.store.touch(target)
            source_label = labels[source]
            hubs = self._hub_maps.get(source)
            if hubs is None:
                hubs = self._hub_maps[source] = dict(source_label)
            best, scanned = hub_label_distance(source_label, labels[target], hubs)
            tracing.record("oracle_label_entries", scanned)
            return best
        store = self.store

        def on_settle(node: int) -> None:
            tracing.record("oracle_nodes_settled")
            if store is not None:
                store.touch(node)

        return ch_node_distance(
            self.index.upward, source, target, on_settle=on_settle
        )

    def distance(self, a: NetworkLocation, b: NetworkLocation) -> float:
        """Exact network distance between two locations."""
        best = INFINITY
        direct = self.network.direct_edge_distance(a, b)
        if direct is not None:
            best = direct
        for u, to_u in self.network.seed_frontier(a):
            for w, to_w in self.network.seed_frontier(b):
                candidate = to_u + self.node_distance(u, w) + to_w
                if candidate < best:
                    best = candidate
        return best

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def reset_io(self, cold: bool = True) -> None:
        """Zero the store's counters; ``cold`` also empties its buffer."""
        if self.store is not None:
            self.store.reset(cold=cold)
