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
  :class:`~repro.oracle.store.OracleStore`), and
  ``oracle_label_entries`` charges the entries a sorted merge of the two
  labels visits.  The source's side lives in a :class:`LabelColumn`:
  the hub maps of the source's seeds and, per target junction already
  scanned from a seed, that pair's ``(distance, merge count)``.  A
  pair the column holds is not scanned again, but it is charged as if
  it were — both pages and the merge count — so every counter is the
  same as one scan per pair.  A location lookup charges its page
  touches with one :meth:`OracleStore.touch_many` call and records its
  summed merge count once;
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

    __slots__ = ("index", "kind", "network", "store", "stale")

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

    def mark_stale(self) -> None:
        """Refuse further answers (the backing graph mutated)."""
        self.stale = True

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def node_distance(self, source: int, target: int) -> float:
        """Exact junction-to-junction distance by CH upward search
        (inf when disconnected)."""
        store = self.store

        def on_settle(node: int) -> None:
            tracing.record("oracle_nodes_settled")
            if store is not None:
                store.touch(node)

        return ch_node_distance(
            self.index.upward, source, target, on_settle=on_settle
        )

    def distance(
        self,
        a: NetworkLocation,
        b: NetworkLocation,
        column: LabelColumn | None = None,
    ) -> float:
        """Exact network distance between two locations.

        A ``hublabel`` lookup reads and extends ``column``, which must
        be ``a``'s column built by this handle; without one it builds a
        transient column.  A ``ch`` lookup ignores ``column``.
        """
        best = INFINITY
        direct = self.network.direct_edge_distance(a, b)
        if direct is not None:
            best = direct
        targets = self.network.seed_frontier(b)
        if self.kind != "hublabel":
            for u, to_u in self.network.seed_frontier(a):
                for w, to_w in targets:
                    candidate = to_u + self.node_distance(u, w) + to_w
                    if candidate < best:
                        best = candidate
            return best
        if column is None:
            column = LabelColumn(self, a)
        labels = self.index.labels
        touched: list[int] = []
        entries = 0
        for u, to_u, label, hubs, scanned in column.seeds:
            for w, to_w in targets:
                touched += (u, w)
                pair = scanned.get(w)
                if pair is None:
                    pair = scanned[w] = hub_label_distance(label, labels[w], hubs)
                entries += pair[1]
                candidate = to_u + pair[0] + to_w
                if candidate < best:
                    best = candidate
        if self.store is not None:
            self.store.touch_many(touched)
        tracing.record("oracle_label_entries", entries)
        return best

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def reset_io(self, cold: bool = True) -> None:
        """Zero the store's counters; ``cold`` also empties its buffer."""
        if self.store is not None:
            self.store.reset(cold=cold)


class LabelColumn:
    """One source location's hub-label lookups, kept across targets.

    The paper's query points each keep "a hash table to store the
    intermediate nodes visited, together with their network distances"
    (Section 6.1); a column is that table for a ``hublabel`` oracle.
    :attr:`seeds` holds ``(seed, offset, label, hub map, scanned)`` per
    seed of the source, where ``scanned`` maps a target junction to
    ``(distance, merge count)`` and grows by one entry per target
    junction the seed is asked for.

    The engine pools columns beside its wavefronts (see
    :meth:`repro.engine.engine.DistanceEngine.oracle_distance`).  Like a
    wavefront, a column must not be driven by two threads at once; it
    answers only for :attr:`oracle`, the handle that built it.
    """

    __slots__ = ("oracle", "seeds")

    #: Read by the engine pool's settle sum: a column settles nothing.
    nodes_settled = 0

    def __init__(self, oracle: DistanceOracle, source: NetworkLocation) -> None:
        self.oracle = oracle
        labels = oracle.index.labels
        assert labels is not None
        self.seeds = [
            (u, to_u, labels[u], dict(labels[u]), {})
            for u, to_u in oracle.network.seed_frontier(source)
        ]
