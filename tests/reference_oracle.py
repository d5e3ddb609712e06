"""The per-node-pair hub-label lookup, kept as a test-only reference.

This is how :meth:`repro.oracle.runtime.DistanceOracle.distance`
answered a ``hublabel`` lookup before query points kept label columns:
every seed pair reads both labels (one page touch each, source then
target), scans the target's label against the source's hub map, and
records its own merge count.  Hub maps are cached per source node, as
the handle cached them.  The column path must charge exactly this — the
same pages in the same order, the same summed merge count — and answer
the same bits.  The loop is unchanged; do not optimise it.
"""

from __future__ import annotations

import math

from repro.obs import tracing
from repro.oracle.hublabel import hub_label_distance

INFINITY = math.inf


class PerPairOracle:
    """Answers through a ``hublabel`` handle one node pair at a time."""

    def __init__(self, oracle) -> None:
        assert oracle.kind == "hublabel"
        self.oracle = oracle
        self._hub_maps: dict[int, dict[int, float]] = {}

    def node_distance(self, source: int, target: int) -> float:
        labels = self.oracle.index.labels
        store = self.oracle.store
        if store is not None:
            store.touch(source)
            store.touch(target)
        source_label = labels[source]
        hubs = self._hub_maps.get(source)
        if hubs is None:
            hubs = self._hub_maps[source] = dict(source_label)
        best, scanned = hub_label_distance(source_label, labels[target], hubs)
        tracing.record("oracle_label_entries", scanned)
        return best

    def distance(self, a, b) -> float:
        network = self.oracle.network
        best = INFINITY
        direct = network.direct_edge_distance(a, b)
        if direct is not None:
            best = direct
        for u, to_u in network.seed_frontier(a):
            for w, to_w in network.seed_frontier(b):
                candidate = to_u + self.node_distance(u, w) + to_w
                if candidate < best:
                    best = candidate
        return best
