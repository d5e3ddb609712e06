"""Landmark (ALT) lower bounds for road-network distances.

Goldberg & Harrelson's A*-with-landmarks idea, offered here as the
natural strengthening of the paper's path-distance lower bounds: pick a
few *landmark* junctions, precompute every junction's distance to each,
and bound any distance through the triangle inequality::

    dN(x, t)  >=  | dN(l, x) - dN(l, t) |        for every landmark l

The bound is consistent (``h(x) <= w(x,y) + h(y)``), so it plugs
straight into :class:`~repro.network.astar.AStarExpander` — and because
it is often far tighter than the Euclidean distance on high-detour
(large δ) networks, LBC's dominance tests fire earlier: exactly the
regime where the paper reports EDC and LBC losing efficiency.

The paper's Theorem 1 scopes instance optimality to algorithms using
*no pre-computed distance information*; a landmark table is
pre-computation, so LBC-with-landmarks trades the theorem's scope for
measured speed.  The precomputation is ``count`` full Dijkstra runs and
``O(count · |V|)`` memory.

Algorithms get these bounds only through the engine's
``astar+landmarks`` backend, which drops its tables on every network
mutation: a table built on another graph can overestimate a distance,
and A* then settles a wrong one.

For an on-edge target ``t`` on ``(u, v)`` at offsets ``(a, b)``, every
path enters via an endpoint, so
``dN(x, t) >= min(h(x, u) + a, h(x, v) + b)`` — also consistent (the
minimum of consistent functions shifted by constants is consistent).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.network.dijkstra import DijkstraExpander
from repro.network.graph import NetworkLocation, RoadNetwork


class LandmarkHeuristic:
    """Precomputed landmark distance tables with an ALT bound.

    Instances are callables matching
    :data:`repro.network.astar.HeuristicFn`.
    """

    def __init__(self, network: RoadNetwork, count: int = 8, seed: int = 0) -> None:
        if count < 1:
            raise ValueError(f"need at least one landmark, got {count}")
        self.network = network
        node_ids = sorted(network.node_ids())
        if not node_ids:
            raise ValueError("cannot place landmarks on an empty network")
        count = min(count, len(node_ids))
        rng = random.Random(seed)

        self.landmarks: list[int] = []
        self._tables: list[dict[int, float]] = []

        first = rng.choice(node_ids)
        self._add_landmark(first)
        while len(self.landmarks) < count:
            candidate = self._farthest_node(node_ids)
            if candidate is None:
                break
            self._add_landmark(candidate)

    def _add_landmark(self, node_id: int) -> None:
        expander = DijkstraExpander(
            self.network, self.network.location_at_node(node_id)
        )
        while expander.expand_next() is not None:
            pass
        self.landmarks.append(node_id)
        self._tables.append(dict(expander.settled))

    def _farthest_node(self, node_ids: Sequence[int]) -> int | None:
        """The junction maximising its minimum distance to the chosen
        landmarks (classic farthest-point sampling; good spread)."""
        best_node = None
        best_score = -1.0
        chosen = set(self.landmarks)
        for node_id in node_ids:
            if node_id in chosen:
                continue
            score = min(
                table.get(node_id, float("inf")) for table in self._tables
            )
            if score == float("inf"):
                # Other component: adopting it extends coverage most.
                return node_id
            if score > best_score:
                best_score = score
                best_node = node_id
        return best_node

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    def node_to_node(self, x: int, t: int) -> float:
        """ALT lower bound between two junctions."""
        best = 0.0
        for table in self._tables:
            dx = table.get(x)
            dt = table.get(t)
            if dx is None or dt is None:
                # Landmark sees only one of the two: in the same
                # component the bound contributes nothing safe beyond 0.
                continue
            gap = dx - dt
            if gap < 0.0:
                gap = -gap
            if gap > best:
                best = gap
        return best

    def __call__(self, node_id: int, target: NetworkLocation) -> float:
        """HeuristicFn: lower bound from a junction to any location."""
        if target.node_id is not None:
            return self.node_to_node(node_id, target.node_id)
        edge = self.network.edge(target.edge_id)
        via_u = self.node_to_node(node_id, edge.u) + target.offset
        via_v = self.node_to_node(node_id, edge.v) + (
            edge.length - target.offset
        )
        return min(via_u, via_v)
