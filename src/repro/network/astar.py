"""Resumable A* search with explicit path-distance lower bounds.

Section 3 and Section 4.3 of the paper lean on three A* properties:

1. With the Euclidean heuristic (admissible and consistent because every
   edge is at least as long as the straight line between its endpoints),
   nodes are settled with exact distances, so a per-query-point expander
   can keep a hash table of settled nodes and reuse it across many
   destinations ("each query point keeps a hash table to store the
   intermediate nodes visited, together with their network distances",
   Section 6.1, after [26]).
2. At any moment, the minimum of ``g(v) + dE(v, destination)`` over the
   frontier is a lower bound on the still-unknown network distance —
   the **path distance lower bound** ``plb`` (Section 4.3).  It starts
   at the Euclidean source–destination distance and only grows, reaching
   the exact network distance at termination.
3. The search can be advanced *one node at a time*, which is how LBC
   buys partial distance computation: it expands the query point whose
   current ``plb`` to the candidate is smallest, and stops as soon as
   dominance is decided.

:class:`AStarExpander` owns the persistent state (settled distances and
frontier ``g`` values); :class:`LowerBoundSearch` is one retargeted
search over that state.  Only one search per expander may be active at
a time — a new search invalidates the previous one, because they share
the underlying frontier.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.index.heap import AddressableHeap
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.network.storage import NetworkStore
from repro.obs import tracing

INFINITY = math.inf

HeuristicFn = Callable[[int, NetworkLocation], float]
"""A consistent lower bound: (node id, target location) -> distance."""

_VIRTUAL_GOAL = -1
"""Heap key for the pseudo-node standing in for an on-edge destination.

Real node ids are non-negative; the virtual goal hangs off the
destination edge's endpoints with the object's edge-end offsets as
weights, and has a zero heuristic.
"""


class AStarExpander:
    """Persistent A* state for one source location.

    ``heuristic`` optionally tightens the Euclidean distance estimate:
    it receives ``(node_id, target_location)`` and must return a
    *consistent* lower bound of the network distance from the node to
    the target (``h(x) <= w(x, y) + h(y)`` for every edge); searches
    key nodes by ``max(euclidean, heuristic)``, cached per node for the
    life of one search.  The Euclidean-only default is computed inline
    and not cached.  The landmark heuristic in
    :mod:`repro.network.landmarks` is the shipped alternative — tighter
    than Euclidean on high-detour networks, which strengthens LBC's
    path-distance lower bounds.  An inconsistent heuristic silently
    breaks the settled-distance reuse; there is no runtime check (it
    would cost more than the search).
    """

    __slots__ = (
        "_epoch",
        "frontier",
        "heuristic",
        "network",
        "nodes_settled",
        "relaxations",
        "settled",
        "source",
        "store",
    )

    def __init__(
        self,
        network: RoadNetwork,
        source: NetworkLocation,
        store: NetworkStore | None = None,
        heuristic: "HeuristicFn | None" = None,
    ) -> None:
        self.network = network
        self.source = source
        self.store = store
        self.heuristic = heuristic
        self.settled: dict[int, float] = {}
        self.frontier: dict[int, float] = {}
        self.nodes_settled = 0
        self.relaxations = 0
        self._epoch = 0
        for node, dist in network.seed_frontier(source):
            existing = self.frontier.get(node)
            if existing is None or dist < existing:
                self.frontier[node] = dist

    def search_toward(self, target: NetworkLocation) -> "LowerBoundSearch":
        """Begin (or restart) a search; invalidates any previous search."""
        self._epoch += 1
        return LowerBoundSearch(self, target, self._epoch)

    def distance_to(self, target: NetworkLocation) -> float:
        """Exact network distance to ``target`` (inf when unreachable)."""
        return self.search_toward(target).run_to_completion()

    def heuristic_to(self, target: NetworkLocation) -> float:
        """The initial lower bound: straight-line source-target distance."""
        return self.source.point.distance_to(target.point)


class LowerBoundSearch:
    """One incremental A* search from an expander toward one target."""

    __slots__ = (
        "_epoch",
        "_expander",
        "_goal_edge",
        "_goal_node",
        "_h",
        "_heap",
        "_plb",
        "distance",
        "done",
        "expansions",
        "target",
    )

    def __init__(
        self, expander: AStarExpander, target: NetworkLocation, epoch: int
    ) -> None:
        self._expander = expander
        self._epoch = epoch
        self.target = target
        network = expander.network

        if target.node_id is not None:
            self._goal_node: int | None = target.node_id
            self._goal_edge = None
        else:
            assert target.edge_id is not None
            self._goal_node = None
            self._goal_edge = network.edge(target.edge_id)

        # The Euclidean heuristic is math.hypot(x - tx, y - ty) computed
        # inline wherever a key is made: the operands of
        # Point.distance_to(node point, target point), in that order, so
        # every key is bit-identical to the method call's.  Only a custom
        # heuristic goes through _h, which caches max(euclid, custom) per
        # node for the life of this search.
        points = network.node_points
        tx = target.point.x
        ty = target.point.y
        custom = expander.heuristic
        self._h: Callable[[int], float] | None = None
        if custom is not None:
            h_cache: dict[int, float] = {}

            def h(node: int) -> float:
                value = h_cache.get(node)
                if value is None:
                    point = points[node]
                    value = max(
                        math.hypot(point.x - tx, point.y - ty),
                        custom(node, target),
                    )
                    h_cache[node] = value
                return value

            self._h = h
        self.done = False
        self.distance = INFINITY
        self.expansions = 0
        # The paper's initial path-distance lower bound: the Euclidean
        # source-target distance.  _finish() overwrites it with the
        # exact distance for searches that conclude immediately.
        self._plb = expander.heuristic_to(target)
        self._heap: AddressableHeap[int] = AddressableHeap()

        # Fast path: a settled node target, or an edge target with both
        # endpoints settled, has an exact distance already — every path
        # to it passes one of those settled points.  No frontier re-key
        # is needed, which is the common case once an expander has grown
        # past the candidate region.
        if self._goal_node is not None:
            settled = expander.settled.get(self._goal_node)
            if settled is not None:
                self._finish(settled)
                return
        else:
            assert self._goal_edge is not None
            settled_u = expander.settled.get(self._goal_edge.u)
            settled_v = expander.settled.get(self._goal_edge.v)
            if settled_u is not None and settled_v is not None:
                goal_cost = min(
                    settled_u + target.offset,
                    settled_v + (self._goal_edge.length - target.offset),
                )
                direct = network.direct_edge_distance(expander.source, target)
                if direct is not None:
                    goal_cost = min(goal_cost, direct)
                self._finish(goal_cost)
                return

        # Re-key the live frontier under this target's heuristic.
        frontier = expander.frontier
        if self._h is None:
            hypot = math.hypot
            keyed = [
                (node, g + hypot((point := points[node]).x - tx, point.y - ty))
                for node, g in frontier.items()
            ]
        else:
            h = self._h
            keyed = [(node, g + h(node)) for node, g in frontier.items()]
        self._heap = AddressableHeap.from_items(keyed)

        if self._goal_edge is not None:
            goal_cost = self._goal_candidate_from_settled()
            direct = network.direct_edge_distance(expander.source, target)
            if direct is not None:
                goal_cost = min(goal_cost, direct)
            if goal_cost < INFINITY or self._heap:
                self._heap.push(_VIRTUAL_GOAL, goal_cost)
            else:
                self._finish(INFINITY)

        if not self.done and self._heap:
            self._plb = max(self._plb, self._heap.min_priority())
        if not self.done and not self._heap:
            self._finish(INFINITY)

    def _goal_candidate_from_settled(self) -> float:
        assert self._goal_edge is not None and self.target.edge_id is not None
        expander = self._expander
        edge = self._goal_edge
        offset = self.target.offset
        best = INFINITY
        settled_u = expander.settled.get(edge.u)
        if settled_u is not None:
            best = min(best, settled_u + offset)
        settled_v = expander.settled.get(edge.v)
        if settled_v is not None:
            best = min(best, settled_v + (edge.length - offset))
        return best

    def _finish(self, distance: float) -> None:
        self.done = True
        self.distance = distance
        self._plb = distance

    # ------------------------------------------------------------------
    # Incremental interface
    # ------------------------------------------------------------------
    @property
    def plb(self) -> float:
        """The current path-distance lower bound.

        Monotonically non-decreasing across :meth:`expand_step` calls;
        equal to the exact network distance once :attr:`done`.
        """
        return self._plb

    def _check_live(self) -> None:
        if self._epoch != self._expander._epoch:
            raise RuntimeError(
                "stale LowerBoundSearch: a newer search was started on the "
                "same expander"
            )

    def expand_step(self) -> float:
        """Settle one node (or conclude); returns the updated ``plb``."""
        self._check_live()
        if self.done:
            return self._plb
        expander = self._expander
        network = expander.network

        if not self._heap:
            self._finish(INFINITY)
            return self._plb

        item, key = self._heap.pop()
        self._plb = max(self._plb, key)
        self.expansions += 1

        if item == _VIRTUAL_GOAL:
            self._finish(key)
            return self._plb

        node = item
        g = expander.frontier.pop(node)
        expander.settled[node] = g
        expander.nodes_settled += 1
        tracing.record("nodes_settled")
        if expander.store is not None:
            expander.store.touch_node(node)

        goal_edge = self._goal_edge
        heap = self._heap
        settled = expander.settled
        frontier = expander.frontier
        h = self._h
        points = network.node_points
        tx = self.target.point.x
        ty = self.target.point.y
        for neighbor, edge_id in network.neighbors(node):
            edge = network.edge(edge_id)
            if goal_edge is not None and edge_id == goal_edge.edge_id:
                if node == goal_edge.u:
                    along = self.target.offset
                else:
                    along = goal_edge.length - self.target.offset
                heap.push_or_decrease(_VIRTUAL_GOAL, g + along)
            if neighbor in settled:
                continue
            expander.relaxations += 1
            new_g = g + edge.length
            old_g = frontier.get(neighbor)
            if old_g is None or new_g < old_g:
                frontier[neighbor] = new_g
                if h is None:
                    point = points[neighbor]
                    heap.update(
                        neighbor, new_g + math.hypot(point.x - tx, point.y - ty)
                    )
                else:
                    heap.update(neighbor, new_g + h(neighbor))

        if self._goal_node is not None and node == self._goal_node:
            self._finish(g)
            return self._plb

        if self._heap:
            self._plb = max(self._plb, self._heap.min_priority())
        else:
            goal = INFINITY
            if self._goal_edge is not None:
                goal = self._goal_candidate_from_settled()
                direct = network.direct_edge_distance(expander.source, self.target)
                if direct is not None:
                    goal = min(goal, direct)
            self._finish(goal)
        return self._plb

    def run_to_completion(self) -> float:
        """Expand until the exact distance is known; returns it."""
        while not self.done:
            self.expand_step()
        return self.distance
