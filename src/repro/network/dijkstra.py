"""Resumable Dijkstra expansion with incremental nearest-object search.

CE (Section 4.1) grows a wavefront around each query point and consumes
the data objects it meets *in ascending network-distance order*.  The
:class:`DijkstraExpander` here keeps its wavefront alive between calls
("the frontier nodes on the wavefront are maintained such that the
expansion can continue from a previous state", Section 6.1) and exposes
:meth:`next_nearest_object` — the incremental-network-expansion (INE)
primitive.

Object discovery follows the middle-layer protocol of Section 3: when
the wavefront settles a junction, each incident edge is probed for the
objects lying on it; an object's tentative distance through a settled
endpoint ``w`` is ``d(source, w) + d(w, p)``.  An object is *emitted*
(its distance declared final) once its best tentative distance is no
larger than the smallest key on the node heap — at that point no
unsettled junction could open a shorter path to it.

Every emission is appended to the wavefront's ``emissions`` log, so
one wavefront can serve many queries: an :class:`EmissionCursor`
replays the log from its start and drives the wavefront only past the
log's end.  The emission sequence depends only on the graph and the
objects, so a replay equals a fresh expansion's, emission for emission.
"""

from __future__ import annotations

import math
from typing import Protocol

from repro.index.heap import AddressableHeap
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.obs import tracing
from repro.network.middle_layer import ObjectPlacement
from repro.network.objects import SpatialObject
from repro.network.storage import NetworkStore

INFINITY = math.inf


class PlacementSource(Protocol):
    """Anything that can answer "which objects are on this edge?"."""

    def objects_on(self, edge_id: int) -> list[ObjectPlacement]:
        """Middle-layer records for one edge (possibly empty)."""
        ...


class DijkstraExpander:
    """A persistent single-source Dijkstra wavefront over a road network."""

    # The engine pools thousands of expanders; slots drop the per-
    # instance __dict__ and make attribute loads in the inner relax
    # loop a fixed-offset read.
    __slots__ = (
        "_emitted",
        "_heap",
        "_object_best",
        "_object_heap",
        "_object_of",
        "_probed_edges",
        "emissions",
        "network",
        "nodes_settled",
        "placements",
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
        placements: PlacementSource | None = None,
    ) -> None:
        self.network = network
        self.source = source
        self.store = store
        self.placements = placements

        self.settled: dict[int, float] = {}
        self._heap: AddressableHeap[int] = AddressableHeap()
        self.nodes_settled = 0
        self.relaxations = 0

        # Object bookkeeping.
        self._object_heap: AddressableHeap[int] = AddressableHeap()
        self._object_best: dict[int, float] = {}
        self._object_of: dict[int, SpatialObject] = {}
        self._emitted: set[int] = set()
        self._probed_edges: dict[int, list[ObjectPlacement]] = {}
        # Every (object, distance) emitted so far, in emission order.
        self.emissions: list[tuple[SpatialObject, float]] = []

        for node, dist in network.seed_frontier(source):
            self._heap.push_or_decrease(node, dist)
        # Objects sharing the source's edge are reachable along the edge
        # without passing a junction; seed their candidates directly.
        if source.edge_id is not None and placements is not None:
            for placement in self._probe(source.edge_id):
                direct = abs(placement.dist_from_u - source.offset)
                self._offer_object(placement.obj, direct)

    # ------------------------------------------------------------------
    # Node-level expansion
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True when the wavefront can grow no further."""
        return len(self._heap) == 0

    def expand_next(self) -> tuple[int, float] | None:
        """Settle the single nearest unsettled node; None when exhausted."""
        if not self._heap:
            return None
        node, dist = self._heap.pop()
        self.settled[node] = dist
        self.nodes_settled += 1
        tracing.record("nodes_settled")
        if self.store is not None:
            self.store.touch_node(node)
        for neighbor, edge_id in self.network.neighbors(node):
            edge = self.network.edge(edge_id)
            if self.placements is not None:
                for placement in self._probe(edge_id):
                    self._offer_object(
                        placement.obj,
                        dist + placement.distance_from(node, self.network),
                    )
            if neighbor in self.settled:
                continue
            self.relaxations += 1
            self._heap.push_or_decrease(neighbor, dist + edge.length)
        return (node, dist)

    def distance_to_node(self, node_id: int) -> float:
        """Exact network distance from the source to a junction.

        Expands as far as necessary; inf when unreachable.
        """
        while node_id not in self.settled:
            if self.expand_next() is None:
                return INFINITY
        return self.settled[node_id]

    def distance_to(self, target: NetworkLocation) -> float:
        """Exact network distance from the source to any location."""
        if target.node_id is not None:
            return self.distance_to_node(target.node_id)
        assert target.edge_id is not None
        edge = self.network.edge(target.edge_id)
        candidates = []
        direct = self.network.direct_edge_distance(self.source, target)
        if direct is not None:
            candidates.append(direct)
        via_u = self.distance_to_node(edge.u)
        via_v = self.distance_to_node(edge.v)
        candidates.append(via_u + target.offset)
        candidates.append(via_v + (edge.length - target.offset))
        return min(candidates)

    # ------------------------------------------------------------------
    # Incremental nearest-object enumeration (INE)
    # ------------------------------------------------------------------
    def _probe(self, edge_id: int) -> list[ObjectPlacement]:
        """Middle-layer probe with an in-wavefront cache.

        The disk probe (and its page charges) happens once per edge; the
        second endpoint reuses the wavefront's hash-table copy, as the
        paper's maintained-state searches do.
        """
        cached = self._probed_edges.get(edge_id)
        if cached is None:
            assert self.placements is not None
            cached = self.placements.objects_on(edge_id)
            self._probed_edges[edge_id] = cached
        return cached

    def _offer_object(self, obj: SpatialObject, distance: float) -> None:
        if obj.object_id in self._emitted:
            return
        best = self._object_best.get(obj.object_id)
        if best is not None and best <= distance:
            return
        self._object_best[obj.object_id] = distance
        self._object_of[obj.object_id] = obj
        self._object_heap.update(obj.object_id, distance)

    def next_nearest_object(self) -> tuple[SpatialObject, float] | None:
        """The next unvisited object in ascending network distance.

        Returns ``(object, network_distance)`` or None once every
        reachable object has been emitted.
        """
        if self.placements is None:
            raise RuntimeError("expander was built without a placement source")
        while True:
            if self._object_heap:
                candidate_dist = self._object_heap.min_priority()
                if not self._heap or candidate_dist <= self._heap.min_priority():
                    object_id, dist = self._object_heap.pop()
                    del self._object_best[object_id]
                    self._emitted.add(object_id)
                    emission = (self._object_of.pop(object_id), dist)
                    self.emissions.append(emission)
                    return emission
            if self.expand_next() is None:
                return None

    @property
    def last_emitted_distance(self) -> float:
        """Network distance of the most recently emitted object."""
        return self.emissions[-1][1] if self.emissions else 0.0


class EmissionCursor:
    """One query's read position in a shared INE wavefront's emissions.

    Replays :attr:`DijkstraExpander.emissions` from the start and drives
    the wavefront only past the log's end, so a query sees the same
    sequence a fresh wavefront would emit while settling nothing the
    log already covers.  ``last_emitted_distance`` is the cursor's own:
    the lower bound CE's pruning reads for *this* query's dimension.

    Cursors of one wavefront may interleave (two dimensions at one
    location read one log at their own positions), but only on one
    thread at a time: driving a wavefront is not thread-safe.
    """

    __slots__ = ("_emissions", "_last_emitted_distance", "_position", "wavefront")

    def __init__(self, wavefront: DijkstraExpander) -> None:
        self.wavefront = wavefront
        self._emissions = wavefront.emissions
        self._position = 0
        self._last_emitted_distance = 0.0

    def next_nearest_object(self) -> tuple[SpatialObject, float] | None:
        """The next object in ascending network distance, or None."""
        if self._position == len(self._emissions):
            if self.wavefront.next_nearest_object() is None:
                return None
        emission = self._emissions[self._position]
        self._position += 1
        self._last_emitted_distance = emission[1]
        return emission

    @property
    def last_emitted_distance(self) -> float:
        """Network distance of this cursor's most recent emission."""
        return self._last_emitted_distance
