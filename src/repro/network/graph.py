"""The road-network graph model.

Following Section 3 of the paper, a road network is a graph
``G = (E, V)``: nodes are road junctions with planar coordinates, edges
are non-directional road segments with a positive length (an edge "can
be a straight line or a polyline").  Data objects and query points are
*locations* — either exactly at a node or somewhere along an edge at an
offset from one endpoint.

Every edge must satisfy ``length >= euclidean(u, v)``: this is what
makes the Euclidean distance an admissible (and consistent) A*
heuristic, which both the paper's A* usage and LBC's path-distance
lower bounds rely on.  :meth:`RoadNetwork.add_edge` enforces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.polyline import Polyline

_LENGTH_SLACK = 1e-9
"""Tolerance for float round-off in the length >= chord validation."""


@dataclass(frozen=True, slots=True)
class Edge:
    """A non-directional road segment between junctions ``u`` and ``v``."""

    edge_id: int
    u: int
    v: int
    length: float
    geometry: Polyline | None = None


@dataclass(frozen=True, slots=True)
class NetworkLocation:
    """A position on the network: a node, or a point along an edge.

    On-edge locations record the arc-length ``offset`` from the edge's
    ``u`` endpoint; ``point`` is the resolved planar coordinate (used by
    Euclidean heuristics and by the R-tree over objects).
    """

    point: Point
    node_id: int | None = None
    edge_id: int | None = None
    offset: float = 0.0

    def __post_init__(self) -> None:
        if (self.node_id is None) == (self.edge_id is None):
            raise ValueError("a location is either at a node or on an edge")

    @property
    def is_node(self) -> bool:
        return self.node_id is not None


class RoadNetwork:
    """An undirected, embedded, weighted graph of road junctions.

    Parallel edges are allowed (real road data has them); self-loops
    are rejected because a zero-progress loop never participates in a
    shortest path and complicates on-edge distance semantics.
    """

    def __init__(self) -> None:
        self._points: dict[int, Point] = {}
        self._edges: dict[int, Edge] = {}
        # node -> list of (neighbor node id, edge id)
        self._adjacency: dict[int, list[tuple[int, int]]] = {}
        self._next_edge_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, point: Point) -> None:
        """Register a junction.  Re-adding an id must keep its point."""
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            raise ValueError(f"node {node_id} coordinates must be finite, got {point}")
        existing = self._points.get(node_id)
        if existing is not None:
            if existing != point:
                raise ValueError(
                    f"node {node_id} already exists at {existing}, not {point}"
                )
            return
        self._points[node_id] = point
        self._adjacency[node_id] = []

    def add_edge(
        self,
        u: int,
        v: int,
        length: float | None = None,
        geometry: Polyline | None = None,
        edge_id: int | None = None,
    ) -> Edge:
        """Add a road segment between existing junctions ``u`` and ``v``.

        ``length`` defaults to the geometry's arc length, or to the
        straight-line distance when no geometry is given.  Lengths must
        be positive and finite; lengths shorter than the straight-line
        distance are rejected too (they would break A* admissibility).
        """
        if u not in self._points or v not in self._points:
            missing = u if u not in self._points else v
            raise KeyError(f"cannot add edge: node {missing} does not exist")
        if u == v:
            raise ValueError(f"self-loop at node {u} is not supported")
        chord = self._points[u].distance_to(self._points[v])
        if length is None:
            length = geometry.length if geometry is not None else chord
        if not 0.0 < length < math.inf:
            raise ValueError(f"edge length must be positive and finite, got {length}")
        if length < chord - _LENGTH_SLACK * max(1.0, chord):
            raise ValueError(
                f"edge ({u}, {v}) length {length} is shorter than the "
                f"Euclidean distance {chord} between its endpoints"
            )
        if geometry is not None:
            if geometry.start != self._points[u] or geometry.end != self._points[v]:
                raise ValueError(
                    f"edge ({u}, {v}) geometry endpoints do not match the nodes"
                )
        if edge_id is None:
            edge_id = self._next_edge_id
        elif edge_id in self._edges:
            raise ValueError(f"edge id {edge_id} already in use")
        self._next_edge_id = max(self._next_edge_id, edge_id) + 1
        edge = Edge(edge_id=edge_id, u=u, v=v, length=float(length), geometry=geometry)
        self._edges[edge_id] = edge
        self._adjacency[u].append((v, edge_id))
        self._adjacency[v].append((u, edge_id))
        return edge

    def update_edge_length(self, edge_id: int, length: float) -> Edge:
        """Change an edge's travel length (congestion-style reweighting).

        Only straight edges can be reweighted — a polyline's length *is*
        its arc length, and re-scaling it would desynchronise on-edge
        offsets from their planar points.  The new length must satisfy
        the same ``length >= chord`` admissibility rule as
        :meth:`add_edge`.  Callers owning derived state (expanders,
        distance caches, landmark tables) must invalidate it; the
        :class:`~repro.engine.engine.DistanceEngine` does so through
        ``Workspace.update_edge_length``.
        """
        edge = self.validate_edge_length(edge_id, length)
        updated = Edge(
            edge_id=edge_id, u=edge.u, v=edge.v, length=float(length), geometry=None
        )
        self._edges[edge_id] = updated
        return updated

    def validate_edge_length(self, edge_id: int, length: float) -> Edge:
        """Check a prospective reweighting without mutating anything.

        Raises the same errors :meth:`update_edge_length` would; callers
        holding state derived from the edge (object placements) can
        validate up front and stay consistent if the change is illegal.
        Returns the current edge.
        """
        edge = self._edges[edge_id]
        if edge.geometry is not None:
            raise ValueError(
                f"edge {edge_id} carries polyline geometry; its length is "
                "the arc length and cannot be reweighted"
            )
        chord = self._points[edge.u].distance_to(self._points[edge.v])
        if not 0.0 < length < math.inf:
            raise ValueError(f"edge length must be positive and finite, got {length}")
        if length < chord - _LENGTH_SLACK * max(1.0, chord):
            raise ValueError(
                f"edge ({edge.u}, {edge.v}) length {length} is shorter than "
                f"the Euclidean distance {chord} between its endpoints"
            )
        return edge

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._points)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def node_ids(self) -> Iterator[int]:
        return iter(self._points)

    def edge_ids(self) -> Iterator[int]:
        return iter(self._edges)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def node_point(self, node_id: int) -> Point:
        return self._points[node_id]

    @property
    def node_points(self) -> Mapping[int, Point]:
        """The node id -> :class:`Point` map (read-only; do not mutate).

        For loops that read many coordinates, such as A*'s frontier
        re-key, where a method call per node would dominate.
        """
        return self._points

    def has_node(self, node_id: int) -> bool:
        return node_id in self._points

    def edge(self, edge_id: int) -> Edge:
        return self._edges[edge_id]

    def neighbors(self, node_id: int) -> list[tuple[int, int]]:
        """``(neighbor id, edge id)`` pairs incident to ``node_id``."""
        return self._adjacency[node_id]

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    def total_length(self) -> float:
        """Sum of all edge lengths (total road kilometres)."""
        return sum(e.length for e in self._edges.values())

    def mbr(self) -> MBR:
        """Bounding box of the junction coordinates."""
        return MBR.from_points(self._points.values())

    def edge_mbr(self, edge_id: int) -> MBR:
        """Bounding box of an edge's geometry (or of its endpoints)."""
        edge = self._edges[edge_id]
        if edge.geometry is not None:
            return edge.geometry.mbr()
        return MBR.from_points(
            (self._points[edge.u], self._points[edge.v])
        )

    # ------------------------------------------------------------------
    # Locations
    # ------------------------------------------------------------------
    def location_at_node(self, node_id: int) -> NetworkLocation:
        """The location exactly at a junction."""
        return NetworkLocation(point=self._points[node_id], node_id=node_id)

    def location_on_edge(self, edge_id: int, offset: float) -> NetworkLocation:
        """The location at arc length ``offset`` from the edge's ``u`` end.

        An offset of exactly 0 or the full length degrades to the
        corresponding node location, which keeps downstream seeding
        logic free of zero-length special cases.
        """
        edge = self._edges[edge_id]
        if not -_LENGTH_SLACK <= offset <= edge.length + _LENGTH_SLACK:
            raise ValueError(
                f"offset {offset} outside [0, {edge.length}] on edge {edge_id}"
            )
        offset = min(max(offset, 0.0), edge.length)
        if offset == 0.0:
            return self.location_at_node(edge.u)
        if offset == edge.length:
            return self.location_at_node(edge.v)
        return NetworkLocation(
            point=self.point_on_edge(edge_id, offset),
            edge_id=edge_id,
            offset=offset,
        )

    def point_on_edge(self, edge_id: int, offset: float) -> Point:
        """Planar coordinates of the point at ``offset`` along the edge."""
        edge = self._edges[edge_id]
        if edge.geometry is not None:
            return edge.geometry.point_at(offset)
        u_point = self._points[edge.u]
        v_point = self._points[edge.v]
        if edge.length == 0.0:
            return u_point
        # Straight edges may still have length > chord (a detour factor);
        # interpolate by fraction of arc length so offsets stay monotone.
        return u_point.lerp(v_point, offset / edge.length)

    def seed_frontier(self, location: NetworkLocation) -> list[tuple[int, float]]:
        """Initial ``(node, distance)`` seeds for a search from ``location``.

        A node location seeds itself at distance zero; an on-edge
        location seeds both endpoints at their along-edge offsets.
        """
        if location.node_id is not None:
            return [(location.node_id, 0.0)]
        assert location.edge_id is not None
        edge = self._edges[location.edge_id]
        return [(edge.u, location.offset), (edge.v, edge.length - location.offset)]

    def direct_edge_distance(
        self, a: NetworkLocation, b: NetworkLocation
    ) -> float | None:
        """Along-edge distance when both locations share an edge, else None.

        This covers the same-edge shortcut that node-seeded searches
        would otherwise miss (walking from one on-edge point to another
        without passing a junction).
        """
        if a.edge_id is None or a.edge_id != b.edge_id:
            return None
        return abs(a.offset - b.offset)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[int]]:
        """Node sets of the connected components (iterative DFS)."""
        remaining = set(self._points)
        components: list[set[int]] = []
        while remaining:
            start = next(iter(remaining))
            component = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbor, _ in self._adjacency[node]:
                    if neighbor in remaining and neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            remaining -= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        return self.node_count <= 1 or len(self.connected_components()) == 1
