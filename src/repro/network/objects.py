"""Data objects living on the road network.

The paper's object set ``D`` consists of points extracted from network
edges (hotels, restaurants, …).  Each object knows its on-network
location and may carry *static non-spatial attributes* (e.g. hotel
price) — the extension discussed at the end of Section 4.3, where such
attributes join the distance vector as pre-known dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.geometry.mbr import MBR
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.storage.binding import NodePager


@dataclass(frozen=True, slots=True)
class SpatialObject:
    """A data object on the network, optionally with static attributes."""

    object_id: int
    location: NetworkLocation
    attributes: tuple[float, ...] = ()

    @property
    def point(self):
        """Planar coordinates (for Euclidean reasoning and indexing)."""
        return self.location.point


@dataclass
class ObjectSet:
    """An immutable-by-convention collection of spatial objects.

    Keeps a per-edge map so wavefront expansions can ask "which objects
    sit on this edge?" in O(1) — the in-memory complement of the
    disk-based middle layer.
    """

    network: RoadNetwork
    objects: list[SpatialObject] = field(default_factory=list)
    _by_id: dict[int, SpatialObject] = field(default_factory=dict, repr=False)
    _by_edge: dict[int, list[SpatialObject]] = field(default_factory=dict, repr=False)
    _by_node: dict[int, list[SpatialObject]] = field(default_factory=dict, repr=False)

    @classmethod
    def build(
        cls, network: RoadNetwork, objects: Iterable[SpatialObject]
    ) -> "ObjectSet":
        obj_set = cls(network=network)
        for obj in objects:
            obj_set._add(obj)
        return obj_set

    def _add(self, obj: SpatialObject) -> None:
        if obj.object_id in self._by_id:
            raise ValueError(f"duplicate object id {obj.object_id}")
        if not all(a >= 0 for a in obj.attributes):
            # Zero pads the MBR lower-bound vectors used for subtree
            # pruning; negative attribute domains would break that.
            # Shift such attributes to a non-negative range upstream.
            # NaN fails the test too: it has no place in the ascending
            # order the dominance index keeps per dimension.
            raise ValueError(
                f"object {obj.object_id} has attributes {obj.attributes}; "
                "attributes must be non-negative numbers, not NaN "
                "(minimisation convention)"
            )
        loc = obj.location
        if loc.edge_id is not None:
            edge = self.network.edge(loc.edge_id)  # KeyError for bad edges
            if not 0.0 <= loc.offset <= edge.length:
                raise ValueError(
                    f"object {obj.object_id} offset {loc.offset} outside edge "
                    f"{loc.edge_id} of length {edge.length}"
                )
            self._by_edge.setdefault(loc.edge_id, []).append(obj)
        else:
            assert loc.node_id is not None
            if not self.network.has_node(loc.node_id):
                raise KeyError(f"object {obj.object_id} on missing node {loc.node_id}")
            self._by_node.setdefault(loc.node_id, []).append(obj)
        self.objects.append(obj)
        self._by_id[obj.object_id] = obj

    # ------------------------------------------------------------------
    # Mutation (used by Workspace.add_object / remove_object, which keep
    # the derived indexes in sync; mutate through those when a workspace
    # exists)
    # ------------------------------------------------------------------
    def add(self, obj: SpatialObject) -> None:
        """Add one object (validates id uniqueness and placement)."""
        if self.objects and len(obj.attributes) != self.attribute_count:
            raise ValueError(
                f"object {obj.object_id} has {len(obj.attributes)} attributes; "
                f"this set carries {self.attribute_count}"
            )
        self._add(obj)

    def remove(self, object_id: int) -> SpatialObject:
        """Remove and return an object by id (KeyError when absent)."""
        obj = self._by_id.pop(object_id)  # KeyError for unknown ids
        self.objects.remove(obj)
        loc = obj.location
        if loc.edge_id is not None:
            bucket = self._by_edge[loc.edge_id]
            bucket.remove(obj)
            if not bucket:
                del self._by_edge[loc.edge_id]
        else:
            bucket = self._by_node[loc.node_id]
            bucket.remove(obj)
            if not bucket:
                del self._by_node[loc.node_id]
        return obj

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[SpatialObject]:
        return iter(self.objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._by_id

    def get(self, object_id: int) -> SpatialObject:
        return self._by_id[object_id]

    def on_edge(self, edge_id: int) -> list[SpatialObject]:
        """Objects located on an edge's interior."""
        return self._by_edge.get(edge_id, [])

    def at_node(self, node_id: int) -> list[SpatialObject]:
        """Objects located exactly at a junction."""
        return self._by_node.get(node_id, [])

    @property
    def attribute_count(self) -> int:
        """Number of static attributes per object (0 when purely spatial)."""
        return len(self.objects[0].attributes) if self.objects else 0

    def validate_uniform_attributes(self) -> None:
        """All objects must carry the same number of static attributes."""
        counts = {len(obj.attributes) for obj in self.objects}
        if len(counts) > 1:
            raise ValueError(f"inconsistent attribute counts: {sorted(counts)}")

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def build_rtree(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        pager: NodePager | None = None,
    ) -> RTree:
        """A sort-tile-recursive packed R-tree over the objects' points.

        This is the object index of the paper's experiments ("the
        objects are also indexed by an R-tree").
        """
        return RTree.bulk_load(
            ((MBR.from_point(obj.point), obj) for obj in self.objects),
            max_entries=max_entries,
            pager=pager,
        )
