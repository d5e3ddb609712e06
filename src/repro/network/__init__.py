"""The road-network substrate.

Everything the paper's Section 3 describes, built from scratch:

* :class:`~repro.network.graph.RoadNetwork` — the graph model with
  on-network locations;
* :class:`~repro.network.objects.ObjectSet` — the data objects ``D``;
* :class:`~repro.network.middle_layer.MiddleLayer` — the B+-tree-indexed
  object↔edge mapping;
* :class:`~repro.network.storage.NetworkStore` — Hilbert-clustered
  adjacency pages behind an LRU buffer;
* :class:`~repro.network.dijkstra.DijkstraExpander` — resumable
  wavefront with incremental nearest-object enumeration (CE's engine);
* :class:`~repro.network.astar.AStarExpander` /
  :class:`~repro.network.astar.LowerBoundSearch` — resumable A* with
  path-distance lower bounds (EDC's and LBC's engine).
"""

from repro.network.astar import AStarExpander, HeuristicFn, LowerBoundSearch
from repro.network.landmarks import LandmarkHeuristic
from repro.network.dijkstra import DijkstraExpander
from repro.network.graph import Edge, NetworkLocation, RoadNetwork
from repro.network.middle_layer import (
    InMemoryPlacements,
    MiddleLayer,
    ObjectPlacement,
)
from repro.network.objects import ObjectSet, SpatialObject
from repro.network.storage import NetworkStore, hilbert_index

__all__ = [
    "AStarExpander",
    "DijkstraExpander",
    "Edge",
    "HeuristicFn",
    "LandmarkHeuristic",
    "InMemoryPlacements",
    "LowerBoundSearch",
    "MiddleLayer",
    "NetworkLocation",
    "NetworkStore",
    "ObjectPlacement",
    "ObjectSet",
    "RoadNetwork",
    "SpatialObject",
    "hilbert_index",
]
