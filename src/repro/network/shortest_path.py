"""One-shot shortest-path conveniences and interop helpers.

The query algorithms use the *resumable* expanders directly; these
wrappers are for users, examples, the naive baseline, and tests (which
cross-check against networkx).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.network.astar import AStarExpander
from repro.network.dijkstra import DijkstraExpander
from repro.network.graph import NetworkLocation, RoadNetwork


def network_distance(
    network: RoadNetwork,
    a: NetworkLocation,
    b: NetworkLocation,
    method: str = "dijkstra",
    store=None,
) -> float:
    """Shortest network distance between two locations (inf if disconnected).

    ``method`` is ``"dijkstra"`` or ``"astar"``; both return the same
    value, A* typically visiting fewer nodes.  Pass the workspace's
    ``store`` to charge page reads to its buffer pool.
    """
    if method == "dijkstra":
        return DijkstraExpander(network, a, store=store).distance_to(b)
    if method == "astar":
        return AStarExpander(network, a, store=store).distance_to(b)
    raise ValueError(f"unknown method {method!r}")


def network_distances(
    network: RoadNetwork,
    source: NetworkLocation,
    targets: Sequence[NetworkLocation],
    store=None,
) -> list[float]:
    """Distances from one source to many targets with a single wavefront."""
    expander = DijkstraExpander(network, source, store=store)
    return [expander.distance_to(target) for target in targets]


def distance_matrix(
    network: RoadNetwork,
    sources: Sequence[NetworkLocation],
    targets: Sequence[NetworkLocation],
    store=None,
) -> list[list[float]]:
    """``matrix[i][j]`` = network distance from ``sources[i]`` to ``targets[j]``.

    One full-strength Dijkstra per source.  Workspace-bound callers
    should prefer :meth:`repro.engine.DistanceEngine.vectors` (query
    points × objects), which additionally memoises and reuses pooled
    wavefronts.
    """
    return [
        network_distances(network, src, targets, store=store)
        for src in sources
    ]


def shortest_path_nodes(
    network: RoadNetwork, a: NetworkLocation, b_node: int
) -> tuple[float, list[int]]:
    """Distance and junction sequence from a location to a junction."""
    expander = DijkstraExpander(network, a)
    dist = expander.distance_to_node(b_node)
    if dist == float("inf"):
        raise ValueError(f"node {b_node} unreachable from {a}")
    return (dist, expander.path_to_node(b_node))


def k_nearest_objects(
    network: RoadNetwork,
    source: NetworkLocation,
    placements,
    k: int,
) -> list[tuple["object", float]]:
    """The ``k`` nearest objects by network distance (INE).

    ``placements`` is a middle layer or
    :class:`~repro.network.middle_layer.InMemoryPlacements`.  Returns
    ``(object, distance)`` pairs in ascending distance; fewer than ``k``
    when the reachable network holds fewer objects.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    from repro.network.dijkstra import DijkstraExpander

    expander = DijkstraExpander(network, source, placements=placements)
    answers = []
    for obj, dist in expander.iter_objects():
        answers.append((obj, dist))
        if len(answers) == k:
            break
    return answers


def route_to(
    network: RoadNetwork, origin: NetworkLocation, destination: NetworkLocation
) -> tuple[float, list[NetworkLocation]]:
    """Distance and turn-by-turn route between two locations.

    The route is a list of locations: the origin, the junctions of a
    shortest path, and the destination.  Useful for presenting a chosen
    skyline object's actual path to the user.
    """
    expander = DijkstraExpander(network, origin)
    distance = expander.distance_to(destination)
    if distance == float("inf"):
        raise ValueError("destination unreachable from origin")

    route: list[NetworkLocation] = [origin]
    direct = network.direct_edge_distance(origin, destination)
    if direct is not None and direct <= distance + 1e-12:
        route.append(destination)
        return (direct, route)

    if destination.node_id is not None:
        entry_node = destination.node_id
    else:
        edge = network.edge(destination.edge_id)
        via_u = expander.distance_to_node(edge.u) + destination.offset
        via_v = expander.distance_to_node(edge.v) + (
            edge.length - destination.offset
        )
        entry_node = edge.u if via_u <= via_v else edge.v
    for node_id in expander.path_to_node(entry_node):
        if route[-1].node_id == node_id:
            continue  # origin already is this junction
        route.append(network.location_at_node(node_id))
    if destination.node_id is None or destination.node_id != entry_node:
        route.append(destination)
    return (distance, route)


def to_networkx(network: RoadNetwork):
    """The network as a ``networkx.Graph`` (test interop; lazy import).

    Parallel edges collapse to the shortest one, matching shortest-path
    semantics.
    """
    import networkx as nx

    graph = nx.Graph()
    for node_id in network.node_ids():
        point = network.node_point(node_id)
        graph.add_node(node_id, x=point.x, y=point.y)
    for edge in network.edges():
        existing = graph.get_edge_data(edge.u, edge.v)
        if existing is None or edge.length < existing["weight"]:
            graph.add_edge(edge.u, edge.v, weight=edge.length)
    return graph


def eccentricity_sample(
    network: RoadNetwork, node_ids: Iterable[int]
) -> dict[int, float]:
    """Largest finite distance from each sample node (network diagnostics)."""
    result: dict[int, float] = {}
    for node_id in node_ids:
        expander = DijkstraExpander(network, network.location_at_node(node_id))
        while expander.expand_next() is not None:
            pass
        finite = [d for d in expander.settled.values() if d < float("inf")]
        result[node_id] = max(finite) if finite else 0.0
    return result
