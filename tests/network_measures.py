"""Measuring tools for network properties the tests check.

None of these runs on a query path: each measures a property of a
network, a page layout or a bound that a test asserts (δ falls as
density rises, Hilbert pages co-locate neighbours, landmark bounds
beat Euclidean ones), or exports a network for the networkx
cross-check of Dijkstra.
"""

from __future__ import annotations

import math
import random

from repro.network import DijkstraExpander, LandmarkHeuristic, NetworkStore
from repro.network.graph import RoadNetwork


def to_networkx(network: RoadNetwork):
    """The network as a ``networkx.Graph``.

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


def estimate_delta(
    network: RoadNetwork,
    sources: int = 8,
    targets_per_source: int = 40,
    seed: int = 0,
) -> float:
    """Sampled average δ = dN / dE over random connected node pairs.

    The statistic Section 5 reasons about: large in sparse networks,
    approaching 1 as density grows.  One full Dijkstra per sampled
    source covers all of that source's target samples.
    """
    rng = random.Random(seed)
    node_ids = list(network.node_ids())
    if len(node_ids) < 2:
        return 1.0
    total = 0.0
    count = 0
    for source in rng.sample(node_ids, min(sources, len(node_ids))):
        expander = DijkstraExpander(network, network.location_at_node(source))
        while expander.expand_next() is not None:
            pass
        reachable = [v for v in expander.settled if v != source]
        if not reachable:
            continue
        sample = rng.sample(reachable, min(targets_per_source, len(reachable)))
        source_point = network.node_point(source)
        for target in sample:
            euclid = source_point.distance_to(network.node_point(target))
            dist = expander.settled[target]
            if euclid > 0.0 and math.isfinite(dist):
                total += dist / euclid
                count += 1
    return total / count if count else 1.0


def clustering_quality(store: NetworkStore) -> float:
    """Fraction of edges whose two endpoints share a page."""
    network = store.network
    if network.edge_count == 0:
        return 1.0
    same = sum(
        1
        for edge in network.edges()
        if store.page_of(edge.u) == store.page_of(edge.v)
    )
    return same / network.edge_count


def landmark_tightness(
    heuristic: LandmarkHeuristic, pairs: int = 100, seed: int = 0
) -> tuple[float, float]:
    """Mean (euclidean/true, landmark/true) bound quality on sampled pairs.

    Values in (0, 1]; closer to 1 is tighter.
    """
    network = heuristic.network
    rng = random.Random(seed)
    node_ids = sorted(network.node_ids())
    euclid_total = landmark_total = 0.0
    counted = 0
    attempts = 0
    while counted < pairs and attempts < pairs * 4:
        attempts += 1
        a, b = rng.sample(node_ids, 2)
        expander = DijkstraExpander(network, network.location_at_node(a))
        true = expander.distance_to_node(b)
        if not (0.0 < true < float("inf")):
            continue
        euclid = network.node_point(a).distance_to(network.node_point(b))
        euclid_total += euclid / true
        landmark_total += heuristic.node_to_node(a, b) / true
        counted += 1
    if counted == 0:
        return (1.0, 1.0)
    return (euclid_total / counted, landmark_total / counted)
