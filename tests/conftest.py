"""Shared builders and fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.columnar import CandidateBlock
from repro.geometry import Point
from repro.network import ObjectSet, RoadNetwork, SpatialObject


def build_random_network(
    node_count: int,
    extra_edges: int,
    seed: int,
    detour_max: float = 1.0,
) -> RoadNetwork:
    """A connected random network: a shuffled chain plus random chords.

    ``detour_max`` adds up to that much relative length on top of each
    chord (0 = lengths equal straight-line distance).
    """
    rng = random.Random(seed)
    network = RoadNetwork()
    points = [Point(rng.random(), rng.random()) for _ in range(node_count)]
    for i, p in enumerate(points):
        network.add_node(i, p)
    order = list(range(node_count))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        chord = points[a].distance_to(points[b])
        network.add_edge(a, b, length=chord * (1.0 + rng.random() * detour_max))
    for _ in range(extra_edges):
        a, b = rng.sample(range(node_count), 2)
        chord = points[a].distance_to(points[b])
        network.add_edge(a, b, length=chord * (1.0 + rng.random() * detour_max))
    return network


def grid_network(
    rows: int,
    cols: int,
    jitter: float = 0.0,
    detour: float = 1.0,
    seed: int = 0,
) -> RoadNetwork:
    """A rows x cols grid over the unit square, optionally jittered.

    ``jitter`` displaces nodes by up to that fraction of the cell size;
    ``detour`` multiplies every edge length (>= 1).
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2 nodes")
    if detour < 1.0:
        raise ValueError(f"detour factor must be >= 1, got {detour}")
    rng = random.Random(seed)
    network = RoadNetwork()
    dx = 1.0 / (cols - 1)
    dy = 1.0 / (rows - 1)
    for r in range(rows):
        for c in range(cols):
            jx = rng.uniform(-jitter, jitter) * dx if jitter else 0.0
            jy = rng.uniform(-jitter, jitter) * dy if jitter else 0.0
            network.add_node(r * cols + c, Point(c * dx + jx, r * dy + jy))
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    for u, v in edges:
        chord = network.node_point(u).distance_to(network.node_point(v))
        network.add_edge(u, v, length=chord * detour)
    return network


def place_random_objects(
    network: RoadNetwork,
    count: int,
    seed: int,
    attribute_count: int = 0,
    first_id: int = 0,
) -> ObjectSet:
    """Objects at random offsets on random edges, optional attributes."""
    rng = random.Random(seed)
    edge_ids = sorted(network.edge_ids())
    objects = []
    for i in range(count):
        edge = network.edge(rng.choice(edge_ids))
        offset = edge.length * rng.uniform(0.01, 0.99)
        location = network.location_on_edge(edge.edge_id, offset)
        attributes = tuple(rng.random() for _ in range(attribute_count))
        objects.append(SpatialObject(first_id + i, location, attributes))
    return ObjectSet.build(network, objects)


def random_locations(network: RoadNetwork, count: int, seed: int):
    """A mix of node and on-edge locations for query points."""
    rng = random.Random(seed)
    node_ids = sorted(network.node_ids())
    edge_ids = sorted(network.edge_ids())
    locations = []
    for _ in range(count):
        if rng.random() < 0.5 or not edge_ids:
            locations.append(network.location_at_node(rng.choice(node_ids)))
        else:
            edge = network.edge(rng.choice(edge_ids))
            offset = edge.length * rng.uniform(0.05, 0.95)
            locations.append(network.location_on_edge(edge.edge_id, offset))
    return locations


def iter_objects(expander):
    """Every object an INE expander reaches, in ascending network
    distance: ``next_nearest_object`` driven until it returns None."""
    while (item := expander.next_nearest_object()) is not None:
        yield item


def block_skyline_rows(vectors) -> list[int]:
    """Skyline rows of ``vectors`` from ``CandidateBlock.skyline()`` (EDC's
    refine step), in its SFS order; an empty list has no width."""
    if not vectors:
        return []
    block = CandidateBlock(len(vectors[0]))
    for row, vector in enumerate(vectors):
        block.add(row, vector)
    return block.skyline()


def cold_run(algorithm, workspace, queries):
    """Run ``algorithm`` from a cold engine and cold buffers.

    Runs on one workspace share its distance memo, and LBC starts each
    candidate from the distances the memo holds.  Without the reset, an
    LBC run after the reference would read the reference's distances
    back instead of searching.
    """
    workspace.reset_io(cold=True)
    return algorithm.run(workspace, queries)


@pytest.fixture
def tiny_network() -> RoadNetwork:
    """A hand-built 6-node network with known shortest paths.

    Layout (unit square)::

        3 --- 4 --- 5          node 0 at (0, 0), node 5 at (1, 1)
        |     |     |          vertical edges length 0.5
        0 --- 1 --- 2          horizontal edges length 0.5
    """
    network = RoadNetwork()
    coordinates = [
        (0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
        (0.0, 0.5), (0.5, 0.5), (1.0, 0.5),
    ]
    for i, (x, y) in enumerate(coordinates):
        network.add_node(i, Point(x, y))
    for u, v in [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]:
        network.add_edge(u, v)
    return network


@pytest.fixture
def medium_network() -> RoadNetwork:
    """A 60-node random connected network with detours."""
    return build_random_network(60, 45, seed=1234, detour_max=0.8)
