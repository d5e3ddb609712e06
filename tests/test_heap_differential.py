"""Settle-order differential tests: the production heap vs the reference.

``tests/reference_heap.py`` keeps the sift-based heap the wavefronts ran
on before :class:`repro.index.heap.AddressableHeap` moved to ``heapq``
with lazy invalidation.  Both promise pops in ascending
``(priority, first-insertion counter)``, so every search must settle the
same nodes at the same distances in the same order, report the same
``plb`` after every step and emit the same objects, on either heap.
Each case runs once with the reference swapped into
:mod:`repro.network.dijkstra` and :mod:`repro.network.astar` and once
on the production heap, and compares the traces with ``==`` (floats
bit for bit).

The tie grid is the adversarial input: every edge is 0.1 long and the
objects sit at offsets 0.025, 0.05 and 0.075, so equal keys are the
rule and only the counter orders them.
"""

from __future__ import annotations

import random

import pytest

import repro.network.astar as astar_module
import repro.network.dijkstra as dijkstra_module
from repro.geometry import Point
from repro.index import AddressableHeap
from repro.network import (
    AStarExpander,
    DijkstraExpander,
    InMemoryPlacements,
    LandmarkHeuristic,
    ObjectSet,
    RoadNetwork,
    SpatialObject,
)

import reference_heap
from conftest import (
    build_random_network,
    iter_objects,
    place_random_objects,
    random_locations,
)

SPACING = 0.1
OBJECT_OFFSETS = (0.025, 0.05, 0.075)
QUERY_OFFSETS = (0.03, 0.05, 0.07)


def tie_grid(side: int, seed: int) -> tuple[RoadNetwork, ObjectSet]:
    """A 0.1-spaced grid, about 10 % of its 0.1-long edges dropped,
    with objects at 0.025 / 0.05 / 0.075 along random edges."""
    rng = random.Random(seed)
    network = RoadNetwork()
    for i in range(side):
        for j in range(side):
            network.add_node(i * side + j, Point(SPACING * i, SPACING * j))
    for i in range(side):
        for j in range(side):
            node = i * side + j
            if i + 1 < side and rng.random() >= 0.1:
                network.add_edge(node, node + side, length=SPACING)
            if j + 1 < side and rng.random() >= 0.1:
                network.add_edge(node, node + 1, length=SPACING)
    edge_ids = sorted(network.edge_ids())
    objects = [
        SpatialObject(
            i,
            network.location_on_edge(
                rng.choice(edge_ids), rng.choice(OBJECT_OFFSETS)
            ),
        )
        for i in range(2 * side)
    ]
    return network, ObjectSet.build(network, objects)


def tie_locations(network: RoadNetwork, count: int, seed: int):
    """Query points at junctions or at 0.03 / 0.05 / 0.07 along edges."""
    rng = random.Random(seed)
    node_ids = sorted(network.node_ids())
    edge_ids = sorted(network.edge_ids())
    locations = []
    for _ in range(count):
        if rng.random() < 0.5:
            locations.append(network.location_at_node(rng.choice(node_ids)))
        else:
            locations.append(
                network.location_on_edge(
                    rng.choice(edge_ids), rng.choice(QUERY_OFFSETS)
                )
            )
    return locations


def random_case(seed: int) -> tuple[RoadNetwork, ObjectSet]:
    network = build_random_network(80, 60, seed=seed, detour_max=0.8)
    return network, place_random_objects(network, 40, seed=seed + 1)


CASES = {
    "tie-grid-4": lambda: tie_grid(4, seed=11),
    "tie-grid-6": lambda: tie_grid(6, seed=279),
    "tie-grid-7": lambda: tie_grid(7, seed=42),
    "random": lambda: random_case(seed=5),
}


def on_both_heaps(monkeypatch, run):
    """``run(heap_class)`` under the reference heap, then the production
    heap; ``run`` returns its trace and asserts its heaps are of the
    class it was given, so a missed swap cannot pass silently."""
    reference = reference_heap.AddressableHeap
    with monkeypatch.context() as patch:
        patch.setattr(dijkstra_module, "AddressableHeap", reference)
        patch.setattr(astar_module, "AddressableHeap", reference)
        expected = run(reference)
    got = run(AddressableHeap)
    return expected, got


def dijkstra_trace(network, objects, sources, heap_class):
    placements = InMemoryPlacements(objects)
    trace = []
    for source in sources:
        ine = DijkstraExpander(network, source, placements=placements)
        assert type(ine._heap) is heap_class
        assert type(ine._object_heap) is heap_class
        emissions = [(obj.object_id, dist) for obj, dist in iter_objects(ine)]
        full = DijkstraExpander(network, source, placements=placements)
        steps = []
        while (step := full.expand_next()) is not None:
            steps.append(step)
        trace.append(
            (
                emissions,
                list(ine.settled.items()),
                ine.nodes_settled,
                ine.relaxations,
                steps,
                full.nodes_settled,
                full.relaxations,
            )
        )
    return trace


def lower_bound_trace(network, source, targets, heuristic, step_budgets, heap_class):
    """Interleaved searches on one expander: each search advances a
    budgeted number of steps (``None``: to completion) before the next
    one re-keys the shared frontier."""
    expander = AStarExpander(network, source, heuristic=heuristic)
    trace = []
    for target, budget in zip(targets, step_budgets):
        search = expander.search_toward(target)
        if not search.done:
            assert type(search._heap) is heap_class
        plbs = [search.plb]
        steps = 0
        while not search.done and (budget is None or steps < budget):
            plbs.append(search.expand_step())
            steps += 1
        trace.append((plbs, search.done, search.distance, search.expansions))
    return (
        trace,
        list(expander.settled.items()),
        sorted(expander.frontier.items()),
        expander.nodes_settled,
        expander.relaxations,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_dijkstra_expansion_and_ine_match_reference(case, monkeypatch):
    network, objects = CASES[case]()
    sources = tie_locations(network, 4, seed=7) + random_locations(network, 2, seed=8)
    expected, got = on_both_heaps(
        monkeypatch,
        lambda heap_class: dijkstra_trace(network, objects, sources, heap_class),
    )
    assert got == expected
    assert any(emissions for emissions, *_ in got)


@pytest.mark.parametrize("heuristic_kind", ["euclidean", "landmarks"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_interleaved_lower_bound_searches_match_reference(
    case, heuristic_kind, monkeypatch
):
    network, objects = CASES[case]()
    heuristic = None
    if heuristic_kind == "landmarks":
        heuristic = LandmarkHeuristic(network, count=3, seed=13)
    rng = random.Random(17)
    sources = tie_locations(network, 3, seed=19)
    targets = [obj.location for obj in objects] + tie_locations(network, 6, seed=23)
    rng.shuffle(targets)
    budgets = [rng.choice([1, 2, 3, 5, 8, None]) for _ in targets]
    assert len(targets) >= 5
    for source in sources:
        expected, got = on_both_heaps(
            monkeypatch,
            lambda heap_class: lower_bound_trace(
                network, source, targets, heuristic, budgets, heap_class
            ),
        )
        assert got == expected
        assert got[3] > 0
