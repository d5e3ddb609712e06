"""Tests for the resumable Dijkstra wavefront and INE object search."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import DijkstraExpander, InMemoryPlacements

from conftest import (
    build_random_network,
    iter_objects,
    place_random_objects,
    random_locations,
)
from network_measures import to_networkx


class TestNodeDistances:
    def test_tiny_network_distances(self, tiny_network):
        expander = DijkstraExpander(tiny_network, tiny_network.location_at_node(0))
        assert expander.distance_to_node(0) == 0.0
        assert expander.distance_to_node(1) == pytest.approx(0.5)
        assert expander.distance_to_node(5) == pytest.approx(1.5)

    def test_matches_networkx_everywhere(self):
        for seed in range(5):
            network = build_random_network(50, 35, seed=seed, detour_max=1.0)
            graph = to_networkx(network)
            source = seed % network.node_count
            reference = nx.single_source_dijkstra_path_length(
                graph, source, weight="weight"
            )
            expander = DijkstraExpander(
                network, network.location_at_node(source)
            )
            while expander.expand_next() is not None:
                pass
            for node in network.node_ids():
                assert expander.settled.get(node, math.inf) == pytest.approx(
                    reference.get(node, math.inf)
                )

    def test_unreachable_is_infinite(self):
        from repro.geometry import Point
        from repro.network import RoadNetwork

        net = RoadNetwork()
        for i, xy in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            net.add_node(i, Point(*xy))
        net.add_edge(0, 1)
        net.add_edge(2, 3)
        expander = DijkstraExpander(net, net.location_at_node(0))
        assert expander.distance_to_node(3) == math.inf

    def test_resumable_across_calls(self, medium_network):
        expander = DijkstraExpander(
            medium_network, medium_network.location_at_node(0)
        )
        d1 = expander.distance_to_node(10)
        settled_after_first = expander.nodes_settled
        d2 = expander.distance_to_node(10)  # already settled: no work
        assert d1 == d2
        assert expander.nodes_settled == settled_after_first

    def test_on_edge_source_seeds_both_ends(self, tiny_network):
        edge = next(e for e in tiny_network.edges() if (e.u, e.v) == (0, 1))
        source = tiny_network.location_on_edge(edge.edge_id, 0.2)
        expander = DijkstraExpander(tiny_network, source)
        assert expander.distance_to_node(0) == pytest.approx(0.2)
        assert expander.distance_to_node(1) == pytest.approx(0.3)

    def test_distance_to_on_edge_location(self, tiny_network):
        edge = next(e for e in tiny_network.edges() if (e.u, e.v) == (4, 5))
        target = tiny_network.location_on_edge(edge.edge_id, 0.25)
        expander = DijkstraExpander(tiny_network, tiny_network.location_at_node(0))
        # 0 -> 1 -> 4 (1.0) plus 0.25 along (4,5); or 0 -> 1 -> 2 -> 5 (1.5) + 0.25.
        assert expander.distance_to(target) == pytest.approx(1.25)

    def test_same_edge_direct_distance(self, tiny_network):
        edge = next(iter(tiny_network.edges()))
        a = tiny_network.location_on_edge(edge.edge_id, 0.1)
        b = tiny_network.location_on_edge(edge.edge_id, 0.45)
        expander = DijkstraExpander(tiny_network, a)
        assert expander.distance_to(b) == pytest.approx(0.35)

    def test_frontier_radius_monotone(self, medium_network):
        """The wavefront settles nodes in non-decreasing distance."""
        expander = DijkstraExpander(
            medium_network, medium_network.location_at_node(3)
        )
        last = 0.0
        while (step := expander.expand_next()) is not None:
            assert step[1] >= last
            last = step[1]
        assert expander.exhausted


class TestIncrementalNearestObject:
    def test_requires_placements(self, medium_network):
        expander = DijkstraExpander(
            medium_network, medium_network.location_at_node(0)
        )
        with pytest.raises(RuntimeError):
            expander.next_nearest_object()

    def test_emits_all_objects_in_order(self):
        network = build_random_network(60, 40, seed=21, detour_max=0.7)
        objects = place_random_objects(network, 45, seed=22)
        placements = InMemoryPlacements(objects)
        source = random_locations(network, 1, seed=23)[0]
        expander = DijkstraExpander(network, source, placements=placements)
        emitted = list(iter_objects(expander))
        assert len(emitted) == 45
        distances = [d for _, d in emitted]
        assert distances == sorted(distances)

    def test_emitted_distances_are_exact(self):
        network = build_random_network(50, 30, seed=31, detour_max=0.9)
        objects = place_random_objects(network, 25, seed=32)
        placements = InMemoryPlacements(objects)
        source = random_locations(network, 1, seed=33)[0]
        expander = DijkstraExpander(network, source, placements=placements)
        for obj, dist in iter_objects(expander):
            reference = DijkstraExpander(network, source).distance_to(obj.location)
            assert dist == pytest.approx(reference)

    def test_objects_on_source_edge_found_immediately(self):
        network = build_random_network(30, 15, seed=41)
        edge = next(iter(network.edges()))
        objects = place_random_objects(network, 10, seed=42)
        # Put one object on the same edge as the source.
        from repro.network import ObjectSet, SpatialObject

        near = SpatialObject(
            99, network.location_on_edge(edge.edge_id, edge.length * 0.6)
        )
        combined = ObjectSet.build(
            network, list(objects.objects) + [near]
        )
        source = network.location_on_edge(edge.edge_id, edge.length * 0.5)
        expander = DijkstraExpander(
            network, source, placements=InMemoryPlacements(combined)
        )
        first_obj, first_dist = expander.next_nearest_object()
        assert first_obj.object_id == 99
        assert first_dist == pytest.approx(edge.length * 0.1)

    def test_each_object_emitted_once(self):
        network = build_random_network(40, 25, seed=51)
        objects = place_random_objects(network, 30, seed=52)
        expander = DijkstraExpander(
            network,
            network.location_at_node(0),
            placements=InMemoryPlacements(objects),
        )
        ids = [obj.object_id for obj, _ in iter_objects(expander)]
        assert len(ids) == len(set(ids))

    def test_visited_tracking(self):
        network = build_random_network(40, 25, seed=61)
        objects = place_random_objects(network, 20, seed=62)
        expander = DijkstraExpander(
            network,
            network.location_at_node(0),
            placements=InMemoryPlacements(objects),
        )
        obj, dist = expander.next_nearest_object()
        assert expander.emissions == [(obj, dist)]
        assert expander.last_emitted_distance == dist

    def test_node_resident_object_discovered(self, tiny_network):
        from repro.network import ObjectSet, SpatialObject

        objects = ObjectSet.build(
            tiny_network,
            [SpatialObject(0, tiny_network.location_at_node(5))],
        )
        expander = DijkstraExpander(
            tiny_network,
            tiny_network.location_at_node(0),
            placements=InMemoryPlacements(objects),
        )
        obj, dist = expander.next_nearest_object()
        assert obj.object_id == 0
        assert dist == pytest.approx(1.5)


class TestDijkstraProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_networkx_on_random_instances(self, seed):
        network = build_random_network(30, 20, seed=seed, detour_max=1.5)
        graph = to_networkx(network)
        source = seed % 30
        reference = nx.single_source_dijkstra_path_length(
            graph, source, weight="weight"
        )
        expander = DijkstraExpander(network, network.location_at_node(source))
        while expander.expand_next() is not None:
            pass
        for node in network.node_ids():
            assert expander.settled.get(node, math.inf) == pytest.approx(
                reference.get(node, math.inf)
            )


class TestINEProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_ine_order_and_exactness_random(self, seed):
        """INE emits every object exactly once, in ascending order, with
        distances matching fresh per-object Dijkstra runs."""
        network = build_random_network(35, 25, seed=seed, detour_max=1.2)
        objects = place_random_objects(network, 18, seed=seed + 1)
        placements = InMemoryPlacements(objects)
        source = random_locations(network, 1, seed=seed + 2)[0]
        expander = DijkstraExpander(network, source, placements=placements)
        emitted = list(iter_objects(expander))
        assert sorted(obj.object_id for obj, _ in emitted) == sorted(
            o.object_id for o in objects
        )
        distances = [d for _, d in emitted]
        assert distances == sorted(distances)
        for obj, dist in emitted[:6]:
            fresh = DijkstraExpander(network, source).distance_to(obj.location)
            assert dist == pytest.approx(fresh)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_ine_prefix_consistency(self, seed):
        """Consuming k objects then the rest equals consuming them all:
        the wavefront's pause/resume does not disturb order."""
        network = build_random_network(30, 20, seed=seed, detour_max=0.8)
        objects = place_random_objects(network, 12, seed=seed + 1)
        source = random_locations(network, 1, seed=seed + 2)[0]

        def run(pauses):
            expander = DijkstraExpander(
                network, source, placements=InMemoryPlacements(objects)
            )
            out = []
            while True:
                item = expander.next_nearest_object()
                if item is None:
                    return out
                out.append((item[0].object_id, round(item[1], 9)))

        assert run(pauses=0) == run(pauses=3)
