"""Point-to-point distances and nearest objects from the expanders.

Dijkstra, A* and the networkx export agree; a resumed wavefront
answers as fresh ones do; INE's first emissions are the nearest
objects.
"""

import itertools

import pytest

from repro.network import AStarExpander, DijkstraExpander

from conftest import iter_objects, random_locations
from network_measures import to_networkx


def dijkstra_distance(network, a, b):
    return DijkstraExpander(network, a).distance_to(b)


class TestNetworkDistance:
    def test_methods_agree(self, medium_network):
        locations = random_locations(medium_network, 6, seed=3)
        for a in locations[:2]:
            for b in locations[2:]:
                d1 = dijkstra_distance(medium_network, a, b)
                d2 = AStarExpander(medium_network, a).distance_to(b)
                assert d1 == pytest.approx(d2)

    def test_distance_to_self(self, tiny_network):
        a = tiny_network.location_at_node(0)
        assert dijkstra_distance(tiny_network, a, a) == 0.0

    def test_symmetry(self, medium_network):
        locations = random_locations(medium_network, 4, seed=8)
        for a in locations[:2]:
            for b in locations[2:]:
                assert dijkstra_distance(medium_network, a, b) == pytest.approx(
                    dijkstra_distance(medium_network, b, a)
                )

    def test_at_least_euclidean(self, medium_network):
        locations = random_locations(medium_network, 6, seed=13)
        for a in locations[:3]:
            for b in locations[3:]:
                network = dijkstra_distance(medium_network, a, b)
                assert network >= a.point.distance_to(b.point) - 1e-9


class TestBatchHelpers:
    def test_network_distances_one_wavefront(self, medium_network):
        """One resumed wavefront answers many targets as fresh ones do."""
        source = medium_network.location_at_node(0)
        targets = random_locations(medium_network, 5, seed=21)
        expander = DijkstraExpander(medium_network, source)
        batch = [expander.distance_to(t) for t in targets]
        singles = [
            dijkstra_distance(medium_network, source, t) for t in targets
        ]
        assert batch == pytest.approx(singles)


class TestInterop:
    def test_to_networkx_collapses_parallel_edges(self):
        from repro.geometry import Point
        from repro.network import RoadNetwork

        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        net.add_edge(0, 1, length=2.0)
        net.add_edge(0, 1, length=1.5)
        graph = to_networkx(net)
        assert graph[0][1]["weight"] == 1.5

    def test_to_networkx_preserves_counts(self, medium_network):
        graph = to_networkx(medium_network)
        assert graph.number_of_nodes() == medium_network.node_count


class TestKNearestObjects:
    """The first ``k`` emissions of an INE wavefront are the ``k``
    nearest objects."""

    def _setup(self, seed=71):
        from repro.network import InMemoryPlacements

        from conftest import build_random_network, place_random_objects

        network = build_random_network(50, 30, seed=seed)
        objects = place_random_objects(network, 30, seed=seed + 1)
        return network, objects, InMemoryPlacements(objects)

    def _nearest(self, network, source, placements, k):
        expander = DijkstraExpander(network, source, placements=placements)
        return list(itertools.islice(iter_objects(expander), k))

    def test_returns_k_in_order(self):
        network, objects, placements = self._setup()
        source = network.location_at_node(0)
        answers = self._nearest(network, source, placements, k=5)
        assert len(answers) == 5
        distances = [d for _, d in answers]
        assert distances == sorted(distances)

    def test_matches_brute_force(self):
        network, objects, placements = self._setup(seed=73)
        source = network.location_at_node(3)
        answers = self._nearest(network, source, placements, k=4)
        brute = sorted(
            (dijkstra_distance(network, source, obj.location), obj.object_id)
            for obj in objects
        )[:4]
        assert [round(d, 9) for _, d in answers] == [
            round(d, 9) for d, _ in brute
        ]

    def test_k_exceeding_objects(self):
        network, objects, placements = self._setup(seed=75)
        source = network.location_at_node(1)
        answers = self._nearest(network, source, placements, k=1000)
        assert len(answers) == len(objects)
