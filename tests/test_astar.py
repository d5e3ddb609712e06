"""Tests for resumable A* and its path-distance lower bounds."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import AStarExpander, DijkstraExpander

from conftest import build_random_network, random_locations


class TestAStarDistances:
    def test_tiny_network(self, tiny_network):
        expander = AStarExpander(tiny_network, tiny_network.location_at_node(0))
        target = tiny_network.location_at_node(5)
        assert expander.distance_to(target) == pytest.approx(1.5)

    def test_matches_dijkstra_on_random_pairs(self):
        for seed in range(4):
            network = build_random_network(60, 40, seed=seed, detour_max=1.2)
            source = random_locations(network, 1, seed=seed + 100)[0]
            astar = AStarExpander(network, source)
            dijkstra = DijkstraExpander(network, source)
            for target in random_locations(network, 12, seed=seed + 200):
                assert astar.distance_to(target) == pytest.approx(
                    dijkstra.distance_to(target)
                )

    def test_reuse_across_targets_is_cheaper(self, medium_network):
        targets = random_locations(medium_network, 15, seed=77)
        source = medium_network.location_at_node(0)

        shared = AStarExpander(medium_network, source)
        for target in targets:
            shared.distance_to(target)
        shared_cost = shared.nodes_settled

        fresh_cost = 0
        for target in targets:
            single = AStarExpander(medium_network, source)
            single.distance_to(target)
            fresh_cost += single.nodes_settled
        assert shared_cost < fresh_cost

    def test_expands_fewer_nodes_than_dijkstra(self, medium_network):
        source = medium_network.location_at_node(0)
        target = medium_network.location_at_node(40)
        astar = AStarExpander(medium_network, source)
        astar.distance_to(target)
        dijkstra = DijkstraExpander(medium_network, source)
        dijkstra.distance_to_node(40)
        assert astar.nodes_settled <= dijkstra.nodes_settled

    def test_unreachable_target(self):
        from repro.geometry import Point
        from repro.network import RoadNetwork

        net = RoadNetwork()
        for i, xy in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            net.add_node(i, Point(*xy))
        e1 = net.add_edge(0, 1)
        e2 = net.add_edge(2, 3)
        expander = AStarExpander(net, net.location_at_node(0))
        assert expander.distance_to(net.location_at_node(3)) == math.inf
        far = net.location_on_edge(e2.edge_id, e2.length / 2)
        assert expander.distance_to(far) == math.inf
        # Still answers reachable targets afterwards.
        near = net.location_on_edge(e1.edge_id, e1.length / 4)
        assert expander.distance_to(near) == pytest.approx(e1.length / 4)

    def test_same_edge_shortcut(self, tiny_network):
        edge = next(iter(tiny_network.edges()))
        a = tiny_network.location_on_edge(edge.edge_id, 0.05)
        b = tiny_network.location_on_edge(edge.edge_id, 0.45)
        expander = AStarExpander(tiny_network, a)
        assert expander.distance_to(b) == pytest.approx(0.4)

    def test_repeat_target_uses_fast_path(self, medium_network):
        source = medium_network.location_at_node(0)
        target = random_locations(medium_network, 1, seed=5)[0]
        expander = AStarExpander(medium_network, source)
        first = expander.distance_to(target)
        settled = expander.nodes_settled
        second = expander.distance_to(target)
        assert first == second
        assert expander.nodes_settled == settled  # no extra expansion


class TestLowerBoundSearch:
    def test_initial_plb_is_euclidean_distance(self, medium_network):
        source = medium_network.location_at_node(0)
        target = medium_network.location_at_node(30)
        expander = AStarExpander(medium_network, source)
        search = expander.search_toward(target)
        euclid = source.point.distance_to(target.point)
        assert search.plb >= euclid - 1e-12

    def test_plb_monotone_and_reaches_distance(self, medium_network):
        source = medium_network.location_at_node(2)
        expander = AStarExpander(medium_network, source)
        for target in random_locations(medium_network, 8, seed=9):
            search = expander.search_toward(target)
            previous = search.plb
            while not search.done:
                current = search.expand_step()
                assert current >= previous - 1e-12
                previous = current
            reference = DijkstraExpander(medium_network, source).distance_to(target)
            assert search.distance == pytest.approx(reference)
            assert search.plb == search.distance

    def test_plb_is_always_a_lower_bound(self, medium_network):
        source = medium_network.location_at_node(1)
        expander = AStarExpander(medium_network, source)
        for target in random_locations(medium_network, 6, seed=19):
            truth = DijkstraExpander(medium_network, source).distance_to(target)
            search = expander.search_toward(target)
            while not search.done:
                assert search.plb <= truth + 1e-9
                search.expand_step()
            assert search.plb == pytest.approx(truth)

    def test_stale_search_raises(self, medium_network):
        source = medium_network.location_at_node(0)
        expander = AStarExpander(medium_network, source)
        targets = random_locations(medium_network, 2, seed=29)
        old = expander.search_toward(targets[0])
        expander.search_toward(targets[1])
        if not old.done:
            with pytest.raises(RuntimeError):
                old.expand_step()

    def test_done_search_expand_step_is_noop(self, medium_network):
        source = medium_network.location_at_node(0)
        expander = AStarExpander(medium_network, source)
        target = medium_network.location_at_node(1)
        search = expander.search_toward(target)
        distance = search.run_to_completion()
        assert search.expand_step() == distance

    def test_rekey_matches_point_distance_bit_for_bit(self, medium_network):
        """The inline Euclidean key is ``g + Point.distance_to`` exactly;
        only a custom heuristic goes through the cached ``_h``."""
        from repro.network import LandmarkHeuristic

        source = medium_network.location_at_node(0)
        landmarks = LandmarkHeuristic(medium_network, count=3, seed=4)
        for heuristic in (None, landmarks):
            expander = AStarExpander(medium_network, source, heuristic=heuristic)
            expander.search_toward(medium_network.location_at_node(30)).expand_step()
            for target in random_locations(medium_network, 6, seed=31):
                search = expander.search_toward(target)
                if search.done:
                    continue
                assert (search._h is None) == (heuristic is None)
                for node, key in search._heap.items():
                    if node < 0:
                        continue  # the on-edge goal's virtual node
                    h = medium_network.node_point(node).distance_to(target.point)
                    if heuristic is not None:
                        h = max(h, heuristic(node, target))
                    assert key == expander.frontier[node] + h

    def test_partial_expansion_settles_fewer_nodes(self, medium_network):
        """The point of LBC: stopping early saves network access."""
        source = medium_network.location_at_node(0)
        far_target = max(
            (medium_network.location_at_node(v) for v in medium_network.node_ids()),
            key=lambda loc: source.point.distance_to(loc.point),
        )
        partial = AStarExpander(medium_network, source)
        search = partial.search_toward(far_target)
        for _ in range(3):
            if not search.done:
                search.expand_step()
        full = AStarExpander(medium_network, source)
        full.distance_to(far_target)
        assert partial.nodes_settled < full.nodes_settled


class TestAStarProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_astar_equals_dijkstra_random(self, seed):
        network = build_random_network(35, 25, seed=seed, detour_max=1.0)
        source = random_locations(network, 1, seed=seed + 1)[0]
        targets = random_locations(network, 6, seed=seed + 2)
        astar = AStarExpander(network, source)
        dijkstra = DijkstraExpander(network, source)
        for target in targets:
            assert astar.distance_to(target) == pytest.approx(
                dijkstra.distance_to(target)
            )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_interleaved_expander_reuse_stays_exact(self, seed):
        """Sequential searches over one expander never corrupt settled state."""
        network = build_random_network(30, 20, seed=seed, detour_max=0.8)
        source = random_locations(network, 1, seed=seed + 3)[0]
        expander = AStarExpander(network, source)
        rng = random.Random(seed)
        targets = random_locations(network, 10, seed=seed + 4)
        rng.shuffle(targets)
        for target in targets:
            got = expander.distance_to(target)
            want = DijkstraExpander(network, source).distance_to(target)
            assert got == pytest.approx(want)
            # Settled distances must stay exact after every search.
            reference = DijkstraExpander(network, source)
            while reference.expand_next() is not None:
                pass
            for node, dist in expander.settled.items():
                assert dist == pytest.approx(reference.settled[node])
