"""Tests for the landmark (ALT) heuristic and its use in A*/LBC."""

import math
import random

import pytest

from repro.core import LBC, NaiveSkyline, Workspace
from repro.network import (
    AStarExpander,
    DijkstraExpander,
    LandmarkHeuristic,
)

from conftest import (
    build_random_network,
    cold_run,
    place_random_objects,
    random_locations,
)
from network_measures import landmark_tightness


@pytest.fixture(scope="module")
def detour_network():
    return build_random_network(70, 40, seed=201, detour_max=1.5)


@pytest.fixture(scope="module")
def landmarks(detour_network):
    return LandmarkHeuristic(detour_network, count=5, seed=202)


class TestConstruction:
    def test_landmark_count(self, detour_network):
        lm = LandmarkHeuristic(detour_network, count=4, seed=1)
        assert len(lm.landmarks) == 4
        assert len(set(lm.landmarks)) == 4

    def test_count_clamped_to_node_count(self):
        net = build_random_network(5, 2, seed=3)
        lm = LandmarkHeuristic(net, count=50, seed=4)
        assert len(lm.landmarks) <= 5

    def test_bad_parameters(self, detour_network):
        with pytest.raises(ValueError):
            LandmarkHeuristic(detour_network, count=0)

    def test_empty_network_rejected(self):
        from repro.network import RoadNetwork

        with pytest.raises(ValueError):
            LandmarkHeuristic(RoadNetwork())

    def test_farthest_spreads_landmarks(self, detour_network):
        """Farthest-point landmarks should be pairwise farther apart (by
        network distance) than a random draw, on average."""
        far = LandmarkHeuristic(detour_network, count=4, seed=7)
        rnd = random.Random(7).sample(sorted(detour_network.node_ids()), 4)

        def mean_pairwise(landmarks):
            total = count = 0
            for i, a in enumerate(landmarks):
                expander = DijkstraExpander(
                    detour_network, detour_network.location_at_node(a)
                )
                for b in landmarks[i + 1 :]:
                    d = expander.distance_to_node(b)
                    if math.isfinite(d):
                        total += d
                        count += 1
            return total / max(count, 1)

        assert mean_pairwise(far.landmarks) >= mean_pairwise(rnd) * 0.8


class TestBoundValidity:
    def test_node_bound_never_exceeds_truth(self, detour_network, landmarks):
        rng = random.Random(9)
        nodes = sorted(detour_network.node_ids())
        for _ in range(30):
            a, b = rng.sample(nodes, 2)
            truth = DijkstraExpander(
                detour_network, detour_network.location_at_node(a)
            ).distance_to_node(b)
            assert landmarks.node_to_node(a, b) <= truth + 1e-9

    def test_location_bound_never_exceeds_truth(self, detour_network, landmarks):
        for target in random_locations(detour_network, 10, seed=11):
            for node in list(detour_network.node_ids())[:10]:
                truth = DijkstraExpander(
                    detour_network, detour_network.location_at_node(node)
                ).distance_to(target)
                assert landmarks(node, target) <= truth + 1e-9

    def test_bound_to_self_is_zero(self, detour_network, landmarks):
        for node in list(detour_network.node_ids())[:5]:
            assert landmarks.node_to_node(node, node) == 0.0

    def test_consistency_along_edges(self, detour_network, landmarks):
        """h(x) <= w(x,y) + h(y) for every edge and sampled target."""
        targets = random_locations(detour_network, 3, seed=13)
        for target in targets:
            for edge in detour_network.edges():
                hx = landmarks(edge.u, target)
                hy = landmarks(edge.v, target)
                assert hx <= edge.length + hy + 1e-9
                assert hy <= edge.length + hx + 1e-9

    def test_tighter_than_euclidean_on_detour_network(self, detour_network):
        lm = LandmarkHeuristic(detour_network, count=6, seed=15)
        euclid, landmark = landmark_tightness(lm, pairs=25, seed=16)
        assert landmark > euclid


class TestSearchIntegration:
    def test_astar_with_landmarks_is_exact(self, detour_network, landmarks):
        source = random_locations(detour_network, 1, seed=17)[0]
        plain = AStarExpander(detour_network, source)
        guided = AStarExpander(detour_network, source, heuristic=landmarks)
        for target in random_locations(detour_network, 8, seed=18):
            assert guided.distance_to(target) == pytest.approx(
                plain.distance_to(target)
            )

    def test_astar_with_landmarks_settles_fewer_nodes(self, detour_network, landmarks):
        source = detour_network.location_at_node(0)
        targets = random_locations(detour_network, 10, seed=19)
        plain = AStarExpander(detour_network, source)
        guided = AStarExpander(detour_network, source, heuristic=landmarks)
        for target in targets:
            plain.distance_to(target)
            guided.distance_to(target)
        assert guided.nodes_settled <= plain.nodes_settled

    def test_plb_still_monotone_with_landmarks(self, detour_network, landmarks):
        source = detour_network.location_at_node(1)
        expander = AStarExpander(detour_network, source, heuristic=landmarks)
        for target in random_locations(detour_network, 4, seed=21):
            search = expander.search_toward(target)
            previous = search.plb
            while not search.done:
                current = search.expand_step()
                assert current >= previous - 1e-12
                previous = current
            truth = DijkstraExpander(detour_network, source).distance_to(target)
            assert search.distance == pytest.approx(truth)

    def test_lbc_with_landmarks_matches_oracle(self, detour_network):
        objects = place_random_objects(detour_network, 35, seed=23)
        workspace = Workspace.build(
            detour_network, objects, paged=False, distance_backend="astar+landmarks"
        )
        queries = random_locations(detour_network, 3, seed=24)
        reference = NaiveSkyline().run(workspace, queries)
        result = cold_run(LBC(), workspace, queries)
        assert result.same_answer(reference)

    def test_lbc_with_landmarks_cheaper_on_sparse_preset(self):
        from repro.datasets import build_preset, extract_objects, select_query_points

        network = build_preset("CA", scale=0.3)
        objects = extract_objects(network, omega=0.5, seed=1)
        queries = select_query_points(network, 4, seed=5)
        plain = LBC().run(Workspace.build(network, objects, paged=False), queries)
        guided = LBC().run(
            Workspace.build(
                network, objects, paged=False, distance_backend="astar+landmarks"
            ),
            queries,
        )
        assert guided.same_answer(plain)
        assert guided.stats.nodes_settled <= plain.stats.nodes_settled
