"""Behavioural tests for CE, EDC, LBC and the naive baseline.

Each algorithm gets its own scenario tests; the heavy cross-algorithm
equivalence sweeps live in test_integration.py and the hypothesis
suite in test_property_algorithms.py.
"""


import random

import pytest

from repro.columnar.store import SkylineBlock
from repro.core import (
    CE,
    EDC,
    LBC,
    LBCLazy,
    NaiveSkyline,
    QueryStats,
    Workspace,
)
from repro.datasets import build_preset, extract_objects, select_query_points
from repro.engine import DistanceEngine
from repro.geometry import Point
from repro.network import ObjectSet, RoadNetwork, SpatialObject

from conftest import (
    build_random_network,
    cold_run,
    place_random_objects,
    random_locations,
)


@pytest.fixture(scope="module")
def workload():
    network = build_random_network(70, 50, seed=7, detour_max=0.8)
    objects = place_random_objects(network, 50, seed=8)
    workspace = Workspace.build(network, objects, paged=False)
    queries = random_locations(network, 3, seed=9)
    reference = NaiveSkyline().run(workspace, queries)
    return network, workspace, queries, reference


def _lbc_noplb():
    return LBC(use_lower_bounds=False)


ALGORITHMS = [CE, EDC, LBC, LBCLazy, _lbc_noplb]


class TestAllAlgorithms:
    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_matches_naive(self, workload, algorithm_cls):
        _, workspace, queries, reference = workload
        result = cold_run(algorithm_cls(), workspace, queries)
        assert result.same_answer(reference)

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_single_query_point(self, workload, algorithm_cls):
        network, workspace, queries, _ = workload
        single = [queries[0]]
        reference = NaiveSkyline().run(workspace, single)
        result = cold_run(algorithm_cls(), workspace, single)
        assert result.same_answer(reference)

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_duplicate_query_points(self, workload, algorithm_cls):
        """The same location twice: a degenerate but legal query."""
        _, workspace, queries, _ = workload
        doubled = [queries[0], queries[0]]
        reference = NaiveSkyline().run(workspace, doubled)
        result = cold_run(algorithm_cls(), workspace, doubled)
        assert result.same_answer(reference)

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_query_on_object_location(self, algorithm_cls):
        """A query point exactly on an object: distance 0 dominates."""
        network = build_random_network(40, 25, seed=17)
        objects = place_random_objects(network, 20, seed=18)
        workspace = Workspace.build(network, objects, paged=False)
        target = objects.objects[0]
        queries = [target.location]
        result = algorithm_cls().run(workspace, queries)
        assert result.object_ids() == [target.object_id]
        assert result.points[0].vector[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_empty_result_impossible_with_objects(self, workload, algorithm_cls):
        _, workspace, queries, _ = workload
        assert len(cold_run(algorithm_cls(), workspace, queries)) >= 1

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_vectors_have_query_then_attribute_dims(self, algorithm_cls):
        network = build_random_network(40, 25, seed=27)
        objects = place_random_objects(network, 25, seed=28, attribute_count=2)
        workspace = Workspace.build(network, objects, paged=False)
        queries = random_locations(network, 2, seed=29)
        result = algorithm_cls().run(workspace, queries)
        for point in result:
            assert len(point.vector) == 4
            assert point.vector[2:] == point.obj.attributes

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_empty_query_list_rejected(self, workload, algorithm_cls):
        _, workspace, _, _ = workload
        with pytest.raises(ValueError):
            algorithm_cls().run(workspace, [])


class TestSkylineSemantics:
    def test_skyline_members_mutually_non_dominated(self, workload):
        from repro.skyline import dominates

        _, workspace, queries, reference = workload
        vectors = [p.vector for p in reference]
        for a in vectors:
            for b in vectors:
                if a is not b:
                    assert not dominates(a, b)

    def test_non_members_dominated(self, workload):
        from repro.network import DijkstraExpander
        from repro.skyline import dominates

        network, workspace, queries, reference = workload
        member_ids = set(reference.object_ids())
        vectors = [p.vector for p in reference]
        # Spot-check a few non-members.
        checked = 0
        for obj in workspace.objects:
            if obj.object_id in member_ids:
                continue
            distances = [
                DijkstraExpander(network, q).distance_to(obj.location)
                for q in queries
            ]
            vector = tuple(distances) + obj.attributes
            assert any(dominates(v, vector) for v in vectors)
            checked += 1
            if checked >= 5:
                break


class TestCESpecifics:
    def test_initial_response_before_total(self, workload):
        _, workspace, queries, _ = workload
        stats = CE().run(workspace, queries).stats
        assert stats.initial_response_s <= stats.total_response_s + 1e-9

    def test_candidate_count_reported(self, workload):
        _, workspace, queries, _ = workload
        stats = CE().run(workspace, queries).stats
        assert 1 <= stats.candidate_count <= len(workspace.objects)

    def test_attribute_only_survivor_found(self):
        """An object remote from all query points but uniquely cheap
        must appear in the skyline (the virtual-expander fix)."""
        network = build_random_network(60, 35, seed=37)
        base = place_random_objects(network, 30, seed=38, attribute_count=1)
        # Force one object to have the global minimum attribute.
        cheap = min(base.objects, key=lambda o: o.attributes[0])
        workspace = Workspace.build(network, base, paged=False)
        queries = random_locations(network, 3, seed=39)
        result = CE().run(workspace, queries)
        assert cheap.object_id in result.object_ids()

    def test_disconnected_queries_fall_back(self):
        from repro.geometry import Point
        from repro.network import RoadNetwork

        net = RoadNetwork()
        for i, xy in enumerate([(0, 0), (0.1, 0), (0.8, 0.8), (0.9, 0.8)]):
            net.add_node(i, Point(*xy))
        e1 = net.add_edge(0, 1)
        e2 = net.add_edge(2, 3)
        objects = ObjectSet.build(
            net,
            [
                SpatialObject(0, net.location_on_edge(e1.edge_id, e1.length / 2)),
                SpatialObject(1, net.location_on_edge(e2.edge_id, e2.length / 2)),
            ],
        )
        ws = Workspace.build(net, objects, paged=False)
        queries = [net.location_at_node(0), net.location_at_node(2)]
        reference = NaiveSkyline().run(ws, queries)
        result = CE().run(ws, queries)
        assert result.same_answer(reference)
        # Both objects survive: each unreachable from one query point.
        assert result.object_ids() == [0, 1]


class TestEDCSpecifics:
    def test_closure_counter_absent_on_normal_workloads(self, workload):
        _, workspace, queries, _ = workload
        stats = EDC().run(workspace, queries).stats
        # The closure often fires (EXPERIMENTS.md, "One EDC"); when it
        # does not, the extra is absent.
        assert stats.extras.get("closure_candidates", 0.0) >= 0.0

    def test_closure_rescues_published_edc_blind_spot(self):
        """The constructed counterexample from the module docstring:
        a detour-heavy Euclidean skyline point hides a true skyline
        member outside every hypercube."""
        from repro.geometry import Point
        from repro.network import RoadNetwork

        net = RoadNetwork()
        # q1 --(detour 5)-- e; o sits slightly farther Euclidean but on
        # direct roads.
        net.add_node(0, Point(0.0, 0.0))    # q1
        net.add_node(1, Point(0.0, 1.0))    # q2
        net.add_node(2, Point(0.0, 0.45))   # junction carrying e
        net.add_node(3, Point(0.3, 0.5))    # junction carrying o
        e_q1 = net.add_edge(0, 2, length=5.0)   # huge detour q1 -> e side
        net.add_edge(1, 2, length=0.55)
        net.add_edge(0, 3, length=0.6)
        net.add_edge(1, 3, length=0.6)
        eid = net.add_edge(2, 3, length=0.31)
        objects = ObjectSet.build(
            net,
            [
                SpatialObject(0, net.location_on_edge(e_q1.edge_id, 4.999)),
                SpatialObject(1, net.location_on_edge(eid.edge_id, 0.3)),
            ],
        )
        ws = Workspace.build(net, objects, paged=False)
        queries = [net.location_at_node(0), net.location_at_node(1)]
        reference = NaiveSkyline().run(ws, queries)
        for algorithm in (EDC(), CE(), LBC()):
            assert cold_run(algorithm, ws, queries).same_answer(reference)


class TestLBCSpecifics:
    def test_source_index_changes_order_not_set(self, workload):
        _, workspace, queries, _ = workload
        first = cold_run(LBC(source_index=0), workspace, queries)
        last = cold_run(LBC(source_index=len(queries) - 1), workspace, queries)
        assert first.same_answer(last)

    def test_bad_source_index_rejected(self, workload):
        _, workspace, queries, _ = workload
        with pytest.raises(ValueError):
            LBC(source_index=10).run(workspace, queries)

    def test_first_point_is_source_network_nn(self, workload):
        """LBC's first reported point minimises the source dimension."""
        _, workspace, queries, _ = workload
        result = cold_run(LBC(source_index=0), workspace, queries)
        source_dim = [p.vector[0] for p in result.points]
        assert source_dim[0] == pytest.approx(min(source_dim))

    def test_reports_progressively_by_source_distance(self, workload):
        """Discovery order is non-decreasing in the source dimension
        (modulo tie-eviction, absent on random float workloads)."""
        _, workspace, queries, _ = workload
        result = cold_run(LBC(source_index=0), workspace, queries)
        source_dim = [p.vector[0] for p in result.points]
        assert source_dim == sorted(source_dim)

    def test_lb_expansions_tracked(self, workload):
        _, workspace, queries, _ = workload
        stats = cold_run(LBC(), workspace, queries).stats
        assert stats.lb_expansions > 0
        assert stats.distance_computations > 0

    @staticmethod
    def au_workload():
        """AU at 2 % with |Q| = 3, and Naive's answer on a workspace of
        its own, so the reference shares no memo with the run checked."""
        network = build_preset("AU", scale=0.02, seed=3)
        objects = extract_objects(network, omega=0.5, seed=4)
        queries = select_query_points(network, 3, seed=5)
        fresh = Workspace.build(network, objects, paged=True)
        return network, objects, queries, NaiveSkyline().run(fresh, queries)

    @pytest.mark.parametrize("algorithm_cls", [LBC, LBCLazy])
    def test_memo_hot_candidates_need_no_search(self, algorithm_cls):
        """Once Naive has memoised every distance, LBC's resolve step
        starts each candidate from exact values: nothing to expand."""
        network, objects, queries, reference = self.au_workload()
        workspace = Workspace.build(network, objects, paged=True)
        NaiveSkyline().run(workspace, queries)  # memoises every (q, p)
        result = algorithm_cls().run(workspace, queries)
        assert result.stats.nodes_settled == 0
        assert result.stats.lb_expansions == 0
        assert result.vectors_by_id() == reference.vectors_by_id()

    @pytest.mark.parametrize("algorithm_cls", [LBC, LBCLazy])
    def test_partly_memoised_candidates_search_the_rest(self, algorithm_cls):
        """With two query points memoised, the third dimension still
        runs its lower-bound search, and the answer is Naive's."""
        network, objects, queries, reference = self.au_workload()
        workspace = Workspace.build(network, objects, paged=True)
        NaiveSkyline().run(workspace, queries[:2])
        result = algorithm_cls().run(workspace, queries)
        assert result.stats.lb_expansions > 0
        assert result.same_answer(reference)


def tie_grid(side: int = 6) -> tuple[RoadNetwork, ObjectSet]:
    """A grid whose every edge is 0.1 long, with co-located object
    pairs at quarter-edge, mid-edge and junction offsets: network
    distances tie everywhere."""
    network = RoadNetwork()
    for i in range(side):
        for j in range(side):
            network.add_node(i * side + j, Point(0.09 * i, 0.09 * j))
    for i in range(side):
        for j in range(side):
            node = i * side + j
            if i + 1 < side:
                network.add_edge(node, node + side, length=0.1)
            if j + 1 < side:
                network.add_edge(node, node + 1, length=0.1)
    rng = random.Random(5)
    edges = sorted(network.edge_ids())
    objects = []
    for k in range(20):
        edge = rng.choice(edges)
        location = network.location_on_edge(edge, rng.choice((0.025, 0.05, 0.1)))
        objects.append(SpatialObject(2 * k, location, ()))
        objects.append(SpatialObject(2 * k + 1, location, ()))
    return network, ObjectSet.build(network, objects)


class TestLBCStream:
    def test_unpruned_stream_is_network_order_with_id_ties(self):
        network, objects = tie_grid()
        workspace = Workspace.build(network, objects, paged=False)
        queries = [
            network.location_at_node(7),
            network.location_on_edge(sorted(network.edge_ids())[30], 0.05),
        ]
        lbc = LBC()
        lbc._engine = workspace.engine
        source = queries[0]
        stream = lbc._network_nn_stream(
            workspace,
            queries,
            source,
            workspace.engine.astar_expander(source, slot=0),
            SkylineBlock(len(queries)),  # empty: nothing is pruned
            QueryStats(),
        )
        got = [(distance, obj.object_id) for obj, distance in stream]
        reference = DistanceEngine(network, backend="dijkstra")
        expected = sorted(
            (reference.distance(source, obj.location), obj.object_id)
            for obj in objects.objects
        )
        assert got == expected
        assert len({d for d, _ in got}) < len(got) // 2  # ties dominate

    @pytest.mark.parametrize("algorithm_cls", [LBC])
    def test_tie_grid_matches_naive(self, algorithm_cls):
        network, objects = tie_grid()
        workspace = Workspace.build(network, objects, paged=False)
        queries = [network.location_at_node(n) for n in (0, 14, 33)]
        reference = NaiveSkyline().run(workspace, queries)
        assert cold_run(algorithm_cls(), workspace, queries).same_answer(reference)


class TestNaiveSpecifics:
    def test_candidates_are_everything(self, workload):
        _, workspace, queries, _ = workload
        stats = NaiveSkyline().run(workspace, queries).stats
        assert stats.candidate_count == len(workspace.objects)

    def test_single_object(self):
        network = build_random_network(20, 10, seed=47)
        objects = place_random_objects(network, 1, seed=48)
        ws = Workspace.build(network, objects, paged=False)
        queries = random_locations(network, 2, seed=49)
        result = NaiveSkyline().run(ws, queries)
        assert result.object_ids() == [0]
