"""Focused tests for core helpers: eviction, explain vectors, EDC stats."""

import pytest

from repro.core import EDC, NaiveSkyline, Workspace, object_vector
from repro.core.base import insert_skyline_point
from repro.core.result import SkylinePoint
from repro.network import ObjectSet, SpatialObject

from conftest import build_random_network, place_random_objects, random_locations


def _point(network, object_id, vector):
    objects = place_random_objects(network, 1, seed=object_id, first_id=object_id)
    return SkylinePoint(obj=objects.objects[0], vector=vector)


class TestInsertSkylinePoint:
    @pytest.fixture
    def net(self):
        return build_random_network(20, 10, seed=900)

    def test_plain_append(self, net):
        skyline = [_point(net, 0, (1.0, 5.0))]
        insert_skyline_point(skyline, _point(net, 1, (5.0, 1.0)))
        assert [p.object_id for p in skyline] == [0, 1]

    def test_evicts_dominated_member(self, net):
        skyline = [_point(net, 0, (3.0, 3.0))]
        insert_skyline_point(skyline, _point(net, 1, (2.0, 3.0)))
        assert [p.object_id for p in skyline] == [1]

    def test_evicts_multiple(self, net):
        skyline = [
            _point(net, 0, (3.0, 3.0)),
            _point(net, 1, (4.0, 2.5)),
            _point(net, 2, (0.5, 9.0)),
        ]
        insert_skyline_point(skyline, _point(net, 3, (2.0, 2.0)))
        assert sorted(p.object_id for p in skyline) == [2, 3]

    def test_equal_vector_not_evicted(self, net):
        skyline = [_point(net, 0, (1.0, 1.0))]
        insert_skyline_point(skyline, _point(net, 1, (1.0, 1.0)))
        assert sorted(p.object_id for p in skyline) == [0, 1]


class TestObjectVector:
    def test_matches_naive_vectors(self):
        network = build_random_network(40, 25, seed=910)
        objects = place_random_objects(network, 15, seed=911, attribute_count=1)
        workspace = Workspace.build(network, objects, paged=False)
        queries = random_locations(network, 2, seed=912)
        reference = NaiveSkyline().run(workspace, queries)
        for point in reference:
            recomputed = object_vector(workspace, queries, point.object_id)
            assert recomputed == pytest.approx(point.vector)

    def test_includes_attributes(self):
        network = build_random_network(30, 15, seed=920)
        objects = place_random_objects(network, 5, seed=921, attribute_count=2)
        workspace = Workspace.build(network, objects, paged=False)
        queries = random_locations(network, 1, seed=922)
        vector = object_vector(workspace, queries, 0)
        assert len(vector) == 3
        assert vector[1:] == objects.get(0).attributes


class TestEDCClosureAccounting:
    def test_counterexample_records_closure_stats(self):
        """The constructed EDC blind spot must show up in the stats."""
        from repro.geometry import Point
        from repro.network import RoadNetwork

        net = RoadNetwork()
        net.add_node(0, Point(0.0, 0.0))
        net.add_node(1, Point(0.0, 1.0))
        net.add_node(2, Point(0.0, 0.45))
        net.add_node(3, Point(0.3, 0.5))
        e_q1 = net.add_edge(0, 2, length=5.0)
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
        result = EDC().run(ws, queries)
        assert result.stats.extras.get("closure_candidates", 0) >= 1

    def test_closure_silent_on_easy_workload(self):
        network = build_random_network(50, 35, seed=930, detour_max=0.2)
        objects = place_random_objects(network, 25, seed=931)
        workspace = Workspace.build(network, objects, paged=False)
        queries = random_locations(network, 2, seed=932)
        stats = EDC().run(workspace, queries).stats
        # Closure candidates are counted in candidate_count.
        assert stats.extras.get("closure_candidates", 0.0) <= stats.candidate_count

