"""Unit tests for ObjectSet / SpatialObject and the middle layer."""

import pytest

from repro.network import (
    InMemoryPlacements,
    MiddleLayer,
    ObjectSet,
    SpatialObject,
)
from repro.storage import NodePager

from conftest import build_random_network, place_random_objects
from invariants import check_rtree, rtree_entries

NAN = float("nan")


def object_on(network, edge_index, fraction, object_id=0, attributes=()):
    edge = list(network.edges())[edge_index]
    location = network.location_on_edge(edge.edge_id, edge.length * fraction)
    return SpatialObject(object_id, location, attributes)


class TestObjectSet:
    def test_build_and_lookup(self, tiny_network):
        obj = object_on(tiny_network, 0, 0.5)
        objects = ObjectSet.build(tiny_network, [obj])
        assert len(objects) == 1
        assert objects.get(0) is obj
        assert 0 in objects
        assert 1 not in objects

    def test_duplicate_ids_rejected(self, tiny_network):
        a = object_on(tiny_network, 0, 0.3, object_id=1)
        b = object_on(tiny_network, 1, 0.3, object_id=1)
        with pytest.raises(ValueError):
            ObjectSet.build(tiny_network, [a, b])

    def test_negative_attribute_rejected(self, tiny_network):
        obj = object_on(tiny_network, 0, 0.5, attributes=(-1.0,))
        with pytest.raises(ValueError):
            ObjectSet.build(tiny_network, [obj])

    def test_nan_attribute_rejected(self, tiny_network):
        obj = object_on(tiny_network, 0, 0.5, object_id=7, attributes=(1.0, NAN))
        with pytest.raises(ValueError, match="object 7 has attributes"):
            ObjectSet.build(tiny_network, [obj])

    def test_on_edge_index(self, tiny_network):
        a = object_on(tiny_network, 0, 0.3, object_id=0)
        b = object_on(tiny_network, 0, 0.7, object_id=1)
        c = object_on(tiny_network, 2, 0.5, object_id=2)
        objects = ObjectSet.build(tiny_network, [a, b, c])
        edge0 = list(tiny_network.edges())[0].edge_id
        assert {o.object_id for o in objects.on_edge(edge0)} == {0, 1}
        assert objects.on_edge(99999) == []

    def test_node_resident_objects(self, tiny_network):
        loc = tiny_network.location_at_node(4)
        objects = ObjectSet.build(tiny_network, [SpatialObject(0, loc)])
        assert [o.object_id for o in objects.at_node(4)] == [0]
        assert objects.at_node(0) == []

    def test_attribute_count(self, tiny_network):
        obj = object_on(tiny_network, 0, 0.5, attributes=(1.0, 2.0))
        objects = ObjectSet.build(tiny_network, [obj])
        assert objects.attribute_count == 2
        assert ObjectSet.build(tiny_network, []).attribute_count == 0

    def test_inconsistent_attributes_detected(self, tiny_network):
        a = object_on(tiny_network, 0, 0.3, object_id=0, attributes=(1.0,))
        b = object_on(tiny_network, 1, 0.3, object_id=1)
        objects = ObjectSet.build(tiny_network, [a, b])
        with pytest.raises(ValueError):
            objects.validate_uniform_attributes()

    def test_rtree_contains_all_objects(self):
        network = build_random_network(40, 20, seed=9)
        objects = place_random_objects(network, 30, seed=10)
        tree = objects.build_rtree(max_entries=4)
        check_rtree(tree)
        ids = sorted(o.object_id for _, o in rtree_entries(tree))
        assert ids == list(range(30))

    def test_point_property(self, tiny_network):
        obj = object_on(tiny_network, 0, 0.5)
        assert obj.point == obj.location.point


class TestMiddleLayer:
    def test_placements_for_edge_objects(self, tiny_network):
        obj = object_on(tiny_network, 0, 0.4)
        objects = ObjectSet.build(tiny_network, [obj])
        layer = MiddleLayer.build(objects)
        edge = list(tiny_network.edges())[0]
        placements = layer.objects_on(edge.edge_id)
        assert len(placements) == 1
        placement = placements[0]
        assert placement.dist_from_u == pytest.approx(edge.length * 0.4)
        assert placement.dist_from_v == pytest.approx(edge.length * 0.6)
        assert (
            placement.dist_from_u + placement.dist_from_v
            == pytest.approx(edge.length)
        )

    def test_distance_from_either_end(self, tiny_network):
        obj = object_on(tiny_network, 0, 0.25)
        objects = ObjectSet.build(tiny_network, [obj])
        layer = MiddleLayer.build(objects)
        edge = list(tiny_network.edges())[0]
        placement = layer.objects_on(edge.edge_id)[0]
        assert placement.distance_from(edge.u, tiny_network) == pytest.approx(
            edge.length * 0.25
        )
        assert placement.distance_from(edge.v, tiny_network) == pytest.approx(
            edge.length * 0.75
        )
        with pytest.raises(ValueError):
            placement.distance_from(9999, tiny_network)

    def test_node_object_attached_to_every_incident_edge(self, tiny_network):
        loc = tiny_network.location_at_node(1)  # degree 3
        objects = ObjectSet.build(tiny_network, [SpatialObject(0, loc)])
        layer = MiddleLayer.build(objects)
        attached = 0
        for edge in tiny_network.edges():
            for placement in layer.objects_on(edge.edge_id):
                attached += 1
                assert placement.distance_from(1, tiny_network) == 0.0
        assert attached == 3
        assert layer.placement_count == 3

    def test_empty_edge_returns_nothing(self, tiny_network):
        objects = ObjectSet.build(tiny_network, [])
        layer = MiddleLayer.build(objects)
        assert layer.objects_on(list(tiny_network.edges())[0].edge_id) == []
        assert not layer.has_objects(list(tiny_network.edges())[0].edge_id)

    def test_probe_counting(self, tiny_network):
        objects = ObjectSet.build(tiny_network, [object_on(tiny_network, 0, 0.5)])
        layer = MiddleLayer.build(objects)
        edge_id = list(tiny_network.edges())[0].edge_id
        layer.objects_on(edge_id)
        layer.has_objects(edge_id)
        assert layer.probe_count == 2

    def test_paged_layer_charges_io(self):
        network = build_random_network(60, 30, seed=11)
        objects = place_random_objects(network, 100, seed=12)
        pager = NodePager()
        layer = MiddleLayer.build(objects, order=8, pager=pager)
        pager.pool.reset_stats()
        for edge_id in list(network.edge_ids())[:20]:
            layer.objects_on(edge_id)
        assert pager.stats.logical_reads > 0
        assert layer.stats is pager.stats

    def test_in_memory_placements_match_middle_layer(self):
        network = build_random_network(50, 25, seed=13)
        objects = place_random_objects(network, 60, seed=14)
        layer = MiddleLayer.build(objects)
        memory = InMemoryPlacements(objects)
        for edge_id in network.edge_ids():
            from_layer = sorted(
                (p.obj.object_id, round(p.dist_from_u, 9))
                for p in layer.objects_on(edge_id)
            )
            from_memory = sorted(
                (p.obj.object_id, round(p.dist_from_u, 9))
                for p in memory.objects_on(edge_id)
            )
            assert from_layer == from_memory
