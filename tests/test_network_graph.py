"""Unit tests for the road-network graph model."""

import math

import pytest

from repro.geometry import Point, Polyline
from repro.network import NetworkLocation, RoadNetwork

from conftest import build_random_network
from invariants import check_network


class TestNodesAndEdges:
    def test_add_node_and_lookup(self):
        net = RoadNetwork()
        net.add_node(1, Point(0.5, 0.5))
        assert net.has_node(1)
        assert net.node_point(1) == Point(0.5, 0.5)
        assert net.node_count == 1

    def test_re_adding_same_node_is_noop(self):
        net = RoadNetwork()
        net.add_node(1, Point(0, 0))
        net.add_node(1, Point(0, 0))
        assert net.node_count == 1

    def test_re_adding_node_with_new_point_raises(self):
        net = RoadNetwork()
        net.add_node(1, Point(0, 0))
        with pytest.raises(ValueError):
            net.add_node(1, Point(1, 1))

    def test_add_edge_defaults_to_chord_length(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(3, 4))
        edge = net.add_edge(0, 1)
        assert edge.length == 5.0

    def test_edge_shorter_than_chord_rejected(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(3, 4))
        with pytest.raises(ValueError):
            net.add_edge(0, 1, length=4.9)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf)])
    def test_non_finite_coordinates_rejected(self, x, y):
        net = RoadNetwork()
        with pytest.raises(ValueError, match="finite"):
            net.add_node(0, Point(x, y))
        assert not net.has_node(0)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_non_finite_length_rejected(self, length):
        """NaN passes both ``<= 0`` and ``< chord``; it must still fail."""
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        with pytest.raises(ValueError, match="finite"):
            net.add_edge(0, 1, length=length)
        assert net.edge_count == 0
        edge = net.add_edge(0, 1, length=1.5)
        with pytest.raises(ValueError, match="finite"):
            net.validate_edge_length(edge.edge_id, length)
        with pytest.raises(ValueError, match="finite"):
            net.update_edge_length(edge.edge_id, length)
        assert net.edge(edge.edge_id).length == 1.5

    def test_edge_longer_than_chord_allowed(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        edge = net.add_edge(0, 1, length=2.5)
        assert edge.length == 2.5

    def test_edge_to_missing_node_raises(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        with pytest.raises(KeyError):
            net.add_edge(0, 99)

    def test_self_loop_rejected(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        with pytest.raises(ValueError):
            net.add_edge(0, 0)

    def test_parallel_edges_allowed(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        net.add_edge(0, 1, length=1.0)
        net.add_edge(0, 1, length=1.5)
        assert net.edge_count == 2
        assert len(net.neighbors(0)) == 2

    def test_duplicate_edge_id_rejected(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        net.add_edge(0, 1, edge_id=7)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, edge_id=7)

    def test_polyline_geometry_sets_length(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(3, 4))
        bend = Polyline((Point(0, 0), Point(3, 0), Point(3, 4)))
        edge = net.add_edge(0, 1, geometry=bend)
        assert edge.length == 7.0

    def test_polyline_endpoint_mismatch_rejected(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(3, 4))
        wrong = Polyline((Point(0, 0), Point(1, 1)))
        with pytest.raises(ValueError):
            net.add_edge(0, 1, geometry=wrong)

    def test_degree_and_total_length(self, tiny_network):
        assert tiny_network.degree(1) == 3  # edges to 0, 2, 4
        assert tiny_network.total_length() == pytest.approx(3.5)

    def test_mbr(self, tiny_network):
        box = tiny_network.mbr()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 1, 0.5)


class TestLocations:
    def test_node_location(self, tiny_network):
        loc = tiny_network.location_at_node(4)
        assert loc.is_node
        assert loc.node_id == 4
        assert loc.point == Point(0.5, 0.5)

    def test_on_edge_location(self, tiny_network):
        edge = next(e for e in tiny_network.edges() if (e.u, e.v) == (0, 1))
        loc = tiny_network.location_on_edge(edge.edge_id, 0.2)
        assert not loc.is_node
        assert loc.offset == pytest.approx(0.2)
        assert loc.point == Point(0.2, 0.0)

    def test_zero_offset_degrades_to_node(self, tiny_network):
        edge = next(iter(tiny_network.edges()))
        loc = tiny_network.location_on_edge(edge.edge_id, 0.0)
        assert loc.node_id == edge.u

    def test_full_offset_degrades_to_node(self, tiny_network):
        edge = next(iter(tiny_network.edges()))
        loc = tiny_network.location_on_edge(edge.edge_id, edge.length)
        assert loc.node_id == edge.v

    def test_offset_out_of_range_raises(self, tiny_network):
        edge = next(iter(tiny_network.edges()))
        with pytest.raises(ValueError):
            tiny_network.location_on_edge(edge.edge_id, edge.length + 0.1)

    def test_location_requires_exactly_one_anchor(self):
        with pytest.raises(ValueError):
            NetworkLocation(point=Point(0, 0))
        with pytest.raises(ValueError):
            NetworkLocation(point=Point(0, 0), node_id=1, edge_id=2)

    def test_point_on_detour_edge_interpolates_by_fraction(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 0))
        edge = net.add_edge(0, 1, length=2.0)  # detour factor 2
        # Halfway along the 2.0-long road is halfway along the chord.
        assert net.point_on_edge(edge.edge_id, 1.0) == Point(0.5, 0)

    def test_seed_frontier_node(self, tiny_network):
        loc = tiny_network.location_at_node(2)
        assert tiny_network.seed_frontier(loc) == [(2, 0.0)]

    def test_seed_frontier_edge(self, tiny_network):
        edge = next(e for e in tiny_network.edges() if (e.u, e.v) == (0, 1))
        loc = tiny_network.location_on_edge(edge.edge_id, 0.2)
        seeds = dict(tiny_network.seed_frontier(loc))
        assert seeds[0] == pytest.approx(0.2)
        assert seeds[1] == pytest.approx(0.3)

    def test_direct_edge_distance_same_edge(self, tiny_network):
        edge = next(iter(tiny_network.edges()))
        a = tiny_network.location_on_edge(edge.edge_id, 0.1)
        b = tiny_network.location_on_edge(edge.edge_id, 0.4)
        assert tiny_network.direct_edge_distance(a, b) == pytest.approx(0.3)

    def test_direct_edge_distance_different_edges(self, tiny_network):
        edges = list(tiny_network.edges())
        a = tiny_network.location_on_edge(edges[0].edge_id, 0.1)
        b = tiny_network.location_on_edge(edges[1].edge_id, 0.1)
        assert tiny_network.direct_edge_distance(a, b) is None


class TestAnalysis:
    def test_connected_components_single(self, tiny_network):
        assert tiny_network.is_connected()
        assert len(tiny_network.connected_components()) == 1

    def test_connected_components_split(self):
        net = RoadNetwork()
        for i, (x, y) in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            net.add_node(i, Point(x, y))
        net.add_edge(0, 1)
        net.add_edge(2, 3)
        components = net.connected_components()
        assert sorted(sorted(c) for c in components) == [[0, 1], [2, 3]]
        assert not net.is_connected()

    def test_validate_passes_on_random_network(self):
        net = build_random_network(50, 30, seed=5, detour_max=0.5)
        check_network(net)

    def test_edge_mbr(self, tiny_network):
        edge = next(e for e in tiny_network.edges() if (e.u, e.v) == (2, 5))
        box = tiny_network.edge_mbr(edge.edge_id)
        assert box.min_x == box.max_x == 1.0
        assert (box.min_y, box.max_y) == (0.0, 0.5)
