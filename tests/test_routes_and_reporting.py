"""Tests for route retrieval and figure table rendering."""

import pytest

from repro.bench.figures import FigureSeries, format_series, winner_summary
from repro.geometry import Point
from repro.network import RoadNetwork, network_distance, route_to

from conftest import random_locations


class TestRouteTo:
    def test_route_endpoints(self, medium_network):
        a = medium_network.location_at_node(0)
        b = medium_network.location_at_node(30)
        distance, route = route_to(medium_network, a, b)
        assert route[0] == a
        assert route[-1].node_id == 30
        assert distance == pytest.approx(network_distance(medium_network, a, b))

    def test_route_length_matches_distance(self, medium_network):
        """Summing the legs along the route reproduces the distance."""
        a = medium_network.location_at_node(5)
        b = medium_network.location_at_node(40)
        distance, route = route_to(medium_network, a, b)
        total = 0.0
        for u, v in zip(route, route[1:]):
            total += network_distance(medium_network, u, v)
        assert total == pytest.approx(distance)

    def test_consecutive_route_nodes_adjacent(self, medium_network):
        a = medium_network.location_at_node(2)
        b = medium_network.location_at_node(33)
        _, route = route_to(medium_network, a, b)
        junctions = [loc.node_id for loc in route if loc.node_id is not None]
        for u, v in zip(junctions, junctions[1:]):
            assert any(nbr == v for nbr, _ in medium_network.neighbors(u))

    def test_on_edge_destination(self, medium_network):
        a = medium_network.location_at_node(0)
        b = random_locations(medium_network, 1, seed=500)[0]
        distance, route = route_to(medium_network, a, b)
        assert route[-1] == b
        assert distance == pytest.approx(network_distance(medium_network, a, b))

    def test_same_edge_shortcut_route(self, tiny_network):
        edge = next(iter(tiny_network.edges()))
        a = tiny_network.location_on_edge(edge.edge_id, 0.1)
        b = tiny_network.location_on_edge(edge.edge_id, 0.4)
        distance, route = route_to(tiny_network, a, b)
        assert distance == pytest.approx(0.3)
        assert route == [a, b]

    def test_unreachable_raises(self):
        net = RoadNetwork()
        net.add_node(0, Point(0, 0))
        net.add_node(1, Point(1, 1))
        with pytest.raises(ValueError):
            route_to(net, net.location_at_node(0), net.location_at_node(1))

    def test_route_to_self(self, medium_network):
        a = medium_network.location_at_node(7)
        distance, route = route_to(medium_network, a, a)
        assert distance == 0.0
        assert route[0] == a


class TestCSVExport:
    """Figure table rendering."""

    def _series(self):
        return FigureSeries(
            figure="Fig5a",
            title="pages vs density",
            x_label="network",
            y_label="pages",
            x_values=["CA", "NA"],
            series={"CE": [4.5, 131.0], "LBC": [4.0, 30.0]},
        )

    def test_format_series_includes_values(self):
        text = format_series(self._series())
        assert "131" in text
        assert "CA" in text

    def test_winner_summary_counts_minima(self):
        assert winner_summary(self._series()) == {"CE": 0, "LBC": 2}
