"""Tests for the network/object text file format."""

import pytest

from repro.datasets import (
    NetworkFormatError,
    load_network,
    load_objects,
    save_network,
    save_objects,
)
from repro.geometry import Point, Polyline
from repro.network import ObjectSet, RoadNetwork, SpatialObject

from conftest import build_random_network, place_random_objects
from invariants import check_network


class TestNetworkRoundTrip:
    def test_round_trip_preserves_structure(self, tmp_path):
        original = build_random_network(40, 25, seed=401, detour_max=0.5)
        path = tmp_path / "net.net"
        save_network(original, path)
        loaded = load_network(path)
        assert loaded.node_count == original.node_count
        assert loaded.edge_count == original.edge_count
        for node_id in original.node_ids():
            assert loaded.node_point(node_id) == original.node_point(node_id)
        for edge_id in original.edge_ids():
            a, b = original.edge(edge_id), loaded.edge(edge_id)
            assert (a.u, a.v) == (b.u, b.v)
            assert a.length == b.length
        check_network(loaded)

    def test_round_trip_distances_identical(self, tmp_path):
        from repro.network import DijkstraExpander

        original = build_random_network(30, 15, seed=402)
        path = tmp_path / "net.net"
        save_network(original, path)
        loaded = load_network(path)
        a = original.location_at_node(0)
        b = original.location_at_node(17)
        a2 = loaded.location_at_node(0)
        b2 = loaded.location_at_node(17)
        assert DijkstraExpander(original, a).distance_to(b) == pytest.approx(
            DijkstraExpander(loaded, a2).distance_to(b2)
        )

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "net.net"
        path.write_text(
            "# a comment\n"
            "\n"
            "node 0 0.0 0.0  # trailing comment\n"
            "node 1 1.0 0.0\n"
            "edge 0 0 1 1.0\n"
        )
        net = load_network(path)
        assert net.node_count == 2
        assert net.edge_count == 1

    def test_unknown_record_rejected_with_line(self, tmp_path):
        path = tmp_path / "net.net"
        path.write_text("node 0 0.0 0.0\nvertex 1 1.0 1.0\n")
        with pytest.raises(NetworkFormatError) as err:
            load_network(path)
        assert err.value.line_number == 2

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "net.net"
        path.write_text("node 0 0.0\n")
        with pytest.raises(NetworkFormatError):
            load_network(path)

    def test_edge_to_missing_node_rejected(self, tmp_path):
        path = tmp_path / "net.net"
        path.write_text("node 0 0.0 0.0\nedge 0 0 9 1.0\n")
        with pytest.raises(NetworkFormatError):
            load_network(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("node 0 0.0 0.0\nnode 1 nan 0.0\n", 2),
            ("node 0 0.0 0.0\nnode 1 1.0 0.0\nedge 0 0 1 nan\n", 3),
            ("node 0 0.0 0.0\nnode 1 1.0 0.0\nedge 0 0 1 inf\n", 3),
        ],
        ids=["node-nan", "edge-nan", "edge-inf"],
    )
    def test_non_finite_values_rejected_with_line(self, tmp_path, text, line):
        path = tmp_path / "net.net"
        path.write_text(text)
        with pytest.raises(NetworkFormatError, match="finite") as err:
            load_network(path)
        assert err.value.line_number == line
        assert f"net.net:{line}:" in str(err.value)

    def test_polyline_edge_refused_before_writing(self, tmp_path):
        """The format has no polyline record: a bent edge would come back
        straight, moving every on-edge point."""
        net = RoadNetwork()
        net.add_node(0, Point(0.0, 0.0))
        net.add_node(1, Point(1.0, 0.0))
        net.add_edge(0, 1, length=1.0)
        bent = Polyline((Point(0.0, 0.0), Point(0.5, 0.5), Point(1.0, 0.0)))
        net.add_edge(0, 1, geometry=bent)
        path = tmp_path / "net.net"
        with pytest.raises(ValueError, match="edge 1 carries polyline"):
            save_network(net, path)
        assert not path.exists()

    def test_short_edge_rejected(self, tmp_path):
        path = tmp_path / "net.net"
        path.write_text(
            "node 0 0.0 0.0\nnode 1 1.0 0.0\nedge 0 0 1 0.5\n"
        )
        with pytest.raises(NetworkFormatError):
            load_network(path)


class TestObjectRoundTrip:
    def test_round_trip(self, tmp_path):
        network = build_random_network(30, 20, seed=403)
        objects = place_random_objects(network, 25, seed=404, attribute_count=2)
        net_path = tmp_path / "n.net"
        obj_path = tmp_path / "o.obj"
        save_network(network, net_path)
        save_objects(objects, obj_path)
        loaded_net = load_network(net_path)
        loaded = load_objects(loaded_net, obj_path)
        assert len(loaded) == len(objects)
        for obj in objects:
            twin = loaded.get(obj.object_id)
            assert twin.location.edge_id == obj.location.edge_id
            assert twin.location.offset == pytest.approx(obj.location.offset)
            assert twin.attributes == obj.attributes

    def test_skyline_answers_survive_round_trip(self, tmp_path):
        from repro.core import LBC, Workspace

        network = build_random_network(40, 25, seed=405)
        objects = place_random_objects(network, 20, seed=406)
        queries = [network.location_at_node(3), network.location_at_node(30)]
        original = LBC().run(Workspace.build(network, objects, paged=False), queries)

        save_network(network, tmp_path / "n.net")
        save_objects(objects, tmp_path / "o.obj")
        loaded_net = load_network(tmp_path / "n.net")
        loaded_objects = load_objects(loaded_net, tmp_path / "o.obj")
        loaded_queries = [
            loaded_net.location_at_node(3),
            loaded_net.location_at_node(30),
        ]
        reloaded = LBC().run(
            Workspace.build(loaded_net, loaded_objects, paged=False), loaded_queries
        )
        assert reloaded.same_answer(original)

    def test_node_resident_object_serialises_via_edge(self, tmp_path):
        network = build_random_network(20, 10, seed=407)
        node_id = next(
            v for v in network.node_ids() if network.degree(v) > 0
        )
        objects = ObjectSet.build(
            network,
            [SpatialObject(0, network.location_at_node(node_id))],
        )
        save_objects(objects, tmp_path / "o.obj")
        loaded = load_objects(network, tmp_path / "o.obj")
        assert loaded.get(0).point == objects.get(0).point

    def test_bad_object_record_rejected(self, tmp_path):
        network = build_random_network(10, 5, seed=408)
        path = tmp_path / "o.obj"
        path.write_text("object 0 99999 0.5\n")
        with pytest.raises(NetworkFormatError):
            load_objects(network, path)

    def test_negative_offset_rejected(self, tmp_path):
        network = build_random_network(10, 5, seed=409)
        path = tmp_path / "o.obj"
        path.write_text("object 0 0 -0.5\n")
        with pytest.raises(NetworkFormatError):
            load_objects(network, path)

