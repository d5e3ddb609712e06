"""Tests for the workload generators, presets and query selection."""

import math

import pytest

from repro.datasets import (
    AU,
    CA,
    NA,
    OMEGA_LEVELS,
    PRESETS,
    AttributeSpec,
    build_preset,
    delaunay_road_network,
    extract_n_objects,
    extract_objects,
    network_density,
    select_query_points,
    select_query_points_on_edges,
)

from conftest import grid_network
from invariants import check_network
from network_measures import estimate_delta


class TestGridNetwork:
    def test_counts(self):
        net = grid_network(4, 5)
        assert net.node_count == 20
        assert net.edge_count == 4 * 4 + 3 * 5  # horizontal + vertical
        check_network(net)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            grid_network(1, 5)

    def test_detour_scales_lengths(self):
        plain = grid_network(3, 3)
        stretched = grid_network(3, 3, detour=1.5)
        assert stretched.total_length() == pytest.approx(
            plain.total_length() * 1.5
        )

    def test_detour_below_one_rejected(self):
        with pytest.raises(ValueError):
            grid_network(3, 3, detour=0.9)

    def test_jitter_moves_nodes(self):
        straight = grid_network(4, 4, seed=0)
        jittered = grid_network(4, 4, jitter=0.3, seed=0)
        moved = sum(
            1
            for v in straight.node_ids()
            if straight.node_point(v) != jittered.node_point(v)
        )
        assert moved > 0
        check_network(jittered)


class TestDelaunayNetwork:
    def test_basic_construction(self):
        net = delaunay_road_network(200, edge_node_ratio=1.25, seed=3)
        assert net.node_count == 200
        assert net.edge_count == pytest.approx(250, abs=2)
        assert net.is_connected()
        check_network(net)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            delaunay_road_network(2)
        with pytest.raises(ValueError):
            delaunay_road_network(100, edge_node_ratio=0.5)
        with pytest.raises(ValueError):
            delaunay_road_network(100, detour_jitter=(0.5, 1.0))
        with pytest.raises(ValueError):
            delaunay_road_network(100, short_extra_share=1.5)

    def test_deterministic_per_seed(self):
        a = delaunay_road_network(100, seed=9)
        b = delaunay_road_network(100, seed=9)
        assert sorted(a.node_ids()) == sorted(b.node_ids())
        assert a.total_length() == pytest.approx(b.total_length())
        c = delaunay_road_network(100, seed=10)
        assert a.total_length() != pytest.approx(c.total_length())

    def test_patches_still_connected(self):
        net = delaunay_road_network(300, seed=4, patches=3)
        assert net.is_connected()

    def test_short_share_raises_delta(self):
        local = delaunay_road_network(
            500, seed=6, short_extra_share=1.0, edge_node_ratio=1.3
        )
        mixed = delaunay_road_network(
            500, seed=6, short_extra_share=0.0, edge_node_ratio=1.3
        )
        assert estimate_delta(local, sources=4, targets_per_source=30) > (
            estimate_delta(mixed, sources=4, targets_per_source=30)
        )

    def test_network_density(self):
        net = delaunay_road_network(150, seed=7)
        assert network_density(net) == pytest.approx(net.total_length())


class TestPresets:
    def test_all_presets_build_and_connect(self):
        for name in PRESETS:
            net = build_preset(name, scale=0.02)
            assert net.is_connected()
            check_network(net)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            build_preset("XX")

    def test_case_insensitive(self):
        assert build_preset("ca", scale=0.02).node_count == build_preset(
            "CA", scale=0.02
        ).node_count

    def test_edge_node_ratio_matches_paper(self):
        assert CA.edge_node_ratio == pytest.approx(3607 / 3044)
        assert AU.edge_node_ratio == pytest.approx(30289 / 23269)
        assert NA.edge_node_ratio == pytest.approx(103042 / 86318)

    def test_scale_controls_size(self):
        small = build_preset("AU", scale=0.01)
        large = build_preset("AU", scale=0.05)
        assert large.node_count > small.node_count

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            build_preset("CA", scale=0)

    def test_density_ordering(self):
        densities = [
            network_density(build_preset(name, scale=0.05))
            for name in ("CA", "AU", "NA")
        ]
        assert densities == sorted(densities)

    def test_delta_ordering(self):
        """δ must fall as density rises (Section 6.3's driver)."""
        deltas = [
            estimate_delta(
                build_preset(name, scale=0.05), sources=4, targets_per_source=30
            )
            for name in ("CA", "AU", "NA")
        ]
        assert deltas[0] > deltas[1] > deltas[2]


class TestObjectExtraction:
    def test_omega_sets_count(self):
        net = grid_network(10, 10, seed=1)
        objects = extract_objects(net, omega=0.5, seed=2)
        assert len(objects) == round(0.5 * net.edge_count)

    def test_omega_levels_constant(self):
        assert OMEGA_LEVELS == (0.05, 0.20, 0.50, 1.00, 2.00)

    def test_bad_omega_rejected(self):
        net = grid_network(3, 3)
        with pytest.raises(ValueError):
            extract_objects(net, omega=0)

    def test_objects_live_on_edges(self):
        net = grid_network(6, 6, seed=3)
        objects = extract_objects(net, omega=1.0, seed=4)
        for obj in objects:
            assert obj.location.edge_id is not None
            edge = net.edge(obj.location.edge_id)
            assert 0 < obj.location.offset < edge.length

    def test_exact_count_extraction(self):
        net = grid_network(5, 5, seed=5)
        assert len(extract_n_objects(net, 17, seed=6)) == 17

    def test_extraction_deterministic(self):
        net = grid_network(5, 5, seed=5)
        a = extract_n_objects(net, 10, seed=7)
        b = extract_n_objects(net, 10, seed=7)
        assert [o.location.edge_id for o in a] == [o.location.edge_id for o in b]

    def test_attribute_specs(self):
        net = grid_network(5, 5, seed=5)
        spec = AttributeSpec.uniform("price", 50, 100)
        objects = extract_n_objects(net, 20, seed=8, attributes=[spec])
        for obj in objects:
            assert len(obj.attributes) == 1
            assert 50 <= obj.attributes[0] <= 100

    def test_negative_attribute_spec_rejected(self):
        with pytest.raises(ValueError):
            AttributeSpec.uniform("bad", -1, 5)


class TestQuerySelection:
    def test_count_and_membership(self):
        net = grid_network(12, 12, seed=9)
        queries = select_query_points(net, 5, seed=10)
        assert len(queries) == 5
        assert len({q.node_id for q in queries}) == 5
        for q in queries:
            assert net.has_node(q.node_id)

    def test_queries_within_small_region(self):
        net = grid_network(20, 20, seed=11)
        queries = select_query_points(net, 4, region_fraction=0.05, seed=12)
        xs = [q.point.x for q in queries]
        ys = [q.point.y for q in queries]
        # Window side is sqrt(0.05) of the bounding side.
        side = math.sqrt(0.05) * 1.0
        assert max(xs) - min(xs) <= side + 1e-9
        assert max(ys) - min(ys) <= side + 1e-9

    def test_window_grows_when_needed(self):
        net = grid_network(3, 3, seed=13)  # 9 nodes only
        queries = select_query_points(net, 8, region_fraction=0.01, seed=14)
        assert len(queries) == 8

    def test_too_many_queries_rejected(self):
        net = grid_network(2, 2)
        with pytest.raises(ValueError):
            select_query_points(net, 10, seed=15)

    def test_bad_parameters(self):
        net = grid_network(3, 3)
        with pytest.raises(ValueError):
            select_query_points(net, 0)
        with pytest.raises(ValueError):
            select_query_points(net, 2, region_fraction=0)

    def test_deterministic(self):
        net = grid_network(10, 10, seed=16)
        a = select_query_points(net, 4, seed=17)
        b = select_query_points(net, 4, seed=17)
        assert [q.node_id for q in a] == [q.node_id for q in b]

    def test_on_edge_variant(self):
        net = grid_network(10, 10, seed=18)
        queries = select_query_points_on_edges(net, 4, seed=19)
        assert len(queries) == 4
        assert any(q.edge_id is not None for q in queries)
