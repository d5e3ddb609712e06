"""Unit and property tests for the R-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import MBR, Point
from repro.index import RTree
from repro.storage import NodePager

from invariants import check_rtree, rtree_entries

coordinate = st.floats(min_value=0, max_value=100, allow_nan=False)
point_strategy = st.builds(Point, coordinate, coordinate)


def build_tree(points, max_entries=6, bulk=False, pager=None):
    entries = [(MBR.from_point(p), i) for i, p in enumerate(points)]
    if bulk:
        return RTree.bulk_load(entries, max_entries=max_entries, pager=pager)
    tree = RTree(max_entries=max_entries, pager=pager)
    for mbr, payload in entries:
        tree.insert(mbr, payload)
    return tree


class TestRTreeConstruction:
    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert list(tree.traverse(lambda mbr, payload: True)) == []
        assert list(tree.nearest(Point(0, 0))) == []

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=1)
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)

    def test_insert_grows_and_validates(self):
        rng = random.Random(0)
        points = [Point(rng.random(), rng.random()) for _ in range(300)]
        tree = build_tree(points, max_entries=5)
        assert len(tree) == 300
        check_rtree(tree)

    def test_bulk_load_validates(self):
        rng = random.Random(1)
        points = [Point(rng.random(), rng.random()) for _ in range(300)]
        tree = build_tree(points, max_entries=8, bulk=True)
        assert len(tree) == 300
        check_rtree(tree)

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 9, 17, 33, 100])
    def test_bulk_load_odd_sizes(self, count):
        rng = random.Random(count)
        points = [Point(rng.random(), rng.random()) for _ in range(count)]
        tree = build_tree(points, max_entries=8, bulk=True)
        check_rtree(tree)
        assert len(rtree_entries(tree)) == count


def window(tree, region):
    """A window query as EDC runs one: a traversal pruned to ``region``."""
    return list(tree.traverse(lambda mbr, payload: mbr.intersects(region)))


class TestWindowSearch:
    def test_matches_brute_force(self):
        rng = random.Random(2)
        points = [Point(rng.random() * 10, rng.random() * 10) for _ in range(400)]
        tree = build_tree(points, max_entries=6)
        region = MBR(2, 3, 6, 8)
        got = sorted(i for _, i in window(tree, region))
        expected = sorted(
            i for i, p in enumerate(points) if region.contains_point(p)
        )
        assert got == expected

    def test_boundary_points_included(self):
        tree = build_tree([Point(1, 1)])
        assert window(tree, MBR(1, 1, 2, 2)) != []

    def test_disjoint_window_empty(self):
        tree = build_tree([Point(1, 1), Point(2, 2)])
        assert window(tree, MBR(10, 10, 11, 11)) == []


class TestNearest:
    def test_streams_in_distance_order(self):
        rng = random.Random(3)
        points = [Point(rng.random(), rng.random()) for _ in range(250)]
        tree = build_tree(points, max_entries=5)
        q = Point(0.4, 0.6)
        got = [payload for _, _, payload in tree.nearest(q)]
        expected = sorted(range(len(points)), key=lambda i: points[i].distance_to(q))
        assert got == expected

    def test_incremental_consumption(self):
        points = [Point(i, 0) for i in range(10)]
        tree = build_tree(points)
        stream = tree.nearest(Point(0, 0))
        first = next(stream)
        assert first[2] == 0
        second = next(stream)
        assert second[2] == 1

    def test_prune_skips_subtrees(self):
        points = [Point(i * 0.1, 0) for i in range(50)]
        tree = build_tree(points, max_entries=4)
        q = Point(0, 0)
        kept = [
            payload
            for _, _, payload in tree.nearest(
                q, prune=lambda mbr, payload: mbr.mindist(q) > 1.0
            )
        ]
        assert kept == list(range(11))  # points at 0.0 .. 1.0


class TestTraverse:
    def test_traverse_with_permissive_predicate_sees_all(self):
        points = [Point(i, i) for i in range(40)]
        tree = build_tree(points, max_entries=4)
        got = sorted(p for _, p in tree.traverse(lambda mbr, payload: True))
        assert got == list(range(40))

    def test_traverse_prunes_internal_entries(self):
        points = [Point(i, 0) for i in range(40)]
        tree = build_tree(points, max_entries=4)
        region = MBR(0, 0, 5, 0)
        got = sorted(
            p
            for _, p in tree.traverse(
                lambda mbr, payload: mbr.intersects(region)
            )
        )
        assert got == list(range(6))


class TestPagedRTree:
    def test_traversals_charge_pages(self):
        rng = random.Random(6)
        points = [Point(rng.random(), rng.random()) for _ in range(500)]
        pager = NodePager()
        tree = build_tree(points, max_entries=8, bulk=True, pager=pager)
        pager.pool.reset_stats()
        window(tree, MBR(0.4, 0.4, 0.6, 0.6))
        assert pager.stats.logical_reads > 0

    def test_window_search_cheaper_than_full_scan(self):
        rng = random.Random(7)
        points = [Point(rng.random(), rng.random()) for _ in range(800)]
        pager = NodePager()
        tree = build_tree(points, max_entries=8, bulk=True, pager=pager)
        pager.pool.reset_stats()
        window(tree, MBR(0.45, 0.45, 0.55, 0.55))
        window_cost = pager.stats.logical_reads
        pager.pool.reset_stats()
        list(tree.traverse(lambda mbr, payload: True))
        scan_cost = pager.stats.logical_reads
        assert window_cost < scan_cost


class TestRTreeProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(point_strategy, min_size=0, max_size=120),
        st.booleans(),
    )
    def test_structure_and_full_scan(self, points, bulk):
        if bulk and not points:
            return
        tree = build_tree(points, max_entries=5, bulk=bulk)
        check_rtree(tree)
        assert sorted(p for _, p in rtree_entries(tree)) == list(range(len(points)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(point_strategy, min_size=1, max_size=80),
        point_strategy,
    )
    def test_nearest_matches_brute_force(self, points, q):
        tree = build_tree(points, max_entries=5)
        got = [(round(d, 9), p) for d, _, p in tree.nearest(q)]
        expected = sorted(
            (round(points[i].distance_to(q), 9), i) for i in range(len(points))
        )
        assert [g[0] for g in got] == [e[0] for e in expected]
