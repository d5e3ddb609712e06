"""Tests for the multi-source BBS Euclidean skyline over the R-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import MBR, Point
from repro.index import RTree
from repro.network.graph import NetworkLocation
from repro.network.objects import SpatialObject
from repro.skyline import (
    dominates,
    dominates_lower_bounds,
    euclidean_skyline,
    euclidean_vector,
    incremental_euclidean_skyline,
    mbr_lower_bound_vector,
    skyline_of,
)

coordinate = st.floats(min_value=0, max_value=10, allow_nan=False)
point_strategy = st.builds(Point, coordinate, coordinate)


def as_objects(points, attributes=None):
    objs = []
    for i, p in enumerate(points):
        attrs = (attributes[i],) if attributes is not None else ()
        objs.append(
            SpatialObject(i, NetworkLocation(point=p, node_id=i), attrs)
        )
    return objs


def build_rtree(objs, max_entries=5):
    tree = RTree(max_entries=max_entries)
    for obj in objs:
        tree.insert_point(obj.point, obj)
    return tree


class TestVectors:
    def test_euclidean_vector(self):
        v = euclidean_vector(Point(0, 0), [Point(3, 4), Point(0, 1)], (7.5,))
        assert v == (5.0, 1.0, 7.5)

    def test_mbr_lower_bound_vector(self):
        r = MBR(0, 0, 1, 1)
        v = mbr_lower_bound_vector(r, [Point(3, 0.5)], attribute_count=2)
        assert v == (2.0, 0.0, 0.0)

    def test_mbr_vector_zero_inside(self):
        r = MBR(0, 0, 2, 2)
        assert mbr_lower_bound_vector(r, [Point(1, 1)]) == (0.0,)


class TestEuclideanSkyline:
    def test_empty_tree(self):
        tree = RTree()
        assert euclidean_skyline(tree, [Point(0, 0)]) == []

    def test_single_query_point_returns_nn_only(self):
        rng = random.Random(0)
        points = [Point(rng.random(), rng.random()) for _ in range(50)]
        objs = as_objects(points)
        tree = build_rtree(objs)
        q = Point(0.5, 0.5)
        sky = euclidean_skyline(tree, [q])
        # With one dimension the skyline is exactly the minimum(s).
        best = min(p.distance_to(q) for p in points)
        assert all(vec[0] == pytest.approx(best) for _, vec in sky)

    def test_matches_brute_force(self):
        rng = random.Random(1)
        points = [Point(rng.random(), rng.random()) for _ in range(120)]
        queries = [Point(0.1, 0.2), Point(0.9, 0.3), Point(0.4, 0.9)]
        objs = as_objects(points)
        tree = build_rtree(objs)
        got = sorted(o.object_id for o, _ in euclidean_skyline(tree, queries))
        vecs = [euclidean_vector(p, queries) for p in points]
        assert got == sorted(skyline_of(vecs))

    def test_streams_in_aggregate_order(self):
        rng = random.Random(2)
        points = [Point(rng.random(), rng.random()) for _ in range(80)]
        queries = [Point(0.2, 0.8), Point(0.7, 0.1)]
        tree = build_rtree(as_objects(points))
        sums = [sum(v) for _, v in incremental_euclidean_skyline(tree, queries)]
        assert sums == sorted(sums)

    def test_with_static_attributes(self):
        rng = random.Random(3)
        points = [Point(rng.random(), rng.random()) for _ in range(60)]
        prices = [rng.random() * 100 for _ in range(60)]
        objs = as_objects(points, prices)
        tree = build_rtree(objs)
        queries = [Point(0.5, 0.5)]
        got = sorted(
            o.object_id
            for o, _ in euclidean_skyline(tree, queries, attribute_count=1)
        )
        vecs = [
            euclidean_vector(p, queries, (price,))
            for p, price in zip(points, prices)
        ]
        assert got == sorted(skyline_of(vecs))

    def test_extra_prune_excludes_region(self):
        points = [Point(0.1, 0.1), Point(0.9, 0.9)]
        tree = build_rtree(as_objects(points))
        queries = [Point(0.0, 0.0)]
        everything = list(incremental_euclidean_skyline(tree, queries))
        pruned = list(
            incremental_euclidean_skyline(
                tree, queries, extra_prune=lambda vec: True
            )
        )
        assert everything != []
        assert pruned == []

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(point_strategy, min_size=1, max_size=60),
        st.lists(point_strategy, min_size=1, max_size=3),
    )
    def test_property_matches_brute_force(self, points, queries):
        tree = build_rtree(as_objects(points))
        got = sorted(o.object_id for o, _ in euclidean_skyline(tree, queries))
        vecs = [euclidean_vector(p, queries) for p in points]
        assert got == sorted(skyline_of(vecs))


def scalar_bbs(tree, queries, attribute_count=0):
    """BBS pruned by scalar dominance over a list of tuples: the
    reference the columnar prune must reproduce, order included."""
    confirmed = []

    def entry_vector(mbr, payload):
        if payload is not None:
            return euclidean_vector(payload.point, queries, payload.attributes)
        return mbr_lower_bound_vector(mbr, queries, attribute_count)

    def prune(mbr, payload):
        vector = entry_vector(mbr, payload)
        if payload is not None:
            return any(dominates(s, vector) for s in confirmed)
        return any(dominates_lower_bounds(s, vector) for s in confirmed)

    out = []
    for _, _, obj in tree.best_first(lambda m, p: sum(entry_vector(m, p)), prune):
        vector = euclidean_vector(obj.point, queries, obj.attributes)
        confirmed.append(vector)
        out.append((obj, vector))
    return out


# Coordinates on a coarse grid so points (and whole vectors) repeat.
grid_point = st.builds(
    Point,
    st.integers(0, 6).map(lambda v: v / 4),
    st.integers(0, 6).map(lambda v: v / 4),
)


class TestColumnarPrune:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(grid_point, min_size=1, max_size=50),
        st.lists(grid_point, min_size=1, max_size=3),
        st.lists(st.integers(0, 3).map(float), min_size=50, max_size=50),
        st.booleans(),
    )
    def test_equals_scalar_reference_in_order(
        self, points, queries, prices, with_attributes
    ):
        attributes = prices[: len(points)] if with_attributes else None
        objs = as_objects(points, attributes)
        tree = build_rtree(objs, max_entries=4)
        attribute_count = 1 if with_attributes else 0
        got = euclidean_skyline(tree, queries, attribute_count=attribute_count)
        assert got == scalar_bbs(tree, queries, attribute_count)
        vecs = [
            euclidean_vector(o.point, queries, o.attributes) for o in objs
        ]
        assert sorted(o.object_id for o, _ in got) == sorted(skyline_of(vecs))

    def test_duplicate_points_all_survive(self):
        objs = as_objects([Point(0.5, 0.5)] * 3 + [Point(0.9, 0.9)])
        tree = build_rtree(objs)
        got = euclidean_skyline(tree, [Point(0, 0), Point(1, 0)])
        assert sorted(o.object_id for o, _ in got) == [0, 1, 2]

    @pytest.mark.parametrize("carried, declared", [(1, 0), (0, 1)])
    def test_width_mismatch_raises(self, carried, declared):
        points = [Point(0.1 * i, 0.3) for i in range(8)]
        attributes = [float(i) for i in range(8)] if carried else None
        tree = build_rtree(as_objects(points, attributes))
        with pytest.raises(ValueError):
            euclidean_skyline(tree, [Point(0, 0)], attribute_count=declared)
