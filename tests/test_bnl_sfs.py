"""Tests for the BNL and SFS Euclidean skyline baselines."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.store import VectorTable
from repro.skyline import (
    bnl_skyline,
    bnl_skyline_items,
    sfs_skyline_block,
    sfs_skyline_progressive,
    skyline_of,
)

dims = st.shared(st.integers(min_value=1, max_value=4), key="d")
values = st.floats(min_value=0, max_value=10, allow_nan=False)
vectors = dims.flatmap(lambda d: st.tuples(*([values] * d)))
vector_lists = st.lists(vectors, max_size=60)


def block_sfs(vectors):
    """Block SFS over a vector list (an empty list has no width)."""
    if not vectors:
        return []
    return sfs_skyline_block(VectorTable.from_vectors(vectors))


class TestBNL:
    def test_empty(self):
        assert bnl_skyline([]) == []

    def test_single(self):
        assert bnl_skyline([(1, 2)]) == [0]

    def test_matches_reference(self):
        rng = random.Random(0)
        vs = [(rng.random(), rng.random()) for _ in range(100)]
        assert bnl_skyline(vs) == sorted(skyline_of(vs))

    def test_duplicates_survive(self):
        vs = [(1.0, 1.0), (1.0, 1.0), (0.5, 2.0), (2.0, 2.0)]
        assert bnl_skyline(vs) == [0, 1, 2]

    def test_items_wrapper(self):
        items = ["cheap-far", "pricey-near", "pricey-far"]
        table = {
            "cheap-far": (1.0, 9.0),
            "pricey-near": (9.0, 1.0),
            "pricey-far": (9.0, 9.0),
        }
        winners = bnl_skyline_items(items, key=lambda name: table[name])
        assert winners == ["cheap-far", "pricey-near"]


class TestSFS:
    def test_empty(self):
        assert sfs_skyline_block(VectorTable(2)) == []
        assert list(sfs_skyline_progressive([])) == []

    def test_matches_reference(self):
        rng = random.Random(1)
        vs = [(rng.random(), rng.random(), rng.random()) for _ in range(120)]
        assert sorted(block_sfs(vs)) == sorted(skyline_of(vs))

    def test_progressive_yields_in_score_order(self):
        vs = [(3.0, 3.0), (1.0, 1.0), (0.5, 4.0)]
        order = list(sfs_skyline_progressive(vs))
        scores = [sum(vs[i]) for i in order]
        assert scores == sorted(scores)

    def test_custom_monotone_score(self):
        vs = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]
        got = list(sfs_skyline_progressive(vs, score=lambda v: max(v)))
        assert sorted(got) == sorted(skyline_of(vs))

    @settings(max_examples=60, deadline=None)
    @given(vector_lists)
    def test_property_matches_reference(self, vs):
        assert sorted(block_sfs(vs)) == sorted(skyline_of(vs))

    @settings(max_examples=40, deadline=None)
    @given(vector_lists)
    def test_all_three_agree(self, vs):
        reference = sorted(skyline_of(vs))
        assert bnl_skyline(vs) == reference
        assert sorted(block_sfs(vs)) == reference
