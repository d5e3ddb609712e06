"""Tests for BNL and the block SFS against the scalar references."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.store import CandidateBlock
from repro.skyline import bnl_skyline

from conftest import block_skyline_rows
from reference_dominance import sfs_skyline_progressive, skyline_of_scalar

dims = st.shared(st.integers(min_value=1, max_value=4), key="d")
values = st.floats(min_value=0, max_value=10, allow_nan=False)
vectors = dims.flatmap(lambda d: st.tuples(*([values] * d)))
vector_lists = st.lists(vectors, max_size=60)


class TestBNL:
    def test_empty(self):
        assert bnl_skyline([]) == []

    def test_single(self):
        assert bnl_skyline([(1, 2)]) == [0]

    def test_matches_reference(self):
        rng = random.Random(0)
        vs = [(rng.random(), rng.random()) for _ in range(100)]
        assert bnl_skyline(vs) == skyline_of_scalar(vs)

    def test_duplicates_survive(self):
        vs = [(1.0, 1.0), (1.0, 1.0), (0.5, 2.0), (2.0, 2.0)]
        assert bnl_skyline(vs) == [0, 1, 2]


class TestSFS:
    def test_empty(self):
        assert CandidateBlock(2).skyline() == []
        assert list(sfs_skyline_progressive([])) == []

    def test_matches_reference(self):
        rng = random.Random(1)
        vs = [(rng.random(), rng.random(), rng.random()) for _ in range(120)]
        assert sorted(block_skyline_rows(vs)) == skyline_of_scalar(vs)

    def test_progressive_yields_in_score_order(self):
        vs = [(3.0, 3.0), (1.0, 1.0), (0.5, 4.0)]
        order = list(sfs_skyline_progressive(vs))
        scores = [sum(vs[i]) for i in order]
        assert scores == sorted(scores)

    def test_custom_monotone_score(self):
        vs = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]
        got = list(sfs_skyline_progressive(vs, score=lambda v: max(v)))
        assert sorted(got) == skyline_of_scalar(vs)

    @settings(max_examples=60, deadline=None)
    @given(vector_lists)
    def test_property_matches_reference(self, vs):
        assert sorted(block_skyline_rows(vs)) == skyline_of_scalar(vs)

    @settings(max_examples=40, deadline=None)
    @given(vector_lists)
    def test_all_three_agree(self, vs):
        reference = skyline_of_scalar(vs)
        assert bnl_skyline(vs) == reference
        assert sorted(block_skyline_rows(vs)) == reference
