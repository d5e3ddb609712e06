"""Unit and property tests for the dominance relation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.skyline import dominates

from conftest import block_skyline_rows
from reference_dominance import (
    dominates_lower_bounds,
    dominates_or_equal,
    is_dominated_by_any,
)

dims = st.shared(st.integers(min_value=1, max_value=5), key="dims")
values = st.floats(min_value=0, max_value=100, allow_nan=False)
vectors = dims.flatmap(lambda d: st.tuples(*([values] * d)))


class TestDominates:
    def test_strict_dominance(self):
        assert dominates((1, 2), (2, 3))

    def test_partial_tie_still_dominates(self):
        assert dominates((1, 2), (1, 3))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 2), (1, 2))

    def test_incomparable_vectors(self):
        assert not dominates((1, 3), (2, 2))
        assert not dominates((2, 2), (1, 3))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))

    def test_with_infinities(self):
        assert dominates((1.0, 2.0), (math.inf, 2.0))
        assert not dominates((math.inf, 1.0), (math.inf, 1.0))
        assert dominates((math.inf, 1.0), (math.inf, 2.0))

    def test_dominates_or_equal(self):
        assert dominates_or_equal((1, 2), (1, 2))
        assert dominates_or_equal((1, 2), (2, 2))
        assert not dominates_or_equal((2, 2), (1, 3))


class TestLowerBoundDominance:
    def test_requires_strictness(self):
        assert not dominates_lower_bounds((1, 2), (1, 2))
        assert dominates_lower_bounds((1, 1), (1, 2))

    def test_never_false_positive(self):
        # bounds <= truth, so a verdict on bounds must hold on truth
        bounds = (3.0, 4.0)
        truth = (3.5, 6.0)
        vector = (3.0, 3.5)
        assert dominates_lower_bounds(vector, bounds)
        assert dominates(vector, truth)

    def test_conservative_when_uncertain(self):
        # vector equals the bounds: truth might equal vector (no
        # dominance), so the test must refuse.
        assert not dominates_lower_bounds((2, 2), (2, 2))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates_lower_bounds((1,), (1, 2))

    @given(vectors, vectors, vectors)
    def test_soundness_property(self, vector, bounds, slack):
        """If the LB test fires, true dominance holds for any truth >= bounds."""
        truth = tuple(b + s for b, s in zip(bounds, slack))
        if dominates_lower_bounds(vector, bounds):
            assert dominates(vector, truth)

    @given(vectors)
    def test_coincides_with_dominates_when_exact(self, v):
        shifted = tuple(x + 1 for x in v)
        assert dominates_lower_bounds(v, shifted) == dominates(v, shifted)
        assert not dominates_lower_bounds(v, v)


class TestSkylineOf:
    def test_empty(self):
        assert sorted(block_skyline_rows([])) == []

    def test_single(self):
        assert sorted(block_skyline_rows([(1, 2)])) == [0]

    def test_chain(self):
        assert sorted(block_skyline_rows([(3, 3), (2, 2), (1, 1)])) == [2]

    def test_anti_chain(self):
        assert sorted(block_skyline_rows([(1, 3), (2, 2), (3, 1)])) == [0, 1, 2]

    def test_duplicates_all_kept(self):
        assert sorted(block_skyline_rows([(1, 1), (1, 1), (2, 2)])) == [0, 1]

    def test_is_dominated_by_any(self):
        assert is_dominated_by_any((2, 2), [(1, 1), (5, 5)])
        assert not is_dominated_by_any((1, 1), [(1, 1), (2, 0.5)])


class TestDominanceLaws:
    @given(vectors)
    def test_irreflexive(self, v):
        assert not dominates(v, v)

    @given(vectors, vectors)
    def test_asymmetric(self, a, b):
        if dominates(a, b):
            assert not dominates(b, a)

    @given(vectors, vectors, vectors)
    def test_transitive(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    @given(st.lists(vectors, max_size=30))
    def test_skyline_members_mutually_incomparable(self, vs):
        winners = block_skyline_rows(vs)
        for i in winners:
            for j in winners:
                if i != j:
                    assert not dominates(vs[i], vs[j])

    @given(st.lists(vectors, max_size=30))
    def test_every_loser_dominated_by_a_winner(self, vs):
        winners = set(block_skyline_rows(vs))
        for i, v in enumerate(vs):
            if i not in winners:
                assert any(dominates(vs[w], v) for w in winners)
