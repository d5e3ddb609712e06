"""The columnar plane: kernels vs the scalar reference, stores, curve.

The block kernels must be *bit-identical* to the quadratic scalar
reference — including under float-sum ties, duplicate vectors and
lower-bound semantics — because the algorithm layers swap freely
between the two representations.  Every randomized case is seeded.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.columnar.curve import hilbert_index
from repro.columnar.kernels import block_skyline, dominates_flat
from repro.columnar.store import (
    CandidateBlock,
    SkylineBlock,
    VectorTable,
)

from reference_dominance import (
    dominates_lower_bounds,
    dominates_or_equal,
    is_dominated_by_any,
    sfs_skyline_progressive,
    skyline_of_scalar,
)


def _table(vectors):
    """A :class:`VectorTable` holding ``vectors`` as rows, in order."""
    table = VectorTable(len(vectors[0]))
    for vector in vectors:
        table.append(vector)
    return table


def _random_vectors(rng, count, width, quantize=None):
    """Random vectors; ``quantize`` forces heavy component/sum ties."""
    out = []
    for _ in range(count):
        if quantize:
            vec = tuple(rng.randrange(quantize) / quantize for _ in range(width))
        else:
            vec = tuple(rng.random() for _ in range(width))
        out.append(vec)
    return out


CASES = [
    (seed, count, width, quantize)
    for seed in (0, 1, 2)
    for count, width in ((1, 1), (17, 2), (64, 3), (128, 5))
    for quantize in (None, 4)
]


@pytest.mark.parametrize("seed,count,width,quantize", CASES)
def test_block_skyline_matches_scalar_reference(seed, count, width, quantize):
    rng = random.Random(seed)
    vectors = _random_vectors(rng, count, width, quantize)
    # Seed exact duplicates: none may dominate its twin.
    if count >= 8:
        vectors[3] = vectors[1]
        vectors[7] = vectors[1]
    table = _table(vectors)
    block = block_skyline(table.data, len(table), table.width)
    assert sorted(block) == skyline_of_scalar(vectors)
    for index in block:
        assert table.row(index) == vectors[index]


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_block_skyline_order_is_scalar_sfs_order(seed):
    rng = random.Random(seed)
    vectors = _random_vectors(rng, 60, 3, quantize=3)
    table = _table(vectors)
    assert block_skyline(table.data, len(table), table.width) == list(
        sfs_skyline_progressive(vectors, None)
    )


def test_block_skyline_degenerate_shapes():
    assert block_skyline(array("d"), 0, 3) == []
    # Zero-width rows cannot dominate each other: everything survives.
    assert block_skyline(array("d"), 4, 0) == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", [3, 4])
def test_membership_kernels_match_scalar(seed):
    rng = random.Random(seed)
    width = 4
    vectors = _random_vectors(rng, 40, width, quantize=5)
    sky = SkylineBlock(width)
    sky.rebuild(vectors)
    probes = _random_vectors(rng, 60, width, quantize=5) + vectors[:10]
    for probe in probes:
        assert sky.dominates(probe) == is_dominated_by_any(probe, vectors)
        assert sky.dominates_lb(probe) == any(
            dominates_lower_bounds(v, probe) for v in vectors
        )
        assert sky.covers(probe) == any(
            dominates_or_equal(probe, v) for v in vectors
        )


def test_membership_kernel_offset_reads_one_row_of_a_buffer():
    sky = SkylineBlock(2)
    sky.append((0.5, 0.5))
    probes = array("d", [9.0, 9.0, 1.0, 1.0])
    assert sky.dominates(probes, offset=2)
    assert sky.dominates(probes, offset=0)
    assert not sky.dominates(sky.table.data)
    assert sky.covers(array("d", [9.0, 0.5, 0.5]), offset=1)
    assert not sky.covers(probes, offset=0)


def test_dominates_flat_ties_and_equality():
    buf = array("d", [1.0, 2.0, 1.0, 2.0, 1.0, 3.0])
    assert not dominates_flat(buf, 0, buf, 2, 2)  # equal vectors
    assert dominates_flat(buf, 0, buf, 4, 2)  # tie then strict win
    assert not dominates_flat(buf, 4, buf, 0, 2)


def test_vector_table_roundtrip_and_width_check():
    table = VectorTable(3)
    assert len(table) == 0
    handle = table.append((1.0, 2.0, 3.0))
    assert handle == 0
    assert table.row(0) == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        table.append((1.0, 2.0))
    table.clear()
    assert len(table) == 0


def test_skyline_block_dominates_and_lb():
    sky = SkylineBlock(2)
    sky.rebuild([(1.0, 1.0), (0.0, 3.0)])
    assert sky.dominates((2.0, 2.0))
    assert not sky.dominates((1.0, 1.0))  # equality is not dominance
    assert not sky.dominates((0.5, 0.9))
    # Lower bounds: sound only when strictly under some member.
    assert sky.dominates_lb((1.5, 1.5))
    assert not sky.dominates_lb((1.0, 0.5))
    buf = array("d", [9.0, 9.0, 2.0, 2.0])
    assert sky.dominates(buf, offset=2)


def test_candidate_block_skyline_returns_row_indices():
    block = CandidateBlock(2)
    block.add(10, (1.0, 1.0))
    block.add(11, (2.0, 2.0))
    block.add(12, (0.0, 3.0))
    rows = block.skyline()
    assert sorted(rows) == [0, 2]
    assert [block.ids[r] for r in sorted(rows)] == [10, 12]


def test_hilbert_index_locality_basics():
    # Distinct cells map to distinct indices at a fixed order.
    side = (1 << 4) - 1
    seen = {
        hilbert_index(x, y, 4) for x in range(side + 1) for y in range(side + 1)
    }
    assert len(seen) == (side + 1) ** 2

