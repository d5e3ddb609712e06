"""Differential tests: the per-dimension dominance index vs the row scans.

:class:`repro.columnar.store.SkylineBlock` answers every dominance and
covering probe from sorted columns and prefix bitmasks; the row scans it
replaced live on in :mod:`tests.reference_dominance`.  On random blocks
— small value grids with ties, ``0.0`` beside ``-0.0``, ``inf`` and
duplicate rows, built by appends interleaved with rebuilds — every
probe must give the scan's verdict *and* charge ``dominance_checks``
what the scan charged (nothing at all on an empty block), because the
counter is part of every per-layer comparison.
"""

from __future__ import annotations

import math
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_dominance as ref
from repro.columnar.store import SkylineBlock
from repro.obs import tracing

GRID = (0.0, -0.0, 0.5, 1.0, 1.0, 2.0, 3.0, math.inf)
MAX_ROWS = 80


def _charged(probe, *args):
    """``(verdict, counters)`` for one probe, under a fresh span."""
    with tracing.span("probe") as node:
        verdict = probe(*args)
    return verdict, node.counts


@st.composite
def blocks(draw):
    """A width, a sequence of block operations and the probes."""
    width = draw(st.integers(1, 6))
    value = st.sampled_from(GRID)
    row = st.tuples(*[value] * width)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("append"), row),
                # Re-append an earlier row: exact duplicates.
                st.tuples(st.just("repeat"), st.integers(0, MAX_ROWS)),
                # Rebuild from the rows whose keep-flag is set (an
                # eviction drops some and keeps the others in order).
                st.tuples(
                    st.just("rebuild"),
                    st.lists(st.booleans(), min_size=MAX_ROWS, max_size=MAX_ROWS),
                ),
            ),
            max_size=MAX_ROWS,
        )
    )
    probes = draw(st.lists(st.tuples(row, st.integers(0, 3)), max_size=12))
    return width, ops, probes


def _apply(width, ops):
    """Yield ``(block, rows)`` after every operation, ``rows`` the truth."""
    sky = SkylineBlock(width)
    rows: list[tuple[float, ...]] = []
    yield sky, rows
    for kind, arg in ops:
        if kind == "append" or (kind == "repeat" and rows):
            vector = arg if kind == "append" else rows[arg % len(rows)]
            if len(rows) == MAX_ROWS:
                continue
            rows.append(vector)
            sky.append(vector)
        elif kind == "rebuild":
            rows = [r for r, keep in zip(rows, arg) if keep]
            sky.rebuild(rows)
        yield sky, rows


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_index_matches_row_scan_verdict_and_charge(case):
    width, ops, probes = case
    for sky, rows in _apply(width, ops):
        assert len(sky) == len(rows)
        flat = array("d", [v for r in rows for v in r])
        count = len(rows)
        for probe, offset in probes:
            # Read the probe at ``offset`` inside a padded buffer.
            buffer = array("d", [7.0] * offset + list(probe) + [-7.0])
            for vector, at in ((probe, 0), (buffer, offset)):
                assert _charged(sky.dominates, vector, at) == _charged(
                    ref.is_dominated_by_any_block, flat, count, width, vector, at
                )
                assert _charged(sky.dominates_lb, vector, at) == _charged(
                    ref.is_dominated_by_any_block_lb, flat, count, width, vector, at
                )
                assert _charged(sky.covers, vector, at) == _charged(
                    ref.is_covered_by_any_block, flat, count, width, vector, at
                )


def test_empty_block_charges_nothing():
    sky = SkylineBlock(3)
    for probe in (sky.dominates, sky.dominates_lb, sky.covers):
        assert _charged(probe, (0.0, 0.0, 0.0)) == (False, {})
    sky.rebuild([])
    assert _charged(sky.dominates, (1.0, 1.0, 1.0)) == (False, {})


def test_charge_is_lowest_matching_row_plus_one():
    sky = SkylineBlock(2)
    for row in ((5.0, 0.0), (0.0, 5.0), (1.0, 1.0), (0.5, 0.5)):
        sky.append(row)
    # Rows 2 and 3 dominate (2, 2); a scan stops at row 2.
    assert _charged(sky.dominates, (2.0, 2.0)) == (True, {"dominance_checks": 3})
    # Nothing dominates (0, 0): the scan examines all four rows.
    assert _charged(sky.dominates, (0.0, 0.0)) == (False, {"dominance_checks": 4})
    # Row 0 covers (4, 0): found at the first row.
    assert _charged(sky.covers, (4.0, 0.0)) == (True, {"dominance_checks": 1})
