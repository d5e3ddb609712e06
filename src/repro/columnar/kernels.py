"""Allocation-free batch kernels over flat float buffers.

Every kernel operates on indexable buffers of doubles — ``array('d')``
or any sequence of floats — holding ``count`` vectors of ``width``
components row-major.  Loop bodies avoid per-element Python object
construction (no tuples, lists or dataclass instances per row); the
``REPRO-PERF01`` lint rule keeps it that way.

Dominance uses the paper's minimisation convention: ``a`` dominates
``b`` when ``a <= b`` in every dimension and ``a < b`` in at least one.
The same arithmetic is also the *lower-bound* test (see
:mod:`repro.skyline.dominance`); callers state
which one they mean by the method they call on
:class:`~repro.columnar.store.SkylineBlock`.

Membership probes against a confirmed set (is some row a dominator?
does some row cover the probe?) run on a per-dimension index instead of
a row scan: each dimension keeps its values in ascending order beside
prefix bitmasks over row indices (Python ints), so a probe costs one
or two bisects per dimension and a few integer ANDs and ORs
(:func:`index_build`, :func:`index_append`, :func:`index_dominates`,
:func:`index_covers`).  A probe charges ``dominance_checks`` exactly
what the front-to-back scan it replaced would have examined, so the
counter measures the paper's work, not this representation.

Exactness of :func:`block_skyline` rests on a monotonicity argument:
IEEE rounding is monotone and addition is monotone in both operands, so
if ``a`` dominates ``b`` pointwise then the left-to-right float sum of
``a`` is **at most** that of ``b`` — never more.  A dominator therefore
sorts into an earlier group or the *same* equal-sum group, and the
equal-sum groups are resolved by exact pairwise checks, so the result
matches the quadratic reference bit for bit even under float ties.

Comparison work is charged to the ``dominance_checks`` counter in bulk
(one :func:`repro.obs.tracing.record` call per block operation, not per
row), so per-query span totals expose how much dominance work each
phase did without per-comparison overhead.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

from repro.obs import tracing


def dominates_flat(a, ao: int, b, bo: int, width: int) -> bool:
    """Does the vector at ``a[ao:ao+width]`` dominate ``b[bo:bo+width]``?

    Also the lower-bound dominance test (same arithmetic; the caller
    supplies bounds in ``b`` and interprets the verdict soundly).
    """
    strict = False
    d = 0
    while d < width:
        av = a[ao + d]
        bv = b[bo + d]
        if av > bv:
            return False
        if av < bv:
            strict = True
        d += 1
    return strict


def index_build(values: list, masks: list, block, count: int) -> None:
    """Index the block's ``count`` rows, one dimension per ``values`` slot.

    ``values[d]`` becomes column ``d`` in ascending order and
    ``masks[d][k]`` the bitmask (bit ``r`` for row ``r``) of the rows
    holding the column's ``k`` smallest values, so ``masks[d][0]`` is 0
    and ``masks[d][count]`` holds every row.  Equal values may sit in
    either order: probes read masks only at the edges of a run of
    equal values.  One sort per dimension.
    """
    width = len(values)
    end = count * width
    d = 0
    while d < width:
        values[d], masks[d] = _index_column(block[d:end:width])
        d += 1


def _index_column(column) -> tuple[list[float], list[int]]:
    """One dimension's ascending values and prefix masks."""
    order = sorted(range(len(column)), key=column.__getitem__)
    masks = [0]
    mask = 0
    for row in order:
        mask |= 1 << row
        masks.append(mask)
    return [column[row] for row in order], masks


def index_append(values: list, masks: list, vector) -> None:
    """Add ``vector`` to the index as the next row, in place.

    Per dimension: one insertion into the sorted column, then the new
    row's bit ORed into every prefix mask from its position on.
    """
    bit = 1 << len(values[0])
    width = len(values)
    d = 0
    while d < width:
        value = vector[d]
        column = values[d]
        prefix = masks[d]
        k = bisect_right(column, value)
        column.insert(k, value)
        prefix.insert(k, prefix[k])
        k += 1
        end = len(prefix)
        while k < end:
            prefix[k] |= bit
            k += 1
        d += 1


def index_dominates(values: list, masks: list, vector, offset: int = 0) -> bool:
    """True when some indexed row dominates ``vector``.

    ``vector`` is read at ``vector[offset : offset + width]``.  Per
    dimension, ``bisect_right`` finds the rows no larger than the
    probe's component and ``bisect_left`` the rows strictly smaller;
    the dominators are in every first set and in some second set.  Also
    the lower-bound test (same arithmetic; the caller supplies bounds
    and interprets the verdict soundly, see
    :mod:`repro.skyline.dominance`).
    """
    below = -1
    strict = 0
    width = len(values)
    d = 0
    while d < width:
        value = vector[offset + d]
        column = values[d]
        prefix = masks[d]
        below &= prefix[bisect_right(column, value)]
        if not below:
            break
        strict |= prefix[bisect_left(column, value)]
        d += 1
    return _charge(below & strict, len(values[0]))


def index_covers(values: list, masks: list, vector, offset: int = 0) -> bool:
    """True when some indexed row ``r`` satisfies ``vector <= r`` pointwise.

    The hypercube-membership test of EDC's window step: the rows are
    shifted corners and ``vector`` lies inside ``[origin, r]``.  Per
    dimension, the rows at or past ``bisect_left`` are no smaller than
    the probe's component.
    """
    above = -1
    width = len(values)
    d = 0
    while d < width:
        prefix = masks[d]
        above &= prefix[-1] ^ prefix[bisect_left(values[d], vector[offset + d])]
        if not above:
            break
        d += 1
    return _charge(above, len(values[0]))


def _charge(hits: int, count: int) -> bool:
    """Charge what a front-to-back row scan would examine, then answer.

    The scan stops at the lowest matching row, so it examines that
    row's index + 1 rows, or all ``count`` when nothing matches (and
    charges nothing on an empty block).
    """
    checks = (hits & -hits).bit_length() if hits else count
    if checks:
        tracing.record("dominance_checks", checks)
    return hits != 0


def block_skyline(block, count: int, width: int) -> list[int]:
    """Row indices of the block's skyline, in SFS preference order.

    Sort-filter-skyline over the flat block: rows are ordered by their
    component sum (ties by row index), each row is compared against the
    confirmed set only, and equal-sum groups get exact pairwise checks
    so float-rounding sum ties cannot admit a dominated row (see the
    module docstring).  Output order equals the scalar SFS order; sort
    it to list the skyline rows in input order.
    """
    if count <= 0:
        return []
    if width <= 0:
        return list(range(count))

    sums = array("d", bytes(8 * count))
    base = 0
    r = 0
    while r < count:
        total = 0.0
        i = base
        stop = base + width
        while i < stop:
            total += block[i]
            i += 1
        sums[r] = total
        r += 1
        base += width

    order = sorted(range(count), key=sums.__getitem__)

    sky: list[int] = []
    confirmed = array("d")
    checks = 0
    pos = 0
    while pos < count:
        group_end = pos + 1
        group_sum = sums[order[pos]]
        while group_end < count and sums[order[group_end]] == group_sum:
            group_end += 1
        confirmed_rows = len(sky)
        g = pos
        while g < group_end:
            row = order[g]
            row_base = row * width
            dominated = False
            # Against the confirmed set (strictly smaller sums, plus
            # earlier members of this group already copied in — those
            # are re-checked exactly below, so the early rows here only
            # ever reject correctly).
            cbase = 0
            cend = confirmed_rows * width
            while cbase < cend:
                checks += 1
                strict = False
                wins = True
                i = cbase
                stop = cbase + width
                j = row_base
                while i < stop:
                    cv = confirmed[i]
                    rv = block[j]
                    if cv > rv:
                        wins = False
                        break
                    if cv < rv:
                        strict = True
                    i += 1
                    j += 1
                if wins and strict:
                    dominated = True
                    break
                cbase += width
            if not dominated:
                # Exact pairwise pass inside the equal-sum group: under
                # float rounding a dominator can share the rounded sum
                # with its victim.  Any group member may certify the
                # rejection (transitivity keeps this sound even when
                # the certifier is itself dominated).
                h = pos
                while h < group_end:
                    if h != g:
                        checks += 1
                        if dominates_flat(
                            block, order[h] * width, block, row_base, width
                        ):
                            dominated = True
                            break
                    h += 1
            if not dominated:
                sky.append(row)
                i = row_base
                stop = row_base + width
                while i < stop:
                    confirmed.append(block[i])
                    i += 1
            g += 1
        pos = group_end
    if checks:
        tracing.record("dominance_checks", checks)
    return sky

