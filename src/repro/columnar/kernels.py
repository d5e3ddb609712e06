"""Allocation-free batch kernels over flat float buffers.

Every kernel operates on indexable buffers of doubles — ``array('d')``
or any sequence of floats — holding ``count`` vectors of ``width``
components row-major.  Loop bodies avoid per-element Python object
construction (no tuples, lists or dataclass instances per row); the
``REPRO-PERF01`` lint rule keeps it that way.

Dominance uses the paper's minimisation convention: ``a`` dominates
``b`` when ``a <= b`` in every dimension and ``a < b`` in at least one.
The *lower-bound* variants apply the same arithmetic with different
semantics (see :func:`repro.skyline.dominance.dominates_lower_bounds`):
they are aliases with their own names so call sites state intent.

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


def is_dominated_by_any_block(
    block, count: int, width: int, vector, offset: int = 0
) -> bool:
    """True when any of the block's ``count`` rows dominates ``vector``.

    ``vector`` is read at ``vector[offset : offset + width]`` so callers
    can test one row of another flat buffer without slicing.  Charges
    the rows scanned to the ``dominance_checks`` counter.
    """
    checks = 0
    found = False
    base = 0
    end = count * width
    while base < end:
        checks += 1
        strict = False
        dominated = True
        i = base
        stop = base + width
        j = offset
        while i < stop:
            rv = block[i]
            vv = vector[j]
            if rv > vv:
                dominated = False
                break
            if rv < vv:
                strict = True
            i += 1
            j += 1
        if dominated and strict:
            found = True
            break
        base += width
    if checks:
        tracing.record("dominance_checks", checks)
    return found


def is_dominated_by_any_block_lb(
    block, count: int, width: int, bounds, offset: int = 0
) -> bool:
    """Lower-bound variant: rows are exact, ``bounds`` are lower bounds.

    Sound in the :func:`repro.skyline.dominance.dominates_lower_bounds`
    sense — True only when some row provably dominates the true vector
    the bounds under-estimate.
    """
    return is_dominated_by_any_block(block, count, width, bounds, offset)


def is_covered_by_any_block(
    block, count: int, width: int, vector, offset: int = 0
) -> bool:
    """True when some row ``r`` satisfies ``vector <= r`` pointwise.

    The hypercube-membership test of EDC's window step: the rows are
    shifted corners and ``vector`` lies inside ``[origin, r]``.
    """
    checks = 0
    found = False
    base = 0
    end = count * width
    while base < end:
        checks += 1
        inside = True
        i = base
        stop = base + width
        j = offset
        while i < stop:
            if vector[j] > block[i]:
                inside = False
                break
            i += 1
            j += 1
        if inside:
            found = True
            break
        base += width
    if checks:
        tracing.record("dominance_checks", checks)
    return found


def block_skyline(block, count: int, width: int) -> list[int]:
    """Row indices of the block's skyline, in SFS preference order.

    Sort-filter-skyline over the flat block: rows are ordered by their
    component sum (ties by row index), each row is compared against the
    confirmed set only, and equal-sum groups get exact pairwise checks
    so float-rounding sum ties cannot admit a dominated row (see the
    module docstring).  Output order equals the scalar SFS order; sort
    ascending for :func:`repro.skyline.dominance.skyline_of` semantics.
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

