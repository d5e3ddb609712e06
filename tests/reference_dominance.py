"""The row-scan dominance kernels, kept as a test-only reference.

These are the flat-buffer scans that :class:`repro.columnar.store.SkylineBlock`'s
per-dimension index replaced.  Each walks the block's rows front to back,
stops at the first match and charges the rows it examined to the
``dominance_checks`` counter; the index must return the same verdict
and the same charge for every probe, so the differential tests run both
on the same rows.  The function bodies are unchanged; do not optimise
them.
"""

from __future__ import annotations

from repro.obs import tracing


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
