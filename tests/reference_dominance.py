"""Dominance references the columnar plane is tested against.

The row-scan kernels are the flat-buffer scans that
:class:`repro.columnar.store.SkylineBlock`'s per-dimension index
replaced.  Each walks the block's rows front to back, stops at the
first match and charges the rows it examined to the
``dominance_checks`` counter; the index must return the same verdict
and the same charge for every probe, so the differential tests run both
on the same rows.  The function bodies are unchanged; do not optimise
them.

The scalar references below them compare one tuple at a time: the
block skyline must equal :func:`skyline_of_scalar` and, in order,
:func:`sfs_skyline_progressive`; the index probes must agree with
:func:`is_dominated_by_any`, :func:`dominates_lower_bounds` and
:func:`dominates_or_equal`.
"""

from __future__ import annotations

from typing import Iterator

from repro.obs import tracing
from repro.skyline.dominance import dominates


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

    Sound in the :func:`dominates_lower_bounds` sense — True only when
    some row provably dominates the true vector the bounds
    under-estimate.
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


# ----------------------------------------------------------------------
# Scalar Pareto references: one vector at a time, no columnar plane
# ----------------------------------------------------------------------
def dominates_or_equal(a, b) -> bool:
    """True if ``a <= b`` in every dimension (ties allowed everywhere)."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(ai <= bi for ai, bi in zip(a, b))


def dominates_lower_bounds(vector, bounds) -> bool:
    """Sound dominance test against a vector of *lower bounds*.

    ``bounds[i]`` is a lower bound of some unknown true value ``t[i]``.
    Returns True only when ``vector`` is guaranteed to dominate ``t``:
    ``vector[i] <= bounds[i]`` everywhere (hence ``<= t[i]``), and
    ``vector[i] < bounds[i]`` somewhere (hence ``< t[i]`` there).
    Once every bound is exact the test coincides with
    :func:`repro.skyline.dominance.dominates`.
    """
    if len(vector) != len(bounds):
        raise ValueError(f"dimension mismatch: {len(vector)} vs {len(bounds)}")
    strict = False
    for vi, lbi in zip(vector, bounds):
        if vi > lbi:
            return False
        if vi < lbi:
            strict = True
    return strict


def is_dominated_by_any(vector, others) -> bool:
    """True if any vector in ``others`` dominates ``vector``."""
    return any(dominates(other, vector) for other in others)


def skyline_of_scalar(vectors) -> list[int]:
    """Indices of the skyline members of ``vectors`` (quadratic scan).

    Duplicate vectors are all reported (none dominates its twin).
    """
    result: list[int] = []
    for i, candidate in enumerate(vectors):
        dominated = False
        for j, other in enumerate(vectors):
            if i != j and dominates(other, candidate):
                dominated = True
                break
        if not dominated:
            result.append(i)
    return result


def sfs_skyline_progressive(vectors, score=None) -> Iterator[int]:
    """Sort-Filter-Skyline (Chomicki et al., ICDE 2003), one tuple at a time.

    Tuples are sorted by a monotone score (default: the component sum),
    so a tuple can only be dominated by tuples before it; yields the
    skyline's indices in that preference order.
    """
    if score is None:
        score = sum
    order = sorted(range(len(vectors)), key=lambda i: (score(vectors[i]), i))
    skyline: list[int] = []
    for i in order:
        candidate = vectors[i]
        if not any(dominates(vectors[j], candidate) for j in skyline):
            skyline.append(i)
            yield i
