"""Dominance — the Pareto order at the heart of every skyline query.

A vector ``a`` *dominates* ``b`` (minimisation convention, as in the
paper) when ``a[i] <= b[i]`` for every dimension and ``a[i] < b[i]``
for at least one.  Skyline = the set of vectors dominated by nobody.

Two extra notions matter for the road-network algorithms:

* **Lower-bound dominance** (:func:`dominates_lower_bounds`): LBC keeps
  only *lower bounds* of a candidate's distances.  Because a lower
  bound never exceeds the true value, ``s <= lb`` pointwise implies
  ``s <= true`` pointwise; strictness must however be certified on a
  dimension where it provably carries over to the true value.
* **Region dominance**: R-tree pruning compares a skyline vector
  against the vector of per-query *minimum* distances to an MBR — a
  pointwise lower bound over everything inside the subtree, so the same
  :func:`dominates_lower_bounds` test applies.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.columnar import kernels
from repro.columnar.store import VectorTable

Vector = Sequence[float]


def dominates(a: Vector, b: Vector) -> bool:
    """True if ``a`` dominates ``b`` (<= everywhere, < somewhere)."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    strictly_less = False
    for ai, bi in zip(a, b):
        if ai > bi:
            return False
        if ai < bi:
            strictly_less = True
    return strictly_less


def dominates_or_equal(a: Vector, b: Vector) -> bool:
    """True if ``a <= b`` in every dimension (ties allowed everywhere)."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return all(ai <= bi for ai, bi in zip(a, b))


def dominates_lower_bounds(vector: Vector, bounds: Vector) -> bool:
    """Sound dominance test against a vector of *lower bounds*.

    ``bounds[i]`` is a lower bound of some unknown true value ``t[i]``.
    Returns True only when ``vector`` is guaranteed to dominate ``t``:
    ``vector[i] <= bounds[i]`` everywhere (hence ``<= t[i]``), and
    ``vector[i] < bounds[i]`` somewhere (hence ``< t[i]`` there).

    When this returns False the candidate might still be dominated —
    the caller must tighten the bounds and retry (exactly LBC's
    expand-one-step loop).  Once every bound is exact the test
    coincides with :func:`dominates`, so the loop terminates with the
    correct verdict.
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


def is_dominated_by_any(vector: Vector, others: Iterable[Vector]) -> bool:
    """True if any vector in ``others`` dominates ``vector``."""
    return any(dominates(other, vector) for other in others)


def skyline_of(vectors: Sequence[Vector]) -> list[int]:
    """Indices of the skyline members of ``vectors`` (ascending).

    Thin view over the columnar block kernel: the vectors are packed
    into a flat :class:`~repro.columnar.store.VectorTable` and filtered
    by :func:`repro.columnar.kernels.block_skyline`.  Semantics match
    :func:`skyline_of_scalar` exactly — duplicate vectors are all
    reported (none dominates its twin) and mixed widths raise.
    """
    if not vectors:
        return []
    if len(vectors[0]) == 0:
        # Zero-dimensional vectors cannot dominate; everything survives
        # (after the scalar width check against the first vector).
        for vector in vectors:
            if len(vector) != 0:
                raise ValueError(f"dimension mismatch: 0 vs {len(vector)}")
        return list(range(len(vectors)))
    table = VectorTable.from_vectors(vectors)
    return sorted(kernels.block_skyline(table.data, len(table), table.width))


def skyline_of_scalar(vectors: Sequence[Vector]) -> list[int]:
    """Indices of the skyline members of ``vectors`` (quadratic scan).

    The per-tuple reference implementation the columnar kernels are
    equivalence-tested against.  Duplicate vectors are all reported
    (none dominates its twin).
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


def dominance_count(vectors: Sequence[Vector], target: Vector) -> int:
    """How many vectors dominate ``target`` (diagnostics/tests)."""
    return sum(1 for v in vectors if dominates(v, target))
