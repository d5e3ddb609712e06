"""Dominance — the Pareto order at the heart of every skyline query.

A vector ``a`` *dominates* ``b`` (minimisation convention, as in the
paper) when ``a[i] <= b[i]`` for every dimension and ``a[i] < b[i]``
for at least one.  Skyline = the set of vectors dominated by nobody.

Two extra notions matter for the road-network algorithms:

* **Lower-bound dominance**: LBC keeps only *lower bounds* of a
  candidate's distances.  Because a lower bound never exceeds the true
  value, a skyline vector ``s`` with ``s <= lb`` everywhere and
  ``s < lb`` somewhere dominates the true vector too, so the same
  arithmetic as :func:`dominates` gives a sound verdict
  (:meth:`repro.columnar.store.SkylineBlock.dominates_lb`).  When it
  says no, the candidate might still be dominated: LBC tightens the
  bounds and asks again.
* **Region dominance**: R-tree pruning compares a skyline vector
  against the vector of per-query *minimum* distances to an MBR — a
  pointwise lower bound over everything inside the subtree, so the
  lower-bound test applies.

The scalar references the columnar kernels are tested against live in
``tests/reference_dominance.py``.
"""

from __future__ import annotations

from typing import Sequence

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
