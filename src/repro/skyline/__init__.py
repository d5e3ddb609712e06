"""Euclidean-space skyline algorithms (baselines and EDC's step 1).

* :mod:`repro.skyline.dominance` — the Pareto order, and why the same
  test is sound on the lower bounds LBC keeps;
* :mod:`repro.skyline.bnl` — Block-Nested-Loops [4], the naive
  baseline's final step;
* :mod:`repro.skyline.bbs` — multi-source Branch-and-Bound Skyline over
  the R-tree (the paper's Section 4.2 construction).

The hot paths are block entry points over the columnar data plane
(:mod:`repro.columnar`): sort-filter-skyline [5] is
:meth:`repro.columnar.store.CandidateBlock.skyline`.
"""

from repro.skyline.bbs import (
    euclidean_skyline,
    euclidean_vector,
    incremental_euclidean_skyline,
    mbr_lower_bound_vector,
)
from repro.skyline.bnl import bnl_skyline
from repro.skyline.dominance import Vector, dominates

__all__ = [
    "Vector",
    "bnl_skyline",
    "dominates",
    "euclidean_skyline",
    "euclidean_vector",
    "incremental_euclidean_skyline",
    "mbr_lower_bound_vector",
]
