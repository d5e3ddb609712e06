"""Euclidean-space skyline algorithms (baselines and EDC's step 1).

* :mod:`repro.skyline.dominance` — the Pareto order, including the
  lower-bound-safe variant LBC relies on;
* :mod:`repro.skyline.bnl` — Block-Nested-Loops [4];
* :mod:`repro.skyline.sfs` — Sort-Filter-Skyline [5];
* :mod:`repro.skyline.bbs` — multi-source Branch-and-Bound Skyline over
  the R-tree (the paper's Section 4.2 construction).

The hot paths are block entry points over the columnar data plane
(:mod:`repro.columnar`); the scalar functions are thin views over them.
"""

from repro.skyline.bbs import (
    euclidean_skyline,
    euclidean_vector,
    incremental_euclidean_skyline,
    mbr_lower_bound_vector,
)
from repro.skyline.bnl import bnl_skyline, bnl_skyline_items
from repro.skyline.dominance import (
    Vector,
    dominance_count,
    dominates,
    dominates_lower_bounds,
    dominates_or_equal,
    is_dominated_by_any,
    skyline_of,
    skyline_of_scalar,
)
from repro.skyline.sfs import sfs_skyline_block, sfs_skyline_progressive

__all__ = [
    "Vector",
    "bnl_skyline",
    "bnl_skyline_items",
    "dominance_count",
    "dominates",
    "dominates_lower_bounds",
    "dominates_or_equal",
    "euclidean_skyline",
    "euclidean_vector",
    "incremental_euclidean_skyline",
    "is_dominated_by_any",
    "mbr_lower_bound_vector",
    "sfs_skyline_block",
    "sfs_skyline_progressive",
    "skyline_of",
    "skyline_of_scalar",
]
