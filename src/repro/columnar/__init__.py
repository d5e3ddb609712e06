"""The columnar data plane: array-backed stores and batch kernels.

The paper's algorithms spend their time comparing distance vectors.
Representing every candidate as a per-object Python tuple makes each
comparison pay interpreter overhead for allocation and boxing; this
package keeps vectors in flat ``array('d')`` buffers instead and runs
dominance, SFS and batch-distance work over whole blocks at a time.

Layer rank: between ``geometry`` and ``index`` in the DAG (see
:mod:`repro.analysis.importgraph`); it may import only ``obs`` and the
stdlib, so every higher layer — index, skyline, core, engine, datasets,
bench — can build on it.

Modules
-------
* :mod:`repro.columnar.kernels` — allocation-free batch kernels over
  flat float buffers (dominance, block SFS, batch Euclidean).  The
  ``REPRO-PERF01`` lint rule enforces the no-per-element-allocation
  discipline inside this package.
* :mod:`repro.columnar.store` — the column containers: row-major
  :class:`~repro.columnar.store.VectorTable`, planar
  :class:`~repro.columnar.store.CoordinateColumns`, id-handled
  :class:`~repro.columnar.store.CandidateBlock` and the confirmed-set
  mirror :class:`~repro.columnar.store.SkylineBlock`.
* :mod:`repro.columnar.curve` — Hilbert curve index and sort order
  (shared by the network page-clustering and the R-tree bulk load).
"""

from repro.columnar.curve import hilbert_index, hilbert_sort_indices
from repro.columnar.kernels import (
    batch_euclidean,
    block_skyline,
    dominates_block,
    dominates_flat,
    fill_column,
    is_covered_by_any_block,
    is_dominated_by_any_block,
    is_dominated_by_any_block_lb,
)
from repro.columnar.store import (
    CandidateBlock,
    CoordinateColumns,
    SkylineBlock,
    VectorTable,
)

__all__ = [
    "CandidateBlock",
    "CoordinateColumns",
    "SkylineBlock",
    "VectorTable",
    "batch_euclidean",
    "block_skyline",
    "dominates_block",
    "dominates_flat",
    "fill_column",
    "hilbert_index",
    "hilbert_sort_indices",
    "is_covered_by_any_block",
    "is_dominated_by_any_block",
    "is_dominated_by_any_block_lb",
]
