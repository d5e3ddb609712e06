"""The columnar data plane: array-backed stores and batch kernels.

The paper's algorithms spend their time comparing distance vectors.
Representing every candidate as a per-object Python tuple makes each
comparison pay interpreter overhead for allocation and boxing; this
package keeps vectors in flat ``array('d')`` buffers instead and runs
dominance and SFS work over whole blocks at a time.

Layer rank: between ``geometry`` and ``index`` in the DAG (see
:mod:`repro.analysis.importgraph`); it may import only ``obs`` and the
stdlib, so every higher layer — index, skyline, core, engine, datasets,
bench — can build on it.

Modules
-------
* :mod:`repro.columnar.kernels` — allocation-free kernels over flat
  float buffers (block SFS) and over the per-dimension dominance index
  (dominance and covering probes).  The ``REPRO-PERF01`` lint rule
  enforces the no-per-element-allocation discipline inside this
  package.
* :mod:`repro.columnar.store` — the column containers: row-major
  :class:`~repro.columnar.store.VectorTable`, id-handled
  :class:`~repro.columnar.store.CandidateBlock` and the indexed
  confirmed-set mirror :class:`~repro.columnar.store.SkylineBlock`.
* :mod:`repro.columnar.curve` — the Hilbert curve index (the network
  and oracle stores cluster their pages along it).
"""

from repro.columnar.curve import hilbert_index
from repro.columnar.kernels import block_skyline, dominates_flat
from repro.columnar.store import (
    CandidateBlock,
    SkylineBlock,
    VectorTable,
)

__all__ = [
    "CandidateBlock",
    "SkylineBlock",
    "VectorTable",
    "block_skyline",
    "dominates_flat",
    "hilbert_index",
]
