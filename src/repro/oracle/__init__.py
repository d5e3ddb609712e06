"""repro.oracle — preprocessed distance oracles (CH + hub labels).

The online backends in :mod:`repro.engine.backends` pay a graph search
per distance; this package trades a one-off preprocessing pass for
near-lookup query cost, the "single biggest raw-speed lever" of the
roadmap:

* :mod:`repro.oracle.ch` — a contraction hierarchy: nodes are
  contracted in edge-difference order, shortcuts preserve shortest
  distances, and queries run a bidirectional *upward* Dijkstra whose
  search space is a tiny cone instead of a wavefront disc;
* :mod:`repro.oracle.hublabel` — hub labels extracted from the CH:
  per-node sorted ``(hub, distance)`` lists answering any pair query
  with one scan of the target's label against the source's hub map, no
  search at all (``oracle_label_entries`` charges what a sorted merge
  of the two labels visits);
* :mod:`repro.oracle.index` — the built artifact
  (:class:`OracleIndex`), its network signature (so a persisted index
  can refuse a mutated graph) and its JSON file round-trip;
* :mod:`repro.oracle.store` — page-clustered layout of the shortcut /
  label records behind a :class:`~repro.storage.buffer.BufferPool`, so
  oracle reads pay page accounting (``oracle_pages``) like every other
  structure;
* :mod:`repro.oracle.runtime` — :class:`DistanceOracle`, the queryable
  handle the engine consults before falling back to online search.

Layering: the package sits beside ``skyline`` (rank 5) — it imports
``network``/``storage``/``obs`` and is imported by ``engine``, which
registers the ``ch`` and ``hublabel`` backends.
"""

from repro.oracle.ch import ContractionHierarchy, build_contraction_hierarchy
from repro.oracle.hublabel import build_hub_labels, hub_label_distance
from repro.oracle.index import (
    ORACLE_FILE_FORMAT,
    ORACLE_FILE_VERSION,
    OracleIndex,
    OracleIndexError,
    build_oracle_index,
    load_oracle_index,
    network_signature,
    save_oracle_index,
)
from repro.oracle.runtime import DistanceOracle
from repro.oracle.store import OracleStore

ORACLE_KINDS = ("ch", "hublabel")

__all__ = [
    "ORACLE_FILE_FORMAT",
    "ORACLE_FILE_VERSION",
    "ORACLE_KINDS",
    "ContractionHierarchy",
    "DistanceOracle",
    "OracleIndex",
    "OracleIndexError",
    "OracleStore",
    "build_contraction_hierarchy",
    "build_hub_labels",
    "build_oracle_index",
    "hub_label_distance",
    "load_oracle_index",
    "network_signature",
    "save_oracle_index",
]
