"""repro.engine — the unified network-distance service layer.

Public surface:

* :class:`DistanceEngine` — pooled wavefronts, cross-query distance
  memo, the ``distances``/``vectors`` batch helpers; owned by every
  Workspace as ``workspace.engine``;
* :class:`EngineCounters` — snapshot of hit/miss/eviction counters;
* the backend registry (:data:`BACKEND_NAMES`, :func:`make_backend`)
  with the :class:`DistanceBackend` protocol;
* :class:`DistanceMemo` — the bounded LRU used by the engine.
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    BACKENDS,
    DEFAULT_BACKEND,
    ORACLE_BACKEND_NAMES,
    AStarBackend,
    AStarLandmarksBackend,
    ChBackend,
    DijkstraBackend,
    DistanceBackend,
    HubLabelBackend,
    make_backend,
)
from repro.engine.cache import DEFAULT_MEMO_CAPACITY, DistanceMemo, MemoCounters
from repro.engine.engine import (
    DEFAULT_POOL_CAPACITY,
    DistanceEngine,
    EngineCounters,
    location_key,
)

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "DEFAULT_MEMO_CAPACITY",
    "DEFAULT_POOL_CAPACITY",
    "ORACLE_BACKEND_NAMES",
    "AStarBackend",
    "AStarLandmarksBackend",
    "ChBackend",
    "DijkstraBackend",
    "DistanceBackend",
    "DistanceEngine",
    "DistanceMemo",
    "EngineCounters",
    "HubLabelBackend",
    "MemoCounters",
    "location_key",
    "make_backend",
]
