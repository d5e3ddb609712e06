"""Access methods built from scratch for the reproduction.

* :class:`~repro.index.heap.AddressableHeap` — decrease-key heap on
  ``heapq`` (lazy invalidation, deterministic tie order) backing the
  Dijkstra/A* wavefronts.
* :class:`~repro.index.bptree.BPlusTree` — the middle layer's edge-id
  index (Section 3 of the paper).
* :class:`~repro.index.rtree.RTree` — object and edge index with the
  best-first traversals the skyline algorithms need (Sections 4.2, 4.3).
"""

from repro.index.bptree import DEFAULT_ORDER, BPlusTree
from repro.index.heap import AddressableHeap
from repro.index.rtree import DEFAULT_MAX_ENTRIES, RTree

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_ORDER",
    "AddressableHeap",
    "BPlusTree",
    "RTree",
]
