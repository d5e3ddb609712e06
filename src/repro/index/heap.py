"""An addressable min-heap with decrease-key, on the C ``heapq`` functions.

Both Dijkstra's algorithm and A* maintain a wavefront where a node's
tentative distance can improve while it is already enqueued.  This heap
keeps ``(priority, counter, item)`` entries in a plain list ordered by
``heapq`` and uses *lazy invalidation* for decrease-key: changing an
item's priority pushes a fresh entry and repoints a dict from the item
to its live entry.  The entry left behind is stale; ``pop``, ``peek``
and ``min_priority`` discard stale entries when they surface at the top
(an identity check against the dict), and ``remove`` only drops the
item's dict slot.  Length, truthiness and membership read the dict, so
stale entries are invisible through the API.

There is no compaction.  Stale entries come from re-keys and removals;
the wavefronts only ever lower a key, and on road networks that is
rare: over the paper workloads' query populations the largest heap
held 146 entries, and no heap over 64 entries held more than 1.18
entries per live item.

Ordering contract (experiments must be reproducible):

* pops come out in ascending ``(priority, counter)``;
* ``counter`` is the item's insertion number — ``push`` (and ``update``
  of an absent item) draws a fresh one, ``update``, ``decrease_key`` and
  ``push_or_decrease`` keep it;
* :meth:`AddressableHeap.from_items` numbers its items in list order.

No two live entries share a counter, so the ``(priority, counter)`` keys
are a total order and the pop sequence depends only on the operations
performed, not on the list layout.  ``tests/reference_heap.py`` keeps a
sift-based heap with the same contract, and the differential tests
require both to drive every search identically.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Generic, Hashable, Iterator, TypeVar

T = TypeVar("T", bound=Hashable)


class AddressableHeap(Generic[T]):
    """Binary min-heap over hashable items with updatable priorities."""

    __slots__ = ("_counter", "_entries", "_live")

    def __init__(self) -> None:
        self._entries: list[tuple[float, int, T]] = []
        self._live: dict[T, tuple[float, int, T]] = {}
        self._counter = 0

    @classmethod
    def from_items(cls, items: "list[tuple[T, float]]") -> "AddressableHeap[T]":
        """Build a heap from ``(item, priority)`` pairs in O(n) (heapify).

        Much cheaper than n pushes; used by the resumable A* searches
        that re-key a large frontier for every new destination.
        """
        heap: AddressableHeap[T] = cls()
        entries = [
            (priority, counter, item)
            for counter, (item, priority) in enumerate(items)
        ]
        live = {entry[2]: entry for entry in entries}
        if len(live) != len(entries):
            seen: set[T] = set()
            for _, _, item in entries:
                if item in seen:
                    raise KeyError(f"duplicate item {item!r}")
                seen.add(item)
        heapify(entries)
        heap._entries = entries
        heap._live = live
        heap._counter = len(entries)
        return heap

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, item: T) -> bool:
        return item in self._live

    def push(self, item: T, priority: float) -> None:
        """Insert a new item; raises if the item is already enqueued."""
        if item in self._live:
            raise KeyError(f"item {item!r} already in heap; use update()")
        entry = (priority, self._counter, item)
        self._counter += 1
        self._live[item] = entry
        heappush(self._entries, entry)

    def _top(self) -> tuple[float, int, T]:
        """The live entry with minimal key, after discarding stale ones."""
        entries = self._entries
        live = self._live
        while True:
            entry = entries[0]
            if live.get(entry[2]) is entry:
                return entry
            heappop(entries)

    def pop(self) -> tuple[T, float]:
        """Remove and return ``(item, priority)`` with minimal priority."""
        if not self._live:
            raise IndexError("pop from an empty heap")
        entries = self._entries
        live = self._live
        while True:
            entry = heappop(entries)
            item = entry[2]
            if live.get(item) is entry:
                del live[item]
                return (item, entry[0])

    def peek(self) -> tuple[T, float]:
        """``(item, priority)`` with minimal priority, without removal."""
        if not self._live:
            raise IndexError("peek at an empty heap")
        priority, _, item = self._top()
        return (item, priority)

    def min_priority(self) -> float:
        """The smallest priority currently enqueued."""
        if not self._live:
            raise IndexError("min_priority of an empty heap")
        return self._top()[0]

    def priority_of(self, item: T) -> float:
        """The current priority of an enqueued item."""
        return self._live[item][0]

    def _rekey(self, item: T, priority: float, counter: int) -> None:
        entry = (priority, counter, item)
        self._live[item] = entry
        heappush(self._entries, entry)

    def decrease_key(self, item: T, priority: float) -> None:
        """Lower an item's priority; raises if it would increase."""
        current, counter, _ = self._live[item]
        if priority > current:
            raise ValueError(
                f"decrease_key would raise priority of {item!r}: "
                f"{current} -> {priority}"
            )
        self._rekey(item, priority, counter)

    def update(self, item: T, priority: float) -> None:
        """Set an item's priority in either direction, inserting if new."""
        entry = self._live.get(item)
        if entry is None:
            self.push(item, priority)
        else:
            self._rekey(item, priority, entry[1])

    def push_or_decrease(self, item: T, priority: float) -> bool:
        """Insert, or lower an existing priority; ignore worse priorities.

        Returns True when the heap changed.  This is the exact relaxation
        step of Dijkstra/A*: a longer rediscovered path is a no-op.
        """
        entry = self._live.get(item)
        if entry is None:
            self.push(item, priority)
            return True
        if priority < entry[0]:
            self._rekey(item, priority, entry[1])
            return True
        return False

    def remove(self, item: T) -> float:
        """Remove an arbitrary enqueued item, returning its priority."""
        return self._live.pop(item)[0]

    def items(self) -> Iterator[tuple[T, float]]:
        """All enqueued ``(item, priority)`` pairs in arbitrary order."""
        for priority, _, item in self._live.values():
            yield (item, priority)

    def clear(self) -> None:
        self._entries.clear()
        self._live.clear()
