"""The sift-based addressable heap, kept as a test-only reference.

This is the pure-Python binary heap with a position map and true
``decrease_key`` that :class:`repro.index.heap.AddressableHeap` replaced.
Both honour one ordering contract — pops come out in ascending
``(priority, first-insertion counter)`` — so the differential tests swap
this class into the Dijkstra and A* modules and require the same settle
sequence, ``plb`` trace and object emissions as the production heap.
The class body is unchanged; do not optimise it.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

T = TypeVar("T", bound=Hashable)


class AddressableHeap(Generic[T]):
    """Binary min-heap over hashable items with updatable priorities."""

    __slots__ = ("_counter", "_entries", "_position")

    def __init__(self) -> None:
        self._entries: list[tuple[float, int, T]] = []
        self._position: dict[T, int] = {}
        self._counter = 0

    @classmethod
    def from_items(cls, items: "list[tuple[T, float]]") -> "AddressableHeap[T]":
        """Build a heap from ``(item, priority)`` pairs in O(n) (heapify).

        Much cheaper than n pushes; used by the resumable A* searches
        that re-key a large frontier for every new destination.
        """
        heap: AddressableHeap[T] = cls()
        entries = heap._entries
        for counter, (item, priority) in enumerate(items):
            if item in heap._position:
                raise KeyError(f"duplicate item {item!r}")
            entries.append((priority, counter, item))
            heap._position[item] = counter
        heap._counter = len(entries)
        for index in range(len(entries) // 2 - 1, -1, -1):
            heap._sift_down(index)
        return heap

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, item: T) -> bool:
        return item in self._position

    def push(self, item: T, priority: float) -> None:
        """Insert a new item; raises if the item is already enqueued."""
        if item in self._position:
            raise KeyError(f"item {item!r} already in heap; use update()")
        entry = (priority, self._counter, item)
        self._counter += 1
        self._entries.append(entry)
        self._position[item] = len(self._entries) - 1
        self._sift_up(len(self._entries) - 1)

    def pop(self) -> tuple[T, float]:
        """Remove and return ``(item, priority)`` with minimal priority."""
        if not self._entries:
            raise IndexError("pop from an empty heap")
        top = self._entries[0]
        last = self._entries.pop()
        del self._position[top[2]]
        if self._entries:
            self._entries[0] = last
            self._position[last[2]] = 0
            self._sift_down(0)
        return (top[2], top[0])

    def peek(self) -> tuple[T, float]:
        """``(item, priority)`` with minimal priority, without removal."""
        if not self._entries:
            raise IndexError("peek at an empty heap")
        priority, _, item = self._entries[0]
        return (item, priority)

    def min_priority(self) -> float:
        """The smallest priority currently enqueued."""
        if not self._entries:
            raise IndexError("min_priority of an empty heap")
        return self._entries[0][0]

    def priority_of(self, item: T) -> float:
        """The current priority of an enqueued item."""
        index = self._position[item]
        return self._entries[index][0]

    def decrease_key(self, item: T, priority: float) -> None:
        """Lower an item's priority; raises if it would increase."""
        index = self._position[item]
        current = self._entries[index][0]
        if priority > current:
            raise ValueError(
                f"decrease_key would raise priority of {item!r}: "
                f"{current} -> {priority}"
            )
        self._entries[index] = (priority, self._entries[index][1], item)
        self._sift_up(index)

    def update(self, item: T, priority: float) -> None:
        """Set an item's priority in either direction, inserting if new."""
        if item not in self._position:
            self.push(item, priority)
            return
        index = self._position[item]
        old = self._entries[index][0]
        self._entries[index] = (priority, self._entries[index][1], item)
        if priority < old:
            self._sift_up(index)
        elif priority > old:
            self._sift_down(index)

    def push_or_decrease(self, item: T, priority: float) -> bool:
        """Insert, or lower an existing priority; ignore worse priorities.

        Returns True when the heap changed.  This is the exact relaxation
        step of Dijkstra/A*: a longer rediscovered path is a no-op.
        """
        if item not in self._position:
            self.push(item, priority)
            return True
        index = self._position[item]
        if priority < self._entries[index][0]:
            self._entries[index] = (priority, self._entries[index][1], item)
            self._sift_up(index)
            return True
        return False

    def remove(self, item: T) -> float:
        """Remove an arbitrary enqueued item, returning its priority."""
        index = self._position.pop(item)
        entry = self._entries[index]
        last = self._entries.pop()
        if index < len(self._entries):
            self._entries[index] = last
            self._position[last[2]] = index
            self._sift_down(index)
            self._sift_up(index)
        return entry[0]

    def items(self) -> Iterator[tuple[T, float]]:
        """All enqueued ``(item, priority)`` pairs in arbitrary order."""
        for priority, _, item in self._entries:
            yield (item, priority)

    def clear(self) -> None:
        self._entries.clear()
        self._position.clear()

    # ------------------------------------------------------------------
    # Sift helpers
    # ------------------------------------------------------------------
    def _sift_up(self, index: int) -> None:
        entries = self._entries
        entry = entries[index]
        key = (entry[0], entry[1])
        while index > 0:
            parent = (index - 1) >> 1
            parent_entry = entries[parent]
            if (parent_entry[0], parent_entry[1]) <= key:
                break
            entries[index] = parent_entry
            self._position[parent_entry[2]] = index
            index = parent
        entries[index] = entry
        self._position[entry[2]] = index

    def _sift_down(self, index: int) -> None:
        entries = self._entries
        size = len(entries)
        entry = entries[index]
        key = (entry[0], entry[1])
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            right = child + 1
            if right < size:
                c, r = entries[child], entries[right]
                if (r[0], r[1]) < (c[0], c[1]):
                    child = right
            child_entry = entries[child]
            if key <= (child_entry[0], child_entry[1]):
                break
            entries[index] = child_entry
            self._position[child_entry[2]] = index
            index = child
        entries[index] = entry
        self._position[entry[2]] = index

    def validate(self) -> None:
        """Assert the heap invariant; used by property tests."""
        for i in range(1, len(self._entries)):
            parent = (i - 1) >> 1
            p, c = self._entries[parent], self._entries[i]
            if (p[0], p[1]) > (c[0], c[1]):
                raise AssertionError(f"heap violated at {i}: {p} > {c}")
        for item, index in self._position.items():
            if self._entries[index][2] != item:
                raise AssertionError(f"position map stale for {item!r}")
