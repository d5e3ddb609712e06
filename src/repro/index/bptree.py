"""A B+-tree with duplicate-key buckets and leaf chaining.

The paper's *middle layer* (Section 3) maps network edges to the data
objects lying on them and is "indexed using a B+-tree on edge ids" so
that, while a wavefront visits an edge, the objects on that edge can be
fetched cheaply.  This module provides that index, built from scratch:

* internal nodes route by separator keys;
* leaves hold ``key -> [values]`` buckets and are chained for full
  scans;
* an optional :class:`~repro.storage.binding.NodePager` charges one page
  access per node visited, so middle-layer lookups show up in the I/O
  statistics exactly like the paper's storage scheme.

Keys may be anything totally ordered (edge ids are ints).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Generic, Iterable, Iterator, TypeVar

from repro.obs import tracing
from repro.storage.binding import NodePager

K = TypeVar("K")
V = TypeVar("V")

DEFAULT_ORDER = 64
"""Default maximum number of keys per node.

A 4 KiB page holds roughly 64 (edge-id, pointer) pairs once headers and
per-entry object lists are accounted for; tests exercise small orders to
force deep trees.
"""


class _Node:
    """Base class carrying the identity used for page binding."""

    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list[Any] = []


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: list[_Node] = []


class _Leaf(_Node):
    __slots__ = ("buckets", "next_leaf")

    def __init__(self) -> None:
        super().__init__()
        self.buckets: list[list[Any]] = []
        self.next_leaf: "_Leaf | None" = None


class BPlusTree(Generic[K, V]):
    """An in-memory B+-tree with simulated-disk accounting."""

    def __init__(
        self, order: int = DEFAULT_ORDER, pager: NodePager | None = None
    ) -> None:
        if order < 3:
            raise ValueError(f"order must be at least 3, got {order}")
        self._order = order
        self._pager = pager
        self._root: _Node = _Leaf()
        self._size = 0
        if pager is not None:
            pager.register(id(self._root))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        return self._order

    def __len__(self) -> int:
        """Total number of stored values (not distinct keys)."""
        return self._size

    def height(self) -> int:
        """Number of levels (1 for a lone leaf)."""
        height = 1
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
            height += 1
        return height

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _touch(self, node: _Node) -> None:
        if self._pager is not None:
            tracing.record("bptree_nodes")
            self._pager.touch(id(node))

    def _descend_to_leaf(self, key: K) -> _Leaf:
        node = self._root
        self._touch(node)
        while isinstance(node, _Internal):
            index = bisect_right(node.keys, key)
            node = node.children[index]
            self._touch(node)
        assert isinstance(node, _Leaf)
        return node

    def search(self, key: K) -> list[V]:
        """All values stored under ``key`` (empty list when absent)."""
        leaf = self._descend_to_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.buckets[index])
        return []

    def contains(self, key: K) -> bool:
        """True if at least one value is stored under ``key``."""
        leaf = self._descend_to_leaf(key)
        index = bisect_left(leaf.keys, key)
        return index < len(leaf.keys) and leaf.keys[index] == key

    def items(self) -> Iterator[tuple[K, V]]:
        """Every ``(key, value)`` pair in key order (full leaf scan)."""
        node = self._root
        self._touch(node)
        while isinstance(node, _Internal):
            node = node.children[0]
            self._touch(node)
        leaf: _Leaf | None = node  # type: ignore[assignment]
        while leaf is not None:
            for key, bucket in zip(leaf.keys, leaf.buckets):
                for value in bucket:
                    yield (key, value)
            leaf = leaf.next_leaf
            if leaf is not None:
                self._touch(leaf)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: K, value: V) -> None:
        """Store ``value`` under ``key`` (duplicates append to the bucket)."""
        split = self._insert_into(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            if self._pager is not None:
                self._pager.register(id(new_root))
        self._size += 1

    def _insert_into(
        self, node: _Node, key: K, value: V
    ) -> tuple[Any, _Node] | None:
        self._touch(node)
        if isinstance(node, _Leaf):
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.buckets[index].append(value)
                return None
            node.keys.insert(index, key)
            node.buckets.insert(index, [value])
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None

        assert isinstance(node, _Internal)
        child_index = bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right)
        if len(node.keys) > self._order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.buckets = leaf.buckets[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.buckets = leaf.buckets[:mid]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        if self._pager is not None:
            self._pager.register(id(right))
        return (right.keys[0], right)

    def _split_internal(self, node: _Internal) -> tuple[Any, _Internal]:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        if self._pager is not None:
            self._pager.register(id(right))
        return (separator, right)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, key: K, value: V | None = None) -> int:
        """Remove ``value`` from ``key``'s bucket (or the whole bucket).

        Returns the number of values removed (0 when absent).  Deletion
        is *lazy*: leaves may become under-full and empty keys are
        dropped without merging pages — the strategy production B-trees
        use (reorganisation happens at rebuild time), and the right
        trade-off for this library's mostly-static workloads.  Internal
        separator keys are routing values and remain valid.
        """
        leaf = self._descend_to_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return 0
        bucket = leaf.buckets[index]
        if value is None:
            removed = len(bucket)
            bucket.clear()
        else:
            before = len(bucket)
            # Remove one matching occurrence, as insert appends one.
            try:
                bucket.remove(value)
            except ValueError:
                return 0
            removed = before - len(bucket)
        if not bucket:
            del leaf.keys[index]
            del leaf.buckets[index]
        self._size -= removed
        return removed

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        pairs: Iterable[tuple[K, V]],
        order: int = DEFAULT_ORDER,
        pager: NodePager | None = None,
    ) -> "BPlusTree[K, V]":
        """Build a tree from (not necessarily sorted) pairs.

        Sorted input is packed leaf by leaf, giving a tree with ~100 %
        leaf occupancy — the natural choice for the middle layer, which
        is built once per dataset.
        """
        tree: BPlusTree[K, V] = cls(order=order, pager=pager)
        grouped: dict[Any, list[V]] = {}
        for key, value in pairs:
            grouped.setdefault(key, []).append(value)
        if not grouped:
            return tree

        fill = max(2, (order + 1) * 3 // 4)
        leaves: list[_Leaf] = []
        current = _Leaf()
        for key in sorted(grouped):
            if len(current.keys) >= fill:
                leaves.append(current)
                nxt = _Leaf()
                current.next_leaf = nxt
                current = nxt
            current.keys.append(key)
            current.buckets.append(grouped[key])
            tree._size += len(grouped[key])
        leaves.append(current)

        level: list[_Node] = list(leaves)
        separators = [leaf.keys[0] for leaf in leaves]
        while len(level) > 1:
            parents: list[_Node] = []
            parent_separators: list[Any] = []
            i = 0
            while i < len(level):
                group = level[i : i + fill]
                seps = separators[i : i + fill]
                parent = _Internal()
                parent.children = list(group)
                parent.keys = seps[1:]
                parents.append(parent)
                parent_separators.append(seps[0])
                i += fill
            level = parents
            separators = parent_separators
        tree._root = level[0]
        if pager is not None:
            for node in tree._walk_nodes():
                pager.register(id(node))
        return tree

    def _walk_nodes(self) -> Iterator[_Node]:
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, _Internal):
                stack.extend(node.children)
