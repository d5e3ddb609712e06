"""An R-tree built from scratch (Guttman insertion, STR bulk load).

The paper indexes both the data-object set and the network-edge MBRs
with R-trees.  Three traversal styles are needed:

* pruned region traversal (:meth:`RTree.traverse`; EDC step 3's
  union-of-hypercubes retrieval);
* best-first incremental search with an arbitrary priority key — this
  yields single-point NN, the *aggregate* NN used by the Euclidean
  multi-source skyline (heap ordered by the sum of distances to all
  query points, Section 4.2), and LBC's constrained NN of the source
  query point (Section 4.3, step 1.1);
* the same best-first search with a caller-supplied *pruning* predicate,
  which is how dominance pruning against known skyline points skips
  whole subtrees.

The last two are one generic :meth:`RTree.best_first`; the
convenience wrapper :meth:`nearest` builds on it.  An optional
:class:`~repro.storage.binding.NodePager` charges a page access per node
visited.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator

from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.obs import tracing
from repro.storage.binding import NodePager

DEFAULT_MAX_ENTRIES = 32
"""Default node fanout; ~32 (MBR, pointer) entries fit a 4 KiB page."""


class _RTreeNode:
    """A node: leaf nodes store payload entries, internal nodes children."""

    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        # Leaf: list of (MBR, payload).  Internal: list of (MBR, _RTreeNode).
        self.entries: list[tuple[MBR, Any]] = []

    def mbr(self) -> MBR:
        return MBR.union_all(rect for rect, _ in self.entries)


class RTree:
    """A dynamic R-tree over ``(MBR, payload)`` entries."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
        pager: NodePager | None = None,
    ) -> None:
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        if min_entries is None:
            min_entries = max(2, max_entries * 2 // 5)
        if not 2 <= min_entries <= max_entries // 2:
            raise ValueError(
                f"min_entries must be in [2, {max_entries // 2}], got {min_entries}"
            )
        self._max = max_entries
        self._min = min_entries
        self._pager = pager
        self._root = _RTreeNode(is_leaf=True)
        self._size = 0
        if pager is not None:
            pager.register(id(self._root))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def insert(self, mbr: MBR, payload: Any) -> None:
        """Insert one entry (Guttman: least-enlargement descent)."""
        split = self._insert_into(self._root, mbr, payload, self._leaf_level())
        if split is not None:
            left, right = split
            new_root = _RTreeNode(is_leaf=False)
            new_root.entries = [(left.mbr(), left), (right.mbr(), right)]
            self._root = new_root
            if self._pager is not None:
                self._pager.register(id(new_root))
        self._size += 1

    def insert_point(self, point: Point, payload: Any) -> None:
        """Insert a point entry (zero-area MBR)."""
        self.insert(MBR.from_point(point), payload)

    def _leaf_level(self) -> int:
        level = 0
        node = self._root
        while not node.is_leaf:
            node = node.entries[0][1]
            level += 1
        return level

    def _insert_into(
        self, node: _RTreeNode, mbr: MBR, payload: Any, levels_left: int
    ) -> tuple[_RTreeNode, _RTreeNode] | None:
        self._touch(node)
        if levels_left == 0:
            if not node.is_leaf:
                raise AssertionError("descended past the leaf level")
            node.entries.append((mbr, payload))
            if len(node.entries) > self._max:
                return self._split(node)
            return None

        best_index = self._choose_subtree(node, mbr)
        child = node.entries[best_index][1]
        split = self._insert_into(child, mbr, payload, levels_left - 1)
        if split is None:
            node.entries[best_index] = (
                node.entries[best_index][0].union(mbr),
                child,
            )
            return None
        left, right = split
        node.entries[best_index] = (left.mbr(), left)
        node.entries.append((right.mbr(), right))
        if len(node.entries) > self._max:
            return self._split(node)
        return None

    def _choose_subtree(self, node: _RTreeNode, mbr: MBR) -> int:
        best_index = 0
        best_enlargement = float("inf")
        best_area = float("inf")
        for i, (rect, _) in enumerate(node.entries):
            enlargement = rect.enlargement(mbr)
            area = rect.area
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and area < best_area
            ):
                best_index = i
                best_enlargement = enlargement
                best_area = area
        return best_index

    def _split(self, node: _RTreeNode) -> tuple[_RTreeNode, _RTreeNode]:
        """Guttman's quadratic split."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a = entries[seed_a][0]
        mbr_b = entries[seed_b][0]
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]

        while remaining:
            # Force assignment when a group must take all leftovers to
            # reach the minimum fill.
            if len(group_a) + len(remaining) == self._min:
                for entry in remaining:
                    group_a.append(entry)
                    mbr_a = mbr_a.union(entry[0])
                remaining = []
                break
            if len(group_b) + len(remaining) == self._min:
                for entry in remaining:
                    group_b.append(entry)
                    mbr_b = mbr_b.union(entry[0])
                remaining = []
                break
            index, prefer_a = self._pick_next(remaining, mbr_a, mbr_b)
            entry = remaining.pop(index)
            if prefer_a:
                group_a.append(entry)
                mbr_a = mbr_a.union(entry[0])
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry[0])

        node.entries = group_a
        sibling = _RTreeNode(is_leaf=node.is_leaf)
        sibling.entries = group_b
        if self._pager is not None:
            self._pager.register(id(sibling))
        return (node, sibling)

    @staticmethod
    def _pick_seeds(entries: list[tuple[MBR, Any]]) -> tuple[int, int]:
        worst_pair = (0, 1)
        worst_waste = float("-inf")
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                combined = entries[i][0].union(entries[j][0])
                waste = combined.area - entries[i][0].area - entries[j][0].area
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (i, j)
        return worst_pair

    @staticmethod
    def _pick_next(
        remaining: list[tuple[MBR, Any]], mbr_a: MBR, mbr_b: MBR
    ) -> tuple[int, bool]:
        best_index = 0
        best_diff = float("-inf")
        prefer_a = True
        for i, (rect, _) in enumerate(remaining):
            cost_a = mbr_a.union(rect).area - mbr_a.area
            cost_b = mbr_b.union(rect).area - mbr_b.area
            diff = abs(cost_a - cost_b)
            if diff > best_diff:
                best_diff = diff
                best_index = i
                prefer_a = cost_a < cost_b
        return (best_index, prefer_a)

    # ------------------------------------------------------------------
    # Deletion (Guttman: find leaf, condense tree, reinsert orphans)
    # ------------------------------------------------------------------
    def delete(self, mbr: MBR, payload: Any) -> bool:
        """Remove the entry matching ``(mbr, payload)``; True if found.

        Under-full nodes along the path are dissolved and their leaf
        entries reinserted (the standard CondenseTree simplification:
        orphaned subtrees reinsert at leaf granularity).
        """
        path: list[tuple[_RTreeNode, int]] = []

        def find(node: _RTreeNode) -> bool:
            self._touch(node)
            if node.is_leaf:
                for i, (rect, item) in enumerate(node.entries):
                    if item == payload and rect == mbr:
                        path.append((node, i))
                        return True
                return False
            for i, (rect, child) in enumerate(node.entries):
                if rect.contains(mbr):
                    path.append((node, i))
                    if find(child):
                        return True
                    path.pop()
            return False

        if not self._root.entries or not find(self._root):
            return False

        leaf, entry_index = path[-1]
        del leaf.entries[entry_index]
        self._size -= 1

        # Condense: dissolve under-full non-root nodes bottom-up,
        # collecting the leaf entries beneath them for reinsertion.
        orphans: list[tuple[MBR, Any]] = []
        for depth in range(len(path) - 2, -1, -1):
            parent, child_index = path[depth]
            child = parent.entries[child_index][1]
            if len(child.entries) < self._min:
                del parent.entries[child_index]
                orphans.extend(self._collect_leaf_entries(child))
                if self._pager is not None:
                    self._pager.forget(id(child))
            else:
                parent.entries[child_index] = (child.mbr(), child)

        # Shrink a root that degenerated to a single internal child.
        while (
            not self._root.is_leaf
            and len(self._root.entries) == 1
        ):
            old_root = self._root
            self._root = self._root.entries[0][1]
            if self._pager is not None:
                self._pager.forget(id(old_root))

        self._size -= len(orphans)
        for orphan_mbr, orphan_payload in orphans:
            self.insert(orphan_mbr, orphan_payload)
        return True

    def delete_point(self, point: Point, payload: Any) -> bool:
        """Remove a point entry inserted with :meth:`insert_point`."""
        return self.delete(MBR.from_point(point), payload)

    def _collect_leaf_entries(self, node: _RTreeNode) -> list[tuple[MBR, Any]]:
        if node.is_leaf:
            return list(node.entries)
        collected: list[tuple[MBR, Any]] = []
        for _, child in node.entries:
            collected.extend(self._collect_leaf_entries(child))
            if self._pager is not None:
                self._pager.forget(id(child))
        return collected

    # ------------------------------------------------------------------
    # Bulk load (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        items: Iterable[tuple[MBR, Any]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
        pager: NodePager | None = None,
    ) -> "RTree":
        """Build a packed tree with the STR algorithm.

        STR yields near-square leaf MBRs with full occupancy — the right
        construction for the static object sets and edge sets of the
        experiments.
        """
        tree = cls(max_entries=max_entries, pager=pager)
        entries = list(items)
        if not entries:
            return tree
        fill = max(2, max_entries * 3 // 4)

        def pack(level: list[tuple[MBR, Any]], is_leaf: bool) -> list[tuple[MBR, Any]]:
            import math

            count = len(level)
            slice_count = max(1, math.ceil(math.sqrt(math.ceil(count / fill))))
            per_slice = math.ceil(count / slice_count)
            level.sort(key=lambda e: (e[0].center.x, e[0].center.y))
            parents: list[tuple[MBR, Any]] = []
            for s in range(0, count, per_slice):
                tile = level[s : s + per_slice]
                tile.sort(key=lambda e: (e[0].center.y, e[0].center.x))
                groups = [tile[t : t + fill] for t in range(0, len(tile), fill)]
                # Rebalance a short trailing group so every non-root node
                # meets the tree's minimum fill.
                if len(groups) >= 2 and len(groups[-1]) < tree._min:
                    deficit = tree._min - len(groups[-1])
                    groups[-1] = groups[-2][-deficit:] + groups[-1]
                    groups[-2] = groups[-2][:-deficit]
                for group in groups:
                    node = _RTreeNode(is_leaf=is_leaf)
                    node.entries = group
                    if pager is not None:
                        pager.register(id(node))
                    parents.append((node.mbr(), node))
            return parents

        level = pack(entries, is_leaf=True)
        while len(level) > 1:
            level = pack(level, is_leaf=False)
        root = level[0][1]
        assert isinstance(root, _RTreeNode)
        tree._root = root
        tree._size = len(entries)
        return tree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _touch(self, node: _RTreeNode) -> None:
        if self._pager is not None:
            tracing.record("rtree_nodes")
            self._pager.touch(id(node))

    def traverse(
        self, descend: Callable[[MBR, Any | None], bool]
    ) -> Iterator[tuple[MBR, Any]]:
        """Pruned depth-first traversal.

        ``descend(mbr, payload)`` decides whether an entry is worth
        visiting (``payload`` is None for internal entries); leaf
        entries that pass are yielded.  Used for non-rectangular region
        queries such as EDC's union-of-hypercubes fetch, where the
        region lives in distance space rather than coordinate space.
        """
        if not self._root.entries:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            self._touch(node)
            for rect, child in node.entries:
                if node.is_leaf:
                    if descend(rect, child):
                        yield (rect, child)
                elif descend(rect, None):
                    stack.append(child)

    def best_first(
        self,
        key: Callable[[MBR, Any | None], float],
        prune: Callable[[MBR, Any | None], bool] | None = None,
    ) -> Iterator[tuple[float, MBR, Any]]:
        """Generic best-first traversal.

        ``key(mbr, payload)`` must be a *lower bound* that never
        decreases from parent to child (``payload`` is None for internal
        entries); results then stream in non-decreasing key order.
        ``prune(mbr, payload)`` may discard any entry (and with it the
        subtree below); it is evaluated lazily at pop time, so pruning
        predicates that grow stronger over time (e.g. dominance against
        an expanding skyline set) take full effect.

        Yields ``(key_value, mbr, payload)`` for leaf entries only.
        """
        if not self._root.entries:
            return
        counter = 0
        root_mbr = self._root.mbr()
        heap: list[tuple[float, int, MBR, Any, bool]] = []
        heapq.heappush(
            heap, (key(root_mbr, None), counter, root_mbr, self._root, False)
        )
        while heap:
            value, _, mbr, item, is_data = heapq.heappop(heap)
            if prune is not None and prune(mbr, item if is_data else None):
                continue
            if is_data:
                yield (value, mbr, item)
                continue
            node: _RTreeNode = item
            self._touch(node)
            for rect, child in node.entries:
                child_is_data = node.is_leaf
                child_value = key(rect, child if child_is_data else None)
                if prune is not None and prune(rect, child if child_is_data else None):
                    continue
                counter += 1
                heapq.heappush(heap, (child_value, counter, rect, child, child_is_data))

    def nearest(
        self,
        point: Point,
        prune: Callable[[MBR, Any | None], bool] | None = None,
    ) -> Iterator[tuple[float, MBR, Any]]:
        """Incremental nearest-neighbour stream ordered by ``mindist``."""
        return self.best_first(lambda mbr, _payload: mbr.mindist(point), prune)
