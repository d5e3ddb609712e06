"""Structural invariant checkers for the index and network substrates.

Each function raises ``AssertionError`` on the first breach it finds
and returns None otherwise.  Property tests call them after every
mutation; the library itself never does, so they live beside the
tests rather than in ``src``.
"""

from __future__ import annotations

import math
from typing import Any

from repro.index.bptree import BPlusTree, _Internal, _Leaf, _Node
from repro.index.heap import AddressableHeap
from repro.index.rtree import RTree, _RTreeNode
from repro.network.graph import _LENGTH_SLACK, RoadNetwork


def check_rtree(tree: RTree) -> None:
    """Node fill bounds, MBR containment, equal leaf depth, entry count."""
    leaf_depths: set[int] = set()
    seen = 0

    def recurse(node: _RTreeNode, depth: int) -> None:
        nonlocal seen
        entry_count = len(node.entries)
        if node is not tree._root and not tree._min <= entry_count <= tree._max:
            raise AssertionError(
                f"node fill {len(node.entries)} outside [{tree._min}, {tree._max}]"
            )
        if node is tree._root and len(node.entries) > tree._max:
            raise AssertionError("root overflow escaped splitting")
        if node.is_leaf:
            leaf_depths.add(depth)
            seen += len(node.entries)
            return
        for rect, child in node.entries:
            if not isinstance(child, _RTreeNode):
                raise AssertionError("internal entry without child node")
            if not rect.contains(child.mbr()):
                raise AssertionError(
                    f"parent MBR {rect} does not contain child {child.mbr()}"
                )
            recurse(child, depth + 1)

    recurse(tree._root, 0)
    if len(leaf_depths) > 1:
        raise AssertionError(f"leaves at different depths: {leaf_depths}")
    if seen != tree._size:
        raise AssertionError(f"entry count {seen} != recorded size {tree._size}")


def rtree_entries(tree: RTree) -> list[tuple[Any, Any]]:
    """Every leaf entry, read straight off the nodes (charges no page)."""
    entries: list[tuple[Any, Any]] = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            entries.extend(node.entries)
        else:
            stack.extend(child for _, child in node.entries)
    return entries


def check_bptree(tree: BPlusTree) -> None:
    """Sorted keys within separator bounds, equal leaf depth, and a leaf
    chain that visits every key once, in order, and holds every value."""
    leaf_depths: set[int] = set()

    def recurse(node: _Node, depth: int, low: Any, high: Any) -> None:
        if node is not tree._root and len(node.keys) > tree._order:
            raise AssertionError("node overflow escaped splitting")
        if node.keys != sorted(node.keys):
            raise AssertionError(f"unsorted keys in node: {node.keys}")
        for key in node.keys:
            if low is not None and key < low:
                raise AssertionError(f"key {key!r} below separator {low!r}")
            if high is not None and key >= high and isinstance(node, _Internal):
                raise AssertionError(f"separator {key!r} >= bound {high!r}")
            if high is not None and key > high and isinstance(node, _Leaf):
                raise AssertionError(f"leaf key {key!r} above bound {high!r}")
        if isinstance(node, _Internal):
            if len(node.children) != len(node.keys) + 1:
                raise AssertionError("internal child/key count mismatch")
            bounds = [low, *node.keys, high]
            for i, child in enumerate(node.children):
                recurse(child, depth + 1, bounds[i], bounds[i + 1])
        else:
            assert isinstance(node, _Leaf)
            if len(node.buckets) != len(node.keys):
                raise AssertionError("leaf bucket/key count mismatch")
            leaf_depths.add(depth)

    recurse(tree._root, 0, None, None)
    if len(leaf_depths) > 1:
        raise AssertionError(f"leaves at different depths: {leaf_depths}")
    leaf = tree._root
    while isinstance(leaf, _Internal):
        leaf = leaf.children[0]
    chained: list[Any] = []
    stored = 0
    while leaf is not None:
        chained.extend(leaf.keys)
        stored += sum(len(bucket) for bucket in leaf.buckets)
        leaf = leaf.next_leaf
    if any(a >= b for a, b in zip(chained, chained[1:])):
        raise AssertionError("leaf chain out of order or repeats a key")
    if stored != tree._size:
        raise AssertionError(
            f"leaf chain holds {stored} values, expected {tree._size}"
        )


def check_heap(heap: AddressableHeap) -> None:
    """The heap order on ``(priority, counter)`` and a live map that
    points at listed entries."""
    entries = heap._entries
    for i in range(1, len(entries)):
        parent = (i - 1) >> 1
        p, c = entries[parent], entries[i]
        if (p[0], p[1]) > (c[0], c[1]):
            raise AssertionError(f"heap violated at {i}: {p} > {c}")
    listed = {id(entry) for entry in entries}
    for item, entry in heap._live.items():
        if entry[2] != item or id(entry) not in listed:
            raise AssertionError(f"live entry lost for {item!r}")


def check_network(network: RoadNetwork) -> None:
    """Edges join existing junctions with finite lengths no shorter
    than their chords, and every adjacency entry matches its edge."""
    for edge in network.edges():
        if not (network.has_node(edge.u) and network.has_node(edge.v)):
            raise AssertionError(f"edge {edge.edge_id} references missing node")
        chord = network.node_point(edge.u).distance_to(network.node_point(edge.v))
        if edge.length < chord - _LENGTH_SLACK * max(1.0, chord):
            raise AssertionError(f"edge {edge.edge_id} shorter than its chord")
        if not math.isfinite(edge.length) or edge.length <= 0:
            raise AssertionError(f"edge {edge.edge_id} has bad length")
    edge_ids = set(network.edge_ids())
    for node_id in network.node_ids():
        for neighbor, edge_id in network.neighbors(node_id):
            if edge_id not in edge_ids:
                raise AssertionError(f"adjacency references missing edge {edge_id}")
            edge = network.edge(edge_id)
            if (edge.u, edge.v) not in ((node_id, neighbor), (neighbor, node_id)):
                raise AssertionError(
                    f"adjacency of node {node_id} inconsistent with edge {edge_id}"
                )
