"""Unit and property tests for the B+-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import BPlusTree
from repro.storage import NodePager

from invariants import check_bptree


class TestBPlusTreeBasics:
    def test_empty_tree(self):
        tree = BPlusTree(order=4)
        assert len(tree) == 0
        assert tree.search(1) == []
        assert not tree.contains(1)
        assert tree.height() == 1

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "five")
        tree.insert(3, "three")
        assert tree.search(5) == ["five"]
        assert tree.search(3) == ["three"]
        assert tree.search(4) == []

    def test_duplicate_keys_bucket(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.search(1) == ["a", "b"]
        assert len(tree) == 2

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_split_grows_height(self):
        tree = BPlusTree(order=3)
        for i in range(20):
            tree.insert(i, i)
        assert tree.height() >= 2
        check_bptree(tree)

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        for key in [5, 1, 9, 3, 7]:
            tree.insert(key, key * 10)
        assert [k for k, _ in tree.items()] == [1, 3, 5, 7, 9]

    def test_keys_distinct(self):
        tree = BPlusTree(order=4)
        for key in [2, 2, 1, 3, 3, 3]:
            tree.insert(key, key)
        check_bptree(tree)  # the leaf chain holds each key once
        assert [k for k, _ in tree.items()] == [1, 2, 2, 3, 3, 3]


class TestBulkLoad:
    def test_bulk_load_small(self):
        tree = BPlusTree.bulk_load([(2, "b"), (1, "a")], order=4)
        assert tree.search(1) == ["a"]
        assert tree.search(2) == ["b"]
        check_bptree(tree)

    def test_bulk_load_empty(self):
        tree = BPlusTree.bulk_load([], order=4)
        assert len(tree) == 0

    def test_bulk_load_large_matches_inserts(self):
        rng = random.Random(1)
        pairs = [(rng.randrange(500), i) for i in range(1000)]
        bulk = BPlusTree.bulk_load(pairs, order=8)
        check_bptree(bulk)
        incremental = BPlusTree(order=8)
        for key, value in pairs:
            incremental.insert(key, value)
        check_bptree(incremental)
        for key in range(500):
            assert sorted(bulk.search(key)) == sorted(incremental.search(key))

    def test_bulk_load_supports_later_inserts(self):
        tree = BPlusTree.bulk_load([(i, i) for i in range(100)], order=6)
        tree.insert(1000, "late")
        check_bptree(tree)
        assert tree.search(1000) == ["late"]


class TestPagedBPlusTree:
    def test_search_charges_pages(self):
        pager = NodePager()
        tree = BPlusTree.bulk_load(
            [(i, i) for i in range(500)], order=8, pager=pager
        )
        before = pager.stats.logical_reads
        tree.search(250)
        after = pager.stats.logical_reads
        # One page per level, at least root + leaf.
        assert after - before >= 2
        assert after - before <= tree.height()

    def test_deeper_tree_costs_more_pages(self):
        flat_pager, deep_pager = NodePager(), NodePager()
        pairs = [(i, i) for i in range(800)]
        flat = BPlusTree.bulk_load(pairs, order=128, pager=flat_pager)
        deep = BPlusTree.bulk_load(pairs, order=4, pager=deep_pager)
        flat_pager.pool.reset_stats()
        deep_pager.pool.reset_stats()
        flat.search(400)
        deep.search(400)
        assert (
            deep_pager.stats.logical_reads > flat_pager.stats.logical_reads
        )


class TestBPlusTreeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=200), st.integers()),
            max_size=300,
        ),
        st.integers(min_value=3, max_value=12),
    )
    def test_matches_dict_model(self, pairs, order):
        tree = BPlusTree(order=order)
        model: dict[int, list[int]] = {}
        for key, value in pairs:
            tree.insert(key, value)
            model.setdefault(key, []).append(value)
        check_bptree(tree)
        for key in range(0, 201, 7):
            assert tree.search(key) == model.get(key, [])
        assert [k for k, _ in tree.items()] == sorted(k for k, _ in pairs)
        assert len(tree) == sum(len(v) for v in model.values())
