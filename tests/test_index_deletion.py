"""Deletion tests for the B+-tree and R-tree."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.index import BPlusTree, RTree

from invariants import check_bptree, check_rtree, rtree_entries


class TestBPlusTreeDeletion:
    def test_delete_single_value(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "a") == 1
        assert tree.search(1) == ["b"]
        assert len(tree) == 1

    def test_delete_whole_bucket(self):
        tree = BPlusTree(order=4)
        for value in "abc":
            tree.insert(7, value)
        assert tree.delete(7) == 3
        assert tree.search(7) == []
        assert len(tree) == 0

    def test_delete_missing_key(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        assert tree.delete(2) == 0
        assert tree.delete(1, "zzz") == 0
        assert len(tree) == 1

    def test_delete_then_reinsert(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "x")
        tree.delete(5)
        tree.insert(5, "y")
        assert tree.search(5) == ["y"]
        check_bptree(tree)

    def test_delete_across_deep_tree(self):
        tree = BPlusTree(order=3)
        for i in range(100):
            tree.insert(i, i)
        for i in range(0, 100, 2):
            assert tree.delete(i) == 1
        assert [k for k, _ in tree.items()] == list(range(1, 100, 2))
        for i in range(1, 100, 2):
            assert tree.search(i) == [i]

    def test_range_search_after_deletes(self):
        tree = BPlusTree(order=4)
        for i in range(50):
            tree.insert(i, i)
        for i in range(10, 20):
            tree.delete(i)
        check_bptree(tree)
        got = [k for k, _ in tree.items()]
        assert got == [*range(10), *range(20, 50)]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=200,
        )
    )
    def test_matches_dict_model_under_mixed_ops(self, ops):
        tree = BPlusTree(order=4)
        model: dict[int, list[int]] = {}
        for op, key, value in ops:
            if op == "insert":
                tree.insert(key, value)
                model.setdefault(key, []).append(value)
            else:
                removed = tree.delete(key, value)
                bucket = model.get(key, [])
                expected = 1 if value in bucket else 0
                assert removed == expected
                if value in bucket:
                    bucket.remove(value)
                    if not bucket:
                        del model[key]
        for key in range(31):
            assert sorted(tree.search(key)) == sorted(model.get(key, []))
        assert len(tree) == sum(len(v) for v in model.values())


class TestRTreeDeletion:
    def _populated(self, count=120, seed=0, max_entries=5):
        rng = random.Random(seed)
        points = [Point(rng.random(), rng.random()) for _ in range(count)]
        tree = RTree(max_entries=max_entries)
        for i, p in enumerate(points):
            tree.insert_point(p, i)
        return tree, points

    def test_delete_existing(self):
        tree, points = self._populated()
        assert tree.delete_point(points[10], 10)
        assert len(tree) == 119
        assert 10 not in [p for _, p in rtree_entries(tree)]
        check_rtree(tree)

    def test_delete_missing_returns_false(self):
        tree, points = self._populated()
        assert not tree.delete_point(Point(55.0, 55.0), 999)
        assert len(tree) == 120

    def test_delete_wrong_payload_returns_false(self):
        tree, points = self._populated()
        assert not tree.delete_point(points[3], 999)
        assert len(tree) == 120

    def test_delete_everything(self):
        tree, points = self._populated(count=60)
        order = list(range(60))
        random.Random(1).shuffle(order)
        for i in order:
            assert tree.delete_point(points[i], i)
        assert len(tree) == 0
        assert rtree_entries(tree) == []

    def test_structure_valid_after_heavy_deletion(self):
        tree, points = self._populated(count=200, seed=2)
        rng = random.Random(3)
        victims = rng.sample(range(200), 150)
        for i in victims:
            assert tree.delete_point(points[i], i)
        check_rtree(tree)
        survivors = sorted(p for _, p in rtree_entries(tree))
        assert survivors == sorted(set(range(200)) - set(victims))

    def test_nearest_still_exact_after_deletion(self):
        tree, points = self._populated(count=150, seed=4)
        rng = random.Random(5)
        removed = set(rng.sample(range(150), 70))
        for i in removed:
            tree.delete_point(points[i], i)
        q = Point(0.5, 0.5)
        got = [i for _, _, i in tree.nearest(q)]
        expected = sorted(
            (i for i in range(150) if i not in removed),
            key=lambda i: (points[i].distance_to(q), i),
        )
        assert sorted(got) == sorted(expected)
        got_dists = [points[i].distance_to(q) for i in got]
        assert got_dists == sorted(got_dists)

    def test_delete_then_reinsert(self):
        tree, points = self._populated(count=40, seed=6)
        for i in range(20):
            tree.delete_point(points[i], i)
        for i in range(20):
            tree.insert_point(points[i], i)
        check_rtree(tree)
        assert len(tree) == 40

    def test_root_shrinks(self):
        tree, points = self._populated(count=100, seed=7, max_entries=4)
        for i in range(95):
            tree.delete_point(points[i], i)
        check_rtree(tree)
        assert len(tree) == 5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_interleaved_ops(self, seed):
        rng = random.Random(seed)
        tree = RTree(max_entries=4)
        alive: dict[int, Point] = {}
        next_id = 0
        for _ in range(rng.randrange(10, 80)):
            if alive and rng.random() < 0.4:
                victim = rng.choice(sorted(alive))
                assert tree.delete_point(alive.pop(victim), victim)
            else:
                p = Point(rng.random(), rng.random())
                tree.insert_point(p, next_id)
                alive[next_id] = p
                next_id += 1
        check_rtree(tree)
        assert sorted(p for _, p in rtree_entries(tree)) == sorted(alive)
