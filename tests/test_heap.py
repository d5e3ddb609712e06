"""Unit and property tests for the addressable min-heap."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index import AddressableHeap

from invariants import check_heap

TIED_PRIORITIES = [0.0, 1.0, 2.0, math.inf]


class TestHeapBasics:
    def test_push_pop_single(self):
        heap = AddressableHeap()
        heap.push("a", 3.0)
        assert heap.pop() == ("a", 3.0)
        assert len(heap) == 0

    def test_pop_order(self):
        heap = AddressableHeap()
        for item, priority in [("c", 3), ("a", 1), ("b", 2)]:
            heap.push(item, priority)
        assert [heap.pop()[0] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_pop_in_insertion_order(self):
        heap = AddressableHeap()
        heap.push("first", 1.0)
        heap.push("second", 1.0)
        assert heap.pop()[0] == "first"
        assert heap.pop()[0] == "second"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            AddressableHeap().pop()

    def test_peek_does_not_remove(self):
        heap = AddressableHeap()
        heap.push("a", 1.0)
        assert heap.peek() == ("a", 1.0)
        assert len(heap) == 1

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            AddressableHeap().peek()

    def test_min_priority(self):
        heap = AddressableHeap()
        heap.push("a", 5.0)
        heap.push("b", 2.0)
        assert heap.min_priority() == 2.0

    def test_contains_and_priority_of(self):
        heap = AddressableHeap()
        heap.push("a", 1.5)
        assert "a" in heap
        assert "b" not in heap
        assert heap.priority_of("a") == 1.5

    def test_duplicate_push_raises(self):
        heap = AddressableHeap()
        heap.push("a", 1.0)
        with pytest.raises(KeyError):
            heap.push("a", 2.0)

    def test_clear(self):
        heap = AddressableHeap()
        heap.push("a", 1.0)
        heap.clear()
        assert not heap
        assert "a" not in heap


class TestHeapUpdates:
    def test_decrease_key_reorders(self):
        heap = AddressableHeap()
        heap.push("a", 5.0)
        heap.push("b", 3.0)
        heap.decrease_key("a", 1.0)
        assert heap.pop() == ("a", 1.0)

    def test_decrease_key_refuses_increase(self):
        heap = AddressableHeap()
        heap.push("a", 1.0)
        with pytest.raises(ValueError):
            heap.decrease_key("a", 2.0)

    def test_update_can_increase(self):
        heap = AddressableHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        heap.update("a", 3.0)
        assert heap.pop()[0] == "b"

    def test_update_inserts_missing(self):
        heap = AddressableHeap()
        heap.update("a", 1.0)
        assert heap.pop() == ("a", 1.0)

    def test_push_or_decrease_semantics(self):
        heap = AddressableHeap()
        assert heap.push_or_decrease("a", 5.0)
        assert heap.push_or_decrease("a", 3.0)
        assert not heap.push_or_decrease("a", 4.0)  # worse: ignored
        assert heap.priority_of("a") == 3.0

    def test_remove_arbitrary(self):
        heap = AddressableHeap()
        for item, priority in [("a", 1), ("b", 2), ("c", 3)]:
            heap.push(item, priority)
        assert heap.remove("b") == 2
        assert "b" not in heap
        assert [heap.pop()[0] for _ in range(2)] == ["a", "c"]

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            AddressableHeap().remove("x")

    def test_stale_entries_stay_invisible(self):
        heap = AddressableHeap()
        heap.push("a", 5.0)
        heap.push("b", 3.0)
        heap.decrease_key("a", 1.0)
        heap.update("b", 4.0)
        heap.remove("b")
        assert len(heap) == 1
        assert dict(heap.items()) == {"a": 1.0}
        assert heap.pop() == ("a", 1.0)
        assert not heap
        with pytest.raises(IndexError):
            heap.min_priority()

    def test_items_iterates_everything(self):
        heap = AddressableHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        assert dict(heap.items()) == {"a": 1.0, "b": 2.0}


class TestFromItems:
    def test_heapify_matches_pushes(self):
        # Three priorities plus inf: ties are the rule, and only the
        # list-order counter separates them.
        rng = random.Random(3)
        pairs = [(i, rng.choice(TIED_PRIORITIES)) for i in range(200)]
        rng.shuffle(pairs)
        heap = AddressableHeap.from_items(pairs)
        check_heap(heap)
        reference = AddressableHeap()
        for item, priority in pairs:
            reference.push(item, priority)
        got = [heap.pop() for _ in range(len(pairs))]
        expected = [reference.pop() for _ in range(len(pairs))]
        assert got == expected
        assert got == [
            pair for _, pair in sorted(
                ((priority, counter), (item, priority))
                for counter, (item, priority) in enumerate(pairs)
            )
        ]

    def test_duplicate_items_rejected(self):
        with pytest.raises(KeyError):
            AddressableHeap.from_items([("a", 1.0), ("a", 2.0)])

    def test_empty(self):
        heap = AddressableHeap.from_items([])
        assert not heap


OPERATIONS = [
    "push",
    "pop",
    "pop_and_repush",
    "update",
    "push_or_decrease",
    "decrease_key",
    "remove",
    "min_priority",
    "peek",
]


@st.composite
def operation_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    for _ in range(n):
        ops.append(
            draw(
                st.tuples(
                    st.sampled_from(OPERATIONS),
                    st.integers(min_value=0, max_value=6),
                    st.sampled_from(TIED_PRIORITIES),
                )
            )
        )
    return ops


class TestHeapProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)))
    def test_heapsort_matches_sorted(self, values):
        heap = AddressableHeap()
        for i, value in enumerate(values):
            heap.push(i, value)
        drained = [heap.pop()[1] for _ in range(len(values))]
        assert drained == sorted(values)

    @given(operation_sequences())
    def test_random_operations_keep_invariants(self, ops):
        """The ordering contract against a model of
        ``item -> (priority, first-insertion counter)``: a push draws a
        fresh counter, every re-key keeps it, and every pop, peek and
        min_priority answers the model's argmin."""
        heap = AddressableHeap()
        model: dict[int, tuple[float, int]] = {}
        counter = 0

        def model_min():
            item = min(model, key=model.__getitem__)
            return item, model[item][0]

        for op, key, value in ops:
            if op == "push":
                if key in model:
                    with pytest.raises(KeyError):
                        heap.push(key, value)
                else:
                    heap.push(key, value)
                    model[key] = (value, counter)
                    counter += 1
            elif op == "update":
                heap.update(key, value)
                if key in model:
                    model[key] = (value, model[key][1])
                else:
                    model[key] = (value, counter)
                    counter += 1
            elif op == "push_or_decrease":
                changed = heap.push_or_decrease(key, value)
                if key not in model:
                    assert changed
                    model[key] = (value, counter)
                    counter += 1
                elif value < model[key][0]:
                    assert changed
                    model[key] = (value, model[key][1])
                else:
                    assert not changed
            elif op == "decrease_key":
                if key not in model:
                    with pytest.raises(KeyError):
                        heap.decrease_key(key, value)
                elif value > model[key][0]:
                    with pytest.raises(ValueError):
                        heap.decrease_key(key, value)
                else:
                    heap.decrease_key(key, value)
                    model[key] = (value, model[key][1])
            elif op == "remove":
                if key in model:
                    assert heap.remove(key) == model.pop(key)[0]
                else:
                    with pytest.raises(KeyError):
                        heap.remove(key)
            elif not model:
                with pytest.raises(IndexError):
                    getattr(heap, "pop" if op == "pop_and_repush" else op)()
            elif op in ("pop", "pop_and_repush"):
                expected = model_min()
                assert heap.pop() == expected
                del model[expected[0]]
                if op == "pop_and_repush":
                    heap.push(expected[0], value)
                    model[expected[0]] = (value, counter)
                    counter += 1
            elif op == "peek":
                assert heap.peek() == model_min()
            else:
                assert heap.min_priority() == model_min()[1]
            check_heap(heap)
            assert len(heap) == len(model)
            assert bool(heap) == bool(model)
            assert dict(heap.items()) == {
                item: priority for item, (priority, _) in model.items()
            }
            for item in range(7):
                assert (item in heap) == (item in model)
        drained = [heap.pop() for _ in range(len(model))]
        assert drained == [
            (item, model[item][0]) for item in sorted(model, key=model.__getitem__)
        ]
