"""Property tests: the LRU buffer pool against an exact reference model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import DEFAULT_PAGE_SIZE, BufferPool, DiskManager

accesses = st.lists(st.integers(min_value=0, max_value=14), max_size=300)
frame_counts = st.integers(min_value=1, max_value=6)


class _LRUModel:
    def __init__(self, frames):
        self.frames = frames
        self.resident = OrderedDict()
        self.misses = 0

    def fetch(self, page):
        if page in self.resident:
            self.resident.move_to_end(page)
            return
        self.misses += 1
        self.resident[page] = True
        if len(self.resident) > self.frames:
            self.resident.popitem(last=False)


def _run_both(frames, sequence):
    disk = DiskManager()
    page_ids = [disk.allocate().page_id for _ in range(15)]
    pool = BufferPool(disk, capacity_bytes=DEFAULT_PAGE_SIZE * frames)
    model = _LRUModel(frames)
    for index in sequence:
        pool.fetch(page_ids[index])
        model.fetch(page_ids[index])
    return pool, model, page_ids


@settings(max_examples=60, deadline=None)
@given(accesses, frame_counts)
def test_policy_matches_reference_model(sequence, frames):
    pool, model, page_ids = _run_both(frames, sequence)
    assert pool.stats.physical_reads == model.misses
    for page_id in page_ids:
        assert pool.is_resident(page_id) == (page_id in model.resident)


@settings(max_examples=30, deadline=None)
@given(accesses, frame_counts)
def test_residency_bounded(sequence, frames):
    pool, _, _ = _run_both(frames, sequence)
    assert pool.resident_count <= frames
