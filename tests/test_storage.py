"""Unit tests for the simulated storage stack (repro.storage)."""

import random

import pytest

from repro.obs import tracing

from repro.storage import (
    DEFAULT_PAGE_SIZE,
    BufferPool,
    DiskManager,
    IOStats,
    NodePager,
    Page,
    PageNotFoundError,
    PageOverflowError,
)


class TestPage:
    def test_add_and_iterate(self):
        page = Page(page_id=0)
        page.add("a", 100)
        page.add("b", 200)
        assert list(page) == ["a", "b"]
        assert len(page) == 2
        assert page.record_count == 2

    def test_fits_accounts_for_header(self):
        page = Page(page_id=0, capacity=100)
        assert page.free_space == 100 - 32
        assert page.fits(68)
        assert not page.fits(69)

    def test_overflow_raises(self):
        page = Page(page_id=0, capacity=100)
        page.add("a", 60)
        with pytest.raises(PageOverflowError):
            page.add("b", 60)

    def test_zero_size_record_rejected(self):
        page = Page(page_id=0)
        with pytest.raises(ValueError):
            page.add("a", 0)


class TestDiskManager:
    def test_allocate_assigns_sequential_ids(self):
        disk = DiskManager()
        assert [disk.allocate().page_id for _ in range(3)] == [0, 1, 2]
        assert disk.page_count == 3

    def test_read_missing_raises(self):
        disk = DiskManager()
        with pytest.raises(PageNotFoundError):
            disk.read(42)

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            DiskManager(page_size=0)


class TestBufferPool:
    def test_miss_then_hit(self):
        disk = DiskManager()
        page = disk.allocate()
        pool = BufferPool(disk, capacity_bytes=DEFAULT_PAGE_SIZE * 4)
        pool.fetch(page.page_id)
        pool.fetch(page.page_id)
        assert pool.stats.physical_reads == 1
        assert pool.stats.logical_reads == 2

    def test_lru_eviction(self):
        disk = DiskManager()
        pages = [disk.allocate().page_id for _ in range(3)]
        pool = BufferPool(disk, capacity_bytes=DEFAULT_PAGE_SIZE * 2)
        pool.fetch(pages[0])
        pool.fetch(pages[1])
        pool.fetch(pages[2])  # evicts pages[0]
        assert not pool.is_resident(pages[0])
        pool.fetch(pages[0])  # miss again
        assert pool.stats.physical_reads == 4

    def test_lru_touch_order(self):
        disk = DiskManager()
        pages = [disk.allocate().page_id for _ in range(3)]
        pool = BufferPool(disk, capacity_bytes=DEFAULT_PAGE_SIZE * 2)
        pool.fetch(pages[0])
        pool.fetch(pages[1])
        pool.fetch(pages[0])  # 0 is now most recent
        pool.fetch(pages[2])  # evicts 1, not 0
        assert pool.is_resident(pages[0])
        assert not pool.is_resident(pages[1])

    def test_too_small_buffer_rejected(self):
        disk = DiskManager()
        with pytest.raises(ValueError):
            BufferPool(disk, capacity_bytes=10)

    def test_clear_forces_cold_misses(self):
        disk = DiskManager()
        page = disk.allocate()
        pool = BufferPool(disk, capacity_bytes=DEFAULT_PAGE_SIZE)
        pool.fetch(page.page_id)
        pool.clear()
        pool.fetch(page.page_id)
        assert pool.stats.physical_reads == 2

    def test_frame_count(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity_bytes=DEFAULT_PAGE_SIZE * 7)
        assert pool.frame_count == 7

    def test_fetch_many_is_a_loop_of_fetch(self):
        rng = random.Random(5)
        for _ in range(200):
            disk = DiskManager()
            pages = [disk.allocate().page_id for _ in range(rng.randint(1, 12))]
            frames = rng.randint(1, 6)
            looped, batched = (
                BufferPool(
                    disk,
                    capacity_bytes=DEFAULT_PAGE_SIZE * frames,
                    component="oracle",
                )
                for _ in range(2)
            )
            batches = [
                [rng.choice(pages) for _ in range(rng.randint(0, 20))]
                for _ in range(rng.randint(1, 5))
            ]
            with tracing.span("query.loop") as loop_span:
                for batch in batches:
                    for page_id in batch:
                        looped.fetch(page_id)
            with tracing.span("query.batched") as batch_span:
                for batch in batches:
                    batched.fetch_many(batch)
            assert list(batched._resident) == list(looped._resident)
            assert batched.stats == looped.stats
            assert batch_span.totals() == loop_span.totals()


class TestIOStats:
    def test_hit_ratio(self):
        stats = IOStats()
        stats.record_read(hit=True)
        stats.record_read(hit=True)
        stats.record_read(hit=False)
        assert stats.hit_ratio == pytest.approx(2 / 3)

    def test_hit_ratio_empty(self):
        assert IOStats().hit_ratio == 1.0

    def test_reset(self):
        stats = IOStats()
        stats.record_read(hit=False)
        stats.reset()
        assert stats.logical_reads == 0
        assert stats.physical_reads == 0


class TestNodePager:
    def test_register_is_idempotent(self):
        pager = NodePager()
        first = pager.register("node-a")
        second = pager.register("node-a")
        assert first == second
        assert pager.page_count() == 1

    def test_touch_charges_pool(self):
        pager = NodePager(buffer_bytes=DEFAULT_PAGE_SIZE * 2)
        pager.touch("a")
        pager.touch("a")
        pager.touch("b")
        assert pager.stats.physical_reads == 2
        assert pager.stats.logical_reads == 3

    def test_forget_removes_mapping(self):
        pager = NodePager()
        pager.register("x")
        pager.forget("x")
        # Re-registering allocates a fresh page.
        assert pager.register("x") == 1

