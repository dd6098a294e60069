"""Unit tests for the storage layer: stats, page layout, disk, buffer pool."""

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.page import PageLayout
from repro.storage.stats import IOStats


class TestIOStats:
    def test_record_and_totals(self):
        stats = IOStats()
        stats.record_leaf(contributed=True)
        stats.record_leaf(contributed=False)
        stats.record_internal()
        assert stats.leaf_accesses == 2
        assert stats.contributing_leaf_accesses == 1
        assert stats.internal_accesses == 1
        assert stats.total_accesses == 3

    def test_merge(self):
        a, b = IOStats(), IOStats(buffer_hits=2, buffer_misses=3)
        a.record_internal()
        b.record_leaf(contributed=True)
        b.record_internal()
        assert a.merge(b) is a
        assert a == IOStats(
            leaf_accesses=1,
            internal_accesses=2,
            buffer_hits=2,
            buffer_misses=3,
            contributing_leaf_accesses=1,
        )

    def test_reset(self):
        stats = IOStats(buffer_hits=4, buffer_misses=5)
        stats.record_leaf(contributed=True)
        stats.record_internal()
        stats.reset()
        assert stats == IOStats()


class TestPageLayout:
    def test_entry_bytes(self):
        layout = PageLayout()
        assert layout.entry_bytes(2) == 2 * 2 * 8 + 8
        assert layout.entry_bytes(3) == 2 * 3 * 8 + 8

    def test_max_entries_decreases_with_dims(self):
        layout = PageLayout(page_size=4096)
        assert layout.max_entries(2) > layout.max_entries(3) > layout.max_entries(6)
        assert layout.max_entries(2) == (4096 - 16) // 40

    def test_min_entries_fraction(self):
        layout = PageLayout()
        assert layout.min_entries(2) == int(layout.max_entries(2) * 0.4)
        assert layout.min_entries(2, fill=0.2) >= 2

    def test_tiny_page_still_has_two_entries(self):
        layout = PageLayout(page_size=64)
        assert layout.max_entries(3) == 2

    def test_node_bytes_is_page_size(self):
        assert PageLayout(page_size=8192).node_bytes() == 8192


class TestSimulatedDisk:
    def test_random_read_cost(self):
        model = DiskModel(seek_ms=10.0, transfer_mb_per_s=100.0, page_size=4096)
        disk = SimulatedDisk(model)
        disk.register_page(1)
        disk.read(1)
        assert disk.reads == 1
        assert disk.elapsed_ms == pytest.approx(model.random_read_ms())

    def test_sequential_reads_are_cheaper(self):
        disk = SimulatedDisk()
        for page in (1, 2, 3):
            disk.register_page(page)
        disk.read(1)
        disk.read(2)
        disk.read(3)
        assert disk.sequential_reads == 2
        assert disk.elapsed_ms < 3 * disk.model.random_read_ms()

    def test_unknown_page_raises(self):
        disk = SimulatedDisk()
        with pytest.raises(KeyError):
            disk.read(42)

    def test_reset_counters(self):
        disk = SimulatedDisk()
        disk.register_page(1)
        disk.read(1)
        disk.reset_counters()
        assert disk.reads == 0
        assert disk.elapsed_ms == 0.0
        assert disk.page_count == 1


class TestBufferPool:
    def test_hit_after_miss(self):
        pool = BufferPool(capacity=4)
        assert pool.access(1) is False
        assert pool.access(1) is True
        assert pool.stats.buffer_misses == 1
        assert pool.stats.buffer_hits == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity=2)
        pool.access(1)
        pool.access(2)
        pool.access(1)      # 1 becomes most recent
        pool.access(3)      # evicts 2
        assert pool.contains(1)
        assert not pool.contains(2)
        assert pool.contains(3)

    def test_zero_capacity_never_caches(self):
        pool = BufferPool(capacity=0)
        pool.access(1)
        pool.access(1)
        assert pool.stats.buffer_hits == 0
        assert pool.stats.buffer_misses == 2

    def test_unbounded_capacity(self):
        pool = BufferPool(capacity=None)
        for page in range(100):
            pool.access(page)
        assert len(pool) == 100
        assert pool.access(0) is True

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(capacity=-1)

    def test_misses_charge_the_disk(self):
        disk = SimulatedDisk()
        disk.register_page(1)
        pool = BufferPool(capacity=2, disk=disk)
        pool.access(1)
        pool.access(1)
        assert disk.reads == 1

    def test_clear_forgets_everything(self):
        pool = BufferPool(capacity=4)
        pool.access(1)
        pool.clear()
        assert not pool.contains(1)
        assert pool.access(1) is False
