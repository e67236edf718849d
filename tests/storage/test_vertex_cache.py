"""Unit tests for the LRU vertex cache (pull baseline's disk extension)."""

from repro.storage.disk import SimulatedDisk
from repro.storage.records import DEFAULT_SIZES
from repro.storage.vertex_cache import DEFAULT_BLOCK_BYTES, LRUVertexCache


def make(capacity, block_bytes=DEFAULT_BLOCK_BYTES):
    disk = SimulatedDisk()
    cache = LRUVertexCache(capacity, DEFAULT_SIZES, disk, block_bytes)
    return cache, disk


class TestLRUVertexCache:
    def test_miss_then_hit(self):
        cache, _ = make(capacity=2)
        assert cache.access(1) is False
        assert cache.access(1) is True
        assert cache.misses == 1
        assert cache.hits == 1

    def test_miss_charges_block_random_read(self):
        cache, disk = make(capacity=2)
        cache.access(1)
        assert disk.counters.random_read == DEFAULT_BLOCK_BYTES

    def test_hit_is_free(self):
        cache, disk = make(capacity=2)
        cache.access(1)
        before = disk.counters.total
        cache.access(1)
        assert disk.counters.total == before

    def test_lru_eviction_order(self):
        cache, _ = make(capacity=2)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # 2 is now LRU
        cache.access(3)  # evicts 2
        assert cache.access(1) is True
        assert cache.access(2) is False

    def test_dirty_eviction_charges_random_write(self):
        cache, disk = make(capacity=1)
        cache.access(1, dirty=True)
        cache.access(2)  # evicts dirty 1
        assert disk.counters.random_write == DEFAULT_BLOCK_BYTES

    def test_clean_eviction_free_write(self):
        cache, disk = make(capacity=1)
        cache.access(1)
        cache.access(2)
        assert disk.counters.random_write == 0

    def test_hit_can_mark_dirty(self):
        cache, disk = make(capacity=1)
        cache.access(1)
        cache.access(1, dirty=True)
        cache.access(2)  # evicts 1, now dirty
        assert disk.counters.random_write == DEFAULT_BLOCK_BYTES

    def test_capacity_none_all_hits_no_io(self):
        cache, disk = make(capacity=None)
        for i in range(100):
            cache.access(i, dirty=True)
        assert cache.misses == 0
        assert disk.counters.total == 0

    def test_resident_never_exceeds_capacity(self):
        cache, _ = make(capacity=3)
        for i in range(10):
            cache.access(i)
            assert cache.resident <= 3
        # capacity 0 keeps nothing resident: every access misses and
        # reads its block, and a dirty access writes it back at once
        cache, disk = make(capacity=0)
        assert cache.access(1) is False
        assert cache.access(1) is False
        assert cache.access(2, dirty=True) is False
        assert cache.misses == 3
        assert cache.hits == 0
        assert cache.resident == 0
        assert cache.memory_bytes == 0
        assert disk.counters.random_read == 3 * DEFAULT_BLOCK_BYTES
        assert disk.counters.random_write == DEFAULT_BLOCK_BYTES

    def test_reset_stats(self):
        cache, _ = make(capacity=2)
        cache.access(1)
        cache.access(1)
        cache.reset_stats()
        assert cache.hits == 0
        assert cache.misses == 0

    def test_memory_bytes(self):
        cache, _ = make(capacity=4)
        cache.access(1)
        cache.access(2)
        assert cache.memory_bytes == 2 * DEFAULT_SIZES.vertex_record

    def test_block_never_smaller_than_record(self):
        cache, disk = make(capacity=1, block_bytes=1)
        cache.access(1)
        assert disk.counters.random_read == DEFAULT_SIZES.vertex_record
