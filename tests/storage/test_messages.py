"""Unit tests for the receiver-side message stores."""

from repro.storage.disk import SimulatedDisk
from repro.storage.messages import OnlineMessageStore, SpillingMessageStore
from repro.storage.records import DEFAULT_SIZES


def make_spilling(capacity, combine=None):
    disk = SimulatedDisk()
    store = SpillingMessageStore(capacity, DEFAULT_SIZES, disk, combine)
    return store, disk


class TestSpillingMessageStore:
    def test_deposits_below_capacity_stay_in_memory(self):
        store, disk = make_spilling(capacity=3)
        for i in range(3):
            store.deposit(i, float(i))
        assert store.total_spilled == 0
        assert disk.counters.total == 0
        assert store.pending_count == 3

    def test_overflow_spills_with_random_writes(self):
        store, disk = make_spilling(capacity=2)
        for i in range(5):
            store.deposit(i, float(i))
        assert store.total_spilled == 3
        assert disk.counters.random_write == DEFAULT_SIZES.messages(3)

    def test_unlimited_capacity_never_spills(self):
        store, disk = make_spilling(capacity=None)
        for i in range(1000):
            store.deposit(i % 7, float(i))
        assert store.total_spilled == 0
        assert disk.counters.total == 0

    def test_load_merges_memory_and_spill(self):
        store, _disk = make_spilling(capacity=2)
        store.deposit(0, 1.0)
        store.deposit(1, 2.0)
        store.deposit(0, 3.0)  # spilled
        result = store.load()
        assert sorted(result.messages[0]) == [1.0, 3.0]
        assert result.messages[1] == [2.0]
        assert result.spilled_count == 1

    def test_load_charges_sequential_read_of_spill(self):
        store, disk = make_spilling(capacity=1)
        store.deposit(0, 1.0)
        store.deposit(1, 2.0)  # spilled
        before = disk.counters.seq_read
        result = store.load()
        assert result.spilled_read == DEFAULT_SIZES.messages(1)
        assert disk.counters.seq_read - before == result.spilled_read

    def test_load_resets_store(self):
        store, _disk = make_spilling(capacity=1)
        store.deposit(0, 1.0)
        store.deposit(1, 2.0)
        store.load()
        assert store.pending_count == 0
        assert store.memory_bytes == 0
        assert store.load().messages == {}

    def test_receiver_combine_merges_in_memory(self):
        store, disk = make_spilling(capacity=10, combine=lambda a, b: a + b)
        store.deposit(0, 1.0)
        store.deposit(0, 2.0)
        store.deposit(0, 4.0)
        result = store.load()
        assert result.messages[0] == [7.0]
        assert disk.counters.total == 0

    def test_combine_does_not_consume_extra_slots(self):
        store, _disk = make_spilling(capacity=1, combine=lambda a, b: a + b)
        for _ in range(5):
            store.deposit(0, 1.0)
        assert store.total_spilled == 0  # all combined into one slot

    def test_memory_bytes_tracks_in_memory_messages(self):
        store, _disk = make_spilling(capacity=2)
        store.deposit(0, 1.0)
        assert store.memory_bytes == DEFAULT_SIZES.message
        store.deposit(1, 1.0)
        store.deposit(2, 1.0)  # spilled, not counted as memory
        assert store.memory_bytes == 2 * DEFAULT_SIZES.message


class TestOnlineMessageStore:
    def make(self, hot):
        disk = SimulatedDisk()
        store = OnlineMessageStore(
            hot, DEFAULT_SIZES, disk, combine=lambda a, b: a + b
        )
        return store, disk

    def test_hot_messages_combined_online_no_disk(self):
        store, disk = self.make(hot=[0, 1])
        store.deposit(0, 1.0)
        store.deposit(0, 2.0)
        store.deposit(1, 5.0)
        assert disk.counters.total == 0
        result = store.load()
        assert result.messages == {0: [3.0], 1: [5.0]}

    def test_cold_messages_spill(self):
        store, disk = self.make(hot=[0])
        store.deposit(9, 1.0)
        store.deposit(9, 2.0)
        assert store.total_spilled == 2
        assert disk.counters.random_write == DEFAULT_SIZES.messages(2)
        result = store.load()
        assert result.messages[9] == [1.0, 2.0]
        assert result.spilled_count == 2
        # the batched forms fold and spill per message, and charge once
        store.deposit_fanout([((0, 9), 1.0), ((9, 0), 2.0)], 4)
        store.deposit_many([(9, 3.0), (0, 4.0)])
        assert store.total_deposited == 8
        assert store.total_spilled == 5
        assert disk.counters.random_write == DEFAULT_SIZES.messages(5)
        assert store.load().messages == {0: [7.0], 9: [1.0, 2.0, 3.0]}

    def test_memory_bytes_counts_accumulators(self):
        store, _disk = self.make(hot=[0, 1, 2])
        store.deposit(0, 1.0)
        store.deposit(0, 1.0)
        store.deposit(2, 1.0)
        assert store.memory_bytes == 2 * DEFAULT_SIZES.message

    def test_load_resets(self):
        store, _disk = self.make(hot=[0])
        store.deposit(0, 1.0)
        store.deposit(5, 1.0)
        store.load()
        assert store.pending_count == 0
        assert store.load().messages == {}
