"""Checkpoint store: format, atomicity, retention, corruption.

The store keeps its framed snapshots in memory or as files; the cases
that do not look at files run against both modes.
"""

import os
import pickle

import pytest

from repro.cluster.checkpoint import Checkpoint
from repro.cluster.checkpoint_store import (
    CheckpointStore,
    CorruptSnapshot,
    MAGIC,
)
from repro.core.flags import FlagBitset
from repro.core.metrics import JobMetrics


def _checkpoint(superstep, value=1.0):
    flags = FlagBitset(8)
    for vid in range(8):
        flags[vid] = True
    return Checkpoint(
        superstep=superstep,
        prev_mode="push",
        nbytes=128,
        state=pickle.dumps(
            ([value] * 8, flags, {"sum": value * 8}, {}, None)
        ),
    )


def _values(restored):
    """The vertex values inside a restored snapshot's state blob."""
    return pickle.loads(restored.checkpoint.state)[0]


def _stores(tmp_path, keep_last=3):
    """An in-memory store and a durable one under *tmp_path*."""
    return [CheckpointStore(keep_last=keep_last),
            CheckpointStore(str(tmp_path), keep_last=keep_last)]


def _metrics():
    return JobMetrics(mode="push", num_workers=2, graph_name="g",
                      program_name="PageRank")


class TestRoundTrip:
    def test_save_then_load_latest(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save(_checkpoint(3, value=0.5), _metrics())
        assert os.path.exists(path)
        restored = store.load_latest()
        assert restored is not None
        assert restored.checkpoint.superstep == 3
        values, flags, aggregates, stores, controller = pickle.loads(
            restored.checkpoint.state
        )
        assert values == [0.5] * 8
        assert list(flags) == [True] * 8 and flags.true_count == 8
        assert aggregates == {"sum": 4.0}
        assert stores == {} and controller is None
        assert restored.metrics is not None
        assert restored.metrics.mode == "push"
        assert restored.path == path
        assert restored.skipped == []

    def test_metrics_section_is_optional(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(_checkpoint(1))
        restored = store.load_latest()
        assert restored.checkpoint.superstep == 1
        assert restored.metrics is None

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).load_latest() is None

    def test_newest_snapshot_wins(self, tmp_path):
        for store in _stores(tmp_path):
            for superstep in (2, 4, 6):
                store.save(_checkpoint(superstep))
            assert store.load_latest().checkpoint.superstep == 6

    def test_max_superstep_bounds_the_search(self, tmp_path):
        for store in _stores(tmp_path):
            for superstep in (2, 4, 6):
                store.save(_checkpoint(superstep))
            assert store.load_latest(
                max_superstep=5).checkpoint.superstep == 4
            assert store.load_latest(
                max_superstep=4).checkpoint.superstep == 4
            assert store.load_latest(max_superstep=1) is None
            # out-of-bound snapshots are ignored, not reported as skipped
            assert store.load_latest(max_superstep=5).skipped == []

    def test_max_superstep_ignores_unparsable_names(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save(_checkpoint(2))
        (tmp_path / "ckpt-garbage.bin").write_bytes(b"junk")
        assert store.load_latest(max_superstep=9).checkpoint.superstep == 2

    def test_owned_only_ignores_stale_files(self, tmp_path):
        CheckpointStore(str(tmp_path), keep_last=3).save(_checkpoint(6))
        store = CheckpointStore(str(tmp_path), keep_last=3)
        assert store.load_latest(owned_only=True) is None
        store.save(_checkpoint(2))
        assert store.load_latest().checkpoint.superstep == 6
        assert store.load_latest(
            owned_only=True).checkpoint.superstep == 2

    def test_adopt_claims_a_preexisting_file(self, tmp_path):
        path = CheckpointStore(str(tmp_path)).save(_checkpoint(4))
        store = CheckpointStore(str(tmp_path))
        store.adopt(path)
        assert store.load_latest(
            owned_only=True).checkpoint.superstep == 4

    def test_file_starts_with_magic(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save(_checkpoint(1))
        with open(path, "rb") as fh:
            assert fh.read(len(MAGIC)) == MAGIC


class TestAtomicityAndRetention:
    def test_in_memory_store_never_touches_the_file_system(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        store = CheckpointStore()
        for superstep in (2, 4, 6):
            assert store.save(_checkpoint(superstep)) is None
        assert store.corrupt_latest() == 6
        restored = store.load_latest()
        assert restored.checkpoint.superstep == 4
        assert restored.path is None
        assert store.files() == []
        assert os.listdir(tmp_path) == []

    def test_default_retention_keeps_last_two(self, tmp_path):
        for store in (CheckpointStore(), CheckpointStore(str(tmp_path))):
            for superstep in range(1, 5):
                store.save(_checkpoint(superstep))
            assert store.load_latest(max_superstep=2) is None
            assert store.load_latest(
                max_superstep=3).checkpoint.superstep == 3

    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        for superstep in (1, 2, 3):
            store.save(_checkpoint(superstep))
        leftovers = [
            name for name in os.listdir(tmp_path)
            if not (name.startswith("ckpt-") and name.endswith(".bin"))
        ]
        assert leftovers == []

    def test_keep_last_k_retention(self, tmp_path):
        memory, store = _stores(tmp_path, keep_last=2)
        for each in (memory, store):
            for superstep in range(1, 6):
                each.save(_checkpoint(superstep))
            assert each.load_latest(max_superstep=3) is None
            assert each.load_latest(
                max_superstep=4).checkpoint.superstep == 4
        assert memory.files() == []
        names = [os.path.basename(p) for p in store.files()]
        assert names == ["ckpt-00000004.bin", "ckpt-00000005.bin"]

    def test_resaving_same_superstep_replaces(self, tmp_path):
        memory, store = _stores(tmp_path, keep_last=2)
        for each in (memory, store):
            each.save(_checkpoint(2, value=1.0))
            each.save(_checkpoint(2, value=9.0))
            assert _values(each.load_latest()) == [9.0] * 8
            # re-taking a corrupted snapshot heals it in place; it must
            # not push the one before it out of keep-last retention.
            each.save(_checkpoint(4))
            each.corrupt_latest()
            each.save(_checkpoint(4))
            assert _values(each.load_latest(max_superstep=3)) == [9.0] * 8
        names = [os.path.basename(p) for p in store.files()]
        assert names == ["ckpt-00000002.bin", "ckpt-00000004.bin"]

    def test_retention_never_deletes_foreign_files(self, tmp_path):
        # a previous run's snapshots must not count against keep_last,
        # and must never be unlinked by a new run's retention.
        CheckpointStore(str(tmp_path), keep_last=3).save(_checkpoint(8))
        store = CheckpointStore(str(tmp_path), keep_last=1)
        store.save(_checkpoint(1))
        store.save(_checkpoint(2))
        names = [os.path.basename(p) for p in store.files()]
        assert names == ["ckpt-00000002.bin", "ckpt-00000008.bin"]

    def test_corrupt_latest_owned_only_spares_stale_files(self, tmp_path):
        CheckpointStore(str(tmp_path), keep_last=3).save(_checkpoint(8))
        store = CheckpointStore(str(tmp_path), keep_last=3)
        assert store.corrupt_latest(owned_only=True) is None
        store.save(_checkpoint(2))
        assert store.corrupt_latest(owned_only=True) == 2
        # the stale file is untouched and still loads
        assert store.load_latest().checkpoint.superstep == 8


class TestCorruptionFallback:
    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        for store in _stores(tmp_path):
            store.save(_checkpoint(2))
            store.save(_checkpoint(4))
            assert store.corrupt_latest() == 4
            restored = store.load_latest()
            assert restored.checkpoint.superstep == 2
            assert len(restored.skipped) == 1
            assert "ckpt-00000004.bin" in restored.skipped[0]

    def test_all_corrupt_loads_none(self, tmp_path):
        for store in _stores(tmp_path):
            store.save(_checkpoint(2))
            store.save(_checkpoint(4))
            assert store.corrupt_latest() == 4
            assert store.corrupt_latest() == 2
            assert store.corrupt_latest() is None
            assert store.load_latest() is None

    def test_truncated_file_falls_back(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep_last=3)
        store.save(_checkpoint(2))
        newest = store.save(_checkpoint(4))
        size = os.path.getsize(newest)
        with open(newest, "r+b") as fh:
            fh.truncate(size // 2)
        assert store.load_latest().checkpoint.superstep == 2

    def test_bad_magic_falls_back(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep_last=3)
        store.save(_checkpoint(2))
        newest = store.save(_checkpoint(4))
        with open(newest, "r+b") as fh:
            fh.write(b"NOTACKPT")
        assert store.load_latest().checkpoint.superstep == 2
        # well-formed frames of earlier format versions are skipped
        # too: their Checkpoint layouts predate the one-pickle state.
        for old_magic in (b"HGCKPT\x00\x01", b"HGCKPT\x00\x03"):
            store.save(_checkpoint(4))
            assert store.load_latest().checkpoint.superstep == 4
            with open(newest, "r+b") as fh:
                fh.write(old_magic)
            restored = store.load_latest()
            assert restored.checkpoint.superstep == 2
            assert "ckpt-00000004.bin" in restored.skipped[0]

    def test_empty_file_falls_back(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep_last=3)
        store.save(_checkpoint(2))
        newest = store.save(_checkpoint(4))
        with open(newest, "wb"):
            pass
        assert store.load_latest().checkpoint.superstep == 2

    def test_crc_mismatch_raises_on_direct_load(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        path = store.save(_checkpoint(2))
        store.corrupt_latest()
        with pytest.raises(CorruptSnapshot):
            store._load(path.name)

    def test_corrupt_latest_on_empty_store_is_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).corrupt_latest() is None
