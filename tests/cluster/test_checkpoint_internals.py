"""Checkpoint module internals: snapshot contents and byte math."""

import pytest

from repro.algorithms.pagerank import PageRank
from repro.cluster.checkpoint import restore_checkpoint, take_checkpoint
from repro.cluster.checkpoint_store import CheckpointStore
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.core.runtime import Runtime
from repro.datasets.generators import random_graph


def make_runtime():
    g = random_graph(40, 4, seed=151)
    rt = Runtime(g, PageRank(supersteps=5),
                 JobConfig(mode="push", num_workers=2,
                           message_buffer_per_worker=10))
    rt.setup()
    return rt


class TestSnapshot:
    def test_snapshot_bytes_cover_values_flags_messages(self):
        rt = make_runtime()
        rt.workers[0].message_store.deposit(0, 1.0)
        rt.workers[0].message_store.deposit(1, 2.0)
        ckpt = take_checkpoint(rt, superstep=3, prev_mode="push",
                               controller=None)
        sizes = rt.config.sizes
        expected = (
            sizes.vertices(rt.graph.num_vertices)
            + (rt.graph.num_vertices + 7) // 8
            + sizes.messages(2)
        )
        assert ckpt.nbytes == expected

    def test_write_seconds_scale_with_throughput(self):
        rt = make_runtime()
        ckpt = take_checkpoint(rt, 1, "push", None)
        assert ckpt.write_seconds(90.0) < ckpt.write_seconds(9.0)

    def test_snapshot_is_deep(self):
        rt = make_runtime()
        rt.values[0] = 0.5
        rt.workers[0].message_store.deposit(3, 1.5)
        ckpt = take_checkpoint(rt, 1, "push", None)
        rt.values[0] = 99.0
        rt.resp_prev[1] = True
        # a snapshot that aliased the live store would see this message
        rt.workers[0].message_store.deposit(4, 7.0)
        restore_checkpoint(rt, ckpt)
        assert rt.values[0] == 0.5
        assert rt.resp_prev[1] is False
        assert rt.workers[0].message_store.load().messages == {3: [1.5]}

    def test_restore_is_repeatable(self):
        """The same snapshot must survive being restored twice (two
        failures after one checkpoint)."""
        rt = make_runtime()
        rt.workers[1].message_store.deposit(25, 4.0)
        ckpt = take_checkpoint(rt, 2, "push", None)
        restore_checkpoint(rt, ckpt)
        rt.workers[1].message_store.load()  # consume the restored message
        restore_checkpoint(rt, ckpt)
        result = rt.workers[1].message_store.load()
        assert result.messages == {25: [4.0]}

    def test_snapshot_round_trips_through_the_store(self):
        """A real snapshot survives the store's framing: the pickled
        state inside the pickled Checkpoint restores live objects."""
        rt = make_runtime()
        rt.values[2] = 0.25
        rt.workers[0].message_store.deposit(6, 3.0)
        store = CheckpointStore()
        store.save(take_checkpoint(rt, 2, "push", None))
        rt.values[2] = 99.0
        rt.workers[0].message_store.load()
        restore_checkpoint(rt, store.load_latest().checkpoint)
        assert rt.values[2] == 0.25
        assert rt.workers[0].message_store.load().messages == {6: [3.0]}

    def test_restore_clears_next_flags(self):
        rt = make_runtime()
        ckpt = take_checkpoint(rt, 1, "bpull", None)
        rt.resp_next[3] = True
        restore_checkpoint(rt, ckpt)
        assert not any(rt.resp_next)
