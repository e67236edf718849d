"""Equivalence guard: all executors must agree byte-for-byte.

The batched hot path (aggregated ``SimulatedDisk.charge`` calls, bitset
flags, per-destination-worker staging, fan-out deposits) and the
NumPy-vectorized executor (CSR kernels, dense folds) must both produce
**byte-identical** modeled metrics to the pre-optimization executor in
``repro.core.modes.reference``.  These tests run the same jobs through
all three and compare the full ``JobMetrics.to_dict()`` dumps.

The vectorized executor transparently falls back to batched when NumPy
is unavailable or the job shape is scalar-only (LPA, pushM, combining
variants, ...), so every cell below is valid on a NumPy-less
interpreter too — there it degenerates to the two-executor check.
"""

import json

import pytest

from repro.algorithms.lpa import LPA
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WCC
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import random_graph
from repro.storage.disk import SimulatedDisk
from repro.storage.messages import SpillingMessageStore
from repro.storage.records import DEFAULT_SIZES

EXECUTORS = ("batched", "reference", "vectorized")


def run_all(graph, program_factory, parallelisms=(1,), **cfg_kwargs):
    results = []
    for executor in EXECUTORS:
        for parallelism in parallelisms:
            if executor == "reference" and parallelism > 1:
                continue  # the oracle has no pool path
            cfg = JobConfig(
                executor=executor, parallelism=parallelism, **cfg_kwargs
            )
            results.append(run_job(graph, program_factory(), cfg))
    return results


def assert_identical(results):
    # the fallback record names the *requested* tier, which legitimately
    # differs across the compared runs; everything else must match.
    reference = results[0]
    ref_dict = reference.metrics.to_dict()
    ref_dict.pop("fallback", None)
    expected = json.dumps(ref_dict, sort_keys=True)
    for other in results[1:]:
        other_dict = other.metrics.to_dict()
        other_dict.pop("fallback", None)
        actual = json.dumps(other_dict, sort_keys=True)
        assert actual == expected
        assert other.values == reference.values


class TestExecutorEquivalence:
    @pytest.mark.parametrize("mode", ["push", "bpull", "hybrid"])
    @pytest.mark.parametrize(
        "program_factory",
        [PageRank, lambda: SSSP(source=0), LPA, WCC],
        ids=["pagerank", "sssp", "lpa", "wcc"],
    )
    def test_metrics_identical_disk_resident(self, mode, program_factory):
        g = random_graph(300, 6, seed=42)
        assert_identical(run_all(
            g, program_factory, mode=mode, num_workers=4,
            message_buffer_per_worker=100, max_supersteps=6,
        ))

    def test_metrics_identical_hybrid_switch_supersteps(self):
        # Run to convergence so hybrid switches both ways; the executors
        # must agree on the mode trace (structurally identical runs)
        # including the two mixed-mechanism switch supersteps.
        g = random_graph(300, 6, seed=42)
        results = run_all(
            g, lambda: SSSP(source=0), mode="hybrid", num_workers=4,
            message_buffer_per_worker=100,
        )
        assert_identical(results)
        trace = [s.mode for s in results[0].metrics.supersteps]
        assert "push->bpull" in trace
        assert "bpull->push" in trace

    def test_metrics_identical_memory_sufficient(self):
        g = random_graph(200, 5, seed=9)
        assert_identical(run_all(
            g, PageRank, mode="push", num_workers=3,
            graph_on_disk=False, max_supersteps=5,
        ))
        # The opposite extreme, B_i = 0, on every mode: every message
        # spills, Vblocks hold one vertex each, and the pull baseline
        # keeps no vertex resident.
        g = random_graph(120, 5, seed=8)
        for mode in ("push", "bpull", "hybrid", "pull"):
            results = run_all(
                g, PageRank, parallelisms=(1, 2), mode=mode,
                num_workers=3, message_buffer_per_worker=0,
                max_supersteps=4,
            )
            assert_identical(results)
        # the pull run, the loop's last, misses in every superstep
        assert all(s.lru_misses for s in results[0].metrics.supersteps)

    def test_metrics_identical_pushm(self):
        g = random_graph(200, 5, seed=9)
        assert_identical(run_all(
            g, PageRank, mode="pushm", num_workers=3,
            message_buffer_per_worker=60, max_supersteps=5,
        ))

    def test_metrics_identical_with_receiver_combine(self):
        g = random_graph(200, 5, seed=17)
        assert_identical(run_all(
            g, PageRank, parallelisms=(1, 2), mode="push", num_workers=3,
            message_buffer_per_worker=50, receiver_combine=True,
            max_supersteps=5,
        ))

    def test_metrics_identical_with_sender_combine(self):
        g = random_graph(200, 5, seed=17)
        assert_identical(run_all(
            g, PageRank, parallelisms=(1, 2), mode="push", num_workers=3,
            message_buffer_per_worker=50, sender_combine=True,
            max_supersteps=5,
        ))

    def test_metrics_identical_hash_partition(self):
        g = random_graph(250, 5, seed=23)
        assert_identical(run_all(
            g, PageRank, parallelisms=(1, 2), mode="hybrid", num_workers=4,
            partition="hash", message_buffer_per_worker=80,
            max_supersteps=6,
        ))

    def test_metrics_identical_with_tolerance_aggregator(self):
        g = random_graph(250, 5, seed=23)
        assert_identical(run_all(
            g, lambda: PageRank(tolerance=1e-4), parallelisms=(1, 2),
            mode="hybrid", num_workers=4, message_buffer_per_worker=100,
            max_supersteps=20,
        ))

    @pytest.mark.parametrize("mode", ["bpull", "hybrid"])
    @pytest.mark.parametrize(
        "program_factory",
        [PageRank, lambda: SSSP(source=0)],
        ids=["pagerank", "sssp"],
    )
    @pytest.mark.parametrize(
        "setting",
        ["fragment_clustering", "bpull_combine", "prepull"],
    )
    def test_metrics_identical_bpull_setting_off(
        self, mode, program_factory, setting
    ):
        # one-edge fragments, the concatenation inbox and the
        # single-buffer memory term, in process and on a 2-process
        # pool; bpull_combine=False downgrades vectorized to batched.
        g = random_graph(300, 6, seed=42)
        assert_identical(run_all(
            g, program_factory, parallelisms=(1, 2), mode=mode,
            num_workers=4, message_buffer_per_worker=100,
            max_supersteps=6, **{setting: False},
        ))

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            JobConfig(executor="turbo")


class TestBulkChargeApi:
    def test_charge_equals_read_write_sequence(self):
        a = SimulatedDisk()
        b = SimulatedDisk()
        for _ in range(10):
            a.read(8, sequential=True)
            a.write(8, sequential=True)
            a.read(3, sequential=False)
            a.write(5, sequential=False)
        b.charge(seq_read=80, seq_write=80, random_read=30,
                 random_write=50)
        assert a.counters == b.counters

    def test_charge_disabled_disk_is_noop(self):
        disk = SimulatedDisk(enabled=False)
        disk.charge(seq_read=100, random_write=100)
        assert disk.counters.total == 0

    def test_charge_ignores_nonpositive(self):
        disk = SimulatedDisk()
        disk.charge(seq_read=0, random_read=-5)
        assert disk.counters.total == 0


class TestBatchedDeposits:
    def _stores(self, capacity, combine=None):
        return (
            SpillingMessageStore(capacity, DEFAULT_SIZES, SimulatedDisk(),
                                 combine=combine),
            SpillingMessageStore(capacity, DEFAULT_SIZES, SimulatedDisk(),
                                 combine=combine),
        )

    def _assert_same(self, one, many):
        assert one._disk.counters == many._disk.counters
        assert one.total_spilled == many.total_spilled
        assert one.pending_count == many.pending_count
        assert one.load().messages == many.load().messages

    def test_deposit_many_matches_per_message(self):
        pairs = [(i % 7, float(i)) for i in range(40)]
        one, many = self._stores(capacity=15)
        for dst, value in pairs:
            one.deposit(dst, value)
        many.deposit_many(list(pairs))
        self._assert_same(one, many)

    def test_deposit_many_with_combiner(self):
        pairs = [(i % 5, float(i)) for i in range(30)]
        one, many = self._stores(capacity=8, combine=lambda a, b: a + b)
        for dst, value in pairs:
            one.deposit(dst, value)
        many.deposit_many(list(pairs))
        self._assert_same(one, many)

    def test_deposit_fanout_matches_per_message(self):
        groups = [((0, 3, 6), 1.5), ((1, 4), 2.5), ((2,), 3.5),
                  ((0, 1, 2, 3, 4), 4.5)]
        count = sum(len(dsts) for dsts, _v in groups)
        one, fan = self._stores(capacity=6)  # boundary straddles a group
        for dsts, value in groups:
            for dst in dsts:
                one.deposit(dst, value)
        fan.deposit_fanout(list(groups), count)
        self._assert_same(one, fan)

    def test_deposit_fanout_unlimited_capacity(self):
        groups = [((0, 1), 1.0), ((2,), 2.0)]
        one, fan = self._stores(capacity=None)
        for dsts, value in groups:
            for dst in dsts:
                one.deposit(dst, value)
        fan.deposit_fanout(list(groups), 3)
        self._assert_same(one, fan)
