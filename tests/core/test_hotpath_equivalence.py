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
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.algorithms.lpa import LPA
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WCC
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.core.modes import common, vectorized
from repro.core.modes import reference as reference_tier
from repro.core.modes.common import pull_record
from repro.datasets.generators import random_graph
from repro.storage.disk import SimulatedDisk
from repro.storage.messages import SpillingMessageStore
from repro.storage.records import DEFAULT_SIZES
from repro.storage.veblock import VEBlockStore

EXECUTORS = ("batched", "reference", "vectorized")

#: the scalar tiers' b-pull gathers, each returning its inbox.
SCALAR_GATHERS = (
    (common, "bpull_gather"), (reference_tier, "_bpull_gather_reference"),
)


def _no_fragment_lists(store):
    raise AssertionError("only the reference tier builds fragment lists")


def _logging(gather, log):
    """*gather*, appending a copy of each inbox it returns, in its dict
    order, to *log*."""
    def logged(*args):
        inbox = gather(*args)
        log.append([
            (wid, [(vid, list(msgs)) for vid, msgs in per_worker.items()])
            for wid, per_worker in inbox.items()
        ])
        return inbox
    return logged


def run_all(graph, program_factory, parallelisms=(1,), **cfg_kwargs):
    """Run the job on every tier.  Only the reference tier may build
    VE-BLOCK fragment lists; each result's ``inboxes`` logs the inboxes
    of its scalar b-pull gathers."""
    results = []
    for executor in EXECUTORS:
        for parallelism in parallelisms:
            if executor == "reference" and parallelism > 1:
                continue  # the oracle has no pool path
            cfg = JobConfig(
                executor=executor, parallelism=parallelism, **cfg_kwargs
            )
            inboxes = []
            with ExitStack() as patches:
                for module, name in SCALAR_GATHERS:
                    patches.enter_context(mock.patch.object(
                        module, name,
                        _logging(getattr(module, name), inboxes),
                    ))
                if executor != "reference":
                    patches.enter_context(mock.patch.object(
                        VEBlockStore, "_build", _no_fragment_lists
                    ))
                result = run_job(graph, program_factory(), cfg)
            result.inboxes = inboxes
            results.append(result)
    return results


def assert_identical(results):
    # the fallback record names the *requested* tier, which legitimately
    # differs across the compared runs; everything else must match.
    # The last superstep's network flows must match in order too: the
    # network folds float seconds in flow order, and so must every
    # scalar gather's inbox: its order is the canonical triple order.
    reference = results[0]
    ref_dict = reference.metrics.to_dict()
    ref_dict.pop("fallback", None)
    expected = json.dumps(ref_dict, sort_keys=True)
    ref_flows = list(reference.runtime.network._flows.items())
    for other in results[1:]:
        other_dict = other.metrics.to_dict()
        other_dict.pop("fallback", None)
        actual = json.dumps(other_dict, sort_keys=True)
        assert actual == expected
        assert other.values == reference.values
        assert list(other.runtime.network._flows.items()) == ref_flows
        if other.inboxes:
            assert other.inboxes == reference.inboxes


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
        # b-pull with strided Vblocks of one vertex each (an empty
        # buffer), for a non-uniform program and for the concatenation
        # inbox over one-edge fragments
        for program_factory, settings in (
            (lambda: SSSP(source=0), {}),
            (PageRank, {"bpull_combine": False,
                        "fragment_clustering": False}),
        ):
            assert_identical(run_all(
                g, program_factory, mode="bpull", num_workers=4,
                partition="hash", message_buffer_per_worker=0,
                max_supersteps=6, **settings,
            ))
        # a uniform program's payload is evaluated once per source and
        # gather, however many edges and Vblocks the source reaches
        calls = []

        class LoggedPageRank(PageRank):
            def message_value(self, vid, value, dst, weight, ctx):
                calls.append((ctx.superstep, vid))
                return super().message_value(vid, value, dst, weight, ctx)

        run_job(g, LoggedPageRank(), JobConfig(
            executor="batched", mode="bpull", num_workers=4,
            partition="hash", message_buffer_per_worker=80,
            max_supersteps=4,
        ))
        assert calls and len(calls) == len(set(calls))

    def test_metrics_identical_with_tolerance_aggregator(self, monkeypatch):
        g = random_graph(250, 5, seed=23)
        assert_identical(run_all(
            g, lambda: PageRank(tolerance=1e-4), parallelisms=(1, 2),
            mode="hybrid", num_workers=4, message_buffer_per_worker=100,
            max_supersteps=20,
        ))
        # b-pull until the tolerance stops every vertex from responding
        results = run_all(
            g, lambda: PageRank(tolerance=1e-3), parallelisms=(1, 2),
            mode="bpull", num_workers=4, message_buffer_per_worker=100,
            max_supersteps=20,
        )
        assert_identical(results)
        responding = [
            s.responding_vertices for s in results[0].metrics.supersteps
        ]
        assert responding[0] == g.num_vertices and responding[-1] == 0
        # the tolerance stops every vertex at once; WCC's sending set
        # shrinks through partial sets to none, so a scan plan or an
        # accounting record reused after its set changed would show
        computed = []

        def record(rt, tables, stats):
            computed.append((rt.config.parallelism, rt.ctx.superstep))
            return pull_record(rt, tables, stats)

        monkeypatch.setattr(vectorized, "pull_record", record)
        results = run_all(
            g, WCC, parallelisms=(1, 2), mode="bpull", num_workers=4,
            message_buffer_per_worker=100,
        )
        assert_identical(results)
        responding = [
            s.responding_vertices for s in results[-1].metrics.supersteps
        ]
        assert responding[0] == g.num_vertices and responding[-1] == 0
        assert any(0 < r < g.num_vertices for r in responding)
        if results[-1].runtime.active_executor == "vectorized":
            gathers = list(range(2, len(responding) + 1))
            for parallelism in (1, 2):
                assert [
                    step for p, step in computed if p == parallelism
                ] == gathers

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
        assert one.memory_bytes == many.memory_bytes
        # same messages, and the same vertex order
        expected = list(one.load().messages.items())
        assert list(many.load().messages.items()) == expected
        return expected

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
        # an interleaved stream of the three calls that crosses the
        # buffer boundary twice (a loaded store starts empty again)
        for capacity in (7, 0):
            one, mixed = self._stores(capacity=capacity)
            stream = []
            for dsts, value in groups:
                mixed.deposit(dsts[-1], -value)
                mixed.deposit_many([(dst, value + 1) for dst in dsts])
                mixed.deposit_fanout([(dsts, value), (dsts[:1], value)],
                                     len(dsts) + 1)
                stream.append((dsts[-1], -value))
                stream.extend((dst, value + 1) for dst in dsts)
                stream.extend((dst, value) for dst in dsts + dsts[:1])
            for dst, value in stream:
                one.deposit(dst, value)
            assert one.total_spilled == len(stream) - capacity
            in_stream_order = {}
            for dst, value in stream:
                in_stream_order.setdefault(dst, []).append(value)
            assert self._assert_same(one, mixed) == list(
                in_stream_order.items()
            )

    def test_deposit_fanout_unlimited_capacity(self):
        groups = [((0, 1), 1.0), ((2,), 2.0)]
        one, fan = self._stores(capacity=None)
        for dsts, value in groups:
            for dst in dsts:
                one.deposit(dst, value)
        fan.deposit_fanout(list(groups), 3)
        self._assert_same(one, fan)
