"""Vectorized executor: fallback matrix, CSR view, array message store.

The byte-identity of the executor itself is covered by
``test_hotpath_equivalence.py``; this module tests the scaffolding
around it — when the runtime may and may not go dense, that the dense
prerequisites (CSR view, flag views, array store) behave, and that the
NumPy-less interpreter degrades transparently.

Tests that *require* dense execution call ``pytest.importorskip`` so the
NumPy-less CI leg still runs the fallback half of this file.
"""

import copy

import pytest

from repro.algorithms.lpa import LPA
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.cluster.checkpoint import restore_checkpoint
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.core.flags import FlagBitset
from repro.core.graph import Graph
from repro.core.modes import vectorized
from repro.core.runtime import Runtime
from repro.datasets.generators import random_graph
from repro.storage.disk import SimulatedDisk
from repro.storage.messages import SpillingMessageStore
from repro.storage.records import DEFAULT_SIZES


def _runtime(program, **cfg_kwargs):
    cfg_kwargs.setdefault("executor", "vectorized")
    cfg_kwargs.setdefault("num_workers", 2)
    graph = random_graph(40, 3, seed=1)
    return Runtime(graph, program, JobConfig(**cfg_kwargs))


class TestFallbackMatrix:
    def test_no_numpy_falls_back(self, monkeypatch):
        monkeypatch.setattr(vectorized, "np", None)
        rt = _runtime(PageRank())
        assert rt.active_executor == "batched"
        assert "NumPy" in rt.executor_fallback

    def test_no_numpy_job_still_runs(self, monkeypatch):
        monkeypatch.setattr(vectorized, "np", None)
        g = random_graph(60, 4, seed=3)
        kwargs = dict(mode="push", num_workers=2, max_supersteps=4)
        fell_back = run_job(
            g, PageRank(),
            JobConfig(executor="vectorized", **kwargs),
        )
        batched = run_job(
            g, PageRank(), JobConfig(executor="batched", **kwargs)
        )
        assert fell_back.values == batched.values

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            (dict(mode="pushm"), "mode"),
            (dict(asynchronous=True, mode="push"), "asynchronous"),
            (dict(sender_combine=True), "sender_combine"),
            (dict(receiver_combine=True), "receiver_combine"),
            (dict(mode="bpull", bpull_combine=False), "b-pull"),
        ],
    )
    def test_scalar_only_features_fall_back(self, kwargs, needle):
        # without NumPy every reason collapses to "NumPy is not
        # installed", so the per-feature reasons need it present.
        pytest.importorskip("numpy")
        rt = _runtime(SSSP(source=0), **kwargs)
        assert rt.active_executor == "batched"
        assert needle in rt.executor_fallback

    def test_program_without_rules_falls_back(self):
        pytest.importorskip("numpy")
        rt = _runtime(LPA())
        assert rt.active_executor == "batched"
        assert "lpa" in rt.executor_fallback

    def test_vectorizable_job_stays_dense(self, monkeypatch):
        np = pytest.importorskip("numpy")
        for program in (PageRank(), SSSP(source=0)):
            rt = _runtime(program, mode="hybrid")
            assert rt.active_executor == "vectorized"
            assert rt.executor_fallback is None
        # hybrid's push views are the array VE-BLOCK store's rows, not
        # a second copy of them
        for partition in ("range", "hash"):
            rt = _runtime(PageRank(), mode="hybrid", partition=partition)
            rt.setup()
            state = vectorized._VecState(rt)
            for worker, wvec in zip(rt.workers, state.workers):
                store = worker.veblock
                assert np.shares_memory(wvec.e_dst, store.e_dst)
                assert np.shares_memory(wvec.e_w, store.e_w)
                assert np.shares_memory(wvec.e_src, store.e_sv)
        # the dense rules read the CSR degrees: no job-wide degree list
        monkeypatch.setattr(Graph, "out_degrees", None)
        result = run_job(
            random_graph(40, 3, seed=1), PageRank(supersteps=3),
            JobConfig(executor="vectorized", mode="bpull", num_workers=2),
        )
        assert result.runtime.active_executor == "vectorized"
        monkeypatch.undo()
        # every vertex responds in every b-pull PageRank superstep, so
        # each responder's scan plan, and the accounting record kept
        # with them, is built once and then reused
        rt = _runtime(PageRank(), mode="bpull")
        rt.setup()
        plans = []
        records = []
        for superstep in (1, 2, 3):
            vectorized.run_superstep_vectorized(
                rt, superstep, "pull", "flag", "bpull"
            )
            rt.swap_flags()
            plans.append(dict(rt.scratch["vectorized"].plans))
            records.append(rt.scratch["vectorized"].record)
        assert not plans[0]
        assert len(plans[1]) == 2
        assert all(plans[2][w] is plans[1][w] for w in (0, 1))
        assert records[0] is None
        assert records[1] is not None and records[2] is records[1]

    def test_batched_request_is_untouched(self):
        rt = _runtime(PageRank(), executor="batched")
        assert rt.active_executor == "batched"
        assert rt.executor_fallback is None
        # its degree list answers as the graph does
        graph = rt.graph
        assert [rt.ctx.out_degree(v) for v in graph.vertices()] == [
            graph.out_degree(v) for v in graph.vertices()
        ]


class TestCSRView:
    def _graph(self):
        g = Graph(5)
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 3, 1.0)
        g.add_edge(2, 4, 5.0)
        g.add_edge(4, 0, 0.5)
        return g

    def test_csr_matches_adjacency(self):
        np = pytest.importorskip("numpy")
        g = self._graph()
        csr = g.csr()
        assert csr.indptr.tolist() == [0, 2, 2, 3, 3, 4]
        for v in range(5):
            lo, hi = csr.indptr[v], csr.indptr[v + 1]
            assert (
                list(zip(csr.indices[lo:hi].tolist(),
                         csr.weights[lo:hi].tolist()))
                == list(g.out_edges(v))
            )
        assert csr.out_degrees.tolist() == [2, 0, 1, 0, 1]
        assert csr.indices.dtype == np.int64
        # zero-copy, read-only views of the stored buffers
        assert np.shares_memory(csr.indptr, g.indptr)
        assert np.shares_memory(csr.indices, g.indices)
        assert np.shares_memory(csr.weights, g.weights)
        assert not csr.indices.flags.writeable
        # copies share the buffers but cache their own views
        fresh = self._graph()
        a, b = copy.copy(fresh), copy.copy(fresh)
        assert a.indices is b.indices is fresh.indices
        assert a.csr() is not b.csr()
        assert np.shares_memory(a.csr().indices, b.csr().indices)
        assert fresh._csr is None

    def test_csr_cached_and_invalidated_by_add_edge(self):
        pytest.importorskip("numpy")
        g = self._graph()
        first = g.csr()
        assert g.csr() is first
        g.add_edge(1, 2, 1.0)
        second = g.csr()
        assert second is not first
        assert second.out_degrees.tolist() == [2, 1, 1, 0, 1]
        # the exported buffers were replaced, not resized: the old view
        # still reads the old edges
        assert first.indices.tolist() == [1, 3, 4, 0]
        assert second.indices.tolist() == [1, 3, 2, 4, 0]

    def test_row_span_and_gather_rows_agree(self):
        np = pytest.importorskip("numpy")
        g = random_graph(30, 4, seed=5)
        csr = g.csr()
        indptr_a, dst_a, w_a = csr.row_span(10, 20)
        rows = np.arange(10, 20, dtype=np.int64)
        indptr_b, dst_b, w_b = csr.gather_rows(rows)
        assert indptr_a.tolist() == indptr_b.tolist()
        assert dst_a.tolist() == dst_b.tolist()
        assert w_a.tolist() == w_b.tolist()


class TestFlagNumpyView:
    def test_view_is_writable_and_aliases_data(self):
        np = pytest.importorskip("numpy")
        flags = FlagBitset(10)
        view = flags.numpy_view(np)
        view[[2, 7]] = 1
        flags.add_to_count(2)
        assert flags.true_count == 2
        assert flags.to_list() == [
            v in (2, 7) for v in range(10)
        ]


class TestVectorizedMessageStore:
    """The array store must mirror SpillingMessageStore's cost model."""

    def _feed(self, chunks, capacity):
        np = pytest.importorskip("numpy")
        scalar = SpillingMessageStore(
            capacity, DEFAULT_SIZES, SimulatedDisk(), combine=None
        )
        dense = vectorized.VectorizedMessageStore(
            capacity, DEFAULT_SIZES, SimulatedDisk()
        )
        for dsts, payloads in chunks:
            scalar.deposit_many(list(zip(dsts, payloads)))
            dense.deposit_arrays(
                np.asarray(dsts, dtype=np.int64),
                np.asarray(payloads, dtype=np.float64),
            )
        return scalar, dense

    @pytest.mark.parametrize("capacity", [None, 3, 5, 100])
    def test_charges_and_accounting_match(self, capacity):
        chunks = [
            ([0, 2, 2], [1.0, 2.0, 3.0]),
            ([1, 0], [4.0, 5.0]),
            ([2], [6.0]),
        ]
        scalar, dense = self._feed(chunks, capacity)
        assert dense.pending_count == scalar.pending_count
        assert dense.memory_bytes == scalar.memory_bytes
        assert dense.spilled_pending == scalar.spilled_pending
        assert dense.total_spilled == scalar.total_spilled
        assert dense._disk.counters == scalar._disk.counters

    @pytest.mark.parametrize("capacity", [None, 3, 100])
    def test_load_matches_scalar_store(self, capacity):
        chunks = [
            ([0, 2, 2], [1.0, 2.0, 3.0]),
            ([1, 0], [4.0, 5.0]),
        ]
        scalar, dense = self._feed(chunks, capacity)
        expected = scalar.load()
        actual = dense.load()
        assert actual.messages == expected.messages
        assert actual.spilled_read == expected.spilled_read
        assert actual.spilled_count == expected.spilled_count
        assert dense._disk.counters == scalar._disk.counters
        assert dense.pending_count == 0

    def test_load_arrays_preserves_deposit_order(self):
        np = pytest.importorskip("numpy")
        dense = vectorized.VectorizedMessageStore(
            2, DEFAULT_SIZES, SimulatedDisk()
        )
        dense.deposit_arrays(
            np.array([3, 1]), np.array([1.0, 2.0])
        )
        dense.deposit_arrays(np.array([3]), np.array([3.0]))
        dsts, payloads, spilled_read, spilled_count = (
            dense.load_arrays()
        )
        assert dsts.tolist() == [3, 1, 3]
        assert payloads.tolist() == [1.0, 2.0, 3.0]
        assert spilled_count == 1
        assert spilled_read == DEFAULT_SIZES.messages(1)


class TestRecoveryInvalidation:
    def test_reset_for_restart_clears_scratch(self):
        rt = _runtime(PageRank(), executor="batched")
        rt.setup()
        rt.scratch["vectorized"] = object()
        rt.scratch["inbox"] = {}
        restore_checkpoint(rt, None)  # recompute from scratch
        assert rt.scratch == {}

    def test_lazy_push_fanout_builds_once(self):
        rt = _runtime(PageRank(), executor="batched", mode="push")
        assert rt._push_fanout is None
        assert not rt._push_fanout_built
        fanout = rt.push_fanout
        assert fanout is not None
        assert len(fanout) == rt.graph.num_vertices
        assert rt.push_fanout is fanout

    def test_push_fanout_none_when_not_applicable(self):
        rt = _runtime(SSSP(source=0), executor="batched", mode="bpull")
        assert rt.push_fanout is None
