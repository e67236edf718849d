"""Unit tests for runtime setup, Vblock sizing (Eqs. 5-6), loading costs."""

import pytest

from repro.algorithms.lpa import LPA
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WCC
from repro.cluster.checkpoint import restore_checkpoint
from repro.core.config import JobConfig
from repro.core.graph import Graph, range_partition
from repro.core.runtime import Runtime, choose_vblocks_per_worker
from repro.datasets.generators import random_graph


def small_graph():
    return random_graph(60, 4, seed=5)


class TestChooseVblocks:
    def test_eq5_combinable(self):
        g = small_graph()
        p = range_partition(g.num_vertices, 3)
        n_i = p.size_of(0)
        expected = -(-(2 * n_i + n_i * 3) // 100)  # ceil
        assert choose_vblocks_per_worker(g, p, 0, 100, True) == expected

    def test_eq6_concat_only_uses_in_degree(self):
        g = small_graph()
        p = range_partition(g.num_vertices, 3)
        local = set(p.vertices_of(1))
        in_deg = sum(1 for _s, d, _w in g.edges() if d in local)
        expected = max(1, -(-in_deg // 50))
        assert choose_vblocks_per_worker(g, p, 1, 50, False) == expected

    def test_unlimited_buffer_one_block(self):
        g = small_graph()
        p = range_partition(g.num_vertices, 2)
        assert choose_vblocks_per_worker(g, p, 0, None, True) == 1

    def test_smaller_buffer_more_blocks(self):
        g = small_graph()
        p = range_partition(g.num_vertices, 2)
        big = choose_vblocks_per_worker(g, p, 0, 200, True)
        small = choose_vblocks_per_worker(g, p, 0, 20, True)
        assert small > big
        # down to the finest layout, one vertex per Vblock, at B_i = 0
        assert choose_vblocks_per_worker(g, p, 0, 0, True) == p.size_of(0)


class TestRuntimeSetup:
    def test_push_builds_adjacency_and_store(self):
        rt = Runtime(small_graph(), PageRank(), JobConfig(mode="push",
                                                          num_workers=2))
        rt.setup()
        for w in rt.workers:
            assert w.adjacency is not None
            assert w.veblock is None
            assert w.message_store is not None

    def test_bpull_builds_veblock_only(self):
        rt = Runtime(small_graph(), PageRank(), JobConfig(mode="bpull",
                                                          num_workers=2))
        rt.setup()
        for w in rt.workers:
            assert w.adjacency is None
            assert w.veblock is not None
            assert w.message_store is None

    def test_hybrid_builds_both(self):
        rt = Runtime(small_graph(), PageRank(), JobConfig(mode="hybrid",
                                                          num_workers=2))
        rt.setup()
        for w in rt.workers:
            assert w.adjacency is not None
            assert w.veblock is not None
            assert w.message_store is not None
        assert rt.load_metrics.structures == "adj+veblock"

    def test_pull_builds_reverse_and_cache(self):
        rt = Runtime(small_graph(), PageRank(),
                     JobConfig(mode="pull", num_workers=2,
                               message_buffer_per_worker=10))
        rt.setup()
        assert rt.reverse is not None
        for w in rt.workers:
            assert w.vertex_cache is not None

    def test_pushm_requires_combinable(self):
        rt = Runtime(small_graph(), LPA(), JobConfig(mode="pushm",
                                                     num_workers=2))
        with pytest.raises(ValueError, match="combinable"):
            rt.setup()

    def test_pushm_hot_vertices_are_top_in_degree(self):
        g = Graph(6, [(0, 3), (1, 3), (2, 3), (4, 5)])
        rt = Runtime(g, PageRank(), JobConfig(mode="pushm", num_workers=1,
                                              message_buffer_per_worker=1))
        rt.setup()
        store = rt.workers[0].message_store
        assert store._hot == frozenset({3})

    def test_initial_values_and_flags(self):
        g = small_graph()
        rt = Runtime(g, PageRank(), JobConfig(mode="push", num_workers=2))
        assert len(rt.values) == g.num_vertices
        # the dense initial_values hook agrees with initial_value,
        # value and type, for the programs that override it
        for program in (PageRank(), SSSP(source=1), WCC(), LPA()):
            rt = Runtime(g, program, JobConfig(num_workers=2))
            expected = [
                program.initial_value(v, rt.ctx)
                for v in range(g.num_vertices)
            ]
            assert rt.values == expected
            assert list(map(type, rt.values)) == list(map(type, expected))
        assert not any(rt.resp_prev)
        assert not any(rt.resp_next)
        # owner_of agrees with the partition: uneven splits and more
        # workers than vertices, range and hash
        for graph, workers in ((g, 2), (g, 7), (Graph(3, [(0, 1)]), 5)):
            for partition in ("range", "hash"):
                rt = Runtime(graph, PageRank(), JobConfig(
                    num_workers=workers, partition=partition,
                ))
                assert rt.owner_of == [
                    rt.partition.owner(v)
                    for v in range(graph.num_vertices)
                ]

    def test_load_metrics_nonzero_when_on_disk(self):
        rt = Runtime(small_graph(), PageRank(), JobConfig(mode="push",
                                                          num_workers=2))
        rt.setup()
        assert rt.load_metrics.io.seq_write > 0
        assert rt.load_metrics.elapsed_seconds > 0

    def test_load_free_when_memory_resident(self):
        rt = Runtime(small_graph(), PageRank(),
                     JobConfig(mode="push", num_workers=2,
                               graph_on_disk=False))
        rt.setup()
        assert rt.load_metrics.io.total == 0

    def test_veblock_load_costs_more_than_adj(self):
        g = small_graph()
        adj = Runtime(g, PageRank(), JobConfig(mode="push", num_workers=2))
        adj.setup()
        veb = Runtime(g, PageRank(), JobConfig(mode="bpull", num_workers=2))
        veb.setup()
        assert veb.load_metrics.io.total > adj.load_metrics.io.total

    def test_vblocks_override(self):
        rt = Runtime(small_graph(), PageRank(),
                     JobConfig(mode="bpull", num_workers=2,
                               vblocks_per_worker=4))
        rt.setup()
        assert rt.layout.num_blocks == 8

    def test_swap_flags(self):
        rt = Runtime(small_graph(), PageRank(), JobConfig(mode="push",
                                                          num_workers=2))
        rt.setup()
        rt.resp_next[0] = True
        rt.swap_flags()
        assert rt.resp_prev[0] is True
        assert not any(rt.resp_next)

    def test_reset_for_restart_clears_state(self):
        rt = Runtime(small_graph(), PageRank(), JobConfig(mode="push",
                                                          num_workers=2))
        rt.setup()
        rt.values[0] = 123.0
        rt.resp_next[1] = True
        rt.workers[0].message_store.deposit(0, 1.0)
        rt.ctx.aggregates = {"delta": 3.0}
        restore_checkpoint(rt, None)  # recompute from scratch
        assert rt.values[0] == 0.0
        assert not any(rt.resp_next)
        assert rt.pending_messages() == 0
        assert rt.ctx.aggregates == {}
