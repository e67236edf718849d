"""Appendix B's worked example, executed verbatim.

The paper walks SSSP over a 5-vertex graph with VE-BLOCK split into
three Vblocks (b1 = {v1, v2}, b2 = {v3, v4}, b3 = {v5}) on two
computational nodes (T1 holds b1 and b2, T2 holds b3), with v3 the
source.  Figs. 20-22 spell out the metadata, the message data-flow of
superstep 2, and the push-vs-b-pull superstep timelines; this test
reproduces each detail.

Vertex ids are shifted down by one (the paper's v1..v5 are our 0..4).
The edges and the 0.8-weight edge (v3, v2) come from Fig. 20/22.
"""

import pytest

from repro.algorithms.sssp import SSSP
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.core.graph import Graph, range_partition
from repro.storage.disk import SimulatedDisk
from repro.storage.records import DEFAULT_SIZES
from repro.storage.veblock import BlockLayout, VEBlockStore


def example_graph():
    """Appendix B's example graph (paper ids v1..v5 -> 0..4)."""
    g = Graph(5, name="appendix-b")
    g.add_edge(0, 1, 1.0)   # v1 -> v2
    g.add_edge(1, 0, 1.0)   # v2 -> v1
    g.add_edge(2, 1, 0.8)   # v3 -> v2 (the 0.8 edge of Fig. 22)
    g.add_edge(2, 3, 1.0)   # v3 -> v4
    g.add_edge(2, 4, 1.0)   # v3 -> v5
    g.add_edge(3, 4, 1.0)   # v4 -> v5
    g.add_edge(4, 2, 1.0)   # v5 -> v3
    return g


def build_layout():
    """b1 = {v1, v2}, b2 = {v3, v4} on T1; b3 = {v5} on T2."""
    partition = range_partition(5, 2)  # T1: 0-2? need custom split
    # range_partition(5, 2) gives T1 = {0,1,2}, T2 = {3,4}; the paper
    # puts v1..v4 on T1 and v5 on T2 — emulate with explicit blocks by
    # re-partitioning 4/1:
    from repro.core.graph import Partition

    partition = Partition(num_workers=2, kind="range", starts=(0, 4),
                          num_vertices=5)
    layout = BlockLayout.build(partition, [2, 1])
    return partition, layout


def bitmap(store, block):
    """``X_j``'s bitmap of *block*: its Eblocks' destination blocks."""
    return {dst for src, dst in store._eblocks if src == block}


class TestAppendixBStructure:
    def test_blocks_match_paper(self):
        _partition, layout = build_layout()
        assert layout.block_vertices == ((0, 1), (2, 3), (4,))
        assert layout.block_owner == (0, 0, 1)

    def test_metadata_bitmaps(self):
        partition, layout = build_layout()
        g = example_graph()
        t1 = VEBlockStore(g, partition, 0, layout, SimulatedDisk(),
                          DEFAULT_SIZES)
        t2 = VEBlockStore(g, partition, 1, layout, SimulatedDisk(),
                          DEFAULT_SIZES)
        # "the bitmap in X1 (100) indicates that the vertices in b1 only
        # have out-neighbors in Eblock g11"
        assert bitmap(t1, 0) == {0}
        # b2 (v3, v4) has edges into b1 (v3->v2), b2 (nothing? v3->v4 is
        # within b2) and b3 (v3->v5, v4->v5)
        assert bitmap(t1, 1) == {0, 1, 2}
        # b3 = {v5} has the single edge v5->v3 into b2
        assert bitmap(t2, 2) == {1}

    def test_fragments_of_the_example(self):
        partition, layout = build_layout()
        g = example_graph()
        t1 = VEBlockStore(g, partition, 0, layout, SimulatedDisk(),
                          DEFAULT_SIZES)
        # g21 holds exactly the fragment (v3, [(v2, 0.8)]): one
        # fragment, one edge
        assert t1.eblock(1, 0) == ([(2, [(1, 0.8)])], 1, 1)

    def test_superstep2_dataflow(self):
        """Fig. 22: requesting b1 at superstep 2 yields exactly the
        message (v2, 0.8) generated from v3's fragment in g21."""
        partition, layout = build_layout()
        g = example_graph()
        t1 = VEBlockStore(g, partition, 0, layout, SimulatedDisk(),
                          DEFAULT_SIZES)
        t2 = VEBlockStore(g, partition, 1, layout, SimulatedDisk(),
                          DEFAULT_SIZES)
        # after superstep 1 only the source v3 responds
        flags = [False, False, True, False, False]
        for store in (t1, t2):
            store.begin_superstep_stats()
            store.refresh_res(flags)
        produced = []
        for store in (t1, t2):
            for svertex, edges in store.scan_for_request(0, flags):
                produced.extend((svertex, dst, w) for dst, w in edges)
        assert produced == [(2, 1, 0.8)]


class TestAppendixBExecution:
    def test_sssp_distances(self):
        g = example_graph()
        for mode in ("push", "bpull", "hybrid"):
            result = run_job(g, SSSP(source=2),
                             JobConfig(mode=mode, num_workers=2,
                                       message_buffer_per_worker=4))
            # v3=0; v2=0.8; v4=1; v5=1; v1 via v2: 1.8
            assert result.values == pytest.approx(
                [1.8, 0.8, 0.0, 1.0, 1.0]
            ), mode

    def test_push_timeline_matches_fig21(self):
        """Fig. 21: push — ss1 source sends 3 msgs; ss2 v2/v4/v5 update
        and forward; the computation quiesces by superstep 4-5."""
        g = example_graph()
        result = run_job(g, SSSP(source=2),
                         JobConfig(mode="push", num_workers=2,
                                   message_buffer_per_worker=4))
        steps = result.metrics.supersteps
        assert steps[0].raw_messages == 3      # to v2, v4, v5
        assert steps[1].updated_vertices == 3  # v2, v4, v5
        assert result.metrics.num_supersteps <= 5

    def test_bpull_ss1_moves_no_messages(self):
        """Fig. 21: in b-pull superstep 1 the source only updates; no
        messages are transferred until superstep 2's pull."""
        g = example_graph()
        result = run_job(g, SSSP(source=2),
                         JobConfig(mode="bpull", num_workers=2,
                                   message_buffer_per_worker=4))
        steps = result.metrics.supersteps
        assert steps[0].raw_messages == 0
        assert steps[1].raw_messages == 3
        assert steps[1].updated_vertices == 3
