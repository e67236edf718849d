"""Edge cases: self-loops, multi-edges, tiny graphs, estimator bounds."""

import json
import math
import multiprocessing

import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.core.graph import Graph
from repro.core.modes import vectorized
from repro.datasets.generators import random_graph

MODES = ("push", "bpull", "hybrid", "pull")

#: parallelism degrees the vectorized checks run: p=2 only where the
#: process pool can run (elsewhere it would just fall back to p=1).
PARALLELISMS = (
    (1, 2)
    if vectorized.np is not None
    and "fork" in multiprocessing.get_all_start_methods()
    else (1,)
)


def _dump(result):
    payload = result.metrics.to_dict()
    payload.pop("fallback", None)  # recorded only by downgraded runs
    return json.dumps(payload, sort_keys=True)


def assert_vectorized_matches_reference(graph, program, modes, **cfg):
    """Vectorized b-pull/hybrid runs, in process and on the pool, equal
    the reference executor's metrics and values."""
    for mode in modes:
        reference = run_job(graph, program(), JobConfig(
            mode=mode, executor="reference", **cfg))
        for parallelism in PARALLELISMS:
            result = run_job(graph, program(), JobConfig(
                mode=mode, executor="vectorized", parallelism=parallelism,
                **cfg))
            if vectorized.np is not None:
                rt = result.runtime
                assert rt.active_executor == "vectorized"
                assert rt.active_parallelism == parallelism
            assert _dump(result) == _dump(reference)
            assert result.values == reference.values


class TestIrregularGraphs:
    def loop_graph(self):
        g = Graph(4, name="loops")
        g.add_edge(0, 0)          # self-loop
        g.add_edge(0, 1)
        g.add_edge(0, 1)          # parallel edge
        g.add_edge(1, 2, 5.0)
        g.add_edge(1, 2, 1.0)     # parallel with different weight
        g.add_edge(2, 3)
        return g

    @pytest.mark.parametrize("mode", MODES)
    def test_self_loops_and_multi_edges(self, mode):
        g = self.loop_graph()
        reference = run_job(g, SSSP(source=0),
                            JobConfig(mode="push", num_workers=2,
                                      message_buffer_per_worker=2))
        result = run_job(g, SSSP(source=0),
                         JobConfig(mode=mode, num_workers=2,
                                   message_buffer_per_worker=2))
        assert result.values == reference.values
        # the cheaper parallel edge wins
        assert reference.values[2] == pytest.approx(2.0)
        if mode in ("bpull", "hybrid"):
            assert_vectorized_matches_reference(
                g, lambda: SSSP(source=0), (mode,),
                num_workers=2, message_buffer_per_worker=2,
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_single_vertex_graph(self, mode):
        g = Graph(1)
        result = run_job(g, PageRank(supersteps=3),
                         JobConfig(mode=mode, num_workers=1))
        # no in-edges: the rank settles at the teleport share (1-d)/N
        assert result.values == [pytest.approx(0.15)]

    @pytest.mark.parametrize("mode", ("push", "bpull", "hybrid"))
    def test_edgeless_graph(self, mode):
        g = Graph(5)
        result = run_job(g, SSSP(source=2),
                         JobConfig(mode=mode, num_workers=2))
        assert result.values[2] == 0.0
        assert all(
            math.isinf(v) for i, v in enumerate(result.values) if i != 2
        )
        # every responder's edge stream is empty: gathers send nothing
        if mode in ("bpull", "hybrid"):
            assert_vectorized_matches_reference(
                g, lambda: SSSP(source=2), (mode,), num_workers=2,
            )

    def test_more_workers_than_vertices(self):
        g = Graph(3, [(0, 1), (1, 2)])
        result = run_job(g, SSSP(source=0),
                         JobConfig(mode="hybrid", num_workers=8,
                                   message_buffer_per_worker=2))
        assert result.values == [0.0, 1.0, 2.0]
        # most workers own no vertex, so their edge streams are empty
        assert_vectorized_matches_reference(
            g, lambda: SSSP(source=0), ("bpull", "hybrid"),
            num_workers=8, message_buffer_per_worker=2,
        )


class TestEstimatorBounds:
    def test_global_spill_estimate_lower_bounds_measured(self):
        """The switcher's IO(M_disk) estimate uses the cluster-total
        buffer; per-worker buffers make actual spill at least that."""
        g = random_graph(150, 6, seed=111)
        buffer = 30
        result = run_job(g, PageRank(supersteps=4),
                         JobConfig(mode="push", num_workers=3,
                                   message_buffer_per_worker=buffer))
        for step in result.metrics.supersteps:
            estimate = max(0, step.raw_messages - 3 * buffer)
            assert step.spilled_messages >= estimate

    def test_switch_supersteps_have_both_cost_kinds(self):
        """A bpull->push switch superstep pulls *and* pushes: both edge
        cost channels are populated (Fig. 14's resource bump)."""
        from repro.datasets.generators import social_graph

        g = social_graph(300, 8, seed=62, tail_fraction=0.5,
                         tail_chain=40)
        result = run_job(g, SSSP(source=0),
                         JobConfig(mode="hybrid", num_workers=3,
                                   vblocks_per_worker=6,
                                   message_buffer_per_worker=5))
        switch_steps = [
            s for s in result.metrics.supersteps
            if s.mode == "bpull->push"
        ]
        assert switch_steps, "expected a bpull->push switch"
        for step in switch_steps:
            assert step.io_edges_bpull > 0  # pulled this superstep
            assert step.io_edges_push > 0   # and pushed new messages
