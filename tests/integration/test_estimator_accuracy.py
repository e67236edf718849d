"""Cross-validation of the switcher's other-side cost estimators.

While running push, hybrid estimates what b-pull *would* cost (and vice
versa) from metadata rather than by running it (Section 5.3).  These
tests run both pure transports over the same graph and compare each
superstep's estimate against the other mode's measured bytes.
"""

import pytest

from repro.algorithms.pagerank import PageRank
from repro.analysis.costmodel import cio_bpull_of, cio_push_of
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.core.runtime import Runtime
from repro.datasets.generators import random_graph, social_graph


def paired_runs(graph, **cfg_kwargs):
    cfg_kwargs.setdefault("num_workers", 3)
    cfg_kwargs.setdefault("message_buffer_per_worker", 20)
    cfg_kwargs.setdefault("vblocks_per_worker", 4)
    push = run_job(graph, PageRank(supersteps=5),
                   JobConfig(mode="push", **cfg_kwargs))
    bpull = run_job(graph, PageRank(supersteps=5),
                    JobConfig(mode="bpull", **cfg_kwargs))
    hybrid_rt = Runtime(graph, PageRank(supersteps=5),
                        JobConfig(mode="hybrid", **cfg_kwargs))
    hybrid_rt.setup()
    return push, bpull, hybrid_rt


class TestBpullEstimateWhilePushing:
    def test_estimate_matches_measured_bpull_bytes(self):
        """With PageRank every vertex responds every superstep, so the
        VE-BLOCK estimate over the full flag vector must equal what a
        real b-pull superstep scans."""
        g = social_graph(400, 8, seed=141, tail_fraction=0.0)
        push, bpull, hybrid_rt = paired_runs(g)
        flags = [True] * g.num_vertices
        edge_bytes = aux_bytes = vrr_bytes = 0
        for worker in hybrid_rt.workers:
            _e, a_b, e_b, v_b = worker.veblock.estimate_bpull_scan(flags)
            edge_bytes += e_b
            aux_bytes += a_b
            vrr_bytes += v_b
        # steady-state b-pull supersteps (skip ss1: no pull yet)
        step = bpull.metrics.supersteps[2]
        assert step.io_edges_bpull == edge_bytes
        assert step.io_fragments == aux_bytes
        assert step.io_vrr == vrr_bytes


class TestSpillEstimateWhilePulling:
    def test_global_spill_estimate_tracks_push(self):
        g = random_graph(300, 8, seed=142)
        buffer = 30
        push, bpull, _rt = paired_runs(
            g, message_buffer_per_worker=buffer
        )
        sizes_msg = 12
        for push_step, bpull_step in zip(
            push.metrics.supersteps[1:], bpull.metrics.supersteps[1:]
        ):
            # both transports move the same messages each superstep
            assert push_step.raw_messages == bpull_step.raw_messages
            estimate = max(
                0, bpull_step.raw_messages - 3 * buffer
            ) * sizes_msg
            # global-buffer estimate is a (tight-ish) lower bound on the
            # per-worker reality
            assert push_step.io_message_spill >= estimate
            assert push_step.io_message_spill <= estimate * 1.25 + (
                3 * buffer * sizes_msg
            )


class TestEqSevenEightConsistency:
    def test_cio_values_reasonable_magnitudes(self):
        g = social_graph(400, 8, seed=141, tail_fraction=0.0)
        push, bpull, _rt = paired_runs(g, message_buffer_per_worker=10)
        for p_step, b_step in zip(push.metrics.supersteps[1:],
                                  bpull.metrics.supersteps[1:]):
            # both formulas count the identical IO(V_t) term
            assert p_step.io_vertex == b_step.io_vertex
            assert cio_push_of(p_step) > 0
            assert cio_bpull_of(b_step) > 0

    def test_theorem2_direction_at_tiny_buffer(self):
        g = social_graph(400, 8, seed=141, tail_fraction=0.0)
        push, bpull, hybrid_rt = paired_runs(
            g, message_buffer_per_worker=5, vblocks_per_worker=2
        )
        fragments = hybrid_rt.total_fragments()
        if 15 <= g.num_edges / 2 - fragments:
            for p_step, b_step in zip(push.metrics.supersteps[1:],
                                      bpull.metrics.supersteps[1:]):
                assert cio_push_of(p_step) >= cio_bpull_of(b_step)
