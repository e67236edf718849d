"""Regression tests: ``metrics.checkpoints`` hygiene across recovery.

Both recovery paths must leave the checkpoint log consistent with the
supersteps that actually survived:

* restoring a snapshot discards the supersteps after it, so any
  checkpoint entries recorded past the restore point are stale and must
  be trimmed (re-execution re-appends the ones that happen again);
* recompute-from-scratch discards everything, so the log must be
  cleared along with ``supersteps``/``mode_trace``.
"""

from repro.algorithms.pagerank import PageRank
from repro.core.config import FaultPlan, JobConfig
from repro.core.engine import _rewind_metrics, run_job
from repro.core.metrics import JobMetrics
from repro.datasets.generators import random_graph


def cfg(**kwargs):
    kwargs.setdefault("message_buffer_per_worker", 20)
    return JobConfig(mode="push", num_workers=3, **kwargs)


def stale_metrics():
    """A metrics object recorded up to superstep 6, checkpoints at 2/4/6."""
    metrics = JobMetrics(
        mode="push", graph_name="g", program_name="p", num_workers=3
    )
    metrics.mode_trace = ["push"] * 6
    metrics.supersteps = [object()] * 6  # content irrelevant here
    metrics.checkpoints = [(2, 100, 0.1), (4, 100, 0.1), (6, 100, 0.1)]
    return metrics


class TestRewindHelpers:
    def test_rewind_trims_checkpoints_past_restore_point(self):
        metrics = stale_metrics()
        _rewind_metrics(metrics, 4)
        assert len(metrics.supersteps) == 4
        assert len(metrics.mode_trace) == 4
        assert [t for t, _b, _s in metrics.checkpoints] == [2, 4]

    def test_rewind_keeps_checkpoint_at_restore_point(self):
        metrics = stale_metrics()
        _rewind_metrics(metrics, 6)
        assert [t for t, _b, _s in metrics.checkpoints] == [2, 4, 6]

    def test_reset_clears_checkpoints(self):
        metrics = stale_metrics()
        _rewind_metrics(metrics, 0)  # recompute from scratch
        assert metrics.supersteps == []
        assert metrics.mode_trace == []
        assert metrics.checkpoints == []


class TestCheckpointLogAfterRecovery:
    def test_restore_path_matches_clean_run(self):
        g = random_graph(90, 5, seed=73)
        clean = run_job(g, PageRank(supersteps=8),
                        cfg(checkpoint_interval=2))
        faulty = run_job(
            g, PageRank(supersteps=8),
            cfg(checkpoint_interval=2,
                fault=FaultPlan(worker=1, superstep=7)),
        )
        assert faulty.metrics.recovered_from == 6
        assert faulty.metrics.checkpoints == clean.metrics.checkpoints
        taken = [t for t, _b, _s in faulty.metrics.checkpoints]
        assert taken == sorted(set(taken))  # no duplicates, increasing

    def test_fault_before_first_checkpoint_uses_scratch_path(self):
        g = random_graph(90, 5, seed=73)
        clean = run_job(g, PageRank(supersteps=8),
                        cfg(checkpoint_interval=4))
        faulty = run_job(
            g, PageRank(supersteps=8),
            cfg(checkpoint_interval=4,
                fault=FaultPlan(worker=0, superstep=3)),
        )
        # no snapshot existed yet: recompute from scratch, then the
        # re-execution records the interval checkpoints exactly once.
        assert faulty.metrics.recovered_from is None
        assert faulty.metrics.restarts == 1
        assert faulty.metrics.checkpoints == clean.metrics.checkpoints

    def test_scratch_recovery_without_checkpointing_keeps_log_empty(self):
        g = random_graph(90, 5, seed=73)
        faulty = run_job(
            g, PageRank(supersteps=6),
            cfg(fault=FaultPlan(worker=2, superstep=4)),
        )
        assert faulty.metrics.restarts == 1
        assert faulty.metrics.checkpoints == []
