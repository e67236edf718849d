"""Fault injection and recompute-from-scratch recovery (Appendix A)."""

import pytest

from repro.algorithms.pagerank import PageRank, _PageRankRules
from repro.algorithms.sssp import SSSP
from repro.cluster.fault import FaultInjector
from repro.core.api import UpdateResult
from repro.core.config import FaultPlan, JobConfig
from repro.core.engine import run_job
from repro.core.modes import vectorized
from repro.datasets.generators import random_graph


class _SeesAggregatesRules(_PageRankRules):
    def update_dense(self, ctx, targets, values, acc, has_message, xp):
        new, respond = super().update_dense(
            ctx, targets, values, acc, has_message, xp
        )
        if ctx.superstep == 1:
            new = new + ctx.aggregates.get("seen", 0.0)
        return new, respond

    def aggregate_dense(self, ctx, targets, old_values, new_values, xp):
        return {"seen": xp.ones(len(targets))}


class SeesAggregates(PageRank):
    """PageRank whose superstep-1 rank adds the previous totals.

    Fault-free, superstep 1 sees no totals.  A restart that kept the
    failed attempt's totals would shift every rank.
    """

    def update(self, vid, value, messages, ctx):
        result = super().update(vid, value, messages, ctx)
        if ctx.superstep == 1:
            return UpdateResult(
                value=result.value + ctx.aggregates.get("seen", 0.0),
                respond=result.respond,
            )
        return result

    def aggregate(self, vid, old_value, new_value, ctx):
        return {"seen": 1.0}

    def vectorized(self):
        return _SeesAggregatesRules(self)


class TestFaultInjector:
    def test_fires_at_planned_superstep(self):
        injector = FaultInjector(FaultPlan(worker=1, superstep=3))
        assert injector.fire(1) == []
        assert injector.fire(2) == []
        [fault] = injector.fire(3)
        assert fault.kind == "crash"
        assert fault.worker == 1
        assert fault.superstep == 3

    def test_fires_only_once(self):
        injector = FaultInjector(FaultPlan(worker=0, superstep=2))
        assert [f.kind for f in injector.fire(2)] == ["crash"]
        assert injector.fire(2) == []  # quiet after the restart

    def test_no_plan_never_fires(self):
        injector = FaultInjector(None)
        for t in range(1, 10):
            assert injector.fire(t) == []


class TestRecovery:
    @pytest.mark.parametrize("mode", ["push", "bpull", "hybrid"])
    def test_restart_reproduces_failure_free_result(self, mode):
        g = random_graph(80, 5, seed=13)
        base_cfg = JobConfig(mode=mode, num_workers=3,
                             message_buffer_per_worker=20)
        clean = run_job(g, PageRank(supersteps=6), base_cfg)
        faulty = run_job(
            g, PageRank(supersteps=6),
            base_cfg.but(fault=FaultPlan(worker=1, superstep=4)),
        )
        assert faulty.values == clean.values
        assert faulty.metrics.restarts == 1
        assert clean.metrics.restarts == 0
        # a scratch restart starts superstep 1 with no aggregator totals
        for executor in ("batched", "vectorized", "reference"):
            cfg = base_cfg.but(executor=executor)
            clean = run_job(g, SeesAggregates(supersteps=6), cfg)
            faulty = run_job(
                g, SeesAggregates(supersteps=6),
                cfg.but(fault=FaultPlan(worker=1, superstep=3)),
            )
            if vectorized.np is not None:
                assert faulty.runtime.executor_fallback is None
            assert faulty.metrics.recoveries[0]["policy"] == "scratch"
            assert faulty.values == clean.values

    def test_restart_with_sssp(self):
        g = random_graph(80, 5, seed=13)
        cfg = JobConfig(mode="push", num_workers=3,
                        message_buffer_per_worker=20)
        clean = run_job(g, SSSP(source=0), cfg)
        faulty = run_job(g, SSSP(source=0),
                         cfg.but(fault=FaultPlan(worker=0, superstep=2)))
        assert faulty.values == clean.values
        assert faulty.metrics.restarts == 1

    def test_failure_before_first_superstep_of_hybrid_replans(self):
        g = random_graph(80, 5, seed=13)
        cfg = JobConfig(mode="hybrid", num_workers=2,
                        message_buffer_per_worker=5,
                        fault=FaultPlan(worker=0, superstep=1))
        result = run_job(g, PageRank(supersteps=4), cfg)
        assert result.metrics.restarts == 1
        assert result.metrics.num_supersteps == 4
