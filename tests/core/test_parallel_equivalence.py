"""Parallel-runtime guard: ``parallelism=N`` must not change one byte.

The process-pool runtime (:mod:`repro.core.modes.parallel`) executes
each superstep's per-worker halves across N OS processes; the
coordinator folds the shards in fixed worker-id order, which is supposed
to make ``JobMetrics.to_dict()`` byte-identical to the in-process
executors.  These tests run the same jobs at parallelism 1, 2, and 4 —
through both the batched and vectorized tiers, across push/b-pull/
hybrid (including switch supersteps) and the recovery paths — and
compare the full dumps.

The pool needs ``fork`` + ``multiprocessing.shared_memory``; on
platforms without them the runtime falls back to in-process execution
(trivially identical), so the cells stay valid everywhere.
"""

import json
import multiprocessing

import pytest

from repro.algorithms.lpa import LPA
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.algorithms.wcc import WCC
from repro.core.config import FaultPlan, JobConfig
from repro.core.engine import run_job
from repro.core.runtime import Runtime
from repro.datasets.generators import random_graph

PARALLELISMS = (1, 2, 4)


def _graph():
    return random_graph(300, 6, seed=42)


def _dump(result):
    payload = result.metrics.to_dict()
    # the fallback record names the requested parallelism, which
    # legitimately differs across the compared runs.
    payload.pop("fallback", None)
    return json.dumps(payload, sort_keys=True)


def run_sweep(graph, program_factory, **cfg_kwargs):
    results = []
    for parallelism in PARALLELISMS:
        cfg = JobConfig(parallelism=parallelism, **cfg_kwargs)
        results.append(run_job(graph, program_factory(), cfg))
    return results


def assert_sweep_identical(results):
    reference = results[0]
    expected = _dump(reference)
    for other in results[1:]:
        assert _dump(other) == expected
        assert other.values == reference.values
    # the engine's try/finally must have reaped every pool process.
    assert multiprocessing.active_children() == []


class TestParallelEquivalence:
    @pytest.mark.parametrize("executor", ["batched", "vectorized"])
    @pytest.mark.parametrize("mode", ["push", "bpull", "hybrid"])
    @pytest.mark.parametrize(
        "program_factory",
        [PageRank, lambda: SSSP(source=0), LPA, WCC],
        ids=["pagerank", "sssp", "lpa", "wcc"],
    )
    def test_metrics_identical(self, executor, mode, program_factory):
        assert_sweep_identical(run_sweep(
            _graph(), program_factory, executor=executor, mode=mode,
            num_workers=4, message_buffer_per_worker=100,
            max_supersteps=6,
        ))

    @pytest.mark.parametrize("executor", ["batched", "vectorized"])
    def test_hybrid_switch_supersteps(self, executor):
        # to convergence, so the hybrid controller switches transports
        # and the mixed-mechanism switch supersteps run on the pool.
        results = run_sweep(
            _graph(), lambda: SSSP(source=0), executor=executor,
            mode="hybrid", num_workers=4,
            message_buffer_per_worker=100,
        )
        assert_sweep_identical(results)
        trace = results[0].metrics.mode_trace
        assert any("->" in label for label in trace), trace

    @pytest.mark.parametrize("executor", ["batched", "vectorized"])
    def test_memory_resident_push(self, executor):
        assert_sweep_identical(run_sweep(
            _graph(), PageRank, executor=executor, mode="push",
            num_workers=4, graph_on_disk=False, max_supersteps=5,
        ))

    def test_parallelism_clamped_to_num_workers(self):
        g = _graph()
        cfg = JobConfig(
            mode="push", num_workers=3, parallelism=8,
            max_supersteps=3, message_buffer_per_worker=100,
        )
        result = run_job(g, PageRank(), cfg)
        assert result.runtime.active_parallelism == 3
        expected = _dump(run_job(g, PageRank(), cfg.but(parallelism=1)))
        assert _dump(result) == expected


class TestRecoveryWithPool:
    """Fault injection and checkpoint restore while the pool is live."""

    CELLS = {
        "scratch": dict(fault=FaultPlan(worker=1, superstep=3)),
        "checkpoint": dict(
            fault=FaultPlan(worker=1, superstep=3),
            checkpoint_interval=2,
        ),
    }

    @pytest.mark.parametrize("executor", ["batched", "vectorized"])
    @pytest.mark.parametrize("policy", sorted(CELLS))
    def test_recovery_identical(self, executor, policy):
        results = run_sweep(
            _graph(), PageRank, executor=executor, mode="hybrid",
            num_workers=4, message_buffer_per_worker=100,
            max_supersteps=6, **self.CELLS[policy],
        )
        assert_sweep_identical(results)
        assert results[0].metrics.restarts == 1

    def test_no_orphans_after_recovery(self):
        # the failure fires while pool processes hold pre-failure state;
        # the engine must reap them before the rewind and the job end.
        result = run_job(_graph(), PageRank(), JobConfig(
            mode="push", num_workers=4, parallelism=4,
            message_buffer_per_worker=100, max_supersteps=5,
            fault=FaultPlan(worker=0, superstep=3),
            checkpoint_interval=2,
        ))
        assert result.metrics.restarts == 1
        assert result.metrics.recovered_from == 2
        assert multiprocessing.active_children() == []
        assert result.runtime._pool is None


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", None])
    def test_rejects_non_positive_or_non_int(self, bad):
        with pytest.raises(ValueError, match="parallelism"):
            JobConfig(parallelism=bad)

    def test_accepts_one_and_above(self):
        assert JobConfig(parallelism=1).parallelism == 1
        assert JobConfig(parallelism=16).parallelism == 16

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            JobConfig(executor="threaded")


class TestFallbackSurface:
    """Satellite: the requested-vs-active record in metrics and JSON."""

    def _metrics(self, **cfg_kwargs):
        cfg = JobConfig(
            num_workers=4, max_supersteps=3,
            message_buffer_per_worker=100, **cfg_kwargs,
        )
        return run_job(_graph(), PageRank(), cfg).metrics

    def test_absent_without_downgrade(self):
        metrics = self._metrics(mode="push", parallelism=2)
        assert metrics.fallback is None
        assert "fallback" not in metrics.to_dict()

    def test_reference_executor_has_no_parallel_path(self):
        metrics = self._metrics(
            mode="push", executor="reference", parallelism=2
        )
        fb = metrics.fallback
        assert fb is not None
        assert fb["requested_parallelism"] == 2
        assert fb["active_parallelism"] == 1
        assert "batched or vectorized" in fb["reason"]

    def test_pull_mode_has_no_parallel_path(self):
        metrics = self._metrics(mode="pull", parallelism=2)
        assert metrics.fallback["active_parallelism"] == 1
        assert "no parallel path" in metrics.fallback["reason"]

    def test_round_trips_through_json(self):
        metrics = self._metrics(
            mode="push", executor="reference", parallelism=2
        )
        payload = json.loads(metrics.to_json())
        assert payload["fallback"] == metrics.to_dict()["fallback"]
        assert payload["fallback"]["requested_executor"] == "reference"

    def test_combines_executor_and_parallelism_reasons(self):
        # LPA has no dense rules -> vectorized downgrades to batched;
        # batched still has a parallel path, so only the executor
        # reason appears and parallelism stays active.
        metrics = run_job(_graph(), LPA(supersteps=3), JobConfig(
            mode="push", num_workers=4, executor="vectorized",
            parallelism=2, message_buffer_per_worker=100,
        )).metrics
        fb = metrics.fallback
        assert fb["active_executor"] == "batched"
        assert fb["active_parallelism"] == 2


class TestFallbackReasons:
    """parallel_fallback_reason cells; the active one also runs its job."""

    def _runtime(self, **cfg_kwargs):
        cfg = JobConfig(num_workers=4, **cfg_kwargs)
        return Runtime(_graph(), PageRank(), cfg)

    def test_async_push_falls_back(self):
        rt = self._runtime(
            mode="push", asynchronous=True, parallelism=2,
            message_buffer_per_worker=100,
        )
        assert rt.active_parallelism == 1
        assert "sequential" in rt.executor_fallback

    def test_bpull_parallel_is_active(self):
        rt = self._runtime(mode="bpull", parallelism=2)
        assert rt.active_parallelism == 2
        assert rt.executor_fallback is None
        for executor in ("batched", "vectorized"):
            self._assert_pool_spans(executor)

    def _assert_pool_spans(self, executor):
        """The real-concurrency spans each pool round leaves in the trace."""
        cfg = JobConfig(
            executor=executor, parallelism=2, mode="bpull", num_workers=4,
            message_buffer_per_worker=100,
        )
        plain = run_job(_graph(), PageRank(supersteps=3), cfg)
        traced = run_job(_graph(), PageRank(supersteps=3),
                         cfg.but(trace=True))
        assert traced.runtime.active_parallelism == 2
        assert _dump(traced) == _dump(plain)
        assert traced.values == plain.values

        spans = [e for e in traced.trace.events if e.cat == "parallel"]
        rounds = {}  # (superstep, round label) -> span names
        for event in spans:
            key = (event.superstep, event.args["round"])
            rounds.setdefault(key, []).append(event.name)
        supersteps = [s.superstep for s in traced.metrics.supersteps]
        assert supersteps == [1, 2, 3]
        # a Phase-2 round every superstep, a gather round from the second
        expected = {(step, "phase2") for step in supersteps}
        expected |= {(step, "gather") for step in supersteps if step >= 2}
        assert set(rounds) == expected
        assert len(rounds) == 5
        for names in rounds.values():
            assert sorted(names) == sorted(
                ["process_busy", "process_barrier"] * 2 + ["merge"]
            )
        # one busy/barrier pair per pool process in every round
        for name in ("process_busy", "process_barrier"):
            processes = [
                e.args["process"] for e in spans if e.name == name
            ]
            assert sorted(processes) == [0] * 5 + [1] * 5
