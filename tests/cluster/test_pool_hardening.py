"""Pool hardening: child death and hangs must not corrupt or leak.

An unplanned SIGKILL (or a hung child) during a pool round is detected
by the liveness/timeout checks in ``_ParallelPool._attempt_round``; the
pool re-forks once and replays the round, and only a second consecutive
failure escalates to :class:`WorkerFailure` (the engine's recovery
policy).  Either way the job must end with no orphan processes and no
leaked ``/dev/shm`` segments, and — because every round is a pure read
of coordinator state — with metrics byte-identical to the sequential
run.  The pool runs vectorized b-pull gathers only, so every case here
is a vectorized ``bpull`` or ``hybrid`` job.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.algorithms.pagerank import PageRank
from repro.core.config import FaultPlan, JobConfig
from repro.core.engine import run_job
from repro.core.modes import parallel as parallel_mod
from repro.core.modes import vectorized
from repro.datasets.generators import random_graph

pytestmark = [
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="pool hardening requires the fork start method",
    ),
    pytest.mark.skipif(
        vectorized.np is None,
        reason="the pool runs vectorized gathers, which need NumPy",
    ),
]


def _graph():
    return random_graph(200, 6, seed=5)


def _dump(result):
    payload = result.metrics.to_dict()
    payload.pop("fallback", None)
    return json.dumps(payload, sort_keys=True)


def _shm_segments():
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture()
def harmed_pool(monkeypatch):
    """Arm the next pool round with *harm* (SIGKILL/SIGSTOP one child).

    Patches ``_attempt_round`` so the first round of the job harms one
    child before running; records the pool so tests can assert on its
    ``reforks`` counter after the job finished.
    """
    state = {"armed": None, "pool": None}
    original = parallel_mod._ParallelPool._attempt_round

    def patched(self, messages):
        state["pool"] = self
        harm = state["armed"]
        if harm is not None:
            state["armed"] = None
            victim = self.procs[0]
            os.kill(victim.pid, harm)
            if harm == signal.SIGKILL:
                victim.join(timeout=10)

    monkeypatch.setattr(
        parallel_mod._ParallelPool, "_attempt_round",
        lambda self, messages: (
            patched(self, messages),
            original(self, messages),
        )[1],
    )
    return state


class TestReforkRetry:
    @pytest.mark.parametrize("mode", ["bpull", "hybrid"])
    def test_unplanned_sigkill_is_retried_transparently(
        self, harmed_pool, mode
    ):
        cfg = JobConfig(mode=mode, num_workers=4, executor="vectorized",
                        message_buffer_per_worker=100, max_supersteps=5)
        expected = _dump(run_job(_graph(), PageRank(), cfg))
        harmed_pool["armed"] = signal.SIGKILL
        before = _shm_segments()
        result = run_job(_graph(), PageRank(), cfg.but(parallelism=2))
        assert _dump(result) == expected
        # the death was absorbed by one re-fork, not a job restart.
        assert harmed_pool["pool"].reforks == 1
        assert result.metrics.restarts == 0
        assert multiprocessing.active_children() == []
        assert _shm_segments() <= before

    def test_hung_child_times_out_and_is_retried(
        self, harmed_pool, monkeypatch
    ):
        monkeypatch.setattr(parallel_mod, "ROUND_TIMEOUT_SECONDS", 1.0)
        cfg = JobConfig(mode="bpull", num_workers=4, executor="vectorized",
                        message_buffer_per_worker=100, max_supersteps=4)
        expected = _dump(run_job(_graph(), PageRank(), cfg))
        harmed_pool["armed"] = signal.SIGSTOP
        result = run_job(_graph(), PageRank(), cfg.but(parallelism=2))
        assert _dump(result) == expected
        assert harmed_pool["pool"].reforks == 1
        assert result.metrics.restarts == 0
        assert multiprocessing.active_children() == []


class TestPlannedKill:
    @pytest.mark.parametrize("mode", ["bpull", "hybrid"])
    def test_kill_fault_recovery_matches_sequential(self, mode):
        cfg = JobConfig(mode=mode, num_workers=4, executor="vectorized",
                        message_buffer_per_worker=100, max_supersteps=6,
                        fault=FaultPlan(worker=1, superstep=3,
                                        kind="kill"),
                        checkpoint_interval=2)
        expected = _dump(run_job(_graph(), PageRank(), cfg))
        before = _shm_segments()
        result = run_job(_graph(), PageRank(), cfg.but(parallelism=2))
        assert _dump(result) == expected
        assert result.metrics.restarts == 1
        assert result.metrics.recoveries[0]["kind"] == "kill"
        assert multiprocessing.active_children() == []
        assert _shm_segments() <= before

    def test_kill_scratch_recovery_matches_sequential(self):
        # no checkpoints: the SIGKILL forces recompute-from-scratch
        # with a freshly forked pool.
        cfg = JobConfig(mode="bpull", num_workers=4, executor="vectorized",
                        message_buffer_per_worker=100, max_supersteps=5,
                        fault=FaultPlan(worker=2, superstep=3,
                                        kind="kill"))
        expected = _dump(run_job(_graph(), PageRank(), cfg))
        result = run_job(_graph(), PageRank(), cfg.but(parallelism=2))
        assert _dump(result) == expected
        assert result.metrics.recoveries[0]["policy"] == "scratch"
        assert result.runtime._pool is None
        assert multiprocessing.active_children() == []

    def test_kill_on_first_parallel_superstep_forks_then_kills(self):
        # the fault fires before any round ran: kill_pool_worker must
        # fork the pool just to kill the child, and recovery proceeds.
        cfg = JobConfig(mode="bpull", num_workers=4, parallelism=2,
                        executor="vectorized",
                        message_buffer_per_worker=100, max_supersteps=4,
                        fault=FaultPlan(worker=0, superstep=1,
                                        kind="kill"))
        result = run_job(_graph(), PageRank(), cfg)
        assert result.metrics.restarts == 1
        assert multiprocessing.active_children() == []


class TestNoLeaks:
    def test_vectorized_fault_run_leaves_no_shm(self):
        before = _shm_segments()
        run_job(_graph(), PageRank(), JobConfig(
            mode="bpull", num_workers=4, parallelism=4,
            executor="vectorized", message_buffer_per_worker=100,
            max_supersteps=6, checkpoint_interval=2,
            fault=FaultPlan(worker=1, superstep=3, kind="kill",
                            repeat=2),
        ))
        assert _shm_segments() <= before
        assert multiprocessing.active_children() == []

    def test_exhausted_restarts_still_clean_up(self):
        before = _shm_segments()
        with pytest.raises(Exception):
            run_job(_graph(), PageRank(), JobConfig(
                mode="bpull", num_workers=4, parallelism=2,
                executor="vectorized",
                message_buffer_per_worker=100, max_supersteps=5,
                max_restarts=1,
                fault=FaultPlan(worker=1, superstep=2, kind="kill",
                                repeat=5),
            ))
        assert _shm_segments() <= before
        assert multiprocessing.active_children() == []
