"""Recovery matrix: crash at every position × checkpoint interval.

Sweeps the crash superstep across the whole run — before the first
snapshot, on snapshot supersteps, between them, and on the hybrid
switch superstep — crossed with checkpoint intervals, asserting every
cell converges to the fault-free values.  This is the blanket guarantee
behind the point tests: no (fault position, interval) combination may
resume from a snapshot inconsistently.
"""

import json

import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.core.config import FaultPlan, JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import random_graph


def _graph():
    return random_graph(300, 6, seed=42)


def _dump(result):
    payload = result.metrics.to_dict()
    payload.pop("fallback", None)
    return json.dumps(payload, sort_keys=True)


class TestCrashEverywhere:
    """PageRank (fixed horizon): crash at every superstep position."""

    CFG = dict(mode="hybrid", num_workers=4,
               message_buffer_per_worker=100, max_supersteps=6)

    @pytest.fixture(scope="class")
    def clean(self):
        return run_job(_graph(), PageRank(), JobConfig(**self.CFG))

    @pytest.mark.parametrize("interval", [1, 3])
    @pytest.mark.parametrize("superstep", [1, 2, 3, 4, 5, 6])
    def test_values_match_clean(self, clean, superstep, interval):
        result = run_job(_graph(), PageRank(), JobConfig(
            **self.CFG,
            fault=FaultPlan(worker=superstep % 4, superstep=superstep),
            checkpoint_interval=interval,
        ))
        assert result.values == clean.values
        assert result.metrics.restarts == 1
        record = result.metrics.recoveries[0]
        # the resume point is the newest snapshot strictly before the
        # crash (snapshots land every `interval` supersteps).
        expected_resume = ((superstep - 1) // interval) * interval
        assert record["resume_after"] == expected_resume
        assert record["policy"] == (
            "checkpoint" if expected_resume else "scratch"
        )
        assert record["rework_supersteps"] == superstep - 1 - expected_resume


class TestCrashOnSwitch:
    """SSSP to convergence: crashes around the hybrid switch point."""

    CFG = dict(mode="hybrid", num_workers=4,
               message_buffer_per_worker=100)

    @pytest.fixture(scope="class")
    def clean(self):
        result = run_job(_graph(), SSSP(source=0), JobConfig(**self.CFG))
        assert any("->" in label for label in result.metrics.mode_trace)
        return result

    def _switch_superstep(self, clean):
        for index, label in enumerate(clean.metrics.mode_trace):
            if "->" in label:
                return index + 1
        raise AssertionError("no switch in the clean run")

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("interval", [1, 3])
    def test_crash_near_switch(self, clean, offset, interval):
        superstep = self._switch_superstep(clean) + offset
        if superstep < 1:
            pytest.skip("switch happens on the first superstep")
        result = run_job(_graph(), SSSP(source=0), JobConfig(
            **self.CFG,
            fault=FaultPlan(worker=1, superstep=superstep),
            checkpoint_interval=interval,
        ))
        assert result.values == clean.values
        assert result.metrics.restarts == 1
        assert result.metrics.mode_trace == clean.metrics.mode_trace

    @pytest.mark.parametrize("interval", [1, 3])
    def test_crash_near_switch_parallel(self, clean, interval):
        superstep = self._switch_superstep(clean)
        sequential = run_job(_graph(), SSSP(source=0), JobConfig(
            **self.CFG,
            fault=FaultPlan(worker=1, superstep=superstep),
            checkpoint_interval=interval,
        ))
        # the pool runs only vectorized gathers
        parallel = run_job(_graph(), SSSP(source=0), JobConfig(
            **self.CFG, executor="vectorized", parallelism=2,
            fault=FaultPlan(worker=1, superstep=superstep),
            checkpoint_interval=interval,
        ))
        assert _dump(parallel) == _dump(sequential)
        assert parallel.values == clean.values
