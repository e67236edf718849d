"""Driver-death resume: ``resume_from`` continues after the last snapshot.

Two layers: an in-process split run (run 4 supersteps with a durable
checkpoint directory, then resume a fresh ``run_job`` from it) that can
assert full metric byte-identity, and a true driver-kill test that runs
the job in a subprocess, SIGKILLs it once at least two snapshots are
durable, and resumes in the parent — the scenario the in-memory
checkpoint log cannot survive.
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.core.config import FaultPlan, JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import random_graph

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _graph():
    return random_graph(200, 6, seed=5)


def _dump(result, drop=("fallback",)):
    payload = result.metrics.to_dict()
    for key in drop:
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


class TestInProcessResume:
    CFG = dict(mode="hybrid", num_workers=3,
               message_buffer_per_worker=100, checkpoint_interval=2)

    def test_resume_continues_after_last_snapshot(self, tmp_path):
        clean = run_job(_graph(), PageRank(supersteps=8),
                        JobConfig(**self.CFG, max_supersteps=8))
        # 5 supersteps with interval 2 → durable snapshots at 2 and 4
        # (the engine never snapshots the final superstep of a budget).
        first = run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=5,
            checkpoint_dir=str(tmp_path),
        ))
        assert [t for t, _b, _s in first.metrics.checkpoints] == [2, 4]
        resumed = run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=8,
            resume_from=str(tmp_path),
        ))
        assert resumed.metrics.resumed_from == 4
        assert resumed.values == clean.values
        # everything except the resume marker is byte-identical.
        drop = ("fallback", "resumed_from")
        assert _dump(resumed, drop) == _dump(clean, drop)

        # a snapshot restores into any executor tier, including the
        # pending messages of another tier's message store class.
        tiers = (("vectorized", "batched"), ("batched", "vectorized"),
                 ("batched", "reference"))
        for program, mode, (writer, reader) in itertools.product(
            (lambda: PageRank(supersteps=8), SSSP),
            ("push", "hybrid", "bpull"), tiers,
        ):
            cfg = dict(self.CFG, mode=mode)
            cell = tmp_path / f"{program().name}-{mode}-{writer}-{reader}"
            clean = run_job(_graph(), program(), JobConfig(
                **cfg, max_supersteps=8, executor=reader,
            ))
            run_job(_graph(), program(), JobConfig(
                **cfg, max_supersteps=5, executor=writer,
                checkpoint_dir=str(cell),
            ))
            resumed = run_job(_graph(), program(), JobConfig(
                **cfg, max_supersteps=8, executor=reader,
                resume_from=str(cell),
            ))
            assert resumed.metrics.resumed_from == 4, cell.name
            assert resumed.values == clean.values, cell.name
            assert _dump(resumed, drop) == _dump(clean, drop), cell.name

    def test_resume_skips_corrupted_latest(self, tmp_path):
        clean = run_job(_graph(), PageRank(supersteps=8),
                        JobConfig(**self.CFG, max_supersteps=8))
        run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=5,
            checkpoint_dir=str(tmp_path),
        ))
        from repro.cluster.checkpoint_store import CheckpointStore

        assert CheckpointStore(str(tmp_path)).corrupt_latest() is not None
        resumed = run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=8,
            resume_from=str(tmp_path),
        ))
        assert resumed.metrics.resumed_from == 2
        assert resumed.values == clean.values

    def test_resume_from_empty_directory_starts_fresh(self, tmp_path):
        clean = run_job(_graph(), PageRank(supersteps=6),
                        JobConfig(**self.CFG, max_supersteps=6))
        resumed = run_job(_graph(), PageRank(supersteps=6), JobConfig(
            **self.CFG, max_supersteps=6,
            resume_from=str(tmp_path / "nothing-here"),
        ))
        assert resumed.metrics.resumed_from is None
        assert resumed.values == clean.values

    def test_stale_snapshots_cannot_leap_recovery_forward(self, tmp_path):
        # a previous run's leftover files (here: through superstep 4)
        # sit in the directory; a fresh run that crashes at superstep 3
        # must recover from ITS newest snapshot below the failure (2),
        # never leap forward to the stale 4.
        clean = run_job(_graph(), PageRank(supersteps=8),
                        JobConfig(**self.CFG, max_supersteps=8))
        run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=5,
            checkpoint_dir=str(tmp_path),
        ))  # leaves ckpt-2 and ckpt-4 behind
        crashed = run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=8,
            checkpoint_dir=str(tmp_path),
            fault=FaultPlan(worker=1, superstep=3),
        ))
        assert crashed.metrics.restarts == 1
        assert crashed.metrics.recoveries[0]["resume_after"] == 2
        assert crashed.values == clean.values
        # identical to the same crash with no stale files around.
        fresh_dir = tmp_path / "fresh"
        control = run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=8,
            checkpoint_dir=str(fresh_dir),
            fault=FaultPlan(worker=1, superstep=3),
        ))
        assert _dump(crashed) == _dump(control)

    def test_resume_then_fault_recovers_from_durable_store(self, tmp_path):
        clean = run_job(_graph(), PageRank(supersteps=8),
                        JobConfig(**self.CFG, max_supersteps=8))
        run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=5,
            checkpoint_dir=str(tmp_path),
        ))
        resumed = run_job(_graph(), PageRank(supersteps=8), JobConfig(
            **self.CFG, max_supersteps=8,
            resume_from=str(tmp_path),
            fault=FaultPlan(worker=1, superstep=7),
        ))
        assert resumed.metrics.resumed_from == 4
        assert resumed.metrics.restarts == 1
        assert resumed.metrics.recoveries[0]["resume_after"] == 6
        assert resumed.values == clean.values


_CHILD_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
# slow each durable write down so the parent can observe progress and
# kill the driver mid-run deterministically.
from repro.cluster import checkpoint_store as cs
_orig = cs.CheckpointStore.save
def _slow(self, *args, **kwargs):
    path = _orig(self, *args, **kwargs)
    time.sleep(0.4)
    return path
cs.CheckpointStore.save = _slow
from repro.core.config import JobConfig
from repro.core.engine import run_job
from repro.algorithms.pagerank import PageRank
from repro.datasets.generators import random_graph
run_job(
    random_graph(200, 6, seed=5), PageRank(supersteps=12),
    JobConfig(mode="hybrid", num_workers=3,
              message_buffer_per_worker=100, checkpoint_interval=1,
              max_supersteps=12, checkpoint_dir={ckpt_dir!r}),
)
"""


class TestDriverKillResume:
    def _snapshot_indices(self, directory):
        return sorted(
            int(name[len("ckpt-"):-len(".bin")])
            for name in os.listdir(directory)
            if name.startswith("ckpt-") and name.endswith(".bin")
        )

    def test_sigkilled_driver_resumes_from_durable_snapshots(
        self, tmp_path
    ):
        ckpt_dir = str(tmp_path / "ckpts")
        child = subprocess.Popen(
            [sys.executable, "-c",
             _CHILD_SCRIPT.format(src=_SRC, ckpt_dir=ckpt_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if os.path.isdir(ckpt_dir):
                    indices = self._snapshot_indices(ckpt_dir)
                    if indices and indices[-1] >= 2:
                        break
                if child.poll() is not None:
                    stderr = child.stderr.read().decode()
                    raise AssertionError(
                        f"driver exited before two snapshots were "
                        f"durable:\n{stderr}"
                    )
                time.sleep(0.05)
            else:
                raise AssertionError("no durable snapshots appeared")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)
            child.stderr.close()

        killed_at = self._snapshot_indices(ckpt_dir)[-1]
        cfg = JobConfig(mode="hybrid", num_workers=3,
                        message_buffer_per_worker=100,
                        checkpoint_interval=1, max_supersteps=12)
        clean = run_job(_graph(), PageRank(supersteps=12), cfg)
        resumed = run_job(_graph(), PageRank(supersteps=12),
                          cfg.but(resume_from=ckpt_dir))
        assert resumed.metrics.resumed_from is not None
        assert 2 <= resumed.metrics.resumed_from <= killed_at
        assert resumed.values == clean.values
        drop = ("fallback", "resumed_from")
        assert _dump(resumed, drop) == _dump(clean, drop)
