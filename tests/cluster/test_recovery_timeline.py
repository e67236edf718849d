"""Regression tests: recovery must not leave stale traffic samples.

Before the fix, recompute-from-scratch and ``restore_checkpoint`` left
the samples of the discarded supersteps in ``SimulatedNetwork.timeline``,
so a recovered job reported phantom network traffic for supersteps that
were re-executed.
"""

from repro.algorithms.pagerank import PageRank
from repro.cluster.network import SimulatedNetwork
from repro.core.config import FaultPlan, JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import random_graph
from repro.storage.disk import HDD_PROFILE


def make_net(num_workers=3):
    return SimulatedNetwork(num_workers, HDD_PROFILE, 1000, 8)


def sample_superstep(net, superstep, nbytes):
    net.begin_superstep(superstep)
    net.transfer(0, 1, nbytes, units=1)
    net.end_superstep()


class TestTimelineMaintenance:
    def test_clear_timeline(self):
        net = make_net()
        sample_superstep(net, 1, 100)
        sample_superstep(net, 2, 200)
        net.truncate_timeline(0)  # recompute from scratch
        assert net.timeline == []

    def test_truncate_timeline_keeps_committed_prefix(self):
        net = make_net()
        for t in range(1, 6):
            sample_superstep(net, t, 100 * t)
        net.truncate_timeline(3)
        assert [t for t, _nbytes in net.timeline] == [1, 2, 3]

    def test_truncate_past_end_is_noop(self):
        net = make_net()
        sample_superstep(net, 1, 100)
        net.truncate_timeline(9)
        assert len(net.timeline) == 1


class TestRecoveryTimeline:
    def test_restart_from_scratch_drops_discarded_samples(self):
        g = random_graph(80, 5, seed=13)
        cfg = JobConfig(mode="push", num_workers=3,
                        message_buffer_per_worker=20,
                        fault=FaultPlan(worker=1, superstep=4))
        result = run_job(g, PageRank(supersteps=6), cfg)
        assert result.metrics.restarts == 1
        timeline = result.runtime.network.timeline
        supersteps = [t for t, _nbytes in timeline]
        # no duplicates from the discarded pre-failure attempt, and
        # samples arrive in execution order
        assert len(supersteps) == len(set(supersteps))
        assert supersteps == sorted(supersteps)

    def test_restart_timeline_matches_clean_run(self):
        g = random_graph(80, 5, seed=13)
        base = JobConfig(mode="push", num_workers=3,
                         message_buffer_per_worker=20)
        clean = run_job(g, PageRank(supersteps=6), base)
        faulty = run_job(g, PageRank(supersteps=6),
                         base.but(fault=FaultPlan(worker=1, superstep=4)))
        assert (faulty.runtime.network.timeline
                == clean.runtime.network.timeline)

    def test_checkpoint_restore_truncates_uncommitted_samples(self):
        g = random_graph(80, 5, seed=13)
        base = JobConfig(mode="hybrid", num_workers=3,
                         message_buffer_per_worker=20,
                         checkpoint_interval=2)
        clean = run_job(g, PageRank(supersteps=6), base)
        faulty = run_job(g, PageRank(supersteps=6),
                         base.but(fault=FaultPlan(worker=0, superstep=5)))
        assert faulty.metrics.restarts == 1
        supersteps = [t for t, _n in faulty.runtime.network.timeline]
        assert len(supersteps) == len(set(supersteps))
        assert supersteps == sorted(supersteps)
        assert (faulty.runtime.network.timeline
                == clean.runtime.network.timeline)

    def test_traffic_timeline_metric_agrees_with_network(self):
        g = random_graph(80, 5, seed=13)
        cfg = JobConfig(mode="push", num_workers=3,
                        message_buffer_per_worker=20,
                        fault=FaultPlan(worker=1, superstep=3))
        result = run_job(g, PageRank(supersteps=6), cfg)
        reported = [t for t, _n in result.metrics.traffic_timeline]
        assert len(reported) == len(set(reported))
