"""FaultPlan/FaultSchedule validation and injector semantics."""

import pytest

from repro.cluster.fault import FaultInjector, FiredFault, as_schedule
from repro.core.config import FAULT_KINDS, FaultPlan, FaultSchedule, JobConfig
from repro.core.engine import run_job
from repro.datasets.generators import random_graph


class TestFaultPlanValidation:
    def test_defaults(self):
        plan = FaultPlan(worker=1, superstep=3)
        assert plan.kind == "crash"
        assert plan.factor == 4.0
        assert plan.repeat == 1

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_accepts_every_kind(self, kind):
        assert FaultPlan(worker=0, superstep=1, kind=kind).kind == kind

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultPlan(worker=0, superstep=1, kind="meteor")

    @pytest.mark.parametrize("worker", [-1, 1.5, "0", None])
    def test_rejects_bad_worker(self, worker):
        with pytest.raises(ValueError, match="worker"):
            FaultPlan(worker=worker, superstep=1)

    @pytest.mark.parametrize("superstep", [0, -3, 2.5, "1"])
    def test_rejects_bad_superstep(self, superstep):
        with pytest.raises(ValueError, match="superstep"):
            FaultPlan(worker=0, superstep=superstep)

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_rejects_non_positive_factor(self, factor):
        with pytest.raises(ValueError, match="factor"):
            FaultPlan(worker=0, superstep=1, kind="straggler",
                      factor=factor)

    @pytest.mark.parametrize("repeat", [0, -1, 1.5])
    def test_rejects_bad_repeat(self, repeat):
        with pytest.raises(ValueError, match="repeat"):
            FaultPlan(worker=0, superstep=1, repeat=repeat)


class TestFaultScheduleValidation:
    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert schedule.empty
        assert schedule.faults == ()

    def test_coerces_fault_list_to_tuple(self):
        schedule = FaultSchedule(faults=[FaultPlan(worker=0, superstep=1)])
        assert isinstance(schedule.faults, tuple)
        assert not schedule.empty

    def test_rejects_non_plan_entries(self):
        with pytest.raises(ValueError, match="faults"):
            FaultSchedule(faults=("crash@3",))

    @pytest.mark.parametrize("p", [-0.1, 1.5, "0.5"])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError, match="chaos_probability"):
            FaultSchedule(chaos_probability=p)

    def test_rejects_unknown_chaos_kind(self):
        with pytest.raises(ValueError, match="chaos fault kind"):
            FaultSchedule(chaos_probability=0.5, chaos_kinds=("meteor",))

    def test_rejects_empty_chaos_kinds(self):
        with pytest.raises(ValueError, match="chaos_kinds"):
            FaultSchedule(chaos_probability=0.5, chaos_kinds=())

    @pytest.mark.parametrize("n", [-1, 2.5])
    def test_rejects_bad_max_faults(self, n):
        with pytest.raises(ValueError, match="chaos_max_faults"):
            FaultSchedule(chaos_probability=0.5, chaos_max_faults=n)

    def test_probabilistic_schedule_is_not_empty(self):
        assert not FaultSchedule(chaos_probability=0.1).empty


class TestJobConfigResilienceFields:
    @pytest.mark.parametrize("bad", [-1, 1.5, "3"])
    def test_rejects_bad_max_restarts(self, bad):
        with pytest.raises(ValueError, match="max_restarts"):
            JobConfig(max_restarts=bad)

    def test_zero_max_restarts_is_allowed(self):
        assert JobConfig(max_restarts=0).max_restarts == 0

    def test_rejects_negative_backoff(self):
        with pytest.raises(ValueError, match="restart_backoff_seconds"):
            JobConfig(restart_backoff_seconds=-1.0)

    @pytest.mark.parametrize(
        "removed", ["checkpoint_keep", "pool_round_timeout_seconds"]
    )
    def test_removed_fields_are_not_options(self, removed):
        # retention is the store's keep-last default and the pool
        # timeout is parallel.ROUND_TIMEOUT_SECONDS, not job options.
        with pytest.raises(TypeError, match=removed):
            JobConfig(**{removed: 1})

    def test_accepts_schedule_as_fault(self):
        cfg = JobConfig(fault=FaultSchedule(
            faults=(FaultPlan(worker=0, superstep=1),)
        ))
        assert not as_schedule(cfg.fault).empty


class TestWorkerBoundValidation:
    """Planned worker indices are checked against the cluster size."""

    def test_out_of_range_worker_rejected_at_setup(self):
        g = random_graph(40, 4, seed=7)
        cfg = JobConfig(mode="push", num_workers=3, max_supersteps=3,
                        fault=FaultPlan(worker=3, superstep=2))
        with pytest.raises(ValueError, match="worker 3"):
            run_job(g, _pagerank(), cfg)

    def test_in_range_worker_accepted(self):
        g = random_graph(40, 4, seed=7)
        cfg = JobConfig(mode="push", num_workers=3, max_supersteps=3,
                        fault=FaultPlan(worker=2, superstep=2))
        assert run_job(g, _pagerank(), cfg).metrics.restarts == 1


def _pagerank():
    from repro.algorithms.pagerank import PageRank

    return PageRank(supersteps=3)


class TestAsSchedule:
    def test_none_is_empty(self):
        assert as_schedule(None).empty

    def test_plan_wraps_into_singleton_schedule(self):
        plan = FaultPlan(worker=1, superstep=4, kind="straggler")
        schedule = as_schedule(plan)
        assert schedule.faults == (plan,)

    def test_schedule_passes_through(self):
        schedule = FaultSchedule(chaos_probability=0.2)
        assert as_schedule(schedule) is schedule


class TestInjectorFire:
    def test_planned_faults_fire_in_schedule_order(self):
        schedule = FaultSchedule(faults=(
            FaultPlan(worker=0, superstep=2, kind="straggler", factor=2.0),
            FaultPlan(worker=1, superstep=2, kind="crash"),
        ))
        injector = FaultInjector(schedule, num_workers=4)
        assert injector.fire(1) == []
        fired = injector.fire(2)
        assert [f.kind for f in fired] == ["straggler", "crash"]
        assert fired[0].factor == 2.0
        assert all(f.source == "plan" for f in fired)

    def test_repeat_refires_on_reexecution(self):
        injector = FaultInjector(
            FaultSchedule(faults=(
                FaultPlan(worker=0, superstep=3, repeat=2),
            )),
            num_workers=2,
        )
        # first attempt fires, the re-executed attempt fires again,
        # the third attempt is quiet (the repeat budget is spent).
        assert len(injector.fire(3)) == 1
        assert len(injector.fire(3)) == 1
        assert injector.fire(3) == []
        assert len(injector.fired) == 2

    def test_chaos_same_seed_same_sequence(self):
        schedule = FaultSchedule(chaos_probability=0.5, chaos_seed=99,
                                 chaos_kinds=("crash", "straggler"))
        a = FaultInjector(schedule, num_workers=4)
        b = FaultInjector(schedule, num_workers=4)
        seq_a = [a.fire(t) for t in range(1, 20)]
        seq_b = [b.fire(t) for t in range(1, 20)]
        assert seq_a == seq_b
        assert any(seq_a), "probability 0.5 over 19 draws must fire"

    def test_chaos_different_seeds_diverge(self):
        fired = set()
        for seed in range(8):
            injector = FaultInjector(
                FaultSchedule(chaos_probability=0.5, chaos_seed=seed),
                num_workers=4,
            )
            fired.add(tuple(
                tuple(injector.fire(t)) for t in range(1, 20)
            ))
        assert len(fired) > 1

    def test_chaos_respects_max_faults(self):
        injector = FaultInjector(
            FaultSchedule(chaos_probability=1.0, chaos_max_faults=2),
            num_workers=4,
        )
        total = sum(len(injector.fire(t)) for t in range(1, 50))
        assert total == 2

    def test_chaos_workers_stay_in_bounds(self):
        injector = FaultInjector(
            FaultSchedule(chaos_probability=1.0, chaos_max_faults=30),
            num_workers=3,
        )
        for t in range(1, 40):
            for fault in injector.fire(t):
                assert 0 <= fault.worker < 3
                assert fault.source == "chaos"

    def test_fired_fault_is_frozen(self):
        fault = FiredFault(kind="crash", worker=0, superstep=1,
                           source="plan")
        with pytest.raises(AttributeError):
            fault.worker = 2
