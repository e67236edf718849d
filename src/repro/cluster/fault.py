"""Fault injection: planned schedules and seeded chaos (Appendix A+).

HybridGraph's baseline fault-tolerance policy is to recompute the job
from scratch when a worker fails.  The engine's master loop plays the
Fault Detector: a :class:`FaultInjector` evaluates the configured
:class:`~repro.core.config.FaultSchedule` at the top of every superstep
and reports the faults that fire — worker crashes and kills abort the
superstep with :class:`WorkerFailure`; stragglers and checkpoint faults
degrade the run without aborting it.

Determinism: planned faults fire by superstep number, so they re-fire
(up to ``repeat``) when the superstep is re-executed after a restart.
Chaos faults draw from a :class:`random.Random` seeded with the
schedule's ``chaos_seed`` and held privately by the injector — the
engine calls :meth:`FaultInjector.fire` exactly once per superstep
attempt, in the same order for every executor tier, so a seeded chaos
run injects the identical fault sequence under batched, vectorized,
and any parallelism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.core.config import FaultPlan, FaultSchedule

__all__ = ["WorkerFailure", "FaultInjector", "FiredFault", "as_schedule"]


class WorkerFailure(RuntimeError):
    """A computational node failed during a superstep."""

    def __init__(self, worker: int, superstep: int,
                 kind: str = "crash") -> None:
        super().__init__(
            f"worker {worker} failed during superstep {superstep} "
            f"({kind})"
        )
        self.worker = worker
        self.superstep = superstep
        self.kind = kind


@dataclass(frozen=True)
class FiredFault:
    """One fault the injector decided to fire this superstep."""

    kind: str
    worker: int
    superstep: int
    source: str  # "plan" | "chaos"
    factor: float = 1.0


def as_schedule(
    fault: Optional[Union[FaultPlan, FaultSchedule]]
) -> FaultSchedule:
    """Normalise the config's ``fault`` field to a FaultSchedule."""
    if fault is None:
        return FaultSchedule()
    if isinstance(fault, FaultPlan):
        return FaultSchedule(faults=(fault,))
    return fault


class FaultInjector:
    """Evaluates a fault schedule, once per superstep attempt.

    ``num_workers`` bounds the worker index chaos faults draw;
    planned-fault worker indices are validated against the cluster size
    at :meth:`Runtime.setup`.
    """

    def __init__(
        self,
        fault: Optional[Union[FaultPlan, FaultSchedule]],
        num_workers: int = 1,
    ) -> None:
        self._schedule = as_schedule(fault)
        self._remaining = [plan.repeat for plan in self._schedule.faults]
        self._rng = random.Random(self._schedule.chaos_seed)
        self._chaos_fired = 0
        self._num_workers = max(1, num_workers)
        #: every fault ever fired, in firing order (job-level history).
        self.fired: List[FiredFault] = []

    def fire(self, superstep: int) -> List[FiredFault]:
        """All faults firing at this superstep attempt (may be empty).

        Planned faults fire in schedule order; at most one chaos fault
        is appended after them.  Each call consumes one ``repeat`` of
        every matching plan and exactly one chaos draw, so the decision
        sequence depends only on (schedule, sequence of supersteps
        attempted) — never on the executor tier or wall clock.
        """
        fired: List[FiredFault] = []
        for index, plan in enumerate(self._schedule.faults):
            if plan.superstep == superstep and self._remaining[index] > 0:
                self._remaining[index] -= 1
                fired.append(FiredFault(
                    kind=plan.kind, worker=plan.worker,
                    superstep=superstep, source="plan",
                    factor=plan.factor,
                ))
        schedule = self._schedule
        if (
            schedule.chaos_probability > 0.0
            and self._chaos_fired < schedule.chaos_max_faults
        ):
            if self._rng.random() < schedule.chaos_probability:
                self._chaos_fired += 1
                kind = schedule.chaos_kinds[
                    self._rng.randrange(len(schedule.chaos_kinds))
                ]
                worker = self._rng.randrange(self._num_workers)
                factor = (
                    2.0 + 2.0 * self._rng.random()
                    if kind == "straggler" else 1.0
                )
                fired.append(FiredFault(
                    kind=kind, worker=worker, superstep=superstep,
                    source="chaos", factor=factor,
                ))
        self.fired.extend(fired)
        return fired
