"""The BSP engine: master loop, superstep scheduling, halting, recovery.

``run_job`` is the library's main entry point.  It plays the paper's
Master (Appendix A): it schedules supersteps, enforces the barrier
(implicit — supersteps are executed to completion before the next
starts), consults the Switcher for hybrid jobs, detects injected faults
and recovers by recomputation, and assembles :class:`JobMetrics`.

Superstep mechanics (Section 5.2): a superstep's *input* mechanism is
determined by the previous superstep's mode (push leaves messages in the
receiver stores; b-pull leaves responding flags), its *output* mechanism
by its own mode.  A mode change therefore automatically executes the
correct switch superstep of Fig. 6:

=============  =============  =======  ========
prev mode      current mode   input    output
=============  =============  =======  ========
push           push           stored   push
push           bpull          stored   flag   (switch: load+update only)
bpull          push           pull     push   (switch: pull+update+push)
bpull          bpull          pull     flag
=============  =============  =======  ========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.api import VertexProgram
from repro.core.config import JobConfig
from repro.core.graph import Graph
from repro.core.metrics import JobMetrics
from repro.core.modes.common import run_superstep
from repro.core.modes.parallel import (
    kill_pool_worker,
    run_superstep_parallel,
)
from repro.core.modes.pull import run_pull_superstep
from repro.core.modes.reference import run_superstep_reference
from repro.core.modes.vectorized import run_superstep_vectorized
from repro.core.runtime import Runtime
from repro.core.switching import HybridController, make_controller
from repro.cluster.checkpoint import restore_checkpoint, take_checkpoint
from repro.cluster.checkpoint_store import CheckpointStore
from repro.cluster.fault import FaultInjector, WorkerFailure
from repro.obs.events import CAT_ENGINE

__all__ = ["JobResult", "run_job"]


@dataclass
class JobResult:
    """Final vertex values plus the full metrics of the run."""

    values: List[Any]
    metrics: JobMetrics
    #: the runtime, exposed for tests and ablations that poke internals.
    runtime: Runtime
    #: the job's :class:`repro.obs.Tracer` when tracing was enabled via
    #: ``JobConfig(trace=...)``, else None.  File sinks are already
    #: flushed; the in-memory events remain readable (``.events``,
    #: ``.summary()``, ``.export_chrome(path)``).
    trace: Optional[Any] = None

    def value_of(self, vid: int) -> Any:
        return self.values[vid]


def run_job(
    graph: Graph, program: VertexProgram, config: Optional[JobConfig] = None
) -> JobResult:
    """Run *program* over *graph* under *config* and return the result.

    See :class:`~repro.core.config.JobConfig` for the execution modes and
    memory knobs; the default runs the hybrid engine on 5 workers with
    disk-resident graph data.
    """
    config = config or JobConfig()
    rt = Runtime(graph, program, config)
    rt.setup()
    injector = FaultInjector(config.fault, config.num_workers)
    tracer = rt.tracer
    # run_job owns (and closes) tracers it built from a spec; a ready
    # Tracer instance passed in stays under the caller's control.
    owns_tracer = tracer is not config.trace
    if tracer.enabled:
        tracer.span(
            "load_graph", cat=CAT_ENGINE, start=tracer.clock,
            dur=rt.load_metrics.elapsed_seconds,
            args={
                "structures": rt.load_metrics.structures,
                "io_bytes": rt.load_metrics.io.total,
                "cpu_seconds": rt.load_metrics.cpu_seconds,
            },
        )
        tracer.advance(rt.load_metrics.elapsed_seconds)

    metrics = JobMetrics(
        mode=config.mode,
        graph_name=graph.name,
        program_name=program.name,
        num_workers=config.num_workers,
        load=rt.load_metrics,
        max_restarts=config.max_restarts,
    )
    if rt.executor_fallback is not None:
        metrics.fallback = {
            "requested_executor": config.executor,
            "active_executor": rt.active_executor,
            "requested_parallelism": config.parallelism,
            "active_parallelism": rt.active_parallelism,
            "reason": rt.executor_fallback,
        }

    controller = make_controller(rt)

    restarts = 0
    start_superstep = 0
    prev_mode: Optional[str] = None
    # in memory unless a directory is set (resume_from implies one).
    snapshots = CheckpointStore(config.checkpoint_dir or config.resume_from)

    if config.resume_from is not None:
        resume_store = (
            snapshots
            if config.checkpoint_dir in (None, config.resume_from)
            else CheckpointStore(config.resume_from)
        )
        snapshot = resume_store.load_latest()
        if snapshot is not None:
            checkpoint = snapshot.checkpoint
            controller = restore_checkpoint(rt, checkpoint)
            if resume_store is snapshots:
                # the resumed-from snapshot joins this run's lineage so
                # a failure before the first new save can fall back to
                # it through the owned-only recovery path.
                snapshots.adopt(snapshot.path)
            if snapshot.metrics is not None:
                # continue the original run's metrics wholesale; only
                # the fields owned by *this* process are re-stamped.
                restored = snapshot.metrics
                restored.fallback = metrics.fallback
                restored.max_restarts = config.max_restarts
                metrics = restored
            start_superstep = checkpoint.superstep
            prev_mode = checkpoint.prev_mode
            metrics.resumed_from = checkpoint.superstep
            if tracer.enabled:
                tracer.instant(
                    "resume", cat=CAT_ENGINE,
                    superstep=checkpoint.superstep,
                    args={"path": str(snapshot.path),
                          "skipped": list(snapshot.skipped)},
                )

    try:
        while True:
            try:
                _iterate(rt, controller, metrics, injector, start_superstep,
                         prev_mode, snapshots)
                break
            except WorkerFailure as failure:
                # the pool's processes hold pre-failure state; drop them
                # before rewinding — the next parallel superstep re-forks
                # from the restored coordinator.
                rt.shutdown_pool()
                restarts += 1
                if restarts > config.max_restarts:
                    raise
                if tracer.enabled:
                    tracer.instant(
                        "fault", cat=CAT_ENGINE, superstep=failure.superstep,
                        worker=failure.worker,
                        args={"restarts": restarts, "kind": failure.kind},
                    )
                # pick the newest snapshot that passes the CRC check;
                # corrupt ones are skipped.  The search is owned-only
                # and bounded by the failed superstep: stale files a
                # previous run left in the directory can neither leap
                # recovery forward past the failure nor shadow this
                # run's own snapshots.  None restores superstep 0: the
                # paper's recompute-from-scratch.
                restored = snapshots.load_latest(
                    max_superstep=failure.superstep - 1, owned_only=True,
                )
                checkpoint = restored.checkpoint if restored else None
                resume_after = checkpoint.superstep if checkpoint else 0
                policy = "checkpoint" if checkpoint else "scratch"
                downtime = (
                    config.restart_backoff_seconds * (2 ** (restarts - 1))
                )
                rework_seconds = sum(
                    s.elapsed_seconds
                    for s in metrics.supersteps[resume_after:]
                )
                metrics.recoveries.append({
                    "restart": restarts,
                    "superstep": failure.superstep,
                    "worker": failure.worker,
                    "kind": failure.kind,
                    "policy": policy,
                    "resume_after": resume_after,
                    "rework_supersteps":
                        len(metrics.supersteps) - resume_after,
                    "rework_seconds": rework_seconds,
                    "downtime_seconds": downtime,
                })
                tracer.advance(downtime)
                controller = restore_checkpoint(rt, checkpoint)
                _rewind_metrics(metrics, resume_after)
                start_superstep = resume_after
                prev_mode = checkpoint.prev_mode if checkpoint else None
                if checkpoint is not None:
                    metrics.recovered_from = resume_after
                if tracer.enabled:
                    tracer.instant(
                        "restart", cat=CAT_ENGINE, superstep=resume_after,
                        args={"policy": policy,
                              "resume_after": resume_after,
                              "restart": restarts,
                              "downtime_seconds": downtime,
                              "rework_seconds": rework_seconds},
                    )
    finally:
        rt.shutdown_pool()
    metrics.restarts = restarts
    if isinstance(controller, HybridController):
        metrics.q_trace = [q for _t, q in controller.q_trace]
    _build_traffic_timeline(rt, metrics)
    if owns_tracer:
        tracer.close()
    return JobResult(
        values=rt.sync_values(), metrics=metrics, runtime=rt,
        trace=tracer if tracer.enabled else None,
    )


def _rewind_metrics(metrics: JobMetrics, superstep: int) -> None:
    """Drop per-superstep records past the restored *superstep*.

    The re-executed supersteps append fresh entries; anything recorded
    after the snapshot — including checkpoints themselves — is stale
    and would double up (or misreport snapshots that no longer exist).
    ``superstep=0`` (recompute from scratch) drops every record.
    """
    del metrics.supersteps[superstep:]
    del metrics.mode_trace[superstep:]
    metrics.checkpoints = [
        entry for entry in metrics.checkpoints if entry[0] <= superstep
    ]
    metrics.checkpoint_failures = [
        entry for entry in metrics.checkpoint_failures
        if entry[0] <= superstep
    ]


def _inject_faults(
    rt: Runtime,
    injector: FaultInjector,
    metrics: JobMetrics,
    superstep: int,
    snapshots: CheckpointStore,
) -> tuple:
    """Evaluate the schedule at this superstep attempt and act on it.

    Returns ``(straggler_factors, checkpoint_write_fails)``; checkpoint
    corruption is applied to ``snapshots`` immediately, and
    crash-class faults abort the attempt by raising
    :class:`WorkerFailure` *after* every fault fired this superstep is
    recorded and applied — so e.g. a checkpoint corruption scheduled
    together with a kill lands before the restart and forces recovery
    back to the previous valid snapshot.
    """
    fired = injector.fire(superstep)
    if not fired:
        return {}, False
    tracer = rt.tracer
    stragglers: dict = {}
    ckpt_write_fails = False
    crash = None
    for fault in fired:
        metrics.faults.append({
            "superstep": fault.superstep,
            "worker": fault.worker,
            "kind": fault.kind,
            "source": fault.source,
            "factor": fault.factor,
        })
        if fault.kind in ("crash", "kill"):
            if crash is None:  # first one wins
                crash = fault
            continue
        if tracer.enabled:
            args = {"kind": fault.kind, "source": fault.source}
            if fault.kind == "straggler":
                args["factor"] = fault.factor
            tracer.instant(
                "fault", cat=CAT_ENGINE, superstep=superstep,
                worker=fault.worker, args=args,
            )
        if fault.kind == "straggler":
            stragglers[fault.worker] = (
                stragglers.get(fault.worker, 1.0) * fault.factor
            )
        elif fault.kind == "checkpoint_write":
            ckpt_write_fails = True
        else:  # checkpoint_corrupt
            corrupted = snapshots.corrupt_latest(owned_only=True)
            if tracer.enabled and corrupted is not None:
                tracer.instant(
                    "checkpoint_corrupted", cat=CAT_ENGINE,
                    superstep=superstep,
                    args={"snapshot_superstep": corrupted},
                )
    if crash is not None:
        # the crash-class "fault" instant is emitted by run_job's
        # recovery handler (it carries the restart counter).
        if crash.kind == "kill" and rt.active_parallelism > 1:
            # genuine OS-level death of the child owning the worker;
            # raises WorkerFailure once the child is gone.
            kill_pool_worker(rt, crash.worker, superstep)
        raise WorkerFailure(crash.worker, superstep, kind=crash.kind)
    return stragglers, ckpt_write_fails


def _apply_stragglers(rt: Runtime, step, stragglers: dict) -> None:
    """Inflate the afflicted workers' modeled seconds, then re-barrier.

    Applied to the finished :class:`SuperstepMetrics` — after the
    executor ran, before the engine advances the clock — so every
    executor tier sees the identical inflation and stays
    byte-identical.  The executor's trace spans keep their
    pre-inflation durations; the stretch shows up as the gap before
    the next superstep's spans (the straggler stall *is* dead time).
    """
    tracer = rt.tracer
    for worker, factor in stragglers.items():
        if worker in step.worker_seconds:
            step.worker_seconds[worker] *= factor
            if tracer.enabled:
                tracer.instant(
                    "straggler", cat=CAT_ENGINE,
                    superstep=step.superstep, worker=worker,
                    args={"factor": factor,
                          "worker_seconds": step.worker_seconds[worker]},
                )
    if step.worker_seconds:
        step.elapsed_seconds = max(step.worker_seconds.values())


def _iterate(
    rt: Runtime,
    controller: Any,
    metrics: JobMetrics,
    injector: FaultInjector,
    start_superstep: int,
    prev_mode: Optional[str],
    snapshots: CheckpointStore,
) -> None:
    """The superstep loop, up to convergence or the superstep budget.

    ``start_superstep``/``prev_mode`` support resuming from a checkpoint;
    every snapshot taken goes into ``snapshots`` in place, so the
    recovery path in :func:`run_job` can reach the newest ones even
    though the loop exits via an exception.
    """
    config = rt.config
    tracer = rt.tracer
    if config.executor == "reference":
        superstep_fn = run_superstep_reference
    elif rt.active_parallelism > 1:
        # the vectorized driver with b-pull gathers on the process pool;
        # only vectorized bpull/hybrid jobs get here (see Runtime).
        superstep_fn = run_superstep_parallel
    elif rt.active_executor == "vectorized":
        # active_executor, not config.executor: the runtime may have
        # downgraded a vectorized request to batched (see Runtime).
        superstep_fn = run_superstep_vectorized
    else:
        superstep_fn = run_superstep
    superstep = start_superstep
    while superstep < rt.max_supersteps:
        superstep += 1
        stragglers, ckpt_write_fails = _inject_faults(
            rt, injector, metrics, superstep, snapshots
        )
        mode = controller.mode_for(superstep)
        if mode == "pull":
            step = run_pull_superstep(rt, superstep)
        else:
            in_mech = "stored" if (prev_mode or mode) == "push" else "pull"
            out_mech = "push" if mode == "push" else "flag"
            label = mode
            if prev_mode is not None and prev_mode != mode:
                label = f"{prev_mode}->{mode}"
                if tracer.enabled:
                    tracer.instant(
                        "mode_switch", cat=CAT_ENGINE, superstep=superstep,
                        args={"from": prev_mode, "to": mode},
                    )
            step = superstep_fn(rt, superstep, in_mech, out_mech, label)
        if stragglers:
            _apply_stragglers(rt, step, stragglers)
        mode_label = step.mode
        if config.mode == "pushm":
            mode_label = step.mode = "pushm"
        metrics.supersteps.append(step)
        metrics.mode_trace.append(mode_label)
        metrics.executed_supersteps += 1
        # the executor emitted this superstep's spans at the old clock;
        # move the modeled clock past the barrier (no-op when disabled).
        tracer.advance(step.elapsed_seconds)
        # publish this superstep's aggregator totals for the next one
        rt.ctx.aggregates = dict(step.aggregates)
        controller.observe(rt, step)
        has_flags = rt.responding_count() > 0
        rt.swap_flags()
        pending = rt.pending_messages() > 0
        prev_mode = mode
        if superstep == 1 and rt.program.all_active:
            stop = False
        elif step.updated_vertices == 0 and superstep > 1:
            stop = True
        else:
            stop = not has_flags and not pending
        verdict = rt.program.converged(rt.ctx)
        if verdict is not None:
            stop = verdict
        if stop:
            break
        if (
            config.checkpoint_interval is not None
            and superstep % config.checkpoint_interval == 0
            and superstep < rt.max_supersteps  # last superstep: pointless
        ):
            checkpoint = take_checkpoint(rt, superstep, mode, controller)
            write_seconds = checkpoint.write_seconds(
                config.cluster.disk.seq_write_mbps
            )
            if ckpt_write_fails:
                # the write cost was paid, but no snapshot survives —
                # recovery will have to reach further back.
                metrics.checkpoint_failures.append(
                    (superstep, checkpoint.nbytes, write_seconds)
                )
                if tracer.enabled:
                    tracer.instant(
                        "checkpoint_failed", cat=CAT_ENGINE,
                        superstep=superstep,
                        args={"nbytes": checkpoint.nbytes},
                    )
            else:
                metrics.checkpoints.append(
                    (superstep, checkpoint.nbytes, write_seconds)
                )
                # files bundle the metrics so resume_from can continue
                # the original run's records seamlessly.  Modeled cost
                # is charged above regardless — where the snapshot lives
                # is operational, never part of the experiment.
                durable = snapshots.directory is not None
                snapshots.save(checkpoint, metrics if durable else None)
            tracer.advance(write_seconds)


def _build_traffic_timeline(rt: Runtime, metrics: JobMetrics) -> None:
    """Cumulative (modeled seconds, net bytes this superstep) samples."""
    clock = rt.load_metrics.elapsed_seconds
    timeline = []
    for step in metrics.supersteps:
        clock += step.elapsed_seconds
        timeline.append((clock, step.net_bytes))
    metrics.traffic_timeline = timeline
