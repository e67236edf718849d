"""Process-pool parallel runtime: the vectorized b-pull gather on N cores.

``JobConfig(parallelism=N)`` runs one loop across N OS processes: the
Pull-Respond scans of the vectorized tier's gather (Algorithm 2), on
b-pull supersteps and on hybrid's pull supersteps.  Each responder
answers pull requests on its own, so the scans split by responder with
no traffic between processes.  Everything else — Phase 2's updates,
push routing, the message stores, the simulated network and metric
assembly — runs in the coordinator, and ``JobMetrics.to_dict()`` stays
byte-identical to ``parallelism=1``:

* a persistent pool of worker processes is forked at the job's first
  gather and lives across supersteps; each child owns a contiguous shard
  of the simulated workers and runs one
  :func:`~repro.core.modes.vectorized.responder_scan` per responder it
  owns;
* the CSR arrays from ``Graph.csr()`` and the dense value array live in
  ``multiprocessing.shared_memory`` segments, so the children read the
  values the coordinator's Phase 2 wrote without any per-superstep
  pickling;
* each child keeps its responders' scan plans
  (:class:`~repro.core.modes.vectorized._ScanPlan`) across rounds and
  rebuilds them when the sending set changes; a re-forked child starts
  without plans and rebuilds them;
* children return each responder's scan (per-Vblock count rows, scan
  stats, the hit vertices and their partial combines, and whether its
  plan was reused) and their disk deltas; the coordinator hands the
  scans to :func:`~repro.core.modes.vectorized.replay_scans`, the same
  closed-form accounting of Algorithm 1 (kept while every plan is
  reused) and responder-ordered fold the in-process gather runs, so
  the network's flow order, both buffer peaks and the float fold match
  it exactly.

Every round is a pure read of coordinator state, so a round that loses a
child is retried on a fresh fork with nothing to restore.

Every other job shape — the batched and reference tiers, pure ``push``,
any job that falls back from vectorized, platforms lacking ``fork`` or
``shared_memory`` — runs in process with the reason recorded in
``Runtime.executor_fallback``; see :func:`parallel_fallback_reason`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.fault import WorkerFailure
from repro.core.metrics import SuperstepMetrics
from repro.core.modes import vectorized as _vec
# kept only as the target of perfbench's modes.finalize wrap point
from repro.core.modes.common import finalize_superstep_metrics  # noqa: F401
from repro.obs.events import CAT_PARALLEL
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "parallel_fallback_reason",
    "run_superstep_parallel",
    "kill_pool_worker",
]

#: real (wall-clock) seconds the coordinator waits on a child's pipe
#: before declaring it hung and re-forking the pool.  Purely operational
#: — never part of the modeled experiment.
ROUND_TIMEOUT_SECONDS = 300.0


def parallel_fallback_reason(rt) -> Optional[str]:
    """Why this job cannot run parallel, or None when it can.

    Decided once per job in ``Runtime.__init__``, after the executor
    downgrade: the vectorized fallback already rules out ``pull``/
    ``pushm`` modes and asynchronous iteration.  A non-None reason keeps
    ``active_parallelism == 1``.
    """
    if rt.active_executor != "vectorized":
        return "parallelism requires the vectorized executor"
    if rt.config.mode == "push":
        return "parallelism requires b-pull gathers (mode bpull or hybrid)"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "platform lacks the fork start method"
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - platform-dependent
        return "multiprocessing.shared_memory is unavailable"
    return None


# ----------------------------------------------------------------------
# child process side
# ----------------------------------------------------------------------
def _child_main(rt, shard: List[int], conn) -> None:
    """Entry point of one pool process (reached via fork).

    The child inherits the coordinator's entire :class:`Runtime` at fork
    time and keeps it alive across supersteps; each round message
    carries only what changed since (superstep number, aggregates,
    responding-flag bytes).  Values are read from the shared segment.
    """
    rt.tracer = NULL_TRACER  # children never observe
    workers = [rt.workers[w] for w in shard]
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # coordinator died: don't linger
            os._exit(0)
        if msg[0] == "stop":
            conn.close()
            os._exit(0)
        start = perf_counter()
        try:
            reply = _child_gather(rt, workers, *msg[1:])
            conn.send(("ok", reply, perf_counter() - start))
        except BaseException:
            try:
                conn.send(("err", traceback.format_exc(), 0.0))
            except (BrokenPipeError, OSError):
                os._exit(1)


def _child_gather(
    rt,
    workers,
    superstep: int,
    aggregates: Dict[str, float],
    resp_bytes: bytes,
) -> Dict[str, Any]:
    """Scan every responder in *workers*: its
    :func:`~repro.core.modes.vectorized.responder_scan` result, keyed by
    worker id, plus each one's disk delta."""
    rt.ctx.superstep = superstep
    rt.ctx.aggregates = aggregates
    state = rt.scratch["vectorized"]
    inputs = _vec.scan_inputs(rt, state, resp_bytes)
    before = {w.worker_id: w.disk.snapshot() for w in workers}
    return {
        "scans": {
            w.worker_id: _vec.responder_scan(rt, state, w, *inputs)
            for w in workers
        },
        "disk": {
            w.worker_id: w.disk.delta_since(before[w.worker_id])
            for w in workers
        },
    }


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class _PoolRoundError(Exception):
    """A pool child died or hung during a barrier round (internal)."""

    def __init__(self, shard_index: int, reason: str) -> None:
        super().__init__(reason)
        self.shard_index = shard_index
        self.reason = reason


class _ParallelPool:
    """Persistent fork-based worker pool, one pipe per process.

    Created lazily at the job's first gather (so checkpoint recovery
    re-forks from restored coordinator state) and kept warm until the
    engine calls ``Runtime.shutdown_pool``.

    Failure policy (see ``docs/RESILIENCE.md``): every pipe read is
    bounded by :data:`ROUND_TIMEOUT_SECONDS` and paired with
    a ``Process.is_alive()`` liveness check.  A dead or hung child
    fails the round; :meth:`run_round` then kills the whole generation
    of children, re-forks a fresh one from current coordinator state,
    and retries the round exactly once before escalating to
    :class:`~repro.cluster.fault.WorkerFailure`.  Children only read
    shared state and *return* their results, so a retried round needs
    nothing restored.
    """

    def __init__(self, rt) -> None:
        self.rt = rt
        num_workers = len(rt.workers)
        nprocs = min(rt.active_parallelism, num_workers)
        base, extra = divmod(num_workers, nprocs)
        self.shards: List[List[int]] = []
        start = 0
        for i in range(nprocs):
            size = base + (1 if i < extra else 0)
            self.shards.append(list(range(start, start + size)))
            start += size
        self._segments: List[Any] = []
        self._restore_csr: Optional[Tuple[Any, Any]] = None
        self._setup_shared(rt)
        #: re-forks performed after child deaths/hangs (observability).
        self.reforks: int = 0
        self.procs: List[Any] = []
        self.conns: List[Any] = []
        self._spawn_children()

    def _spawn_children(self) -> None:
        """Fork one child per shard from current coordinator state."""
        ctx = multiprocessing.get_context("fork")
        self.procs = []
        self.conns = []
        for shard in self.shards:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_child_main,
                args=(self.rt, shard, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)

    def _terminate_children(self) -> None:
        """SIGKILL the current generation and close its pipes."""
        for proc in self.procs:
            if proc.is_alive():
                proc.kill()
        for proc in self.procs:
            proc.join(timeout=10)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self.procs = []
        self.conns = []

    def kill_worker(self, worker: int) -> None:
        """SIGKILL the child process owning simulated worker *worker*.

        The fault-injection hook behind ``kind="kill"`` — real OS-level
        death, detected by the next round's liveness check (or
        immediately by :func:`kill_pool_worker`).
        """
        for shard, proc in zip(self.shards, self.procs):
            if worker in shard and proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)
                return

    # ------------------------------------------------------------------
    def _shm_array(self, arr):
        """Copy *arr* into a fresh shared-memory segment."""
        from multiprocessing import shared_memory

        np = _vec.np
        arr = np.ascontiguousarray(arr)
        if arr.nbytes == 0:
            return arr  # zero-size segments are not allowed; read-only
        seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        self._segments.append(seg)
        out = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        out[:] = arr
        return out

    def _setup_shared(self, rt) -> None:
        """Move CSR + values into shared memory, pre-fork.

        The dense state is rebuilt after the rebinding so every view it
        derives (and the children inherit) reads the shared segments;
        its values are the live dense values, copied into ``rt.values``
        first (in-process supersteps may have run since the last copy).
        The original CSR view is restored on close because the graph
        object outlives the job (benchmark runs share graphs across
        cells).
        """
        from repro.core.graph import CSRView

        graph = rt.graph
        original = graph.csr()
        self._restore_csr = (graph, original)
        graph._csr = CSRView(
            self._shm_array(original.indptr),
            self._shm_array(original.indices),
            self._shm_array(original.weights),
            self._shm_array(original.out_degrees),
        )
        rt.sync_values()
        state = _vec._VecState(rt)
        state.values = self._shm_array(state.values)
        rt.scratch["vectorized"] = state

    # ------------------------------------------------------------------
    def run_round(
        self, messages: List[tuple]
    ) -> Tuple[List[Any], List[float]]:
        """One barrier round, with one re-fork-and-retry on child death.

        Returns each child's reply and busy wall-clock, in shard order.
        Raises :class:`~repro.cluster.fault.WorkerFailure` when the
        retried round fails too — the engine's recovery policy takes
        over from there.
        """
        try:
            return self._attempt_round(messages)
        except _PoolRoundError:
            self.reforks += 1
            self._terminate_children()
            self._spawn_children()
            try:
                return self._attempt_round(messages)
            except _PoolRoundError as second:
                shard = self.shards[second.shard_index]
                raise WorkerFailure(
                    shard[0], self.rt.ctx.superstep, kind="kill"
                ) from second

    def _attempt_round(
        self, messages: List[tuple]
    ) -> Tuple[List[Any], List[float]]:
        start = perf_counter()
        for index, (conn, msg) in enumerate(zip(self.conns, messages)):
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError) as exc:
                raise _PoolRoundError(
                    index, f"send failed ({exc}): child is dead"
                )
        replies: List[Any] = []
        busy: List[float] = []
        for index, conn in enumerate(self.conns):
            deadline = start + ROUND_TIMEOUT_SECONDS
            while not conn.poll(min(1.0, max(0.0, deadline - perf_counter()))):
                if not self.procs[index].is_alive():
                    raise _PoolRoundError(
                        index,
                        f"child died during the gather "
                        f"(exitcode {self.procs[index].exitcode})",
                    )
                if perf_counter() >= deadline:
                    raise _PoolRoundError(
                        index,
                        f"child hung during the gather "
                        f"(> {ROUND_TIMEOUT_SECONDS}s, still alive)",
                    )
            try:
                status, payload, wall = conn.recv()
            except (EOFError, OSError):
                raise _PoolRoundError(
                    index, "pipe closed during the gather: child died"
                )
            if status == "err":
                raise RuntimeError(
                    f"parallel pool worker failed during the gather:\n"
                    f"{payload}"
                )
            replies.append(payload)
            busy.append(wall)
        return replies, busy

    # ------------------------------------------------------------------
    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=10)
        for conn in self.conns:
            conn.close()
        rt = self.rt
        # detach coordinator state from the shared segments before
        # unlinking: the runtime (and the graph) outlive the pool.
        state = rt.scratch.get("vectorized")
        np = _vec.np
        if state is not None and np is not None:
            state.values = np.array(state.values, copy=True)
            state.out_degrees = np.array(state.out_degrees, copy=True)
        if self._restore_csr is not None:
            graph, original = self._restore_csr
            graph._csr = original
            self._restore_csr = None
        for seg in self._segments:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - defensive
                pass
            try:
                seg.close()
            except BufferError:
                # derived views (CSR slices cached in the dense state)
                # still alias the mapping; the kernel reclaims it when
                # they are collected — the name is already unlinked.
                pass
        self._segments = []


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
def ensure_pool(rt) -> _ParallelPool:
    """The job's pool, forking it on first use."""
    pool = rt._pool
    if pool is None:
        pool = _ParallelPool(rt)
        rt._pool = pool
    return pool


def kill_pool_worker(rt, worker: int, superstep: int) -> None:
    """SIGKILL the pool child owning *worker*, then fail the superstep.

    The engine's hook for planned ``kind="kill"`` faults under
    ``parallelism > 1``: the child dies a genuine OS-level death (the
    pool is forked first if the fault fires before the first gather),
    and the resulting :class:`WorkerFailure` routes into the ordinary
    recovery policy.  Because the fault fires at the superstep's start
    — before any round is in flight — no partial state exists and
    recovery behaves exactly like a planned crash, which is what keeps
    ``parallelism ∈ {1, N}`` byte-identical under the same schedule.
    """
    pool = ensure_pool(rt)
    pool.kill_worker(worker)
    raise WorkerFailure(worker, superstep, kind="kill")


def run_superstep_parallel(
    rt,
    superstep: int,
    in_mech: str,
    out_mech: str,
    mode_label: str,
) -> SuperstepMetrics:
    """``run_superstep_vectorized`` with its gather on the job's pool.

    The pool is forked before the driver reads its dense state, since
    the fork rebuilds that state over the shared segments.
    """
    if in_mech == "pull" and superstep > 1:
        ensure_pool(rt)
    return _vec.run_superstep_vectorized(
        rt, superstep, in_mech, out_mech, mode_label
    )


_parallel_gather_batched = None  # only perfbench's wrap point names it


def _parallel_gather_vectorized(
    rt, state, metrics, msgs_gen_of, edges_of, pull_memory_of,
):
    """Dense Pull-Request/Pull-Respond with the responder scans on the
    pool.

    Children scan their owned responders' edge streams (the scans are
    independent: they read pre-superstep values and flags); the
    coordinator accounts for Algorithm 1 and folds the partials with
    :func:`~repro.core.modes.vectorized.replay_scans`, exactly as
    ``_bpull_gather_vectorized`` does.
    """
    pool = rt._pool
    start = perf_counter()
    message = (
        "gather", rt.ctx.superstep, dict(rt.ctx.aggregates),
        bytes(rt.resp_prev.data),
    )
    replies, busy = pool.run_round([message] * len(pool.shards))
    merge_start = perf_counter()
    scans: Dict[int, Any] = {}
    for reply in replies:
        scans.update(reply["scans"])
        for wid, delta in reply["disk"].items():
            rt.workers[wid].disk.counters.add(delta)
    folded = _vec.replay_scans(
        rt, state, metrics, msgs_gen_of, edges_of, pull_memory_of,
        [scans[w.worker_id] for w in rt.workers],
    )
    _emit_pool_spans(
        rt, pool, busy, merge_start - start, perf_counter() - merge_start
    )
    return folded


def _emit_pool_spans(
    rt, pool, busy: List[float], round_wall: float, merge_wall: float,
) -> None:
    """Emit the gather round's real-concurrency spans (tracing only).

    Unlike every other span in the trace, durations here are **wall
    clock** seconds (the pool is the one place where host time is the
    phenomenon being observed); they are drawn at the superstep's
    modeled start so the tracks line up with the modeled spans: one
    ``process_busy`` + ``process_barrier`` span per pool process and a
    ``merge`` span for the coordinator's accounting and fold.  Metrics
    are untouched — traced parallel runs stay byte-identical.
    """
    tracer = rt.tracer
    if not tracer.enabled:
        return
    start = tracer.clock
    step = rt.ctx.superstep
    for index, (shard, wall) in enumerate(zip(pool.shards, busy)):
        tracer.span(
            "process_busy", cat=CAT_PARALLEL, start=start,
            dur=wall, superstep=step, worker=shard[0],
            args={
                "round": "gather", "process": index,
                "workers": list(shard), "wall_seconds": wall,
            },
        )
        tracer.span(
            "process_barrier", cat=CAT_PARALLEL, start=start + wall,
            dur=max(round_wall - wall, 0.0), superstep=step,
            worker=shard[0], args={"round": "gather", "process": index},
        )
    tracer.span(
        "merge", cat=CAT_PARALLEL, start=start + round_wall,
        dur=merge_wall, superstep=step,
        args={"round": "gather", "wall_seconds": merge_wall},
    )
