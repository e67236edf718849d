"""Process-pool parallel runtime: true multi-core superstep execution.

``JobConfig(parallelism=N)`` executes each superstep's per-worker halves
— ``load()``/``update()``/``pushRes()``/``pullRes()`` — concurrently
across N OS processes while keeping ``JobMetrics.to_dict()``
**byte-identical** to the sequential executors (the same contract the
batched/reference/vectorized equivalence suite enforces).  The design is
coordinator-authoritative:

* a persistent pool of warm worker processes is forked once per job (no
  fork-per-superstep) and lives across supersteps; each child owns a
  contiguous shard of the simulated workers and runs only the extracted
  per-worker halves (:func:`~repro.core.modes.common.phase2_for_worker`,
  :func:`~repro.core.modes.common.batched_responder`,
  :func:`~repro.core.modes.vectorized.compute_worker_update`,
  :func:`~repro.core.modes.vectorized.dense_responder`) for the
  workers it owns;
* read-heavy state crosses process boundaries exactly once: the graph is
  inherited copy-on-write by the fork, and for the vectorized tier the
  CSR arrays from ``Graph.csr()``, the dense value array, and the
  responding-flag bytes additionally live in
  ``multiprocessing.shared_memory`` segments, so no graph data is ever
  pickled per superstep (children write owned vertex values and flag
  bytes in place — the byte ranges are disjoint under the ownership
  discipline);
* everything order-sensitive stays with the coordinator: message stores
  (loads, deposits, spill charges), the simulated network (whose
  per-flow dict insertion order feeds per-worker seconds), aggregator
  folds, and metric assembly.  Children return per-destination-worker
  message/flag deltas plus their metric shard, and the coordinator folds
  them in **fixed worker-id order**, replaying transfers and deposits in
  the exact sequential order — which is what makes combining order,
  spill accounting, and float accumulation bit-for-bit identical.

There is no separate parallel superstep: the coordinator runs the tier's
own driver (``run_superstep`` / ``run_superstep_vectorized``) with the
pool passed in, and the driver hands exactly two loops to this module —
the gather's triple scans and Phase 2's per-worker updates — each as
one barrier round plus a merge.

Shapes without a parallel path (the reference executor, ``pull``/
``pushm`` modes, asynchronous iteration, platforms lacking ``fork`` or
``shared_memory``) fall back to in-process execution with the reason
recorded in ``Runtime.executor_fallback``; see
:func:`parallel_fallback_reason`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.fault import WorkerFailure
from repro.core.flags import FlagBitset
from repro.core.metrics import SuperstepMetrics
from repro.core.modes import vectorized as _vec
from repro.core.modes.common import (
    _pull_inbox,
    batched_responder,
    inbox_sink,
    phase2_for_worker,
    replay_pull_requests,
    run_superstep,
)
# kept only as the target of perfbench's modes.finalize wrap point
from repro.core.modes.common import finalize_superstep_metrics  # noqa: F401
from repro.obs.events import CAT_PARALLEL
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "parallel_fallback_reason",
    "run_superstep_parallel",
    "kill_pool_worker",
]


def parallel_fallback_reason(rt) -> Optional[str]:
    """Why this job cannot run parallel, or None when it can.

    Decided once per job in ``Runtime.__init__`` (after the executor
    downgrade, so a vectorized request that fell back to batched is
    judged as batched).  A non-None reason keeps
    ``active_parallelism == 1``.
    """
    config = rt.config
    if config.executor == "reference":
        return (
            "parallelism requires the batched or vectorized executor"
        )
    if config.mode in ("pull", "pushm"):
        return f"mode {config.mode!r} has no parallel path"
    if config.asynchronous:
        return (
            "asynchronous iteration is inherently sequential "
            "(intra-superstep message visibility)"
        )
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
def _force_clear(flags: FlagBitset) -> None:
    """Zero a child's private flag bytes regardless of its stale count.

    Children flip flag bytes directly without maintaining the count
    (only the coordinator's count is ever read), so ``clear()``'s
    count-guard cannot be trusted on the child side.
    """
    flags.data[:] = bytes(len(flags.data))
    flags._count = 0


def _child_main(rt, shard: List[int], conn, shared: Dict[str, Any]) -> None:
    """Entry point of one pool process (reached via fork).

    The child inherits the coordinator's entire :class:`Runtime` at fork
    time and keeps it alive across supersteps; per-round messages carry
    only the state that changed (superstep number, aggregates, flag
    broadcast, inbox shards).  It mutates exclusively worker-owned state
    of its shard — owned vertex values, owned disks/adjacency/veblock
    copies — and ships deltas back; everything else it touches is
    read-only under the ownership discipline.
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
            cmd = msg[0]
            if cmd == "phase2":
                reply = _child_phase2(rt, workers, *msg[1:])
            elif cmd == "gather":
                reply = _child_gather(rt, workers, *msg[1:])
            elif cmd == "phase2_vec":
                reply = _child_phase2_vec(
                    rt, workers, shared, *msg[1:]
                )
            elif cmd == "gather_vec":
                reply = _child_gather_vec(rt, workers, *msg[1:])
            else:
                raise RuntimeError(f"unknown pool command {cmd!r}")
            conn.send(("ok", reply, perf_counter() - start))
        except BaseException:
            try:
                conn.send(("err", traceback.format_exc(), 0.0))
            except (BrokenPipeError, OSError):
                os._exit(1)


def _sync_ctx(rt, superstep: int, aggregates: Dict[str, float]) -> None:
    """Bring the child's forked context up to the coordinator's."""
    rt.ctx.superstep = superstep
    rt.ctx.aggregates = aggregates


def _child_phase2(
    rt,
    workers,
    superstep: int,
    aggregates: Dict[str, float],
    pushing: bool,
    inbox_shards: Dict[int, Dict[int, List[Any]]],
) -> Dict[int, Dict[str, Any]]:
    """Batched-tier Phase 2 for one shard of workers."""
    _sync_ctx(rt, superstep, aggregates)
    _force_clear(rt.resp_next)
    resp_raw = rt.resp_next.data
    values = rt.values
    uniform = rt.program.uniform_messages
    fanout = rt.push_fanout if (uniform and pushing) else None
    num_workers = len(rt.workers)
    reply: Dict[int, Dict[str, Any]] = {}
    for worker in workers:
        wid = worker.worker_id
        if pushing and worker.adjacency is not None:
            worker.adjacency.begin_superstep()
        before = worker.disk.snapshot()
        flows: List[List[Any]] = [[] for _ in range(num_workers)]
        agg_stream: List[Tuple[str, float]] = []
        targets, n_respond, raw_staged, edges_scanned, edge_bytes = (
            phase2_for_worker(
                rt, worker, superstep,
                inbox_shards.get(wid) or {},
                pushing, fanout, flows, agg_stream=agg_stream,
            )
        )
        reply[wid] = {
            "counts": (
                len(targets), n_respond, raw_staged, edges_scanned,
                edge_bytes,
            ),
            # targets that responded, in target order (0->1 flips only,
            # so the coordinator can replay the byte writes).
            "resp_vids": [v for v in targets if resp_raw[v]],
            # per-vertex value deltas; the child's owned values stay
            # current locally, the coordinator's copy is authoritative
            # for checkpoints and the final result.
            "values": [(v, values[v]) for v in targets],
            "agg_stream": agg_stream,
            "disk": worker.disk.delta_since(before),
            "flows": flows,
        }
    return reply


def _child_gather(
    rt,
    workers,
    superstep: int,
    aggregates: Dict[str, float],
    resp_bytes: bytes,
) -> Dict[str, Any]:
    """Batched-tier Pull-Respond scans for one shard of responders."""
    _sync_ctx(rt, superstep, aggregates)
    flags = FlagBitset(len(resp_bytes))
    flags.data[:] = resp_bytes
    # the count drives refresh_res's degenerate-case shortcuts; bytes
    # are 0/1 by the bitset discipline, so counting 1-bytes rebuilds it.
    flags._count = resp_bytes.count(1)
    for worker in workers:
        worker.veblock.begin_superstep_stats()
        worker.veblock.refresh_res(flags)
    return _shard_reply(
        rt, workers, batched_responder(rt, flags),
        lambda w: w.veblock.scan_stats,
    )


def _shard_reply(rt, workers, respond, scan_stats_of) -> Dict[str, Any]:
    """Answer every triple whose responder is in *workers*.

    Triples are keyed ``(requester, block, responder)`` so the
    coordinator can replay the canonical sequential triple order with
    the per-triple results looked up; the child's own iteration order is
    irrelevant to the metrics (it only charges order-independent sums on
    its shard's disks and stats, which ship alongside).
    """
    before = {w.worker_id: w.disk.snapshot() for w in workers}
    triples: Dict[Tuple[int, int, int], Any] = {}
    for requester in rt.workers:
        rx = requester.worker_id
        for block_id in requester.veblock.local_blocks:
            for responder in workers:
                got = respond(rx, block_id, responder)
                if got is not None:
                    triples[(rx, block_id, responder.worker_id)] = got
    return {
        "triples": triples,
        "stats": {w.worker_id: tuple(scan_stats_of(w)) for w in workers},
        "disk": {
            w.worker_id: w.disk.delta_since(before[w.worker_id])
            for w in workers
        },
    }


def _child_phase2_vec(
    rt,
    workers,
    shared: Dict[str, Any],
    superstep: int,
    aggregates: Dict[str, float],
    pushing: bool,
    in_payload: Optional[Dict[int, Tuple[Any, Any]]],
) -> Dict[int, Dict[str, Any]]:
    """Vectorized-tier Phase 2 for one shard of workers.

    Vertex values are written directly into the shared-memory dense
    array (``state.values`` was rebound before the fork) and responding
    flags into the shared ``resp_next`` byte segment — owned, disjoint
    ranges only — so the reply carries no value payload at all.
    """
    _sync_ctx(rt, superstep, aggregates)
    state = rt.scratch["vectorized"]
    resp_view = shared["resp_next"]
    reply: Dict[int, Dict[str, Any]] = {}
    for worker in workers:
        wid = worker.worker_id
        before = worker.disk.snapshot()
        pair = in_payload.get(wid) if in_payload else None
        received_local, acc_local = pair if pair else (None, None)
        shard = _vec.compute_worker_update(
            rt, state, worker, superstep,
            received_local, acc_local, pushing, resp_view,
        )
        shard["disk"] = worker.disk.delta_since(before)
        reply[wid] = shard
    return reply


def _child_gather_vec(
    rt,
    workers,
    superstep: int,
    aggregates: Dict[str, float],
    resp_bytes: bytes,
) -> Dict[str, Any]:
    """Vectorized-tier Pull-Respond scans for one shard of responders."""
    _sync_ctx(rt, superstep, aggregates)
    respond, scan_stats = _vec.dense_responder(
        rt, rt.scratch["vectorized"], resp_bytes
    )
    return _shard_reply(
        rt, workers, respond, lambda w: scan_stats[w.worker_id]
    )


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

    Created lazily at the first parallel superstep (so checkpoint
    recovery re-forks from restored coordinator state) and kept warm
    until the engine calls ``Runtime.shutdown_pool``.

    Failure policy (see ``docs/RESILIENCE.md``): every pipe read is
    bounded by ``JobConfig.pool_round_timeout_seconds`` and paired with
    a ``Process.is_alive()`` liveness check.  A dead or hung child
    fails the round; :meth:`run_round` then kills the whole generation
    of children, re-forks a fresh one from current coordinator state,
    and retries the round exactly once before escalating to
    :class:`~repro.cluster.fault.WorkerFailure`.  Rounds are safe to
    replay: batched-tier children only *return* deltas, and for the
    one round that writes in place (vectorized Phase 2, into the
    shared value/flag segments) the coordinator snapshots those
    segments first and restores them before the retry.
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
        self._timeout = rt.config.pool_round_timeout_seconds
        self._segments: List[Any] = []
        self._restore_csr: Optional[Tuple[Any, Any]] = None
        self.shared: Dict[str, Any] = {}
        if rt.active_executor == "vectorized":
            self._setup_shared_vectorized(rt)
        elif rt.program.uniform_messages and rt.needs_adjacency():
            rt.push_fanout  # build pre-fork; children inherit it
        #: wall-clock observations of the current superstep's rounds:
        #: [label, round_wall, per-process busy walls, merge_wall]
        self.round_log: List[List[Any]] = []
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
                args=(self.rt, shard, child_conn, self.shared),
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

    def _setup_shared_vectorized(self, rt) -> None:
        """Move CSR + values + flag bytes into shared memory, pre-fork.

        Rebinding happens before the dense state is built so every view
        the state derives (and the children inherit) reads the shared
        segments; the original CSR view is restored on close because the
        graph object outlives the job (benchmark runs share graphs
        across cells).
        """
        from multiprocessing import shared_memory

        from repro.core.graph import CSRView
        from repro.core.modes.vectorized import _VecState

        np = _vec.np
        graph = rt.graph
        original = graph.csr()
        self._restore_csr = (graph, original)
        graph._csr = CSRView(
            self._shm_array(original.indptr),
            self._shm_array(original.indices),
            self._shm_array(original.weights),
            self._shm_array(original.out_degrees),
        )
        # dense state must not pre-date the rebinding
        rt.scratch.pop("vectorized", None)
        state = _VecState(rt)
        rt.scratch["vectorized"] = state
        state.values = self._shm_array(state.values)
        if rt.needs_veblock():
            state.ensure_pull(rt)  # O(E) build once, inherited by fork
        n = rt.graph.num_vertices
        seg = shared_memory.SharedMemory(create=True, size=max(n, 1))
        self._segments.append(seg)
        view = np.ndarray((n,), dtype=np.uint8, buffer=seg.buf)
        view[:] = 0
        self.shared["resp_next"] = view

    # ------------------------------------------------------------------
    def run_round(self, label: str, messages: List[tuple]) -> List[Any]:
        """One barrier round, with one re-fork-and-retry on child death.

        Raises :class:`~repro.cluster.fault.WorkerFailure` when the
        retried round fails too — the engine's recovery policy takes
        over from there.
        """
        snapshot = self._shared_write_snapshot(messages)
        try:
            return self._attempt_round(label, messages)
        except _PoolRoundError as first:
            self.reforks += 1
            self._refork(snapshot)
            try:
                return self._attempt_round(label, messages)
            except _PoolRoundError as second:
                shard = self.shards[second.shard_index]
                raise WorkerFailure(
                    shard[0], self.rt.ctx.superstep, kind="kill"
                ) from second

    def _attempt_round(self, label: str, messages: List[tuple]) -> List[Any]:
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
            deadline = start + self._timeout
            while not conn.poll(min(1.0, max(0.0, deadline - perf_counter()))):
                if not self.procs[index].is_alive():
                    raise _PoolRoundError(
                        index,
                        f"child died during {label} "
                        f"(exitcode {self.procs[index].exitcode})",
                    )
                if perf_counter() >= deadline:
                    raise _PoolRoundError(
                        index,
                        f"child hung during {label} "
                        f"(> {self._timeout}s, still alive)",
                    )
            try:
                status, payload, wall = conn.recv()
            except (EOFError, OSError):
                raise _PoolRoundError(
                    index, f"pipe closed during {label}: child died"
                )
            if status == "err":
                raise RuntimeError(
                    f"parallel pool worker failed during {label}:\n"
                    f"{payload}"
                )
            replies.append(payload)
            busy.append(wall)
        self.round_log.append(
            [label, perf_counter() - start, busy, 0.0]
        )
        return replies

    def _shared_write_snapshot(self, messages: List[tuple]):
        """Copy of the shared segments a round writes in place, or None.

        Only the vectorized Phase 2 round mutates cross-process state
        (owned slices of the shared value array and flag bytes); every
        other round is pure from the coordinator's point of view, so a
        retry needs no restoration.
        """
        if not messages or messages[0][0] != "phase2_vec":
            return None
        np = _vec.np
        state = self.rt.scratch["vectorized"]
        return (
            np.array(state.values, copy=True),
            np.array(self.shared["resp_next"], copy=True),
        )

    def _refork(self, snapshot) -> None:
        """Replace the child generation; roll back shared writes first.

        Restoring before the fork matters: the fresh children inherit
        (and alias) the shared segments, so they must see the
        pre-round bytes when they replay the round.
        """
        self._terminate_children()
        if snapshot is not None:
            values, resp = snapshot
            state = self.rt.scratch["vectorized"]
            state.values[:] = values
            self.shared["resp_next"][:] = resp
        self._spawn_children()

    def note_merge(self, seconds: float) -> None:
        """Attribute coordinator merge time to the last round."""
        if self.round_log:
            self.round_log[-1][3] = seconds

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
        self.shared.clear()
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
    pool is forked first if the fault fires before any parallel
    superstep ran), and the resulting :class:`WorkerFailure` routes
    into the ordinary recovery policy.  Because the fault fires at the
    superstep's start — before any round is in flight — no partial
    state exists and recovery behaves exactly like a planned crash,
    which is what keeps ``parallelism ∈ {1, N}`` byte-identical under
    the same schedule.
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
    """Execute one BSP superstep with the tier's driver on the pool.

    The driver (``run_superstep`` or ``run_superstep_vectorized``) runs
    here unchanged except for two pool rounds: the gather's triple
    scans (:func:`_parallel_gather_batched` /
    :func:`_parallel_gather_vectorized`) and Phase 2
    (:func:`_phase2_round_batched` / :func:`_phase2_round_vectorized`).
    """
    pool = ensure_pool(rt)
    pool.round_log = []
    if rt.active_executor == "vectorized":
        driver = _vec.run_superstep_vectorized
    else:
        driver = run_superstep
    metrics = driver(
        rt, superstep, in_mech, out_mech, mode_label, pool=pool
    )
    _emit_pool_spans(rt, pool, metrics)
    return metrics


def _round_args(rt) -> Tuple[int, Dict[str, float]]:
    """The superstep number and aggregates every round message carries."""
    return rt.ctx.superstep, dict(rt.ctx.aggregates)


def _phase2_round_batched(rt, pool, metrics, inbox, pushing):
    """Batched Phase 2 as one pool round; returns ``(flows, counts)``.

    Merges the shards in fixed worker-id order — vertex values, flag
    bytes, the aggregator streams (replaying the sequential left fold)
    and disk deltas — and hands back each worker's staged flows and its
    ``(targets, responding, raw staged, edges scanned, edge bytes)``
    counts for the driver's shared counting and routing.
    """
    replies = pool.run_round("phase2", [
        (
            "phase2", *_round_args(rt), pushing,
            {wid: inbox.get(wid) or {} for wid in shard},
        )
        for shard in pool.shards
    ])
    merge_start = perf_counter()
    merged: Dict[int, Dict[str, Any]] = {}
    for reply in replies:
        merged.update(reply)
    aggregates = metrics.aggregates
    resp_raw = rt.resp_next.data
    values = rt.values
    flows: List[List[List[Any]]] = []
    counts: List[Tuple[int, int, int, int, int]] = []
    for wid in range(len(rt.workers)):
        shard = merged[wid]
        for vid, value in shard["values"]:
            values[vid] = value
        for vid in shard["resp_vids"]:
            resp_raw[vid] = 1
        for agg_key, agg_val in shard["agg_stream"]:
            aggregates[agg_key] = aggregates.get(agg_key, 0.0) + agg_val
        rt.workers[wid].disk.counters.add(shard["disk"])
        flows.append(shard["flows"])
        counts.append(shard["counts"])
    pool.note_merge(perf_counter() - merge_start)
    return flows, counts


def _phase2_round_vectorized(rt, pool, received, acc_global, pushing):
    """Dense Phase 2 as one pool round; returns the per-worker shards.

    Each child gets its workers' slices of the global fold and writes
    values and flag bytes into shared memory; the coordinator adds the
    disk deltas and adopts the flag bytes and their count.
    """
    state = rt.scratch["vectorized"]
    pool.shared["resp_next"][:] = 0
    payloads = [
        None if received is None else {
            wid: (
                received[state.workers[wid].local],
                acc_global[state.workers[wid].local],
            )
            for wid in shard
        }
        for shard in pool.shards
    ]
    replies = pool.run_round("phase2", [
        ("phase2_vec", *_round_args(rt), pushing, payload)
        for payload in payloads
    ])
    merge_start = perf_counter()
    merged: Dict[int, Dict[str, Any]] = {}
    for reply in replies:
        merged.update(reply)
    shards = [merged[wid] for wid in range(len(rt.workers))]
    for worker, shard in zip(rt.workers, shards):
        worker.disk.counters.add(shard["disk"])
    # children flipped owned bytes of the shared segment in place; adopt
    # them wholesale (the coordinator's buffer is clean after the
    # engine's swap) and account the count.
    rt.resp_next.data[:] = pool.shared["resp_next"].tobytes()
    rt.resp_next.add_to_count(sum(shard["n_respond"] for shard in shards))
    pool.note_merge(perf_counter() - merge_start)
    return shards


def _parallel_gather_batched(
    rt, pool, metrics, msgs_gen_of, edges_of, pull_memory_of,
) -> Dict[int, Dict[int, List[Any]]]:
    """Pull-Request/Pull-Respond with the triple scans on the pool."""
    inbox = _pull_inbox(rt)
    _replay_pool_gather(
        rt, pool, "gather", metrics, msgs_gen_of, edges_of,
        pull_memory_of, inbox_sink(rt, inbox),
    )
    return inbox


def _replay_pool_gather(
    rt, pool, kind, metrics, msgs_gen_of, edges_of, pull_memory_of,
    deliver,
) -> None:
    """Scan every triple on the pool, then replay Algorithm 1 here.

    Children scan their owned responders' Eblocks in any order (the
    scans are independent: they read pre-superstep values and flags);
    the coordinator then runs the shared request loop
    (:func:`~repro.core.modes.common.replay_pull_requests`) with each
    triple's pre-computed contribution looked up, so the network's flow
    order, the inbox append order, and both buffer peaks match the
    sequential gather exactly.
    """
    resp_bytes = bytes(rt.resp_prev.data)
    replies = pool.run_round("gather", [
        (kind, *_round_args(rt), resp_bytes) for _shard in pool.shards
    ])
    merge_start = perf_counter()
    triples: Dict[Tuple[int, int, int], Any] = {}
    stats: Dict[int, tuple] = {}
    for reply in replies:
        triples.update(reply["triples"])
        stats.update(reply["stats"])
        for wid, delta in reply["disk"].items():
            rt.workers[wid].disk.counters.add(delta)
    replay_pull_requests(
        rt, metrics, msgs_gen_of, edges_of, pull_memory_of,
        lambda rx, block_id, responder: triples.get(
            (rx, block_id, responder.worker_id)
        ),
        deliver,
        lambda worker: stats[worker.worker_id],
    )
    pool.note_merge(perf_counter() - merge_start)


def _parallel_gather_vectorized(
    rt, pool, metrics, msgs_gen_of, edges_of, pull_memory_of,
):
    """Dense Pull-Request/Pull-Respond with triple scans on the pool.

    The inbox stream is rebuilt in canonical triple order from the
    shipped per-triple (vertex ids, block-combined values) pairs, and
    the final global fold happens here — bit-identical to
    ``_bpull_gather_vectorized``.
    """
    stream: List[Tuple[Any, Any]] = []
    _replay_pool_gather(
        rt, pool, "gather_vec", metrics, msgs_gen_of, edges_of,
        pull_memory_of, lambda _rx, pair: stream.append(pair),
    )
    return _vec.fold_stream(rt.scratch["vectorized"], stream)


def _emit_pool_spans(rt, pool, metrics: SuperstepMetrics) -> None:
    """Emit the superstep's real-concurrency spans (tracing only).

    Unlike every other span in the trace, durations here are **wall
    clock** seconds (the pool is the one place where host time is the
    phenomenon being observed); they are drawn at the superstep's
    modeled start so the tracks line up with the modeled spans.  Per
    round: one ``process_busy`` + ``process_barrier`` span per pool
    process and a ``merge`` span for the coordinator's fold.  Metrics
    are untouched — traced parallel runs stay byte-identical.
    """
    tracer = rt.tracer
    if not tracer.enabled:
        return
    start = tracer.clock
    step = metrics.superstep
    for label, round_wall, busy, merge_wall in pool.round_log:
        for index, (shard, wall) in enumerate(
            zip(pool.shards, busy)
        ):
            tracer.span(
                "process_busy", cat=CAT_PARALLEL, start=start,
                dur=wall, superstep=step, worker=shard[0],
                args={
                    "round": label, "process": index,
                    "workers": list(shard), "wall_seconds": wall,
                },
            )
            tracer.span(
                "process_barrier", cat=CAT_PARALLEL,
                start=start + wall,
                dur=max(round_wall - wall, 0.0),
                superstep=step, worker=shard[0],
                args={"round": label, "process": index},
            )
        tracer.span(
            "merge", cat=CAT_PARALLEL, start=start + round_wall,
            dur=merge_wall, superstep=step,
            args={"round": label, "wall_seconds": merge_wall},
        )
        start += round_wall + merge_wall
