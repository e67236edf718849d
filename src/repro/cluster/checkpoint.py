"""Checkpoint-based fault tolerance — the paper's stated future work.

Appendix A: HybridGraph currently recovers by recomputing from scratch
and the authors "plan to investigate a lightweight fault-tolerance
solution as future work".  This module provides it: every
``checkpoint_interval`` supersteps the engine snapshots the complete
iteration state —

* vertex values,
* the responding flags set during the superstep,
* the aggregator totals published for the next superstep,
* the pending contents of every receiver-side message store (push
  family; b-pull has nothing pending by construction),
* the hybrid Switcher's plan and statistics,

and charges the sequential write of values + pending messages as modeled
checkpoint cost.  On a failure the engine restores the latest snapshot
and resumes from the following superstep instead of superstep 1; with
no snapshot it restores superstep 0 through the same function.

That state is one pickle, taken of the runtime's own objects when the
snapshot is taken, so a :class:`Checkpoint` never aliases live objects;
every restore unpickles fresh ones.  A snapshot restores into any
executor tier: a pickled message store of another tier's class is
drained and its pending messages re-deposited, in order, into a store
of the running tier.  The engine keeps snapshots in a
:class:`~repro.cluster.checkpoint_store.CheckpointStore`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.flags import FlagBitset
from repro.core.runtime import Runtime, Worker
from repro.core.switching import make_controller
from repro.obs.events import CAT_ENGINE
from repro.storage.records import RecordSizes
from repro.storage.vertex_cache import LRUVertexCache

__all__ = [
    "Checkpoint",
    "take_checkpoint",
    "restore_checkpoint",
]


@dataclass
class Checkpoint:
    """A consistent snapshot taken at the end of one superstep."""

    superstep: int
    prev_mode: Optional[str]
    #: modeled bytes written to persist this snapshot.
    nbytes: int
    #: pickled ``(values, resp_prev, aggregates, stores, controller)``:
    #: the vertex values, the responding ``FlagBitset``, the aggregator
    #: totals published for the superstep after the snapshot, worker id
    #: -> message store (the push family's workers only) and the
    #: controller.
    state: bytes

    def write_seconds(self, seq_write_mbps: float) -> float:
        return self.nbytes / (seq_write_mbps * 1024.0 * 1024.0)


def _snapshot_bytes(rt: Runtime, sizes: RecordSizes) -> int:
    nbytes = sizes.vertices(rt.graph.num_vertices)
    nbytes += (rt.graph.num_vertices + 7) // 8  # the flag bitset
    for worker in rt.workers:
        if worker.message_store is not None:
            nbytes += sizes.messages(worker.message_store.pending_count)
    return nbytes


def take_checkpoint(
    rt: Runtime, superstep: int, prev_mode: Optional[str], controller: Any
) -> Checkpoint:
    """Snapshot the state needed to resume at ``superstep + 1``.

    Must be called *after* the engine swapped the responding flags, so
    ``rt.resp_prev`` holds the flags produced by *superstep*.
    """
    stores = {
        w.worker_id: w.message_store
        for w in rt.workers
        if w.message_store is not None
    }
    checkpoint = Checkpoint(
        superstep=superstep,
        prev_mode=prev_mode,
        nbytes=_snapshot_bytes(rt, rt.config.sizes),
        state=pickle.dumps(
            (rt.sync_values(), rt.resp_prev, rt.ctx.aggregates, stores,
             controller),
            protocol=pickle.HIGHEST_PROTOCOL,
        ),
    )
    tracer = rt.tracer
    if tracer.enabled:
        tracer.span(
            "checkpoint", cat=CAT_ENGINE, start=tracer.clock,
            dur=checkpoint.write_seconds(
                rt.config.cluster.disk.seq_write_mbps
            ),
            superstep=superstep, args={"nbytes": checkpoint.nbytes},
        )
    return checkpoint


def _into_running_tier(rt: Runtime, worker: Worker, restored: Any) -> Any:
    """*restored*, or its pending messages in a store of the running tier.

    A snapshot written by another executor tier holds that tier's store
    class.  Its pending stream is drained and re-deposited, in order,
    into a fresh store that charges the unpickled disk clone, so neither
    step lands on the live disk.
    """
    if type(restored) is type(worker.message_store):
        return restored
    pending = restored.load().messages
    fresh = rt._make_message_store(worker)
    fresh._disk = restored._disk
    fresh.deposit_many(
        [(dst, value) for dst, values in pending.items() for value in values]
    )
    return fresh


def restore_checkpoint(rt: Runtime, checkpoint: Optional[Checkpoint]) -> Any:
    """Reset the runtime to *checkpoint*; returns the restored controller.

    ``None`` restores superstep 0 — the paper's recompute-from-scratch:
    initial values, no flags, no aggregator totals, empty message stores
    and a fresh controller.  Both policies take this one path.  Each
    call unpickles fresh state, so the same checkpoint can serve
    repeated failures.
    """
    superstep = 0 if checkpoint is None else checkpoint.superstep
    tracer = rt.tracer
    if tracer.enabled:
        tracer.instant(
            "restore", cat=CAT_ENGINE, superstep=superstep,
            args={"nbytes": 0 if checkpoint is None else checkpoint.nbytes},
        )
    if checkpoint is None:
        rt._init_state()
        stores: Dict[int, Any] = {}
        controller = make_controller(rt)
    else:
        # the aggregator totals are those visible to the superstep after
        # the snapshot, not the failure-time ones.
        (rt.values, rt.resp_prev, rt.ctx.aggregates, stores,
         controller) = pickle.loads(checkpoint.state)
        rt.resp_next = FlagBitset(rt.graph.num_vertices)
    # executor scratch (inbox buffers, the vectorized tier's dense views
    # of rt.values and the stores) refers to the discarded objects.
    rt.scratch.clear()
    # the supersteps after the restored one are discarded and
    # re-executed; their traffic samples must not survive.
    rt.network.truncate_timeline(superstep)
    for worker in rt.workers:
        if worker.message_store is not None:
            restored = stores.get(worker.worker_id)
            if restored is None:
                worker.message_store.load()  # drain whatever is pending
            else:
                restored = _into_running_tier(rt, worker, restored)
                # the unpickled store carries a private clone of the
                # worker's disk; rebind so post-restore spills charge
                # the live one.
                restored._disk = worker.disk
                worker.message_store = restored
        if worker.vertex_cache is not None:
            # a restarted worker's memory is gone: the cache starts cold.
            worker.vertex_cache = LRUVertexCache(
                capacity=worker.vertex_cache.capacity,
                sizes=rt.config.sizes,
                disk=worker.disk,
            )
    return controller
