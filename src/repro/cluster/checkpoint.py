"""Checkpoint-based fault tolerance — the paper's stated future work.

Appendix A: HybridGraph currently recovers by recomputing from scratch
and the authors "plan to investigate a lightweight fault-tolerance
solution as future work".  This module provides it: every
``checkpoint_interval`` supersteps the engine snapshots the complete
iteration state —

* vertex values,
* the responding flags set during the superstep,
* the pending contents of every receiver-side message store (push
  family; b-pull has nothing pending by construction),
* the hybrid Switcher's plan and statistics,

and charges the sequential write of values + pending messages as modeled
checkpoint cost.  On a failure the engine restores the latest snapshot
and resumes from the following superstep instead of superstep 1; with
no snapshot it restores superstep 0 through the same function.

The message stores and the Switcher are pickled once, when the snapshot
is taken, so a :class:`Checkpoint` never aliases live objects; every
restore unpickles fresh ones.  The engine keeps snapshots in a
:class:`~repro.cluster.checkpoint_store.CheckpointStore`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.flags import FlagBitset
from repro.core.runtime import Runtime
from repro.core.switching import make_controller
from repro.obs.events import CAT_ENGINE
from repro.storage.records import RecordSizes
from repro.storage.vertex_cache import LRUVertexCache

__all__ = [
    "Checkpoint",
    "take_checkpoint",
    "restore_checkpoint",
]


def _freeze(stores: Dict[int, Any], controller: Any) -> bytes:
    return pickle.dumps((stores, controller), protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class Checkpoint:
    """A consistent snapshot taken at the end of one superstep."""

    superstep: int
    prev_mode: Optional[str]
    values: List[Any]
    resp_prev: List[bool]
    #: pickled ``(worker id -> message store, controller)``; the stores
    #: cover the push family's workers only.
    state: bytes = _freeze({}, None)
    #: modeled bytes written to persist this snapshot.
    nbytes: int = 0
    #: aggregator totals published for the superstep after the snapshot.
    aggregates: Dict[str, Any] = field(default_factory=dict)

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
        values=list(rt.sync_values()),
        resp_prev=list(rt.resp_prev),
        state=_freeze(stores, controller),
        nbytes=_snapshot_bytes(rt, rt.config.sizes),
        aggregates=dict(rt.ctx.aggregates),
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


def restore_checkpoint(rt: Runtime, checkpoint: Optional[Checkpoint]) -> Any:
    """Reset the runtime to *checkpoint*; returns the restored controller.

    ``None`` restores superstep 0 — the paper's recompute-from-scratch:
    initial values, no flags, no aggregator totals, empty message stores
    and a fresh controller.  Both policies take this one path.  Each
    call unpickles fresh stores and a fresh controller, so the same
    checkpoint can serve repeated failures.
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
        rt.values = list(checkpoint.values)
        rt.resp_prev = FlagBitset.from_iterable(checkpoint.resp_prev)
        rt.resp_next = FlagBitset(rt.graph.num_vertices)
        # aggregator totals visible to the superstep after the snapshot,
        # not the failure-time ones.
        rt.ctx.aggregates = dict(checkpoint.aggregates)
        stores, controller = pickle.loads(checkpoint.state)
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
                worker.message_store = restored
                # the unpickled store carries a private clone of the
                # worker's disk; rebind so post-restore spills charge
                # the live one.
                if hasattr(restored, "_disk"):
                    restored._disk = worker.disk
        if worker.vertex_cache is not None:
            # a restarted worker's memory is gone: the cache starts cold.
            worker.vertex_cache = LRUVertexCache(
                capacity=worker.vertex_cache.capacity,
                sizes=rt.config.sizes,
                disk=worker.disk,
            )
    return controller
