"""NumPy-vectorized superstep executor (the third executor tier).

Same modeled costs as :mod:`repro.core.modes.common` (batched) and
:mod:`repro.core.modes.reference` (oracle), computed from dense kernels
over a CSR view of the graph instead of per-vertex Python loops:

* frontier selection reads the :class:`~repro.core.flags.FlagBitset`
  bytes as a bool array;
* push fan-out slices the CSR row ranges of responding vertices and
  routes by one ``owner_of`` take;
* ``sum``/``min`` message combining folds with ``np.bincount`` /
  ``np.minimum.at`` — **sequential** C folds that reproduce Python's
  left-fold ``sum``/``min`` bit-for-bit (``np.sum``'s pairwise
  summation would not, and must never be used for value-affecting
  totals here);
* the program's update/message rules run as dense array expressions via
  the optional :class:`~repro.core.api.VectorizedRules` interface;
* the b-pull gather answers all of a responder's pull requests in one
  pass over its VE-BLOCK edge stream, its CSR rows
  (:func:`responder_scan`).  What the pass selects and counts — the
  sending edges, the vertices they hit, the per-Vblock counts and the
  disk bytes — is a :class:`_ScanPlan` that depends only on the
  responding flags and the sending set; it is kept per responder and
  reused while both repeat (every superstep of b-pull PageRank), so a
  superstep pays only for the payload gather and fold.  Only plans
  over a responder's whole stream are kept, as views of it: partial
  sending sets (SSSP's and WCC's frontiers) change from one superstep
  to the next.  Nor are plans kept when the program's
  ``edge_payloads`` returns a validity mask (SSSP), since the hits
  then depend on values;
* Algorithm 1's accounting is closed-form over the scans' count rows
  (:func:`~repro.core.modes.common.pull_record`), with no Python per
  (requester, Vblock, responder) triple, and is charged again while
  every responder reuses its plan.  Plans and record live in the
  cached dense state, so recovery drops them with it.

The equivalence contract is strict: ``JobMetrics.to_dict()`` must be
byte-identical to the other executors for every (input, output)
mechanism combination, including hybrid's switch supersteps.  Where the
batched executor's float accumulation order is observable (aggregator
folds, b-pull's per-(requester, Vblock, responder) combines followed by
a per-vertex fold over them, the network's per-flow timing
accumulation), this module reproduces the exact same fold structure
rather than a mathematically equal one.  For b-pull that means one
combine per (vertex, responder) in Eblock scan order, folded over
responders in ascending order (:func:`replay_scans`), and network flows
opened in the canonical request loop's first-touch order.

NumPy is optional: :func:`fallback_reason` reports why a job cannot run
vectorized (no NumPy, non-combinable program, no dense rules, …) and the
:class:`~repro.core.runtime.Runtime` transparently downgrades to the
batched executor.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

try:  # NumPy is an optional dependency of this tier only.
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised via np=None in tests
    _numpy = None

#: module-global NumPy handle; tests monkeypatch this to None to drive
#: the NumPy-less fallback path on hosts that do have NumPy.
np = _numpy

from repro.core.api import VertexProgram
from repro.core.metrics import SuperstepMetrics
from repro.core.modes.common import (
    charge_pull_record,
    finalize_superstep_metrics,
    pull_record,
)
from repro.storage.messages import LoadResult, spill_count

__all__ = [
    "fallback_reason",
    "run_superstep_vectorized",
    "VectorizedMessageStore",
    "compute_worker_update",
    "scan_inputs",
    "responder_scan",
    "replay_scans",
    "fold_stream",
    "load_stored_dense",
]

#: dense combines the executor knows how to fold.
_DENSE_COMBINES = ("sum", "min")


def fallback_reason(program, config) -> Optional[str]:
    """Why this job cannot run vectorized, or None when it can.

    The decision is made once per job (job shape and program class do
    not change mid-run); a non-None reason downgrades the runtime's
    ``active_executor`` to ``"batched"``.
    """
    if np is None:
        return "NumPy is not installed"
    if config.mode not in ("push", "bpull", "hybrid"):
        return f"mode {config.mode!r} has no vectorized path"
    if config.asynchronous:
        return "asynchronous iteration is scalar-only"
    if config.sender_combine:
        return "sender_combine (pushM+com) is scalar-only"
    if config.receiver_combine:
        return "receiver_combine is scalar-only"
    if not program.combinable:
        return f"{program.name} is not combinable"
    if config.mode in ("bpull", "hybrid") and not config.bpull_combine:
        return "b-pull without combining is scalar-only"
    rules = program.vectorized()
    if rules is None:
        return f"{program.name} provides no vectorized rules"
    if rules.combine not in _DENSE_COMBINES:
        return f"unsupported dense combine {rules.combine!r}"
    return None


class VectorizedMessageStore:
    """Array-chunk receiver store with SpillingMessageStore's cost model.

    Holds deposited messages as ``(dst_array, payload_array)`` chunks in
    arrival order.  Charges are identical to a combine-less
    :class:`~repro.storage.messages.SpillingMessageStore` fed the same
    message stream: the mem/spill split is purely positional
    (:func:`~repro.storage.messages.spill_count`; the spilled messages
    are random writes), and ``load`` reads the spilled bytes back
    sequentially.  The vectorized executor only runs without receiver
    combining, so no combine parameter exists here.
    """

    def __init__(self, capacity: Optional[int], sizes, disk) -> None:
        self._capacity = capacity
        self._sizes = sizes
        self._disk = disk
        self._chunks: List[Tuple[Any, Any]] = []
        self._total = 0
        self._spill_count = 0
        self.total_deposited = 0
        self.total_spilled = 0

    # ------------------------------------------------------------------
    def deposit_arrays(self, dsts, payloads) -> None:
        """Receive one aligned (dst, payload) array pair."""
        count = len(dsts)
        if count == 0:
            return
        self.total_deposited += count
        spilled = spill_count(self._total, count, self._capacity)
        if spilled:
            self._spill_count += spilled
            self.total_spilled += spilled
            self._disk.charge(random_write=spilled * self._sizes.message)
        self._total += count
        self._chunks.append((dsts, payloads))

    def deposit_many(self, messages: List[Any]) -> None:
        """Scalar-compatible deposit of ``(dst, value)`` pairs (the
        cross-tier restore path only)."""
        if messages:
            dsts, payloads = zip(*messages)
            self.deposit_arrays(
                np.asarray(dsts, dtype=np.int64), np.asarray(payloads)
            )

    def load_arrays(self) -> Tuple[Any, Any, int, int]:
        """Drain to ``(dsts, payloads, spilled_read, spilled_count)``.

        The concatenated arrays preserve deposit order, which is the
        per-destination message order the scalar store's ``load()``
        produces: without a combiner it keeps one dict in stream order.
        """
        spilled_count = self._spill_count
        spilled_read = self._sizes.messages(spilled_count)
        if spilled_read:
            self._disk.read(spilled_read, sequential=True)
        chunks = self._chunks
        self._chunks = []
        self._total = 0
        self._spill_count = 0
        if not chunks:
            return None, None, spilled_read, spilled_count
        if len(chunks) == 1:
            dsts, payloads = chunks[0]
        else:
            dsts = np.concatenate([c[0] for c in chunks])
            payloads = np.concatenate([c[1] for c in chunks])
        return dsts, payloads, spilled_read, spilled_count

    def load(self) -> LoadResult:
        """Scalar-compatible drain (restart/recovery paths only)."""
        dsts, payloads, spilled_read, spilled_count = self.load_arrays()
        messages: Dict[int, List[Any]] = {}
        if dsts is not None:
            for dst, value in zip(dsts.tolist(), payloads.tolist()):
                if dst in messages:
                    messages[dst].append(value)
                else:
                    messages[dst] = [value]
        return LoadResult(messages, spilled_read, spilled_count)

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return self._total

    @property
    def memory_bytes(self) -> int:
        in_mem = self._total
        if self._capacity is not None and in_mem > self._capacity:
            in_mem = self._capacity
        return self._sizes.messages(in_mem)

    @property
    def spilled_pending(self) -> int:
        return self._spill_count


# ----------------------------------------------------------------------
# cached per-job dense state
# ----------------------------------------------------------------------
class _WorkerVec:
    """Per-worker dense views: local ids and (for push) CSR slices."""

    __slots__ = (
        "local", "indptr", "e_dst", "e_w", "e_src", "e_owner", "deg",
        "block_bytes", "block_edges",
    )

    def __init__(self, local) -> None:
        self.local = local
        self.indptr = None
        self.e_dst = None
        self.e_w = None
        self.e_src = None
        self.e_owner = None
        self.deg = None
        self.block_bytes = None
        self.block_edges = None


class _PullState:
    """Dense VE-BLOCK views for the gather: each vertex's Vblock id
    (each responder's edges and counts live in its store)."""

    def __init__(self, rt) -> None:
        self.block_of = rt.layout.block_of_array
        self.num_blocks = rt.layout.num_blocks


class _VecState:
    """All per-job dense state, cached in ``rt.scratch['vectorized']``.

    Built from ``rt.values``, then its ``values`` array is the job's only
    up-to-date copy: supersteps do not write back, and
    ``Runtime.sync_values`` refreshes ``rt.values`` for its three
    readers (a checkpoint, the pool fork and the job's result).  Every
    restore (``restore_checkpoint``, also of superstep 0 for a recompute
    from scratch) clears the scratch dict, dropping this cache, because
    it rebinds ``rt.values`` and replaces the message stores.
    """

    def __init__(self, rt) -> None:
        graph = rt.graph
        program = rt.program
        cfg = rt.config
        sizes = cfg.sizes
        self.rules = program.vectorized()
        csr = graph.csr()
        self.out_degrees = csr.out_degrees
        self.values = np.asarray(rt.values)
        combine = self.rules.combine
        dtype = self.values.dtype
        if combine == "sum":
            # bincount's identity; matches Python sum(()) == 0.
            self.identity: Any = 0.0
            self.acc_dtype = np.float64
        else:
            self.identity = (
                np.inf
                if np.issubdtype(dtype, np.floating)
                else np.iinfo(dtype).max
            )
            self.acc_dtype = dtype
        self.bv = cfg.adjacency_block_vertices
        mask = self.rules.initially_active_mask(rt.ctx, np)
        if mask is None:
            if (
                type(program).initially_active
                is VertexProgram.initially_active
            ):
                mask = np.ones(graph.num_vertices, dtype=bool)
            else:
                mask = np.fromiter(
                    (
                        program.initially_active(v, rt.ctx)
                        for v in range(graph.num_vertices)
                    ),
                    dtype=np.bool_, count=graph.num_vertices,
                )
        self.initial_mask = np.asarray(mask, dtype=bool)
        need_push = rt.needs_adjacency()
        if need_push:
            # each vertex's owner, one slice assignment per worker
            owner = np.empty(graph.num_vertices, dtype=np.int64)
            for worker in rt.workers:
                span = rt.partition.vertices_of(worker.worker_id)
                owner[span.start:span.stop:span.step] = worker.worker_id
        self.workers: List[_WorkerVec] = []
        for worker in rt.workers:
            span = rt.partition.vertices_of(worker.worker_id)
            local = np.arange(
                span.start, span.stop, span.step, dtype=np.int64
            )
            wvec = _WorkerVec(local)
            if need_push:
                deg = csr.out_degrees[local]
                store = worker.veblock
                if store is not None and store.e_sv is not None:
                    # hybrid: the array VE-BLOCK store holds these rows
                    wvec.indptr, wvec.e_dst, wvec.e_w, wvec.e_src = (
                        store.e_indptr, store.e_dst, store.e_w, store.e_sv
                    )
                else:
                    wvec.indptr, wvec.e_dst, wvec.e_w = csr.rows(span)
                    wvec.e_src = np.repeat(local, deg)
                wvec.deg = deg
                wvec.e_owner = owner[wvec.e_dst]
                n_local = len(local)
                if n_local:
                    starts = np.arange(0, n_local, self.bv)
                    wvec.block_bytes = np.add.reduceat(
                        deg * sizes.edge, starts
                    )
                    wvec.block_edges = np.add.reduceat(deg, starts)
                else:
                    wvec.block_bytes = np.zeros(0, dtype=np.int64)
                    wvec.block_edges = np.zeros(0, dtype=np.int64)
            self.workers.append(wvec)
        self.pull = _PullState(rt) if rt.needs_veblock() else None
        #: worker id -> its responder's :class:`_ScanPlan`, valid for the
        #: flags and sending set in ``plan_key`` (see :func:`scan_inputs`).
        self.plans: Dict[int, "_ScanPlan"] = {}
        self.plan_key: Optional[Tuple[bytes, Optional[bytes]]] = None
        #: the last gather's :func:`~repro.core.modes.common.pull_record`,
        #: charged again while every responder reuses its plan.
        self.record = None


def _row_gather(indptr, rows, counts):
    """Flat edge indices of *rows* (row-major, adjacency order)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.repeat(indptr[rows], counts)
    prefix = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        prefix, counts
    )
    return starts + offsets


def _fold(dsts, payloads, size, combine, identity, dtype):
    """Sequential dense fold of (dst, payload) pairs into *size* bins.

    ``bincount``/``minimum.at`` process the input left to right, so for
    each destination the fold order equals the input stream order —
    the property the bit-for-bit contract rests on.
    """
    if combine == "sum":
        return np.bincount(dsts, weights=payloads, minlength=size)
    acc = np.full(size, identity, dtype=dtype)
    np.minimum.at(acc, dsts, payloads)
    return acc


# ----------------------------------------------------------------------
# per-worker Phase 2
# ----------------------------------------------------------------------
def compute_worker_update(
    rt,
    state: "_VecState",
    worker,
    superstep: int,
    received,
    acc_global,
    pushing: bool,
    metrics: SuperstepMetrics,
    updates_of: Dict[int, int],
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
) -> Optional[List[Any]]:
    """Phase 2 for one worker: dense update + push staging.

    *received*/*acc_global* are the superstep's global fold (None when
    nothing arrived); the worker reads its own slices (gathers of a
    gather are bitwise identical to gathering ``targets`` directly).
    Counts fold straight into *metrics* and the per-worker dicts; the
    driver calls this in worker-id order, so the aggregator carry fold
    matches the scalar executors' float grouping.  Returns the staged
    per-destination-worker ``(dsts, payloads)`` arrays, or None when
    nothing was staged.
    """
    program = rt.program
    rules = state.rules
    ctx = rt.ctx
    sizes = rt.config.sizes
    values = state.values
    wid = worker.worker_id
    wvec = state.workers[wid]
    local = wvec.local
    received_local = received[local] if received is not None else None
    if superstep == 1:
        mask = state.initial_mask[local]
        if received_local is not None:
            mask = mask | received_local
        tpos = np.flatnonzero(mask)
        targets = local[tpos]
    elif program.all_active:
        tpos = None  # the whole worker slice
        targets = local
    else:
        if received_local is None:
            return None
        tpos = np.flatnonzero(received_local)
        targets = local[tpos]
    num_targets = len(targets)
    updates_of[wid] = num_targets
    if num_targets == 0:
        return None

    old_values = values[targets]
    if acc_global is not None:
        acc_local = acc_global[local]
        if tpos is None:
            acc = acc_local
            has_message = received_local
        else:
            acc = acc_local[tpos]
            has_message = received_local[tpos]
    else:
        acc = np.full(
            num_targets, state.identity, dtype=state.acc_dtype
        )
        has_message = np.zeros(num_targets, dtype=bool)
    new_values, respond = rules.update_dense(
        ctx, targets, old_values, acc, has_message, np
    )
    new_values = np.asarray(new_values, dtype=values.dtype)
    values[targets] = new_values

    contrib = rules.aggregate_dense(
        ctx, targets, old_values, new_values, np
    )
    if contrib:
        aggregates = metrics.aggregates
        for agg_key, agg_vals in contrib.items():
            # Carry the running total through the same sequential left
            # fold the scalar loop performs — folding the contributions
            # first and adding once would change the float grouping.
            arr = np.asarray(agg_vals, dtype=np.float64)
            carry = np.zeros(1, dtype=np.float64)
            carry[0] = aggregates.get(agg_key, 0.0)
            np.add.at(carry, np.zeros(len(arr), dtype=np.intp), arr)
            aggregates[agg_key] = float(carry[0])

    if isinstance(respond, np.ndarray):
        rmask = respond.astype(bool, copy=False)
        resp_targets = targets[rmask]
        resp_pos = (
            tpos[rmask] if tpos is not None
            else np.flatnonzero(rmask)
        )
    elif respond:
        resp_targets = targets
        resp_pos = (
            tpos if tpos is not None
            else np.arange(num_targets, dtype=np.int64)
        )
    else:
        resp_targets = targets[:0]
        resp_pos = np.zeros(0, dtype=np.int64)
    num_respond = len(resp_targets)
    if num_respond:
        # 0 -> 1 flips only (each vertex is targeted once), reported
        # through add_to_count — the FlagBitset hot-path discipline.
        rt.resp_next.numpy_view(np)[resp_targets] = 1
        rt.resp_next.add_to_count(num_respond)

    # IO(V_t): one aggregated read+write charge per worker.
    record_bytes = num_targets * sizes.vertex_record
    metrics.io_vertex += 2 * record_bytes
    worker.disk.charge(
        seq_read=record_bytes, seq_write=record_bytes
    )

    if not (pushing and num_respond):
        return None

    # IO(E_t): whole adjacency blocks touched by responding vertices.
    blocks = np.unique(resp_pos // state.bv)
    edge_bytes = int(wvec.block_bytes[blocks].sum())
    edges_scanned = int(wvec.block_edges[blocks].sum())
    edges_of[wid] += edges_scanned
    metrics.edges_scanned += edges_scanned
    metrics.io_edges_push += edge_bytes
    worker.disk.charge(seq_read=edge_bytes)

    if program.uniform_messages:
        payloads, valid = rules.source_payloads(
            ctx, values[resp_targets], wvec.deg[resp_pos], np
        )
        stage_mask = wvec.deg[resp_pos] > 0
        if valid is not None:
            stage_mask = stage_mask & valid
        rows = resp_pos[stage_mask]
        if len(rows) == 0:
            return None
        counts = wvec.deg[rows]
        flat = _row_gather(wvec.indptr, rows, counts)
        dsts = wvec.e_dst[flat]
        owners = wvec.e_owner[flat]
        edge_payloads = np.repeat(payloads[stage_mask], counts)
        raw_staged = int(counts.sum())
    else:
        counts = wvec.deg[resp_pos]
        flat = _row_gather(wvec.indptr, resp_pos, counts)
        sources = wvec.e_src[flat]
        dsts = wvec.e_dst[flat]
        owners = wvec.e_owner[flat]
        edge_payloads, valid = rules.edge_payloads(
            ctx, values, sources, wvec.e_w[flat], np
        )
        if valid is not None:
            dsts = dsts[valid]
            owners = owners[valid]
            edge_payloads = edge_payloads[valid]
        raw_staged = len(dsts)
        if raw_staged == 0:
            return None
    msgs_gen_of[wid] += raw_staged
    metrics.raw_messages += raw_staged
    staged: List[Any] = [None] * len(rt.workers)
    for dst_wid in range(len(rt.workers)):
        flow = owners == dst_wid
        if flow.any():
            staged[dst_wid] = (dsts[flow], edge_payloads[flow])
    return staged


def scan_inputs(rt, state: "_VecState", resp_data):
    """What every responder's scan reads, given the flag bytes
    *resp_data*: ``(resp_data, sends, payload_all)`` — the flag bytes,
    which vertices send (responding, and for uniform programs with a
    valid payload), and for uniform programs the dense payloads (else
    None).

    Drops the cached scan plans (:class:`_ScanPlan`) and the
    accounting record kept with them when the flags or the sending set
    differ from the ones they were built for.
    """
    sends = np.frombuffer(resp_data, dtype=np.bool_)
    payload_all = None
    key_sends = None
    if rt.program.uniform_messages:
        # payloads depend only on the source's (pre-update) value, so
        # one dense evaluation replaces the scalar memoization.
        payload_all, payload_valid = state.rules.source_payloads(
            rt.ctx, state.values, state.out_degrees, np
        )
        if payload_valid is not None:
            sends = sends & payload_valid
            key_sends = sends.tobytes()
    key = (bytes(resp_data), key_sends)
    if key != state.plan_key:
        state.plans.clear()
        state.record = None
        state.plan_key = key
    return resp_data, sends, payload_all


class _ScanPlan:
    """The part of one responder's scan that depends only on the flags
    and the sending set, reused while both repeat.

    * ``stats``: ``(edges, aux_bytes, edge_bytes, vrr_bytes)`` scanned —
      a sequential read of every Eblock whose source block responds,
      and ``S_v`` per responding fragment (``IO(V_rr)``, paid even when
      the payload turns out invalid, as in the scalar order), read off
      the store's per-Vblock sums and per-vertex fragment counts;
    * ``dsts``, ``sources``, ``weights``: the sending edges in stream
      order (``weights`` is None for uniform programs, which never read
      it);
    * ``views``: whether every edge sends, so the edge arrays are views
      of the store's stream and keeping the plan copies nothing;
    * ``hit``, ``counts``: see :func:`_block_counts`; None until the
      first scan whose payloads are all valid.
    """

    __slots__ = (
        "stats", "dsts", "sources", "weights", "views", "hit", "counts",
    )

    def __init__(self, rt, store, resp_data, sends):
        self.stats = store.estimate_bpull_scan(resp_data)
        edge_mask = sends[store.e_sv]
        self.views = bool(edge_mask.all())
        if self.views:
            edge_mask = slice(None)
        self.dsts = store.e_dst[edge_mask]
        self.sources = store.e_sv[edge_mask]
        self.weights = (
            None if rt.program.uniform_messages else store.e_w[edge_mask]
        )
        self.hit = self.counts = None


def _block_counts(state: "_VecState", sizes, dsts):
    """``(hit, counts)`` of one responder's sending edges *dsts*: the
    vertices that get a value, ascending, and its ``(nvalues, ngroups,
    nbytes, units)`` rows over Vblock ids — the tables
    :func:`~repro.core.modes.common.pull_record` reads."""
    pull = state.pull
    got = np.zeros(len(state.values), dtype=bool)
    got[dsts] = True
    hit = np.flatnonzero(got)
    nvalues = np.bincount(pull.block_of[dsts], minlength=pull.num_blocks)
    ngroups = np.bincount(pull.block_of[hit], minlength=pull.num_blocks)
    groups = ngroups.tolist()
    # b-pull combines on this tier: one unit per group
    counts = (
        nvalues.tolist(), groups, sizes.combined(ngroups).tolist(), groups,
    )
    return hit, counts


def responder_scan(
    rt,
    state: "_VecState",
    responder,
    resp_data,
    sends,
    payload_all,
):
    """Pull-Respond (Algorithm 2) for every request *responder* gets this
    superstep, in one pass over its edge stream.

    Reuses the responder's :class:`_ScanPlan` while the sending set
    repeats, charges its disk, then gathers the payloads and folds them.
    A plan is kept only when every edge of the responder sends (its edge
    arrays are then views) and its hits do not depend on values; else
    it is rebuilt every superstep.  When the program's ``edge_payloads``
    returns a validity mask, the hits and counts come from the valid
    edges, and the plan is dropped.  Returns ``(stats, counts, hit,
    combined, reused)``: the plan's ``stats``, the ``(nvalues, ngroups,
    nbytes, units)`` rows, the vertices that get a value, ascending,
    each one's combine of its edges in stream order (its CSR row order,
    which is its Eblock scan order), and whether the stats and counts
    are a kept plan's from an earlier scan.
    """
    wid = responder.worker_id
    kept = state.plans.get(wid)
    plan = kept or _ScanPlan(rt, responder.veblock, resp_data, sends)
    _edges, aux_bytes, edge_bytes, vrr_bytes = plan.stats
    responder.disk.charge(
        seq_read=aux_bytes + edge_bytes, random_read=vrr_bytes
    )
    sizes = rt.config.sizes
    dsts = plan.dsts
    valid = None
    if payload_all is not None:
        payloads = payload_all[plan.sources]
    elif len(dsts):
        payloads, valid = state.rules.edge_payloads(
            rt.ctx, state.values, plan.sources, plan.weights, np
        )
    if valid is not None:
        payloads = payloads[valid]
        dsts = dsts[valid]
        hit, counts = _block_counts(state, sizes, dsts)
        state.plans.pop(wid, None)
        kept = None
    else:
        if plan.hit is None:
            plan.hit, plan.counts = _block_counts(state, sizes, dsts)
            if plan.views:
                state.plans[wid] = plan
        hit, counts = plan.hit, plan.counts
    reused = kept is not None
    if not len(hit):
        return plan.stats, counts, hit, hit, reused  # nothing to send
    combined = _fold(
        dsts, payloads, len(state.values),
        state.rules.combine, state.identity, state.acc_dtype,
    )[hit]
    return plan.stats, counts, hit, combined, reused


def load_stored_dense(rt, state: "_VecState", metrics, spill_read_of,
                      mode_label: str):
    """Drain every worker's array message store (the ``stored`` input)
    and fold the messages into ``(received, acc_global)``."""
    chunks: List[Tuple[Any, Any]] = []
    for worker in rt.workers:
        if worker.message_store is None:
            raise RuntimeError(
                f"mode {mode_label} needs a message store on "
                f"worker {worker.worker_id}"
            )
        dsts, payloads, spilled_read, spilled_count = (
            worker.message_store.load_arrays()
        )
        metrics.io_message_read += spilled_read
        spill_read_of[worker.worker_id] = spilled_count
        if dsts is not None:
            chunks.append((dsts, payloads))
    # Stores hold disjoint (locally owned) destination sets, so
    # concatenating the per-worker streams in worker order keeps each
    # vertex's message order equal to the scalar inbox's.
    return fold_stream(state, chunks)


def fold_stream(state: "_VecState", stream: List[Tuple[Any, Any]]):
    """Fold ``(dsts, values)`` chunks, in stream order, into
    ``(received, acc_global)`` dense arrays (``(None, None)`` when
    nothing arrived)."""
    if not stream:
        return None, None
    if len(stream) == 1:
        dsts, vals = stream[0]
    else:
        dsts = np.concatenate([vids for vids, _vals in stream])
        vals = np.concatenate([vals for _vids, vals in stream])
    num_vertices = len(state.values)
    received = np.zeros(num_vertices, dtype=bool)
    received[dsts] = True
    acc_global = _fold(
        dsts, vals, num_vertices,
        state.rules.combine, state.identity, state.acc_dtype,
    )
    return received, acc_global


# ----------------------------------------------------------------------
# the superstep
# ----------------------------------------------------------------------
def run_superstep_vectorized(
    rt,
    superstep: int,
    in_mech: str,
    out_mech: str,
    mode_label: str,
) -> SuperstepMetrics:
    """Execute one BSP superstep with dense kernels.

    When the job's process pool is running, the gather's responder scans
    run on it (:mod:`repro.core.modes.parallel`); everything else is the
    same code either way.
    """
    if in_mech not in ("stored", "pull"):
        raise ValueError(f"unknown input mechanism {in_mech!r}")
    if out_mech not in ("push", "flag"):
        raise ValueError(f"unknown output mechanism {out_mech!r}")
    state = rt.scratch.get("vectorized")
    if state is None:
        state = _VecState(rt)
        rt.scratch["vectorized"] = state

    cfg = rt.config
    sizes = cfg.sizes
    ctx = rt.ctx
    ctx.superstep = superstep
    rt.network.begin_superstep(superstep)
    metrics = SuperstepMetrics(superstep=superstep, mode=mode_label)

    disk_before = {w.worker_id: w.disk.snapshot() for w in rt.workers}
    spilled_before = {
        w.worker_id: (
            w.message_store.total_spilled if w.message_store else 0
        )
        for w in rt.workers
    }
    updates_of = {w.worker_id: 0 for w in rt.workers}
    msgs_gen_of = {w.worker_id: 0 for w in rt.workers}
    edges_of = {w.worker_id: 0 for w in rt.workers}
    spill_read_of = {w.worker_id: 0 for w in rt.workers}
    pull_memory_of = {w.worker_id: 0 for w in rt.workers}

    pushing = out_mech == "push"

    # ------------------------------------------------------------------
    # Phase 0/1: obtain this superstep's messages as a dense fold.
    # ------------------------------------------------------------------
    received = None
    acc_global = None
    if in_mech == "pull":
        if superstep > 1:
            gather = _bpull_gather_vectorized
            if rt._pool is not None:
                # imported here: parallel imports this module at load time
                from repro.core.modes import parallel

                gather = parallel._parallel_gather_vectorized
            received, acc_global = gather(
                rt, state, metrics, msgs_gen_of, edges_of, pull_memory_of
            )
    else:
        received, acc_global = load_stored_dense(
            rt, state, metrics, spill_read_of, mode_label
        )

    # ------------------------------------------------------------------
    # Phase 2: dense update; stage outgoing arrays if pushing.
    # ------------------------------------------------------------------
    staged_of = [
        compute_worker_update(
            rt, state, worker, superstep, received, acc_global, pushing,
            metrics, updates_of, msgs_gen_of, edges_of,
        )
        for worker in rt.workers
    ]

    # ------------------------------------------------------------------
    # Phase 3: route staged arrays (same flow order as batched).
    # ------------------------------------------------------------------
    transfer = rt.network.transfer
    for src_wid, staged in enumerate(staged_of):
        for dst_wid, pair in enumerate(staged or ()):
            if pair is None:
                continue
            dsts, payloads = pair
            count = len(dsts)
            transfer(
                src_wid, dst_wid, sizes.messages(count), units=count,
            )
            rt.workers[dst_wid].message_store.deposit_arrays(
                dsts, payloads
            )

    # ------------------------------------------------------------------
    # Metrics assembly (shared with the batched executor).
    # ------------------------------------------------------------------
    finalize_superstep_metrics(
        rt, metrics, in_mech, out_mech,
        disk_before, spilled_before,
        updates_of, msgs_gen_of, edges_of, spill_read_of,
        pull_memory_of,
    )
    return metrics


def _bpull_gather_vectorized(
    rt,
    state: _VecState,
    metrics: SuperstepMetrics,
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
    pull_memory_of: Dict[int, int],
):
    """Dense Pull-Request/Pull-Respond with batched-identical charges:
    one :func:`responder_scan` per responder, then :func:`replay_scans`."""
    inputs = scan_inputs(rt, state, rt.resp_prev.data)
    scans = [
        responder_scan(rt, state, worker, *inputs) for worker in rt.workers
    ]
    return replay_scans(
        rt, state, metrics, msgs_gen_of, edges_of, pull_memory_of, scans
    )


def replay_scans(
    rt, state, metrics, msgs_gen_of, edges_of, pull_memory_of, scans,
):
    """Algorithm 1's accounting over every responder's scan (*scans* in
    worker-id order), then the dense fold of their partials.

    When every scan reused its plan, the record's inputs are the last
    gather's, so its record is charged again; else it is recomputed.

    Each vertex gets at most one partial per responder, folded in
    ascending responder order: the per-vertex order of the canonical
    (requester, Vblock, responder) triple stream, so the floats group
    exactly as a per-triple fold would.
    """
    stats, counts, hits, combined, reused = zip(*scans)
    if state.record is None or not all(reused):
        state.record = pull_record(rt, tuple(zip(*counts)), stats)
    charge_pull_record(
        rt, metrics, msgs_gen_of, edges_of, pull_memory_of, state.record
    )
    return fold_stream(state, [
        pair for pair in zip(hits, combined) if len(pair[0])
    ])
