"""Shared superstep executor for the push family, b-pull, and hybrid.

Section 5.2's decoupling means every superstep is an (input, output)
pair:

* input ``"stored"`` — messages were pushed here last superstep; drain
  the receiver-side store (``load()``);
* input ``"pull"``   — run the block-centric Pull-Request/Pull-Respond
  protocol (Algorithms 1 and 2) against the responding flags set last
  superstep;
* output ``"push"``  — call ``pushRes()`` immediately after ``update()``
  and route messages to receiver stores for the next superstep;
* output ``"flag"``  — only record the responding flags (``setResFlag``);
  messages will be pulled on demand next superstep.

Pure push = (stored, push); pure b-pull = (pull, flag); the two switch
supersteps of Fig. 6 are (pull, push) and (stored, flag).  Because
``message_value`` is a pure function of (source value, edge), all four
combinations produce identical vertex trajectories — the property the
cross-mode equivalence tests assert.

This module is the *batched* executor: modeled costs are identical to
:mod:`repro.core.modes.reference` (the per-vertex-accounting oracle),
but the host-side work per superstep is much cheaper:

* ``IO(V_t)`` is charged with one :meth:`SimulatedDisk.charge` call per
  worker (``n`` updated records at once) instead of a read/write pair
  per vertex;
* outgoing messages are staged directly into per-destination-worker
  buckets (one C-level ``owner_of`` index per message), so routing never
  regroups a flat list;
* Pull-Respond uses :meth:`VEBlockStore.collect_for_request`, which
  charges each request's fragment reads in bulk;
* programs with ``uniform_messages`` evaluate ``message_value`` once per
  source vertex instead of once per out-edge;
* the inbox/staging containers live on ``Runtime.scratch`` and are
  cleared in place instead of reallocated every superstep.

The equivalence guard in ``tests/core/test_hotpath_equivalence.py``
asserts ``JobMetrics.to_dict()`` of both executors is byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.metrics import SuperstepMetrics
from repro.core.runtime import Runtime
from repro.obs.instrument import derive_phases, emit_superstep_events
from repro.storage.disk import IOCounters

__all__ = [
    "run_superstep",
    "bpull_gather",
    "finalize_superstep_metrics",
    "phase2_for_worker",
    "batched_responder",
    "collect_triple",
    "inbox_sink",
    "replay_pull_requests",
]

#: shared immutable empty inbox for vertices without messages.
_NO_MESSAGES: Tuple[Any, ...] = ()


def _staged_flows(rt: Runtime) -> List[List[List[Tuple[int, Any]]]]:
    """Per-source, per-destination-worker staging buckets (reused)."""
    flows = rt.scratch.get("staged_flows")
    num_workers = len(rt.workers)
    if flows is None or len(flows) != num_workers:
        flows = [
            [[] for _ in range(num_workers)] for _ in range(num_workers)
        ]
        rt.scratch["staged_flows"] = flows
    else:
        for per_src in flows:
            for bucket in per_src:
                if bucket:
                    bucket.clear()
    return flows


def _pull_inbox(rt: Runtime) -> Dict[int, Dict[int, List[Any]]]:
    """Per-worker pull inboxes (outer and inner dicts reused)."""
    inbox = rt.scratch.get("pull_inbox")
    if inbox is None or len(inbox) != len(rt.workers):
        inbox = {w.worker_id: {} for w in rt.workers}
        rt.scratch["pull_inbox"] = inbox
    else:
        for per_worker in inbox.values():
            per_worker.clear()
    return inbox


def run_superstep(
    rt: Runtime,
    superstep: int,
    in_mech: str,
    out_mech: str,
    mode_label: str,
    pool=None,
) -> SuperstepMetrics:
    """Execute one BSP superstep and return its metrics.

    With the job's process *pool* (``parallelism > 1``) the pull gather's
    triple scans and Phase 2's per-worker halves run as pool rounds
    (:mod:`repro.core.modes.parallel`); everything else — the stored-input
    load, the counters, routing and metric assembly — is the same code
    either way.
    """
    if in_mech not in ("stored", "pull"):
        raise ValueError(f"unknown input mechanism {in_mech!r}")
    if out_mech not in ("push", "flag"):
        raise ValueError(f"unknown output mechanism {out_mech!r}")

    cfg = rt.config
    sizes = cfg.sizes
    program = rt.program
    ctx = rt.ctx
    ctx.superstep = superstep
    rt.network.begin_superstep(superstep)
    metrics = SuperstepMetrics(superstep=superstep, mode=mode_label)
    # Asynchronous iteration: each worker routes its messages as soon as
    # it finishes updating, so workers processed later in the same
    # superstep already see them — faster convergence for monotonic
    # (async_safe) algorithms.
    async_mode = (
        cfg.asynchronous and in_mech == "stored" and out_mech == "push"
    )
    if cfg.asynchronous and not program.async_safe:
        raise ValueError(
            f"{program.name} is not async_safe; asynchronous iteration "
            "needs monotonic updates"
        )

    disk_before = {w.worker_id: w.disk.snapshot() for w in rt.workers}
    spilled_before = {
        w.worker_id: (
            w.message_store.total_spilled if w.message_store else 0
        )
        for w in rt.workers
    }

    # per-worker CPU inputs
    updates_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    msgs_gen_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    edges_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    spill_read_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    pull_memory_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}

    # ------------------------------------------------------------------
    # Phase 0/1: obtain this superstep's messages.
    # ------------------------------------------------------------------
    pushing = out_mech == "push"
    if pushing:
        for worker in rt.workers:
            if worker.adjacency is not None:
                worker.adjacency.begin_superstep()
    if pool is not None:
        # imported here: parallel imports this module at load time
        from repro.core.modes import parallel

    inbox: Dict[int, Dict[int, List[Any]]] = {}
    if in_mech == "pull" and superstep > 1:
        if pool is None:
            inbox = bpull_gather(
                rt, metrics, msgs_gen_of, edges_of, pull_memory_of
            )
        else:
            inbox = parallel._parallel_gather_batched(
                rt, pool, metrics, msgs_gen_of, edges_of, pull_memory_of
            )
    elif in_mech == "stored" and not async_mode:
        for worker in rt.workers:
            if worker.message_store is None:
                raise RuntimeError(
                    f"mode {mode_label} needs a message store on "
                    f"worker {worker.worker_id}"
                )
            result = worker.message_store.load()
            inbox[worker.worker_id] = result.messages
            metrics.io_message_read += result.spilled_read
            spill_read_of[worker.worker_id] = result.spilled_count
    # in_mech == "pull" and superstep == 1: nothing to pull yet.

    # ------------------------------------------------------------------
    # Phase 2: update vertices; stage outgoing messages if pushing.
    # ------------------------------------------------------------------
    # uniform programs stage (dsts, payload) fan-out groups instead of
    # one (dst, payload) pair per edge; see Runtime.push_fanout.
    uniform = program.uniform_messages
    if pool is None:
        staged = _staged_flows(rt)
        fanout = rt.push_fanout if (uniform and pushing) else None
        counts: List[Tuple[int, int, int, int, int]] = []
        for worker in rt.workers:
            wid = worker.worker_id
            if async_mode:
                result = worker.message_store.load()
                inbox[wid] = result.messages
                metrics.io_message_read += result.spilled_read
                spill_read_of[wid] = result.spilled_count
            targets, *rest = phase2_for_worker(
                rt, worker, superstep, inbox.get(wid) or {}, pushing,
                fanout, staged[wid], aggregates=metrics.aggregates,
            )
            counts.append((len(targets), *rest))
            if async_mode:
                _route_flows(rt, wid, staged[wid], metrics, uniform)
    else:
        staged, counts = parallel._phase2_round_batched(
            rt, pool, metrics, inbox, pushing
        )
    vertex_record = sizes.vertex_record
    for wid, (num_targets, n_respond, raw_staged, edges_scanned,
              edge_bytes) in enumerate(counts):
        rt.resp_next.add_to_count(n_respond)
        updates_of[wid] = num_targets
        msgs_gen_of[wid] += raw_staged
        metrics.raw_messages += raw_staged
        edges_of[wid] += edges_scanned
        metrics.edges_scanned += edges_scanned
        metrics.io_edges_push += edge_bytes
        metrics.io_vertex += 2 * num_targets * vertex_record

    # ------------------------------------------------------------------
    # Phase 3: route staged messages (push output only).
    # ------------------------------------------------------------------
    if pushing and not async_mode:
        for wid, flows in enumerate(staged):
            _route_flows(rt, wid, flows, metrics, uniform)

    # ------------------------------------------------------------------
    # Metrics assembly.
    # ------------------------------------------------------------------
    finalize_superstep_metrics(
        rt, metrics, in_mech, out_mech,
        disk_before, spilled_before,
        updates_of, msgs_gen_of, edges_of, spill_read_of, pull_memory_of,
    )
    return metrics


def phase2_for_worker(
    rt: Runtime,
    worker,
    superstep: int,
    msgs: Dict[int, List[Any]],
    pushing: bool,
    fanout,
    flows: List[List[Any]],
    aggregates: Dict[str, float] = None,
    agg_stream: List[Tuple[str, float]] = None,
):
    """Run ``update()`` (+``pushRes()`` staging) for one worker's targets.

    This is the per-worker half of Phase 2, shared verbatim between the
    sequential executor loop and the process-pool shards of
    :mod:`repro.core.modes.parallel`.  It mutates only worker-owned
    state — ``rt.values`` of owned vertices, the ``rt.resp_next``
    *bytes* (the count is the caller's), the worker's disk/adjacency,
    and the staged *flows* buckets.  Cross-worker folds stay with the
    caller: aggregator contributions either fold inline into
    *aggregates* (sequential) or append to *agg_stream* in emission
    order so the coordinator can replay the identical left fold
    (parallel shards).

    Returns ``(targets, n_respond, raw_staged, edges_scanned,
    edge_bytes)``.
    """
    program = rt.program
    ctx = rt.ctx
    values = rt.values
    resp_raw = rt.resp_next.data
    owner_of = rt.owner_of
    update = program.update
    aggregate = program.aggregate
    message_value = program.message_value
    sizes = rt.config.sizes
    vertex_record = sizes.vertex_record
    edge_record = sizes.edge

    if superstep == 1:
        # initially-active vertices, plus any that already received
        # messages (possible under asynchronous delivery).
        initial = {
            v
            for v in worker.vertices
            if program.initially_active(v, ctx)
        }
        targets: List[int] = sorted(initial | set(msgs.keys()))
    elif program.all_active:
        targets = worker.vertices
    else:
        targets = sorted(msgs.keys())

    flow_append = [bucket.append for bucket in flows]
    msgs_get = msgs.get
    adjacency = worker.adjacency
    read_out_edges = adjacency.read_out_edges if adjacency else None
    n_respond = 0
    raw_staged = 0
    edges_scanned = 0
    edge_bytes = 0
    for vid in targets:
        old_value = values[vid]
        result = update(
            vid, old_value, msgs_get(vid, _NO_MESSAGES), ctx
        )
        new_value = result.value
        values[vid] = new_value
        respond = result.respond
        if respond:
            resp_raw[vid] = 1
            n_respond += 1
        contribution = aggregate(vid, old_value, new_value, ctx)
        if contribution:
            if agg_stream is None:
                for agg_key, agg_val in contribution.items():
                    aggregates[agg_key] = (
                        aggregates.get(agg_key, 0.0) + agg_val
                    )
            else:
                agg_stream.extend(contribution.items())
        if pushing and respond:
            if read_out_edges is None:
                raise RuntimeError(
                    "push output requires an adjacency store"
                )
            edges, charged = read_out_edges(vid)
            if charged:
                edges_scanned += charged // edge_record
                edge_bytes += charged
            if fanout is not None:
                if edges:
                    payload = message_value(
                        vid, new_value, edges[0][0], edges[0][1], ctx
                    )
                    if payload is not None:
                        for dst_wid, dsts in fanout[vid]:
                            flow_append[dst_wid]((dsts, payload))
                        raw_staged += len(edges)
            else:
                for dst, weight in edges:
                    payload = message_value(
                        vid, new_value, dst, weight, ctx
                    )
                    if payload is None:
                        continue
                    flow_append[owner_of[dst]]((dst, payload))
                    raw_staged += 1
    # IO(V_t): every updated vertex record is read and rewritten —
    # one aggregated charge per worker per superstep.
    if targets:
        record_bytes = len(targets) * vertex_record
        worker.disk.charge(
            seq_read=record_bytes, seq_write=record_bytes
        )
    return targets, n_respond, raw_staged, edges_scanned, edge_bytes


def finalize_superstep_metrics(
    rt: Runtime,
    metrics: SuperstepMetrics,
    in_mech: str,
    out_mech: str,
    disk_before: Dict[int, Any],
    spilled_before: Dict[int, int],
    updates_of: Dict[int, int],
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
    spill_read_of: Dict[int, int],
    pull_memory_of: Dict[int, int],
) -> None:
    """Fold per-worker counters into the superstep's cost metrics.

    Shared by the batched and vectorized executors so the modeled-cost
    assembly — per-worker disk deltas, spill accounting, CPU/IO/network
    seconds, memory peaks, and trace emission — cannot drift between
    them.  Mutates *metrics* in place.
    """
    cfg = rt.config
    sizes = cfg.sizes
    metrics.updated_vertices = sum(updates_of.values())
    metrics.responding_vertices = rt.responding_count()
    net = rt.network.end_superstep()
    metrics.net_bytes = net.total_bytes
    metrics.net_transfer_units += net.transfer_units
    metrics.pull_requests = net.requests
    metrics.net_packages = net.packages
    metrics.blocking_seconds = max(
        net.worker_seconds.values(), default=0.0
    )

    cpu_model = cfg.cluster.cpu
    tracer = rt.tracer
    disk_deltas: Dict[int, IOCounters] = {}
    elapsed = 0.0
    for worker in rt.workers:
        wid = worker.worker_id
        delta = worker.disk.delta_since(disk_before[wid])
        metrics.io.add(delta)
        if tracer.enabled:
            disk_deltas[wid] = delta
        spilled_now = (
            worker.message_store.total_spilled if worker.message_store else 0
        )
        spilled_here = spilled_now - spilled_before[wid]
        metrics.spilled_messages += spilled_here
        metrics.io_message_spill += sizes.messages(spilled_here)
        cpu = cpu_model.seconds(
            updates=updates_of[wid],
            messages=msgs_gen_of[wid],
            edges=edges_of[wid],
            spilled=spill_read_of[wid],
        )
        metrics.cpu_seconds += cpu
        io_seconds = cfg.cluster.disk.io_seconds(delta)
        net_seconds = net.worker_seconds.get(wid, 0.0)
        total = cpu + io_seconds + net_seconds
        metrics.worker_seconds[wid] = total
        elapsed = max(elapsed, total)
        metrics.memory_bytes += worker.memory_bytes() + pull_memory_of[wid]
    metrics.elapsed_seconds = elapsed
    if tracer.enabled:
        emit_superstep_events(
            rt, metrics,
            derive_phases(cfg, metrics, in_mech, out_mech),
            disk_deltas,
        )


def _route_flows(
    rt: Runtime,
    src_wid: int,
    flows: List[List[Any]],
    metrics: SuperstepMetrics,
    fanout_form: bool,
) -> None:
    """Ship one worker's staged per-destination buckets.

    Same flow order, network charges, combine decisions, and deposit
    order as the reference ``_route_pushed`` (flows are visited in
    ascending ``(src, dst)`` order there too); buckets are cleared in
    place for reuse by the next superstep.  With ``fanout_form`` the
    buckets hold ``(dsts, payload)`` groups (uniform-message programs)
    instead of ``(dst, payload)`` pairs.

    Plain push ships every message individually (Section 5.1: Giraph and
    GPS do not concatenate/combine at the sender — poor destination
    locality makes it not cost-effective).  ``sender_combine`` enables
    the pushM+com variant of Appendix E, which combines within each
    threshold-sized send buffer.
    """
    cfg = rt.config
    sizes = cfg.sizes
    program = rt.program
    combining = cfg.sender_combine and program.combinable
    transfer = rt.network.transfer
    for dst_wid, messages in enumerate(flows):
        if not messages:
            continue
        store = rt.workers[dst_wid].message_store
        if fanout_form:
            count = 0
            for dsts, _payload in messages:
                count += len(dsts)
            if combining:
                flat = [
                    (dst, payload)
                    for dsts, payload in messages
                    for dst in dsts
                ]
                shipped = _combine_within_threshold(
                    flat, program.combine, sizes.message,
                    cfg.sending_threshold_bytes,
                )
                transfer(
                    src_wid, dst_wid, sizes.messages(len(shipped)),
                    units=len(shipped),
                )
                if src_wid != dst_wid:
                    metrics.mco += count - len(shipped)
                store.deposit_many(shipped)
            else:
                transfer(
                    src_wid, dst_wid, sizes.messages(count), units=count
                )
                store.deposit_fanout(messages, count)
        else:
            if combining:
                shipped = _combine_within_threshold(
                    messages, program.combine, sizes.message,
                    cfg.sending_threshold_bytes,
                )
            else:
                shipped = messages
            transfer(
                src_wid, dst_wid, sizes.messages(len(shipped)),
                units=len(shipped),
            )
            if src_wid != dst_wid:
                metrics.mco += len(messages) - len(shipped)
            store.deposit_many(shipped)
        messages.clear()


def _combine_within_threshold(
    messages: List[Tuple[int, Any]],
    combine,
    message_bytes: int,
    threshold_bytes: int,
) -> List[Tuple[int, Any]]:
    """Combine messages sharing a destination inside one send buffer.

    Once the buffer reaches the sending threshold it is flushed, so
    messages for the same vertex that straddle a flush cannot be
    combined — exactly the limitation Appendix E demonstrates.
    """
    capacity = max(1, threshold_bytes // message_bytes)
    shipped: List[Tuple[int, Any]] = []
    buffer: Dict[int, Any] = {}
    for dst, payload in messages:
        if dst in buffer:
            buffer[dst] = combine(buffer[dst], payload)
            continue
        buffer[dst] = payload
        if len(buffer) >= capacity:
            shipped.extend(sorted(buffer.items()))
            buffer = {}
    shipped.extend(sorted(buffer.items()))
    return shipped


def bpull_gather(
    rt: Runtime,
    metrics: SuperstepMetrics,
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
    pull_memory_of: Dict[int, int],
) -> Dict[int, Dict[int, List[Any]]]:
    """Run Pull-Request (Alg. 1) + Pull-Respond (Alg. 2) for one superstep.

    Every worker requests messages for each of its Vblocks from every
    worker; responders use the Vblock metadata to skip irrelevant blocks,
    scan matching Eblocks sequentially, and generate messages only for
    responding fragments.  Messages are concatenated (or fully combined,
    when the program allows) per sub-buffer before crossing the network,
    and consumed immediately at the receiver — no message ever touches
    disk, which is the whole point of b-pull.

    Returns ``inbox[worker_id][vertex] -> [message values]`` where values
    have already been combined per sender when the program is combinable.
    """
    flags = rt.resp_prev
    for worker in rt.workers:
        if worker.veblock is None:
            raise RuntimeError("b-pull requires VE-BLOCK storage")
        worker.veblock.begin_superstep_stats()
        worker.veblock.refresh_res(flags)
    inbox = _pull_inbox(rt)
    replay_pull_requests(
        rt, metrics, msgs_gen_of, edges_of, pull_memory_of,
        batched_responder(rt, flags), inbox_sink(rt, inbox),
        lambda worker: worker.veblock.scan_stats,
    )
    return inbox


def replay_pull_requests(
    rt: Runtime,
    metrics: SuperstepMetrics,
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
    pull_memory_of: Dict[int, int],
    respond: Callable[[int, int, Any], Optional[tuple]],
    deliver: Callable[[int, Any], None],
    scan_stats_of: Callable[[Any], Tuple[int, int, int, int]],
) -> None:
    """Algorithm 1's request loop and its accounting, for every tier.

    Visits every (requester, requested Vblock, responder) triple in the
    canonical order — requester ascending, its Vblocks in
    ``local_blocks`` order, responder ascending — and sends one pull
    request per triple.  ``respond(requester_id, block_id, responder)``
    is the triple's Pull-Respond: None when the responder contributes
    nothing, else ``(nvalues, ngroups, nbytes, units, payload)``.  The
    loop counts the raw messages and ``mco``, charges the transfer,
    tracks the send and receive buffer peaks, and hands *payload* to
    ``deliver(requester_id, payload)``.

    Afterwards each responder's ``scan_stats_of(worker)`` — edges, aux
    bytes, edge bytes, ``V_rr`` bytes; read after the loop because
    in-process responders accumulate them while answering — is folded
    into the metrics, and the pull buffers' memory term is added: one
    block's messages (two with pre-pulling) plus the largest send
    sub-buffer (Section 4.3).
    """
    workers = rt.workers
    send_buffer_peak = {w.worker_id: 0 for w in workers}
    recv_block_peak = {w.worker_id: 0 for w in workers}
    send_request = rt.network.send_request
    transfer = rt.network.transfer
    for requester in workers:
        rx = requester.worker_id
        for block_id in requester.veblock.local_blocks:
            block_received = 0
            for responder in workers:
                ry = responder.worker_id
                send_request(rx, ry)
                got = respond(rx, block_id, responder)
                if got is None:
                    continue
                nvalues, ngroups, nbytes, units, payload = got
                metrics.raw_messages += nvalues
                msgs_gen_of[ry] += nvalues
                if nbytes > send_buffer_peak[ry]:
                    send_buffer_peak[ry] = nbytes
                transfer(ry, rx, nbytes, units=units)
                if ry != rx:
                    metrics.mco += nvalues - ngroups
                block_received += nbytes
                deliver(rx, payload)
            if block_received > recv_block_peak[rx]:
                recv_block_peak[rx] = block_received
    factor = 2 if rt.config.prepull else 1
    for worker in workers:
        wid = worker.worker_id
        edges_scanned, aux_bytes, edge_bytes, vrr_bytes = (
            scan_stats_of(worker)
        )
        metrics.edges_scanned += edges_scanned
        edges_of[wid] += edges_scanned
        metrics.io_fragments += aux_bytes
        metrics.io_edges_bpull += edge_bytes
        metrics.io_vrr += vrr_bytes
        pull_memory_of[wid] += (
            factor * recv_block_peak[wid] + send_buffer_peak[wid]
        )


def _bpull_combines(rt: Runtime) -> bool:
    """Whether b-pull combines each sub-buffer (else concatenates)."""
    return rt.program.combinable and rt.config.bpull_combine


def inbox_sink(
    rt: Runtime, inbox: Dict[int, Dict[int, List[Any]]]
) -> Callable[[int, List[Tuple[int, Any]]], None]:
    """A ``deliver`` callback appending one triple's sorted
    ``(dst, value)`` items (combining) or ``(dst, [payloads])`` items
    (concatenation) to the requester's inbox."""
    if _bpull_combines(rt):
        def deliver(rx: int, items: List[Tuple[int, Any]]) -> None:
            local_inbox = inbox[rx]
            for dst, combined in items:
                if dst in local_inbox:
                    local_inbox[dst].append(combined)
                else:
                    local_inbox[dst] = [combined]
    else:
        def deliver(rx: int, items: List[Tuple[int, Any]]) -> None:
            local_inbox = inbox[rx]
            for dst, payloads in items:
                if dst in local_inbox:
                    local_inbox[dst].extend(payloads)
                else:
                    local_inbox[dst] = payloads
    return deliver


def batched_responder(rt: Runtime, flags):
    """The batched tier's ``respond`` callback over *flags*: runs
    :func:`collect_triple` with one uniform-payload memo for the whole
    gather (or the whole pool shard)."""
    program = rt.program
    combine = program.combine if _bpull_combines(rt) else None
    payload_of: Dict[int, Any] = {}

    def respond(_rx: int, block_id: int, responder):
        return collect_triple(
            responder, block_id, flags, rt.values, rt.ctx,
            program.message_value, combine, program.uniform_messages,
            payload_of, rt.config.sizes,
        )

    return respond


#: unique sentinel for the pull-payload memo (None is a legal payload).
_MISSING = object()


def collect_triple(
    responder,
    block_id: int,
    flags,
    values: List[Any],
    ctx,
    message_value,
    combine,
    uniform: bool,
    payload_of: Dict[int, Any],
    sizes,
):
    """Pull-Respond for one (requested Vblock, responder) pair.

    The per-triple half of :func:`bpull_gather`, shared verbatim with
    the process-pool shards of :mod:`repro.core.modes.parallel`: scans
    the responder's matching Eblocks (charging its disk), builds the
    per-destination send buffer, and sizes the transfer.  *combine* is
    the program's combiner or None for concatenation-only programs;
    *payload_of* memoizes uniform payloads per source vertex across the
    whole gather (each source belongs to exactly one responder, so
    per-responder shards see the same memo hits the sequential loop
    does).

    Returns None when the responder contributes nothing, else
    ``(nvalues, ngroups, nbytes, units, items)`` where *items* lists
    ``(dst, combined value)`` (combining) or ``(dst, [payloads])``
    (concatenation) in ascending ``dst`` order — the order the
    requester appends them to its inbox.
    """
    fragments = responder.veblock.collect_for_request(block_id, flags)
    if not fragments:
        return None
    nvalues = 0
    if combine is not None:
        # Combine incrementally while filling the buffer — the same
        # left-to-right fold ``combine_all`` would apply to the
        # per-destination list, without materialising the list.
        cbuffer: Dict[int, Any] = {}
        if uniform:
            for svertex, edges in fragments:
                payload = payload_of.get(svertex, _MISSING)
                if payload is _MISSING:
                    payload = message_value(
                        svertex, values[svertex],
                        edges[0][0], edges[0][1], ctx,
                    )
                    payload_of[svertex] = payload
                if payload is None:
                    continue
                for dst, _weight in edges:
                    if dst in cbuffer:
                        cbuffer[dst] = combine(cbuffer[dst], payload)
                    else:
                        cbuffer[dst] = payload
                nvalues += len(edges)
        else:
            for svertex, edges in fragments:
                svalue = values[svertex]
                for dst, weight in edges:
                    payload = message_value(
                        svertex, svalue, dst, weight, ctx
                    )
                    if payload is None:
                        continue
                    if dst in cbuffer:
                        cbuffer[dst] = combine(cbuffer[dst], payload)
                    else:
                        cbuffer[dst] = payload
                    nvalues += 1
        if not cbuffer:
            return None
        ngroups = len(cbuffer)
        return (
            nvalues, ngroups, sizes.combined(ngroups), ngroups,
            sorted(cbuffer.items()),
        )
    buffer: Dict[int, List[Any]] = {}
    if uniform:
        for svertex, edges in fragments:
            payload = payload_of.get(svertex, _MISSING)
            if payload is _MISSING:
                payload = message_value(
                    svertex, values[svertex],
                    edges[0][0], edges[0][1], ctx,
                )
                payload_of[svertex] = payload
            if payload is None:
                continue
            for dst, _weight in edges:
                if dst in buffer:
                    buffer[dst].append(payload)
                else:
                    buffer[dst] = [payload]
            nvalues += len(edges)
    else:
        for svertex, edges in fragments:
            svalue = values[svertex]
            for dst, weight in edges:
                payload = message_value(
                    svertex, svalue, dst, weight, ctx
                )
                if payload is None:
                    continue
                if dst in buffer:
                    buffer[dst].append(payload)
                else:
                    buffer[dst] = [payload]
                nvalues += 1
    if not buffer:
        return None
    ngroups = len(buffer)
    nbytes = sizes.concatenated(nvalues, ngroups)
    return nvalues, ngroups, nbytes, nvalues, sorted(buffer.items())
