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
* Pull-Respond answers each responder in one pass over its responding
  vertices' CSR rows and charges its disk once, with
  :meth:`VEBlockStore.estimate_bpull_scan`, instead of scanning
  fragment lists per (requester Vblock, responder) pair;
* Pull-Request's accounting — requests, network flows, raw messages,
  ``mco`` and the pull buffer peaks — is one closed-form pass over
  per-(responder, Vblock) count tables
  (:func:`pull_record`, shared with the vectorized tier)
  instead of a network call and peak update per (requester, Vblock,
  responder) triple;
* programs with ``uniform_messages`` evaluate ``message_value`` once per
  source vertex instead of once per out-edge;
* the inbox/staging containers live on ``Runtime.scratch`` and are
  cleared in place instead of reallocated every superstep.

The equivalence guard in ``tests/core/test_hotpath_equivalence.py``
asserts ``JobMetrics.to_dict()`` of both executors is byte-identical.
"""

from __future__ import annotations

from itertools import compress, count, groupby
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.metrics import SuperstepMetrics
from repro.core.runtime import Runtime
from repro.obs.instrument import derive_phases, emit_superstep_events
from repro.storage.disk import IOCounters

__all__ = [
    "run_superstep",
    "bpull_gather",
    "finalize_superstep_metrics",
    "phase2_for_worker",
    "inbox_sink",
    "pull_record",
    "charge_pull_record",
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
) -> SuperstepMetrics:
    """Execute one BSP superstep and return its metrics."""
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
    inbox: Dict[int, Dict[int, List[Any]]] = {}
    if in_mech == "pull" and superstep > 1:
        inbox = bpull_gather(
            rt, metrics, msgs_gen_of, edges_of, pull_memory_of
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
    staged = _staged_flows(rt)
    fanout = rt.push_fanout if (uniform and pushing) else None
    vertex_record = sizes.vertex_record
    for worker in rt.workers:
        wid = worker.worker_id
        if async_mode:
            result = worker.message_store.load()
            inbox[wid] = result.messages
            metrics.io_message_read += result.spilled_read
            spill_read_of[wid] = result.spilled_count
        num_targets, n_respond, raw_staged, edges_scanned, edge_bytes = (
            phase2_for_worker(
                rt, worker, superstep, inbox.get(wid) or {}, pushing,
                fanout, staged[wid], metrics.aggregates,
            )
        )
        if async_mode:
            _route_flows(rt, wid, staged[wid], metrics, uniform)
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
    aggregates: Dict[str, float],
):
    """Run ``update()`` (+``pushRes()`` staging) for one worker's targets.

    The per-worker half of Phase 2: it updates ``rt.values`` of owned
    vertices, the ``rt.resp_next`` *bytes* (the count is the caller's),
    the worker's disk/adjacency, the staged *flows* buckets, and folds
    aggregator contributions into *aggregates*.

    Returns ``(num_targets, n_respond, raw_staged, edges_scanned,
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
        targets: Sequence[int] = sorted(initial | set(msgs.keys()))
    elif program.all_active:
        targets = worker.vertices
    else:
        targets = sorted(msgs.keys())

    flow_append = [bucket.append for bucket in flows]
    msgs_get = msgs.get
    adjacency = worker.adjacency
    charge_out_edges = adjacency.charge_out_edges if adjacency else None
    graph = rt.graph
    indptr = graph.indptr
    indices = graph.indices
    weights = graph.weights
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
            for agg_key, agg_val in contribution.items():
                aggregates[agg_key] = aggregates.get(agg_key, 0.0) + agg_val
        if pushing and respond:
            if charge_out_edges is None:
                raise RuntimeError(
                    "push output requires an adjacency store"
                )
            charged = charge_out_edges(vid)
            if charged:
                edges_scanned += charged // edge_record
                edge_bytes += charged
            lo = indptr[vid]
            hi = indptr[vid + 1]
            if fanout is not None:
                if hi > lo:
                    # uniform: the first edge stands for the whole row
                    payload = message_value(
                        vid, new_value, indices[lo], weights[lo], ctx
                    )
                    if payload is not None:
                        for dst_wid, dsts in fanout[vid]:
                            flow_append[dst_wid]((dsts, payload))
                        raw_staged += hi - lo
            else:
                for dst, weight in zip(indices[lo:hi], weights[lo:hi]):
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
    return len(targets), n_respond, raw_staged, edges_scanned, edge_bytes


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

    Each responder answers all its requests at once
    (:func:`_respond_all`).  Disk counters are plain sums and a source
    vertex belongs to one responder, so only the delivery order is
    canonical: requester ascending, its Vblocks in ``local_blocks``
    order, responder ascending — the order of the inbox and of each
    vertex's values.  The answers only record their counts;
    :func:`pull_record` accounts for them in closed form.

    Returns ``inbox[worker_id][vertex] -> [message values]`` where values
    have already been combined per sender when the program is combinable.
    """
    workers = rt.workers
    for worker in workers:
        if worker.veblock is None:
            raise RuntimeError("b-pull requires VE-BLOCK storage")
    num_blocks = rt.layout.num_blocks
    tables = tuple(
        [[0] * num_blocks for _ in workers] for _ in range(4)
    )
    answers = []
    scan_stats = []
    for responder in workers:
        ry = responder.worker_id
        by_block, stats = _respond_all(
            rt, responder, *(table[ry] for table in tables)
        )
        answers.append(by_block)
        scan_stats.append(stats)
    inbox = _pull_inbox(rt)
    deliver = inbox_sink(rt, inbox)
    for requester in workers:
        rx = requester.worker_id
        for block_id in requester.veblock.local_blocks:
            for by_block in answers:
                items = by_block.get(block_id)
                if items is not None:
                    deliver(rx, items)
    charge_pull_record(
        rt, metrics, msgs_gen_of, edges_of, pull_memory_of,
        pull_record(rt, tables, scan_stats),
    )
    return inbox


def pull_record(
    rt: Runtime,
    tables: Tuple[Sequence[Sequence[int]], ...],
    scan_stats: Sequence[Tuple[int, int, int, int]],
) -> Tuple[int, int, List[Tuple[Tuple[int, int], int]], List[Tuple]]:
    """Algorithm 1's request loop and its accounting, for every tier, in
    closed form, as one record ``(requests, units, flows, rows)`` that
    :func:`charge_pull_record` charges; pure, so a tier may charge it
    again while its inputs repeat.

    *tables* is ``(nvalues, ngroups, nbytes, units)``, each indexed
    ``[responder][Vblock id]``: what the responder sent for that Vblock,
    all zero when it sent nothing.  The requesters and their Vblocks
    are read from each worker's ``veblock.local_blocks``, as the loop
    reads them; nothing assumes how Vblocks are numbered.  The
    canonical loop — one request per (requester, Vblock, responder)
    triple, one transfer per answer — reduces to sums and maxima over
    them:

    * requests: ``W`` per Vblock; raw messages, ``msgs_gen_of`` and the
      transfer units: sums;
    * ``mco``: ``nvalues - ngroups`` over the answers each requester
      gets for its Vblocks from the other workers;
    * a responder's send-buffer peak: the max of its row; a requester's
      receive peak: the max, over its Vblocks, of the block's column sum;
    * the network flows: per-(src, dst) totals, opened in the order the
      loop first touches them (:func:`_pull_flows`).

    Each worker's row is its raw messages, ``mco``, its *scan_stats*
    row (edges, aux bytes, edge bytes, ``V_rr`` bytes) and the pull
    buffers' memory term: one block's messages (two with pre-pulling)
    plus the largest send sub-buffer (Section 4.3).  The
    per-triple loop itself lives on in :mod:`repro.core.modes.reference`,
    the oracle this closed form is checked against.
    """
    nvalues, ngroups, nbytes, units = tables
    workers = rt.workers
    blocks_of = [w.veblock.local_blocks for w in workers]
    values_to = list(map(sum, zip(*nvalues)))
    groups_to = list(map(sum, zip(*ngroups)))
    received = list(map(sum, zip(*nbytes)))
    factor = 2 if rt.config.prepull else 1
    rows = []
    for worker, blocks in zip(workers, blocks_of):
        wid = worker.worker_id
        sent = nvalues[wid]
        groups = ngroups[wid]
        # what this worker's Vblocks get from the other workers
        mco = sum(
            values_to[b] - sent[b] - groups_to[b] + groups[b]
            for b in blocks
        )
        memory = (
            factor * max(map(received.__getitem__, blocks), default=0)
            + max(nbytes[wid], default=0)
        )
        rows.append((sum(sent), mco, *scan_stats[wid], memory))
    return (
        len(workers) * sum(map(len, blocks_of)),
        sum(map(sum, units)),
        _pull_flows(blocks_of, nbytes, rt.config.sizes.pull_request),
        rows,
    )


def charge_pull_record(
    rt: Runtime,
    metrics: SuperstepMetrics,
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
    pull_memory_of: Dict[int, int],
    record: Tuple,
) -> None:
    """Charge one :func:`pull_record` to the network and the metrics."""
    requests, units, flows, rows = record
    rt.network.add_traffic(requests, units, flows)
    for wid, row in enumerate(rows):
        sent, mco, edges, aux_bytes, edge_bytes, vrr_bytes, memory = row
        metrics.raw_messages += sent
        msgs_gen_of[wid] += sent
        metrics.mco += mco
        metrics.edges_scanned += edges
        edges_of[wid] += edges
        metrics.io_fragments += aux_bytes
        metrics.io_edges_bpull += edge_bytes
        metrics.io_vrr += vrr_bytes
        pull_memory_of[wid] += memory


def _pull_flows(
    blocks_of: List[List[int]],
    nbytes: Sequence[Sequence[int]],
    request_bytes: int,
) -> List[Tuple[Tuple[int, int], int]]:
    """The remote flows of a b-pull gather, as ``((src, dst), bytes)`` in
    the canonical loop's first-touch order.

    *blocks_of* lists each requester's Vblocks in request order.  The
    loop visits (requester rx, k-th Vblock of rx, responder ry) and
    touches flow ``(rx, ry)`` with the request, then ``(ry, rx)`` with
    the answer when it carries bytes.  So ``(rx, ry)`` is first touched
    at rx's first Vblock and ``(ry, rx)`` at the first Vblock of rx that
    ry sends bytes for.  A flow's total is its source's requests plus
    the answers its source sends for the destination's Vblocks.
    """
    touched = []
    for rx, blocks in enumerate(blocks_of):
        if not blocks:
            continue
        for ry, row in enumerate(nbytes):
            if ry == rx:
                continue
            touched.append(((rx, 0, ry, 0), (rx, ry)))
            first = next(
                compress(count(), map(row.__getitem__, blocks)), None
            )
            if first is not None:
                touched.append(((rx, first, ry, 1), (ry, rx)))
    touched.sort()
    flows: Dict[Tuple[int, int], int] = {}
    for _when, key in touched:
        if key not in flows:
            src, dst = key
            flows[key] = (
                request_bytes * len(blocks_of[src])
                + sum(map(nbytes[src].__getitem__, blocks_of[dst]))
            )
    return list(flows.items())


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


def _respond_all(rt: Runtime, responder, nvalues, ngroups, nbytes, units):
    """Pull-Respond (Alg. 2) for every request *responder* gets this
    superstep, in one pass over its responding vertices' CSR rows.

    The responding vertices come in ascending order, which is also the
    order of their fragments in the Eblocks a request scans, so each
    destination's values fold in the scalar order.  A uniform program's
    payload is evaluated once per source, on its first edge.  The disk
    is charged once with what the scans read
    (:meth:`VEBlockStore.estimate_bpull_scan`).  Fills the responder's
    rows of the four count tables, indexed by Vblock id.

    Returns ``(answers, scan_stats)``: *answers* maps a requested
    Vblock to its ``(dst, combined value)`` (combining) or ``(dst,
    [payloads])`` (concatenation) items in ascending ``dst`` order, for
    the Vblocks that get any.
    """
    program = rt.program
    message_value = program.message_value
    combine = program.combine if _bpull_combines(rt) else None
    values = rt.values
    ctx = rt.ctx
    graph = rt.graph
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    block_of = rt.layout.block_of_vertex
    raw = rt.resp_prev.data
    local = rt.partition.vertices_of(responder.worker_id)
    sources = compress(local, raw[local.start:local.stop:local.step])
    uniform = program.uniform_messages
    buffer: Dict[int, Any] = {}
    for svertex in sources:
        lo = indptr[svertex]
        hi = indptr[svertex + 1]
        if lo == hi:
            continue
        if uniform:
            payload = message_value(
                svertex, values[svertex], indices[lo], weights[lo], ctx
            )
            if payload is None:
                continue
            if combine is None:
                for dst in indices[lo:hi]:
                    if dst in buffer:
                        buffer[dst].append(payload)
                    else:
                        buffer[dst] = [payload]
                continue
            # the left-to-right fold ``combine_all`` would apply to the
            # destination's list, without materialising the list; the
            # values per Vblock are counted here (concatenated ones at
            # the split below)
            for dst in indices[lo:hi]:
                if dst in buffer:
                    buffer[dst] = combine(buffer[dst], payload)
                else:
                    buffer[dst] = payload
                nvalues[block_of[dst]] += 1
            continue
        svalue = values[svertex]
        for dst, weight in zip(indices[lo:hi], weights[lo:hi]):
            payload = message_value(svertex, svalue, dst, weight, ctx)
            if payload is None:
                continue
            if combine is None:
                if dst in buffer:
                    buffer[dst].append(payload)
                else:
                    buffer[dst] = [payload]
            else:
                if dst in buffer:
                    buffer[dst] = combine(buffer[dst], payload)
                else:
                    buffer[dst] = payload
                nvalues[block_of[dst]] += 1
    # split by Vblock; the sort is stable, so each keeps dst order
    dsts = sorted(buffer)
    dsts.sort(key=block_of.__getitem__)
    answers: Dict[int, List[Tuple[int, Any]]] = {}
    sizes = rt.config.sizes
    for block, group in groupby(dsts, block_of.__getitem__):
        group = list(group)
        answers[block] = list(zip(group, map(buffer.__getitem__, group)))
        ngroups[block] = groups = len(group)
        if combine is not None:
            nbytes[block] = sizes.combined(groups)
            units[block] = groups
        else:
            sent = sum(map(len, map(buffer.__getitem__, group)))
            nvalues[block] = units[block] = sent
            nbytes[block] = sizes.concatenated(sent, groups)
    stats = responder.veblock.estimate_bpull_scan(raw)
    _edges, aux_bytes, edge_bytes, vrr_bytes = stats
    responder.disk.charge(
        seq_read=aux_bytes + edge_bytes, random_read=vrr_bytes
    )
    return answers, stats
