"""Reference superstep executor: per-vertex accounting, no batching.

This is the pre-optimization hot path, kept verbatim as the equivalence
oracle for the batched executor in :mod:`repro.core.modes.common`:

* ``IO(V_t)`` is charged with one ``read``/``write`` pair per vertex per
  superstep instead of one aggregated charge per worker;
* messages are routed by regrouping the flat staging lists with one
  ``owner()`` lookup and one dict insert per message;
* Pull-Respond resumes the :meth:`scan_for_request` generator once per
  fragment and charges each ``S_v`` random read individually;
* every container (inbox, staging buffers) is allocated fresh each
  superstep.

Select it with ``JobConfig(executor="reference")``.  All modeled
counters — :class:`JobMetrics`, per-superstep I/O classes, network bytes
— are byte-identical to the batched executor's; the equivalence tests
(``tests/core/test_hotpath_equivalence.py``) and the
``benchmarks/bench_perf_hotpath.py`` speedup benchmark both rely on
running the same job through both executors.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.metrics import SuperstepMetrics
from repro.core.runtime import Runtime
from repro.obs.instrument import derive_phases, emit_superstep_events
from repro.storage.disk import IOCounters

__all__ = ["run_superstep_reference"]


def run_superstep_reference(
    rt: Runtime,
    superstep: int,
    in_mech: str,
    out_mech: str,
    mode_label: str,
) -> SuperstepMetrics:
    """Execute one BSP superstep with per-vertex accounting."""
    if in_mech not in ("stored", "pull"):
        raise ValueError(f"unknown input mechanism {in_mech!r}")
    if out_mech not in ("push", "flag"):
        raise ValueError(f"unknown output mechanism {out_mech!r}")

    cfg = rt.config
    sizes = cfg.sizes
    program = rt.program
    graph = rt.graph
    rt.ctx.superstep = superstep
    rt.network.begin_superstep(superstep)
    metrics = SuperstepMetrics(superstep=superstep, mode=mode_label)
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

    updates_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    msgs_gen_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    edges_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    spill_read_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    pull_memory_of: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}

    # ------------------------------------------------------------------
    # Phase 0/1: obtain this superstep's messages.
    # ------------------------------------------------------------------
    if out_mech == "push":
        for worker in rt.workers:
            if worker.adjacency is not None:
                worker.adjacency.begin_superstep()

    inbox: Dict[int, Dict[int, List[Any]]] = {}
    if in_mech == "pull" and superstep > 1:
        inbox = _bpull_gather_reference(
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

    # ------------------------------------------------------------------
    # Phase 2: update vertices; stage outgoing messages if pushing.
    # ------------------------------------------------------------------
    staged: Dict[int, List[Tuple[int, Any]]] = {
        w.worker_id: [] for w in rt.workers
    }
    for worker in rt.workers:
        wid = worker.worker_id
        if async_mode:
            result = worker.message_store.load()
            inbox[wid] = result.messages
            metrics.io_message_read += result.spilled_read
            spill_read_of[wid] = result.spilled_count
        msgs = inbox.get(wid, {})
        if superstep == 1:
            initial = {
                v
                for v in worker.vertices
                if program.initially_active(v, rt.ctx)
            }
            targets: Sequence[int] = sorted(initial | set(msgs.keys()))
        elif program.all_active:
            targets = worker.vertices
        else:
            targets = sorted(msgs.keys())
        for vid in targets:
            mlist = msgs.get(vid, [])
            old_value = rt.values[vid]
            result = program.update(vid, old_value, mlist, rt.ctx)
            rt.values[vid] = result.value
            rt.resp_next[vid] = result.respond
            updates_of[wid] += 1
            contribution = program.aggregate(
                vid, old_value, result.value, rt.ctx
            )
            if contribution:
                for agg_key, agg_val in contribution.items():
                    metrics.aggregates[agg_key] = (
                        metrics.aggregates.get(agg_key, 0.0) + agg_val
                    )
            # IO(V_t): the vertex record is read and rewritten —
            # individually, per vertex (the pre-batching accounting).
            worker.disk.read(sizes.vertex_record, sequential=True)
            worker.disk.write(sizes.vertex_record, sequential=True)
            metrics.io_vertex += 2 * sizes.vertex_record
            if out_mech == "push" and result.respond:
                if worker.adjacency is None:
                    raise RuntimeError(
                        "push output requires an adjacency store"
                    )
                charged = worker.adjacency.charge_out_edges(vid)
                scanned = charged // sizes.edge
                edges_of[wid] += scanned
                metrics.io_edges_push += charged
                metrics.edges_scanned += scanned
                value = rt.values[vid]
                lo = graph.indptr[vid]
                hi = graph.indptr[vid + 1]
                for dst, weight in zip(
                    graph.indices[lo:hi], graph.weights[lo:hi]
                ):
                    payload = program.message_value(
                        vid, value, dst, weight, rt.ctx
                    )
                    if payload is None:
                        continue
                    staged[wid].append((dst, payload))
                    msgs_gen_of[wid] += 1
                    metrics.raw_messages += 1
        if async_mode and staged[wid]:
            _route_pushed_reference(rt, {wid: staged[wid]}, metrics)
            staged[wid] = []

    # ------------------------------------------------------------------
    # Phase 3: route staged messages (push output only).
    # ------------------------------------------------------------------
    if out_mech == "push" and not async_mode:
        _route_pushed_reference(rt, staged, metrics)

    # ------------------------------------------------------------------
    # Metrics assembly.
    # ------------------------------------------------------------------
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
    return metrics


def _route_pushed_reference(
    rt: Runtime,
    staged: Dict[int, List[Tuple[int, Any]]],
    metrics: SuperstepMetrics,
) -> None:
    """Per-message routing: regroup flat staging lists flow by flow."""
    from repro.core.modes.common import _combine_within_threshold

    cfg = rt.config
    sizes = cfg.sizes
    program = rt.program
    # the pre-optimization owner lookup: a bisect per message via the
    # partition, not the Runtime's precomputed owner array.
    owner = rt.partition.owner
    per_flow: Dict[Tuple[int, int], List[Tuple[int, Any]]] = {}
    for src_wid, messages in staged.items():
        for dst, payload in messages:
            dst_wid = owner(dst)
            per_flow.setdefault((src_wid, dst_wid), []).append((dst, payload))

    for (src_wid, dst_wid), messages in sorted(per_flow.items()):
        store = rt.workers[dst_wid].message_store
        if cfg.sender_combine and program.combinable:
            shipped = _combine_within_threshold(
                messages, program.combine, sizes.message,
                cfg.sending_threshold_bytes,
            )
        else:
            shipped = messages
        nbytes = sizes.messages(len(shipped))
        rt.network.transfer(src_wid, dst_wid, nbytes, units=len(shipped))
        if src_wid != dst_wid:
            metrics.mco += len(messages) - len(shipped)
        for dst, payload in shipped:
            store.deposit(dst, payload)


def _bpull_gather_reference(
    rt: Runtime,
    metrics: SuperstepMetrics,
    msgs_gen_of: Dict[int, int],
    edges_of: Dict[int, int],
    pull_memory_of: Dict[int, int],
) -> Dict[int, Dict[int, List[Any]]]:
    """Pull-Request/Pull-Respond with per-fragment generator scanning."""
    cfg = rt.config
    sizes = cfg.sizes
    program = rt.program
    combinable = program.combinable and cfg.bpull_combine
    flags = rt.resp_prev
    values = rt.values
    inbox: Dict[int, Dict[int, List[Any]]] = {
        w.worker_id: {} for w in rt.workers
    }

    for worker in rt.workers:
        if worker.veblock is None:
            raise RuntimeError("b-pull requires VE-BLOCK storage")
        worker.veblock.begin_superstep_stats()
        worker.veblock.refresh_res(flags)

    send_buffer_peak: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}
    recv_block_peak: Dict[int, int] = {w.worker_id: 0 for w in rt.workers}

    for requester in rt.workers:
        rx = requester.worker_id
        local_inbox = inbox[rx]
        for block_id in requester.veblock.local_blocks:
            block_received = 0
            for responder in rt.workers:
                ry = responder.worker_id
                rt.network.send_request(rx, ry)
                buffer: Dict[int, List[Any]] = {}
                nvalues = 0
                for svertex, edges in responder.veblock.scan_for_request(
                    block_id, flags
                ):
                    svalue = values[svertex]
                    for dst, weight in edges:
                        payload = program.message_value(
                            svertex, svalue, dst, weight, rt.ctx
                        )
                        if payload is None:
                            continue
                        buffer.setdefault(dst, []).append(payload)
                        nvalues += 1
                if not buffer:
                    continue
                metrics.raw_messages += nvalues
                msgs_gen_of[ry] += nvalues
                ngroups = len(buffer)
                if combinable:
                    nbytes = sizes.combined(ngroups)
                    units = ngroups
                else:
                    nbytes = sizes.concatenated(nvalues, ngroups)
                    units = nvalues
                send_buffer_peak[ry] = max(send_buffer_peak[ry], nbytes)
                rt.network.transfer(ry, rx, nbytes, units=units)
                if ry != rx:
                    metrics.mco += nvalues - ngroups
                block_received += nbytes
                for dst, payloads in sorted(buffer.items()):
                    if combinable:
                        local_inbox.setdefault(dst, []).append(
                            program.combine_all(payloads)
                        )
                    else:
                        local_inbox.setdefault(dst, []).extend(payloads)
            recv_block_peak[rx] = max(recv_block_peak[rx], block_received)

    for worker in rt.workers:
        edges_scanned, aux_bytes, edge_bytes, vrr_bytes = (
            worker.veblock.scan_stats
        )
        metrics.edges_scanned += edges_scanned
        edges_of[worker.worker_id] += edges_scanned
        metrics.io_fragments += aux_bytes
        metrics.io_edges_bpull += edge_bytes
        metrics.io_vrr += vrr_bytes
        factor = 2 if cfg.prepull else 1
        pull_memory_of[worker.worker_id] += (
            factor * recv_block_peak[worker.worker_id]
            + send_buffer_peak[worker.worker_id]
        )
    return inbox
