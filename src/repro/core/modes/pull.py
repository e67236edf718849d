"""GraphLab-PowerGraph-style pull baseline with the paper's disk extension.

The paper modifies (memory-resident) GraphLab PowerGraph to keep edges
and, optionally, vertices on disk (Section 6 intro and Appendix F).  The
execution model is Gather-Apply-Scatter over a vertex-cut:

* a destination vertex *v* is updated when at least one in-neighbor
  responded last superstep (or the algorithm is always-active);
* **gather** scans *v*'s in-edges; edges live at the machine of the
  source vertex (the vertex-cut "join site"), charged as sequential
  reads; each *responding* source vertex's value is read through that
  machine's LRU vertex cache — random reads on misses.  This per-vertex,
  on-demand access is the "frequent and random access to svertices" that
  makes pull I/O-inefficient on disk;
* partial gathers are combined per remote machine (one message each)
  when the program allows, otherwise every message crosses individually;
* **apply** updates *v* at its master and synchronises each remote
  mirror (one message per mirror machine).  Mirror records on remote
  machines occupy their LRU caches too — replication is why the cache
  thrashes in Table 5's ``ext-edge-v2.5`` even though a 1/T share of the
  vertices would fit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.core.metrics import SuperstepMetrics
from repro.core.runtime import Runtime
from repro.obs.instrument import derive_pull_phases, emit_superstep_events
from repro.storage.disk import IOCounters

__all__ = ["run_pull_superstep"]


def _mirror_key(vid: int, num_vertices: int) -> int:
    """Cache key of vertex *vid*'s mirror record on a remote machine."""
    return num_vertices + vid


def run_pull_superstep(rt: Runtime, superstep: int) -> SuperstepMetrics:
    """Execute one GAS superstep of the pull baseline."""
    cfg = rt.config
    sizes = cfg.sizes
    program = rt.program
    rt.ctx.superstep = superstep
    rt.network.begin_superstep(superstep)
    metrics = SuperstepMetrics(superstep=superstep, mode="pull")
    if rt.reverse is None:
        raise RuntimeError("pull mode requires the reverse adjacency")

    disk_before = {w.worker_id: w.disk.snapshot() for w in rt.workers}
    for worker in rt.workers:
        if worker.vertex_cache is not None:
            worker.vertex_cache.reset_stats()

    n = rt.graph.num_vertices
    flags = rt.resp_prev
    updates_of = {w.worker_id: 0 for w in rt.workers}
    msgs_of = {w.worker_id: 0 for w in rt.workers}
    edges_of = {w.worker_id: 0 for w in rt.workers}

    # --- phase 1: gather (reads only superstep t-1 values) --------------
    # ``gathered`` is reused across supersteps (cleared in place); the
    # per-vertex in-edge scan is charged with one bulk ``charge`` per
    # join-site machine instead of one ``read`` per edge — identical
    # byte totals, far fewer calls on the hot path.
    gathered: Dict[int, Tuple[List[Any], Set[int]]] = rt.scratch.setdefault(
        "pull_gathered", {}
    )
    gathered.clear()
    owner_of = rt.owner_of
    workers = rt.workers
    raw_flags = flags.data
    values = rt.values
    message_value = program.message_value
    edge_bytes = sizes.edge
    for worker in rt.workers:
        wid = worker.worker_id
        for vid in _update_targets(rt, worker.vertices, superstep):
            in_edges = rt.reverse[vid]
            messages: List[Any] = []
            partials: Dict[int, List[Any]] = {}
            machines: Set[int] = set()
            scanned_of: Dict[int, int] = {}
            for src, weight in in_edges:
                src_machine = owner_of[src]
                # the in-edge record is scanned at the join site
                scanned_of[src_machine] = scanned_of.get(src_machine, 0) + 1
                if not raw_flags[src]:
                    continue
                responder = workers[src_machine]
                if responder.vertex_cache is not None:
                    responder.vertex_cache.access(src)
                    if src_machine != wid:
                        responder.vertex_cache.access(
                            _mirror_key(vid, n)
                        )
                payload = message_value(
                    src, values[src], vid, weight, rt.ctx
                )
                if payload is None:
                    continue
                metrics.raw_messages += 1
                msgs_of[src_machine] += 1
                if src_machine == wid:
                    messages.append(payload)
                else:
                    partials.setdefault(src_machine, []).append(payload)
                    machines.add(src_machine)
            for src_machine, scanned in scanned_of.items():
                workers[src_machine].disk.charge(
                    seq_read=scanned * edge_bytes
                )
                edges_of[src_machine] += scanned
            metrics.edges_scanned += len(in_edges)
            # network: request + partial gathers per remote machine
            for machine, payloads in sorted(partials.items()):
                rt.network.send_request(wid, machine)
                if program.combinable:
                    messages.append(program.combine_all(payloads))
                    shipped = 1
                else:
                    messages.extend(payloads)
                    shipped = len(payloads)
                rt.network.transfer(
                    machine, wid, sizes.messages(shipped), units=shipped
                )
            gathered[vid] = (messages, machines)

    # --- phase 2: apply + mirror synchronisation ------------------------
    for worker in rt.workers:
        wid = worker.worker_id
        for vid in _update_targets(rt, worker.vertices, superstep):
            messages, machines = gathered[vid]
            if not (superstep == 1 or program.all_active or messages):
                continue
            old_value = rt.values[vid]
            result = program.update(vid, old_value, messages, rt.ctx)
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
            if worker.vertex_cache is not None:
                worker.vertex_cache.access(vid, dirty=True)
            for machine in sorted(machines):
                rt.network.transfer(wid, machine, sizes.message, units=1)
                mirror_cache = rt.workers[machine].vertex_cache
                if mirror_cache is not None:
                    mirror_cache.access(_mirror_key(vid, n), dirty=True)

    # ------------------------------------------------------------------
    metrics.updated_vertices = sum(updates_of.values())
    metrics.responding_vertices = rt.responding_count()
    net = rt.network.end_superstep()
    metrics.net_bytes = net.total_bytes
    metrics.net_transfer_units = net.transfer_units
    metrics.pull_requests = net.requests
    metrics.net_packages = net.packages
    metrics.blocking_seconds = max(net.worker_seconds.values(), default=0.0)

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
        misses = (
            worker.vertex_cache.misses if worker.vertex_cache else 0
        )
        metrics.lru_misses += misses
        cpu = cpu_model.seconds(
            updates=updates_of[wid],
            messages=msgs_of[wid],
            edges=edges_of[wid],
            lru_misses=misses,
        )
        metrics.cpu_seconds += cpu
        total = (
            cpu
            + cfg.cluster.disk.io_seconds(delta)
            + net.worker_seconds.get(wid, 0.0)
        )
        metrics.worker_seconds[wid] = total
        elapsed = max(elapsed, total)
        metrics.memory_bytes += worker.memory_bytes()
    metrics.elapsed_seconds = elapsed
    if tracer.enabled:
        emit_superstep_events(
            rt, metrics, derive_pull_phases(cfg, metrics), disk_deltas
        )
    return metrics


def _update_targets(
    rt: Runtime, local_vertices: Sequence[int], superstep: int
) -> List[int]:
    """Vertices of one worker that run update() this superstep."""
    program = rt.program
    if superstep == 1:
        return [
            v for v in local_vertices if program.initially_active(v, rt.ctx)
        ]
    if program.all_active:
        return list(local_vertices)
    raw_flags = rt.resp_prev.data
    reverse = rt.reverse
    return [
        v
        for v in local_vertices
        if any(raw_flags[src] for src, _w in reverse[v])
    ]
