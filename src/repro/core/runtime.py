"""Job runtime: workers, shared vertex state, and storage setup.

The simulator executes a distributed job deterministically in one
process.  Each :class:`Worker` owns a slice of the vertices, a simulated
disk, and the storage structures its execution mode needs; vertex values
and responding flags live in runtime-wide arrays for speed, with
ownership discipline enforced by the mode implementations (a worker only
reads/writes state of vertices it owns, except through the explicitly
charged access paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Any, List, Optional, Sequence

from repro.core.api import ProgramContext, VertexProgram
from repro.core.config import JobConfig
from repro.core.flags import FlagBitset
from repro.core.graph import Graph, Partition, hash_partition, range_partition
from repro.core.metrics import LoadMetrics
from repro.cluster.network import SimulatedNetwork
from repro.obs.tracer import resolve_tracer
from repro.storage.adjacency import AdjacencyStore
from repro.storage.disk import SimulatedDisk
from repro.storage.messages import OnlineMessageStore, SpillingMessageStore
from repro.storage.veblock import BlockLayout, VEBlockStore
from repro.storage.vertex_cache import LRUVertexCache

__all__ = ["Worker", "PushPlan", "Runtime", "choose_vblocks_per_worker"]


def choose_vblocks_per_worker(
    graph: Graph,
    partition: Partition,
    worker: int,
    buffer_messages: Optional[int],
    combinable: bool,
    in_degrees: Optional[Sequence[int]] = None,
) -> int:
    """Pick ``V_i`` from the memory budget (Eqs. 5 and 6, Section 4.3).

    For combinable programs, ``V_i = (2 n_i + n_i T) / B_i`` (receive
    buffer is pre-pulled twice, send buffer has ``T`` sub-buffers); for
    concatenation-only programs the receive buffer must hold one value
    per in-edge, so ``V_i = Σ in-degree / B_i``.  The paper sets ``V`` as
    small as possible subject to the buffers fitting, hence the ceiling.

    ``in_degrees`` may be supplied to avoid re-scanning the edges for
    every worker (only consulted on the Eq. 6 path).
    """
    n_i = partition.size_of(worker)
    if buffer_messages is None or n_i == 0:
        return 1
    if buffer_messages == 0:
        return n_i  # no block fits an empty buffer: the finest layout
    t = partition.num_workers
    if combinable:
        needed = 2 * n_i + n_i * t
    else:
        if in_degrees is None:
            in_degrees = graph.in_degrees()
        needed = sum(
            in_degrees[v] for v in partition.vertices_of(worker)
        )
    return max(1, math.ceil(needed / buffer_messages))


@dataclass
class Worker:
    """One computational node of the simulated cluster."""

    worker_id: int
    #: the worker's vertices in id order: its partition's range.
    vertices: Sequence[int]
    disk: SimulatedDisk
    adjacency: Optional[AdjacencyStore] = None
    veblock: Optional[VEBlockStore] = None
    message_store: Any = None  # Spilling- or OnlineMessageStore
    vertex_cache: Optional[LRUVertexCache] = None

    def memory_bytes(self) -> int:
        """Buffered message bytes + metadata (the Fig. 14d/23 metric)."""
        total = 0
        if self.message_store is not None:
            total += self.message_store.memory_bytes
        if self.veblock is not None:
            total += self.veblock.metadata_memory_bytes()
        if self.vertex_cache is not None:
            total += self.vertex_cache.memory_bytes
        return total


class PushPlan:
    """A uniform-message push superstep in which every vertex with
    out-edges sends, transposed to the receivers' side.

    Such a superstep's message stream is fixed by the graph and the
    partition alone: source worker ascending, its vertices in id order,
    each row in edge order.  Only the payloads change, one per source
    vertex.  So the stream is grouped by destination vertex once per
    job, and a store receives a superstep as one slice per vertex of a
    payload tuple (``SpillingMessageStore.deposit_grouped``).

    Attributes (flat int lists, so the plan adds few objects for the
    garbage collector to trace):

    * ``senders[s]``: worker ``s``'s vertices with out-edges, in order;
    * ``counts[s][d]``: the messages ``s`` sends to ``d``'s store;
    * ``keys[d]``: the vertices ``d``'s store receives for, in order of
      first arrival;
    * ``sources[d]`` and ``offsets[d]``: the source vertex of each
      message ``keys[d][i]`` receives, in stream order, is
      ``sources[d][offsets[d][i]:offsets[d][i + 1]]``.
    """

    __slots__ = ("senders", "counts", "keys", "offsets", "sources")

    def __init__(self, rt: "Runtime") -> None:
        graph = rt.graph
        indptr, indices = graph.indptr, graph.indices
        owner_of = rt.owner_of
        num_workers = rt.config.num_workers
        streams: List[dict] = [{} for _ in range(num_workers)]
        self.senders: List[List[int]] = []
        self.counts: List[List[int]] = []
        for worker in range(num_workers):
            senders = []
            counts = [0] * num_workers
            for v in rt.partition.vertices_of(worker):
                lo = indptr[v]
                hi = indptr[v + 1]
                if lo == hi:
                    continue
                senders.append(v)
                for dst in indices[lo:hi]:
                    owner = owner_of[dst]
                    counts[owner] += 1
                    stream = streams[owner]
                    if dst in stream:
                        stream[dst].append(v)
                    else:
                        stream[dst] = [v]
            self.senders.append(senders)
            self.counts.append(counts)
        self.keys = [list(stream) for stream in streams]
        self.offsets = [
            [0, *accumulate(map(len, stream.values()))]
            for stream in streams
        ]
        self.sources = [
            list(chain.from_iterable(stream.values())) for stream in streams
        ]


class Runtime:
    """All mutable state of one running job."""

    def __init__(
        self, graph: Graph, program: VertexProgram, config: JobConfig
    ) -> None:
        self.graph = graph
        self.program = program
        self.config = config
        if config.partition == "range":
            self.partition = range_partition(
                graph.num_vertices, config.num_workers
            )
        else:
            self.partition = hash_partition(
                graph.num_vertices, config.num_workers
            )
        self.max_supersteps = (
            config.max_supersteps
            if config.max_supersteps is not None
            else (program.default_max_supersteps or 10_000)
        )
        #: observability handle (``repro.obs``); the shared no-op null
        #: tracer unless ``config.trace`` asks for one, so every
        #: instrumentation site can guard on ``tracer.enabled`` without
        #: a None check.
        self.tracer = resolve_tracer(config.trace)
        self.network = SimulatedNetwork(
            num_workers=config.num_workers,
            profile=config.cluster.disk,
            sending_threshold_bytes=config.sending_threshold_bytes,
            request_bytes=config.sizes.pull_request,
        )
        self.network.tracer = self.tracer
        self.workers: List[Worker] = []
        self.layout: Optional[BlockLayout] = None
        self.reverse: Optional[List[List]] = None
        # shared vertex state
        self.values: List[Any] = []
        self.resp_prev: FlagBitset = FlagBitset(0)
        self.resp_next: FlagBitset = FlagBitset(0)
        #: vertex id -> owning worker, precomputed so the message-routing
        #: hot path pays a C-level list index instead of a method call.
        #: Filled one worker's vertex range (or stride) at a time.
        self.owner_of: List[int] = [0] * graph.num_vertices
        for worker in range(config.num_workers):
            span = self.partition.vertices_of(worker)
            self.owner_of[span.start:span.stop:span.step] = (
                [worker] * len(span)
            )
        self.load_metrics = LoadMetrics()
        self._in_degree_cache: Optional[List[int]] = None
        #: reusable executor containers (inbox / staging buffers), keyed
        #: by purpose; the mode executors clear them in place each
        #: superstep instead of reallocating — see modes/common.py.
        self.scratch: dict = {}
        # per-vertex push fan-out is O(E) to build; defer it to first
        # access (see the push_fanout property) so jobs that never take
        # the batched uniform-push path — b-pull jobs, vectorized jobs —
        # skip the cost entirely.
        self._push_fanout: Optional[List[tuple]] = None
        self._push_fanout_built = False
        self._push_plan: Optional[PushPlan] = None
        #: executor actually driving supersteps.  ``"vectorized"`` jobs
        #: that cannot run dense (no NumPy, program without dense rules,
        #: scalar-only feature in play, ...) transparently downgrade to
        #: ``"batched"``; the reason is kept for observability but is
        #: deliberately NOT part of JobMetrics — the byte-identity oracle
        #: compares executors on the same payload.
        self.active_executor: str = config.executor
        self.executor_fallback: Optional[str] = None
        if config.executor == "vectorized":
            # imported lazily: modes.common imports this module, and
            # modes.vectorized imports modes.common.
            from repro.core.modes.vectorized import fallback_reason

            reason = fallback_reason(program, config)
            if reason is not None:
                self.active_executor = "batched"
                self.executor_fallback = reason
        #: processes actually running the b-pull gather's scans.
        #: ``parallelism > 1`` downgrades to 1 (in-process) for job
        #: shapes without a parallel path; like the executor downgrade,
        #: the reason lands in ``executor_fallback``.  Values above
        #: ``num_workers`` are clamped silently (extra processes would
        #: idle).
        self.active_parallelism: int = 1
        self._pool: Any = None
        if config.parallelism > 1:
            from repro.core.modes.parallel import parallel_fallback_reason

            reason = parallel_fallback_reason(self)
            if reason is None:
                self.active_parallelism = min(
                    config.parallelism, config.num_workers
                )
            elif self.executor_fallback is None:
                self.executor_fallback = reason
            else:
                self.executor_fallback = (
                    f"{self.executor_fallback}; {reason}"
                )
        self.ctx = ProgramContext(
            num_vertices=graph.num_vertices,
            superstep=0,
            # the scalar tiers look a degree up per message, so they get
            # a list; the dense rules read the CSR's degrees instead
            out_degree=(
                graph.out_degree
                if self.active_executor == "vectorized"
                else graph.out_degrees().__getitem__
            ),
            max_supersteps=self.max_supersteps,
        )
        self._init_state()

    def shutdown_pool(self) -> None:
        """Tear down the parallel worker pool, if one is running.

        Called by the engine on job completion and before every
        recovery restore (the pool's processes hold pre-failure state;
        the next parallel superstep re-forks from the restored
        coordinator).  No-op when no pool is active.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.close()

    @property
    def push_fanout(self) -> Optional[List[tuple]]:
        """For uniform-message programs on push-capable modes: vertex id
        -> ((dst_worker, (dst, dst, ...)), ...), the out-neighbors
        grouped by owning worker.  The batched executor stages one
        (dsts, payload) group per (vertex, worker) pair instead of one
        (dst, payload) tuple per edge, on the uniform push supersteps
        that :attr:`push_plan` cannot deliver (a partial sending set,
        asynchronous delivery, a combiner, MOCgraph's store).  None when
        not applicable; built lazily on first access and cached for the
        job's lifetime (the graph is immutable once a Runtime holds it).
        """
        if not self._push_fanout_built:
            self._push_fanout_built = True
            if self.program.uniform_messages and self.needs_adjacency():
                owner_of = self.owner_of
                graph = self.graph
                indptr = graph.indptr
                indices = graph.indices
                fanout: List[tuple] = []
                for v in range(graph.num_vertices):
                    groups: dict = {}
                    for dst in indices[indptr[v] : indptr[v + 1]]:
                        wid = owner_of[dst]
                        if wid in groups:
                            groups[wid].append(dst)
                        else:
                            groups[wid] = [dst]
                    fanout.append(
                        tuple(
                            (wid, tuple(dsts))
                            for wid, dsts in sorted(groups.items())
                        )
                    )
                self._push_fanout = fanout
        return self._push_fanout

    @property
    def push_plan(self) -> "PushPlan":
        """The :class:`PushPlan` of this job's graph and partition,
        built on first access and kept for the job's lifetime: both are
        immutable, so a restore keeps it too."""
        if self._push_plan is None:
            self._push_plan = PushPlan(self)
        return self._push_plan

    # ------------------------------------------------------------------
    def _init_state(self) -> None:
        """Superstep-0 state: initial values, no flags, no aggregates.

        Built at construction; ``restore_checkpoint(rt, None)`` calls it
        again to recompute from scratch.
        """
        n = self.graph.num_vertices
        self.ctx.superstep = 0
        self.ctx.aggregates = {}
        self.values = self.program.initial_values(n, self.ctx)
        self.resp_prev = FlagBitset(n)
        self.resp_next = FlagBitset(n)

    def sync_values(self) -> List[Any]:
        """``values``, refreshed from the vectorized tier's dense state.

        While a vectorized job runs, its values live only in that
        state's array; the readers of ``values`` (a checkpoint, the pool
        fork and the job's result) call this first.  A no-op for the
        scalar tiers and right after a restore, which drops the state.
        """
        state = self.scratch.get("vectorized")
        if state is not None:
            self.values[:] = state.values.tolist()
        return self.values

    # ------------------------------------------------------------------
    # setup / loading
    # ------------------------------------------------------------------
    def needs_adjacency(self) -> bool:
        return self.config.mode in ("push", "pushm", "hybrid")

    def needs_veblock(self) -> bool:
        return self.config.mode in ("bpull", "hybrid")

    def setup(self) -> None:
        """Build workers and their storage; account the loading phase."""
        cfg = self.config
        graph = self.graph
        # planned faults name workers; the schedule cannot know the
        # cluster size, so the bound is checked here.
        from repro.cluster.fault import as_schedule

        for plan in as_schedule(cfg.fault).faults:
            if plan.worker >= cfg.num_workers:
                raise ValueError(
                    f"fault plan names worker {plan.worker}, but the "
                    f"job runs {cfg.num_workers} workers"
                )
        if self.needs_veblock():
            counts = []
            in_degrees = (
                None if self.program.combinable else self._in_degrees()
            )
            for w in range(cfg.num_workers):
                if cfg.vblocks_per_worker is not None:
                    counts.append(cfg.vblocks_per_worker)
                else:
                    counts.append(
                        choose_vblocks_per_worker(
                            graph,
                            self.partition,
                            w,
                            cfg.message_buffer_per_worker,
                            self.program.combinable,
                            in_degrees=in_degrees,
                        )
                    )
            self.layout = BlockLayout.build(self.partition, counts)
        if cfg.mode == "pull":
            self.reverse = graph.reverse_adjacency()

        fresh_messages = self._make_message_store
        for w in range(cfg.num_workers):
            local = self.partition.vertices_of(w)
            disk = SimulatedDisk(enabled=cfg.graph_on_disk)
            worker = Worker(worker_id=w, vertices=local, disk=disk)
            if self.needs_adjacency():
                worker.adjacency = AdjacencyStore(
                    graph, local, disk, cfg.sizes,
                    block_vertices=cfg.adjacency_block_vertices,
                )
            if self.needs_veblock():
                worker.veblock = VEBlockStore(
                    graph,
                    self.partition,
                    w,
                    self.layout,
                    disk,
                    cfg.sizes,
                    fragment_clustering=cfg.fragment_clustering,
                    as_arrays=self.active_executor == "vectorized",
                )
            if cfg.mode in ("push", "pushm", "hybrid"):
                worker.message_store = fresh_messages(worker)
            if cfg.mode == "pull":
                capacity = (
                    cfg.lru_capacity()
                    if cfg.vertices_on_disk_for_pull
                    else None
                )
                worker.vertex_cache = LRUVertexCache(
                    capacity=capacity, sizes=cfg.sizes, disk=disk
                )
            self.workers.append(worker)
        self._account_loading()

    def _make_message_store(self, worker: Worker):
        cfg = self.config
        if cfg.mode == "pushm":
            if not self.program.combinable:
                raise ValueError(
                    "pushm (MOCgraph online computing) requires a "
                    "combinable program; "
                    f"{self.program.name} is not"
                )
            hot = self._hot_vertices(worker)
            return OnlineMessageStore(
                hot, cfg.sizes, worker.disk, self.program.combine
            )
        if self.active_executor == "vectorized":
            # receiver_combine falls back to batched before we get here,
            # so the array store never needs a combine function.
            from repro.core.modes.vectorized import VectorizedMessageStore

            return VectorizedMessageStore(
                capacity=cfg.message_buffer_per_worker,
                sizes=cfg.sizes,
                disk=worker.disk,
            )
        combine = (
            self.program.combine
            if (cfg.receiver_combine and self.program.combinable)
            else None
        )
        return SpillingMessageStore(
            capacity=cfg.message_buffer_per_worker,
            sizes=cfg.sizes,
            disk=worker.disk,
            combine=combine,
        )

    def _hot_vertices(self, worker: Worker) -> Sequence[int]:
        """MOCgraph keeps the highest in-degree vertices memory-resident."""
        budget = self.config.message_buffer_per_worker
        if budget is None:
            return worker.vertices
        in_degs = self._in_degrees()
        ranked = sorted(worker.vertices, key=lambda v: (-in_degs[v], v))
        return ranked[:budget]

    def _in_degrees(self) -> List[int]:
        if self._in_degree_cache is None:
            self._in_degree_cache = self.graph.in_degrees()
        return self._in_degree_cache

    # ------------------------------------------------------------------
    def _account_loading(self) -> None:
        """Charge the graph-loading phase (Fig. 16's cost model).

        Building the adjacency list writes the records once.  Building
        VE-BLOCK additionally external-sorts the edges into
        (block, svertex) order: write temp runs, read them back, write
        the final Eblocks with fragment auxiliary data — more bytes and
        more CPU than adj, as Fig. 16 shows.
        """
        cfg = self.config
        cpu_total = 0.0
        worker_seconds = []
        structures = []
        if self.needs_adjacency():
            structures.append("adj")
        if self.needs_veblock():
            structures.append("veblock")
        for worker in self.workers:
            cpu = 0.0
            before = worker.disk.snapshot()
            if worker.adjacency is not None:
                worker.adjacency.charge_load()
                cpu += (
                    worker.adjacency.num_local_edges
                    * cfg.cluster.cpu.load_parse_per_edge
                )
            if worker.veblock is not None:
                num_edges = worker.veblock.num_local_edges
                edge_bytes = cfg.sizes.edges(num_edges)
                worker.disk.write(edge_bytes, sequential=True)  # temp runs
                worker.disk.read(edge_bytes, sequential=True)   # sort read
                worker.veblock.charge_load()                     # final layout
                cpu += (
                    2.0
                    * num_edges
                    * cfg.cluster.cpu.load_parse_per_edge
                )
            cpu /= cfg.cluster.cpu.speed
            delta = worker.disk.delta_since(before)
            self.load_metrics.io.add(delta)
            cpu_total += cpu
            worker_seconds.append(cfg.cluster.disk.io_seconds(delta) + cpu)
        self.load_metrics.structures = "+".join(structures) or "none"
        self.load_metrics.cpu_seconds = cpu_total
        self.load_metrics.elapsed_seconds = (
            max(worker_seconds) if worker_seconds else 0.0
        )

    # ------------------------------------------------------------------
    # helpers used by the modes
    # ------------------------------------------------------------------
    def owner(self, vid: int) -> int:
        return self.owner_of[vid]

    def swap_flags(self) -> None:
        """Roll the flag double-buffer, allocation-free.

        The spare buffer (last superstep's ``resp_prev``) is cleared in
        place and becomes the new ``resp_next``; no O(n) list is built.
        """
        self.resp_prev, self.resp_next = self.resp_next, self.resp_prev
        self.resp_next.clear()

    def responding_count(self) -> int:
        """Flags set this superstep — O(1) via the maintained count."""
        return self.resp_next.true_count

    def pending_messages(self) -> int:
        return sum(
            w.message_store.pending_count
            for w in self.workers
            if w.message_store is not None
        )

    def total_fragments(self) -> int:
        return sum(
            w.veblock.total_fragments()
            for w in self.workers
            if w.veblock is not None
        )
