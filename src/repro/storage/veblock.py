"""VE-BLOCK: the block-centric graph layout behind b-pull (Section 4.1).

Vertices are range-partitioned into ``V`` fixed-size **Vblocks**
``b_1..b_V``; for each pair of blocks ``(i, j)`` a variable-size
**Eblock** ``g_ij`` holds the edges from svertices in ``b_i`` to
dvertices in ``b_j``.  Inside an Eblock, edges sharing a svertex are
clustered into a **fragment** whose auxiliary data (svertex id + edge
count) costs ``S_f`` bytes on disk.

Each Vblock ``b_j`` carries metadata ``X_j`` = (#svertices, total
in-degree, total out-degree, bitmap, responding indicator).  Bit ``i`` of
the bitmap says ``g_ji`` is non-empty; ``res`` says some svertex in
``b_j`` set its responding flag, so the block may need to answer pull
requests this superstep.  The bitmap is not stored twice: bit ``i`` of
``X_j`` is whether the Eblock table holds ``g_ji``.

Answering a pull request for block ``i`` (Algorithm 2) scans every local
Eblock ``g_ji`` whose metadata passes both checks: the *whole* Eblock is
read sequentially (fragment aux + edges — Appendix C's "useless edges"
effect at coarse granularity), and the svertex *value* of each responding
fragment is read randomly from the Vblock (``IO(V_rr)`` in Eq. 8).

A store has one set of metadata and size tables, built as counts for
every executor tier: each local vertex's fragments (its distinct
destination blocks, or its out-degree without clustering), then each
block's fragment and edge sums, from which ``X_j`` is filled once per
block.  The executors read edges straight from the worker's CSR rows,
which hold each destination vertex's edges in Eblock scan order
already: a request reads its Eblocks in source-block order, and a
worker's source blocks chop its rows in order.  The scalar tiers count
with the stdlib, one set of destination blocks per row; the vectorized
tier counts in a few passes over whole arrays (one sort of a ``(row,
destination block)`` key per edge, and per-row sums of where the key
changes).  The fragment lists themselves are built from the rows only
on the first fragment access (:meth:`VEBlockStore.eblock`,
:meth:`~VEBlockStore.refresh_res` and the request scans), which only
the reference oracle and the storage tests make.  Each local Vblock is
a slice of its worker's vertex range, so a store keeps it as two
slices: one of the flag bytes, one of the per-vertex fragment counts (a
list over the worker's own vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import sub
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.graph import Edge, Graph, Partition
from repro.storage.disk import SimulatedDisk
from repro.storage.records import RecordSizes

__all__ = [
    "BlockLayout", "Fragment", "VBlockMeta", "VEBlockStore",
]


@dataclass(frozen=True)
class BlockLayout:
    """Global assignment of vertices to Vblocks across the cluster.

    Every worker's local vertex list (in id order) is chopped into
    ``blocks_per_worker[w]`` contiguous chunks; global block ids number
    the chunks worker-by-worker, so blocks of one worker are contiguous.
    """

    num_workers: int
    num_vertices: int
    #: global block id -> owning worker.
    block_owner: Tuple[int, ...]
    #: global block id -> its vertices, a slice of its owner's range.
    block_ranges: Tuple[range, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.block_owner)

    def blocks_of(self, worker: int) -> List[int]:
        return [
            b for b in range(self.num_blocks) if self.block_owner[b] == worker
        ]

    @cached_property
    def block_vertices(self) -> Tuple[Tuple[int, ...], ...]:
        """Global block id -> tuple of vertex ids in the block."""
        return tuple(map(tuple, self.block_ranges))

    @cached_property
    def block_of_vertex(self) -> Tuple[int, ...]:
        """Vertex id -> global block id, one slice assignment per block."""
        block_of = [0] * self.num_vertices
        for block, members in enumerate(self.block_ranges):
            block_of[members.start:members.stop:members.step] = (
                [block] * len(members)
            )
        return tuple(block_of)

    @cached_property
    def block_of_array(self) -> Any:
        """:attr:`block_of_vertex` as a NumPy array, built once per
        layout by the same slice assignments."""
        import numpy as np

        block_of = np.empty(self.num_vertices, dtype=np.int64)
        for block, members in enumerate(self.block_ranges):
            block_of[members.start:members.stop:members.step] = block
        return block_of

    @staticmethod
    def build(
        partition: Partition, blocks_per_worker: Sequence[int]
    ) -> "BlockLayout":
        """Chop each worker's vertex range into its share of Vblocks."""
        if len(blocks_per_worker) != partition.num_workers:
            raise ValueError("need one block count per worker")
        owner: List[int] = []
        blocks: List[range] = []
        for worker in range(partition.num_workers):
            local = partition.vertices_of(worker)
            count = max(1, min(blocks_per_worker[worker], max(1, len(local))))
            base, extra = divmod(len(local), count)
            cursor = 0
            for k in range(count):
                size = base + (1 if k < extra else 0)
                blocks.append(local[cursor : cursor + size])
                owner.append(worker)
                cursor += size
        return BlockLayout(
            num_workers=partition.num_workers,
            num_vertices=partition.num_vertices,
            block_owner=tuple(owner),
            block_ranges=tuple(blocks),
        )


def _segment_sums(values: Any, starts: Any) -> Any:
    """Sums of *values* along axis 0 over the consecutive segments that
    begin at *starts* and together cover it; 0 for an empty segment.

    ``np.add.reduceat`` returns the element at a start that is not below
    the next one, and raises at a start equal to the length, so it runs
    over the non-empty segments only.
    """
    import numpy as np

    ends = np.append(starts[1:], len(values))
    nonempty = ends > starts
    sums = np.zeros((len(starts),) + values.shape[1:], dtype=np.int64)
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(
            values, starts[nonempty], axis=0, dtype=np.int64
        )
    return sums


#: ``(svertex, edges)``: one svertex's out-edges into one Vblock.
Fragment = Tuple[int, List[Edge]]
#: how a store keeps a fragment: ``(svertex, dst_0, weight_0, dst_1,
#: weight_1, ...)`` in one flat tuple, so building VE-BLOCK allocates one
#: object per fragment and none per edge.
FlatFragment = Tuple[Any, ...]


def unflatten(fragment: FlatFragment) -> Fragment:
    """The ``(svertex, [(dst, weight), ...])`` form of a stored fragment."""
    edges = iter(fragment)
    svertex = next(edges)
    return svertex, list(zip(edges, edges))


@dataclass
class VBlockMeta:
    """Per-Vblock metadata ``X_j`` (kept in memory on the owner).

    Of the paper's three ``X_j`` counters, only the total out-degree is
    kept (:attr:`scan_edges`), next to the block's fragment count;
    nothing in the simulator reads #svertices or the total in-degree.
    :meth:`VEBlockStore.metadata_memory_bytes` still charges all 16
    counter bytes.
    """

    block_id: int
    #: edges and fragments of all this block's Eblocks — what b-pull
    #: reads when the block responds to every request.
    scan_edges: int = 0
    scan_fragments: int = 0
    #: responding indicator, refreshed every superstep.
    res: bool = False


class VEBlockStore:
    """Per-worker VE-BLOCK storage with I/O accounting.

    Parameters
    ----------
    graph, partition, worker:
        The worker's slice of the graph.
    layout:
        Global :class:`BlockLayout` (shared by all workers).
    disk:
        The worker's simulated disk.
    sizes:
        Record byte sizes.
    fragment_clustering:
        When False, every edge becomes its own fragment — the ablation
        that shows why clustering matters (Theorem 1 makes fragment count,
        not edge count, the I/O driver).
    as_arrays:
        Count with NumPy and keep the worker's CSR rows as arrays
        (:attr:`e_sv` and friends), for the vectorized executor; the
        fragment accessors then raise ``RuntimeError``.
    """

    def __init__(
        self,
        graph: Graph,
        partition: Partition,
        worker: int,
        layout: BlockLayout,
        disk: SimulatedDisk,
        sizes: RecordSizes,
        fragment_clustering: bool = True,
        as_arrays: bool = False,
    ) -> None:
        self._graph = graph
        self._layout = layout
        self._disk = disk
        self._sizes = sizes
        self._local_blocks = layout.blocks_of(worker)
        self._clustering = fragment_clustering
        #: (src_block, dst_block) -> (fragments, #fragments, #edges) of
        #: every non-empty Eblock; None until a fragment access builds it.
        self._eblocks: Optional[Dict[
            Tuple[int, int], Tuple[List[FlatFragment], int, int]
        ]] = None
        self.meta: Dict[int, VBlockMeta] = {}
        #: the worker's vertices, which its blocks chop in order.
        self._local = partition.vertices_of(worker)
        #: the number of fragments (distinct destination blocks) of each
        #: local vertex, indexed by its position in :attr:`_local`.
        self._frags_of: List[int] = []
        self._num_fragments = 0
        self._num_edges = 0
        #: every local ``X_j``: 16 counter bytes + one bit per block.
        self._metadata_bytes = len(self._local_blocks) * (
            16 + (layout.num_blocks + 7) // 8
        )
        #: with ``as_arrays``, the worker's CSR rows as its edge stream:
        #: per edge its svertex, global destination and weight (views of
        #: the CSR arrays for a range partition), and each local vertex's
        #: row offsets into them; None otherwise.
        self.e_sv = self.e_dst = self.e_w = self.e_indptr = None
        #: each local block's vertices as ``(flag_span, count_span)``, in
        #: ``local_blocks`` order: a slice of the flag bytes (vertex ids)
        #: and a slice of :attr:`_frags_of` (positions in :attr:`_local`).
        self._block_spans: List[Tuple[slice, slice]] = []
        cursor = 0
        for block in self._local_blocks:
            members = layout.block_ranges[block]
            self._block_spans.append((
                slice(members.start, members.stop, members.step),
                slice(cursor, cursor + len(members)),
            ))
            cursor += len(members)
        if as_arrays:
            self._build_arrays(fragment_clustering)
        else:
            self._build_counts(fragment_clustering)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_counts(self, clustering: bool) -> None:
        """Count every table off the local CSR rows with the stdlib.

        A vertex's fragments are its distinct destination blocks (its
        out-degree without clustering); each block sums its vertices'
        fragments and out-degrees.
        """
        indptr = self._graph.indptr
        span = self._local
        starts = indptr[span.start:span.stop:span.step]
        ends = indptr[span.start + 1:span.stop + 1:span.step]
        degrees = list(map(sub, ends, starts))
        if clustering:
            block_of = self._layout.block_of_vertex.__getitem__
            indices = self._graph.indices
            self._frags_of = [
                len(set(map(block_of, indices[lo:hi])))
                for lo, hi in zip(starts, ends)
            ]
        else:
            self._frags_of = degrees
        self._fill_meta(
            (block, sum(self._frags_of[counts]), sum(degrees[counts]))
            for block, (_flags, counts) in zip(
                self._local_blocks, self._block_spans
            )
        )

    def _build(self) -> None:
        """One bucketing pass over the local CSR rows fills the fragment
        lists of every Eblock."""
        clustering = self._clustering
        block_of = self._layout.block_of_vertex
        graph = self._graph
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        self._eblocks = {}
        for src_block, (_flags, count_span) in zip(
            self._local_blocks, self._block_spans
        ):
            per_dst: Dict[int, List[FlatFragment]] = {}
            edges_to: Dict[int, int] = {}
            for vid in self._local[count_span]:
                lo = indptr[vid]
                hi = indptr[vid + 1]
                buckets: Dict[int, List[Any]] = {}
                for dst, weight in zip(indices[lo:hi], weights[lo:hi]):
                    dst_block = block_of[dst]
                    bucket = buckets.get(dst_block)
                    if bucket is None:
                        buckets[dst_block] = [vid, dst, weight]
                    else:
                        bucket.append(dst)
                        bucket.append(weight)
                for dst_block, bucket in buckets.items():
                    frags = per_dst.get(dst_block)
                    if frags is None:
                        frags = per_dst[dst_block] = []
                        edges_to[dst_block] = 0
                    if clustering:
                        frags.append(tuple(bucket))
                    else:
                        frags.extend(
                            (vid, bucket[i], bucket[i + 1])
                            for i in range(1, len(bucket), 2)
                        )
                    edges_to[dst_block] += len(bucket) >> 1
            for dst_block, frags in per_dst.items():
                self._eblocks[(src_block, dst_block)] = (
                    frags, len(frags), edges_to[dst_block]
                )

    def _fill_meta(self, block_rows) -> None:
        """Fill ``X_j`` and the totals from one ``(block, #fragments,
        #edges)`` row per local block."""
        for block, nfrag, nedge in block_rows:
            self.meta[block] = VBlockMeta(block, nedge, nfrag)
            self._num_fragments += nfrag
            self._num_edges += nedge

    def _build_arrays(self, clustering: bool) -> None:
        """Count every table off the worker's CSR rows, left in order.

        A vertex's fragments are its distinct destination blocks (its
        out-degree without clustering).  One sort of a ``(row,
        destination block)`` key per edge keeps each row's edges in
        place; marking where a key differs from the one before it and
        summing the marks over each row gives the counts.  One more sum
        over the blocks' count spans gives every block's fragment and
        edge totals.  Every pass is over whole arrays, with no Python
        per vertex or per block.
        """
        import numpy as np

        span = self._local
        self.e_indptr, self.e_dst, self.e_w = self._graph.csr().rows(span)
        degrees = np.diff(self.e_indptr)
        self.e_sv = np.repeat(
            np.arange(span.start, span.stop, span.step, dtype=np.int64),
            degrees,
        )
        frags_of = degrees
        if clustering:
            num_blocks = self._layout.num_blocks
            # 32-bit keys when every value fits: their sort takes half
            # the time of a 64-bit one
            top = len(span) * num_blocks
            key = np.repeat(
                np.arange(
                    0, top, num_blocks,
                    dtype=np.int32 if top <= 2**31 else np.int64,
                ),
                degrees,
            )
            key += self._layout.block_of_array[self.e_dst]
            key.sort()
            is_fragment = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=is_fragment[1:])
            frags_of = _segment_sums(is_fragment, self.e_indptr[:-1])
        self._frags_of = frags_of.tolist()
        starts = [counts.start for _flags, counts in self._block_spans]
        sums = _segment_sums(
            np.stack([frags_of, degrees], axis=1), np.array(starts)
        )
        self._fill_meta(
            (block, nfrag, nedge)
            for block, (nfrag, nedge) in zip(
                self._local_blocks, sums.tolist()
            )
        )

    def _fragments(
        self,
    ) -> Dict[Tuple[int, int], Tuple[List[FlatFragment], int, int]]:
        """The Eblock table, built on first use."""
        if self.e_sv is not None:
            raise RuntimeError("this VE-BLOCK store was built as arrays "
                               "for the vectorized executor: no fragments")
        if self._eblocks is None:
            self._build()
        return self._eblocks

    # ------------------------------------------------------------------
    # sizes and loading
    # ------------------------------------------------------------------
    @property
    def local_blocks(self) -> List[int]:
        return self._local_blocks

    @property
    def layout(self) -> BlockLayout:
        return self._layout

    @property
    def num_local_edges(self) -> int:
        """Out-edges of this worker's vertices."""
        return self._num_edges

    def total_fragments(self) -> int:
        """``f`` — fragments covering all local outgoing edges."""
        return self._num_fragments

    def fragments_of_vertex(self, vid: int) -> int:
        """Fragments of *vid*'s out-edges; 0 for another worker's vertex."""
        local = self._local
        return self._frags_of[local.index(vid)] if vid in local else 0

    def eblock(
        self, src_block: int, dst_block: int
    ) -> Optional[Tuple[List[Fragment], int, int]]:
        """``(fragments, #fragments, #edges)`` of Eblock ``g_ij``, or
        None when it is empty."""
        found = self._fragments().get((src_block, dst_block))
        if found is None:
            return None
        fragments, num_fragments, num_edges = found
        return [unflatten(f) for f in fragments], num_fragments, num_edges

    def load_write_bytes(self) -> int:
        """Bytes written to build VE-BLOCK (Vblocks + Eblocks + aux)."""
        sizes = self._sizes
        return (
            sizes.vertices(len(self._local))
            + sizes.fragments(self._num_fragments)
            + sizes.edges(self._num_edges)
        )

    def charge_load(self) -> None:
        self._disk.write(self.load_write_bytes(), sequential=True)

    def metadata_memory_bytes(self) -> int:
        """Footprint of every local ``X_j``, fixed once built."""
        return self._metadata_bytes

    # ------------------------------------------------------------------
    # superstep accesses
    # ------------------------------------------------------------------
    def refresh_res(self, responding: Sequence[bool]) -> None:
        """Recompute every local block's ``res`` indicator from flags.

        Only the fragment scans read ``res``, so this builds their
        Eblock table (or raises on an array store) as they do.
        """
        self._fragments()
        raw = getattr(responding, "data", responding)
        for meta, (flag_span, _counts) in zip(
            self.meta.values(), self._block_spans
        ):
            meta.res = 1 in raw[flag_span]

    def _scanned_eblocks(
        self, dst_block: int
    ) -> Iterator[Tuple[List[FlatFragment], int]]:
        """Eblocks a pull request for *dst_block* scans, in block order.

        Yields ``(fragments, bytes_on_disk)`` for every local Eblock
        ``g_ji`` whose metadata passes the ``res``/bitmap checks and
        adds its sizes to the scan statistics.  Blocks that fail the
        checks are skipped for free — that is the whole point of
        ``X_j``.
        """
        eblocks = self._fragments()
        sizes = self._sizes
        for src_block in self._local_blocks:
            if not self.meta[src_block].res:
                continue
            found = eblocks.get((src_block, dst_block))
            if found is None:  # a 0 bit in the bitmap
                continue
            fragments, num_fragments, num_edges = found
            aux_bytes = sizes.fragments(num_fragments)
            edge_bytes = sizes.edges(num_edges)
            self._stats_edges += num_edges
            self._stats_aux += aux_bytes
            self._stats_edge_bytes += edge_bytes
            yield fragments, aux_bytes + edge_bytes

    def scan_for_request(
        self, dst_block: int, responding: Sequence[bool]
    ) -> Iterator[Fragment]:
        """Answer a pull request for *dst_block* (Algorithm 2).

        Yields ``(svertex, edges)`` for each responding fragment, charging

        * a sequential read of every scanned Eblock (aux + all edges), and
        * a random read of ``S_v`` per responding fragment (``IO(V_rr)``).
        """
        value_bytes = self._sizes.vertex_value
        raw = getattr(responding, "data", responding)
        for fragments, disk_bytes in self._scanned_eblocks(dst_block):
            self._disk.read(disk_bytes, sequential=True)
            for fragment in fragments:
                if raw[fragment[0]]:
                    self._disk.read(value_bytes, sequential=False)
                    self._stats_vrr += value_bytes
                    yield unflatten(fragment)

    def collect_for_request(
        self, dst_block: int, responding: Sequence[bool]
    ) -> List[FlatFragment]:
        """Bulk :meth:`scan_for_request`: the same charges, as two bulk
        reads, and a list of the stored :data:`FlatFragment` tuples
        instead of a generator.

        No executor calls it: the batched tier answers each responder in
        one pass over its CSR rows and charges
        :meth:`estimate_bpull_scan`.  It stays because the benchmark
        harness wraps it by name (``perfbench/harness.py``), so its
        ``veblock.collect_*`` metrics read 0 on batched workloads.
        """
        raw = getattr(responding, "data", responding)
        out: List[FlatFragment] = []
        out_append = out.append
        seq_bytes = 0
        for fragments, disk_bytes in self._scanned_eblocks(dst_block):
            seq_bytes += disk_bytes
            for fragment in fragments:
                if raw[fragment[0]]:
                    out_append(fragment)
        if seq_bytes:
            self._disk.charge(seq_read=seq_bytes)
        if out:
            vrr_bytes = len(out) * self._sizes.vertex_value
            self._disk.charge(random_read=vrr_bytes)
            self._stats_vrr += vrr_bytes
        return out

    def begin_superstep_stats(self) -> None:
        """Reset the per-superstep scan statistics."""
        self._stats_edges = 0
        self._stats_aux = 0
        self._stats_edge_bytes = 0
        self._stats_vrr = 0

    # scan statistics, populated by scan_for_request
    _stats_edges: int = 0
    _stats_aux: int = 0
    _stats_edge_bytes: int = 0
    _stats_vrr: int = 0

    @property
    def scan_stats(self) -> Tuple[int, int, int, int]:
        """(edges scanned, aux bytes, edge bytes, vrr bytes) this superstep."""
        return (
            self._stats_edges,
            self._stats_aux,
            self._stats_edge_bytes,
            self._stats_vrr,
        )

    def charge_block_update(self, block_id: int) -> int:
        """Charge read+write of a whole Vblock's records (``IO(V_t)``).

        Returns the vertex-record bytes involved (read + written).
        """
        nbytes = self._sizes.vertices(len(self._layout.block_ranges[block_id]))
        self._disk.read(nbytes, sequential=True)
        self._disk.write(nbytes, sequential=True)
        return 2 * nbytes

    # ------------------------------------------------------------------
    # estimation (used by hybrid while running push; Section 5.3)
    # ------------------------------------------------------------------
    def estimate_bpull_scan(
        self, responding: Sequence[bool]
    ) -> Tuple[int, int, int, int]:
        """What b-pull scans given these responding flags, as
        :attr:`scan_stats` ``(edges, aux_bytes, edge_bytes, vrr_bytes)``.

        All Eblocks of blocks containing a responding svertex are
        scanned in full, and each responding fragment costs one random
        ``S_v`` read.  Each Vblock is tested with one slice of the flag
        bytes.  Hybrid reads it while pushing; the vectorized tier's
        scan plans read it as their scan statistics.
        """
        raw = getattr(responding, "data", responding)
        frags_of = self._frags_of
        meta = self.meta
        edges = fragments = responding_fragments = 0
        for src_block, (flag_span, count_span) in zip(
            self._local_blocks, self._block_spans
        ):
            flags = raw[flag_span]
            if 1 in flags:
                block_meta = meta[src_block]
                edges += block_meta.scan_edges
                fragments += block_meta.scan_fragments
                responding_fragments += sum(
                    compress(frags_of[count_span], flags)
                )
        sizes = self._sizes
        return (
            edges, sizes.fragments(fragments), sizes.edges(edges),
            sizes.vertex_value * responding_fragments,
        )
