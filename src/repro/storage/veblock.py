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

A store has one set of metadata and size tables and two builders chosen
by executor tier: fragment lists for the scalar tiers, and for the
vectorized tier one edge stream sorted by ``(dst_block, src_block)`` as
flat NumPy arrays, with no fragment list.  Both builders sum each local
Vblock's fragments and edges (a bucketing loop, or ``bincount`` over the
Eblock rows) and fill ``X_j`` once per block from those sums.  Each
local Vblock is a slice of its worker's vertex range, so a store keeps
it as two slices: one of the flag bytes, one of the per-vertex fragment
counts (a list over the worker's own vertices, which the array builder
takes from a ``bincount``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
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
    #: global block id -> owning worker.
    block_owner: Tuple[int, ...]
    #: global block id -> tuple of vertex ids in the block.
    block_vertices: Tuple[Tuple[int, ...], ...]
    #: vertex id -> global block id.
    block_of_vertex: Tuple[int, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.block_owner)

    def blocks_of(self, worker: int) -> List[int]:
        return [
            b for b in range(self.num_blocks) if self.block_owner[b] == worker
        ]

    @cached_property
    def block_of_array(self) -> Any:
        """:attr:`block_of_vertex` as a NumPy array, built once per
        layout."""
        import numpy as np

        return np.asarray(self.block_of_vertex, dtype=np.int64)

    @staticmethod
    def build(
        partition: Partition, blocks_per_worker: Sequence[int]
    ) -> "BlockLayout":
        """Chop each worker's vertex range into its share of Vblocks."""
        if len(blocks_per_worker) != partition.num_workers:
            raise ValueError("need one block count per worker")
        owner: List[int] = []
        blocks: List[Tuple[int, ...]] = []
        block_of = [0] * partition.num_vertices
        for worker in range(partition.num_workers):
            local = list(partition.vertices_of(worker))
            count = max(1, min(blocks_per_worker[worker], max(1, len(local))))
            base, extra = divmod(len(local), count)
            cursor = 0
            for k in range(count):
                size = base + (1 if k < extra else 0)
                chunk = tuple(local[cursor : cursor + size])
                cursor += size
                block_id = len(blocks)
                blocks.append(chunk)
                owner.append(worker)
                for vid in chunk:
                    block_of[vid] = block_id
        return BlockLayout(
            num_workers=partition.num_workers,
            block_owner=tuple(owner),
            block_vertices=tuple(blocks),
            block_of_vertex=tuple(block_of),
        )


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

    The paper's ``X_j`` also holds #svertices, total in-degree and total
    out-degree.  Nothing in the simulator reads them, so they are not
    stored; :meth:`VEBlockStore.metadata_memory_bytes` still charges
    their 16 counter bytes.
    """

    block_id: int
    #: edge bytes and fragment-aux bytes of all this block's Eblocks —
    #: what b-pull reads when the block responds to every request.
    scan_edge_bytes: int = 0
    scan_aux_bytes: int = 0
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
        Build the sorted edge stream (:attr:`e_sv` and friends) for the
        vectorized executor instead of fragment lists; the fragment
        accessors then raise ``RuntimeError``.
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
        self._worker = worker
        self._layout = layout
        self._disk = disk
        self._sizes = sizes
        self._local_blocks = layout.blocks_of(worker)
        #: (src_block, dst_block) -> (fragments, #fragments, #edges) of
        #: every non-empty Eblock; the counts never change after build.
        self._eblocks: Dict[
            Tuple[int, int], Tuple[List[FlatFragment], int, int]
        ] = {}
        self.meta: Dict[int, VBlockMeta] = {}
        #: the worker's vertices, which its blocks chop in order.
        self._local = local = partition.vertices_of(worker)
        #: the number of fragments (distinct destination blocks) of each
        #: local vertex, indexed by its position in :attr:`_local`.
        self._frags_of: List[int] = []
        self._num_fragments = 0
        self._num_edges = 0
        #: every local ``X_j``: 16 counter bytes + one bit per block.
        self._metadata_bytes = len(self._local_blocks) * (
            16 + (layout.num_blocks + 7) // 8
        )
        #: with ``as_arrays``, the local edge stream sorted by
        #: ``(dst_block, src_block)``: Eblocks in ``local_blocks`` order
        #: inside each destination block's run, fragments in svertex
        #: order, edges in adjacency order.  ``e_*`` have one entry per
        #: edge (svertex, global destination, weight), ``f_sv`` one per
        #: fragment, ``p_*`` one per Eblock; None otherwise.
        self.e_sv = self.e_dst = self.e_w = self.f_sv = None
        self.p_src_block = self.p_dst_block = None
        self.p_nedge = self.p_nfrag = None
        #: each local block's vertices as ``(flag_span, count_span)``, in
        #: ``local_blocks`` order: a slice of the flag bytes (vertex ids)
        #: and a slice of :attr:`_frags_of` (positions in :attr:`_local`).
        self._block_spans: List[Tuple[slice, slice]] = []
        cursor = 0
        for block in self._local_blocks:
            size = len(layout.block_vertices[block])
            members = local[cursor : cursor + size]
            self._block_spans.append((
                slice(members.start, members.stop, members.step),
                slice(cursor, cursor + size),
            ))
            cursor += size
        if as_arrays:
            self._build_arrays(fragment_clustering)
        else:
            self._build(fragment_clustering)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, clustering: bool) -> None:
        """One bucketing pass over the local CSR rows fills every table."""
        block_of = self._layout.block_of_vertex
        graph = self._graph
        indptr, indices, weights = graph.indptr, graph.indices, graph.weights
        frags_of = self._frags_of
        block_rows = []
        for src_block, (_flags, count_span) in zip(
            self._local_blocks, self._block_spans
        ):
            per_dst: Dict[int, List[FlatFragment]] = {}
            edges_to: Dict[int, int] = {}
            block_frags = 0
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
                nfrag = len(buckets) if clustering else hi - lo
                frags_of.append(nfrag)
                block_frags += nfrag
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
            block_rows.append(
                (src_block, block_frags, sum(edges_to.values()))
            )
        self._fill_meta(block_rows)

    def _fill_meta(self, block_rows) -> None:
        """Fill ``X_j`` and the totals from one ``(block, #fragments,
        #edges)`` row per local block, summed over its Eblocks."""
        sizes = self._sizes
        for block, nfrag, nedge in block_rows:
            self.meta[block] = VBlockMeta(
                block_id=block,
                scan_edge_bytes=sizes.edges(nedge),
                scan_aux_bytes=sizes.fragments(nfrag),
            )
            self._num_fragments += nfrag
            self._num_edges += nedge

    def _build_arrays(self, clustering: bool) -> None:
        """One stable sort of the local edge stream fills every table.

        The stream is built source-block-major (``local_blocks`` order,
        svertex-major, adjacency-minor), so stably sorting it by
        destination block alone orders it by ``(dst_block, src_block)``
        and keeps that order inside each Eblock.  A 16-bit key lets
        NumPy's stable sort run as a radix sort.  Run-length encoding
        gives the Eblock and fragment boundaries.
        """
        import numpy as np

        block_of = self._layout.block_of_array
        num_blocks = self._layout.num_blocks
        csr = self._graph.csr()
        blocks = self._local_blocks
        span = self._local
        local = np.arange(span.start, span.stop, span.step, dtype=np.int64)
        if len(span) and span.step == 1:
            _indptr, e_dst, e_w = csr.row_span(span.start, span.stop)
        else:
            _indptr, e_dst, e_w = csr.gather_rows(local)
        e_sv = np.repeat(local, csr.out_degrees[local])
        dst_block = block_of[e_dst]
        if num_blocks < 2 ** 15:
            dst_block = dst_block.astype(np.int16)
        order = np.argsort(dst_block, kind="stable")
        dst_block = dst_block[order]
        self.e_sv = e_sv[order]
        self.e_dst = e_dst[order]
        self.e_w = e_w[order]
        src_block = block_of[self.e_sv]
        is_eblock = (
            (np.diff(dst_block, prepend=-1) != 0)
            | (np.diff(src_block, prepend=-1) != 0)
        )
        # a fragment is one svertex's run inside an Eblock; without
        # clustering (the ablation) every edge is its own fragment
        is_fragment = (
            is_eblock | (np.diff(self.e_sv, prepend=-1) != 0)
            | (not clustering)
        )
        eb_start = np.flatnonzero(is_eblock)
        self.f_sv = self.e_sv[is_fragment]
        self.p_nedge = np.diff(np.append(eb_start, len(self.e_sv)))
        self.p_nfrag = np.diff(np.append(
            np.cumsum(is_fragment)[eb_start] - 1, len(self.f_sv)
        ))
        self.p_dst_block = dst_block[eb_start].astype(np.int64)
        self.p_src_block = src_block[eb_start]
        # each local block's X_j sums the counts of its Eblocks
        nfrag, nedge = (
            np.bincount(self.p_src_block, weights=counts,
                        minlength=num_blocks)[blocks].astype(np.int64)
            .tolist()
            for counts in (self.p_nfrag, self.p_nedge)
        )
        self._fill_meta(zip(blocks, nfrag, nedge))
        self._frags_of = np.bincount(
            (self.f_sv - span.start) // span.step, minlength=len(span)
        ).tolist()

    def _require_fragments(self) -> None:
        if self.e_sv is not None:
            raise RuntimeError("this VE-BLOCK store was built as arrays "
                               "for the vectorized executor: no fragments")

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
        self._require_fragments()
        found = self._eblocks.get((src_block, dst_block))
        if found is None:
            return None
        fragments, num_fragments, num_edges = found
        return [unflatten(f) for f in fragments], num_fragments, num_edges

    def load_write_bytes(self) -> int:
        """Bytes written to build VE-BLOCK (Vblocks + Eblocks + aux)."""
        sizes = self._sizes
        vertex_bytes = sum(
            sizes.vertices(len(self._layout.block_vertices[b]))
            for b in self._local_blocks
        )
        return (
            vertex_bytes
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
        """Recompute every local block's ``res`` indicator from flags."""
        self._require_fragments()
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
        self._require_fragments()
        sizes = self._sizes
        for src_block in self._local_blocks:
            if not self.meta[src_block].res:
                continue
            found = self._eblocks.get((src_block, dst_block))
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
        """Batched :meth:`scan_for_request` for the optimized executor.

        Charges and yields exactly what :meth:`scan_for_request` does —
        the same Eblocks sequentially read in the same order, the same
        ``S_v`` random-read bytes per responding fragment — but
        aggregates the reads into two bulk charges and returns a list of
        the stored :data:`FlatFragment` tuples instead of resuming a
        generator per fragment.  Byte counters come out identical; only
        the Python overhead differs.
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
        nbytes = self._sizes.vertices(len(self._layout.block_vertices[block_id]))
        self._disk.read(nbytes, sequential=True)
        self._disk.write(nbytes, sequential=True)
        return 2 * nbytes

    # ------------------------------------------------------------------
    # estimation (used by hybrid while running push; Section 5.3)
    # ------------------------------------------------------------------
    def estimate_bpull_scan(
        self, responding: Sequence[bool]
    ) -> Tuple[int, int, int]:
        """Bytes b-pull *would* scan given these responding flags.

        Returns ``(edge_bytes, aux_bytes, vrr_bytes)``: all Eblocks of
        blocks containing a responding svertex are scanned in full, and
        each responding fragment costs one random ``S_v`` read.  Each
        Vblock is tested with one slice of the flag bytes.
        """
        raw = getattr(responding, "data", responding)
        frags_of = self._frags_of
        meta = self.meta
        edge_bytes = 0
        aux_bytes = 0
        fragments = 0
        for src_block, (flag_span, count_span) in zip(
            self._local_blocks, self._block_spans
        ):
            flags = raw[flag_span]
            if 1 in flags:
                block_meta = meta[src_block]
                edge_bytes += block_meta.scan_edge_bytes
                aux_bytes += block_meta.scan_aux_bytes
                fragments += sum(compress(frags_of[count_span], flags))
        return edge_bytes, aux_bytes, self._sizes.vertex_value * fragments
