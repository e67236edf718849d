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
requests this superstep.

Answering a pull request for block ``i`` (Algorithm 2) scans every local
Eblock ``g_ji`` whose metadata passes both checks: the *whole* Eblock is
read sequentially (fragment aux + edges — Appendix C's "useless edges"
effect at coarse granularity), and the svertex *value* of each responding
fragment is read randomly from the Vblock (``IO(V_rr)`` in Eq. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.graph import Edge, Graph, Partition
from repro.storage.disk import SimulatedDisk
from repro.storage.records import RecordSizes

__all__ = ["BlockLayout", "Fragment", "VBlockMeta", "VEBlockStore"]


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


@dataclass
class VBlockMeta:
    """Per-Vblock metadata ``X_j`` (kept in memory on the owner).

    The paper's ``X_j`` also holds #svertices, total in-degree and total
    out-degree.  Nothing in the simulator reads them, so they are not
    stored; :meth:`memory_bytes` still charges their 16 counter bytes.
    """

    block_id: int
    #: destination block ids with at least one edge from this block.
    bitmap: Set[int] = field(default_factory=set)
    #: edge bytes and fragment-aux bytes of all this block's Eblocks —
    #: what b-pull reads when the block responds to every request.
    scan_edge_bytes: int = 0
    scan_aux_bytes: int = 0
    #: responding indicator, refreshed every superstep.
    res: bool = False

    def memory_bytes(self, num_blocks: int) -> int:
        """Metadata footprint: counters + one bit per block."""
        return 16 + (num_blocks + 7) // 8


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
            Tuple[int, int], Tuple[List[Fragment], int, int]
        ] = {}
        self.meta: Dict[int, VBlockMeta] = {}
        #: per-vertex number of fragments (distinct destination blocks).
        self._fragments_of_vertex: Dict[int, int] = {}
        self._num_fragments = 0
        self._num_edges = 0
        self._build(fragment_clustering)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, clustering: bool) -> None:
        """One bucketing pass over the local out-edges fills every table."""
        layout = self._layout
        block_of = layout.block_of_vertex
        out_edges = self._graph.out_edges
        fragments_of_vertex = self._fragments_of_vertex
        sizes = self._sizes
        for src_block in self._local_blocks:
            per_dst: Dict[int, List[Fragment]] = {}
            edges_to: Dict[int, int] = {}
            for vid in layout.block_vertices[src_block]:
                edges = out_edges(vid)
                buckets: Dict[int, List[Edge]] = {}
                for edge in edges:
                    dst_block = block_of[edge[0]]
                    if dst_block in buckets:
                        buckets[dst_block].append(edge)
                    else:
                        buckets[dst_block] = [edge]
                fragments_of_vertex[vid] = (
                    len(buckets) if clustering else len(edges)
                )
                for dst_block, bucket in buckets.items():
                    frags = per_dst.get(dst_block)
                    if frags is None:
                        frags = per_dst[dst_block] = []
                        edges_to[dst_block] = 0
                    if clustering:
                        frags.append((vid, bucket))
                    else:
                        frags.extend((vid, [edge]) for edge in bucket)
                    edges_to[dst_block] += len(bucket)
            block_fragments = 0
            block_edges = 0
            for dst_block, frags in per_dst.items():
                num_edges = edges_to[dst_block]
                self._eblocks[(src_block, dst_block)] = (
                    frags, len(frags), num_edges
                )
                block_fragments += len(frags)
                block_edges += num_edges
            self.meta[src_block] = VBlockMeta(
                block_id=src_block,
                bitmap=set(per_dst),
                scan_edge_bytes=sizes.edges(block_edges),
                scan_aux_bytes=sizes.fragments(block_fragments),
            )
            self._num_fragments += block_fragments
            self._num_edges += block_edges

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
        return self._fragments_of_vertex.get(vid, 0)

    def eblock(
        self, src_block: int, dst_block: int
    ) -> Optional[Tuple[List[Fragment], int, int]]:
        """``(fragments, #fragments, #edges)`` of Eblock ``g_ij``, or
        None when it is empty."""
        return self._eblocks.get((src_block, dst_block))

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
        num_blocks = self._layout.num_blocks
        return sum(m.memory_bytes(num_blocks) for m in self.meta.values())

    # ------------------------------------------------------------------
    # superstep accesses
    # ------------------------------------------------------------------
    def refresh_res(self, responding: Sequence[bool]) -> None:
        """Recompute every local block's ``res`` indicator from flags."""
        # FlagBitset exposes its raw bytearray and an O(1) count; use the
        # count for the two degenerate-but-common cases (nothing or
        # everything responding) and fall back to the per-block scan.
        raw = getattr(responding, "data", responding)
        count = getattr(responding, "true_count", None)
        if count == 0:
            for meta in self.meta.values():
                meta.res = False
            return
        if count == len(raw):
            for meta in self.meta.values():
                meta.res = True
            return
        for blk, meta in self.meta.items():
            meta.res = any(
                map(raw.__getitem__, self._layout.block_vertices[blk])
            )

    def _scanned_eblocks(
        self, dst_block: int
    ) -> Iterator[Tuple[List[Fragment], int]]:
        """Eblocks a pull request for *dst_block* scans, in block order.

        Yields ``(fragments, bytes_on_disk)`` for every local Eblock
        ``g_ji`` whose metadata passes the ``res``/bitmap checks and
        adds its sizes to the scan statistics.  Blocks that fail the
        checks are skipped for free — that is the whole point of
        ``X_j``.
        """
        sizes = self._sizes
        for src_block in self._local_blocks:
            meta = self.meta[src_block]
            if not meta.res or dst_block not in meta.bitmap:
                continue
            fragments, num_fragments, num_edges = self._eblocks[
                (src_block, dst_block)
            ]
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
            for svertex, edges in fragments:
                if raw[svertex]:
                    self._disk.read(value_bytes, sequential=False)
                    self._stats_vrr += value_bytes
                    yield svertex, edges

    def collect_for_request(
        self, dst_block: int, responding: Sequence[bool]
    ) -> List[Fragment]:
        """Batched :meth:`scan_for_request` for the optimized executor.

        Charges and yields exactly what :meth:`scan_for_request` does —
        the same Eblocks sequentially read in the same order, the same
        ``S_v`` random-read bytes per responding fragment — but
        aggregates the reads into two bulk charges and returns a list
        instead of resuming a generator per fragment.  Byte counters
        come out identical; only the Python overhead differs.
        """
        raw = getattr(responding, "data", responding)
        out: List[Fragment] = []
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
        each responding fragment costs one random ``S_v`` read.
        """
        sizes = self._sizes
        raw = getattr(responding, "data", responding)
        fragments_of = self._fragments_of_vertex
        edge_bytes = 0
        aux_bytes = 0
        vrr_bytes = 0
        for src_block in self._local_blocks:
            block_vertices = self._layout.block_vertices[src_block]
            if not any(map(raw.__getitem__, block_vertices)):
                continue
            meta = self.meta[src_block]
            edge_bytes += meta.scan_edge_bytes
            aux_bytes += meta.scan_aux_bytes
            vrr_bytes += sizes.vertex_value * sum(
                fragments_of[v] for v in block_vertices if raw[v]
            )
        return edge_bytes, aux_bytes, vrr_bytes
