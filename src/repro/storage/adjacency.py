"""Adjacency-list graph store — the layout used by the push family.

Giraph keeps each partition as an adjacency list: a sequence of
``(id, val, |Vo|, Vo)`` records, physically stored in *blocks*.  During
a superstep the worker reads the out-edge lists of sending vertices at
block granularity: touching one vertex in a block pulls in the whole
block's edges (the paper relies on this in Section 6.2 — it is why
``C_io(push)`` is insensitive to active-vertex fluctuations and predicts
so well).  The charged bytes are ``IO(E_t)`` in Eq. 7; updated vertex
values are charged as sequential writes.

The store holds no data of its own — vertex values live in the worker and
edges in the shared :class:`~repro.core.graph.Graph`; the store's job is
byte accounting against the worker's :class:`SimulatedDisk`.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.graph import Graph
from repro.storage.disk import SimulatedDisk
from repro.storage.records import RecordSizes

__all__ = ["AdjacencyStore", "DEFAULT_ADJ_BLOCK_VERTICES"]

#: vertices per adjacency block (Giraph-style physical storage rows).
DEFAULT_ADJ_BLOCK_VERTICES = 64


class AdjacencyStore:
    """Per-worker adjacency-list storage with block-granular accounting."""

    def __init__(
        self,
        graph: Graph,
        vertices: range,
        disk: SimulatedDisk,
        sizes: RecordSizes,
        block_vertices: int = DEFAULT_ADJ_BLOCK_VERTICES,
    ) -> None:
        self._graph = graph
        # a range: degree sums are O(1) and each block is a range slice
        self._vertices = vertices
        self._disk = disk
        self._sizes = sizes
        bv = max(1, block_vertices)
        local = self._vertices
        #: a local vertex's block is ``(vid - first) // stride``, the id
        #: distance between the first vertices of consecutive blocks
        self._first = local.start
        self._stride = bv * local.step
        blocks = [local[lo : lo + bv] for lo in range(0, len(local), bv)]
        #: block index -> total edge bytes
        self._block_edge_bytes: List[int] = [
            sizes.edges(graph.degree_sum(block)) for block in blocks
        ]
        #: block index -> its vertices as a slice of the flag bytes
        self._block_spans: List[slice] = [
            slice(block.start, block.stop, block.step) for block in blocks
        ]
        self._num_edges = graph.degree_sum(local)
        self._touched: Set[int] = set()

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_write_bytes(self) -> int:
        """Bytes written to build this store (Fig. 16's ``adj`` bar)."""
        return self._sizes.vertices(len(self._vertices)) + self._sizes.edges(
            self._num_edges
        )

    def charge_load(self) -> None:
        """Charge the sequential write of the freshly built store."""
        self._disk.write(self.load_write_bytes(), sequential=True)

    # ------------------------------------------------------------------
    # superstep accesses
    # ------------------------------------------------------------------
    def read_vertex(self, vid: int) -> None:
        """Charge reading one vertex record (part of ``IO(V_t)``)."""
        self._disk.read(self._sizes.vertex_record, sequential=True)

    def write_vertex(self, vid: int) -> None:
        """Charge writing one updated vertex record."""
        self._disk.write(self._sizes.vertex_record, sequential=True)

    def begin_superstep(self) -> None:
        """Forget which adjacency blocks this superstep has read."""
        self._touched.clear()

    def charge_out_edges(self, vid: int) -> int:
        """Charge reading local vertex *vid*'s out-edges; return the bytes
        newly charged.

        The first touch of an adjacency block in a superstep reads the
        whole block sequentially; later touches are free (the block is
        already streaming through memory).  The edges themselves are the
        graph's CSR row ``indptr[vid]:indptr[vid + 1]``.  *vid* must be
        one of the store's vertices: its block is found by arithmetic,
        as a ``range`` membership test would cost more than the rest of
        the call.
        """
        block = (vid - self._first) // self._stride
        if block in self._touched:
            return 0
        self._touched.add(block)
        charged = self._block_edge_bytes[block]
        self._disk.read(charged, sequential=True)
        return charged

    def estimate_edge_bytes(self, responding) -> int:
        """Bytes one push superstep would read given responding flags:
        every block holding a responding vertex, each found by one slice
        of the flag bytes."""
        raw = getattr(responding, "data", responding)
        return sum(
            nbytes
            for span, nbytes in zip(self._block_spans, self._block_edge_bytes)
            if 1 in raw[span]
        )

    @property
    def num_local_edges(self) -> int:
        return self._num_edges
