"""In-memory directed graph model (CSR) and cluster partitioning.

The engine is a *simulation* of a disk-resident distributed system: graph
data physically live in Python memory, but every access made by an
execution mode is charged against the owning worker's
:class:`~repro.storage.disk.SimulatedDisk` according to the on-disk layout
it would have touched (adjacency list or VE-BLOCK).

Vertices are dense integer ids ``0..n-1``.  Edges are directed
``(src, dst, weight)``; weights default to 1.0 and are used by SSSP.

A :class:`Graph` *is* its CSR (compressed sparse row) arrays: three flat
stdlib :class:`array.array` buffers (``indptr``, ``indices``,
``weights``), filled once by a :class:`GraphBuilder` whose finalize step
stably sorts the edges by source, so each row keeps insertion order.
The vectorized executor reads them through zero-copy NumPy views
(:meth:`Graph.csr`); the scalar executors read row slices.  Only
:meth:`Graph.csr` needs NumPy.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from operator import sub
from typing import Any, Iterable, Iterator, List, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less host
    np = None

__all__ = [
    "CSRView", "Graph", "GraphBuilder", "Partition",
    "range_partition", "hash_partition",
]

Edge = Tuple[int, float]


class CSRView:
    """NumPy views of a :class:`Graph`'s CSR arrays.

    Returned by :meth:`Graph.csr`: ``indptr``, ``indices`` and
    ``weights`` are read-only ``np.frombuffer`` views of the graph's
    stored buffers (no copy), and ``out_degrees`` is derived from
    ``indptr``.  Shared by every consumer; the vectorized executor slices
    it per worker and per Vblock.  Requires NumPy.

    Attributes
    ----------
    indptr:
        ``int64[n + 1]`` — row ``v``'s edges live at
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64[m]`` — destination vertex ids, in adjacency-list order.
    weights:
        ``float64[m]`` — edge weights, aligned with ``indices``.
    out_degrees:
        ``int64[n]`` — per-vertex out-degree (``indptr`` differences).
    """

    __slots__ = ("indptr", "indices", "weights", "out_degrees")

    def __init__(self, indptr, indices, weights, out_degrees) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.out_degrees = out_degrees

    def row_span(self, lo: int, hi: int) -> Tuple[Any, Any, Any]:
        """Zero-copy slice for the contiguous vertex range ``[lo, hi)``.

        Returns ``(indptr_local, indices, weights)`` where
        ``indptr_local`` is rebased to start at 0 — the natural shape for
        a range-partition worker slice or a Vblock slice.
        """
        start = self.indptr[lo]
        stop = self.indptr[hi]
        return (
            self.indptr[lo : hi + 1] - start,
            self.indices[start:stop],
            self.weights[start:stop],
        )

    def gather_rows(self, rows) -> Tuple[Any, Any, Any]:
        """Row-major gather for an arbitrary (e.g. strided) vertex set.

        Returns ``(indptr_local, indices, weights)`` over exactly the
        edges of *rows*, preserving adjacency order within each row —
        the shape :meth:`row_span` produces, for hash partitions.
        """
        counts = self.out_degrees[rows]
        indptr_local = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr_local[1:])
        total = int(indptr_local[-1])
        if total == 0:
            return (
                indptr_local,
                self.indices[:0],
                self.weights[:0],
            )
        starts = np.repeat(self.indptr[rows], counts)
        offsets = (
            np.arange(total, dtype=np.int64)
            - np.repeat(indptr_local[:-1], counts)
        )
        flat = starts + offsets
        return indptr_local, self.indices[flat], self.weights[flat]

    def rows(self, span: range) -> Tuple[Any, Any, Any]:
        """The rows of a worker's vertex range *span*: views
        (:meth:`row_span`) when it is contiguous, else one gather."""
        if len(span) and span.step == 1:
            return self.row_span(span.start, span.stop)
        return self.gather_rows(np.arange(span.start, span.stop, span.step))


def _view(buffer: array, dtype) -> Any:
    """Read-only NumPy view of an ``array.array`` (no copy)."""
    view = np.frombuffer(buffer, dtype=dtype)
    view.flags.writeable = False
    return view


class GraphBuilder:
    """Collects edges in insertion order and finalizes them into CSR once.

    Every graph is built here: the generators, the edge-list reader and
    ``Graph(n, edges)``.  :meth:`build` counting-sorts the edges by
    source, which is stable, so each row keeps the order its edges were
    added in.
    """

    __slots__ = ("num_vertices", "src", "dst", "weight")

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = num_vertices
        self.src = array("q")
        self.dst = array("q")
        self.weight = array("d")

    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.weight.append(weight)

    def build(self, name: str = "graph") -> "Graph":
        """The finished :class:`Graph`; raises ``ValueError`` on an edge
        whose endpoint is not a vertex id."""
        graph = Graph.__new__(Graph)
        graph._init(self.num_vertices, *self._finalize(), name)
        return graph

    def _finalize(self) -> Tuple[array, array, array]:
        """``(indptr, indices, weights)``: the edges counting-sorted by
        source, which is stable."""
        n = self.num_vertices
        src, dst, weight = self.src, self.dst, self.weight
        m = len(src)
        if m and (
            min(min(src), min(dst)) < 0 or max(max(src), max(dst)) >= n
        ):
            bad = next(
                (s, d) for s, d in zip(src, dst)
                if not (0 <= s < n and 0 <= d < n)
            )
            raise ValueError(f"edge {bad} out of range for {n} vertices")
        counts = [0] * (n + 1)
        for s in src:
            counts[s + 1] += 1
        for v in range(n):
            counts[v + 1] += counts[v]
        cursor = counts[:n]
        indices = array("q", bytes(8 * m))
        weights = array("d", bytes(8 * m))
        for s, d, w in zip(src, dst, weight):
            slot = cursor[s]
            indices[slot] = d
            weights[slot] = w
            cursor[s] = slot + 1
        return array("q", counts), indices, weights


class Graph:
    """A directed graph with dense integer vertex ids, stored as CSR.

    Parameters
    ----------
    num_vertices:
        Number of vertices; ids are ``0..num_vertices-1``.
    edges:
        Iterable of ``(src, dst)`` or ``(src, dst, weight)`` tuples.
    name:
        Optional label used in reports.

    Attributes
    ----------
    indptr, indices, weights:
        The CSR arrays (``array.array`` of ``"q"``, ``"q"``, ``"d"``):
        row ``v``'s out-edges are ``indices[indptr[v]:indptr[v + 1]]``
        with ``weights`` aligned.  Read-only by contract: copies of a
        graph share them, and :meth:`add_edge` replaces rather than
        mutates them.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Sequence] = (),
        name: str = "graph",
    ) -> None:
        builder = GraphBuilder(num_vertices)
        add = builder.add_edge
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge
                weight = 1.0
            else:
                src, dst, weight = edge
            add(int(src), int(dst), float(weight))
        self._init(num_vertices, *builder._finalize(), name)

    def _init(
        self, n: int, indptr: array, indices: array, weights: array,
        name: str,
    ) -> None:
        self.name = name
        self._n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        #: cached :class:`CSRView`, None until the first :meth:`csr`.
        self._csr: Any = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        """Append one edge to the end of *src*'s row.

        O(n + m): the arrays are rebuilt, never resized in place, so
        copies of this graph and live :meth:`csr` views keep the old
        edges.  Bulk construction goes through :class:`GraphBuilder`.
        """
        if not (0 <= src < self._n and 0 <= dst < self._n):
            raise ValueError(
                f"edge ({src}, {dst}) out of range for {self._n} vertices"
            )
        pos = self.indptr[src + 1]
        indices = self.indices[:pos]
        indices.append(dst)
        indices += self.indices[pos:]
        weights = self.weights[:pos]
        weights.append(weight)
        weights += self.weights[pos:]
        indptr = self.indptr[: src + 1]
        indptr.extend(end + 1 for end in self.indptr[src + 1 :])
        self.indptr, self.indices, self.weights = indptr, indices, weights
        self._csr = None  # any cached CSR view is stale now

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def out_edges(self, vid: int) -> List[Edge]:
        """Out-edges of *vid* as a new list of ``(dst, weight)`` pairs.

        A convenience: hot paths read the row of ``indices``/``weights``
        between ``indptr[vid]`` and ``indptr[vid + 1]`` instead.
        """
        lo = self.indptr[vid]
        hi = self.indptr[vid + 1]
        return list(zip(self.indices[lo:hi], self.weights[lo:hi]))

    def out_degree(self, vid: int) -> int:
        indptr = self.indptr
        return indptr[vid + 1] - indptr[vid]

    def out_degrees(self) -> List[int]:
        """Out-degree of every vertex: ``indptr`` differences, one C-level
        pass; its ``__getitem__`` is the cheapest per-vertex lookup."""
        return list(map(sub, self.indptr[1:], self.indptr))

    def degree_sum(self, vertices: Sequence[int]) -> int:
        """Total out-degree of *vertices* from ``indptr`` differences,
        O(1) for a contiguous ``range`` (a range-partition slice)."""
        indptr = self.indptr
        if isinstance(vertices, range) and vertices.step == 1:
            if not vertices:
                return 0
            return indptr[vertices.stop] - indptr[vertices.start]
        return sum([indptr[v + 1] - indptr[v] for v in vertices])

    def vertices(self) -> range:
        return range(self._n)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate all edges as ``(src, dst, weight)``, row by row."""
        degrees = self.out_degrees()
        sources = chain.from_iterable(map(repeat, range(self._n), degrees))
        return zip(sources, self.indices, self.weights)

    def in_degrees(self) -> List[int]:
        """In-degree of every vertex (one pass over ``indices``)."""
        degs = [0] * self._n
        for dst in self.indices:
            degs[dst] += 1
        return degs

    def reverse_adjacency(self) -> List[List[Edge]]:
        """In-edges of every vertex as ``(src, weight)`` pairs.

        Needed by the GraphLab-style pull baseline, whose gather phase
        reads a vertex's in-neighbors.
        """
        rev: List[List[Edge]] = [[] for _ in range(self._n)]
        for src, dst, weight in self.edges():
            rev[dst].append((src, weight))
        return rev

    def csr(self) -> CSRView:
        """The cached :class:`CSRView` of this graph (requires NumPy).

        Zero-copy: read-only ``np.frombuffer`` views of the stored
        arrays, made on first call and dropped by :meth:`add_edge`.
        Raises ``RuntimeError`` when NumPy is unavailable — callers that
        can fall back (the vectorized executor) check availability
        before asking.
        """
        if self._csr is None:
            if np is None:  # pragma: no cover - numpy-less host
                raise RuntimeError(
                    "Graph.csr() requires NumPy, which is not installed"
                )
            indptr = _view(self.indptr, np.int64)
            self._csr = CSRView(
                indptr,
                _view(self.indices, np.int64),
                _view(self.weights, np.float64),
                np.diff(indptr),
            )
        return self._csr

    @property
    def average_degree(self) -> float:
        return self.num_edges / self._n if self._n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Graph(name={self.name!r}, |V|={self._n}, |E|={self.num_edges})"
        )


@dataclass(frozen=True)
class Partition:
    """Assignment of vertices to ``num_workers`` computational nodes.

    ``starts`` is used only by range partitions; hash partitions keep it
    empty and route by modulo.  ``owner(vid)`` must be cheap: it is called
    once per message.
    """

    num_workers: int
    kind: str  # "range" | "hash"
    starts: Tuple[int, ...] = ()
    num_vertices: int = 0

    def owner(self, vid: int) -> int:
        if self.kind == "hash":
            return vid % self.num_workers
        # starts[i] is the first vid of worker i; find the last start <= vid.
        return bisect_right(self.starts, vid) - 1

    def vertices_of(self, worker: int) -> range:
        if self.kind == "hash":
            # range() with a stride enumerates exactly worker's vertices.
            return range(worker, self.num_vertices, self.num_workers)
        lo = self.starts[worker]
        hi = (
            self.starts[worker + 1]
            if worker + 1 < self.num_workers
            else self.num_vertices
        )
        return range(lo, hi)

    def size_of(self, worker: int) -> int:
        return len(self.vertices_of(worker))


def range_partition(num_vertices: int, num_workers: int) -> Partition:
    """Balanced contiguous ranges — the paper's default (Giraph range method)."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    base, extra = divmod(num_vertices, num_workers)
    starts = []
    cursor = 0
    for worker in range(num_workers):
        starts.append(cursor)
        cursor += base + (1 if worker < extra else 0)
    return Partition(
        num_workers=num_workers,
        kind="range",
        starts=tuple(starts),
        num_vertices=num_vertices,
    )


def hash_partition(num_vertices: int, num_workers: int) -> Partition:
    """Modulo partitioning — used by the partitioning ablation."""
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    return Partition(
        num_workers=num_workers,
        kind="hash",
        starts=(),
        num_vertices=num_vertices,
    )
