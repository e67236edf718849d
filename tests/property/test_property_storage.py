"""Property-based tests for the storage structures."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flags import FlagBitset
from repro.core.graph import Graph, hash_partition, range_partition
from repro.core.runtime import choose_vblocks_per_worker
from repro.storage.disk import SimulatedDisk
from repro.storage.messages import SpillingMessageStore
from repro.storage.records import DEFAULT_SIZES
from repro.storage.veblock import BlockLayout, VEBlockStore
from repro.storage.vertex_cache import LRUVertexCache

try:  # the array build needs NumPy; the scalar checks run without it
    import numpy
except ImportError:  # pragma: no cover - exercised on NumPy-less hosts
    numpy = None

FAST = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_layout(draw, any_partition=False):
    """A graph, its partition and Vblock layout, and a clustering flag.

    With *any_partition* the partition may be a hash partition, there
    may be more workers than vertices (workers with no local blocks),
    the layout may be the one a zero message buffer picks (one Vblock
    per vertex), and the out-edges of a drawn subset of workers and of
    vertices are dropped (edge-less workers, rows of out-degree 0).
    """
    n = draw(st.integers(min_value=2, max_value=30))
    num_edges = draw(st.integers(min_value=0, max_value=90))
    workers = draw(st.integers(min_value=1, max_value=3))
    if any_partition and draw(st.booleans()):
        workers += n
    partition = range_partition(n, workers)
    quiet = sinks = set()
    if any_partition:
        if draw(st.booleans()):
            partition = hash_partition(n, workers)
        quiet = draw(st.sets(st.integers(0, workers - 1)))
        sinks = draw(st.sets(st.integers(0, n - 1)))
    g = Graph(n)
    for _ in range(num_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        if (src != dst and src not in sinks
                and partition.owner(src) not in quiet):
            g.add_edge(src, dst)
    blocks = draw(st.integers(min_value=0 if any_partition else 1,
                              max_value=5))
    clustering = draw(st.booleans())
    counts = [
        choose_vblocks_per_worker(g, partition, w, 0, True) if blocks == 0
        else blocks
        for w in range(workers)
    ]
    layout = BlockLayout.build(partition, counts)
    return g, partition, layout, clustering


def build(g, partition, w, layout, clustering, as_arrays=False):
    return VEBlockStore(g, partition, w, layout, SimulatedDisk(),
                        DEFAULT_SIZES, fragment_clustering=clustering,
                        as_arrays=as_arrays)


def bitmap(store, block):
    """``X_j``'s bitmap of *block*: its Eblocks' destination blocks, off
    the Eblock table or an array store's CSR rows."""
    if store.e_sv is None:
        return {
            dst for dst in range(store.layout.num_blocks)
            if store.eblock(block, dst) is not None
        }
    block_of = store.layout.block_of_vertex
    return {
        block_of[dst]
        for src, dst in zip(store.e_sv.tolist(), store.e_dst.tolist())
        if block_of[src] == block
    }


def tables(store, flags):
    """The count tables both builds must agree on."""
    return (
        {
            blk: (bitmap(store, blk), m.scan_edges, m.scan_fragments)
            for blk, m in store.meta.items()
        },
        [store.fragments_of_vertex(v) for v in range(len(flags))],
        store.total_fragments(),
        store.num_local_edges,
        store.load_write_bytes(),
        store.metadata_memory_bytes(),
        store.estimate_bpull_scan(flags),
        store.estimate_bpull_scan(FlagBitset.from_iterable(flags)),
    )


def per_destination(edges):
    """``(svertex, dst, weight)`` *edges* grouped by destination vertex,
    each group in stream order."""
    grouped = {}
    for edge in edges:
        grouped.setdefault(edge[1], []).append(edge)
    return grouped


def scan_order(store):
    """A fragment store's edges per destination vertex, in Eblock scan
    order: each request's Eblocks in ``local_blocks`` order."""
    edges = []
    for dst_block in range(store.layout.num_blocks):
        for src in store.local_blocks:
            eblock = store.eblock(src, dst_block)
            if eblock is None:
                continue
            for svertex, out in eblock[0]:
                edges.extend((svertex, dst, w) for dst, w in out)
    return per_destination(edges)


def row_order(store):
    """An array store's edges per destination vertex, in CSR row
    order."""
    return per_destination(zip(
        store.e_sv.tolist(), store.e_dst.tolist(), store.e_w.tolist()
    ))


class TestVEBlockProperties:
    @FAST
    @given(graph_and_layout())
    def test_every_edge_in_exactly_one_fragment(self, data):
        g, partition, layout, clustering = data
        seen = []
        for w in range(partition.num_workers):
            store = build(g, partition, w, layout, clustering)
            for src_block in store.local_blocks:
                for dst_block in range(layout.num_blocks):
                    eblock = store.eblock(src_block, dst_block)
                    if eblock is None:
                        continue
                    fragments, _nfrag, _nedge = eblock
                    for svertex, edges in fragments:
                        seen.extend(
                            (svertex, dst) for dst, _w in edges
                        )
        assert sorted(seen) == sorted(
            (s, d) for s, d, _w in g.edges()
        )

    @FAST
    @given(graph_and_layout(any_partition=True),
           st.sets(st.integers(0, 29)))
    def test_eblock_counts_match_their_fragments(self, data, responders):
        g, partition, layout, clustering = data
        flags = [v in responders for v in range(g.num_vertices)]
        for w in range(partition.num_workers):
            store = build(g, partition, w, layout, clustering)
            for src_block in store.local_blocks:
                for dst_block in bitmap(store, src_block):
                    fragments, nfrag, nedge = store.eblock(
                        src_block, dst_block
                    )
                    assert nfrag == len(fragments)
                    assert nedge == sum(len(e) for _v, e in fragments)
                    if not clustering:
                        assert nfrag == nedge
            if numpy is None:
                continue
            # the vectorized tier's array build agrees with the scalar one
            arrays = build(g, partition, w, layout, clustering,
                           as_arrays=True)
            assert tables(arrays, flags) == tables(store, flags)
            # the rows hold every destination's edges in scan order, so
            # a fold over them groups each vertex's floats as the scan's
            assert row_order(arrays) == scan_order(store)
            local = numpy.array(partition.vertices_of(w), dtype=numpy.int64)
            assert numpy.array_equal(
                numpy.repeat(local, numpy.diff(arrays.e_indptr)),
                arrays.e_sv,
            )
            with pytest.raises(RuntimeError, match="vectorized"):
                arrays.eblock(store.local_blocks[0], 0)
            with pytest.raises(RuntimeError, match="vectorized"):
                arrays.refresh_res(flags)
            with pytest.raises(RuntimeError, match="vectorized"):
                arrays.collect_for_request(0, flags)
            with pytest.raises(RuntimeError, match="vectorized"):
                next(arrays.scan_for_request(0, flags))

    @FAST
    @given(graph_and_layout())
    def test_fragment_counts_consistent(self, data):
        g, partition, layout, clustering = data
        for w in range(partition.num_workers):
            store = build(g, partition, w, layout, clustering)
            per_vertex = sum(
                store.fragments_of_vertex(v)
                for v in partition.vertices_of(w)
            )
            assert per_vertex == store.total_fragments()

    @FAST
    @given(graph_and_layout(), st.sets(st.integers(0, 29)))
    def test_scan_yields_exactly_responding_edges(self, data, responders):
        g, partition, layout, clustering = data
        flags = [v in responders for v in range(g.num_vertices)]
        produced = []
        for w in range(partition.num_workers):
            store = build(g, partition, w, layout, clustering)
            store.begin_superstep_stats()
            store.refresh_res(flags)
            for dst_block in range(layout.num_blocks):
                for svertex, edges in store.scan_for_request(
                    dst_block, flags
                ):
                    produced.extend((svertex, d) for d, _w in edges)
        expected = sorted(
            (s, d) for s, d, _w in g.edges() if flags[s]
        )
        assert sorted(produced) == expected

    @FAST
    @given(graph_and_layout(), st.sets(st.integers(0, 29)))
    def test_estimate_equals_actual_scan_cost(self, data, responders):
        g, partition, layout, clustering = data
        flags = [v in responders for v in range(g.num_vertices)]
        for w in range(partition.num_workers):
            store = build(g, partition, w, layout, clustering)
            store.begin_superstep_stats()
            store.refresh_res(flags)
            for dst_block in range(layout.num_blocks):
                for _ in store.scan_for_request(dst_block, flags):
                    pass
            assert store.estimate_bpull_scan(flags) == store.scan_stats


class TestMessageStoreProperties:
    @FAST
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.floats(0, 100,
                                                   allow_nan=False)),
            max_size=60,
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    )
    def test_no_message_lost_or_duplicated(self, deposits, capacity):
        store = SpillingMessageStore(capacity, DEFAULT_SIZES,
                                     SimulatedDisk())
        for dst, value in deposits:
            store.deposit(dst, value)
        result = store.load()
        flat = sorted(
            (dst, v) for dst, values in result.messages.items()
            for v in values
        )
        assert flat == sorted(deposits)

    @FAST
    @given(
        st.lists(st.integers(0, 9), max_size=60),
        st.integers(min_value=0, max_value=20),
    )
    def test_spill_complements_capacity(self, destinations, capacity):
        store = SpillingMessageStore(capacity, DEFAULT_SIZES,
                                     SimulatedDisk())
        for dst in destinations:
            store.deposit(dst, 1.0)
        expected_spill = max(0, len(destinations) - capacity)
        assert store.total_spilled == expected_spill


class TestLRUProperties:
    @FAST
    @given(
        st.lists(st.integers(0, 15), max_size=80),
        st.integers(min_value=1, max_value=8),
    )
    def test_capacity_respected_and_hits_subset(self, accesses, capacity):
        cache = LRUVertexCache(capacity, DEFAULT_SIZES, SimulatedDisk())
        for vid in accesses:
            cache.access(vid)
            assert cache.resident <= capacity
        assert cache.hits + cache.misses == len(accesses)

    @FAST
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_repeat_access_within_capacity_always_hits(self, accesses):
        cache = LRUVertexCache(10, DEFAULT_SIZES, SimulatedDisk())
        for vid in accesses:
            cache.access(vid)
        assert cache.misses == len(set(accesses))
