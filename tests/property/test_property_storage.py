"""Property-based tests for the storage structures."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph, range_partition
from repro.storage.disk import SimulatedDisk
from repro.storage.messages import SpillingMessageStore
from repro.storage.records import DEFAULT_SIZES
from repro.storage.veblock import BlockLayout, VEBlockStore
from repro.storage.vertex_cache import LRUVertexCache

FAST = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_layout(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    num_edges = draw(st.integers(min_value=0, max_value=90))
    g = Graph(n)
    for _ in range(num_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        if src != dst:
            g.add_edge(src, dst)
    workers = draw(st.integers(min_value=1, max_value=3))
    blocks = draw(st.integers(min_value=1, max_value=5))
    clustering = draw(st.booleans())
    partition = range_partition(n, workers)
    layout = BlockLayout.build(partition, [blocks] * workers)
    return g, partition, layout, clustering


def build(g, partition, w, layout, clustering):
    return VEBlockStore(g, partition, w, layout, SimulatedDisk(),
                        DEFAULT_SIZES, fragment_clustering=clustering)


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
    @given(graph_and_layout())
    def test_eblock_counts_match_their_fragments(self, data):
        g, partition, layout, clustering = data
        for w in range(partition.num_workers):
            store = build(g, partition, w, layout, clustering)
            for src_block in store.local_blocks:
                for dst_block in store.meta[src_block].bitmap:
                    fragments, nfrag, nedge = store.eblock(
                        src_block, dst_block
                    )
                    assert nfrag == len(fragments)
                    assert nedge == sum(len(e) for _v, e in fragments)
                    if not clustering:
                        assert nfrag == nedge

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
            _e, aux, edge_bytes, vrr = store.scan_stats
            assert store.estimate_bpull_scan(flags) == (
                edge_bytes, aux, vrr
            )


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
