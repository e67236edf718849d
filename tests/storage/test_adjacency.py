"""Unit tests for the adjacency-list store (push-family layout)."""

from repro.core.flags import FlagBitset
from repro.core.graph import Graph
from repro.storage.adjacency import AdjacencyStore
from repro.storage.disk import SimulatedDisk
from repro.storage.records import DEFAULT_SIZES


def make_store():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    disk = SimulatedDisk()
    store = AdjacencyStore(g, range(2), disk, DEFAULT_SIZES)
    return g, store, disk


class TestAdjacencyStore:
    def test_load_write_bytes_counts_local_slice_only(self):
        _g, store, _disk = make_store()
        # vertices 0, 1 with 3 outgoing edges between them
        expected = DEFAULT_SIZES.vertices(2) + DEFAULT_SIZES.edges(3)
        assert store.load_write_bytes() == expected

    def test_charge_load_sequential(self):
        _g, store, disk = make_store()
        store.charge_load()
        assert disk.counters.seq_write == store.load_write_bytes()
        assert disk.counters.random_write == 0

    def test_charge_out_edges_charges_block(self):
        g, store, disk = make_store()
        store.begin_superstep()
        charged = store.charge_out_edges(0)
        assert [d for d, _w in g.out_edges(0)] == [1, 2]
        # blocks hold 64 vertices, so both local vertices (3 edges) are
        # in the same block and the first touch charges them all.
        assert charged == DEFAULT_SIZES.edges(3)
        assert disk.counters.seq_read == charged

    def test_second_touch_of_block_is_free(self):
        _g, store, disk = make_store()
        store.begin_superstep()
        store.charge_out_edges(0)
        charged = store.charge_out_edges(1)
        assert charged == 0
        assert disk.counters.seq_read == DEFAULT_SIZES.edges(3)

    def test_begin_superstep_recharges(self):
        _g, store, disk = make_store()
        store.begin_superstep()
        store.charge_out_edges(0)
        store.begin_superstep()
        charged = store.charge_out_edges(1)
        assert charged == DEFAULT_SIZES.edges(3)

    def test_block_granularity_one(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        disk = SimulatedDisk()
        store = AdjacencyStore(g, range(2), disk, DEFAULT_SIZES,
                               block_vertices=1)
        store.begin_superstep()
        charged = store.charge_out_edges(0)
        assert charged == DEFAULT_SIZES.edges(2)  # only vertex 0's edges

    def test_estimate_edge_bytes(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        disk = SimulatedDisk()
        store = AdjacencyStore(g, range(2), disk, DEFAULT_SIZES,
                               block_vertices=1)
        flags = [True, False, False, False]
        assert store.estimate_edge_bytes(flags) == DEFAULT_SIZES.edges(2)
        flags = [True, True, False, False]
        assert store.estimate_edge_bytes(flags) == DEFAULT_SIZES.edges(3)
        # a hash partition's stride (vertices 1 and 3) read from
        # FlagBitset bytes: the other worker's flags are not read, and
        # vertex 3 alone reads its own edge-less block, or vertex 1's
        # edge when they share a block
        for bv, expected in ((1, 0), (2, DEFAULT_SIZES.edges(1))):
            strided = AdjacencyStore(g, range(1, 4, 2), disk, DEFAULT_SIZES,
                                     block_vertices=bv)
            bits = FlagBitset.from_iterable([True, False, True, True])
            assert strided.estimate_edge_bytes(bits) == expected
            bits[1] = True
            assert strided.estimate_edge_bytes(bits) == DEFAULT_SIZES.edges(1)

    def test_vertex_record_charges(self):
        _g, store, disk = make_store()
        store.read_vertex(0)
        store.write_vertex(0)
        assert disk.counters.seq_read == DEFAULT_SIZES.vertex_record
        assert disk.counters.seq_write == DEFAULT_SIZES.vertex_record

    def test_num_local_edges(self):
        _g, store, _disk = make_store()
        assert store.num_local_edges == 3

    def test_disabled_disk_returns_edges_without_charges(self):
        g = Graph(2, [(0, 1)])
        disk = SimulatedDisk(enabled=False)
        store = AdjacencyStore(g, range(1), disk, DEFAULT_SIZES)
        store.begin_superstep()
        store.charge_out_edges(0)
        assert g.out_edges(0) == [(1, 1.0)]
        assert disk.counters.total == 0
