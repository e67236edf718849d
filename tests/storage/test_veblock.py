"""Unit tests for the VE-BLOCK layout (Section 4.1, Algorithms 1-2)."""

import pytest

from repro.core.graph import Graph, hash_partition, range_partition
from repro.storage.disk import SimulatedDisk
from repro.storage.records import DEFAULT_SIZES
from repro.storage.veblock import BlockLayout, VEBlockStore


def tiny_graph():
    # Appendix B's example: 5 vertices, v3 is the SSSP source.
    g = Graph(5, name="tiny")
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 0, 1.0)
    g.add_edge(2, 1, 0.8)
    g.add_edge(2, 3, 1.0)
    g.add_edge(2, 4, 2.0)
    g.add_edge(3, 4, 1.0)
    g.add_edge(4, 2, 1.0)
    return g


def build_store(graph, num_workers=2, blocks_per_worker=2, worker=0,
                clustering=True, partition=None):
    partition = partition or range_partition(graph.num_vertices, num_workers)
    layout = BlockLayout.build(
        partition, [blocks_per_worker] * num_workers
    )
    stores = []
    for w in range(num_workers):
        stores.append(
            VEBlockStore(
                graph,
                partition,
                w,
                layout,
                SimulatedDisk(),
                DEFAULT_SIZES,
                fragment_clustering=clustering,
            )
        )
    return layout, stores


def bitmap(store, block):
    """``X_j``'s bitmap of *block*: its Eblocks' destination blocks."""
    return {dst for src, dst in store._eblocks if src == block}


class TestBlockLayout:
    def test_every_vertex_in_exactly_one_block(self):
        g = tiny_graph()
        layout, _ = build_store(g)
        seen = []
        for block in layout.block_vertices:
            seen.extend(block)
        assert sorted(seen) == list(range(g.num_vertices))

    def test_block_of_vertex_consistent(self):
        g = tiny_graph()
        layout, _ = build_store(g)
        for block_id, vertices in enumerate(layout.block_vertices):
            for v in vertices:
                assert layout.block_of_vertex[v] == block_id

    def test_block_owner_matches_partition(self):
        g = tiny_graph()
        partition = range_partition(g.num_vertices, 2)
        layout, _ = build_store(g, partition=partition)
        for block_id, vertices in enumerate(layout.block_vertices):
            for v in vertices:
                assert layout.block_owner[block_id] == partition.owner(v)

    def test_hash_partition_layout(self):
        g = tiny_graph()
        partition = hash_partition(g.num_vertices, 2)
        layout = BlockLayout.build(partition, [2, 2])
        seen = sorted(
            v for block in layout.block_vertices for v in block
        )
        assert seen == list(range(g.num_vertices))

    def test_more_blocks_than_vertices_clamped(self):
        g = Graph(2, [(0, 1)])
        partition = range_partition(2, 1)
        layout = BlockLayout.build(partition, [10])
        # at most one block per vertex
        assert layout.num_blocks <= 2
        assert all(len(b) >= 1 for b in layout.block_vertices)

    def test_blocks_of_worker(self):
        g = tiny_graph()
        layout, _ = build_store(g)
        blocks0 = layout.blocks_of(0)
        blocks1 = layout.blocks_of(1)
        assert set(blocks0) | set(blocks1) == set(range(layout.num_blocks))
        assert not set(blocks0) & set(blocks1)


class TestEBlocks:
    def test_edges_partition_exactly_into_eblocks(self):
        g = tiny_graph()
        layout, stores = build_store(g)
        seen = []
        for store in stores:
            for src_block in store.local_blocks:
                for dst_block in range(layout.num_blocks):
                    eb = store.eblock(src_block, dst_block)
                    if eb is None:
                        continue
                    fragments, _nfrag, _nedge = eb
                    for svertex, edges in fragments:
                        for dst, weight in edges:
                            seen.append((svertex, dst, weight))
                            # the edge belongs in this eblock
                            assert layout.block_of_vertex[svertex] == src_block
                            assert layout.block_of_vertex[dst] == dst_block
        assert sorted(seen) == sorted(g.edges())

    def test_fragments_cluster_per_svertex(self):
        g = tiny_graph()
        layout, stores = build_store(g)
        for store in stores:
            for src_block in store.local_blocks:
                for dst_block in range(layout.num_blocks):
                    eb = store.eblock(src_block, dst_block)
                    if eb is None:
                        continue
                    fragments, _nfrag, _nedge = eb
                    svs = [sv for sv, _e in fragments]
                    assert len(svs) == len(set(svs))  # one fragment per sv

    def test_clustering_ablation_one_fragment_per_edge(self):
        g = tiny_graph()
        _, stores = build_store(g, clustering=False)
        total_fragments = sum(s.total_fragments() for s in stores)
        assert total_fragments == g.num_edges

    def test_clustered_fragments_never_exceed_edges(self):
        g = tiny_graph()
        _, stores = build_store(g, clustering=True)
        total = sum(s.total_fragments() for s in stores)
        assert total <= g.num_edges

    def test_fragments_of_vertex_counts_distinct_blocks(self):
        g = tiny_graph()
        layout, stores = build_store(g)
        # vertex 2 has edges to 1, 3, 4
        blocks = {layout.block_of_vertex[d] for d in (1, 3, 4)}
        owner = layout.block_owner[layout.block_of_vertex[2]]
        assert stores[owner].fragments_of_vertex(2) == len(blocks)


class TestMetadata:
    def test_bitmap_marks_nonempty_eblocks(self):
        g = tiny_graph()
        layout, stores = build_store(g)
        for store in stores:
            for blk in store.local_blocks:
                for dst_block in bitmap(store, blk):
                    assert store.eblock(blk, dst_block) is not None
                # and nothing outside the bitmap exists
                for dst_block in range(layout.num_blocks):
                    if dst_block not in bitmap(store, blk):
                        assert store.eblock(blk, dst_block) is None

    def test_block_scan_bytes_sum_the_block_eblocks(self):
        g = tiny_graph()
        layout, stores = build_store(g)
        for store in stores:
            for blk, meta in store.meta.items():
                out_degree = sum(
                    g.out_degree(v) for v in layout.block_vertices[blk]
                )
                assert meta.scan_edges == out_degree
                fragments = sum(
                    store.eblock(blk, dst)[1] for dst in bitmap(store, blk)
                )
                assert meta.scan_fragments == fragments

    def test_num_local_edges(self):
        g = tiny_graph()
        layout, stores = build_store(g)
        for store in stores:
            assert store.num_local_edges == sum(
                g.out_degree(v)
                for blk in store.local_blocks
                for v in layout.block_vertices[blk]
            )
        assert sum(s.num_local_edges for s in stores) == g.num_edges

    def test_refresh_res(self):
        g = tiny_graph()
        layout, stores = build_store(g)
        flags = [False] * g.num_vertices
        flags[2] = True
        for store in stores:
            store.refresh_res(flags)
        block_of_2 = layout.block_of_vertex[2]
        for store in stores:
            for blk, meta in store.meta.items():
                assert meta.res == (blk == block_of_2)

    def test_metadata_memory_positive(self):
        g = tiny_graph()
        _, stores = build_store(g)
        assert all(s.metadata_memory_bytes() > 0 for s in stores)


class TestScanForRequest:
    def _scan_all(self, g, flags, num_workers=2, blocks_per_worker=2):
        layout, stores = build_store(
            g, num_workers=num_workers, blocks_per_worker=blocks_per_worker
        )
        for s in stores:
            s.begin_superstep_stats()
            s.refresh_res(flags)
        produced = []
        for dst_block in range(layout.num_blocks):
            for s in stores:
                for svertex, edges in s.scan_for_request(dst_block, flags):
                    produced.extend((svertex, d) for d, _w in edges)
        return layout, stores, produced

    def test_yields_exactly_responding_out_edges(self):
        g = tiny_graph()
        flags = [False] * 5
        flags[2] = True
        flags[4] = True
        _, _, produced = self._scan_all(g, flags)
        expected = sorted(
            (s, d) for s, d, _w in g.edges() if flags[s]
        )
        assert sorted(produced) == expected

    def test_no_flags_scans_nothing(self):
        g = tiny_graph()
        layout, stores, produced = self._scan_all(g, [False] * 5)
        assert produced == []
        for s in stores:
            assert s.scan_stats == (0, 0, 0, 0)
            assert s._disk.counters.total == 0  # metadata checks are free

    def test_scan_charges_whole_eblock_sequentially(self):
        g = tiny_graph()
        flags = [True] * 5
        _, stores, _ = self._scan_all(g, flags)
        sizes = DEFAULT_SIZES
        for s in stores:
            edges, aux, edge_bytes, vrr = s.scan_stats
            assert edge_bytes == sizes.edges(edges)
            # all fragments responding -> one random value read each
            assert vrr == sizes.vertex_value * s.total_fragments()
            assert s._disk.counters.seq_read == aux + edge_bytes
            assert s._disk.counters.random_read == vrr

    def test_estimate_matches_scan_when_all_respond(self):
        g = tiny_graph()
        flags = [True] * 5
        _, stores, _ = self._scan_all(g, flags)
        for s in stores:
            edges_est, aux_est, edge_est, vrr_est = s.estimate_bpull_scan(
                flags
            )
            edges, aux, edge_bytes, vrr = s.scan_stats
            assert edges_est == edges
            assert edge_est == edge_bytes
            assert aux_est == aux
            assert vrr_est == vrr

    def test_estimate_subset_flags(self):
        g = tiny_graph()
        flags = [False] * 5
        flags[0] = True
        _, stores, _ = self._scan_all(g, flags)
        for s in stores:
            assert s.estimate_bpull_scan(flags) == s.scan_stats


class TestLoading:
    def test_load_write_bytes_cover_vertices_edges_aux(self):
        g = tiny_graph()
        _, stores = build_store(g)
        sizes = DEFAULT_SIZES
        total = sum(s.load_write_bytes() for s in stores)
        expected = (
            sizes.vertices(g.num_vertices)
            + sizes.edges(g.num_edges)
            + sizes.fragments(sum(s.total_fragments() for s in stores))
        )
        assert total == expected

    def test_charge_load_hits_disk(self):
        g = tiny_graph()
        _, stores = build_store(g)
        store = stores[0]
        store.charge_load()
        assert store._disk.counters.seq_write == store.load_write_bytes()

    def test_charge_block_update_reads_and_writes(self):
        g = tiny_graph()
        layout, stores = build_store(g)
        store = stores[0]
        blk = store.local_blocks[0]
        nbytes = store.charge_block_update(blk)
        expected = DEFAULT_SIZES.vertices(len(layout.block_vertices[blk]))
        assert nbytes == 2 * expected
        assert store._disk.counters.seq_read == expected
        assert store._disk.counters.seq_write == expected
