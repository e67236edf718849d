"""Unit tests for the graph model and partitioners."""

import pytest

from repro.core.graph import Graph, hash_partition, range_partition


class TestGraph:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_negative_vertices_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_add_edge_and_degrees(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert g.num_edges == 3
        assert g.out_degree(0) == 2
        assert g.out_degree(2) == 0

    def test_edge_out_of_range_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 5)
        with pytest.raises(ValueError):
            g.add_edge(-1, 0)

    def test_default_weight_is_one(self):
        g = Graph(2, [(0, 1)])
        assert g.out_edges(0) == [(1, 1.0)]

    def test_explicit_weights(self):
        g = Graph(2, [(0, 1, 2.5)])
        assert g.out_edges(0) == [(1, 2.5)]

    def test_edges_iterator(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]
        g = Graph(3, edges)
        assert sorted(g.edges()) == sorted(edges)
        # sources out of order (as social_graph's whisker chains add
        # them): each row keeps its insertion order, not dst order
        inserted = [
            (2, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (1, 0, 4.0), (0, 1, 5.0)
        ]
        g = Graph(3, inserted)
        rows = [[e for e in inserted if e[0] == v] for v in range(3)]
        assert list(g.edges()) == [e for row in rows for e in row]
        for v, row in enumerate(rows):
            assert g.out_edges(v) == [(d, w) for _s, d, w in row]

    def test_in_degrees(self):
        g = Graph(3, [(0, 1), (2, 1), (1, 0)])
        assert g.in_degrees() == [1, 2, 0]

    def test_reverse_adjacency(self):
        g = Graph(3, [(0, 1, 5.0), (2, 1, 7.0)])
        rev = g.reverse_adjacency()
        assert rev[1] == [(0, 5.0), (2, 7.0)]
        assert rev[0] == []

    def test_average_degree(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g.average_degree == pytest.approx(0.5)
        assert Graph(0).average_degree == 0.0


class TestRangePartition:
    def test_covers_all_vertices_disjointly(self):
        p = range_partition(10, 3)
        seen = []
        for w in range(3):
            seen.extend(p.vertices_of(w))
        assert sorted(seen) == list(range(10))

    def test_balanced_sizes(self):
        p = range_partition(10, 3)
        sizes = [p.size_of(w) for w in range(3)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10

    def test_owner_consistent_with_ranges(self):
        p = range_partition(17, 4)
        for w in range(4):
            for v in p.vertices_of(w):
                assert p.owner(v) == w

    def test_ranges_contiguous(self):
        p = range_partition(10, 3)
        for w in range(3):
            vs = list(p.vertices_of(w))
            assert vs == list(range(vs[0], vs[-1] + 1))

    def test_single_worker(self):
        p = range_partition(5, 1)
        assert list(p.vertices_of(0)) == list(range(5))

    def test_more_workers_than_vertices(self):
        p = range_partition(2, 5)
        total = sum(p.size_of(w) for w in range(5))
        assert total == 2

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            range_partition(10, 0)


class TestHashPartition:
    def test_owner_is_modulo(self):
        p = hash_partition(10, 3)
        for v in range(10):
            assert p.owner(v) == v % 3

    def test_vertices_of_matches_owner(self):
        p = hash_partition(11, 4)
        for w in range(4):
            for v in p.vertices_of(w):
                assert p.owner(v) == w

    def test_covers_all_vertices(self):
        p = hash_partition(11, 4)
        seen = sorted(v for w in range(4) for v in p.vertices_of(w))
        assert seen == list(range(11))

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            hash_partition(10, 0)
