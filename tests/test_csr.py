"""Unit tests for the CSR graph snapshot."""

import pytest

from repro.graph import CSRGraph, DiGraph


@pytest.fixture
def graph() -> DiGraph:
    return DiGraph.from_edges(
        4, [(0, 1, 0.5), (0, 2, 0.25), (2, 3, 1.0), (3, 0, 0.1)]
    )


class TestLayout:
    def test_shapes(self, graph):
        csr = CSRGraph(graph)
        assert csr.n == 4
        assert csr.m == 4
        assert csr.indptr.shape == (5,)
        assert csr.indices.shape == (4,)
        assert csr.probs.shape == (4,)
        assert csr.src.shape == (4,)

    def test_edge_slices_match_adjacency(self, graph):
        csr = CSRGraph(graph)
        for u in graph.vertices():
            targets = sorted(
                csr.indices[csr.indptr[u]: csr.indptr[u + 1]].tolist()
            )
            assert targets == sorted(graph.out_neighbors(u))

    def test_src_expands_indptr(self, graph):
        csr = CSRGraph(graph)
        for j in range(csr.m):
            u = csr.src[j]
            assert csr.indptr[u] <= j < csr.indptr[u + 1]

    def test_probabilities_aligned(self, graph):
        csr = CSRGraph(graph)
        for j in range(csr.m):
            u, v = int(csr.src[j]), int(csr.indices[j])
            assert csr.probs[j] == graph.probability(u, v)

    def test_isolated_vertices_have_empty_slices(self):
        graph = DiGraph.from_edges(5, [(0, 4)])
        csr = CSRGraph(graph)
        for u in (1, 2, 3):
            assert csr.indptr[u] == csr.indptr[u + 1]

    def test_empty_graph(self):
        csr = CSRGraph(DiGraph(3))
        assert csr.m == 0
        assert csr.indptr.tolist() == [0, 0, 0, 0]


class TestAccessors:
    def test_out_edge_range(self, graph):
        csr = CSRGraph(graph)
        assert list(csr.out_edge_range(0)) == [0, 1]
        assert list(csr.out_edge_range(1)) == []

    def test_out_neighbors(self, graph):
        csr = CSRGraph(graph)
        assert sorted(csr.out_neighbors(0).tolist()) == [1, 2]

    def test_out_degrees(self, graph):
        csr = CSRGraph(graph)
        assert csr.out_degrees().tolist() == [2, 0, 1, 1]

    def test_list_mirrors_match_arrays(self, graph):
        csr = CSRGraph(graph)
        assert csr.indptr_list == csr.indptr.tolist()
        assert csr.indices_list == csr.indices.tolist()
        assert csr.probs_list == csr.probs.tolist()
        assert csr.src_list == csr.src.tolist()

    def test_list_mirrors_are_cached(self, graph):
        csr = CSRGraph(graph)
        assert csr.indptr_list is csr.indptr_list
