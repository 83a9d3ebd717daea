"""Unit tests for the random-graph generators."""

import pytest

from repro.graph import (
    barabasi_albert,
    directed_scale_free,
    erdos_renyi,
    forest_fire,
    is_out_tree,
    powerlaw_cluster,
    random_dag,
    random_out_tree,
    watts_strogatz,
)


def _is_bidirectional(graph) -> bool:
    return all(graph.has_edge(v, u) for u, v, _ in graph.edges())


class TestErdosRenyi:
    def test_exact_edge_count_directed(self):
        graph = erdos_renyi(30, 100, rng=0)
        assert graph.n == 30
        assert graph.m == 100

    def test_undirected_doubles_directed_edges(self):
        graph = erdos_renyi(20, 40, rng=0, directed=False)
        assert graph.m == 80
        assert _is_bidirectional(graph)

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi(3, 100, rng=0)

    def test_deterministic_given_seed(self):
        a = erdos_renyi(15, 40, rng=7)
        b = erdos_renyi(15, 40, rng=7)
        assert sorted(a.edges()) == sorted(b.edges())


class TestBarabasiAlbert:
    def test_edge_count_and_symmetry(self):
        graph = barabasi_albert(100, 3, rng=1)
        assert graph.n == 100
        # clique core + 3 undirected edges per later vertex
        expected_und = 4 * 3 // 2 + (100 - 4) * 3
        assert graph.m == 2 * expected_und
        assert _is_bidirectional(graph)

    def test_heavy_tail(self):
        graph = barabasi_albert(500, 2, rng=2)
        degrees = sorted(graph.out_degree(v) for v in graph.vertices())
        # the max degree should far exceed the median in a BA graph
        assert degrees[-1] >= 4 * degrees[len(degrees) // 2]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert(10, 0)
        with pytest.raises(ValueError):
            barabasi_albert(3, 3)


class TestWattsStrogatz:
    def test_ring_degree_without_rewiring(self):
        graph = watts_strogatz(20, 4, 0.0, rng=0)
        assert graph.m == 2 * 20 * 2  # k/2 undirected edges per vertex
        assert _is_bidirectional(graph)

    def test_rewiring_preserves_edge_count(self):
        base = watts_strogatz(30, 4, 0.0, rng=1)
        rewired = watts_strogatz(30, 4, 0.5, rng=1)
        assert rewired.m == base.m

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1)
        with pytest.raises(ValueError):
            watts_strogatz(10, 4, 1.5)


class TestPowerlawCluster:
    def test_size_and_symmetry(self):
        graph = powerlaw_cluster(200, 3, 0.5, rng=3)
        assert graph.n == 200
        assert _is_bidirectional(graph)
        assert graph.m == 2 * (4 * 3 // 2 + (200 - 4) * 3)

    def test_invalid_triangle_probability(self):
        with pytest.raises(ValueError):
            powerlaw_cluster(50, 2, 1.5)


class TestDirectedScaleFree:
    def test_reaches_edge_target(self):
        graph = directed_scale_free(200, 1500, rng=4)
        assert graph.m >= 1500
        assert graph.n == 200

    def test_no_self_loops(self):
        graph = directed_scale_free(100, 600, rng=5)
        assert all(u != v for u, v, _ in graph.edges())

    def test_skewed_in_degree(self):
        graph = directed_scale_free(400, 4000, rng=6)
        in_degrees = sorted(graph.in_degree(v) for v in graph.vertices())
        assert in_degrees[-1] >= 3 * max(1, in_degrees[len(in_degrees) // 2])


class TestForestFire:
    def test_connected_to_earlier_vertices(self):
        graph = forest_fire(150, 0.3, 0.2, rng=7)
        assert graph.n == 150
        # every non-initial vertex links to at least one ambassador
        for u in range(2, 150):
            assert graph.out_degree(u) >= 1

    def test_no_self_loops(self):
        graph = forest_fire(120, 0.35, 0.3, rng=8)
        assert all(u != v for u, v, _ in graph.edges())

    def test_invalid_forward_prob(self):
        with pytest.raises(ValueError):
            forest_fire(10, 1.0)


class TestRandomOutTree:
    def test_is_out_tree(self):
        tree = random_out_tree(60, rng=9)
        assert is_out_tree(tree, 0)

    def test_max_children_respected(self):
        tree = random_out_tree(100, rng=10, max_children=2)
        assert all(tree.out_degree(v) <= 2 for v in tree.vertices())


class TestRandomDag:
    def test_acyclic_by_construction(self):
        graph = random_dag(30, 0.3, rng=11)
        assert all(u < v for u, v, _ in graph.edges())

    def test_density_scales_with_probability(self):
        sparse = random_dag(40, 0.05, rng=12)
        dense = random_dag(40, 0.5, rng=12)
        assert dense.m > sparse.m
