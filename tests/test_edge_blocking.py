"""Unit tests for the edge-blocking variant."""

import pytest

from repro.core import (
    edge_decrease_computation,
    greedy_edge_blocking,
)
from repro.datasets import figure1_graph, figure1_seed
from repro.graph import DiGraph
from repro.sampling import ICSampler
from repro.spread import exact_expected_spread


def edge_removal_spread(graph, seeds, edges) -> float:
    """Exact spread after removing explicit edges (test oracle)."""
    trimmed = graph.copy()
    for u, v in edges:
        trimmed.remove_edge(u, v)
    return exact_expected_spread(trimmed, seeds)


class TestEdgeDecreaseComputation:
    def test_deterministic_chain(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        sampler = ICSampler(graph, rng=0)
        delta, spread = edge_decrease_computation(sampler, 0, theta=5)
        assert spread == 4.0
        # removing edge (0,1) strands 3 vertices, (1,2) two, (2,3) one
        assert delta.tolist() == [3.0, 2.0, 1.0]

    def test_parallel_paths_share_no_dominance(self):
        graph = DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        sampler = ICSampler(graph, rng=1)
        delta, _ = edge_decrease_computation(sampler, 0, theta=5)
        # each branch edge only strands its own middle vertex target
        assert delta.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_matches_exact_removal_on_toy_graph(self):
        graph = figure1_graph()
        sampler = ICSampler(graph, rng=2)
        delta, _ = edge_decrease_computation(sampler, figure1_seed, 20000)
        csr = sampler.csr
        base = exact_expected_spread(graph, [figure1_seed])
        for j in range(csr.m):
            u, v = int(csr.src[j]), int(csr.indices[j])
            exact_delta = base - edge_removal_spread(
                graph, [figure1_seed], [(u, v)]
            )
            assert float(delta[j]) == pytest.approx(
                exact_delta, abs=0.06
            ), f"edge ({u}, {v})"

    def test_blocked_edges_excluded(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        sampler = ICSampler(graph, rng=3)
        delta, spread = edge_decrease_computation(
            sampler, 0, theta=5, blocked_edges=[0]
        )
        assert spread == 1.0
        assert delta.tolist() == [0.0, 0.0]

    def test_invalid_theta(self):
        sampler = ICSampler(DiGraph.from_edges(2, [(0, 1)]), rng=4)
        with pytest.raises(ValueError):
            edge_decrease_computation(sampler, 0, theta=0)


class TestGreedyEdgeBlocking:
    def test_chain_picks_first_edge(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        result = greedy_edge_blocking(graph, [0], 1, theta=50, rng=0)
        assert result.edges == [(0, 1)]
        assert result.estimated_spread == pytest.approx(1.0)

    def test_toy_graph_single_edge_optimal(self):
        graph = figure1_graph()
        result = greedy_edge_blocking(
            graph, [figure1_seed], 1, theta=3000, rng=1
        )
        base = exact_expected_spread(graph, [figure1_seed])
        best_exact = min(
            edge_removal_spread(graph, [figure1_seed], [(u, v)])
            for u, v, _ in graph.edges()
        )
        achieved = edge_removal_spread(
            graph, [figure1_seed], result.edges
        )
        assert achieved == pytest.approx(best_exact, abs=0.01)
        assert achieved < base

    def test_multiple_edges_monotone_improvement(self):
        graph = figure1_graph()
        spreads = []
        for budget in (1, 2, 3):
            result = greedy_edge_blocking(
                graph, [figure1_seed], budget, theta=1500, rng=2
            )
            spreads.append(
                edge_removal_spread(graph, [figure1_seed], result.edges)
            )
        assert spreads == sorted(spreads, reverse=True)

    def test_multi_seed_seed_edges_reported_with_placeholder(self):
        # blocking the unified-source edge corresponds to severing all
        # seed influence on that target: reported as (-1, target)
        graph = DiGraph.from_edges(4, [(0, 2), (1, 2), (2, 3)])
        result = greedy_edge_blocking(graph, [0, 1], 1, theta=200, rng=3)
        assert result.edges[0] in [(-1, 2), (2, 3)]

    def test_budget_zero(self):
        graph = figure1_graph()
        result = greedy_edge_blocking(
            graph, [figure1_seed], 0, theta=1000, rng=4
        )
        assert result.edges == []
        assert result.estimated_spread == pytest.approx(7.66, abs=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_edge_blocking(DiGraph(2), [0], -1)
