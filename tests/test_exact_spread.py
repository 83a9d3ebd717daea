"""Unit tests for exact spread computation by world enumeration."""

import random

import pytest

from repro.datasets import figure1_graph, figure1_seed, V
from repro.graph import DiGraph
from repro.spread import (
    exact_activation_probabilities,
    exact_expected_spread,
    exact_spread_dag,
    MonteCarloEngine,
    UncertainEdgeLimitError,
)

from .conftest import random_digraph


class TestToyGraphGroundTruth:
    """Example 1 of the paper provides exact values."""

    def test_expected_spread(self):
        assert exact_expected_spread(
            figure1_graph(), [figure1_seed]
        ) == pytest.approx(7.66)

    def test_activation_probabilities(self):
        probs = exact_activation_probabilities(
            figure1_graph(), [figure1_seed]
        )
        assert probs[V(1)] == 1.0
        assert probs[V(8)] == pytest.approx(0.6)
        assert probs[V(7)] == pytest.approx(0.06)
        for i in (2, 3, 4, 5, 6, 9):
            assert probs[V(i)] == 1.0

    def test_blocking_v5(self):
        assert exact_expected_spread(
            figure1_graph(), [figure1_seed], blocked=[V(5)]
        ) == pytest.approx(3.0)

    def test_blocking_out_neighbors(self):
        graph = figure1_graph()
        assert exact_expected_spread(
            graph, [figure1_seed], blocked=[V(2), V(4)]
        ) == pytest.approx(1.0)


class TestSemantics:
    def test_deterministic_graph_is_reachability(self):
        graph = DiGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert exact_expected_spread(graph, [0]) == 3.0
        assert exact_expected_spread(graph, [0, 3]) == 5.0

    def test_probability_zero_edge_ignored(self):
        graph = DiGraph.from_edges(2, [(0, 1, 0.0)])
        assert exact_expected_spread(graph, [0]) == 1.0

    def test_independent_parallel_paths(self):
        # P(2) = 1 - (1 - 0.5)(1 - 0.5) = 0.75
        graph = DiGraph.from_edges(
            4, [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 0.5), (3, 2, 0.5)]
        )
        probs = exact_activation_probabilities(graph, [0])
        assert probs[2] == pytest.approx(0.75)

    def test_blocking_seed_rejected(self):
        graph = DiGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="seed"):
            exact_expected_spread(graph, [0], blocked=[0])

    def test_uncertain_edge_limit(self):
        graph = DiGraph(10)
        for u in range(9):
            graph.add_edge(u, u + 1, 0.5)
        with pytest.raises(UncertainEdgeLimitError):
            exact_expected_spread(graph, [0], max_uncertain_edges=5)


class TestAgainstMonteCarlo:
    def test_random_graphs_agree_with_mcs(self):
        rnd = random.Random(11)
        for trial in range(5):
            graph = random_digraph(
                8, 0.2, rnd, prob_choices=(0.3, 0.6, 1.0)
            )
            exact = exact_expected_spread(graph, [0])
            mcs = MonteCarloEngine(graph, rng=trial).expected_spread(
                [0], rounds=20000
            )
            assert mcs == pytest.approx(exact, rel=0.05, abs=0.05)


class TestTreeClosedForm:
    def test_path_products(self):
        tree = DiGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)])
        assert exact_spread_dag(tree, 0) == pytest.approx(1 + 0.5 + 0.25)

    def test_matches_world_enumeration(self):
        tree = DiGraph.from_edges(
            5, [(0, 1, 0.5), (0, 2, 0.3), (1, 3, 0.9), (1, 4, 0.2)]
        )
        assert exact_spread_dag(tree, 0) == pytest.approx(
            exact_expected_spread(tree, [0])
        )

    def test_blocking_removes_subtree(self):
        tree = DiGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 1.0)])
        assert exact_spread_dag(tree, 0, blocked=[1]) == 1.0

    def test_non_tree_rejected(self):
        graph = DiGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError, match="out-tree"):
            exact_spread_dag(graph, 0)
