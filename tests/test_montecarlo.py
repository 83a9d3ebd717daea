"""Unit tests for the Monte-Carlo IC engine."""

import pytest

from repro.datasets import figure1_graph, figure1_seed, V
from repro.graph import DiGraph
from repro.spread import MonteCarloEngine


class TestDeterministicGraphs:
    def test_all_one_probabilities_reach_everything(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        engine = MonteCarloEngine(graph, rng=0)
        assert engine.expected_spread([0], rounds=1) == 4
        assert engine.expected_spread([0], rounds=10) == 4.0

    def test_zero_probability_edges_never_fire(self):
        graph = DiGraph.from_edges(3, [(0, 1, 0.0), (1, 2, 1.0)])
        engine = MonteCarloEngine(graph, rng=0)
        assert engine.expected_spread([0], rounds=50) == 1.0

    def test_seeds_always_counted(self):
        graph = DiGraph(3)
        engine = MonteCarloEngine(graph, rng=0)
        assert engine.expected_spread([0, 2], rounds=5) == 2.0

    def test_duplicate_seeds_counted_once(self):
        graph = DiGraph(2)
        engine = MonteCarloEngine(graph, rng=0)
        assert engine.expected_spread([0, 0], rounds=1) == 1


class TestBlocking:
    def test_blocked_vertex_never_activates(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        engine = MonteCarloEngine(graph, rng=0)
        assert engine.expected_spread([0], rounds=20, blocked=[1]) == 1.0

    def test_blocking_seed_rejected(self):
        graph = DiGraph.from_edges(2, [(0, 1)])
        engine = MonteCarloEngine(graph, rng=0)
        with pytest.raises(ValueError, match="seed"):
            engine.expected_spread([0], rounds=5, blocked=[0])

    def test_blocked_state_does_not_leak_between_calls(self):
        graph = DiGraph.from_edges(2, [(0, 1)])
        engine = MonteCarloEngine(graph, rng=0)
        assert engine.expected_spread([0], 5, blocked=[1]) == 1.0
        assert engine.expected_spread([0], 5) == 2.0


class TestStatisticalAccuracy:
    def test_matches_exact_on_toy_graph(self):
        graph = figure1_graph()
        engine = MonteCarloEngine(graph, rng=42)
        estimate = engine.expected_spread([figure1_seed], rounds=20000)
        assert estimate == pytest.approx(7.66, abs=0.1)

    def test_single_edge_probability(self):
        graph = DiGraph.from_edges(2, [(0, 1, 0.3)])
        estimate = MonteCarloEngine(graph, rng=7).expected_spread(
            [0], rounds=20000
        )
        assert estimate == pytest.approx(1.3, abs=0.03)


class TestReseed:
    def test_reseed_replays_a_fresh_engine(self):
        # one engine serves every round of an activation curve, so a
        # reseeded engine must draw a fresh engine's coins whatever it
        # ran before
        graph = figure1_graph()
        engine = MonteCarloEngine(graph, rng=1)
        engine.expected_spread([figure1_seed], rounds=50, blocked=[V(5)])
        fresh = MonteCarloEngine(graph, rng=21)
        assert engine.reseed(21).expected_spread([figure1_seed], 300) == (
            fresh.expected_spread([figure1_seed], 300)
        )
        assert engine.reseed(21).levels([figure1_seed]) == (
            MonteCarloEngine(graph, rng=21).levels([figure1_seed])
        )


class TestValidation:
    def test_non_positive_rounds_rejected(self):
        engine = MonteCarloEngine(DiGraph(1), rng=0)
        with pytest.raises(ValueError):
            engine.expected_spread([0], rounds=0)
        with pytest.raises(ValueError):
            engine.expected_spread([0], rounds=-1)
