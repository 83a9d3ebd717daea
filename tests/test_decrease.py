"""Unit tests for Algorithm 2 (DecreaseESComputation).

The central correctness property is Theorem 6: per sampled graph, the
dominator-subtree size of ``u`` equals ``sigma->u``; averaged over
samples it estimates the expected-spread decrease of blocking ``u``
(Theorem 4).  We verify both the per-sample identity and the
convergence to exact values.
"""

import random

import numpy as np
import pytest

from repro.core import decrease_es_computation
from repro.datasets import figure1_graph, figure1_seed, V
from repro.dominator import dominator_tree_arrays, subtree_sizes
from repro.graph import DiGraph
from repro.models import assign_weighted_cascade, LinearThresholdSampler
from repro.sampling import adjacency_from_edges, ICSampler, sigma_through_all
from repro.spread import exact_expected_spread

from .conftest import random_digraph


class TestTheorem6PerSample:
    """Subtree sizes == sigma->u on individual sampled graphs."""

    def test_random_sampled_graphs(self):
        rnd = random.Random(31)
        for trial in range(25):
            graph = random_digraph(
                12, 0.25, rnd, prob_choices=(0.4, 0.8, 1.0)
            )
            sampler = ICSampler(graph, rng=trial)
            succ = sampler.sample_adjacency()
            order, idom = dominator_tree_arrays(succ, 0)
            sizes = subtree_sizes(idom)
            from_tree = {
                order[i]: sizes[i] for i in range(1, len(order))
            }
            assert from_tree == sigma_through_all(succ, 0)


class TestMatchesDictReference:
    """The engine path equals the per-sample dict-adjacency loop it
    replaced, bit for bit, on the same sampler draws."""

    @pytest.mark.parametrize("make", [ICSampler, LinearThresholdSampler])
    def test_random_graphs(self, make):
        rnd = random.Random(33)
        for trial in range(6):
            graph = assign_weighted_cascade(random_digraph(30, 0.12, rnd))
            blocked = [3 + trial]
            result = decrease_es_computation(
                make(graph, trial), 0, theta=40, blocked=blocked
            )
            sampler = make(graph, trial)
            sampler.block(blocked)
            delta = np.zeros(graph.n)
            total = 0
            for _ in range(40):
                succ = adjacency_from_edges(
                    sampler.csr, sampler.sample_surviving_edges()
                )
                order, idom = dominator_tree_arrays(succ, 0)
                total += len(order)
                np.add.at(delta, order[1:], subtree_sizes(idom)[1:])
            assert np.array_equal(result.delta, delta / 40)
            assert result.spread == total / 40


class TestConvergenceToExact:
    def test_toy_graph_deltas(self):
        """Example 2's per-vertex decreases, estimated by Algorithm 2."""
        result = decrease_es_computation(
            figure1_graph(), figure1_seed, theta=30000, rng=0
        )
        expected = {
            V(2): 1.0, V(3): 1.0, V(4): 1.0, V(5): 4.66, V(6): 1.0,
            V(7): 0.06, V(8): 0.66, V(9): 1.11,
        }
        for vertex, value in expected.items():
            assert result.delta[vertex] == pytest.approx(value, abs=0.05)
        assert result.spread == pytest.approx(7.66, abs=0.05)
        assert result.delta[figure1_seed] == 0.0

    def test_matches_exact_difference_on_random_graph(self):
        rnd = random.Random(32)
        graph = random_digraph(9, 0.25, rnd, prob_choices=(0.5, 1.0))
        base = exact_expected_spread(graph, [0])
        result = decrease_es_computation(graph, 0, theta=20000, rng=1)
        for u in range(1, 9):
            exact_delta = base - exact_expected_spread(
                graph, [0], blocked=[u]
            )
            assert result.delta[u] == pytest.approx(
                exact_delta, abs=0.12
            )


class TestInterface:
    def test_accepts_graph_or_sampler(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        from_graph = decrease_es_computation(graph, 0, theta=10, rng=0)
        sampler = ICSampler(graph, rng=0)
        from_sampler = decrease_es_computation(sampler, 0, theta=10)
        assert np.allclose(from_graph.delta, from_sampler.delta)

    def test_deterministic_graph_exact_in_one_sample(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        result = decrease_es_computation(graph, 0, theta=1, rng=0)
        assert result.delta[1] == 3.0
        assert result.delta[2] == 1.0
        assert result.spread == 4.0

    def test_blocked_argument_applies(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        result = decrease_es_computation(
            graph, 0, theta=5, rng=0, blocked=[1]
        )
        assert result.spread == 1.0
        assert result.delta[1] == 0.0
        assert result.delta[2] == 0.0

    def test_blocking_source_rejected(self):
        graph = DiGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="source"):
            decrease_es_computation(graph, 0, theta=5, blocked=[0])

    def test_invalid_theta_and_source(self):
        graph = DiGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            decrease_es_computation(graph, 0, theta=0)
        with pytest.raises(IndexError):
            decrease_es_computation(graph, 5, theta=1)

    @pytest.mark.parametrize("source", [-1, 3])
    def test_bad_source_leaves_the_sampler_unblocked(self, source):
        sampler = ICSampler(DiGraph.from_edges(3, [(0, 1), (1, 2)]), 0)
        with pytest.raises(IndexError):
            decrease_es_computation(sampler, source, theta=1, blocked=[1])
        assert sampler.blocked == frozenset()

    def test_best_vertex_and_exclusion(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        result = decrease_es_computation(graph, 0, theta=1, rng=0)
        assert result.best_vertex(exclude={0}) == 1
        assert result.best_vertex(exclude={0, 1}) in (2, 3)

    def test_best_vertex_all_excluded(self):
        graph = DiGraph.from_edges(2, [(0, 1)])
        result = decrease_es_computation(graph, 0, theta=1, rng=0)
        assert result.best_vertex(exclude={0, 1}) == -1

    def test_isolated_source(self):
        graph = DiGraph(3)
        result = decrease_es_computation(graph, 0, theta=5, rng=0)
        assert result.spread == 1.0
        assert np.all(result.delta == 0.0)


class TestWithTriggeringSampler:
    """Algorithm 2 over LT triggering draws (Section V-E plumbing)."""

    def test_lt_two_vertex_closed_form(self):
        from repro.models import LinearThresholdSampler

        graph = DiGraph.from_edges(2, [(0, 1, 0.3)])
        sampler = LinearThresholdSampler(graph, rng=0)
        result = decrease_es_computation(sampler, 0, theta=8000)
        # LT: vertex 1 keeps its single in-edge with probability 0.3
        assert result.spread == pytest.approx(1.3, abs=0.03)
        assert result.delta[1] == pytest.approx(0.3, abs=0.03)

    def test_lt_competition_between_in_edges(self):
        from repro.models import LinearThresholdSampler

        # vertex 2 has two in-edges of weight 0.5; vertex 1 is only
        # reachable via 0 -> 1 (weight 1.0)
        graph = DiGraph.from_edges(
            3, [(0, 1, 1.0), (0, 2, 0.5), (1, 2, 0.5)]
        )
        sampler = LinearThresholdSampler(graph, rng=1)
        result = decrease_es_computation(sampler, 0, theta=8000)
        # vertex 2 always keeps exactly one in-edge; both lead back to
        # the source's component, so it is always reachable
        assert result.spread == pytest.approx(3.0, abs=0.01)
        # blocking 1 severs 2 only when 2 picked the 1 -> 2 edge (p=.5)
        assert result.delta[1] == pytest.approx(1.5, abs=0.05)
