"""Unit tests for sample-size theory and the sampled-spread estimator."""

import math
import random

import pytest

from repro.datasets import figure1_graph, figure1_seed
from repro.graph import DiGraph, reachable_set_adj
from repro.sampling import (
    chernoff_failure_probability,
    estimate_spread_sampled,
    ICSampler,
    required_samples,
)

from .conftest import random_digraph


class TestRequiredSamples:
    def test_formula_value(self):
        # theta >= l (2 + eps) n ln n / (eps^2 OPT)
        n, eps, opt, exponent = 100, 0.5, 2.0, 1.0
        expected = math.ceil(
            exponent * (2 + eps) * n * math.log(n) / (eps * eps * opt)
        )
        assert required_samples(n, eps, opt, exponent) == expected

    def test_tighter_epsilon_needs_more_samples(self):
        assert required_samples(1000, 0.05, 1.0) > required_samples(
            1000, 0.2, 1.0
        )

    def test_larger_opt_needs_fewer_samples(self):
        assert required_samples(1000, 0.1, 10.0) < required_samples(
            1000, 0.1, 1.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            required_samples(1, 0.1, 1.0)
        with pytest.raises(ValueError):
            required_samples(100, 0.0, 1.0)
        with pytest.raises(ValueError):
            required_samples(100, 0.1, 0.0)


class TestChernoffBound:
    def test_decreases_with_theta(self):
        small = chernoff_failure_probability(100, 0.2, 5.0, 100)
        large = chernoff_failure_probability(100, 0.2, 5.0, 10000)
        assert large < small

    def test_capped_at_one(self):
        assert chernoff_failure_probability(10**6, 0.01, 0.001, 1) == 1.0

    def test_theorem5_sample_count_meets_confidence(self):
        n, eps, opt, exponent = 200, 0.3, 2.0, 1.0
        theta = required_samples(n, eps, opt, exponent)
        bound = chernoff_failure_probability(n, eps, opt, theta)
        # the 2x in our two-sided bound keeps us within 2 * n^-l
        assert bound <= 2.0 * n ** (-exponent) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            chernoff_failure_probability(100, 0.1, 1.0, 0)


class TestEstimateSpreadSampled:
    def test_matches_exact_on_toy_graph(self):
        estimate = estimate_spread_sampled(
            figure1_graph(), [figure1_seed], theta=20000, rng=0
        )
        assert estimate.mean == pytest.approx(7.66, abs=0.1)
        low, high = estimate.confidence_interval()
        assert low < 7.66 < high

    def test_deterministic_graph_has_zero_error(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        estimate = estimate_spread_sampled(graph, [0], theta=50, rng=1)
        assert estimate.mean == 3.0
        assert estimate.std_error == 0.0

    def test_multiple_seeds_joint_reachability(self):
        graph = DiGraph.from_edges(4, [(0, 1), (2, 3)])
        estimate = estimate_spread_sampled(graph, [0, 2], theta=10, rng=2)
        assert estimate.mean == 4.0

    def test_blocking_reduces_estimate(self):
        graph = figure1_graph()
        blocked = estimate_spread_sampled(
            graph, [figure1_seed], theta=4000, rng=3, blocked=[4]
        )
        assert blocked.mean == pytest.approx(3.0, abs=0.05)

    def test_matches_per_sample_reachability(self):
        """The engine's reach counts equal the dict-adjacency search
        they replaced, bit for bit, on the same draws."""
        graph = random_digraph(
            30, 0.1, random.Random(5), prob_choices=(0.3, 0.7)
        )
        seeds, blocked = [0, 4, 4], [7]
        estimate = estimate_spread_sampled(
            graph, seeds, theta=60, rng=9, blocked=blocked
        )
        sampler = ICSampler(graph, 9)
        sampler.block(blocked)
        counts = []
        for _ in range(60):
            succ = sampler.sample_adjacency()
            counts.append(
                len(set().union(*(reachable_set_adj(succ, s) for s in seeds)))
            )
        mean = sum(counts) / 60
        variance = sum(c * c for c in counts) / 60 - mean * mean
        assert estimate.mean == mean
        assert estimate.std_error == math.sqrt(max(0.0, variance) / 60)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            estimate_spread_sampled(DiGraph(1), [0], theta=0)

    def test_out_of_range_ids(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(IndexError):
            estimate_spread_sampled(graph, [7], theta=5, rng=0)
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                estimate_spread_sampled(
                    graph, [0], theta=5, rng=0, blocked=[bad]
                )
