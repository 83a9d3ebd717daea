"""Unit tests for the sample-reuse (common random numbers) greedy."""

import pytest

from repro.core import advanced_greedy, static_sample_greedy
from repro.datasets import figure1_graph, figure1_seed, V
from repro.graph import DiGraph
from repro.models import assign_weighted_cascade, LinearThresholdSampler
from repro.spread import exact_expected_spread


class TestToyGraph:
    def test_budget_one_matches_ag(self):
        result = static_sample_greedy(
            figure1_graph(), [figure1_seed], 1, theta=2000, rng=0
        )
        assert result.blockers == [V(5)]

    def test_budget_two_quality(self):
        result = static_sample_greedy(
            figure1_graph(), [figure1_seed], 2, theta=2000, rng=1
        )
        spread = exact_expected_spread(
            figure1_graph(), [figure1_seed], blocked=result.blockers
        )
        assert spread == pytest.approx(2.0, abs=0.01)

    def test_estimated_spread_tracks_exact(self):
        result = static_sample_greedy(
            figure1_graph(), [figure1_seed], 1, theta=4000, rng=2
        )
        assert result.estimated_spread == pytest.approx(3.0, abs=0.15)


class TestDeterminismAndTraces:
    def test_same_rng_same_trajectory(self):
        graph = figure1_graph()
        a = static_sample_greedy(graph, [figure1_seed], 3, theta=200, rng=7)
        b = static_sample_greedy(graph, [figure1_seed], 3, theta=200, rng=7)
        assert a.blockers == b.blockers
        assert a.round_spreads == b.round_spreads

    def test_round_traces_consistent(self):
        result = static_sample_greedy(
            figure1_graph(), [figure1_seed], 3, theta=300, rng=3
        )
        assert len(result.round_deltas) == len(result.blockers)
        assert result.round_spreads == sorted(
            result.round_spreads, reverse=True
        )

    def test_budget_zero_reports_spread(self):
        result = static_sample_greedy(
            figure1_graph(), [figure1_seed], 0, theta=2000, rng=4
        )
        assert result.blockers == []
        assert result.estimated_spread == pytest.approx(7.66, abs=0.2)

    def test_stops_when_nothing_left(self):
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        result = static_sample_greedy(graph, [0], 5, theta=50, rng=5)
        assert result.blockers == [1]


class TestCompatibility:
    def test_multi_seed(self):
        graph = DiGraph.from_edges(
            6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]
        )
        result = static_sample_greedy(graph, [0, 1], 1, theta=200, rng=6)
        assert result.blockers == [2]

    def test_comparable_quality_to_ag_on_random_graph(self):
        from repro.graph import directed_scale_free
        from repro.models import assign_constant

        graph = assign_constant(
            directed_scale_free(120, 700, rng=8), 0.15
        )
        ag = advanced_greedy(graph, [0], 8, theta=300, rng=9)
        static = static_sample_greedy(graph, [0], 8, theta=300, rng=10)
        from repro.spread import MonteCarloEngine

        ag_spread = MonteCarloEngine(graph, 11).expected_spread(
            [0], 3000, blocked=ag.blockers
        )
        st_spread = MonteCarloEngine(graph, 11).expected_spread(
            [0], 3000, blocked=static.blockers
        )
        # sample reuse should not cost more than ~15% quality here
        assert st_spread <= ag_spread * 1.15 + 0.5

    def test_triggering_sampler_factory(self):
        graph = assign_weighted_cascade(
            DiGraph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        )
        result = static_sample_greedy(
            graph, [0], 2, theta=300, rng=12,
            sampler_factory=lambda g, rng: LinearThresholdSampler(g, rng),
        )
        assert len(result.blockers) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            static_sample_greedy(DiGraph(2), [0], -1)
        with pytest.raises(ValueError):
            static_sample_greedy(DiGraph(2), [0], 1, theta=0)
