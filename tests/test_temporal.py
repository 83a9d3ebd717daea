"""Unit tests for temporal cascade analysis."""

import numpy as np
import pytest

from repro.datasets import figure1_graph, figure1_seed, V
from repro.graph import DiGraph
from repro.spread import (
    cascade_timeline,
    containment_report,
    exact_expected_spread,
    expected_activation_curve,
)


def chain(n: int = 5) -> DiGraph:
    return DiGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestCascadeTimeline:
    def test_deterministic_chain_one_per_step(self):
        levels = cascade_timeline(chain(), [0], rng=0)
        assert levels == [[0], [1], [2], [3], [4]]

    def test_seeds_at_step_zero(self):
        levels = cascade_timeline(chain(), [0, 3], rng=0)
        assert sorted(levels[0]) == [0, 3]

    def test_blocked_vertex_stops_cascade(self):
        levels = cascade_timeline(chain(), [0], rng=0, blocked=[2])
        assert levels == [[0], [1]]

    def test_blocking_seed_rejected(self):
        with pytest.raises(ValueError):
            cascade_timeline(chain(), [0], blocked=[0])

    def test_zero_probability_cascade_dies_at_seed(self):
        graph = DiGraph.from_edges(2, [(0, 1, 0.0)])
        assert cascade_timeline(graph, [0], rng=0) == [[0]]

    def test_toy_graph_levels_match_paper_narrative(self):
        """Example 1: v2, v4 at step 1; v5 at step 2; v3, v6, v9 at 3."""
        graph = figure1_graph()
        # make the stochastic edges certain to fire by zeroing them out:
        # the certain part of the cascade is deterministic
        levels = cascade_timeline(graph, [figure1_seed], rng=0)
        assert sorted(levels[1]) == [V(2), V(4)]
        assert levels[2] == [V(5)]
        assert set(levels[3]) >= {V(3), V(6), V(9)}


class TestActivationCurve:
    def test_chain_curve_is_linear_then_flat(self):
        curve = expected_activation_curve(
            chain(), [0], rounds=5, rng=0, max_steps=8
        )
        assert curve.tolist() == [1, 2, 3, 4, 5, 5, 5, 5, 5]

    def test_converges_to_expected_spread(self):
        graph = figure1_graph()
        curve = expected_activation_curve(
            graph, [figure1_seed], rounds=8000, rng=1, max_steps=10
        )
        assert curve[-1] == pytest.approx(7.66, abs=0.1)
        assert curve[0] == 1.0

    def test_monotone_nondecreasing(self):
        graph = figure1_graph()
        curve = expected_activation_curve(
            graph, [figure1_seed], rounds=200, rng=2, max_steps=6
        )
        assert np.all(np.diff(curve) >= -1e-12)

    def test_blocked_curve_below_unblocked(self):
        graph = figure1_graph()
        full = expected_activation_curve(
            graph, [figure1_seed], rounds=2000, rng=3, max_steps=8
        )
        blocked = expected_activation_curve(
            graph, [figure1_seed], rounds=2000, rng=3, max_steps=8,
            blocked=[V(5)],
        )
        assert np.all(blocked <= full + 1e-9)
        assert blocked[-1] == pytest.approx(3.0, abs=0.05)

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            expected_activation_curve(chain(), [0], rounds=0)


class TestContainmentReport:
    def test_reduction_matches_exact(self):
        graph = figure1_graph()
        report = containment_report(
            graph, [figure1_seed], [V(5)], rounds=4000, rng=4, max_steps=10
        )
        exact_reduction = 1.0 - (
            exact_expected_spread(graph, [figure1_seed], blocked=[V(5)])
            / exact_expected_spread(graph, [figure1_seed])
        )
        assert report.final_reduction == pytest.approx(
            exact_reduction, abs=0.03
        )

    def test_divergence_step(self):
        graph = figure1_graph()
        # blocking v5 first bites at step 2 (v5 would activate then)
        report = containment_report(
            graph, [figure1_seed], [V(5)], rounds=1500, rng=5, max_steps=10
        )
        assert report.divergence_step == 2

    def test_no_divergence_when_blocking_nothing_useful(self):
        graph = DiGraph.from_edges(3, [(0, 1)])
        report = containment_report(
            graph, [0], [2], rounds=50, rng=6, max_steps=4
        )
        assert report.divergence_step == -1
        assert report.final_reduction == 0.0


def _timeline(graph, seeds, blocked):
    return cascade_timeline(graph, seeds, rng=0, blocked=blocked)


def _curve(graph, seeds, blocked):
    return expected_activation_curve(
        graph, seeds, rounds=5, rng=0, blocked=blocked, max_steps=4
    )


def _report(graph, seeds, blocked):
    return containment_report(graph, seeds, blocked, rounds=5, rng=0)


@pytest.mark.parametrize(
    "seeds, blocked, error, fragment",
    [
        ([-1], [], IndexError, "seed -1 is not a vertex"),
        ([9], [], IndexError, "seed 9 is not a vertex"),
        ([True], [], ValueError, "integers, got True"),
        ([0.5], [], ValueError, "integers, got 0.5"),
        ([figure1_seed], [9], ValueError, r"blocked vertex 9 out of range"),
    ],
    ids=["seed-negative", "seed-n", "seed-bool", "seed-float", "blocked-n"],
)
@pytest.mark.parametrize(
    "run", [_timeline, _curve, _report], ids=["timeline", "curve", "report"]
)
def test_timelines_check_ids_like_the_engine(
    run, seeds, blocked, error, fragment
):
    """Every timeline runs on the scalar engine, so a bad id raises its
    error instead of wrapping, being ignored or reading as vertex 1."""
    graph = figure1_graph()
    assert graph.n == 9
    with pytest.raises(error, match=fragment):
        run(graph, seeds, blocked)
