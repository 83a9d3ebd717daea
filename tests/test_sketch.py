"""Sketch-index backend (engine/sketch.py) and sketch selection tests.

Cross-validates the dominator-subtree estimator against the exact
possible-world enumeration and the vectorized Monte-Carlo backend on
the Figure 1 toy graph (where exact computation is tractable), pins
down the determinism guarantees of the chunk-seeded sample pool, and
checks that the greedy solvers' selection over a sketch (one gain
sweep per round) agrees with their exhaustive loops on common random
worlds.
"""

import numpy as np
import pytest

from repro.bench import pick_seeds, prepare_graph
from repro.core import (
    advanced_greedy,
    baseline_greedy,
    greedy_replace,
    static_sample_greedy,
)
from repro.core.advanced_greedy import selects_through_sketch
from repro.datasets import load_dataset
from repro.datasets.toy import figure1_graph, figure1_seed, V
from repro.engine import (
    build_evaluator,
    EngineSpec,
    SketchIndex,
    TreeBuilder,
)
from repro.engine.pool import SamplePool
from repro.engine.sketch import _MAX_VIEWS
from repro.graph import barabasi_albert, CSRGraph
from repro.models import assign_weighted_cascade
from repro.sampling import ICSampler, required_samples, resolve_theta
from repro.spread.exact import exact_expected_spread

from .conftest import legacy_sample_trees

EPS = 0.3  # Theorem-5 relative error targeted by the cross-validation


@pytest.fixture
def toy():
    return figure1_graph()


class TestCrossValidation:
    """Sketch, vectorized MC and exact agree within the Theorem-5 eps."""

    def test_unblocked_spread_within_epsilon(self, toy):
        exact = exact_expected_spread(toy, [figure1_seed])
        assert exact == pytest.approx(7.66)
        theta = required_samples(toy.n, EPS, opt_lower_bound=exact)
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=11))
        vec = build_evaluator(toy, EngineSpec(engine="vectorized", seed=11))
        assert sketch.expected_spread([figure1_seed], theta) == pytest.approx(
            exact, rel=EPS
        )
        assert vec.expected_spread([figure1_seed], theta) == pytest.approx(
            exact, rel=EPS
        )

    def test_blocked_spread_within_epsilon(self, toy):
        blocked = [V(5)]
        exact = exact_expected_spread(toy, [figure1_seed], blocked=blocked)
        assert exact == pytest.approx(3.0)
        theta = required_samples(toy.n, EPS, opt_lower_bound=exact)
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=11))
        vec = build_evaluator(toy, EngineSpec(engine="vectorized", seed=11))
        estimate = sketch.expected_spread([figure1_seed], theta, blocked)
        assert estimate == pytest.approx(exact, rel=EPS)
        estimate = vec.expected_spread([figure1_seed], theta, blocked)
        assert estimate == pytest.approx(exact, rel=EPS)

    def test_marginal_gain_is_exact_spread_difference(self, toy):
        # Theorem 6: on the *same* sampled worlds the subtree size is
        # exactly the blocked-off vertex count, so the identity holds
        # to float precision, not just statistically
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=11))
        theta = 120
        for v in (V(2), V(4), V(5), V(9)):
            gain = sketch.marginal_gain(v, [figure1_seed], theta)
            before = sketch.expected_spread([figure1_seed], theta)
            after = sketch.expected_spread([figure1_seed], theta, [v])
            assert gain == pytest.approx(before - after, abs=1e-9)

    def test_decrease_estimates_match_marginal_gains(self, toy):
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=11))
        theta = 90
        sweep = sketch.decrease_estimates([figure1_seed], theta)
        assert sweep.shape == (toy.n,)
        for v in range(toy.n):
            if v == figure1_seed:
                continue
            gain = sketch.marginal_gain(v, [figure1_seed], theta)
            assert sweep[v] == pytest.approx(gain, abs=1e-12)

    def test_matches_pooled_backend_on_shared_worlds(self, toy):
        # Lemma 1 two ways: reachability count (pooled) vs dominator
        # tree size (sketch) over the *same* sample pool — identical
        pool = SamplePool(toy, rng=5)
        sketch = build_evaluator(toy, EngineSpec(engine="sketch"), pool=pool)
        pooled = build_evaluator(toy, EngineSpec(engine="pooled"), pool=pool)
        for blocked in ([], [V(5)], [V(2), V(4)]):
            a = sketch.expected_spread([figure1_seed], 80, blocked)
            b = pooled.expected_spread([figure1_seed], 80, blocked)
            assert a == b

    def test_multi_seed_joint_reachability(self, toy):
        pool = SamplePool(toy, rng=5)
        sketch = build_evaluator(toy, EngineSpec(engine="sketch"), pool=pool)
        pooled = build_evaluator(toy, EngineSpec(engine="pooled"), pool=pool)
        seeds = [figure1_seed, V(9)]
        assert sketch.expected_spread(seeds, 80) == pooled.expected_spread(
            seeds, 80
        )


class TestArrayNativeBuild:
    """The batched CSR build path vs the legacy per-sample Python path.

    The refactor's compatibility bar: blocker selections and spread
    estimates must stay bit-identical at fixed seeds, which reduces to
    per-sample dominator payloads (and hence the aggregated arrays)
    being identical between the two construction pipelines.
    """

    @pytest.mark.parametrize(
        "blocked", [frozenset(), frozenset({V(5)}), frozenset({V(2), V(4)})]
    )
    def test_trees_match_legacy_python_build(self, toy, blocked):
        csr = CSRGraph(toy)
        pool = SamplePool(csr, rng=17)
        batch = pool.get(120)
        seeds = (figure1_seed,)
        legacy = legacy_sample_trees(csr, batch, seeds, blocked)
        new = TreeBuilder(csr).build(
            batch, range(batch.theta), seeds, sorted(blocked)
        )
        for (l_order, l_sizes), (n_order, n_sizes) in zip(legacy, new):
            assert np.array_equal(l_order, n_order)
            assert np.array_equal(l_sizes, n_sizes)

    def test_trees_match_legacy_on_wc_graph(self):
        # a mid-size weighted-cascade graph: multi-seed virtual root,
        # real merges in the dominator tree, probabilistic reachability
        graph = assign_weighted_cascade(barabasi_albert(300, 3, rng=5))
        csr = CSRGraph(graph)
        pool = SamplePool(csr, rng=5)
        batch = pool.get(60)
        seeds = (3, 41, 250)
        for blocked in (frozenset(), frozenset({7, 80, 123})):
            legacy = legacy_sample_trees(csr, batch, seeds, blocked)
            new = TreeBuilder(csr).build(
                batch, range(batch.theta), seeds, sorted(blocked)
            )
            for (l_order, l_sizes), (n_order, n_sizes) in zip(legacy, new):
                assert np.array_equal(l_order, n_order)
                assert np.array_equal(l_sizes, n_sizes)

    def test_sketch_aggregates_match_legacy_aggregation(self, toy):
        # the view's delta_sum/spread_sum are exact integer sums in
        # float64, so the refactor must reproduce them bit-for-bit
        csr = CSRGraph(toy)
        pool = SamplePool(csr, rng=9)
        theta = 100
        sketch = SketchIndex(pool)
        sweep = sketch.decrease_estimates([figure1_seed], theta)
        spread = sketch.expected_spread([figure1_seed], theta)
        legacy = legacy_sample_trees(
            csr, pool.get(theta), (figure1_seed,)
        )
        delta = np.zeros(csr.n + 1, dtype=np.float64)
        total = 0
        for order, sizes in legacy:
            total += order.shape[0] - 1
            np.add.at(
                delta, order[1:], sizes[1:].astype(np.float64)
            )
        assert spread == total / theta
        assert np.array_equal(sweep, delta[: csr.n] / theta)

    def test_blocked_seed_matches_legacy_build(self, toy):
        # the legacy dict path filtered blocked vertices out of the
        # virtual root's target list too; a blocked seed must not stay
        # reachable through the super-source (SketchIndex forbids the
        # combination outright, but the public TreeBuilder API must
        # still mirror the legacy semantics)
        csr = CSRGraph(toy)
        pool = SamplePool(csr, rng=21)
        batch = pool.get(30)
        seeds = (figure1_seed, V(9))
        blocked = frozenset({V(9), V(5)})
        legacy = legacy_sample_trees(csr, batch, seeds, blocked)
        new = TreeBuilder(csr).build(
            batch, range(batch.theta), seeds, sorted(blocked)
        )
        for (l_order, l_sizes), (n_order, n_sizes) in zip(legacy, new):
            assert np.array_equal(l_order, n_order)
            assert np.array_equal(l_sizes, n_sizes)
            assert V(9) not in n_order

    def test_tree_bytes_gauge(self, toy):
        # the gauge is the sum over every cached view, and LRU eviction
        # of a view gives its bytes back
        sketch = SketchIndex(SamplePool(toy, rng=13))
        assert sketch.stats.tree_bytes == 0

        def resident():
            return sum(
                view._arena_nbytes() + view._postings_nbytes()
                for view in sketch._views.values()
            )

        for seed in range(_MAX_VIEWS + 2):
            sketch.expected_spread([seed], 80)
            assert sketch.stats.tree_bytes == resident() > 0
            assert sketch.nbytes == sketch.stats.tree_bytes
        assert len(sketch._views) == _MAX_VIEWS
        sketch.close()
        assert sketch.stats.tree_bytes == 0

    def test_arena_bytes_gauge(self, toy):
        sketch = SketchIndex(SamplePool(toy, rng=13))
        sketch.expected_spread([figure1_seed], 80)
        view = next(iter(sketch._views.values()))
        arena = view._arena_nbytes()
        postings = view._postings_nbytes()
        assert arena > 0 and postings > 0
        assert sketch.stats.arena_bytes == arena
        assert sketch.stats.postings_bytes == postings
        assert sketch.stats.tree_bytes == arena + postings
        assert sketch.nbytes == arena + postings
        # rebases re-sync the gauges to the live arrays
        sketch.expected_spread([figure1_seed], 80, [V(5)])
        assert sketch.stats.arena_bytes == view._arena_nbytes()
        assert sketch.stats.tree_bytes == (
            view._arena_nbytes() + view._postings_nbytes()
        )
        sketch.close()
        assert sketch.stats.tree_bytes == 0
        assert sketch.stats.arena_bytes == 0
        assert sketch.stats.postings_bytes == 0


class TestDeterminism:
    def test_bit_identical_across_theta_request_chunking(self, toy):
        # the pool is chunk-seeded: the first theta samples are the
        # same arrays whether requested at once or grown in stages
        direct = SketchIndex(SamplePool(toy, rng=5))
        staged = SketchIndex(SamplePool(toy, rng=5))
        for theta in (17, 60, 120):
            staged.expected_spread([figure1_seed], theta)
        a = direct.expected_spread([figure1_seed], 120)
        b = staged.expected_spread([figure1_seed], 120)
        assert a == b
        assert np.array_equal(
            direct.decrease_estimates([figure1_seed], 120),
            staged.decrease_estimates([figure1_seed], 120),
        )

    def test_fixed_seed_reproducible(self, toy):
        a = SketchIndex(SamplePool(toy, rng=9)).expected_spread([figure1_seed], 70)
        b = SketchIndex(SamplePool(toy, rng=9)).expected_spread([figure1_seed], 70)
        assert a == b

    def test_solver_results_reproducible(self, toy):
        runs = [
            advanced_greedy(
                toy,
                [figure1_seed],
                2,
                theta=100,
                evaluator=build_evaluator(
                    toy, EngineSpec(engine="sketch", seed=13)
                ),
            )
            for _ in range(2)
        ]
        assert runs[0].blockers == runs[1].blockers
        assert runs[0].estimated_spread == runs[1].estimated_spread


class TestLazySelection:
    def test_supports_marginal_gain_detection(self, toy):
        # the one dispatch rule: an evaluator that answers the gain
        # sweep selects through it
        sketch = build_evaluator(toy, EngineSpec(engine="sketch"))
        vectorized = build_evaluator(toy, EngineSpec(engine="vectorized"))
        assert selects_through_sketch(sketch)
        assert not selects_through_sketch(vectorized)
        assert not selects_through_sketch(None)

    def test_lazy_equals_eager_baseline_greedy_on_sketch_worlds(self, toy):
        email = prepare_graph(load_dataset("email-core"), "wc")
        cases = [
            (toy, [figure1_seed], 3, 2, None),
            # 702's gain grows past 948's once 176 is blocked (IMIN is
            # not submodular), so stale gain bounds would pick 948
            (
                email, pick_seeds(email, 5, rng=7), 7, 5,
                [300, 958, 176, 948, 702],
            ),
        ]
        for graph, seeds, seed, budget, candidates in cases:
            sketch = build_evaluator(
                graph, EngineSpec(engine="sketch", seed=seed)
            )

            class SpreadOnly:
                # the sketch's worlds without its gain sweep, so BG
                # runs its exhaustive loop on them
                csr = sketch.csr
                expected_spread = staticmethod(sketch.expected_spread)

            lazy = baseline_greedy(
                graph, seeds, budget, rounds=200, candidates=candidates,
                evaluator=sketch,
            )
            eager = baseline_greedy(
                graph, seeds, budget, rounds=200, candidates=candidates,
                evaluator=SpreadOnly(),
            )
            assert lazy.blockers == eager.blockers
            assert lazy.estimated_spread == pytest.approx(
                eager.estimated_spread, abs=1e-9
            )
            assert lazy.evaluations <= eager.evaluations

    def test_table3_budget1_blocks_v5(self, toy):
        # Example 1 / Table III: at budget 1 the best blocker is v5,
        # leaving expected spread 3
        for solver in (advanced_greedy, static_sample_greedy):
            result = solver(
                toy,
                [figure1_seed],
                1,
                theta=300,
                evaluator=build_evaluator(
                    toy, EngineSpec(engine="sketch", seed=7)
                ),
            )
            assert result.blockers == [V(5)]
            assert result.estimated_spread == pytest.approx(3.0, abs=0.2)
        result = greedy_replace(
            toy,
            [figure1_seed],
            1,
            theta=300,
            evaluator=build_evaluator(
                toy, EngineSpec(engine="sketch", seed=7)
            ),
        )
        assert result.blockers == [V(5)]
        assert result.estimated_spread == pytest.approx(3.0, abs=0.2)

    def test_table3_budget2_greedy_replace_finds_out_neighbours(self, toy):
        # Table III: blocking {v2, v4} leaves spread 1 — GR's
        # replacement phase finds it, plain greedy does not
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=7))
        gr = greedy_replace(
            toy, [figure1_seed], 2, theta=300, evaluator=sketch
        )
        assert sorted(gr.blockers) == [V(2), V(4)]
        assert gr.estimated_spread == pytest.approx(1.0, abs=1e-9)
        ag = advanced_greedy(
            toy, [figure1_seed], 2, theta=300, evaluator=sketch
        )
        assert gr.estimated_spread <= ag.estimated_spread

    def test_lazy_rejects_sampler_factory(self, toy):
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=7))
        with pytest.raises(ValueError, match="sampler_factory"):
            advanced_greedy(
                toy,
                [figure1_seed],
                1,
                evaluator=sketch,
                sampler_factory=lambda graph, rng: ICSampler(graph, rng),
            )

    def test_budget_zero(self, toy):
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=7))
        result = advanced_greedy(
            toy, [figure1_seed], 0, theta=100, evaluator=sketch
        )
        assert result.blockers == []
        assert result.estimated_spread == pytest.approx(
            sketch.expected_spread([figure1_seed], 100)
        )


class TestGuards:
    def test_seed_cannot_be_blocked(self, toy):
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=7))
        with pytest.raises(ValueError, match="cannot be blocked"):
            sketch.expected_spread([figure1_seed], 50, [figure1_seed])

    def test_seed_out_of_range(self, toy):
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=7))
        with pytest.raises(IndexError):
            sketch.expected_spread([toy.n], 50)

    def test_theta_must_be_positive(self, toy):
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=7))
        with pytest.raises(ValueError, match="theta"):
            sketch.expected_spread([figure1_seed], 0)
        with pytest.raises(ValueError, match="seed"):
            sketch.expected_spread([], 50)

    def test_stats_track_incremental_rebase(self, toy):
        sketch = build_evaluator(toy, EngineSpec(engine="sketch", seed=7))
        theta = 100
        sketch.expected_spread([figure1_seed], theta)
        assert sketch.stats.trees_built == theta
        # v8 is reachable only through probabilistic edges, so blocking
        # it leaves the samples where it never activated untouched
        sketch.expected_spread([figure1_seed], theta, [V(8)])
        assert sketch.stats.samples_skipped > 0
        assert sketch.stats.trees_built < 2 * theta


class TestResolveTheta:
    def test_explicit_theta_wins(self):
        assert resolve_theta(100, theta=42) == 42

    def test_epsilon_maps_through_required_samples(self):
        expected = required_samples(100, 0.2, 1.0, confidence_exponent=2.0)
        assert resolve_theta(100, epsilon=0.2, ell=2.0) == expected

    def test_max_theta_caps_the_bound(self):
        assert resolve_theta(100, epsilon=0.1, max_theta=500) == 500

    def test_conflicting_arguments_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            resolve_theta(100, theta=10, epsilon=0.1)
        with pytest.raises(ValueError):
            resolve_theta(100)
        with pytest.raises(ValueError):
            resolve_theta(100, theta=0)
