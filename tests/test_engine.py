"""Tests for the spread-evaluation engine (``repro.engine``).

Statistical parity: every backend estimates Definition 3's
``E(S, G[V \\ blocked])``, so on the Figure 1 toy graph each must agree
with the closed-form ``exact_expected_spread`` (7.66, Example 1) and
with the scalar reference engine within Monte-Carlo tolerance.
Determinism: fixed seeds must reproduce results bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import figure1_graph, figure1_seed
from repro.engine import (
    BACKENDS,
    batch_spread,
    build_evaluator,
    EngineSpec,
    ragged_arange,
    SamplePool,
    SpreadEvaluator,
    VectorizedEvaluator,
)
from repro.graph import DiGraph
from repro.spread import exact_expected_spread, MonteCarloEngine

EXACT = 7.66  # Example 1's expected spread of the Figure 1 graph
ROUNDS = 4000
TOL = 0.25  # ~5 standard errors at the toy graph's spread variance


@pytest.fixture(scope="module")
def toy():
    return figure1_graph()


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
class TestKernels:
    def test_ragged_arange(self):
        out = ragged_arange(np.array([2, 0, 3, 1]))
        assert out.tolist() == [0, 1, 0, 1, 2, 0]
        assert ragged_arange(np.zeros(0, dtype=np.int64)).size == 0

    def test_batch_cascades_shape_and_range(self, toy):
        spread = batch_spread(toy, [figure1_seed], 100, rng=1)
        assert 1 <= spread <= toy.n  # the seed always counts

    def test_small_batch_sizes_partition_rounds(self, toy):
        # 2500 rounds cross two 1024-cascade batch windows; with p=1
        # edges every round activates all 3 vertices, so a window that
        # dropped or repeated rounds would move the average off 3
        graph = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert batch_spread(graph, [0], 2500, rng=5) == 3.0
        spread = batch_spread(toy, [figure1_seed], 2500, rng=5)
        assert abs(spread - EXACT) < TOL

    def test_blocked_seed_rejected(self, toy):
        with pytest.raises(ValueError):
            batch_spread(toy, [figure1_seed], 10, rng=0,
                         blocked=[figure1_seed])

    def test_rounds_must_be_positive(self, toy):
        with pytest.raises(ValueError):
            batch_spread(toy, [figure1_seed], 0, rng=0)

    def test_deterministic_edge_probabilities(self):
        # p=1 edges always fire, p=0 never: exact spread regardless of rng
        graph = DiGraph.from_edges(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 0.0)]
        )
        assert batch_spread(graph, [0], 50) == 3.0


# ----------------------------------------------------------------------
# statistical parity across backends
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_exact_value(self, toy, backend):
        evaluator = build_evaluator(
            toy, EngineSpec(engine=backend, seed=7)
        )
        try:
            estimate = evaluator.expected_spread([figure1_seed], ROUNDS)
        finally:
            close = getattr(evaluator, "close", None)
            if close:
                close()
        assert estimate == pytest.approx(EXACT, abs=TOL)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_exact_value_blocked(self, toy, backend):
        blocked = [2]  # v3: on the toy graph's dominant path
        expected = exact_expected_spread(
            toy, [figure1_seed], blocked=blocked
        )
        evaluator = build_evaluator(
            toy, EngineSpec(engine=backend, seed=11)
        )
        try:
            estimate = evaluator.expected_spread(
                [figure1_seed], ROUNDS, blocked
            )
        finally:
            close = getattr(evaluator, "close", None)
            if close:
                close()
        assert estimate == pytest.approx(expected, abs=TOL)

    def test_backends_agree_with_scalar_reference(self, toy):
        reference = MonteCarloEngine(toy, 5).expected_spread(
            [figure1_seed], ROUNDS
        )
        vectorized = VectorizedEvaluator(toy, 5).expected_spread(
            [figure1_seed], ROUNDS
        )
        assert vectorized == pytest.approx(reference, abs=2 * TOL)

    def test_protocol_runtime_checkable(self, toy):
        assert isinstance(MonteCarloEngine(toy), SpreadEvaluator)
        assert isinstance(VectorizedEvaluator(toy), SpreadEvaluator)
        assert isinstance(SamplePool(toy), SpreadEvaluator)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_vectorized_fixed_seed(self, toy):
        a = VectorizedEvaluator(toy, 42).expected_spread([figure1_seed], 500)
        b = VectorizedEvaluator(toy, 42).expected_spread([figure1_seed], 500)
        assert a == b


# ----------------------------------------------------------------------
# the sample pool
# ----------------------------------------------------------------------
class TestSamplePool:
    def test_prefix_reuse_and_stats(self, toy):
        pool = SamplePool(toy, rng=3)
        first = pool.get(100)
        again = pool.get(60)
        grown = pool.get(150)
        assert pool.stats.hits == 1 and pool.stats.misses == 2
        assert pool.stats.generated == 150
        # prefix property: the first 60 samples are shared verbatim
        assert np.array_equal(again.offsets, first.offsets[:61])
        assert np.array_equal(
            grown.positions[: first.offsets[100]], first.positions
        )

    def test_sample_layout_consistent(self, toy):
        pool = SamplePool(toy, rng=1)
        batch = pool.get(50)
        assert batch.offsets[0] == 0
        assert batch.offsets[-1] == batch.positions.shape[0]
        alive = batch.alive_matrix(0, 50)
        assert alive.shape == (50, toy.m)
        assert alive.sum() == batch.positions.shape[0]
        # row t marks exactly sample t's surviving edges
        t = 17
        assert np.array_equal(np.flatnonzero(alive[t]),
                              np.sort(batch.surviving(t)))

    def test_disk_cache_roundtrip(self, toy, tmp_path):
        pool = SamplePool(toy, rng=5, cache_dir=tmp_path, cache_key="seed5")
        batch = pool.get(80)
        assert pool.stats.disk_saves == 1

        # a second pool (fresh process in spirit) attaches mmapped
        reloaded = SamplePool(toy, rng=5, cache_dir=tmp_path, cache_key="seed5")
        assert reloaded.stats.disk_loads == 1
        assert reloaded.theta == 80
        batch2 = reloaded.get(80)
        assert reloaded.stats.hits == 1 and reloaded.stats.misses == 0
        assert np.array_equal(np.asarray(batch2.offsets),
                              np.asarray(batch.offsets))
        assert np.array_equal(np.asarray(batch2.positions),
                              np.asarray(batch.positions))

    def test_disk_cache_disabled_without_seed_identity(self, toy, tmp_path):
        import numpy.random as npr

        pool = SamplePool(toy, rng=npr.default_rng(3), cache_dir=tmp_path)
        pool.get(10)
        assert pool.stats.disk_saves == 0
        assert list(tmp_path.iterdir()) == []

    def test_int_seed_alone_does_not_persist(self, toy, tmp_path):
        # a pool persists only under an explicit cache_key, the name
        # build_evaluator derives from EngineSpec.cache_key(stream)
        SamplePool(toy, rng=7, cache_dir=tmp_path).get(20)
        assert list(tmp_path.iterdir()) == []

    def test_pooled_evaluator_common_random_numbers(self, toy):
        evaluator = SamplePool(toy, rng=2)
        a = evaluator.expected_spread([figure1_seed], 300)
        b = evaluator.expected_spread([figure1_seed], 300)
        assert a == b  # identical worlds, identical estimate

    def test_growth_history_independent(self, toy):
        # sample i is a pure function of the seed: growing in one step
        # or in many yields bit-identical pools
        one_shot = SamplePool(toy, rng=9).get(120)
        stepwise_pool = SamplePool(toy, rng=9)
        for theta in (30, 70, 120):
            stepwise = stepwise_pool.get(theta)
        assert np.array_equal(stepwise.offsets, one_shot.offsets)
        assert np.array_equal(stepwise.positions, one_shot.positions)

    def test_attached_pool_grows_with_fresh_worlds(self, toy, tmp_path):
        # regression: continuing a disk-attached pool must not replay
        # the persisted prefix as "new" samples
        SamplePool(toy, rng=5, cache_dir=tmp_path, cache_key="seed5").get(50)
        attached = SamplePool(toy, rng=5, cache_dir=tmp_path, cache_key="seed5")
        grown = attached.get(100)
        fresh = SamplePool(toy, rng=5).get(100)
        assert np.array_equal(np.asarray(grown.offsets),
                              np.asarray(fresh.offsets))
        assert np.array_equal(np.asarray(grown.positions),
                              np.asarray(fresh.positions))


# ----------------------------------------------------------------------
# dependency injection into algorithms and harness
# ----------------------------------------------------------------------
class TestInjection:
    def test_baseline_greedy_default_unchanged(self, toy):
        from repro.core import baseline_greedy

        explicit = baseline_greedy(toy, [figure1_seed], 1, rounds=300, rng=9)
        again = baseline_greedy(toy, [figure1_seed], 1, rounds=300, rng=9)
        assert explicit.blockers == again.blockers
        assert explicit.estimated_spread == again.estimated_spread

    def test_baseline_greedy_with_vectorized_evaluator(self, toy):
        from repro.core import baseline_greedy

        evaluator = VectorizedEvaluator(toy, 9)
        result = baseline_greedy(
            toy, [figure1_seed], 1, rounds=600, evaluator=evaluator
        )
        assert len(result.blockers) == 1
        assert figure1_seed not in result.blockers
        assert result.estimated_spread < EXACT  # blocking helps

    def test_solve_imin_accepts_evaluator(self, toy):
        from repro.core import solve_imin

        evaluator = VectorizedEvaluator(toy, 4)
        result = solve_imin(
            toy, [figure1_seed], 2, algorithm="advanced-greedy",
            theta=400, rng=4, evaluator=evaluator,
        )
        assert len(result.blockers) <= 2
        assert result.estimated_spread == pytest.approx(
            exact_expected_spread(
                toy, [figure1_seed], blocked=result.blockers
            ),
            abs=3 * TOL,
        )

    def test_evaluate_spread_accepts_evaluator(self, toy):
        from repro.bench import evaluate_spread

        evaluator = VectorizedEvaluator(toy, 8)
        value = evaluate_spread(
            toy, [figure1_seed], [], rounds=ROUNDS, evaluator=evaluator
        )
        assert value == pytest.approx(EXACT, abs=TOL)

    def test_greedy_replace_evaluator_reestimates(self, toy):
        from repro.core import greedy_replace

        evaluator = VectorizedEvaluator(toy, 12)
        result = greedy_replace(
            toy, [figure1_seed], 2, theta=400, rng=12, evaluator=evaluator
        )
        assert result.estimated_spread == pytest.approx(
            exact_expected_spread(
                toy, [figure1_seed], blocked=result.blockers
            ),
            abs=3 * TOL,
        )


# ----------------------------------------------------------------------
# factory surface
# ----------------------------------------------------------------------
class TestFactory:
    def test_unknown_backend_rejected(self, toy):
        with pytest.raises(ValueError, match="unknown engine 'quantum'"):
            build_evaluator(toy, EngineSpec(engine="quantum"))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_factory_builds_protocol_instances(self, toy, backend):
        evaluator = build_evaluator(
            toy, EngineSpec(engine=backend, seed=0)
        )
        assert isinstance(evaluator, SpreadEvaluator)
        assert evaluator.csr.n == toy.n


class TestOutOfRangeIds:
    """Every backend rejects ids outside ``[0, n)`` with the sketch
    index's errors, instead of numpy wrapping ``-1`` onto vertex
    ``n - 1`` or a bare ``IndexError`` from an array lookup — and
    non-integer ids with GraphDelta's error, instead of reading
    ``1.7``, ``True`` or ``"1"`` as vertex 1 (or a bare ``TypeError``
    from the scalar engine's list lookup)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "seeds, blocked, error, message",
        [
            ([0], [-1], ValueError, r"blocked vertex -1 out of range \[0, 5\)"),
            ([0], [5], ValueError, r"blocked vertex 5 out of range \[0, 5\)"),
            ([-1], [], IndexError, "seed -1 is not a vertex"),
            ([5], [], IndexError, "seed 5 is not a vertex"),
            ([0], [1.7], ValueError, "vertex ids must be integers, got 1.7"),
            ([0], [True], ValueError, "vertex ids must be integers, got True"),
            ([0], ["1"], ValueError, "vertex ids must be integers, got '1'"),
            ([0.6], [], ValueError, "vertex ids must be integers, got 0.6"),
        ],
        ids=[
            "blocked-negative", "blocked-n", "seed-negative", "seed-n",
            "blocked-float", "blocked-bool", "blocked-str", "seed-float",
        ],
    )
    def test_rejected(self, backend, seeds, blocked, error, message):
        path = DiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with build_evaluator(
            path, EngineSpec(engine=backend, seed=1)
        ) as evaluator:
            with pytest.raises(error, match=message):
                evaluator.expected_spread(seeds, 10, blocked)
            assert evaluator.expected_spread([0], 10, [2]) == 2.0


class TestBuildEvaluator:
    """The ``build_evaluator`` factory shared by CLI and service."""

    def test_integer_seed_derives_stream(self, toy):
        def spec_stream(stream):
            return build_evaluator(
                toy, EngineSpec(engine="vectorized", seed=42), stream=stream
            )

        same = spec_stream(0).expected_spread([figure1_seed], 400)
        replay = spec_stream(0).expected_spread([figure1_seed], 400)
        other = spec_stream(1).expected_spread([figure1_seed], 400)
        assert same == replay  # same (seed, stream) replays exactly
        assert same != other  # different streams differ

    def test_matches_cli_seedsequence_derivation(self, toy):
        derived = build_evaluator(
            toy, EngineSpec(engine="vectorized", seed=7), stream=1
        )
        explicit = VectorizedEvaluator(
            toy, rng=np.random.default_rng(np.random.SeedSequence((7, 1)))
        )
        assert derived.expected_spread(
            [figure1_seed], 500
        ) == explicit.expected_spread([figure1_seed], 500)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_is_a_context_manager(self, toy, backend):
        with build_evaluator(
            toy, EngineSpec(engine=backend, seed=0)
        ) as evaluator:
            assert evaluator.expected_spread([figure1_seed], 50) > 0
        evaluator.close()  # idempotent after __exit__

    def test_integer_seed_keys_disk_cache(self, toy, tmp_path):
        spec = EngineSpec(engine="pooled", seed=5, cache_dir=tmp_path)
        first = build_evaluator(toy, spec, stream=0)
        first.expected_spread([figure1_seed], 40)
        assert first.stats.disk_saves == 1
        second = build_evaluator(toy, spec, stream=0)
        assert second.stats.disk_loads == 1
        # a different stream must not attach the stream-0 pool
        other = build_evaluator(toy, spec, stream=1)
        assert other.stats.disk_loads == 0


class TestExpectedSpreadMany:
    def test_matches_individual_calls_bitwise(self, toy):
        evaluator = SamplePool(toy, rng=11)
        seeds = [figure1_seed]
        blocked_sets = [[], [4], [1, 3], [4, 8], [2]]
        batched = evaluator.expected_spread_many(
            seeds, 300, blocked_sets
        )
        singles = [
            evaluator.expected_spread(seeds, 300, blocked)
            for blocked in blocked_sets
        ]
        assert batched == singles

    def test_empty_batch(self, toy):
        evaluator = SamplePool(toy, rng=11)
        assert evaluator.expected_spread_many([figure1_seed], 10, []) == []

    def test_rejects_nonpositive_rounds(self, toy):
        evaluator = SamplePool(toy, rng=11)
        with pytest.raises(ValueError):
            evaluator.expected_spread_many([figure1_seed], 0, [[]])

    def test_chunked_batch_still_matches(self, toy):
        # more rounds than one 1024-sample chunk, so the batched loop
        # crosses chunk windows
        rounds = 2500
        evaluator = SamplePool(toy, rng=2)
        batched = evaluator.expected_spread_many(
            [figure1_seed], rounds, [[], [4]]
        )
        singles = [
            evaluator.expected_spread([figure1_seed], rounds, blocked)
            for blocked in ([], [4])
        ]
        assert batched == singles
