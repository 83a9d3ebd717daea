"""Native kernels (repro.native): loader gating, caching, fallback,
the reach kernel against its aliveness-matrix fallback, and the coin
kernel against the chunked numpy draw."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.engine import reach_counts_from_alive, SamplePool
from repro.engine.pool import _thresholds
from repro.graph import barabasi_albert, CSRGraph, DiGraph, GraphDelta
from repro.models import assign_trivalency, assign_weighted_cascade
from repro.native import (
    native_build_available,
    native_cache_dir,
    native_reach_counts,
)
from repro.obs import global_registry


def test_cache_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "kern"))
    assert native_cache_dir() == tmp_path / "kern"


def test_cache_dir_default_is_per_user():
    assert "repro-native" in native_cache_dir().name


def test_disabled_env_gate(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert native._disabled()
    monkeypatch.setenv("REPRO_NATIVE", "1")
    assert not native._disabled()


def test_disabled_process_falls_back():
    # a fresh interpreter with REPRO_NATIVE=0 must report the kernels
    # unavailable and still build trees and draw samples through the
    # Python paths
    code = (
        "from repro.native import native_build_available, "
        "native_build_trees\n"
        "import numpy as np\n"
        "assert not native_build_available()\n"
        "assert native_build_trees(0, *([np.zeros(0, dtype=np.int64)] "
        "* 6), np.zeros(0, dtype=np.uint8)) is None\n"
        "from repro.native import native_reach_counts\n"
        "empty = np.zeros(0, dtype=np.int64)\n"
        "assert native_reach_counts(0, np.zeros(1, dtype=np.int64), "
        "empty, empty, np.zeros(1, dtype=np.int64), 0, empty, "
        "np.zeros(0, dtype=np.uint8)) is None\n"
        "from repro.native import native_draw_samples\n"
        "assert native_draw_samples(empty.view(np.uint64), "
        "empty.view(np.uint64), np.zeros(0, dtype=bool), "
        "np.zeros(1, dtype=np.int64), empty, 0, 3) is None\n"
        "from repro.engine import SamplePool\n"
        "from repro.graph import DiGraph\n"
        "pool = SamplePool(DiGraph.from_edges(3, [(0, 1), (1, 2)]), rng=1)\n"
        "assert pool.get(4).positions.tolist() == [0, 1] * 4\n"
        "print('fallback-ok')\n"
    )
    env = dict(os.environ, REPRO_NATIVE="0")
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "fallback-ok" in result.stdout


def test_compiled_object_is_cached():
    if not native_build_available():
        pytest.skip("no compiler on this host")
    cached = list(native_cache_dir().glob("lt_kernel-*.so"))
    assert cached, "expected a cached shared object after loading"


def test_kernel_empty_batch():
    if not native_build_available():
        pytest.skip("no compiler on this host")
    empty = np.zeros(0, dtype=np.int64)
    lengths, orders, sizes = native.native_build_trees(
        3,
        np.zeros(4, dtype=np.int64),
        empty,
        np.zeros(0, dtype=np.int32),
        np.zeros(1, dtype=np.int64),
        empty,
        empty,
        np.zeros(3, dtype=np.uint8),
    )
    assert lengths.shape[0] == 0
    assert orders.shape[0] == 0 and sizes.shape[0] == 0


def test_tree_wrapper_rejects_bad_windows(wc_setup):
    # a damaged pool must raise here, never reach the kernel
    if not native_build_available():
        pytest.skip("no compiler on this host")
    graph, csr, pool = wc_setup
    batch = pool.get(120)
    mask = np.zeros(csr.n, dtype=np.uint8)
    idx = np.arange(120, dtype=np.int64)
    seeds = np.asarray([0, 5])

    def build(**overrides):
        args = dict(
            n=csr.n, indptr=csr.indptr, edge_dst=csr.indices,
            positions=batch.positions, offsets=batch.offsets,
            sample_idx=idx, seeds=seeds, blocked_mask=mask,
        )
        args.update(overrides)
        return native.native_build_trees(**args)

    assert build()[0].shape == (120,)
    short = batch.positions[: batch.positions.shape[0] // 10]
    shifted = batch.offsets - 1
    for bad in (
        dict(positions=short),
        dict(offsets=shifted),
        dict(offsets=batch.offsets[::-1].copy()),
        dict(sample_idx=np.asarray([0, 120])),
        dict(sample_idx=np.asarray([-1])),
        dict(indptr=csr.indptr[:-1]),
        dict(blocked_mask=mask[:-1]),
    ):
        with pytest.raises(ValueError):
            build(**bad)
    for seed in (-1, csr.n):
        with pytest.raises(IndexError):
            build(seeds=np.asarray([0, seed]))


# ----------------------------------------------------------------------
# reach kernel: native counts == aliveness-matrix fallback, bit for bit
# ----------------------------------------------------------------------
needs_kernel = pytest.mark.skipif(
    not native_build_available(), reason="no compiled kernel on this host"
)


def assert_native_matches_fallback(
    evaluator, seeds, rounds, blocked_sets, monkeypatch
):
    """Per-sample counts and per-set estimates agree on both paths."""
    csr = evaluator.csr
    batch = evaluator.get(rounds)
    alive = batch.alive_matrix(0, rounds)
    for blocked in blocked_sets:
        mask = np.zeros(csr.n, dtype=np.uint8)
        mask[list(blocked)] = 1
        counts = native_reach_counts(
            csr.n, csr.indptr, csr.indices, batch.positions,
            batch.offsets, rounds, np.asarray(seeds, dtype=np.int64),
            mask,
        )
        reference = reach_counts_from_alive(csr, seeds, alive, blocked)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, reference)
    native_estimates = evaluator.expected_spread_many(
        seeds, rounds, blocked_sets
    )
    with monkeypatch.context() as patch:
        # the wrapper's "kernel unavailable" answer forces the fallback
        patch.setattr(
            "repro.engine.pool.native_reach_counts",
            lambda *args, **kwargs: None,
        )
        fallback_estimates = evaluator.expected_spread_many(
            seeds, rounds, blocked_sets
        )
    assert native_estimates == fallback_estimates
    return native_estimates


@needs_kernel
class TestReachKernel:
    @pytest.mark.parametrize(
        "blocked",
        [[], [3], [3, 9], [1, 7, 13], [2, 4, 6, 8], [10, 20, 30, 40, 50]],
    )
    def test_wc_graph_blocked_sets(self, wc_setup, blocked, monkeypatch):
        graph, csr, pool = wc_setup
        evaluator = pool
        assert_native_matches_fallback(
            evaluator, [0, 5, 17], 120, [blocked], monkeypatch
        )

    def test_duplicate_seeds_count_once(self, wc_setup, monkeypatch):
        graph, csr, pool = wc_setup
        evaluator = pool
        twice = assert_native_matches_fallback(
            evaluator, [5, 0, 5, 0], 120, [[], [7]], monkeypatch
        )
        assert twice == evaluator.expected_spread_many([5, 0], 120, [[], [7]])

    def test_seed_without_out_edges(self, monkeypatch):
        graph = DiGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 0.5
        )
        evaluator = SamplePool(graph, rng=4)
        sink_only = assert_native_matches_fallback(
            evaluator, [5], 50, [[], [3]], monkeypatch
        )
        assert sink_only == [1.0, 1.0]
        assert_native_matches_fallback(
            evaluator, [5, 0], 50, [[], [2], [1, 3]], monkeypatch
        )

    def test_rounds_below_pool_theta(self, wc_setup, monkeypatch):
        graph, csr, pool = wc_setup
        assert pool.theta == 120
        evaluator = pool
        assert_native_matches_fallback(
            evaluator, [0, 5], 37, [[], [11, 12]], monkeypatch
        )

    def test_memory_mapped_pool(self, wc_setup, tmp_path, monkeypatch):
        graph, csr, _ = wc_setup
        SamplePool(csr, rng=3, cache_dir=tmp_path, cache_key="seed3").get(80)
        attached = SamplePool(csr, rng=3, cache_dir=tmp_path, cache_key="seed3")
        assert attached.stats.disk_loads == 1
        assert isinstance(attached.get(80).positions, np.memmap)
        evaluator = attached
        assert_native_matches_fallback(
            evaluator, [0, 5, 17], 80, [[], [3, 9]], monkeypatch
        )

    def test_pool_after_delta(self, wc_setup, monkeypatch):
        graph, csr, _ = wc_setup
        evaluator = SamplePool(csr, rng=8)
        evaluator.get(90)
        edges = [
            (u, int(csr.indices[j]))
            for u in (0, 5, 9)
            for j in range(csr.indptr[u], csr.indptr[u] + 2)
        ]
        evaluator.apply_delta(GraphDelta(
            inserts=[(0, 399, 0.9), (399, 5, 0.9)],
            deletes=edges[:3],
            reweights=[(u, v, 1.0) for u, v in edges[3:]],
        ))
        assert evaluator.csr.m == csr.m - 1
        assert_native_matches_fallback(
            evaluator, [0, 5, 9], 90, [[], [399], [1, 2]], monkeypatch
        )

    def test_native_and_fallback_answers_are_counted(
        self, wc_setup, monkeypatch
    ):
        graph, csr, pool = wc_setup
        evaluator = pool

        def spread(blocked_sets):
            return evaluator.expected_spread_many([0], 20, blocked_sets)

        def fallback(blocked_sets):
            with monkeypatch.context() as patch:
                patch.setattr("repro.native._lib", False)
                return spread(blocked_sets)

        spread([[]])
        fallback([[]])  # both families exist before the reads below
        registry = global_registry()
        calls = registry.counter("repro_native_reach_calls_total")
        fallbacks = registry.counter("repro_native_reach_fallbacks_total")
        before = (calls.value, fallbacks.value)
        assert spread([[], [3], [4]]) == fallback([[], [3], [4]])
        assert calls.value == before[0] + 3  # one per blocked set
        assert fallbacks.value == before[1] + 1  # one per batch

    def test_wrapper_rejects_out_of_range_seeds(self, wc_setup):
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        mask = np.zeros(csr.n, dtype=np.uint8)
        for seed in (-1, csr.n):
            with pytest.raises(IndexError):
                native_reach_counts(
                    csr.n, csr.indptr, csr.indices, batch.positions,
                    batch.offsets, 120, np.asarray([0, seed]), mask,
                )
        with pytest.raises(ValueError):
            native_reach_counts(
                csr.n, csr.indptr, csr.indices, batch.positions,
                batch.offsets, 121, np.asarray([0]), mask,
            )


# ----------------------------------------------------------------------
# coin kernel: native draws == chunked numpy draws, bit for bit
# ----------------------------------------------------------------------
def numpy_draws(patch):
    """Force the numpy draw, as a host without the kernel would."""
    patch.setattr(
        "repro.engine.pool.native_draw_samples",
        lambda *args, **kwargs: None,
    )


def grown_pool(graph, steps, rng=5, cache_dir=None):
    """A pool grown through ``steps``, returned with its last batch."""
    pool = SamplePool(
        graph, rng=rng, cache_dir=cache_dir, cache_key=f"seed{rng}"
    )
    for theta in steps:
        batch = pool.get(theta)
    return pool, batch


def assert_same_samples(a, b):
    assert a.theta == b.theta
    assert a.offsets.dtype == b.offsets.dtype == np.int64
    assert a.positions.dtype == b.positions.dtype == np.int32
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.positions, b.positions)


def assert_draws_match(graph, steps, monkeypatch, rng=5):
    """Native and numpy pools grown through ``steps`` are identical."""
    _, native_batch = grown_pool(graph, steps, rng)
    with monkeypatch.context() as patch:
        numpy_draws(patch)
        _, numpy_batch = grown_pool(graph, steps, rng)
    assert_same_samples(native_batch, numpy_batch)
    return native_batch


def ba_graph(model):
    graph = barabasi_albert(300, 3, rng=2)
    if model == "wc":
        return assign_weighted_cascade(graph)
    return assign_trivalency(graph, rng=3)


@needs_kernel
class TestCoinKernel:
    @pytest.mark.parametrize("model", ["wc", "tr"])
    def test_models_one_shot_and_grown(self, model, monkeypatch):
        graph = ba_graph(model)
        one_shot = assert_draws_match(graph, [150], monkeypatch)
        grown = assert_draws_match(graph, [3, 40, 150], monkeypatch)
        assert_same_samples(one_shot, grown)
        assert one_shot.positions.shape[0] > 0

    def test_sure_and_never_edges(self, monkeypatch):
        probs = (1.0, 0.0, 0.5, 1.0 - 2.0**-53, 2.0**-64)
        edges = [
            (u, (u + k) % 40, probs[(u + k) % len(probs)])
            for u in range(40)
            for k in (1, 3, 7)
        ]
        graph = DiGraph.from_edges(40, edges)
        csr = CSRGraph(graph)
        assert _thresholds(csr.probs)[1].any()  # the sure mask is live
        batch = assert_draws_match(graph, [1, 60, 200], monkeypatch)
        hits = np.bincount(batch.positions, minlength=csr.m)
        assert (hits[csr.probs == 1.0] == 200).all()
        assert not hits[csr.probs == 0.0].any()

    def test_graph_without_edges(self, monkeypatch):
        batch = assert_draws_match(DiGraph(6), [1, 9], monkeypatch)
        assert np.array_equal(batch.offsets, np.zeros(10, dtype=np.int64))
        assert batch.positions.shape[0] == 0

    def test_one_shot_equals_growth_steps(self, monkeypatch):
        graph = ba_graph("wc")
        _, one_shot = grown_pool(graph, [1000])
        grown = assert_draws_match(graph, [1, 7, 300, 1000], monkeypatch)
        assert_same_samples(one_shot, grown)

    def test_grow_memory_mapped_pool(self, tmp_path, monkeypatch):
        graph = ba_graph("wc")
        with monkeypatch.context() as patch:
            numpy_draws(patch)
            grown_pool(graph, [40], cache_dir=tmp_path)
            _, reference = grown_pool(graph, [130])
        attached = SamplePool(graph, rng=5, cache_dir=tmp_path, cache_key="seed5")
        assert attached.stats.disk_loads == 1
        assert isinstance(attached.get(40).positions, np.memmap)
        assert_same_samples(attached.get(130), reference)
        # the grown pool was re-persisted: a third process attaches it
        again = SamplePool(graph, rng=5, cache_dir=tmp_path, cache_key="seed5")
        assert again.theta == 130
        assert_same_samples(again.get(130), reference)

    def test_grow_after_delta(self, monkeypatch):
        graph = ba_graph("wc")
        csr = CSRGraph(graph)
        edges = [
            (u, int(csr.indices[j]))
            for u in (0, 5, 9)
            for j in range(csr.indptr[u], csr.indptr[u] + 2)
        ]
        delta = GraphDelta(
            inserts=[(0, 299, 0.9), (299, 5, 1.0)],
            deletes=edges[:3],
            reweights=[(u, v, 0.0) for u, v in edges[3:]],
        )

        def patched_then_grown():
            pool = SamplePool(graph, rng=5)
            pool.get(60)
            pool.apply_delta(delta)
            return pool.get(170)

        native_batch = patched_then_grown()
        with monkeypatch.context() as patch:
            numpy_draws(patch)
            numpy_batch = patched_then_grown()
        assert_same_samples(native_batch, numpy_batch)
        # ... and both equal a cold draw over the mutated graph
        mutated = graph.copy()
        delta.apply_to(mutated)
        _, cold = grown_pool(mutated, [170])
        assert_same_samples(native_batch, cold)

    def test_draw_holds_no_hash_matrix(self):
        # beyond O(m) per-edge arrays, a draw allocates only the grown
        # pool: the numpy draw's (chunk x m) hash matrices peak at
        # ~12x the pool here
        pool = SamplePool(ba_graph("wc"), rng=5)
        tracemalloc.start()
        try:
            pool.get(400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pool.nbytes + 128 * pool.csr.m

    def test_draws_and_fallbacks_are_counted(self, monkeypatch):
        graph = ba_graph("wc")
        registry = global_registry()
        grown_pool(graph, [2])
        with monkeypatch.context() as patch:
            patch.setattr("repro.native._lib", False)
            grown_pool(graph, [2])
        calls = registry.counter("repro_native_coin_calls_total")
        fallbacks = registry.counter("repro_native_coin_fallbacks_total")
        before = (calls.value, fallbacks.value)
        grown_pool(graph, [3, 9, 9, 20])  # a hit draws nothing
        assert calls.value == before[0] + 3
        with monkeypatch.context() as patch:
            patch.setattr("repro.native._lib", False)
            grown_pool(graph, [4, 8])
        assert fallbacks.value == before[1] + 2

    def test_wrapper_rejects_bad_shapes(self):
        keys = np.arange(5, dtype=np.uint64)
        thr = np.full(5, 2**63, dtype=np.uint64)
        sure = np.zeros(5, dtype=bool)
        offsets = np.zeros(3, dtype=np.int64)
        positions = np.zeros(0, dtype=np.int32)
        draw = native.native_draw_samples
        with pytest.raises(ValueError):
            draw(keys, thr[:4], sure, offsets, positions, 2, 4)
        with pytest.raises(ValueError):
            draw(keys, thr, sure[:4], offsets, positions, 2, 4)
        with pytest.raises(ValueError):
            draw(keys, thr, sure, offsets, positions, 3, 4)
        with pytest.raises(ValueError):
            draw(keys, thr, sure, offsets, positions, 2, 1)
        with pytest.raises(ValueError):
            draw(keys, thr, sure, np.asarray([0, 4, 9]), positions, 2, 4)
        grown_offsets, grown_positions = draw(
            keys, thr, sure, offsets, positions, 2, 4
        )
        assert grown_offsets.shape == (5,)
        assert grown_positions.shape == (grown_offsets[-1],)
