"""Native kernels (repro.native): loader gating, caching, fallback,
and the reach kernel against its aliveness-matrix fallback."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.engine import PooledEvaluator, reach_counts_from_alive, SamplePool
from repro.graph import DiGraph, GraphDelta
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
    # a fresh interpreter with REPRO_NATIVE=0 must report the kernel
    # unavailable and still build trees through the Python path
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
        empty,
        np.zeros(1, dtype=np.int64),
        empty,
        empty,
        np.zeros(3, dtype=np.uint8),
    )
    assert lengths.shape[0] == 0
    assert orders.shape[0] == 0 and sizes.shape[0] == 0


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
    csr = evaluator.pool.csr
    batch = evaluator.pool.get(rounds)
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
            "repro.engine.evaluator.native_reach_counts",
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
        evaluator = PooledEvaluator(csr, pool=pool)
        assert_native_matches_fallback(
            evaluator, [0, 5, 17], 120, [blocked], monkeypatch
        )

    def test_duplicate_seeds_count_once(self, wc_setup, monkeypatch):
        graph, csr, pool = wc_setup
        evaluator = PooledEvaluator(csr, pool=pool)
        twice = assert_native_matches_fallback(
            evaluator, [5, 0, 5, 0], 120, [[], [7]], monkeypatch
        )
        assert twice == evaluator.expected_spread_many([5, 0], 120, [[], [7]])

    def test_seed_without_out_edges(self, monkeypatch):
        graph = DiGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 0.5
        )
        evaluator = PooledEvaluator(graph, rng=4)
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
        evaluator = PooledEvaluator(csr, pool=pool)
        assert_native_matches_fallback(
            evaluator, [0, 5], 37, [[], [11, 12]], monkeypatch
        )

    def test_memory_mapped_pool(self, wc_setup, tmp_path, monkeypatch):
        graph, csr, _ = wc_setup
        SamplePool(csr, rng=3, cache_dir=tmp_path).get(80)
        attached = SamplePool(csr, rng=3, cache_dir=tmp_path)
        assert attached.stats.disk_loads == 1
        assert isinstance(attached.get(80).positions, np.memmap)
        evaluator = PooledEvaluator(csr, pool=attached)
        assert_native_matches_fallback(
            evaluator, [0, 5, 17], 80, [[], [3, 9]], monkeypatch
        )

    def test_pool_after_delta(self, wc_setup, monkeypatch):
        graph, csr, _ = wc_setup
        evaluator = PooledEvaluator(csr, rng=8)
        evaluator.pool.get(90)
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
        assert evaluator.pool.csr.m == csr.m - 1
        assert_native_matches_fallback(
            evaluator, [0, 5, 9], 90, [[], [399], [1, 2]], monkeypatch
        )

    def test_native_and_fallback_answers_are_counted(
        self, wc_setup, monkeypatch
    ):
        graph, csr, pool = wc_setup
        evaluator = PooledEvaluator(csr, pool=pool)

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
