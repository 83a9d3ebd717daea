"""The compact sample pool: int32 edge positions end to end.

Positions are the bulk of a pool (4 bytes per surviving edge, next to
8 per sample of offsets), so every layer that touches them is checked
for the copy it must not make: a native draw allocates the pool plus
O(m) per-edge arrays, a reach count reads the positions in place, and
a delta patch holds no pool-sized int64 array.  The kernel wrappers
refuse positions of any other dtype instead of converting them, and a
pool refuses a graph whose edge positions would overflow int32.

tracemalloc sees numpy's allocations, so each bound is on every byte
allocated while the step runs.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.engine import SamplePool
from repro.engine.pool import reach_counts, sampler_batches
from repro.graph import barabasi_albert, DiGraph, GraphDelta
from repro.models import assign_weighted_cascade
from repro.native import native_build_available, POSITIONS_DTYPE
from repro.sampling import ICSampler

ROOT = Path(__file__).resolve().parent.parent

THETA = 500

needs_kernel = pytest.mark.skipif(
    not native_build_available(), reason="no compiled kernel on this host"
)


@pytest.fixture(scope="module")
def ba_graph():
    """A seeded BA graph under WC: ~30k edges, so a θ=500 pool holds
    ~1.5M surviving edges (~6 MB of int32 positions)."""
    return assign_weighted_cascade(barabasi_albert(3000, 5, rng=1))


def traced_peak(step) -> int:
    """Peak bytes allocated while ``step()`` runs."""
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@needs_kernel
def test_native_draw_allocates_the_pool_and_little_else(ba_graph):
    pool = SamplePool(ba_graph, rng=1)
    peak = traced_peak(lambda: pool.get(THETA))
    assert pool.get(THETA).positions.dtype == POSITIONS_DTYPE
    # the rest is O(m) per-edge keys and thresholds (~0.09x here)
    assert peak <= 1.1 * pool.nbytes


@needs_kernel
def test_reach_counts_read_positions_in_place(ba_graph):
    pool = SamplePool(ba_graph, rng=1)
    batch = pool.get(THETA)
    peak = traced_peak(
        lambda: reach_counts(pool.csr, batch, [0, 1, 2], [[], [3, 4]])
    )
    # a cast of the positions to int64 would allocate 2x the pool
    assert peak < 0.01 * pool.nbytes


def test_delta_patch_holds_no_pool_sized_int64_array(ba_graph, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.workloads import random_delta

    delta = random_delta(ba_graph, 100, np.random.default_rng(1))
    pool = SamplePool(ba_graph, rng=1)
    pool.get(THETA)
    peak = traced_peak(lambda: pool.apply_delta(delta))
    patched = pool.get(THETA)
    assert patched.positions.dtype == POSITIONS_DTYPE
    # one int64 (sample, position) key per entry alone would be 2x
    assert peak < 4 * pool.nbytes
    # ... and the patch is the cold draw over the mutated graph
    mutated = ba_graph.copy()
    delta.apply_to(mutated)
    cold = SamplePool(mutated, rng=1).get(THETA)
    assert np.array_equal(patched.offsets, cold.offsets)
    assert np.array_equal(patched.positions, cold.positions)


# ----------------------------------------------------------------------
# the kernel wrappers convert nothing
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_pool():
    graph = assign_weighted_cascade(barabasi_albert(200, 3, rng=4))
    pool = SamplePool(graph, rng=4)
    return pool, pool.get(40)


def wrapper_calls(pool, batch, positions):
    csr = pool.csr
    mask = np.zeros(csr.n, dtype=np.uint8)
    seeds = np.asarray([0, 1])
    m = csr.m
    return {
        "build_trees": lambda: native.native_build_trees(
            csr.n, csr.indptr, csr.indices, positions, batch.offsets,
            np.arange(batch.theta), seeds, mask,
        ),
        "reach_counts": lambda: native.native_reach_counts(
            csr.n, csr.indptr, csr.indices, positions, batch.offsets,
            batch.theta, seeds, mask,
        ),
        "draw_samples": lambda: native.native_draw_samples(
            np.arange(m, dtype=np.uint64),
            np.full(m, 2**63, dtype=np.uint64),
            np.zeros(m, dtype=bool),
            batch.offsets, positions, batch.theta, batch.theta + 5,
        ),
    }


@needs_kernel
@pytest.mark.parametrize("wrapper", ["build_trees", "reach_counts",
                                     "draw_samples"])
@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int16])
def test_wrappers_refuse_other_position_dtypes(small_pool, wrapper, dtype):
    pool, batch = small_pool
    assert wrapper_calls(pool, batch, batch.positions)[wrapper]() is not None
    cast = batch.positions.astype(dtype)
    with pytest.raises(TypeError, match="positions must be int32"):
        wrapper_calls(pool, batch, cast)[wrapper]()


# ----------------------------------------------------------------------
# the int32 limit: refused up front, never wrapped
# ----------------------------------------------------------------------
def chain(n):
    return DiGraph.from_edges(n, [(u, u + 1, 0.5) for u in range(n - 1)])


def test_pool_refuses_a_graph_past_the_limit(monkeypatch):
    graph = chain(12)  # 11 edges
    monkeypatch.setattr("repro.engine.pool._MAX_EDGES", 11)
    assert SamplePool(graph, rng=1).get(5).positions.max() == 10
    monkeypatch.setattr("repro.engine.pool._MAX_EDGES", 10)
    with pytest.raises(ValueError, match="at most 10 edges"):
        SamplePool(graph, rng=1)
    with pytest.raises(ValueError, match="at most 10 edges"):
        next(sampler_batches(ICSampler(graph, rng=1), 5))


def test_apply_delta_refuses_growth_past_the_limit(monkeypatch):
    graph = chain(12)
    pool = SamplePool(graph, rng=1)
    batch = pool.get(30)
    offsets = np.array(batch.offsets)
    positions = np.array(batch.positions)
    csr = pool.csr
    monkeypatch.setattr("repro.engine.pool._MAX_EDGES", 11)
    grow = GraphDelta(inserts=[(0, 5, 0.5)])
    with pytest.raises(ValueError, match="at most 11 edges"):
        pool.apply_delta(grow)
    # nothing moved: same graph, same samples, no delta counted
    assert pool.csr is csr
    assert pool.theta == 30
    assert pool.stats.deltas == 0
    assert np.array_equal(pool.get(30).offsets, offsets)
    assert np.array_equal(pool.get(30).positions, positions)
    # an edit that keeps the edge count at the limit still applies
    swap = GraphDelta(inserts=[(0, 5, 0.5)], deletes=[(3, 4)])
    assert pool.apply_delta(swap).inserts == 1
    assert pool.csr.m == 11
