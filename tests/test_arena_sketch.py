"""Arena-backed sketch query path: parity, postings, native kernel.

The arena layout (pooled tree arena + inverted membership index) and
the optional compiled tree-build kernel both promise *bit-identical*
answers to the per-sample Python path.  These tests pin that promise
down:

* ``build_packed`` (native kernel or Python fallback) against the
  per-sample reference builder, tree for tree;
* rebased arena views against sketches that never rebased — a cold
  arena rebuild and the per-sample :class:`LegacySketch` — across
  blocker-set walks, including the shrink -> grow -> shrink sequences
  GreedyReplace's replacement phase produces (blockers removed then
  re-added), and against the exact enumerator on a graph whose every
  edge is certain;
* the postings construction kernel;
* the byte gauges' failure-injection contract (a builder that dies
  mid-rebase must not strand phantom bytes);
* the bounds checks on ``marginal_gain`` / blocked ids.
"""

import numpy as np
import pytest

from repro.core import greedy_replace, solve_imin
from repro.datasets.toy import figure1_graph, figure1_seed, V
from repro.engine import postings_csr, SketchIndex
from repro.engine.pool import SamplePool
from repro.engine.treebuild import TreeBuilder
from repro.graph import barabasi_albert, CSRGraph, DiGraph
from repro.models import assign_weighted_cascade
from repro.native import native_build_available, native_build_trees
from repro.rng import ensure_rng
from repro.spread import exact_expected_spread

from .conftest import LegacySketch, reference_sketch


@pytest.fixture
def toy():
    return figure1_graph()


def random_digraph(n, m, rng):
    gen = ensure_rng(rng)
    graph = DiGraph(n)
    for _ in range(m):
        u, v = (int(x) for x in gen.integers(0, n, size=2))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, probability=float(gen.uniform(0.2, 1.0)))
    return graph


# ----------------------------------------------------------------------
# build_packed: native kernel / Python fallback vs per-sample reference
# ----------------------------------------------------------------------
class TestBuildPacked:
    def assert_packed_matches(self, csr, batch, indices, seeds, blocked):
        builder = TreeBuilder(csr)
        lengths, orders, sizes = builder.build_packed(
            batch, indices, seeds, blocked
        )
        reference = builder.build(batch, indices, seeds, blocked)
        assert lengths.shape[0] == len(reference)
        offset = 0
        for length, (order, size) in zip(lengths.tolist(), reference):
            assert length == order.shape[0]
            assert np.array_equal(orders[offset:offset + length], order)
            assert np.array_equal(sizes[offset:offset + length], size)
            offset += length
        assert offset == orders.shape[0] == sizes.shape[0]

    @pytest.mark.parametrize(
        "blocked", [[], [3], [1, 7, 13], list(range(0, 100, 5))]
    )
    def test_full_batch_matches_reference(self, wc_setup, blocked):
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        self.assert_packed_matches(
            csr, batch, range(120), [0, 5, 9], blocked
        )

    def test_subset_indices_match_reference(self, wc_setup):
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        self.assert_packed_matches(
            csr, batch, [2, 17, 17, 63, 119], [4, 8], [12]
        )

    def test_random_digraphs_match_reference(self):
        # cyclic, multi-component graphs with arbitrary probabilities
        for seed in range(4):
            graph = random_digraph(60, 240, seed)
            csr = CSRGraph(graph)
            pool = SamplePool(csr, rng=seed)
            batch = pool.get(40)
            self.assert_packed_matches(
                csr, batch, range(40), [seed % 60, (seed * 7) % 60], [
                    (seed * 13) % 60
                ]
            )

    def test_python_fallback_matches_native(self, wc_setup, monkeypatch):
        if not native_build_available():
            pytest.skip("no compiled kernel on this host")
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        builder = TreeBuilder(csr)
        native = builder.build_packed(batch, range(120), [0, 5], [3])
        assert builder._packed_native
        monkeypatch.setattr(
            "repro.engine.treebuild.native_build_trees",
            lambda *args, **kwargs: None,
        )
        fallback = builder.build_packed(batch, range(120), [0, 5], [3])
        assert not builder._packed_native
        for a, b in zip(native, fallback):
            assert np.array_equal(a, b)

    def test_empty_batch(self, wc_setup):
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        lengths, orders, sizes = TreeBuilder(csr).build_packed(
            batch, [], [0], []
        )
        assert lengths.shape[0] == 0
        assert orders.shape[0] == 0
        assert sizes.shape[0] == 0

    def test_native_kernel_direct_roundtrip(self, wc_setup):
        if not native_build_available():
            pytest.skip("no compiled kernel on this host")
        graph, csr, pool = wc_setup
        batch = pool.get(120)
        mask = np.zeros(csr.n, dtype=np.uint8)
        mask[[3, 9]] = 1
        result = native_build_trees(
            csr.n, csr.indptr, csr.indices, batch.positions,
            batch.offsets, np.arange(120, dtype=np.int64),
            np.asarray([0, 5], dtype=np.int64), mask,
        )
        assert result is not None
        lengths, orders, sizes = result
        assert int(lengths.sum()) == orders.shape[0] == sizes.shape[0]
        # every tree starts at the virtual root and never contains a
        # blocked vertex
        starts = np.zeros(120, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        assert (orders[starts] == csr.n).all()
        assert not np.isin(orders, [3, 9]).any()


class TestBuilderIdChecks:
    """Every ``TreeBuilder`` path checks ids against ``[0, n)`` with the
    sketch index's errors: numpy would wrap ``-1`` onto vertex
    ``n - 1`` in the native path's mask, while the Python paths
    silently ignored it."""

    THETA = 20

    @pytest.fixture(scope="class")
    def setup(self):
        graph = assign_weighted_cascade(barabasi_albert(300, 2, rng=1))
        csr = CSRGraph(graph)
        return csr, SamplePool(csr, 3).get(self.THETA)

    def payload(self, path, setup, seeds, blocked, monkeypatch):
        csr, batch = setup
        builder = TreeBuilder(csr)
        if path == "build":
            trees = builder.build(batch, range(self.THETA), seeds, blocked)
            return (
                np.asarray([order.shape[0] for order, _ in trees]),
                np.concatenate([order for order, _ in trees]),
                np.concatenate([sizes for _, sizes in trees]),
            )
        if path == "fallback":
            monkeypatch.setattr(
                "repro.engine.treebuild.native_build_trees",
                lambda *args, **kwargs: None,
            )
        elif not native_build_available():
            pytest.skip("no compiled kernel on this host")
        return builder.build_packed(
            batch, range(self.THETA), seeds, blocked
        )

    @pytest.mark.parametrize("path", ["native", "fallback", "build"])
    @pytest.mark.parametrize(
        "seeds, blocked, error, message",
        [
            ([0], [-1], ValueError, r"blocked vertex -1 out of range \[0, 300\)"),
            ([0], [300], ValueError, r"blocked vertex 300 out of range"),
            ([-1], [], IndexError, "seed -1 is not a vertex"),
            ([300], [], IndexError, "seed 300 is not a vertex"),
        ],
        ids=["blocked-negative", "blocked-n", "seed-negative", "seed-n"],
    )
    def test_rejected(
        self, setup, monkeypatch, path, seeds, blocked, error, message
    ):
        with pytest.raises(error, match=message):
            self.payload(path, setup, seeds, blocked, monkeypatch)

    @pytest.mark.parametrize("path", ["native", "fallback"])
    def test_last_vertex_matches_reference(self, setup, monkeypatch, path):
        reference = self.payload("build", setup, [0], [299], monkeypatch)
        got = self.payload(path, setup, [0], [299], monkeypatch)
        for a, b in zip(got, reference):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# postings construction kernel
# ----------------------------------------------------------------------
class TestPostingsCSR:
    def test_rows_are_ascending_sample_lists(self):
        sample_ids = np.asarray([0, 0, 1, 1, 1, 3], dtype=np.int64)
        vertices = np.asarray([2, 0, 0, 2, 4, 2], dtype=np.int64)
        indptr, samples = postings_csr(sample_ids, vertices, 5)
        assert indptr.tolist() == [0, 2, 2, 5, 5, 6]
        assert samples[0:2].tolist() == [0, 1]  # vertex 0
        assert samples[2:5].tolist() == [0, 1, 3]  # vertex 2
        assert samples[5:6].tolist() == [1]  # vertex 4

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        indptr, samples = postings_csr(empty, empty, 4)
        assert indptr.tolist() == [0, 0, 0, 0, 0]
        assert samples.shape[0] == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            postings_csr(
                np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64), 4
            )


# ----------------------------------------------------------------------
# arena vs the legacy per-sample sketch (the bit-compatibility contract)
# ----------------------------------------------------------------------
class TestArenaLegacyParity:
    def test_spreads_and_gains_bit_identical(self, wc_setup):
        graph, csr, pool = wc_setup
        theta = 120
        seeds = [0, 5, 9]
        legacy = LegacySketch(pool)
        arena = SketchIndex(pool)
        walk = [[], [7], [7, 30], [7, 30, 61], [30], [], [61, 100]]
        touched = []
        restores = 0
        for before, blocked in zip([[]] + walk, walk):
            assert legacy.expected_spread(
                seeds, theta, blocked
            ) == arena.expected_spread(seeds, theta, blocked)
            assert np.array_equal(
                legacy.decrease_estimates(seeds, theta, blocked),
                arena.decrease_estimates(seeds, theta, blocked),
            )
            if before == blocked:
                continue
            if blocked:
                touched.append(legacy.touched(seeds, theta, before, blocked))
            else:
                # back to the empty set: the base is copied back
                restores += 1
        # the postings rows touch exactly the samples the per-sample
        # reachability scan would rebuild
        assert arena.stats.restores == restores == 1
        assert arena.stats.rebases == sum(1 for k in touched if k)
        assert arena.stats.trees_built == theta + sum(touched)
        assert arena.stats.samples_skipped == sum(
            theta - k for k in touched
        )

    def test_greedy_replace_selection_identical(self, wc_setup):
        graph, csr, pool = wc_setup
        results = [
            greedy_replace(graph, [0, 5], 6, theta=120, evaluator=evaluator)
            for evaluator in (LegacySketch(pool), SketchIndex(pool))
        ]
        assert results[0].blockers == results[1].blockers
        assert results[0].round_deltas == results[1].round_deltas
        assert results[0].estimated_spread == results[1].estimated_spread

    def test_solve_imin_on_toy_matches(self, toy):
        picks = [
            solve_imin(
                toy, [figure1_seed], 2, algorithm="greedy-replace",
                theta=100, evaluator=evaluator,
            ).blockers
            for evaluator in (
                LegacySketch(SamplePool(toy, rng=13)),
                SketchIndex(SamplePool(toy, rng=13)),
            )
        ]
        assert picks[0] == picks[1]

    @pytest.mark.parametrize("reference", ["legacy", "arena"])
    def test_shrink_grow_shrink_matches_cold_rebuild(
        self, wc_setup, reference
    ):
        """Blockers removed then re-added must leave every spread and
        gain bit-identical to a sketch that never rebased: a cold-built
        arena index, or the per-sample legacy sketch."""
        graph, csr, pool = wc_setup
        theta = 120
        seeds = [0, 5]
        warm = SketchIndex(pool)
        walk = [
            [], [7, 30, 61], [7], [7, 30, 61, 100], [], [30, 61], [30],
            [7, 30, 61],
        ]
        for blocked in walk:
            cold = reference_sketch(reference, pool)
            assert warm.expected_spread(
                seeds, theta, blocked
            ) == cold.expected_spread(seeds, theta, blocked), blocked
            assert np.array_equal(
                warm.decrease_estimates(seeds, theta, blocked),
                cold.decrease_estimates(seeds, theta, blocked),
            ), blocked
        # the walk rebuilt trees both ways: blockers added (trees
        # shrink) and removed (trees regrow inside their base slots)
        assert warm.stats.rebases >= 6

    def test_blocker_walks_never_grow_the_arena(self, wc_setup):
        """Blocking only removes reach, so every rebuilt tree fits its
        base slot: no blocker walk — unblocking included — moves a
        slot or grows the arena past the base payload."""
        graph, csr, pool = wc_setup
        theta = 60
        seeds = [0, 5]
        arena = SketchIndex(pool)
        walk = [
            list(range(10, 50)), [10, 11], list(range(10, 50)), [30],
            [7, 30, 61], [61], [], list(range(10, 50)),
        ]
        arena.expected_spread(seeds, theta)
        view = next(iter(arena._views.values()))
        starts = view._starts.copy()
        used = view._base_order.shape[0]
        for blocked in walk:
            arena.decrease_estimates(seeds, theta, blocked)
            assert view._order_arena.shape[0] == used, blocked
            assert view._sizes_arena.shape[0] == used, blocked
            assert np.array_equal(view._starts, starts), blocked
            assert (view._lengths <= view._base_lengths).all(), blocked
        # and answers still match a cold rebuild exactly
        cold = SketchIndex(pool)
        assert arena.expected_spread(
            seeds, theta, walk[-1]
        ) == cold.expected_spread(seeds, theta, walk[-1])


# ----------------------------------------------------------------------
# restores and base slots: returns to the empty set copy the base
# ----------------------------------------------------------------------
class TestRestoreAndBaseSlots:
    """Walks that return to the empty blocker set more than once, on a
    cold-built view and on one rehydrated from disk.  Each return is a
    restore (the base copied back, no tree built), rebuilt trees stay
    in their base slots, and every answer matches sketches that never
    rebased."""

    THETA = 120
    SEEDS = [0, 5, 9]
    B1 = [7, 30]
    B2 = [61, 100]
    WALK = [[], B1, [], B2, B1 + B2, [], B1, [30, 61], []]

    def index(self, csr, source, tmp_path):
        """A warm index over the module's samples, its view built cold
        or rehydrated from a persisted artifact."""
        if source == "cold":
            index = SketchIndex(SamplePool(csr, rng=11))
            index.expected_spread(self.SEEDS, self.THETA)
            return index

        def persisted():
            return SketchIndex(SamplePool(
                csr, rng=11, cache_dir=tmp_path, cache_key="restore"
            ))

        with persisted() as writer:
            writer.expected_spread(self.SEEDS, self.THETA)
        index = persisted()
        index.expected_spread(self.SEEDS, self.THETA)
        assert index.stats.rehydrations == 1
        assert index.stats.trees_built == 0
        return index

    @pytest.mark.parametrize("source", ["cold", "rehydrated"])
    def test_walk_matches_references(self, wc_setup, tmp_path, source):
        graph, csr, pool = wc_setup
        index = self.index(csr, source, tmp_path)
        files = {
            path.name: path.read_bytes()
            for path in tmp_path.glob("sketch-*")
        }
        assert bool(files) == (source == "rehydrated")
        legacy = LegacySketch(pool)
        view = next(iter(index._views.values()))
        used = view._base_order.shape[0]
        before = []
        for blocked in self.WALK:
            stats = index.stats.as_dict()
            spread = index.expected_spread(self.SEEDS, self.THETA, blocked)
            gains = index.decrease_estimates(
                self.SEEDS, self.THETA, blocked
            )
            cold = SketchIndex(pool)
            for reference in (cold, legacy):
                assert spread == reference.expected_spread(
                    self.SEEDS, self.THETA, blocked
                ), (reference, blocked)
                assert np.array_equal(
                    gains,
                    reference.decrease_estimates(
                        self.SEEDS, self.THETA, blocked
                    ),
                ), (reference, blocked)
            cold.close()
            after = index.stats.as_dict()
            restored = not blocked and before != []
            assert after["restores"] - stats["restores"] == int(restored)
            if restored:
                assert after["trees_built"] == stats["trees_built"]
            # the current arena is exactly the base payload's size
            assert view._order_arena.shape[0] == used
            assert view._sizes_arena.shape[0] == used
            before = blocked
        assert index.stats.restores == 3
        # the mapped files are the base and are never written
        assert {
            path.name: path.read_bytes()
            for path in tmp_path.glob("sketch-*")
        } == files
        index.close()

    def test_byte_gauges_count_base_and_current_once(self, wc_setup):
        graph, csr, pool = wc_setup
        index = SketchIndex(pool)
        index.expected_spread(self.SEEDS, self.THETA)
        (view,) = index._views.values()
        arena, postings = index.stats.arena_bytes, index.stats.postings_bytes
        # the current arrays alias the base until a rebase writes; then
        # each is a second copy, and the slot starts stay shared
        index.expected_spread(self.SEEDS, self.THETA, self.B1)
        promoted = 2 * arena - view._starts.nbytes
        assert index.stats.arena_bytes == promoted
        assert index.stats.postings_bytes == (
            postings + view._post_alive.nbytes
        )
        # a restore copies in place: no bytes move
        index.expected_spread(self.SEEDS, self.THETA)
        assert index.stats.arena_bytes == promoted
        assert index.stats.tree_bytes == (
            index.stats.arena_bytes + index.stats.postings_bytes
        )
        index.close()
        assert index.stats.tree_bytes == 0


# ----------------------------------------------------------------------
# arena vs the exact enumerator (certain edges: one possible world)
# ----------------------------------------------------------------------
class TestExactReference:
    def test_deterministic_graph_matches_exact_enumeration(self):
        """With every edge certain, each sample is the one possible
        world, so spreads and gains along a rebase walk must equal the
        exact enumerator's values exactly."""
        gen = ensure_rng(5)
        graph = DiGraph(40)
        while graph.m < 90:
            u, v = (int(x) for x in gen.integers(0, 40, size=2))
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, probability=float(gen.integers(0, 2)))
        seeds = [0, 1]
        sketch = SketchIndex(SamplePool(graph, rng=5))
        for blocked in ([], [7, 12], [7], [12, 20, 33], []):
            exact = exact_expected_spread(graph, seeds, blocked)
            assert sketch.expected_spread(seeds, 16, blocked) == exact
            gains = sketch.decrease_estimates(seeds, 16, blocked)
            for v in range(graph.n):
                if v in seeds or v in blocked:
                    continue
                assert gains[v] == exact - exact_expected_spread(
                    graph, seeds, blocked + [v]
                ), (blocked, v)


# ----------------------------------------------------------------------
# byte gauges under failure injection (satellite: no stale tree_bytes)
# ----------------------------------------------------------------------
class _ExplodingBuilder:
    """Wraps a TreeBuilder; fails on command."""

    def __init__(self, inner):
        self.inner = inner
        self.explode = False

    def build(self, *args, **kwargs):
        if self.explode:
            raise RuntimeError("injected builder failure")
        return self.inner.build(*args, **kwargs)

    def build_packed(self, *args, **kwargs):
        if self.explode:
            raise RuntimeError("injected builder failure")
        return self.inner.build_packed(*args, **kwargs)

    def close(self):
        self.inner.close()


class TestByteGaugeFailureInjection:
    @pytest.mark.parametrize("reference", ["legacy", "arena"])
    def test_failed_rebase_leaves_gauge_consistent(self, toy, reference):
        sketch = SketchIndex(SamplePool(toy, rng=13))
        sketch.builder = _ExplodingBuilder(sketch.builder)
        sketch.expected_spread([figure1_seed], 80)
        before = sketch.stats.as_dict()
        assert before["tree_bytes"] > 0
        sketch.builder.explode = True
        with pytest.raises(RuntimeError, match="injected"):
            sketch.expected_spread([figure1_seed], 80, [V(5)])
        # the failed rebuild accounted nothing: gauges unchanged, no
        # phantom trees counted
        assert sketch.stats.as_dict() == before
        # and the view recovers: the same query succeeds once the
        # builder does, bit-identical to a sketch that never rebased
        sketch.builder.explode = False
        recovered = sketch.expected_spread([figure1_seed], 80, [V(5)])
        cold = reference_sketch(reference, SamplePool(toy, rng=13))
        assert recovered == cold.expected_spread(
            [figure1_seed], 80, [V(5)]
        )
        sketch.close()
        assert sketch.stats.tree_bytes == 0
        assert sketch.stats.arena_bytes == 0
        assert sketch.stats.postings_bytes == 0


# ----------------------------------------------------------------------
# bounds checks (satellite: no silent virtual-root reads)
# ----------------------------------------------------------------------
class TestBoundsChecks:
    def test_marginal_gain_rejects_out_of_range(self, toy):
        sketch = SketchIndex(SamplePool(toy, rng=3))
        n = sketch.csr.n
        # v == n is the virtual root's slot: historically a silent 0.0
        for bad in (n, n + 7, -1, -n - 2):
            with pytest.raises(ValueError, match=rf"\[0, {n}\)"):
                sketch.marginal_gain(bad, [figure1_seed], 40)

    def test_marginal_gain_rejects_non_integer_ids(self, toy):
        sketch = SketchIndex(SamplePool(toy, rng=3))
        for bad in (1.9, True, "1"):
            with pytest.raises(ValueError, match="must be integers"):
                sketch.marginal_gain(bad, [figure1_seed], 40)

    def test_marginal_gain_in_range_still_works(self, toy):
        sketch = SketchIndex(SamplePool(toy, rng=3))
        gain = sketch.marginal_gain(V(5), [figure1_seed], 40)
        assert gain >= 0.0

    def test_blocked_ids_out_of_range_rejected(self, toy):
        sketch = SketchIndex(SamplePool(toy, rng=3))
        n = sketch.csr.n
        with pytest.raises(ValueError, match=rf"\[0, {n}\)"):
            sketch.expected_spread([figure1_seed], 40, [n])
        with pytest.raises(ValueError, match=rf"\[0, {n}\)"):
            sketch.decrease_estimates([figure1_seed], 40, [-3])

    def test_unknown_layout_rejected(self, toy):
        # one layout: the index takes no layout knob any more
        with pytest.raises(TypeError, match="layout"):
            SketchIndex(SamplePool(toy, rng=3), layout="legacy")
