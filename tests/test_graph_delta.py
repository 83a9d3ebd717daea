"""Tests for the incremental graph-delta path.

The tentpole contract: applying a :class:`~repro.graph.GraphDelta` to
a warm :class:`~repro.engine.SamplePool` / ``SketchIndex`` yields
state **bit-identical** to throwing everything away and rebuilding
from scratch over the mutated graph — same surviving edge sets, same
spread estimates, same marginal-gain vectors — checked against both
a cold arena rebuild and the per-sample legacy sketch.
Plus the delta value object itself, the normalized
``DiGraph.remove_edge`` errors, the service's durable
:class:`~repro.service.DeltaJournal`, and the temporal analysis
running over an updated graph.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.datasets import figure1_graph, figure1_seed
from repro.engine import SamplePool, SketchIndex
from repro.graph import barabasi_albert, CSRGraph, DiGraph, GraphDelta
from repro.models import assign_weighted_cascade
from repro.service import DeltaJournal
from repro.spread import exact_expected_spread, expected_activation_curve

from .conftest import reference_sketch

ROOT = Path(__file__).resolve().parent.parent


def random_graph(gen, n: int, m: int) -> DiGraph:
    m = min(m, n * (n - 1))
    graph = DiGraph(n)
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        u = int(gen.integers(n))
        v = int(gen.integers(n))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            graph.add_edge(u, v, float(gen.uniform(0.05, 0.6)))
    return graph


def random_delta(gen, graph: DiGraph) -> GraphDelta:
    """A randomized mix of deletes, reweights and inserts against
    ``graph`` (always non-empty)."""
    edges = list(graph.edges())
    gen.shuffle(edges)
    k = len(edges)
    deletes = [(u, v) for u, v, _ in edges[: max(1, k // 6)]]
    reweights = [
        (u, v, float(gen.uniform(0.0, 1.0)))
        for u, v, _ in edges[max(1, k // 6) : max(2, k // 3)]
    ]
    present = {(u, v) for u, v, _ in edges}
    inserts: list[tuple[int, int, float]] = []
    tries = 0
    while len(inserts) < max(1, k // 6) and tries < 500:
        tries += 1
        u = int(gen.integers(graph.n))
        v = int(gen.integers(graph.n))
        if u != v and (u, v) not in present:
            present.add((u, v))
            inserts.append((u, v, float(gen.uniform(0.05, 0.8))))
    return GraphDelta(
        inserts=inserts, deletes=deletes, reweights=reweights
    )


# ----------------------------------------------------------------------
# the GraphDelta value object
# ----------------------------------------------------------------------


class TestGraphDelta:
    def test_empty_delta_is_falsy(self):
        delta = GraphDelta()
        assert len(delta) == 0
        assert not delta
        assert delta.max_vertex() == -1

    def test_len_counts_all_edit_kinds(self):
        delta = GraphDelta(
            inserts=[(0, 1, 0.5)],
            deletes=[(2, 3)],
            reweights=[(4, 5, 0.1), (5, 6, 0.2)],
        )
        assert len(delta) == 4
        assert delta.max_vertex() == 6

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            GraphDelta(deletes=[(3, 3)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            GraphDelta(inserts=[(-1, 2, 0.5)])

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"within \[0, 1\]"):
            GraphDelta(reweights=[(0, 1, 1.5)])

    @pytest.mark.parametrize("bad", [0.9, 1.0, "1", True, np.True_, None])
    def test_non_integer_vertex_ids_rejected(self, bad):
        for delta in (
            {"deletes": [(bad, 2)]},
            {"inserts": [(2, bad, 0.5)]},
            {"reweights": [(bad, 2, 0.5)]},
        ):
            with pytest.raises(ValueError, match="must be integers"):
                GraphDelta(**delta)

    def test_numpy_integer_ids_accepted(self):
        delta = GraphDelta(
            inserts=[(np.int32(0), np.int64(1), np.float32(0.5))],
            deletes=[(np.uint8(2), np.int64(3))],
        )
        assert delta.inserts == ((0, 1, 0.5),)
        assert delta.deletes == ((2, 3),)
        assert all(
            type(x) is int for x in delta.inserts[0][:2] + delta.deletes[0]
        )
        assert type(delta.inserts[0][2]) is float

    @pytest.mark.parametrize("bad", ["0.5", True, np.True_, None, [0.5]])
    def test_non_real_probabilities_rejected(self, bad):
        for delta in (
            {"inserts": [(0, 1, bad)]},
            {"reweights": [(0, 1, bad)]},
        ):
            with pytest.raises(ValueError, match="real numbers"):
                GraphDelta(**delta)

    def test_integer_probabilities_accepted(self):
        delta = GraphDelta(inserts=[(0, 1, 1)], reweights=[(2, 3, 0)])
        assert delta.inserts == ((0, 1, 1.0),)
        assert delta.reweights == ((2, 3, 0.0),)

    def test_malformed_entries_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            GraphDelta(deletes=[(1, 2, 3)])
        with pytest.raises(ValueError, match="triples"):
            GraphDelta(inserts=[(1, 2)])

    def test_edit_kinds_are_disjoint(self):
        with pytest.raises(ValueError, match="more than once"):
            GraphDelta(inserts=[(0, 1, 0.5)], deletes=[(0, 1)])
        with pytest.raises(ValueError, match="more than once"):
            GraphDelta(deletes=[(0, 1)], reweights=[(0, 1, 0.3)])

    def test_dict_round_trip(self):
        delta = GraphDelta(
            inserts=[(0, 1, 0.5)],
            deletes=[(2, 3)],
            reweights=[(4, 5, 0.25)],
        )
        assert GraphDelta.from_dict(delta.as_dict()) == delta

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            GraphDelta.from_dict({"inserts": [], "upserts": []})

    def test_check_against_names_offending_edge(self):
        graph = DiGraph.from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            GraphDelta(deletes=[(2, 3)]).check_against(graph)
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            GraphDelta(reweights=[(2, 3, 0.5)]).check_against(graph)
        with pytest.raises(ValueError, match="reweight"):
            GraphDelta(inserts=[(0, 1, 0.5)]).check_against(graph)
        with pytest.raises(ValueError, match="out of range"):
            GraphDelta(deletes=[(0, 9)]).check_against(graph)

    def test_apply_to_mutates_in_order(self):
        graph = DiGraph.from_edges(4, [(0, 1, 0.9), (1, 2, 0.5)])
        delta = GraphDelta(
            inserts=[(2, 3, 0.7)],
            deletes=[(0, 1)],
            reweights=[(1, 2, 0.25)],
        )
        returned = delta.apply_to(graph)
        assert returned is graph
        assert not graph.has_edge(0, 1)
        assert graph.probability(1, 2) == 0.25
        assert graph.probability(2, 3) == 0.7
        assert graph.m == 2

    def test_apply_to_validates_first(self):
        graph = DiGraph.from_edges(
            3, [(0, 1, 0.5), (1, 2, 0.4), (2, 0, 0.3)]
        )
        before = sorted(graph.edges())
        # the delete and the reweight are valid; the insert names an
        # existing edge, and inserts apply last
        delta = GraphDelta(
            deletes=[(0, 1)], reweights=[(1, 2, 0.9)], inserts=[(2, 0, 0.7)]
        )
        with pytest.raises(ValueError):
            delta.apply_to(graph)
        # nothing was half-applied: same edges, same probabilities
        assert sorted(graph.edges()) == before


# ----------------------------------------------------------------------
# DiGraph.remove_edge (the delta path's primitive)
# ----------------------------------------------------------------------


class TestRemoveEdge:
    def test_removes_edge_and_updates_counts(self):
        graph = DiGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.4)])
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.m == 1
        assert 0 not in graph.in_neighbors(1)
        assert 1 not in graph.out_neighbors(0)

    def test_missing_edge_raises_keyerror_naming_edge(self):
        graph = DiGraph.from_edges(3, [(0, 1)])
        with pytest.raises(KeyError, match=r"\(1, 2\)"):
            graph.remove_edge(1, 2)

    def test_out_of_range_vertex_raises_indexerror(self):
        graph = DiGraph.from_edges(3, [(0, 1)])
        with pytest.raises(IndexError):
            graph.remove_edge(0, 9)
        with pytest.raises(IndexError):
            graph.remove_edge(-1, 0)

    def test_reinsert_after_remove(self):
        graph = DiGraph.from_edges(3, [(0, 1, 0.5)])
        graph.remove_edge(0, 1)
        graph.add_edge(0, 1, 0.9)
        assert graph.probability(0, 1) == 0.9
        assert graph.m == 1


# ----------------------------------------------------------------------
# pool-level bit-identity: patched arrays == regenerated arrays
# ----------------------------------------------------------------------


class TestPoolDeltaIdentity:
    def test_patched_pool_matches_regenerated(self):
        gen = np.random.default_rng(17)
        for trial in range(8):
            n = int(gen.integers(10, 30))
            graph = random_graph(gen, n, int(gen.integers(n, 3 * n)))
            delta = random_delta(gen, graph)
            theta = 64

            pool = SamplePool(CSRGraph(graph.copy()), rng=5)
            pool.get(theta)
            report = pool.apply_delta(delta)
            assert report.theta == theta
            assert report.inserts == len(delta.inserts)
            assert report.deletes == len(delta.deletes)
            assert report.reweights == len(delta.reweights)

            mutated = delta.apply_to(graph.copy())
            fresh = SamplePool(CSRGraph(mutated), rng=5)
            patched_batch = pool.get(theta)
            fresh_batch = fresh.get(theta)
            for t in range(theta):
                assert np.array_equal(
                    patched_batch.surviving(t), fresh_batch.surviving(t)
                ), (trial, t)

    def test_delta_rekeys_the_pool(self, tmp_path):
        gen = np.random.default_rng(3)
        graph = random_graph(gen, 12, 30)
        pool = SamplePool(
            CSRGraph(graph.copy()), rng=5, cache_dir=tmp_path / "a",
            cache_key="seed5",
        )
        pool.get(16)
        before = pool.cache_digest
        delta = random_delta(gen, graph)
        pool.apply_delta(delta)
        assert pool.cache_digest != before
        # same mutated graph -> same digest as a fresh pool (content
        # hash, independent of directory)
        fresh = SamplePool(
            CSRGraph(delta.apply_to(graph)), rng=5,
            cache_dir=tmp_path / "b", cache_key="seed5",
        )
        assert pool.cache_digest == fresh.cache_digest

    def test_touched_names_exactly_the_changed_samples(self):
        def edge_pairs(csr, positions):
            src = np.searchsorted(
                np.asarray(csr.indptr), positions, side="right"
            ) - 1
            dst = np.asarray(csr.indices)[positions]
            return set(zip(src.tolist(), dst.tolist()))

        gen = np.random.default_rng(29)
        graph = random_graph(gen, 15, 40)
        theta = 48
        pool = SamplePool(CSRGraph(graph.copy()), rng=9)
        old_csr = pool.csr
        batch = pool.get(theta)
        before = [
            edge_pairs(old_csr, batch.surviving(t))
            for t in range(theta)
        ]
        delta = random_delta(gen, graph)
        report = pool.apply_delta(delta)
        after_batch = pool.get(theta)
        touched = set(report.touched.tolist())
        changed = {
            t
            for t in range(theta)
            if edge_pairs(pool.csr, after_batch.surviving(t))
            != before[t]
        }
        # every sample whose survived-edge set changed is reported;
        # unreported samples are bit-for-bit unchanged
        assert changed <= touched
        assert changed  # a random mixed delta always flips something


# ----------------------------------------------------------------------
# sketch-level bit-identity: rebased index == cold rebuild
# ----------------------------------------------------------------------


@pytest.mark.parametrize("reference", ["arena", "legacy"])
class TestSketchDeltaIdentity:
    """``reference`` names the never-rebased sketch over the mutated
    graph each delta-applied index must equal: a cold arena build or
    the per-sample legacy sketch."""

    def test_delta_applied_index_matches_cold_rebuild(self, reference):
        gen = np.random.default_rng(42)
        theta = 120
        for trial in range(5):
            n = int(gen.integers(12, 36))
            graph = random_graph(gen, n, int(gen.integers(n, 4 * n)))
            delta = random_delta(gen, graph)
            seeds = [int(gen.integers(n))]
            parked = [v for v in range(min(3, n)) if v not in seeds][:2]

            index = SketchIndex(SamplePool(graph.copy(), rng=7))
            # warm the view and park it on a non-empty blocker set so
            # the delta path exercises the rebase-to-base contract
            index.expected_spread(seeds, theta, parked)
            index.apply_delta(delta)

            mutated = delta.apply_to(graph.copy())
            cold = reference_sketch(reference, SamplePool(mutated, rng=7))
            others = [v for v in range(n) if v not in seeds][:5]
            for blocked in ([], parked, others):
                assert index.expected_spread(
                    seeds, theta, blocked
                ) == cold.expected_spread(seeds, theta, blocked), (
                    trial, blocked,
                )
                assert np.array_equal(
                    index.decrease_estimates(seeds, theta, blocked),
                    cold.decrease_estimates(seeds, theta, blocked),
                ), (trial, blocked)
            index.close()
            cold.close()

    def test_sequential_deltas_accumulate(self, reference):
        gen = np.random.default_rng(11)
        graph = random_graph(gen, 20, 60)
        seeds = [0]
        theta = 80
        index = SketchIndex(SamplePool(graph.copy(), rng=3))
        index.expected_spread(seeds, theta)
        for _ in range(3):
            delta = random_delta(gen, graph)
            index.apply_delta(delta)
            delta.apply_to(graph)
        cold = reference_sketch(reference, SamplePool(graph.copy(), rng=3))
        assert index.expected_spread(seeds, theta) == \
            cold.expected_spread(seeds, theta)
        assert index.stats.deltas == 3
        index.close()
        cold.close()

    def test_delta_stats_accounting(self, reference):
        gen = np.random.default_rng(23)
        graph = random_graph(gen, 16, 48)
        theta = 60
        index = SketchIndex(SamplePool(graph.copy(), rng=5))
        index.expected_spread([1], theta)
        delta = random_delta(gen, graph)
        report = index.apply_delta(delta)
        assert index.stats.deltas == 1
        assert 0 <= index.stats.delta_trees_rebuilt <= theta
        assert (
            index.stats.delta_trees_rebuilt
            + index.stats.delta_samples_skipped
            == theta
        )
        assert index.stats.delta_trees_rebuilt <= report.touched_count
        # skipping the untouched samples lost nothing
        cold = reference_sketch(
            reference, SamplePool(delta.apply_to(graph.copy()), rng=5)
        )
        assert index.expected_spread([1], theta) == cold.expected_spread(
            [1], theta
        )
        index.close()
        cold.close()


# ----------------------------------------------------------------------
# persisted artifacts: rehydrate-after-delta bit-identity
# ----------------------------------------------------------------------


class TestDeltaPersistence:
    def test_rehydrated_index_sees_post_delta_state(self, tmp_path):
        gen = np.random.default_rng(31)
        graph = random_graph(gen, 18, 50)
        delta = random_delta(gen, graph)
        seeds = [2]
        theta = 60

        index = SketchIndex(
            SamplePool(
                graph.copy(), rng=7, cache_dir=tmp_path, cache_key="seed7"
            )
        )
        index.expected_spread(seeds, theta)
        index.apply_delta(delta)
        expected = index.expected_spread(seeds, theta)
        gains = index.decrease_estimates(seeds, theta).copy()
        index.close()

        # a fresh process over the mutated graph and the same cache
        # dir must land on the patched artifacts, not rebuild
        mutated = delta.apply_to(graph.copy())
        again = SketchIndex(
            SamplePool(mutated, rng=7, cache_dir=tmp_path, cache_key="seed7")
        )
        assert again.expected_spread(seeds, theta) == expected
        assert np.array_equal(
            again.decrease_estimates(seeds, theta), gains
        )
        assert again.stats.rehydrations >= 1
        again.close()


# ----------------------------------------------------------------------
# the unblocked base after a delta: a later return to the empty set
# must land on the post-delta trees, not the pre-delta ones
# ----------------------------------------------------------------------


class TestDeltaRetakesBase:
    """How a delta moves a view's unblocked base.  The walk ∅ -> [1, 2]
    -> a 200-edit delta -> [1, 2] -> ∅, on a view that was cold-built
    or rehydrated from disk, must equal a cold build over the mutated
    graph at every post-delta step, so a view that restored the
    pre-delta base at the final ∅ fails.  A delta that changes none of
    a view's trees leaves it parked where it was."""

    THETA = 200
    SEEDS = [0, 5, 9]

    @pytest.fixture(scope="class")
    def graph(self):
        return assign_weighted_cascade(barabasi_albert(2000, 4, rng=3))

    @pytest.mark.parametrize("source", ["cold", "rehydrated"])
    def test_walk_through_a_delta_matches_cold(
        self, graph, tmp_path, monkeypatch, source
    ):
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench.workloads import random_delta

        delta = random_delta(graph, 200, np.random.default_rng(1))

        def index_over(g):
            if source == "cold":
                return SketchIndex(SamplePool(g.copy(), rng=7))
            return SketchIndex(SamplePool(
                g.copy(), rng=7, cache_dir=tmp_path, cache_key="seed7"
            ))

        if source == "rehydrated":
            with index_over(graph) as writer:
                writer.expected_spread(self.SEEDS, self.THETA)
        index = index_over(graph)
        assert index.expected_spread(self.SEEDS, self.THETA) == (
            SketchIndex(SamplePool(graph.copy(), rng=7)).expected_spread(
                self.SEEDS, self.THETA
            )
        )
        assert index.stats.rehydrations == int(source == "rehydrated")
        index.decrease_estimates(self.SEEDS, self.THETA, [1, 2])
        index.apply_delta(delta)

        cold = SketchIndex(
            SamplePool(delta.apply_to(graph.copy()), rng=7)
        )
        for blocked in ([1, 2], []):
            assert index.expected_spread(
                self.SEEDS, self.THETA, blocked
            ) == cold.expected_spread(self.SEEDS, self.THETA, blocked), (
                blocked
            )
            assert np.array_equal(
                index.decrease_estimates(self.SEEDS, self.THETA, blocked),
                cold.decrease_estimates(self.SEEDS, self.THETA, blocked),
            ), blocked
        index.close()
        cold.close()


    def test_delta_out_of_reach_keeps_the_parked_state(self):
        """A delta that changes no tree of a view leaves it at its
        blocker set, and every answer still equals a cold build."""
        gen = np.random.default_rng(3)
        graph = DiGraph(60)
        for low in (0, 30):  # two components; the seeds live in the first
            for u, v, p in random_graph(gen, 30, 90).edges():
                graph.add_edge(u + low, v + low, p)
        far = [(u, v) for u, v, _ in graph.edges() if u >= 30]
        delta = GraphDelta(
            deletes=far[:5], reweights=[(u, v, 0.9) for u, v in far[5:10]]
        )
        seeds = [0, 1]
        index = SketchIndex(SamplePool(graph.copy(), rng=7))
        index.expected_spread(seeds, 100, [2, 3])
        index.apply_delta(delta)
        assert index.stats.delta_trees_rebuilt == 0
        (view,) = index._views.values()
        assert view.blocked == {2, 3}
        cold = SketchIndex(SamplePool(delta.apply_to(graph.copy()), rng=7))
        for blocked in ([2, 3], [], [4, 5]):
            assert index.expected_spread(
                seeds, 100, blocked
            ) == cold.expected_spread(seeds, 100, blocked), blocked
            assert np.array_equal(
                index.decrease_estimates(seeds, 100, blocked),
                cold.decrease_estimates(seeds, 100, blocked),
            ), blocked


# ----------------------------------------------------------------------
# the service's durable delta journal
# ----------------------------------------------------------------------


class TestDeltaJournal:
    def test_memory_only_record_and_replay(self):
        journal = DeltaJournal()
        assert journal.last_seq("toy") == 0
        delta = GraphDelta(deletes=[(0, 1)])
        journal.record("toy", delta, 1)
        assert journal.last_seq("toy") == 1
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert journal.replay("toy", graph) == 1
        assert not graph.has_edge(0, 1)

    def test_seq_must_advance(self):
        journal = DeltaJournal()
        journal.record("toy", GraphDelta(deletes=[(0, 1)]), 3)
        with pytest.raises(ValueError):
            journal.record("toy", GraphDelta(deletes=[(1, 2)]), 3)
        with pytest.raises(ValueError):
            journal.record("toy", GraphDelta(deletes=[(1, 2)]), 1)
        journal.record("toy", GraphDelta(deletes=[(1, 2)]), 4)
        assert journal.last_seq("toy") == 4

    def test_graphs_are_independent(self):
        journal = DeltaJournal()
        journal.record("a", GraphDelta(deletes=[(0, 1)]), 5)
        assert journal.last_seq("a") == 5
        assert journal.last_seq("b") == 0

    def test_persists_across_instances(self, tmp_path):
        first = DeltaJournal(tmp_path)
        first.record("toy", GraphDelta(deletes=[(0, 1)]), 1)
        first.record(
            "toy", GraphDelta(inserts=[(2, 0, 0.5)]), 2
        )

        second = DeltaJournal(tmp_path)
        assert second.last_seq("toy") == 2
        graph = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert second.replay("toy", graph) == 2
        assert not graph.has_edge(0, 1)
        assert graph.probability(2, 0) == 0.5

    def test_replay_applies_in_seq_order(self):
        journal = DeltaJournal()
        journal.record("toy", GraphDelta(deletes=[(0, 1)]), 1)
        # only valid because seq 1 removed the edge first
        journal.record("toy", GraphDelta(inserts=[(0, 1, 0.9)]), 2)
        graph = DiGraph.from_edges(2, [(0, 1, 0.4)])
        journal.replay("toy", graph)
        assert graph.probability(0, 1) == 0.9


# ----------------------------------------------------------------------
# temporal analysis over an updated graph
# ----------------------------------------------------------------------


class TestTemporalOnUpdatedGraph:
    def test_activation_curve_converges_on_mutated_graph(self):
        graph = figure1_graph()
        # cut one certain edge and strengthen a stochastic one — the
        # same shape of edit the service's update op applies
        u, v, _ = next(iter(graph.edges()))
        delta = GraphDelta(
            deletes=[(u, v)],
            inserts=[],
        )
        delta.apply_to(graph)
        exact = exact_expected_spread(graph, [figure1_seed])
        curve = expected_activation_curve(
            graph, [figure1_seed], rounds=6000, rng=1, max_steps=12
        )
        assert curve[0] == 1.0
        assert np.all(np.diff(curve) >= -1e-12)
        assert curve[-1] == pytest.approx(exact, abs=0.15)
