"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np
import pytest

from repro.datasets import figure1_graph, figure1_seed
from repro.dominator import dominator_order_sizes
from repro.engine import SamplePool, SketchIndex
from repro.graph import barabasi_albert, CSRGraph, DiGraph
from repro.models import assign_weighted_cascade
from repro.sampling import adjacency_from_edges


@pytest.fixture
def toy_graph() -> DiGraph:
    """The paper's Figure 1 graph (seed = vertex 0 = v1)."""
    return figure1_graph()


@pytest.fixture
def toy_seed() -> int:
    return figure1_seed


@pytest.fixture
def diamond_graph() -> DiGraph:
    """0 -> {1, 2} -> 3: the smallest graph with a non-trivial idom."""
    return DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture(scope="module")
def wc_setup():
    """``(graph, csr, pool)``: a WC-weighted BA graph (n=400) with 120
    pooled samples.  Shared per module — tests must not mutate it."""
    graph = assign_weighted_cascade(barabasi_albert(400, 4, rng=11))
    csr = CSRGraph(graph)
    pool = SamplePool(csr, rng=11)
    pool.get(120)
    return graph, csr, pool


def random_digraph(
    n: int,
    edge_prob: float,
    rnd: random.Random,
    prob_choices: tuple[float, ...] = (1.0,),
) -> DiGraph:
    """Dense-ish random digraph helper used across test modules."""
    graph = DiGraph(n)
    for u in range(n):
        for v in range(n):
            if u != v and rnd.random() < edge_prob:
                graph.add_edge(u, v, rnd.choice(prob_choices))
    return graph


def random_adjacency(
    n: int, edge_prob: float, rnd: random.Random
) -> dict[int, list[int]]:
    """Random adjacency mapping for dominator-algorithm tests."""
    return {
        u: [v for v in range(n) if v != u and rnd.random() < edge_prob]
        for u in range(n)
    }


def legacy_sample_trees(csr, batch, seeds, blocked=frozenset()):
    """The per-sample Python build: dict adjacency + adjacency-based
    Lengauer–Tarjan, with blocked vertices filtered out of the mapping.
    The reference the array-native batched path must match
    bit-for-bit."""
    trees = []
    for t in range(batch.theta):
        succ = adjacency_from_edges(csr, batch.surviving(t))
        succ[csr.n] = list(seeds)
        if blocked:
            succ = {
                u: [v for v in nbrs if v not in blocked]
                for u, nbrs in succ.items()
                if u not in blocked
            }
        trees.append(dominator_order_sizes(succ, csr.n))
    return trees


class LegacySketch:
    """The per-sample sketch :class:`SketchIndex` must match bit for bit.

    Every blocked set is answered from trees built from scratch by
    :func:`legacy_sample_trees` and aggregated with one ``np.add.at``
    scatter per sample — no arena, no postings, no rebase.  It answers
    the evaluator calls the solvers make, so a whole blocker selection
    can run against it.
    """

    def __init__(self, pool: SamplePool) -> None:
        self.pool = pool
        self.csr = pool.csr
        self._answers: dict = {}

    def _answer(self, seeds, rounds, blocked):
        key = (tuple(seeds), rounds, frozenset(int(v) for v in blocked))
        if key not in self._answers:
            n = self.csr.n
            trees = legacy_sample_trees(
                self.csr, self.pool.get(rounds), key[0], key[2]
            )
            delta = np.zeros(n + 1, dtype=np.float64)
            total = 0
            for order, sizes in trees:
                total += order.shape[0] - 1
                np.add.at(delta, order[1:], sizes[1:].astype(np.float64))
            reachable = [frozenset(order.tolist()) for order, _ in trees]
            self._answers[key] = (total / rounds, delta[:n] / rounds,
                                  reachable)
        return self._answers[key]

    def expected_spread(
        self, seeds: Sequence[int], rounds: int, blocked: Iterable[int] = ()
    ) -> float:
        return self._answer(seeds, rounds, blocked)[0]

    def decrease_estimates(
        self, seeds: Sequence[int], rounds: int, blocked: Iterable[int] = ()
    ) -> np.ndarray:
        return self._answer(seeds, rounds, blocked)[1].copy()

    def marginal_gain(
        self,
        v: int,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        blocked = list(blocked)
        if v in blocked:
            return 0.0
        return float(self._answer(seeds, rounds, blocked)[1][v])

    def touched(self, seeds, rounds, before, after) -> int:
        """Samples a rebase from ``before`` to ``after`` must rebuild:
        an added blocker is reachable now, or a removed one is
        reachable with no blockers at all."""
        now = self._answer(seeds, rounds, before)[2]
        base = self._answer(seeds, rounds, ())[2]
        added = set(after) - set(before)
        removed = set(before) - set(after)
        return sum(
            1
            for t in range(rounds)
            if added & now[t] or removed & base[t]
        )

    def close(self) -> None:
        self._answers.clear()


def reference_sketch(kind: str, pool: SamplePool):
    """A sketch over ``pool`` that has never rebased: ``"arena"`` is a
    cold-built :class:`SketchIndex`, ``"legacy"`` the per-sample
    :class:`LegacySketch`."""
    if kind == "arena":
        return SketchIndex(pool)
    return LegacySketch(pool)
