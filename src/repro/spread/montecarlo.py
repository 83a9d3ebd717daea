"""Monte-Carlo simulation of the independent cascade model.

This is the spread oracle used by the BaselineGreedy state of the art
(Algorithm 1) and by the final-quality evaluation of every experiment
table.  One simulation round flips a coin per touched edge and counts
the activated vertices; the expected spread is the average count over
``rounds`` rounds (Kempe et al.'s classic estimator, Section V-B1).

Definition 3 nuance: the paper's ``E(S, G)`` counts *all* active
vertices — seeds included — which is what Example 1's value of 7.66 for
the toy graph implies.  We follow that convention everywhere.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..graph import CSRGraph, DiGraph
from ..graph.delta import _vertex_id
from ..rng import ensure_rng, python_rng, RngLike

__all__ = ["MonteCarloEngine"]


class MonteCarloEngine:
    """Reusable Monte-Carlo IC simulator over a frozen CSR graph.

    The engine keeps version-stamped visit buffers so repeated
    ``expected_spread`` calls (the inner loop of BaselineGreedy) never
    reallocate.  Blocking is expressed per call via ``blocked`` ids;
    seed and blocked ids are checked as every backend checks them.
    :meth:`levels` runs one cascade as a timeline, which
    :mod:`repro.spread.temporal` builds on.
    """

    def __init__(self, graph: DiGraph | CSRGraph, rng: RngLike = None):
        self.csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
        self._rand = python_rng(ensure_rng(rng))
        self._visit_mark = [0] * self.csr.n
        self._block_mark = [0] * self.csr.n
        self._stamp = 0

    def reseed(self, rng: RngLike = None) -> "MonteCarloEngine":
        """Reset the coin-flip stream, as a fresh engine would draw it.

        ``engine.reseed(s)`` then ``expected_spread(...)`` reproduces
        ``MonteCarloEngine(graph, s).expected_spread(...)`` exactly —
        what lets one engine's buffers serve many seeded runs without
        changing any fixed-seed result.
        """
        self._rand = python_rng(ensure_rng(rng))
        return self

    def expected_spread(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        """Average active count over ``rounds`` independent cascades."""
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        seed_list = list(seeds)
        blocked_list = list(blocked)
        total = 0
        for _ in range(rounds):
            total += self._run(seed_list, blocked_list)
        return total / rounds

    def levels(
        self,
        seeds: Sequence[int],
        blocked: Iterable[int] = (),
    ) -> list[list[int]]:
        """One cascade as timesteps: ``result[t]`` lists the vertices
        activated at step ``t`` (``result[0]`` is the seed set).

        Walks breadth-first, so each level is one timestep of the IC
        model; :meth:`expected_spread`'s rounds only count, so they
        walk depth-first.
        """
        seed_list = list(seeds)
        stamp = self._prepare(seed_list, list(blocked))
        visit = self._visit_mark
        block = self._block_mark
        indptr = self.csr.indptr_list
        indices = self.csr.indices_list
        probs = self.csr.probs_list
        rand = self._rand.random
        frontier: list[int] = []
        for s in seed_list:
            if visit[s] != stamp:
                visit[s] = stamp
                frontier.append(s)
        out = [frontier]
        while True:
            nxt: list[int] = []
            for u in frontier:
                for j in range(indptr[u], indptr[u + 1]):
                    v = indices[j]
                    if (
                        visit[v] != stamp
                        and block[v] != stamp
                        and rand() < probs[j]
                    ):
                        visit[v] = stamp
                        nxt.append(v)
            if not nxt:
                return out
            out.append(nxt)
            frontier = nxt

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _prepare(self, seeds: list[int], blocked: list[int]) -> int:
        self._stamp += 1
        stamp = self._stamp
        block_mark = self._block_mark
        n = self.csr.n
        # type and range checks first: a bool id would index as 0/1
        # and a negative one wrap onto another vertex's mark
        for v in blocked:
            if type(v) is not int:
                _vertex_id(v, "blocked")
            if not 0 <= v < n:
                raise ValueError(f"blocked vertex {v} out of range [0, {n})")
            block_mark[v] = stamp
        for s in seeds:
            if type(s) is not int:
                _vertex_id(s, "seed")
            if not 0 <= s < n:
                raise IndexError(f"seed {s} is not a vertex")
            if block_mark[s] == stamp:
                raise ValueError(f"seed {s} cannot be blocked")
        return stamp

    def _run(self, seeds: list[int], blocked: list[int]) -> int:
        stamp = self._prepare(seeds, blocked)
        visit = self._visit_mark
        block = self._block_mark
        indptr = self.csr.indptr_list
        indices = self.csr.indices_list
        probs = self.csr.probs_list
        rand = self._rand.random
        stack: list[int] = []
        active = 0
        for s in seeds:
            if visit[s] != stamp:
                visit[s] = stamp
                active += 1
                stack.append(s)
        while stack:
            u = stack.pop()
            for j in range(indptr[u], indptr[u + 1]):
                v = indices[j]
                if (
                    visit[v] != stamp
                    and block[v] != stamp
                    and rand() < probs[j]
                ):
                    visit[v] = stamp
                    active += 1
                    stack.append(v)
        return active
