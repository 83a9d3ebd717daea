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

import weakref
from typing import Iterable, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph
from ..graph.delta import _vertex_id
from ..rng import ensure_rng, python_rng, RngLike

__all__ = [
    "MonteCarloEngine",
    "simulate_cascade",
    "expected_spread_mcs",
    "shared_engine",
]


class MonteCarloEngine:
    """Reusable Monte-Carlo IC simulator over a frozen CSR graph.

    The engine keeps version-stamped visit buffers so repeated
    ``expected_spread`` calls (the inner loop of BaselineGreedy) never
    reallocate.  Blocking is expressed per call via ``blocked`` ids.
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
        what lets :func:`shared_engine` reuse buffers across calls
        without changing any fixed-seed result.
        """
        self._rand = python_rng(ensure_rng(rng))
        return self

    def simulate(
        self,
        seeds: Sequence[int],
        blocked: Iterable[int] = (),
    ) -> int:
        """One cascade round; returns the number of active vertices."""
        return self._run(list(seeds), list(blocked))

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

    def activation_frequencies(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> np.ndarray:
        """Per-vertex activation frequency estimate of ``P_G(x, S)``."""
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        counts = np.zeros(self.csr.n, dtype=np.int64)
        seed_list = list(seeds)
        blocked_list = list(blocked)
        for _ in range(rounds):
            for v in self._run_collect(seed_list, blocked_list):
                counts[v] += 1
        return counts / rounds

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

    def _run_collect(self, seeds: list[int], blocked: list[int]) -> list[int]:
        stamp = self._prepare(seeds, blocked)
        visit = self._visit_mark
        block = self._block_mark
        indptr = self.csr.indptr_list
        indices = self.csr.indices_list
        probs = self.csr.probs_list
        rand = self._rand.random
        out: list[int] = []
        for s in seeds:
            if visit[s] != stamp:
                visit[s] = stamp
                out.append(s)
        head = 0
        while head < len(out):
            u = out[head]
            head += 1
            for j in range(indptr[u], indptr[u + 1]):
                v = indices[j]
                if (
                    visit[v] != stamp
                    and block[v] != stamp
                    and rand() < probs[j]
                ):
                    visit[v] = stamp
                    out.append(v)
        return out


# ----------------------------------------------------------------------
# per-graph engine cache: the convenience wrappers below used to build
# a fresh engine — and re-freeze a fresh CSRGraph — on every call, which
# dominated benchmark loops.  Keyed weakly so graphs die normally.
# Entries remember the graph's mutation version so in-place edits
# (including pure probability reassignment) rebuild the engine.
# ----------------------------------------------------------------------
_ENGINE_CACHE: "weakref.WeakKeyDictionary[DiGraph, tuple[int, MonteCarloEngine]]" = (  # noqa: E501
    weakref.WeakKeyDictionary()
)


def shared_engine(
    graph: DiGraph | CSRGraph, rng: RngLike = None
) -> MonteCarloEngine:
    """The cached engine for ``graph``, reseeded with ``rng``.

    Cached per :class:`DiGraph`, invalidated by the graph's mutation
    ``version`` — any ``add_edge``/``remove_edge``/probability
    reassignment since caching rebuilds the frozen CSR.  ``CSRGraph``
    inputs are never cached: an engine holds a strong reference to its
    CSR, which would pin a weakly-keyed entry forever, and building an
    engine over an existing CSR is cheap anyway (no freeze).
    """
    if isinstance(graph, CSRGraph):
        return MonteCarloEngine(graph, rng)
    cached = _ENGINE_CACHE.get(graph)
    if cached is not None and cached[0] == graph.version:
        return cached[1].reseed(rng)
    engine = MonteCarloEngine(graph, rng)
    _ENGINE_CACHE[graph] = (graph.version, engine)
    return engine


def simulate_cascade(
    graph: DiGraph | CSRGraph,
    seeds: Sequence[int],
    rng: RngLike = None,
    blocked: Iterable[int] = (),
) -> int:
    """Convenience one-shot cascade; see :class:`MonteCarloEngine`."""
    return shared_engine(graph, rng).simulate(seeds, blocked)


def expected_spread_mcs(
    graph: DiGraph | CSRGraph,
    seeds: Sequence[int],
    rounds: int = 1000,
    rng: RngLike = None,
    blocked: Iterable[int] = (),
) -> float:
    """Monte-Carlo estimate of ``E(S, G[V \\ blocked])``.

    The paper uses ``r = 10000`` rounds on a C++ testbed; pure-Python
    callers typically pass 500–2000, which the Chernoff analysis in
    :mod:`repro.sampling.estimator` shows is adequate at our scales.

    Repeated calls on the same graph object reuse a cached engine (and
    its frozen CSR) via :func:`shared_engine`; fixed-seed results are
    identical to constructing a fresh engine per call.
    """
    return shared_engine(graph, rng).expected_spread(seeds, rounds, blocked)
