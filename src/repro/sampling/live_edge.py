"""Live-edge graph sampling (Definition 4 of the paper).

A *random sampled graph* ``g ~ G`` keeps every edge ``(u, v)``
independently with probability ``p(u, v)``.  The estimator of
Algorithm 2 consumes one sampled graph per iteration as its surviving
edge positions, which the engine turns into trees and reach counts
(:func:`repro.engine.pool.sampler_batches`); this module draws them
efficiently:

* all edge coins are drawn in one vectorised numpy call;
* blocking is folded into the *effective* probabilities (an edge
  incident to a blocked vertex survives with probability 0), so the hot
  loop never tests a blocked set.

:func:`adjacency_from_edges` turns a draw into a dict adjacency, the
reference form tests and benchmarks check the engine against.

:class:`ICSampler` implements the independent cascade distribution;
:class:`~repro.models.triggering.TriggeringSampler` implements the
generalised triggering model behind the same :class:`EdgeSampler`
protocol, which is how Section V-E's extension plugs into AG/GR
unchanged.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from ..engine.kernels import _checked_ids
from ..graph import CSRGraph, DiGraph
from ..rng import ensure_rng, RngLike

__all__ = ["EdgeSampler", "ICSampler", "adjacency_from_edges"]


@runtime_checkable
class EdgeSampler(Protocol):
    """Anything that can draw live-edge graphs and absorb blockers."""

    csr: CSRGraph

    def block(self, vertices: Iterable[int]) -> None:
        """Remove all edges incident to ``vertices`` from future draws."""

    def unblock(self, vertices: Iterable[int]) -> None:
        """Restore previously blocked vertices (GreedyReplace phase 2)."""

    def sample_surviving_edges(self) -> np.ndarray:
        """Edge positions (into the CSR arrays) surviving one draw,
        ascending — the order the engine's kernels read."""


def adjacency_from_edges(
    csr: CSRGraph, positions: np.ndarray
) -> dict[int, list[int]]:
    """Adjacency mapping of the sampled graph given surviving positions."""
    src = csr.src_list
    dst = csr.indices_list
    succ: dict[int, list[int]] = {}
    for j in positions.tolist():
        u = src[j]
        nbrs = succ.get(u)
        if nbrs is None:
            succ[u] = [dst[j]]
        else:
            nbrs.append(dst[j])
    return succ


class ICSampler:
    """Live-edge sampler for the independent cascade model."""

    def __init__(self, graph: DiGraph | CSRGraph, rng: RngLike = None):
        self.csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
        self._gen = ensure_rng(rng)
        self._peff = self.csr.probs.copy()
        self._blocked: set[int] = set()

    @property
    def blocked(self) -> frozenset[int]:
        return frozenset(self._blocked)

    def block(self, vertices: Iterable[int]) -> None:
        """Zero the effective probability of edges touching ``vertices``.

        Incremental: each call only rewrites the edge slices of the new
        blockers, so the per-greedy-round cost is proportional to the
        blockers' degrees.  Every id is checked against ``[0, n)``
        before anything changes.
        """
        csr = self.csr
        _, ids = _checked_ids(csr.n, (), vertices)
        for v in ids.tolist():
            if v in self._blocked:
                continue
            self._blocked.add(v)
            # out-edges live in a contiguous CSR slice
            self._peff[csr.indptr[v]: csr.indptr[v + 1]] = 0.0
            # in-edges need the precomputed position index
            self._peff[self._in_positions(v)] = 0.0

    def unblock(self, vertices: Iterable[int]) -> None:
        """Restore edges of previously blocked vertices.

        Used by GreedyReplace's replacement phase.  The effective
        probabilities are rebuilt from scratch (O(m)), which is cheap
        relative to the theta sampled graphs that follow each call.
        """
        changed = False
        for v in vertices:
            if v in self._blocked:
                self._blocked.discard(v)
                changed = True
        if not changed:
            return
        self._peff = self.csr.probs.copy()
        still_blocked = list(self._blocked)
        self._blocked.clear()
        self.block(still_blocked)
        # edge-level blocks are permanent and survive vertex unblocking
        for j in getattr(self, "_blocked_edges", ()):
            self._peff[j] = 0.0

    def block_edges(self, positions: Iterable[int]) -> None:
        """Remove individual edges (by CSR position) from future draws.

        Used by the edge-blocking variant; vertex-level ``unblock`` does
        not resurrect edges removed this way.  Every position is checked
        against ``[0, m)`` before anything changes.
        """
        pos = np.asarray(list(positions), dtype=np.int64)
        bad = (pos < 0) | (pos >= self.csr.m)
        if bad.any():
            raise ValueError(
                f"blocked edge position {int(pos[bad][0])} out of range "
                f"[0, {self.csr.m})"
            )
        if not hasattr(self, "_blocked_edges"):
            self._blocked_edges: set[int] = set()
        self._blocked_edges.update(pos.tolist())
        self._peff[pos] = 0.0

    def sample_surviving_edges(self) -> np.ndarray:
        mask = self._gen.random(self.csr.m) < self._peff
        return np.flatnonzero(mask)

    def sample_adjacency(self) -> dict[int, list[int]]:
        """One sampled graph as an adjacency mapping."""
        return adjacency_from_edges(self.csr, self.sample_surviving_edges())

    # ------------------------------------------------------------------
    # in-edge position index (built on first block() call)
    # ------------------------------------------------------------------
    def _in_positions(self, v: int) -> np.ndarray:
        if not hasattr(self, "_in_order"):
            order = np.argsort(self.csr.indices, kind="stable")
            counts = np.bincount(self.csr.indices, minlength=self.csr.n)
            offsets = np.zeros(self.csr.n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            self._in_order = order
            self._in_offsets = offsets
        return self._in_order[self._in_offsets[v]: self._in_offsets[v + 1]]
