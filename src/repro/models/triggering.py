"""The triggering model and its Linear Threshold instance (Section V-E).

The triggering model generalises both IC and LT: every vertex ``u``
draws a *triggering set* from a distribution ``T(u)`` over subsets of
its in-neighbours, and an in-edge survives iff its source is in the
drawn set.  The paper's extension observes that AG/GR work unchanged on
triggering-model samples — only the sampler differs — so this module
implements the :class:`~repro.sampling.EdgeSampler` protocol:

* :class:`LinearThresholdSampler` — the classic LT model: each vertex
  keeps at most one in-edge, edge ``(u, v)`` with probability equal to
  its weight (weights per vertex must sum to <= 1).  Fully vectorised.
* :class:`GeneralTriggeringSampler` — arbitrary per-vertex triggering
  distributions via a user callback; flexible but Python-loop paced.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..graph import CSRGraph, DiGraph
from ..rng import ensure_rng, RngLike

__all__ = ["LinearThresholdSampler", "GeneralTriggeringSampler"]


def _in_edge_index(csr: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Edge positions grouped by target: ``(order, offsets)`` such that
    ``order[offsets[v]:offsets[v + 1]]`` are the in-edges of ``v``."""
    order = np.argsort(csr.indices, kind="stable")
    counts = np.bincount(csr.indices, minlength=csr.n)
    offsets = np.zeros(csr.n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets


class LinearThresholdSampler:
    """Live-edge sampler for the Linear Threshold model.

    Edge weights default to the graph's stored probabilities; under the
    weighted-cascade assignment (``p = 1/in_degree``) they sum to
    exactly 1 per vertex, the standard uniform LT instance.  Weights
    summing to more than 1 (within a small tolerance) are rejected.
    """

    def __init__(
        self,
        graph: DiGraph | CSRGraph,
        rng: RngLike = None,
        weights: np.ndarray | None = None,
    ):
        self.csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
        self._gen = ensure_rng(rng)
        self._in_order, self._in_offsets = _in_edge_index(self.csr)
        base = self.csr.probs if weights is None else np.asarray(
            weights, dtype=np.float64
        )
        if base.shape != (self.csr.m,):
            raise ValueError("weights must have one entry per edge")
        self._weights = base.copy()
        sums = np.add.reduceat(
            np.concatenate((self._weights[self._in_order], [0.0])),
            np.minimum(self._in_offsets[:-1], self.csr.m),
        ) if self.csr.m else np.zeros(self.csr.n)
        live = np.diff(self._in_offsets) > 0
        if np.any(sums[live] > 1.0 + 1e-9):
            raise ValueError(
                "LT weights must sum to at most 1 per vertex; "
                "use assign_weighted_cascade or normalise explicitly"
            )
        self._blocked: set[int] = set()
        self._refresh()

    @property
    def blocked(self) -> frozenset[int]:
        return frozenset(self._blocked)

    def block(self, vertices: Iterable[int]) -> None:
        changed = False
        for v in vertices:
            if v not in self._blocked:
                self._blocked.add(v)
                changed = True
        if changed:
            self._refresh()

    def unblock(self, vertices: Iterable[int]) -> None:
        changed = False
        for v in vertices:
            if v in self._blocked:
                self._blocked.discard(v)
                changed = True
        if changed:
            self._refresh()

    def sample_surviving_edges(self) -> np.ndarray:
        """One LT triggering draw: <= 1 surviving in-edge per vertex.

        Vectorised inverse-CDF over the per-vertex weight segments: a
        uniform draw ``r_v`` lands in segment position
        ``searchsorted(cumw, base_v + r_v)``; if that position is still
        inside the vertex's segment, the corresponding edge survives.
        """
        if self.csr.m == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._in_offsets[:-1]
        ends = self._in_offsets[1:]
        r = self._gen.random(self.csr.n)
        targets = self._cumw0[starts] + r
        positions = np.searchsorted(self._cumw, targets, side="right")
        survive = positions < ends
        return np.sort(self._in_order[positions[survive]])

    def _refresh(self) -> None:
        weights = self._weights.copy()
        if self._blocked:
            blocked = np.fromiter(self._blocked, dtype=np.int64)
            targets = self.csr.indices
            sources = self.csr.src
            dead = np.isin(targets, blocked) | np.isin(sources, blocked)
            weights[dead] = 0.0
        ordered = weights[self._in_order]
        self._cumw = np.cumsum(ordered)
        self._cumw0 = np.concatenate(([0.0], self._cumw))


class GeneralTriggeringSampler:
    """Triggering model with an arbitrary per-vertex distribution.

    ``draw(v, in_sources, rng)`` must return the subset (any iterable)
    of ``in_sources`` forming the triggering set of ``v`` for this
    sample.  ``in_sources`` is the tuple of in-neighbour ids aligned
    with the vertex's in-edge positions.
    """

    def __init__(
        self,
        graph: DiGraph | CSRGraph,
        draw: Callable[
            [int, tuple[int, ...], np.random.Generator], Iterable[int]
        ],
        rng: RngLike = None,
    ):
        self.csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
        self._draw = draw
        self._gen = ensure_rng(rng)
        self._in_order, self._in_offsets = _in_edge_index(self.csr)
        src = self.csr.src
        self._in_sources: list[tuple[int, ...]] = [
            tuple(
                int(src[j])
                for j in self._in_order[
                    self._in_offsets[v]: self._in_offsets[v + 1]
                ]
            )
            for v in range(self.csr.n)
        ]
        self._blocked: set[int] = set()

    @property
    def blocked(self) -> frozenset[int]:
        return frozenset(self._blocked)

    def block(self, vertices: Iterable[int]) -> None:
        self._blocked.update(vertices)

    def unblock(self, vertices: Iterable[int]) -> None:
        self._blocked.difference_update(vertices)

    def sample_surviving_edges(self) -> np.ndarray:
        surviving: list[int] = []
        blocked = self._blocked
        for v in range(self.csr.n):
            if v in blocked:
                continue
            sources = self._in_sources[v]
            if not sources:
                continue
            chosen = set(self._draw(v, sources, self._gen))
            if not chosen:
                continue
            seg = self._in_order[
                self._in_offsets[v]: self._in_offsets[v + 1]
            ]
            for source, j in zip(sources, seg):
                if source in chosen and source not in blocked:
                    surviving.append(int(j))
        return np.asarray(sorted(surviving), dtype=np.int64)

