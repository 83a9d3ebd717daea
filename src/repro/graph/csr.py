"""Compressed-sparse-row (CSR) view of a :class:`~repro.graph.DiGraph`.

The influence algorithms repeatedly sample live-edge graphs (Definition 4
of the paper) and run cascades; both need the edge set as flat arrays so
that numpy can draw all edge coins at once and the Python traversal loops
touch contiguous lists.  :class:`CSRGraph` freezes a ``DiGraph`` into that
layout.  It is immutable: blocking vertices is expressed by masks handed
to the samplers, never by rebuilding the structure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .digraph import DiGraph

__all__ = ["CSRGraph"]


class CSRGraph:
    """Immutable CSR snapshot of a directed graph with edge probabilities.

    Attributes
    ----------
    indptr:
        ``int64[n + 1]``; out-edges of vertex ``u`` occupy indices
        ``indptr[u]:indptr[u + 1]`` of the edge arrays.
    indices:
        ``int64[m]``; edge targets.
    probs:
        ``float64[m]``; propagation probability of each edge.
    src:
        ``int64[m]``; edge sources (the expansion of ``indptr``), used by
        the live-edge sampler to rebuild adjacency from surviving edges.
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "probs",
        "src",
        "__dict__",
    )

    def __init__(self, graph: DiGraph) -> None:
        self.n = graph.n
        self.m = graph.m
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        indices = np.empty(self.m, dtype=np.int64)
        probs = np.empty(self.m, dtype=np.float64)
        src = np.empty(self.m, dtype=np.int64)
        pos = 0
        for u in graph.vertices():
            indptr[u] = pos
            for v, p in graph.successors(u).items():
                indices[pos] = v
                probs[pos] = p
                src[pos] = u
                pos += 1
        indptr[self.n] = pos
        self.indptr = indptr
        self.indices = indices
        self.probs = probs
        self.src = src

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        probs: np.ndarray,
        src: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Rebuild a CSR snapshot directly from its flat arrays.

        Used by the sample pool's delta path to adopt the post-delta
        arrays without round-tripping through a ``DiGraph``.  Arrays
        are adopted, not copied.
        """
        self = cls.__new__(cls)
        self.n = int(indptr.shape[0]) - 1
        self.m = int(indices.shape[0])
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=np.float64)
        if src is None:
            src = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
            )
        self.src = np.asarray(src, dtype=np.int64)
        return self

    # ------------------------------------------------------------------
    # plain-list mirrors: Python-level loops index lists substantially
    # faster than numpy arrays, and the Monte-Carlo engine lives in such
    # loops.  Built lazily so array-only users pay nothing.
    # ------------------------------------------------------------------
    @cached_property
    def indptr_list(self) -> list[int]:
        return self.indptr.tolist()

    @cached_property
    def indices_list(self) -> list[int]:
        return self.indices.tolist()

    @cached_property
    def probs_list(self) -> list[float]:
        return self.probs.tolist()

    @cached_property
    def src_list(self) -> list[int]:
        return self.src.tolist()

    def out_edge_range(self, u: int) -> range:
        """Edge-array index range of ``u``'s out-edges."""
        return range(int(self.indptr[u]), int(self.indptr[u + 1]))

    def out_neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]: self.indptr[u + 1]]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.n}, m={self.m})"
