"""A compact directed graph with propagation probabilities on edges.

This module provides :class:`DiGraph`, the central graph type of the
library.  Vertices are contiguous integers ``0 .. n-1`` which keeps every
algorithm array-friendly; edges carry the propagation probability
``p(u, v)`` of the independent cascade (IC) model (Section III-A of the
paper).  The class intentionally implements only what the influence
algorithms need — adjacency, degrees, induced subgraphs and a few
transformations — rather than a general graph toolkit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

__all__ = ["DiGraph"]


class DiGraph:
    """Directed graph over vertices ``0 .. n-1`` with edge probabilities.

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are implicit: every integer in
        ``range(n)`` is a vertex, even if isolated.

    Notes
    -----
    The successor structure maps each vertex to a dict
    ``neighbour -> probability`` so edge lookups and probability updates
    are O(1); the predecessor structure stores plain lists because the
    algorithms only ever iterate in-neighbours.
    """

    __slots__ = ("_succ", "_pred", "_m")

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise ValueError(f"number of vertices must be >= 0, got {n}")
        self._succ: list[dict[int, float]] = [{} for _ in range(n)]
        self._pred: list[list[int]] = [[] for _ in range(n)]
        self._m = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int] | tuple[int, int, float]],
        default_probability: float = 1.0,
    ) -> "DiGraph":
        """Build a graph from ``(u, v)`` or ``(u, v, p)`` tuples.

        Edges given without a probability receive ``default_probability``.
        Duplicate edges overwrite the earlier probability.
        """
        graph = cls(n)
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                graph.add_edge(u, v, default_probability)
            else:
                u, v, p = edge  # type: ignore[misc]
                graph.add_edge(u, v, p)
        return graph

    def add_vertex(self) -> int:
        """Append a fresh isolated vertex and return its id."""
        self._succ.append({})
        self._pred.append([])
        return len(self._succ) - 1

    def add_edge(self, u: int, v: int, probability: float = 1.0) -> None:
        """Insert edge ``u -> v`` with the given propagation probability.

        Re-adding an existing edge replaces its probability.  Self loops
        are rejected: they never change IC spread and only complicate the
        dominator-tree machinery.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self loop on vertex {u} is not allowed")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"probability must be within [0, 1], got {probability!r}"
            )
        if v not in self._succ[u]:
            self._pred[v].append(u)
            self._m += 1
        self._succ[u][v] = probability

    def combine_edge(self, u: int, v: int, probability: float) -> None:
        """Merge a parallel edge ``u -> v`` using the noisy-or rule.

        If the edge already exists with probability ``q``, the stored
        probability becomes ``1 - (1 - q) * (1 - probability)`` — exactly
        the multi-seed unification rule of Section V of the paper.
        """
        existing = self._succ[u].get(v)
        if existing is None:
            self.add_edge(u, v, probability)
        else:
            self.add_edge(u, v, 1.0 - (1.0 - existing) * (1.0 - probability))

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``u -> v``.

        Raises the same named errors as :meth:`add_edge`:
        :class:`IndexError` for an out-of-range vertex and
        :class:`KeyError` naming ``(u, v)`` when the edge is absent.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._succ[u]:
            raise KeyError(f"no edge ({u}, {v}) to remove")
        del self._succ[u][v]
        self._pred[v].remove(u)
        self._m -= 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._succ)

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return self._m

    def vertices(self) -> range:
        """All vertex ids."""
        return range(len(self._succ))

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(u, v, probability)`` triples in vertex order."""
        for u, nbrs in enumerate(self._succ):
            for v, p in nbrs.items():
                yield u, v, p

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._succ[u]

    def probability(self, u: int, v: int) -> float:
        """Propagation probability of edge ``u -> v``."""
        return self._succ[u][v]

    def out_neighbors(self, u: int) -> Sequence[int]:
        return list(self._succ[u])

    def in_neighbors(self, u: int) -> Sequence[int]:
        return list(self._pred[u])

    def successors(self, u: int) -> Mapping[int, float]:
        """Read-only view of ``u``'s out-edges as ``{v: probability}``."""
        return self._succ[u]

    def out_degree(self, u: int) -> int:
        return len(self._succ[u])

    def in_degree(self, u: int) -> int:
        return len(self._pred[u])

    def degree(self, u: int) -> int:
        """Total degree (in + out), matching ``d_avg`` of Table IV."""
        return len(self._succ[u]) + len(self._pred[u])

    def average_degree(self) -> float:
        """Average total degree; 0.0 for the empty graph."""
        if not self._succ:
            return 0.0
        return 2.0 * self._m / len(self._succ)

    def max_degree(self) -> int:
        if not self._succ:
            return 0
        return max(self.degree(u) for u in self.vertices())

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        clone = DiGraph(self.n)
        for u, nbrs in enumerate(self._succ):
            clone._succ[u] = dict(nbrs)
        for v, preds in enumerate(self._pred):
            clone._pred[v] = list(preds)
        clone._m = self._m
        return clone

    def reverse(self) -> "DiGraph":
        """Graph with every edge flipped (probabilities preserved)."""
        rev = DiGraph(self.n)
        for u, v, p in self.edges():
            rev.add_edge(v, u, p)
        return rev

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["DiGraph", list[int]]:
        """Subgraph induced by ``vertices`` with relabelled ids.

        Returns ``(subgraph, to_original)`` where ``to_original[i]`` is
        the original id of the subgraph's vertex ``i``.
        """
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        sub = DiGraph(len(keep))
        for v in keep:
            for w, p in self._succ[v].items():
                if w in index:
                    sub.add_edge(index[v], index[w], p)
        return sub, keep

    def without_vertices(self, blocked: Iterable[int]) -> "DiGraph":
        """Copy with all edges incident to ``blocked`` removed.

        Vertex ids are preserved (blocked vertices stay as isolated
        placeholders), which matches the paper's ``G[V \\ B]`` semantics
        for spread computation: a blocked vertex can never be activated.
        """
        drop = set(blocked)
        out = DiGraph(self.n)
        for u, v, p in self.edges():
            if u not in drop and v not in drop:
                out.add_edge(u, v, p)
        return out

    def as_bidirectional(self) -> "DiGraph":
        """Treat every edge as undirected: add the reverse of each edge.

        Reverse edges copy the forward probability unless they already
        exist.  This mirrors the paper's handling of undirected SNAP
        graphs ("we consider each edge as bi-directional").
        """
        out = self.copy()
        for u, v, p in list(self.edges()):
            if not out.has_edge(v, u):
                out.add_edge(v, u, p)
        return out

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._succ)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(n={self.n}, m={self.m})"

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < len(self._succ):
            raise IndexError(
                f"vertex {u} out of range for graph with {len(self._succ)} "
                "vertices"
            )
