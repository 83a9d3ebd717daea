"""Batched graph mutations: the unit of the incremental update path.

A long-lived deployment tracking a changing network edits its graph —
an edge appears, one disappears, a probability drifts — and before
this module every edit invalidated every derived structure (sample
pools, sketch indexes, served artifacts) back to a cold rebuild.
:class:`GraphDelta` names one *batch* of edits as a validated value
object so each layer can patch instead:

* :meth:`~repro.engine.pool.SamplePool.apply_delta` patches the pooled
  live-edge samples bit-identically to a from-scratch regeneration of
  the mutated graph;
* :meth:`~repro.engine.sketch.SketchIndex.apply_delta` rebuilds only
  the dominator trees of samples whose survived-edge set changed;
* the serving layer's ``update`` op applies one delta to a warm
  artifact and journals it so rebuilt or restarted workers replay the
  same history.

The three edit kinds are disjoint by construction — an edge may appear
in at most one of ``inserts``, ``deletes`` and ``reweights`` — because
mixed semantics (delete-then-insert in one batch) would make the
post-delta adjacency order ambiguous.  Sequencing across batches is
the caller's job (the service threads a monotone ``seq`` through its
journal).

Application order within a batch is fixed: deletes, then reweights,
then inserts, with inserts appended to their source row in delta
order.  This pins the post-delta CSR layout exactly, which is what
lets the pool patch arrays instead of rebuilding them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .digraph import DiGraph

__all__ = ["GraphDelta"]


def _vertex_id(value, what: str) -> int:
    """An integer of any integer type (numpy's too), never a bool,
    float or string — ``int()`` would truncate ``0.9`` to vertex 0.
    The engine checks seed and blocked ids with it too."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} vertex ids must be integers, got {value!r}")


def _edge_pair(value, what: str) -> tuple[int, int]:
    try:
        u, v = value
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} entries must be (u, v) pairs, got {value!r}"
        ) from None
    u, v = _vertex_id(u, what), _vertex_id(v, what)
    if u == v:
        raise ValueError(f"self loop on vertex {u} is not allowed")
    if u < 0 or v < 0:
        raise ValueError(f"{what} vertex ids must be >= 0, got ({u}, {v})")
    return u, v


def _edge_triple(value, what: str) -> tuple[int, int, float]:
    try:
        u, v, p = value
    except (TypeError, ValueError):
        raise ValueError(
            f"{what} entries must be (u, v, p) triples, got {value!r}"
        ) from None
    u, v = _edge_pair((u, v), what)
    if isinstance(p, bool) or not isinstance(p, Real):
        raise ValueError(
            f"{what} probabilities must be real numbers, got {p!r} for "
            f"edge ({u}, {v})"
        )
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(
            f"probability must be within [0, 1], got {p!r} for edge "
            f"({u}, {v})"
        )
    return u, v, p


@dataclass(frozen=True)
class GraphDelta:
    """One validated batch of edge mutations.

    Parameters
    ----------
    inserts:
        ``(u, v, p)`` triples of edges to add.  The probability is
        explicit — a delta mutates the *prepared* graph, it does not
        re-run a probability model.
    deletes:
        ``(u, v)`` pairs of edges to remove.
    reweights:
        ``(u, v, p)`` triples of existing edges whose probability
        changes.
    """

    inserts: tuple[tuple[int, int, float], ...] = ()
    deletes: tuple[tuple[int, int], ...] = ()
    reweights: tuple[tuple[int, int, float], ...] = ()

    def __init__(
        self,
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[Sequence] = (),
        reweights: Iterable[Sequence] = (),
    ) -> None:
        ins = tuple(_edge_triple(e, "inserts") for e in inserts)
        dels = tuple(_edge_pair(e, "deletes") for e in deletes)
        rews = tuple(_edge_triple(e, "reweights") for e in reweights)
        seen: set[tuple[int, int]] = set()
        for u, v in (
            [(u, v) for u, v, _ in ins]
            + list(dels)
            + [(u, v) for u, v, _ in rews]
        ):
            if (u, v) in seen:
                raise ValueError(
                    f"edge ({u}, {v}) appears more than once in the "
                    "delta — each edge may be inserted, deleted or "
                    "reweighted at most once per batch"
                )
            seen.add((u, v))
        object.__setattr__(self, "inserts", ins)
        object.__setattr__(self, "deletes", dels)
        object.__setattr__(self, "reweights", rews)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total number of edge edits in the batch."""
        return len(self.inserts) + len(self.deletes) + len(self.reweights)

    def __bool__(self) -> bool:
        return len(self) > 0

    def max_vertex(self) -> int:
        """Largest vertex id the delta names; -1 for an empty delta."""
        best = -1
        for u, v, _ in self.inserts:
            best = max(best, u, v)
        for u, v in self.deletes:
            best = max(best, u, v)
        for u, v, _ in self.reweights:
            best = max(best, u, v)
        return best

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def check_against(self, graph: "DiGraph") -> None:
        """Validate the delta against a concrete graph without
        mutating it: vertices in range, deletes/reweights name existing
        edges, inserts name absent ones.  Raises :class:`ValueError`
        with the offending edge named."""
        n = graph.n
        top = self.max_vertex()
        if top >= n:
            raise ValueError(
                f"vertex {top} out of range for graph with {n} vertices"
            )
        for u, v in self.deletes:
            if not graph.has_edge(u, v):
                raise ValueError(f"cannot delete missing edge ({u}, {v})")
        for u, v, _ in self.reweights:
            if not graph.has_edge(u, v):
                raise ValueError(
                    f"cannot reweight missing edge ({u}, {v})"
                )
        for u, v, _ in self.inserts:
            if graph.has_edge(u, v):
                raise ValueError(
                    f"cannot insert existing edge ({u}, {v}) — use a "
                    "reweight"
                )

    def apply_to(self, graph: "DiGraph") -> "DiGraph":
        """Mutate ``graph`` in place and return it.

        Order is deletes -> reweights -> inserts, inserts in delta
        order, so the mutated graph's CSR layout is exactly the one
        :meth:`~repro.engine.pool.SamplePool.apply_delta` derives by
        array surgery (dict insertion order: removals keep the
        survivors' order, reweights keep their slot, inserts append).
        """
        self.check_against(graph)
        for u, v in self.deletes:
            graph.remove_edge(u, v)
        for u, v, p in self.reweights:
            graph.add_edge(u, v, p)
        for u, v, p in self.inserts:
            graph.add_edge(u, v, p)
        return graph

    # ------------------------------------------------------------------
    # wire format (the service's `update` op payload)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, list]:
        return {
            "inserts": [list(e) for e in self.inserts],
            "deletes": [list(e) for e in self.deletes],
            "reweights": [list(e) for e in self.reweights],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "GraphDelta":
        """Parse the wire form; unknown keys are rejected so a typo'd
        field never silently drops half an update."""
        extra = set(payload) - {"inserts", "deletes", "reweights"}
        if extra:
            raise ValueError(
                "unknown delta fields: " + ", ".join(sorted(extra))
            )
        return cls(
            inserts=payload.get("inserts") or (),
            deletes=payload.get("deletes") or (),
            reweights=payload.get("reweights") or (),
        )
