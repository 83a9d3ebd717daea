"""CELF-style lazy evaluation for the greedy blocker loops.

Every greedy solver in :mod:`repro.core` repeats the same inner
question — "which candidate's marginal spread decrease is largest right
now?" — and the naive answer re-evaluates every candidate every round.
CELF (Leskovec et al., KDD 2007) keeps the previous round's gains in a
max-heap as optimistic bounds and re-evaluates a candidate only when it
surfaces with a stale bound; under diminishing returns the top of the
heap is re-checked a handful of times per round instead of ``n``.

IMIN's objective is **not** submodular (Theorem 3 of the paper), so a
stale bound can occasionally *under*-state a gain and lazy selection is
a heuristic rather than an exact replay of exhaustive greedy — the same
trade the paper makes by running greedy on a non-submodular objective
at all.  In practice the two agree on the benchmark graphs; the
cross-validation tests pin that down on the toy instances.

The solvers select through CELF exactly when their evaluator is a
sketch (it answers ``marginal_gain``); every other evaluator keeps the
paper's sampled-graph or Monte-Carlo loop.  :func:`make_gain_fn` reads
gains off the sketch's whole-candidate
:meth:`~repro.engine.sketch.SketchIndex.decrease_estimates` sweep, so
a re-check costs an array lookup.  :func:`celf_select` itself takes
any gain function.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Protocol, Sequence, TYPE_CHECKING

from ..obs import global_registry, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..engine import SpreadEvaluator

__all__ = [
    "GainFn",
    "LazySelection",
    "celf_select",
    "make_gain_fn",
    "selects_through_sketch",
    "supports_marginal_gain",
]


class GainFn(Protocol):
    """Marginal spread decrease of blocking ``v`` on top of ``picked``."""

    def __call__(self, v: int, picked: Sequence[int]) -> float: ...


@dataclass(frozen=True)
class LazySelection:
    """Outcome of one :func:`celf_select` run.

    ``picks``/``gains`` are aligned; ``evaluations`` counts gain-oracle
    calls — the cost driver that lazy evaluation exists to shrink.
    """

    picks: list[int]
    gains: list[float]
    evaluations: int


def supports_marginal_gain(evaluator: object) -> bool:
    """True when ``evaluator`` answers marginal gains directly (the
    sketch index) — the signal the solvers select through CELF on."""
    return callable(getattr(evaluator, "marginal_gain", None))


def selects_through_sketch(
    evaluator: object, sampler_factory: object
) -> bool:
    """Whether a sampled-graph solver hands selection to ``evaluator``.

    True exactly when the evaluator is a sketch
    (:func:`supports_marginal_gain`).  A sketch answers for its own
    diffusion model, so it rejects a ``sampler_factory``, which only
    shapes the sampling path.
    """
    if not supports_marginal_gain(evaluator):
        return False
    if sampler_factory is not None:
        raise ValueError(
            "a sketch evaluator selects through its own diffusion "
            "model; sampler_factory only applies to the sampling path "
            "(pass a non-sketch evaluator or none)"
        )
    return True


def make_gain_fn(
    evaluator: "SpreadEvaluator",
    seeds: Sequence[int],
    rounds: int,
) -> GainFn:
    """Marginal-gain oracle over a sketch for a fixed query shape.

    Each blocker set costs one whole-candidate ``decrease_estimates``
    sweep, memoised for the most recent set, so CELF's initial heap
    build and every same-round re-check are plain array reads.
    """
    seed_list = list(seeds)
    sweep_cache: dict[tuple[int, ...], object] = {}

    def sweep_gains(picked: Sequence[int]):
        key = tuple(picked)
        gains = sweep_cache.get(key)
        if gains is None:
            sweep_cache.clear()
            gains = evaluator.decrease_estimates(
                seed_list, rounds, list(picked)
            )
            sweep_cache[key] = gains
        return gains

    def gain(v: int, picked: Sequence[int]) -> float:
        return float(sweep_gains(picked)[v])

    # expose the whole-candidate sweep so celf_select can build its
    # initial heap from one array instead of one Python call per
    # candidate
    gain.bulk = sweep_gains
    return gain


def celf_select(
    candidates: Sequence[int],
    budget: int,
    gain_fn: GainFn,
    picked: Sequence[int] | None = None,
    stop_when_exhausted: bool = True,
) -> LazySelection:
    """Pick up to ``budget`` blockers by lazily re-checked greedy.

    Parameters
    ----------
    candidates:
        Candidate pool (need not exclude ``picked``; duplicates and
        already-picked vertices are skipped).
    gain_fn:
        Called as ``gain_fn(v, picked_so_far)``; ``picked_so_far``
        includes the ``picked`` prefix.
    picked:
        Blockers already committed (GreedyReplace's fill phase
        continues a phase-1 selection).  Not counted against
        ``budget``; not included in the returned ``picks``.
    stop_when_exhausted:
        Stop early once the best *fresh* gain is <= 0 — blocking more
        vertices cannot help (matches the eager solvers).

    Ties break toward the smaller vertex id, matching the eager
    argmax order.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    with span("celf.select"):
        base = list(picked) if picked is not None else []
        taken = set(base)
        pool = [v for v in dict.fromkeys(candidates) if v not in taken]

        picks: list[int] = []
        gains: list[float] = []
        evaluations = 0
        # heap of (-gain, vertex, round-the-gain-was-computed-in); an
        # entry whose round stamp is current is fresh (no candidate's
        # gain can have changed since) and wins the round outright
        bulk = getattr(gain_fn, "bulk", None)
        if bulk is not None and pool:
            # whole-candidate sweep: one evaluator query (one rebase)
            # seeds the entire heap — same values the per-vertex loop
            # would read, so picks and tie-breaks are unchanged
            sweep = bulk(base)
            evaluations += len(pool)
            heap = [(-float(sweep[v]), v, 0) for v in pool]
        else:
            heap = []
            for v in pool:
                g = gain_fn(v, base)
                evaluations += 1
                heap.append((-g, v, 0))
        heapq.heapify(heap)

        while heap and len(picks) < budget:
            neg_gain, v, stamp = heapq.heappop(heap)
            if stamp != len(picks):
                g = gain_fn(v, base + picks)
                evaluations += 1
                heapq.heappush(heap, (-g, v, len(picks)))
                continue
            if -neg_gain <= 0.0 and stop_when_exhausted:
                break
            picks.append(v)
            gains.append(-neg_gain)

    global_registry().counter(
        "repro_celf_evaluations_total",
        "Gain-oracle calls made by CELF lazy selection",
    ).inc(evaluations)
    return LazySelection(picks=picks, gains=gains, evaluations=evaluations)
