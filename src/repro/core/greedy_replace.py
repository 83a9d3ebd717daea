"""Algorithm 4: GreedyReplace (GR).

Motivation (Section V-D): with an unlimited budget the optimal blocking
is exactly the seeds' out-neighbours, yet plain greedy may spend its
budget on "deep" vertices and miss them (Example 3 / Table III).  GR
therefore

1. greedily picks ``min(d_out(s), b)`` blockers restricted to the
   source's out-neighbours, then
2. revisits the blockers in reverse insertion order and greedily
   *replaces* each with the globally best vertex, terminating early the
   first time the incumbent survives its own replacement round.

When the source has fewer than ``b`` out-neighbours the remaining
budget is spent with AdvancedGreedy rounds over all candidates —
the paper's pseudocode leaves this case implicit; filling the budget is
the natural reading of "returns the set B of b blockers".
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

import numpy as np

from ..graph import DiGraph
from ..rng import ensure_rng, RngLike
from ..sampling import EdgeSampler, ICSampler
from .advanced_greedy import (
    _sweep_select,
    BlockingResult,
    SamplerFactory,
    selects_through_sketch,
)
from .decrease import decrease_es_computation
from .problem import unify_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..engine import SpreadEvaluator

__all__ = ["greedy_replace"]


def greedy_replace(
    graph: DiGraph,
    seeds: Sequence[int],
    budget: int,
    theta: int = 1000,
    rng: RngLike = None,
    sampler_factory: SamplerFactory | None = None,
    fill_budget: bool = True,
    evaluator: "SpreadEvaluator | None" = None,
) -> BlockingResult:
    """GreedyReplace blocker selection (Algorithm 4).

    Parameters mirror :func:`~repro.core.advanced_greedy.advanced_greedy`;
    ``fill_budget=False`` reproduces the paper's literal pseudocode,
    which leaves the blocker set smaller than ``b`` when the source has
    fewer than ``b`` out-neighbours.  ``evaluator`` (if given, built on
    the original graph) re-estimates the final blocker set's spread
    independently over ``theta`` rounds; selection is unchanged.

    A sketch evaluator instead runs all three phases itself: every
    pick, in each phase, is the argmax of one whole-candidate
    :meth:`~repro.engine.sketch.SketchIndex.decrease_estimates` sweep.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if selects_through_sketch(evaluator, sampler_factory):
        return _lazy_greedy_replace(
            graph, seeds, budget, theta, evaluator, fill_budget
        )
    gen = ensure_rng(rng)
    unified = unify_seeds(graph, seeds)
    if sampler_factory is None:
        sampler: EdgeSampler = ICSampler(unified.graph, gen)
    else:
        sampler = sampler_factory(unified.graph, gen)
    source = unified.source

    blockers: list[int] = []
    round_spreads: list[float] = []
    round_deltas: list[float] = []
    estimated = 0.0

    # ------------------------------------------------------------------
    # Phase 1: greedy over the source's out-neighbours (Lines 1-10).
    # ------------------------------------------------------------------
    candidate_blockers = set(unified.graph.out_neighbors(source))
    phase1_rounds = min(len(candidate_blockers), budget)
    for _ in range(phase1_rounds):
        result = decrease_es_computation(sampler, source, theta, rng=gen)
        x = _argmax(result.delta, candidate_blockers)
        if x < 0:
            break
        candidate_blockers.discard(x)
        sampler.block([x])
        blockers.append(x)
        round_spreads.append(result.spread)
        round_deltas.append(float(result.delta[x]))
        estimated = result.spread - float(result.delta[x])

    # ------------------------------------------------------------------
    # Phase 1b: out-degree smaller than the budget — fill greedily over
    # all candidates (see module docstring).
    # ------------------------------------------------------------------
    if fill_budget:
        while len(blockers) < min(budget, unified.graph.n - 1):
            result = decrease_es_computation(sampler, source, theta, rng=gen)
            exclude = set(blockers)
            exclude.add(source)
            x = result.best_vertex(exclude=exclude)
            if x < 0 or result.delta[x] <= 0.0:
                estimated = result.spread
                round_spreads.append(result.spread)
                break
            sampler.block([x])
            blockers.append(x)
            round_spreads.append(result.spread)
            round_deltas.append(float(result.delta[x]))
            estimated = result.spread - float(result.delta[x])

    # ------------------------------------------------------------------
    # Phase 2: replacement in reverse insertion order (Lines 11-20).
    # ------------------------------------------------------------------
    for position in range(len(blockers) - 1, -1, -1):
        u = blockers[position]
        sampler.unblock([u])  # B <- B \ {u}
        others = [b for b in blockers if b != u]
        result = decrease_es_computation(sampler, source, theta, rng=gen)
        exclude = set(others)
        exclude.add(source)
        x = result.best_vertex(exclude=exclude)
        if x < 0:
            x = u
        sampler.block([x])
        blockers[position] = x
        round_spreads.append(result.spread)
        round_deltas.append(float(result.delta[x]))
        estimated = result.spread - float(result.delta[x])
        if x == u:
            # early termination: the incumbent is already the best
            # choice, so earlier blockers would not change either
            break

    if not round_spreads:
        result = decrease_es_computation(sampler, source, theta, rng=gen)
        round_spreads.append(result.spread)
        estimated = result.spread

    blockers_original = unified.blockers_to_original(blockers)
    estimated_original = unified.spread_to_original(estimated)
    if evaluator is not None:
        estimated_original = evaluator.expected_spread(
            list(seeds), theta, blockers_original
        )
    return BlockingResult(
        blockers=blockers_original,
        estimated_spread=estimated_original,
        round_spreads=round_spreads,
        round_deltas=round_deltas,
    )


def _lazy_greedy_replace(
    graph: DiGraph,
    seeds: Sequence[int],
    budget: int,
    theta: int,
    evaluator: "SpreadEvaluator",
    fill_budget: bool,
) -> BlockingResult:
    """GreedyReplace's three phases driven by a sketch evaluator.

    Mirrors the eager algorithm on the *original* graph (multi-seed
    handling is the evaluator's job, so blockers come back as original
    ids).  Every pick is one round of
    :func:`~repro.core.advanced_greedy._sweep_select`: phase 1 over the
    seeds' out-neighbours, phase 1b over all candidates, and each
    replacement over all candidates but the other blockers.
    """
    seed_list = list(dict.fromkeys(seeds))
    seed_set = set(seed_list)

    current = evaluator.expected_spread(seed_list, theta)
    round_spreads: list[float] = []
    round_deltas: list[float] = []
    blockers: list[int] = []

    def take(picks: list[int], gains: list[float]) -> None:
        nonlocal current
        for pick, gain in zip(picks, gains):
            round_spreads.append(current)
            blockers.append(pick)
            round_deltas.append(gain)
            current -= gain

    # ------------------------------------------------------------------
    # Phase 1: greedy over the seeds' out-neighbours — the unified
    # source's out-neighbourhood (Lines 1-10).
    # ------------------------------------------------------------------
    neighbours = [v for s in seed_list for v in graph.out_neighbors(s)]
    take(*_sweep_select(evaluator, seed_list, theta, budget, neighbours))

    # ------------------------------------------------------------------
    # Phase 1b: out-degree smaller than the budget — fill greedily over
    # all candidates (see module docstring).
    # ------------------------------------------------------------------
    cap = min(budget, graph.n - len(seed_set))
    if fill_budget and len(blockers) < cap:
        take(
            *_sweep_select(
                evaluator, seed_list, theta, cap - len(blockers),
                picked=blockers,
            )
        )

    # ------------------------------------------------------------------
    # Phase 2: replacement in reverse insertion order (Lines 11-20).
    # The incumbent is a candidate, so every round picks a vertex.
    # ------------------------------------------------------------------
    for position in range(len(blockers) - 1, -1, -1):
        u = blockers[position]
        others = blockers[:position] + blockers[position + 1:]
        spread = evaluator.expected_spread(seed_list, theta, others)
        (x,), (gain,) = _sweep_select(
            evaluator, seed_list, theta, 1, picked=others, spend_budget=True
        )
        blockers[position] = x
        round_spreads.append(spread)
        round_deltas.append(gain)
        current = spread - gain
        if x == u:
            # early termination: the incumbent is already the best
            # choice, so earlier blockers would not change either
            break

    if not round_spreads:
        round_spreads.append(current)
    return BlockingResult(
        blockers=blockers,
        estimated_spread=current,
        round_spreads=round_spreads,
        round_deltas=round_deltas,
    )


def _argmax(delta, candidates: set[int]) -> int:
    """Candidate with the largest estimated decrease (smallest id on
    ties); -1 when no candidate has positive decrease.

    Vectorized over the candidate set: ``np.argmax`` on the ascending
    candidate array returns the first maximum, matching the historical
    ascending scan's smallest-id tie break.
    """
    if not candidates:
        return -1
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    values = np.asarray(delta, dtype=np.float64)[cand]
    best = int(np.argmax(values))
    if values[best] <= 0.0:
        return -1
    return int(cand[best])
