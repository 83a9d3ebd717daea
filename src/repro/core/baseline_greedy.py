"""Algorithm 1: BaselineGreedy (BG) — the state of the art before AG.

Each greedy round enumerates every candidate blocker, estimates the
blocked spread with Monte-Carlo simulation, and keeps the candidate
with the largest decrease.  The cost is ``O(b * n * r * m)``, which is
exactly why the paper's Figures 7/8 show it timing out on most
datasets; we reproduce it faithfully as the efficiency baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

from ..engine.kernels import _checked_ids
from ..graph import DiGraph
from ..rng import ensure_rng, RngLike
from ..spread import MonteCarloEngine
from .advanced_greedy import _sweep_select, selects_through_sketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..engine import SpreadEvaluator

__all__ = ["BaselineGreedyResult", "baseline_greedy"]


@dataclass(frozen=True)
class BaselineGreedyResult:
    """Blockers plus the MCS spread trace of the greedy selection."""

    blockers: list[int]
    estimated_spread: float
    round_spreads: list[float]
    evaluations: int
    """Spread evaluations performed (the cost driver): one per
    candidate per round in the Monte-Carlo loop; over a sketch, one
    gain sweep per round answers every candidate at once."""


def baseline_greedy(
    graph: DiGraph,
    seeds: Sequence[int],
    budget: int,
    rounds: int = 1000,
    rng: RngLike = None,
    candidates: Sequence[int] | None = None,
    evaluator: "SpreadEvaluator | None" = None,
) -> BaselineGreedyResult:
    """BaselineGreedy with Monte-Carlo spread estimation (Algorithm 1).

    Parameters
    ----------
    rounds:
        Monte-Carlo rounds ``r`` per spread evaluation (the paper uses
        10^4 in C++; pure-Python callers should budget carefully — the
        total work is ``budget * len(candidates) * rounds`` cascades).
    candidates:
        Restrict the candidate pool (defaults to all non-seed
        vertices) — a way to keep BG's runtime measurable on larger
        graphs, much as the paper caps BG with a 24-hour timeout.
        Every id must be an integer vertex of ``graph``; anything else
        raises ``ValueError`` before any evaluation.
    evaluator:
        Spread oracle for the inner loop (see
        :func:`repro.engine.build_evaluator`).  Defaults to a fresh
        scalar :class:`~repro.spread.MonteCarloEngine`, which
        reproduces the historical fixed-seed results exactly; the
        vectorized/pooled backends trade the RNG stream for
        throughput.  A sketch evaluator answers each round with one
        whole-candidate gain sweep and picks its argmax — the vertex
        the exhaustive loop would pick on the same worlds — instead of
        re-simulating every candidate.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if candidates is not None:
        _, checked = _checked_ids(graph.n, (), candidates)
        candidates = checked.tolist()
    seed_list = list(seeds)
    seed_set = set(seed_list)
    engine = (
        MonteCarloEngine(graph, ensure_rng(rng))
        if evaluator is None
        else evaluator
    )
    if candidates is None:
        pool = [v for v in range(engine.csr.n) if v not in seed_set]
    else:
        pool = [v for v in candidates if v not in seed_set]

    blockers: list[int] = []
    round_spreads: list[float] = []
    evaluations = 0
    current = engine.expected_spread(seed_list, rounds)
    evaluations += 1

    if selects_through_sketch(engine):
        # BG's eager loop always spends the budget (it minimises the
        # blocked spread, never tests positivity), so the sweep does too
        picks, gains = _sweep_select(
            engine, seed_list, rounds, budget, pool, spend_budget=True
        )
        for pick, gain in zip(picks, gains):
            round_spreads.append(current)
            blockers.append(pick)
            # gain was measured as spread(B) - spread(B + [pick]) on
            # the evaluator's worlds, so this is the same estimate the
            # eager loop would have recorded
            current -= gain
        return BaselineGreedyResult(
            blockers=blockers,
            estimated_spread=current,
            round_spreads=round_spreads,
            evaluations=evaluations + len(picks),
        )

    for _ in range(min(budget, len(pool))):
        round_spreads.append(current)
        best = -1
        best_spread = float("inf")
        for u in pool:
            if u in blockers:
                continue
            spread = engine.expected_spread(
                seed_list, rounds, blockers + [u]
            )
            evaluations += 1
            if spread < best_spread:
                best = u
                best_spread = spread
        if best < 0:
            break
        blockers.append(best)
        current = best_spread

    return BaselineGreedyResult(
        blockers=blockers,
        estimated_spread=current,
        round_spreads=round_spreads,
        evaluations=evaluations,
    )
