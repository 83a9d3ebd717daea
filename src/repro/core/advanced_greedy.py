"""Algorithm 3: AdvancedGreedy (AG).

The greedy blocker selection of the baseline, but driven by the
dominator-tree estimator (Algorithm 2) instead of per-candidate
Monte-Carlo simulation: each round costs ``O(theta * m * alpha(m, n))``
for *all* candidates together, versus ``O(n * r * m)`` for the
baseline.  Effectiveness is unchanged — with ``r = theta`` both
methods average the same live-edge statistic (Section V-C).

A sketch evaluator (one that answers ``decrease_estimates``) takes
over selection in every greedy solver through one loop,
:func:`_sweep_select`: each round takes the argmax of one
whole-candidate gain sweep.  That is the paper's rule.  IMIN is not
submodular (Theorem 3), so a heap of stale gain bounds could pick
differently, and over a sketch it would save no work: every round
pays one rebase and one sweep either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TYPE_CHECKING

import numpy as np

from ..graph import DiGraph
from ..rng import ensure_rng, RngLike
from ..sampling import EdgeSampler, ICSampler
from .decrease import decrease_es_computation
from .problem import unify_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..engine import SpreadEvaluator

__all__ = [
    "BlockingResult",
    "advanced_greedy",
    "lazy_blocking",
    "SamplerFactory",
]

SamplerFactory = Callable[[DiGraph, RngLike], EdgeSampler]


@dataclass(frozen=True)
class BlockingResult:
    """A blocker set with its selection trace.

    Attributes
    ----------
    blockers:
        Chosen blockers in insertion order, as *original* vertex ids.
    estimated_spread:
        Sampled-graph estimate of the expected spread *after* blocking,
        on the original-graph scale (all seeds counted).
    round_spreads:
        Estimated spread before each round's pick — ``round_spreads[0]``
        is the unblocked spread.
    round_deltas:
        The estimated decrease attributed to each chosen blocker.
    """

    blockers: list[int]
    estimated_spread: float
    round_spreads: list[float]
    round_deltas: list[float]


def selects_through_sketch(
    evaluator: object, sampler_factory: object = None
) -> bool:
    """Whether a solver hands selection to ``evaluator``'s gain sweep.

    True exactly when the evaluator answers the whole-candidate
    ``decrease_estimates`` sweep (a sketch).  A sketch answers for its
    own diffusion model, so it rejects a ``sampler_factory``, which
    only shapes the sampling path.
    """
    if not callable(getattr(evaluator, "decrease_estimates", None)):
        return False
    if sampler_factory is not None:
        raise ValueError(
            "a sketch evaluator selects through its own diffusion "
            "model; sampler_factory only applies to the sampling path "
            "(pass a non-sketch evaluator or none)"
        )
    return True


def _sweep_select(
    evaluator: "SpreadEvaluator",
    seeds: Sequence[int],
    theta: int,
    budget: int,
    candidates: Sequence[int] | None = None,
    picked: Sequence[int] = (),
    spend_budget: bool = False,
) -> tuple[list[int], list[float]]:
    """Up to ``budget`` greedy ``(picks, gains)`` over a gain sweep.

    Each round reads one ``decrease_estimates`` sweep on top of
    ``picked`` plus the picks so far and takes the remaining candidate
    with the largest estimated decrease, ties to the smaller id: the
    paper's per-round rule (Algorithm 3).  ``candidates`` defaults to
    every vertex; seeds and ``picked`` are never candidates, and
    ``picked`` is not counted against ``budget``.  Selection stops
    once the best decrease is <= 0, unless ``spend_budget``.
    """
    if candidates is None:
        remaining = np.ones(evaluator.csr.n, dtype=bool)
    else:
        remaining = np.zeros(evaluator.csr.n, dtype=bool)
        remaining[np.asarray(candidates, dtype=np.int64)] = True
    remaining[np.asarray([*seeds, *picked], dtype=np.int64)] = False
    picks: list[int] = []
    gains: list[float] = []
    while len(picks) < budget and remaining.any():
        sweep = evaluator.decrease_estimates(
            seeds, theta, [*picked, *picks]
        )
        x = int(np.argmax(np.where(remaining, sweep, -np.inf)))
        gain = float(sweep[x])
        if gain <= 0.0 and not spend_budget:
            break
        picks.append(x)
        gains.append(gain)
        remaining[x] = False
    return picks, gains


def lazy_blocking(
    graph: DiGraph,
    seeds: Sequence[int],
    budget: int,
    theta: int,
    evaluator: "SpreadEvaluator",
) -> BlockingResult:
    """AG/SG's selection loop driven by a sketch evaluator.

    Each round takes the argmax of one whole-candidate gain sweep
    (:func:`_sweep_select`), so it picks what the exhaustive loop
    picks on the sketch's worlds.  Those worlds are one fixed pool,
    rebased to each round's blocker set: static-greedy semantics, not
    Algorithm 3's fresh ``theta`` samples per round.  Selection stops
    once no candidate decreases the spread.  Works on the *original*
    graph — multi-seed handling is the evaluator's job — so blockers
    come back as original ids with no unification round-trip.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    seed_list = list(dict.fromkeys(seeds))
    current = evaluator.expected_spread(seed_list, theta)
    picks, gains = _sweep_select(evaluator, seed_list, theta, budget)

    round_spreads = [current]
    round_deltas: list[float] = []
    blockers: list[int] = []
    for pick, gain in zip(picks, gains):
        if blockers:
            round_spreads.append(current)
        blockers.append(pick)
        round_deltas.append(gain)
        current -= gain
    return BlockingResult(
        blockers=blockers,
        estimated_spread=current,
        round_spreads=round_spreads,
        round_deltas=round_deltas,
    )


def advanced_greedy(
    graph: DiGraph,
    seeds: Sequence[int],
    budget: int,
    theta: int = 1000,
    rng: RngLike = None,
    sampler_factory: SamplerFactory | None = None,
    evaluator: "SpreadEvaluator | None" = None,
) -> BlockingResult:
    """AdvancedGreedy blocker selection (Algorithm 3).

    Parameters
    ----------
    graph:
        Directed graph with IC probabilities on its edges.
    seeds:
        Misinformation sources (internally unified into one source).
    budget:
        Maximum number of blockers ``b``.
    theta:
        Sampled graphs per greedy round.  The paper uses 10^4 in C++;
        10^2–10^3 reproduces its effectiveness at our scales (the paper
        itself reports < 0.1% quality change from 10^4 to 10^5).
    sampler_factory:
        Optional ``(unified_graph, rng) -> EdgeSampler`` to run the
        greedy under a different diffusion model (Section V-E), e.g.
        ``LinearThresholdSampler``.
    evaluator:
        Optional spread evaluator built on the **original** graph (see
        :func:`repro.engine.build_evaluator`).  A sketch evaluator
        takes over selection (:func:`lazy_blocking`); any other
        evaluator only re-estimates the final blocker set's spread
        over ``theta`` rounds, in place of the selection's own
        sampled-graph estimate.

    Selection stops early once no candidate decreases the spread:
    blocking more vertices cannot help, and the problem statement asks
    for *at most* ``b`` blockers.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if selects_through_sketch(evaluator, sampler_factory):
        return lazy_blocking(graph, seeds, budget, theta, evaluator)
    gen = ensure_rng(rng)
    unified = unify_seeds(graph, seeds)
    if sampler_factory is None:
        sampler: EdgeSampler = ICSampler(unified.graph, gen)
    else:
        sampler = sampler_factory(unified.graph, gen)

    blockers_unified: list[int] = []
    round_spreads: list[float] = []
    round_deltas: list[float] = []
    estimated = 0.0

    for _ in range(min(budget, unified.graph.n - 1)):
        result = decrease_es_computation(
            sampler, unified.source, theta, rng=gen
        )
        exclude = set(blockers_unified)
        exclude.add(unified.source)
        x = result.best_vertex(exclude=exclude)
        if x < 0:
            break
        delta = float(result.delta[x])
        if delta <= 0.0:
            round_spreads.append(result.spread)
            estimated = result.spread
            break
        sampler.block([x])
        blockers_unified.append(x)
        round_spreads.append(result.spread)
        round_deltas.append(delta)
        estimated = result.spread - delta

    if not round_spreads:
        # budget 0 (or a single-vertex graph): report the current spread
        result = decrease_es_computation(
            sampler, unified.source, theta, rng=gen
        )
        round_spreads.append(result.spread)
        estimated = result.spread

    blockers = unified.blockers_to_original(blockers_unified)
    estimated_original = unified.spread_to_original(estimated)
    if evaluator is not None:
        estimated_original = evaluator.expected_spread(
            list(seeds), theta, blockers
        )
    return BlockingResult(
        blockers=blockers,
        estimated_spread=estimated_original,
        round_spreads=round_spreads,
        round_deltas=round_deltas,
    )
