"""Algorithm 3: AdvancedGreedy (AG).

The greedy blocker selection of the baseline, but driven by the
dominator-tree estimator (Algorithm 2) instead of per-candidate
Monte-Carlo simulation: each round costs ``O(theta * m * alpha(m, n))``
for *all* candidates together, versus ``O(n * r * m)`` for the
baseline.  Effectiveness is unchanged — with ``r = theta`` both
methods average the same live-edge statistic (Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TYPE_CHECKING

from ..graph import DiGraph
from ..rng import ensure_rng, RngLike
from ..sampling import EdgeSampler, ICSampler
from .decrease import decrease_es_computation
from .lazy import celf_select, make_gain_fn, selects_through_sketch
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


def lazy_blocking(
    graph: DiGraph,
    seeds: Sequence[int],
    budget: int,
    theta: int,
    evaluator: "SpreadEvaluator",
) -> BlockingResult:
    """Greedy blocking driven by a sketch evaluator through CELF.

    The sketch counterpart of the AG/SG selection loop: marginal gains
    come from :func:`repro.core.lazy.make_gain_fn` over ``evaluator``
    (an array read per re-check) and are re-checked only when stale.
    Selection stops once no candidate decreases the spread.  Works on
    the *original* graph — multi-seed handling is the evaluator's job —
    so blockers come back as original ids with no unification
    round-trip.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    seed_list = list(dict.fromkeys(seeds))
    seed_set = set(seed_list)
    pool = [v for v in range(graph.n) if v not in seed_set]

    current = evaluator.expected_spread(seed_list, theta)
    gain_fn = make_gain_fn(evaluator, seed_list, theta)
    selection = celf_select(pool, budget, gain_fn)

    round_spreads = [current]
    round_deltas: list[float] = []
    blockers: list[int] = []
    for pick, gain in zip(selection.picks, selection.gains):
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
        takes over selection through CELF (:func:`lazy_blocking`);
        any other evaluator only re-estimates the final blocker set's
        spread over ``theta`` rounds, in place of the selection's own
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
