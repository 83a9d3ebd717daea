"""Sample-reuse AdvancedGreedy: common random numbers across rounds.

Plain AG (Algorithm 3) draws ``theta`` fresh sampled graphs every
round, so consecutive rounds compare candidates on *different* random
worlds — each round pays the sampling cost again and the marginal
estimates carry independent noise.  This variant draws the pool of
sampled graphs **once** and evaluates every greedy round against the
same fixed worlds, with blocked vertices cut out of every pooled
sample when its tree is built:

* *common random numbers*: the marginal decrease of round ``i`` versus
  round ``i+1`` is measured on identical worlds, removing the
  between-round sampling variance (only the shared estimation noise of
  the pool remains);
* *determinism*: given the pool, the whole greedy trajectory is a
  deterministic function — handy for debugging and reproducibility;
* *cost*: no per-round coin flips; the per-round dominator-tree work is
  unchanged.

The trade-off is bias: all rounds share one pool, so late rounds can
overfit to the pool's idiosyncrasies (the classic train/test reuse
effect).  The ablation benchmark ``bench_ablation_sample_reuse``
measures this against plain AG.  Memory is ``O(theta * surviving
edges)``; intended for pools up to a few thousand samples.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

from ..engine.pool import sampler_batches
from ..engine.treebuild import TreeBuilder
from ..graph import DiGraph
from ..rng import ensure_rng, RngLike
from ..sampling import EdgeSampler, ICSampler
from .advanced_greedy import BlockingResult, lazy_blocking, SamplerFactory
from .decrease import sampled_decrease
from .lazy import selects_through_sketch
from .problem import unify_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..engine import SpreadEvaluator

__all__ = ["static_sample_greedy"]


def static_sample_greedy(
    graph: DiGraph,
    seeds: Sequence[int],
    budget: int,
    theta: int = 1000,
    rng: RngLike = None,
    sampler_factory: SamplerFactory | None = None,
    evaluator: "SpreadEvaluator | None" = None,
) -> BlockingResult:
    """AdvancedGreedy over a fixed pool of ``theta`` sampled graphs.

    Parameters match
    :func:`~repro.core.advanced_greedy.advanced_greedy`; the pool is
    drawn up front from the same sampler the plain algorithm would use.
    ``evaluator`` (if given, built on the original graph) re-estimates
    the final blocker set's spread independently over ``theta`` rounds.

    A sketch evaluator routes selection through
    :func:`~repro.core.advanced_greedy.lazy_blocking` instead.  The
    sketch index is itself a fixed pool of sampled worlds with
    dominator trees on top, so that path keeps this algorithm's
    common-random-numbers semantics while dropping the per-round tree
    rebuild for untouched samples.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if selects_through_sketch(evaluator, sampler_factory):
        return lazy_blocking(graph, seeds, budget, theta, evaluator)
    gen = ensure_rng(rng)
    unified = unify_seeds(graph, seeds)
    if sampler_factory is None:
        sampler: EdgeSampler = ICSampler(unified.graph, gen)
    else:
        sampler = sampler_factory(unified.graph, gen)
    source = unified.source
    n = unified.graph.n
    builder = TreeBuilder(sampler.csr)
    pool = list(sampler_batches(sampler, theta))

    blockers: list[int] = []
    round_spreads: list[float] = []
    round_deltas: list[float] = []
    for _ in range(max(1, min(budget, n - 1))):
        result = sampled_decrease(builder, pool, source, theta, blockers)
        spread = result.spread
        round_spreads.append(spread)
        estimated = spread
        if len(blockers) >= budget:
            break  # budget 0: we only wanted the spread estimate
        best = result.best_vertex(exclude=[source, *blockers])
        if best < 0 or result.delta[best] <= 0.0:
            break
        blockers.append(best)
        round_deltas.append(float(result.delta[best]))
        estimated = spread - round_deltas[-1]

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

