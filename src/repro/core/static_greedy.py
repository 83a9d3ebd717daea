"""Sample-reuse AdvancedGreedy: common random numbers across rounds.

Plain AG (Algorithm 3) draws ``theta`` fresh sampled graphs every
round, so consecutive rounds compare candidates on *different* random
worlds — each round pays the sampling cost again and the marginal
estimates carry independent noise.  This variant draws the pool of
sampled graphs **once** and evaluates every greedy round against the
same fixed worlds, with blocked vertices filtered out of the pool's
adjacency:

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

import numpy as np

from ..dominator import dominator_tree_arrays, subtree_sizes
from ..graph import DiGraph
from ..rng import ensure_rng, RngLike
from ..sampling import adjacency_from_edges, EdgeSampler, ICSampler
from .advanced_greedy import BlockingResult, lazy_blocking, SamplerFactory
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

    pool = [
        adjacency_from_edges(sampler.csr, sampler.sample_surviving_edges())
        for _ in range(theta)
    ]

    blocked: set[int] = set()
    blockers: list[int] = []
    round_spreads: list[float] = []
    round_deltas: list[float] = []
    estimated = 0.0

    for _ in range(max(1, min(budget, n - 1))):
        delta = np.zeros(n, dtype=np.float64)
        spread_total = 0
        for succ in pool:
            filtered = _filtered_adjacency(succ, blocked)
            order, idom = dominator_tree_arrays(filtered, source)
            spread_total += len(order)
            if len(order) > 1:
                sizes = subtree_sizes(idom)
                np.add.at(
                    delta,
                    np.asarray(order[1:], dtype=np.int64),
                    np.asarray(sizes[1:], dtype=np.float64),
                )
        delta /= theta
        spread = spread_total / theta
        if not blockers:
            estimated = spread

        if len(blockers) >= budget:
            # budget 0: we only wanted the spread estimate
            round_spreads.append(spread)
            break

        values = delta.tolist()
        best = -1
        best_value = 0.0
        for u in range(n):
            if u != source and u not in blocked and values[u] > best_value:
                best = u
                best_value = values[u]
        round_spreads.append(spread)
        if best < 0:
            estimated = spread
            break
        blocked.add(best)
        blockers.append(best)
        round_deltas.append(best_value)
        estimated = spread - best_value

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


def _filtered_adjacency(
    succ: dict[int, list[int]], blocked: set[int]
) -> dict[int, list[int]]:
    """The sampled graph with blocked vertices removed."""
    if not blocked:
        return succ
    return {
        u: [v for v in nbrs if v not in blocked]
        for u, nbrs in succ.items()
        if u not in blocked
    }
