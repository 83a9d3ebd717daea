"""Unified entry point: ``solve_imin`` dispatches to any algorithm.

Downstream users mostly want "give me blockers, pick the method by
name" — this façade wraps every blocker-selection algorithm in the
library behind one signature and normalises the result, so application
code (and the CLI) need not import each module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

from ..graph import DiGraph
from ..rng import RngLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..engine import SpreadEvaluator
from .advanced_greedy import advanced_greedy
from .baseline_greedy import baseline_greedy
from .exact import exact_blockers
from .greedy_replace import greedy_replace
from .heuristics import (
    betweenness_blockers,
    degree_blockers,
    out_degree_blockers,
    out_neighbors_blockers,
    pagerank_blockers,
    random_blockers,
)
from .static_greedy import static_sample_greedy

__all__ = ["ALGORITHMS", "SolveResult", "solve_imin"]

ALGORITHMS: tuple[str, ...] = (
    "greedy-replace",
    "advanced-greedy",
    "static-greedy",
    "baseline-greedy",
    "exact",
    "out-neighbors",
    "out-degree",
    "degree",
    "pagerank",
    "betweenness",
    "random",
)


@dataclass(frozen=True)
class SolveResult:
    """Normalised output of :func:`solve_imin`."""

    algorithm: str
    blockers: list[int]
    estimated_spread: float | None
    """The algorithm's own spread estimate where it produces one
    (sampling/greedy methods); ``None`` for pure ranking heuristics —
    evaluate with :func:`repro.bench.evaluate_spread`."""


def solve_imin(
    graph: DiGraph,
    seeds: Sequence[int],
    budget: int,
    algorithm: str = "greedy-replace",
    theta: int = 1000,
    mcs_rounds: int = 1000,
    rng: RngLike = None,
    evaluator: "SpreadEvaluator | None" = None,
) -> SolveResult:
    """Select blockers with the named algorithm.

    Parameters
    ----------
    algorithm:
        One of :data:`ALGORITHMS`.  ``theta`` applies to the
        sampled-graph methods, ``mcs_rounds`` to ``baseline-greedy``
        and the MCS fallback of ``exact``.
    evaluator:
        Optional spread evaluator built on ``graph`` (see
        :func:`repro.engine.build_evaluator`).  ``baseline-greedy``
        uses it as its inner-loop oracle; the sampled-graph greedy
        methods use it to re-estimate the final spread.  A sketch
        evaluator instead drives all four greedy methods' selection:
        each round takes the argmax of one whole-candidate gain sweep
        (see :func:`repro.core.advanced_greedy.lazy_blocking`).
        Heuristics and ``exact`` ignore it.  Default ``None``
        reproduces historical fixed-seed results exactly.
    """
    name = algorithm.lower()
    if name == "greedy-replace":
        result = greedy_replace(
            graph, seeds, budget, theta=theta, rng=rng, evaluator=evaluator
        )
        return SolveResult(name, result.blockers, result.estimated_spread)
    if name == "advanced-greedy":
        result = advanced_greedy(
            graph, seeds, budget, theta=theta, rng=rng, evaluator=evaluator
        )
        return SolveResult(name, result.blockers, result.estimated_spread)
    if name == "static-greedy":
        result = static_sample_greedy(
            graph, seeds, budget, theta=theta, rng=rng, evaluator=evaluator
        )
        return SolveResult(name, result.blockers, result.estimated_spread)
    if name == "baseline-greedy":
        result = baseline_greedy(
            graph, seeds, budget, rounds=mcs_rounds, rng=rng,
            evaluator=evaluator,
        )
        return SolveResult(name, result.blockers, result.estimated_spread)
    if name == "exact":
        result = exact_blockers(
            graph, seeds, budget, rounds=mcs_rounds, rng=rng
        )
        return SolveResult(name, list(result.blockers), result.spread)
    if name == "out-neighbors":
        blockers = out_neighbors_blockers(
            graph, seeds, budget, theta=theta, rng=rng
        )
        return SolveResult(name, blockers, None)
    if name == "out-degree":
        return SolveResult(
            name, out_degree_blockers(graph, seeds, budget), None
        )
    if name == "degree":
        return SolveResult(name, degree_blockers(graph, seeds, budget), None)
    if name == "pagerank":
        return SolveResult(
            name, pagerank_blockers(graph, seeds, budget), None
        )
    if name == "betweenness":
        return SolveResult(
            name, betweenness_blockers(graph, seeds, budget, rng=rng), None
        )
    if name == "random":
        return SolveResult(
            name, random_blockers(graph, seeds, budget, rng=rng), None
        )
    raise ValueError(
        f"unknown algorithm {algorithm!r}; expected one of "
        + ", ".join(ALGORITHMS)
    )
