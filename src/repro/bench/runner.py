"""Shared experiment plumbing for the benchmark harness.

Every table/figure benchmark follows the paper's protocol (Section
VI-A): pick random seed vertices, run each algorithm, evaluate the
resulting blocker set's expected spread with an *independent*
Monte-Carlo pass, and report spread and wall-clock time.  This module
centralises that protocol so each ``benchmarks/bench_*.py`` file only
declares its sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence, TYPE_CHECKING

from ..graph import DiGraph
from ..models import assign_trivalency, assign_weighted_cascade
from ..rng import ensure_rng, RngLike
from ..spread import MonteCarloEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..engine import SpreadEvaluator

__all__ = [
    "prepare_graph",
    "pick_seeds",
    "AlgorithmRun",
    "run_and_evaluate",
    "evaluate_spread",
]

Model = Literal["tr", "wc"]


def prepare_graph(graph: DiGraph, model: Model, rng: RngLike = None) -> DiGraph:
    """Assign edge probabilities per the paper's TR or WC scheme."""
    if model == "tr":
        return assign_trivalency(graph, rng=ensure_rng(rng))
    if model == "wc":
        return assign_weighted_cascade(graph)
    raise ValueError(f"unknown propagation model {model!r}")


def pick_seeds(
    graph: DiGraph, count: int, rng: RngLike = None
) -> list[int]:
    """Random distinct seed vertices, preferring non-isolated ones.

    The paper "randomly selects" seeds; we additionally require a
    positive out-degree when possible so tiny stand-ins do not draw
    all-isolated seed sets that trivialise the run.
    """
    gen = ensure_rng(rng)
    count = min(count, graph.n)
    candidates = [v for v in graph.vertices() if graph.out_degree(v) > 0]
    if len(candidates) < count:
        candidates = list(graph.vertices())
    picks = gen.choice(len(candidates), size=count, replace=False)
    return sorted(candidates[i] for i in picks)


@dataclass
class AlgorithmRun:
    """One algorithm execution: blockers, evaluated spread, timing."""

    name: str
    blockers: list[int]
    spread: float
    elapsed_seconds: float
    extra: dict = field(default_factory=dict)


def evaluate_spread(
    graph: DiGraph,
    seeds: Sequence[int],
    blockers: Sequence[int],
    rounds: int = 2000,
    rng: RngLike = None,
    evaluator: "SpreadEvaluator | None" = None,
) -> float:
    """Independent MCS evaluation of a blocker set's final spread.

    The paper evaluates final quality with 10^5 MCS rounds; 2000 keeps
    pure-Python benches tractable with a ~2% standard error at our
    spread magnitudes.

    ``evaluator`` (built on ``graph``; see
    :func:`repro.engine.build_evaluator`) routes the evaluation through
    a vectorized/pooled backend; the default is a fresh
    scalar engine, reproducing historical fixed-seed values exactly.
    Precedence: when ``evaluator`` is given, ``rng`` is ignored — the
    evaluator's own stream (fixed at its construction) is used, and a
    *stateful* evaluator advances that stream across calls, so
    repeated calls score on different random worlds.  To preserve the
    common-random-numbers comparison that a fixed ``rng`` gives across
    algorithms, inject a ``pooled`` evaluator (every call reuses the
    same sample worlds) or a fresh evaluator per call.
    """
    if evaluator is not None:
        return evaluator.expected_spread(list(seeds), rounds, list(blockers))
    engine = MonteCarloEngine(graph, rng)
    return engine.expected_spread(list(seeds), rounds, list(blockers))


def run_and_evaluate(
    name: str,
    select: Callable[[], Sequence[int]],
    graph: DiGraph,
    seeds: Sequence[int],
    eval_rounds: int = 2000,
    eval_rng: RngLike = 12345,
    evaluator: "SpreadEvaluator | None" = None,
) -> AlgorithmRun:
    """Time ``select()`` and evaluate its blockers with a common MCS."""
    start = time.perf_counter()
    blockers = list(select())
    elapsed = time.perf_counter() - start
    spread = evaluate_spread(
        graph, seeds, blockers, rounds=eval_rounds, rng=eval_rng,
        evaluator=evaluator,
    )
    return AlgorithmRun(
        name=name,
        blockers=blockers,
        spread=spread,
        elapsed_seconds=elapsed,
    )
