"""Temporal cascade analysis: who gets activated *when*.

The IC model's definition (Section III-A) is timestamped — seeds at
step 0, each new activation one step after its activator — but the
expected spread collapses the timeline.  Containment analysis often
needs the timeline back ("how fast does the rumor move, and how much
does blocking slow it down?"), so this module exposes it:

* :func:`cascade_timeline` — one simulation, newly activated vertices
  per timestep;
* :func:`expected_activation_curve` — Monte-Carlo average of the
  cumulative active count per timestep;
* :func:`containment_report` — blocked-vs-unblocked curve comparison
  with the step at which the cascades diverge.

Every cascade here is :meth:`MonteCarloEngine.levels`, so timelines
draw the engine's coins and reject the ids it rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph
from ..rng import ensure_rng, RngLike
from .montecarlo import MonteCarloEngine

__all__ = [
    "cascade_timeline",
    "expected_activation_curve",
    "ContainmentReport",
    "containment_report",
]


def cascade_timeline(
    graph: DiGraph | CSRGraph,
    seeds: Sequence[int],
    rng: RngLike = None,
    blocked: Iterable[int] = (),
) -> list[list[int]]:
    """One IC cascade as levels: ``result[t]`` = vertices activated at
    timestep ``t`` (``result[0]`` is the seed set)."""
    return MonteCarloEngine(graph, rng).levels(seeds, blocked)


def expected_activation_curve(
    graph: DiGraph | CSRGraph,
    seeds: Sequence[int],
    rounds: int = 1000,
    rng: RngLike = None,
    blocked: Iterable[int] = (),
    max_steps: int = 64,
) -> np.ndarray:
    """Expected cumulative active count per timestep.

    ``curve[t]`` is the expected number of active vertices after step
    ``t``; the curve is flat once cascades die out, and ``curve[-1]``
    converges to the expected spread.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    engine = MonteCarloEngine(graph)
    totals = np.zeros(max_steps + 1, dtype=np.float64)
    seed_list = list(seeds)
    blocked_list = list(blocked)
    gen = ensure_rng(rng)  # one stream: each round draws fresh coins
    for _ in range(rounds):
        levels = engine.reseed(gen).levels(seed_list, blocked_list)
        cumulative = 0
        for t in range(max_steps + 1):
            if t < len(levels):
                cumulative += len(levels[t])
            totals[t] += cumulative
    return totals / rounds


@dataclass(frozen=True)
class ContainmentReport:
    """Side-by-side timeline of an outbreak with and without blocking."""

    unblocked_curve: np.ndarray
    blocked_curve: np.ndarray

    @property
    def final_reduction(self) -> float:
        """Fraction of the final spread removed by blocking."""
        final = self.unblocked_curve[-1]
        if final == 0:
            return 0.0
        return float(1.0 - self.blocked_curve[-1] / final)

    @property
    def divergence_step(self) -> int:
        """First timestep where blocking visibly bends the curve
        (difference exceeding 1% of the final unblocked spread);
        -1 if the curves never diverge."""
        threshold = 0.01 * max(float(self.unblocked_curve[-1]), 1e-9)
        gaps = self.unblocked_curve - self.blocked_curve
        for t, gap in enumerate(gaps.tolist()):
            if gap > threshold:
                return t
        return -1


def containment_report(
    graph: DiGraph | CSRGraph,
    seeds: Sequence[int],
    blockers: Sequence[int],
    rounds: int = 1000,
    rng: RngLike = None,
    max_steps: int = 64,
) -> ContainmentReport:
    """Compare the activation curve with and without ``blockers``."""
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
    gen = ensure_rng(rng)
    return ContainmentReport(
        unblocked_curve=expected_activation_curve(
            csr, seeds, rounds, gen, (), max_steps
        ),
        blocked_curve=expected_activation_curve(
            csr, seeds, rounds, gen, blockers, max_steps
        ),
    )
