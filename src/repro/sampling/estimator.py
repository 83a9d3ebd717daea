"""Sample-size theory and spread estimation from sampled graphs.

Theorem 5 of the paper bounds the estimation error of the
dominator-subtree estimator: with
``theta >= l * (2 + eps) * n * ln(n) / (eps^2 * OPT)`` sampled graphs,
``|xi->u - OPT| < eps * OPT`` holds with probability at least
``1 - n^-l``.  :func:`required_samples` evaluates that bound;
:func:`chernoff_failure_probability` inverts it for a given theta.

:func:`estimate_spread_sampled` is the Lemma-1 estimator
``E[sigma(s, g)] = E({s}, G)`` with a normal-approximation confidence
interval — handy for sanity checks and for the theta-sweep experiment
(Figures 5/6).  It counts reach through the engine
(:func:`repro.engine.pool.reach_counts`), the pooled backend's
counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..engine.pool import reach_counts, sampler_batches
from ..graph import CSRGraph, DiGraph
from ..rng import RngLike
from .live_edge import ICSampler

__all__ = [
    "required_samples",
    "resolve_theta",
    "chernoff_failure_probability",
    "SpreadEstimate",
    "estimate_spread_sampled",
]


def required_samples(
    n: int,
    epsilon: float,
    opt_lower_bound: float,
    confidence_exponent: float = 1.0,
) -> int:
    """Theorem 5's sample count for relative error ``epsilon``.

    Parameters
    ----------
    n:
        Number of vertices in the graph.
    epsilon:
        Target relative error of the per-vertex spread-decrease
        estimate.
    opt_lower_bound:
        A lower bound on the true decrease ``OPT`` of the vertex being
        estimated; 1.0 is always safe for a reachable candidate (its own
        activation contributes at least its activation probability).
    confidence_exponent:
        The ``l`` in the ``1 - n^-l`` success probability.
    """
    if n < 2:
        raise ValueError("need n >= 2 for the log term")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if opt_lower_bound <= 0:
        raise ValueError("opt_lower_bound must be positive")
    bound = (
        confidence_exponent
        * (2.0 + epsilon)
        * n
        * math.log(n)
        / (epsilon * epsilon * opt_lower_bound)
    )
    return math.ceil(bound)


def resolve_theta(
    n: int,
    theta: int | None = None,
    epsilon: float | None = None,
    ell: float = 1.0,
    opt_lower_bound: float = 1.0,
    max_theta: int | None = None,
) -> int:
    """Pick the sample count: explicit ``theta`` wins, else Theorem 5.

    The one place the CLI's ``--theta`` / ``--eps`` / ``--ell`` knobs
    meet: an explicit ``theta`` is returned unchanged, otherwise
    ``epsilon`` (and the confidence exponent ``ell``) are mapped
    through :func:`required_samples`.  ``max_theta`` optionally caps
    the theory bound, which is conservative by a large constant on
    real graphs (Figure 5 of the paper shows quality is flat in theta
    well below it).
    """
    if theta is not None:
        if epsilon is not None:
            raise ValueError("pass either theta or epsilon, not both")
        if theta <= 0:
            raise ValueError("theta must be positive")
        return int(theta)
    if epsilon is None:
        raise ValueError("need an explicit theta or an epsilon target")
    bound = required_samples(
        n, epsilon, opt_lower_bound, confidence_exponent=ell
    )
    if max_theta is not None:
        bound = min(bound, int(max_theta))
    return bound


def chernoff_failure_probability(
    n: int, epsilon: float, opt: float, theta: int
) -> float:
    """Upper bound on ``Pr[|xi->u - OPT| >= eps * OPT]`` for ``theta``
    samples (the exponential bound inside the proof of Theorem 5)."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    exponent = -(epsilon * epsilon) * theta * opt / (n * (2.0 + epsilon))
    return min(1.0, 2.0 * math.exp(exponent))


@dataclass(frozen=True)
class SpreadEstimate:
    """Sampled-graph spread estimate with spread-of-the-mean error bars."""

    mean: float
    std_error: float
    theta: int

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI (default 95%)."""
        return (self.mean - z * self.std_error, self.mean + z * self.std_error)


def estimate_spread_sampled(
    graph: DiGraph | CSRGraph,
    seeds: Sequence[int],
    theta: int,
    rng: RngLike = None,
    blocked: Sequence[int] = (),
) -> SpreadEstimate:
    """Estimate ``E(S, G[V \\ blocked])`` via Lemma 1.

    Draws ``theta`` live-edge graphs and averages the size of the set
    reachable from the seeds.  For multiple seeds, reachability is taken
    from all seeds jointly (equivalent to the unified-seed transform).
    An out-of-range seed raises ``IndexError``; an out-of-range blocked
    id ``ValueError``.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    sampler = ICSampler(graph, rng)
    sampler.block(blocked)
    total = 0
    total_sq = 0
    for batch in sampler_batches(sampler, theta):
        # the sampler already dropped every blocked edge
        counts = reach_counts(sampler.csr, batch, seeds, [()])[0]
        total += int(counts.sum())
        total_sq += int(np.dot(counts, counts))
    mean = total / theta
    variance = max(0.0, total_sq / theta - mean * mean)
    std_error = math.sqrt(variance / theta)
    return SpreadEstimate(mean=mean, std_error=std_error, theta=theta)
