"""Algorithm 2: DecreaseESComputation.

The paper's key efficiency contribution: estimate, for *every*
candidate blocker ``u`` at once, the decrease of expected spread caused
by blocking ``u``.  Per sampled graph ``g``:

1. draw the live-edge graph from the ``EdgeSampler``, in chunks of
   samples (:func:`~repro.engine.pool.sampler_batches`);
2. build the dominator tree of the part of ``g`` reachable from the
   source with Lengauer–Tarjan, a whole chunk per call
   (:meth:`~repro.engine.treebuild.TreeBuilder.build_packed`: the
   compiled kernel, or the array-native Python path);
3. the subtree size of ``u`` equals ``sigma->u(s, g)`` (Theorem 6), and
   averaging over ``theta`` samples estimates the spread decrease
   (Theorem 4, with the Theorem 5 error guarantee).

The same pass also yields ``sigma(s, g)`` (= the reachable count), so a
spread estimate of the *current* graph comes for free — used by the
greedy loops for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from ..engine.pool import SampleBatch, sampler_batches
from ..engine.treebuild import subtree_size_sums, TreeBuilder
from ..graph import CSRGraph, DiGraph
from ..rng import RngLike
from ..sampling import EdgeSampler, ICSampler

__all__ = ["DecreaseResult", "decrease_es_computation", "sampled_decrease"]


@dataclass(frozen=True)
class DecreaseResult:
    """Output of Algorithm 2.

    Attributes
    ----------
    delta:
        ``float64[n]``; ``delta[u]`` estimates the decrease of expected
        spread if ``u`` were blocked (0 for the source, blocked and
        unreachable vertices).
    spread:
        Estimate of the current expected spread ``E({s}, G[V \\ B])``
        from the same samples (Lemma 1).
    theta:
        Number of sampled graphs used.
    """

    delta: np.ndarray
    spread: float
    theta: int

    def best_vertex(self, exclude: Iterable[int] = ()) -> int:
        """Vertex with the largest estimated decrease, skipping
        ``exclude``; ties break towards the smaller id (argmax order).

        Vectorized: the greedy loops call this once per round, and the
        historical Python scan over all ``n`` estimates was a
        measurable slice of every eager round.  ``np.argmax`` returns
        the first maximum, which reproduces the scan's smallest-id tie
        break exactly.
        """
        n = self.delta.shape[0]
        keep = np.ones(n, dtype=bool)
        for u in exclude:
            if 0 <= u < n:
                keep[u] = False
        candidates = np.flatnonzero(keep)
        if candidates.shape[0] == 0:
            return -1
        return int(candidates[np.argmax(self.delta[candidates])])


def decrease_es_computation(
    graph_or_sampler: Union[DiGraph, CSRGraph, EdgeSampler],
    source: int,
    theta: int,
    rng: RngLike = None,
    blocked: Iterable[int] = (),
) -> DecreaseResult:
    """Estimate every vertex's expected-spread decrease (Algorithm 2).

    Parameters
    ----------
    graph_or_sampler:
        Either a graph (an :class:`~repro.sampling.ICSampler` is created
        internally) or a pre-built :class:`~repro.sampling.EdgeSampler`
        — the greedy loops pass their long-lived sampler so blocking
        state and probability tables persist across rounds, and the
        triggering-model extension passes an LT sampler.
    source:
        The (unified) seed vertex.
    theta:
        Number of sampled graphs; see
        :func:`repro.sampling.required_samples` for the Theorem 5
        guidance.
    blocked:
        Extra vertices to block for this call (merged into the
        sampler's state).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if isinstance(graph_or_sampler, (DiGraph, CSRGraph)):
        sampler: EdgeSampler = ICSampler(graph_or_sampler, rng)
    else:
        sampler = graph_or_sampler
    n = sampler.csr.n
    if not 0 <= source < n:
        raise IndexError(f"source {source} is not a vertex")
    blocked_list = list(blocked)
    if blocked_list:
        if source in blocked_list:
            raise ValueError("the source cannot be blocked")
        sampler.block(blocked_list)
    return sampled_decrease(
        TreeBuilder(sampler.csr), sampler_batches(sampler, theta),
        source, theta, (),
    )


def sampled_decrease(
    builder: TreeBuilder,
    batches: Iterable[SampleBatch],
    source: int,
    theta: int,
    blocked: Sequence[int],
) -> DecreaseResult:
    """Algorithm 2's estimates over ``theta`` samples given in
    ``batches``, with ``blocked`` cut out of every sample.

    Each batch's trees are rooted at the virtual source with one edge
    to ``source``, so every vertex's subtree is the one it has in the
    tree rooted at ``source``; the source's own entry (its reach
    count) is zeroed.
    """
    n = builder.csr.n
    sums = np.zeros(n + 1, dtype=np.float64)
    spread_total = 0
    for batch in batches:
        lengths, orders, sizes = builder.build_packed(
            batch, range(batch.theta), [source], blocked
        )
        sums += subtree_size_sums(lengths, orders, sizes, n)
        spread_total += int(lengths.sum()) - batch.theta
    delta = sums[:n] / theta
    delta[source] = 0.0
    return DecreaseResult(
        delta=delta, spread=spread_total / theta, theta=theta
    )
