"""The ``SpreadEvaluator`` protocol and its backend facade.

Every consumer of a spread oracle — BaselineGreedy's inner loop, the
final-quality evaluation of the benchmark harness, the CLI — needs the
same one-method surface: *"expected spread of these seeds over this
many rounds with these vertices blocked"*.  This module names that
surface as a protocol and provides one constructor,
:func:`build_evaluator`, which builds whichever of the four
interchangeable backends an :class:`~repro.engine.spec.EngineSpec`
names:

``scalar``
    The original pure-Python :class:`~repro.spread.MonteCarloEngine`
    (which already satisfies the protocol structurally) — the reference
    implementation every other backend is tested against.
``vectorized``
    The numpy batch kernel of :mod:`repro.engine.kernels`.
``pooled``
    The :class:`~repro.engine.pool.SamplePool` itself: one persistent
    set of live-edge samples reused across every query; ``rounds``
    selects how many pooled samples to evaluate.
``sketch``
    The paper's dominator-subtree estimator as a persistent index
    (:mod:`repro.engine.sketch`) over a borrowed pool: one cached
    dominator tree per sample, rebased incrementally as the blocker
    set moves.  Additionally answers
    :meth:`~repro.engine.sketch.SketchIndex.marginal_gain` in O(1) and
    the whole-candidate
    :meth:`~repro.engine.sketch.SketchIndex.decrease_estimates` sweep,
    whose per-round argmax every greedy solver selects by.

All backends estimate the same quantity ``E(S, G[V \\ blocked])``
(Definition 3, seeds counted); they differ only in throughput and RNG
stream, so fixed-seed results are reproducible per backend but not
identical across backends.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph
from ..rng import ensure_rng, RngLike
from ..spread import MonteCarloEngine
from .kernels import batch_spread
from .pool import _EvaluatorLifecycle, SamplePool
from .sketch import SketchIndex
from .spec import BACKENDS, EngineSpec

__all__ = [
    "SpreadEvaluator",
    "ScalarEvaluator",
    "VectorizedEvaluator",
    "BACKENDS",
    "EngineSpec",
    "build_evaluator",
]


@runtime_checkable
class SpreadEvaluator(Protocol):
    """Anything that can answer expected-spread queries on one graph."""

    csr: CSRGraph

    def expected_spread(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        """Estimate of ``E(seeds, G[V \\ blocked])`` from ``rounds``
        simulations (or pooled samples)."""
        ...


class ScalarEvaluator(_EvaluatorLifecycle, MonteCarloEngine):
    """The reference backend: the scalar Monte-Carlo engine, renamed.

    Exists so ``EngineSpec(engine="scalar")`` builds a class that
    reads symmetrically with the other backends; behaviour is exactly
    :class:`~repro.spread.MonteCarloEngine`.
    """


class VectorizedEvaluator(_EvaluatorLifecycle):
    """Spread evaluator backed by the numpy batch kernel."""

    def __init__(
        self, graph: DiGraph | CSRGraph, rng: RngLike = None
    ) -> None:
        self.csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
        self._gen = ensure_rng(rng)

    def expected_spread(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        return batch_spread(self.csr, seeds, rounds, self._gen, blocked)


def build_evaluator(
    graph: DiGraph | CSRGraph,
    spec: EngineSpec,
    *,
    stream: int = 0,
    pool: SamplePool | None = None,
) -> SpreadEvaluator:
    """Construct the spread evaluator ``spec`` names, on ``graph``.

    The one engine factory.  ``spec`` (an
    :class:`~repro.engine.spec.EngineSpec`) selects the backend, seeds
    it, and configures ``cache_dir``; its ``model`` only keys
    artifacts (the factory consumes an already-prepared graph).  On
    top of the raw backends it adds:

    * **independent streams from one seed** — ``stream`` derives the
      generator ``default_rng(SeedSequence((seed, stream)))``, so e.g.
      a selection loop (stream 0) and the final quality judge
      (stream 1) never share random worlds (with pooled backends,
      sharing would score a winner on the very samples that selected
      it).  Stream 0 draws the same numbers as ``default_rng(seed)``,
      so ``build_evaluator(g, EngineSpec(engine=e, seed=s))`` answers
      exactly like the backend class constructed with ``rng=s``;
    * **a stable on-disk identity** — persisted pools and sketch
      artifacts are keyed by :meth:`EngineSpec.cache_key` (model +
      seed + stream);
    * **a context manager** — every evaluator built here supports
      ``with``/``close()``, so cached sketch views are reliably
      dropped.

    ``pooled`` returns a :class:`~repro.engine.pool.SamplePool` and
    ``sketch`` a :class:`~repro.engine.sketch.SketchIndex` borrowing
    one: the pool is drawn here, under the spec's stream identity,
    unless ``pool`` hands them an existing one.
    """
    if not isinstance(spec, EngineSpec):
        raise TypeError(
            "build_evaluator() takes an EngineSpec "
            f"(repro.engine.EngineSpec), not {type(spec).__name__}"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.seed, int(stream)))
    )
    if spec.engine == "scalar":
        return ScalarEvaluator(graph, rng)
    if spec.engine == "vectorized":
        return VectorizedEvaluator(graph, rng)
    if pool is None:
        pool = SamplePool(
            graph, rng, cache_dir=spec.cache_dir,
            cache_key=spec.cache_key(stream),
        )
    return pool if spec.engine == "pooled" else SketchIndex(pool)
