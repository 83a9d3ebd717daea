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
    Reuses one persistent set of live-edge samples
    (:mod:`repro.engine.pool`) across every query; ``rounds`` selects
    how many pooled samples to evaluate.
``sketch``
    The paper's dominator-subtree estimator as a persistent index
    (:mod:`repro.engine.sketch`): pooled samples plus one cached
    dominator tree per sample, rebased incrementally as the blocker
    set moves.  Additionally answers
    :meth:`~repro.engine.sketch.SketchIndex.marginal_gain` in O(1),
    which the lazy greedy loops (:mod:`repro.core.lazy`) exploit.

All backends estimate the same quantity ``E(S, G[V \\ blocked])``
(Definition 3, seeds counted); they differ only in throughput and RNG
stream, so fixed-seed results are reproducible per backend but not
identical across backends.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph
from ..native import native_reach_counts
from ..rng import ensure_rng, RngLike
from ..spread import MonteCarloEngine
from .kernels import (
    _blocked_mask,
    auto_batch_size,
    batch_activation_counts,
    batch_spread,
    reach_counts_from_alive,
)
from .pool import SampleBatch, SamplePool
from .sketch import SketchIndex
from .spec import BACKENDS, EngineSpec

__all__ = [
    "SpreadEvaluator",
    "ScalarEvaluator",
    "VectorizedEvaluator",
    "PooledEvaluator",
    "BACKENDS",
    "EngineSpec",
    "build_evaluator",
    "reach_counts",
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


class _EvaluatorLifecycle:
    """Uniform close/context-manager surface for the Monte-Carlo backends.

    The sketch index drops its cached views on ``close()``; these
    backends have nothing to release but gain the same
    ``with build_evaluator(...) as ev:`` shape so callers — the CLI,
    the service, benchmarks — never special-case the backend when
    tearing down.
    """

    def close(self) -> None:
        """No-op: these backends hold nothing to release."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ScalarEvaluator(_EvaluatorLifecycle, MonteCarloEngine):
    """The reference backend: the scalar Monte-Carlo engine, renamed.

    Exists so ``EngineSpec(engine="scalar")`` builds a class that
    reads symmetrically with the other backends; behaviour is exactly
    :class:`~repro.spread.MonteCarloEngine`.
    """

    backend = "scalar"


class VectorizedEvaluator(_EvaluatorLifecycle):
    """Spread evaluator backed by the numpy batch kernel."""

    backend = "vectorized"

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

    def activation_frequencies(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> np.ndarray:
        """Per-vertex activation frequency estimate of ``P_G(x, S)``."""
        counts = batch_activation_counts(
            self.csr, seeds, rounds, self._gen, blocked
        )
        return counts / rounds


class PooledEvaluator(_EvaluatorLifecycle):
    """Spread evaluator over a persistent live-edge sample pool.

    ``rounds`` selects how many pooled samples the estimate averages
    over; samples are drawn once and reused across queries (and across
    processes when the pool is disk-backed), so repeated queries —
    e.g. a greedy loop probing many blocked sets — pay traversal cost
    only.  Estimates across queries share the pool's worlds: they are
    *common random numbers*, which cancels between-query sampling
    noise when comparing blocked sets.
    """

    backend = "pooled"

    def __init__(
        self,
        graph: DiGraph | CSRGraph,
        rng: RngLike = None,
        pool: SamplePool | None = None,
        cache_dir=None,
        cache_key: str | None = None,
    ) -> None:
        if pool is not None:
            self.pool = pool
        else:
            self.pool = SamplePool(
                graph, rng, cache_dir=cache_dir, cache_key=cache_key
            )
        self.csr = self.pool.csr

    def apply_delta(self, delta):
        """Patch the pool for a batch of edge mutations
        (:meth:`~repro.engine.pool.SamplePool.apply_delta`) and refresh
        this evaluator's CSR snapshot.  Returns the pool's report."""
        report = self.pool.apply_delta(delta)
        self.refresh_graph()
        return report

    def refresh_graph(self) -> None:
        """Re-read the pool's CSR after someone else applied a delta
        to the shared pool (e.g. a sketch index sharing it) — the
        cached snapshot would otherwise disagree with the samples."""
        self.csr = self.pool.csr

    def expected_spread(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        return self.expected_spread_many(seeds, rounds, [list(blocked)])[0]

    def expected_spread_many(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked_sets: Sequence[Iterable[int]],
    ) -> list[float]:
        """One estimate per blocked set over the first ``rounds``
        pooled samples: each is an integer sum of the per-sample
        :func:`reach_counts` divided by ``rounds``, so batching the
        sets is invisible to callers comparing against ``len(
        blocked_sets)`` separate :meth:`expected_spread` calls.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        if not blocked_sets:
            return []
        batch = self.pool.get(rounds)
        counts = reach_counts(self.pool.csr, batch, seeds, blocked_sets)
        return [int(row.sum()) / rounds for row in counts]


def reach_counts(
    csr: CSRGraph,
    batch: SampleBatch,
    seeds: Sequence[int],
    blocked_sets: Sequence[Iterable[int]],
) -> np.ndarray:
    """``int64[len(blocked_sets), batch.theta]`` reach counts of
    ``seeds`` (each once) in every sample of ``batch``.

    The compiled reach kernel (:func:`~repro.native.native_reach_counts`)
    counts straight from the batch's flat arrays, one call per blocked
    set.  Without it, the fallback streams chunks of a boolean
    aliveness matrix through :func:`reach_counts_from_alive`,
    materialising each chunk once for every blocked set (the judge
    scores the unblocked and blocked sets together) instead of once
    per set.  Both paths count the same vertices.  Ids are checked
    first: an out-of-range seed raises ``IndexError``, an out-of-range
    or seed blocked id ``ValueError``.
    """
    seed_list = list(seeds)
    blocked_lists = [list(b) for b in blocked_sets]
    seed_arr = np.asarray(seed_list, dtype=np.int64)
    out = np.empty((len(blocked_lists), batch.theta), dtype=np.int64)
    for i, blocked_list in enumerate(blocked_lists):
        mask = _blocked_mask(csr.n, blocked_list, seed_list)
        counts = native_reach_counts(
            csr.n, csr.indptr, csr.indices, batch.positions,
            batch.offsets, batch.theta, seed_arr, mask.view(np.uint8),
        )
        if counts is None:
            break
        out[i] = counts
    else:
        return out
    step = auto_batch_size(max(csr.m, csr.n))
    for lo in range(0, batch.theta, step):
        hi = min(lo + step, batch.theta)
        alive = batch.alive_matrix(lo, hi)
        for i, blocked_list in enumerate(blocked_lists):
            out[i, lo:hi] = reach_counts_from_alive(
                csr, seed_list, alive, blocked_list
            )
    return out


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
    it, and configures ``cache_dir``; its ``model``/
    ``theta`` fields key artifacts (the factory consumes an
    already-prepared graph and per-query ``rounds``, so it does not
    read them).  On top of the raw backends it adds:

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

    ``pool`` shares an existing :class:`~repro.engine.pool.SamplePool`
    with the ``pooled``/``sketch`` backends instead of drawing one.
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
    cache_key = spec.cache_key(stream)
    if spec.engine == "pooled":
        return PooledEvaluator(
            graph, rng, pool=pool, cache_dir=spec.cache_dir,
            cache_key=cache_key,
        )
    return SketchIndex(
        graph, rng, pool=pool, cache_dir=spec.cache_dir,
        cache_key=cache_key,
    )
