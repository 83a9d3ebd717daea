"""The ``SpreadEvaluator`` protocol and its backend facade.

Every consumer of a spread oracle — BaselineGreedy's inner loop, the
final-quality evaluation of the benchmark harness, the CLI — needs the
same one-method surface: *"expected spread of these seeds over this
many rounds with these vertices blocked"*.  This module names that
surface as a protocol and provides one constructor,
:func:`make_evaluator`, over the four interchangeable backends:

``scalar``
    The original pure-Python :class:`~repro.spread.MonteCarloEngine`
    (which already satisfies the protocol structurally) — the reference
    implementation every other backend is tested against.
``vectorized``
    The numpy batch kernel of :mod:`repro.engine.kernels`.
``parallel``
    The multi-core executor of :mod:`repro.engine.parallel`.
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

import warnings
from typing import Iterable, Protocol, runtime_checkable, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph
from ..rng import ensure_rng, RngLike
from ..spread import MonteCarloEngine
from .kernels import (
    auto_batch_size,
    batch_activation_counts,
    batch_cascades,
    batch_spread,
    reach_counts_from_alive,
)
from .parallel import ParallelEvaluator
from .pool import SamplePool
from .sketch import SketchIndex
from .spec import BACKENDS, EngineSpec

__all__ = [
    "SpreadEvaluator",
    "ScalarEvaluator",
    "VectorizedEvaluator",
    "PooledEvaluator",
    "BACKENDS",
    "EngineSpec",
    "make_evaluator",
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


class _EvaluatorLifecycle:
    """Uniform close/context-manager surface for in-process backends.

    The parallel backend owns real OS resources (a worker pool) and
    must be closed; the in-process backends have nothing to release
    but gain the same ``with build_evaluator(...) as ev:`` shape so
    callers — the CLI, the service, benchmarks — never special-case
    the backend when tearing down.
    """

    def close(self) -> None:
        """Release backend resources (no-op for in-process backends)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ScalarEvaluator(_EvaluatorLifecycle, MonteCarloEngine):
    """The reference backend: the scalar Monte-Carlo engine, renamed.

    Exists so ``make_evaluator(graph, "scalar")`` reads symmetrically
    with the other backends; behaviour is exactly
    :class:`~repro.spread.MonteCarloEngine`.
    """

    backend = "scalar"


class VectorizedEvaluator(_EvaluatorLifecycle):
    """Spread evaluator backed by the numpy batch kernel."""

    backend = "vectorized"

    def __init__(
        self,
        graph: DiGraph | CSRGraph,
        rng: RngLike = None,
        batch_size: int | None = None,
    ) -> None:
        self.csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
        self._gen = ensure_rng(rng)
        self.batch_size = batch_size

    def expected_spread(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        return batch_spread(
            self.csr, seeds, rounds, self._gen, blocked, self.batch_size
        )

    def spread_samples(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> np.ndarray:
        """Per-round active counts (for confidence intervals)."""
        return batch_cascades(
            self.csr, seeds, rounds, self._gen, blocked, self.batch_size
        )

    def activation_frequencies(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> np.ndarray:
        """Per-vertex activation frequency estimate of ``P_G(x, S)``."""
        counts = batch_activation_counts(
            self.csr, seeds, rounds, self._gen, blocked, self.batch_size
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
        batch_size: int | None = None,
    ) -> None:
        if pool is not None:
            self.pool = pool
        else:
            self.pool = SamplePool(
                graph, rng, cache_dir=cache_dir, cache_key=cache_key
            )
        self.csr = self.pool.csr
        self.batch_size = batch_size

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
        """One estimate per blocked set, sharing the sample traversal.

        The expensive part of a pooled query is materialising each
        chunk's boolean aliveness matrix; a batch of queries that
        differ only in their blocked sets (the service's coalesced
        spread requests) pays that once per chunk instead of once per
        query.  Results are bit-identical to ``len(blocked_sets)``
        separate :meth:`expected_spread` calls — same samples, same
        chunking, same integer sums — so batching is invisible to
        callers comparing against serial execution.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        if not blocked_sets:
            return []
        batch = self.pool.get(rounds)
        seed_list = list(seeds)
        blocked_lists = [list(b) for b in blocked_sets]
        step = auto_batch_size(max(self.csr.m, self.csr.n), self.batch_size)
        totals = [0] * len(blocked_lists)
        for lo in range(0, rounds, step):
            hi = min(lo + step, rounds)
            alive = batch.alive_matrix(lo, hi)
            for i, blocked_list in enumerate(blocked_lists):
                totals[i] += int(
                    reach_counts_from_alive(
                        self.csr, seed_list, alive, blocked_list
                    ).sum()
                )
        return [total / rounds for total in totals]


def _legacy_warning(factory: str) -> None:
    warnings.warn(
        f"passing a backend name and loose keywords to {factory}() is "
        "deprecated; pass an EngineSpec "
        "(repro.engine.EngineSpec) instead — see docs/api.md",
        DeprecationWarning,
        stacklevel=3,
    )


def _make_evaluator(
    graph: DiGraph | CSRGraph,
    backend: str,
    rng: RngLike = None,
    workers: int | None = None,
    batch_size: int | None = None,
    cache_dir=None,
    cache_key: str | None = None,
    pool: SamplePool | None = None,
) -> SpreadEvaluator:
    """Warning-free factory core shared by both calling conventions."""
    name = backend.lower()
    if name == "scalar":
        return ScalarEvaluator(graph, rng)
    if name == "vectorized":
        return VectorizedEvaluator(graph, rng, batch_size=batch_size)
    if name == "parallel":
        return ParallelEvaluator(
            graph, rng, workers=workers, batch_size=batch_size
        )
    if name == "pooled":
        return PooledEvaluator(
            graph,
            rng,
            pool=pool,
            cache_dir=cache_dir,
            cache_key=cache_key,
            batch_size=batch_size,
        )
    if name == "sketch":
        return SketchIndex(
            graph,
            rng,
            pool=pool,
            workers=workers,
            cache_dir=cache_dir,
            cache_key=cache_key,
        )
    raise ValueError(
        f"unknown engine backend {backend!r}: expected one of "
        + ", ".join(sorted(BACKENDS))
        + " (see repro.engine.make_evaluator)"
    )


def make_evaluator(
    graph: DiGraph | CSRGraph,
    spec: EngineSpec | str = "scalar",
    rng: RngLike = None,
    workers: int | None = None,
    batch_size: int | None = None,
    cache_dir=None,
    cache_key: str | None = None,
    pool: SamplePool | None = None,
) -> SpreadEvaluator:
    """Construct a spread evaluator for ``graph`` from an ``EngineSpec``.

    Canonical form: ``make_evaluator(graph, spec)`` with ``spec`` an
    :class:`~repro.engine.spec.EngineSpec` — the spec's ``seed`` seeds
    the evaluator, ``workers``/``cache_dir`` configure it,
    and its ``model``/``theta`` fields key artifacts (the factory
    consumes an already-prepared graph and per-query ``rounds``, so it
    does not read them).  Runtime-only knobs remain keywords: ``pool``
    shares an existing :class:`~repro.engine.pool.SamplePool`,
    ``batch_size`` tunes the vectorized family, and an explicit
    ``rng`` generator overrides the spec seed.

    The historical form — a backend **name** plus loose keywords
    (``backend``, ``rng``, ``workers``, ``cache_dir``...) — still
    works but emits :class:`DeprecationWarning`; migrate to the spec.

    Parameters (legacy form)
    ------------------------
    spec:
        One of :data:`BACKENDS` (as a string).
    workers:
        Worker processes: simulation chunks for the ``parallel``
        backend (default: all cores), sharded dominator-tree
        construction for the ``sketch`` backend (default: serial;
        results are bit-identical either way).
    batch_size:
        Cascades simulated per numpy batch (vectorized family).
    cache_dir / cache_key / pool:
        Sample-pool persistence knobs (``pooled``/``sketch`` backends).
    """
    if isinstance(spec, EngineSpec):
        resolved_dir = spec.cache_dir if cache_dir is None else cache_dir
        if cache_key is None and resolved_dir is not None:
            cache_key = spec.cache_key(stream=0)
        return _make_evaluator(
            graph,
            spec.engine,
            rng=spec.seed if rng is None else rng,
            workers=spec.workers if workers is None else workers,
            batch_size=batch_size,
            cache_dir=resolved_dir,
            cache_key=cache_key,
            pool=pool,
        )
    _legacy_warning("make_evaluator")
    return _make_evaluator(
        graph,
        spec,
        rng=rng,
        workers=workers,
        batch_size=batch_size,
        cache_dir=cache_dir,
        cache_key=cache_key,
        pool=pool,
    )


def _build_evaluator(
    graph: DiGraph | CSRGraph,
    backend: str,
    rng: RngLike = None,
    stream: int = 0,
    workers: int | None = None,
    batch_size: int | None = None,
    cache_dir=None,
    cache_key: str | None = None,
    pool: SamplePool | None = None,
) -> SpreadEvaluator:
    """Warning-free stream-discipline core (see :func:`build_evaluator`)."""
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        if cache_key is None:
            cache_key = f"seed{int(rng)}-stream{int(stream)}"
        rng = np.random.default_rng(
            np.random.SeedSequence((int(rng), int(stream)))
        )
    return _make_evaluator(
        graph,
        backend,
        rng=rng,
        workers=workers,
        batch_size=batch_size,
        cache_dir=cache_dir,
        cache_key=cache_key,
        pool=pool,
    )


def build_evaluator(
    graph: DiGraph | CSRGraph,
    spec: EngineSpec | str,
    rng: RngLike = None,
    stream: int = 0,
    workers: int | None = None,
    batch_size: int | None = None,
    cache_dir=None,
    cache_key: str | None = None,
    pool: SamplePool | None = None,
) -> SpreadEvaluator:
    """:func:`make_evaluator` plus the RNG-stream discipline callers need.

    Canonical form: ``build_evaluator(graph, spec, stream=...)`` with
    ``spec`` an :class:`~repro.engine.spec.EngineSpec`.  Every front
    end (the CLI, the serving layer, benchmarks) wants the same two
    things on top of the raw factory:

    * **independent streams from one seed** — ``stream`` derives a
      child generator via ``SeedSequence((seed, stream))``, so e.g. a
      selection loop (stream 0) and the final quality judge (stream 1)
      never share random worlds (with pooled backends, sharing would
      score a winner on the very samples that selected it);
    * **a context manager** — every evaluator built here supports
      ``with``/``close()``, so worker pools are reliably shut down.

    With a spec, the on-disk ``cache_key`` is
    :meth:`EngineSpec.cache_key` (model + seed + stream), keeping
    pools and sketch artifacts correctly keyed even though the factory
    only sees the derived generator.  An explicit ``rng`` generator
    overrides the spec seed (and ``stream`` is then ignored), and an
    explicit ``pool`` bypasses pool creation entirely.

    The historical form — a backend **name** plus an integer or
    generator ``rng`` and loose keywords — still works but emits
    :class:`DeprecationWarning`; it derives the legacy
    ``seed{rng}-stream{stream}`` cache key for integer seeds.
    """
    if isinstance(spec, EngineSpec):
        if cache_key is None:
            cache_key = spec.cache_key(stream)
        return _build_evaluator(
            graph,
            spec.engine,
            rng=spec.seed if rng is None else rng,
            stream=stream,
            workers=spec.workers if workers is None else workers,
            batch_size=batch_size,
            cache_dir=spec.cache_dir if cache_dir is None else cache_dir,
            cache_key=cache_key,
            pool=pool,
        )
    _legacy_warning("build_evaluator")
    return _build_evaluator(
        graph,
        spec,
        rng=rng,
        stream=stream,
        workers=workers,
        batch_size=batch_size,
        cache_dir=cache_dir,
        cache_key=cache_key,
        pool=pool,
    )
