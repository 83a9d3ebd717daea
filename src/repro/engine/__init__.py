"""repro.engine — the spread-evaluation engine.

The paper's contribution is making the spread oracle cheap enough for
greedy blocking at scale; this subsystem is that oracle's production
form.  Its pieces:

:mod:`repro.engine.kernels`
    Vectorized batch simulation of independent cascades (one numpy
    coin draw per BFS level of a whole batch).
:mod:`repro.engine.pool`
    Persistent, optionally disk-backed (mmapped) live-edge sample pool
    with hit/miss stats — the paper's sample-reuse trick generalised
    across queries and processes, and the ``pooled`` backend.
:mod:`repro.engine.treebuild`
    Batched, array-native construction of per-sample dominator trees
    straight from the pooled sample arrays — through the compiled
    batched kernel (:mod:`repro.native`) when the host can build it,
    serial Python otherwise, bit-identical either way.
:mod:`repro.engine.sketch`
    The dominator-tree sketch index — the paper's Algorithm 2
    estimator over a borrowed sample pool, as a persistent,
    incrementally-rebased backend with O(1) marginal gains; each view
    keeps its trees in a pooled arena with an inverted membership
    index (vertex -> samples postings) for vectorized rebases.
:mod:`repro.engine.spec`
    :class:`EngineSpec`, the frozen value that names one engine
    configuration (backend, model, seed, cache dir).
:mod:`repro.engine.evaluator`
    The :class:`SpreadEvaluator` protocol, the backend implementations
    and :func:`build_evaluator`, the one factory, which builds the
    backend an :class:`EngineSpec` names; the scalar
    :class:`~repro.spread.MonteCarloEngine` is the reference backend.

Algorithms and the benchmark harness accept any
:class:`SpreadEvaluator` by dependency injection; see
``baseline_greedy(..., evaluator=...)`` and
``repro.bench.evaluate_spread(..., evaluator=...)``.
"""

from .evaluator import (
    BACKENDS,
    build_evaluator,
    ScalarEvaluator,
    SpreadEvaluator,
    VectorizedEvaluator,
)
from .spec import EngineSpec, MODELS
from .kernels import (
    batch_spread,
    postings_csr,
    ragged_arange,
    reach_counts_from_alive,
)
from .pool import PoolStats, SampleBatch, SamplePool
from .sketch import SketchIndex, SketchStats
from .treebuild import build_sample_tree, TreeBuilder

__all__ = [
    "SketchIndex",
    "SketchStats",
    "postings_csr",
    "SpreadEvaluator",
    "ScalarEvaluator",
    "VectorizedEvaluator",
    "BACKENDS",
    "MODELS",
    "EngineSpec",
    "build_evaluator",
    "batch_spread",
    "reach_counts_from_alive",
    "ragged_arange",
    "SamplePool",
    "SampleBatch",
    "PoolStats",
    "build_sample_tree",
    "TreeBuilder",
]
