"""repro — influence minimization via vertex blocking.

A complete, from-scratch reproduction of

    Jiadong Xie, Fan Zhang, Kai Wang, Xuemin Lin, Wenjie Zhang.
    "Minimizing the Influence of Misinformation via Vertex Blocking."
    ICDE 2023 (arXiv:2302.13529).

Quick start
-----------
::

    from repro import assign_weighted_cascade, greedy_replace, evaluate_spread
    from repro.datasets import load_dataset
    from repro.bench import pick_seeds

    graph = assign_weighted_cascade(load_dataset("email-core"))
    seeds = pick_seeds(graph, 10, rng=7)
    result = greedy_replace(graph, seeds, budget=20, theta=200, rng=7)
    print(result.blockers, result.estimated_spread)

Package map
-----------
``repro.graph``
    Directed-graph substrate (adjacency + CSR), traversals, generators.
``repro.models``
    Propagation-probability assignment (TR/WC/...) and the triggering
    model (LT) extension.
``repro.spread``
    Monte-Carlo and exact expected-spread computation.
``repro.engine``
    The production spread-evaluation engine: vectorized batch
    kernels, a persistent (optionally disk-backed) live-edge sample
    pool, the dominator-tree sketch index (the paper's estimator
    as a persistent backend with O(1) marginal gains), and the
    pluggable ``SpreadEvaluator`` protocol the algorithms and
    benchmarks accept.
``repro.sampling``
    Live-edge sampled graphs, reachability statistics, Theorem 5
    sample-size bounds.
``repro.dominator``
    Lengauer–Tarjan, iterative and naive dominator trees.
``repro.core``
    The IMIN problem, Algorithms 1–4 (BaselineGreedy,
    DecreaseESComputation, AdvancedGreedy, GreedyReplace), heuristics,
    exhaustive Exact search and the optimal tree DP.
``repro.theory``
    Executable hardness reduction (Theorems 1/3) and property checkers
    (Theorem 2).
``repro.datasets``
    The Figure 1 toy graph, synthetic SNAP stand-ins, subgraph tools.
``repro.bench``
    Experiment harness shared by the ``benchmarks/`` suite.
``repro.service``
    The long-lived blocker-query service: named-graph registry, LRU
    cache of warm ``(SamplePool, SketchIndex)`` artifacts, threaded
    TCP/JSON-lines server, and the matching client (``repro-imin
    serve`` / ``repro-imin query``).
"""

from .core import (
    advanced_greedy,
    baseline_greedy,
    BlockingResult,
    decrease_es_computation,
    exact_blockers,
    greedy_replace,
    IMINInstance,
    optimal_tree_blockers,
    out_degree_blockers,
    out_neighbors_blockers,
    random_blockers,
    solve_imin,
    unify_seeds,
)
from .bench import evaluate_spread
from .dominator import DominatorTree, immediate_dominators
from .engine import (
    build_evaluator,
    EngineSpec,
    SamplePool,
    SketchIndex,
    SpreadEvaluator,
    VectorizedEvaluator,
)
from .graph import CSRGraph, DiGraph
from .models import (
    assign_constant,
    assign_trivalency,
    assign_uniform,
    assign_weighted_cascade,
    LinearThresholdSampler,
)
from .sampling import (
    estimate_spread_sampled,
    ICSampler,
    required_samples,
)
from .spread import (
    exact_activation_probabilities,
    exact_expected_spread,
    MonteCarloEngine,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph substrate
    "DiGraph",
    "CSRGraph",
    # probability models
    "assign_trivalency",
    "assign_weighted_cascade",
    "assign_constant",
    "assign_uniform",
    "LinearThresholdSampler",
    # spread computation
    "MonteCarloEngine",
    # the evaluation engine
    "SpreadEvaluator",
    "EngineSpec",
    "build_evaluator",
    "VectorizedEvaluator",
    "SamplePool",
    "SketchIndex",
    "exact_expected_spread",
    "exact_activation_probabilities",
    "estimate_spread_sampled",
    "evaluate_spread",
    "ICSampler",
    "required_samples",
    # dominators
    "immediate_dominators",
    "DominatorTree",
    # the IMIN problem and algorithms
    "IMINInstance",
    "unify_seeds",
    "decrease_es_computation",
    "advanced_greedy",
    "greedy_replace",
    "baseline_greedy",
    "exact_blockers",
    "optimal_tree_blockers",
    "random_blockers",
    "out_degree_blockers",
    "out_neighbors_blockers",
    "solve_imin",
    "BlockingResult",
]
