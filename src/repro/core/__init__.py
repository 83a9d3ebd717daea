"""The IMIN problem and its solution algorithms."""

from .advanced_greedy import (
    advanced_greedy,
    BlockingResult,
    lazy_blocking,
    SamplerFactory,
)
from .baseline_greedy import baseline_greedy, BaselineGreedyResult
from .decrease import decrease_es_computation, DecreaseResult
from .exact import exact_blockers, ExactResult
from .greedy_replace import greedy_replace
from .heuristics import (
    betweenness_blockers,
    degree_blockers,
    out_degree_blockers,
    out_neighbors_blockers,
    pagerank_blockers,
    random_blockers,
)
from .problem import IMINInstance, unify_seeds, UnifiedProblem
from .solve import ALGORITHMS, solve_imin, SolveResult
from .static_greedy import static_sample_greedy
from .tree_dp import optimal_tree_blockers, TreeDPResult

__all__ = [
    "IMINInstance",
    "UnifiedProblem",
    "unify_seeds",
    "decrease_es_computation",
    "DecreaseResult",
    "advanced_greedy",
    "greedy_replace",
    "lazy_blocking",
    "BlockingResult",
    "SamplerFactory",
    "baseline_greedy",
    "BaselineGreedyResult",
    "exact_blockers",
    "ExactResult",
    "static_sample_greedy",
    "solve_imin",
    "SolveResult",
    "ALGORITHMS",
    "optimal_tree_blockers",
    "TreeDPResult",
    "random_blockers",
    "out_degree_blockers",
    "degree_blockers",
    "pagerank_blockers",
    "out_neighbors_blockers",
    "betweenness_blockers",
]
