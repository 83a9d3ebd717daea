"""Expected-spread computation: Monte-Carlo, exact, and sampled-graph."""

from .exact import (
    UncertainEdgeLimitError,
    exact_activation_probabilities,
    exact_expected_spread,
    exact_spread_dag,
)
from .montecarlo import MonteCarloEngine
from .temporal import (
    cascade_timeline,
    containment_report,
    ContainmentReport,
    expected_activation_curve,
)

__all__ = [
    "MonteCarloEngine",
    "exact_activation_probabilities",
    "exact_expected_spread",
    "exact_spread_dag",
    "UncertainEdgeLimitError",
    "cascade_timeline",
    "expected_activation_curve",
    "containment_report",
    "ContainmentReport",
]
