"""Cascade timelines: how fast does blocking bend the curve?

Uses the temporal-analysis module to show *when* a rumor outbreak is
contained by vertex blocking (GR), not just by how much.

Run:  python examples/containment_timeline.py
"""

import numpy as np

from repro import assign_trivalency
from repro.bench import pick_seeds
from repro.core import greedy_replace
from repro.datasets import load_dataset
from repro.spread import containment_report

RNG = 5
BUDGET = 15
THETA = 150
ROUNDS = 1500
MAX_STEPS = 12


def sparkline(curve: np.ndarray) -> str:
    """Tiny text plot of a cumulative activation curve."""
    blocks = " .:-=+*#%@"
    top = max(float(curve[-1]), 1e-9)
    return "".join(
        blocks[min(int(9 * v / top), 9)] for v in curve.tolist()
    )


def main() -> None:
    graph = assign_trivalency(load_dataset("wiki-vote", scale=0.5), rng=RNG)
    seeds = pick_seeds(graph, 10, rng=RNG)
    print(f"network: n={graph.n}, m={graph.m}; {len(seeds)} rumor sources")

    # vertex blocking with GreedyReplace
    gr = greedy_replace(graph, seeds, BUDGET, theta=THETA, rng=RNG)
    report = containment_report(
        graph, seeds, gr.blockers,
        rounds=ROUNDS, rng=RNG, max_steps=MAX_STEPS,
    )
    print("\ncumulative expected activations per timestep:")
    print(f"  no intervention : {sparkline(report.unblocked_curve)} "
          f"-> {report.unblocked_curve[-1]:.1f}")
    print(f"  block {BUDGET} vertices: {sparkline(report.blocked_curve)} "
          f"-> {report.blocked_curve[-1]:.1f}")
    print(
        f"  reduction {100 * report.final_reduction:.1f}%, curves diverge "
        f"at timestep {report.divergence_step}"
    )


if __name__ == "__main__":
    main()
