"""Sketch index vs vectorized Monte Carlo at matched estimation error.

The workload is the greedy inner loop's primitive (Algorithm 2): the
marginal spread decrease of *every* candidate blocker.  Both backends
average over ``theta`` i.i.d. live-edge worlds, so their estimation
error is matched by construction — Theorem 5's sample bound applies to
either — and the comparison isolates mechanics:

* the **sketch index** draws ``theta`` pooled samples once, builds one
  dominator tree per sample, and reads all ``n`` candidate decreases
  off the aggregated subtree sizes (one array);
* **vectorized Monte Carlo** must re-simulate the cascade for every
  candidate — ``n + 1`` ``expected_spread`` calls of ``theta`` rounds
  each.  The full sweep is extrapolated from a measured probe of
  candidates (per-call cost is candidate-independent), exactly like
  the scalar reference in ``bench_engine_throughput.py``.

The acceptance bar: on the 10k-vertex WC graph the sketch must beat
the vectorized MC full sweep by >= 2x.  In practice it wins by orders
of magnitude — the paper's point — and the report also times a full
AdvancedGreedy selection on the warm index.

Run standalone (CI smoke uses tiny sizes)::

    python benchmarks/bench_sketch_vs_mc.py --n 2000 --theta 100
    python benchmarks/bench_sketch_vs_mc.py        # full size
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.bench import format_table, pick_seeds
from repro.core import advanced_greedy
from repro.engine import build_evaluator, EngineSpec
from repro.graph import barabasi_albert
from repro.models import assign_weighted_cascade

try:  # pytest package context vs standalone script
    from .conftest import emit
except ImportError:  # pragma: no cover - script mode
    def emit(name: str, text: str) -> None:
        print(text)

RESULT_FILE = "sketch_vs_mc"
TARGET_SPEEDUP = 2.0


def run_comparison(
    n: int = 10_000,
    attach: int = 5,
    theta: int = 200,
    num_seeds: int = 10,
    rng: int = 7,
    mc_candidates: int = 32,
    budget: int = 10,
) -> dict[str, object]:
    """Time both backends on the all-candidates decrease sweep."""
    graph = assign_weighted_cascade(barabasi_albert(n, attach, rng=rng))
    seeds = pick_seeds(graph, num_seeds, rng=rng)
    seed_set = set(seeds)
    candidates = [v for v in range(graph.n) if v not in seed_set]
    gen = np.random.default_rng(rng)
    probe = sorted(
        gen.choice(
            candidates,
            size=min(mc_candidates, len(candidates)),
            replace=False,
        ).tolist()
    )

    # ------------------------------------------------------------------
    # sketch: index build + the whole sweep (all candidates at once)
    # ------------------------------------------------------------------
    sketch = build_evaluator(graph, EngineSpec(engine="sketch", seed=rng))
    start = time.perf_counter()
    spread_sketch = sketch.expected_spread(seeds, theta)
    delta_sketch = sketch.decrease_estimates(seeds, theta)
    t_sketch = time.perf_counter() - start

    # ------------------------------------------------------------------
    # vectorized MC: baseline + one blocked re-simulation per candidate,
    # measured on the probe set and extrapolated to the full sweep
    # ------------------------------------------------------------------
    mc = build_evaluator(
        graph, EngineSpec(engine="vectorized", seed=rng)
    )
    start = time.perf_counter()
    spread_mc = mc.expected_spread(seeds, theta)
    delta_mc = {
        v: spread_mc - mc.expected_spread(seeds, theta, [v])
        for v in probe
    }
    t_probe = time.perf_counter() - start
    per_call = t_probe / (len(probe) + 1)
    t_mc_full = per_call * (len(candidates) + 1)

    # ------------------------------------------------------------------
    # matched-error evidence: agreement on the probe candidates
    # ------------------------------------------------------------------
    diffs = [abs(float(delta_sketch[v]) - delta_mc[v]) for v in probe]
    mean_abs_diff = sum(diffs) / len(diffs)
    base_spread = max(spread_sketch, spread_mc, 1.0)

    # ------------------------------------------------------------------
    # end-to-end: AdvancedGreedy on the (warm) sketch index
    # ------------------------------------------------------------------
    start = time.perf_counter()
    selection = advanced_greedy(
        graph, seeds, budget, theta=theta, evaluator=sketch
    )
    t_greedy = time.perf_counter() - start

    return {
        "n": n,
        "theta": theta,
        "probe": len(probe),
        "candidates": len(candidates),
        "spread_sketch": spread_sketch,
        "spread_mc": spread_mc,
        "t_sketch": t_sketch,
        "t_probe": t_probe,
        "t_mc_full": t_mc_full,
        "speedup": t_mc_full / t_sketch,
        "mean_abs_diff": mean_abs_diff,
        "rel_diff": mean_abs_diff / base_spread,
        "t_greedy": t_greedy,
        "blockers": selection.blockers,
        "blocked_spread": selection.estimated_spread,
    }


def render(r: dict[str, object]) -> str:
    rows = [
        [
            "sketch (build + sweep)",
            r["candidates"],
            f"{r['t_sketch']:.2f}",
            f"{r['spread_sketch']:.2f}",
        ],
        [
            f"vectorized MC (probe {r['probe']})",
            r["probe"],
            f"{r['t_probe']:.2f}",
            f"{r['spread_mc']:.2f}",
        ],
        [
            "vectorized MC (full sweep, extrap.)",
            r["candidates"],
            f"{r['t_mc_full']:.2f}",
            f"{r['spread_mc']:.2f}",
        ],
        [
            "lazy AdvancedGreedy on warm sketch",
            f"b={len(r['blockers'])}",
            f"{r['t_greedy']:.2f}",
            f"{r['blocked_spread']:.2f}",
        ],
    ]
    verdict = "PASS" if r["speedup"] >= TARGET_SPEEDUP else "FAIL"
    summary = (
        f"matched error: theta={r['theta']} worlds for both backends; "
        f"probe agreement mean |diff| = {r['mean_abs_diff']:.3f} "
        f"({100 * r['rel_diff']:.2f}% of spread)\n"
        f"sketch full-sweep speedup vs vectorized MC: "
        f"{r['speedup']:.1f}x (>= {TARGET_SPEEDUP:.0f}x target: {verdict})"
    )
    table = format_table(
        ["workload", "candidates", "seconds", "spread"],
        rows,
        title=(
            f"sketch vs vectorized MC — all-candidates decrease sweep "
            f"(n={r['n']}, WC model, theta={r['theta']})"
        ),
    )
    return f"{table}\n{summary}"


def test_sketch_vs_mc(benchmark):
    """pytest-benchmark entry, scaled for suite runtime."""
    result = benchmark.pedantic(
        lambda: run_comparison(n=10_000, theta=200),
        rounds=1,
        iterations=1,
    )
    emit(RESULT_FILE, render(result))
    assert result["speedup"] >= TARGET_SPEEDUP


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--attach", type=int, default=5)
    parser.add_argument("--theta", type=int, default=200)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rng", type=int, default=7)
    parser.add_argument(
        "--mc-candidates",
        type=int,
        default=32,
        help="candidates measured for the MC extrapolation",
    )
    parser.add_argument(
        "--budget", type=int, default=10, help="lazy-greedy budget"
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help=(
            "report but never fail on the speedup target (for smoke "
            "runs at sizes the acceptance bar was not defined for)"
        ),
    )
    args = parser.parse_args(argv)
    result = run_comparison(
        n=args.n,
        attach=args.attach,
        theta=args.theta,
        num_seeds=args.seeds,
        rng=args.rng,
        mc_candidates=args.mc_candidates,
        budget=args.budget,
    )
    emit(RESULT_FILE, render(result))
    if args.no_check:
        return 0
    return 0 if result["speedup"] >= TARGET_SPEEDUP else 1


if __name__ == "__main__":
    sys.exit(main())
