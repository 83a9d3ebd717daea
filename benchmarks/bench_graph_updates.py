"""Incremental graph deltas: patch-and-rebase vs cold rebuild.

ISSUE 10's tentpole claim: when a warm sketch artifact's graph mutates
(edges inserted, deleted, reweighted), ``SketchIndex.apply_delta``
patches the pooled samples in place and rebuilds only the dominator
trees the edits actually touched — instead of re-drawing ``theta``
coin streams over every edge and rebuilding every tree from scratch.
This benchmark measures exactly that boundary on a Barabasi-Albert
graph at the paper's ~1M-directed-edge scale (n=10k, WC weights,
theta=1000), over a ladder of delta sizes:

* **0.01% / 0.1% / 1% of edges** — each rung generates one randomized
  :class:`~repro.graph.GraphDelta` (a mix of deletes, reweights and
  inserts) against the *current* graph, so the ladder is cumulative:
  the warm index absorbs every rung in sequence, exactly like a
  long-lived serving artifact tracking an evolving network;
* **delta** — time to the next answer after the mutation: one
  ``apply_delta`` on the warm index plus one spread query;
* **rebuild** — time to the first answer from a from-scratch index
  over the same mutated graph (fresh coin draws, all trees), the cost
  every mutation paid before the delta path existed.

Both gated numbers are same-run ratios, so machine speed cancels.  The
acceptance bar: the delta path >= 10x faster than the cold rebuild at
the 0.1% rung, and the delta-applied index *bit-identical* to the cold
one at every rung — same expected spread, same marginal-gain vector,
same blocked spread.  Identity failure is a hard fail regardless of
tolerance.  ``--json PATH`` writes ``BENCH_graph_updates.json``; CI
gates ``delta_speedup_vs_rebuild`` against the committed baseline via
``benchmarks/check_bench_regression.py`` (report kind auto-detected).

Run standalone::

    python benchmarks/bench_graph_updates.py --n 2000 --attach 10 \\
        --theta 200 --no-check
    python benchmarks/bench_graph_updates.py --json \\
        BENCH_graph_updates.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.bench import format_table, pick_seeds
from repro.engine import build_evaluator, EngineSpec
from repro.graph import barabasi_albert, CSRGraph, GraphDelta
from repro.models import assign_weighted_cascade

try:  # pytest package context vs standalone script
    from .conftest import emit
except ImportError:  # pragma: no cover - script mode
    def emit(name: str, text: str) -> None:
        print(text)

RESULT_FILE = "graph_updates"
JSON_SCHEMA = 1
TARGET_SPEEDUP = 10.0
#: The ladder rung the acceptance bar is defined at (0.1% of edges).
GATED_FRACTION = 0.001
DEFAULT_FRACTIONS = (0.0001, 0.001, 0.01)


def random_delta(graph, edits: int, gen) -> GraphDelta:
    """One randomized batch against ``graph``: ~45% deletes, ~35%
    reweights, ~20% inserts (all deletes when ``edits`` < 3)."""
    deletes = max(1, (45 * edits) // 100) if edits >= 3 else edits
    reweights = max(1, (35 * edits) // 100) if edits >= 3 else 0
    inserts = edits - deletes - reweights
    n = graph.n

    # Existing edges sampled via random source vertices (every BA
    # vertex has out-degree >= attach, so this never spins).
    chosen: set[tuple[int, int]] = set()
    def draw_existing() -> tuple[int, int]:
        while True:
            u = int(gen.integers(n))
            nbrs = graph.out_neighbors(u)
            if not nbrs:
                continue
            v = int(nbrs[int(gen.integers(len(nbrs)))])
            if (u, v) not in chosen:
                chosen.add((u, v))
                return u, v

    delete_edges = [draw_existing() for _ in range(deletes)]
    reweight_edges = [
        (*draw_existing(), float(gen.uniform(0.005, 0.05)))
        for _ in range(reweights)
    ]
    insert_edges: list[tuple[int, int, float]] = []
    while len(insert_edges) < inserts:
        u = int(gen.integers(n))
        v = int(gen.integers(n))
        if u == v or (u, v) in chosen or graph.has_edge(u, v):
            continue
        chosen.add((u, v))
        insert_edges.append((u, v, float(gen.uniform(0.01, 0.1))))
    return GraphDelta(
        inserts=insert_edges,
        deletes=delete_edges,
        reweights=reweight_edges,
    )


def run_update_benchmark(
    n: int = 10_000,
    attach: int = 50,
    theta: int = 1000,
    num_seeds: int = 10,
    rng: int = 7,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
) -> dict[str, object]:
    """Apply the delta ladder to one warm index, cold-rebuilding at
    every rung for the timing contrast and the identity check."""
    graph = assign_weighted_cascade(barabasi_albert(n, attach, rng=rng))
    seeds = pick_seeds(graph, num_seeds, rng=rng)
    spec = EngineSpec(engine="sketch", seed=rng)

    start = time.perf_counter()
    index = build_evaluator(CSRGraph(graph), spec)
    index.expected_spread(seeds, theta)
    t_base = time.perf_counter() - start
    # Warm the gains path too, so rung timings measure the update
    # itself rather than first-touch view construction.
    index.decrease_estimates(seeds, theta)
    base_m = index.csr.m if hasattr(index, "csr") else graph.m

    gen = np.random.default_rng(rng)
    rungs: list[dict[str, object]] = []
    identical = True
    try:
        for fraction in fractions:
            edits = max(1, round(fraction * graph.m))
            delta = random_delta(graph, edits, gen)
            rebuilt_before = index.stats.delta_trees_rebuilt
            start = time.perf_counter()
            report = index.apply_delta(delta)
            warm_spread = index.expected_spread(seeds, theta)
            t_delta = time.perf_counter() - start
            warm_gains = index.decrease_estimates(seeds, theta).copy()
            masked = warm_gains.copy()
            masked[list(seeds)] = -1.0
            blocker = int(np.argmax(masked))
            warm_blocked = index.expected_spread(
                seeds, theta, [blocker]
            )
            trees_rebuilt = (
                index.stats.delta_trees_rebuilt - rebuilt_before
            )

            # Cold contrast: what this mutation cost before the delta
            # path — fresh coins over every edge, every tree rebuilt.
            delta.apply_to(graph)
            csr = CSRGraph(graph)
            start = time.perf_counter()
            cold = build_evaluator(csr, spec)
            cold_spread = cold.expected_spread(seeds, theta)
            t_rebuild = time.perf_counter() - start
            cold_gains = cold.decrease_estimates(seeds, theta).copy()
            cold_blocked = cold.expected_spread(seeds, theta, [blocker])
            cold.close()

            rung_identical = (
                warm_spread == cold_spread
                and warm_blocked == cold_blocked
                and np.array_equal(warm_gains, cold_gains)
            )
            identical = identical and rung_identical
            rungs.append(
                {
                    "fraction": fraction,
                    "edits": edits,
                    "inserts": len(delta.inserts),
                    "deletes": len(delta.deletes),
                    "reweights": len(delta.reweights),
                    "touched_samples": report.touched_count,
                    "trees_rebuilt": int(trees_rebuilt),
                    "t_delta": t_delta,
                    "t_rebuild": t_rebuild,
                    "speedup": t_rebuild / t_delta,
                    "identical": rung_identical,
                    "spread": warm_spread,
                }
            )
    finally:
        index.close()

    gated = min(
        rungs,
        key=lambda r: abs(float(r["fraction"]) - GATED_FRACTION),
    )
    return {
        "n": n,
        "m": base_m,
        "theta": theta,
        "t_base": t_base,
        "rungs": rungs,
        "gated_fraction": gated["fraction"],
        "speedup": gated["speedup"],
        "identical": identical,
    }


def render(r: dict[str, object]) -> str:
    rows = []
    for rung in r["rungs"]:
        rows.append(
            [
                f"{100 * rung['fraction']:g}% ({rung['edits']} edits)",
                f"{rung['touched_samples']}",
                f"{rung['trees_rebuilt']}",
                f"{1e3 * rung['t_delta']:.1f}",
                f"{1e3 * rung['t_rebuild']:.1f}",
                f"{rung['speedup']:.1f}x",
            ]
        )
    verdict = "PASS" if r["speedup"] >= TARGET_SPEEDUP else "FAIL"
    summary = (
        f"delta-applied index bit-identical at every rung: "
        f"{r['identical']}; base build "
        f"{1e3 * r['t_base']:.0f} ms\n"
        f"delta speedup vs cold rebuild at the "
        f"{100 * r['gated_fraction']:g}% rung: {r['speedup']:.1f}x "
        f"(>= {TARGET_SPEEDUP:.0f}x target: {verdict})"
    )
    table = format_table(
        [
            "delta size",
            "touched",
            "trees",
            "delta ms",
            "rebuild ms",
            "speedup",
        ],
        rows,
        title=(
            f"incremental graph deltas (n={r['n']}, m={r['m']}, "
            f"WC model, theta={r['theta']})"
        ),
    )
    return f"{table}\n{summary}"


def to_json(result: dict[str, object], params: dict) -> dict:
    """The ``BENCH_graph_updates.json`` document (see module
    docstring)."""
    return {
        "schema": JSON_SCHEMA,
        "params": params,
        "m": int(result["m"]),
        "base_build_s": round(float(result["t_base"]), 6),
        "rungs": [
            {
                "fraction": rung["fraction"],
                "edits": int(rung["edits"]),
                "touched_samples": int(rung["touched_samples"]),
                "trees_rebuilt": int(rung["trees_rebuilt"]),
                "delta_s": round(float(rung["t_delta"]), 6),
                "rebuild_s": round(float(rung["t_rebuild"]), 6),
                "speedup": round(float(rung["speedup"]), 3),
            }
            for rung in result["rungs"]
        ],
        "delta_speedup_vs_rebuild": round(float(result["speedup"]), 3),
        "identical": bool(result["identical"]),
    }


def test_graph_updates(benchmark):
    """pytest-benchmark entry, full acceptance size (~1M edges)."""
    result = benchmark.pedantic(
        lambda: run_update_benchmark(),
        rounds=1,
        iterations=1,
    )
    emit(RESULT_FILE, render(result))
    assert result["m"] >= 900_000
    assert result["identical"]
    assert result["speedup"] >= TARGET_SPEEDUP


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--attach", type=int, default=50)
    parser.add_argument("--theta", type=int, default=1000)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rng", type=int, default=7)
    parser.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=list(DEFAULT_FRACTIONS),
        metavar="F",
        help="delta sizes as fractions of the edge count "
        "(default: 0.0001 0.001 0.01; the rung closest to 0.001 "
        "is the gated one)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the machine-readable BENCH_graph_updates.json",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help=(
            "report but never fail on the speedup target (for smoke "
            "runs at sizes the acceptance bar was not defined for); "
            "identity is checked regardless"
        ),
    )
    args = parser.parse_args(argv)
    result = run_update_benchmark(
        n=args.n,
        attach=args.attach,
        theta=args.theta,
        num_seeds=args.seeds,
        rng=args.rng,
        fractions=tuple(args.fractions),
    )
    emit(RESULT_FILE, render(result))
    if args.json is not None:
        params = {
            "n": args.n,
            "attach": args.attach,
            "theta": args.theta,
            "seeds": args.seeds,
            "rng": args.rng,
            "fractions": list(args.fractions),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(to_json(result, params), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not result["identical"]:
        print(
            "FAIL: delta-applied index diverges from the cold rebuild "
            "(bit-identity contract)"
        )
        return 1
    if not args.no_check and result["speedup"] < TARGET_SPEEDUP:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
