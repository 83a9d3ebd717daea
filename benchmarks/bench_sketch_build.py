"""Cold sketch construction: batched array-native vs legacy Python.

The sketch index made *queries* cheap (``bench_sketch_vs_mc.py``), but
until ISSUE 4 every cold build still materialised a Python ``dict``
adjacency per sample — ~``m`` dict operations to reach a subgraph that
is usually a tiny fraction of the graph — and ran the dominator pass
over it.  The array-native pipeline cuts each sample's CSR straight
out of the pooled arrays with numpy and hands it to the flat
Lengauer–Tarjan core, so Python-level work scales with the *reachable*
subgraph only.  This benchmark times both constructions on the same
pooled samples:

* **legacy** — the pre-refactor per-sample path, reproduced verbatim:
  ``adjacency_from_edges`` + the adjacency-based
  ``dominator_order_sizes`` per sample;
* **batched** — ``repro.engine.TreeBuilder.build`` over the same
  batch (results are bit-identical, which the benchmark asserts tree
  by tree).

Sampling cost is excluded from both sides (the pool is shared and
chunk-seeded), so the ratio isolates construction mechanics and
cancels machine speed.  The acceptance bar: on the 10k-vertex WC
graph at theta=200 the batched build must be >= 5x faster.  ``--json
PATH`` writes ``BENCH_sketch_build.json``; CI gates
``build_speedup_vs_legacy`` against the committed baseline via
``benchmarks/check_bench_regression.py`` (report kind auto-detected).

Run standalone::

    python benchmarks/bench_sketch_build.py --n 2000 --theta 60
    python benchmarks/bench_sketch_build.py --json BENCH_sketch_build.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.bench import format_table, pick_seeds
from repro.dominator import dominator_order_sizes
from repro.engine import SketchIndex, TreeBuilder
from repro.engine.pool import SamplePool
from repro.graph import barabasi_albert, CSRGraph
from repro.models import assign_weighted_cascade
from repro.sampling import adjacency_from_edges

try:  # pytest package context vs standalone script
    from .conftest import emit
except ImportError:  # pragma: no cover - script mode
    def emit(name: str, text: str) -> None:
        print(text)

RESULT_FILE = "sketch_build"
JSON_SCHEMA = 1
TARGET_SPEEDUP = 5.0


def legacy_build(csr, batch, seeds) -> list:
    """The pre-refactor per-sample Python build, reproduced verbatim."""
    trees = []
    for t in range(batch.theta):
        succ = adjacency_from_edges(csr, batch.surviving(t))
        succ[csr.n] = list(seeds)
        trees.append(dominator_order_sizes(succ, csr.n))
    return trees


def run_build_benchmark(
    n: int = 10_000,
    attach: int = 5,
    theta: int = 200,
    num_seeds: int = 10,
    rng: int = 7,
    repeats: int = 3,
) -> dict[str, object]:
    """Time legacy vs batched construction on shared pooled samples."""
    graph = assign_weighted_cascade(barabasi_albert(n, attach, rng=rng))
    seeds = pick_seeds(graph, num_seeds, rng=rng)
    csr = CSRGraph(graph)
    pool = SamplePool(csr, rng=rng)
    start = time.perf_counter()
    batch = pool.get(theta)
    t_sampling = time.perf_counter() - start

    def best_of(build) -> tuple[float, list]:
        best, trees = float("inf"), None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            trees = build()
            best = min(best, time.perf_counter() - start)
        return best, trees

    t_legacy, legacy_trees = best_of(
        lambda: legacy_build(csr, batch, seeds)
    )
    t_batched, batched_trees = best_of(
        lambda: TreeBuilder(csr).build(batch, range(theta), seeds)
    )

    # the refactor's compatibility bar: identical trees, sample by
    # sample — the aggregated sketch arrays (and therefore blocker
    # selections and spread estimates) follow
    identical = all(
        np.array_equal(lo, bo) and np.array_equal(ls, bs)
        for (lo, ls), (bo, bs) in zip(legacy_trees, batched_trees)
    )

    # end-to-end cold index: sampling + batched build + aggregation
    start = time.perf_counter()
    with SketchIndex(SamplePool(csr, rng=rng)) as index:
        index.expected_spread(seeds, theta)
        t_cold_index = time.perf_counter() - start

    reach = float(
        np.mean([order.shape[0] - 1 for order, _ in batched_trees])
    )
    return {
        "n": n,
        "m": csr.m,
        "theta": theta,
        "mean_reachable": reach,
        "t_sampling": t_sampling,
        "t_legacy": t_legacy,
        "t_batched": t_batched,
        "t_cold_index": t_cold_index,
        "speedup": t_legacy / t_batched,
        "identical": identical,
    }


def render(r: dict[str, object]) -> str:
    rows = [
        [
            "legacy per-sample Python build",
            r["theta"],
            f"{1e3 * r['t_legacy']:.1f}",
            f"{1e3 * r['t_legacy'] / r['theta']:.3f}",
        ],
        [
            "batched array-native build",
            r["theta"],
            f"{1e3 * r['t_batched']:.1f}",
            f"{1e3 * r['t_batched'] / r['theta']:.3f}",
        ],
        [
            "cold SketchIndex (sampling + build)",
            r["theta"],
            f"{1e3 * r['t_cold_index']:.1f}",
            f"{1e3 * r['t_cold_index'] / r['theta']:.3f}",
        ],
    ]
    verdict = "PASS" if r["speedup"] >= TARGET_SPEEDUP else "FAIL"
    summary = (
        f"trees bit-identical: {r['identical']}; mean reachable "
        f"vertices/sample: {r['mean_reachable']:.1f} of {r['n']}\n"
        f"batched build speedup vs legacy: {r['speedup']:.1f}x "
        f"(>= {TARGET_SPEEDUP:.0f}x target: {verdict})"
    )
    table = format_table(
        ["construction", "trees", "total ms", "ms/tree"],
        rows,
        title=(
            f"cold sketch construction (n={r['n']}, WC model, "
            f"theta={r['theta']})"
        ),
    )
    return f"{table}\n{summary}"


def to_json(result: dict[str, object], params: dict) -> dict:
    """The ``BENCH_sketch_build.json`` document (see module docstring)."""
    return {
        "schema": JSON_SCHEMA,
        "params": params,
        "legacy_s": round(float(result["t_legacy"]), 6),
        "batched_s": round(float(result["t_batched"]), 6),
        "cold_index_s": round(float(result["t_cold_index"]), 6),
        "build_speedup_vs_legacy": round(float(result["speedup"]), 3),
        "identical": bool(result["identical"]),
    }


def test_sketch_build(benchmark):
    """pytest-benchmark entry, full acceptance size."""
    result = benchmark.pedantic(
        lambda: run_build_benchmark(n=10_000, theta=200),
        rounds=1,
        iterations=1,
    )
    emit(RESULT_FILE, render(result))
    assert result["identical"]
    assert result["speedup"] >= TARGET_SPEEDUP


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--attach", type=int, default=5)
    parser.add_argument("--theta", type=int, default=200)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rng", type=int, default=7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timings per construction; the best is reported (default: 3)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the machine-readable BENCH_sketch_build.json",
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
    result = run_build_benchmark(
        n=args.n,
        attach=args.attach,
        theta=args.theta,
        num_seeds=args.seeds,
        rng=args.rng,
        repeats=args.repeats,
    )
    emit(RESULT_FILE, render(result))
    if args.json is not None:
        params = {
            "n": args.n,
            "attach": args.attach,
            "theta": args.theta,
            "seeds": args.seeds,
            "rng": args.rng,
            "repeats": args.repeats,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(to_json(result, params), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not result["identical"]:
        print("FAIL: batched trees differ from the legacy build")
        return 1
    if not args.no_check and result["speedup"] < TARGET_SPEEDUP:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
