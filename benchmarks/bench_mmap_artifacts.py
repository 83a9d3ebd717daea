"""Persistent sketch artifacts: cold build vs mmap rehydrate at 1M edges.

ISSUE 7's tentpole claim: once a million-edge graph has paid its cold
sketch construction *once*, every later process answers its first
query from the persisted artifact — ``np.load(mmap_mode="r")`` over
eleven flat arrays — instead of re-sampling and re-building dominator
trees.  This benchmark measures exactly that boundary on a
Barabasi-Albert graph sized past 1M directed edges (the paper's
Facebook/DBLP scale):

* **cold_build** — time to first answer with an empty cache directory:
  draw the pooled samples, build theta dominator trees, aggregate the
  arena view, persist everything, answer one spread query;
* **rehydrate** — time to first answer in a fresh index over the same
  cache directory: memory-map the pool + the arena artifact and answer
  the same query (best of ``--repeats`` fresh indexes);
* **warm_query** — steady-state ``decrease_estimates`` latency on the
  rehydrated index (the serving layer's hot path).

Both gated numbers are same-run ratios, so machine speed cancels.  The
acceptance bar: rehydrate >= 10x faster than cold build, and the
rehydrated index *bit-identical* to the cold one — same base gains
array, same greedy blocker picks, same spread trace through
``--budget`` rebase rounds (which exercises the copy-on-write
promotion).  Identity failure is a hard fail regardless of tolerance.
``--json PATH`` writes ``BENCH_mmap_artifacts.json``; CI gates
``rehydrate_speedup_vs_cold`` against the committed baseline via
``benchmarks/check_bench_regression.py`` (report kind auto-detected).

Run standalone::

    python benchmarks/bench_mmap_artifacts.py --n 20000 --theta 32 \\
        --no-check
    python benchmarks/bench_mmap_artifacts.py --json \\
        BENCH_mmap_artifacts.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import format_table, pick_seeds
from repro.engine import build_evaluator, EngineSpec
from repro.graph import barabasi_albert, CSRGraph
from repro.models import assign_weighted_cascade

try:  # pytest package context vs standalone script
    from .conftest import emit
except ImportError:  # pragma: no cover - script mode
    def emit(name: str, text: str) -> None:
        print(text)

RESULT_FILE = "mmap_artifacts"
JSON_SCHEMA = 1
TARGET_SPEEDUP = 10.0


def greedy_blockers(index, seeds, theta, budget):
    """Greedy blocker selection (one rebase per round — the COW
    promotion path on rehydrated views)."""
    blocked: list[int] = []
    trace: list[float] = []
    for _ in range(budget):
        gains = index.decrease_estimates(seeds, theta, blocked).copy()
        gains[list(seeds)] = -1.0
        if blocked:
            gains[blocked] = -1.0
        pick = int(np.argmax(gains))
        blocked.append(pick)
        trace.append(index.expected_spread(seeds, theta, blocked))
    return blocked, trace


def run_mmap_benchmark(
    n: int = 101_000,
    attach: int = 5,
    theta: int = 64,
    num_seeds: int = 10,
    rng: int = 7,
    budget: int = 3,
    repeats: int = 3,
    query_repeats: int = 5,
    cache_dir: str | Path | None = None,
) -> dict[str, object]:
    """Time cold build vs rehydrate on one persisted cache directory."""
    graph = assign_weighted_cascade(barabasi_albert(n, attach, rng=rng))
    csr = CSRGraph(graph)
    seeds = pick_seeds(graph, num_seeds, rng=rng)
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-mmap-")
        cache_dir = tmp.name
    spec = EngineSpec(
        engine="sketch",
        seed=rng,
        cache_dir=cache_dir,
    )
    try:
        # -- cold: empty cache -> sample, build, persist, answer ------
        start = time.perf_counter()
        cold = build_evaluator(csr, spec)
        base_spread = cold.expected_spread(seeds, theta)
        t_cold = time.perf_counter() - start
        if cold.stats.persists != 1:
            raise RuntimeError(
                "cold build did not persist its artifact — "
                "the benchmark is not measuring the mmap path"
            )
        base_gains = cold.decrease_estimates(seeds, theta).copy()
        cold_picks, cold_trace = greedy_blockers(
            cold, seeds, theta, budget
        )
        cold.close()

        # -- rehydrate: fresh index over the warmed directory ---------
        t_rehydrate = float("inf")
        warm = None
        for _ in range(max(1, repeats)):
            if warm is not None:
                warm.close()
            start = time.perf_counter()
            warm = build_evaluator(csr, spec)
            spread = warm.expected_spread(seeds, theta)
            t_rehydrate = min(
                t_rehydrate, time.perf_counter() - start
            )
            if warm.stats.rehydrations != 1:
                raise RuntimeError(
                    "fresh index did not rehydrate from disk — "
                    "the benchmark is not measuring the mmap path"
                )

        # -- warm query: steady-state gains on the rehydrated view ----
        t_query = float("inf")
        for _ in range(max(1, query_repeats)):
            start = time.perf_counter()
            warm_gains = warm.decrease_estimates(seeds, theta)
            t_query = min(t_query, time.perf_counter() - start)

        # -- identity: the tentpole's hard contract -------------------
        identical = (
            spread == base_spread
            and np.array_equal(warm_gains, base_gains)
        )
        warm_picks, warm_trace = greedy_blockers(
            warm, seeds, theta, budget
        )
        identical = (
            identical
            and warm_picks == cold_picks
            and warm_trace == cold_trace
        )
        warm.close()
    finally:
        if tmp is not None:
            tmp.cleanup()

    return {
        "n": n,
        "m": csr.m,
        "theta": theta,
        "budget": budget,
        "t_cold": t_cold,
        "t_rehydrate": t_rehydrate,
        "t_query": t_query,
        "speedup": t_cold / t_rehydrate,
        "identical": identical,
        "base_spread": base_spread,
        "blockers": cold_picks,
    }


def render(r: dict[str, object]) -> str:
    rows = [
        [
            "cold_build (sample+build+persist+query)",
            f"{1e3 * r['t_cold']:.1f}",
            "1.0x",
        ],
        [
            "rehydrate (mmap load+query)",
            f"{1e3 * r['t_rehydrate']:.1f}",
            f"{r['speedup']:.1f}x",
        ],
        [
            "warm_query (decrease_estimates)",
            f"{1e3 * r['t_query']:.1f}",
            "-",
        ],
    ]
    verdict = "PASS" if r["speedup"] >= TARGET_SPEEDUP else "FAIL"
    summary = (
        f"rehydrated index bit-identical: {r['identical']}; base "
        f"spread {r['base_spread']:.2f}, blockers {r['blockers']}\n"
        f"rehydrate speedup vs cold build: {r['speedup']:.1f}x "
        f"(>= {TARGET_SPEEDUP:.0f}x target: {verdict})"
    )
    table = format_table(
        ["time to first answer", "ms", "vs cold"],
        rows,
        title=(
            f"persistent sketch artifacts (n={r['n']}, m={r['m']}, "
            f"WC model, theta={r['theta']})"
        ),
    )
    return f"{table}\n{summary}"


def to_json(result: dict[str, object], params: dict) -> dict:
    """The ``BENCH_mmap_artifacts.json`` document (see module
    docstring)."""
    return {
        "schema": JSON_SCHEMA,
        "params": params,
        "m": int(result["m"]),
        "cold_build_s": round(float(result["t_cold"]), 6),
        "rehydrate_s": round(float(result["t_rehydrate"]), 6),
        "warm_query_s": round(float(result["t_query"]), 6),
        "rehydrate_speedup_vs_cold": round(
            float(result["speedup"]), 3
        ),
        "identical": bool(result["identical"]),
    }


def test_mmap_artifacts(benchmark):
    """pytest-benchmark entry, full acceptance size (>= 1M edges)."""
    result = benchmark.pedantic(
        lambda: run_mmap_benchmark(),
        rounds=1,
        iterations=1,
    )
    emit(RESULT_FILE, render(result))
    assert result["m"] >= 1_000_000
    assert result["identical"]
    assert result["speedup"] >= TARGET_SPEEDUP


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=101_000)
    parser.add_argument("--attach", type=int, default=5)
    parser.add_argument("--theta", type=int, default=64)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rng", type=int, default=7)
    parser.add_argument("--budget", type=int, default=3)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="fresh rehydrates timed; the best is reported (default: 3)",
    )
    parser.add_argument(
        "--query-repeats",
        type=int,
        default=5,
        help="warm gains queries timed; best reported (default: 5)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist artifacts here instead of a throwaway tempdir "
        "(the directory is then left in place for inspection)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the machine-readable BENCH_mmap_artifacts.json",
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
    result = run_mmap_benchmark(
        n=args.n,
        attach=args.attach,
        theta=args.theta,
        num_seeds=args.seeds,
        rng=args.rng,
        budget=args.budget,
        repeats=args.repeats,
        query_repeats=args.query_repeats,
        cache_dir=args.cache_dir,
    )
    emit(RESULT_FILE, render(result))
    if args.json is not None:
        params = {
            "n": args.n,
            "attach": args.attach,
            "theta": args.theta,
            "seeds": args.seeds,
            "rng": args.rng,
            "budget": args.budget,
            "repeats": args.repeats,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(to_json(result, params), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not result["identical"]:
        print(
            "FAIL: rehydrated index diverges from the cold build "
            "(bit-identity contract)"
        )
        return 1
    if not args.no_check and result["speedup"] < TARGET_SPEEDUP:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
