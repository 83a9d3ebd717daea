"""Greedy selection loop: incremental rebases vs a rebuild per step.

PR 4 made the cold sketch *build* array-native; this benchmark times
the other half of Algorithm 2's life — the per-selection rebase + gains
sweep of each greedy round, the hot path of every ``block``
query the service answers.  Both sides run the same greedy
(:func:`repro.core.advanced_greedy.lazy_blocking`) over the **same
pooled samples** and must produce bit-identical blocker sets, gains
and spread estimates:

* **arena** — one :class:`~repro.engine.SketchIndex` whose view is
  rebased from each blocker set to the next (postings-driven touch
  detection, one batched delta scatter, one flat arena write-back,
  touched trees rebuilt by the compiled batched kernel of
  :mod:`repro.native` when the host has a C compiler);
* **rebuild** — the identity reference: a fresh index per blocker set,
  built cold over the shared pool and moved to that set once, so no
  answer ever comes from an incrementally rebased view.

A rebase microbench row isolates one representative blocker-set
transition (first pick's rebase + whole-candidate sweep) from the
selection loop around it, next to the cold view build it avoids.

Timing excludes sampling (shared pool) and both sides run the same
kernels in one process, so machine speed cancels in the ratio.  The
acceptance bar: on the 10k-vertex WC graph at theta=1000 the
incremental selection loop must be >= 5x faster end-to-end.  ``--json
PATH`` writes ``BENCH_sketch_query.json``; CI gates
``select_speedup_vs_rebuild`` against the committed baseline via
``benchmarks/check_bench_regression.py`` (report kind auto-detected;
an identity failure is a hard fail regardless of tolerance).

Run standalone::

    python benchmarks/bench_sketch_query.py --n 2000 --theta 150 \\
        --no-check
    python benchmarks/bench_sketch_query.py --json BENCH_sketch_query.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import format_table, pick_seeds
from repro.core.advanced_greedy import lazy_blocking
from repro.engine import SketchIndex
from repro.engine.pool import SamplePool
from repro.graph import barabasi_albert, CSRGraph
from repro.models import assign_weighted_cascade
from repro.native import native_build_available
from repro.obs import new_trace, use_trace

try:  # pytest package context vs standalone script
    from .conftest import emit
except ImportError:  # pragma: no cover - script mode
    def emit(name: str, text: str) -> None:
        print(text)

RESULT_FILE = "sketch_query"
JSON_SCHEMA = 2
TARGET_SPEEDUP = 5.0


class RebuildPerStep:
    """A sketch that never rebases: each new blocker set is answered
    by a fresh :class:`SketchIndex` over the shared pool."""

    def __init__(self, csr: CSRGraph, pool: SamplePool) -> None:
        self.csr = csr
        self.pool = pool
        self._blocked: tuple[int, ...] | None = None
        self._index: SketchIndex | None = None

    def _at(self, blocked) -> SketchIndex:
        key = tuple(sorted(int(v) for v in blocked))
        if key != self._blocked:
            self.close()
            self._index = SketchIndex(self.pool)
            self._blocked = key
        return self._index

    def expected_spread(self, seeds, rounds, blocked=()):
        return self._at(blocked).expected_spread(seeds, rounds, blocked)

    def decrease_estimates(self, seeds, rounds, blocked=()):
        return self._at(blocked).decrease_estimates(seeds, rounds, blocked)

    def close(self) -> None:
        if self._index is not None:
            self._index.close()
            self._index = None
            self._blocked = None


def run_query_benchmark(
    n: int = 10_000,
    attach: int = 5,
    theta: int = 1000,
    num_seeds: int = 10,
    budget: int = 20,
    rng: int = 7,
    repeats: int = 2,
) -> dict[str, object]:
    """Time the greedy selection loop, rebased vs rebuilt per step."""
    graph = assign_weighted_cascade(barabasi_albert(n, attach, rng=rng))
    seeds = pick_seeds(graph, num_seeds, rng=rng)
    csr = CSRGraph(graph)
    pool = SamplePool(csr, rng=rng)
    pool.get(theta)  # shared samples: excluded from every timing

    def arena_once():
        with SketchIndex(pool) as index:
            start = time.perf_counter()
            index.expected_spread(seeds, theta)
            t_cold = time.perf_counter() - start
            start = time.perf_counter()
            result = lazy_blocking(graph, seeds, budget, theta, index)
            t_select = time.perf_counter() - start
            # one representative transition on a fresh warm view: the
            # top pick's rebase plus the whole-candidate gains sweep
            with SketchIndex(pool) as fresh:
                fresh.expected_spread(seeds, theta)
                start = time.perf_counter()
                fresh.decrease_estimates(
                    seeds, theta, [result.blockers[0]]
                )
                t_rebase = time.perf_counter() - start
            return {"cold": t_cold, "select": t_select,
                    "rebase": t_rebase}, result

    def rebuild_once():
        reference = RebuildPerStep(csr, pool)
        start = time.perf_counter()
        result = lazy_blocking(graph, seeds, budget, theta, reference)
        t_select = time.perf_counter() - start
        reference.close()
        return {"select": t_select}, result

    measurements: dict[str, dict[str, float]] = {}
    results: dict[str, object] = {}
    phases: dict[str, dict] = {}
    for side, once in (("rebuild", rebuild_once), ("arena", arena_once)):
        best: dict[str, float] = {}
        for _ in range(max(1, repeats)):
            # per-phase span breakdown (sketch.build / rebase / gains /
            # treebuild ...) of one full repeat, attached to the report
            trace = new_trace()
            with use_trace(trace):
                times, result = once()
            for key, value in times.items():
                best[key] = min(best.get(key, float("inf")), value)
            results[side] = result
        measurements[side] = best
        phases[side] = trace.summary()

    rebuild, arena = results["rebuild"], results["arena"]
    identical = (
        rebuild.blockers == arena.blockers
        and rebuild.round_deltas == arena.round_deltas
        and rebuild.estimated_spread == arena.estimated_spread
    )
    return {
        "n": n,
        "m": csr.m,
        "theta": theta,
        "budget": budget,
        "picked": len(arena.blockers),
        "rebuild": measurements["rebuild"],
        "arena": measurements["arena"],
        "select_speedup": (
            measurements["rebuild"]["select"]
            / measurements["arena"]["select"]
        ),
        "rebase_speedup": (
            measurements["arena"]["cold"] / measurements["arena"]["rebase"]
        ),
        "identical": identical,
        "native": native_build_available(),
        "phases": phases,
    }


def render(r: dict[str, object]) -> str:
    arena = r["arena"]
    rows = [
        ["cold view build", f"{1e3 * arena['cold']:.1f}", ""],
        [
            f"greedy selection (budget {r['budget']})",
            f"{1e3 * arena['select']:.1f}",
            f"{1e3 * r['rebuild']['select']:.1f}",
        ],
        ["single rebase + gains sweep", f"{1e3 * arena['rebase']:.1f}", ""],
    ]
    verdict = "PASS" if r["select_speedup"] >= TARGET_SPEEDUP else "FAIL"
    summary = (
        f"selections bit-identical: {r['identical']}; "
        f"native kernel: {r['native']}; picked {r['picked']} blockers\n"
        f"single rebase vs cold view build: {r['rebase_speedup']:.1f}x\n"
        f"selection-loop speedup vs a rebuild per step: "
        f"{r['select_speedup']:.1f}x "
        f"(>= {TARGET_SPEEDUP:.0f}x target: {verdict})"
    )
    table = format_table(
        ["phase", "arena ms", "rebuild ms"],
        rows,
        title=(
            f"sketch query path (n={r['n']}, WC model, "
            f"theta={r['theta']})"
        ),
    )
    return f"{table}\n{summary}"


def to_json(result: dict[str, object], params: dict) -> dict:
    """The ``BENCH_sketch_query.json`` document (see module docstring)."""
    return {
        "schema": JSON_SCHEMA,
        "params": params,
        "arena_select_s": round(float(result["arena"]["select"]), 6),
        "arena_rebase_s": round(float(result["arena"]["rebase"]), 6),
        "arena_cold_s": round(float(result["arena"]["cold"]), 6),
        "rebuild_select_s": round(float(result["rebuild"]["select"]), 6),
        "select_speedup_vs_rebuild": round(
            float(result["select_speedup"]), 3
        ),
        "rebase_speedup_vs_cold": round(float(result["rebase_speedup"]), 3),
        "identical": bool(result["identical"]),
        "native": bool(result["native"]),
        # per-side {span: {count, total_ms}} from the last repeat —
        # extra keys are ignored by check_bench_regression.py
        "phases": result["phases"],
    }


def test_sketch_query(benchmark):
    """pytest-benchmark entry, full acceptance size."""
    result = benchmark.pedantic(
        lambda: run_query_benchmark(n=10_000, theta=1000),
        rounds=1,
        iterations=1,
    )
    emit(RESULT_FILE, render(result))
    assert result["identical"]
    assert result["select_speedup"] >= TARGET_SPEEDUP


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--attach", type=int, default=5)
    parser.add_argument("--theta", type=int, default=1000)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--budget", type=int, default=20)
    parser.add_argument("--rng", type=int, default=7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timings per side; the best is reported (default: 2)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the machine-readable BENCH_sketch_query.json",
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
    result = run_query_benchmark(
        n=args.n,
        attach=args.attach,
        theta=args.theta,
        num_seeds=args.seeds,
        budget=args.budget,
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
            "budget": args.budget,
            "rng": args.rng,
            "repeats": args.repeats,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(to_json(result, params), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not result["identical"]:
        print("FAIL: rebased selection diverges from the rebuild path")
        return 1
    if not args.no_check and result["select_speedup"] < TARGET_SPEEDUP:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
