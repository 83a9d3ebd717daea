"""Service saturation: worker-ladder knee through the sharded tier.

The latency benchmark (``bench_service_latency.py``) asks how fast a
warm query is; this one asks how far the service bends before it
breaks — and, since the sharded front end landed, how much further
each extra worker process pushes the bend.  For every rung of the
**worker ladder** (1/2/4 shard workers behind one asyncio front end)
a ladder of closed-loop client counts fires spread queries over real
TCP at a set of graph aliases chosen to cover every shard; each rung
reports sustained throughput and tail latency, and its **knee** is
the highest sustained qps whose p99 stays under the bar — expressed
as a multiple of the same-run single-client serial p50, so the bar
moves with machine speed instead of encoding it.

The topology under test is exactly ``serve --serve-workers N``: the
aliases all resolve to one dataset, each owned by the shard
``shard_for(name, N)`` picks, artifacts persist to a shared
``cache_dir`` so later rungs rehydrate the PR 7 mmap artifacts
instead of re-building, and the sampling profiler runs *through the
fan-out op* — its collapsed dump keeps each worker's stacks under a
``workerN;`` root frame.

Two more things ride along, unchanged in spirit from schema 1:

* **profiler overhead** — the single-worker rung runs its
  single-client phase twice (A/B/A, off/on/off) and asserts the warm
  p50 moved less than the budget (default 5%).
* **per-phase span breakdowns** — a traced probe through the widest
  topology (includes the ``frontend.route`` span), plus each rung's
  executor-counter deltas parsed from the merged exposition.

CI gates ``sustained_speedup_vs_serial`` — the widest rung's knee qps
over same-run profiled serial qps, a ratio of two same-process
measurements that cancels machine speed — via
``benchmarks/check_bench_regression.py``.  Scaling past 1x requires
real cores: on a single-CPU host every worker count measures
approximately the same ceiling, and the committed baseline records
whatever the bench host can actually sustain.

Run standalone::

    python benchmarks/bench_service_saturation.py --scale 0.4
    python benchmarks/bench_service_saturation.py \\
        --json BENCH_service_saturation.json \\
        --profile-output BENCH_service_saturation.collapsed
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

import numpy as np

from repro.datasets import load_dataset
from repro.obs import DEFAULT_HZ, iter_spans
from repro.service import (
    shard_for,
    ServiceClient,
    ShardedFrontend,
    WorkerSpec,
)

JSON_SCHEMA = 2

PROFILE_STACK_LIMIT = 40
"""Hottest stacks embedded in the JSON report (the full dump goes to
``--profile-output``)."""


def _percentiles(latencies: list[float]) -> dict[str, float]:
    arr = np.asarray(latencies, dtype=np.float64) * 1e3
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p99_ms": round(float(np.percentile(arr, 99)), 4),
        "mean_ms": round(float(arr.mean()), 4),
    }


def _blocked_for(query: int, seeds: list[int], n: int) -> list[int]:
    """A deterministic per-query blocked set avoiding the seeds."""
    gen = np.random.default_rng(20_000 + query)
    seed_set = set(seeds)
    candidates = [v for v in range(n) if v not in seed_set]
    count = int(gen.integers(0, min(3, len(candidates)) + 1))
    picks = gen.choice(len(candidates), size=count, replace=False)
    return sorted(candidates[i] for i in picks)


def _shard_aliases(dataset: str, workers: int) -> list[str]:
    """``workers`` alias names for one dataset covering every shard.

    Alias ``i`` lands on shard ``i`` at ``workers`` processes; because
    ``shard_for`` reduces one stable integer, an alias on shard ``i``
    of 4 sits on shard ``i mod 2`` of 2 — so the same alias set stays
    perfectly balanced at every power-of-two rung below the widest.
    """
    found: dict[int, str] = {}
    probe = 0
    while len(found) < workers:
        name = f"{dataset}~{probe}"
        shard = shard_for(name, workers)
        if shard not in found:
            found[shard] = name
        probe += 1
    return [found[shard] for shard in range(workers)]


def _metric_total(text: str, family: str) -> float:
    """Sum one family's samples across every worker label in a merged
    exposition page."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(f"{family}{{") or line.startswith(
            f"{family} "
        ):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _executor_counters(exposition: str) -> dict[str, float]:
    """Cross-shard executor saturation counters from one scrape."""
    return {
        "submitted": _metric_total(
            exposition, "repro_executor_submitted_total"
        ),
        "completed": _metric_total(
            exposition, "repro_executor_completed_total"
        ),
        "pending": _metric_total(exposition, "repro_executor_pending"),
    }


def _fire(
    host: str,
    port: int,
    key_fields: dict,
    graphs: list[str],
    seeds: list[int],
    n: int,
    clients: int,
    queries_per_client: int,
    offset: int,
) -> tuple[list[float], float]:
    """Closed-loop load: every client fires back-to-back queries at
    its own graph alias (``graphs[client % len(graphs)]``), so the
    ladder exercises every shard of whatever topology is listening.

    Returns (per-query latencies, wall seconds across the whole rung).
    """
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def worker(idx: int) -> None:
        try:
            graph = graphs[idx % len(graphs)]
            with ServiceClient(host, port) as client:
                barrier.wait()
                for q in range(queries_per_client):
                    blocked = _blocked_for(
                        offset + idx * queries_per_client + q, seeds, n
                    )
                    start = time.perf_counter()
                    client.spread(
                        graph=graph, seeds=seeds, blocked=blocked,
                        **key_fields,
                    )
                    latencies[idx].append(time.perf_counter() - start)
        except BaseException as error:  # noqa: BLE001 - surface
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    return [latency for per in latencies for latency in per], wall


def _start_topology(
    workers: int, params: dict, aliases: list[str], cache_dir: str
) -> ShardedFrontend:
    spec = WorkerSpec(
        scale=params["scale"],
        aliases=tuple((name, params["dataset"]) for name in aliases),
        cache_entries=len(aliases) + 1,
        cache_dir=cache_dir,
    )
    frontend = ShardedFrontend(
        workers=workers,
        worker_spec=spec,
        # bench rungs must measure queueing, not shedding
        max_pending=None,
    )
    return frontend.start()


def _warm_topology(
    frontend: ShardedFrontend,
    params: dict,
    aliases: list[str],
    key_fields: dict,
) -> list[int]:
    """Warm every alias (build or mmap-rehydrate) through the wire;
    returns the server-resolved seed set (identical across aliases —
    they are one dataset)."""
    host, port = frontend.address
    seeds: list[int] | None = None
    with ServiceClient(host, port) as client:
        for alias in aliases:
            client.warm(graph=alias, **key_fields)
            result = client.spread(
                graph=alias,
                num_seeds=params["num_seeds"],
                **key_fields,
            )
            resolved = result["seeds"]
            if seeds is None:
                seeds = resolved
            elif resolved != seeds:  # pragma: no cover - invariant
                raise AssertionError(
                    f"alias {alias} resolved different default seeds "
                    f"{resolved} != {seeds}"
                )
            client.warm(
                graph=alias, seeds=seeds, sketch=True, **key_fields
            )
    assert seeds is not None
    return seeds


def _merged_profile_stats(dump: dict) -> dict[str, object]:
    """Flatten the fan-out ``profile`` result: sum volumes across the
    per-worker reports, keep one hz."""
    hz = None
    overruns = 0
    distinct = 0
    for report in (dump.get("workers") or {}).values():
        if not isinstance(report, dict) or "hz" not in report:
            continue
        hz = report["hz"] if hz is None else hz
        overruns += int(report.get("overruns", 0))
        distinct += int(report.get("distinct_stacks", 0))
    return {
        "hz": hz,
        "samples": int(dump.get("samples", 0)),
        "overruns": overruns,
        "distinct_stacks": distinct,
    }


def run(params: dict) -> dict[str, object]:
    import tempfile

    key_fields = {
        "model": params["model"],
        "theta": params["theta"],
        "seed": params["seed"],
    }
    worker_ladder = params["worker_ladder"]
    max_workers = max(worker_ladder)
    aliases = _shard_aliases(params["dataset"], max_workers)
    n = load_dataset(params["dataset"], scale=params["scale"]).n
    queries = params["queries_per_client"]

    serial_off: dict | None = None
    serial_on: dict | None = None
    overhead_pct: float | None = None
    bar_ms: float | None = None
    worker_sweep: list[dict[str, object]] = []
    phases: dict[str, dict[str, float]] = {}
    profile_summary: dict[str, object] = {}
    collapsed_parts: list[str] = []
    offset = 0

    with tempfile.TemporaryDirectory(
        prefix="bench-saturation-"
    ) as cache_dir:
        for workers in worker_ladder:
            frontend = _start_topology(
                workers, params, aliases, cache_dir
            )
            host, port = frontend.address
            try:
                seeds = _warm_topology(
                    frontend, params, aliases, key_fields
                )
                if serial_on is None:
                    # --- profiler overhead on the narrowest topology:
                    # A/B/A (off, on, off) so warmup drift biases both
                    # flanks equally instead of being billed to the
                    # profiler; single client, single alias = the
                    # serial baseline every wider rung is scored
                    # against ---
                    off1_lat, off1_wall = _fire(
                        host, port, key_fields, aliases[:1], seeds, n,
                        1, queries, offset,
                    )
                    offset += queries
                    with ServiceClient(host, port) as ctl:
                        ctl.profile("start", hz=params["profile_hz"])
                    on_lat, on_wall = _fire(
                        host, port, key_fields, aliases[:1], seeds, n,
                        1, queries, offset,
                    )
                    offset += queries
                    with ServiceClient(host, port) as ctl:
                        ctl.profile("stop")
                    off2_lat, off2_wall = _fire(
                        host, port, key_fields, aliases[:1], seeds, n,
                        1, queries, offset,
                    )
                    offset += queries
                    off_lat = off1_lat + off2_lat
                    serial_off = _percentiles(off_lat)
                    serial_on = _percentiles(on_lat)
                    serial_off["qps"] = round(
                        len(off_lat) / (off1_wall + off2_wall), 2
                    )
                    serial_on["qps"] = round(len(on_lat) / on_wall, 2)
                    overhead_pct = round(
                        (serial_on["p50_ms"] - serial_off["p50_ms"])
                        / serial_off["p50_ms"]
                        * 100.0,
                        2,
                    )
                    bar_ms = round(
                        serial_on["p50_ms"]
                        * params["p99_bar_multiple"],
                        4,
                    )

                # --- the rung's client-ladder sweep, profiler
                # sampling in every worker ---
                with ServiceClient(host, port) as ctl:
                    ctl.profile("start", hz=params["profile_hz"])
                sweep: list[dict[str, object]] = []
                with ServiceClient(host, port) as scrape:
                    counters = _executor_counters(scrape.metrics())
                for clients in params["client_ladder"]:
                    lat, wall = _fire(
                        host, port, key_fields, aliases, seeds, n,
                        clients, queries, offset,
                    )
                    offset += clients * queries
                    with ServiceClient(host, port) as scrape:
                        after = _executor_counters(scrape.metrics())
                    point = _percentiles(lat)
                    point["clients"] = clients
                    point["queries"] = len(lat)
                    point["qps"] = round(len(lat) / wall, 2)
                    point["under_bar"] = point["p99_ms"] <= bar_ms
                    point["executor"] = {
                        "submitted": after["submitted"]
                        - counters["submitted"],
                        "completed": after["completed"]
                        - counters["completed"],
                        "pending_after": after["pending"],
                    }
                    counters = after
                    sweep.append(point)

                knee = None
                for point in sweep:
                    if point["under_bar"] and (
                        knee is None or point["qps"] > knee["qps"]
                    ):
                        knee = point
                rung_qps = knee["qps"] if knee is not None else 0.0
                worker_sweep.append({
                    "workers": workers,
                    "sweep": sweep,
                    "knee": knee,
                    "sustained_qps": rung_qps,
                    "sustained_speedup_vs_serial": (
                        round(rung_qps / serial_on["qps"], 2)
                        if serial_on["qps"]
                        else 0.0
                    ),
                })

                if workers == max_workers:
                    # --- per-phase breakdown through the widest
                    # topology: one traced probe (includes the
                    # frontend.route span) ---
                    with ServiceClient(host, port) as probe:
                        traced = probe.request(
                            "spread", graph=aliases[0], seeds=seeds,
                            blocked=[], trace=True, **key_fields,
                        )
                    for node in iter_spans(traced.get("trace", {})):
                        entry = phases.setdefault(
                            node["name"],
                            {"count": 0, "total_ms": 0.0},
                        )
                        entry["count"] += 1
                        entry["total_ms"] = round(
                            entry["total_ms"] + node["duration_ms"], 3
                        )

                # --- this rung's profile dump (the workers die with
                # the rung; collect before teardown) ---
                with ServiceClient(host, port) as ctl:
                    dump = ctl.profile("dump")
                    ctl.profile("stop")
                for line in (dump.get("collapsed") or "").splitlines():
                    collapsed_parts.append(f"workers{workers};{line}")
                if workers == max_workers:
                    profile_summary = _merged_profile_stats(dump)
            finally:
                frontend.shutdown()

    collapsed_full = "\n".join(collapsed_parts)
    top_stacks = sorted(
        collapsed_parts,
        key=lambda line: -int(line.rsplit(" ", 1)[1]),
    )[:PROFILE_STACK_LIMIT]
    widest = worker_sweep[-1]
    profile_summary["top_stacks"] = top_stacks
    return {
        "schema": JSON_SCHEMA,
        "params": params,
        "serial": serial_off,
        "serial_profiled": serial_on,
        "profiler_overhead_pct": overhead_pct,
        "p99_bar_ms": bar_ms,
        "worker_sweep": worker_sweep,
        "sweep": widest["sweep"],
        "knee": widest["knee"],
        "sustained_qps": widest["sustained_qps"],
        "sustained_speedup_vs_serial": widest[
            "sustained_speedup_vs_serial"
        ],
        "phases": phases,
        "profile": profile_summary,
        "_collapsed_full": collapsed_full,
    }


def render(report: dict) -> str:
    serial = report["serial"]
    lines = [
        "service saturation — worker ladder through the sharded tier "
        f"({report['params']['dataset']}, scale="
        f"{report['params']['scale']:g}, theta="
        f"{report['params']['theta']}, p99 bar "
        f"{report['p99_bar_ms']:.2f} ms)",
        f"  serial     p50 {serial['p50_ms']:8.2f} ms   "
        f"{serial['qps']:8.2f} q/s  (profiled: p50 "
        f"{report['serial_profiled']['p50_ms']:.2f} ms, overhead "
        f"{report['profiler_overhead_pct']:+.1f}%)",
    ]
    for rung in report["worker_sweep"]:
        lines.append(f"  -- {rung['workers']} worker(s) --")
        for point in rung["sweep"]:
            marker = " " if point["under_bar"] else "!"
            lines.append(
                f"  {point['clients']:3d} client"
                f"{'s' if point['clients'] != 1 else ' '}"
                f" {marker} p50 {point['p50_ms']:8.2f} ms   p99 "
                f"{point['p99_ms']:8.2f} ms   {point['qps']:8.2f} q/s"
            )
        knee = rung["knee"]
        if knee is None:
            lines.append(
                "     knee: NONE — every rung blew the p99 bar"
            )
        else:
            lines.append(
                f"     knee: {knee['clients']} clients at "
                f"{rung['sustained_qps']:.2f} q/s = "
                f"{rung['sustained_speedup_vs_serial']:.2f}x serial"
            )
    profile = report["profile"]
    lines.append(
        f"  widest rung: {report['sustained_qps']:.2f} q/s sustained "
        f"= {report['sustained_speedup_vs_serial']:.2f}x serial "
        f"({profile.get('samples', 0)} profile samples, "
        f"{profile.get('distinct_stacks', 0)} stacks)"
    )
    return "\n".join(lines)


def test_service_saturation(benchmark):
    """pytest-benchmark entry, scaled down for suite runtime."""
    params = {
        "dataset": "email-core",
        "scale": 0.2,
        "model": "wc",
        "theta": 100,
        "seed": 7,
        "num_seeds": 3,
        "queries_per_client": 8,
        "client_ladder": [1, 2],
        "worker_ladder": [1, 2],
        "p99_bar_multiple": 50.0,
        "profile_hz": DEFAULT_HZ,
    }
    report = benchmark.pedantic(
        lambda: run(params), rounds=1, iterations=1
    )
    print(render(report))
    assert len(report["worker_sweep"]) == 2
    assert report["profile"]["samples"] > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="email-core")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--model", choices=("tr", "wc"), default="wc")
    parser.add_argument("--theta", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--num-seeds", type=int, default=5)
    parser.add_argument(
        "--queries-per-client", type=int, default=40,
        help="closed-loop queries per client per rung (default: 40)",
    )
    parser.add_argument(
        "--clients", default="1,2,4,8", metavar="LADDER",
        help="comma-separated client counts to sweep (default: 1,2,4,8)",
    )
    parser.add_argument(
        "--workers", default="1,2,4", metavar="LADDER",
        help=(
            "comma-separated shard-worker counts to sweep "
            "(default: 1,2,4); each rung is a fresh --serve-workers "
            "topology over the same persisted artifacts"
        ),
    )
    parser.add_argument(
        "--p99-bar-multiple", type=float, default=20.0,
        help=(
            "p99 bar as a multiple of the same-run serial p50 "
            "(default: 20) — a rung over the bar is past the knee"
        ),
    )
    parser.add_argument(
        "--profile-hz", type=float, default=DEFAULT_HZ,
        help="sampling-profiler rate for the overhead phase "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-profiler-overhead-pct", type=float, default=5.0,
        help=(
            "fail if the profiler moves warm-query p50 by more than "
            "this (default: 5, the ISSUE 8 acceptance bar)"
        ),
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="report only, skip the knee/overhead assertions",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="write the machine-readable BENCH_service_saturation.json",
    )
    parser.add_argument(
        "--profile-output", type=str, default=None, metavar="PATH",
        help=(
            "write the run's full collapsed-stack profile here "
            "(flamegraph.pl input; the JSON embeds only the "
            f"{PROFILE_STACK_LIMIT} hottest stacks)"
        ),
    )
    args = parser.parse_args(argv)

    def parse_ladder(text: str, flag: str) -> list[int] | None:
        try:
            ladder = sorted({int(c) for c in text.split(",") if c.strip()})
        except ValueError:
            print(f"error: bad {flag} ladder {text!r}")
            return None
        if not ladder or ladder[0] < 1:
            print(f"error: {flag} needs positive counts")
            return None
        return ladder

    ladder = parse_ladder(args.clients, "--clients")
    workers = parse_ladder(args.workers, "--workers")
    if ladder is None or workers is None:
        return 2
    params = {
        "dataset": args.dataset,
        "scale": args.scale,
        "model": args.model,
        "theta": args.theta,
        "seed": args.seed,
        "num_seeds": args.num_seeds,
        "queries_per_client": args.queries_per_client,
        "client_ladder": ladder,
        "worker_ladder": workers,
        "p99_bar_multiple": args.p99_bar_multiple,
        "profile_hz": args.profile_hz,
    }
    report = run(params)
    collapsed_full = report.pop("_collapsed_full", "")
    print(render(report))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.profile_output is not None:
        with open(args.profile_output, "w", encoding="utf-8") as handle:
            handle.write(collapsed_full)
            if collapsed_full:
                handle.write("\n")
        print(f"wrote {args.profile_output}")
    if not args.no_check:
        failures = []
        if report["knee"] is None:
            failures.append("no rung stayed under the p99 bar")
        if (
            report["profiler_overhead_pct"]
            > args.max_profiler_overhead_pct
        ):
            failures.append(
                f"profiler overhead {report['profiler_overhead_pct']:+.1f}% "
                f"> budget {args.max_profiler_overhead_pct:g}%"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
