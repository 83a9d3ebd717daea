"""One benchmark run: set-ups, warm-up, measured phases, answer check.

Imported by ``run.py`` once the checkout's ``src`` is on the path.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from repro.native import native_build_available
from repro.obs import iter_spans

from . import server as srv
from . import workloads
from .reference import matches, Reference

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"


def say(line: str) -> None:
    print(line, flush=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (failed requests enter as ``inf``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _throughput(records) -> float:
    """Completed requests per second of a closed-loop phase."""
    span_s = max(r.done for r in records) - min(r.sent for r in records)
    return sum(1 for r in records if r.ok) / span_s


def calibrate() -> float:
    """Median ms of a fixed numpy kernel (a sort plus a random gather
    from a 64 MB array, so both CPU and memory-bandwidth contention
    show): a noisy-neighbour detector for this host and moment, never a
    basis for comparing runs."""
    gen = np.random.default_rng(0)
    data = gen.random(400_000)
    table = gen.random(8_000_000)
    index = gen.integers(0, table.shape[0], 1_000_000)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        np.sort(data)
        table[index].sum()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


class Run:
    """One benchmark run: set-ups, warm-up, measured phases, check."""

    def __init__(self, args) -> None:
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.records = []
        self.setup_s: list[float] = []

    # ------------------------------------------------------------------
    def prepare(self):
        native_build_available()  # compile once, before any timing
        workloads.ensure_edge_list(self.workload, BUILD)
        phases = 2 if self.args.trace else 1
        max_updates = (
            workloads.UPDATES_PER_SECOND_CAP * self.args.seconds * phases
            + self.workload.warmup
        )
        graph = workloads.server_registry(self.workload, BUILD).get(
            self.workload.graph
        )
        self.stream = workloads.Stream(
            self.workload, graph, self.args.seed, max_updates
        )
        del graph
        gc.collect()

    def serve(self) -> None:
        path = workloads.edge_list_path(self.workload, BUILD)
        edge_list = None if path is None else (self.workload.graph, path)
        setups = 1 if self.args.trace else self.workload.setups
        for index in range(setups):
            server = srv.ServerProcess(ROOT, BUILD, edge_list)
            started = server.start()
            try:
                conn = server.connect()
                record = srv.serial(
                    conn, [self.stream.setup_request()], "setup",
                    trace=bool(self.args.trace),
                )[0]
                self.records.append(record)
                self.setup_s.append(record.done - started)
                conn.close()
                if index + 1 < setups:
                    server.stop()
            except BaseException:
                server.stop()
                raise
        try:
            self._drive(server)
            self.stats = server.stats()
            self.rss_mb = server.peak_rss_mb()
        finally:
            server.stop()

    def _drive(self, server) -> None:
        wl = self.workload
        conn = server.connect()
        warm = [self.stream.next() for _ in range(wl.warmup)]
        self.records += srv.serial(conn, warm, "warmup")
        conn.close()
        for traced in ((False, True) if self.args.trace else (False,)):
            suffix = "-traced" if traced else ""
            closed_s = float(self.args.seconds)
            if wl.open_rate is not None:
                open_s = 0.4 * self.args.seconds
                closed_s -= open_s
                offsets = self.stream.arrivals(wl.open_rate, open_s)
                requests = [self.stream.next() for _ in offsets]
                self.records += srv.open_loop(
                    server.port, requests, offsets, wl.connections,
                    "open" + suffix, trace=traced,
                )
            self.records += srv.closed_loop(
                server.port, self.stream, closed_s, wl.connections,
                "closed" + suffix, trace=traced,
            )

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Replay every served request in-process; mark each record."""
        ref = Reference(
            self.workload, workloads.server_registry(self.workload, BUILD)
        )
        try:
            ops = self._replay(ref)
            if self.args.trace:
                self._probe(ref, ops)
                ref.finish()
                self.layers = ref.layers
                self.probes = ref.probes
        finally:
            ref.artifact.close()

    def _replay(self, ref) -> set:
        """Answer every record in send order; repeated requests of a
        stream without updates are answered once (answers are pure
        functions of the request) unless the run times every call."""
        ops = {r.request["op"] for r in self.records}
        pure = not self.args.trace and "update" not in ops
        memo: dict[str, tuple] = {}
        for record in sorted(self.records, key=lambda r: r.sent):
            request = record.request
            key = json.dumps(request, sort_keys=True)
            if pure and key in memo:
                expected, engine = memo[key]
            else:
                expected, engine = ref.answer(request)
                memo[key] = (expected, engine)
            record.engine_ms = engine
            if record.error is None:
                record.correct = matches(expected, record.response)
        return ops

    def _probe(self, ref, ops: set) -> None:
        seeds = self.stream.seed_sets[0]
        base = self.stream.setup_request()
        base = {k: base[k] for k in ("graph", "model", "theta", "seed")}
        if "block" not in ops:
            ref.probe({**base, "op": "block", "seeds": seeds, "budget": 5,
                       "algorithm": "greedy-replace"})
        if "spread" not in ops:
            ref.probe({**base, "op": "spread", "seeds": seeds, "blocked": []})
        if "update" not in ops:
            delta = workloads.random_delta(
                ref.artifact.graph, workloads.UPDATE_EDITS,
                np.random.default_rng([self.args.seed, 2]),
            )
            ref.probe({**base, "op": "update", "seq": 1, **delta.as_dict()})

    # ------------------------------------------------------------------
    def phase_table(self) -> tuple[int, int, int]:
        say(f"  {'phase':<14}{'attempted':>10}{'succeeded':>10}"
            f"{'failed':>8}   failure kinds")
        phases: dict[str, list] = {}
        for record in self.records:
            phases.setdefault(record.phase, []).append(record)
        total = failed = mismatched = 0
        for phase, records in phases.items():
            bad = [r for r in records if not r.ok]
            kinds: dict[str, int] = {}
            for r in bad:
                kind = r.error or "wrong answer"
                kinds[kind] = kinds.get(kind, 0) + 1
            total += len(records)
            failed += len(bad)
            mismatched += sum(1 for r in records if r.correct is False)
            say(f"  {phase:<14}{len(records):>10}"
                f"{len(records) - len(bad):>10}{len(bad):>8}   "
                + (", ".join(f"{k}={v}" for k, v in kinds.items())
                        or "-"))
        say(f"  failed_frac = {failed / max(total, 1):.6f}")
        return total, failed, mismatched

    def end_to_end(self) -> dict[str, float]:
        closed = [r for r in self.records if r.phase == "closed"]
        reads = [r.latency_ms if r.ok else math.inf for r in closed
                 if r.request["op"] in ("spread", "block")]
        metrics = {
            "setup_s": statistics.median(self.setup_s),
            "rss_mb": self.rss_mb,
            "read_p50_ms": percentile(reads, 50),
            "req_per_s": _throughput(closed),
        }
        say(
            "  setup_s per cold start: "
            + ", ".join(f"{s:.3f}" for s in self.setup_s)
        )
        for phase in ("open", "closed"):
            self._op_summary(phase)
        return metrics

    def _op_summary(self, phase: str) -> None:
        """Per-op latency figures of one phase (median and tail, with
        the sample count), under the names the workload docs use."""
        records = [r for r in self.records if r.phase == phase]
        if not records:
            return
        by_op: dict[str, list[float]] = {}
        for r in records:
            value = r.latency_ms if r.ok else math.inf
            by_op.setdefault(r.request["op"], []).append(value)
        tail = {"spread": 99, "block": 90, "update": 90}
        for op, values in by_op.items():
            q = tail[op]
            beyond = len(values) - math.ceil(q / 100.0 * len(values))
            say(
                f"  {phase:<6} {op}_p50_ms = {percentile(values, 50):.3f}"
                f"   {op}_p{q}_ms = {percentile(values, q):.3f}"
                f"   (n={len(values)}, {beyond} beyond p{q})"
            )
        if phase == "open":
            lag = [(r.sent - r.due) * 1e3 for r in records if r.sent]
            say(
                f"  open   send lag: p99 = {percentile(lag, 99):.3f} ms, "
                f"max = {max(lag):.3f} ms"
            )
            return
        ops = {r.request["op"] for r in records}
        name = f"{ops.pop()}_qps" if len(ops) == 1 else "req_per_s"
        say(f"  closed {name} = {_throughput(records):.3f} 1/s over "
            f"{self.workload.connections} connection(s)")
        blocks = [r.response["result"] for r in records
                  if r.ok and r.request["op"] == "block"]
        if blocks:
            ratio = statistics.fmean(
                b["spread_blocked"] / b["spread_unblocked"] for b in blocks
            )
            say(f"  block_spread_ratio = {ratio:.6f} (n={len(blocks)})")

    def per_layer(self) -> dict[str, float]:
        out = {name: (statistics.fmean(v) if v else 0.0)
               for name, v in self.layers.items()}
        out["sketch.view_hit_frac"] = out.pop("sketch.view_hit", 0.0)
        setup = self.records[0].response.get("trace", {})
        out["cache.build_ms"] = sum(
            s["duration_ms"] for s in iter_spans(setup)
            if s["name"] == "cache.build"
        )
        service = self.stats["service"]
        spreads = service["requests"].get("spread", 0)
        calls = spreads - service["batched_queries"] + service["batches"]
        out["pooled.batch_mean"] = spreads / calls if calls else 0.0
        traced = [r for r in self.records
                  if r.phase.endswith("-traced") and r.ok]
        rows = {k: 0.0 for k in ("service.resolve", "service.queue_wait",
                                 "service.evaluate", "frontend.route")}
        wall = wire = unattributed = 0.0
        for r in traced:
            roots = {k: 0.0 for k in rows}
            for s in r.response["trace"]["spans"]:
                if s["name"] in roots:
                    roots[s["name"]] += s["duration_ms"]
            for k in rows:
                rows[k] += roots[k]
            client_ms = (r.done - r.sent) * 1e3
            wall += client_ms
            wire += client_ms - roots["frontend.route"]
            unattributed += roots["service.evaluate"] - r.engine_ms
        count = max(len(traced), 1)
        out["service.resolve_ms"] = rows["service.resolve"] / count
        out["service.queue_wait_ms"] = rows["service.queue_wait"] / count
        out["service.evaluate_ms"] = rows["service.evaluate"] / count
        out["frontend.hop_ms"] = (
            rows["frontend.route"] - rows["service.resolve"]
            - rows["service.queue_wait"] - rows["service.evaluate"]
        ) / count
        out["wire.client_ms"] = wire / count
        out["unattributed_pct"] = 100.0 * unattributed / max(wall, 1e-9)

        def mean_ms(phase):
            sample = [(r.done - r.sent) * 1e3 for r in self.records
                      if r.phase == phase and r.ok]
            return statistics.fmean(sample)

        out["trace_overhead_pct"] = 100.0 * (
            mean_ms("closed-traced") / mean_ms("closed") - 1.0
        )
        return out

    def known_rows(self, layer: dict[str, float]) -> None:
        """The ROADMAP rows this run can confirm, as plain shares."""
        setup_ms = self.setup_s[0] * 1e3
        say(f"  pool.sample_ms / setup = {layer['pool.sample_ms']:.1f}"
            f" / {setup_ms:.1f} ms = "
            f"{100 * layer['pool.sample_ms'] / setup_ms:.1f}%")
        phase = "open" if self.workload.open_rate is not None else "closed"
        reads = [r.latency_ms for r in self.records
                 if r.phase == phase and r.ok
                 and r.request["op"] == "spread"]
        if reads:
            p50 = percentile(reads, 50)
            say(f"  pooled.spread_ms / {phase}-loop spread p50 = "
                f"{layer['pooled.spread_ms']:.3f} / {p50:.3f} ms = "
                f"{100 * layer['pooled.spread_ms'] / p50:.1f}%")
        say(f"  judge.score_ms / core.select_ms = "
            f"{layer['judge.score_ms']:.3f} / "
            f"{layer['core.select_ms']:.3f} ms")


def run(args, spec: dict) -> int:
    """One run; returns the exit code.  The JSON result is the last
    line printed."""
    bench = Run(args)
    say(f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    calib_start = calibrate()
    bench.prepare()
    bench.serve()
    bench.check()
    calib_end = calibrate()
    attempted, failed, mismatched = bench.phase_table()
    say(f"  host.calib_ms: start = {calib_start:.3f}, "
        f"end = {calib_end:.3f}")
    if args.trace:
        values = bench.per_layer()
        values["host.calib_ms"] = max(calib_start, calib_end)
        declared = spec["per_layer"]
        say("  per-layer (mean per call; * = probe call, the stream "
            "never makes it):")
        for m in declared:
            mark = "*" if m["name"] in bench.probes else " "
            say(f"   {mark}{m['name']:<28}{values[m['name']]:>16.4f} "
                f"{m['unit']}")
        bench.known_rows(values)
    else:
        values = bench.end_to_end()
        declared = spec["end_to_end"]
        for m in declared:
            say(f"  {m['name']:<16}{values[m['name']]:>14.4f} "
                f"{m['unit']}")
    result = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result), flush=True)
    finite = all(math.isfinite(v) for v in values.values())
    return 0 if mismatched == 0 and finite else 1

