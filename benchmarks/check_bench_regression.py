"""CI benchmark-regression gate over the committed ``BENCH_*.json``.

``check_bench_regression.py REPORT [--baseline PATH] [--adopt]`` gates
a fresh report against its committed baseline (by default
``benchmarks/<REPORT's file name>``) through one table, :data:`GATES`,
with one row per report kind.  Every gated number is a ratio of two
measurements taken in one run, so the speed of the machine that
committed the baseline cancels.

Exit codes: 0 pass; 1 regression (a gated ratio fell more than its
tolerance below the baseline, a gated row went missing, or the
report's must-hold flag is false); 2 unusable input (an unreadable or
non-object report, an unknown or mismatched kind, a params mismatch,
a non-numeric ratio, or a refused ``--adopt``).

Identity rule: two reports are comparable only when every key in
either report's ``params`` matches; a key one side lacks reads as null.

Adopt flow: a baseline moves only through ``--adopt``, which refuses
a report whose must-hold flag is false, copies the report over the
baseline verbatim and appends one dated line to
``benchmarks/BASELINES.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path
from typing import NamedTuple, NoReturn


class Gate(NamedTuple):
    metric: str  # top-level key holding the gated ratio; names the kind
    tolerance: float  # fractional drop below the baseline that passes
    must_hold: str | None  # report flag that fails the gate when false
    echo: tuple[str, ...]  # top-level fields printed but not gated


GATES = {
    # speedup_vs_scalar per non-scalar backend, numpy vs numpy; a row
    # with `gate: false` in the baseline is exempt (the O(1) warm
    # sketch query, whose single-query timing is clock noise)
    "engine": Gate("backends", 0.25, None, ()),
    # warm served query vs cold in-process build+query; the CLI ratio
    # is echoed only, its numerator includes interpreter startup
    "service": Gate(
        "warm_speedup_vs_cold_inprocess", 0.25, None,
        ("warm_speedup_vs_cold",),
    ),
    # the knee is picked from a discrete clients ladder, so the ratio
    # moves in steps when the runner's core count shifts it; no knee
    # at all means the service stopped absorbing concurrency
    "service_saturation": Gate(
        "sustained_speedup_vs_serial", 0.35, "knee",
        ("sustained_qps", "profiler_overhead_pct"),
    ),
    # batched vs legacy build over the same pooled samples
    "sketch_build": Gate(
        "build_speedup_vs_legacy", 0.25, "identical",
        ("legacy_s", "batched_s", "cold_index_s"),
    ),
    # both sides run the C tree kernel compiled on the runner, so the
    # ratio is compiler-sensitive on top of the usual noise
    "sketch_query": Gate(
        "select_speedup_vs_rebuild", 0.5, "identical",
        ("rebase_speedup_vs_cold", "native"),
    ),
    # the rehydrate numerator is bound by the page cache and the
    # filesystem, which vary more across runners than numpy throughput
    "mmap_artifacts": Gate(
        "rehydrate_speedup_vs_cold", 0.5, "identical",
        ("m", "cold_build_s", "rehydrate_s", "warm_query_s"),
    ),
    # the cold-rebuild denominator includes theta x m coin draws
    "graph_updates": Gate(
        "delta_speedup_vs_rebuild", 0.5, "identical", ("m", "base_build_s")
    ),
}

_LEDGER = Path("benchmarks/BASELINES.md")


def _die(message: str) -> NoReturn:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def load_report(path: str | Path) -> tuple[dict, str]:
    """Return ``(report, kind)``; exits 2 on unusable input."""
    path = Path(path)
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        _die(f"error: cannot read report {path}: {error}")
    if isinstance(report, dict):
        for kind, gate in GATES.items():
            if gate.metric in report:
                return report, kind
    _die(
        f"error: {path} is not a JSON object holding one of "
        + ", ".join(gate.metric for gate in GATES.values())
    )


def _rows(report: dict, gate: Gate) -> dict[str, tuple[object, bool]]:
    """Row name -> ``(ratio, gated)``; engine rows sorted by name."""
    if gate.metric != "backends":
        return {gate.metric: (report[gate.metric], True)}
    return {
        name: (entry.get("speedup_vs_scalar", "?"), entry.get("gate", True))
        for name, entry in sorted(report["backends"].items())
        if name != "scalar"  # the normalization reference, 1.0 by design
    }


def _holds(report: dict, gate: Gate) -> bool:
    return gate.must_hold is None or bool(report.get(gate.must_hold))


def compare(
    current: dict, baseline: dict, kind: str
) -> tuple[list[str], list[str]]:
    """Return ``(failures, lines)``: the failed row names and the log."""
    gate = GATES[kind]
    cur_params = current.get("params") or {}
    base_params = baseline.get("params") or {}
    mismatched = sorted(
        key
        for key in cur_params.keys() | base_params.keys()
        if cur_params.get(key) != base_params.get(key)
    )
    if mismatched:
        _die(
            "error: reports are not comparable — parameter mismatch on "
            + ", ".join(
                f"{k} ({base_params.get(k)!r} -> {cur_params.get(k)!r})"
                for k in mismatched
            )
        )
    failures: list[str] = []
    lines: list[str] = []
    if not _holds(current, gate):
        failures.append(gate.must_hold)
        lines.append(f"FAIL {gate.must_hold}: {current.get(gate.must_hold)}")
    cur_rows = _rows(current, gate)
    base_rows = _rows(baseline, gate)
    for name, (base, gated) in base_rows.items():
        if not gated:
            lines.append(f"note {name}: gate-exempt in baseline")
            continue
        if name not in cur_rows:
            failures.append(name)
            lines.append(f"FAIL {name}: missing from the current report")
            continue
        try:
            base, cur = float(base), float(cur_rows[name][0])
        except (TypeError, ValueError):
            _die(f"error: {name} is not a number in both reports")
        floor = (1.0 - gate.tolerance) * base
        if cur < floor:
            failures.append(name)
        lines.append(
            f"{'ok' if cur >= floor else 'FAIL':<5}{name:<30} baseline "
            f"{base:7.2f}x  current {cur:7.2f}x  floor {floor:7.2f}x"
        )
    for name in sorted(cur_rows.keys() - base_rows.keys()):
        lines.append(f"note {name}: not in baseline (no gate)")
    if gate.echo:
        lines.append(
            "not gated: "
            + ", ".join(f"{f} {current.get(f, '?')}" for f in gate.echo)
        )
    return failures, lines


def adopt(current: dict, kind: str, source: str, baseline: Path) -> int:
    """Copy a fresh report over the baseline and record it in the
    ledger; refuses (exit 2, writing nothing) a report whose must-hold
    flag is false or whose kind differs from the baseline's."""
    gate = GATES[kind]
    if not _holds(current, gate):
        _die(
            f"error: refusing to adopt — {source} has "
            f"{gate.must_hold}: {current.get(gate.must_hold)!r}"
        )
    old_kind = load_report(baseline)[1] if baseline.is_file() else kind
    if kind != old_kind:
        _die(
            f"error: refusing to adopt — {source} is a {kind} report "
            f"but {baseline} holds {old_kind}"
        )
    summary = ", ".join(
        f"{name}={ratio}x" for name, (ratio, _) in _rows(current, gate).items()
    )
    payload = {k: v for k, v in current.items() if k != "_collapsed_full"}
    with open(baseline, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    if not _LEDGER.is_file():
        _LEDGER.write_text(
            "# Benchmark baseline ledger\n\n"
            "One line per adopted baseline, appended by\n"
            "`check_bench_regression.py --adopt` — the recorded step\n"
            "behind every committed `BENCH_*.json` change.\n\n",
            encoding="utf-8",
        )
    stamp = datetime.date.today().isoformat()
    with open(_LEDGER, "a", encoding="utf-8") as handle:
        handle.write(f"- {stamp} `{baseline.name}` ({kind}): {summary}\n")
    print(f"adopted {source} -> {baseline} ({summary})")
    print(f"recorded in {_LEDGER}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="freshly measured BENCH_*.json")
    parser.add_argument("--baseline", help="default: benchmarks/<REPORT>")
    parser.add_argument(
        "--adopt", action="store_true", help="make REPORT the baseline"
    )
    args = parser.parse_args(argv)
    baseline_path = Path(
        args.baseline or Path("benchmarks") / Path(args.report).name
    )
    current, kind = load_report(args.report)
    if args.adopt:
        return adopt(current, kind, args.report, baseline_path)
    baseline, base_kind = load_report(baseline_path)
    if kind != base_kind:
        _die(
            f"error: report kinds differ — current is {kind}, baseline "
            f"is {base_kind}"
        )
    failures, lines = compare(current, baseline, kind)
    print(
        f"benchmark-regression gate: {kind} report vs {baseline_path} "
        f"(tolerance {GATES[kind].tolerance:.0%})"
    )
    for line in lines:
        print(" ", line)
    if failures:
        print(f"regressed metrics: {', '.join(failures)}")
        return 1
    print("all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
