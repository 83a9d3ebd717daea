"""CI benchmark-regression gate over the committed ``BENCH_*.json``.

Compares a freshly measured report against the committed baseline and
fails when any gated metric regressed by more than the tolerance.
Three report kinds, auto-detected:

``BENCH_engine.json`` (``bench_engine_throughput.py --json``)
    Gates ``speedup_vs_scalar`` per backend — each backend's
    throughput normalized by the scalar reference *measured in the
    same run*.
``BENCH_service.json`` (``bench_service_latency.py --json``)
    Gates ``warm_speedup_vs_cold_inprocess`` — warm served-query
    latency normalized by the cold in-process build+query cost
    measured in the same run, i.e. the serving layer's whole reason
    to exist (the CLI-relative speedup is reported, not gated: its
    numerator includes interpreter startup).
``BENCH_sketch_build.json`` (``bench_sketch_build.py --json``)
    Gates ``build_speedup_vs_legacy`` — the batched array-native
    sketch construction normalized by the legacy per-sample Python
    build timed in the same run on the same pooled samples.  Also
    fails hard (regardless of tolerance) if the report says the two
    builds disagreed, since that is a correctness bug, not a
    regression.
``BENCH_sketch_query.json`` (``bench_sketch_query.py --json``)
    Gates ``select_speedup_vs_rebuild`` — the greedy selection loop
    on one incrementally rebased sketch index normalized by the same
    loop answering every blocker set from a fresh cold-built index,
    run in the same process over the same pooled samples.  Fails hard
    if the two selected different blockers (a rebased view must be
    bit-identical to a cold build); the rebase-vs-cold-build
    microbench ratio is reported but not gated (a noisier slice of the
    same work the selection ratio already covers).
``BENCH_service_saturation.json`` (``bench_service_saturation.py
--json``)
    Gates ``sustained_speedup_vs_serial`` — the knee of the clients
    ladder (max sustained qps whose p99 stays under the bar)
    normalized by the single-client qps measured in the same run
    under the same profiler, so machine speed cancels.  Fails hard if
    the current report found no knee at all (every rung blew its p99
    bar): the service stopped absorbing concurrency, which is a
    regression at any ratio.  The profiler-overhead percentage is
    asserted by the benchmark itself, not gated here (an
    absolute-noise number, not a cross-machine ratio).
``BENCH_mmap_artifacts.json`` (``bench_mmap_artifacts.py --json``)
    Gates ``rehydrate_speedup_vs_cold`` — time-to-first-answer of a
    fresh index memory-mapping the persisted sketch artifact,
    normalized by the cold sample+build+persist path measured in the
    same run on the same cache directory.  Fails hard if the report
    says the rehydrated index diverged from the cold one (same base
    gains, same greedy blockers through rebase rounds): persistence
    is bit-identity or it is a bug.  The warm steady-state query
    latency is reported but not gated (the sketch-query report
    already covers that path).
``BENCH_graph_updates.json`` (``bench_graph_updates.py --json``)
    Gates ``delta_speedup_vs_rebuild`` — time to the next answer after
    a batched graph mutation through ``SketchIndex.apply_delta``
    (patch the pooled samples, rebuild only touched trees) normalized
    by the cold rebuild over the same mutated graph measured in the
    same run, at the ladder's 0.1%-of-edges rung.  Fails hard if the
    report says any rung's delta-applied index diverged from its cold
    rebuild: the incremental path is bit-identity or it is a bug.
    The other rungs are reported but not gated (the same mechanism at
    easier or harder delta sizes).

In every case the gated number is a *ratio of two same-run
measurements*: raw ms differ wildly between the machine that committed
the baseline and the CI runner, while the ratio cancels machine speed
and isolates genuine regressions (a kernel slowdown, a cache that
stopped hitting, an accidental O(n) in the hot path).

Exit codes: 0 pass, 1 regression, 2 unusable input (missing file,
kind or parameter mismatch between the runs).

``--adopt`` flips the tool from gate to recorder: the current report
is validated, copied over ``--baseline`` verbatim, and one provenance
line is appended to ``benchmarks/BASELINES.md`` — the recorded step
behind every committed baseline change (hand-editing the JSON loses
the trail).

Usage::

    python benchmarks/bench_engine_throughput.py --n 2000 --rounds 200 \\
        --json BENCH_engine.json
    python benchmarks/check_bench_regression.py BENCH_engine.json \\
        --baseline benchmarks/BENCH_engine.json --tolerance 0.25

    python benchmarks/bench_service_latency.py --json BENCH_service.json
    python benchmarks/check_bench_regression.py BENCH_service.json \\
        --baseline benchmarks/BENCH_service.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# parameters that must match for two engine reports to be comparable —
# including the extrapolation caps and repeat count, which change the
# measured statistic (per-round noise floor) even at identical sizes
_IDENTITY_PARAMS = (
    "n",
    "attach",
    "rounds",
    "seeds",
    "rng",
    "scalar_rounds",
    "sketch_rounds",
    "repeats",
)

# every parameter of a service report shapes its latency distribution
_SERVICE_IDENTITY_PARAMS = (
    "dataset",
    "scale",
    "model",
    "theta",
    "seed",
    "num_seeds",
    "cold_repeats",
    "clients",
    "queries_per_client",
)

# a sketch-build report is one ratio over one workload; every knob
# shapes both sides of it
_SKETCH_BUILD_IDENTITY_PARAMS = (
    "n",
    "attach",
    "theta",
    "seeds",
    "rng",
    "repeats",
)

# likewise for the sketch-query report (the greedy selection loop)
_SKETCH_QUERY_IDENTITY_PARAMS = (
    "n",
    "attach",
    "theta",
    "seeds",
    "budget",
    "rng",
    "repeats",
)

# and for the saturation report: every knob shapes where the knee sits
_SATURATION_IDENTITY_PARAMS = (
    "dataset",
    "scale",
    "model",
    "theta",
    "seed",
    "num_seeds",
    "queries_per_client",
    "client_ladder",
    "worker_ladder",
    "p99_bar_multiple",
    "profile_hz",
)

# and for the mmap-artifact report (cold build vs rehydrate)
_MMAP_IDENTITY_PARAMS = (
    "n",
    "attach",
    "theta",
    "seeds",
    "budget",
    "rng",
    "repeats",
)

# and for the graph-update report (delta ladder vs cold rebuild)
_GRAPH_UPDATES_IDENTITY_PARAMS = (
    "n",
    "attach",
    "theta",
    "seeds",
    "rng",
    "fractions",
)


def _die(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def report_kind(report: dict) -> str | None:
    if "backends" in report:
        return "engine"
    if "warm_speedup_vs_cold" in report:
        return "service"
    if "sustained_speedup_vs_serial" in report:
        return "service_saturation"
    if "build_speedup_vs_legacy" in report:
        return "sketch_build"
    if "select_speedup_vs_rebuild" in report:
        return "sketch_query"
    if "rehydrate_speedup_vs_cold" in report:
        return "mmap_artifacts"
    if "delta_speedup_vs_rebuild" in report:
        return "graph_updates"
    return None


def load_report(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        _die(f"error: no such report: {path}")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if report_kind(report) is None:
        _die(
            f"error: {path} is not a BENCH_engine.json, "
            "BENCH_service.json, BENCH_service_saturation.json, "
            "BENCH_sketch_build.json, BENCH_sketch_query.json, "
            "BENCH_mmap_artifacts.json or BENCH_graph_updates.json "
            "report"
        )
    return report


def _check_params(
    current: dict, baseline: dict, identity: tuple[str, ...]
) -> None:
    cur_params = current.get("params", {})
    base_params = baseline.get("params", {})
    mismatched = [
        key
        for key in identity
        if cur_params.get(key) != base_params.get(key)
    ]
    if mismatched:
        _die(
            "error: reports are not comparable — parameter mismatch on "
            + ", ".join(
                f"{k} ({base_params.get(k)!r} -> {cur_params.get(k)!r})"
                for k in mismatched
            )
        )


def compare(
    current: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Returns ``(failures, lines)`` — regressions and the full log."""
    failures: list[str] = []
    lines: list[str] = []

    _check_params(current, baseline, _IDENTITY_PARAMS)

    base_backends = baseline["backends"]
    cur_backends = current["backends"]
    for name, base in sorted(base_backends.items()):
        if name == "scalar":
            continue  # the normalization reference, 1.0 by construction
        if not base.get("gate", True):
            lines.append(f"note {name}: gate-exempt in baseline")
            continue
        entry = cur_backends.get(name)
        if entry is None:
            failures.append(name)
            lines.append(f"FAIL {name}: missing from the current report")
            continue
        base_speed = float(base["speedup_vs_scalar"])
        cur_speed = float(entry["speedup_vs_scalar"])
        floor = (1.0 - tolerance) * base_speed
        verdict = "ok" if cur_speed >= floor else "FAIL"
        lines.append(
            f"{verdict:<5}{name:<18} baseline {base_speed:7.2f}x  "
            f"current {cur_speed:7.2f}x  floor {floor:7.2f}x"
        )
        if cur_speed < floor:
            failures.append(name)
    for name in sorted(set(cur_backends) - set(base_backends)):
        lines.append(f"note {name}: not in baseline (no gate)")
    return failures, lines


def compare_service(
    current: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Service-report gate vs the baseline.

    Gates ``warm_speedup_vs_cold_inprocess``: both sides of that ratio
    are numpy compute in one process, so machine speed cancels.  The
    CLI-relative speedup is reported but not gated — its numerator is
    part interpreter startup, which scales differently across runners.
    """
    _check_params(current, baseline, _SERVICE_IDENTITY_PARAMS)
    metric = "warm_speedup_vs_cold_inprocess"
    base_speed = float(baseline[metric])
    cur_speed = float(current[metric])
    floor = (1.0 - tolerance) * base_speed
    verdict = "ok" if cur_speed >= floor else "FAIL"
    lines = [
        f"{verdict:<5}{metric:<30} baseline "
        f"{base_speed:7.2f}x  current {cur_speed:7.2f}x  "
        f"floor {floor:7.2f}x",
        "      vs cold CLI "
        f"{current.get('warm_speedup_vs_cold', '?')}x, warm qps "
        f"{current.get('warm', {}).get('qps', '?')} "
        f"(baseline {baseline.get('warm', {}).get('qps', '?')}; "
        "informational, not gated)",
    ]
    failures = [] if cur_speed >= floor else [metric]
    return failures, lines


def compare_service_saturation(
    current: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Saturation-report gate vs the baseline.

    Gates ``sustained_speedup_vs_serial``: knee qps over same-run
    serial qps, both measured in one process under the same profiler,
    so machine speed cancels.  A current report with no knee fails
    unconditionally.  The profiler-overhead figure is printed for the
    log but asserted by the benchmark itself, not gated here.
    """
    _check_params(current, baseline, _SATURATION_IDENTITY_PARAMS)
    failures: list[str] = []
    lines: list[str] = []
    if current.get("knee") is None:
        failures.append("knee")
        lines.append(
            "FAIL knee: no rung of the clients ladder stayed under "
            "its p99 bar"
        )
    metric = "sustained_speedup_vs_serial"
    base_speed = float(baseline[metric])
    cur_speed = float(current[metric])
    floor = (1.0 - tolerance) * base_speed
    verdict = "ok" if cur_speed >= floor else "FAIL"
    lines.append(
        f"{verdict:<5}{metric:<30} baseline {base_speed:7.2f}x  "
        f"current {cur_speed:7.2f}x  floor {floor:7.2f}x"
    )
    knee = current.get("knee") or {}
    lines.append(
        f"      knee {knee.get('clients', '?')} clients at "
        f"{current.get('sustained_qps', '?')} q/s, profiler overhead "
        f"{current.get('profiler_overhead_pct', '?')}% "
        f"({current.get('profile', {}).get('samples', '?')} samples; "
        "informational, not gated)"
    )
    if cur_speed < floor:
        failures.append(metric)
    return failures, lines


def compare_sketch_build(
    current: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Sketch-build-report gate vs the baseline.

    Gates ``build_speedup_vs_legacy``: both sides of the ratio are
    same-process Python/numpy compute over identical pooled samples,
    so machine speed cancels.  A report with ``identical: false``
    fails unconditionally — the batched build diverging from the
    legacy build breaks the refactor's bit-compatibility contract.
    """
    _check_params(current, baseline, _SKETCH_BUILD_IDENTITY_PARAMS)
    failures: list[str] = []
    lines: list[str] = []
    if not current.get("identical", False):
        failures.append("identical")
        lines.append(
            "FAIL identical: batched trees diverge from the legacy build"
        )
    metric = "build_speedup_vs_legacy"
    base_speed = float(baseline[metric])
    cur_speed = float(current[metric])
    floor = (1.0 - tolerance) * base_speed
    verdict = "ok" if cur_speed >= floor else "FAIL"
    lines.append(
        f"{verdict:<5}{metric:<30} baseline {base_speed:7.2f}x  "
        f"current {cur_speed:7.2f}x  floor {floor:7.2f}x"
    )
    if cur_speed < floor:
        failures.append(metric)
    return failures, lines


def compare_sketch_query(
    current: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Sketch-query-report gate vs the baseline.

    Gates ``select_speedup_vs_rebuild``: both sides of the ratio are
    same-process compute over identical pooled samples, so machine
    speed cancels (though the compiled tree kernel makes this ratio
    somewhat more compiler-sensitive than the numpy-vs-numpy gates —
    CI passes a wider tolerance).  A report with ``identical: false``
    fails unconditionally — a rebased view selecting different
    blockers than cold builds breaks the incremental path's
    bit-identity contract.
    """
    _check_params(current, baseline, _SKETCH_QUERY_IDENTITY_PARAMS)
    failures: list[str] = []
    lines: list[str] = []
    if not current.get("identical", False):
        failures.append("identical")
        lines.append(
            "FAIL identical: rebased selection diverges from the "
            "rebuild-per-step path"
        )
    metric = "select_speedup_vs_rebuild"
    base_speed = float(baseline[metric])
    cur_speed = float(current[metric])
    floor = (1.0 - tolerance) * base_speed
    verdict = "ok" if cur_speed >= floor else "FAIL"
    lines.append(
        f"{verdict:<5}{metric:<30} baseline {base_speed:7.2f}x  "
        f"current {cur_speed:7.2f}x  floor {floor:7.2f}x"
    )
    lines.append(
        "      rebase vs cold build "
        f"{current.get('rebase_speedup_vs_cold', '?')}x, native "
        f"{current.get('native', '?')} (informational, not gated)"
    )
    if cur_speed < floor:
        failures.append(metric)
    return failures, lines


def compare_mmap_artifacts(
    current: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Mmap-artifact-report gate vs the baseline.

    Gates ``rehydrate_speedup_vs_cold``: both sides of the ratio are
    measured in one process against one cache directory, so machine
    and disk speed cancel.  A report with ``identical: false`` fails
    unconditionally — a rehydrated index that diverges from the cold
    build breaks the persistence layer's bit-identity contract.
    """
    _check_params(current, baseline, _MMAP_IDENTITY_PARAMS)
    failures: list[str] = []
    lines: list[str] = []
    if not current.get("identical", False):
        failures.append("identical")
        lines.append(
            "FAIL identical: rehydrated index diverges from the cold "
            "build"
        )
    metric = "rehydrate_speedup_vs_cold"
    base_speed = float(baseline[metric])
    cur_speed = float(current[metric])
    floor = (1.0 - tolerance) * base_speed
    verdict = "ok" if cur_speed >= floor else "FAIL"
    lines.append(
        f"{verdict:<5}{metric:<30} baseline {base_speed:7.2f}x  "
        f"current {cur_speed:7.2f}x  floor {floor:7.2f}x"
    )
    lines.append(
        "      cold "
        f"{current.get('cold_build_s', '?')}s, rehydrate "
        f"{current.get('rehydrate_s', '?')}s, warm query "
        f"{current.get('warm_query_s', '?')}s at m="
        f"{current.get('m', '?')} (informational, not gated)"
    )
    if cur_speed < floor:
        failures.append(metric)
    return failures, lines


def compare_graph_updates(
    current: dict, baseline: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Graph-update-report gate vs the baseline.

    Gates ``delta_speedup_vs_rebuild``: both sides of the ratio — the
    incremental ``apply_delta`` path and the cold rebuild over the
    same mutated graph — are measured in one process in one run, so
    machine speed cancels.  A report with ``identical: false`` fails
    unconditionally — a delta-applied index that diverges from the
    cold rebuild breaks the incremental path's bit-identity contract.
    """
    _check_params(current, baseline, _GRAPH_UPDATES_IDENTITY_PARAMS)
    failures: list[str] = []
    lines: list[str] = []
    if not current.get("identical", False):
        failures.append("identical")
        lines.append(
            "FAIL identical: delta-applied index diverges from the "
            "cold rebuild"
        )
    metric = "delta_speedup_vs_rebuild"
    base_speed = float(baseline[metric])
    cur_speed = float(current[metric])
    floor = (1.0 - tolerance) * base_speed
    verdict = "ok" if cur_speed >= floor else "FAIL"
    lines.append(
        f"{verdict:<5}{metric:<30} baseline {base_speed:7.2f}x  "
        f"current {cur_speed:7.2f}x  floor {floor:7.2f}x"
    )
    for rung in current.get("rungs", []):
        lines.append(
            f"      rung {100 * rung.get('fraction', 0):g}% "
            f"({rung.get('edits', '?')} edits): "
            f"{rung.get('speedup', '?')}x, touched "
            f"{rung.get('touched_samples', '?')} samples, rebuilt "
            f"{rung.get('trees_rebuilt', '?')} trees "
            "(informational, not gated)"
        )
    if cur_speed < floor:
        failures.append(metric)
    return failures, lines


# the headline number a ledger entry records per report kind
_GATED_METRIC = {
    "engine": "backends",
    "service": "warm_speedup_vs_cold_inprocess",
    "service_saturation": "sustained_speedup_vs_serial",
    "sketch_build": "build_speedup_vs_legacy",
    "sketch_query": "select_speedup_vs_rebuild",
    "mmap_artifacts": "rehydrate_speedup_vs_cold",
    "graph_updates": "delta_speedup_vs_rebuild",
}

_LEDGER = Path("benchmarks/BASELINES.md")


def adopt(current_path: str, baseline_path: str) -> int:
    """Regenerate a committed baseline through a recorded step.

    Validates the fresh report, copies it over the baseline, and
    appends one line to the ledger (``benchmarks/BASELINES.md``) so a
    baseline change always carries its provenance in the same diff —
    never hand-edit the committed JSON.
    """
    import datetime

    current = load_report(current_path)
    kind = report_kind(current)
    baseline_file = Path(baseline_path)
    if baseline_file.is_file():
        old_kind = report_kind(load_report(baseline_file))
        if kind != old_kind:
            _die(
                f"error: refusing to adopt — {current_path} is a "
                f"{kind} report but {baseline_path} holds {old_kind}"
            )
    metric = _GATED_METRIC.get(kind, "")
    if metric == "backends":
        summary = ", ".join(
            f"{name}={entry.get('speedup_vs_scalar', '?')}x"
            for name, entry in sorted(current["backends"].items())
            if name != "scalar"
        )
    else:
        summary = f"{metric}={current.get(metric, '?')}x"
    payload = dict(current)
    payload.pop("_collapsed_full", None)
    with open(baseline_file, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    stamp = datetime.date.today().isoformat()
    if not _LEDGER.is_file():
        _LEDGER.write_text(
            "# Benchmark baseline ledger\n\n"
            "One line per adopted baseline, appended by\n"
            "`check_bench_regression.py --adopt` — the recorded step\n"
            "behind every committed `BENCH_*.json` change.\n\n",
            encoding="utf-8",
        )
    with open(_LEDGER, "a", encoding="utf-8") as handle:
        handle.write(
            f"- {stamp} `{baseline_file.name}` ({kind}): {summary}\n"
        )
    print(f"adopted {current_path} -> {baseline_file} ({summary})")
    print(f"recorded in {_LEDGER}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly measured BENCH_engine.json")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_engine.json",
        help="committed baseline report (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help=(
            "allowed fractional drop in normalized throughput before "
            "the gate fails (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--adopt",
        action="store_true",
        help=(
            "instead of gating, adopt the current report as the new "
            "committed baseline and append a ledger entry"
        ),
    )
    args = parser.parse_args(argv)
    if args.adopt:
        return adopt(args.current, args.baseline)
    current = load_report(args.current)
    baseline = load_report(args.baseline)
    kind = report_kind(current)
    if kind != report_kind(baseline):
        _die(
            f"error: report kinds differ — current is {kind}, baseline "
            f"is {report_kind(baseline)}"
        )
    if kind == "service":
        failures, lines = compare_service(
            current, baseline, args.tolerance
        )
        metric = "warm speedup vs cold"
    elif kind == "service_saturation":
        failures, lines = compare_service_saturation(
            current, baseline, args.tolerance
        )
        metric = "sustained speedup vs serial"
    elif kind == "sketch_build":
        failures, lines = compare_sketch_build(
            current, baseline, args.tolerance
        )
        metric = "build speedup vs legacy"
    elif kind == "sketch_query":
        failures, lines = compare_sketch_query(
            current, baseline, args.tolerance
        )
        metric = "selection speedup vs rebuild per step"
    elif kind == "mmap_artifacts":
        failures, lines = compare_mmap_artifacts(
            current, baseline, args.tolerance
        )
        metric = "rehydrate speedup vs cold build"
    elif kind == "graph_updates":
        failures, lines = compare_graph_updates(
            current, baseline, args.tolerance
        )
        metric = "delta speedup vs cold rebuild"
    else:
        failures, lines = compare(current, baseline, args.tolerance)
        metric = "speedup vs scalar"
    print(
        f"benchmark-regression gate (tolerance "
        f"{args.tolerance:.0%} on {metric})"
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
