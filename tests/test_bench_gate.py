"""The benchmark-regression gate over every committed ``BENCH_*.json``.

``benchmarks/check_bench_regression.py`` reads each report kind
through one table; these tests pin that table's verdicts on the
committed baselines themselves: the tolerance per kind, the must-hold
flag, the params identity rule, the engine's per-backend rows, the
exit codes for unusable input, and the ``--adopt`` ledger format.
"""

from __future__ import annotations

import copy
import datetime
import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
BASELINES = sorted(BENCH.glob("BENCH_*.json"))

# file -> (tolerance, gated metric, must-hold flag); the engine gates
# `speedup_vs_scalar` per backend instead of one top-level metric
GATED = {
    "BENCH_engine.json": (0.25, None, None),
    "BENCH_service.json": (0.25, "warm_speedup_vs_cold_inprocess", None),
    "BENCH_service_saturation.json": (
        0.35, "sustained_speedup_vs_serial", "knee",
    ),
    "BENCH_sketch_build.json": (0.25, "build_speedup_vs_legacy", "identical"),
    "BENCH_sketch_query.json": (0.5, "select_speedup_vs_rebuild", "identical"),
    "BENCH_mmap_artifacts.json": (
        0.5, "rehydrate_speedup_vs_cold", "identical",
    ),
    "BENCH_graph_updates.json": (0.5, "delta_speedup_vs_rebuild", "identical"),
}


def _load_checker():
    path = BENCH / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("bench_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def _exit_code(*argv) -> int:
    try:
        return checker.main([str(arg) for arg in argv])
    except SystemExit as exit_:
        return exit_.code


def _gate(current: dict, baseline: Path, tmp_path: Path) -> int:
    """Exit code of gating ``current`` against ``baseline``."""
    path = tmp_path / baseline.name
    path.write_text(json.dumps(current), encoding="utf-8")
    return _exit_code(path, "--baseline", baseline)


def _report(baseline: Path) -> dict:
    return json.loads(baseline.read_text(encoding="utf-8"))


def _gated_rows(report: dict, metric: str | None) -> list[tuple]:
    """Key paths of the gated ratios inside ``report``."""
    if metric is not None:
        return [(metric,)]
    return [
        ("backends", name, "speedup_vs_scalar")
        for name, entry in report["backends"].items()
        if name != "scalar" and entry.get("gate", True)
    ]


def _scaled(report: dict, path: tuple, factor: float) -> dict:
    report = copy.deepcopy(report)
    *parents, leaf = path
    node = report
    for key in parents:
        node = node[key]
    node[leaf] *= factor
    return report


def _changed(value):
    if value is None:
        return 1
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return value + value[-1:]


def test_every_committed_baseline_has_a_pinned_tolerance():
    assert sorted(p.name for p in BASELINES) == sorted(GATED)


@pytest.mark.parametrize("baseline", BASELINES, ids=lambda p: p.name)
class TestCommittedBaselines:
    def test_passes_against_itself(self, baseline, tmp_path):
        assert _gate(_report(baseline), baseline, tmp_path) == 0

    def test_each_gated_row_fails_just_below_its_floor(
        self, baseline, tmp_path
    ):
        tol, metric, _ = GATED[baseline.name]
        report = _report(baseline)
        rows = _gated_rows(report, metric)
        assert rows
        for row in rows:
            below = _scaled(report, row, (1 - tol) * (1 - 1e-6))
            above = _scaled(report, row, (1 - tol) * (1 + 1e-6))
            assert _gate(below, baseline, tmp_path) == 1, row
            assert _gate(above, baseline, tmp_path) == 0, row

    def test_any_params_change_is_unusable(self, baseline, tmp_path):
        report = _report(baseline)
        for key, value in report["params"].items():
            current = copy.deepcopy(report)
            current["params"][key] = _changed(value)
            assert _gate(current, baseline, tmp_path) == 2, key
        current = copy.deepcopy(report)
        current["params"]["new_knob"] = 1
        assert _gate(current, baseline, tmp_path) == 2

    def test_a_missing_params_key_reads_as_null(self, baseline, tmp_path):
        report = _report(baseline)
        for key, value in report["params"].items():
            current = copy.deepcopy(report)
            del current["params"][key]
            expected = 0 if value is None else 2
            assert _gate(current, baseline, tmp_path) == expected, key


@pytest.mark.parametrize(
    "baseline",
    [p for p in BASELINES if GATED[p.name][2]],
    ids=lambda p: p.name,
)
def test_must_hold_flag_fails_at_an_unchanged_ratio(baseline, tmp_path):
    flag = GATED[baseline.name][2]
    report = _report(baseline)
    assert report[flag]
    absent = dict(report)
    del absent[flag]
    broken = [absent, dict(report, **{flag: None})]
    if flag == "identical":
        broken.append(dict(report, identical=False))
    for current in broken:
        assert _gate(current, baseline, tmp_path) == 1


class TestEngineRows:
    baseline = BENCH / "BENCH_engine.json"

    def test_a_missing_gated_row_fails(self, tmp_path):
        report = _report(self.baseline)
        for _, name, _ in _gated_rows(report, None):
            current = copy.deepcopy(report)
            del current["backends"][name]
            assert _gate(current, self.baseline, tmp_path) == 1, name

    def test_a_gate_exempt_row_may_fall_to_anything(self, tmp_path):
        report = _report(self.baseline)
        exempt = [
            name
            for name, entry in report["backends"].items()
            if not entry.get("gate", True)
        ]
        assert exempt
        for name in exempt:
            current = copy.deepcopy(report)
            current["backends"][name]["speedup_vs_scalar"] = 0.0
            assert _gate(current, self.baseline, tmp_path) == 0
            del current["backends"][name]
            assert _gate(current, self.baseline, tmp_path) == 0

    def test_an_extra_row_is_not_gated(self, tmp_path):
        current = _report(self.baseline)
        current["backends"]["new"] = {"speedup_vs_scalar": 0.0}
        assert _gate(current, self.baseline, tmp_path) == 0


class TestUnusableInput:
    baseline = BENCH / "BENCH_sketch_build.json"

    @pytest.mark.parametrize(
        "text", ['{"backends": {', "null", "[1, 2]", '"text"', "{}"]
    )
    def test_truncated_or_non_object_report_exits_2(
        self, text, tmp_path, capsys
    ):
        broken = tmp_path / "BENCH_sketch_build.json"
        broken.write_text(text, encoding="utf-8")
        assert _exit_code(broken, "--baseline", self.baseline) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert _exit_code(self.baseline, "--baseline", broken) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_a_baseline_without_a_fresh_report_exits_2(self, tmp_path):
        missing = tmp_path / "BENCH_sketch_build.json"
        assert _exit_code(missing, "--baseline", self.baseline) == 2

    def test_baseline_defaults_to_the_reports_name_under_benchmarks(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        report = _report(self.baseline)
        (tmp_path / "benchmarks" / self.baseline.name).write_text(
            json.dumps(report), encoding="utf-8"
        )
        fresh = tmp_path / self.baseline.name
        fresh.write_text(
            json.dumps(_scaled(report, ("build_speedup_vs_legacy",), 0.5)),
            encoding="utf-8",
        )
        assert _exit_code(self.baseline.name) == 1


# ----------------------------------------------------------------------
# --adopt: the only way a baseline moves
# ----------------------------------------------------------------------
@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """A checkout-shaped cwd holding copies of the committed baselines
    and ledger (the ledger path is relative to the working dir)."""
    monkeypatch.chdir(tmp_path)
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in BASELINES + [BENCH / "BASELINES.md"]:
        (bench / path.name).write_bytes(path.read_bytes())
    return tmp_path


def _adopt(current: dict, name: str, workdir: Path) -> int:
    fresh = workdir / name
    fresh.write_text(json.dumps(current), encoding="utf-8")
    baseline = workdir / "benchmarks" / name
    return _exit_code(fresh, "--baseline", baseline, "--adopt")


def _last_ledger_line(path: Path, name: str) -> str | None:
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines(True)
        if f"`{name}`" in line
    ]
    return lines[-1] if lines else None


LEDGERED = [
    path
    for path in BASELINES
    if _last_ledger_line(BENCH / "BASELINES.md", path.name)
]


@pytest.mark.parametrize("baseline", LEDGERED, ids=lambda p: p.name)
def test_adopting_a_baseline_reproduces_its_ledger_line(baseline, workdir):
    """Re-adopting a committed baseline writes it back byte for byte and
    appends the same ledger line it was recorded with, up to the date:
    ``name=<raw JSON value>x``, engine rows sorted, exempt rows kept."""
    recorded = _last_ledger_line(BENCH / "BASELINES.md", baseline.name)
    assert _adopt(_report(baseline), baseline.name, workdir) == 0
    ledger = workdir / "benchmarks" / "BASELINES.md"
    today = datetime.date.today().isoformat()
    assert _last_ledger_line(ledger, baseline.name) == (
        f"- {today}" + recorded[len("- YYYY-MM-DD"):]
    )
    assert (workdir / "benchmarks" / baseline.name).read_bytes() == (
        baseline.read_bytes()
    )


def test_engine_ledger_line_format(workdir):
    report = _report(BENCH / "BENCH_engine.json")
    report["backends"] = {
        "vectorized": {"speedup_vs_scalar": 8, "gate": True},
        "scalar": {"speedup_vs_scalar": 1.0, "gate": True},
        "a (warm)": {"speedup_vs_scalar": 1e-05, "gate": False},
        "b (cold)": {"speedup_vs_scalar": 0.10, "gate": True},
    }
    assert _adopt(report, "BENCH_engine.json", workdir) == 0
    line = _last_ledger_line(
        workdir / "benchmarks" / "BASELINES.md", "BENCH_engine.json"
    )
    assert line.split(" ", 2)[2] == (
        "`BENCH_engine.json` (engine): "
        "a (warm)=1e-05x, b (cold)=0.1x, vectorized=8x\n"
    )


@pytest.mark.parametrize(
    "name, broken",
    [
        ("BENCH_sketch_build.json", {"identical": False}),
        (
            "BENCH_service_saturation.json",
            {"knee": None, "sustained_speedup_vs_serial": 0.0},
        ),
    ],
)
def test_adopt_refuses_a_report_failing_its_hard_check(
    name, broken, workdir
):
    def snapshot():
        return {
            path.name: path.read_bytes()
            for path in (workdir / "benchmarks").iterdir()
        }

    before = snapshot()
    assert _adopt(dict(_report(BENCH / name), **broken), name, workdir) == 2
    assert snapshot() == before
