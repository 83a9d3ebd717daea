"""Tests pinning the experiment registry to the benchmark files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import experiment_command, EXPERIMENTS

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


class TestRegistry:
    def test_every_experiment_has_a_bench_file(self):
        for experiment in EXPERIMENTS.values():
            assert (BENCH_DIR / experiment.bench_file).is_file(), (
                experiment.key
            )

    def test_every_bench_file_is_registered(self):
        registered = {e.bench_file for e in EXPERIMENTS.values()}
        on_disk = {
            p.name
            for p in BENCH_DIR.glob("bench_*.py")
        }
        assert on_disk == registered

    def test_paper_items_cover_all_eval_tables_and_figures(self):
        items = {e.paper_item for e in EXPERIMENTS.values()}
        for required in (
            "Table IV", "Table V", "Table VI", "Table VII",
            "Figure 5", "Figure 6", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Figure 11",
        ):
            assert required in items

    def test_command_construction(self):
        command = experiment_command("fig7")
        assert command[0] == "pytest"
        assert command[1].endswith("bench_fig7_runtime_tr.py")
        assert "--benchmark-only" in command

    def test_unknown_key_raises_with_listing(self):
        with pytest.raises(KeyError, match="available"):
            experiment_command("fig99")

    def test_every_registered_command_collects(self):
        """What ``repro-imin experiment <key>`` runs gets past pytest
        collection for every key: one run over all the files."""
        commands = [experiment_command(key) for key in EXPERIMENTS]
        flags = commands[0][2:]
        assert all(command[2:] == flags for command in commands)
        src = str(BENCH_DIR.parent / "src")
        path = os.environ.get("PYTHONPATH")
        result = subprocess.run(
            [
                sys.executable, "-m", commands[0][0],
                *(command[1] for command in commands), *flags,
                "--collect-only", "-q", "-p", "no:cacheprovider",
            ],
            cwd=BENCH_DIR.parent,
            env={
                **os.environ,
                "PYTHONPATH": src + (os.pathsep + path if path else ""),
            },
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout[-3000:]


class TestCliIntegration:
    def test_listing(self, capsys):
        from repro.cli import main

        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "Table VII" in out

    def test_unknown_key_exit_code(self, capsys):
        from repro.cli import main

        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().out
