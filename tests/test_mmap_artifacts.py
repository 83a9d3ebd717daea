"""Persistence tests for the mmap-shared arena sketch artifacts.

The contract under test is the tentpole invariant: a sketch view
rehydrated from disk is *bit-identical* to the cold-built one — same
spread, same marginal gains, same blocker selections — including after
the copy-on-write promotion a rebase triggers, and the on-disk
artifact itself is never dirtied by mutation.  Identity failures here
are hard failures (never tolerance-based comparisons).  A persisted
sample pool that is structurally damaged is re-drawn, never attached.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import assign_weighted_cascade, EngineSpec
from repro.engine import build_evaluator, SketchIndex
from repro.graph.generators import barabasi_albert

from .conftest import LegacySketch

THETA = 48
SEEDS = [0, 7]


@pytest.fixture(scope="module")
def graph():
    return assign_weighted_cascade(barabasi_albert(400, 3, rng=2))


def spec_for(tmp_path, **overrides) -> EngineSpec:
    params = dict(
        engine="sketch", seed=11, cache_dir=tmp_path
    )
    params.update(overrides)
    return EngineSpec(**params)


def build(graph, tmp_path, **overrides) -> SketchIndex:
    return build_evaluator(graph, spec_for(tmp_path, **overrides))


def sketch_files(tmp_path):
    return sorted(p.name for p in tmp_path.glob("sketch-*"))


def greedy_blockers(index, budget: int) -> tuple[list[int], list[float]]:
    """Plain greedy over decrease_estimates — exercises rebase (and
    therefore COW promotion on rehydrated views) every round."""
    blocked: list[int] = []
    trace: list[float] = []
    for _ in range(budget):
        gains = index.decrease_estimates(SEEDS, THETA, blocked)
        gains = gains.copy()
        gains[SEEDS] = -1.0
        if blocked:
            gains[blocked] = -1.0
        pick = int(np.argmax(gains))
        blocked.append(pick)
        trace.append(index.expected_spread(SEEDS, THETA, blocked))
    return blocked, trace


class TestPersistRoundTrip:
    def test_cold_build_persists_artifact(self, graph, tmp_path):
        with build(graph, tmp_path) as index:
            index.expected_spread(SEEDS, THETA)
            assert index.stats.persists == 1
            assert index.stats.rehydrations == 0
        names = sketch_files(tmp_path)
        assert sum(n.endswith(".meta.json") for n in names) == 1
        assert sum(n.endswith(".npy") for n in names) == 11

    def test_rehydrate_skips_build_and_matches_bitwise(
        self, graph, tmp_path
    ):
        with build(graph, tmp_path) as cold:
            base_spread = cold.expected_spread(SEEDS, THETA)
            base_gains = cold.decrease_estimates(SEEDS, THETA)
        with build(graph, tmp_path) as warm:
            spread = warm.expected_spread(SEEDS, THETA)
            assert warm.stats.rehydrations == 1
            assert warm.stats.trees_built == 0
            assert spread == base_spread
            assert np.array_equal(
                warm.decrease_estimates(SEEDS, THETA), base_gains
            )

    def test_rehydrated_view_survives_rebase(self, graph, tmp_path):
        """COW promotion: greedy (rebase per round) on a rehydrated
        view is bit-identical to greedy on a memory-only cold index."""
        with build(graph, tmp_path) as cold:
            cold.expected_spread(SEEDS, THETA)  # persist
        reference = build_evaluator(
            graph, EngineSpec(engine="sketch", seed=11)
        )
        with reference, build(graph, tmp_path) as warm:
            ref_picks, ref_trace = greedy_blockers(reference, 4)
            warm_picks, warm_trace = greedy_blockers(warm, 4)
            assert warm.stats.rehydrations == 1
            assert warm_picks == ref_picks
            assert warm_trace == ref_trace
            # rebase back to the base state: exact base answer again
            assert warm.expected_spread(SEEDS, THETA) == (
                reference.expected_spread(SEEDS, THETA)
            )

    def test_mutation_never_dirties_the_artifact(self, graph, tmp_path):
        with build(graph, tmp_path) as cold:
            base_spread = cold.expected_spread(SEEDS, THETA)
        with build(graph, tmp_path) as warm:
            greedy_blockers(warm, 3)  # promote + mutate the view
        with build(graph, tmp_path) as again:
            # third process generation: artifact still the pristine base
            assert again.expected_spread(SEEDS, THETA) == base_spread
            assert again.stats.rehydrations == 1

    def test_third_load_counts_after_two_generations(
        self, graph, tmp_path
    ):
        with build(graph, tmp_path) as a:
            a.expected_spread(SEEDS, THETA)
            persists = a.stats.persists
        assert persists == 1
        with build(graph, tmp_path) as b:
            b.expected_spread(SEEDS, THETA)
            # rehydrate does not re-save
            assert b.stats.persists == 0


class TestArtifactKeying:
    def test_distinct_seed_sets_get_distinct_artifacts(
        self, graph, tmp_path
    ):
        with build(graph, tmp_path) as index:
            index.expected_spread(SEEDS, THETA)
            index.expected_spread([1], THETA)
        names = sketch_files(tmp_path)
        assert sum(n.endswith(".meta.json") for n in names) == 2

    def test_layouts_agree_bitwise(self, graph, tmp_path):
        """The memory-mapped arena answers exactly like the per-sample
        legacy sketch over the same pool."""
        with build(graph, tmp_path) as arena:
            arena.expected_spread(SEEDS, THETA)
        with build(graph, tmp_path) as warm:
            legacy = LegacySketch(warm.pool)
            assert np.array_equal(
                warm.decrease_estimates(SEEDS, THETA),
                legacy.decrease_estimates(SEEDS, THETA),
            )
            assert warm.stats.rehydrations == 1

    def test_memory_only_pool_never_persists(self, graph):
        spec = EngineSpec(engine="sketch", seed=11)
        with build_evaluator(graph, spec) as index:
            index.expected_spread(SEEDS, THETA)
            assert index.stats.persists == 0
            assert index.stats.rehydrations == 0


class TestCorruptionFallback:
    def _persist_one(self, graph, tmp_path):
        with build(graph, tmp_path) as index:
            spread = index.expected_spread(SEEDS, THETA)
        return spread

    def test_truncated_array_falls_back_to_cold_build(
        self, graph, tmp_path
    ):
        spread = self._persist_one(graph, tmp_path)
        victim = next(tmp_path.glob("sketch-*.order.npy"))
        victim.write_bytes(b"not numpy")
        with build(graph, tmp_path) as index:
            assert index.expected_spread(SEEDS, THETA) == spread
            assert index.stats.rehydrations == 0
            assert index.stats.trees_built == THETA
            # the fallback re-persists a good artifact
            assert index.stats.persists == 1
        with build(graph, tmp_path) as again:
            again.expected_spread(SEEDS, THETA)
            assert again.stats.rehydrations == 1

    def test_missing_meta_falls_back_to_cold_build(
        self, graph, tmp_path
    ):
        spread = self._persist_one(graph, tmp_path)
        next(tmp_path.glob("sketch-*.meta.json")).unlink()
        with build(graph, tmp_path) as index:
            assert index.expected_spread(SEEDS, THETA) == spread
            assert index.stats.rehydrations == 0

    def test_format_version_mismatch_falls_back(self, graph, tmp_path):
        spread = self._persist_one(graph, tmp_path)
        meta_path = next(tmp_path.glob("sketch-*.meta.json"))
        meta = json.loads(meta_path.read_text())
        meta["format"] = 999
        meta_path.write_text(json.dumps(meta))
        with build(graph, tmp_path) as index:
            assert index.expected_spread(SEEDS, THETA) == spread
            assert index.stats.rehydrations == 0

    def test_shape_mismatch_falls_back(self, graph, tmp_path):
        spread = self._persist_one(graph, tmp_path)
        victim = next(tmp_path.glob("sketch-*.delta.npy"))
        np.save(victim, np.zeros(3))
        with build(graph, tmp_path) as index:
            assert index.expected_spread(SEEDS, THETA) == spread
            assert index.stats.rehydrations == 0


# Runs in a fresh interpreter: damages the persisted stream-0 pool in
# ``cache_dir`` one way, then asks the sketch engine and (after damaging
# the re-persisted files again) the pooled engine, and finally a third
# evaluator that must attach the repaired files.  Prints the answers.
DAMAGED_POOL_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
from repro import assign_weighted_cascade, EngineSpec
from repro.engine import build_evaluator
from repro.graph.generators import barabasi_albert

kind, cache_dir = sys.argv[1], sys.argv[2]


def decreasing(offsets):
    offsets = offsets.copy()
    offsets[10], offsets[20] = offsets[20], offsets[10]
    return offsets


DAMAGE = {
    "truncated": lambda off, pos: (off, pos[: pos.shape[0] // 10]),
    "offsets-float": lambda off, pos: (off.astype(np.float64), pos),
    "offsets-2d": lambda off, pos: (off[None, :], pos),
    "offsets-shifted": lambda off, pos: (off + 1, pos),
    "offsets-decreasing": lambda off, pos: (decreasing(off), pos),
    "positions-int64": lambda off, pos: (off, pos.astype(np.int64)),
}


def damage():
    (off_path,) = Path(cache_dir).glob("pool-*.offsets.npy")
    pos_path = off_path.with_name(
        off_path.name.replace(".offsets.", ".positions.")
    )
    off, pos = DAMAGE[kind](np.load(off_path), np.load(pos_path))
    np.save(off_path, off)
    np.save(pos_path, pos)


graph = assign_weighted_cascade(barabasi_albert(500, 3, rng=1))


def ask(engine):
    evaluator = build_evaluator(graph, EngineSpec(
        engine=engine, seed=7, cache_dir=cache_dir,
    ))
    return evaluator, [
        evaluator.expected_spread([0, 1], 50, blocked)
        for blocked in ([], [2, 3])
    ]


damage()
sketch_engine, sketch = ask("sketch")
damage()
pooled_engine, pooled = ask("pooled")
repaired, again = ask("pooled")
answers = {
    "sketch": sketch,
    "pooled": pooled,
    "repaired": again,
    "disk_loads": [
        sketch_engine.pool.stats.disk_loads,
        pooled_engine.stats.disk_loads,
        repaired.stats.disk_loads,
    ],
}
print(json.dumps(answers))
"""


class TestDamagedPoolFiles:
    """A persisted sample pool that fails the structural check on
    attach is ignored, re-drawn and re-persisted; no engine crashes
    on it.  Each kind of damage runs in its own interpreter, so a
    crash fails the test instead of the test process."""

    @pytest.fixture(scope="class")
    def ba_graph(self):
        return assign_weighted_cascade(barabasi_albert(500, 3, rng=1))

    @pytest.fixture(scope="class")
    def undamaged(self, ba_graph):
        cold = build_evaluator(
            ba_graph, EngineSpec(engine="pooled", seed=7)
        )
        return [
            cold.expected_spread([0, 1], 50, blocked)
            for blocked in ([], [2, 3])
        ]

    @pytest.mark.parametrize("kind", [
        "truncated", "offsets-float", "offsets-2d", "offsets-shifted",
        "offsets-decreasing", "positions-int64",
    ])
    def test_both_engines_answer_as_cold(
        self, kind, ba_graph, undamaged, tmp_path
    ):
        persisted = build_evaluator(ba_graph, EngineSpec(
            engine="pooled", seed=7, cache_dir=tmp_path,
        ))
        assert persisted.expected_spread([0, 1], 50, []) == undamaged[0]
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        result = subprocess.run(
            [sys.executable, "-X", "faulthandler", "-c",
             DAMAGED_POOL_SCRIPT, kind, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        answers = json.loads(result.stdout)
        assert answers["sketch"] == undamaged
        assert answers["pooled"] == undamaged
        assert answers["repaired"] == undamaged
        # damaged files are never attached; the re-persisted pair is
        assert answers["disk_loads"] == [0, 0, 1]
