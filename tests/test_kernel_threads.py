"""The compiled kernels split across threads, bit for bit.

``repro.native`` runs each kernel over contiguous ranges, one thread
each: of ``sample_idx`` for a tree build, of the new samples for both
coin passes, of the blocked sets for reach counts.  The range count is
:func:`repro.native.core_count`.  These tests patch it to 1 (one
inline call, the serial reference) and to 3, which gives uneven
ranges, more threads than the cores of a one- or two-core host,
batches smaller than the range count and empty batches, and require
identical outputs, the golden pins included.  Tree builds split only
into ranges of ``_TREE_GRAIN`` samples or more; the tests that need
small tree ranges lower it to 1.  They also cover the core count
itself, errors raised in a worker's range, the counters, the worker
set across ``fork`` and a stress run of concurrent callers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.bench import prepare_graph
from repro.datasets import figure1_graph
from repro.engine import SamplePool, SketchIndex
from repro.engine.pool import reach_counts
from repro.graph import barabasi_albert
from repro.models import assign_weighted_cascade
from repro.native import native_build_available
from repro.obs import global_registry
from repro.service import Artifact, ArtifactKey

from . import test_golden_coins as golden

needs_kernel = pytest.mark.skipif(
    not native_build_available(), reason="no compiled kernel on this host"
)

SEEDS = [0, 5, 17]

# the golden pins' module-scoped graph and seeds
email = golden.email


@pytest.fixture
def cores(monkeypatch):
    """``cores(k)`` sets the kernels' range count for this test."""

    def set_count(count: int) -> None:
        monkeypatch.setattr(native, "core_count", lambda: count)

    return set_count


@pytest.fixture
def fine_grain(monkeypatch):
    """Tree builds split down to one sample per range."""
    monkeypatch.setattr(native, "_TREE_GRAIN", 1)


@pytest.fixture(scope="module")
def ba_graph():
    return assign_weighted_cascade(barabasi_albert(300, 3, rng=2))


def build(csr, batch, idx, blocked=()):
    mask = np.zeros(csr.n, dtype=np.uint8)
    mask[list(blocked)] = 1
    return native.native_build_trees(
        csr.n, csr.indptr, csr.indices, batch.positions, batch.offsets,
        np.asarray(idx, dtype=np.int64), np.asarray(SEEDS, dtype=np.int64),
        mask,
    )


def grown(graph, steps):
    pool = SamplePool(graph, rng=5)
    for theta in steps:
        batch = pool.get(theta)
    return batch


def assert_same(serial, split):
    assert len(serial) == len(split)
    for a, b in zip(serial, split):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestCoreCount:
    def test_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert native.core_count() == 3

    def test_cpu_count_where_no_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert native.core_count() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert native.core_count() == 1

    @pytest.mark.parametrize("mask, width", [({0}, 2), ({0, 1, 2}, 3)])
    def test_artifact_lock_follows_the_mask(self, monkeypatch, mask, width):
        # a taskset-narrowed process shares the lock among as many
        # spreads as it has cores, not as many as the machine has
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: mask, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        key = ArtifactKey("toy", "wc", 20, 3)
        artifact = Artifact(key, prepare_graph(figure1_graph(), "wc"))
        assert artifact.lock._max_shared == width


@needs_kernel
class TestSplitMatchesSerial:
    @pytest.mark.parametrize("grain", [1, native._TREE_GRAIN])
    @pytest.mark.parametrize("blocked", [(), (3, 9, 40)])
    @pytest.mark.parametrize(
        "idx",
        [[], [7], [3, 90], list(range(0, 120, 17)), list(range(50)),
         list(range(120))],
        ids=["empty", "one", "two", "uneven", "uneven-grains", "all"],
    )
    def test_tree_builds(
        self, wc_setup, cores, monkeypatch, idx, blocked, grain
    ):
        _, csr, pool = wc_setup
        batch = pool.get(120)
        monkeypatch.setattr(native, "_TREE_GRAIN", grain)
        cores(1)
        serial = build(csr, batch, idx, blocked)
        cores(3)
        assert_same(serial, build(csr, batch, idx, blocked))
        assert serial[0].shape == (len(idx),)

    @pytest.mark.parametrize(
        "sets",
        [[], [[]], [[], [3, 9]], [[], [3], [9], [3, 9], [1, 40, 77]]],
        ids=["none", "one", "two", "five"],
    )
    def test_reach_counts(self, wc_setup, cores, sets):
        _, csr, pool = wc_setup
        batch = pool.get(120)
        cores(1)
        serial = reach_counts(csr, batch, SEEDS, sets)
        cores(3)
        split = reach_counts(csr, batch, SEEDS, sets)
        assert serial.shape == split.shape == (len(sets), 120)
        assert np.array_equal(serial, split)

    @pytest.mark.parametrize(
        "steps", [[1], [2], [7], [3, 3, 11], [5, 150]],
        ids=["one", "two", "uneven", "grown", "large"],
    )
    def test_coin_draws(self, ba_graph, cores, steps):
        cores(1)
        serial = grown(ba_graph, steps)
        cores(3)
        split = grown(ba_graph, steps)
        assert_same(
            (serial.offsets, serial.positions),
            (split.offsets, split.positions),
        )

    def test_coin_draw_of_no_samples(self, ba_graph, cores):
        cores(3)
        pool = SamplePool(ba_graph, rng=5)
        batch = pool.get(4)
        keys = np.arange(pool.csr.m, dtype=np.uint64)
        sure = np.zeros(pool.csr.m, dtype=bool)
        offsets, positions = native.native_draw_samples(
            keys, keys, sure, batch.offsets, batch.positions, 4, 4
        )
        assert_same((batch.offsets, batch.positions), (offsets, positions))


@pytest.mark.parametrize("count", [1, 3])
def test_golden_pins(email, cores, count):
    # every pin of tests/test_golden_coins.py, at one range and at three
    cores(count)
    golden.test_email_core_pool(email)
    golden.test_grown_ba_pool()
    golden.test_greedy_replace_blockers(email)
    for algorithm in golden.SKETCH_SELECTIONS:
        golden.test_sketch_selection(email, algorithm)
    for algorithm in golden.EAGER_SELECTIONS:
        golden.test_sampled_graph_selection(email, algorithm)
    golden.test_out_neighbors_selection(email)
    for algorithm in golden.LT_SELECTIONS:
        golden.test_linear_threshold_selection(email, algorithm)
    golden.test_sampled_spread_estimate(email)
    golden.test_cascade_timeline(email)
    golden.test_expected_activation_curve(email)


@needs_kernel
def test_counters_count_wrapper_calls_not_ranges(wc_setup, ba_graph, cores):
    _, csr, pool = wc_setup
    batch = pool.get(120)
    cores(3)
    registry = global_registry()
    names = (
        "repro_native_calls_total",
        "repro_native_reach_calls_total",
        "repro_native_coin_calls_total",
    )
    build(csr, batch, range(3))  # every family exists before the reads
    reach_counts(csr, batch, SEEDS, [[]])
    grown(ba_graph, [3])
    before = [registry.counter(name).value for name in names]
    build(csr, batch, range(120))
    reach_counts(csr, batch, SEEDS, [[], [3], [9], [3, 9]])
    grown(ba_graph, [30])
    after = [registry.counter(name).value for name in names]
    # one tree build, one reach call per blocked set, one draw
    assert [b - a for a, b in zip(before, after)] == [1, 4, 1]


class _WorkerRangesFail:
    """The loaded kernels, except that a tree build or reach count run
    off the calling thread reports a scratch allocation failure."""

    def __init__(self, lib) -> None:
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    @staticmethod
    def _off_main() -> bool:
        return threading.current_thread() is not threading.main_thread()

    def repro_build_trees(self, *args):
        return -1 if self._off_main() else self._lib.repro_build_trees(*args)

    def repro_reach_counts(self, *args):
        return -1 if self._off_main() else self._lib.repro_reach_counts(*args)


@needs_kernel
class TestRangeErrors:
    @pytest.fixture
    def failing(self, monkeypatch):
        monkeypatch.setattr(native, "_lib", _WorkerRangesFail(native._load()))

    def test_tree_build(self, wc_setup, cores, fine_grain, failing):
        _, csr, pool = wc_setup
        cores(3)
        with pytest.raises(MemoryError, match="tree-build"):
            build(csr, pool.get(120), range(7))
        cores(1)  # one range runs on the calling thread
        assert build(csr, pool.get(120), range(7))[0].shape == (7,)

    def test_reach_counts(self, wc_setup, cores, failing):
        _, csr, pool = wc_setup
        cores(3)
        with pytest.raises(MemoryError, match="reach"):
            reach_counts(csr, pool.get(120), SEEDS, [[], [3], [9]])

    def test_an_error_waits_for_every_range(
        self, wc_setup, cores, fine_grain, monkeypatch
    ):
        # the calling thread's range fails at once while the workers'
        # ranges are still running: the error surfaces only after they
        # stopped writing into the caller's buffers
        _, csr, pool = wc_setup
        lib = native._load()
        finished = []

        class SlowWorkers:
            def __getattr__(self, name):
                return getattr(lib, name)

            def repro_build_trees(self, *args):
                if threading.current_thread() is threading.main_thread():
                    return -1
                time.sleep(0.2)
                finished.append(lib.repro_build_trees(*args))
                return finished[-1]

        monkeypatch.setattr(native, "_lib", SlowWorkers())
        cores(3)
        with pytest.raises(MemoryError):
            build(csr, pool.get(120), range(9))
        assert len(finished) == 2

    def test_failed_rebase_leaves_the_view_untouched(
        self, wc_setup, cores, fine_grain, monkeypatch
    ):
        _, csr, pool = wc_setup
        cores(3)
        sketch = SketchIndex(pool)
        spread = sketch.expected_spread(SEEDS, 120, [3])
        view = sketch._view(SEEDS, 120)
        state = {
            name: np.array(getattr(view, name))
            for name in ("_lengths", "_order_arena", "_sizes_arena",
                         "_delta_sum", "_post_alive")
        }
        built = sketch.stats.trees_built
        with monkeypatch.context() as patch:
            patch.setattr(native, "_lib", _WorkerRangesFail(native._load()))
            with pytest.raises(MemoryError):
                sketch.expected_spread(SEEDS, 120, [3, 1, 40])
        assert view.blocked == frozenset({3})
        assert sketch.stats.trees_built == built
        for name, before in state.items():
            assert np.array_equal(getattr(view, name), before), name
        assert sketch.expected_spread(SEEDS, 120, [3]) == spread
        # and the view still moves on, to a cold build's answer
        moved = sketch.expected_spread(SEEDS, 120, [3, 1, 40])
        assert moved == SketchIndex(pool).expected_spread(
            SEEDS, 120, [3, 1, 40]
        )


@needs_kernel
def test_concurrent_callers_see_serial_answers(wc_setup, ba_graph, cores):
    """Four callers at three ranges each, with the interpreter switching
    threads every microsecond, for a bounded time: every build, count
    and draw equals the serial one."""
    _, csr, pool = wc_setup
    batch = pool.get(120)
    sets = [[], [3, 9], [1, 40, 77]]
    cores(1)
    tree = build(csr, batch, range(120), (3,))
    counts = reach_counts(csr, batch, SEEDS, sets)
    draw = grown(ba_graph, [40])
    cores(3)
    deadline = time.monotonic() + 1.0
    rounds: list[int] = []
    errors: list[BaseException] = []

    def caller() -> None:
        done = 0
        try:
            while time.monotonic() < deadline:
                assert_same(tree, build(csr, batch, range(120), (3,)))
                assert np.array_equal(
                    counts, reach_counts(csr, batch, SEEDS, sets)
                )
                again = grown(ba_graph, [40])
                assert_same(
                    (draw.offsets, draw.positions),
                    (again.offsets, again.positions),
                )
                done += 1
        except BaseException as error:  # reported by the main thread
            errors.append(error)
        rounds.append(done)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert len(rounds) == 4 and min(rounds) >= 1


def test_import_starts_no_thread():
    code = (
        "import threading\n"
        "import repro.engine, repro.native, repro.service\n"
        "print(threading.active_count())\n"
    )
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"


@needs_kernel
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_forked_child_starts_its_own_workers(wc_setup, cores):
    # the parent's worker threads do not exist in a forked child: a
    # child that reused their executor would queue ranges nobody runs
    _, csr, pool = wc_setup
    batch = pool.get(120)
    cores(3)
    expected = build(csr, batch, range(120))
    assert native._workers is not None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            signal.alarm(30)  # a hung child dies instead of hanging
            got = build(csr, batch, range(120))
            status = 0 if all(
                np.array_equal(a, b) for a, b in zip(expected, got)
            ) else 2
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
