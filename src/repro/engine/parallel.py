"""Worker-pool executor: spread estimation across all cores.

``expected_spread`` is embarrassingly parallel over simulation rounds.
:class:`ParallelEvaluator` splits the requested rounds into one chunk
per worker and runs the vectorized batch kernel in a persistent
``multiprocessing`` pool:

* the frozen CSR arrays are shipped **once** per worker via the pool
  initializer (with the default ``fork`` start method they are shared
  copy-on-write and never pickled per call);
* every worker draws from its own ``numpy`` stream, derived with
  ``SeedSequence`` spawning from the evaluator's root seed plus a
  per-call counter — results are bit-reproducible for a fixed
  ``(rng, workers)`` pair and call order, while workers never share a
  stream (the classic parallel-RNG correctness trap);
* ``workers=1`` (and any machine with a single core) short-circuits to
  the in-process vectorized kernel, so the facade is safe to use
  unconditionally.

The pool is lazy: no processes are spawned until the first parallel
query.  Use the evaluator as a context manager (or call
:meth:`ParallelEvaluator.close`) to reap workers deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Iterable, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph
from ..rng import ensure_rng, RngLike
from .kernels import batch_cascades

__all__ = [
    "ParallelEvaluator",
    "default_workers",
    "split_rounds",
    "make_worker_pool",
    "worker_csr",
    "worker_samples",
]

# per-process CSR rehydrated by the pool initializer
_WORKER_CSR: CSRGraph | None = None
# per-process persisted-sample paths + the lazily attached mmaps
_WORKER_SAMPLE_PATHS: tuple[str, str] | None = None
_WORKER_SAMPLES: "tuple[np.ndarray, np.ndarray] | None" = None


def default_workers() -> int:
    """Worker count saturating the machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


def _start_method() -> str:
    """The safest available start method for the calling process.

    ``fork`` is the cheapest (CSR arrays shared copy-on-write) but is
    only safe while the parent is single-threaded: forking with live
    threads can snapshot a lock held by another thread (malloc arena,
    gzip, logging) and deadlock the child.  The serving layer builds
    artifacts from request-handler threads, so under threads we fall
    back to ``forkserver``/``spawn``, where workers start from a clean
    process at the cost of pickling the initargs once per worker.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return "fork"
    for method in ("forkserver", "spawn"):
        if method in methods:
            return method
    return methods[0]


def make_worker_pool(csr: CSRGraph, workers: int, sample_paths=None):
    """A ``multiprocessing`` pool whose workers hold ``csr`` resident.

    The one piece of worker infrastructure every parallel engine
    component shares: the frozen CSR arrays are shipped once per
    worker through the pool initializer (copy-on-write under ``fork``,
    pickled once per worker otherwise — see :func:`_start_method` for
    how the method is chosen) and task functions read them back via
    :func:`worker_csr`.  Used by :class:`ParallelEvaluator` for spread
    chunks and by :mod:`repro.engine.treebuild` for batched
    dominator-tree construction.

    ``sample_paths`` — the ``(offsets, positions)`` ``.npy`` files of
    a persisted :class:`~repro.engine.pool.SamplePool` — hands workers
    a **read-only memory mapping** of the pooled samples instead of
    pickled per-task sample windows: tasks then ship sample *indices*
    only and read the shared pages via :func:`worker_samples`.  Only
    the paths cross the process boundary; each worker attaches lazily
    on first use.
    """
    context = multiprocessing.get_context(_start_method())
    if sample_paths is not None:
        sample_paths = tuple(str(p) for p in sample_paths)
    return context.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(csr.indptr, csr.indices, csr.probs, sample_paths),
    )


def worker_csr() -> CSRGraph:
    """The CSR snapshot installed in this worker by the initializer."""
    if _WORKER_CSR is None:
        raise RuntimeError(
            "worker_csr() called outside a make_worker_pool worker"
        )
    return _WORKER_CSR


def worker_samples(min_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """This worker's mmap of the persisted pool, covering ``min_theta``.

    Attaches ``np.load(..., mmap_mode="r")`` on first use and caches
    the mapping for the life of the worker; when a cached mapping is
    too short (the parent pool grew and re-persisted — renames are
    atomic, so the cached arrays still point at the old inode) the
    worker simply re-attaches the current files.  Offsets are loaded
    before positions: the writer persists positions first, so an
    offsets file always describes a consistent prefix of whatever
    positions file it is paired with (the pool's chunk-seeded samples
    are pure prefix extensions).
    """
    global _WORKER_SAMPLES
    if _WORKER_SAMPLE_PATHS is None:
        raise RuntimeError(
            "worker_samples() requires a pool built with sample_paths"
        )
    cached = _WORKER_SAMPLES
    if cached is None or cached[0].shape[0] - 1 < min_theta:
        off_path, pos_path = _WORKER_SAMPLE_PATHS
        offsets = np.load(off_path, mmap_mode="r")
        positions = np.load(pos_path, mmap_mode="r")
        if offsets.shape[0] - 1 < min_theta:
            raise RuntimeError(
                f"persisted pool at {off_path} holds "
                f"{offsets.shape[0] - 1} samples, task needs "
                f"{min_theta}"
            )
        if positions.shape[0] < int(offsets[-1]):
            raise RuntimeError(
                f"persisted pool at {pos_path} is torn: offsets "
                f"expect {int(offsets[-1])} positions, file holds "
                f"{positions.shape[0]}"
            )
        cached = (offsets, positions)
        _WORKER_SAMPLES = cached
    return cached


def split_rounds(rounds: int, workers: int) -> list[int]:
    """Near-even positive chunk sizes summing to ``rounds``."""
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    workers = max(1, min(workers, rounds))
    base, extra = divmod(rounds, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _init_worker(indptr, indices, probs, sample_paths=None) -> None:
    global _WORKER_CSR, _WORKER_SAMPLE_PATHS, _WORKER_SAMPLES
    _WORKER_CSR = CSRGraph.from_arrays(indptr, indices, probs)
    _WORKER_SAMPLE_PATHS = sample_paths
    _WORKER_SAMPLES = None


def _run_chunk(task) -> int:
    """Sum of active counts over one worker's chunk of rounds."""
    seed_seq, rounds, seeds, blocked = task
    gen = np.random.default_rng(seed_seq)
    counts = batch_cascades(_WORKER_CSR, seeds, rounds, gen, blocked)
    return int(counts.sum())


class ParallelEvaluator:
    """Multi-core Monte-Carlo spread evaluator over a frozen graph.

    Satisfies the :class:`~repro.engine.evaluator.SpreadEvaluator`
    protocol.  See the module docstring for the determinism contract.
    """

    backend = "parallel"

    def __init__(
        self,
        graph: DiGraph | CSRGraph,
        rng: RngLike = None,
        workers: int | None = None,
    ) -> None:
        self.csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
        self.workers = default_workers() if workers is None else workers
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # one root seed drawn up front; per-call streams are spawned
        # from (root, call_index) so repeated queries differ but a
        # fresh evaluator with the same seed replays the sequence.
        self._root = int(ensure_rng(rng).integers(2**63))
        self._calls = 0
        self._pool = None

    # ------------------------------------------------------------------
    # SpreadEvaluator surface
    # ------------------------------------------------------------------
    def expected_spread(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        """Average active count over ``rounds`` cascades, all cores."""
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        seed_list = list(seeds)
        blocked_list = list(blocked)
        call = self._calls
        self._calls += 1
        chunks = split_rounds(rounds, self.workers)
        streams = np.random.SeedSequence((self._root, call)).spawn(
            len(chunks)
        )
        if len(chunks) == 1:
            gen = np.random.default_rng(streams[0])
            counts = batch_cascades(
                self.csr, seed_list, rounds, gen, blocked_list
            )
            return float(counts.sum()) / rounds
        tasks = [
            (stream, chunk, seed_list, blocked_list)
            for stream, chunk in zip(streams, chunks)
        ]
        totals = self._ensure_pool().map(_run_chunk, tasks)
        return float(sum(totals)) / rounds

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            self._pool = make_worker_pool(self.csr, self.workers)
        return self._pool

    def close(self) -> None:
        """Terminate the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
