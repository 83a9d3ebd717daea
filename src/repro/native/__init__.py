"""repro.native — optional compiled kernels, loaded via ``ctypes``.

Three per-sample costs numpy serves badly.  Two are data-dependent at
every step, so no vectorisation removes them: the sketch estimator's
Lengauer–Tarjan walk and the pooled estimator's reachability count.
The third is the sample pool's live-edge draw: numpy can vectorise its
θ×m coin flips only by materialising them as (chunk × m) hash
matrices, which cost more time and memory than the pool they produce.
This package ships all three kernels as plain C in one file
(``lt_kernel.c``), compiled **on demand** with whatever ``cc``/``gcc``
the host already has and loaded through the standard library's
``ctypes`` — no build-time dependency, no compiled artifact in the
repository, and a clean fallback: when no compiler is available (or
``REPRO_NATIVE=0`` is set) every caller uses its numpy/Python path and
produces bit-identical results, just slower.

Compiled objects are cached under a per-user temp directory keyed by a
hash of the C source, so a source change triggers exactly one
recompile and concurrent processes (the service's shard workers, say)
race benignly (atomic rename).

Every kernel runs in the calling process, split across its cores.
Each sample's tree, reach count and coins depend on that sample
alone, and ``ctypes`` releases the GIL for the call, so a wrapper
cuts its work into contiguous ranges — of ``sample_idx`` for a tree
build, of the new samples for both coin passes, of the blocked sets
for reach counts — and runs one kernel call per range: the first in
the calling thread, the rest on a worker set of :func:`core_count`
− 1 threads.  Every range writes its own slice of outputs the calling
thread allocated, and the ranges join in input order, so the answers
are bit-identical to one serial call.  The worker set starts on the
first split (importing starts no thread), lives as long as the
process, and is dropped in a forked child.  One range — one core, one
sample, one blocked set — runs inline.  Counters count once per
wrapper call (reach calls once per blocked set), never per range.

The consumers are
:meth:`repro.engine.treebuild.TreeBuilder.build_packed`
(:func:`native_build_trees`),
:func:`repro.engine.pool.reach_counts`
(:func:`native_reach_counts`) and the growth step of
:class:`repro.engine.pool.SamplePool` (:func:`native_draw_samples`).
A further kernel follows the same pattern: add its C to
``lt_kernel.c`` (one shared object, so it compiles with the others
before any timed work), add a loader entry, keep the Python path as
the semantic reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from ..obs import global_registry

__all__ = [
    "POSITIONS_DTYPE",
    "core_count",
    "native_build_available",
    "native_build_trees",
    "native_cache_dir",
    "native_draw_samples",
    "native_reach_counts",
]

_R = TypeVar("_R")


def _count(name: str, help_text: str, amount: int = 1) -> None:
    """Bump a loader counter in the shared metrics registry — how the
    ops surface answers "did this process compile the kernel, reuse a
    cached object, or fall back to Python?" without log spelunking."""
    global_registry().counter(name, help_text).inc(amount)


def core_count() -> int:
    """The cores this process may run on: its CPU affinity mask, which
    ``taskset`` or a cpuset narrows, or every CPU the OS reports where
    the platform has no affinity call.  It sizes both the kernels'
    range split and the service's shared artifact lock."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without an affinity call
        return os.cpu_count() or 1


# the threads that run every range but the caller's own: started by
# the first split, kept for the process's life (a thread started per
# call costs more than a small rebase saves), and forgotten in a forked
# child, whose copy would wait on threads that do not exist there
_workers: ThreadPoolExecutor | None = None
_workers_lock = threading.Lock()


def _forget_workers() -> None:
    global _workers, _workers_lock
    _workers = None
    _workers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _split(
    count: int, run: Callable[[int, int], _R], grain: int = 1
) -> list[_R]:
    """``run(lo, hi)`` over at most :func:`core_count` contiguous ranges
    covering ``[0, count)``, each of at least ``grain`` items (unless
    there is only one) and their sizes within one of each other.

    The first range runs in the calling thread and the others on the
    worker threads.  Returns the ranges' results in range order once
    every range has finished; an error in any range is raised here (the
    lowest failing range's), after all of them stopped writing.  A
    single range runs inline and starts no thread.
    """
    global _workers
    parts = max(1, min(core_count(), count // grain))
    bounds = [count * k // parts for k in range(parts + 1)]
    if parts == 1:
        return [run(0, count)]
    with _workers_lock:
        if _workers is None:
            _workers = ThreadPoolExecutor(
                max(1, core_count() - 1), thread_name_prefix="repro-kernel"
            )
        workers = _workers
    rest = [
        workers.submit(run, lo, hi)
        for lo, hi in zip(bounds[1:-1], bounds[2:])
    ]
    try:
        first = run(bounds[0], bounds[1])
    finally:
        wait(rest)
    return [first, *(future.result() for future in rest)]


# the fewest samples a tree-build range gets: handing a range to a
# sleeping worker costs about as much as building a few trees on
# block-select's graph (~30 us each), so a smaller range runs slower
# split than inline.  One sample's coins or one blocked set's reach
# count is work enough for a range of its own.
_TREE_GRAIN = 16

_SOURCE = Path(__file__).with_name("lt_kernel.c")

# resolved lazily, exactly once per process: None = not yet attempted,
# False = unavailable (no compiler / disabled / compile failed)
_lib: "ctypes.CDLL | bool | None" = None


def _disabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") in ("0", "false", "no")


def native_cache_dir() -> Path:
    """Directory holding compiled kernel objects (override with
    ``REPRO_NATIVE_CACHE``)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    if hasattr(os, "getuid"):
        tag = f"repro-native-{os.getuid()}"
    else:  # pragma: no cover - non-POSIX hosts
        tag = "repro-native"
    return Path(tempfile.gettempdir()) / tag


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _cache_dir_trusted(cache: Path) -> bool:
    """Refuse to trust (or load from) a cache dir another user could
    have planted: the default lives under the world-writable temp
    root, so a predictable path + digest would otherwise let a local
    attacker pre-seed a malicious ``.so`` for us to ``dlopen``."""
    try:
        st = os.lstat(cache)
    except OSError:
        return False
    if not stat.S_ISDIR(st.st_mode):
        return False
    if hasattr(os, "getuid"):
        if st.st_uid != os.getuid():
            return False
        if st.st_mode & 0o022:  # group/other writable
            return False
    return True


def _compile() -> Path | None:
    """Compile (or reuse) the kernel shared object; None on failure."""
    if not _SOURCE.is_file():
        return None
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = native_cache_dir()
    try:
        cache.mkdir(parents=True, exist_ok=True, mode=0o700)
    except OSError:
        return None
    if not _cache_dir_trusted(cache):
        return None
    so_path = cache / f"lt_kernel-{digest}-py{sys.version_info[0]}.so"
    if so_path.is_file():
        _count(
            "repro_native_compile_cache_hits_total",
            "Kernel loads served by an already-compiled shared object",
        )
        return so_path
    compiler = _compiler()
    if compiler is None:
        return None
    try:
        tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
        subprocess.run(
            [compiler, "-O3", "-shared", "-fPIC",
             str(_SOURCE), "-o", str(tmp)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        tmp.replace(so_path)  # atomic: concurrent compiles race benignly
        _count(
            "repro_native_compiles_total",
            "On-demand compiles of the native kernels (LT tree build, "
            "reach counts and coin draw)",
        )
        return so_path
    except (OSError, subprocess.SubprocessError):
        _count(
            "repro_native_compile_failures_total",
            "Kernel compile attempts that failed (callers fall back)",
        )
        return None


# the dtype of a sample pool's edge positions, the one place it is
# named: every kernel reads (and the coin kernel writes) them as
# int32_t, so a pool holds 4 bytes per surviving edge and caps the
# graph at 2^31 - 1 edges (offsets stay int64)
POSITIONS_DTYPE = np.dtype(np.int32)

_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_POSP = np.ctypeslib.ndpointer(dtype=POSITIONS_DTYPE, flags="C_CONTIGUOUS")
_U64P = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


def _load() -> "ctypes.CDLL | bool":
    global _lib
    if _lib is None:
        _lib = False
        if not _disabled():
            so_path = _compile()
            if so_path is not None:
                try:
                    lib = ctypes.CDLL(str(so_path))
                    lib.repro_build_trees.restype = ctypes.c_int64
                    lib.repro_build_trees.argtypes = [
                        ctypes.c_int64,  # n
                        _I64P,  # indptr
                        _I64P,  # edge_dst
                        _POSP,  # positions
                        _I64P,  # offsets
                        _I64P,  # sample_idx
                        ctypes.c_int64,  # batch
                        _I64P,  # seeds
                        ctypes.c_int64,  # num_seeds
                        _U8P,  # blocked
                        _I64P,  # out_order
                        _I64P,  # out_sizes
                        _I64P,  # out_lengths
                    ]
                    lib.repro_reach_counts.restype = ctypes.c_int64
                    lib.repro_reach_counts.argtypes = [
                        ctypes.c_int64,  # n
                        _I64P,  # indptr
                        _I64P,  # edge_dst
                        _POSP,  # positions
                        _I64P,  # offsets
                        ctypes.c_int64,  # rounds
                        _I64P,  # seeds
                        ctypes.c_int64,  # num_seeds
                        _U8P,  # blocked
                        _I64P,  # out_counts
                    ]
                    coin_args = [
                        ctypes.c_int64,  # m
                        _U64P,  # keys
                        _U64P,  # thr
                        _U8P,  # sure
                        ctypes.c_int64,  # lo
                        ctypes.c_int64,  # hi
                    ]
                    lib.repro_coin_counts.restype = None
                    lib.repro_coin_counts.argtypes = coin_args + [
                        _I64P,  # out_counts
                    ]
                    lib.repro_coin_fill.restype = None
                    lib.repro_coin_fill.argtypes = coin_args + [
                        _I64P,  # offsets
                        _POSP,  # positions
                    ]
                    _lib = lib
                except OSError:
                    _lib = False
    return _lib


def _positions(positions: np.ndarray) -> np.ndarray:
    """A pool's ``positions`` as the kernels read them, never converted:
    a widening cast would copy the whole pool on every call, and a
    narrowing one would wrap edge ids onto other edges."""
    positions = np.asarray(positions)
    if positions.dtype != POSITIONS_DTYPE:
        raise TypeError(
            f"positions must be {POSITIONS_DTYPE}, got {positions.dtype}"
        )
    return np.ascontiguousarray(positions)


def native_build_available() -> bool:
    """True when the compiled kernels (tree build, reach counts and
    coin draw, one shared object) are loadable here; the first call
    compiles."""
    return _load() is not False


def native_build_trees(
    n: int,
    indptr: np.ndarray,
    edge_dst: np.ndarray,
    positions: np.ndarray,
    offsets: np.ndarray,
    sample_idx: np.ndarray,
    seeds: np.ndarray,
    blocked_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Batched ``(lengths, orders, sizes)`` dominator payloads, or
    ``None`` when the kernel is unavailable (callers fall back to the
    Python path — results are bit-identical either way).

    ``offsets``/``positions`` are the pool's flat sample arrays (no
    packing or copying: the kernel indexes the requested
    ``sample_idx`` windows directly; positions of any dtype but
    :data:`POSITIONS_DTYPE` raise ``TypeError``); ``indptr`` is the
    base graph's CSR row-pointer array and ``blocked_mask`` a
    ``uint8[n]`` mask.  Output arrays are trimmed to the written
    payload.  Contiguous ranges of ``sample_idx`` build on their own
    threads (see the module docstring) and join in input order.
    """
    lib = _load()
    if lib is False:
        _count(
            "repro_native_fallbacks_total",
            "Batched tree builds answered by the pure-Python path",
        )
        return None
    _count(
        "repro_native_calls_total",
        "Batched tree builds answered by the compiled kernel",
    )
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
    positions = _positions(positions)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    sample_idx = np.ascontiguousarray(sample_idx, dtype=np.int64)
    seeds = np.ascontiguousarray(seeds, dtype=np.int64)
    blocked_mask = np.ascontiguousarray(blocked_mask, dtype=np.uint8)
    batch = sample_idx.shape[0]
    # the kernel trusts every index it is handed: check the shapes,
    # the sample windows and the caller-supplied ids here, before any
    # pointer crosses
    if indptr.shape[0] != n + 1 or blocked_mask.shape[0] != n:
        raise ValueError("indptr and blocked_mask must cover n vertices")
    windows = np.zeros(0, dtype=np.int64)
    if batch:
        if sample_idx.min() < 0 or sample_idx.max() + 1 >= offsets.shape[0]:
            raise ValueError(
                f"sample_idx outside the {offsets.shape[0] - 1} samples "
                "the offsets describe"
            )
        starts = offsets[sample_idx]
        ends = offsets[sample_idx + 1]
        if (
            starts.min() < 0
            or np.any(ends < starts)
            or ends.max() > positions.shape[0]
        ):
            raise ValueError("positions shorter than the sample window")
        windows = ends - starts
    if seeds.shape[0] and (seeds.min() < 0 or seeds.max() >= n):
        raise IndexError(f"seeds must be vertices in [0, {n})")
    num_seeds = int(seeds.shape[0])
    lengths = np.empty(max(batch, 1), dtype=np.int64)
    # every non-root reachable vertex is a seed or has a surviving
    # in-edge, so a sample's payload is bounded by its edges + root +
    # seeds; a range writes from the running sum of those bounds
    bound = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(windows + (1 + num_seeds), out=bound[1:])
    out_order = np.empty(int(bound[-1]) + 1, dtype=np.int64)
    out_sizes = np.empty(int(bound[-1]) + 1, dtype=np.int64)

    def build(lo: int, hi: int) -> slice:
        start = int(bound[lo])
        total = lib.repro_build_trees(
            n, indptr, edge_dst, positions, offsets, sample_idx[lo:hi],
            hi - lo, seeds, num_seeds, blocked_mask,
            out_order[start:], out_sizes[start:], lengths[lo:],
        )
        if total < 0:
            raise MemoryError("native tree-build kernel out of memory")
        return slice(start, start + total)

    written = _split(batch, build, _TREE_GRAIN)
    # copy, don't slice: a slice would pin the whole bound-sized output
    # buffer (sized by surviving *edges*, typically ~10x the payload)
    # for as long as a consumer — e.g. an arena view — holds it, and
    # byte gauges built on .nbytes would wildly under-count residency
    return (
        lengths[:batch].copy(),
        np.concatenate([out_order[part] for part in written]),
        np.concatenate([out_sizes[part] for part in written]),
    )


def native_reach_counts(
    n: int,
    indptr: np.ndarray,
    edge_dst: np.ndarray,
    positions: np.ndarray,
    offsets: np.ndarray,
    rounds: int,
    seeds: np.ndarray,
    blocked_mask: np.ndarray,
) -> np.ndarray | None:
    """Per-sample reach counts of ``seeds`` over the pool's samples
    ``[0, rounds)``: ``int64[rounds]`` for one ``uint8[n]``
    ``blocked_mask``, ``int64[sets, rounds]`` for a ``uint8[sets, n]``
    stack of them.  ``None`` when the kernel is unavailable (callers
    fall back to the aliveness-matrix path of
    :func:`~repro.engine.kernels.reach_counts_from_alive` — the counts
    are identical either way).

    ``offsets``/``positions`` are the pool's flat sample arrays, read in
    place (a memory-mapped pool is never copied, and positions of any
    dtype but :data:`POSITIONS_DTYPE` raise ``TypeError``); ``indptr``/
    ``edge_dst`` are the base graph's CSR arrays.  Counts include the
    seeds, each once.  Each blocked set is one kernel call, and
    contiguous ranges of the sets count on their own threads (see the
    module docstring); one set counts inline.
    """
    lib = _load()
    if lib is False:
        _count(
            "repro_native_reach_fallbacks_total",
            "Pooled spread batches the compiled kernel could not answer "
            "(the aliveness-matrix path answers them)",
        )
        return None
    masks = np.ascontiguousarray(blocked_mask, dtype=np.uint8)
    rows = np.atleast_2d(masks)  # one row per blocked set
    _count(
        "repro_native_reach_calls_total",
        "Pooled reach counts (one per blocked set) answered by the "
        "compiled kernel",
        rows.shape[0],
    )
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
    positions = _positions(positions)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    seeds = np.ascontiguousarray(seeds, dtype=np.int64)
    rounds = int(rounds)
    # the kernel trusts every index it is handed: check the shapes
    # and the caller-supplied ids here, before any pointer crosses
    if indptr.shape[0] != n + 1 or rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError("indptr and blocked_mask must cover n vertices")
    if not 0 <= rounds < offsets.shape[0]:
        raise ValueError(
            f"rounds {rounds} outside the {offsets.shape[0] - 1} "
            "samples the offsets describe"
        )
    if positions.shape[0] < offsets[rounds]:
        raise ValueError("positions shorter than the sample window")
    if seeds.shape[0] and (seeds.min() < 0 or seeds.max() >= n):
        raise IndexError(f"seeds must be vertices in [0, {n})")
    out = np.empty((rows.shape[0], max(rounds, 1)), dtype=np.int64)

    def count(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            status = lib.repro_reach_counts(
                n, indptr, edge_dst, positions, offsets, rounds,
                seeds, int(seeds.shape[0]), rows[i], out[i],
            )
            if status < 0:
                raise MemoryError("native reach kernel out of memory")

    _split(rows.shape[0], count)
    return out[0, :rounds] if masks.ndim == 1 else out[:, :rounds]


def native_draw_samples(
    keys: np.ndarray,
    thr: np.ndarray,
    sure: np.ndarray,
    offsets: np.ndarray,
    positions: np.ndarray,
    theta: int,
    target: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """A pool's flat sample arrays grown from ``theta`` to ``target``
    samples, as new ``(offsets, positions)``, or ``None`` when the
    kernel is unavailable (callers fall back to the chunked numpy draw,
    :meth:`~repro.engine.pool.SamplePool._draw_chunked` — the samples
    are identical either way).

    ``keys``/``thr``/``sure`` are the per-edge stream keys, uint64
    thresholds and always-survive mask of ``repro.engine.pool``;
    ``offsets``/``positions`` hold the ``theta`` samples drawn so far
    (a memory-mapped pool is read, never written; positions of any
    dtype but :data:`POSITIONS_DTYPE` raise ``TypeError``).  A count
    pass sizes one positions array of old + new survivors; the first
    ``offsets[theta]`` entries are copied from ``positions`` and a fill
    pass writes each new sample's survivors after them, ascending.
    Nothing else of size θ×m or θ×survivors is allocated.  Contiguous
    ranges of the new samples run both passes on their own threads (see
    the module docstring).
    """
    lib = _load()
    if lib is False:
        _count(
            "repro_native_coin_fallbacks_total",
            "Sample-pool draws answered by the chunked numpy path",
        )
        return None
    _count(
        "repro_native_coin_calls_total",
        "Sample-pool draws (one per pool growth) answered by the "
        "compiled kernel",
    )
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    thr = np.ascontiguousarray(thr, dtype=np.uint64)
    sure = np.ascontiguousarray(sure, dtype=np.bool_).view(np.uint8)
    m = keys.shape[0]
    theta, target = int(theta), int(target)
    # the kernel reads m entries of each per-edge array and writes only
    # arrays allocated here; check what it is handed before it crosses
    if keys.ndim != 1 or thr.shape != (m,) or sure.shape != (m,):
        raise ValueError("keys, thr and sure must be 1-D with m entries")
    if m > np.iinfo(POSITIONS_DTYPE).max:
        raise ValueError(f"{m} edges overflow {POSITIONS_DTYPE} positions")
    if not 0 <= theta <= target:
        raise ValueError(f"cannot grow {theta} samples to {target}")
    positions = _positions(positions)
    if offsets.ndim != 1 or positions.ndim != 1:
        raise ValueError("offsets and positions must be 1-D")
    if offsets.shape[0] < theta + 1:
        raise ValueError(
            f"offsets describe fewer than the {theta} samples drawn"
        )
    drawn = int(offsets[theta])
    if not 0 <= drawn <= positions.shape[0]:
        raise ValueError("positions shorter than the sample window")
    # both passes split the new samples into ranges (see the module
    # docstring): the count pass writes each range's slice of counts,
    # the fill pass each range's windows of the one positions array
    counts = np.empty(target - theta, dtype=np.int64)
    _split(target - theta, lambda lo, hi: lib.repro_coin_counts(
        m, keys, thr, sure, theta + lo, theta + hi, counts[lo:]
    ))
    new_offsets = np.empty(target + 1, dtype=np.int64)
    new_offsets[: theta + 1] = offsets[: theta + 1]
    np.cumsum(counts, out=new_offsets[theta + 1:])
    new_offsets[theta + 1:] += drawn
    new_positions = np.empty(int(new_offsets[target]), dtype=POSITIONS_DTYPE)
    new_positions[:drawn] = positions[:drawn]
    _split(target - theta, lambda lo, hi: lib.repro_coin_fill(
        m, keys, thr, sure, theta + lo, theta + hi,
        new_offsets, new_positions,
    ))
    return new_offsets, new_positions
