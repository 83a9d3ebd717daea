"""Persistent live-edge sample pool with cross-query reuse.

AdvancedGreedy's key cost saving (Section V-C) is that one set of
sampled graphs answers *every* candidate's decrease query in a round.
:class:`SamplePool` generalises that trick across queries, algorithms
and — optionally — processes:

* samples (Definition 4's random sampled graphs) are materialised
  **once** per graph, in a compact flat-array layout (int64
  ``offsets`` + int32 surviving edge ``positions``, the same CSR idea
  one level up: 4 bytes per live edge plus 8 per sample);
* a request for ``theta`` samples is served from the pool's prefix when
  enough samples exist (a *hit*) and triggers incremental generation of
  only the shortfall otherwise (a *miss* grows the pool, it never
  regenerates).  The compiled coin kernel
  (:func:`~repro.native.native_draw_samples`) draws the shortfall
  straight into one preallocated positions array; the chunked numpy
  draw is the fallback and the reference;
* blocking is applied at traversal time by the consumer, so the same
  samples serve every blocked-set query: the compiled reach kernel
  (:func:`~repro.native.native_reach_counts`) and the tree-build
  kernel read the flat arrays in place, and the numpy fallback streams
  :meth:`SampleBatch.alive_matrix` windows through
  :func:`~repro.engine.kernels.reach_counts_from_alive`;
* with a ``cache_dir`` the arrays are persisted as ``.npy`` files keyed
  by a fingerprint of the graph, probabilities and seed, and are loaded
  back **memory-mapped** — a second process (or a later run) pays no
  sampling cost and shares pages with its siblings.

The pool is also the ``pooled`` backend of
:func:`~repro.engine.build_evaluator`: :meth:`SamplePool.expected_spread`
averages :func:`reach_counts` over the pool's first ``rounds``
samples.  ``SamplePool.stats`` exposes hit/miss/disk counters so
benchmarks and services can observe cache effectiveness.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph, GraphDelta
from ..native import (
    native_draw_samples,
    native_reach_counts,
    POSITIONS_DTYPE,
)
from ..obs import span, track
from ..rng import ensure_rng, RngLike
from .kernels import (
    _blocked_mask,
    _checked_ids,
    auto_batch_size,
    reach_counts_from_alive,
)

__all__ = [
    "PoolDeltaReport", "SampleBatch", "SamplePool", "PoolStats",
    "reach_counts", "sampler_batches",
]

# cap on the (chunk, m) hash matrix the numpy draw and the delta patch
# materialise per step; the coin kernel allocates no such matrix
_COIN_CELL_BUDGET = 8_000_000

# tag mixed into the disk fingerprint: bump when the coin scheme or
# the array layout changes so a persisted pool can never attach under
# a different sample distribution or be overwritten in place by one
# of another dtype
_COIN_SCHEME = "coins2-int32"

# the largest edge count whose positions fit POSITIONS_DTYPE; a pool
# refuses a bigger graph (there is no wider fallback)
_MAX_EDGES = int(np.iinfo(POSITIONS_DTYPE).max)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (a bijection on uint64)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MIX_A
    x ^= x >> np.uint64(27)
    x *= _MIX_B
    x ^= x >> np.uint64(31)
    return x


def _edge_keys(root: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Stable per-edge stream keys: a pure function of ``(root, u, v)``.

    Independent of the edge's CSR position, the graph's edge count and
    the pool's growth history — the property that makes delta patching
    bit-identical to regeneration: an edge keeps its coin stream
    through any sequence of surrounding inserts and deletes.
    """
    h = _mix64(np.full(src.shape, np.uint64(root), dtype=np.uint64))
    h = _mix64(h ^ (src.astype(np.uint64) + np.uint64(1)))
    h = _mix64(h ^ ((dst.astype(np.uint64) + np.uint64(1)) * _GOLDEN))
    return h


def _thresholds(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p`` as a uint64 survival threshold: alive iff ``h < thr``.

    ``P(h < floor(p * 2^64)) = p`` up to one part in ``2^64`` for a
    uniform ``h``.  Probabilities so close to 1 that ``p * 2^64``
    rounds to ``2^64`` (including exactly 1.0) are returned in the
    ``sure`` mask and survive unconditionally.
    """
    thr_f = np.ldexp(probs.astype(np.float64, copy=False), 64)
    sure = thr_f >= np.float64(2.0**64)
    thr = np.where(sure, 0.0, thr_f).astype(np.uint64)
    return thr, sure


def _check_edge_count(m: int) -> None:
    """Refuse a graph whose edge positions overflow the pool's dtype."""
    if m > _MAX_EDGES:
        raise ValueError(
            f"a sample pool holds at most {_MAX_EDGES} edges "
            f"({POSITIONS_DTYPE} positions), got {m}"
        )


def _well_formed(offsets: np.ndarray, positions: np.ndarray) -> bool:
    """Structural check of a persisted ``(offsets, positions)`` pair.

    Both arrays are 1-D, the offsets int64 and the positions
    :data:`~repro.native.POSITIONS_DTYPE`, the offsets start at 0 and
    never decrease, and the positions cover the last window (a longer
    positions file is a consistent prefix, see :meth:`SamplePool._persist`).
    O(theta): the positions are never scanned, so a damaged position
    *value* inside a well-shaped file passes.
    """
    return (
        offsets.ndim == 1
        and positions.ndim == 1
        and offsets.dtype == np.int64
        and positions.dtype == POSITIONS_DTYPE
        and offsets.shape[0] >= 1
        and offsets[0] == 0
        and not np.any(offsets[1:] < offsets[:-1])
        and offsets[-1] <= positions.shape[0]
    )


def _sample_counters(lo: int, hi: int) -> np.ndarray:
    """Per-sample counter increments for samples ``lo .. hi-1``."""
    return np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GOLDEN


@dataclass
class PoolStats:
    """Observability counters for a :class:`SamplePool`."""

    hits: int = 0
    """Requests fully served from already-materialised samples."""
    misses: int = 0
    """Requests that forced generation of additional samples."""
    generated: int = 0
    """Total samples materialised by this process."""
    disk_loads: int = 0
    """Times a persisted pool was attached from ``cache_dir``."""
    disk_saves: int = 0
    """Times the pool was persisted to ``cache_dir``."""
    deltas: int = 0
    """Graph deltas applied in place (:meth:`SamplePool.apply_delta`)."""
    delta_touched: int = 0
    """Total samples whose survived-edge set a delta changed."""

    def __post_init__(self) -> None:
        # re-register into the shared metrics registry: the attribute
        # API above is unchanged; repro.obs sums these counters across
        # live instances at collection time (repro_pool_*_total)
        track("pool", self)

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "generated": self.generated,
            "disk_loads": self.disk_loads,
            "disk_saves": self.disk_saves,
            "deltas": self.deltas,
            "delta_touched": self.delta_touched,
        }


@dataclass(frozen=True)
class SampleBatch:
    """``theta`` live-edge samples in a flat CSR-like layout.

    Sample ``t`` survives exactly the edges (CSR positions)
    ``positions[offsets[t]:offsets[t + 1]]``.
    """

    theta: int
    offsets: np.ndarray
    positions: np.ndarray
    m: int
    """Edge count of the graph the samples were drawn from."""

    def surviving(self, t: int) -> np.ndarray:
        """Surviving edge positions of sample ``t``."""
        return self.positions[self.offsets[t]: self.offsets[t + 1]]

    def alive_matrix(self, lo: int, hi: int) -> np.ndarray:
        """Boolean ``(hi - lo, m)`` aliveness matrix of a sample slice.

        Materialises only the requested window so callers can stream
        the pool through :func:`reach_counts_from_alive` chunk by
        chunk without ever holding ``theta * m`` bools — the pooled
        evaluator's path when no compiled reach kernel is available.
        """
        if not 0 <= lo <= hi <= self.theta:
            raise ValueError(f"bad sample window [{lo}, {hi})")
        rows = np.repeat(
            np.arange(hi - lo, dtype=np.int64),
            np.diff(self.offsets[lo: hi + 1]),
        )
        alive = np.zeros((hi - lo, self.m), dtype=bool)
        alive[rows, self.positions[self.offsets[lo]: self.offsets[hi]]] = True
        return alive

    @property
    def nbytes(self) -> int:
        return int(self.offsets.nbytes + self.positions.nbytes)


def sampler_batches(sampler, theta: int) -> Iterator[SampleBatch]:
    """``theta`` draws of an :class:`~repro.sampling.EdgeSampler`, in
    order, as :class:`SampleBatch` chunks of at most
    ``_COIN_CELL_BUDGET // m`` samples (the numpy draw's bound)."""
    m = sampler.csr.m
    _check_edge_count(m)
    chunk = max(1, _COIN_CELL_BUDGET // max(m, 1))
    for lo in range(0, theta, chunk):
        draws = [
            sampler.sample_surviving_edges()
            for _ in range(min(chunk, theta - lo))
        ]
        offsets = np.cumsum([0, *map(len, draws)], dtype=np.int64)
        positions = np.concatenate(draws).astype(POSITIONS_DTYPE)
        yield SampleBatch(len(draws), offsets, positions, m)


def reach_counts(
    csr: CSRGraph,
    batch: SampleBatch,
    seeds: Sequence[int],
    blocked_sets: Sequence[Iterable[int]],
) -> np.ndarray:
    """``int64[len(blocked_sets), batch.theta]`` reach counts of
    ``seeds`` (each once) in every sample of ``batch``.

    The compiled reach kernel (:func:`~repro.native.native_reach_counts`)
    counts straight from the batch's flat arrays, one call per blocked
    set, the sets split across threads (the judge's unblocked and
    blocked sets count side by side).  Without it, the serial fallback
    streams chunks of a boolean aliveness matrix through
    :func:`reach_counts_from_alive`, materialising each chunk once for
    every blocked set instead of once per set.  Both paths count the
    same vertices.  Ids are checked first: an out-of-range seed raises
    ``IndexError``, an out-of-range or seed blocked id ``ValueError``.
    """
    seed_list = list(seeds)
    blocked_lists = [list(b) for b in blocked_sets]
    seed_arr, _ = _checked_ids(csr.n, seed_list, ())
    masks = np.array(
        [_blocked_mask(csr.n, b, seed_list) for b in blocked_lists],
        dtype=np.uint8,
    ).reshape(len(blocked_lists), csr.n)
    out = native_reach_counts(
        csr.n, csr.indptr, csr.indices, batch.positions,
        batch.offsets, batch.theta, seed_arr, masks,
    )
    if out is not None:
        return out
    out = np.empty((len(blocked_lists), batch.theta), dtype=np.int64)
    step = auto_batch_size(max(csr.m, csr.n))
    for lo in range(0, batch.theta, step):
        hi = min(lo + step, batch.theta)
        alive = batch.alive_matrix(lo, hi)
        for i, blocked_list in enumerate(blocked_lists):
            out[i, lo:hi] = reach_counts_from_alive(
                csr, seed_list, alive, blocked_list
            )
    return out


class _EvaluatorLifecycle:
    """Uniform close/context-manager surface of every backend.

    The sketch index drops its cached views on ``close()``; the other
    backends (the pool among them) have nothing to release but gain
    the same ``with build_evaluator(...) as ev:`` shape so callers —
    the CLI, the service, benchmarks — never special-case the backend
    when tearing down.
    """

    def close(self) -> None:
        """No-op: nothing to release."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class PoolDeltaReport:
    """What one :meth:`SamplePool.apply_delta` actually changed."""

    touched: np.ndarray
    """Sorted unique ids of samples whose survived-edge set changed —
    exactly the trees a sketch over this pool must rebuild."""
    theta: int
    """Samples materialised when the delta was applied."""
    inserts: int
    deletes: int
    reweights: int

    @property
    def touched_count(self) -> int:
        return int(self.touched.shape[0])


class SamplePool(_EvaluatorLifecycle):
    """Growing, optionally disk-backed pool of live-edge samples.

    Parameters
    ----------
    graph:
        Graph (or frozen CSR) whose live-edge distribution is sampled.
    rng:
        Seed / generator for the coin flips.
    cache_dir:
        Directory for persisted pools.  Created on demand.  Files are
        ``pool-<fingerprint>.{offsets,positions}.npy`` and are loaded
        memory-mapped.
    cache_key:
        Stream identity for the disk fingerprint: a pool persists
        under ``cache_dir`` only when it has one, and
        :func:`~repro.engine.build_evaluator` always passes
        ``spec.cache_key(stream)``.

    A graph with more than ``2**31 - 1`` edges raises ``ValueError``:
    positions are int32.

    The pool is the ``pooled`` spread evaluator: ``rounds`` selects
    how many pooled samples an estimate averages over, so repeated
    queries — e.g. a greedy loop probing many blocked sets — pay
    traversal cost only, and estimates share the pool's worlds
    (*common random numbers*, which cancel between-query sampling
    noise when comparing blocked sets).
    """

    def __init__(
        self,
        graph: DiGraph | CSRGraph,
        rng: RngLike = None,
        cache_dir: str | Path | None = None,
        cache_key: str | None = None,
    ) -> None:
        self.csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
        _check_edge_count(self.csr.m)
        # edge (u, v)'s coin in sample t is a pure function of
        # (root, u, v, t): a counter-based splitmix64 stream keyed by
        # the stable edge identity.  A pool attached from disk
        # continues bit-identically, any two processes sharing a seed
        # materialise identical pools regardless of growth history,
        # and a graph delta can re-decide exactly the affected edges
        # (same hash, new threshold) without touching any other coin.
        self._root = int(ensure_rng(rng).integers(2**63))
        self._chunk = max(1, _COIN_CELL_BUDGET // max(self.csr.m, 1))
        self.stats = PoolStats()
        self._theta = 0
        self._offsets = np.zeros(1, dtype=np.int64)
        self._positions = np.zeros(0, dtype=POSITIONS_DTYPE)
        self._cache_key = cache_key
        self._cache_dir = None if cache_dir is None else Path(cache_dir)
        self._cache_paths: tuple[Path, Path] | None = None
        self._cache_digest: str | None = None
        self._rekey()
        if self._cache_paths is not None:
            self._try_attach()

    def _rekey(self) -> None:
        """(Re)derive the disk identity from the current graph content.

        Called at construction and again after every applied delta —
        the fingerprint hashes the live CSR arrays, so a mutated graph
        always maps to a fresh ``pool-<digest>`` pair and can never
        rehydrate a stale pre-delta pool.
        """
        if self._cache_dir is None or self._cache_key is None:
            return
        digest = self._fingerprint(self._cache_key)
        self._cache_digest = digest
        self._cache_paths = (
            self._cache_dir / f"pool-{digest}.offsets.npy",
            self._cache_dir / f"pool-{digest}.positions.npy",
        )

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def theta(self) -> int:
        """Number of samples currently materialised."""
        return self._theta

    @property
    def nbytes(self) -> int:
        """Resident bytes of the materialised sample arrays."""
        return int(self._offsets.nbytes + self._positions.nbytes)

    @property
    def cache_paths(self) -> tuple[Path, Path] | None:
        """``(offsets, positions)`` paths of the persisted pool, or
        ``None`` for a memory-only pool.  Consumers that derive their
        own persistent artifacts from these samples (the sketch
        index's arena views) anchor their files next to — and key them
        by — the pool's."""
        return self._cache_paths

    @property
    def cache_digest(self) -> str | None:
        """Content fingerprint of the persisted pool (graph arrays +
        probabilities + stream key), or ``None`` when memory-only.
        Stable across processes, so derived artifacts keyed by it are
        shareable the same way the pool files are."""
        return self._cache_digest

    def get(self, theta: int) -> SampleBatch:
        """A batch of the pool's first ``theta`` samples.

        Serving prefixes is what makes reuse sound: the first
        ``theta`` samples are i.i.d. live-edge draws regardless of how
        large the pool has grown since.
        """
        if theta <= 0:
            raise ValueError("theta must be positive")
        if theta <= self._theta:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            with span("pool.generate"):
                self._grow(theta - self._theta)
            self._persist()
        return SampleBatch(
            theta=theta,
            offsets=self._offsets[: theta + 1],
            positions=self._positions[: self._offsets[theta]],
            m=self.csr.m,
        )

    def expected_spread(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        """Estimate of ``E(seeds, G[V \\ blocked])`` over the first
        ``rounds`` pooled samples (seeds counted, per Definition 3)."""
        return self.expected_spread_many(seeds, rounds, [list(blocked)])[0]

    def expected_spread_many(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked_sets: Sequence[Iterable[int]],
    ) -> list[float]:
        """One estimate per blocked set over the first ``rounds``
        pooled samples: each is an integer sum of the per-sample
        :func:`reach_counts` divided by ``rounds``, so batching the
        sets is invisible to callers comparing against ``len(
        blocked_sets)`` separate :meth:`expected_spread` calls.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        if not blocked_sets:
            return []
        counts = reach_counts(self.csr, self.get(rounds), seeds, blocked_sets)
        return [int(row.sum()) / rounds for row in counts]

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def _edge_positions(self, edges) -> np.ndarray:
        """CSR positions of ``(u, v)`` pairs; raises on a missing edge."""
        indptr = self.csr.indptr
        indices = self.csr.indices
        out = np.empty(len(edges), dtype=np.int64)
        for i, (u, v) in enumerate(edges):
            row = indices[indptr[u]: indptr[u + 1]]
            hits = np.nonzero(row == v)[0]
            if hits.shape[0] == 0:
                raise ValueError(f"no edge ({u}, {v}) in the graph")
            out[i] = indptr[u] + hits[0]
        return out

    def apply_delta(self, delta: GraphDelta) -> PoolDeltaReport:
        """Patch the pooled samples for a batch of edge mutations.

        The patched pool is **bit-identical** to regenerating a fresh
        pool (same seed) over the mutated graph: unaffected edges keep
        their coin stream untouched, reweighted edges re-decide the
        *same* per-sample hash against the new threshold, inserted
        edges decide theirs for the first time, and deleted edges drop
        out.  Cost is O(pool nnz + |delta| * theta) — independent of
        the edge count ``m`` that a from-scratch regeneration pays.

        The pool's CSR is swapped for the post-delta layout (deletes
        compact their row, reweights keep their slot, inserts append
        in delta order — exactly ``CSRGraph`` construction order over
        the mutated :class:`~repro.graph.DiGraph`), and a persisted
        pool is re-fingerprinted from the new content and re-saved, so
        a later process building over the mutated graph attaches these
        patched arrays instead of resampling.
        """
        with span("pool.delta"):
            return self._apply_delta(delta)

    def _apply_delta(self, delta: GraphDelta) -> PoolDeltaReport:
        csr = self.csr
        n, m = csr.n, csr.m
        top = delta.max_vertex()
        if top >= n:
            raise ValueError(
                f"vertex {top} out of range for graph with {n} vertices"
            )
        for u, v, _ in delta.inserts:
            row = csr.indices[csr.indptr[u]: csr.indptr[u + 1]]
            if np.any(row == v):
                raise ValueError(
                    f"cannot insert existing edge ({u}, {v}) — use a "
                    "reweight"
                )
        del_pos = self._edge_positions(
            [(u, v) for u, v in delta.deletes]
        )
        rew_pos = self._edge_positions(
            [(u, v) for u, v, _ in delta.reweights]
        )
        n_ins = len(delta.inserts)
        new_m = m - del_pos.size + n_ins
        _check_edge_count(new_m)
        ins_u = np.array(
            [u for u, _, _ in delta.inserts], dtype=np.int64
        )
        ins_v = np.array(
            [v for _, v, _ in delta.inserts], dtype=np.int64
        )
        ins_p = np.array(
            [p for _, _, p in delta.inserts], dtype=np.float64
        )
        rew_p = np.array(
            [p for _, _, p in delta.reweights], dtype=np.float64
        )

        # -- post-delta CSR layout + old -> new position remap --------
        keep = np.ones(m, dtype=bool)
        keep[del_pos] = False
        counts_old = np.diff(csr.indptr)
        del_counts = np.bincount(
            csr.src[del_pos], minlength=n
        ) if del_pos.size else np.zeros(n, dtype=np.int64)
        ins_counts = np.bincount(
            ins_u, minlength=n
        ) if n_ins else np.zeros(n, dtype=np.int64)
        kept_counts = counts_old - del_counts
        new_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept_counts + ins_counts, out=new_indptr[1:])
        prefix = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(keep.astype(np.int64), out=prefix[1:])
        remap = np.full(m, -1, dtype=POSITIONS_DTYPE)
        kept_j = np.nonzero(keep)[0]
        rows = csr.src[kept_j]
        remap[kept_j] = (
            new_indptr[rows]
            + prefix[kept_j + 1] - 1 - prefix[csr.indptr[rows]]
        )
        # inserts append to their row in delta order
        ins_pos = np.empty(n_ins, dtype=np.int64)
        next_slot = (new_indptr[:-1] + kept_counts).copy()
        for i in range(n_ins):
            u = int(ins_u[i])
            ins_pos[i] = next_slot[u]
            next_slot[u] += 1
        new_indices = np.empty(new_m, dtype=csr.indices.dtype)
        new_probs = np.empty(new_m, dtype=np.float64)
        new_indices[remap[kept_j]] = csr.indices[kept_j]
        new_probs[remap[kept_j]] = csr.probs[kept_j]
        if rew_pos.size:
            new_probs[remap[rew_pos]] = rew_p
        if n_ins:
            new_indices[ins_pos] = ins_v
            new_probs[ins_pos] = ins_p
        new_csr = CSRGraph.from_arrays(
            new_indptr, new_indices, new_probs
        )

        # -- drop the entries of deleted and reweighted edges ---------
        # one boolean gather over the pool finds the few dropped
        # entries; the offsets give their samples, so no per-entry
        # sample id is ever materialised
        theta = self._theta
        offsets = np.asarray(self._offsets)
        positions = np.asarray(self._positions[: offsets[theta]])
        gone = ~keep
        gone[rew_pos] = True
        dropped = np.flatnonzero(gone[positions])
        dropped_samples = np.searchsorted(
            offsets, dropped, side="right"
        ) - 1
        kept_per_sample = np.diff(offsets) - np.bincount(
            dropped_samples, minlength=theta
        )
        # samples that lose a live deleted edge are touched outright
        deleted_live = dropped_samples[~keep[positions[dropped]]]
        # the remap is monotone over kept edges, so every sample's kept
        # window stays ascending
        kept = np.delete(remap[positions], dropped)

        # reweights + inserts: hash once per (edge, sample); the
        # reweighted edges' *old* coins are recomputed the same way
        # instead of scanned out of the pool (same stream, old
        # threshold — bit-identical by construction), so a reweight
        # only touches samples whose survival actually flips
        delta_keys = np.concatenate([
            _edge_keys(
                self._root, csr.src[rew_pos], csr.indices[rew_pos]
            ) if rew_pos.size else np.zeros(0, dtype=np.uint64),
            _edge_keys(self._root, ins_u, ins_v)
            if n_ins else np.zeros(0, dtype=np.uint64),
        ])
        delta_newpos = np.concatenate([
            remap[rew_pos] if rew_pos.size
            else np.zeros(0, dtype=np.int64),
            ins_pos,
        ])
        new_thr, new_sure = _thresholds(
            np.concatenate([rew_p, ins_p])
        )
        # inserts were absent before, so their "old" threshold is 0
        old_thr, old_sure = _thresholds(np.concatenate([
            csr.probs[rew_pos] if rew_pos.size
            else np.zeros(0, dtype=np.float64),
            np.zeros(n_ins, dtype=np.float64),
        ]))
        add_samples = np.zeros(0, dtype=np.int64)
        add_pos = np.zeros(0, dtype=np.int64)
        flipped = np.zeros(0, dtype=np.int64)
        if delta_keys.size and theta:
            counters = _sample_counters(0, theta)
            step = max(1, _COIN_CELL_BUDGET // theta)
            adds_s: list[np.ndarray] = []
            adds_p: list[np.ndarray] = []
            flips: list[np.ndarray] = []
            for lo in range(0, delta_keys.size, step):
                hi = min(lo + step, delta_keys.size)
                h = _mix64(
                    delta_keys[lo:hi, None] + counters[None, :]
                )
                alive = (h < new_thr[lo:hi, None]) | new_sure[
                    lo:hi, None
                ]
                was = (h < old_thr[lo:hi, None]) | old_sure[
                    lo:hi, None
                ]
                e_idx, t_idx = np.nonzero(alive)
                adds_s.append(t_idx.astype(np.int64, copy=False))
                adds_p.append(delta_newpos[lo:hi][e_idx])
                flips.append(
                    np.nonzero(np.any(alive != was, axis=0))[0].astype(
                        np.int64, copy=False
                    )
                )
            add_samples = np.concatenate(adds_s)
            add_pos = np.concatenate(adds_p)
            flipped = np.concatenate(flips)

        report_touched = np.unique(
            np.concatenate([deleted_live, flipped])
        )

        # -- insert the additions into the kept windows ---------------
        # the additions are tiny relative to the pool: sort them by
        # (sample, position), find each one's slot by a search inside
        # its sample's kept window, and move everything in one insert
        kept_offsets = np.zeros(theta + 1, dtype=np.int64)
        np.cumsum(kept_per_sample, out=kept_offsets[1:])
        new_positions = kept
        if add_samples.size:
            order = np.lexsort((add_pos, add_samples))
            add_samples = add_samples[order]
            add_pos = add_pos[order].astype(POSITIONS_DTYPE)
            samples, starts = np.unique(add_samples, return_index=True)
            ends = [*starts[1:], add_samples.size]
            points = np.empty(add_samples.size, dtype=np.int64)
            for t, lo, hi in zip(samples, starts, ends):
                a, b = kept_offsets[t], kept_offsets[t + 1]
                points[lo:hi] = a + np.searchsorted(
                    kept[a:b], add_pos[lo:hi]
                )
            new_positions = np.insert(kept, points, add_pos)
        new_offsets = kept_offsets
        new_offsets[1:] += np.cumsum(
            np.bincount(add_samples, minlength=theta)
        )

        # -- swap state and re-key the persisted artifact -------------
        self.csr = new_csr
        self._chunk = max(1, _COIN_CELL_BUDGET // max(new_m, 1))
        self._offsets = new_offsets
        self._positions = new_positions
        self.stats.deltas += 1
        self.stats.delta_touched += int(report_touched.shape[0])
        old_digest = self._cache_digest
        self._rekey()
        if (
            self._cache_paths is not None
            and theta
            and self._cache_digest != old_digest
        ):
            self._persist()
        return PoolDeltaReport(
            touched=report_touched,
            theta=theta,
            inserts=n_ins,
            deletes=int(del_pos.size),
            reweights=int(rew_pos.size),
        )

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def _grow(self, extra: int) -> None:
        """Draw samples ``theta .. theta + extra - 1`` onto the pool.

        The compiled coin kernel (:func:`~repro.native.native_draw_samples`)
        counts each new sample's survivors, then fills one preallocated
        positions array; without it, :meth:`_draw_chunked` answers.
        Both evaluate the same keyed stream, so the samples are
        bit-identical either way.
        """
        target = self._theta + extra
        keys = _edge_keys(self._root, self.csr.src, self.csr.indices)
        thr, sure = _thresholds(self.csr.probs)
        grown = native_draw_samples(
            keys, thr, sure, self._offsets, self._positions,
            self._theta, target,
        )
        if grown is None:
            grown = self._draw_chunked(keys, thr, sure, target)
        self._offsets, self._positions = grown
        self._theta = target
        self.stats.generated += extra

    def _draw_chunked(
        self,
        keys: np.ndarray,
        thr: np.ndarray,
        sure: np.ndarray,
        target: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The numpy draw: the fallback and the bit-identity reference
        of the coin kernel."""
        m = self.csr.m
        chunk = self._chunk
        drawn = self._offsets[self._theta]
        chunks_pos: list[np.ndarray] = [np.asarray(self._positions[:drawn])]
        chunks_counts: list[np.ndarray] = []
        for lo in range(self._theta, target, chunk):
            # one (window, m) hash matrix per step, bounded by the
            # cell budget; sample content is per-(edge, sample) and
            # never depends on the window boundaries
            hi = min(lo + chunk, target)
            if m:
                h = _mix64(
                    keys[None, :] + _sample_counters(lo, hi)[:, None]
                )
                coins = (h < thr) | sure
                rows, pos = np.nonzero(coins)
                counts = np.bincount(rows, minlength=hi - lo)
                chunks_pos.append(pos.astype(POSITIONS_DTYPE))
                chunks_counts.append(counts.astype(np.int64, copy=False))
            else:
                chunks_counts.append(np.zeros(hi - lo, dtype=np.int64))
        counts = np.concatenate(chunks_counts)
        new_offsets = np.empty(target + 1, dtype=np.int64)
        new_offsets[: self._theta + 1] = self._offsets
        np.cumsum(counts, out=new_offsets[self._theta + 1:])
        new_offsets[self._theta + 1:] += self._offsets[self._theta]
        return new_offsets, np.concatenate(chunks_pos)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _fingerprint(self, cache_key: str) -> str:
        csr = self.csr
        digest = hashlib.sha256()
        digest.update(
            f"{csr.n}:{csr.m}:{_COIN_SCHEME}:{cache_key}".encode()
        )
        digest.update(np.ascontiguousarray(csr.indptr).tobytes())
        digest.update(np.ascontiguousarray(csr.indices).tobytes())
        digest.update(np.ascontiguousarray(csr.probs).tobytes())
        return digest.hexdigest()[:16]

    def _try_attach(self) -> None:
        assert self._cache_paths is not None
        off_path, pos_path = self._cache_paths
        if not (off_path.is_file() and pos_path.is_file()):
            return
        try:
            offsets = np.load(off_path, mmap_mode="r")
            positions = np.load(pos_path, mmap_mode="r")
        except (OSError, ValueError):  # corrupt/partial cache: ignore
            return
        if not _well_formed(offsets, positions):  # damaged: re-draw
            return
        self._offsets = offsets
        self._positions = positions
        self._theta = offsets.shape[0] - 1
        self.stats.disk_loads += 1

    def _persist(self) -> None:
        if self._cache_paths is None:
            return
        off_path, pos_path = self._cache_paths
        off_path.parent.mkdir(parents=True, exist_ok=True)
        # write-then-rename so concurrent readers never see a torn
        # file; positions land first — old offsets over new positions
        # is always a consistent prefix, the reverse is not
        for path, array in (
            (pos_path, self._positions),
            (off_path, self._offsets),
        ):
            # the tmp name must keep the .npy suffix or np.save appends one
            tmp = path.with_name(path.name[: -len(".npy")] + ".tmp.npy")
            np.save(tmp, np.asarray(array))
            tmp.replace(path)
        self.stats.disk_saves += 1
