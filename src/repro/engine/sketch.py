"""Dominator-tree sketch index: the paper's estimator as an engine.

The Monte-Carlo backends answer every blocked-set query by re-walking
cascades from scratch; the paper's own estimator (Section V-B/C) shows
that is wasted work.  Draw ``theta`` live-edge samples **once**, build
the dominator tree of each sample from the (virtual) source, and every
query becomes tree arithmetic:

* the expected spread of the current blocker set is the mean reachable
  count, i.e. the mean dominator-tree size (Lemma 1);
* the marginal effect of additionally blocking ``v`` is the mean
  dominator-subtree size of ``v`` — by Theorem 6 the subtree of ``v``
  is *exactly* the set of vertices cut off when ``v`` is removed from
  that sample, so per sampled world the answer is exact, and Theorem 5
  bounds the sampling error of the mean
  (:func:`repro.sampling.required_samples`).

:class:`SketchIndex` packages this as a persistent, stateful index
behind the :class:`~repro.engine.evaluator.SpreadEvaluator` protocol:

* samples come from a :class:`~repro.engine.pool.SamplePool`, so they
  are chunk-seeded (bit-identical regardless of growth history) and
  shareable with the pooled Monte-Carlo backend and across processes;
* trees are built **array-native and batched**
  (:mod:`repro.engine.treebuild`) — via the compiled batched kernel
  (:mod:`repro.native`) when the host can build it, the pure-Python
  path otherwise, bit-identical either way;
* trees are cached per sample and **rebased** incrementally: moving
  from blocker set ``B`` to ``B'`` re-derives only the samples in
  which some added blocker is currently reachable or some removed
  blocker could become reachable — untouched samples keep their trees;
* aggregated subtree sizes are maintained as one ``float64[n + 1]``
  array, so :meth:`SketchIndex.marginal_gain` is an O(1) lookup after
  the rebase and a whole greedy round of candidate gains costs one
  array read (Algorithm 2's "all candidates at once" property).

Per-sample trees live in one pooled **arena** — flat ``order``/``sizes``
arrays plus per-sample ``(start, length)`` slots (CSR-of-trees), grown
by amortised doubling when a rebuilt tree outgrows its slot.
Reachability is an **inverted membership index**: a CSR postings
structure mapping vertex -> samples whose *base* (unblocked) tree
reaches it (:func:`repro.engine.kernels.postings_csr`), built once per
view, with a per-posting aliveness bit tracking the *current* blocker
set.  A rebase unions the postings rows of the moved blockers to find
the touched samples (O(affected postings) — no Python loop over
``theta``), applies every touched sample's -/+ subtree-size delta in
one batched ``np.bincount`` scatter, patches the aliveness bits with
one ``searchsorted`` over ``v * theta + t`` keys, and writes the
rebuilt trees back into the arena in one flat scatter.

Every answer of a rebased view is bit-identical to a view built cold
at the same blocker set, and its spreads equal the pooled Monte-Carlo
backend's over the same samples; the tests pin both, plus a per-sample
reference build and the exact enumerator (:mod:`repro.spread.exact`)
on small graphs.

Multi-seed queries use a virtual super-source (id ``n``) with
deterministic edges to every seed — joint reachability on the *same*
live-edge draw, which is Lemma 1's estimator without the noisy-or
rebuild of :func:`~repro.core.problem.unify_seeds`.

RIS sketches (:mod:`repro.imax.ris`) do not transfer to blockers —
they sample reverse-reachable sets for *seed placement*; blocking
changes the graph itself, which is why this index re-derives touched
trees instead of reweighting sketches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph, GraphDelta
from ..obs import global_registry, span, track
from ..rng import RngLike
from .kernels import postings_csr, ragged_arange
from .pool import PoolDeltaReport, SampleBatch, SamplePool
from .treebuild import _payload_mask, subtree_size_sums, TreeBuilder

__all__ = ["SketchIndex", "SketchStats"]

# retained seed-set/theta views (each holds theta cached trees); greedy
# loops use one view, CLI runs use at most one per (selection, judge)
_MAX_VIEWS = 4

# on-disk arena-view format; bump on any layout/semantic change so
# stale artifacts fall back to a cold build instead of misloading
_SKETCH_FORMAT = 1

# persisted array fields of an arena view: file tag -> attribute.
# Everything a query or rebase reads is here, so a rehydrated view
# answers without building a single tree.
_ARTIFACT_FIELDS: tuple[tuple[str, str], ...] = (
    ("lengths", "_lengths"),
    ("starts", "_starts"),
    ("order", "_order_arena"),
    ("sizes", "_sizes_arena"),
    ("delta", "_delta_sum"),
    ("pindptr", "_post_indptr"),
    ("psamples", "_post_samples"),
    ("palive", "_post_alive"),
    ("pkey", "_post_key"),
    ("sindptr", "_samp_indptr"),
    ("spidx", "_samp_pidx"),
)


@dataclass
class SketchStats:
    """Observability counters for a :class:`SketchIndex`."""

    queries: int = 0
    """Spread / marginal-gain queries answered."""
    rebases: int = 0
    """Blocker-set transitions that re-derived at least one tree."""
    trees_built: int = 0
    """Dominator trees constructed (initial builds + rebases)."""
    samples_skipped: int = 0
    """Samples left untouched by a rebase (the incremental win)."""
    tree_bytes: int = 0
    """Resident bytes of the cached per-sample tree state (a live
    gauge, not a counter): grows as views are built, shrinks as views
    are evicted or the index is closed.  Always ``arena_bytes +
    postings_bytes``.  The gauge is re-synced only after a successful
    write-back, so a builder failure mid-rebase never leaves it stale.
    The serving layer adds this to its artifact byte accounting so LRU
    byte bounds reflect the tree cache, not just the sample pools."""
    arena_bytes: int = 0
    """Resident bytes of the pooled tree arenas (flat order/sizes
    arrays at capacity, plus the per-sample slot tables)."""
    postings_bytes: int = 0
    """Resident bytes of the inverted membership indexes (postings
    CSR, aliveness bits, search keys, by-sample posting table)."""
    rehydrations: int = 0
    """Arena views attached memory-mapped from a persisted artifact
    instead of cold-built — a rehydrate skips sampling *and* every
    tree build."""
    persists: int = 0
    """Arena views serialized to the artifact cache directory."""
    deltas: int = 0
    """Graph deltas applied through :meth:`SketchIndex.apply_delta` —
    each one patched the pool and rebased the cached views in place
    instead of cold-rebuilding the index."""
    delta_trees_rebuilt: int = 0
    """Dominator trees rebuilt by graph-delta rebases (summed over
    views; the incremental cost actually paid)."""
    delta_samples_skipped: int = 0
    """Samples graph-delta rebases left untouched (summed over views;
    the incremental win)."""

    def __post_init__(self) -> None:
        # re-register into the shared metrics registry: attributes stay
        # the API (the service's byte accounting reads them directly);
        # repro.obs sums them across live instances at collection time
        # (repro_sketch_* gauges/counters)
        track("sketch", self)

    def as_dict(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "rebases": self.rebases,
            "trees_built": self.trees_built,
            "samples_skipped": self.samples_skipped,
            "tree_bytes": self.tree_bytes,
            "arena_bytes": self.arena_bytes,
            "postings_bytes": self.postings_bytes,
            "rehydrations": self.rehydrations,
            "persists": self.persists,
            "deltas": self.deltas,
            "delta_trees_rebuilt": self.delta_trees_rebuilt,
            "delta_samples_skipped": self.delta_samples_skipped,
        }


def _delta_metrics():
    """The explicit ``repro_delta_*`` instruments (get-or-create).

    Created lazily so importing this module never populates the global
    registry; the per-apply duration is already covered by the
    ``sketch.delta`` / ``pool.delta`` span histograms.
    """
    registry = global_registry()
    touched = registry.histogram(
        "repro_delta_touched_samples",
        "Pooled samples whose survived-edge set one graph delta "
        "changed (the trees a sketch must rebuild)",
        buckets=(0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0),
    )
    rebuilt = registry.counter(
        "repro_delta_trees_rebuilt_total",
        "Dominator trees rebuilt by incremental graph-delta rebases",
    )
    return touched, rebuilt


def _delta_sources(delta: GraphDelta) -> list[int]:
    """Source vertices of every edge the delta names, sorted.

    A changed edge can only alter a sample's reachable set if its
    *source* is reachable in that sample before the delta (the first
    newly traversed delta edge must hang off the old reachable set;
    a removed edge only mattered if it was traversed) — so postings
    rows of these vertices bound the trees a delta can touch.
    """
    return sorted(
        {u for u, _, _ in delta.inserts}
        | {u for u, _ in delta.deletes}
        | {u for u, _, _ in delta.reweights}
    )


class _ArenaSketchView:
    """Per-(seed set, theta) tree cache, pooled-arena layout.

    All ``theta`` trees live in two flat int64 arenas (``order`` and
    ``sizes`` payloads) addressed by per-sample ``(start, length)``
    slots; reachability lives in an inverted membership index (vertex
    -> samples, CSR postings with an aliveness bit per posting).
    Every rebase step — touch detection, -/+ delta aggregation,
    postings patching, tree write-back — is a constant number of numpy
    calls over the touched slice, with no Python loop over samples.
    Answers after any rebase are bit-identical to a view built cold at
    the same blocker set.
    """

    def __init__(
        self,
        csr: CSRGraph,
        batch: SampleBatch,
        seeds: tuple[int, ...],
        stats: SketchStats,
        builder: TreeBuilder,
    ) -> None:
        self.csr = csr
        self.batch = batch
        self.seeds = seeds
        self.stats = stats
        self.builder = builder
        self.root = csr.n  # virtual super-source
        self.theta = batch.theta
        self.blocked: frozenset[int] = frozenset()
        self._writable = True
        n = csr.n
        self._accounted_arena = 0
        self._accounted_postings = 0

        # ---- cold build: one packed batch, written as the arena ----
        lengths, orders, sizes = builder.build_packed(
            batch, range(self.theta), seeds, ()
        )
        stats.trees_built += self.theta
        self._lengths = lengths.astype(np.int64, copy=True)
        starts = np.zeros(self.theta, dtype=np.int64)
        np.cumsum(self._lengths[:-1], out=starts[1:])
        self._starts = starts
        self._used = int(self._lengths.sum())
        self._order_arena = np.ascontiguousarray(orders, dtype=np.int64)
        self._sizes_arena = np.ascontiguousarray(sizes, dtype=np.int64)
        self._spread_sum = int(self._used - self.theta)
        self._delta_sum = subtree_size_sums(
            self._lengths, self._order_arena, self._sizes_arena, n
        )
        self._rebuild_postings()
        self._sync_bytes()

    # ------------------------------------------------------------------
    # persistence: .npy artifacts next to the sample pool's cache
    # ------------------------------------------------------------------
    def save(self, prefix: Path) -> bool:
        """Serialize this view's **base** state as mmap-able ``.npy``
        files under ``prefix`` (plus a ``.meta.json`` descriptor).

        Only the unrebased state is ever written (the cold build calls
        this before any query moves the blocker set), so every reader
        rehydrates the same bit-identical starting point.  Each file
        is written tmp-then-rename; the meta descriptor lands last and
        acts as the commit marker — a crash mid-save leaves no
        loadable artifact.  I/O failures are reported as ``False``
        (persistence is an optimisation, never a correctness gate).
        """
        if self.blocked:
            return False
        arrays = dict(self._artifact_arrays())
        try:
            prefix.parent.mkdir(parents=True, exist_ok=True)
            for tag, _ in _ARTIFACT_FIELDS:
                path = _artifact_file(prefix, tag)
                tmp = path.with_name(
                    path.name[: -len(".npy")] + ".tmp.npy"
                )
                np.save(tmp, np.asarray(arrays[tag]))
                tmp.replace(path)
            meta = {
                "format": _SKETCH_FORMAT,
                "n": int(self.csr.n),
                "theta": int(self.theta),
                "seeds": [int(s) for s in self.seeds],
                "used": int(self._used),
                "spread_sum": int(self._spread_sum),
            }
            meta_path = _artifact_file(prefix, "meta", suffix=".json")
            tmp = meta_path.with_name(meta_path.name + ".tmp")
            tmp.write_text(json.dumps(meta, separators=(",", ":")))
            tmp.replace(meta_path)
        except OSError:
            return False
        self.stats.persists += 1
        return True

    def _artifact_arrays(self):
        """``(tag, array)`` pairs in persisted form (arenas trimmed to
        ``used`` — a fresh cold build has no slack, and slack must not
        be persisted anyway)."""
        for tag, attr in _ARTIFACT_FIELDS:
            array = getattr(self, attr)
            if attr in ("_order_arena", "_sizes_arena"):
                array = array[: self._used]
            yield tag, array

    @classmethod
    def from_artifact(
        cls,
        csr: CSRGraph,
        batch: SampleBatch,
        seeds: tuple[int, ...],
        stats: SketchStats,
        builder: TreeBuilder,
        prefix: Path,
    ) -> "_ArenaSketchView | None":
        """Rehydrate a persisted base view, memory-mapped read-only.

        Returns ``None`` (caller cold-builds) unless a complete,
        format- and identity-matching artifact exists.  The attached
        arrays are copy-on-write at the view level: queries read the
        shared pages directly; the first rebase promotes the mutable
        arrays to private copies (:meth:`_promote`) while the large
        immutable postings structures stay mapped forever.
        """
        meta_path = _artifact_file(prefix, "meta", suffix=".json")
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            return None
        if (
            meta.get("format") != _SKETCH_FORMAT
            or meta.get("n") != csr.n
            or meta.get("theta") != batch.theta
            or tuple(meta.get("seeds", ())) != tuple(seeds)
        ):
            return None
        arrays = {}
        try:
            for tag, _ in _ARTIFACT_FIELDS:
                arrays[tag] = np.load(
                    _artifact_file(prefix, tag), mmap_mode="r"
                )
        except (OSError, ValueError):
            return None
        used = int(meta.get("used", -1))
        theta = batch.theta
        if not _artifact_shapes_ok(arrays, csr.n, theta, used):
            return None
        view = cls.__new__(cls)
        view.csr = csr
        view.batch = batch
        view.seeds = seeds
        view.stats = stats
        view.builder = builder
        view.root = csr.n
        view.theta = theta
        view.blocked = frozenset()
        view._writable = False
        view._used = used
        view._spread_sum = int(meta["spread_sum"])
        view._accounted_arena = 0
        view._accounted_postings = 0
        for tag, attr in _ARTIFACT_FIELDS:
            setattr(view, attr, arrays[tag])
        view._sync_bytes()
        stats.rehydrations += 1
        return view

    def _promote(self) -> None:
        """First-write promotion of a rehydrated view.

        Copies exactly the arrays a rebase mutates — the delta sums,
        aliveness bits, arenas and slot tables — into private writable
        memory.  The postings CSR, search keys and by-sample table are
        immutable for the view's lifetime and keep reading the shared
        mapping, so promotion costs one pass over the mutable half
        only.  No-op for cold-built (already private) views.
        """
        if self._writable:
            return
        for attr in (
            "_delta_sum",
            "_post_alive",
            "_order_arena",
            "_sizes_arena",
            "_starts",
            "_lengths",
        ):
            setattr(self, attr, np.array(getattr(self, attr)))
        self._writable = True

    # ------------------------------------------------------------------
    # byte accounting (all gauges re-synced only after success)
    # ------------------------------------------------------------------
    def _arena_nbytes(self) -> int:
        return int(
            self._order_arena.nbytes
            + self._sizes_arena.nbytes
            + self._starts.nbytes
            + self._lengths.nbytes
        )

    def _postings_nbytes(self) -> int:
        return int(
            self._post_indptr.nbytes
            + self._post_samples.nbytes
            + self._post_alive.nbytes
            + self._post_key.nbytes
            + self._samp_indptr.nbytes
            + self._samp_pidx.nbytes
        )

    def _sync_bytes(self) -> None:
        # tree_bytes is by definition the arena + postings total, so
        # its delta derives from the other two gauges — one source of
        # truth, no third accumulator to drift
        arena = self._arena_nbytes()
        postings = self._postings_nbytes()
        delta_arena = arena - self._accounted_arena
        delta_postings = postings - self._accounted_postings
        self.stats.arena_bytes += delta_arena
        self.stats.postings_bytes += delta_postings
        self.stats.tree_bytes += delta_arena + delta_postings
        self._accounted_arena = arena
        self._accounted_postings = postings

    def drop(self) -> None:
        """Release the arena and postings (view eviction / close)."""
        self.stats.arena_bytes -= self._accounted_arena
        self.stats.postings_bytes -= self._accounted_postings
        self.stats.tree_bytes -= (
            self._accounted_arena + self._accounted_postings
        )
        self._accounted_arena = 0
        self._accounted_postings = 0
        empty = np.zeros(0, dtype=np.int64)
        self._order_arena = self._sizes_arena = empty
        self._starts = self._lengths = empty
        self._post_indptr = self._post_samples = empty
        self._post_key = self._samp_indptr = self._samp_pidx = empty
        self._post_alive = np.zeros(0, dtype=bool)
        self._used = 0

    # ------------------------------------------------------------------
    # rebase: move the committed blocker set, touching few samples
    # ------------------------------------------------------------------
    def _touched(
        self, added: frozenset[int], removed: frozenset[int]
    ) -> np.ndarray:
        """Samples needing a rebuild: union of the postings rows of
        every moved blocker — *currently alive* postings for added
        blockers (is the vertex reachable right now?), *base* postings
        for removed ones (could unblocking expose it?)."""
        parts: list[np.ndarray] = []
        if added:
            rows = self._postings_rows(added)
            parts.append(self._post_samples[rows[self._post_alive[rows]]])
        if removed:
            parts.append(self._post_samples[self._postings_rows(removed)])
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def _postings_rows(self, vertices: Iterable[int]) -> np.ndarray:
        """Concatenated posting indices of the given vertices' rows."""
        vs = np.asarray(sorted(vertices), dtype=np.int64)
        counts = self._post_indptr[vs + 1] - self._post_indptr[vs]
        return np.repeat(self._post_indptr[vs], counts) + ragged_arange(
            counts
        )

    def rebase(self, blocked: frozenset[int]) -> None:
        if blocked == self.blocked:
            return
        with span("sketch.rebase"):
            touched = self._touched(
                blocked - self.blocked, self.blocked - blocked
            )
            if touched.shape[0]:
                # build first: a builder failure raises here, before
                # any state (deltas, postings, arena, byte gauges) is
                # touched
                lengths, orders, sizes = self.builder.build_packed(
                    self.batch, touched, self.seeds, sorted(blocked)
                )
                self.stats.trees_built += int(touched.shape[0])
                # first write into a rehydrated view: promote the
                # mutable arrays to private copies (after the build,
                # so a builder failure leaves the mapping untouched)
                self._promote()
                self._writeback(touched, lengths, orders, sizes)
                self.stats.rebases += 1
                self._sync_bytes()
            self.blocked = blocked
            self.stats.samples_skipped += self.theta - int(
                touched.shape[0]
            )

    def _writeback(
        self,
        touched: np.ndarray,
        lengths: np.ndarray,
        orders: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Swap the touched samples' trees: one batched delta scatter,
        one postings patch, one arena scatter."""
        # postings patch: kill every touched sample's postings, then
        # revive the (vertex, sample) pairs its new tree still reaches
        # — new reachability is always a subset of base reachability,
        # so every pair resolves to an existing posting.  (Graph
        # deltas break that invariant, which is why apply_delta
        # rebuilds the postings instead of patching them.)
        new_mask = _payload_mask(lengths)
        kill_counts = (
            self._samp_indptr[touched + 1] - self._samp_indptr[touched]
        )
        kill = np.repeat(
            self._samp_indptr[touched], kill_counts
        ) + ragged_arange(kill_counts)
        self._post_alive[self._samp_pidx[kill]] = False
        revive_keys = orders[new_mask] * self.theta + np.repeat(
            touched, lengths - 1
        )
        self._post_alive[
            np.searchsorted(self._post_key, revive_keys)
        ] = True

        self._scatter_trees(touched, lengths, orders, sizes)

    def _scatter_trees(
        self,
        touched: np.ndarray,
        lengths: np.ndarray,
        orders: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Delta aggregation plus arena write-back of rebuilt trees —
        the postings-agnostic half shared by blocker rebases and graph
        deltas."""
        old_lengths = self._lengths[touched]
        old_flat = np.repeat(
            self._starts[touched], old_lengths
        ) + ragged_arange(old_lengths)
        # -/+ subtree-size totals of every touched sample (exact
        # integer sums, so the reordering vs per-sample scatters cancels)
        n = self.csr.n
        self._delta_sum += subtree_size_sums(
            lengths, orders, sizes, n
        ) - subtree_size_sums(
            old_lengths, self._order_arena[old_flat],
            self._sizes_arena[old_flat], n,
        )
        self._spread_sum += int(lengths.sum()) - int(old_lengths.sum())

        # arena write-back: in place when the new tree fits its slot
        # (the common case — blocking shrinks trees), appended with
        # amortised doubling when it grew (blockers removed)
        fits = lengths <= old_lengths
        dest = np.where(fits, self._starts[touched], 0)
        if not fits.all():
            grow_lengths = lengths[~fits]
            total = int(grow_lengths.sum())
            self._ensure_capacity(self._used + total)
            grow_starts = np.zeros(grow_lengths.shape[0], dtype=np.int64)
            np.cumsum(grow_lengths[:-1], out=grow_starts[1:])
            dest[~fits] = self._used + grow_starts
            self._used += total
        dest_flat = np.repeat(dest, lengths) + ragged_arange(lengths)
        self._order_arena[dest_flat] = orders
        self._sizes_arena[dest_flat] = sizes
        self._starts[touched] = dest
        self._lengths[touched] = lengths

    def _ensure_capacity(self, need: int) -> None:
        cap = self._order_arena.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        for name in ("_order_arena", "_sizes_arena"):
            grown = np.empty(new_cap, dtype=np.int64)
            grown[: self._used] = getattr(self, name)[: self._used]
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # graph deltas: swap the graph under the view, rebuild few trees
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        csr: CSRGraph,
        batch: SampleBatch,
        touched: np.ndarray,
        builder: TreeBuilder,
        delta: GraphDelta,
    ) -> int:
        """Move this view onto the post-delta graph and samples.

        Caller contract (:meth:`SketchIndex.apply_delta`): the view
        was parked at the unblocked base while the *old* pool state
        was live, so current trees equal base trees and the rebuilt
        postings below need no aliveness patch; ``touched`` is the
        pool's exact changed-sample set for this view's theta prefix.

        The postings rows of the delta's source vertices narrow
        ``touched`` further — a changed edge no sample's base tree
        reaches the source of cannot change any tree
        (:func:`_delta_sources`) — then only the surviving samples'
        trees are rebuilt and scattered into the arena.  The arena is
        re-compacted into cold-build order and the inverted membership
        index is rebuilt from the post-delta trees (a graph insert can
        extend reachability beyond the old base, so the kill/revive
        patch of blocker rebases does not apply).  The resulting view
        state is bit-identical to a cold build over the mutated graph.
        Returns the number of trees rebuilt.
        """
        sources = _delta_sources(delta)
        if touched.shape[0] and sources:
            reach = np.unique(
                self._post_samples[self._postings_rows(sources)]
            )
            touched = touched[
                np.isin(touched, reach, assume_unique=True)
            ]
        self.csr = csr
        self.batch = batch
        self.builder = builder
        count = int(touched.shape[0])
        if count:
            # build first: a builder failure raises here, before any
            # state is touched (same discipline as rebase)
            lengths, orders, sizes = builder.build_packed(
                batch, touched, self.seeds, ()
            )
            self.stats.trees_built += count
            self._promote()
            self._scatter_trees(touched, lengths, orders, sizes)
        if self._used != int(self._lengths.sum()):
            # relocated slots (from this delta or earlier blocker
            # rebases) leave dead slack a persisted artifact must not
            # carry: repack into cold-build order
            self._promote()
            self._compact()
        if count:
            self._rebuild_postings()
        self._sync_bytes()
        return count

    def _compact(self) -> None:
        """Repack the arena contiguously in sample order — the exact
        layout a cold build produces."""
        flat = np.repeat(self._starts, self._lengths) + ragged_arange(
            self._lengths
        )
        self._order_arena = self._order_arena[flat]
        self._sizes_arena = self._sizes_arena[flat]
        starts = np.zeros(self.theta, dtype=np.int64)
        np.cumsum(self._lengths[:-1], out=starts[1:])
        self._starts = starts
        self._used = int(self._lengths.sum())

    def _rebuild_postings(self) -> None:
        """Build the inverted membership index from the current arena
        (all postings alive — only valid parked at the unblocked base,
        where current trees are the base trees)."""
        n = self.csr.n
        counts = self._lengths - 1
        flat = np.repeat(self._starts, self._lengths) + ragged_arange(
            self._lengths
        )
        verts = self._order_arena[flat[_payload_mask(self._lengths)]]
        sample_ids = np.repeat(
            np.arange(self.theta, dtype=np.int64), counts
        )
        self._post_indptr, self._post_samples = postings_csr(
            sample_ids, verts, n
        )
        self._post_alive = np.ones(
            self._post_samples.shape[0], dtype=bool
        )
        # keys v * theta + t are globally ascending (vertex-major rows,
        # samples ascending within a row): one searchsorted resolves
        # arbitrary (vertex, sample) pairs to posting indices
        self._post_key = (
            np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self._post_indptr)
            )
            * self.theta
            + self._post_samples
        )
        # by-sample view of the same postings: row t lists the posting
        # indices of sample t's base-reachable vertices
        self._samp_indptr = np.zeros(self.theta + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self._post_samples, minlength=self.theta),
            out=self._samp_indptr[1:],
        )
        self._samp_pidx = np.argsort(self._post_samples, kind="stable")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spread(self, blocked: frozenset[int]) -> float:
        self.rebase(blocked)
        self.stats.queries += 1
        return self._spread_sum / self.theta

    def gain(self, v: int, blocked: frozenset[int]) -> float:
        self.rebase(blocked)
        self.stats.queries += 1
        if v in blocked:
            return 0.0
        return float(self._delta_sum[v]) / self.theta

    def gains(self, blocked: frozenset[int]) -> np.ndarray:
        """Every vertex's marginal decrease at once (Algorithm 2)."""
        with span("sketch.gains"):
            self.rebase(blocked)
            self.stats.queries += 1
            return self._delta_sum[: self.csr.n] / self.theta


def _artifact_file(prefix: Path, tag: str, suffix: str = ".npy") -> Path:
    """Path of one artifact field: ``<prefix>.<tag><suffix>``."""
    return prefix.with_name(f"{prefix.name}.{tag}{suffix}")


def _artifact_shapes_ok(
    arrays: dict[str, np.ndarray], n: int, theta: int, used: int
) -> bool:
    """Structural validation of a loaded artifact set.

    Cheap invariant checks (shapes consistent with the graph size,
    ``theta`` and the recorded arena usage) so a truncated or
    mismatched file set degrades to a cold build instead of an
    out-of-bounds read deep inside a query.
    """
    if used < theta or used != int(arrays["lengths"].sum()):
        return False
    postings = arrays["psamples"].shape[0]
    expected = {
        "lengths": theta,
        "starts": theta,
        "order": used,
        "sizes": used,
        "delta": n + 1,
        "pindptr": n + 1,
        "psamples": postings,
        "palive": postings,
        "pkey": postings,
        "sindptr": theta + 1,
        "spidx": postings,
    }
    return all(
        arrays[tag].ndim == 1 and arrays[tag].shape[0] == size
        for tag, size in expected.items()
    ) and bool(arrays["palive"].dtype == np.bool_)


class SketchIndex:
    """Persistent dominator-tree sketches behind ``SpreadEvaluator``.

    Parameters
    ----------
    graph:
        Graph (or frozen CSR) whose live-edge distribution is sampled.
    rng:
        Seed / generator for the sample pool.  An integer seed makes
        results bit-reproducible (and keys the optional disk cache).
    pool:
        Share an existing :class:`SamplePool` (e.g. with a pooled
        Monte-Carlo evaluator) instead of creating one.
    cache_dir / cache_key:
        Sample-pool persistence knobs, forwarded verbatim.

    ``rounds`` in the evaluator protocol selects ``theta``, the number
    of pooled samples the sketches are built from — the Theorem 5
    knob, see :func:`repro.sampling.required_samples` /
    :func:`repro.sampling.resolve_theta`.
    """

    backend = "sketch"

    def __init__(
        self,
        graph: DiGraph | CSRGraph,
        rng: RngLike = None,
        pool: SamplePool | None = None,
        cache_dir=None,
        cache_key: str | None = None,
    ) -> None:
        if pool is not None:
            self.pool = pool
        else:
            self.pool = SamplePool(
                graph, rng, cache_dir=cache_dir, cache_key=cache_key
            )
        self.csr = self.pool.csr
        self.builder = TreeBuilder(self.csr)
        self.stats = SketchStats()
        self._views: dict[tuple[tuple[int, ...], int], _ArenaSketchView] = {}

    # ------------------------------------------------------------------
    # view management
    # ------------------------------------------------------------------
    def _view(self, seeds: Sequence[int], theta: int):
        if theta <= 0:
            raise ValueError("theta must be positive")
        seed_tuple = tuple(dict.fromkeys(int(s) for s in seeds))
        if not seed_tuple:
            raise ValueError("at least one seed is required")
        for s in seed_tuple:
            if not 0 <= s < self.csr.n:
                raise IndexError(f"seed {s} is not a vertex")
        key = (seed_tuple, theta)
        # pop-then-reinsert both refreshes LRU recency and stays safe
        # against a concurrent close() clearing the dict between the
        # lookup and the refresh (the serving layer's eviction path)
        view = self._views.pop(key, None)
        if view is None:
            batch = self.pool.get(theta)
            prefix = self._artifact_prefix(seed_tuple, theta)
            if prefix is not None:
                view = _ArenaSketchView.from_artifact(
                    self.csr, batch, seed_tuple, self.stats,
                    self.builder, prefix,
                )
            if view is None:
                with span("sketch.build"):
                    view = _ArenaSketchView(
                        self.csr,
                        batch,
                        seed_tuple,
                        self.stats,
                        self.builder,
                    )
                if prefix is not None:
                    view.save(prefix)
        self._views[key] = view
        while len(self._views) > _MAX_VIEWS:
            self._views.pop(next(iter(self._views))).drop()
        return view

    def _artifact_prefix(
        self, seeds: tuple[int, ...], theta: int
    ) -> Path | None:
        """On-disk prefix for this view's persisted arena artifact, or
        ``None`` when the pool is not disk-backed.

        The key piggybacks on the sample pool's cache digest — which
        already fingerprints the graph structure, probabilities and
        cache key — extended with the artifact format version,
        ``theta`` and the seed set, so any semantic change lands on a
        fresh file name and stale artifacts are simply never loaded.
        (The literal ``arena`` segment is part of every persisted
        name: dropping it would orphan existing artifacts.)
        """
        digest = self.pool.cache_digest
        paths = self.pool.cache_paths
        if digest is None or paths is None:
            return None
        seed_key = ",".join(str(s) for s in seeds)
        key = (
            f"{digest}:v{_SKETCH_FORMAT}:arena"
            f":theta{theta}:seeds{seed_key}"
        )
        short = hashlib.sha256(key.encode()).hexdigest()[:16]
        return Path(paths[0]).parent / f"sketch-{short}"

    @property
    def nbytes(self) -> int:
        """Resident bytes of the cached per-sample tree state (arenas
        plus postings of every cached view)."""
        return self.stats.tree_bytes

    # ------------------------------------------------------------------
    # incremental graph updates
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> PoolDeltaReport:
        """Apply a batch of edge mutations end to end, in place.

        Patches the shared sample pool bit-identically to resampling
        the mutated graph (:meth:`SamplePool.apply_delta`), swaps the
        frozen CSR and tree builder for post-delta ones, and rebases
        every cached view by rebuilding only the trees of samples
        whose survived-edge set changed — everything else (arena
        slots, postings rows, aggregated gains of untouched samples)
        is kept.  Views parked on a non-empty blocker set are first
        rebased to the unblocked base (their next query re-rebases),
        and persistable views are re-saved under the post-delta
        artifact key, so a later process over the mutated graph
        rehydrates the patched state.  Returns the pool's report.
        """
        with span("sketch.delta"):
            # park every view at the unblocked base while the OLD
            # pool and CSR are still live: after this, current trees
            # == base trees in every view, the contract the per-view
            # delta path relies on
            for view in self._views.values():
                view.rebase(frozenset())
            report = self.pool.apply_delta(delta)
            self.csr = self.pool.csr
            self.builder = TreeBuilder(self.csr)
            touched_hist, rebuilt_counter = _delta_metrics()
            touched_hist.observe(report.touched_count)
            for (seed_tuple, theta), view in self._views.items():
                batch = self.pool.get(theta)
                touched = report.touched[report.touched < theta]
                rebuilt = view.apply_delta(
                    self.csr, batch, touched, self.builder, delta
                )
                self.stats.delta_trees_rebuilt += rebuilt
                self.stats.delta_samples_skipped += theta - rebuilt
                rebuilt_counter.inc(rebuilt)
                prefix = self._artifact_prefix(seed_tuple, theta)
                if prefix is not None:
                    view.save(prefix)
            self.stats.deltas += 1
            return report

    def close(self) -> None:
        """Drop the cached views (and join the evaluator lifecycle)."""
        views = list(self._views.values())
        self._views.clear()
        for view in views:
            view.drop()

    def __enter__(self) -> "SketchIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _blocked_set(
        self, seeds: Sequence[int], blocked: Iterable[int]
    ) -> frozenset[int]:
        blocked_set = frozenset(int(v) for v in blocked)
        n = self.csr.n
        for v in blocked_set:
            if not 0 <= v < n:
                raise ValueError(
                    f"blocked vertex {v} out of range [0, {n})"
                )
        for s in seeds:
            if int(s) in blocked_set:
                raise ValueError(f"seed {s} cannot be blocked")
        return blocked_set

    # ------------------------------------------------------------------
    # SpreadEvaluator protocol + sketch-specific queries
    # ------------------------------------------------------------------
    def expected_spread(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        """Sketch estimate of ``E(seeds, G[V \\ blocked])`` over
        ``rounds`` pooled samples (seeds counted, per Definition 3)."""
        blocked_set = self._blocked_set(seeds, blocked)
        return self._view(seeds, rounds).spread(blocked_set)

    def marginal_gain(
        self,
        v: int,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> float:
        """Estimated spread decrease from *additionally* blocking ``v``.

        Exact per sampled world (Theorem 6): equals
        ``expected_spread(seeds, rounds, blocked) -
        expected_spread(seeds, rounds, blocked + [v])`` on the same
        samples, at the cost of an array lookup.  ``v`` must be a real
        vertex: out-of-range ids raise ``ValueError`` (they would
        otherwise silently read the virtual root's slot or fall off
        the gain array).
        """
        v = int(v)
        if not 0 <= v < self.csr.n:
            raise ValueError(
                f"vertex {v} out of range [0, {self.csr.n})"
            )
        blocked_set = self._blocked_set(seeds, blocked)
        return self._view(seeds, rounds).gain(v, blocked_set)

    def decrease_estimates(
        self,
        seeds: Sequence[int],
        rounds: int,
        blocked: Iterable[int] = (),
    ) -> np.ndarray:
        """``float64[n]`` of every vertex's marginal decrease at once —
        the sketch form of Algorithm 2's output (0 for unreachable or
        already-blocked vertices)."""
        blocked_set = self._blocked_set(seeds, blocked)
        return self._view(seeds, rounds).gains(blocked_set)
