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

* samples come from a borrowed :class:`~repro.engine.pool.SamplePool`,
  so they are chunk-seeded (bit-identical regardless of growth
  history) and shared with the pool's own ``pooled`` spread answers
  and across processes;
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
arrays plus per-sample ``(start, length)`` slots (CSR-of-trees).  Each
view keeps an immutable **base**, the unblocked trees laid out in
sample order, beside its current state: blocking only removes reach,
so every rebuilt tree fits its base slot, and a return to the empty
blocker set copies the base back instead of rebuilding a single tree.
Reachability is an **inverted membership index**: a CSR postings
structure mapping vertex -> samples whose base tree reaches it
(:func:`repro.engine.kernels.postings_csr`), built once per base, with
a per-posting aliveness bit tracking the *current* blocker set.  A
rebase unions the postings rows of the moved blockers to find the
touched samples (O(affected postings) — no Python loop over
``theta``), applies every touched sample's -/+ subtree-size delta in
one batched ``np.bincount`` scatter, patches the aliveness bits with
one ``searchsorted`` of sorted ``v * theta + t`` keys, and writes the
rebuilt trees into their base slots in one flat scatter.

Every answer of a rebased view is bit-identical to a view built cold
at the same blocker set, and its spreads equal the ``pooled`` backend's
(the pool's own) over the same samples; the tests pin both, plus a
per-sample reference build and the exact enumerator
(:mod:`repro.spread.exact`) on small graphs.

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

from ..graph import CSRGraph, GraphDelta
from ..obs import global_registry, span, track
from .kernels import _checked_ids, postings_order, ragged_arange
from .pool import (
    _EvaluatorLifecycle,
    PoolDeltaReport,
    SampleBatch,
    SamplePool,
)
from .treebuild import _payload_mask, subtree_size_sums, TreeBuilder

__all__ = ["SketchIndex", "SketchStats"]

# retained seed-set/theta views (each holds theta cached trees); greedy
# loops use one view, CLI runs use at most one per (selection, judge)
_MAX_VIEWS = 4

# on-disk arena-view format; bump on any layout/semantic change so
# stale artifacts fall back to a cold build instead of misloading
_SKETCH_FORMAT = 1

# persisted array fields of an arena view's base: file tag ->
# attribute.  Everything a query or rebase reads is here, so a
# rehydrated view answers without building a single tree.
_ARTIFACT_FIELDS: tuple[tuple[str, str], ...] = (
    ("lengths", "_base_lengths"),
    ("starts", "_starts"),
    ("order", "_base_order"),
    ("sizes", "_base_sizes"),
    ("delta", "_base_delta"),
    ("pindptr", "_post_indptr"),
    ("psamples", "_post_samples"),
    ("palive", "_base_alive"),
    ("pkey", "_post_key"),
    ("sindptr", "_samp_indptr"),
    ("spidx", "_samp_pidx"),
)

# the current state a rebase writes -> the base array it starts from
_CURRENT_FIELDS: tuple[tuple[str, str], ...] = (
    ("_lengths", "_base_lengths"),
    ("_order_arena", "_base_order"),
    ("_sizes_arena", "_base_sizes"),
    ("_delta_sum", "_base_delta"),
    ("_post_alive", "_base_alive"),
)


@dataclass
class SketchStats:
    """Observability counters for a :class:`SketchIndex`."""

    queries: int = 0
    """Spread / marginal-gain queries answered."""
    rebases: int = 0
    """Blocker-set transitions that re-derived at least one tree."""
    restores: int = 0
    """Returns to the empty blocker set, answered by copying a view's
    unblocked base back instead of building trees."""
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
    """Resident bytes of the pooled tree arenas: the base and current
    order/sizes payloads, slot tables and subtree-size sums, each
    distinct array once (current arrays alias the base until a rebase
    writes)."""
    postings_bytes: int = 0
    """Resident bytes of the inverted membership indexes (postings
    CSR, search keys, by-sample posting table, and the base and
    current aliveness bits)."""
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
            "restores": self.restores,
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

    The view holds an immutable **base** — the unblocked trees of all
    ``theta`` samples in two flat int64 arenas (``order`` and
    ``sizes`` payloads) laid out in sample order, their fixed
    per-sample ``start`` slots, their subtree-size sums, and an
    inverted membership index (vertex -> samples, CSR postings) — and
    a **current** state at the committed blocker set: per-sample
    lengths, the two arenas, the sums and one aliveness bit per
    posting.  The current arrays alias the base until the first write
    (copy-on-write), and a return to the empty blocker set copies the
    base back into them.  Every rebase step — touch detection, -/+
    delta aggregation, postings patching, tree write-back — is a
    constant number of numpy calls over the touched slice, with no
    Python loop over samples.  Answers after any rebase are
    bit-identical to a view built cold at the same blocker set.
    """

    def __init__(
        self,
        csr: CSRGraph,
        batch: SampleBatch,
        seeds: tuple[int, ...],
        stats: SketchStats,
        builder: TreeBuilder,
    ) -> None:
        self._attach(csr, batch, seeds, stats, builder)
        # cold build: one packed batch, laid out as the base
        lengths, orders, sizes = builder.build_packed(
            batch, range(self.theta), seeds, ()
        )
        stats.trees_built += self.theta
        self._take_base(lengths, orders, sizes)
        self._sync_bytes()

    def _attach(
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
        self.theta = batch.theta
        self._accounted_arena = 0
        self._accounted_postings = 0

    def _take_base(
        self, lengths: np.ndarray, orders: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Make a full unblocked payload (all ``theta`` trees, in sample
        order) the base, derive its sums and postings, and reset the
        current state to it."""
        self._base_lengths = lengths.astype(np.int64, copy=True)
        self._starts = np.zeros(self.theta, dtype=np.int64)
        np.cumsum(self._base_lengths[:-1], out=self._starts[1:])
        self._base_order = np.ascontiguousarray(orders, dtype=np.int64)
        self._base_sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        self._base_spread = int(self._base_order.shape[0] - self.theta)
        self._base_delta = subtree_size_sums(
            self._base_lengths, self._base_order, self._base_sizes,
            self.csr.n,
        )
        self._build_postings()
        self._reset_to_base()

    def _reset_to_base(self) -> None:
        """Point the current state at the base (no copy until a rebase
        writes, :meth:`_promote`)."""
        for current, base in _CURRENT_FIELDS:
            setattr(self, current, getattr(self, base))
        self._spread_sum = self._base_spread
        self._writable = False
        self.blocked: frozenset[int] = frozenset()

    def _promote(self) -> None:
        """First write since the base was taken: copy the current
        arrays out of the base (for a rehydrated view, out of the
        read-only mapping).  The postings CSR, search keys and
        by-sample table are immutable until the next graph delta and
        are never copied."""
        if self._writable:
            return
        for current, base in _CURRENT_FIELDS:
            setattr(self, current, np.array(getattr(self, base)))
        self._writable = True

    def _restore(self) -> None:
        """Return to the empty blocker set by copying the base into the
        current arrays; no tree is built."""
        if self._writable:
            for current, base in _CURRENT_FIELDS:
                np.copyto(getattr(self, current), getattr(self, base))
        self._spread_sum = self._base_spread
        self.stats.restores += 1

    # ------------------------------------------------------------------
    # persistence: .npy artifacts next to the sample pool's cache
    # ------------------------------------------------------------------
    def save(self, prefix: Path) -> bool:
        """Serialize this view's **base** as mmap-able ``.npy`` files
        under ``prefix`` (plus a ``.meta.json`` descriptor), whatever
        the current blocker set, so every reader rehydrates the same
        bit-identical starting point.

        Each file is written tmp-then-rename; the meta descriptor lands
        last and acts as the commit marker — a crash mid-save leaves no
        loadable artifact.  I/O failures are reported as ``False``
        (persistence is an optimisation, never a correctness gate).
        """
        try:
            prefix.parent.mkdir(parents=True, exist_ok=True)
            for tag, attr in _ARTIFACT_FIELDS:
                path = _artifact_file(prefix, tag)
                tmp = path.with_name(
                    path.name[: -len(".npy")] + ".tmp.npy"
                )
                np.save(tmp, np.asarray(getattr(self, attr)))
                tmp.replace(path)
            meta = {
                "format": _SKETCH_FORMAT,
                "n": int(self.csr.n),
                "theta": int(self.theta),
                "seeds": [int(s) for s in self.seeds],
                "used": int(self._base_order.shape[0]),
                "spread_sum": int(self._base_spread),
            }
            meta_path = _artifact_file(prefix, "meta", suffix=".json")
            tmp = meta_path.with_name(meta_path.name + ".tmp")
            tmp.write_text(json.dumps(meta, separators=(",", ":")))
            tmp.replace(meta_path)
        except OSError:
            return False
        self.stats.persists += 1
        return True

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
        format- and identity-matching artifact exists.  The mapped
        arrays are the view's base: queries read the shared pages
        directly, and the first rebase copies the current arrays out
        of them (:meth:`_promote`), so the files are never written.
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
        if not _artifact_shapes_ok(arrays, csr.n, batch.theta, used):
            return None
        view = cls.__new__(cls)
        view._attach(csr, batch, seeds, stats, builder)
        for tag, attr in _ARTIFACT_FIELDS:
            setattr(view, attr, arrays[tag])
        view._base_spread = int(meta["spread_sum"])
        view._reset_to_base()
        view._sync_bytes()
        stats.rehydrations += 1
        return view

    # ------------------------------------------------------------------
    # byte accounting (all gauges re-synced only after success)
    # ------------------------------------------------------------------
    def _arena_nbytes(self) -> int:
        return _distinct_nbytes(
            self._starts,
            self._base_lengths, self._base_order, self._base_sizes,
            self._base_delta,
            self._lengths, self._order_arena, self._sizes_arena,
            self._delta_sum,
        )

    def _postings_nbytes(self) -> int:
        return _distinct_nbytes(
            self._post_indptr, self._post_samples, self._post_key,
            self._samp_indptr, self._samp_pidx,
            self._base_alive, self._post_alive,
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
        for attr, _ in _CURRENT_FIELDS:
            setattr(self, attr, empty)
        for _, attr in _ARTIFACT_FIELDS:
            setattr(self, attr, empty)

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
        starts = self._post_indptr[vs]
        return _slots(starts, self._post_indptr[vs + 1] - starts)

    def rebase(self, blocked: frozenset[int]) -> None:
        if blocked == self.blocked:
            return
        with span("sketch.rebase"):
            if not blocked:
                self._restore()
                self.blocked = blocked
                return
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
                # first write since the base was taken: copy the
                # current arrays out of the base (after the build, so
                # a builder failure leaves the view untouched)
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
        """Swap the touched samples' trees: one postings patch, one
        batched delta scatter, one arena scatter into the base slots."""
        # postings patch: kill every touched sample's postings, then
        # revive the (vertex, sample) pairs its new tree still reaches
        # — new reachability is always a subset of base reachability,
        # so every pair resolves to an existing posting.  Sorted keys
        # probe the postings keys in order, which keeps the search
        # cache-friendly.
        kill_starts = self._samp_indptr[touched]
        kill = _slots(
            kill_starts, self._samp_indptr[touched + 1] - kill_starts
        )
        self._post_alive[self._samp_pidx[kill]] = False
        revive_keys = orders[_payload_mask(lengths)] * self.theta
        revive_keys += np.repeat(touched, lengths - 1)
        revive_keys.sort()
        self._post_alive[
            np.searchsorted(self._post_key, revive_keys)
        ] = True

        # -/+ subtree-size totals of every touched sample (exact
        # integer sums, so the reordering vs per-sample scatters cancels)
        starts = self._starts[touched]
        old_lengths = self._lengths[touched]
        old_flat = _slots(starts, old_lengths)
        n = self.csr.n
        self._delta_sum += subtree_size_sums(
            lengths, orders, sizes, n
        ) - subtree_size_sums(
            old_lengths, self._order_arena[old_flat],
            self._sizes_arena[old_flat], n,
        )
        self._spread_sum += int(lengths.sum()) - int(old_lengths.sum())

        # arena write-back in place: blocking only removes reach, so
        # every rebuilt tree fits its sample's base slot
        new_flat = _slots(starts, lengths)
        self._order_arena[new_flat] = orders
        self._sizes_arena[new_flat] = sizes
        self._lengths[touched] = lengths

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

        ``touched`` is the pool's exact changed-sample set for this
        view's theta prefix (:meth:`SketchIndex.apply_delta`).  The
        base postings rows of the delta's source vertices narrow it
        further — a changed edge whose source a sample's base tree does
        not reach cannot change that sample's tree at any blocker set
        (:func:`_delta_sources`; blocking only removes reach).  Only
        the surviving samples' base trees are rebuilt; merged with the
        kept ones, they are laid out once in sample order and taken as
        the new base, with sums and postings derived as a cold build
        derives them, so the view is bit-identical to a cold build
        over the mutated graph and sits at the empty blocker set.
        When no tree changes, base and current state stay as they are.
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
            self._take_base(
                *self._merged_base(touched, lengths, orders, sizes)
            )
            self._sync_bytes()
        return count

    def _merged_base(
        self,
        touched: np.ndarray,
        lengths: np.ndarray,
        orders: np.ndarray,
        sizes: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The post-delta base payload in sample order: the rebuilt
        trees of ``touched``, every other sample's base tree kept."""
        merged_lengths = self._base_lengths.copy()
        merged_lengths[touched] = lengths
        # each sample's source slot: its base slot, or its rebuilt
        # tree's slot in the payload appended after the base arena
        sources = self._starts.copy()
        sources[touched] = (
            self._base_order.shape[0] + np.cumsum(lengths) - lengths
        )
        flat = _slots(sources, merged_lengths)
        return (
            merged_lengths,
            np.concatenate([self._base_order, orders])[flat],
            np.concatenate([self._base_sizes, sizes])[flat],
        )

    def _build_postings(self) -> None:
        """Build the inverted membership index of the base trees, every
        posting alive.  The base payload is in sample order, so its
        non-root entries are the (sample, vertex) pairs sample-major,
        and the inverse of the postings sort permutation is the
        by-sample posting table."""
        counts = self._base_lengths - 1
        verts = self._base_order[_payload_mask(self._base_lengths)]
        sample_ids = np.repeat(
            np.arange(self.theta, dtype=np.int64), counts
        )
        self._post_indptr, order = postings_order(
            sample_ids, verts, self.csr.n
        )
        self._post_samples = sample_ids[order]
        self._base_alive = np.ones(order.shape[0], dtype=bool)
        # keys v * theta + t ascend globally (vertex-major rows,
        # samples ascending within a row): one searchsorted resolves
        # arbitrary (vertex, sample) pairs to posting indices
        self._post_key = verts[order] * self.theta + self._post_samples
        # by-sample view of the same postings: row t lists the posting
        # indices of sample t's base-reachable vertices
        self._samp_indptr = np.zeros(self.theta + 1, dtype=np.int64)
        np.cumsum(counts, out=self._samp_indptr[1:])
        self._samp_pidx = np.empty_like(order)
        self._samp_pidx[order] = np.arange(order.shape[0], dtype=np.int64)

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


def _slots(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the concatenated ``[start, start + length)``
    slots."""
    return np.repeat(starts, lengths) + ragged_arange(lengths)


def _distinct_nbytes(*arrays: np.ndarray) -> int:
    """Total bytes of the given arrays, each distinct object once (a
    current array that still aliases its base counts once)."""
    return int(sum({id(a): a.nbytes for a in arrays}.values()))


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


class SketchIndex(_EvaluatorLifecycle):
    """Persistent dominator-tree sketches behind ``SpreadEvaluator``.

    ``pool`` is the :class:`SamplePool` the sketches are built from;
    the index borrows it (its graph, samples and disk identity) and
    persists its arena views next to the pool's files.  The pool's
    own :meth:`~SamplePool.expected_spread` answers on the same
    samples, bit-identically to :meth:`expected_spread` here.

    ``rounds`` in the evaluator protocol selects ``theta``, the number
    of pooled samples the sketches are built from — the Theorem 5
    knob, see :func:`repro.sampling.required_samples` /
    :func:`repro.sampling.resolve_theta`.
    """

    def __init__(self, pool: SamplePool) -> None:
        self.pool = pool
        self.builder = TreeBuilder(pool.csr)
        self.stats = SketchStats()
        self._views: dict[tuple[tuple[int, ...], int], _ArenaSketchView] = {}

    @property
    def csr(self) -> CSRGraph:
        """The borrowed pool's frozen graph (swapped by a delta)."""
        return self.pool.csr

    # ------------------------------------------------------------------
    # view management
    # ------------------------------------------------------------------
    def _view(self, seeds: Sequence[int], theta: int):
        if theta <= 0:
            raise ValueError("theta must be positive")
        seed_arr, _ = _checked_ids(self.csr.n, seeds, ())
        seed_tuple = tuple(dict.fromkeys(seed_arr.tolist()))
        if not seed_tuple:
            raise ValueError("at least one seed is required")
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
        frozen CSR and tree builder for post-delta ones, and moves
        every cached view onto them by rebuilding only the base trees
        of samples whose survived-edge set changed — every other
        sample's base tree is kept.  A view with a rebuilt tree takes
        its post-delta base and sits at the empty blocker set (its next
        query rebases), and persistable views are re-saved under the
        post-delta artifact key, so a later process over the mutated
        graph rehydrates the patched state.  Returns the pool's report.
        """
        with span("sketch.delta"):
            report = self.pool.apply_delta(delta)
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
        """Drop the cached views."""
        views = list(self._views.values())
        self._views.clear()
        for view in views:
            view.drop()

    def _blocked_set(
        self, seeds: Sequence[int], blocked: Iterable[int]
    ) -> frozenset[int]:
        seed_arr, blocked_arr = _checked_ids(self.csr.n, seeds, blocked)
        blocked_set = frozenset(blocked_arr.tolist())
        for s in seed_arr.tolist():
            if s in blocked_set:
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
        _, candidate = _checked_ids(self.csr.n, (), [v])
        blocked_set = self._blocked_set(seeds, blocked)
        return self._view(seeds, rounds).gain(int(candidate[0]), blocked_set)

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
