"""Size-bounded LRU cache of warm serving artifacts.

A *serving artifact* is everything the engine needs resident to answer
blocker/spread queries instantly: a materialised
:class:`~repro.engine.pool.SamplePool` of ``theta`` live-edge samples
over the model-prepared graph frozen to CSR (it answers spread queries
itself — common random numbers across every query), a
:class:`~repro.engine.sketch.SketchIndex` over that pool (used for
blocker selection — O(1) marginal gains), and an independent judge
pool over the same CSR that scores each selection.

Artifacts are keyed by :class:`ArtifactKey` ``(graph, model, theta,
seed)`` and built deterministically from the key via an
:class:`~repro.engine.spec.EngineSpec`: the same key always yields
bit-identical samples and therefore bit-identical answers, which is
what makes cache hits *semantically* transparent, not just faster.

The cache is bounded by entry count and bytes; eviction is LRU.  With
a ``cache_dir`` the pools persist through ``repro.engine.pool``'s
``.npy`` snapshots and the sketch index persists its arena views as
mmap-able ``.npy`` artifacts next to them, so evicting an artifact
only drops memory — a later rebuild of the same key re-attaches the
samples *and* the dominator-tree arenas memory-mapped instead of
re-drawing and re-building them (counted in ``stats.rehydrations``
and the sketch's ``rehydrations`` gauge respectively).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ..bench import pick_seeds, prepare_graph
from ..core import solve_imin
from ..engine import build_evaluator, EngineSpec
from ..graph import GraphDelta
from ..native import core_count
from ..obs import span, track
from .registry import GraphRegistry

__all__ = [
    "Artifact",
    "ArtifactCache",
    "ArtifactKey",
    "CacheStats",
    "DeltaJournal",
    "JOURNAL_VERSION",
    "SharedLock",
]

JOURNAL_VERSION = 1
"""Format version of the persisted per-graph delta journal."""


@dataclass(frozen=True, order=True)
class ArtifactKey:
    """Identity of one warm artifact: what was sampled, and how."""

    graph: str
    model: str
    theta: int
    seed: int

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    def spec(self, cache_dir=None) -> EngineSpec:
        """The :class:`EngineSpec` this key pins (engine ``sketch``)."""
        return EngineSpec(
            engine="sketch",
            model=self.model,
            seed=self.seed,
            cache_dir=cache_dir,
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "graph": self.graph,
            "model": self.model,
            "theta": self.theta,
            "seed": self.seed,
        }


@dataclass
class CacheStats:
    """Observability counters for an :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    builds: int = 0
    evictions: int = 0
    rehydrations: int = 0
    """Builds that re-attached a persisted pool instead of sampling."""

    def __post_init__(self) -> None:
        # re-register into the shared metrics registry (attribute API
        # unchanged): repro.obs sums these across live caches at
        # collection time (repro_cache_*_total)
        track("cache", self)

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
        }


class DeltaJournal:
    """Durable, replayable per-graph history of applied deltas.

    The serving layer's ``update`` op mutates warm artifacts in place;
    this journal is what makes those mutations survive the artifact's
    death.  One JSON file per graph *name* under ``cache_dir`` (or
    memory-only without one) records every applied delta with its
    monotone ``seq``; :meth:`ArtifactCache._build` replays the history
    onto the freshly prepared graph, so a rebuilt or restarted worker
    lands on the *post-delta* pool fingerprint and rehydrates the
    patched mmap artifacts instead of stale pre-delta ones.

    ``seq`` is the exactly-once guard: :meth:`record` refuses (without
    error) any sequence number at or below the last applied one, so a
    client that resends an update after a dropped connection gets an
    acknowledgement, never a double apply.  Writes are atomic
    (tmp-then-rename) and serialised per graph name.
    """

    def __init__(self, cache_dir=None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._lock = threading.RLock()
        self._entries: dict[str, list[dict]] = {}
        self._loaded: set[str] = set()
        self._graph_locks: dict[str, threading.RLock] = {}

    def graph_lock(self, graph: str) -> threading.RLock:
        """The per-graph mutex serialising seq-check + apply + append,
        and every build of the graph's artifacts — held by the caller
        across the engine mutation or the build-and-insert, so two
        updates to the same graph name can never interleave and no
        update lands between a build's replay and its insertion."""
        with self._lock:
            return self._graph_locks.setdefault(graph, threading.RLock())

    def _path(self, graph: str) -> Path | None:
        if self.cache_dir is None:
            return None
        digest = hashlib.md5(graph.encode("utf-8")).hexdigest()[:16]
        return self.cache_dir / f"deltas-{digest}.json"

    def _load(self, graph: str) -> list[dict]:
        with self._lock:
            if graph in self._loaded:
                return self._entries.setdefault(graph, [])
            self._loaded.add(graph)
            entries = self._entries.setdefault(graph, [])
        path = self._path(graph)
        if path is None or not path.exists():
            return entries
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return entries
        if (
            not isinstance(payload, dict)
            or payload.get("v") != JOURNAL_VERSION
            or payload.get("graph") != graph
        ):
            return entries
        for entry in payload.get("entries") or []:
            if isinstance(entry, dict) and isinstance(
                entry.get("seq"), int
            ):
                entries.append(entry)
        return entries

    def last_seq(self, graph: str) -> int:
        """The highest applied sequence number; 0 before any update."""
        entries = self._load(graph)
        return entries[-1]["seq"] if entries else 0

    def record(self, graph: str, delta: GraphDelta, seq: int) -> None:
        """Append one applied delta (caller holds the graph lock and
        has already applied the delta to the live artifact)."""
        entries = self._load(graph)
        if entries and seq <= entries[-1]["seq"]:
            raise ValueError(
                f"seq {seq} is not past the journal head "
                f"{entries[-1]['seq']} for graph {graph!r}"
            )
        entries.append({"seq": seq, **delta.as_dict()})
        self._persist(graph, entries)

    def _persist(self, graph: str, entries: list[dict]) -> None:
        path = self._path(graph)
        if path is None:
            return
        payload = {
            "v": JOURNAL_VERSION,
            "graph": graph,
            "entries": entries,
        }
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(
            json.dumps(payload, separators=(",", ":")), encoding="utf-8"
        )
        tmp.replace(path)

    def replay(self, graph: str, target) -> int:
        """Apply the journaled history to a freshly prepared graph;
        returns the number of deltas replayed."""
        entries = self._load(graph)
        for entry in entries:
            GraphDelta.from_dict(
                {k: v for k, v in entry.items() if k != "seq"}
            ).apply_to(target)
        return len(entries)


class SharedLock:
    """A re-entrant lock with a shared and an exclusive mode.

    ``with lock:`` holds it exclusively; ``with lock.shared():`` holds
    it together with up to ``max_shared - 1`` other threads.  A caller
    waiting for the exclusive hold stops new shared holders from
    entering, so a stream of reads cannot starve a writer.  A thread
    may take the lock again in either mode while it holds it, except
    that a shared holder cannot upgrade: that raises instead of
    deadlocking.
    """

    def __init__(self, max_shared: int) -> None:
        if max_shared < 1:
            raise ValueError("max_shared must be >= 1")
        self._max_shared = max_shared
        self._cond = threading.Condition(threading.Lock())
        self._shared: dict[int, int] = {}  # thread id -> hold depth
        self._owner: int | None = None
        self._depth = 0
        self._waiting = 0  # callers waiting for the exclusive hold

    @contextlib.contextmanager
    def shared(self):
        me = threading.get_ident()
        with self._cond:
            if self._owner != me and me not in self._shared:
                while (
                    self._owner is not None
                    or self._waiting
                    or len(self._shared) >= self._max_shared
                ):
                    self._cond.wait()
            self._shared[me] = self._shared.get(me, 0) + 1
        try:
            yield
        finally:
            with self._cond:
                depth = self._shared.pop(me) - 1
                if depth:
                    self._shared[me] = depth
                else:
                    self._cond.notify_all()

    def __enter__(self) -> "SharedLock":
        me = threading.get_ident()
        with self._cond:
            if self._owner != me:
                if me in self._shared:
                    raise RuntimeError(
                        "a shared holder cannot take the lock exclusively"
                    )
                self._waiting += 1
                try:
                    while self._owner is not None or self._shared:
                        self._cond.wait()
                finally:
                    self._waiting -= 1
                self._owner = me
            self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._cond:
            self._depth -= 1
            if not self._depth:
                self._owner = None
                self._cond.notify_all()


class Artifact:
    """One warm ``(graph, model, theta, seed)`` serving state.

    Every query and mutation holds :attr:`lock`: spreads and the
    sketch index share mutable state (the growing pool, the rebased
    trees), and answers must be independent of request
    interleaving — the concurrency contract the service's tests pin
    down.  Spreads that read already-drawn samples hold it shared, so
    they run concurrently (the reach kernel releases the GIL);
    everything else holds it exclusively.  Results are pure functions
    of the key and the query parameters.

    At most one spread per core, and at least two, share the lock: two
    let one spread's Python overlap another's kernel call even on one
    core, and more than one per core would only contend for the cores —
    the rest wait for the lock, which is what keeps ``--max-pending``
    admission meaningful for spreads.  The cores are those the process
    may run on (:func:`~repro.native.core_count`), which a ``taskset``
    or cpuset narrows.
    """

    def __init__(
        self,
        key: ArtifactKey,
        graph,
        cache_dir=None,
    ) -> None:
        self.key = key
        self.graph = graph
        spec = key.spec(cache_dir=cache_dir)
        # the sketch draws (or attaches) the stream-0 pool, which
        # answers spreads too.  With a cache_dir, the index persists
        # each warm arena view next to the pool snapshot and rehydrates
        # it memory-mapped on rebuild instead of re-deriving theta trees.
        self.sketch = build_evaluator(graph, spec)
        self.pool = self.sketch.pool
        # final quality in block() is judged on an *independent* sample
        # stream (same discipline as the CLI's stream-0/stream-1 split):
        # judging on the selection pool would score the winning blocker
        # set on the very samples that selected it, biasing the
        # reported spread optimistically.  The judge pool draws lazily
        # on the first block query — spread-only workloads never pay
        # it — over the CSR the stream-0 pool already froze.
        self.judge = build_evaluator(
            self.csr, spec.with_engine("pooled"), stream=1
        )
        self.built_at = time.time()
        self.applied_seq = 0
        """Journal position this artifact's state reflects (set by the
        cache: the journal head at build-replay time, advanced by each
        applied update)."""
        self.lock = SharedLock(max(2, core_count()))
        """Held by every query and mutation of this artifact; the
        service holds it around a whole request, and the methods
        re-enter it."""
        # materialise (or mmap-attach) the samples up front: the cache
        # hands out *warm* artifacts, never lazily-cold ones
        self.pool.get(key.theta)

    @property
    def csr(self):
        """The frozen graph the stream-0 pool samples (a delta swaps it)."""
        return self.pool.csr

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def default_seeds(self, count: int) -> list[int]:
        """The seed vertices a request gets when it names none.

        Derived from the artifact seed exactly like the CLI derives
        them from ``--rng``, so service answers line up with
        single-shot CLI runs on the same parameters.
        """
        return pick_seeds(self.graph, count, rng=self.key.seed)

    def spread(
        self,
        seeds: Sequence[int],
        blocked: Iterable[int] = (),
        theta: int | None = None,
    ) -> float:
        return self.spread_many(seeds, [list(blocked)], theta)[0]

    def spread_many(
        self,
        seeds: Sequence[int],
        blocked_sets: Sequence[Iterable[int]],
        theta: int | None = None,
    ) -> list[float]:
        """Pooled estimates for many blocked sets in one call.

        Bit-identical to evaluating each blocked set alone (same
        samples, same integer sums).  The compiled reach kernel counts
        each blocked set straight from the pool's flat samples; only
        the fallback builds aliveness-matrix chunks, once for the
        whole batch.
        """
        theta = theta or self.key.theta
        # drawing more samples grows the pool: only then exclusively
        hold = self.lock.shared() if theta <= self.pool.theta else self.lock
        with hold:
            return self.pool.expected_spread_many(seeds, theta, blocked_sets)

    def block(
        self,
        seeds: Sequence[int],
        budget: int,
        algorithm: str = "greedy-replace",
        theta: int | None = None,
        rng: int | None = None,
    ) -> dict[str, object]:
        """Select blockers against the warm sketch index.

        Returns blockers plus before/after spread estimates from the
        independent judge pool — common random numbers between the two
        estimates (the delta is noise-cancelled) but a different
        stream than the selection, so the winner is never scored on
        the samples that picked it.
        """
        theta = theta or self.key.theta
        rng = self.key.seed if rng is None else rng
        with self.lock:
            start = time.perf_counter()
            result = solve_imin(
                self.graph,
                list(seeds),
                budget,
                algorithm=algorithm,
                theta=theta,
                rng=rng,
                evaluator=self.sketch,
            )
            elapsed = time.perf_counter() - start
            unblocked, blocked = self.judge.expected_spread_many(
                seeds, theta, [[], list(result.blockers)]
            )
        return {
            "algorithm": result.algorithm,
            "blockers": sorted(result.blockers),
            "spread_unblocked": unblocked,
            "spread_blocked": blocked,
            "elapsed_seconds": elapsed,
        }

    def warm_sketch(self, seeds: Sequence[int], theta: int | None = None):
        """Pre-build the sketch view for a seed set (the cold half of a
        first ``block`` query)."""
        with self.lock:
            self.sketch.expected_spread(seeds, theta or self.key.theta)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> dict[str, object]:
        """Patch the warm state with one batch of edge mutations.

        Runs under the artifact lock, so it serialises with every
        in-flight query: a spread that wins the lock answers against
        the pre-delta graph, one that loses answers against the
        post-delta graph — never a half-applied mix.  The sketch's
        :meth:`~repro.engine.sketch.SketchIndex.apply_delta` patches
        the stream-0 pool spreads read (rebasing only touched trees and
        re-persisting under the post-delta fingerprint); the judge's
        independent stream-1 pool is patched the same way.
        """
        with self.lock:
            delta.check_against(self.graph)
            rebuilt_before = self.sketch.stats.delta_trees_rebuilt
            delta.apply_to(self.graph)
            report = self.sketch.apply_delta(delta)
            self.judge.apply_delta(delta)
            return {
                "inserts": len(delta.inserts),
                "deletes": len(delta.deletes),
                "reweights": len(delta.reweights),
                "touched_samples": report.touched_count,
                "trees_rebuilt": (
                    self.sketch.stats.delta_trees_rebuilt - rebuilt_before
                ),
                "n": self.csr.n,
                "m": self.csr.m,
            }

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Resident size estimate: both pools' sample arrays plus the
        sketch index's resident tree state — the pooled tree arenas
        (at capacity, slack included) and the inverted membership
        indexes.  A live gauge: it grows as block queries warm views
        and shrinks as the index drops them, so the cache's LRU byte
        bound tracks what the artifact actually holds in memory."""
        return self.pool.nbytes + self.judge.nbytes + self.sketch.nbytes

    def describe(self) -> dict[str, object]:
        return {
            **self.key.as_dict(),
            "n": self.csr.n,
            "m": self.csr.m,
            "nbytes": self.nbytes,
            "applied_seq": self.applied_seq,
            "pool": self.pool.stats.as_dict(),
            "sketch": self.sketch.stats.as_dict(),
        }

    def close(self) -> None:
        # taken under the artifact lock: an eviction must not clear
        # the sketch's view cache out from under an in-flight query
        with self.lock:
            self.sketch.close()
            self.judge.close()


class ArtifactCache:
    """Thread-safe LRU of :class:`Artifact` bounded by entries/bytes.

    ``get`` either returns the resident artifact (a *hit*, refreshing
    its recency) or builds it (a *miss*).  A miss builds and inserts
    under its graph's journal lock, so builds are single-flight:
    concurrent requesters of one key share the one build instead of
    duplicating the most expensive operation the service performs,
    and no update of that graph can land between a build's journal
    replay and its insertion.  Locks are taken in one order: graph
    lock, then the cache lock, then an artifact's lock — except that an
    evicted artifact is closed, which takes its lock, only after the
    cache lock is released.
    """

    def __init__(
        self,
        registry: GraphRegistry,
        max_entries: int = 8,
        max_bytes: int | None = None,
        cache_dir=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.registry = registry
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.cache_dir = cache_dir
        self.stats = CacheStats()
        self.journal = DeltaJournal(cache_dir)
        """Per-graph delta history; replayed in :meth:`_build` so a
        rebuilt artifact starts from the same mutated graph the live
        one was patched to."""
        self._artifacts: OrderedDict[ArtifactKey, Artifact] = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, key: ArtifactKey) -> Artifact:
        evicted: list[Artifact] = []
        try:
            with self._lock:
                artifact = self._artifacts.get(key)
                if artifact is not None:
                    self._artifacts.move_to_end(key)
                    self.stats.hits += 1
                    # artifact footprints grow after insertion (block
                    # queries warm sketch views, counted in nbytes), so
                    # the byte bound is re-enforced on hits too; the hit
                    # key was just made most-recent and is never evicted
                    evicted = self._shrink()
                    return artifact
                self.stats.misses += 1
            with self.journal.graph_lock(key.graph):
                with self._lock:
                    artifact = self._artifacts.get(key)
                    if artifact is not None:  # built by the flight we joined
                        self._artifacts.move_to_end(key)
                        return artifact
                artifact = self._build(key)
                with self._lock:
                    self._artifacts[key] = artifact
                    evicted = self._shrink()
                return artifact
        finally:
            # closed with no lock held (see _shrink)
            for old in evicted:
                old.close()

    def _build(self, key: ArtifactKey) -> Artifact:
        with span("cache.build"):
            raw = self.registry.get(key.graph)
            # prepare on a copy: the registry's raw graph is shared by
            # every (model, seed) variant and must stay
            # probability-free
            prepared = prepare_graph(raw.copy(), key.model, rng=key.seed)
            # replay the journaled delta history before sampling: the
            # pool fingerprint is a content hash of the mutated CSR,
            # so the build lands exactly on the artifacts the live
            # update path persisted — a restarted worker rehydrates
            # the patched pool and trees, never a stale pre-delta copy
            # (the caller holds the graph lock)
            self.journal.replay(key.graph, prepared)
            artifact = Artifact(key, prepared, cache_dir=self.cache_dir)
            artifact.applied_seq = self.journal.last_seq(key.graph)
        self.stats.builds += 1
        if artifact.pool.stats.disk_loads:
            self.stats.rehydrations += 1
        return artifact

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        key: ArtifactKey,
        delta: GraphDelta,
        seq: int | None = None,
    ) -> dict[str, object]:
        """Apply one delta to the warm artifact for ``key``, journal
        it, and invalidate stale siblings.

        ``seq`` is the client's monotone sequence number (defaulting
        to the journal head + 1).  A duplicate or lower ``seq`` is
        *acknowledged without applying* (``applied: false``) — the
        exactly-once contract that makes a blind client resend after a
        dropped connection safe.  On success every other resident
        artifact of the same graph *name* is evicted: their pools were
        sampled from a graph that no longer matches the journal, and a
        later request rebuilds them through the replay path instead.
        """
        with self.journal.graph_lock(key.graph):
            last = self.journal.last_seq(key.graph)
            if seq is None:
                seq = last + 1
            elif seq <= last:
                return {"applied": False, "seq": seq, "last_seq": last}
            artifact = self.get(key)
            if artifact.applied_seq != last:
                # a sibling key advanced the journal after this
                # artifact was built: rebuild through the replay path
                # so history applies in order, never interleaved
                self.invalidate(key.graph, keep=None)
                artifact = self.get(key)
            outcome = artifact.apply_delta(delta)
            artifact.applied_seq = seq
            self.journal.record(key.graph, delta, seq)
        invalidated = self.invalidate(key.graph, keep=key)
        return {
            "applied": True,
            "seq": seq,
            "last_seq": seq,
            "invalidated_siblings": invalidated,
            **outcome,
        }

    def invalidate(self, graph: str, keep: ArtifactKey | None = None) -> int:
        """Evict every resident artifact of ``graph`` except ``keep``.

        Used after an update: siblings (other model/theta/seed keys
        over the same name) were built against the pre-delta
        graph and must rebuild through the journal replay."""
        with self._lock:
            stale = [
                self._artifacts.pop(k) for k in list(self._artifacts)
                if k.graph == graph and k != keep
            ]
            self.stats.evictions += len(stale)
        for artifact in stale:
            artifact.close()
        return len(stale)

    def _shrink(self) -> list[Artifact]:
        """Pop least-recent entries until the bounds hold.

        The caller holds the cache lock and closes the returned
        artifacts only after releasing it: ``close()`` waits for an
        artifact's in-flight query, and every request on every graph
        would otherwise wait behind it."""
        evicted = []
        # never evict below one entry: the key just inserted must
        # survive its own insertion even if it alone exceeds max_bytes
        while len(self._artifacts) > 1 and (
            len(self._artifacts) > self.max_entries
            or (
                self.max_bytes is not None
                and self._total_bytes() > self.max_bytes
            )
        ):
            evicted.append(self._artifacts.popitem(last=False)[1])
            self.stats.evictions += 1
        return evicted

    def _total_bytes(self) -> int:
        return sum(a.nbytes for a in self._artifacts.values())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def peek(self, key: ArtifactKey) -> Artifact | None:
        """The resident artifact for ``key``, or ``None`` — never
        builds and never counts as a hit/miss.  The service's
        per-artifact ``stats`` op uses this so an observability query
        cannot trigger (or wait on) an expensive artifact build."""
        with self._lock:
            return self._artifacts.get(key)

    def keys(self) -> list[ArtifactKey]:
        with self._lock:
            return list(self._artifacts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._artifacts)

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._artifacts),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "total_bytes": self._total_bytes(),
                "stats": self.stats.as_dict(),
                "artifacts": [
                    artifact.describe()
                    for artifact in self._artifacts.values()
                ],
            }

    def close(self) -> None:
        with self._lock:
            artifacts = list(self._artifacts.values())
            self._artifacts.clear()
        for artifact in artifacts:
            artifact.close()
