"""Thread-safe metrics registry: counters, gauges, histograms.

The engine and the serving layer already count things —
:class:`~repro.engine.sketch.SketchStats`,
:class:`~repro.service.cache.CacheStats`,
:class:`~repro.engine.pool.PoolStats` all carry plain-int attributes
mutated on the hot paths — but each lives on its own object and is
only visible to whoever holds a reference.  This module is the shared
surface those numbers re-register into:

* :class:`MetricsRegistry` owns named metric *families* (a family is
  one metric name plus a fixed tuple of label names; each distinct
  label-value tuple is a *child* with its own value).  Families are
  get-or-create: instrumented library code asks for
  ``registry.counter("repro_x_total", ...)`` every time and always
  receives the same object, so instrumentation never needs set-up
  ordering.
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` children
  take a lock per update — ``value += 1`` on a Python attribute is
  *not* atomic across bytecodes, and the whole point of these counters
  is to stay exact under the concurrent load the service exists to
  measure (pinned by the N-thread tests).
* **Callback collectors** (:meth:`MetricsRegistry.register_callback`)
  are read at collection time — how the pre-existing stats dataclasses
  join the registry without changing their attribute API: each
  dataclass instance enrols itself in a per-kind
  :class:`weakref.WeakSet` (:func:`track`) and one callback sums an
  attribute across all live instances.  Dead artifacts fall out of
  the sums automatically when they are garbage-collected.

Rendering to Prometheus text lives in :mod:`repro.obs.exposition`;
the process-wide default registry (plus the standard collectors over
the tracked stats objects) in :func:`global_registry`.
"""

from __future__ import annotations

import bisect
import os
import platform
import threading
import weakref
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestMetrics",
    "global_registry",
    "install_build_info",
    "install_standard_collectors",
    "package_version",
    "reset_global_registry",
    "track",
    "tracked",
]

# latencies from ~100us service hits to ~30s cold builds; seconds, per
# Prometheus convention
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_KINDS = ("counter", "gauge", "histogram")


class _Child:
    """One (family, label values) time series."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _CounterChild(_Child):
    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount


class _GaugeChild(_Child):
    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount


class _HistogramChild:
    """Fixed cumulative buckets + sum + count, exact under threads."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """Cumulative bucket counts (incl. +Inf), sum, count — one
        consistent view (``count == counts[-1]`` always holds)."""
        with self._lock:
            counts = list(self.counts)
            total_sum, total = self.sum, self.count
        cumulative: list[int] = []
        running = 0
        for c in counts:
            running += c
            cumulative.append(running)
        return cumulative, total_sum, total


class _Family:
    """One metric name: label schema, help text, children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = label_names
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not label_names:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self):
        if self.kind == "counter":
            return _CounterChild()
        if self.kind == "gauge":
            return _GaugeChild()
        return _HistogramChild(self.buckets or DEFAULT_BUCKETS)

    def labels(self, *values: str):
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} takes {len(self.label_names)} label(s) "
                f"{self.label_names}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return list(self._children.items())

    # unlabeled families proxy the default child so call sites read
    # ``registry.counter(...).inc()`` without a labels() hop
    def inc(self, amount: float = 1.0) -> None:
        self._require_unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_unlabeled().dec(amount)

    def set(self, value: float) -> None:
        self._require_unlabeled().set(value)

    def observe(self, value: float) -> None:
        self._require_unlabeled().observe(value)

    @property
    def value(self) -> float:
        return self._require_unlabeled().value

    def _require_unlabeled(self):
        if self._default is None:
            raise ValueError(
                f"{self.name} is labeled {self.label_names}; "
                "use .labels(...)"
            )
        return self._default


Counter = _Family
Gauge = _Family
Histogram = _Family


class _Callback:
    """A collection-time metric: value(s) computed by a function.

    ``fn`` returns either a number (one unlabeled sample) or a mapping
    of label-value tuples to numbers (one sample per entry, for
    callbacks that fan out over a dimension, e.g. per-op counts).
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        fn: Callable[[], "float | Mapping[tuple[str, ...], float]"],
        label_names: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.fn = fn
        self.label_names = label_names


class MetricsRegistry:
    """Named metric families plus callback collectors, all thread-safe.

    One registry per scrape surface; :func:`global_registry` is the
    process default every instrumented module records into.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._callbacks: dict[str, _Callback] = {}
        self._installed_collectors = False

    # ------------------------------------------------------------------
    # family creation (get-or-create, kind-checked)
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: Sequence[str],
        buckets: Iterable[float] | None = None,
    ) -> _Family:
        _validate_name(name)
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                if name in self._callbacks:
                    raise ValueError(
                        f"{name} is already a callback collector"
                    )
                family = _Family(
                    name,
                    help_text,
                    kind,
                    label_names,
                    tuple(buckets) if buckets is not None else None,
                )
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"{name} already registered as {family.kind}"
                    f"{family.label_names}; cannot re-register as "
                    f"{kind}{label_names}"
                )
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._family(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._family(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be sorted and distinct")
        return self._family(name, help_text, "histogram", labels, bounds)

    def register_callback(
        self,
        name: str,
        help_text: str,
        fn: Callable[[], "float | Mapping[tuple[str, ...], float]"],
        kind: str = "gauge",
        labels: Sequence[str] = (),
    ) -> None:
        """Register a collection-time metric (idempotent by name)."""
        _validate_name(name)
        if kind not in ("counter", "gauge"):
            raise ValueError("callback collectors are counters or gauges")
        with self._lock:
            if name in self._families:
                raise ValueError(f"{name} is already a metric family")
            self._callbacks[name] = _Callback(
                name, help_text, kind, fn, tuple(labels)
            )

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def collect(self) -> list[dict]:
        """Every family and callback as plain data, for exposition.

        Each entry: ``{"name", "help", "kind", "samples"}`` where
        samples are ``(label_names, label_values, suffix, value)``.
        """
        with self._lock:
            families = list(self._families.values())
            callbacks = list(self._callbacks.values())
        out: list[dict] = []
        for family in families:
            samples: list[tuple] = []
            for label_values, child in family.children():
                if family.kind == "histogram":
                    cumulative, total_sum, count = child.snapshot()
                    for bound, cum in zip(family.buckets, cumulative):
                        samples.append(
                            (
                                family.label_names + ("le",),
                                label_values + (_format_bound(bound),),
                                "_bucket",
                                cum,
                            )
                        )
                    samples.append(
                        (
                            family.label_names + ("le",),
                            label_values + ("+Inf",),
                            "_bucket",
                            cumulative[-1],
                        )
                    )
                    samples.append(
                        (
                            family.label_names,
                            label_values,
                            "_sum",
                            total_sum,
                        )
                    )
                    samples.append(
                        (family.label_names, label_values, "_count", count)
                    )
                else:
                    samples.append(
                        (family.label_names, label_values, "", child.value)
                    )
            out.append(
                {
                    "name": family.name,
                    "help": family.help,
                    "kind": family.kind,
                    "samples": samples,
                }
            )
        for callback in callbacks:
            value = callback.fn()
            if isinstance(value, Mapping):
                samples = [
                    (
                        callback.label_names,
                        tuple(str(part) for part in key),
                        "",
                        v,
                    )
                    for key, v in sorted(value.items())
                ]
            else:
                samples = [((), (), "", float(value))]
            out.append(
                {
                    "name": callback.name,
                    "help": callback.help,
                    "kind": callback.kind,
                    "samples": samples,
                }
            )
        out.sort(key=lambda entry: entry["name"])
        return out

    def render(self) -> str:
        """Prometheus text format 0.0.4 (see
        :func:`repro.obs.exposition.render_text`)."""
        from .exposition import render_text

        return render_text(self)


def _validate_name(name: str) -> None:
    if not name or not all(
        c.isalnum() or c in "_:" for c in name
    ) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")


def _format_bound(bound: float) -> str:
    # Prometheus renders integral bounds without the trailing .0
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


# ----------------------------------------------------------------------
# tracked stats objects: how the pre-existing dataclasses join in
# ----------------------------------------------------------------------
# id-keyed weak references (not a WeakSet: the stats dataclasses
# generate __eq__ and are therefore unhashable)
_TRACKED: dict[str, dict[int, "weakref.ref"]] = {}
_TRACKED_LOCK = threading.Lock()


def track(kind: str, obj: object) -> None:
    """Enrol a stats object under ``kind`` for callback collectors.

    Holding only a weak reference: a dropped artifact leaves the sums
    the moment the collector garbage-collects it, so byte gauges track
    residency rather than history.  No weakref *callback* is
    registered — a callback would need ``_TRACKED_LOCK``, and the GC
    can fire it on a thread already holding that lock (any allocation
    inside :func:`tracked` is a trigger point), which self-deadlocks a
    non-reentrant lock.  Dead references are pruned lazily on read
    instead.
    """
    with _TRACKED_LOCK:
        _TRACKED.setdefault(kind, {})[id(obj)] = weakref.ref(obj)


def tracked(kind: str) -> list[object]:
    """The live tracked objects of one kind (a snapshot).

    Prunes entries whose referent has been collected — the only place
    the registry shrinks, always under the lock, never from a GC
    callback.
    """
    with _TRACKED_LOCK:
        bucket = _TRACKED.get(kind)
        if not bucket:
            return []
        live = []
        dead = []
        for key, ref in bucket.items():
            obj = ref()
            if obj is None:
                dead.append(key)
            else:
                live.append(obj)
        for key in dead:
            del bucket[key]
    return live


def _sum_attr(kind: str, attr: str) -> Callable[[], float]:
    def collect() -> float:
        return float(sum(getattr(o, attr, 0) for o in tracked(kind)))

    return collect


# (metric name, help, tracked kind, attribute, callback kind)
_STANDARD_COLLECTORS: tuple[tuple[str, str, str, str, str], ...] = (
    # the PR 4-5 byte gauges (SketchStats)
    ("repro_sketch_tree_bytes",
     "Resident bytes of cached per-sample tree state across live "
     "sketch indexes", "sketch", "tree_bytes", "gauge"),
    ("repro_sketch_arena_bytes",
     "Resident bytes of pooled tree arenas (arena layout)",
     "sketch", "arena_bytes", "gauge"),
    ("repro_sketch_postings_bytes",
     "Resident bytes of inverted membership indexes (arena layout)",
     "sketch", "postings_bytes", "gauge"),
    ("repro_sketch_queries_total",
     "Spread / marginal-gain queries answered by sketch indexes",
     "sketch", "queries", "counter"),
    ("repro_sketch_rebases_total",
     "Blocker-set transitions that re-derived at least one tree",
     "sketch", "rebases", "counter"),
    ("repro_sketch_restores_total",
     "Returns to the empty blocker set answered by copying a view's "
     "unblocked base back (no tree built)",
     "sketch", "restores", "counter"),
    ("repro_sketch_trees_built_total",
     "Dominator trees constructed (cold builds + rebases)",
     "sketch", "trees_built", "counter"),
    ("repro_sketch_samples_skipped_total",
     "Samples left untouched by rebases (the incremental win)",
     "sketch", "samples_skipped", "counter"),
    ("repro_sketch_view_rehydrations_total",
     "Arena views attached memory-mapped from persisted artifacts "
     "instead of cold-built",
     "sketch", "rehydrations", "counter"),
    ("repro_sketch_view_persists_total",
     "Arena views serialized to the artifact cache directory",
     "sketch", "persists", "counter"),
    # artifact-cache counters (CacheStats)
    ("repro_cache_hits_total", "Artifact-cache hits",
     "cache", "hits", "counter"),
    ("repro_cache_misses_total", "Artifact-cache misses",
     "cache", "misses", "counter"),
    ("repro_cache_builds_total", "Artifact builds",
     "cache", "builds", "counter"),
    ("repro_cache_evictions_total", "Artifact evictions (LRU)",
     "cache", "evictions", "counter"),
    ("repro_cache_rehydrations_total",
     "Builds that re-attached a persisted pool instead of sampling",
     "cache", "rehydrations", "counter"),
    # sample-pool counters (PoolStats)
    ("repro_pool_hits_total",
     "Sample-pool requests served from resident samples",
     "pool", "hits", "counter"),
    ("repro_pool_misses_total",
     "Sample-pool requests that had to grow the pool",
     "pool", "misses", "counter"),
    ("repro_pool_samples_generated_total",
     "Live-edge samples drawn", "pool", "generated", "counter"),
    ("repro_pool_disk_loads_total",
     "Pools rehydrated from a disk snapshot",
     "pool", "disk_loads", "counter"),
    ("repro_pool_disk_saves_total",
     "Pool snapshots persisted to disk",
     "pool", "disk_saves", "counter"),
)


def install_standard_collectors(registry: MetricsRegistry) -> None:
    """Register the callback collectors over the tracked stats objects
    (idempotent per registry) — the re-registration bridge that gives
    every pre-existing stats dataclass a Prometheus presence while its
    attribute API stays exactly as it was."""
    with registry._lock:
        if registry._installed_collectors:
            return
        registry._installed_collectors = True
    for name, help_text, kind, attr, cb_kind in _STANDARD_COLLECTORS:
        registry.register_callback(
            name, help_text, _sum_attr(kind, attr), kind=cb_kind
        )


def package_version() -> str:
    """The installed distribution version (``"unknown"`` from a plain
    source checkout)."""
    try:
        from importlib.metadata import version

        return version("repro-imin")
    except Exception:  # noqa: BLE001 - not installed (src checkout)
        return "unknown"


def install_build_info(
    registry: MetricsRegistry, worker: str = "main"
) -> _GaugeChild:
    """Export the constant ``repro_build_info`` gauge (value 1).

    The label set — package version, Python version, pid and a
    ``worker`` role tag — is what lets a scrape of the sharded serving
    topology tell the listener's series apart from each shard's after
    :func:`repro.obs.exposition.merge_expositions` folds them into one
    page.  Idempotent per (registry, labels)."""
    family = registry.gauge(
        "repro_build_info",
        "Constant 1; build/runtime identity in the labels",
        labels=("version", "python", "pid", "worker"),
    )
    child = family.labels(
        package_version(),
        platform.python_version(),
        str(os.getpid()),
        worker,
    )
    child.set(1.0)
    return child


class RequestMetrics:
    """The request families every serving tier records into.

    Declared once, here: the standalone server, each shard worker and
    the sharded front end record through it, and
    :class:`~repro.obs.SLOTracker` reads the same families back, so a
    scrape of either topology carries the same names, labels and help.
    """

    __slots__ = ("requests", "errors", "latency", "inflight")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests = registry.counter(
            "repro_requests_total",
            "Service requests dispatched, by op",
            labels=("op",),
        )
        self.errors = registry.counter(
            "repro_request_errors_total",
            "Service requests answered with ok=false",
        )
        self.latency = registry.histogram(
            "repro_request_duration_seconds",
            "Wall-clock request latency, by op",
            labels=("op",),
        )
        self.inflight = registry.gauge(
            "repro_inflight_requests",
            "Requests currently being answered",
        )

    def record(self, op: str, seconds: float, ok: bool) -> None:
        """Count one answered request and observe its latency."""
        self.requests.labels(op).inc()
        self.latency.labels(op).observe(seconds)
        if not ok:
            self.errors.inc()


_GLOBAL: MetricsRegistry | None = None
_GLOBAL_LOCK = threading.Lock()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (standard collectors
    installed), shared by every instrumented module, the service's
    ``metrics`` op and the ``--metrics-port`` listener."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
            install_standard_collectors(_GLOBAL)
        return _GLOBAL


def reset_global_registry() -> None:
    """Start the process-wide registry over, empty.

    A forked shard worker calls this first: it inherits its parent's
    registry and tracked stats objects, and must report only its own
    series.  Instrumented modules look the registry up on every use,
    so they record into the new one from then on.
    """
    global _GLOBAL
    with _TRACKED_LOCK:
        _TRACKED.clear()
    with _GLOBAL_LOCK:
        _GLOBAL = None
