"""The blocker-query server: threaded TCP/JSON-lines, stdlib only.

Two layers:

:class:`BlockerService`
    Transport-independent request handler — a dict in, a dict out.
    Owns the :class:`~repro.service.registry.GraphRegistry`, the
    :class:`~repro.service.cache.ArtifactCache` and one *executor
    thread per warm artifact*.  All engine work against an artifact
    runs on its executor, which (a) serialises access to the stateful
    sketch/pool machinery and (b) **coalesces** spread requests: when
    several clients query the same artifact concurrently, the executor
    drains its whole queue and answers every same-``(seeds, theta)``
    spread query with one
    :meth:`~repro.engine.evaluator.PooledEvaluator.expected_spread_many`
    call, made under one artifact-lock hold for the whole batch and
    bit-identical to serial execution.
:class:`ServiceServer`
    A ``socketserver.ThreadingTCPServer`` speaking JSON lines: each
    request is one ``\\n``-terminated JSON object, each response one
    JSON line.  A connection may pipeline any number of requests.

**Wire protocol v1** (see ``docs/api.md`` for the full schema): every
response carries ``"v": 1``.  Success is ``{"ok": true, "v": 1, "op":
..., "result": ...}``; failure is ``{"ok": false, "v": 1, "error":
{"code": ..., "message": ..., "op": ...}}`` with stable machine-
readable codes — ``unknown_op``, ``unknown_graph``, ``bad_params``,
``overloaded``, ``internal`` — so clients dispatch on ``code`` instead
of parsing prose (:class:`~repro.service.client.ServiceClient` maps
them to typed exceptions).

Requests (all fields beyond ``op`` optional, with server defaults)::

    {"op": "ping"}
    {"op": "graphs"}
    {"op": "stats"}
    {"op": "stats",  "graph": "toy"}   # one WARM artifact's stats
                                       # (pool + sketch gauges); never
                                       # builds — errors if not warm
    {"op": "metrics"}                  # Prometheus exposition text
    {"op": "profile", "action": "start", "hz": 67}   # also stop/
                                       # dump/status — the sampling
                                       # wall-clock profiler
    {"op": "warm",   "graph": "toy", "model": "wc", "theta": 200,
     "seed": 7}
    {"op": "spread", "graph": "toy", "seeds": [0], "blocked": [4]}
    {"op": "block",  "graph": "toy", "budget": 2,
     "algorithm": "greedy-replace"}
    {"op": "update", "graph": "toy", "seq": 1,
     "inserts": [[0, 5, 0.3]], "deletes": [[1, 2]],
     "reweights": [[2, 3, 0.5]]}     # incremental graph delta: the
                                     # artifact is patched in place
                                     # (pool + touched sketch trees),
                                     # journaled, and re-persisted
    {"op": "shutdown"}

An ``"id"`` field, when present, is echoed in the response so
pipelining clients can match answers to questions.  ``max_pending``
bounds each artifact executor's queue: submissions beyond it are
rejected with code ``overloaded`` instead of growing the queue without
bound (load shedding; ``None`` = unbounded, the default).

**Observability** (see :mod:`repro.obs`): every request runs under a
trace — the client's ``"trace_id"`` (a string) or a server-assigned
one, echoed in every response — and ``"trace": true`` attaches the
per-phase span breakdown (queue wait, artifact resolution, engine
evaluation, sketch rebases...) to the response, which is what
``repro-imin query --trace`` prints.  Request counts, errors and
latency histograms land in the shared metrics registry; the
``metrics`` op returns it as Prometheus text (same registry the
``--metrics-port`` HTTP listener scrapes).  Requests slower than the
configured ``slow_ms`` threshold are recorded in a bounded slow-query
log (surfaced under the service-wide ``stats`` op) with their phase
summary, and an :class:`~repro.obs.EventLog` — JSON lines under
``repro-imin serve --log-json`` — gets one event per request.

**Saturation telemetry**: the layer between "a request finished" and
"the server is drowning".  Every artifact executor exports its queue
depth (``repro_executor_pending{graph=}``, incremented/decremented
under the same mutex that guards the queue, so the gauge is exact),
the queue wait of the oldest item at the most recent drain
(``repro_executor_queue_age_seconds{graph=}``), and
submitted/completed counters whose difference *is* the pending gauge
— the reconciliation invariant the tests pin.  Requests shed by the
``--max-pending`` admission guard are counted by reason in
``repro_shed_requests_total{graph=,reason=}``; queries served
directly because their executor was retired mid-flight land in
``repro_executor_direct_serves_total{graph=}``.  The accept loop
exports ``repro_inflight_requests``, the number of requests currently
inside :meth:`BlockerService.handle`.

**Profiling and SLOs**: the ``profile`` op starts/stops/dumps the
:class:`~repro.obs.SamplingProfiler` (collapsed stacks of every
thread, flamegraph-ready; ``serve --profile-hz`` arms it from boot),
and ``serve --slo p99=250ms`` evaluates declarative objectives into
``repro_slo_burn_rate{slo=}`` gauges plus a ``slo`` section under the
``stats`` op (see :mod:`repro.obs.slo`).
"""

from __future__ import annotations

import json
import queue
import socketserver
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core import ALGORITHMS
from ..engine.spec import MODELS
from ..graph import GraphDelta
from ..obs import (
    current_trace,
    DEFAULT_HZ,
    EventLog,
    global_registry,
    install_standard_collectors,
    MetricsRegistry,
    new_trace,
    NULL_LOG,
    SamplingProfiler,
    SLO,
    SLOTracker,
    span,
    Trace,
    use_trace,
)
from .cache import Artifact, ArtifactCache, ArtifactKey
from .registry import default_registry, GraphRegistry

__all__ = [
    "BlockerService",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "RequestError",
    "ServiceServer",
    "ServiceStats",
    "serve",
]

PROTOCOL_VERSION = 1
"""Wire-protocol version stamped (as ``"v"``) into every response."""

ERROR_CODES = (
    "unknown_op",
    "unknown_graph",
    "bad_params",
    "overloaded",
    "internal",
    "draining",
)
"""Stable machine-readable error codes of the v1 envelope
(append-only).  ``draining`` is sent by the sharded front end
(:mod:`repro.service.frontend`) while it flushes in-flight requests
during a graceful shutdown — clients should reconnect and retry."""

DEFAULTS = {
    "graph": "toy",
    "model": "wc",
    "theta": 200,
    "seed": 7,
    "num_seeds": 3,
}


class RequestError(ValueError):
    """A malformed or unsatisfiable request (client's fault, 4xx-ish).

    ``code`` is the stable v1 error code the envelope carries —
    ``bad_params`` unless the raiser says otherwise.
    """

    def __init__(self, message: str, code: str = "bad_params") -> None:
        super().__init__(message)
        self.code = code


@dataclass
class ServiceStats:
    """Service-level observability counters.

    Mutated from handler threads *and* artifact executors, so every
    read-modify-write goes through the internal lock — otherwise the
    counters would silently undercount under exactly the concurrent
    load the service exists to measure.
    """

    requests: dict[str, int] = field(default_factory=dict)
    errors: int = 0
    batches: int = 0
    """Coalesced executions serving more than one spread query."""
    batched_queries: int = 0
    """Spread queries answered as part of a multi-query batch."""
    max_batch: int = 0
    on_batch: Callable[[int], None] | None = field(
        default=None, repr=False, compare=False
    )
    """Optional observer called (outside the lock) per coalesced batch
    — how BlockerService mirrors batch counts into its metrics
    registry without ServiceStats knowing about registries."""
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, op: str) -> None:
        with self._lock:
            self.requests[op] = self.requests.get(op, 0) + 1

    def count_error(self) -> None:
        with self._lock:
            self.errors += 1

    def count_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_queries += size
            self.max_batch = max(self.max_batch, size)
        if self.on_batch is not None:
            self.on_batch(size)

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "requests": dict(self.requests),
                "errors": self.errors,
                "batches": self.batches,
                "batched_queries": self.batched_queries,
                "max_batch": self.max_batch,
            }


_STOP = object()


class _ExecutorTelemetry:
    """Pre-bound metric children for one executor's graph label.

    The executor mutates these on its hot paths (submit, drain), so
    the label lookup happens once per executor, not once per query.
    ``pending`` is updated under the executor's own mutex — the gauge
    mirrors ``_pending`` exactly, which is what lets the
    reconciliation test assert ``submitted - completed == pending``
    at any quiescent point.
    """

    __slots__ = (
        "pending",
        "queue_age",
        "submitted",
        "completed",
        "direct_serves",
        "shed_overloaded",
    )

    def __init__(self, metrics: MetricsRegistry, graph: str) -> None:
        self.pending = metrics.gauge(
            "repro_executor_pending",
            "Queries queued on the artifact executor, not yet drained",
            labels=("graph",),
        ).labels(graph)
        self.queue_age = metrics.gauge(
            "repro_executor_queue_age_seconds",
            "Queue wait of the oldest item at the executor's most "
            "recent drain",
            labels=("graph",),
        ).labels(graph)
        self.submitted = metrics.counter(
            "repro_executor_submitted_total",
            "Queries accepted onto the artifact executor queue",
            labels=("graph",),
        ).labels(graph)
        self.completed = metrics.counter(
            "repro_executor_completed_total",
            "Queued queries answered (result or error) by the executor",
            labels=("graph",),
        ).labels(graph)
        self.direct_serves = metrics.counter(
            "repro_executor_direct_serves_total",
            "Queries served inline because their executor was retired "
            "between lookup and submit",
            labels=("graph",),
        ).labels(graph)
        self.shed_overloaded = metrics.counter(
            "repro_shed_requests_total",
            "Queries rejected by admission control, by reason",
            labels=("graph", "reason"),
        ).labels(graph, "max_pending")

    @classmethod
    def null(cls) -> "_ExecutorTelemetry":
        """A sink for executors built outside a BlockerService (the
        children land in a throwaway registry)."""
        return cls(MetricsRegistry(), "none")


class _ArtifactExecutor:
    """One worker thread per artifact: serialisation + coalescing.

    Work items are ``(kind, params, future, trace, enqueued_at)``.
    The worker drains everything queued at wake-up, groups ``spread``
    items by ``(seeds, theta)`` and answers each group with one
    batched engine call; ``block`` items run individually (they are
    long and stateful-greedy, there is nothing to share).  Because
    every query is a pure function of the artifact key and its
    parameters, the reordering this implies is observationally
    equivalent to any serial order.

    Tracing crosses the thread boundary explicitly: the submitting
    handler passes its request trace, the worker records the queue
    wait on it and activates it (:func:`~repro.obs.use_trace`) around
    the engine call, so sketch/pool spans land on the request that
    triggered the work.  A coalesced batch runs under the *leader's*
    trace (first queued item); followers still get their queue-wait
    and evaluate spans.  Results are computed before ``set_result``
    so the handler thread never serialises a trace mid-write.

    Close is race-safe: enqueueing and the closed flag share a mutex,
    so no item can land behind the ``_STOP`` sentinel and hang its
    caller — a submit that loses the race runs the query directly
    (unbatched but correct; the artifact's own lock serialises it).
    """

    def __init__(
        self,
        artifact: Artifact,
        stats: ServiceStats,
        max_pending: int | None = None,
        telemetry: _ExecutorTelemetry | None = None,
    ) -> None:
        self._artifact = artifact
        self._stats = stats
        self._max_pending = max_pending
        self._pending = 0
        self._telemetry = (
            telemetry if telemetry is not None
            else _ExecutorTelemetry.null()
        )
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._mutex = threading.Lock()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run,
            name=f"repro-artifact-{artifact.key.graph}",
            daemon=True,
        )
        self._thread.start()

    def submit(self, kind: str, params: dict, trace: Trace | None = None):
        with self._mutex:
            if not self._closed:
                # load shedding: reject before enqueueing, so a stalled
                # artifact cannot grow an unbounded queue of blocked
                # handler threads — clients get a typed `overloaded`
                # error and decide whether to retry
                if (
                    self._max_pending is not None
                    and self._pending >= self._max_pending
                ):
                    self._telemetry.shed_overloaded.inc()
                    raise RequestError(
                        f"artifact {self._artifact.key.graph!r} has "
                        f"{self._pending} queries pending (limit "
                        f"{self._max_pending}); retry later",
                        code="overloaded",
                    )
                future: Future = Future()
                # the increment and the put must stand or fall
                # together: a put that fails (MemoryError under real
                # pressure) leaking a pending slot would ratchet the
                # admission guard shut
                self._pending += 1
                try:
                    self._queue.put(
                        (kind, params, future, trace, time.monotonic())
                    )
                except BaseException:
                    self._pending -= 1
                    raise
                self._telemetry.pending.inc()
                self._telemetry.submitted.inc()
                enqueued = True
            else:
                enqueued = False
        if not enqueued:  # retired executor: serve directly
            self._telemetry.direct_serves.inc()
            return self._execute_one(kind, params)
        return future.result()

    def _execute_one(self, kind: str, params: dict):
        with span("service.evaluate"):
            return self._dispatch(kind, params)

    def _dispatch(self, kind: str, params: dict):
        if kind == "spread":
            return self._artifact.spread_many(
                list(params["seeds"]), [params["blocked"]],
                params["theta"],
            )[0]
        if kind == "update":
            # the work item carries a closure built by the service
            # (journal seq check + Artifact.apply_delta + sibling
            # invalidation); running it here — never coalesced — is
            # what serialises a graph mutation against the in-flight
            # queries sharing this executor
            return params["apply"]()
        return self._artifact.block(**params)

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        self._thread.join(timeout=5)
        self._telemetry.queue_age.set(0.0)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            items = [item]
            while True:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    self._safe_flush(items)
                    return
                items.append(extra)
            self._safe_flush(items)

    def _safe_flush(self, items: list) -> None:
        """Flush, and on an unexpected worker-loop error fail every
        still-unresolved future instead of dying with them hanging —
        the pending accounting already happened at the top of _flush,
        so even this path leaves the gauge exact."""
        try:
            self._flush(items)
        except BaseException as error:  # noqa: BLE001 - keep worker up
            for _, _, future, _, _ in items:
                if not future.done():
                    future.set_exception(error)
                    # futures resolved before the crash were already
                    # counted inside _flush; count only the ones this
                    # path answers, keeping submitted-completed exact
                    self._telemetry.completed.inc()

    def _flush(self, items: list) -> None:
        drained_at = time.monotonic()
        oldest_wait = max(
            drained_at - enqueued_at for *_, enqueued_at in items
        )
        with self._mutex:
            self._pending -= len(items)
            self._telemetry.pending.dec(len(items))
        self._telemetry.queue_age.set(oldest_wait)
        completed = self._telemetry.completed
        spreads: dict[tuple, list] = {}
        for kind, params, future, trace, enqueued_at in items:
            if trace is not None:
                trace.add_span(
                    "service.queue_wait",
                    (drained_at - enqueued_at) * 1000.0,
                )
            if kind == "spread":
                group_key = (tuple(params["seeds"]), params["theta"])
                spreads.setdefault(group_key, []).append(
                    (params, future, trace)
                )
            else:
                try:
                    with use_trace(trace), span("service.evaluate"):
                        result = self._dispatch(kind, params)
                    future.set_result(result)
                except Exception as error:  # noqa: BLE001 - to caller
                    future.set_exception(error)
                completed.inc()
        for (seeds, theta), group in spreads.items():
            if len(group) > 1:
                self._stats.count_batch(len(group))
            # the batched call runs under the leader's trace: its spans
            # are real engine work even when followers share the answer
            leader_trace = group[0][2]
            try:
                with use_trace(leader_trace), span("service.evaluate"):
                    estimates = self._artifact.spread_many(
                        list(seeds),
                        [params["blocked"] for params, _, _ in group],
                        theta,
                    )
            except Exception as error:  # noqa: BLE001 - to callers
                for _, future, _ in group:
                    future.set_exception(error)
                    completed.inc()
                continue
            for (_, future, _), estimate in zip(group, estimates):
                future.set_result(estimate)
                completed.inc()


class BlockerService:
    """Dispatch JSON requests against the registry and artifact cache."""

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        cache: ArtifactCache | None = None,
        max_entries: int = 8,
        max_bytes: int | None = None,
        cache_dir=None,
        defaults: dict | None = None,
        metrics: MetricsRegistry | None = None,
        log: EventLog | None = None,
        slow_ms: float | None = None,
        max_pending: int | None = None,
        profile_hz: float | None = None,
        slos: Sequence[SLO] | None = None,
    ) -> None:
        self.registry = registry if registry is not None else (
            cache.registry if cache is not None else default_registry()
        )
        self.cache = cache if cache is not None else ArtifactCache(
            self.registry,
            max_entries=max_entries,
            max_bytes=max_bytes,
            cache_dir=cache_dir,
        )
        self.defaults = {**DEFAULTS, **(defaults or {})}
        self.max_pending = max_pending
        """Per-artifact executor queue bound: submissions beyond it
        are rejected with error code ``overloaded`` (None = no bound)."""
        self.stats = ServiceStats()
        self._executors: dict[ArtifactKey, _ArtifactExecutor] = {}
        self._lock = threading.Lock()
        # retire an evicted artifact's executor immediately — without
        # this, the executor's strong reference to the artifact (and
        # its idle worker thread) would outlive every eviction and
        # defeat the cache's memory bound
        self.cache.on_evict = self._retire_executor
        # --- observability surface (repro.obs) ---
        # shared registry by default, so the metrics op, the
        # --metrics-port scrape and every engine-side gauge agree;
        # tests hand in a fresh MetricsRegistry for isolation
        self.metrics = metrics if metrics is not None else global_registry()
        install_standard_collectors(self.metrics)
        self.log = log if log is not None else NULL_LOG
        self.slow_ms = slow_ms
        self.slow_queries: deque[dict] = deque(maxlen=64)
        self._slow_lock = threading.Lock()
        self._m_requests = self.metrics.counter(
            "repro_requests_total",
            "Service requests dispatched, by op",
            labels=("op",),
        )
        self._m_errors = self.metrics.counter(
            "repro_request_errors_total",
            "Service requests answered with ok=false",
        )
        self._m_latency = self.metrics.histogram(
            "repro_request_duration_seconds",
            "Wall-clock request latency through BlockerService.handle",
            labels=("op",),
        )
        self._m_slow = self.metrics.counter(
            "repro_slow_queries_total",
            "Requests slower than the configured slow_ms threshold",
        )
        self._m_batches = self.metrics.counter(
            "repro_coalesced_batches_total",
            "Coalesced executions serving more than one spread query",
        )
        self._m_batched = self.metrics.counter(
            "repro_coalesced_queries_total",
            "Spread queries answered as part of a multi-query batch",
        )
        self._m_inflight = self.metrics.gauge(
            "repro_inflight_requests",
            "Requests currently inside BlockerService.handle",
        )
        self.stats.on_batch = self._count_batch_metrics
        # per-graph telemetry children are cached here so a rebuilt
        # executor (cache eviction + re-warm) keeps accumulating into
        # the same counters rather than resetting the series
        self._telemetry: dict[str, _ExecutorTelemetry] = {}
        self.profiler: SamplingProfiler | None = None
        """The service-owned sampling profiler; created lazily by the
        ``profile`` op, or at construction when ``profile_hz`` is set
        (``serve --profile-hz``)."""
        if profile_hz is not None:
            self.profiler = SamplingProfiler(
                hz=profile_hz, registry=self.metrics
            )
            self.profiler.start()
        self.slo: SLOTracker | None = (
            SLOTracker(slos, registry=self.metrics) if slos else None
        )
        """Burn-rate tracker for the configured SLOs (``serve --slo``);
        None when no objectives were declared."""

    def _count_batch_metrics(self, size: int) -> None:
        self._m_batches.inc()
        self._m_batched.inc(size)

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """One request dict -> one response dict (never raises).

        Every request runs under a :class:`~repro.obs.Trace` — the
        client's ``trace_id`` or a fresh one — whose id is echoed in
        the response; ``"trace": true`` additionally attaches the
        span tree.  Latency, counts and errors land in the metrics
        registry, one event per request in the event log, and
        requests over ``slow_ms`` in the bounded slow-query log.
        """
        op_label = "invalid"
        started = time.monotonic()
        trace = new_trace(self._client_trace_id(request))
        self._m_inflight.inc()
        try:
            with use_trace(trace):
                if not isinstance(request, dict):
                    raise RequestError("request must be a JSON object")
                op = request.get("op")
                handler = self._handlers().get(op)
                if handler is None:
                    raise RequestError(
                        f"unknown op {op!r}; expected one of "
                        + ", ".join(sorted(self._handlers())),
                        code="unknown_op",
                    )
                op_label = op
                self.stats.count(op)
                response: dict = {
                    "ok": True, "v": PROTOCOL_VERSION, "op": op,
                }
                result = handler(request)
                if result is not None:
                    response["result"] = result
        except RequestError as error:
            self.stats.count_error()
            response = _error_envelope(error.code, str(error), op_label)
        except Exception as error:  # noqa: BLE001 - report, don't die
            self.stats.count_error()
            response = _error_envelope(
                "internal", f"{type(error).__name__}: {error}", op_label
            )
        finally:
            self._m_inflight.dec()
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        response["trace_id"] = trace.trace_id
        if isinstance(request, dict) and request.get("trace"):
            response["trace"] = trace.as_dict()
        self._finish_request(
            op_label, request, response, trace,
            (time.monotonic() - started) * 1000.0,
        )
        return response

    def _client_trace_id(self, request) -> str | None:
        """The client-supplied trace id, when usable (non-empty
        string); anything else means the server assigns one."""
        if not isinstance(request, dict):
            return None
        trace_id = request.get("trace_id")
        if isinstance(trace_id, str) and trace_id.strip():
            return trace_id.strip()[:128]
        return None

    def _finish_request(
        self,
        op: str,
        request,
        response: dict,
        trace: Trace,
        duration_ms: float,
    ) -> None:
        """Metrics + event log + slow-query log for one request."""
        self._m_requests.labels(op).inc()
        self._m_latency.labels(op).observe(duration_ms / 1000.0)
        if not response.get("ok"):
            self._m_errors.inc()
        graph = (
            request.get("graph", self.defaults["graph"])
            if isinstance(request, dict)
            else None
        )
        error = response.get("error")
        self.log.event(
            "request",
            trace_id=trace.trace_id,
            op=op,
            graph=graph if op not in ("ping", "graphs", "metrics") else None,
            ok=bool(response.get("ok")),
            error=error.get("message") if isinstance(error, dict) else error,
            error_code=error.get("code") if isinstance(error, dict) else None,
            duration_ms=round(duration_ms, 3),
        )
        if self.slow_ms is not None and duration_ms >= self.slow_ms:
            self._m_slow.inc()
            record = {
                "trace_id": trace.trace_id,
                "op": op,
                "graph": graph,
                "duration_ms": round(duration_ms, 3),
                "ok": bool(response.get("ok")),
                "phases": trace.summary(),
            }
            with self._slow_lock:
                self.slow_queries.append(record)
            self.log.event("slow_query", **record)

    def _handlers(self) -> dict[str, Callable[[dict], object]]:
        return {
            "ping": lambda request: "pong",
            "graphs": self._op_graphs,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "profile": self._op_profile,
            "warm": self._op_warm,
            "spread": self._op_spread,
            "block": self._op_block,
            "update": self._op_update,
            # "shutdown" is transport-level; the TCP layer intercepts
            # it before dispatch and this entry only documents the op
            "shutdown": lambda request: "bye",
        }

    # ------------------------------------------------------------------
    # parameter resolution
    # ------------------------------------------------------------------
    def _artifact_key(self, request: dict) -> ArtifactKey:
        graph = request.get("graph", self.defaults["graph"])
        model = request.get("model", self.defaults["model"])
        if graph not in self.registry:
            raise RequestError(
                f"unknown graph {graph!r}; registered: "
                + ", ".join(self.registry.names()),
                code="unknown_graph",
            )
        if model not in MODELS:
            raise RequestError(
                f"unknown model {model!r}; expected one of "
                + ", ".join(MODELS)
            )
        theta = _as_int(request, "theta", self.defaults["theta"])
        if theta <= 0:
            raise RequestError("theta must be positive")
        seed = _as_int(request, "seed", self.defaults["seed"])
        return ArtifactKey(graph, model, theta, seed)

    def _artifact(self, key: ArtifactKey) -> Artifact:
        try:
            return self.cache.get(key)
        except (KeyError, ValueError) as error:
            raise RequestError(str(error)) from error

    def _executor(self, key: ArtifactKey) -> _ArtifactExecutor:
        artifact = self._artifact(key)
        with self._lock:
            executor = self._executors.get(key)
            if executor is None or executor._artifact is not artifact:
                # first query for this key, or the cache evicted and
                # rebuilt the artifact since — retire the old worker
                if executor is not None:
                    executor.close()
                telemetry = self._telemetry.get(key.graph)
                if telemetry is None:
                    telemetry = _ExecutorTelemetry(self.metrics, key.graph)
                    self._telemetry[key.graph] = telemetry
                executor = _ArtifactExecutor(
                    artifact,
                    self.stats,
                    max_pending=self.max_pending,
                    telemetry=telemetry,
                )
                self._executors[key] = executor
            return executor

    def _retire_executor(self, key: ArtifactKey, artifact) -> None:
        """Cache-eviction hook: reap the evicted key's worker thread."""
        with self._lock:
            executor = self._executors.pop(key, None)
        if executor is not None:
            executor.close()

    def _seeds(self, request: dict, artifact: Artifact) -> list[int]:
        seeds = request.get("seeds")
        if seeds is None:
            count = _as_int(
                request, "num_seeds", self.defaults["num_seeds"]
            )
            if count < 1:
                raise RequestError("num_seeds must be >= 1")
            return artifact.default_seeds(count)
        seeds = _vertex_list(seeds, "seeds", artifact.csr.n)
        if not seeds:
            raise RequestError("seeds must be non-empty")
        return seeds

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def _op_graphs(self, request: dict) -> list[dict]:
        return self.registry.describe()

    def _op_stats(self, request: dict) -> dict:
        """Service-wide stats — or one warm artifact's stats when the
        request names any artifact-key field.

        The per-artifact form returns the artifact's description
        (pool counters plus ``SketchStats.as_dict()``, including the
        arena/postings byte gauges of the query path) **without ever
        building**: observability must not trigger, or block behind,
        the most expensive operation the service performs.  A key that
        is not resident is a request error naming the fix (warm it).
        ``"artifact": true`` selects the per-artifact form with the
        server's default key fields (what ``repro-imin query --stats``
        sends when no key fields were given).
        """
        if request.get("artifact") or any(
            f in request for f in ("graph", "model", "theta", "seed")
        ):
            key = self._artifact_key(request)
            artifact = self.cache.peek(key)
            if artifact is None:
                raise RequestError(
                    f"artifact {key.as_dict()} is not warm; warm it "
                    "first (op=warm) or query it (op=spread/block)"
                )
            return artifact.describe()
        with self._slow_lock:
            slow = list(self.slow_queries)
        result: dict[str, object] = {
            "service": self.stats.as_dict(),
            "cache": self.cache.describe(),
            "slow_queries": slow,
        }
        if self.slo is not None:
            result["slo"] = self.slo.as_dict()
        if self.profiler is not None:
            result["profiler"] = self.profiler.stats()
        return result

    def _op_profile(self, request: dict) -> dict:
        """Drive the sampling profiler on the live server.

        Actions: ``start`` (optional ``hz``; errors if already
        running, recreates the profiler when ``hz`` differs from the
        current one), ``stop``, ``status``, and ``dump`` — stats plus
        the collapsed-stack text (optionally truncated to the ``limit``
        hottest stacks), ready for ``flamegraph.pl``.
        """
        action = request.get("action", "status")
        if action not in ("start", "stop", "dump", "status"):
            raise RequestError(
                f"unknown profile action {action!r}; expected one of "
                "start, stop, dump, status"
            )
        if action == "start":
            hz = request.get("hz", DEFAULT_HZ)
            if isinstance(hz, bool) or not isinstance(hz, (int, float)):
                raise RequestError("hz must be a number")
            if self.profiler is not None and self.profiler.active:
                raise RequestError(
                    f"profiler already running at {self.profiler.hz:g} "
                    "Hz; stop it first"
                )
            if self.profiler is None or self.profiler.hz != float(hz):
                try:
                    self.profiler = SamplingProfiler(
                        hz=float(hz), registry=self.metrics
                    )
                except ValueError as error:
                    raise RequestError(str(error)) from error
            self.profiler.start()
            return self.profiler.stats()
        if self.profiler is None:
            raise RequestError(
                "profiler was never started (op=profile action=start, "
                "or serve --profile-hz)"
            )
        if action == "stop":
            return self.profiler.stop()
        if action == "dump":
            limit = request.get("limit")
            if limit is not None:
                limit = _as_int(request, "limit", 0)
                if limit < 1:
                    raise RequestError("limit must be >= 1")
            return {
                **self.profiler.stats(),
                "collapsed": self.profiler.collapsed(limit),
            }
        return self.profiler.stats()

    def _op_metrics(self, request: dict) -> str:
        """Prometheus text exposition of the service's registry — the
        same families the ``--metrics-port`` HTTP endpoint serves, so
        JSON-lines-only deployments still get a scrapeable surface."""
        return self.metrics.render()

    def _op_warm(self, request: dict) -> dict:
        key = self._artifact_key(request)
        with span("service.resolve"):
            artifact = self._artifact(key)
        if request.get("seeds") is not None or request.get("sketch"):
            artifact.warm_sketch(self._seeds(request, artifact))
        return artifact.describe()

    def _op_spread(self, request: dict) -> dict:
        key = self._artifact_key(request)
        with span("service.resolve"):
            artifact = self._artifact(key)
        seeds = self._seeds(request, artifact)
        blocked = _vertex_list(
            request.get("blocked", []), "blocked", artifact.csr.n
        )
        seed_set = set(seeds)
        dropped = sorted(set(blocked) & seed_set)
        blocked = [v for v in blocked if v not in seed_set]
        estimate = self._executor(key).submit(
            "spread",
            {"seeds": seeds, "blocked": blocked, "theta": key.theta},
            trace=current_trace(),
        )
        result = {
            **key.as_dict(),
            "seeds": seeds,
            "blocked": blocked,
            "spread": estimate,
        }
        if dropped:
            result["ignored_seed_blockers"] = dropped
        return result

    def _op_block(self, request: dict) -> dict:
        key = self._artifact_key(request)
        with span("service.resolve"):
            artifact = self._artifact(key)
        seeds = self._seeds(request, artifact)
        budget = _as_int(request, "budget", 10)
        if budget < 1:
            raise RequestError("budget must be >= 1")
        algorithm = request.get(
            "algorithm", self.defaults.get("algorithm", "greedy-replace")
        )
        if algorithm not in ALGORITHMS:
            raise RequestError(
                f"unknown algorithm {algorithm!r}; expected one of "
                + ", ".join(ALGORITHMS)
            )
        rng = request.get("rng")
        if rng is not None:
            rng = _as_int(request, "rng", 0)
        outcome = self._executor(key).submit(
            "block",
            {
                "seeds": seeds,
                "budget": budget,
                "algorithm": algorithm,
                "theta": key.theta,
                "rng": rng,
            },
            trace=current_trace(),
        )
        return {**key.as_dict(), "seeds": seeds, "budget": budget, **outcome}

    def _op_update(self, request: dict) -> dict:
        """Apply one batched graph delta to the keyed warm artifact.

        The delta rides the executor as its own (never-coalesced)
        work-item kind, so it serialises with the in-flight spread and
        block queries sharing the artifact — a query observes either
        the whole delta or none of it.  ``seq`` is the client's
        monotone sequence number: a duplicate (connection-reset
        resend) is acknowledged with ``applied: false`` instead of
        double-applied, which is why the client deliberately keeps
        ``update`` *out* of its idempotent-retry set.  Applied deltas
        land in the cache's journal, so evicted siblings and restarted
        workers rebuild onto the post-delta graph and rehydrate the
        re-persisted (post-delta fingerprint) mmap artifacts.
        """
        key = self._artifact_key(request)
        payload = {
            field_name: request[field_name]
            for field_name in ("inserts", "deletes", "reweights")
            if field_name in request
        }
        try:
            delta = GraphDelta.from_dict(payload)
        except (TypeError, ValueError) as error:
            raise RequestError(str(error)) from error
        if not delta:
            raise RequestError(
                "update needs at least one of inserts, deletes, "
                "reweights"
            )
        seq = request.get("seq")
        if seq is not None:
            seq = _as_int(request, "seq", 0)
            if seq < 1:
                raise RequestError("seq must be >= 1")
        with span("service.resolve"):
            self._artifact(key)
        try:
            outcome = self._executor(key).submit(
                "update",
                {"apply": lambda: self.cache.apply_delta(key, delta, seq)},
                trace=current_trace(),
            )
        except RequestError:
            raise
        except (KeyError, ValueError) as error:
            # delta validation against the live graph (missing edge,
            # existing insert, vertex out of range) surfaces from the
            # executor as the engine's ValueError — client's fault
            raise RequestError(str(error)) from error
        return {**key.as_dict(), **outcome}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.profiler is not None:
            self.profiler.stop()
        with self._lock:
            executors = list(self._executors.values())
            self._executors.clear()
        for executor in executors:
            executor.close()
        self.cache.close()


def _error_envelope(code: str, message: str, op: str | None) -> dict:
    """The v1 failure envelope: a structured, code-first error object."""
    return {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error": {"code": code, "message": message, "op": op},
    }


def _as_int(request: dict, field_name: str, default: int) -> int:
    value = request.get(field_name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{field_name} must be an integer")
    return value


def _vertex_list(value, field_name: str, n: int) -> list[int]:
    if not isinstance(value, (list, tuple)):
        raise RequestError(f"{field_name} must be a list of vertex ids")
    out: list[int] = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int):
            raise RequestError(f"{field_name} must contain integers")
        if not 0 <= v < n:
            raise RequestError(
                f"{field_name} id {v} out of range [0, {n})"
            )
        out.append(v)
    return out


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no branch - loop structure
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                self._send(
                    _error_envelope(
                        "bad_params", f"bad JSON: {error}", None
                    )
                )
                continue
            is_shutdown = (
                isinstance(request, dict)
                and request.get("op") == "shutdown"
            )
            if is_shutdown:
                service = self.server.service
                service.stats.count("shutdown")
                trace_id = service._client_trace_id(request)
                if trace_id is None:
                    trace_id = new_trace().trace_id
                service.log.event(
                    "shutdown", trace_id=trace_id, op="shutdown"
                )
                self._send({
                    "ok": True,
                    "v": PROTOCOL_VERSION,
                    "op": "shutdown",
                    "result": "bye",
                    "trace_id": trace_id,
                })
                # shutdown() joins the serve_forever loop (a different
                # thread); detach so this handler can finish its own
                # connection first
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
                return
            self._send(self.server.service.handle(request))

    def _send(self, response: dict) -> None:
        self.wfile.write(
            json.dumps(response, separators=(",", ":")).encode() + b"\n"
        )
        self.wfile.flush()


class ServiceServer(socketserver.ThreadingTCPServer):
    """JSON-lines TCP front of a :class:`BlockerService`.

    ``port=0`` binds an ephemeral port (see ``server_address[1]``) —
    what the tests and benchmark harness use.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: BlockerService,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service

    def server_close(self) -> None:
        super().server_close()
        self.service.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    service: BlockerService | None = None,
    **service_kwargs,
) -> ServiceServer:
    """Bind a :class:`ServiceServer` (without entering its loop).

    Callers run ``server.serve_forever()`` themselves — the CLI does
    it on the main thread, tests in a daemon thread.
    """
    if service is None:
        service = BlockerService(**service_kwargs)
    return ServiceServer((host, port), service)
