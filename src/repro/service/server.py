"""The blocker-query server: threaded TCP/JSON-lines, stdlib only.

Three pieces:

:class:`BlockerService`
    Transport-independent request handler — a dict in, a dict out.
    Owns the :class:`~repro.service.registry.GraphRegistry` and the
    :class:`~repro.service.cache.ArtifactCache`.  Each ``spread`` and
    ``block`` runs on its connection's handler thread while holding
    the artifact's lock: spreads share it (up to one per CPU) and run
    concurrently, blocks and updates hold it alone, since they change
    the stateful sketch/pool machinery.  Every answer is a pure function of the
    artifact key and the query parameters, so concurrent clients get
    the bit-identical answers of serial execution.
:class:`ServiceServer`
    A ``socketserver.ThreadingTCPServer`` speaking JSON lines: each
    request is one ``\\n``-terminated JSON object, each response one
    JSON line.  A connection may pipeline any number of requests.
:func:`build_service`
    The one way a server process builds its service, from a frozen,
    picklable :class:`WorkerSpec`: the standalone server and every
    shard worker of :mod:`repro.service.frontend` go through it.

**Wire protocol v1** (see ``docs/api.md`` for the full schema): every
response carries ``"v": 1``.  Success is ``{"ok": true, "v": 1, "op":
..., "result": ...}``; failure is ``{"ok": false, "v": 1, "error":
{"code": ..., "message": ..., "op": ...}}`` with stable machine-
readable codes — ``unknown_op``, ``unknown_graph``, ``bad_params``,
``overloaded``, ``internal`` — so clients dispatch on ``code`` instead
of parsing prose (:class:`~repro.service.client.ServiceClient` maps
them to typed exceptions).  This module's envelope helpers
(:func:`success_envelope`, :func:`error_envelope`, :func:`stamp`,
:func:`encode`) are the only copy: the sharded front end builds its
own replies with them.

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
bounds the queries waiting for one artifact's lock: queries beyond it
are rejected with code ``overloaded`` instead of queueing without
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
"the server is drowning".  A query is *pending* from admission until
it holds its artifact's lock.  ``repro_executor_pending{graph=}``
counts them (changed under the same mutex as the admission count, so
the gauge is exact), ``repro_executor_queue_age_seconds{graph=}`` is
the lock wait of the most recent query, and submitted/completed
counters differ by exactly the pending gauge — the reconciliation
invariant the tests pin.  Requests shed by the ``--max-pending``
admission guard are counted by reason in
``repro_shed_requests_total{graph=,reason=}``.  The accept loop
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

import contextlib
import json
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core import ALGORITHMS
from ..engine.spec import MODELS
from ..graph import GraphDelta
from ..obs import (
    check_hz,
    check_slos,
    DEFAULT_HZ,
    EventLog,
    global_registry,
    install_build_info,
    install_standard_collectors,
    MetricsRegistry,
    new_trace,
    NULL_LOG,
    parse_slo,
    RequestMetrics,
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
    "WorkerSpec",
    "build_service",
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

    Mutated from every handler thread, so every read-modify-write goes
    through the internal lock — otherwise the counters would silently
    undercount under exactly the concurrent load the service exists to
    measure.
    """

    requests: dict[str, int] = field(default_factory=dict)
    errors: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def count(self, op: str) -> None:
        with self._lock:
            self.requests[op] = self.requests.get(op, 0) + 1

    def count_error(self) -> None:
        with self._lock:
            self.errors += 1

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "requests": dict(self.requests),
                "errors": self.errors,
                # v1 fields of the removed spread coalescing: no
                # query is batched any more, so they always read 0
                "batches": 0,
                "batched_queries": 0,
                "max_batch": 0,
            }


class _QueueTelemetry:
    """Pre-bound metric children for one graph label.

    Admission mutates these on every query, so the label lookup
    happens once per graph, not once per query.  ``pending`` changes
    under the service mutex together with the admission count — the
    gauge mirrors it exactly, which is what lets the reconciliation
    test assert ``submitted - completed == pending`` at any quiescent
    point.
    """

    __slots__ = (
        "pending",
        "queue_age",
        "submitted",
        "completed",
        "shed_overloaded",
    )

    def __init__(self, metrics: MetricsRegistry, graph: str) -> None:
        self.pending = metrics.gauge(
            "repro_executor_pending",
            "Queries admitted for an artifact, waiting for its lock",
            labels=("graph",),
        ).labels(graph)
        self.queue_age = metrics.gauge(
            "repro_executor_queue_age_seconds",
            "Artifact-lock wait of the most recent query",
            labels=("graph",),
        ).labels(graph)
        self.submitted = metrics.counter(
            "repro_executor_submitted_total",
            "Queries admitted for an artifact",
            labels=("graph",),
        ).labels(graph)
        self.completed = metrics.counter(
            "repro_executor_completed_total",
            "Admitted queries answered (result or error)",
            labels=("graph",),
        ).labels(graph)
        self.shed_overloaded = metrics.counter(
            "repro_shed_requests_total",
            "Queries rejected by admission control, by reason",
            labels=("graph", "reason"),
        ).labels(graph, "max_pending")


class BlockerService:
    """Dispatch JSON requests against the registry and artifact cache."""

    def __init__(
        self,
        registry: GraphRegistry | None = None,
        cache: ArtifactCache | None = None,
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
        self.cache = (
            cache if cache is not None else ArtifactCache(self.registry)
        )
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.max_pending = max_pending
        """Bound on the queries waiting for one artifact's lock: more
        are rejected with error code ``overloaded`` (None = no bound)."""
        self.stats = ServiceStats()
        self._pending: dict[ArtifactKey, int] = {}
        self._lock = threading.Lock()
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
        self._m_requests = RequestMetrics(self.metrics)
        self._m_slow = self.metrics.counter(
            "repro_slow_queries_total",
            "Requests slower than the configured slow_ms threshold",
        )
        self._telemetry: dict[str, _QueueTelemetry] = {}
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
        trace = request_trace(request)
        self._m_requests.inflight.inc()
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
                response = success_envelope(op, handler(request))
        except RequestError as error:
            self.stats.count_error()
            response = error_envelope(error.code, str(error), op_label)
        except Exception as error:  # noqa: BLE001 - report, don't die
            self.stats.count_error()
            response = error_envelope(
                "internal", f"{type(error).__name__}: {error}", op_label
            )
        finally:
            self._m_requests.inflight.dec()
        stamp(response, request, trace)
        self._finish_request(
            op_label, request, response, trace,
            (time.monotonic() - started) * 1000.0,
        )
        return response

    def _finish_request(
        self,
        op: str,
        request,
        response: dict,
        trace: Trace,
        duration_ms: float,
    ) -> None:
        """Metrics + event log + slow-query log for one request."""
        self._m_requests.record(
            op, duration_ms / 1000.0, bool(response.get("ok"))
        )
        graph = (
            request.get("graph", DEFAULTS["graph"])
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
        graph = request.get("graph", DEFAULTS["graph"])
        model = request.get("model", DEFAULTS["model"])
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
        theta = _as_int(request, "theta", DEFAULTS["theta"])
        if theta <= 0:
            raise RequestError("theta must be positive")
        seed = _as_int(request, "seed", DEFAULTS["seed"])
        if seed < 0:
            raise RequestError("seed must be non-negative")
        return ArtifactKey(graph, model, theta, seed)

    def _artifact(self, key: ArtifactKey) -> Artifact:
        try:
            return self.cache.get(key)
        except (KeyError, ValueError) as error:
            raise RequestError(str(error)) from error

    def _run(self, key: ArtifactKey, lock, call: Callable[[], object]):
        """Run ``call`` on this handler thread while holding ``lock``.

        ``lock`` holds the artifact's lock — shared for a spread,
        exclusive for a block or a sketch warm — or is a null context
        for an update, whose :meth:`ArtifactCache.apply_delta` takes
        the graph, cache and artifact locks itself, in that order.  The
        call is *pending* for ``key`` from admission until it holds
        ``lock``, and admission sheds it with ``overloaded`` once
        ``max_pending`` calls are pending.  It counts as completed
        however it ends, so ``submitted - completed == pending`` at
        quiescence.
        """
        with self._lock:
            telemetry = self._telemetry.get(key.graph)
            if telemetry is None:
                telemetry = _QueueTelemetry(self.metrics, key.graph)
                self._telemetry[key.graph] = telemetry
            pending = self._pending.get(key, 0)
            if self.max_pending is not None and pending >= self.max_pending:
                telemetry.shed_overloaded.inc()
                raise RequestError(
                    f"artifact {key.graph!r} has {pending} queries "
                    f"pending (limit {self.max_pending}); retry later",
                    code="overloaded",
                )
            self._pending[key] = pending + 1
            telemetry.pending.inc()
            telemetry.submitted.inc()
        admitted_at = time.monotonic()
        try:
            with contextlib.ExitStack() as held:
                try:
                    with span("service.queue_wait"):
                        held.enter_context(lock)
                finally:
                    with self._lock:
                        self._pending[key] -= 1
                        if not self._pending[key]:
                            del self._pending[key]
                        telemetry.pending.dec()
                    telemetry.queue_age.set(time.monotonic() - admitted_at)
                with span("service.evaluate"):
                    return call()
        finally:
            telemetry.completed.inc()

    def _seeds(
        self, request: dict, count: int | None, artifact: Artifact
    ) -> list[int]:
        """The request's ``seeds``, or ``count`` default seeds when it
        names none (``count`` comes from :func:`_num_seeds`)."""
        if count is not None:
            return artifact.default_seeds(count)
        seeds = _vertex_list(request["seeds"], "seeds", artifact.csr.n)
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
        if is_keyed_stats(request):
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
        builds_view = request.get("seeds") is not None or request.get("sketch")
        count = _num_seeds(request) if builds_view else None
        with span("service.resolve"):
            artifact = self._artifact(key)
        if builds_view:
            seeds = self._seeds(request, count, artifact)
            # a view build holds the artifact lock exclusively, so it
            # is admitted, counted and traced like a block
            self._run(key, artifact.lock, lambda: artifact.warm_sketch(seeds))
        return artifact.describe()

    def _op_spread(self, request: dict) -> dict:
        key = self._artifact_key(request)
        count = _num_seeds(request)
        with span("service.resolve"):
            artifact = self._artifact(key)
        seeds = self._seeds(request, count, artifact)
        blocked = _vertex_list(
            request.get("blocked", []), "blocked", artifact.csr.n
        )
        seed_set = set(seeds)
        dropped = sorted(set(blocked) & seed_set)
        blocked = [v for v in blocked if v not in seed_set]
        estimate = self._run(
            key,
            artifact.lock.shared(),
            lambda: artifact.spread_many(seeds, [blocked], key.theta)[0],
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
        count = _num_seeds(request)
        budget = _as_int(request, "budget", 10)
        if budget < 1:
            raise RequestError("budget must be >= 1")
        algorithm = request.get("algorithm", "greedy-replace")
        if algorithm not in ALGORITHMS:
            raise RequestError(
                f"unknown algorithm {algorithm!r}; expected one of "
                + ", ".join(ALGORITHMS)
            )
        rng = request.get("rng")
        if rng is not None:
            rng = _as_int(request, "rng", 0)
            if rng < 0:
                raise RequestError("rng must be non-negative")
        with span("service.resolve"):
            artifact = self._artifact(key)
        seeds = self._seeds(request, count, artifact)
        outcome = self._run(
            key,
            artifact.lock,
            lambda: artifact.block(
                seeds, budget, algorithm=algorithm, theta=key.theta, rng=rng
            ),
        )
        return {**key.as_dict(), "seeds": seeds, "budget": budget, **outcome}

    def _op_update(self, request: dict) -> dict:
        """Apply one batched graph delta to the keyed warm artifact.

        :meth:`ArtifactCache.apply_delta` patches the artifact under
        its lock, so the delta serialises with the in-flight spread and
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
            outcome = self._run(
                key,
                contextlib.nullcontext(),
                lambda: self.cache.apply_delta(key, delta, seq),
            )
        except RequestError:
            raise
        except (KeyError, ValueError) as error:
            # delta validation against the live graph (missing edge,
            # existing insert, vertex out of range) surfaces as the
            # engine's ValueError — client's fault
            raise RequestError(str(error)) from error
        return {**key.as_dict(), **outcome}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.profiler is not None:
            self.profiler.stop()
        self.cache.close()


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a server process needs to build its service.

    Frozen and picklable: under ``forkserver``/``spawn`` this is the
    only state that crosses into a shard worker — workers rebuild
    registries and caches from it, they never inherit live objects.
    Construction runs the profiler's and the SLO tracker's own checks,
    so a bad ``--profile-hz`` or ``--slo`` fails where the spec is
    built, before anything binds or spawns.
    """

    scale: float = 1.0
    edge_lists: tuple[tuple[str, str], ...] = ()
    aliases: tuple[tuple[str, str], ...] = ()
    """``(name, dataset_key)`` pairs registered on top of the default
    registry — how the bench spreads one dataset across shards."""
    cache_entries: int = 8
    cache_bytes: int | None = None
    cache_dir: str | None = None
    slow_ms: float | None = None
    profile_hz: float | None = None
    slo_specs: tuple[str, ...] = ()
    log_json: bool = False

    def __post_init__(self) -> None:
        if self.profile_hz is not None:
            check_hz(self.profile_hz)
        self.slos()

    def slos(self) -> tuple[SLO, ...]:
        """The parsed, checked ``slo_specs``."""
        return check_slos([parse_slo(spec) for spec in self.slo_specs])


def build_service(
    spec: WorkerSpec,
    worker: str,
    log: EventLog,
    max_pending: int | None,
) -> BlockerService:
    """The service of one server process, built from ``spec``.

    The standalone server (``worker="standalone"``) and every shard
    worker (``worker="0"``, ``"1"``, ...) are built here, so both
    topologies answer from the same construction.  The service records
    into the process-global registry — where the engine's spans and
    kernel counters land too — tagged by ``repro_build_info{worker=}``.
    """
    registry = default_registry(scale=spec.scale)
    for name, path in spec.edge_lists:
        registry.register_edge_list(name, path)
    for name, key in spec.aliases:
        registry.register_dataset(name, key, scale=spec.scale)
    cache = ArtifactCache(
        registry,
        max_entries=spec.cache_entries,
        max_bytes=spec.cache_bytes,
        cache_dir=spec.cache_dir,
    )
    service = BlockerService(
        registry=registry,
        cache=cache,
        log=log,
        slow_ms=spec.slow_ms,
        max_pending=max_pending,
        profile_hz=spec.profile_hz,
        slos=spec.slos() or None,
    )
    install_build_info(service.metrics, worker=worker)
    return service


# ----------------------------------------------------------------------
# the v1 envelope (shared with the sharded front end)
# ----------------------------------------------------------------------
def success_envelope(op: str, result: object) -> dict:
    """The v1 success envelope (``result`` omitted when None)."""
    response: dict = {"ok": True, "v": PROTOCOL_VERSION, "op": op}
    if result is not None:
        response["result"] = result
    return response


def error_envelope(code: str, message: str, op: str | None) -> dict:
    """The v1 failure envelope: a structured, code-first error object."""
    return {
        "ok": False,
        "v": PROTOCOL_VERSION,
        "error": {"code": code, "message": message, "op": op},
    }


def request_trace(request) -> Trace:
    """A fresh trace for ``request``, under the client-supplied trace
    id when usable (a non-empty string); otherwise the server assigns
    one."""
    trace_id = request.get("trace_id") if isinstance(request, dict) else None
    if isinstance(trace_id, str) and trace_id.strip():
        return new_trace(trace_id.strip()[:128])
    return new_trace()


def stamp(response: dict, request, trace: Trace) -> None:
    """Echo the request's ``id`` and carry its trace: the id always,
    the span tree when the request asked for ``"trace": true``."""
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    response["trace_id"] = trace.trace_id
    if isinstance(request, dict) and request.get("trace"):
        response["trace"] = trace.as_dict()


def is_keyed_stats(request: dict) -> bool:
    """Whether a ``stats`` request names one artifact (any key field,
    or ``"artifact": true``) rather than the whole service."""
    return bool(request.get("artifact")) or any(
        f in request for f in ("graph", "model", "theta", "seed")
    )


def encode(message: dict) -> bytes:
    """One JSON line on the wire."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def _as_int(request: dict, field_name: str, default: int) -> int:
    value = request.get(field_name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{field_name} must be an integer")
    return value


def _num_seeds(request: dict) -> int | None:
    """How many default seeds a request without ``seeds`` asks for, or
    ``None`` when it names its own; needs no graph, so it is checked
    before the artifact is built."""
    if request.get("seeds") is not None:
        return None
    count = _as_int(request, "num_seeds", DEFAULTS["num_seeds"])
    if count < 1:
        raise RequestError("num_seeds must be >= 1")
    return count


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
                    error_envelope("bad_params", f"bad JSON: {error}", None)
                )
                continue
            is_shutdown = (
                isinstance(request, dict)
                and request.get("op") == "shutdown"
            )
            if is_shutdown:
                service = self.server.service
                service.stats.count("shutdown")
                trace_id = request_trace(request).trace_id
                service.log.event(
                    "shutdown", trace_id=trace_id, op="shutdown"
                )
                response = success_envelope("shutdown", "bye")
                response["trace_id"] = trace_id
                self._send(response)
                # the reply is flushed; shutdown() then waits (at most
                # one poll interval) for the serve_forever loop, which
                # runs on another thread, to stop accepting
                self.server.shutdown()
                return
            self._send(self.server.service.handle(request))

    def _send(self, response: dict) -> None:
        self.wfile.write(encode(response))
        self.wfile.flush()


class ServiceServer(socketserver.ThreadingTCPServer):
    """JSON-lines TCP front of a :class:`BlockerService`.

    ``port=0`` binds an ephemeral port (see ``server_address[1]``) —
    what the tests and benchmark harness use.  Construction binds
    without entering the loop: callers run ``serve_forever()``
    themselves.  A failed bind raises its ``OSError`` and closes the
    service.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: BlockerService,
    ) -> None:
        # assigned first: a failed bind calls server_close() from
        # inside TCPServer.__init__
        self.service = service
        super().__init__(address, _Handler)

    def server_close(self) -> None:
        super().server_close()
        self.service.close()
