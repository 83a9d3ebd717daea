"""repro.obs — unified observability: metrics, tracing, ops surface.

Telemetry before this subsystem was fragmented: the sketch index, the
sample pool and the artifact cache each counted privately
(:class:`~repro.engine.sketch.SketchStats`,
:class:`~repro.engine.pool.PoolStats`,
:class:`~repro.service.cache.CacheStats`), latency only existed inside
offline bench scripts, and none of it was visible from a running
process.  This package is the shared surface, stdlib + numpy only:

:mod:`repro.obs.metrics`
    Thread-safe registry of counters, gauges and fixed-bucket
    histograms (with labels), plus callback collectors that sum the
    pre-existing stats dataclasses across live instances — the old
    attribute APIs are untouched; they *re-register* here
    (:func:`track` / :func:`install_standard_collectors`).
:mod:`repro.obs.exposition`
    Prometheus text-format (0.0.4) encoder over a registry.
:mod:`repro.obs.trace`
    Span tracing: ``with span("sketch.rebase")`` context managers with
    monotonic timers, contextvar nesting, per-request trace ids, and a
    per-span latency histogram fed on every exit.  Instrumented
    through the hot paths — pool generation, batched tree builds,
    arena rebases/gains sweeps, the full service request lifecycle.
:mod:`repro.obs.logs`
    Structured event logging (JSON lines or ``key=value``) behind one
    call-site API — ``repro-imin serve --log-json``.
:mod:`repro.obs.httpd`
    A stdlib HTTP listener serving ``GET /metrics`` for scrapers and
    ``GET /healthz`` (build/uptime JSON) for load balancers —
    ``repro-imin serve --metrics-port``.
:mod:`repro.obs.profile`
    A sampling wall-clock profiler: a daemon thread walking
    ``sys._current_frames()`` at a configurable rate into
    flamegraph-ready collapsed stacks — the service's ``profile`` op,
    ``repro-imin serve --profile-hz`` and ``repro-imin profile``.
:mod:`repro.obs.slo`
    Declarative latency/error SLOs (``p99=250ms``) evaluated from the
    existing request histograms into burn-rate gauges — ``repro-imin
    serve --slo`` and the ``slo`` section of the ``stats`` op.

Everything records into :func:`global_registry` by default; the
service's ``{"op": "metrics"}`` verb and the HTTP listener render the
same registry, so the TCP protocol and the scrape endpoint can never
disagree about what the process has done.
"""

from .exposition import CONTENT_TYPE, merge_expositions, render_text
from .httpd import MetricsServer, start_metrics_server
from .logs import EventLog, NULL_LOG
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    global_registry,
    Histogram,
    install_build_info,
    install_standard_collectors,
    MetricsRegistry,
    package_version,
    RequestMetrics,
    reset_global_registry,
    track,
    tracked,
)
from .profile import check_hz, DEFAULT_HZ, SamplingProfiler
from .slo import check_slos, DEFAULT_WINDOW_SECONDS, parse_slo, SLO, SLOTracker
from .trace import (
    current_trace,
    format_trace,
    iter_spans,
    new_trace,
    Span,
    span,
    Trace,
    use_trace,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_HZ",
    "DEFAULT_WINDOW_SECONDS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_LOG",
    "RequestMetrics",
    "SLO",
    "SLOTracker",
    "SamplingProfiler",
    "Span",
    "Trace",
    "check_hz",
    "check_slos",
    "current_trace",
    "format_trace",
    "global_registry",
    "install_build_info",
    "install_standard_collectors",
    "iter_spans",
    "merge_expositions",
    "new_trace",
    "package_version",
    "parse_slo",
    "render_text",
    "reset_global_registry",
    "span",
    "start_metrics_server",
    "track",
    "tracked",
    "use_trace",
]
