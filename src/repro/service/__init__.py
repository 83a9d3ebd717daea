"""repro.service — the long-lived blocker-query serving layer.

The engine (PR 1) made spread evaluation fast in-process and the
sketch index (PR 2) made marginal gains O(1) after a one-time build —
but a CLI invocation still pays the full load -> sample -> index cost
before answering a single query.  This subsystem keeps those expensive
artifacts resident and serves many queries against them:

:mod:`repro.service.registry`
    Named-graph registry: datasets, the toy graph and (optionally
    gzip-compressed) SNAP edge lists resolved by name, loaded lazily.
:mod:`repro.service.cache`
    Size-bounded LRU of warm ``(SamplePool, SketchIndex)`` artifacts
    keyed by ``(graph, model, theta, seed)``, with
    hit/miss/eviction stats and disk rehydration of both the pool's
    samples and the sketch's arena views through their persistence.
:mod:`repro.service.server`
    Threaded TCP/JSON-lines server (stdlib only) exposing ``block``,
    ``spread``, ``warm``, ``stats`` and ``graphs`` over the versioned
    v1 wire protocol (structured error envelope, stable error codes);
    each query runs on its handler thread under its artifact's lock
    (shared by spreads), so concurrent answers are bit-identical to
    serial ones.  ``build_service`` builds the standalone server's
    service and every shard worker's from one ``WorkerSpec``.
:mod:`repro.service.client`
    The matching client — typed query verbs, error codes mapped to
    typed exceptions, one bounded retry over drains and worker
    restarts; ``repro-imin serve`` / ``repro-imin query`` make the
    CLI a thin shell around both.
:mod:`repro.service.frontend`
    The scale-out tier: an asyncio listener sharding the named-graph
    space over N worker processes (``serve --serve-workers N``), with
    global admission control, crash supervision, graceful drain,
    access-log prewarming and merged observability.
"""

from .cache import (
    Artifact,
    ArtifactCache,
    ArtifactKey,
    CacheStats,
    DeltaJournal,
)
from .client import (
    BadParamsError,
    ConnectionLostError,
    DEFAULT_PORT,
    DrainingError,
    IDEMPOTENT_OPS,
    OverloadedError,
    ServiceClient,
    ServiceError,
    UnknownGraphError,
    UnknownOpError,
)
from .frontend import shard_for, ShardedFrontend
from .registry import default_registry, GraphEntry, GraphRegistry
from .server import (
    BlockerService,
    build_service,
    ERROR_CODES,
    PROTOCOL_VERSION,
    RequestError,
    ServiceServer,
    ServiceStats,
    WorkerSpec,
)

__all__ = [
    "Artifact",
    "ArtifactCache",
    "ArtifactKey",
    "CacheStats",
    "DeltaJournal",
    "GraphEntry",
    "GraphRegistry",
    "default_registry",
    "BlockerService",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "RequestError",
    "ServiceServer",
    "ServiceStats",
    "WorkerSpec",
    "build_service",
    "BadParamsError",
    "ConnectionLostError",
    "DrainingError",
    "IDEMPOTENT_OPS",
    "OverloadedError",
    "ServiceClient",
    "ServiceError",
    "UnknownGraphError",
    "UnknownOpError",
    "DEFAULT_PORT",
    "ShardedFrontend",
    "shard_for",
]
