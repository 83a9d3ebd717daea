"""Prometheus scrape endpoint: a tiny stdlib HTTP listener.

``repro-imin serve --metrics-port N`` starts one of these next to the
JSON-lines TCP server so a Prometheus scraper (or ``curl``) can pull
the registry without speaking the service protocol:

* ``GET /metrics`` — exposition text (0.0.4), the scrape target;
* ``GET /``, ``GET /healthz`` — liveness for load balancers: 200 with
  a small JSON body (status, package version, Python version, uptime
  since the listener bound);
* anything else — 404.

The listener is read-only over the registry (rendering never takes a
metric lock thanks to :meth:`MetricsRegistry.collect`'s snapshot
semantics) and runs on daemon threads, so a wedged scraper can never
hold up request serving or process exit.
"""

from __future__ import annotations

import json
import platform
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from .exposition import CONTENT_TYPE, render_text
from .metrics import global_registry, MetricsRegistry, package_version

__all__ = ["MetricsServer", "start_metrics_server"]


class _MetricsHandler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            if self.server.render_fn is not None:
                try:
                    text = self.server.render_fn()
                except Exception:  # noqa: BLE001 - degrade, don't 500
                    text = render_text(self.server.registry)
            else:
                text = render_text(self.server.registry)
            self._reply(200, CONTENT_TYPE, text.encode("utf-8"))
        elif path in ("/", "/healthz"):
            health = {
                "status": "ok",
                "version": self.server.build_version,
                "python": platform.python_version(),
                "uptime_seconds": round(
                    time.monotonic() - self.server.started_at, 3
                ),
            }
            if self.server.health_fn is not None:
                try:
                    health.update(self.server.health_fn())
                except Exception:  # noqa: BLE001 - a dead supervisor
                    health["status"] = "error"
            status = 200 if health.get("status") == "ok" else 503
            self._reply(
                status,
                "application/json; charset=utf-8",
                json.dumps(health, separators=(",", ":")).encode()
                + b"\n",
            )
        else:
            self._reply(
                404, "text/plain; charset=utf-8", b"not found\n"
            )

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # scrapes are not events
        pass


class MetricsServer(ThreadingHTTPServer):
    """HTTP front of one :class:`MetricsRegistry` (``port=0`` binds an
    ephemeral port; see :attr:`port`)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        registry: MetricsRegistry,
        render_fn: Callable[[], str] | None = None,
        health_fn: Callable[[], dict] | None = None,
    ) -> None:
        super().__init__(address, _MetricsHandler)
        self.registry = registry
        self.render_fn = render_fn
        """Override for ``GET /metrics`` — how the sharded front end
        serves the cross-process aggregated page instead of just its
        own registry.  Falls back to the registry on any failure."""
        self.health_fn = health_fn
        """Extra health payload merged into ``/healthz`` — any
        ``status`` other than ``"ok"`` turns the reply into a 503
        (a shard down must fail the load balancer's probe)."""
        self.started_at = time.monotonic()
        self.build_version = package_version()

    @property
    def port(self) -> int:
        return self.server_address[1]


def start_metrics_server(
    host: str = "127.0.0.1",
    port: int = 0,
    registry: MetricsRegistry | None = None,
    render_fn: Callable[[], str] | None = None,
    health_fn: Callable[[], dict] | None = None,
) -> MetricsServer:
    """Bind and start serving (on a daemon thread); returns the server
    so callers can read the bound port and ``shutdown()`` it."""
    server = MetricsServer(
        (host, port),
        registry if registry is not None else global_registry(),
        render_fn=render_fn,
        health_fn=health_fn,
    )
    thread = threading.Thread(
        target=server.serve_forever,
        name=f"repro-metrics-{server.port}",
        daemon=True,
    )
    thread.start()
    return server
