"""JSON-lines client for the blocker-query service.

:class:`ServiceClient` keeps one TCP connection and pipelines requests
over it; `repro-imin query` is a thin shell around it.  Stdlib only.

The client speaks wire-protocol **v1** (see ``docs/api.md``): server
failures arrive as a structured error object ``{"code", "message",
"op"}`` and are raised as *typed* exceptions — :class:`UnknownOpError`,
:class:`UnknownGraphError`, :class:`BadParamsError`,
:class:`OverloadedError` — all subclasses of :class:`ServiceError`, so
``except ServiceError`` keeps catching everything.  Unknown codes, and
a malformed envelope whose ``error`` is not an object, are raised as
bare :class:`ServiceError`.

The query verbs (:meth:`ServiceClient.warm`, :meth:`~ServiceClient.
spread`, :meth:`~ServiceClient.block`) take keyword-only, typed
parameters and validate them client-side — malformed calls fail with
:class:`BadParamsError` before touching the network.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Sequence

__all__ = [
    "BadParamsError",
    "ConnectionLostError",
    "DEFAULT_PORT",
    "DrainingError",
    "IDEMPOTENT_OPS",
    "OverloadedError",
    "ServiceClient",
    "ServiceError",
    "UnknownGraphError",
    "UnknownOpError",
]

DEFAULT_PORT = 7727

IDEMPOTENT_OPS = frozenset(
    ("ping", "graphs", "stats", "metrics", "warm", "spread", "block")
)
"""Ops safe to resend after a dropped connection or a ``draining``
reply: they either read state or converge to the same artifact/answer
when repeated (``block`` is a deterministic function of its params).
``shutdown`` and ``profile`` mutate and are never retried — and so is
``update``: a graph delta is applied exactly once, so the client never
blind-resends it.  Callers who want at-least-once delivery pass a
monotone ``seq`` and resend explicitly; the server acknowledges a
duplicate ``seq`` with ``applied: false`` instead of re-applying."""


class ServiceError(RuntimeError):
    """The server answered ``{"ok": false}`` (or not at all).

    ``code`` is the v1 error code when the server sent one (``None``
    for transport failures and malformed error envelopes).
    """

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        self.code = code


class UnknownOpError(ServiceError):
    """v1 code ``unknown_op``: the server does not know this verb."""


class UnknownGraphError(ServiceError):
    """v1 code ``unknown_graph``: no graph registered under the name."""


class BadParamsError(ServiceError):
    """v1 code ``bad_params``: a parameter failed validation (raised
    client-side too, before the request is sent)."""


class OverloadedError(ServiceError):
    """v1 code ``overloaded``: the artifact's queue is full — back off
    and retry."""


class DrainingError(ServiceError):
    """v1 code ``draining``: the front end is flushing in-flight work
    before a graceful shutdown — reconnect (a rolling restart brings a
    fresh listener up on the same address) and retry."""


class ConnectionLostError(ServiceError):
    """The server closed the connection mid-request (worker restart,
    listener drop); the client's socket has been torn down."""


_CODE_EXCEPTIONS: dict[str, type[ServiceError]] = {
    "unknown_op": UnknownOpError,
    "unknown_graph": UnknownGraphError,
    "bad_params": BadParamsError,
    "overloaded": OverloadedError,
    "draining": DrainingError,
}

_RETRYABLE = (DrainingError, ConnectionLostError, ConnectionError)
"""What one bounded retry covers: an explicit drain notice, a dropped
line, or a socket-level reset/refusal while the listener restarts."""


def _raise_for_error(response: dict) -> None:
    """Map a v1 failure envelope to the matching typed exception.

    ``error`` is ``{"code", "message", "op"}``; unknown codes degrade
    to :class:`ServiceError`.  An ``error`` that is not an object is a
    malformed envelope: a bare :class:`ServiceError` with no code.
    """
    error = response.get("error")
    if not isinstance(error, dict):
        error = {"message": f"malformed error envelope: {error!r}"}
    code = error.get("code")
    message = str(error.get("message", "unspecified server error"))
    raise _CODE_EXCEPTIONS.get(code, ServiceError)(message, code)


def _check_int(name: str, value, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParamsError(f"{name} must be an integer", "bad_params")
    if minimum is not None and value < minimum:
        raise BadParamsError(
            f"{name} must be >= {minimum}", "bad_params"
        )
    return value


def _check_vertices(name: str, value) -> list[int]:
    if not isinstance(value, (list, tuple)):
        raise BadParamsError(
            f"{name} must be a list of vertex ids", "bad_params"
        )
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise BadParamsError(
                f"{name} must contain non-negative integers",
                "bad_params",
            )
    return list(value)


def _check_str(name: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise BadParamsError(
            f"{name} must be a non-empty string", "bad_params"
        )
    return value


def _key_params(graph, model, theta, seed) -> dict[str, object]:
    """Validate + assemble the artifact-key fields every query verb
    shares; ``None`` fields are omitted (server defaults apply)."""
    params: dict[str, object] = {}
    if graph is not None:
        params["graph"] = _check_str("graph", graph)
    if model is not None:
        params["model"] = _check_str("model", model)
    if theta is not None:
        params["theta"] = _check_int("theta", theta, minimum=1)
    if seed is not None:
        params["seed"] = _check_int("seed", seed, minimum=0)
    return params


class ServiceClient:
    """One connection to a :class:`~repro.service.server.ServiceServer`.

    Usable as a context manager; the connection is opened lazily on
    the first request and survives any number of them.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 60.0,
        retry: bool = True,
        retry_delay: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        """Retry :meth:`call` exactly once — idempotent ops only — on
        a connection reset or a ``draining`` reply, so rolling drains
        and worker restarts don't surface as raw socket errors."""
        self.retry_delay = retry_delay
        self._sock: socket.socket | None = None
        self._reader = None

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._sock = sock
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._reader.close()
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
        self._sock = None
        self._reader = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def request(self, op: str, **params) -> dict:
        """Send one request; return the full response envelope."""
        self.connect()
        payload = {"op": op}
        payload.update(
            (k, v) for k, v in params.items() if v is not None
        )
        self._sock.sendall(
            json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        )
        line = self._reader.readline()
        if not line:
            self.close()
            raise ConnectionLostError(
                f"server at {self.host}:{self.port} closed the connection"
            )
        return json.loads(line)

    def call(self, op: str, **params):
        """Send one request; return its ``result`` or raise the typed
        exception matching the server's error code.

        When :attr:`retry` is set (the default) and ``op`` is in
        :data:`IDEMPOTENT_OPS`, a connection reset or a ``draining``
        reply is retried exactly once against the same address after
        :attr:`retry_delay` seconds on a fresh connection — the window
        a rolling drain or a crashed-worker restart needs.  The retry
        is bounded at one: persistent failure still raises."""
        try:
            response = self.request(op, **params)
            if not response.get("ok"):
                _raise_for_error(response)
        except _RETRYABLE:
            if not (self.retry and op in IDEMPOTENT_OPS):
                raise
            self.close()
            time.sleep(self.retry_delay)
            response = self.request(op, **params)
            if not response.get("ok"):
                _raise_for_error(response)
        return response.get("result")

    # ------------------------------------------------------------------
    # convenience verbs
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return self.call("ping") == "pong"

    def graphs(self) -> list[dict]:
        return self.call("graphs")

    def stats(self) -> dict:
        return self.call("stats")

    def metrics(self) -> str:
        """Prometheus text exposition of the server's registry."""
        return self.call("metrics")

    def profile(
        self,
        action: str = "status",
        *,
        hz: float | None = None,
        limit: int | None = None,
        **extra,
    ) -> dict:
        """Drive the server's sampling profiler.

        ``action`` is ``start`` (optionally with ``hz``), ``stop``,
        ``status``, or ``dump`` — which returns the sampler stats plus
        the flamegraph-ready collapsed-stack text (``limit`` keeps only
        the hottest stacks).
        """
        if action not in ("start", "stop", "dump", "status"):
            raise BadParamsError(
                "action must be one of start, stop, dump, status",
                "bad_params",
            )
        params: dict[str, object] = {"action": action}
        if hz is not None:
            if isinstance(hz, bool) or not isinstance(hz, (int, float)):
                raise BadParamsError("hz must be a number", "bad_params")
            params["hz"] = hz
        if limit is not None:
            params["limit"] = _check_int("limit", limit, minimum=1)
        return self.call("profile", **params, **extra)

    def warm(
        self,
        *,
        graph: str | None = None,
        model: str | None = None,
        theta: int | None = None,
        seed: int | None = None,
        seeds: Sequence[int] | None = None,
        sketch: bool | None = None,
        **extra,
    ) -> dict:
        """Build (or touch) the artifact; optionally pre-build its
        sketch view for ``seeds``.  All parameters are keyword-only
        and validated client-side."""
        params = _key_params(graph, model, theta, seed)
        if seeds is not None:
            params["seeds"] = _check_vertices("seeds", seeds)
        if sketch is not None:
            params["sketch"] = bool(sketch)
        return self.call("warm", **params, **extra)

    def spread(
        self,
        *,
        graph: str | None = None,
        model: str | None = None,
        theta: int | None = None,
        seed: int | None = None,
        seeds: Sequence[int] | None = None,
        blocked: Sequence[int] | None = None,
        num_seeds: int | None = None,
        **extra,
    ) -> dict:
        """Expected-spread estimate under ``blocked``.  All parameters
        are keyword-only and validated client-side."""
        params = _key_params(graph, model, theta, seed)
        if seeds is not None:
            params["seeds"] = _check_vertices("seeds", seeds)
        if blocked is not None:
            params["blocked"] = _check_vertices("blocked", blocked)
        if num_seeds is not None:
            params["num_seeds"] = _check_int(
                "num_seeds", num_seeds, minimum=1
            )
        return self.call("spread", **params, **extra)

    def block(
        self,
        *,
        graph: str | None = None,
        model: str | None = None,
        theta: int | None = None,
        seed: int | None = None,
        seeds: Sequence[int] | None = None,
        budget: int | None = None,
        algorithm: str | None = None,
        rng: int | None = None,
        num_seeds: int | None = None,
        **extra,
    ) -> dict:
        """Select blockers against the warm sketch index.  All
        parameters are keyword-only and validated client-side."""
        params = _key_params(graph, model, theta, seed)
        if seeds is not None:
            params["seeds"] = _check_vertices("seeds", seeds)
        if budget is not None:
            params["budget"] = _check_int("budget", budget, minimum=1)
        if algorithm is not None:
            params["algorithm"] = _check_str("algorithm", algorithm)
        if rng is not None:
            params["rng"] = _check_int("rng", rng, minimum=0)
        if num_seeds is not None:
            params["num_seeds"] = _check_int(
                "num_seeds", num_seeds, minimum=1
            )
        return self.call("block", **params, **extra)

    def update(
        self,
        *,
        graph: str | None = None,
        model: str | None = None,
        theta: int | None = None,
        seed: int | None = None,
        inserts: Sequence[Sequence] | None = None,
        deletes: Sequence[Sequence] | None = None,
        reweights: Sequence[Sequence] | None = None,
        seq: int | None = None,
        **extra,
    ) -> dict:
        """Apply one batched graph delta to the keyed warm artifact.

        ``inserts``/``reweights`` are ``(u, v, p)`` triples,
        ``deletes`` are ``(u, v)`` pairs.  ``seq`` is a caller-chosen
        monotone sequence number: the server applies each ``seq`` at
        most once and acknowledges duplicates with ``applied: false``,
        so an explicit resend after a dropped connection is safe.
        ``update`` is *not* in :data:`IDEMPOTENT_OPS` — the client
        never resends it automatically.
        """
        params = _key_params(graph, model, theta, seed)
        for name, edits, width in (
            ("inserts", inserts, 3),
            ("deletes", deletes, 2),
            ("reweights", reweights, 3),
        ):
            if edits is None:
                continue
            if not isinstance(edits, (list, tuple)):
                raise BadParamsError(
                    f"{name} must be a list of edge edits", "bad_params"
                )
            checked = []
            for edit in edits:
                if not isinstance(edit, (list, tuple)) or (
                    len(edit) != width
                ):
                    raise BadParamsError(
                        f"{name} entries must have {width} fields",
                        "bad_params",
                    )
                checked.append(list(edit))
            params[name] = checked
        if not any(
            k in params for k in ("inserts", "deletes", "reweights")
        ):
            raise BadParamsError(
                "update needs at least one of inserts, deletes, "
                "reweights",
                "bad_params",
            )
        if seq is not None:
            params["seq"] = _check_int("seq", seq, minimum=1)
        return self.call("update", **params, **extra)

    def shutdown(self) -> None:
        """Ask the server to exit; tolerates the connection dropping."""
        try:
            self.call("shutdown")
        except (ServiceError, OSError):  # pragma: no cover - racy close
            pass
        finally:
            self.close()

    def wait_until_ready(self, deadline: float = 10.0) -> bool:
        """Poll ``ping`` until the server answers or ``deadline`` (s)
        passes — for scripts that just forked a ``repro serve``."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            try:
                if self.ping():
                    return True
            except (OSError, ServiceError, json.JSONDecodeError):
                self.close()
                time.sleep(0.05)
        return False
