"""Sharded serving: an asyncio front end over per-shard worker processes.

PR 8's saturation bench pinned the single-process ceiling: the GIL
serializes the NumPy-adjacent Python in the query path, so past the
knee extra clients buy queueing, not throughput.  This module is the
scale-out answer that keeps every hard-won serial property intact:

* **Topology** — one :class:`ShardedFrontend` listener (asyncio, v1
  JSON-lines, the envelope helpers of :mod:`repro.service.server`)
  routes each request to one of N worker *processes*.  Each worker is
  a :class:`~repro.service.server.ServiceServer` over the service
  :func:`~repro.service.server.build_service` builds from the
  :class:`~repro.service.server.WorkerSpec` the standalone server is
  built from, so per-artifact locking, single-flight builds and LRU
  byte accounting stay shard-local — and answers stay bit-identical
  to the single-process serial server.
* **Sharding** — :func:`shard_for` hashes the *graph name* (stable
  md5, no process-seeded randomization) onto a worker index, so one
  artifact is only ever resident in one process and a graph's clients
  always share the same artifact lock.
* **Artifacts** — workers share nothing in memory; with a common
  ``cache_dir`` they rehydrate pools and sketch views from the PR 7
  mmap artifacts (COW ``np.load``), so a restarted shard re-serves
  its graphs without paying cold builds.
* **Admission** — the front end bounds *global* in-flight routed
  queries (``--max-pending`` across shards) and sheds beyond it with
  the existing ``overloaded`` code; the workers run with no bound of
  their own.
* **Supervision** — a crashed worker fails its in-flight requests
  (shed-counted, ``reason="worker_crash"``) and is restarted on a
  fresh port; ``/healthz`` reports ``workers: {total, alive}`` and
  goes 503 while any shard is down.
* **Drain** — shutdown stops accepting, answers new requests with the
  ``draining`` code, flushes in-flight work, persists the access log,
  then stops the workers.  On the next start the hottest keys from
  that log are prewarmed before traffic hits them.
* **Observability** — worker expositions (each worker's
  process-global registry: request families, spans, kernel and
  selection counters) merge into one scrape page with a ``worker``
  label (:func:`repro.obs.merge_expositions`),
  ``stats``/``profile`` fan out and merge, and traced requests gain a
  root-level ``frontend.route`` span.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import socket
import threading
import time
from pathlib import Path

from ..obs import (
    EventLog,
    install_build_info,
    merge_expositions,
    MetricsRegistry,
    NULL_LOG,
    RequestMetrics,
    reset_global_registry,
)
from .server import (
    build_service,
    DEFAULTS,
    encode,
    error_envelope,
    is_keyed_stats,
    request_trace,
    ServiceServer,
    stamp,
    success_envelope,
    WorkerSpec,
)

__all__ = [
    "ShardedFrontend",
    "WorkerHandle",
    "shard_for",
]

ACCESS_LOG_VERSION = 1
"""Format version of the persisted access-log JSON."""

_PREWARM_LIMIT = 8
"""Hottest access-log keys warmed on start."""

_DRAIN_TIMEOUT = 30.0
"""Seconds a shutdown waits for in-flight requests before stopping
the workers."""

_WORKER_START_TIMEOUT = 120.0
"""Seconds a worker gets to report ready on start."""

_ROUTED_OPS = ("warm", "spread", "block", "update")
"""Ops owned by exactly one shard (their graph's) and counted against
the front end's global admission bound.  ``update`` routes like a
query: the owning shard applies the delta under the artifact's lock,
so it serialises against that graph's in-flight work, and the shared
``cache_dir`` journal makes the mutation survive that worker's
restart."""


def _start_method() -> str:
    """The safest available start method for a shard worker.

    ``fork`` is the cheapest but is only safe while the parent is
    single-threaded: forking with live threads can snapshot a lock
    held by another thread (malloc arena, gzip, logging) and deadlock
    the child.  The front end restarts workers from supervisor
    threads, so under threads we fall back to ``forkserver``/``spawn``,
    where workers start from a clean process at the cost of pickling
    the :class:`WorkerSpec` once per worker.  A process that has split
    a kernel across cores keeps :mod:`repro.native`'s idle worker
    threads, so it counts as threaded here too; the front end itself
    runs no kernel and forks its first workers.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return "fork"
    for method in ("forkserver", "spawn"):
        if method in methods:
            return method
    return methods[0]


def shard_for(graph: str, workers: int) -> int:
    """The worker index owning ``graph``.

    Stable across processes and Python versions (md5 of the name, not
    the seeded builtin ``hash``), so clients, benches and a restarted
    front end always agree which shard holds which artifact.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    digest = hashlib.md5(graph.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % workers


def _worker_main(index: int, spec: WorkerSpec, conn) -> None:
    """Worker-process entry point: serve one shard until shut down.

    Binds an ephemeral port and reports it through ``conn`` once the
    service is ready; the TCP loop then runs until the front end sends
    the ``shutdown`` op (graceful) or the process is terminated.  The
    service records into this process's global registry, emptied
    first: the merged exposition relies on each process reporting
    only its own series, and a forked worker inherits its parent's.
    """
    try:
        reset_global_registry()
        service = build_service(
            spec,
            worker=str(index),
            log=EventLog(json_mode=True) if spec.log_json else NULL_LOG,
            # the front end bounds admission across every shard
            max_pending=None,
        )
        server = ServiceServer(("127.0.0.1", 0), service)
    except BaseException as error:  # noqa: BLE001 - report, then die
        try:
            conn.send({"error": f"{type(error).__name__}: {error}"})
        finally:
            conn.close()
        raise
    conn.send({"port": server.server_address[1], "pid": os.getpid()})
    conn.close()
    try:
        server.serve_forever()
    finally:
        server.server_close()


class WorkerHandle:
    """One shard worker: process, port, restart accounting."""

    def __init__(self, index: int, spec: WorkerSpec) -> None:
        self.index = index
        self.spec = spec
        self.process: multiprocessing.process.BaseProcess | None = None
        self.port: int | None = None
        self.pid: int | None = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def start(self, timeout: float = _WORKER_START_TIMEOUT) -> None:
        """Spawn the worker and wait for its ready handshake.

        The start method follows :func:`_start_method`: ``fork`` only
        while the parent is single-threaded, ``forkserver``/``spawn``
        otherwise.
        """
        ctx = multiprocessing.get_context(_start_method())
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(self.index, self.spec, send),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        process.start()
        send.close()
        if not recv.poll(timeout):
            process.terminate()
            process.join(5.0)
            raise RuntimeError(
                f"shard worker {self.index} did not report ready "
                f"within {timeout:g}s"
            )
        ready = recv.recv()
        recv.close()
        if "error" in ready:
            process.join(5.0)
            raise RuntimeError(
                f"shard worker {self.index} failed to start: "
                f"{ready['error']}"
            )
        self.process = process
        self.port = ready["port"]
        self.pid = ready["pid"]

    def restart(self, timeout: float = _WORKER_START_TIMEOUT) -> None:
        if self.process is not None:
            self.process.join(0.1)
        self.restarts += 1
        self.start(timeout=timeout)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the worker: polite shutdown op first, then terminate."""
        process = self.process
        if process is None:
            return
        if process.is_alive() and self.port is not None:
            try:
                with socket.create_connection(
                    ("127.0.0.1", self.port), timeout=2.0
                ) as sock:
                    sock.sendall(b'{"op":"shutdown"}\n')
                    sock.makefile("rb").readline()
            except OSError:
                pass
        process.join(timeout)
        if process.is_alive():  # pragma: no cover - stuck worker
            process.terminate()
            process.join(5.0)
        self.process = None

    def describe(self) -> dict:
        return {
            "index": self.index,
            "alive": self.alive,
            "pid": self.pid,
            "port": self.port,
            "restarts": self.restarts,
        }


class _WorkerPool:
    """A small pool of pipelined asyncio connections to one worker.

    Each pooled connection carries one request at a time (the v1
    protocol answers in order, so interleaving writers would cross
    replies); the semaphore bounds how many worker handler threads one
    front end can pin.
    """

    def __init__(self, port: int, limit: int = 64) -> None:
        self.port = port
        self.closed = False
        self._sem = asyncio.Semaphore(limit)
        self._free: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]
        self._free = []

    async def roundtrip(self, line: bytes) -> bytes:
        async with self._sem:
            conn = self._free.pop() if self._free else None
            if conn is None:
                conn = await asyncio.open_connection("127.0.0.1", self.port)
            reader, writer = conn
            try:
                writer.write(line)
                await writer.drain()
                reply = await reader.readline()
                if not reply:
                    raise ConnectionResetError(
                        f"worker on port {self.port} closed the connection"
                    )
            except BaseException:
                writer.close()
                raise
            if self.closed:
                writer.close()
            else:
                self._free.append(conn)
            return reply

    def close(self) -> None:
        self.closed = True
        while self._free:
            _, writer = self._free.pop()
            writer.close()


class ShardedFrontend:
    """The two-tier server: asyncio listener + N shard workers.

    ``start()`` spawns the workers, binds the listener and returns
    once both are ready (``address`` carries the bound host/port);
    ``shutdown()`` drains gracefully.  Usable as a context manager.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        worker_spec: WorkerSpec | None = None,
        max_pending: int | None = None,
        access_log: str | os.PathLike | None = None,
        log: EventLog | None = None,
        supervisor_interval: float = 0.25,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.host = host
        self.port = port
        self.worker_spec = (
            worker_spec if worker_spec is not None else WorkerSpec()
        )
        self.max_pending = max_pending
        self.access_log = (
            Path(access_log) if access_log is not None else None
        )
        self.log = log if log is not None else NULL_LOG
        self.supervisor_interval = supervisor_interval
        self.handles = [
            WorkerHandle(i, self.worker_spec) for i in range(workers)
        ]
        self.address: tuple[str, int] | None = None
        self.draining = False
        # --- frontend-process observability ---
        self.metrics = MetricsRegistry()
        install_build_info(self.metrics, worker="frontend")
        self._m_requests = RequestMetrics(self.metrics)
        self._m_shed = self.metrics.counter(
            "repro_shed_requests_total",
            "Requests rejected instead of queued, by reason",
            labels=("graph", "reason"),
        )
        self._m_routed = self.metrics.counter(
            "repro_frontend_routed_total",
            "Requests routed to each shard worker",
            labels=("worker",),
        )
        self._m_up = self.metrics.gauge(
            "repro_worker_up",
            "1 while the shard worker process is alive",
            labels=("worker",),
        )
        self._m_restarts = self.metrics.counter(
            "repro_worker_restarts_total",
            "Crashed shard workers restarted by the supervisor",
            labels=("worker",),
        )
        # --- loop plumbing ---
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._pools: dict[int, _WorkerPool] = {}
        self._pending = 0
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        self._access: dict[tuple, int] = {}
        self._access_lock = threading.Lock()
        self._access_dirty = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedFrontend":
        """Spawn workers, bind the listener, return when ready."""
        try:
            for handle in self.handles:
                handle.start()
                self._pools[handle.index] = _WorkerPool(handle.port)
                self._m_up.labels(str(handle.index)).set(1.0)
        except BaseException:
            self._stop_workers_sync()
            raise
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-frontend", daemon=True
        )
        self._thread.start()
        self._started.wait(30.0)
        if self._start_error is not None:
            self._stop_workers_sync()
            raise RuntimeError(
                f"front end failed to start: {self._start_error}"
            )
        if self.address is None:
            self._stop_workers_sync()
            raise RuntimeError("front end did not bind within 30s")
        self.log.event(
            "frontend_listening",
            host=self.address[0],
            port=self.address[1],
            workers=len(self.handles),
        )
        return self

    def __enter__(self) -> "ShardedFrontend":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, timeout: float = 60.0) -> None:
        """Drain and stop from any thread (idempotent)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._begin_drain)
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._stop_workers_sync()

    def serve_forever(self) -> None:
        """Block until the front end stops (CLI foreground mode)."""
        thread = self._thread
        if thread is None:
            raise RuntimeError("start() the front end first")
        try:
            while thread.is_alive():
                thread.join(0.5)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            self.shutdown()

    def _stop_workers_sync(self) -> None:
        for handle in self.handles:
            handle.stop()
            self._m_up.labels(str(handle.index)).set(0.0)

    # ------------------------------------------------------------------
    # health / stats surfaces (called from other threads)
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` payload: per-worker liveness.

        ``status`` is ``"ok"`` only while every shard is alive and the
        front end is accepting — anything else turns the HTTP probe
        into a 503 so load balancers stop routing here.
        """
        alive = sum(1 for h in self.handles if h.alive)
        total = len(self.handles)
        if self.draining:
            status = "draining"
        elif alive < total:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "workers": {"total": total, "alive": alive},
        }

    def render_metrics(self, timeout: float = 10.0) -> str:
        """The aggregated exposition page (for ``--metrics-port``).

        Synchronous wrapper over the async aggregation — safe to call
        from the HTTP listener's handler threads; degrades to the
        front end's own registry if the loop is gone.
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            return self.metrics.render()
        future = asyncio.run_coroutine_threadsafe(
            self._aggregate_metrics(), loop
        )
        try:
            return future.result(timeout)
        except Exception:  # noqa: BLE001 - degrade, don't fail scrape
            return self.metrics.render()

    # ------------------------------------------------------------------
    # event loop body
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - surface once
            self._start_error = error
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.address = server.sockets[0].getsockname()[:2]
        supervisor = asyncio.create_task(self._supervise())
        prewarmer = asyncio.create_task(self._prewarm())
        self._started.set()
        await self._stop_event.wait()
        # --- graceful drain ---
        server.close()
        await server.wait_closed()
        supervisor.cancel()
        prewarmer.cancel()
        deadline = time.monotonic() + _DRAIN_TIMEOUT
        while self._pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        self._flush_access_log()
        await asyncio.get_running_loop().run_in_executor(
            None, self._stop_workers_sync
        )
        self.log.event("frontend_stopped", drained=self._pending == 0)

    def _begin_drain(self) -> None:
        self.draining = True
        if self._stop_event is not None:
            self._stop_event.set()

    async def _supervise(self) -> None:
        """Watch worker liveness; restart crashed shards."""
        while True:
            await asyncio.sleep(self.supervisor_interval)
            for handle in self.handles:
                alive = handle.alive
                self._m_up.labels(str(handle.index)).set(
                    1.0 if alive else 0.0
                )
                if alive or self.draining:
                    continue
                self.log.event(
                    "worker_crashed",
                    worker=handle.index,
                    restarts=handle.restarts,
                )
                self._pools[handle.index].close()
                try:
                    await asyncio.get_running_loop().run_in_executor(
                        None, handle.restart
                    )
                except Exception as error:  # noqa: BLE001 - keep serving
                    self.log.event(
                        "worker_restart_failed",
                        worker=handle.index,
                        error=str(error),
                    )
                    continue
                self._pools[handle.index] = _WorkerPool(handle.port)
                self._m_restarts.labels(str(handle.index)).inc()
                self._m_up.labels(str(handle.index)).set(1.0)
                self.log.event(
                    "worker_restarted",
                    worker=handle.index,
                    pid=handle.pid,
                    port=handle.port,
                )

    async def _prewarm(self) -> None:
        """Warm the hottest artifact keys from the persisted log."""
        keys = self._load_access_log()
        if not keys:
            return
        for entry in keys[:_PREWARM_LIMIT]:
            request = {"op": "warm", **entry}
            request.pop("count", None)
            shard = shard_for(
                str(request.get("graph", DEFAULTS["graph"])),
                len(self.handles),
            )
            try:
                reply = await self._roundtrip(shard, encode(request))
                ok = bool(json.loads(reply).get("ok"))
            except (OSError, ValueError):
                ok = False
            self.log.event(
                "prewarm",
                graph=request.get("graph"),
                worker=shard,
                ok=ok,
            )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.strip()
                if not line:
                    continue
                try:
                    response, close_after = await self._handle_line(line)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - keep conn
                    response, close_after = (
                        error_envelope(
                            "internal",
                            f"{type(error).__name__}: {error}",
                            None,
                        ),
                        False,
                    )
                writer.write(encode(response))
                await writer.drain()
                if close_after:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def _handle_line(self, line: bytes) -> tuple[dict, bool]:
        """One raw request line -> (response dict, close-connection)."""
        started = time.monotonic()
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            response = error_envelope("bad_params", f"bad JSON: {error}", None)
            return self._finish("invalid", started, response), False
        if not isinstance(request, dict):
            response = error_envelope(
                "bad_params", "request must be a JSON object", None
            )
            return self._finish("invalid", started, response), False
        op = request.get("op") if isinstance(request.get("op"), str) else (
            "invalid"
        )
        close_after = False
        if self.draining and op != "ping":
            response = error_envelope(
                "draining",
                "front end is draining before shutdown; reconnect and "
                "retry",
                op if op != "invalid" else None,
            )
        elif op == "shutdown":
            response = success_envelope("shutdown", "bye")
            self.log.event("shutdown", op="shutdown")
            self._begin_drain()
            close_after = True
        elif op == "ping":
            response = success_envelope("ping", "pong")
        elif op == "metrics":
            response = success_envelope(
                "metrics", await self._aggregate_metrics()
            )
        elif op == "stats" and not is_keyed_stats(request):
            response = success_envelope(
                "stats", await self._merged_stats()
            )
        elif op == "profile":
            response = await self._merged_profile(request)
        else:
            # everything else — the per-graph query ops, keyed stats,
            # graphs, and unknown verbs (the worker's unknown_op error
            # lists the canonical op set) — proxies to one shard
            return await self._route(request, line, started), False
        stamp(response, request, request_trace(request))
        return self._finish(op, started, response), close_after

    async def _route(
        self, request: dict, line: bytes, started: float
    ) -> dict:
        op = request.get("op")
        graph = request.get("graph", DEFAULTS["graph"])
        if not isinstance(graph, str) or not graph:
            graph = str(graph)
        shard = shard_for(graph, len(self.handles))
        admit = op in _ROUTED_OPS
        if (
            admit
            and self.max_pending is not None
            and self._pending >= self.max_pending
        ):
            self._m_shed.labels(graph, "frontend_max_pending").inc()
            response = error_envelope(
                "overloaded",
                f"front end has {self._pending} queries in flight "
                f"(max_pending={self.max_pending}); retry later",
                op,
            )
            stamp(response, request, request_trace(request))
            return self._finish(op, started, response)
        if admit:
            self._pending += 1
            self._m_requests.inflight.set(float(self._pending))
        self._m_routed.labels(str(shard)).inc()
        try:
            reply = await self._roundtrip(shard, line)
            response = json.loads(reply)
        except (OSError, ValueError) as error:
            self._m_shed.labels(graph, "worker_crash").inc()
            self.log.event(
                "worker_crash_inflight",
                worker=shard,
                op=op,
                error=str(error),
            )
            response = error_envelope(
                "internal",
                f"shard {shard} worker failed mid-request "
                f"({type(error).__name__}); it will be restarted — "
                "retry",
                op,
            )
            stamp(response, request, request_trace(request))
        finally:
            if admit:
                self._pending -= 1
                self._m_requests.inflight.set(float(self._pending))
        if admit and response.get("ok"):
            self._record_access(request)
        route_ms = (time.monotonic() - started) * 1000.0
        trace = response.get("trace")
        if isinstance(trace, dict):
            trace.setdefault("spans", []).append(
                {"name": "frontend.route", "duration_ms": round(route_ms, 3)}
            )
        return self._finish(op, started, response)

    def _finish(self, op, started: float, response: dict) -> dict:
        label = op if isinstance(op, str) and op else "invalid"
        self._m_requests.record(
            label, time.monotonic() - started, bool(response.get("ok"))
        )
        return response

    async def _roundtrip(self, shard: int, line: bytes) -> bytes:
        """One request line to one shard, via its connection pool.

        A stale pooled connection (the worker restarted since it was
        pooled) gets one retry against the *current* pool — which the
        supervisor swaps on restart — as long as the worker is alive.
        """
        if not line.endswith(b"\n"):
            line += b"\n"
        try:
            return await self._pools[shard].roundtrip(line)
        except (ConnectionError, OSError):
            handle = self.handles[shard]
            if not handle.alive:
                raise
            return await self._pools[shard].roundtrip(line)

    # ------------------------------------------------------------------
    # fan-out ops
    # ------------------------------------------------------------------
    async def _fanout(self, request: dict) -> dict[int, dict]:
        """Send ``request`` to every worker; map index -> outcome.

        Each outcome is ``{"result": ...}`` or ``{"error": ...}`` — a
        dead shard degrades its own entry, never the whole op.
        """
        line = encode(request)
        indices = list(range(len(self.handles)))
        replies = await asyncio.gather(
            *(self._roundtrip(i, line) for i in indices),
            return_exceptions=True,
        )
        out: dict[int, dict] = {}
        for index, reply in zip(indices, replies):
            if isinstance(reply, BaseException):
                out[index] = {"error": str(reply)}
                continue
            try:
                envelope = json.loads(reply)
            except ValueError as error:  # pragma: no cover - defensive
                out[index] = {"error": f"bad worker reply: {error}"}
                continue
            if envelope.get("ok"):
                out[index] = {"result": envelope.get("result")}
            else:
                error = envelope.get("error")
                message = (
                    error.get("message") if isinstance(error, dict)
                    else str(error)
                )
                code = (
                    error.get("code") if isinstance(error, dict) else None
                )
                out[index] = {"error": message, "code": code}
        return out

    async def _aggregate_metrics(self) -> str:
        """One exposition page: the front end plus every live shard,
        each sample tagged with its ``worker`` label."""
        outcomes = await self._fanout({"op": "metrics"})
        parts: list[tuple[str, str]] = [
            ("frontend", self.metrics.render())
        ]
        for index in sorted(outcomes):
            result = outcomes[index].get("result")
            if isinstance(result, str):
                parts.append((str(index), result))
        return merge_expositions(parts, label="worker")

    async def _merged_stats(self) -> dict:
        """The fleet-wide ``stats`` result.

        ``service`` sums the per-worker request and error counters
        (the v1 coalescing fields always read 0), ``workers`` keeps
        each shard's full report (or its error), and ``frontend``
        describes the tier the workers can't see: admission, drain
        state, supervision and the access log.
        """
        outcomes = await self._fanout({"op": "stats"})
        service = {
            "requests": {},
            "errors": 0,
            "batches": 0,
            "batched_queries": 0,
            "max_batch": 0,
        }
        workers: dict[str, object] = {}
        for index in sorted(outcomes):
            outcome = outcomes[index]
            workers[str(index)] = outcome.get("result", outcome)
            result = outcome.get("result")
            if not isinstance(result, dict):
                continue
            stats = result.get("service")
            if not isinstance(stats, dict):
                continue
            for op, count in (stats.get("requests") or {}).items():
                service["requests"][op] = (
                    service["requests"].get(op, 0) + count
                )
            service["errors"] += stats.get("errors", 0)
        with self._access_lock:
            access_entries = len(self._access)
        return {
            "service": service,
            "workers": workers,
            "frontend": {
                "draining": self.draining,
                "pending": self._pending,
                "max_pending": self.max_pending,
                "workers": {
                    "total": len(self.handles),
                    "alive": sum(1 for h in self.handles if h.alive),
                    "restarts": sum(h.restarts for h in self.handles),
                    "detail": [h.describe() for h in self.handles],
                },
                "access_log": {
                    "entries": access_entries,
                    "path": (
                        str(self.access_log)
                        if self.access_log is not None
                        else None
                    ),
                },
            },
        }

    async def _merged_profile(self, request: dict) -> dict:
        """Fan the ``profile`` op out; the merged reply's envelope.

        ``collapsed`` dumps concatenate with a ``workerN;`` stack
        prefix (flamegraphs then show the shard split as the root
        frame); counters (``samples``) sum.  A worker that rejects the
        action (e.g. ``start`` when already running) surfaces as the
        op's error when *every* worker rejected, else per-worker.
        """
        payload = {
            k: v for k, v in request.items()
            if k not in ("id", "trace", "trace_id")
        }
        outcomes = await self._fanout(payload)
        merged: dict[str, object] = {"workers": {}}
        collapsed_parts: list[str] = []
        samples = 0
        errors = 0
        active = False
        first_error: tuple[str, str | None] | None = None
        for index in sorted(outcomes):
            outcome = outcomes[index]
            merged["workers"][str(index)] = outcome.get("result", outcome)
            if "error" in outcome:
                errors += 1
                if first_error is None:
                    first_error = (
                        str(outcome["error"]),
                        outcome.get("code"),
                    )
                continue
            result = outcome.get("result")
            if not isinstance(result, dict):
                continue
            active = active or bool(result.get("active"))
            samples += int(result.get("samples", 0) or 0)
            collapsed = result.get("collapsed")
            if isinstance(collapsed, str) and collapsed:
                for stack_line in collapsed.splitlines():
                    collapsed_parts.append(f"worker{index};{stack_line}")
        if errors == len(outcomes) and first_error is not None:
            message, code = first_error
            return error_envelope(code or "internal", message, "profile")
        merged["active"] = active
        if request.get("action") == "dump":
            merged["collapsed"] = "\n".join(collapsed_parts)
        if samples:
            merged["samples"] = samples
        return success_envelope("profile", merged)

    # ------------------------------------------------------------------
    # access log
    # ------------------------------------------------------------------
    def _record_access(self, request: dict) -> None:
        key = (
            str(request.get("graph", DEFAULTS["graph"])),
            str(request.get("model", DEFAULTS["model"])),
            request.get("theta", DEFAULTS["theta"]),
            request.get("seed", DEFAULTS["seed"]),
        )
        with self._access_lock:
            self._access[key] = self._access.get(key, 0) + 1
            self._access_dirty += 1
            dirty = self._access_dirty
        if self.access_log is not None and dirty >= 128:
            self._flush_access_log()

    def _flush_access_log(self) -> None:
        if self.access_log is None:
            return
        with self._access_lock:
            entries = [
                {
                    "graph": graph,
                    "model": model,
                    "theta": theta,
                    "seed": seed,
                    "count": count,
                }
                for (graph, model, theta, seed), count in sorted(
                    self._access.items(),
                    key=lambda item: -item[1],
                )
            ]
            self._access_dirty = 0
        payload = {"v": ACCESS_LOG_VERSION, "keys": entries}
        tmp = self.access_log.with_suffix(
            self.access_log.suffix + ".tmp"
        )
        try:
            tmp.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(
                json.dumps(payload, indent=1), encoding="utf-8"
            )
            tmp.replace(self.access_log)
        except OSError as error:  # pragma: no cover - disk trouble
            self.log.event("access_log_write_failed", error=str(error))

    def _load_access_log(self) -> list[dict]:
        if self.access_log is None or not self.access_log.exists():
            return []
        try:
            payload = json.loads(
                self.access_log.read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as error:
            self.log.event("access_log_read_failed", error=str(error))
            return []
        if (
            not isinstance(payload, dict)
            or payload.get("v") != ACCESS_LOG_VERSION
        ):
            return []
        keys = payload.get("keys")
        out = []
        for entry in keys if isinstance(keys, list) else []:
            if isinstance(entry, dict) and isinstance(
                entry.get("graph"), str
            ):
                out.append(entry)
        return out
