"""The system under test as a separate process, and the load generators.

The server is started the way an operator starts it (``repro-imin
serve --serve-workers 1``, run as ``python -m repro.cli`` from the
checkout's ``src``) and driven over its JSON-lines TCP protocol.  Each
request is recorded as a :class:`Record`; nothing is retried.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

_LISTENING = re.compile(rb"listening on [^:\s]+:(\d+)")
IO_TIMEOUT = 150.0


@dataclass
class Record:
    """One request as the client saw it (times from ``perf_counter``)."""

    request: dict
    phase: str
    due: float = 0.0
    """When the request was due to be sent (open loop) or was sent."""
    sent: float = 0.0
    done: float = 0.0
    response: dict | None = None
    error: str | None = None
    """Transport failure or server error code; ``None`` when ok."""
    correct: bool | None = None
    """Set by the reference check; ``None`` until checked."""
    engine_ms: float = 0.0
    """The reference replay's engine time for this request."""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def ok(self) -> bool:
        return self.error is None and self.correct is not False


class Connection:
    """One blocking JSON-lines connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=IO_TIMEOUT
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, request: dict) -> None:
        self.sock.sendall(
            json.dumps(request, separators=(",", ":")).encode() + b"\n"
        )

    def recv(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, request: dict) -> dict:
        self.send(request)
        return self.recv()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _finish(record: Record, response: dict) -> None:
    record.done = time.perf_counter()
    record.response = response
    if not response.get("ok"):
        error = response.get("error")
        record.error = (
            error.get("code", "error") if isinstance(error, dict) else "error"
        )


class ServerProcess:
    """``repro-imin serve --serve-workers 1`` in its own process group."""

    def __init__(self, root: Path, build_dir: Path, edge_list=None) -> None:
        self.argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--serve-workers", "1", "--port", "0",
        ]
        if edge_list is not None:
            self.argv += ["--edge-list", f"{edge_list[0]}={edge_list[1]}"]
        self.env = {
            **os.environ,
            "PYTHONPATH": str(root / "src"),
            "REPRO_NATIVE_CACHE": str(build_dir / "native"),
            "TMPDIR": str(build_dir / "tmp"),
        }
        self.log_path = build_dir / "server.log"
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.worker_pids: list[int] = []

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait until the front end listens; returns the
        ``perf_counter`` instant just before launch."""
        (Path(self.env["TMPDIR"])).mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv, env=self.env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        while self.port is None:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], max(remaining, 0.0)
            )
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                self.stop()
                raise RuntimeError(
                    f"server did not start; see {self.log_path}"
                )
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(1))
        return started

    def connect(self) -> Connection:
        return Connection(self.port)

    def stats(self) -> dict:
        conn = self.connect()
        try:
            result = conn.call({"op": "stats"})["result"]
        finally:
            conn.close()
        detail = result["frontend"]["workers"]["detail"]
        self.worker_pids = [w["pid"] for w in detail if w.get("pid")]
        return result

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the front end and its shard workers."""
        total_kb = 0
        for pid in [self.proc.pid, *self.worker_pids]:
            status = Path(f"/proc/{pid}/status").read_text()
            match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.M)
            total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        """Graceful shutdown op; the process group is killed if the
        server does not exit in time.  Always waits for the exit."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None and self.port is not None:
            try:
                conn = self.connect()
                conn.call({"op": "shutdown"})
                conn.close()
            except (OSError, ValueError):
                pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        # whatever is left of the group (a stuck worker, the
        # multiprocessing helpers) goes with it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait(timeout=30)
        proc.stdout.close()
        self.proc = None


def _wire(request: dict, trace: bool) -> dict:
    return {**request, "trace": True} if trace else request


def serial(
    conn: Connection, requests: list[dict], phase: str, trace: bool = False
) -> list[Record]:
    """Send ``requests`` one after another on one connection."""
    records = []
    for request in requests:
        record = Record(request, phase)
        record.due = record.sent = time.perf_counter()
        try:
            _finish(record, conn.call(_wire(request, trace)))
        except (OSError, ValueError) as error:
            record.done = time.perf_counter()
            record.error = f"connection: {type(error).__name__}"
        records.append(record)
    return records


def closed_loop(
    port: int, stream, seconds: float, connections: int, phase: str,
    trace: bool = False,
) -> list[Record]:
    """``connections`` clients sending back to back for ``seconds``.

    Requests come from the shared ``stream`` in order; a client stops
    after its first transport failure (its connection is gone).
    """
    lock = threading.Lock()
    records: list[Record] = []
    deadline = time.perf_counter() + seconds

    def client() -> None:
        conn = Connection(port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    request = stream.next()
                    if request is None:
                        return
                    record = Record(request, phase)
                    records.append(record)
                record.due = record.sent = time.perf_counter()
                try:
                    _finish(record, conn.call(_wire(request, trace)))
                except (OSError, ValueError) as error:
                    record.done = time.perf_counter()
                    record.error = f"connection: {type(error).__name__}"
                    return
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def open_loop(
    port: int, requests: list[dict], offsets: list[float],
    connections: int, phase: str, trace: bool = False,
) -> list[Record]:
    """Send each request at its due time, whatever is outstanding.

    Requests are dealt round-robin to ``connections`` pipelined
    connections; a writer thread per connection sends on schedule and
    a reader thread matches the in-order replies.  Latency runs from
    the due time, so a stall delays every later request's clock too,
    and ``sent - due`` is the generator's own lateness.
    """
    start = time.perf_counter() + 0.05
    records = [
        Record(request, phase, due=start + offset)
        for request, offset in zip(requests, offsets)
    ]
    lanes = [records[i::connections] for i in range(connections)]

    def writer(conn: Connection, lane: list[Record], failed) -> None:
        for record in lane:
            delay = record.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if failed.is_set():
                record.sent = record.done = time.perf_counter()
                record.error = "connection: not sent"
                continue
            record.sent = time.perf_counter()
            try:
                conn.send(_wire(record.request, trace))
            except OSError as error:
                record.done = time.perf_counter()
                record.error = f"connection: {type(error).__name__}"
                failed.set()

    def reader(conn: Connection, lane: list[Record], failed) -> None:
        for index, record in enumerate(lane):
            try:
                response = conn.recv()
            except (OSError, ValueError) as error:
                failed.set()
                for rest in lane[index:]:
                    if rest.error is None:
                        rest.done = time.perf_counter()
                        rest.error = f"connection: {type(error).__name__}"
                return
            _finish(record, response)

    threads = []
    conns = [Connection(port) for _ in range(connections)]
    for conn, lane in zip(conns, lanes):
        shared = (conn, lane, threading.Event())
        threads.append(threading.Thread(target=writer, args=shared))
        threads.append(threading.Thread(target=reader, args=shared))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in conns:
        conn.close()
    return records
