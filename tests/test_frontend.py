"""Tests for the sharded serving tier (``repro.service.frontend``).

The two-tier topology's central contracts, in roughly the order the
request travels:

* ``shard_for`` is a stable pure function of the graph name — the
  same name lands on the same worker across processes, restarts and
  versions, and power-of-two ladders nest (shard at 4 mod 2 is the
  shard at 2).
* Queries through a 2-worker front end are **bit-identical** to a
  single-process serial service: sharding is pure routing, never
  semantics.  LRU eviction inside one shard (cache_entries=1, two
  graphs on one worker) keeps the same property.
* Accounting reconciles: each worker's admission counters read
  ``submitted == completed`` after concurrent load, and a graph's
  traffic lands on exactly its owning shard.
* Supervision: SIGKILL a worker and the supervisor restarts it; a
  retrying client rides through the crash.
* Graceful drain: every accepted request completes (zero loss),
  late arrivals get the stable ``draining`` error code, the access
  log persists, and a fresh front end prewarms from it.
* The client's bounded retry: exactly one retry, idempotent verbs
  only, covering connection loss and the ``draining`` code.
* Observability plumbing: merged exposition with the ``worker``
  label, ``repro_build_info`` from every process, each shard's spans
  and selection counters under its own label, ``/healthz``
  going 503 when a shard is down, and the recorded
  ``check_bench_regression.py --adopt`` baseline step.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs import (
    install_build_info,
    merge_expositions,
    MetricsRegistry,
    package_version,
    start_metrics_server,
)
from repro.service import (
    BlockerService,
    ConnectionLostError,
    default_registry,
    DrainingError,
    IDEMPOTENT_OPS,
    ServiceClient,
    ServiceError,
    shard_for,
    ShardedFrontend,
    WorkerSpec,
)
from repro.service.frontend import _start_method

SPEC = WorkerSpec(scale=0.05)
SRC = Path(__file__).resolve().parent.parent / "src"


def _client(frontend: ShardedFrontend, **kwargs) -> ServiceClient:
    host, port = frontend.address
    kwargs.setdefault("timeout", 60.0)
    return ServiceClient(host, port, **kwargs)


def _wait_for(predicate, timeout: float = 20.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"condition not reached in {timeout:g}s")


def _normalise(response: dict) -> dict:
    assert response["ok"], response
    result = dict(response["result"])
    result.pop("elapsed_seconds", None)
    return result


def _mixed_queries() -> list[dict]:
    """Mixed block/spread on both default graphs, heavy key overlap."""
    queries: list[dict] = []
    for graph in ("toy", "email-core"):
        for i in range(3):
            queries.append({
                "op": "spread",
                "graph": graph,
                "theta": 100,
                "seed": 7,
                "seeds": [0, 1 + i],
                "blocked": [5] if i % 2 else [],
            })
        queries.append({
            "op": "block",
            "graph": graph,
            "theta": 100,
            "seed": 7,
            "seeds": [0, 1],
            "budget": 2,
        })
    return queries


def _serial_reference(queries: list[dict]) -> list[dict]:
    service = BlockerService(registry=default_registry(scale=0.05))
    try:
        return [_normalise(service.handle(q)) for q in queries]
    finally:
        service.close()


# ----------------------------------------------------------------------
# shard_for
# ----------------------------------------------------------------------
class TestShardFor:
    def test_stable_hash_not_builtin_hash(self):
        # the exact reduction is part of the wire contract: restarts
        # and version bumps must not remap the graph-name space
        for name in ("toy", "email-core", "anything"):
            digest = hashlib.md5(name.encode("utf-8")).digest()
            expected = int.from_bytes(digest[:8], "big") % 4
            assert shard_for(name, 4) == expected

    def test_in_range_and_deterministic(self):
        for workers in (1, 2, 3, 4, 7):
            for i in range(50):
                name = f"graph-{i}"
                shard = shard_for(name, workers)
                assert 0 <= shard < workers
                assert shard == shard_for(name, workers)

    def test_power_of_two_ladders_nest(self):
        # the bench relies on this: aliases covering every shard of 4
        # stay perfectly balanced at 2
        for i in range(64):
            name = f"graph-{i}"
            assert shard_for(name, 4) % 2 == shard_for(name, 2)

    def test_single_worker_owns_everything(self):
        assert all(
            shard_for(f"g{i}", 1) == 0 for i in range(10)
        )


# ----------------------------------------------------------------------
# shard-worker start method
# ----------------------------------------------------------------------
def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run in a new interpreter with only its main
    thread — the state a fresh ``serve`` process is in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestStartMethod:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork is not offered on this platform",
    )
    def test_fork_while_single_threaded(self):
        assert _fresh_interpreter(
            "from repro.service.frontend import _start_method\n"
            "print(_start_method())"
        ) == "fork"

    def test_no_fork_while_another_thread_is_alive(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        try:
            method = _start_method()
        finally:
            release.set()
            thread.join(5.0)
        assert not thread.is_alive()
        assert method != "fork"
        assert method in multiprocessing.get_all_start_methods()


def test_engine_import_leaves_multiprocessing_unloaded():
    # the engine runs every kernel in process; only the service's
    # shard workers are processes
    assert _fresh_interpreter(
        "import sys\n"
        "import repro.engine\n"
        "print('multiprocessing' in sys.modules)"
    ) == "False"


# ----------------------------------------------------------------------
# routing, bit-identity, merged observability (one shared topology)
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def frontend2():
    with ShardedFrontend(
        workers=2, worker_spec=SPEC, supervisor_interval=0.1
    ) as frontend:
        yield frontend


class TestShardedRouting:
    def test_ping_is_local_and_v1(self, frontend2):
        with _client(frontend2) as client:
            response = client.request("ping", id="abc")
        assert response["ok"] and response["v"] == 1
        assert response["result"] == "pong"
        assert response["id"] == "abc"
        assert response["trace_id"]

    def test_concurrent_mixed_equals_serial(self, frontend2):
        queries = _mixed_queries() * 3
        serial = _serial_reference(queries)

        results: list[dict | None] = [None] * len(queries)
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(queries))

        def fire(index: int, query: dict) -> None:
            try:
                with _client(frontend2) as client:
                    barrier.wait()
                    results[index] = _normalise(
                        client.request(query["op"], **{
                            k: v for k, v in query.items() if k != "op"
                        })
                    )
            except BaseException as error:  # noqa: BLE001 - reraise
                errors.append(error)

        threads = [
            threading.Thread(target=fire, args=(i, q), daemon=True)
            for i, q in enumerate(queries)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert results == serial  # bit-identical through the shards

    def test_executor_accounting_reconciles(self, frontend2):
        # after the concurrent storm above: every shard's executor
        # retired exactly what it admitted
        with _client(frontend2) as client:
            for graph in ("toy", "email-core"):
                client.spread(
                    graph=graph, theta=100, seed=7, seeds=[0, 1]
                )
        text = frontend2.render_metrics()

        def per_worker(family: str) -> dict[str, float]:
            out: dict[str, float] = {}
            for line in text.splitlines():
                if not line.startswith(f"{family}{{"):
                    continue
                labels = line[line.index("{") + 1 : line.rindex("}")]
                worker = next(
                    part.split("=")[1].strip('"')
                    for part in labels.split(",")
                    if part.startswith("worker=")
                )
                out[worker] = out.get(worker, 0.0) + float(
                    line.rsplit(" ", 1)[1]
                )
            return out

        submitted = per_worker("repro_executor_submitted_total")
        completed = per_worker("repro_executor_completed_total")
        assert submitted  # the storm really went through executors
        assert submitted == completed

    def test_graph_traffic_lands_on_its_shard_only(self, frontend2):
        owner = shard_for("toy", 2)
        with _client(frontend2) as client:
            before = client.stats()
            for _ in range(3):
                client.spread(
                    graph="toy", theta=100, seed=7, seeds=[0, 1]
                )
            after = client.stats()

        def spreads(stats, index):
            worker = stats["workers"][str(index)]
            return (
                worker.get("service", {})
                .get("requests", {})
                .get("spread", 0)
            )

        for index in (0, 1):
            delta = spreads(after, index) - spreads(before, index)
            assert delta == (3 if index == owner else 0)

    def test_merged_stats_shape(self, frontend2):
        with _client(frontend2) as client:
            stats = client.stats()
        assert set(stats["workers"]) == {"0", "1"}
        assert stats["service"]["requests"]  # summed counters
        front = stats["frontend"]
        assert front["draining"] is False
        assert front["workers"]["total"] == 2
        assert front["workers"]["alive"] == 2
        detail = front["workers"]["detail"]
        assert [d["index"] for d in detail] == [0, 1]
        assert all(d["alive"] and d["pid"] for d in detail)

    def test_keyed_stats_routes_to_owner(self, frontend2):
        with _client(frontend2) as client:
            client.warm(graph="toy", theta=100, seed=7)
            keyed = client.call(
                "stats", graph="toy", theta=100, seed=7
            )
        assert keyed["graph"] == "toy"  # one artifact, not the merge
        assert "pool" in keyed and "sketch" in keyed

    def test_merged_exposition_has_worker_label(self, frontend2):
        text = frontend2.render_metrics()
        assert 'worker="frontend"' in text
        assert 'worker="0"' in text and 'worker="1"' in text
        # every process ships repro_build_info exactly once, each
        # with its own worker tag — never a duplicated label
        build = [
            line
            for line in text.splitlines()
            if line.startswith("repro_build_info{")
        ]
        assert len(build) == 3
        assert all(line.count('worker="') == 1 for line in build)

    def test_worker_scrape_carries_engine_metrics(self, frontend2):
        # spans and sketch counters record into each worker's
        # process-global registry, which is the one it renders
        owner = shard_for("toy", 2)
        with _client(frontend2) as client:
            client.spread(graph="toy", theta=100, seed=7, seeds=[0, 1])
            client.block(
                graph="toy", theta=100, seed=7, seeds=[0, 1], budget=2
            )
        lines = frontend2.render_metrics().splitlines()

        def values(prefix: str) -> list[float]:
            return [
                float(line.rsplit(" ", 1)[1])
                for line in lines
                if line.startswith(prefix)
            ]

        tag = f'{{worker="{owner}"'
        spans = values(f"repro_span_duration_seconds_count{tag},")
        assert spans and max(spans) > 0
        rebases = values(f"repro_sketch_rebases_total{tag}}}")
        assert rebases and rebases[0] > 0

    def test_trace_includes_frontend_route_span(self, frontend2):
        with _client(frontend2) as client:
            response = client.request(
                "spread", graph="toy", theta=100, seed=7,
                seeds=[0, 1], trace=True,
            )
        names = [s["name"] for s in response["trace"]["spans"]]
        assert "frontend.route" in names
        assert "service.evaluate" in names

    def test_unknown_op_comes_back_from_the_shard(self, frontend2):
        with _client(frontend2) as client:
            response = client.request("florble")
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_op"

    def test_health_ok(self, frontend2):
        health = frontend2.health()
        assert health["status"] == "ok"
        assert health["workers"] == {"total": 2, "alive": 2}


# ----------------------------------------------------------------------
# per-shard LRU invariants through the front end
# ----------------------------------------------------------------------
def _same_shard_aliases(workers: int, count: int) -> list[str]:
    """``count`` alias names that all map to shard 0 of ``workers``."""
    names = []
    probe = 0
    while len(names) < count:
        name = f"lru{probe}"
        if shard_for(name, workers) == 0:
            names.append(name)
        probe += 1
    return names


class TestShardLocalLRU:
    def test_eviction_churn_stays_bit_identical(self):
        names = _same_shard_aliases(2, 2)
        spec = WorkerSpec(
            scale=0.05,
            aliases=tuple((n, "email-core") for n in names),
            cache_entries=1,  # every alternation evicts the other
        )
        queries = []
        for round_ in range(3):
            for name in names:
                queries.append({
                    "op": "spread",
                    "graph": name,
                    "theta": 100,
                    "seed": 7,
                    "seeds": [0, round_ + 1],
                })
        with ShardedFrontend(workers=2, worker_spec=spec) as frontend:
            with _client(frontend) as client:
                served = [
                    _normalise(client.request(q["op"], **{
                        k: v for k, v in q.items() if k != "op"
                    }))
                    for q in queries
                ]
                stats = client.stats()
        owner_cache = stats["workers"]["0"]["cache"]
        # the bound held, every alternation rebuilt (no spurious
        # residency), and each build past the first evicted its
        # predecessor — the shard-local LRU invariant
        assert owner_cache["entries"] == 1
        assert owner_cache["stats"]["builds"] == len(queries)
        assert owner_cache["stats"]["evictions"] == len(queries) - 1

        registry = default_registry(scale=0.05)
        for name in names:
            registry.register_dataset(name, "email-core", scale=0.05)
        service = BlockerService(registry=registry)
        try:
            serial = [_normalise(service.handle(q)) for q in queries]
        finally:
            service.close()
        assert served == serial


# ----------------------------------------------------------------------
# crash supervision + client retry riding through it
# ----------------------------------------------------------------------
class TestCrashRestart:
    def test_sigkill_restart_and_retry(self):
        with ShardedFrontend(
            workers=2, worker_spec=SPEC, supervisor_interval=0.05
        ) as frontend:
            with _client(frontend) as client:
                client.warm(graph="toy", theta=100, seed=7)
                stats = client.stats()
            owner = shard_for("toy", 2)
            victim = stats["frontend"]["workers"]["detail"][owner]
            os.kill(victim["pid"], signal.SIGKILL)

            # a retrying client rides through the crash: the first
            # attempt may die mid-request, the retry lands on the
            # restarted (or not-yet-dead) worker
            def query_ok():
                try:
                    with _client(frontend) as client:
                        result = client.spread(
                            graph="toy", theta=100, seed=7,
                            seeds=[0, 1],
                        )
                    return bool(result["spread"] >= 0)
                except Exception:  # noqa: BLE001 - restart window
                    return False

            _wait_for(query_ok)
            stats = _wait_for(lambda: self._settled(frontend))
            front = stats["frontend"]["workers"]
            assert front["alive"] == 2
            assert front["restarts"] == 1
            assert front["detail"][owner]["pid"] != victim["pid"]
            text = frontend.render_metrics()
            assert (
                f'repro_worker_restarts_total{{worker="{owner}"}} 1'
                in text
            )
            assert frontend.health()["status"] == "ok"

    @staticmethod
    def _settled(frontend):
        try:
            with _client(frontend, timeout=10.0) as client:
                stats = client.stats()
        except Exception:  # noqa: BLE001 - restart window
            return None
        workers = stats["frontend"]["workers"]
        if workers["alive"] == workers["total"]:
            return stats
        return None

    def test_degraded_health_while_worker_down(self):
        # a long supervisor interval keeps the shard down while we look
        with ShardedFrontend(
            workers=2, worker_spec=SPEC, supervisor_interval=30.0
        ) as frontend:
            with _client(frontend) as client:
                stats = client.stats()
            victim = stats["frontend"]["workers"]["detail"][0]
            os.kill(victim["pid"], signal.SIGKILL)
            health = _wait_for(
                lambda: (
                    frontend.health()
                    if frontend.health()["status"] == "degraded"
                    else None
                )
            )
            assert health["workers"] == {"total": 2, "alive": 1}


# ----------------------------------------------------------------------
# graceful drain: zero accepted-request loss + access-log persistence
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_zero_loss_and_draining_code(self, tmp_path):
        access_log = tmp_path / "access.json"
        query = {
            "graph": "toy", "theta": 100, "seed": 7, "seeds": [0, 1],
        }
        expected = _serial_reference([{"op": "spread", **query}])[0]

        frontend = ShardedFrontend(
            workers=2, worker_spec=SPEC, access_log=access_log
        ).start()
        accepted: list[dict] = []
        rejected = threading.Event()
        errors: list[BaseException] = []
        stop = threading.Event()
        started = threading.Barrier(5)

        def pound() -> None:
            try:
                with _client(frontend, retry=False) as client:
                    started.wait(timeout=30)
                    while not stop.is_set():
                        result = dict(client.call("spread", **query))
                        result.pop("elapsed_seconds", None)
                        accepted.append(result)
            except (DrainingError, ConnectionLostError,
                    ConnectionError, OSError):
                rejected.set()
            except BaseException as error:  # noqa: BLE001 - reraise
                errors.append(error)

        threads = [
            threading.Thread(target=pound, daemon=True)
            for _ in range(4)
        ]
        try:
            for t in threads:
                t.start()
            started.wait(timeout=30)  # all four clients mid-storm
            time.sleep(0.2)
            frontend.shutdown()
            stop.set()
            for t in threads:
                t.join(timeout=30)
        finally:
            stop.set()
            frontend.shutdown()
        assert not errors, errors
        # zero loss: every accepted request returned the right
        # answer; the drain turned the rest away cleanly
        assert accepted and all(r == expected for r in accepted)
        assert rejected.is_set()
        health = frontend.health()
        assert health["status"] == "draining"
        assert health["workers"]["alive"] == 0

        # the access log persisted the hot key with its count
        payload = json.loads(access_log.read_text(encoding="utf-8"))
        assert payload["v"] == 1
        (entry,) = [
            e for e in payload["keys"] if e["graph"] == "toy"
        ]
        assert entry["count"] == len(accepted)
        assert (entry["model"], entry["theta"]) == ("wc", 100)

    def test_draining_error_after_shutdown_op(self):
        with ShardedFrontend(workers=1, worker_spec=SPEC) as frontend:
            with _client(frontend, retry=False) as client:
                assert client.request("shutdown")["result"] == "bye"
            # the listener may already be closed; if a connection does
            # land, non-ping ops must get the stable draining code
            try:
                with _client(frontend, retry=False) as client:
                    client.spread(**{
                        "graph": "toy", "theta": 100, "seed": 7,
                        "seeds": [0],
                    })
            except (DrainingError, ConnectionError, OSError):
                pass
            else:
                pytest.fail("accepted a query while draining")

    def test_prewarm_from_access_log(self, tmp_path):
        access_log = tmp_path / "access.json"
        access_log.write_text(
            json.dumps({
                "v": 1,
                # a log written while keys still carried a sketch
                # layout: the warm op ignores the stale field
                "keys": [{
                    "graph": "toy", "model": "wc", "theta": 100,
                    "seed": 7, "layout": "arena", "count": 9,
                }],
            }),
            encoding="utf-8",
        )
        with ShardedFrontend(
            workers=2, worker_spec=SPEC, access_log=access_log
        ) as frontend:
            # nobody issues a warm here — the artifact becomes
            # resident on its owning shard purely from the log
            def warmed():
                try:
                    with _client(frontend) as client:
                        return client.call(
                            "stats", graph="toy", theta=100, seed=7
                        )
                except ServiceError:
                    return None

            keyed = _wait_for(warmed)
            assert keyed["graph"] == "toy"
            assert "pool" in keyed


# ----------------------------------------------------------------------
# client bounded retry (no sharded tier needed: scripted socket server)
# ----------------------------------------------------------------------
class _ScriptedServer:
    """One-shot TCP server whose per-connection behaviour is scripted.

    Each element of ``script`` handles one connection: ``"drop"``
    reads the request line then closes without replying; ``"draining"``
    replies with the v1 draining error; ``"ok"`` echoes a pong.
    """

    def __init__(self, script: list[str]) -> None:
        self.script = script
        self.connections = 0
        self.closed = False
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(
            target=self._run,
            name=f"scripted-server-{self.port}",
            daemon=True,
        )
        self.thread.start()

    def _run(self) -> None:
        for action in self.script:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            if self.closed:
                conn.close()
                return
            self.connections += 1
            with conn:
                request = b""
                while not request.endswith(b"\n"):
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    request += chunk
                if not request or action == "drop":
                    continue
                if action == "draining":
                    payload = {
                        "ok": False, "v": 1,
                        "error": {
                            "code": "draining",
                            "message": "draining",
                        },
                    }
                else:
                    payload = {"ok": True, "v": 1, "result": "pong"}
                conn.sendall(
                    json.dumps(payload).encode("utf-8") + b"\n"
                )

    def close(self) -> None:
        # a closed listener does not wake a blocked accept() on
        # Linux — poke one connection through so the thread exits
        self.closed = True
        try:
            socket.create_connection(
                ("127.0.0.1", self.port), timeout=1.0
            ).close()
        except OSError:
            pass
        self.thread.join(timeout=5.0)
        self.sock.close()


@pytest.mark.parametrize("first", ["drop", "draining"])
def test_client_retries_idempotent_once(first):
    server = _ScriptedServer([first, "ok"])
    try:
        with ServiceClient(
            "127.0.0.1", server.port, timeout=10.0, retry_delay=0.01
        ) as client:
            assert client.call("ping") == "pong"
        assert server.connections == 2
    finally:
        server.close()


def test_client_does_not_retry_non_idempotent():
    assert "profile" not in IDEMPOTENT_OPS
    server = _ScriptedServer(["drop", "ok"])
    try:
        with ServiceClient(
            "127.0.0.1", server.port, timeout=10.0, retry_delay=0.01
        ) as client:
            with pytest.raises(ConnectionLostError):
                client.call("profile", action="status")
        assert server.connections == 1
    finally:
        server.close()


def test_client_retry_disabled_surfaces_first_failure():
    server = _ScriptedServer(["draining", "ok"])
    try:
        with ServiceClient(
            "127.0.0.1", server.port, timeout=10.0, retry=False
        ) as client:
            with pytest.raises(DrainingError):
                client.call("ping")
        assert server.connections == 1
    finally:
        server.close()


def test_client_gives_up_after_one_retry():
    server = _ScriptedServer(["drop", "drop", "ok"])
    try:
        with ServiceClient(
            "127.0.0.1", server.port, timeout=10.0, retry_delay=0.01
        ) as client:
            with pytest.raises(ConnectionLostError):
                client.call("ping")
        assert server.connections == 2
    finally:
        server.close()


# ----------------------------------------------------------------------
# observability units: build info, exposition merge, /healthz 503
# ----------------------------------------------------------------------
def test_install_build_info_labels():
    registry = MetricsRegistry()
    install_build_info(registry, worker="7")
    text = registry.render()
    (line,) = [
        ln for ln in text.splitlines()
        if ln.startswith("repro_build_info{")
    ]
    assert f'version="{package_version()}"' in line
    assert f'pid="{os.getpid()}"' in line
    assert 'worker="7"' in line
    assert line.endswith(" 1")


def test_merge_expositions_tags_and_dedups():
    part_a = (
        "# HELP repro_requests_total Requests.\n"
        "# TYPE repro_requests_total counter\n"
        'repro_requests_total{op="spread"} 3\n'
        "repro_pending 1\n"
    )
    part_b = (
        "# HELP repro_requests_total Requests.\n"
        "# TYPE repro_requests_total counter\n"
        'repro_requests_total{op="spread"} 5\n'
    )
    merged = merge_expositions([("0", part_a), ("1", part_b)])
    lines = merged.splitlines()
    assert (
        lines.count("# TYPE repro_requests_total counter") == 1
    )  # first-wins dedup
    assert 'repro_requests_total{worker="0",op="spread"} 3' in lines
    assert 'repro_requests_total{worker="1",op="spread"} 5' in lines
    assert 'repro_pending{worker="0"} 1' in lines


def test_merge_expositions_keeps_existing_worker_label():
    part = 'repro_build_info{worker="3"} 1.0\n'
    merged = merge_expositions([("frontend", part)])
    assert 'repro_build_info{worker="3"} 1.0' in merged.splitlines()


def test_healthz_reports_503_when_degraded():
    registry = MetricsRegistry()
    health = {"status": "ok", "workers": {"total": 2, "alive": 2}}
    server = start_metrics_server(
        port=0, registry=registry, health_fn=lambda: dict(health)
    )
    try:
        url = f"http://127.0.0.1:{server.port}/healthz"
        with urllib.request.urlopen(url) as response:
            assert response.status == 200
            body = json.loads(response.read())
        assert body["workers"]["alive"] == 2

        health["status"] = "degraded"
        health["workers"]["alive"] = 1
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url)
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["status"] == "degraded"
    finally:
        server.shutdown()


# ----------------------------------------------------------------------
# the recorded baseline-adoption step
# ----------------------------------------------------------------------
def _load_checker():
    path = (
        Path(__file__).resolve().parents[1]
        / "benchmarks"
        / "check_bench_regression.py"
    )
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_saturation_report(speedup: float) -> dict:
    return {
        "schema": 2,
        "params": {
            "dataset": "email-core", "scale": 1.0, "model": "wc",
            "theta": 200, "seed": 7, "num_seeds": 5,
            "queries_per_client": 40, "client_ladder": [1, 2],
            "worker_ladder": [1, 2], "p99_bar_multiple": 20.0,
            "profile_hz": 67.0,
        },
        "knee": {"clients": 2, "qps": 100.0},
        "sustained_qps": 100.0,
        "sustained_speedup_vs_serial": speedup,
        "profiler_overhead_pct": 1.0,
        "profile": {"samples": 10},
        "_collapsed_full": "main;work 10",
    }


class TestAdoptBaseline:
    def test_adopt_records_and_then_gates(self, tmp_path, monkeypatch):
        checker = _load_checker()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        current = tmp_path / "current.json"
        baseline = tmp_path / "benchmarks" / "BENCH_sat.json"
        current.write_text(
            json.dumps(_fake_saturation_report(1.4)), encoding="utf-8"
        )

        assert checker.main(
            [str(current), "--baseline", str(baseline), "--adopt"]
        ) == 0
        adopted = json.loads(baseline.read_text(encoding="utf-8"))
        assert adopted["sustained_speedup_vs_serial"] == 1.4
        assert "_collapsed_full" not in adopted  # provenance, not bulk
        ledger = (tmp_path / "benchmarks" / "BASELINES.md").read_text(
            encoding="utf-8"
        )
        assert "BENCH_sat.json" in ledger
        assert "sustained_speedup_vs_serial=1.4x" in ledger

        # the adopted baseline gates a matching report
        assert checker.main(
            [str(current), "--baseline", str(baseline)]
        ) == 0
        # ... and fails a regressed one beyond tolerance
        current.write_text(
            json.dumps(_fake_saturation_report(0.9)), encoding="utf-8"
        )
        assert checker.main(
            [str(current), "--baseline", str(baseline)]
        ) == 1

    def test_adopt_refuses_kind_mismatch(self, tmp_path, monkeypatch):
        checker = _load_checker()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        current = tmp_path / "current.json"
        current.write_text(
            json.dumps(_fake_saturation_report(1.0)), encoding="utf-8"
        )
        baseline = tmp_path / "benchmarks" / "BENCH_other.json"
        baseline.write_text(
            json.dumps({"warm_speedup_vs_cold": 2.0,
                        "warm_speedup_vs_cold_inprocess": 2.0,
                        "params": {}}),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit) as excinfo:
            checker.main(
                [str(current), "--baseline", str(baseline), "--adopt"]
            )
        assert excinfo.value.code == 2

    def test_worker_ladder_is_an_identity_param(
        self, tmp_path, monkeypatch
    ):
        checker = _load_checker()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        current = tmp_path / "current.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_fake_saturation_report(1.0)), encoding="utf-8"
        )
        changed = _fake_saturation_report(1.0)
        changed["params"]["worker_ladder"] = [1, 2, 4]
        current.write_text(json.dumps(changed), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            checker.main([str(current), "--baseline", str(baseline)])
        assert excinfo.value.code == 2
