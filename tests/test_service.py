"""Tests for the serving layer (``repro.service``).

Covers the four subsystem parts — registry, artifact cache, TCP/JSON
server and client — plus the PR's central correctness contract: N
client threads issuing mixed ``block``/``spread`` queries against one
warm artifact return **bit-identical** results to serial execution
(every query is a pure function of the artifact key and its
parameters, and each query holds its artifact's lock while it runs on
its handler thread).
"""

from __future__ import annotations

import gc
import gzip
import json
import socket
import sys
import threading
import time
import weakref

import pytest

from repro.bench import prepare_graph
from repro.datasets import figure1_graph
from repro.engine import build_evaluator, EngineSpec
from repro.graph import GraphDelta
from repro.service import (
    Artifact,
    ArtifactCache,
    ArtifactKey,
    BlockerService,
    default_registry,
    GraphRegistry,
    ServiceClient,
    ServiceError,
    ServiceServer,
)
from repro.service.cache import SharedLock

TOY_KEY = ArtifactKey("toy", "wc", 100, 7)


@pytest.fixture()
def registry():
    return default_registry(scale=0.05)


@pytest.fixture()
def cache(registry):
    return ArtifactCache(registry, max_entries=3)


@pytest.fixture()
def running_server(registry):
    service = BlockerService(
        registry=registry, cache=ArtifactCache(registry, max_entries=3)
    )
    server = ServiceServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def client_for(server) -> ServiceClient:
    host, port = server.server_address[:2]
    return ServiceClient(host, port, timeout=30.0)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_registry_has_toy_and_datasets(self, registry):
        names = registry.names()
        assert "toy" in names
        assert "email-core" in names
        assert registry.get("toy").n == 9

    def test_get_memoises(self, registry):
        assert registry.get("toy") is registry.get("toy")

    def test_unknown_name_lists_known(self, registry):
        with pytest.raises(KeyError, match="toy"):
            registry.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = GraphRegistry()
        registry.register("g", figure1_graph)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("g", figure1_graph)

    def test_describe_is_lazy(self, registry):
        records = {r["name"]: r for r in registry.describe()}
        assert not records["email-core"]["loaded"]
        assert "n" not in records["email-core"]
        registry.get("email-core")
        records = {r["name"]: r for r in registry.describe()}
        assert records["email-core"]["loaded"]
        assert records["email-core"]["n"] > 0

    def test_register_edge_list_gz(self, tmp_path):
        path = tmp_path / "snap.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("# comment\n0 1\n1 2\n2 0\n")
        registry = GraphRegistry()
        registry.register_edge_list("snap", path)
        graph = registry.get("snap")
        assert (graph.n, graph.m) == (3, 3)
        record = [
            r for r in registry.describe() if r["name"] == "snap"
        ][0]
        assert record["source"] == "edge-list"


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_key_validation(self):
        with pytest.raises(ValueError, match="theta"):
            ArtifactKey("toy", "wc", 0, 7)

    def test_hit_miss_stats(self, cache):
        first = cache.get(TOY_KEY)
        again = cache.get(TOY_KEY)
        assert first is again
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.builds == 1

    def test_artifact_is_warm_on_return(self, cache):
        artifact = cache.get(TOY_KEY)
        assert artifact.pool.theta >= TOY_KEY.theta

    def test_lru_eviction_by_entries(self, registry):
        cache = ArtifactCache(registry, max_entries=2)
        keys = [
            ArtifactKey("toy", "wc", 50, seed) for seed in (1, 2, 3)
        ]
        for key in keys:
            cache.get(key)
        assert cache.stats.evictions == 1
        assert keys[0] not in cache.keys()
        assert keys[1] in cache.keys() and keys[2] in cache.keys()

    def test_lru_refresh_on_hit(self, registry):
        cache = ArtifactCache(registry, max_entries=2)
        k1, k2, k3 = (
            ArtifactKey("toy", "wc", 50, seed) for seed in (1, 2, 3)
        )
        cache.get(k1)
        cache.get(k2)
        cache.get(k1)  # refresh: k2 is now least recent
        cache.get(k3)
        assert k1 in cache.keys()
        assert k2 not in cache.keys()

    def test_eviction_by_bytes(self, registry):
        cache = ArtifactCache(registry, max_entries=10, max_bytes=1)
        cache.get(ArtifactKey("toy", "wc", 50, 1))
        cache.get(ArtifactKey("toy", "wc", 50, 2))
        # every artifact exceeds 1 byte, but the newest always survives
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_byte_accounting_includes_sketch_trees(self, cache):
        # the LRU byte bound must see the tree cache, not just the
        # sample pools: a block query warms a sketch view, and the
        # artifact's reported footprint grows by exactly the bytes
        # the SketchStats gauge reports
        artifact = cache.get(TOY_KEY)
        pools_only = artifact.pool.nbytes + artifact.judge.nbytes
        assert artifact.sketch.stats.tree_bytes == 0
        assert artifact.nbytes == pools_only
        artifact.block([0], budget=1)
        tree_bytes = artifact.sketch.stats.tree_bytes
        assert tree_bytes > 0
        pools_only = artifact.pool.nbytes + artifact.judge.nbytes
        assert artifact.nbytes == pools_only + tree_bytes
        assert cache.describe()["total_bytes"] == artifact.nbytes
        artifact.close()
        assert artifact.sketch.stats.tree_bytes == 0

    def test_byte_bound_enforced_on_hits(self, registry):
        # artifact footprints grow after insertion (sketch views);
        # a later *hit* must re-check the byte bound and evict the
        # LRU entry, or a hit-only workload holds memory forever
        cache = ArtifactCache(registry, max_entries=10)
        old_key = ArtifactKey("toy", "wc", 50, 1)
        hot_key = ArtifactKey("toy", "wc", 50, 2)
        old = cache.get(old_key)
        hot = cache.get(hot_key)
        # cap at the current footprint, then grow the hot artifact's
        # tree cache past it via a block query
        cache.max_bytes = old.nbytes + hot.nbytes
        hot.block([0], budget=1)
        assert hot.sketch.stats.tree_bytes > 0
        cache.get(hot_key)  # a pure hit
        assert cache.stats.evictions == 1
        assert old_key not in cache.keys()
        assert hot_key in cache.keys()

    def test_rehydration_from_disk(self, registry, tmp_path):
        cache = ArtifactCache(
            registry, max_entries=1, cache_dir=tmp_path
        )
        first = cache.get(TOY_KEY)
        generated = first.pool.stats.generated
        assert generated >= TOY_KEY.theta
        # force an eviction, then rebuild the same key
        cache.get(ArtifactKey("toy", "wc", 50, 99))
        rebuilt = cache.get(TOY_KEY)
        assert rebuilt is not first
        assert cache.stats.rehydrations == 1
        assert rebuilt.pool.stats.generated == 0  # attached, not drawn
        assert rebuilt.pool.stats.disk_loads == 1

    def test_eviction_closes_outside_the_cache_lock(self, registry):
        """Closing an evicted artifact waits for its in-flight query;
        no other request may wait behind that close."""
        cache = ArtifactCache(registry, max_entries=1)
        key_a = ArtifactKey("toy", "wc", 50, 1)
        key_b = ArtifactKey("toy", "wc", 50, 2)
        artifact_a = cache.get(key_a)
        holding, closing, release = (threading.Event() for _ in range(3))
        close_a = artifact_a.close

        def close():
            closing.set()
            close_a()

        artifact_a.close = close

        def in_flight_query():
            with artifact_a.lock:
                holding.set()
                release.wait(timeout=30)

        elapsed = {}

        def timed(name, call):
            start = time.perf_counter()
            call()
            elapsed[name] = time.perf_counter() - start

        query = threading.Thread(target=in_flight_query)
        evictor = threading.Thread(target=cache.get, args=(key_b,))
        others = [
            threading.Thread(target=timed, args=("describe", cache.describe)),
            threading.Thread(
                target=timed, args=("hit", lambda: cache.get(key_b))
            ),
        ]
        query.start()
        try:
            assert holding.wait(timeout=10)
            evictor.start()  # inserts B, evicts A, then closes A
            assert closing.wait(timeout=30)
            for thread in others:
                thread.start()
            for thread in others:
                thread.join(timeout=1.0)
            assert sorted(elapsed) == ["describe", "hit"]
            assert all(seconds < 1.0 for seconds in elapsed.values())
            assert evictor.is_alive()  # A's close is still pending
            # the counter and the byte total moved at removal
            assert cache.stats.evictions == 1
            assert cache.keys() == [key_b]
            assert cache.describe()["total_bytes"] == (
                cache.peek(key_b).nbytes
            )
        finally:
            release.set()
            for thread in (query, evictor, *others):
                if thread.is_alive():
                    thread.join(timeout=10)
        assert not query.is_alive() and not evictor.is_alive()
        assert artifact_a.sketch.stats.tree_bytes == 0

    def test_pool_streams_share_the_engine_cache_names(
        self, registry, tmp_path
    ):
        """The service's pools follow ``spec.cache_key(stream)``: a
        plain engine build over the same graph attaches them."""
        key = ArtifactKey("toy", "wc", 60, 3)
        prepared = prepare_graph(
            registry.get(key.graph).copy(), key.model, rng=key.seed
        )
        artifact = Artifact(key, prepared, cache_dir=tmp_path)
        spec = EngineSpec(
            engine="pooled", model=key.model, seed=key.seed,
            cache_dir=tmp_path,
        )
        stream0 = build_evaluator(prepared, spec)
        assert stream0.stats.disk_loads == 1
        assert stream0.cache_digest == artifact.pool.cache_digest
        artifact.block([0], budget=1)
        stream1 = build_evaluator(prepared, spec, stream=1)
        assert stream1.stats.disk_loads == 1
        assert stream1.cache_digest == artifact.judge.cache_digest

    def test_single_flight_builds(self, registry):
        cache = ArtifactCache(registry, max_entries=3)
        barrier = threading.Barrier(4)
        results = []

        def build():
            barrier.wait()
            results.append(cache.get(TOY_KEY))

        threads = [
            threading.Thread(target=build) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats.builds == 1
        assert all(r is results[0] for r in results)

    def test_deterministic_rebuild(self, registry):
        cache = ArtifactCache(registry, max_entries=1)
        artifact = cache.get(TOY_KEY)
        seeds = artifact.default_seeds(2)
        blocked = [v for v in range(9) if v not in seeds][:2]
        spread = artifact.spread(seeds, blocked)
        cache.get(ArtifactKey("toy", "wc", 50, 99))  # evict
        rebuilt = cache.get(TOY_KEY)
        assert rebuilt.default_seeds(2) == seeds
        assert rebuilt.spread(seeds, blocked) == spread


class TestColdBuildRacingUpdate:
    """A cold ``get`` racing an ``update`` of the same graph: builds
    and inserts hold the graph's journal lock, so the update waits for
    the insert instead of deadlocking or missing the new sibling."""

    DELTA = GraphDelta.from_dict({"deletes": [[0, 1]]})

    def test_update_of_the_key_being_built_finishes(self, registry):
        cache = ArtifactCache(registry, max_entries=4)
        in_registry, release = threading.Event(), threading.Event()
        real_registry_get = registry.get

        def paused_registry_get(name):
            if not in_registry.is_set():
                in_registry.set()
                release.wait(10)
            return real_registry_get(name)

        registry.get = paused_registry_get
        builder = threading.Thread(
            target=cache.get, args=(TOY_KEY,), daemon=True
        )
        builder.start()
        assert in_registry.wait(10)

        update_in_get = threading.Event()
        real_cache_get = cache.get

        def watched_cache_get(key):
            update_in_get.set()
            return real_cache_get(key)

        cache.get = watched_cache_get
        outcomes: list[dict] = []
        updater = threading.Thread(
            target=lambda: outcomes.append(
                cache.apply_delta(TOY_KEY, self.DELTA)
            ),
            daemon=True,
        )
        updater.start()
        # the update reaches its get() only if it is not made to wait
        # for the build first; give it the chance either way
        update_in_get.wait(1.0)
        release.set()
        builder.join(timeout=10)
        updater.join(timeout=10)
        assert not builder.is_alive() and not updater.is_alive(), (
            "cold get and update of one key deadlocked"
        )
        assert outcomes[0]["applied"] is True
        assert real_cache_get(TOY_KEY).applied_seq == 1

    def test_build_racing_a_sibling_update_is_not_stale(self, registry):
        cache = ArtifactCache(registry, max_entries=4)
        sibling = ArtifactKey("toy", "wc", 100, 8)
        cache.get(sibling)
        built, release = threading.Event(), threading.Event()
        real_build = cache._build

        def paused_build(key):
            artifact = real_build(key)
            if key == TOY_KEY:
                built.set()
                release.wait(10)
            return artifact

        cache._build = paused_build
        builder = threading.Thread(
            target=cache.get, args=(TOY_KEY,), daemon=True
        )
        builder.start()
        assert built.wait(10)
        updater = threading.Thread(
            target=cache.apply_delta,
            args=(sibling, self.DELTA),
            daemon=True,
        )
        updater.start()
        # lands now if nothing orders it after the pending insert
        updater.join(timeout=1.0)
        release.set()
        builder.join(timeout=10)
        updater.join(timeout=10)
        assert not builder.is_alive() and not updater.is_alive()
        served = cache.get(TOY_KEY)
        assert served.applied_seq == cache.journal.last_seq("toy") == 1

        post_delta = ArtifactCache(registry)
        post_delta.journal.record("toy", self.DELTA, 1)
        expected = post_delta.get(TOY_KEY).spread([0])
        assert expected != ArtifactCache(registry).get(TOY_KEY).spread([0])
        assert served.spread([0]) == expected


def _enters(hold, timeout: float = 0.5) -> bool:
    """Whether another thread takes ``hold()`` within ``timeout`` (it
    releases it at once; a thread still waiting keeps waiting)."""
    entered = threading.Event()

    def run():
        with hold():
            entered.set()

    threading.Thread(target=run, daemon=True).start()
    return entered.wait(timeout)


class TestSharedLock:
    def test_shared_holds_overlap_and_exclude_the_exclusive(self):
        lock = SharedLock(2)
        with lock.shared():
            assert _enters(lock.shared, timeout=10)
            entered: list[bool] = []
            writer = threading.Thread(
                target=lambda: entered.append(
                    _enters(lambda: lock, timeout=10)
                ),
                daemon=True,
            )
            writer.start()
            writer.join(timeout=0.5)
            assert writer.is_alive()  # waits for the shared holder
        writer.join(timeout=15)
        assert entered == [True]

    def test_waiting_exclusive_blocks_new_shared_holds(self):
        lock = SharedLock(2)
        with lock.shared():
            entered: list[bool] = []
            writer = threading.Thread(
                target=lambda: entered.append(
                    _enters(lambda: lock, timeout=10)
                ),
                daemon=True,
            )
            writer.start()
            for _ in range(1000):
                if lock._waiting:
                    break
                time.sleep(0.01)
            assert not _enters(lock.shared)
        writer.join(timeout=15)
        assert entered == [True]
        assert _enters(lock.shared, timeout=10)

    def test_at_most_max_shared_holders(self):
        lock = SharedLock(2)
        release = threading.Event()

        def hold():
            with lock.shared():
                release.wait(10)

        other = threading.Thread(target=hold, daemon=True)
        other.start()
        with lock.shared():
            for _ in range(1000):
                if len(lock._shared) == 2:
                    break
                time.sleep(0.01)
            assert not _enters(lock.shared)
            with lock.shared():  # re-entry is not a new holder
                pass
            release.set()
            assert _enters(lock.shared, timeout=10)
        other.join(timeout=10)
        assert not other.is_alive()
        with pytest.raises(ValueError, match="max_shared"):
            SharedLock(0)

    def test_reentrant_in_both_modes_but_no_upgrade(self):
        lock = SharedLock(2)
        with lock, lock, lock.shared():
            assert not _enters(lock.shared)
        with lock.shared(), lock.shared():
            with pytest.raises(RuntimeError, match="cannot take"):
                with lock:
                    pass
        assert _enters(lambda: lock, timeout=10)


class TestArtifact:
    def test_spread_many_matches_individual(self, cache):
        artifact = cache.get(TOY_KEY)
        seeds = [0]
        blocked_sets = [[], [4], [1, 3], [4, 8]]
        batched = artifact.spread_many(seeds, blocked_sets)
        singles = [
            artifact.spread(seeds, blocked) for blocked in blocked_sets
        ]
        assert batched == singles  # bit-identical, not just close

    def test_block_structure(self, cache):
        artifact = cache.get(TOY_KEY)
        outcome = artifact.block([0], budget=1)
        assert outcome["blockers"] == [4]  # v5, the paper's Example 1
        assert (
            outcome["spread_blocked"] <= outcome["spread_unblocked"]
        )
        assert outcome["algorithm"] == "greedy-replace"

    def test_blocking_reduces_spread(self, cache):
        artifact = cache.get(TOY_KEY)
        unblocked, blocked = artifact.spread_many([0], [[], [4]])
        assert blocked < unblocked

    def test_block_judged_on_independent_stream(self, cache):
        """The winner is never scored on the samples that picked it."""
        artifact = cache.get(TOY_KEY)
        assert artifact.judge is not artifact.pool
        outcome = artifact.block([0], budget=1)
        judged = artifact.judge.expected_spread_many(
            [0], TOY_KEY.theta, [[], outcome["blockers"]]
        )
        assert [
            outcome["spread_unblocked"], outcome["spread_blocked"]
        ] == judged


# ----------------------------------------------------------------------
# service dispatch (no TCP)
# ----------------------------------------------------------------------
class TestBlockerService:
    def test_ping(self, registry):
        service = BlockerService(registry=registry)
        response = service.handle({"op": "ping"})
        trace_id = response.pop("trace_id")
        assert isinstance(trace_id, str) and trace_id
        assert response == {
            "ok": True, "v": 1, "op": "ping", "result": "pong",
        }

    def test_unknown_op(self, registry):
        service = BlockerService(registry=registry)
        response = service.handle({"op": "teleport"})
        assert not response["ok"]
        assert response["v"] == 1
        assert response["error"]["code"] == "unknown_op"
        assert "teleport" in response["error"]["message"]
        assert service.stats.errors == 1

    def test_id_echo(self, registry):
        service = BlockerService(registry=registry)
        assert service.handle({"op": "ping", "id": 42})["id"] == 42
        assert service.handle({"op": "nope", "id": "x"})["id"] == "x"

    @pytest.mark.parametrize(
        "request_patch, code, fragment",
        [
            ({"graph": "nope"}, "unknown_graph", "unknown graph"),
            ({"model": "ic"}, "bad_params", "unknown model"),
            ({"seed": "seven"}, "bad_params", "seed must be an integer"),
            ({"theta": -1}, "bad_params", "theta must be positive"),
            ({"theta": "many"}, "bad_params", "theta must be an integer"),
            ({"seeds": [99]}, "bad_params", "out of range"),
            ({"seeds": []}, "bad_params", "seeds must be non-empty"),
            ({"num_seeds": 0}, "bad_params", "num_seeds must be >= 1"),
            ({"blocked": ["v5"]}, "bad_params", "must contain integers"),
        ],
    )
    def test_bad_requests(self, registry, request_patch, code, fragment):
        service = BlockerService(registry=registry)
        request = {"op": "spread", "graph": "toy", **request_patch}
        response = service.handle(request)
        assert not response["ok"]
        assert response["error"]["code"] == code
        assert response["error"]["op"] == "spread"
        assert fragment in response["error"]["message"]

    def test_negative_seed_rejected_before_any_build(self, registry):
        service = BlockerService(registry=registry)
        response = service.handle(
            {"op": "spread", "graph": "email-core", "seed": -1}
        )
        assert response["error"]["code"] == "bad_params"
        assert "seed must be non-negative" in response["error"]["message"]
        records = {r["name"]: r for r in registry.describe()}
        assert not records["email-core"]["loaded"]
        assert service.cache.stats.misses == 0

    @pytest.mark.parametrize(
        "request_fields, fragment",
        [
            ({"op": "block", "budget": 0}, "budget"),
            ({"op": "block", "algorithm": "nope"}, "algorithm"),
            ({"op": "block", "rng": -1, "algorithm": "random"}, "rng"),
            ({"op": "spread", "num_seeds": 0}, "num_seeds"),
            ({"op": "block", "num_seeds": 0}, "num_seeds"),
            ({"op": "warm", "sketch": True, "num_seeds": 0}, "num_seeds"),
        ],
        ids=[
            "block-budget", "block-algorithm", "block-rng",
            "spread-num-seeds", "block-num-seeds", "warm-num-seeds",
        ],
    )
    def test_graph_free_fields_rejected_before_any_build(
        self, registry, request_fields, fragment
    ):
        service = BlockerService(registry=registry)
        response = service.handle({"graph": "email-core", **request_fields})
        assert response["error"]["code"] == "bad_params"
        assert fragment in response["error"]["message"]
        assert service.cache.stats.misses == 0

    def test_spread_drops_seed_blockers(self, registry):
        service = BlockerService(registry=registry)
        response = service.handle(
            {
                "op": "spread", "graph": "toy", "theta": 100,
                "seeds": [0], "blocked": [0, 4],
            }
        )
        assert response["ok"]
        assert response["result"]["blocked"] == [4]
        assert response["result"]["ignored_seed_blockers"] == [0]

    def test_stale_layout_field_is_ignored(self, registry):
        # artifacts have one sketch layout: a client still sending the
        # old key field reaches the same artifact and the same answer
        service = BlockerService(registry=registry)
        request = {
            "op": "spread", "graph": "toy", "theta": 100,
            "seeds": [0], "blocked": [4],
        }
        plain = service.handle(request)
        stale = service.handle({**request, "layout": "legacy"})
        assert plain["ok"] and stale["ok"]
        assert stale["result"] == plain["result"]
        assert "layout" not in plain["result"]
        assert len(service.cache) == 1

    def test_block_bad_algorithm(self, registry):
        service = BlockerService(registry=registry)
        response = service.handle(
            {"op": "block", "graph": "toy", "algorithm": "magic"}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad_params"
        assert "unknown algorithm" in response["error"]["message"]

    def test_warm_reports_artifact(self, registry):
        service = BlockerService(registry=registry)
        response = service.handle(
            {"op": "warm", "graph": "toy", "theta": 100, "seed": 7}
        )
        assert response["ok"]
        result = response["result"]
        assert result["graph"] == "toy"
        assert result["n"] == 9
        assert result["nbytes"] > 0

    def test_stats_shape(self, registry):
        service = BlockerService(registry=registry)
        service.handle({"op": "ping"})
        result = service.handle({"op": "stats"})["result"]
        assert result["service"]["requests"]["ping"] == 1
        assert "cache" in result
        service.close()

    def test_stats_for_warm_artifact(self, registry):
        # the per-artifact stats verb: key fields select one warm
        # artifact and return its description, including the sketch
        # index's arena/postings byte gauges
        service = BlockerService(registry=registry)
        service.handle(
            {"op": "block", "graph": "toy", "theta": 100, "seed": 7,
             "seeds": [0], "budget": 2}
        )
        response = service.handle(
            {"op": "stats", "graph": "toy", "theta": 100, "seed": 7}
        )
        assert response["ok"]
        result = response["result"]
        assert result["graph"] == "toy" and result["theta"] == 100
        sketch = result["sketch"]
        assert sketch["trees_built"] > 0
        assert sketch["arena_bytes"] > 0
        assert sketch["postings_bytes"] > 0
        assert sketch["tree_bytes"] == (
            sketch["arena_bytes"] + sketch["postings_bytes"]
        )
        # "artifact": true selects the per-artifact form with default
        # key fields (the CLI's `query ... --stats` shape)
        flagged = service.handle(
            {"op": "stats", "artifact": True, "theta": 100}
        )
        assert flagged["ok"]
        assert flagged["result"]["sketch"] == sketch
        service.close()

    def test_stats_for_cold_artifact_is_an_error(self, registry):
        # observability must never trigger a build: asking for a key
        # that is not resident errors instead of warming it
        service = BlockerService(registry=registry)
        response = service.handle(
            {"op": "stats", "graph": "toy", "theta": 123}
        )
        assert not response["ok"]
        assert "not warm" in response["error"]["message"]
        assert len(service.cache) == 0
        service.close()


# ----------------------------------------------------------------------
# TCP round trip
# ----------------------------------------------------------------------
class TestServer:
    def test_round_trip(self, running_server):
        with client_for(running_server) as client:
            assert client.ping()
            names = [g["name"] for g in client.graphs()]
            assert "toy" in names
            result = client.spread(
                graph="toy", theta=100, seeds=[0], blocked=[4]
            )
            assert result["spread"] == pytest.approx(3.0)
            outcome = client.block(
                graph="toy", theta=100, seeds=[0], budget=1
            )
            assert outcome["blockers"] == [4]

    def test_pipelined_requests_one_connection(self, running_server):
        with client_for(running_server) as client:
            for _ in range(5):
                assert client.ping()

    def test_bad_json_line(self, running_server):
        host, port = running_server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            line = sock.makefile("rb").readline()
        response = json.loads(line)
        assert not response["ok"]
        assert response["v"] == 1
        assert response["error"]["code"] == "bad_params"
        assert "bad JSON" in response["error"]["message"]

    def test_call_raises_service_error(self, running_server):
        with client_for(running_server) as client:
            with pytest.raises(ServiceError, match="unknown graph"):
                client.spread(graph="nope")

    def test_shutdown_op_stops_server(self, registry):
        service = BlockerService(registry=registry)
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        client = client_for(server)
        assert client.wait_until_ready(10)
        client.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.server_close()

    def test_bind_to_busy_port_raises_and_closes_service(
        self, registry, monkeypatch
    ):
        service = BlockerService(registry=registry)
        closed = []
        monkeypatch.setattr(service, "close", lambda: closed.append(1))
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            with pytest.raises(OSError):
                ServiceServer(busy.getsockname(), service)
        assert closed == [1]


# ----------------------------------------------------------------------
# concurrency: the PR's central contract
# ----------------------------------------------------------------------
def _mixed_queries() -> list[dict]:
    queries: list[dict] = []
    for blocked in ([], [4], [1], [3, 8], [4, 8], [2, 5]):
        queries.append(
            {
                "op": "spread", "graph": "toy", "theta": 100,
                "seed": 7, "seeds": [0], "blocked": blocked,
            }
        )
    for budget, rng in ((1, 1), (2, 2), (3, 3)):
        queries.append(
            {
                "op": "block", "graph": "toy", "theta": 100,
                "seed": 7, "seeds": [0], "budget": budget, "rng": rng,
            }
        )
    return queries


def _normalise(response: dict) -> dict:
    assert response["ok"], response
    result = dict(response["result"])
    result.pop("elapsed_seconds", None)
    return result


class TestConcurrency:
    def test_concurrent_mixed_equals_serial(self, registry):
        queries = _mixed_queries() * 3  # 27 queries, heavy overlap
        # serial reference: a fresh service answers one at a time
        serial_service = BlockerService(
            registry=default_registry(scale=0.05)
        )
        serial = [
            _normalise(serial_service.handle(q)) for q in queries
        ]
        serial_service.close()

        # concurrent: one warm artifact, one thread per query
        service = BlockerService(registry=registry)
        server = ServiceServer(("127.0.0.1", 0), service)
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        host, port = server.server_address[:2]
        service.handle(  # pre-warm so every thread hits the same state
            {"op": "warm", "graph": "toy", "theta": 100, "seed": 7}
        )
        results: list[dict | None] = [None] * len(queries)
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(queries))

        def fire(index: int, query: dict) -> None:
            try:
                with ServiceClient(host, port, timeout=60) as client:
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
        try:
            assert not errors, errors
            # bit-identical, not approximately equal: same pooled
            # samples, same sums, regardless of interleaving
            assert results == serial
        finally:
            server.shutdown()
            server.server_close()
            server_thread.join(timeout=5)

TOY_SPREAD = {
    "op": "spread", "graph": "toy", "theta": 100, "seed": 7,
    "seeds": [0], "blocked": [4],
}


class TestHandlerThreadQueries:
    """Queries run on their handler thread under the artifact lock."""

    def test_no_artifact_threads(self, registry):
        service = BlockerService(registry=registry)
        try:
            key_fields = {"graph": "toy", "theta": 100, "seed": 7}
            for request in (
                TOY_SPREAD,
                {"op": "block", "seeds": [0], "budget": 1, **key_fields},
                {"op": "update", "deletes": [[7, 6]], **key_fields},
            ):
                assert service.handle(request)["ok"]
            names = [thread.name for thread in threading.enumerate()]
            assert not [n for n in names if n.startswith("repro-artifact-")]
        finally:
            service.close()

    def test_spreads_share_the_artifact_lock(self, registry):
        service = BlockerService(registry=registry)
        try:
            service.handle(
                {"op": "warm", "graph": "toy", "theta": 100, "seed": 7}
            )
            artifact = service.cache.get(TOY_KEY)
            responses: list[dict] = []
            spread = threading.Thread(
                target=lambda: responses.append(service.handle(TOY_SPREAD)),
                daemon=True,
            )
            with artifact.lock.shared():  # another reader, mid-query
                spread.start()
                spread.join(timeout=30)
                assert not spread.is_alive()
            assert responses[0]["result"]["spread"] == artifact.spread(
                [0], [4]
            )
        finally:
            service.close()

    def test_traced_spread_spans_are_root_level(self, registry):
        service = BlockerService(registry=registry)
        try:
            response = service.handle({**TOY_SPREAD, "trace": True})
            assert response["ok"], response
            assert [s["name"] for s in response["trace"]["spans"]] == [
                "service.resolve",
                "service.queue_wait",
                "service.evaluate",
            ]
        finally:
            service.close()

    def test_evicted_artifact_is_collectable(self, registry):
        """Nothing in the service pins an artifact the cache evicted,
        so the cache's memory bound holds."""
        service = BlockerService(
            registry=registry,
            cache=ArtifactCache(registry, max_entries=1),
        )
        try:
            first, second = (
                ArtifactKey("toy", "wc", 50, seed) for seed in (1, 2)
            )
            for key in (first, second):
                response = service.handle(
                    {"op": "spread", "seeds": [0], **key.as_dict()}
                )
                assert response["ok"], response
                if key == first:
                    evicted = weakref.ref(service.cache.peek(first))
            assert service.cache.stats.evictions == 1
            gc.collect()
            assert evicted() is None
        finally:
            service.close()


class TestServiceAgainstEngine:
    def test_service_spread_matches_pooled_evaluator(self, cache):
        """The served number is the engine's number, not a re-estimate."""
        artifact = cache.get(TOY_KEY)
        service = BlockerService(cache=cache)
        response = service.handle(
            {
                "op": "spread", "graph": "toy", "theta": 100,
                "seed": 7, "seeds": [0], "blocked": [4],
            }
        )
        direct = artifact.pool.expected_spread([0], 100, [4])
        assert response["result"]["spread"] == direct


def test_artifact_exposes_engine_stats(cache):
    artifact = cache.get(TOY_KEY)
    artifact.spread([0], [])
    description = artifact.describe()
    assert description["pool"]["generated"] >= 100
    assert set(description["sketch"]) == {
        "queries", "rebases", "restores", "trees_built", "samples_skipped",
        "tree_bytes", "arena_bytes", "postings_bytes",
        "rehydrations", "persists",
        "deltas", "delta_trees_rebuilt", "delta_samples_skipped",
    }


# ----------------------------------------------------------------------
# wire protocol v1: stable codes, typed exceptions, overload guard
# ----------------------------------------------------------------------
class TestWireProtocolV1:
    def test_protocol_constants_are_stable(self):
        from repro.service import ERROR_CODES, PROTOCOL_VERSION

        # golden: changing either is a wire-compatibility break; the
        # tuple is append-only (draining joined with the sharded
        # front end)
        assert PROTOCOL_VERSION == 1
        assert ERROR_CODES == (
            "unknown_op",
            "unknown_graph",
            "bad_params",
            "overloaded",
            "internal",
            "draining",
        )

    def test_typed_exceptions_over_tcp(self, running_server):
        from repro.service import (
            BadParamsError,
            UnknownGraphError,
            UnknownOpError,
        )

        with client_for(running_server) as client:
            with pytest.raises(UnknownGraphError, match="unknown graph"):
                client.spread(graph="nope", seeds=[0])
            with pytest.raises(UnknownOpError, match="teleport"):
                client.call("teleport")
            with pytest.raises(BadParamsError, match="unknown model"):
                client.call("spread", graph="toy", model="ic")
            error = pytest.raises(
                UnknownGraphError, client.spread, graph="nope", seeds=[0]
            ).value
            assert error.code == "unknown_graph"
            assert isinstance(error, ServiceError)

    def test_client_validates_before_any_network_io(self):
        from repro.service import BadParamsError

        # port 1 is never listening: reaching the network would raise
        # OSError, so a BadParamsError proves client-side validation
        client = ServiceClient("127.0.0.1", 1, timeout=0.2)
        with pytest.raises(BadParamsError, match="theta"):
            client.spread(graph="toy", theta=0, seeds=[0])
        with pytest.raises(BadParamsError, match="seeds"):
            client.block(graph="toy", seeds=[0, "x"])
        with pytest.raises(BadParamsError, match="budget"):
            client.block(graph="toy", budget=0)
        with pytest.raises(BadParamsError, match="graph"):
            client.warm(graph="")
        # seeds name numpy streams: a negative one never leaves either
        for verb in (client.spread, client.block, client.warm):
            with pytest.raises(BadParamsError, match="seed"):
                verb(graph="toy", seed=-1)
        with pytest.raises(BadParamsError, match="rng"):
            client.block(graph="toy", rng=-1)
        assert client._sock is None

    def test_malformed_error_envelope_raises_bare_service_error(self):
        from repro.service.client import _raise_for_error

        # a pre-v1 string error and a missing error object both fail
        # as malformed envelopes, not as typed v1 errors
        for envelope in ({"ok": False, "error": "boom"}, {"ok": False}):
            with pytest.raises(
                ServiceError, match="malformed error envelope"
            ) as caught:
                _raise_for_error(envelope)
            assert caught.value.code is None
            assert type(caught.value) is ServiceError

    def test_unknown_code_degrades_to_service_error(self):
        from repro.service.client import _raise_for_error

        envelope = {
            "ok": False,
            "v": 1,
            "error": {"code": "future_code", "message": "??", "op": None},
        }
        with pytest.raises(ServiceError) as caught:
            _raise_for_error(envelope)
        assert type(caught.value) is ServiceError
        assert caught.value.code == "future_code"

    def test_overload_guard_rejects_with_stable_code(self, registry):
        service = BlockerService(registry=registry, max_pending=0)
        service.handle(  # warm the artifact without the executor
            {"op": "warm", "graph": "toy", "theta": 100, "seed": 7}
        )
        response = service.handle(
            {"op": "spread", "graph": "toy", "seeds": [0], "theta": 100}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "overloaded"

    def test_negative_max_pending_rejected(self, registry):
        with pytest.raises(ValueError, match="max_pending must be >= 0"):
            BlockerService(registry=registry, max_pending=-1)

    def test_no_overload_guard_by_default(self, registry):
        service = BlockerService(registry=registry)
        response = service.handle(
            {"op": "spread", "graph": "toy", "seeds": [0], "theta": 100}
        )
        assert response["ok"]

    def test_overloaded_error_over_tcp(self, registry):
        from repro.service import OverloadedError

        service = BlockerService(registry=registry, max_pending=0)
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            with client_for(server) as client:
                with pytest.raises(OverloadedError):
                    client.spread(graph="toy", seeds=[0], theta=100)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestSaturationTelemetry:
    """The admission step's pending/shed/age accounting.

    The invariant the gauges promise: ``pending`` is updated under the
    service mutex, so at any quiescent point
    ``submitted - completed == pending == 0`` — torn accounting under
    concurrency would leave a residue here.
    """

    @staticmethod
    def _counters(service: BlockerService, graph: str) -> dict:
        metrics = service.metrics
        return {
            "pending": metrics.gauge(
                "repro_executor_pending", labels=("graph",)
            ).labels(graph).value,
            "submitted": metrics.counter(
                "repro_executor_submitted_total", labels=("graph",)
            ).labels(graph).value,
            "completed": metrics.counter(
                "repro_executor_completed_total", labels=("graph",)
            ).labels(graph).value,
            "queue_age": metrics.gauge(
                "repro_executor_queue_age_seconds", labels=("graph",)
            ).labels(graph).value,
            "shed": metrics.counter(
                "repro_shed_requests_total", labels=("graph", "reason")
            ).labels(graph, "max_pending").value,
        }

    def test_reconciliation_under_concurrency(self, registry):
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry()
        )
        errors: list[BaseException] = []

        def worker(idx: int) -> None:
            try:
                for q in range(5):
                    service.handle({
                        "op": "spread", "graph": "toy", "theta": 100,
                        "seeds": [0], "blocked": [4] if q % 2 else [],
                    })
            except BaseException as error:  # noqa: BLE001 - surface
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(6)
        ]
        try:
            for t in threads:
                t.start()
        finally:
            for t in threads:
                t.join(timeout=30)
        assert not errors
        counters = self._counters(service, "toy")
        service.close()
        assert counters["submitted"] == 30
        assert counters["completed"] == 30
        assert counters["pending"] == 0
        assert (
            counters["submitted"] - counters["completed"]
            == counters["pending"]
        )
        assert counters["queue_age"] >= 0.0
        assert counters["shed"] == 0

    def test_shed_counter_labels_reason(self, registry):
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry(), max_pending=0
        )
        try:
            service.handle(
                {"op": "warm", "graph": "toy", "theta": 100, "seed": 7}
            )
            for _ in range(3):
                response = service.handle({
                    "op": "spread", "graph": "toy", "theta": 100,
                    "seeds": [0],
                })
                assert response["error"]["code"] == "overloaded"
            counters = self._counters(service, "toy")
            assert counters["shed"] == 3
            assert counters["submitted"] == 0
            text = service.metrics.render()
            assert (
                'repro_shed_requests_total'
                '{graph="toy",reason="max_pending"} 3' in text
            )
        finally:
            service.close()

    def test_engine_error_keeps_accounting_exact(self, registry):
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry()
        )
        try:
            service.handle({
                "op": "spread", "graph": "toy", "theta": 100,
                "seeds": [0],
            })
            key = service._artifact_key({"graph": "toy", "theta": 100})
            artifact = service.cache.get(key)

            def explode(*args, **kwargs):
                raise RuntimeError("engine exploded")

            original = artifact.spread_many
            artifact.spread_many = explode
            try:
                response = service.handle({
                    "op": "spread", "graph": "toy", "theta": 100,
                    "seeds": [0],
                })
            finally:
                artifact.spread_many = original
            assert not response["ok"]
            assert "engine exploded" in response["error"]["message"]
            counters = self._counters(service, "toy")
            assert counters["pending"] == 0
            assert counters["submitted"] == counters["completed"]
        finally:
            service.close()

    def test_pending_until_the_lock_is_held(self, registry):
        """A query waiting for the artifact lock is pending; one more
        than ``max_pending`` sheds; releasing the lock answers the
        waiting query exactly as serial execution would."""
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry(), max_pending=1
        )
        try:
            service.handle(
                {"op": "warm", "graph": "toy", "theta": 100, "seed": 7}
            )
            artifact = service.cache.get(TOY_KEY)
            serial = artifact.spread([0], [4])
            responses: list[dict] = []
            waiting = threading.Thread(
                target=lambda: responses.append(service.handle(TOY_SPREAD)),
                daemon=True,
            )
            with artifact.lock:
                waiting.start()
                for _ in range(1000):
                    if self._counters(service, "toy")["pending"] == 1:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("the spread never became pending")
                shed = service.handle(TOY_SPREAD)
                assert shed["error"]["code"] == "overloaded", shed
            waiting.join(timeout=30)
            assert not waiting.is_alive()
            assert responses[0]["result"]["spread"] == serial
            counters = self._counters(service, "toy")
            assert (
                counters["submitted"],
                counters["completed"],
                counters["pending"],
                counters["shed"],
            ) == (1, 1, 0, 1)
        finally:
            service.close()

    def test_admission_counts_survive_thread_switches(self, registry):
        """More threads than cores, a tiny switch interval and a bound
        that sheds: a lost update to the admission count would leave
        pending non-zero or let the counters drift apart."""
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry(), max_pending=2
        )
        keys = [{"theta": 100, "seed": 7}, {"theta": 50, "seed": 7}]
        for key in keys:
            service.handle({"op": "warm", "graph": "toy", **key})
        outcomes: list[str] = []

        def worker(index: int) -> None:
            for q in range(10):
                response = service.handle({
                    "op": "spread", "graph": "toy", "seeds": [0],
                    "blocked": [q % 9] if q % 9 else [],
                    **keys[(index + q) % 2],
                })
                outcomes.append(
                    "ok" if response["ok"] else response["error"]["code"]
                )

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert not any(t.is_alive() for t in threads)
        assert set(outcomes) <= {"ok", "overloaded"}
        counters = self._counters(service, "toy")
        assert counters["pending"] == 0
        assert counters["submitted"] == counters["completed"]
        assert counters["submitted"] == outcomes.count("ok")
        assert counters["shed"] == outcomes.count("overloaded")
        assert len(outcomes) == 80

    def test_failed_lock_acquire_releases_the_pending_slot(self, registry):
        """A lock acquire that raises must free its pending slot — a
        leaked slot would ratchet the admission guard shut — and still
        count as completed."""
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry(), max_pending=1
        )
        try:
            assert service.handle(TOY_SPREAD)["ok"]
            artifact = service.cache.get(TOY_KEY)

            class _ExplodingHold:
                def __enter__(self):
                    raise RuntimeError("lock exploded")

                def __exit__(self, *exc_info):
                    return False

            class _ExplodingLock:
                def shared(self):
                    return _ExplodingHold()

            real_lock = artifact.lock
            artifact.lock = _ExplodingLock()
            try:
                response = service.handle(TOY_SPREAD)
            finally:
                artifact.lock = real_lock
            assert response["error"]["code"] == "internal"
            assert "lock exploded" in response["error"]["message"]
            counters = self._counters(service, "toy")
            assert counters["pending"] == 0
            assert counters["submitted"] == counters["completed"] == 2
            # the slot is free again: the next query must not shed
            assert service.handle(TOY_SPREAD)["ok"]
        finally:
            service.close()

    def test_inflight_gauge_settles_to_zero(self, registry):
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry()
        )
        try:
            service.handle({"op": "ping"})
            service.handle({"op": "nope"})  # errors also decrement
            gauge = service.metrics.gauge("repro_inflight_requests")
            assert gauge.value == 0.0
        finally:
            service.close()


class TestSketchWarmAdmission:
    """A ``warm`` that builds a sketch view holds the artifact lock
    exclusively, so it goes through admission like a ``block``."""

    WARM = {"op": "warm", "graph": "toy", "theta": 100, "seed": 7,
            "seeds": [0]}

    def test_bounded_warm_is_shed(self, registry):
        service = BlockerService(registry=registry, max_pending=0)
        try:
            response = service.handle(self.WARM)
            assert not response["ok"]
            assert response["error"]["code"] == "overloaded"
        finally:
            service.close()

    def test_admitted_warm_is_counted_and_traced(self, registry):
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry()
        )
        try:
            response = service.handle({**self.WARM, "trace": True})
            assert response["ok"], response
            assert response["result"]["sketch"]["trees_built"] == 100
            counters = TestSaturationTelemetry._counters(service, "toy")
            assert counters["submitted"] == 1
            assert counters["completed"] == 1
            assert counters["pending"] == 0
            names = [s["name"] for s in response["trace"]["spans"]]
            assert names == [
                "service.resolve",
                "service.queue_wait",
                "service.evaluate",
            ]
            evaluate = response["trace"]["spans"][-1]
            assert [c["name"] for c in evaluate["children"]] == [
                "sketch.build"
            ]
        finally:
            service.close()


class TestProfileOp:
    @pytest.fixture()
    def service(self, registry):
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry()
        )
        yield service
        service.close()

    def test_start_dump_stop_round_trip(self, service):
        started = service.handle(
            {"op": "profile", "action": "start", "hz": 500}
        )
        assert started["ok"]
        assert started["result"]["active"] is True
        assert started["result"]["hz"] == 500.0
        service.handle({
            "op": "spread", "graph": "toy", "theta": 100, "seeds": [0],
        })
        time.sleep(0.05)  # a few ticks even on a fast machine
        dump = service.handle(
            {"op": "profile", "action": "dump", "limit": 10}
        )
        assert dump["ok"]
        assert dump["result"]["samples"] > 0
        assert isinstance(dump["result"]["collapsed"], str)
        assert len(dump["result"]["collapsed"].splitlines()) <= 10
        stopped = service.handle({"op": "profile", "action": "stop"})
        assert stopped["ok"]
        assert stopped["result"]["active"] is False
        status = service.handle({"op": "profile"})
        assert status["result"]["active"] is False

    def test_start_twice_is_an_error(self, service):
        service.handle({"op": "profile", "action": "start", "hz": 500})
        response = service.handle({"op": "profile", "action": "start"})
        assert not response["ok"]
        assert "already running" in response["error"]["message"]

    def test_restart_with_new_hz_recreates(self, service):
        service.handle({"op": "profile", "action": "start", "hz": 500})
        service.handle({"op": "profile", "action": "stop"})
        started = service.handle(
            {"op": "profile", "action": "start", "hz": 250}
        )
        assert started["result"]["hz"] == 250.0

    def test_validation(self, service):
        for request, fragment in [
            ({"op": "profile", "action": "flame"}, "unknown profile"),
            (
                {"op": "profile", "action": "start", "hz": "fast"},
                "must be a number",
            ),
            (
                {"op": "profile", "action": "start", "hz": 10_000},
                "hz must be",
            ),
            ({"op": "profile", "action": "dump"}, "never started"),
            (
                {"op": "profile", "action": "stop"},
                "never started",
            ),
        ]:
            response = service.handle(request)
            assert not response["ok"], request
            assert fragment in response["error"]["message"]
        bad_limit = service.handle({"op": "profile", "action": "start"})
        assert bad_limit["ok"]
        response = service.handle(
            {"op": "profile", "action": "dump", "limit": 0}
        )
        assert not response["ok"]

    def test_serve_profile_hz_arms_from_boot(self, registry):
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry,
            metrics=MetricsRegistry(),
            profile_hz=500,
        )
        try:
            assert service.profiler is not None
            assert service.profiler.active
            stats = service.handle({"op": "stats"})["result"]
            assert stats["profiler"]["active"] is True
        finally:
            service.close()
        assert not service.profiler.active  # close() stops it

    def test_client_verb_and_tcp(self, registry):
        from repro.obs import MetricsRegistry
        from repro.service import BadParamsError

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry()
        )
        server = ServiceServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            with client_for(server) as client:
                with pytest.raises(BadParamsError, match="action"):
                    client.profile("flame")
                client.profile("start", hz=500)
                client.spread(graph="toy", theta=100, seeds=[0])
                time.sleep(0.05)
                dump = client.profile("dump", limit=5)
                assert dump["samples"] > 0
                stopped = client.profile("stop")
                assert stopped["active"] is False
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestServiceSLOs:
    def test_slo_section_in_stats_and_gauges(self, registry):
        from repro.obs import MetricsRegistry, parse_slo

        service = BlockerService(
            registry=registry,
            metrics=MetricsRegistry(),
            slos=[parse_slo("p99=250ms"), parse_slo("error_rate=50%")],
        )
        try:
            for _ in range(3):
                service.handle({"op": "ping"})
            stats = service.handle({"op": "stats"})["result"]
            slos = {
                entry["spec"]: entry for entry in stats["slo"]["slos"]
            }
            assert slos["p99=250ms"]["requests"] >= 3
            assert "burn_rate" in slos["error_rate=50%"]
            text = service.metrics.render()
            assert 'repro_slo_burn_rate{slo="p99_250ms"}' in text
        finally:
            service.close()

    def test_no_slo_section_without_slos(self, registry):
        from repro.obs import MetricsRegistry

        service = BlockerService(
            registry=registry, metrics=MetricsRegistry()
        )
        try:
            stats = service.handle({"op": "stats"})["result"]
            assert "slo" not in stats
        finally:
            service.close()
