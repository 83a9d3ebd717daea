"""Tests for the service's ``update`` op — the serving-layer face of
the incremental graph-delta path.

The contracts under test: an update mutates the warm artifact through
``apply_delta`` (rebased, not rebuilt), serialises with in-flight
queries under the same artifact's lock, journals every applied delta
under a client-supplied monotone ``seq`` so a connection-reset resend
can never double-apply, evicts stale sibling artifacts of the same
graph, and — with a cache directory — leaves post-delta artifacts on
disk that a fresh cache (a restarted worker) rehydrates bit-identically
after replaying the journal.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    ArtifactCache,
    ArtifactKey,
    BadParamsError,
    BlockerService,
    default_registry,
    IDEMPOTENT_OPS,
    ServiceClient,
)

TOY = {"graph": "toy", "theta": 100, "seed": 7}


@pytest.fixture()
def registry():
    return default_registry(scale=0.05)


@pytest.fixture()
def service(registry):
    svc = BlockerService(
        registry=registry, cache=ArtifactCache(registry, max_entries=4)
    )
    try:
        yield svc
    finally:
        svc.close()


def spread_of(service, **overrides):
    request = {"op": "spread", "seeds": [0], "blocked": [], **TOY,
               **overrides}
    response = service.handle(request)
    assert response["ok"], response
    return response["result"]["spread"]


def update(service, **fields):
    return service.handle({"op": "update", **TOY, **fields})


class TestUpdateOp:
    def test_update_changes_the_served_answer(self, service):
        before = spread_of(service)
        response = update(service, deletes=[[0, 1]], seq=1)
        assert response["ok"], response
        result = response["result"]
        assert result["applied"] is True
        assert result["seq"] == 1
        assert result["deletes"] == 1
        assert result["touched_samples"] >= 0
        after = spread_of(service)
        assert after != before  # edge out of vertex 0 is load-bearing

    def test_update_result_reports_edit_counts(self, service):
        spread_of(service)
        response = update(
            service,
            deletes=[[0, 1]],
            reweights=[[0, 3, 0.9]],
            inserts=[[5, 0, 0.4]],
            seq=1,
        )
        result = response["result"]
        assert (result["inserts"], result["deletes"],
                result["reweights"]) == (1, 1, 1)
        assert result["graph"] == "toy"

    def test_duplicate_seq_is_acknowledged_not_reapplied(self, service):
        spread_of(service)
        first = update(service, deletes=[[0, 1]], seq=1)
        assert first["result"]["applied"] is True
        answer = spread_of(service)

        # the same request resent (a client retry after a dropped
        # connection) must not double-apply — and with the edge gone,
        # a real re-application would error, so the ack path is the
        # only way this returns ok
        again = update(service, deletes=[[0, 1]], seq=1)
        assert again["ok"], again
        assert again["result"]["applied"] is False
        assert again["result"]["last_seq"] == 1
        assert spread_of(service) == answer

    def test_stale_seq_is_acknowledged(self, service):
        spread_of(service)
        update(service, deletes=[[0, 1]], seq=5)
        response = update(service, inserts=[[0, 1, 0.5]], seq=3)
        assert response["result"]["applied"] is False
        assert response["result"]["last_seq"] == 5

    def test_seq_defaults_to_journal_head_plus_one(self, service):
        spread_of(service)
        first = update(service, deletes=[[0, 1]])
        assert first["result"]["seq"] == 1
        second = update(service, inserts=[[0, 1, 0.5]])
        assert second["result"]["seq"] == 2

    def test_update_is_not_idempotent_for_the_client(self):
        assert "update" not in IDEMPOTENT_OPS

    @pytest.mark.parametrize(
        "fields, fragment",
        [
            ({}, "at least one"),
            ({"deletes": [[0, 0]]}, "self loop"),
            ({"deletes": [[0, 1]], "seq": 0}, "seq must be >= 1"),
            ({"deletes": [[0, 1, 0.5]]}, "pairs"),
            ({"inserts": [[0, 1]]}, "triples"),
            ({"upserts": [[0, 1, 0.5]], "deletes": [[0, 1]],
              "unknown": 1}, None),
        ],
    )
    def test_malformed_updates_are_bad_params(
        self, service, fields, fragment
    ):
        if fragment is None:
            # unknown edit kinds are simply ignored by the wire
            # parser (only the three known fields are read)
            response = update(service, **fields)
            assert response["ok"]
            return
        response = update(service, **fields)
        assert not response["ok"]
        assert response["error"]["code"] == "bad_params"
        assert fragment in response["error"]["message"]

    @pytest.mark.parametrize(
        "fields",
        [
            {"deletes": [[0.9, 1.2]]},
            {"deletes": [["0", "1"]]},
            {"deletes": [[True, 1]]},
            {"inserts": [[5, 0, "0.4"]]},
            {"reweights": [[0, 1, True]]},
        ],
    )
    def test_non_numeric_edits_are_rejected_before_the_journal(
        self, service, fields
    ):
        # int() truncation would turn [[0.9, 1.2]] into a durably
        # journaled delete of the real edge (0, 1)
        before = spread_of(service)
        response = update(service, **fields)
        assert not response["ok"]
        assert response["error"]["code"] == "bad_params"
        assert service.cache.journal.last_seq("toy") == 0
        assert spread_of(service) == before

    def test_invalid_delta_does_not_consume_seq(self, service):
        spread_of(service)
        update(service, deletes=[[0, 1]], seq=1)
        # deleting the now-missing edge is the client's error...
        response = update(service, deletes=[[0, 1]], seq=2)
        assert not response["ok"]
        assert response["error"]["code"] == "bad_params"
        assert "missing edge" in response["error"]["message"]
        # ...and seq 2 is still free for the corrected request
        fixed = update(service, inserts=[[0, 1, 0.5]], seq=2)
        assert fixed["ok"]
        assert fixed["result"]["applied"] is True
        assert fixed["result"]["seq"] == 2

    def test_applied_seq_visible_in_artifact_stats(self, service):
        spread_of(service)
        update(service, deletes=[[0, 1]], seq=1)
        response = service.handle({"op": "stats", **TOY})
        assert response["ok"]
        assert response["result"]["applied_seq"] == 1

    def test_update_rebases_instead_of_rebuilding(self, service):
        spread_of(service)
        builds_before = service.cache.stats.builds
        response = update(service, deletes=[[0, 1]], seq=1)
        assert response["ok"]
        stats = service.handle({"op": "stats", **TOY})["result"]
        assert stats["sketch"]["deltas"] == 1
        assert service.cache.stats.builds == builds_before

    def test_update_evicts_stale_siblings(self, service):
        spread_of(service)  # theta=100 artifact
        spread_of(service, theta=60)  # sibling key, same graph
        evictions_before = service.cache.stats.evictions
        response = update(service, deletes=[[0, 1]], seq=1)
        assert response["result"]["invalidated_siblings"] == 1
        assert service.cache.stats.evictions == evictions_before + 1
        # the sibling rebuilds onto the post-delta graph via the
        # journal: same graph state, different theta
        assert spread_of(service, theta=60) > 0


class TestUpdateConcurrency:
    def test_updates_serialize_with_inflight_queries(self, service):
        """Concurrent spreads racing one update each observe either
        the whole delta or none of it — never a half-applied state."""
        before = spread_of(service)

        answers: list[float] = []
        errors: list[Exception] = []
        lock = threading.Lock()
        barrier = threading.Barrier(9)

        def query():
            barrier.wait()
            try:
                value = spread_of(service)
            except Exception as error:  # pragma: no cover - diagnostics
                with lock:
                    errors.append(error)
                return
            with lock:
                answers.append(value)

        def mutate():
            barrier.wait()
            response = update(service, deletes=[[0, 1]], seq=1)
            assert response["ok"], response

        threads = [threading.Thread(target=query) for _ in range(8)]
        threads.insert(4, threading.Thread(target=mutate))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        after = spread_of(service)
        assert after != before
        assert set(answers) <= {before, after}, (answers, before, after)


class TestUpdateDurability:
    def test_restarted_cache_replays_journal(self, registry, tmp_path):
        key = ArtifactKey("toy", "wc", 100, 7)
        cache = ArtifactCache(registry, cache_dir=tmp_path)
        artifact = cache.get(key)
        artifact.warm_sketch([0])
        from repro.graph import GraphDelta

        cache.apply_delta(key, GraphDelta(deletes=[(0, 1)]), 1)
        expected = artifact.spread_many([0], [[]], 100)[0]
        persisted_digest = artifact.pool.cache_digest
        cache.close()

        # a fresh process over the same directory: the journal replays
        # before the pool fingerprint is derived, so the rebuilt
        # artifact lands on the *post-delta* persisted pool
        again = ArtifactCache(registry, cache_dir=tmp_path)
        rebuilt = again.get(key)
        assert rebuilt.applied_seq == 1
        assert rebuilt.pool.cache_digest == persisted_digest
        assert rebuilt.spread_many([0], [[]], 100)[0] == expected
        assert rebuilt.pool.stats.disk_loads >= 1
        again.close()

    def test_journal_survives_for_new_seq_decisions(
        self, registry, tmp_path
    ):
        from repro.graph import GraphDelta

        key = ArtifactKey("toy", "wc", 100, 7)
        cache = ArtifactCache(registry, cache_dir=tmp_path)
        cache.get(key)
        cache.apply_delta(key, GraphDelta(deletes=[(0, 1)]), 4)
        cache.close()

        again = ArtifactCache(registry, cache_dir=tmp_path)
        again.get(key)
        # the resent duplicate is still recognised after restart
        outcome = again.apply_delta(
            key, GraphDelta(deletes=[(0, 1)]), 4
        )
        assert outcome == {
            "applied": False, "seq": 4, "last_seq": 4,
        }
        again.close()


class TestClientValidation:
    def test_client_update_requires_edits(self):
        client = ServiceClient(port=1)  # never connects: local checks
        with pytest.raises(BadParamsError, match="at least one"):
            client.update(graph="toy")

    def test_client_update_validates_edit_shapes(self):
        client = ServiceClient(port=1)
        with pytest.raises(BadParamsError, match="2 fields"):
            client.update(graph="toy", deletes=[[0, 1, 0.5]])
        with pytest.raises(BadParamsError, match="3 fields"):
            client.update(graph="toy", inserts=[[0, 1]])
        with pytest.raises(BadParamsError):
            client.update(graph="toy", deletes=[[0, 1]], seq=0)
        with pytest.raises(BadParamsError, match="list"):
            client.update(graph="toy", deletes="0:1")
