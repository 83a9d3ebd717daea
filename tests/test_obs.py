"""repro.obs: registry exactness, exposition bytes, spans, ops surface.

The metrics registry's whole claim is *exact* counts under the
concurrent load the service exists to measure, so the concurrency
tests assert equality, not approximation; the exposition tests pin
output bytes (scrapers parse them — the text format is a contract);
the trace tests pin nesting, exception safety and the explicit
cross-thread handoff; and the service-level tests drive the ops
surface (trace_id echo, `metrics` op, slow-query log, HTTP listener)
through the real request path.
"""

from __future__ import annotations

import gc
import io
import json
import threading
import urllib.request

import pytest

from repro.obs import (
    CONTENT_TYPE,
    EventLog,
    format_trace,
    install_standard_collectors,
    iter_spans,
    MetricsRegistry,
    new_trace,
    span,
    start_metrics_server,
    track,
    tracked,
    use_trace,
)
from repro.service import BlockerService, default_registry


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def graphs():
    return default_registry(scale=0.05)


@pytest.fixture()
def service(graphs):
    service = BlockerService(
        registry=graphs, metrics=MetricsRegistry(), slow_ms=0.0
    )
    try:
        yield service
    finally:
        service.close()


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_get_or_create(self, registry):
        a = registry.counter("repro_x_total", "help")
        b = registry.counter("repro_x_total")
        assert a is b
        a.inc()
        a.inc(2.5)
        assert b.value == 3.5

    def test_counters_only_go_up(self, registry):
        counter = registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self, registry):
        gauge = registry.gauge("repro_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_kind_conflict_rejected(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_label_schema_conflict_rejected(self, registry):
        registry.counter("repro_x_total", labels=("op",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_x_total", labels=("verb",))

    def test_labeled_children_independent(self, registry):
        family = registry.counter("repro_x_total", labels=("op",))
        family.labels("a").inc()
        family.labels("b").inc(4)
        assert family.labels("a").value == 1
        assert family.labels("b").value == 4

    def test_label_arity_checked(self, registry):
        family = registry.counter("repro_x_total", labels=("op",))
        with pytest.raises(ValueError, match="label"):
            family.labels("a", "b")
        with pytest.raises(ValueError, match="labeled"):
            family.inc()

    def test_invalid_names_rejected(self, registry):
        for bad in ("", "1abc", "has space", "dash-ed"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_histogram_buckets_cumulative(self, registry):
        histogram = registry.histogram(
            "repro_lat_seconds", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.1, 0.5, 2.0):
            histogram.observe(value)
        counts, total_sum, count = histogram._default.snapshot()
        # le=0.1 catches 0.05 and the boundary value 0.1
        assert counts == [2, 3, 4]
        assert count == 4
        assert total_sum == pytest.approx(2.65)

    def test_histogram_bad_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("repro_lat_seconds", buckets=(1.0, 0.1))
        with pytest.raises(ValueError):
            registry.histogram("repro_lat2_seconds", buckets=())

    def test_callback_collector(self, registry):
        registry.register_callback(
            "repro_cb", "help", lambda: 7.0, kind="gauge"
        )
        entry = [f for f in registry.collect() if f["name"] == "repro_cb"]
        assert entry[0]["samples"] == [((), (), "", 7.0)]

    def test_callback_name_collision_rejected(self, registry):
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.register_callback("repro_x_total", "", lambda: 0)


class TestConcurrency:
    THREADS = 8
    PER_THREAD = 2000

    def test_counter_exact_under_threads(self, registry):
        counter = registry.counter("repro_x_total")
        labeled = registry.counter("repro_y_total", labels=("op",))

        def work():
            for _ in range(self.PER_THREAD):
                counter.inc()
                labeled.labels("a").inc()

        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = self.THREADS * self.PER_THREAD
        assert counter.value == expected
        assert labeled.labels("a").value == expected

    def test_histogram_exact_under_threads(self, registry):
        histogram = registry.histogram(
            "repro_lat_seconds", buckets=(0.5,)
        )

        def work():
            for _ in range(self.PER_THREAD):
                histogram.observe(0.25)

        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts, total_sum, count = histogram._default.snapshot()
        expected = self.THREADS * self.PER_THREAD
        assert count == expected
        assert counts == [expected, expected]
        assert total_sum == pytest.approx(0.25 * expected)


# ----------------------------------------------------------------------
# exposition bytes (the scrape contract)
# ----------------------------------------------------------------------
class TestExposition:
    def test_golden_counter_gauge(self, registry):
        registry.counter("repro_q_total", "Queries answered.").inc(3)
        registry.gauge("repro_depth", "Queue depth.").set(2.5)
        assert registry.render() == (
            "# HELP repro_depth Queue depth.\n"
            "# TYPE repro_depth gauge\n"
            "repro_depth 2.5\n"
            "# HELP repro_q_total Queries answered.\n"
            "# TYPE repro_q_total counter\n"
            "repro_q_total 3\n"
        )

    def test_golden_histogram(self, registry):
        histogram = registry.histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        assert registry.render() == (
            "# HELP repro_lat_seconds Latency.\n"
            "# TYPE repro_lat_seconds histogram\n"
            'repro_lat_seconds_bucket{le="0.1"} 1\n'
            'repro_lat_seconds_bucket{le="1"} 2\n'
            'repro_lat_seconds_bucket{le="+Inf"} 2\n'
            "repro_lat_seconds_sum 0.55\n"
            "repro_lat_seconds_count 2\n"
        )

    def test_golden_labels_and_escaping(self, registry):
        family = registry.counter(
            "repro_q_total", 'Help with \\ and\nnewline', labels=("op",)
        )
        family.labels('we"ird\nname').inc()
        assert registry.render() == (
            "# HELP repro_q_total Help with \\\\ and\\nnewline\n"
            "# TYPE repro_q_total counter\n"
            'repro_q_total{op="we\\"ird\\nname"} 1\n'
        )

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""

    def test_content_type_pinned(self):
        assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


# ----------------------------------------------------------------------
# tracked stats objects + standard collectors
# ----------------------------------------------------------------------
class TestTracked:
    class _Stats:
        def __init__(self, value):
            self.payload = value

    def test_track_and_drop(self):
        obj = self._Stats(5)
        track("test_kind_drop", obj)
        assert obj in tracked("test_kind_drop")
        del obj
        gc.collect()
        assert tracked("test_kind_drop") == []

    def test_install_standard_collectors_idempotent(self, registry):
        install_standard_collectors(registry)
        install_standard_collectors(registry)  # no duplicate error
        names = {f["name"] for f in registry.collect()}
        assert "repro_sketch_arena_bytes" in names
        assert "repro_cache_hits_total" in names
        assert "repro_pool_samples_generated_total" in names


# ----------------------------------------------------------------------
# spans and traces
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_a_tree(self):
        trace = new_trace("t1")
        with use_trace(trace):
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner2"):
                    pass
        tree = trace.as_dict()
        assert tree["trace_id"] == "t1"
        (outer,) = tree["spans"]
        assert outer["name"] == "outer"
        assert [c["name"] for c in outer["children"]] == [
            "inner", "inner2",
        ]
        assert outer["duration_ms"] >= 0.0

    def test_exception_marks_error_and_reraises(self):
        trace = new_trace()
        with pytest.raises(RuntimeError, match="boom"):
            with use_trace(trace), span("failing"):
                raise RuntimeError("boom")
        (node,) = trace.as_dict()["spans"]
        assert node["error"] is True

    def test_span_without_trace_is_silent(self):
        with span("untraced"):
            pass  # no contextvar leak, nothing to assert beyond no-raise
        trace = new_trace()
        with use_trace(trace):
            pass
        assert trace.as_dict()["spans"] == []

    def test_use_trace_none_is_noop(self):
        with use_trace(None):
            with span("anything"):
                pass

    def test_cross_thread_handoff_is_explicit(self):
        trace = new_trace()
        seen: list = []

        def worker():
            # without use_trace, the worker thread has no active trace
            with span("worker.phase"):
                pass
            seen.append(len(trace.as_dict()["spans"]))
            with use_trace(trace), span("worker.traced"):
                pass

        with use_trace(trace):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [0]
        assert [s["name"] for s in trace.as_dict()["spans"]] == [
            "worker.traced"
        ]

    def test_add_span_and_summary(self):
        trace = new_trace()
        with use_trace(trace):
            for _ in range(2):
                with span("queue_wait"):
                    pass
        summary = trace.summary()
        assert summary["queue_wait"]["count"] == 2
        assert summary["queue_wait"]["total_ms"] == pytest.approx(
            sum(node.duration_ms for node in trace.spans), abs=1e-2
        )

    def test_format_and_iter(self):
        trace = new_trace("abc")
        with use_trace(trace), span("outer"), span("inner"):
            pass
        rendered = format_trace(trace.as_dict())
        assert rendered.splitlines()[0] == "trace abc"
        assert "outer" in rendered and "inner" in rendered
        assert [n["name"] for n in iter_spans(trace.as_dict())] == [
            "outer", "inner",
        ]

    def test_spans_feed_the_global_histogram(self):
        from repro.obs import global_registry

        family = global_registry().histogram(
            "repro_span_duration_seconds",
            labels=("span",),
        )
        before = family.labels("test.obs.probe").count
        with span("test.obs.probe"):
            pass
        assert family.labels("test.obs.probe").count == before + 1


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------
class TestEventLog:
    def test_json_mode_one_object_per_line(self):
        sink = io.StringIO()
        log = EventLog(stream=sink, json_mode=True)
        log.event("request", trace_id="t1", op="spread",
                  duration_ms=1.25, skipped=None)
        record = json.loads(sink.getvalue())
        assert record["event"] == "request"
        assert record["trace_id"] == "t1"
        assert record["op"] == "spread"
        assert record["duration_ms"] == 1.25
        assert "skipped" not in record  # None fields dropped
        assert "ts" in record

    def test_human_mode(self):
        sink = io.StringIO()
        log = EventLog(stream=sink, json_mode=False)
        log.event("listening", host="127.0.0.1", port=7727)
        assert sink.getvalue() == (
            "repro.service listening host=127.0.0.1 port=7727\n"
        )

    def test_disabled_log_writes_nothing(self):
        sink = io.StringIO()
        log = EventLog(stream=sink, enabled=False)
        log.event("request", op="spread")
        assert sink.getvalue() == ""


# ----------------------------------------------------------------------
# service ops surface
# ----------------------------------------------------------------------
class TestServiceObservability:
    def test_server_assigns_trace_id(self, service):
        response = service.handle({"op": "ping"})
        assert isinstance(response["trace_id"], str)
        assert response["trace_id"]
        assert "trace" not in response  # only attached on request

    def test_client_trace_id_echoed(self, service):
        response = service.handle({"op": "ping", "trace_id": "mine-42"})
        assert response["trace_id"] == "mine-42"

    def test_non_string_trace_id_replaced(self, service):
        response = service.handle({"op": "ping", "trace_id": 123})
        assert isinstance(response["trace_id"], str)
        assert response["trace_id"] != "123"

    def test_trace_attached_on_request(self, service):
        response = service.handle(
            {"op": "spread", "graph": "toy", "seeds": [0], "trace": True}
        )
        assert response["ok"], response
        names = [n["name"] for n in iter_spans(response["trace"])]
        assert "service.resolve" in names
        assert "service.queue_wait" in names
        assert "service.evaluate" in names

    def test_error_responses_carry_trace_id(self, service):
        response = service.handle({"op": "teleport"})
        assert not response["ok"]
        assert response["trace_id"]

    def test_metrics_op_exposition(self, service):
        service.handle({"op": "spread", "graph": "toy", "seeds": [0]})
        response = service.handle({"op": "metrics"})
        assert response["ok"]
        text = response["result"]
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{op="spread"} 1' in text
        assert (
            'repro_request_duration_seconds_count{op="spread"} 1' in text
        )
        assert "# TYPE repro_cache_builds_total counter" in text

    def test_request_metrics_count_errors(self, service):
        service.handle({"op": "teleport"})
        assert service.metrics.counter(
            "repro_request_errors_total"
        ).value == 1

    def test_slow_query_log(self, service):
        # slow_ms=0.0: every request is slow by definition
        response = service.handle(
            {"op": "spread", "graph": "toy", "seeds": [0],
             "trace_id": "slow-1"}
        )
        assert response["ok"]
        stats = service.handle({"op": "stats"})["result"]
        slow = stats["slow_queries"]
        assert any(r["trace_id"] == "slow-1" for r in slow)
        record = [r for r in slow if r["trace_id"] == "slow-1"][0]
        assert record["op"] == "spread"
        assert record["graph"] == "toy"
        assert record["duration_ms"] >= 0.0
        assert "service.evaluate" in record["phases"]
        assert service.metrics.counter(
            "repro_slow_queries_total"
        ).value >= 1

    def test_no_slow_log_when_disabled(self, graphs):
        service = BlockerService(
            registry=graphs, metrics=MetricsRegistry(), slow_ms=None
        )
        try:
            service.handle({"op": "ping"})
            stats = service.handle({"op": "stats"})["result"]
            assert stats["slow_queries"] == []
        finally:
            service.close()

    def test_slow_ring_under_concurrent_writers(self, service):
        """The slow-query ring under many handler threads: bounded at
        its maxlen, no torn entries (every record fully formed), and
        eviction is oldest-first — exactly the newest ``maxlen``
        requests survive."""
        writers, per_writer = 8, 20  # 160 > the ring's 64 slots
        total = writers * per_writer
        barrier = threading.Barrier(writers)
        errors: list[BaseException] = []

        def worker(idx: int) -> None:
            try:
                barrier.wait()
                for q in range(per_writer):
                    service.handle({
                        "op": "ping",
                        "trace_id": f"slow-{idx * per_writer + q:04d}",
                    })
            except BaseException as error:  # noqa: BLE001 - surface
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        with service._slow_lock:
            ring = list(service.slow_queries)
        maxlen = service.slow_queries.maxlen
        assert maxlen == 64
        assert len(ring) == maxlen  # bounded despite 160 writes
        required = {
            "trace_id", "op", "graph", "duration_ms", "ok", "phases",
        }
        for record in ring:  # no torn entries
            assert required <= record.keys(), record
            assert record["op"] == "ping"
            assert record["ok"] is True
        # per-writer order is preserved through the ring (each writer
        # appends its requests in issue order; the lock serialises
        # appends, so a writer's own sequence can never invert), and
        # the globally newest record is necessarily some writer's
        # final request — nothing was appended after it
        by_writer: dict[int, list[int]] = {}
        for record in ring:
            number = int(record["trace_id"].rsplit("-", 1)[1])
            by_writer.setdefault(number // per_writer, []).append(number)
        for sequence in by_writer.values():
            assert sequence == sorted(sequence)
        newest = int(ring[-1]["trace_id"].rsplit("-", 1)[1])
        assert newest % per_writer == per_writer - 1
        assert (
            service.metrics.counter("repro_slow_queries_total").value
            == total
        )
        # eviction is oldest-first: after exactly maxlen sequential
        # requests, the ring holds those and only those, in order
        for q in range(maxlen):
            service.handle({"op": "ping", "trace_id": f"tail-{q:03d}"})
        with service._slow_lock:
            tail = [r["trace_id"] for r in service.slow_queries]
        assert tail == [f"tail-{q:03d}" for q in range(maxlen)]

    def test_request_events_logged(self, graphs):
        sink = io.StringIO()
        service = BlockerService(
            registry=graphs,
            metrics=MetricsRegistry(),
            log=EventLog(stream=sink, json_mode=True),
        )
        try:
            service.handle({"op": "ping", "trace_id": "log-1"})
        finally:
            service.close()
        record = json.loads(sink.getvalue().splitlines()[0])
        assert record["event"] == "request"
        assert record["trace_id"] == "log-1"
        assert record["op"] == "ping"
        assert record["ok"] is True
        assert record["duration_ms"] >= 0.0


class TestMetricsHTTP:
    def test_scrape_and_health(self, registry):
        registry.counter("repro_probe_total", "Probe.").inc()
        server = start_metrics_server(port=0, registry=registry)
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode()
            assert "repro_probe_total 1" in body
            with urllib.request.urlopen(f"{base}/healthz") as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "application/json"
                )
                health = json.loads(response.read())
            assert health["status"] == "ok"
            assert health["uptime_seconds"] >= 0.0
            assert isinstance(health["version"], str)
            assert health["python"].count(".") == 2
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
