"""Tests for declarative SLOs and burn-rate evaluation (``repro.obs.slo``).

Covers the spec grammar, the windowed snapshot differencing (driven
by an injected clock so no test sleeps), the bucket-interpolated
latency objective, the error-rate objective, and the exported
``repro_slo_*`` gauge families.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    DEFAULT_WINDOW_SECONDS,
    MetricsRegistry,
    parse_slo,
    SLOTracker,
)


class TestParse:
    def test_latency_ms(self):
        slo = parse_slo("p99=250ms")
        assert slo.kind == "latency"
        assert slo.quantile == 0.99
        assert slo.threshold_s == 0.25
        assert slo.objective == pytest.approx(0.01)
        assert slo.window_s == DEFAULT_WINDOW_SECONDS

    def test_latency_seconds_with_window(self):
        slo = parse_slo("p95=1s@2m")
        assert slo.threshold_s == 1.0
        assert slo.window_s == 120.0
        assert slo.objective == pytest.approx(0.05)

    def test_error_rate_percent(self):
        slo = parse_slo("error_rate=1%")
        assert slo.kind == "error_rate"
        assert slo.objective == pytest.approx(0.01)

    def test_error_rate_fraction_and_hour_window(self):
        slo = parse_slo("error_rate=0.005@1h")
        assert slo.objective == pytest.approx(0.005)
        assert slo.window_s == 3600.0

    def test_fractional_quantile(self):
        assert parse_slo("p99.9=1s").quantile == pytest.approx(0.999)

    def test_whitespace_tolerated(self):
        assert parse_slo(" p99 = 250ms @ 5m ").threshold_s == 0.25

    @pytest.mark.parametrize(
        "bad",
        [
            "p99",
            "p99=250",  # latency without a unit
            "p0=1s",
            "p100=1s",
            "error_rate=0%",
            "error_rate=150%",
            "error_rate=250ms",  # duration on an error-rate SLO
            "latency=250ms",
            "p99=250ms@0s",
            "p99=-3ms",
            "",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="SLO|empty|budget|quantile"):
            parse_slo(bad)

    def test_name_is_label_safe(self):
        assert parse_slo("p99=250ms").name == "p99_250ms"
        assert parse_slo("error_rate=1%").name == "error_rate_1pct"
        assert parse_slo("p99.9=1s@5m").name == "p99p9_1s_5m"

    def test_as_dict_round_trips_the_essentials(self):
        info = parse_slo("p99=250ms").as_dict()
        assert info["threshold_ms"] == 250.0
        assert info["kind"] == "latency"
        assert info["window_seconds"] == DEFAULT_WINDOW_SECONDS


class _Clock:
    def __init__(self) -> None:
        self.t = 1000.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture()
def registry():
    return MetricsRegistry()


def _request_families(registry):
    latency = registry.histogram(
        "repro_request_duration_seconds", "lat", labels=("op",)
    )
    requests = registry.counter(
        "repro_requests_total", "req", labels=("op",)
    )
    errors = registry.counter("repro_request_errors_total", "err")
    return latency, requests, errors


class TestTracker:
    def test_needs_slos_and_rejects_duplicates(self, registry):
        with pytest.raises(ValueError, match="at least one"):
            SLOTracker([], registry=registry)
        slo = parse_slo("p99=250ms")
        with pytest.raises(ValueError, match="duplicate"):
            SLOTracker([slo, slo], registry=registry)

    def test_latency_burn_rate_since_start(self, registry):
        clock = _Clock()
        latency, _, _ = _request_families(registry)
        tracker = SLOTracker(
            [parse_slo("p99=250ms")], registry=registry, now=clock
        )
        # 98 fast, 2 slow: bad fraction 2% against a 1% budget
        for _ in range(98):
            latency.labels("spread").observe(0.01)
        for _ in range(2):
            latency.labels("spread").observe(0.9)
        [result] = tracker.evaluate()
        assert result["requests"] == 100
        assert result["bad_requests"] == pytest.approx(2.0)
        assert result["bad_fraction"] == pytest.approx(0.02)
        assert result["burn_rate"] == pytest.approx(2.0, rel=1e-3)
        assert result["breached"] is True
        assert result["windowed"] is False  # no earlier snapshot yet

    def test_windowed_evaluation_forgets_old_badness(self, registry):
        clock = _Clock()
        latency, _, _ = _request_families(registry)
        tracker = SLOTracker(
            [parse_slo("p99=250ms@60s")], registry=registry, now=clock
        )
        for _ in range(10):
            latency.labels("spread").observe(0.9)  # a bad burst
        tracker.evaluate()
        clock.advance(30.0)
        # half a window later: only good requests since the snapshot
        for _ in range(200):
            latency.labels("spread").observe(0.01)
        [result] = tracker.evaluate()
        assert result["windowed"] is True
        assert result["requests"] == 200
        assert result["bad_requests"] == 0.0
        assert result["breached"] is False

    def test_latency_threshold_interpolates_between_bounds(
        self, registry
    ):
        clock = _Clock()
        latency, _, _ = _request_families(registry)
        # threshold 0.375s sits midway inside the (0.25, 0.5] bucket
        tracker = SLOTracker(
            [parse_slo("p50=375ms")], registry=registry, now=clock
        )
        for _ in range(100):
            latency.labels("spread").observe(0.3)  # lands in (0.25, 0.5]
        [result] = tracker.evaluate()
        # linear interpolation credits half the straddling bucket
        assert result["bad_requests"] == pytest.approx(50.0)

    def test_error_rate_slo(self, registry):
        clock = _Clock()
        _, requests, errors = _request_families(registry)
        tracker = SLOTracker(
            [parse_slo("error_rate=1%")], registry=registry, now=clock
        )
        requests.labels("spread").inc(400)
        errors.inc(2)
        [result] = tracker.evaluate()
        assert result["requests"] == 400
        assert result["bad_fraction"] == pytest.approx(0.005)
        assert result["burn_rate"] == pytest.approx(0.5)
        assert result["breached"] is False

    def test_no_traffic_is_zero_burn(self, registry):
        tracker = SLOTracker(
            [parse_slo("p99=250ms"), parse_slo("error_rate=1%")],
            registry=registry,
            now=_Clock(),
        )
        for result in tracker.evaluate():
            assert result["burn_rate"] == 0.0
            assert result["breached"] is False

    def test_evaluation_is_memoised_within_a_scrape(self, registry):
        clock = _Clock()
        latency, _, _ = _request_families(registry)
        tracker = SLOTracker(
            [parse_slo("p99=250ms")], registry=registry, now=clock
        )
        first = tracker.evaluate()
        latency.labels("spread").observe(0.9)
        assert tracker.evaluate() is first  # same scrape, cached
        clock.advance(1.0)
        assert tracker.evaluate() is not first

    def test_gauges_land_in_the_registry(self, registry):
        clock = _Clock()
        latency, _, _ = _request_families(registry)
        SLOTracker(
            [parse_slo("p99=250ms")], registry=registry, now=clock
        )
        for _ in range(10):
            latency.labels("spread").observe(0.9)
        text = registry.render()
        assert 'repro_slo_burn_rate{slo="p99_250ms"}' in text
        assert 'repro_slo_bad_fraction{slo="p99_250ms"}' in text
        assert 'repro_slo_breached{slo="p99_250ms"} 1' in text

    def test_snapshot_ring_stays_bounded(self, registry):
        clock = _Clock()
        tracker = SLOTracker(
            [parse_slo("p99=250ms@60s")], registry=registry, now=clock
        )
        for _ in range(500):
            clock.advance(1.0)
            tracker.evaluate()
        # one pre-horizon base + at most a window's worth of snapshots
        assert len(tracker._snapshots) <= 62

    def test_tracker_shares_server_families(self):
        """Construction order must not matter: the tracker
        get-or-creates the exact families the service registers."""
        from repro.service import BlockerService

        registry = MetricsRegistry()
        tracker = SLOTracker(
            [parse_slo("p99=250ms")], registry=registry
        )
        service = BlockerService(metrics=registry)
        try:
            service.handle({"op": "ping"})
        finally:
            service.close()
        [result] = tracker.evaluate()
        assert result["requests"] >= 1
