"""Declarative latency/error SLOs evaluated into burn-rate gauges.

PR 6 gave the service latency *histograms*; this module turns them
into an **answer**: is the service meeting its objective, and how
fast is it spending its error budget?  An SLO here is one declarative
spec string —

* ``p99=250ms`` — 99% of requests complete within 250 ms (the error
  budget is the residual 1%);
* ``p95=1s@2m`` — same shape, explicit evaluation window;
* ``error_rate=1%`` — at most 1% of requests answer ``ok=false``.

``repro-imin serve --slo p99=250ms`` (repeatable) wires the parsed
SLOs into an :class:`SLOTracker` over the shared registry's existing
``repro_request_duration_seconds`` / ``repro_requests_total`` /
``repro_request_errors_total`` families — the SLO layer *reads* the
same numbers every scrape already sees; it adds no new accounting to
the request path.

The headline output is the **burn rate**: the fraction of requests
violating the objective, divided by the budgeted fraction.  Burn rate
1.0 means the budget is being spent exactly as fast as it accrues;
2.0 means twice as fast (half the window's budget will be gone at the
halfway mark); under 1.0 is sustainable.  This is the standard SRE
alerting quantity because it is load-independent — a threshold on
qps or raw p99 moves with traffic, a burn rate does not.

Windowing: the underlying families are cumulative since process
start, so the tracker keeps a short ring of timestamped snapshots and
differences the newest against the oldest one inside each SLO's
window.  Snapshots are taken whenever the tracker is evaluated — each
metrics scrape and each ``stats`` op — so the effective resolution is
the scrape cadence (and before two snapshots exist, the since-start
totals stand in).  Latency thresholds are resolved against histogram
buckets with linear interpolation inside the straddling bucket; pick
thresholds on bucket bounds (the defaults include 0.25 s, 0.5 s, 1 s
...) for exact answers.

Exported gauges (one child per SLO, label ``slo``):

* ``repro_slo_burn_rate`` — windowed budget spend rate (the alerting
  signal);
* ``repro_slo_bad_fraction`` — windowed fraction of requests
  violating the objective;
* ``repro_slo_breached`` — 1 when burn rate > 1, else 0.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .metrics import global_registry, MetricsRegistry, RequestMetrics

__all__ = [
    "DEFAULT_WINDOW_SECONDS",
    "SLO",
    "SLOTracker",
    "check_slos",
    "parse_slo",
]

DEFAULT_WINDOW_SECONDS = 300.0
"""Default burn-rate window (5 minutes, the classic fast-burn page)."""

_SPEC_RE = re.compile(
    r"""^\s*
    (?P<kind>p(?P<quantile>\d{1,2}(?:\.\d+)?)|error_rate)
    \s*=\s*
    (?P<value>\d+(?:\.\d+)?)\s*(?P<unit>ms|s|%)?
    (?:\s*@\s*(?P<window>\d+(?:\.\d+)?)\s*(?P<window_unit>s|m|h))?
    \s*$""",
    re.VERBOSE,
)

_WINDOW_SCALE = {"s": 1.0, "m": 60.0, "h": 3600.0}


@dataclass(frozen=True)
class SLO:
    """One parsed objective (see :func:`parse_slo` for the grammar).

    ``objective`` is the *error budget* as a fraction of requests —
    for ``p99=250ms`` it is 0.01 (the 1% of requests allowed over the
    threshold), for ``error_rate=1%`` it is 0.01 directly.
    """

    spec: str
    kind: str  # "latency" | "error_rate"
    objective: float
    threshold_s: float | None = None  # latency SLOs only
    quantile: float | None = None  # latency SLOs only
    window_s: float = DEFAULT_WINDOW_SECONDS

    @property
    def name(self) -> str:
        """Label-safe slug: ``p99=250ms`` -> ``p99_250ms``."""
        return (
            self.spec.replace("=", "_")
            .replace("%", "pct")
            .replace("@", "_")
            .replace(".", "p")
            .replace(" ", "")
        )

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "spec": self.spec,
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "window_seconds": self.window_s,
        }
        if self.kind == "latency":
            out["quantile"] = self.quantile
            out["threshold_ms"] = round(self.threshold_s * 1e3, 6)
        return out


def parse_slo(spec: str) -> SLO:
    """``p99=250ms`` / ``p95=1s@2m`` / ``error_rate=1%`` -> :class:`SLO`.

    Raises ``ValueError`` with the offending spec on any malformed
    input — the CLI surfaces it verbatim.
    """
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ValueError(
            f"bad SLO spec {spec!r}: expected pNN=<latency>[@window] "
            "(e.g. p99=250ms, p95=1s@2m) or error_rate=<percent> "
            "(e.g. error_rate=1%)"
        )
    window_s = DEFAULT_WINDOW_SECONDS
    if match["window"] is not None:
        window_s = float(match["window"]) * _WINDOW_SCALE[
            match["window_unit"]
        ]
        if window_s <= 0:
            raise ValueError(f"bad SLO spec {spec!r}: empty window")
    value = float(match["value"])
    unit = match["unit"]
    normalized = re.sub(r"\s+", "", spec)
    if match["kind"] == "error_rate":
        if unit == "%":
            value /= 100.0
        elif unit is not None:
            raise ValueError(
                f"bad SLO spec {spec!r}: error_rate takes a percent "
                "or a bare fraction, not a duration"
            )
        if not 0 < value < 1:
            raise ValueError(
                f"bad SLO spec {spec!r}: error budget must be in (0, 1)"
            )
        return SLO(
            spec=normalized,
            kind="error_rate",
            objective=value,
            window_s=window_s,
        )
    quantile = float(match["quantile"]) / 100.0
    if not 0 < quantile < 1:
        raise ValueError(
            f"bad SLO spec {spec!r}: quantile must be in (0, 100)"
        )
    if unit == "ms":
        threshold_s = value / 1e3
    elif unit == "s":
        threshold_s = value
    else:
        raise ValueError(
            f"bad SLO spec {spec!r}: latency threshold needs a unit "
            "(ms or s)"
        )
    if threshold_s <= 0:
        raise ValueError(f"bad SLO spec {spec!r}: empty threshold")
    return SLO(
        spec=normalized,
        kind="latency",
        objective=1.0 - quantile,
        threshold_s=threshold_s,
        quantile=quantile,
        window_s=window_s,
    )


def check_slos(slos: Sequence[SLO]) -> tuple[SLO, ...]:
    """``slos`` as a tuple, or ``ValueError`` when two share a name
    (their gauge series would collide) — the check every
    :class:`SLOTracker` runs, for callers that must reject a bad set
    before they build one."""
    names = [slo.name for slo in slos]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate SLO specs: {names}")
    return tuple(slos)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Snapshot:
    """One timestamped reading of the request-level families, summed
    across label children (per-op series collapse into one total)."""

    at: float
    cumulative: tuple[int, ...]  # histogram buckets incl. +Inf
    count: int
    requests: float
    errors: float


class SLOTracker:
    """Evaluate :class:`SLO` objectives from a registry's request
    families; export burn-rate gauges back into the same registry.

    The tracker is read-only over the request path: it get-or-creates
    the same families the service records into (a no-op when they
    exist) and snapshots them at evaluation time.  ``now`` is
    injectable for tests.
    """

    def __init__(
        self,
        slos: Sequence[SLO],
        registry: MetricsRegistry | None = None,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        if not slos:
            raise ValueError("SLOTracker needs at least one SLO")
        self.slos = check_slos(slos)
        self._now = now
        self._registry = (
            registry if registry is not None else global_registry()
        )
        self._families = RequestMetrics(self._registry)
        self._max_window = max(slo.window_s for slo in self.slos)
        self._snapshots: deque[_Snapshot] = deque()
        self._lock = threading.Lock()
        self._last_eval: tuple[float, list[dict]] | None = None
        self._register_gauges()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def _take_snapshot(self) -> _Snapshot:
        bounds = self._families.latency.buckets
        totals = [0] * (len(bounds) + 1)
        count = 0
        for _, child in self._families.latency.children():
            cumulative, _, child_count = child.snapshot()
            for i, value in enumerate(cumulative):
                totals[i] += value
            count += child_count
        requests = sum(
            child.value for _, child in self._families.requests.children()
        )
        return _Snapshot(
            at=self._now(),
            cumulative=tuple(totals),
            count=count,
            requests=requests,
            errors=self._families.errors.value,
        )

    def _window_base(
        self, snapshots: "deque[_Snapshot]", now: float, window_s: float
    ) -> _Snapshot | None:
        """The oldest retained snapshot inside the window, or None
        when the window has no earlier reading (young process or first
        scrape) — callers then fall back to since-start totals."""
        base = None
        for snap in snapshots:
            if snap.at >= now - window_s:
                base = snap
                break
        if base is None or now - base.at <= 0:
            return None
        return base

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self) -> list[dict]:
        """One reading per SLO (records a snapshot; results memoised
        for 0.25 s so the gauge callbacks of one scrape share a single
        evaluation)."""
        with self._lock:
            now = self._now()
            if (
                self._last_eval is not None
                and now - self._last_eval[0] < 0.25
            ):
                return self._last_eval[1]
            current = self._take_snapshot()
            results = [
                self._evaluate_one(slo, current) for slo in self.slos
            ]
            self._snapshots.append(current)
            horizon = now - self._max_window
            while (
                len(self._snapshots) > 1
                and self._snapshots[0].at < horizon
                # keep one snapshot *older* than the horizon so every
                # window always has a base to difference against
                and self._snapshots[1].at <= horizon
            ):
                self._snapshots.popleft()
            self._last_eval = (now, results)
            return results

    def _evaluate_one(self, slo: SLO, current: _Snapshot) -> dict:
        base = self._window_base(
            self._snapshots, current.at, slo.window_s
        )
        if slo.kind == "latency":
            total = current.count - (base.count if base else 0)
            base_cum = (
                base.cumulative if base else (0,) * len(current.cumulative)
            )
            delta = [
                c - b for c, b in zip(current.cumulative, base_cum)
            ]
            good = _good_below(
                self._families.latency.buckets, delta, slo.threshold_s
            )
            bad = max(0.0, total - good)
        else:
            total = current.requests - (base.requests if base else 0.0)
            bad = max(
                0.0, current.errors - (base.errors if base else 0.0)
            )
        bad_fraction = (bad / total) if total > 0 else 0.0
        burn_rate = bad_fraction / slo.objective
        return {
            **slo.as_dict(),
            "requests": round(total, 3),
            "bad_requests": round(bad, 3),
            "bad_fraction": round(bad_fraction, 6),
            "burn_rate": round(burn_rate, 4),
            "breached": burn_rate > 1.0,
            "windowed": base is not None,
        }

    def as_dict(self) -> dict[str, object]:
        """The ``slo`` section of the service ``stats`` op."""
        return {"slos": self.evaluate()}

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def _register_gauges(self) -> None:
        def field(key: str):
            def collect() -> dict[tuple[str, ...], float]:
                return {
                    (entry["name"],): float(entry[key])
                    for entry in self.evaluate()
                }

            return collect

        self._registry.register_callback(
            "repro_slo_burn_rate",
            "Windowed error-budget spend rate per SLO (1.0 = budget "
            "spent exactly as fast as it accrues)",
            field("burn_rate"),
            labels=("slo",),
        )
        self._registry.register_callback(
            "repro_slo_bad_fraction",
            "Windowed fraction of requests violating the SLO",
            field("bad_fraction"),
            labels=("slo",),
        )
        self._registry.register_callback(
            "repro_slo_breached",
            "1 while the SLO's burn rate exceeds 1.0, else 0",
            field("breached"),
            labels=("slo",),
        )


def _good_below(
    bounds: tuple[float, ...], delta: list[int], threshold_s: float
) -> float:
    """Requests at or under ``threshold_s`` given cumulative bucket
    deltas — exact when the threshold sits on a bucket bound, linearly
    interpolated inside the straddling bucket otherwise."""
    previous_bound = 0.0
    previous_cum = 0
    for bound, cum in zip(bounds, delta[:-1]):
        if threshold_s >= bound:
            previous_bound, previous_cum = bound, cum
            continue
        width = bound - previous_bound
        if width <= 0:  # pragma: no cover - bounds are distinct
            return float(cum)
        fraction = (threshold_s - previous_bound) / width
        return previous_cum + (cum - previous_cum) * fraction
    return float(previous_cum) if threshold_s < float("inf") else float(
        delta[-1]
    )
