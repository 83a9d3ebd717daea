"""Sampling wall-clock profiler: collapsed stacks, stdlib only.

The histograms and span trees of :mod:`repro.obs` answer *how long*
a request took and *which phase* took it — but once the service
saturates, the question becomes *where the interpreter actually
spends its wall-clock* across every thread at once, including time
the span instrumentation never wraps (lock waits, socket reads, numpy
kernels).  This module is the third observability layer: a daemon
thread that wakes ``hz`` times per second, walks
``sys._current_frames()`` (every live thread's current Python frame,
one C-level dict copy — no tracing hooks, no per-call overhead), and
aggregates each thread's stack into *collapsed-stack* counts::

    MainThread;serve;handle;_op_spread;expected_spread_many 412

one line per distinct stack, trailing integer = samples observed in
it — exactly the format ``flamegraph.pl`` and speedscope ingest, so a
dump flows straight into a flamegraph without translation.

Because the sampler only *observes* frames between bytecodes, the
profiled process pays nothing per call; the whole cost is the walk
itself, ``hz`` times a second (CI asserts the warm-query p50 moves
<5% at the default rate via ``bench_service_saturation.py``).  The
default rate is a prime-ish 67 Hz so sampling never phase-locks with
millisecond-periodic work and silently over- or under-counts it.

Surfaces:

* library — ``SamplingProfiler(hz=...)`` with ``start/stop/
  collapsed/stats`` (attachable to any process);
* service — the ``profile`` op (``start``/``stop``/``dump``/
  ``status``) on a running server, plus ``repro-imin serve
  --profile-hz`` to sample from boot;
* CLI — ``repro-imin profile`` drives the op against a live server
  and writes the collapsed file locally.

Sampler health is itself metered: ``repro_profile_samples_total``,
``repro_profile_overruns_total`` (ticks that took longer than the
sampling interval — the signal that ``hz`` is set too high for the
machine) and the ``repro_profile_active`` 0/1 gauge land in the
shared registry.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter as _TallyCounter

from .metrics import global_registry, MetricsRegistry

__all__ = [
    "DEFAULT_HZ",
    "SamplingProfiler",
    "check_hz",
]

DEFAULT_HZ = 67.0
"""Default sampling rate; prime-ish so it never phase-locks with
millisecond-periodic request work."""

_MAX_HZ = 1000.0
_MAX_DEPTH = 128  # frames kept per stack; deeper tails are truncated


def check_hz(hz: float) -> float:
    """``hz`` as a float, or ``ValueError`` outside (0, 1000] — the
    check every :class:`SamplingProfiler` runs, for callers that must
    reject a bad rate before they build one."""
    if not hz > 0 or hz > _MAX_HZ:
        raise ValueError(
            f"hz must be in (0, {_MAX_HZ:g}], got {hz!r}"
        )
    return float(hz)


def _frame_label(frame) -> str:
    """One collapsed-stack frame: ``module.qualname``.

    Module over filename keeps lines short and diff-stable across
    checkouts; the code object's qualname disambiguates methods and
    nested functions within it.
    """
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    name = getattr(code, "co_qualname", code.co_name)
    return f"{module}.{name}"


class SamplingProfiler:
    """Walk every thread's stack ``hz`` times/sec; tally collapsed stacks.

    ``start()`` spawns the daemon sampler thread; ``stop()`` joins it
    and freezes the aggregate, which ``collapsed()`` renders (callable
    while running too — the tally is lock-guarded).  One instance is
    restartable: a later ``start()`` keeps accumulating unless
    ``reset()`` is called in between.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.hz = check_hz(hz)
        self._interval = 1.0 / self.hz
        self._lock = threading.Lock()
        self._tally: _TallyCounter = _TallyCounter()
        self._samples = 0  # thread-stacks observed
        self._ticks = 0  # sampler wake-ups
        self._overruns = 0  # ticks slower than the interval
        self._active_seconds = 0.0  # summed across start/stop windows
        self._started_at: float | None = None
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        metrics = registry if registry is not None else global_registry()
        self._m_samples = metrics.counter(
            "repro_profile_samples_total",
            "Thread-stack samples aggregated by the sampling profiler",
        )
        self._m_overruns = metrics.counter(
            "repro_profile_overruns_total",
            "Profiler ticks that took longer than the sampling "
            "interval (hz too high for this machine)",
        )
        self._m_active = metrics.gauge(
            "repro_profile_active",
            "1 while the sampling profiler is running, else 0",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Begin sampling (no-op if already running)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop_event = threading.Event()
            self._started_at = time.perf_counter()
            self._thread = threading.Thread(
                target=self._run,
                args=(self._stop_event,),
                name="repro-profiler",
                daemon=True,
            )
            self._thread.start()
        self._m_active.set(1)

    def stop(self) -> dict[str, object]:
        """Stop sampling and return :meth:`stats`; the aggregate stays
        readable (and resumable) afterwards."""
        with self._lock:
            thread, self._thread = self._thread, None
            self._stop_event.set()
            if self._started_at is not None:
                self._active_seconds += (
                    time.perf_counter() - self._started_at
                )
                self._started_at = None
        if thread is not None:
            thread.join(timeout=5)
        self._m_active.set(0)
        return self.stats()

    def reset(self) -> None:
        """Drop the aggregate (tally and counters); keeps running."""
        with self._lock:
            self._tally.clear()
            self._samples = 0
            self._ticks = 0
            self._overruns = 0
            self._active_seconds = 0.0
            if self._started_at is not None:
                self._started_at = time.perf_counter()

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # sampling loop
    # ------------------------------------------------------------------
    def _run(self, stop_event: threading.Event) -> None:
        own_id = threading.get_ident()
        next_tick = time.perf_counter()
        while not stop_event.wait(
            max(0.0, next_tick - time.perf_counter())
        ):
            next_tick += self._interval
            started = time.perf_counter()
            self._sample_once(own_id)
            if time.perf_counter() - started > self._interval:
                with self._lock:
                    self._overruns += 1
                self._m_overruns.inc()
                # resynchronise instead of bursting to catch up: a
                # burst would oversample whatever runs right after a
                # slow tick
                next_tick = time.perf_counter() + self._interval

    def _sample_once(self, own_id: int) -> None:
        names = {
            t.ident: t.name for t in threading.enumerate()
        }
        frames = sys._current_frames()
        observed = 0
        stacks: list[tuple[str, ...]] = []
        for thread_id, frame in frames.items():
            if thread_id == own_id:
                continue  # the sampler never profiles itself
            stack: list[str] = [
                names.get(thread_id, f"thread-{thread_id}")
            ]
            depth = 0
            # walk leaf -> root, then reverse into root -> leaf order
            leafward: list[str] = []
            while frame is not None and depth < _MAX_DEPTH:
                leafward.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            stack.extend(reversed(leafward))
            stacks.append(tuple(stack))
            observed += 1
        del frames  # drop frame references promptly
        with self._lock:
            self._ticks += 1
            self._samples += observed
            for stack in stacks:
                self._tally[stack] += 1
        if observed:
            self._m_samples.inc(observed)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def collapsed(self, limit: int | None = None) -> str:
        """The aggregate in collapsed-stack format, hottest first.

        ``frame;frame;...;frame count`` per line — pipe the dump into
        ``flamegraph.pl`` or load it in speedscope as-is.  ``limit``
        keeps only the ``limit`` hottest stacks (for embedding in JSON
        reports).
        """
        with self._lock:
            entries = self._tally.most_common(limit)
        return "\n".join(
            f"{';'.join(stack)} {count}" for stack, count in entries
        )

    def stats(self) -> dict[str, object]:
        """Sampler health and volume (what the ``profile`` op returns
        alongside the dump)."""
        with self._lock:
            running_for = (
                time.perf_counter() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            return {
                "active": self._thread is not None
                and self._thread.is_alive(),
                "hz": self.hz,
                "samples": self._samples,
                "ticks": self._ticks,
                "overruns": self._overruns,
                "distinct_stacks": len(self._tally),
                "duration_seconds": round(
                    self._active_seconds + running_for, 3
                ),
            }
