"""Lightweight span tracing: monotonic timers, nesting, trace ids.

A *span* times one named phase (``with span("sketch.rebase"): ...``)
on the monotonic clock.  Every completed span — traced or not —
observes the shared ``repro_span_duration_seconds{span=...}``
histogram in the global registry, so a long-lived process accumulates
per-phase latency distributions with no per-request set-up.  When a
:class:`Trace` is *active* (the serving layer activates one per
request, benchmarks via :func:`use_trace`), spans additionally record
themselves into the trace's tree: nesting follows the call stack
through a :mod:`contextvars` variable, so ``service.evaluate`` >
``sketch.rebase`` > ``sketch.treebuild`` comes out as a tree without
any plumbing through the engine's signatures.

Design constraints the hot paths impose:

* entering/exiting a span is a few attribute writes and one
  ``perf_counter`` pair — cheap enough for the rebase loop (the
  CI-gated ``bench_sketch_query.py`` runs with this instrumentation
  live, which is the acceptance check that the overhead is noise);
* exception safety: a span that exits via an exception still records
  its duration (flagged ``error``) and re-raises — a failed rebase
  must show up in the breakdown, not vanish from it;
* traces cross threads only by *explicit handoff* (:func:`use_trace`
  on the receiving thread), never implicitly — ``contextvars`` do not
  propagate to worker threads on their own.

``Trace.as_dict()`` is what the service attaches to a response when
the client asks (``"trace": true`` — ``repro-imin query --trace``);
:func:`format_trace` renders it for humans.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from typing import Iterator

from .metrics import global_registry, Histogram

__all__ = [
    "Span",
    "Trace",
    "current_trace",
    "format_trace",
    "iter_spans",
    "new_trace",
    "span",
    "use_trace",
]


class Span:
    """One timed phase: name, duration, children (a finished node)."""

    __slots__ = ("name", "duration_ms", "children", "error")

    def __init__(self, name: str) -> None:
        self.name = name
        self.duration_ms: float = 0.0
        self.children: list[Span] = []
        self.error = False

    def as_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.error:
            out["error"] = True
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out


class Trace:
    """One request's span tree, identified by ``trace_id``.

    Span attachment is lock-guarded, so a trace handed to several
    threads (:func:`use_trace` on each) records all their spans.
    """

    __slots__ = ("trace_id", "spans", "_lock")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def _attach(self, parent: "Span | None", node: Span) -> None:
        with self._lock:
            (parent.children if parent is not None else self.spans).append(
                node
            )

    def as_dict(self) -> dict:
        with self._lock:
            spans = [s.as_dict() for s in self.spans]
        return {"trace_id": self.trace_id, "spans": spans}

    def summary(self) -> dict[str, dict[str, float]]:
        """Flat per-name aggregate: ``{name: {count, total_ms}}`` over
        the whole tree — what benchmarks attach to their reports."""
        out: dict[str, dict[str, float]] = {}

        def walk(nodes: list[Span]) -> None:
            for node in nodes:
                entry = out.setdefault(
                    node.name, {"count": 0, "total_ms": 0.0}
                )
                entry["count"] += 1
                entry["total_ms"] = round(
                    entry["total_ms"] + node.duration_ms, 3
                )
                walk(node.children)

        with self._lock:
            roots = list(self.spans)
        walk(roots)
        return out


# (active trace, innermost open span) for the current logical context
_CTX: "contextvars.ContextVar[tuple[Trace, Span | None] | None]" = (
    contextvars.ContextVar("repro_obs_ctx", default=None)
)


def new_trace(trace_id: str | None = None) -> Trace:
    """A fresh trace; ids are caller-supplied (client-sent) or
    generated (16 hex chars, unique per process lifetime)."""
    return Trace(trace_id if trace_id else uuid.uuid4().hex[:16])


def current_trace() -> Trace | None:
    ctx = _CTX.get()
    return ctx[0] if ctx is not None else None


class use_trace:
    """Activate ``trace`` for the enclosed block (and this thread).

    ``use_trace(None)`` is a no-op context manager, so call sites can
    pass through an optional trace unconditionally.
    """

    __slots__ = ("_trace", "_token")

    def __init__(self, trace: Trace | None) -> None:
        self._trace = trace
        self._token = None

    def __enter__(self) -> Trace | None:
        if self._trace is not None:
            self._token = _CTX.set((self._trace, None))
        return self._trace

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _CTX.reset(self._token)
            self._token = None


def _span_histogram() -> Histogram:
    return global_registry().histogram(
        "repro_span_duration_seconds",
        "Wall time of instrumented phases (spans), by span name",
        labels=("span",),
    )


class span:
    """Time a named phase; record it into the active trace (if any).

    Usable as a context manager only — re-entrant use needs distinct
    instances (each ``span(...)`` call makes one).
    """

    __slots__ = ("name", "_start", "_node", "_token")

    def __init__(self, name: str) -> None:
        self.name = name
        self._start = 0.0
        self._node: Span | None = None
        self._token = None

    def __enter__(self) -> "span":
        ctx = _CTX.get()
        if ctx is not None:
            trace, parent = ctx
            self._node = Span(self.name)
            trace._attach(parent, self._node)
            self._token = _CTX.set((trace, self._node))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if self._token is not None:
            _CTX.reset(self._token)
            self._token = None
        if self._node is not None:
            self._node.duration_ms = duration * 1e3
            if exc_type is not None:
                self._node.error = True
            self._node = None
        _span_histogram().labels(self.name).observe(duration)
        # never swallow the exception: observability must not change
        # control flow


def format_trace(trace_dict: dict, indent: str = "  ") -> str:
    """Human-readable per-phase breakdown of ``Trace.as_dict()``."""
    lines = [f"trace {trace_dict.get('trace_id', '?')}"]

    def walk(nodes: "list[dict]", depth: int) -> None:
        for node in nodes:
            flag = "  !" if node.get("error") else ""
            lines.append(
                f"{indent * depth}{node['name']:<28} "
                f"{node['duration_ms']:>10.3f} ms{flag}"
            )
            walk(node.get("children", []), depth + 1)

    walk(trace_dict.get("spans", []), 1)
    return "\n".join(lines)


def iter_spans(trace_dict: dict) -> Iterator[dict]:
    """Depth-first iteration over a serialized trace's span dicts."""
    stack = list(reversed(trace_dict.get("spans", [])))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.get("children", [])))
