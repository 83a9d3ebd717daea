"""In-process replay of a served stream through the public engine API.

The reference builds the same artifact the server builds for the
workload's key (registry load, WC preparation, :class:`Artifact`) and
answers every recorded request in send order with the calls the
server's executor makes (``Artifact.spread_many`` / ``block`` /
``apply_delta``).  Its answers are the truth the served answers must
equal bit for bit.  Each call is timed from outside; where one public
call spans several layers, the spans the engine already records
(:mod:`repro.obs` ``use_trace``) split it.
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro.bench import prepare_graph
from repro.graph import CSRGraph, GraphDelta
from repro.obs import global_registry, new_trace, use_trace
from repro.service import Artifact, ArtifactKey

from .workloads import ARTIFACT_SEED, MODEL, Workload


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _span_ms(trace, name: str, roots_only: bool = False) -> float:
    if roots_only:
        return sum(s.duration_ms for s in trace.spans if s.name == name)
    entry = trace.summary().get(name)
    return entry["total_ms"] if entry else 0.0


def _celf_evaluations() -> float:
    return global_registry().counter("repro_celf_evaluations_total").value


class Reference:
    """The workload's artifact, built and driven in this process.

    ``layers`` collects one list of per-call samples per per-layer
    metric; ``probes`` names the metrics measured by a probe call
    rather than by the stream itself.
    """

    def __init__(self, workload: Workload, registry) -> None:
        self.workload = workload
        self.layers: dict[str, list[float]] = defaultdict(list)
        self.probes: set[str] = set()
        self._probing = False
        start = time.perf_counter()
        raw = registry.get(workload.graph)
        self._add("graph.load_ms", _ms(start))
        start = time.perf_counter()
        prepared = prepare_graph(raw.copy(), MODEL, rng=ARTIFACT_SEED)
        self._add("graph.prepare_ms", _ms(start))
        start = time.perf_counter()
        CSRGraph(prepared)
        self._add("graph.csr_ms", _ms(start))
        key = ArtifactKey(workload.graph, MODEL, workload.theta, ARTIFACT_SEED)
        trace = new_trace()
        with use_trace(trace):
            self.artifact = Artifact(key, prepared)
        self._add("pool.sample_ms", _span_ms(trace, "pool.generate"))
        batch = self.artifact.pool.get(workload.theta)
        self.layers["pool.live_edges"].append(float(batch.offsets[-1]))
        self.layers["pool.bytes"].append(float(self.artifact.pool.nbytes))
        self._trees_before = self.artifact.sketch.stats.trees_built

    def _add(self, metric: str, value: float) -> None:
        self.layers[metric].append(value)
        if self._probing:
            self.probes.add(metric)

    # ------------------------------------------------------------------
    def answer(self, request: dict) -> tuple[dict, float]:
        """The reference result for one request and its engine time."""
        op = request["op"]
        theta = self.workload.theta
        artifact = self.artifact
        if op == "spread":
            start = time.perf_counter()
            value = artifact.spread_many(
                request["seeds"], [request["blocked"]], theta
            )[0]
            engine = _ms(start)
            self._add("pooled.spread_ms", engine)
            return {"spread": value, "blocked": request["blocked"]}, engine
        if op == "block":
            evaluations = _celf_evaluations()
            trace = new_trace()
            start = time.perf_counter()
            with use_trace(trace):
                outcome = artifact.block(
                    request["seeds"], request["budget"],
                    request["algorithm"], theta,
                )
            engine = _ms(start)
            select_ms = outcome.pop("elapsed_seconds") * 1e3
            views_ms = _span_ms(trace, "sketch.build")
            judge_draw_ms = _span_ms(trace, "pool.generate")
            if views_ms:
                self._add("sketch.view_build_ms", views_ms)
            self._add("sketch.view_hit", 0.0 if views_ms else 1.0)
            self._add("core.select_ms", select_ms - views_ms)
            self._add("core.celf_evals", _celf_evaluations() - evaluations)
            if judge_draw_ms:
                self._add("pool.judge_sample_ms", judge_draw_ms)
            self._add(
                "judge.score_ms", engine - select_ms - judge_draw_ms
            )
            return outcome, engine
        if op == "update":
            delta = GraphDelta.from_dict({
                k: request[k] for k in ("inserts", "deletes", "reweights")
            })
            trace = new_trace()
            start = time.perf_counter()
            with use_trace(trace):
                outcome = artifact.apply_delta(delta)
            engine = _ms(start)
            sketch_ms = _span_ms(trace, "sketch.delta", roots_only=True)
            judge_ms = _span_ms(trace, "pool.delta", roots_only=True)
            self._add("sketch.delta_ms", sketch_ms)
            self._add("graph.delta_ms", engine - sketch_ms - judge_ms)
            self._add(
                "sketch.delta_touched_frac",
                outcome["touched_samples"] / self.workload.theta,
            )
            return {"applied": True, "seq": request["seq"], **outcome}, engine
        raise ValueError(f"unexpected op {op!r}")

    def probe(self, request: dict) -> None:
        """Answer a request the stream never sends, so the layers it
        exercises are measured on this workload's graph too."""
        self._probing = True
        try:
            self.answer(request)
        finally:
            self._probing = False

    def finish(self) -> None:
        stats = self.artifact.sketch.stats
        self.layers["sketch.trees_built"].append(
            float(stats.trees_built - self._trees_before)
        )
        self.layers["sketch.tree_bytes"].append(float(stats.tree_bytes))


def matches(expected: dict, response: dict | None) -> bool:
    """Does the served answer equal the reference answer bit for bit?"""
    if not response or not response.get("ok"):
        return False
    result = response.get("result", {})
    return all(result.get(k) == v for k, v in expected.items())
