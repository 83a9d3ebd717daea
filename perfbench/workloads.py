"""The benchmark's workloads: graphs, fixed seed sets and request streams.

Every input is a pure function of the workload definition and the
``--seed`` the benchmark was given: the graphs and the fixed seed sets
depend on the definition only, the request choices (which seed set,
which blockers, which budget, which edits) on ``--seed``.  The server
only ever sees the generated requests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bench import pick_seeds
from repro.graph import barabasi_albert, GraphDelta
from repro.graph.io import write_edge_list
from repro.service import default_registry, GraphRegistry

ARTIFACT_SEED = 7
"""The artifact key's ``seed`` (the sample pools' coin stream)."""
MODEL = "wc"
UPDATE_EDITS = 100
UPDATES_PER_SECOND_CAP = 8
"""Upper bound on updates a second the stream pre-generates for."""


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    """Name the server registers the graph under."""
    theta: int
    seed_sets: int
    seeds_per_set: int
    ba: tuple[int, int] | None = None
    """``(n, attach)`` of a Barabasi-Albert graph served from an
    edge-list file; ``None`` serves a built-in dataset stand-in."""
    setups: int = 3
    """Server cold starts per run; ``setup_s`` is their median."""
    warmup: int = 0
    """Requests sent after set-up and before any timing."""
    connections: int = 1
    """Connections of the closed-loop phase."""
    open_rate: float | None = None
    """Poisson arrival rate (requests/s) of an open-loop phase that
    precedes the closed-loop one; ``None`` = closed loop only."""


WORKLOADS = {
    "spread-read": Workload(
        "spread-read", "email-core", 200, 3, 5,
        setups=5, warmup=200, connections=2, open_rate=40.0,
    ),
    "block-select": Workload(
        "block-select", "ba-10000-5", 1000, 6, 10, ba=(10_000, 5),
        warmup=6,
    ),
    "evolve-1m": Workload(
        "evolve-1m", "ba-10000-50", 1000, 1, 10, ba=(10_000, 50),
        setups=1, warmup=3,
    ),
}


def edge_list_path(workload: Workload, build_dir: Path) -> Path | None:
    if workload.ba is None:
        return None
    return build_dir / "graphs" / f"{workload.graph}.txt"


def ensure_edge_list(workload: Workload, build_dir: Path) -> None:
    """Write the workload's edge-list file once per checkout (the graph
    does not depend on ``--seed``)."""
    path = edge_list_path(workload, build_dir)
    if path is None or path.is_file():
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    n, attach = workload.ba
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    write_edge_list(
        barabasi_albert(n, attach, rng=ARTIFACT_SEED), tmp,
        include_probabilities=False,
    )
    tmp.replace(path)


def server_registry(workload: Workload, build_dir: Path) -> GraphRegistry:
    """The registry ``repro-imin serve`` builds for this workload's
    command line, so in-process loads see the server's graph."""
    registry = default_registry(scale=1.0)
    path = edge_list_path(workload, build_dir)
    if path is not None:
        registry.register_edge_list(workload.graph, path)
    return registry


def random_delta(graph, edits: int, gen: np.random.Generator) -> GraphDelta:
    """One batch of ``edits`` edits against ``graph``: 45% deletes, 35%
    reweights and 20% inserts, each edge named at most once."""
    deletes = (45 * edits) // 100
    reweights = (35 * edits) // 100
    inserts = edits - deletes - reweights
    n = graph.n
    chosen: set[tuple[int, int]] = set()

    def existing() -> tuple[int, int]:
        while True:
            u = int(gen.integers(n))
            nbrs = graph.out_neighbors(u)
            if not nbrs:
                continue
            v = int(nbrs[int(gen.integers(len(nbrs)))])
            if (u, v) not in chosen:
                chosen.add((u, v))
                return u, v

    delete_edges = [existing() for _ in range(deletes)]
    reweight_edges = [
        (*existing(), float(gen.uniform(0.005, 0.05)))
        for _ in range(reweights)
    ]
    insert_edges: list[tuple[int, int, float]] = []
    while len(insert_edges) < inserts:
        u, v = int(gen.integers(n)), int(gen.integers(n))
        if u == v or (u, v) in chosen or graph.has_edge(u, v):
            continue
        chosen.add((u, v))
        insert_edges.append((u, v, float(gen.uniform(0.01, 0.1))))
    return GraphDelta(
        inserts=insert_edges, deletes=delete_edges, reweights=reweight_edges
    )


class Stream:
    """The deterministic request stream of one workload and seed.

    ``setup_request`` is fixed (every cold start sends it); ``next``
    draws the rest from ``--seed``: reads cycle through rounds holding
    every (seed set, blocker count or budget) pair once, shuffled.
    ``evolve-1m`` pre-generates its deltas against the given graph
    (which it mutates) so that no request is computed while a latency
    is being measured.
    """

    def __init__(
        self, workload: Workload, graph, seed: int, max_updates: int = 0
    ) -> None:
        self.workload = workload
        self.n = graph.n
        self.seed_sets = [
            pick_seeds(graph, workload.seeds_per_set, rng=ARTIFACT_SEED + i)
            for i in range(workload.seed_sets)
        ]
        self._gen = np.random.default_rng(seed)
        self._rounds: dict[str, list] = {}
        self._phases = 0
        self._count = 0
        self._seq = 0
        self._deltas: list[GraphDelta] = []
        if workload.name == "evolve-1m":
            delta_gen = np.random.default_rng([seed, 1])
            for _ in range(max_updates):
                delta = random_delta(graph, UPDATE_EDITS, delta_gen)
                delta.apply_to(graph)
                self._deltas.append(delta)
            self._deltas.reverse()

    def _base(self, op: str) -> dict:
        return {
            "op": op,
            "graph": self.workload.graph,
            "model": MODEL,
            "theta": self.workload.theta,
            "seed": ARTIFACT_SEED,
        }

    def setup_request(self) -> dict:
        if self.workload.name == "block-select":
            return {
                **self._base("block"), "seeds": self.seed_sets[0],
                "budget": 5, "algorithm": "greedy-replace",
            }
        return {**self._base("spread"), "seeds": self.seed_sets[0],
                "blocked": []}

    def _draw(self, op: str, variants: tuple) -> tuple:
        """The next ``(seed set, variant)`` of ``op``: every pair once
        per round, in a seeded order, so each run sends the same mix."""
        pending = self._rounds.setdefault(op, [])
        if not pending:
            pending.extend(
                (s, v) for s in range(len(self.seed_sets)) for v in variants
            )
            self._gen.shuffle(pending)
        index, variant = pending.pop()
        return self.seed_sets[index], variant

    def _spread(self) -> dict:
        seeds, count = self._draw("spread", (0, 1, 2, 3))
        blocked: list[int] = []
        while len(blocked) < count:
            v = int(self._gen.integers(self.n))
            if v not in seeds and v not in blocked:
                blocked.append(v)
        return {**self._base("spread"), "seeds": seeds, "blocked": blocked}

    def _block(self) -> dict:
        seeds, budget = self._draw("block", (5, 10, 20))
        return {
            **self._base("block"), "seeds": seeds, "budget": budget,
            "algorithm": "greedy-replace",
        }

    def _update(self) -> dict | None:
        if not self._deltas:
            return None
        self._seq += 1
        return {**self._base("update"), "seq": self._seq,
                **self._deltas.pop().as_dict()}

    def next(self) -> dict | None:
        """The next request, or ``None`` when the stream is exhausted."""
        self._count += 1
        name = self.workload.name
        if name == "spread-read":
            return self._spread()
        if name == "block-select":
            return self._block()
        if self._count % 3 == 1:
            return self._update()
        return self._spread()

    def arrivals(self, rate: float, seconds: float) -> list[float]:
        """Poisson arrival offsets (s) of an open-loop phase.

        The schedule is drawn from a fixed seed, not ``--seed``: every
        run offers the same traffic shape, so a burst that one seed's
        schedule happens to contain does not read as a change in the
        server; ``--seed`` still chooses what each request asks.
        """
        gen = np.random.default_rng(ARTIFACT_SEED + self._phases)
        self._phases += 1
        out: list[float] = []
        at = float(gen.exponential(1.0 / rate))
        while at < seconds:
            out.append(at)
            at += float(gen.exponential(1.0 / rate))
        return out
