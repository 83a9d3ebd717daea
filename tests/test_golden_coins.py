"""Absolute pins on the sample pools' coin stream.

Every identity contract elsewhere in the suite (pooled == sketch,
delta == cold rebuild, mmap == cold, native == numpy) compares two
paths that share the coin code, so a changed stream passes all of
them.  These pins do not: they hold the sha256 of two pools' flat
arrays and two answers drawn from the email-core stand-in, as the
numpy draw produced them.  Both draw paths must reproduce them — the
compiled coin kernel, and the numpy fallback under ``REPRO_NATIVE=0``.

The selection pins hold the greedy solvers' blockers, in insertion
order, and their spread estimates: each method's selection over the
sketch (the argmax of one gain sweep per round), and the paper's
sampled-graph loops (AG, GR, static greedy and
the out-neighbors heuristic), which draw their own ``ICSampler`` coins
— or, for AG/SG/GR, ``LinearThresholdSampler`` draws — plus the
Lemma-1 estimate over ``ICSampler`` samples.  A change to a solver's
selection rule moves them.

The timeline pins hold one scalar-engine cascade, level by level, and
one expected activation curve; they move if the engine's coin order
or its blocked check changes.

A deliberate change of the stream bumps ``_COIN_SCHEME`` in
``repro/engine/pool.py`` and re-pins every value here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench import pick_seeds, prepare_graph
from repro.core import (
    advanced_greedy,
    greedy_replace,
    solve_imin,
    static_sample_greedy,
)
from repro.datasets import load_dataset
from repro.engine import build_evaluator, EngineSpec
from repro.graph import barabasi_albert
from repro.models import LinearThresholdSampler
from repro.sampling import estimate_spread_sampled
from repro.spread import cascade_timeline, expected_activation_curve

EMAIL_OFFSETS = (
    "75c0c017ec7d315610cf4c5db4c997fddc8b3abbb832732a8872e1f9f1282ad3"
)
EMAIL_POSITIONS = (
    "7c4bb811c39277cf8411be26dfeb60e8fc0226a9f514ee98da284f2e2c339eb7"
)
BA_OFFSETS = (
    "ccc26bf2172825a4ea40410bd6c226033ffd833621e418a2f88f3ccd1d3b93e4"
)
BA_POSITIONS = (
    "c6d14332b0faf9ffaaf5851cdf003dd428d39e6f27edc5e1668ea66f33211ab1"
)
EMAIL_SPREAD = "0x1.5e1eb851eb852p+6"  # 87.53
EMAIL_BLOCKERS = [176, 300, 958]

# budget-20 selections through the sketch, in insertion order; AG,
# static greedy and BG (at mcs_rounds=200, so on the same 200 worlds)
# run one selection loop and pick identically
_SWEEP_BLOCKERS = [
    300, 958, 176, 702, 948, 162, 700, 862, 776, 242,
    783, 238, 60, 24, 452, 380, 135, 90, 936, 370,
]
SKETCH_SELECTIONS = {
    "greedy-replace": (
        [
            300, 958, 176, 702, 948, 162, 700, 862, 776, 242,
            783, 452, 585, 227, 380, 90, 135, 60, 936, 238,
        ],
        "0x1.0d33333333333p+5",  # 33.65
    ),
    "advanced-greedy": (_SWEEP_BLOCKERS, "0x1.0b147ae147ae2p+5"),  # 33.385
    "static-greedy": (_SWEEP_BLOCKERS, "0x1.0b147ae147ae2p+5"),
    "baseline-greedy": (_SWEEP_BLOCKERS, "0x1.0b147ae147ae2p+5"),
}
# budget-3 selections on the paper's sampled-graph loops (no evaluator)
EAGER_SELECTIONS = {
    "advanced-greedy": ([51, 147, 61], "0x1.290a3d70a3d71p+6"),  # 74.26
    "greedy-replace": ([908, 59, 121], "0x1.1c3d70a3d70a4p+6"),  # 71.06
    "static-greedy": ([51, 702, 300], "0x1.c11eb851eb852p+5"),  # 56.14
}
EAGER_OUT_NEIGHBORS = [300, 958, 333]
# the same loops over Linear Threshold samples (Section V-E)
LT_SELECTIONS = {
    "advanced-greedy": (
        advanced_greedy, [909, 700, 627], "0x1.39851eb851eb9p+7",  # 156.76
    ),
    "static-greedy": (
        static_sample_greedy, [909, 948, 298],
        "0x1.4cd70a3d70a3ep+7",  # 166.42
    ),
    "greedy-replace": (
        greedy_replace, [681, 300, 327], "0x1.f4e147ae147aep+6",  # 125.22
    ),
}
# Lemma 1 at theta=300 with vertex 176 blocked: mean, std_error
EMAIL_ESTIMATE = ("0x1.450369d0369d0p+6", "0x1.0b0be9af24b61p+2")
# scalar-engine timelines from 3 seeds with two step-1 vertices blocked
TIMELINE_BLOCKED = [173, 405]
EMAIL_TIMELINE = [[627, 687, 947], [511]]
# expected_activation_curve at rounds=50, max_steps=16
EMAIL_CURVE = [
    "0x1.8000000000000p+1", "0x1.71eb851eb851fp+2",
    "0x1.1000000000000p+3", "0x1.6b851eb851eb8p+3",
    "0x1.b70a3d70a3d71p+3", "0x1.f8f5c28f5c28fp+3",
    "0x1.1c28f5c28f5c3p+4", "0x1.375c28f5c28f6p+4",
    "0x1.55c28f5c28f5cp+4", "0x1.7851eb851eb85p+4",
    "0x1.947ae147ae148p+4", "0x1.b333333333333p+4",
    "0x1.d570a3d70a3d7p+4", "0x1.f47ae147ae148p+4",
    "0x1.0b0a3d70a3d71p+5", "0x1.1a3d70a3d70a4p+5",
    "0x1.270a3d70a3d71p+5",
]


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.int64).tobytes()
    ).hexdigest()


@pytest.fixture(scope="module")
def email():
    """The email-core stand-in under WC and its five pinned seeds."""
    graph = prepare_graph(load_dataset("email-core"), "wc")
    return graph, pick_seeds(graph, 5, rng=7)


def test_email_core_pool(email):
    graph, seeds = email
    pooled = build_evaluator(
        graph, EngineSpec(engine="pooled", seed=7)
    )
    batch = pooled.get(200)
    assert sha256(batch.offsets) == EMAIL_OFFSETS
    assert sha256(batch.positions) == EMAIL_POSITIONS
    assert pooled.expected_spread(seeds, 200, []).hex() == EMAIL_SPREAD


def test_grown_ba_pool():
    graph = prepare_graph(barabasi_albert(2000, 4, rng=7), "wc")
    pool = build_evaluator(graph, EngineSpec(engine="pooled", seed=7))
    pool.get(7)
    batch = pool.get(300)
    assert sha256(batch.offsets) == BA_OFFSETS
    assert sha256(batch.positions) == BA_POSITIONS


def test_greedy_replace_blockers(email):
    graph, seeds = email
    sketch = build_evaluator(
        graph, EngineSpec(engine="sketch", seed=7)
    )
    result = solve_imin(
        graph, seeds, 3, algorithm="greedy-replace", theta=200, rng=7,
        evaluator=sketch,
    )
    assert sorted(result.blockers) == EMAIL_BLOCKERS


@pytest.mark.parametrize("algorithm", sorted(SKETCH_SELECTIONS))
def test_sketch_selection(email, algorithm):
    graph, seeds = email
    sketch = build_evaluator(
        graph, EngineSpec(engine="sketch", seed=7)
    )
    result = solve_imin(
        graph, seeds, 20, algorithm=algorithm, theta=200, mcs_rounds=200,
        rng=7, evaluator=sketch,
    )
    blockers, spread = SKETCH_SELECTIONS[algorithm]
    assert result.blockers == blockers
    assert result.estimated_spread.hex() == spread


@pytest.mark.parametrize("algorithm", sorted(EAGER_SELECTIONS))
def test_sampled_graph_selection(email, algorithm):
    graph, seeds = email
    result = solve_imin(graph, seeds, 3, algorithm=algorithm, theta=50, rng=7)
    blockers, spread = EAGER_SELECTIONS[algorithm]
    assert result.blockers == blockers
    assert result.estimated_spread.hex() == spread


def test_out_neighbors_selection(email):
    graph, seeds = email
    result = solve_imin(
        graph, seeds, 3, algorithm="out-neighbors", theta=50, rng=7
    )
    assert result.blockers == EAGER_OUT_NEIGHBORS


@pytest.mark.parametrize("algorithm", sorted(LT_SELECTIONS))
def test_linear_threshold_selection(email, algorithm):
    graph, seeds = email
    solver, blockers, spread = LT_SELECTIONS[algorithm]
    result = solver(
        graph, seeds, 3, theta=50, rng=7,
        sampler_factory=LinearThresholdSampler,
    )
    assert result.blockers == blockers
    assert result.estimated_spread.hex() == spread


def test_sampled_spread_estimate(email):
    graph, seeds = email
    estimate = estimate_spread_sampled(
        graph, seeds, theta=300, rng=7, blocked=[176]
    )
    assert (estimate.mean.hex(), estimate.std_error.hex()) == EMAIL_ESTIMATE


def test_cascade_timeline(email):
    graph, _ = email
    seeds = pick_seeds(graph, 3, rng=7)
    timeline = cascade_timeline(graph, seeds, rng=7, blocked=TIMELINE_BLOCKED)
    assert timeline == EMAIL_TIMELINE


def test_expected_activation_curve(email):
    graph, _ = email
    seeds = pick_seeds(graph, 3, rng=7)
    curve = expected_activation_curve(
        graph, seeds, rounds=50, rng=7, blocked=TIMELINE_BLOCKED,
        max_steps=16,
    )
    assert [value.hex() for value in curve.tolist()] == EMAIL_CURVE
