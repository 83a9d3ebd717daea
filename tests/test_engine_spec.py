"""Tests for :class:`repro.engine.EngineSpec` and the one engine
factory, :func:`repro.engine.build_evaluator`.

The spec is the one value every front end (the factory, the serving
layer's :class:`ArtifactKey`, the CLI) agrees on; these tests pin its
validation, its cache-key discipline, the factory's refusal of
anything but a spec, and the stream-0 identity: a spec-built engine
answers exactly like its backend class constructed with ``rng=seed``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import assign_weighted_cascade, EngineSpec
from repro.datasets import figure1_graph
from repro.engine import (
    build_evaluator,
    SamplePool,
    ScalarEvaluator,
    SketchIndex,
    VectorizedEvaluator,
)


@pytest.fixture()
def graph():
    return assign_weighted_cascade(figure1_graph())


class TestEngineSpec:
    def test_defaults(self):
        spec = EngineSpec()
        assert spec.engine == "sketch"
        assert spec.model == "wc"
        assert spec.seed == 7
        assert spec.cache_dir is None

    def test_frozen(self):
        spec = EngineSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.engine = "pooled"

    @pytest.mark.parametrize(
        "patch, fragment",
        [
            ({"engine": "quantum"}, "engine"),
            ({"model": "ic"}, "model"),
            ({"layout": "columnar"}, "layout"),  # not a field: TypeError
            # not a field either: TypeError
            ({"theta": 0}, "theta"),
            ({"theta": True}, "theta"),
            ({"seed": "seven"}, "seed"),
            ({"seed": False}, "seed"),
            # not a field either: TypeError
            ({"workers": 0}, "workers"),
            ({"workers": 2.5}, "workers"),
            ({"workers": True}, "workers"),
            ({"workers": "2"}, "workers"),
            ({"seed": -1}, "seed must be non-negative"),
        ],
    )
    def test_validation(self, patch, fragment):
        with pytest.raises((ValueError, TypeError), match=fragment):
            EngineSpec(**patch)

    def test_cache_key_encodes_model_seed_stream(self):
        spec = EngineSpec(model="tr", seed=11)
        assert spec.cache_key(0) == "tr-seed11-stream0"
        assert spec.cache_key(1) == "tr-seed11-stream1"
        assert EngineSpec(model="wc", seed=11).cache_key(0) != (
            spec.cache_key(0)
        )

    def test_with_engine(self):
        spec = EngineSpec(engine="sketch", seed=3)
        pooled = spec.with_engine("pooled")
        assert pooled.engine == "pooled"
        assert pooled.seed == spec.seed
        assert spec.engine == "sketch"  # original untouched


class TestSpecFactories:
    @pytest.mark.parametrize(
        "engine, cls",
        [
            ("scalar", ScalarEvaluator),
            ("vectorized", VectorizedEvaluator),
            ("pooled", SamplePool),
            ("sketch", SketchIndex),
        ],
    )
    def test_spec_builds_class(self, graph, engine, cls):
        spec = EngineSpec(engine=engine, seed=5)
        with build_evaluator(graph, spec) as evaluator:
            assert isinstance(evaluator, cls)

    def test_build_evaluator_spec_stream_discipline(self, graph):
        spec = EngineSpec(engine="pooled", seed=5)
        with build_evaluator(graph, spec, stream=0) as a, \
                build_evaluator(graph, spec, stream=0) as b, \
                build_evaluator(graph, spec, stream=1) as c:
            # same stream replays the same worlds; an independent
            # stream draws different ones
            assert a.expected_spread([0], 64) == (
                b.expected_spread([0], 64)
            )
            assert a.get(64).positions.tolist() != (
                c.get(64).positions.tolist()
            )

    def test_spec_cache_dir_persists_pool(self, graph, tmp_path):
        spec = EngineSpec(
            engine="pooled", seed=5, cache_dir=tmp_path
        )
        with build_evaluator(graph, spec) as first:
            first.expected_spread([0], 32)
        assert list(tmp_path.glob("pool-*.npy"))
        with build_evaluator(graph, spec) as second:
            second.expected_spread([0], 32)
            assert second.stats.disk_loads == 1

    @pytest.mark.parametrize(
        "config, kwargs, fragment",
        [
            ("sketch", {}, "EngineSpec"),
            (EngineSpec(), {"rng": 7}, "rng"),
            (EngineSpec(), {"workers": 2}, "workers"),
            (EngineSpec(), {"batch_size": 8}, "batch_size"),
            (EngineSpec(), {"cache_dir": "artifacts"}, "cache_dir"),
            (EngineSpec(), {"cache_key": "seed7-stream0"}, "cache_key"),
        ],
    )
    def test_only_a_spec_configures_the_engine(
        self, graph, config, kwargs, fragment
    ):
        """A backend name, or any removed factory keyword, is refused."""
        with pytest.raises(TypeError, match=fragment):
            build_evaluator(graph, config, **kwargs)

    @pytest.mark.parametrize(
        "engine, backend",
        [
            ("vectorized", VectorizedEvaluator),
            ("pooled", SamplePool),
            ("sketch", SketchIndex),
        ],
    )
    def test_stream_zero_matches_backend_seeded_directly(
        self, graph, engine, backend
    ):
        """``SeedSequence((seed, 0))`` and ``default_rng(seed)`` draw the
        same stream, so a spec-built engine answers bit-identically to
        its backend class constructed with ``rng=seed``."""
        blocked_sets = ([], [2], [3, 5])
        spec = EngineSpec(engine=engine, seed=5)
        direct = (
            SketchIndex(SamplePool(graph, rng=5)) if backend is SketchIndex
            else backend(graph, rng=5)
        )
        with build_evaluator(graph, spec) as built, direct:
            for blocked in blocked_sets:
                assert built.expected_spread([0], 64, blocked) == (
                    direct.expected_spread([0], 64, blocked)
                )
