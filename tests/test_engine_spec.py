"""Tests for :class:`repro.engine.EngineSpec` and the deprecation of
the loose-keyword factory signatures.

The spec is the one value every front end (factories, the serving
layer's :class:`ArtifactKey`, the CLI) agrees on; these tests pin its
validation, its cache-key discipline, and the golden behaviour of the
legacy string-backend paths: they still work, produce bit-identical
evaluators, and warn exactly once per call.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro import assign_weighted_cascade, EngineSpec
from repro.datasets import figure1_graph
from repro.engine import (
    build_evaluator,
    make_evaluator,
    ParallelEvaluator,
    PooledEvaluator,
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
        assert spec.theta == 200
        assert spec.seed == 7
        assert spec.workers is None
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
            ({"theta": 0}, "theta"),
            ({"theta": True}, "theta"),
            ({"seed": "seven"}, "seed"),
            ({"seed": False}, "seed"),
            ({"workers": 0}, "workers"),
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

    def test_as_dict_round_trips(self):
        spec = EngineSpec(model="tr", theta=50, seed=9, workers=2)
        assert EngineSpec(**spec.as_dict()) == spec


class TestSpecFactories:
    @pytest.mark.parametrize(
        "engine, cls",
        [
            ("scalar", ScalarEvaluator),
            ("vectorized", VectorizedEvaluator),
            ("parallel", ParallelEvaluator),
            ("pooled", PooledEvaluator),
            ("sketch", SketchIndex),
        ],
    )
    def test_make_evaluator_spec_no_warning(self, graph, engine, cls):
        spec = EngineSpec(engine=engine, seed=5, workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with make_evaluator(graph, spec) as evaluator:
                assert isinstance(evaluator, cls)

    def test_build_evaluator_spec_stream_discipline(self, graph):
        spec = EngineSpec(engine="pooled", seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with build_evaluator(graph, spec, stream=0) as a, \
                    build_evaluator(graph, spec, stream=0) as b, \
                    build_evaluator(graph, spec, stream=1) as c:
                # same stream replays the same worlds; an independent
                # stream draws different ones
                assert a.expected_spread([0], 64) == (
                    b.expected_spread([0], 64)
                )
                assert a.pool.get(64).positions.tolist() != (
                    c.pool.get(64).positions.tolist()
                )

    def test_spec_matches_legacy_bit_for_bit(self, graph):
        """The spec path is a re-spelling, not a semantic change."""
        spec = EngineSpec(engine="sketch", seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = build_evaluator(graph, "sketch", rng=5, stream=0)
        with build_evaluator(graph, spec) as modern:
            with legacy:
                assert modern.expected_spread([0], 64) == (
                    legacy.expected_spread([0], 64)
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
            assert second.pool.stats.disk_loads == 1


class TestDeprecatedSignatures:
    def test_make_evaluator_string_warns(self, graph):
        with pytest.warns(DeprecationWarning, match="EngineSpec"):
            make_evaluator(graph, "vectorized", rng=1)

    def test_build_evaluator_string_warns(self, graph):
        with pytest.warns(DeprecationWarning, match="EngineSpec"):
            build_evaluator(graph, "vectorized", rng=1)

    def test_legacy_default_backend_warns(self, graph):
        with pytest.warns(DeprecationWarning):
            make_evaluator(graph)

    def test_legacy_answers_unchanged(self, graph):
        """Golden: the deprecated path still returns the historical
        numbers (warning only, no behaviour change)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = build_evaluator(graph, "pooled", rng=5, stream=0)
        spec_built = build_evaluator(
            graph, EngineSpec(engine="pooled", seed=5)
        )
        with legacy, spec_built:
            assert legacy.expected_spread([0], 64) == (
                spec_built.expected_spread([0], 64)
            )

    def test_legacy_cache_key_format_preserved(self, graph, tmp_path):
        """Pool caches stay addressable: an integer rng on the legacy
        path still derives seed{rng}-stream{stream}, prefixed by the
        coin-scheme tag so pools drawn under a different sample
        distribution can never attach."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with build_evaluator(
                graph, "pooled", rng=5, stream=0, cache_dir=tmp_path
            ) as ev:
                ev.expected_spread([0], 32)
                digest = ev.pool.cache_digest
        import hashlib

        import numpy as np

        csr = ev.csr
        key = hashlib.sha256()
        key.update(f"{csr.n}:{csr.m}:coins2:seed5-stream0".encode())
        for array in (csr.indptr, csr.indices, csr.probs):
            key.update(np.ascontiguousarray(array).tobytes())
        assert digest == key.hexdigest()[:16]
