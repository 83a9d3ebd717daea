"""Frozen engine configuration: one value object instead of six knobs.

Every layer that constructs a spread evaluator — the CLI, the serving
layer's artifact cache, benchmarks — used to thread the same loose
keywords (``backend``, ``rng``, ``cache_dir``...) through its own
signatures, and each layer invented its own partial subset.
:class:`EngineSpec` names the full identity of an engine once:

* **what** is estimated — ``engine`` (one of :data:`BACKENDS`);
* **which randomness** — ``model`` (edge-probability model, one of
  :data:`MODELS`) and the integer ``seed`` that keys both the RNG
  streams and the on-disk artifact cache;
* **where artifacts live** — ``cache_dir`` (persistent sample pools +
  sketch artifacts, memory-mapped on rehydrate).

The dataclass is frozen and hashable, so a spec can key caches and be
shared across threads; :meth:`cache_key` derives the stable on-disk
stream identity (model + seed + stream) that the pool and sketch
persistence layers fingerprint.  The sample count is not part of it:
queries pass ``rounds``, and a pool grows to whatever they ask for.

A spec is the only way to configure an engine:
:func:`repro.engine.build_evaluator` takes one (plus the runtime-only
``stream`` and a shared ``pool``) and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

__all__ = ["BACKENDS", "MODELS", "EngineSpec"]

BACKENDS: tuple[str, ...] = ("scalar", "vectorized", "pooled", "sketch")

MODELS: tuple[str, ...] = ("tr", "wc")


@dataclass(frozen=True)
class EngineSpec:
    """Identity + runtime configuration of one spread engine."""

    engine: str = "sketch"
    """Backend name, one of :data:`BACKENDS`."""
    model: str = "wc"
    """Edge-probability model, one of :data:`MODELS` — keys prepared
    graphs and on-disk artifacts; the evaluator factories themselves
    consume already-prepared graphs."""
    seed: int = 7
    """Non-negative integer root seed: keys RNG streams and the disk
    cache."""
    cache_dir: str | Path | None = None
    """Directory for persistent, memory-mappable artifacts (sample
    pools and arena sketch views); ``None`` = memory only."""

    def __post_init__(self) -> None:
        if self.engine not in BACKENDS:
            raise ValueError(
                f"unknown engine {self.engine!r}: expected one of "
                + ", ".join(BACKENDS)
            )
        if self.model not in MODELS:
            raise ValueError(
                f"unknown model {self.model!r}: expected one of "
                + ", ".join(MODELS)
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    # ------------------------------------------------------------------
    # derived identities
    # ------------------------------------------------------------------
    def cache_key(self, stream: int = 0) -> str:
        """Stable on-disk stream identity for artifact fingerprints.

        Includes the model so pools prepared under different
        probability models never collide even when a caller reuses one
        ``cache_dir`` (graph content already contributes the
        probability arrays, the key makes the intent explicit)."""
        return f"{self.model}-seed{self.seed}-stream{int(stream)}"

    def with_engine(self, engine: str) -> "EngineSpec":
        """This spec with a different backend (same identity knobs)."""
        return replace(self, engine=engine)
