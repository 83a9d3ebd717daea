"""Batched, array-native construction of per-sample dominator trees.

The sketch estimator's cold path is "one dominator tree per pooled
live-edge sample" (Section V-B3).  Historically each tree build
materialised a Python ``dict`` adjacency of the whole sample — ~``m``
dict operations per sample to reach a subgraph that is usually a tiny
fraction of the graph.  This module is the flat-array replacement:

* :func:`build_sample_tree` cuts one sample's CSR straight out of the
  pooled ``positions`` array with numpy (:func:`~repro.engine.kernels
  .sample_csr`) and runs the array-native Lengauer–Tarjan core on it —
  Python-level work scales with the *reachable* subgraph only;
* :class:`TreeBuilder` batches that over many samples, through the
  compiled batched kernel (:mod:`repro.native`) when the host can
  build it and the per-sample Python path otherwise.

Both the sketch index and Algorithm 2 (:mod:`repro.core.decrease`)
build their trees here.  Every tree is a pure function of its sample,
and :func:`subtree_size_sums` aggregates over trees in exact integer
arithmetic in float64, so the native and Python paths are
bit-identical — and bit-identical to the historical per-sample
dict-adjacency path, which keeps blocker selections and spread
estimates unchanged at fixed seeds (pinned by
``tests/test_golden_coins.py`` and the ``bench_sketch_build.py``
identity check).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..dominator import dominator_order_sizes_csr
from ..graph import CSRGraph
from ..native import native_build_trees
from ..obs import span
from .kernels import _checked_ids, sample_csr
from .pool import SampleBatch

__all__ = [
    "build_sample_tree",
    "subtree_size_sums",
    "TreeBuilder",
]


def build_sample_tree(
    csr: CSRGraph,
    positions: np.ndarray,
    seeds: Sequence[int],
    blocked: Iterable[int] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Dominator preorder and subtree sizes of one live-edge sample.

    ``positions`` are the sample's surviving edge positions; the tree
    is rooted at the virtual super-source (id ``csr.n``) with edges to
    ``seeds``, matching Lemma 1's joint-reachability estimator.
    Returns the ``(order, sizes)`` int64 payload of Algorithm 2.
    """
    indptr, indices = sample_csr(csr, positions, seeds, blocked)
    return dominator_order_sizes_csr(indptr, indices, csr.n)


def _payload_mask(lengths: np.ndarray) -> np.ndarray:
    """Mask selecting non-root entries of concatenated tree payloads
    (each tree's root sits at its own offset 0)."""
    total = int(lengths.sum())
    mask = np.ones(total, dtype=bool)
    roots = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=roots[1:])
    mask[roots] = False
    return mask


def subtree_size_sums(
    lengths: np.ndarray, orders: np.ndarray, sizes: np.ndarray, n: int
) -> np.ndarray:
    """``float64[n + 1]``: each vertex's subtree sizes summed over a
    :meth:`TreeBuilder.build_packed` payload batch, roots skipped."""
    keep = _payload_mask(lengths)
    return np.bincount(
        orders[keep],
        weights=sizes[keep].astype(np.float64),
        minlength=n + 1,
    )


class TreeBuilder:
    """Batched tree construction over one frozen graph.

    The batched entry point of the sketch construction pipeline:
    :meth:`build` (the per-sample Python reference) and
    :meth:`build_packed` (native kernel or Python) consume the pooled
    sample arrays directly and return trees aligned with
    ``sample_indices``.  Seeds and blocked ids are checked against
    ``[0, n)`` before either path runs, so an out-of-range id raises
    instead of wrapping onto another vertex.  A blocked seed is
    allowed: it stays unreachable through the virtual source.
    """

    def __init__(self, csr: CSRGraph) -> None:
        self.csr = csr
        # True when the last build_packed() call ran the native kernel
        # (observability for tests and bench reports)
        self._packed_native = False

    def build(
        self,
        batch: SampleBatch,
        sample_indices: Sequence[int],
        seeds: Sequence[int],
        blocked: Iterable[int] = (),
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """One ``(order, sizes)`` dominator payload per requested sample."""
        seed_arr, blocked_arr = _checked_ids(self.csr.n, seeds, blocked)
        return [
            build_sample_tree(
                self.csr, batch.surviving(int(t)), seed_arr, blocked_arr
            )
            for t in sample_indices
        ]

    def build_packed(
        self,
        batch: SampleBatch,
        sample_indices: Sequence[int],
        seeds: Sequence[int],
        blocked: Iterable[int] = (),
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arena-packable ``(lengths, orders, sizes)`` payload batch.

        The same trees :meth:`build` returns, concatenated back to
        back: sample ``sample_indices[i]`` owns
        ``orders[o[i]:o[i + 1]]`` where ``o`` is the exclusive prefix
        sum of ``lengths``.  This is the shape the arena-backed sketch
        view consumes — one flat write-back instead of ``len(batch)``
        array appends — and the shape the native batched kernel
        (:mod:`repro.native`) emits directly: when the compiled kernel
        is available the whole batch is one C call; otherwise the
        per-sample Python build runs and is concatenated.  Both paths
        are bit-identical, pinned by the cross-check tests.
        """
        n = self.csr.n
        seed_arr, blocked_arr = _checked_ids(n, seeds, blocked)
        idx = np.asarray(list(sample_indices), dtype=np.int64)
        if idx.shape[0] == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        with span("sketch.treebuild"):
            if n > 0:
                mask = np.zeros(n, dtype=np.uint8)
                mask[blocked_arr] = 1
                native = native_build_trees(
                    n, self.csr.indptr, self.csr.indices, batch.positions,
                    batch.offsets, idx, seed_arr, mask,
                )
                if native is not None:
                    self._packed_native = True
                    return native
            self._packed_native = False
            trees = self.build(batch, idx, seed_arr, blocked_arr)
            lengths = np.asarray(
                [order.shape[0] for order, _ in trees], dtype=np.int64
            )
            orders = np.concatenate([order for order, _ in trees])
            sizes = np.concatenate([sizes for _, sizes in trees])
            return lengths, orders, sizes
