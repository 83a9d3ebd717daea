"""Vectorized batch kernels for independent-cascade simulation.

The scalar :class:`~repro.spread.MonteCarloEngine` walks one cascade at
a time in a Python stack loop, paying interpreter overhead per touched
edge.  The kernels here simulate a whole *batch* of ``B`` independent
cascades simultaneously as array operations:

* activation state is a ``(B, n)`` boolean matrix (flat-indexed for
  O(1) membership tests), while the frontier is kept **sparse** as
  parallel ``(cascade, vertex)`` arrays — cascades reach a few percent
  of the graph under the paper's TR/WC models, so per-level work must
  scale with the frontier, not with ``B * n``;
* each synchronous BFS level gathers the out-edges of every frontier
  pair with a ragged-``arange`` gather, draws **all** edge coins of the
  level in one numpy call, and activates the successful targets with a
  single flat scatter;
* a vertex enters the frontier at most once per cascade, so every edge
  is flipped at most once per cascade — exactly the IC semantics of the
  scalar engine (Definition 2 of the paper).

Python-level work is a constant number of numpy calls per BFS level of
the *batch*, independent of how many cascades or edges that level
touches.

The same frontier machinery also evaluates *pre-drawn* live-edge
samples (Definition 4): :func:`reach_counts_from_alive` replaces the
coin flips with lookups into an aliveness matrix.  It is the reference
for, and the fallback of, the compiled reach kernel
(:func:`repro.native.native_reach_counts`), which counts straight from
the :class:`~repro.engine.pool.SamplePool`'s flat sample arrays with no
matrix; :func:`_blocked_mask` checks the ids and builds the blocked
mask for both.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..graph import CSRGraph, DiGraph
from ..graph.delta import _vertex_id
from ..rng import ensure_rng, RngLike

__all__ = [
    "ragged_arange",
    "auto_batch_size",
    "batch_spread",
    "reach_counts_from_alive",
    "sample_csr",
    "postings_csr",
    "postings_order",
]

# soft cap on the (batch, n) activation matrix: ~16M cells = 16 MB of
# bools, which keeps per-batch allocation cheap on small machines while
# letting large batches amortise the per-level numpy call overhead.
_STATE_CELL_BUDGET = 16_000_000


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every ``c`` in ``counts``.

    ``ragged_arange([2, 0, 3]) == [0, 1, 0, 1, 2]`` — the standard
    trick for gathering variable-length CSR slices without a Python
    loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def auto_batch_size(n: int, requested: int | None = None) -> int:
    """Batch size bounded so the activation matrix stays affordable."""
    cap = max(1, _STATE_CELL_BUDGET // max(n, 1))
    return min(1024 if requested is None else requested, cap)


def _probs32(csr: CSRGraph) -> np.ndarray:
    """float32 edge probabilities, cached on the CSR snapshot.

    Coin flips compare a float32 uniform against these: the rounding
    perturbs each probability by at most 2**-24, orders of magnitude
    below the Monte-Carlo estimator's statistical error, and halves
    the cost of the hottest numpy call.
    """
    cached = getattr(csr, "_probs32", None)
    if cached is None:
        cached = np.minimum(csr.probs, 1.0).astype(np.float32)
        csr._probs32 = cached
    return cached


def _coin_survive(gen: np.random.Generator, probs32: np.ndarray):
    """``make_survive`` factory flipping fresh coins for every touched
    edge — the one definition of the Monte-Carlo coin semantics shared
    by every simulating kernel."""

    def make_survive(_pos: int, _b: int):
        def survive(erows: np.ndarray, eids: np.ndarray) -> np.ndarray:
            return gen.random(eids.shape[0], dtype=np.float32) \
                < probs32[eids]

        return survive

    return make_survive


def _id_array(ids: Iterable[int], what: str) -> np.ndarray:
    """``ids`` as int64; a bool, float or string id raises
    ``ValueError`` (GraphDelta's check) instead of being coerced onto
    a vertex — ``1.7`` and ``True`` would read as 1, ``"958"`` as 958."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
        return ids.astype(np.int64, copy=False)
    return np.asarray([_vertex_id(v, what) for v in ids], dtype=np.int64)


def _checked_ids(
    n: int, seeds: Iterable[int], blocked: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(seeds, blocked)`` as int64 arrays, after checking every id.

    Non-integer ids raise ``ValueError``; out-of-range ids raise the
    sketch index's errors (``ValueError`` for a blocked id,
    ``IndexError`` for a seed) instead of letting numpy wrap a
    negative id onto another vertex — or, in a native kernel, read
    out of bounds.
    """
    blocked_arr = _id_array(blocked, "blocked")
    bad = (blocked_arr < 0) | (blocked_arr >= n)
    if bad.any():
        raise ValueError(
            f"blocked vertex {int(blocked_arr[bad][0])} out of range "
            f"[0, {n})"
        )
    seed_arr = _id_array(seeds, "seed")
    bad = (seed_arr < 0) | (seed_arr >= n)
    if bad.any():
        raise IndexError(f"seed {int(seed_arr[bad][0])} is not a vertex")
    return seed_arr, blocked_arr


def _blocked_mask(
    n: int, blocked: Iterable[int], seeds: Sequence[int]
) -> np.ndarray:
    """``bool[n]`` mask of ``blocked``, after :func:`_checked_ids` and
    a check that no seed is blocked."""
    seed_arr, blocked_arr = _checked_ids(n, seeds, blocked)
    mask = np.zeros(n, dtype=bool)
    mask[blocked_arr] = True
    blocked_seeds = seed_arr[mask[seed_arr]]
    if blocked_seeds.size:
        raise ValueError(f"seed {int(blocked_seeds[0])} cannot be blocked")
    return mask


def _frontier_step(
    csr: CSRGraph,
    outdeg: np.ndarray,
    active_flat: np.ndarray,
    rows: np.ndarray,
    verts: np.ndarray,
    blocked_mask: np.ndarray,
    has_blocked: bool,
    survive,
) -> tuple[np.ndarray, np.ndarray] | None:
    """One synchronous BFS level for every cascade in the batch.

    ``(rows, verts)`` are the sparse frontier pairs; ``survive(erows,
    eids)`` decides which of the touched edges are live this level.
    Returns the next frontier pairs, or ``None`` once exhausted.
    """
    counts = outdeg[verts]
    live_src = counts > 0
    if not live_src.all():
        rows, verts, counts = rows[live_src], verts[live_src], counts[live_src]
    if rows.size == 0:
        return None
    eids = np.repeat(csr.indptr[verts], counts) + ragged_arange(counts)
    erows = np.repeat(rows, counts)
    # filter on the coin flips first: under TR/WC most edges fail, so
    # every later gather runs on a small fraction of the level's edges
    live = survive(erows, eids)
    eids = eids[live]
    if eids.size == 0:
        return None
    erows = erows[live]
    targets = csr.indices[eids]
    n = np.int64(blocked_mask.shape[0])
    flat = erows * n + targets
    ok = ~active_flat[flat]
    if has_blocked:
        ok &= ~blocked_mask[targets]
    flat = flat[ok]
    if flat.size == 0:
        return None
    # flat (cascade, vertex) scatter; sorting dedups within-level
    # multi-activations (two frontier vertices reaching the same target)
    flat.sort()
    if flat.size > 1:
        keep = np.empty(flat.size, dtype=bool)
        keep[0] = True
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        flat = flat[keep]
    active_flat[flat] = True
    new_rows = flat // n
    return new_rows, flat - new_rows * n


def _run_batches(
    csr: CSRGraph,
    seeds: Sequence[int],
    rounds: int,
    blocked: Iterable[int],
    batch_size: int | None,
    make_survive,
) -> np.ndarray:
    """Shared driver: run ``rounds`` cascades in batches; returns each
    round's active count as ``int64[rounds]``."""
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    n = csr.n
    seed_list = list(dict.fromkeys(seeds))
    blocked_mask = _blocked_mask(n, blocked, seed_list)
    has_blocked = bool(blocked_mask.any())
    seed_arr = np.asarray(seed_list, dtype=np.int64)
    outdeg = csr.out_degrees()
    size = auto_batch_size(n, batch_size)
    per_round = np.empty(rounds, dtype=np.int64)
    pos = 0
    while pos < rounds:
        b = min(size, rounds - pos)
        active_flat = np.zeros(b * n, dtype=bool)
        round_counts = np.full(b, seed_arr.size, dtype=np.int64)
        survive = make_survive(pos, b)
        if seed_arr.size:
            rows = np.repeat(np.arange(b, dtype=np.int64), seed_arr.size)
            verts = np.tile(seed_arr, b)
            active_flat[rows * n + verts] = True
            frontier = (rows, verts)
        else:
            frontier = None
        while frontier is not None:
            frontier = _frontier_step(
                csr, outdeg, active_flat, frontier[0], frontier[1],
                blocked_mask, has_blocked, survive,
            )
            if frontier is not None:
                round_counts += np.bincount(frontier[0], minlength=b)
        per_round[pos: pos + b] = round_counts
        pos += b
    return per_round


def batch_spread(
    graph: DiGraph | CSRGraph,
    seeds: Sequence[int],
    rounds: int,
    rng: RngLike = None,
    blocked: Iterable[int] = (),
) -> float:
    """Monte-Carlo estimate of ``E(S, G[V \\ blocked])``, vectorized.

    The average active count of ``rounds`` independent IC cascades:
    the same distribution as :meth:`MonteCarloEngine.expected_spread`,
    from a different RNG stream.
    """
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph(graph)
    counts = _run_batches(
        csr, seeds, rounds, blocked, None,
        _coin_survive(ensure_rng(rng), _probs32(csr)),
    )
    return float(counts.sum()) / rounds


def sample_csr(
    csr: CSRGraph,
    positions: np.ndarray,
    root_targets: Sequence[int],
    blocked: Iterable[int] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of one live-edge sample plus a virtual super-source.

    ``positions`` are the sample's surviving edge positions (ascending,
    as stored by :class:`~repro.engine.pool.SampleBatch`), so the edge
    list is already grouped by source in CSR order and the whole
    construction is a handful of numpy calls — no Python adjacency
    mapping is ever materialised.  Row ``n`` is the virtual root with
    deterministic edges to ``root_targets`` (the seed set); edges
    incident to a ``blocked`` vertex are dropped, which leaves blocked
    vertices as empty, unreachable rows.

    Returns ``(indptr, indices)`` with ``n + 2`` int64 row pointers,
    ready for :func:`~repro.dominator.dominator_tree_csr`.
    """
    n = csr.n
    src = csr.src[positions]
    dst = csr.indices[positions]
    targets = np.asarray(list(root_targets), dtype=np.int64)
    blocked_list = list(blocked)
    if blocked_list:
        mask = np.zeros(n + 1, dtype=bool)
        mask[np.asarray(blocked_list, dtype=np.int64)] = True
        keep = ~(mask[src] | mask[dst])
        src = src[keep]
        dst = dst[keep]
        # root edges are subject to the same filter: a blocked target
        # must not stay reachable through the virtual source
        targets = targets[~mask[targets]]
    counts = np.bincount(src, minlength=n + 1)
    counts[n] = targets.shape[0]
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate([dst, targets])
    return indptr, indices


def postings_csr(
    sample_ids: np.ndarray,
    vertices: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted membership index: vertex -> samples containing it.

    ``(sample_ids[i], vertices[i])`` pairs state "sample ``t`` reaches
    vertex ``v``", in any order.  Returns ``(indptr, samples)`` CSR
    arrays over the ``n`` vertices: the samples reaching ``v`` are
    ``samples[indptr[v]:indptr[v + 1]]``, **ascending**, which is what
    lets consumers binary search rows (and concatenations of rows) by
    ``v * theta + t`` keys.

    This is the construction kernel of the sketch index's
    inverted membership index (the arena-backed query path): built
    once per view from the base trees, then patched in place through
    an aliveness mask as rebases move the blocker set.
    """
    indptr, order = postings_order(sample_ids, vertices, n)
    return indptr, sample_ids[order]


def postings_order(
    sample_ids: np.ndarray,
    vertices: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and sort permutation of :func:`postings_csr`.

    ``order`` sorts the pairs vertex-major with samples ascending
    within each vertex, so ``sample_ids[order]`` is the postings array
    and the inverse of ``order`` maps every input pair to its posting.
    A sample reaches a vertex at most once, so the keys
    ``v * span + t`` are unique and one unstable argsort of them gives
    the rows a stable sort by vertex would.
    """
    if sample_ids.shape != vertices.shape:
        raise ValueError("sample_ids and vertices must align")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertices, minlength=n), out=indptr[1:])
    span = int(sample_ids.max()) + 1 if sample_ids.shape[0] else 1
    return indptr, np.argsort(vertices * span + sample_ids)


def reach_counts_from_alive(
    csr: CSRGraph,
    seeds: Sequence[int],
    alive: np.ndarray,
    blocked: Iterable[int] = (),
) -> np.ndarray:
    """Reachable-set sizes of ``seeds`` in pre-drawn live-edge samples.

    ``alive`` is a boolean ``(B, m)`` matrix: row ``t`` marks the edges
    surviving in sample ``t``.  Blocking is applied at traversal time,
    which is what lets one sample set serve every blocked-set query
    (the paper's sample-reuse trick behind AdvancedGreedy).  Returns
    ``int64[B]`` active counts, seeds included.
    """
    if alive.ndim != 2 or alive.shape[1] != csr.m:
        raise ValueError(
            f"alive matrix must be (B, m={csr.m}), got {alive.shape}"
        )
    b = alive.shape[0]

    def make_survive(pos: int, _b: int):
        def survive(erows: np.ndarray, eids: np.ndarray) -> np.ndarray:
            return alive[pos + erows, eids]

        return survive

    return _run_batches(csr, seeds, b, blocked, b, make_survive)
