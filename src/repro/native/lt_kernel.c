/* Native kernels over pooled live-edge samples.
 *
 * repro_build_trees: batched dominator-tree construction.  One call
 * builds the (preorder, subtree-size) payload of Algorithm 2 for a
 * whole batch of samples, straight from the sample pool's flat
 * arrays: per sample it walks the reachable subgraph from the virtual
 * super-source, runs the simple O(m log n) Lengauer-Tarjan variant
 * with an iterative DFS and path-compressed union-find, and
 * accumulates subtree sizes in one descending sweep.
 *
 * The routine is a LINE-FOR-LINE translation of the pure-Python core
 * (repro/dominator/lengauer_tarjan.py::dominator_tree_csr composed
 * with repro/engine/kernels.py::sample_csr and tree.py::subtree_sizes):
 * identical DFS successor order (edge-position order per source, seed
 * order for the virtual root), identical FIFO bucket processing,
 * identical path-compression fold.  Outputs are bit-identical to the
 * Python path, which the cross-check tests and the benchmark identity
 * gates rely on.
 *
 * Two scaling properties the Python path lacks:
 *
 * - a vertex's surviving out-edges are found by binary searching the
 *   sample's (ascending) edge-position slice against the base CSR row
 *   bounds, so per-sample work scales with the REACHABLE subgraph,
 *   not with the sample's total surviving-edge count (under WC-style
 *   models cascades reach a few percent of the graph while ~n edges
 *   survive per sample);
 * - per-sample state is reset through the preorder list (O(reachable)
 *   per sample, not O(n)), and all scratch lives in one malloc per
 *   call.
 *
 * repro_reach_counts: per-sample reach counts of one seed set, the
 * pooled spread estimator's traversal, with the same row lookup.
 *
 * repro_coin_counts / repro_coin_fill: the sample pool's live-edge
 * draw, in two passes over the same coins so the caller can size one
 * output array exactly before anything is written.
 */

#include <stdint.h>
#include <stdlib.h>

/* First index in positions[lo:hi) whose value is >= key. */
static int64_t lower_bound(const int32_t *a, int64_t lo, int64_t hi,
                           int64_t key) {
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (a[mid] < key) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

/* Min-semi label on the union-find forest path from v to its root.
 * Iterative path compression, folded top-down exactly like the Python
 * evaluate(): collect the path, then each node inherits the better
 * label of its already-compressed ancestor. */
static int64_t lt_eval(int64_t v, int64_t *ancestor, int64_t *label,
                       const int64_t *semi, int64_t *path) {
    if (ancestor[v] < 0) {
        return v;
    }
    int64_t depth = 0;
    int64_t u = v;
    while (ancestor[ancestor[u]] >= 0) {
        path[depth++] = u;
        u = ancestor[u];
    }
    for (int64_t k = depth - 1; k >= 0; k--) {
        int64_t w = path[k];
        int64_t anc = ancestor[w];
        if (semi[label[anc]] < semi[label[w]]) {
            label[w] = label[anc];
        }
        ancestor[w] = ancestor[anc];
    }
    return label[v];
}

/* Build (order, sizes) dominator payloads for `batch` samples.
 *
 * indptr: base-graph CSR row pointers (n + 1 entries); a sample's
 *     surviving out-edges of vertex v are the positions p in its
 *     slice with indptr[v] <= p < indptr[v + 1].
 * edge_dst: base-graph CSR targets (one per edge position).
 * positions / offsets: the pool's flat sample arrays — sample t
 *     survives positions[offsets[t]:offsets[t+1]] (ascending int32
 *     edge positions; the offsets stay int64).
 * sample_idx: the samples to build, in output order.
 * seeds: targets of the virtual root (id n), in order.
 * blocked: byte mask over the n real vertices; edges into a blocked
 *     vertex are skipped and blocked seeds lose their root edge,
 *     exactly like sample_csr() (blocked sources are never reached).
 * out_order / out_sizes: payload arrays, written back to back; the
 *     caller sizes them at (total surviving edges of the requested
 *     samples) + batch * (1 + num_seeds), a safe bound because every
 *     non-root reachable vertex is a seed or has a surviving in-edge.
 * out_lengths[i]: payload length of sample sample_idx[i].
 *
 * Returns the total payload length, or -1 when scratch allocation
 * fails.
 */
int64_t repro_build_trees(
    int64_t n,
    const int64_t *indptr,
    const int64_t *edge_dst,
    const int32_t *positions,
    const int64_t *offsets,
    const int64_t *sample_idx,
    int64_t batch,
    const int64_t *seeds,
    int64_t num_seeds,
    const uint8_t *blocked,
    int64_t *out_order,
    int64_t *out_sizes,
    int64_t *out_lengths) {
    if (batch <= 0) {
        return 0;
    }
    int64_t max_edges = 0;
    for (int64_t i = 0; i < batch; i++) {
        int64_t t = sample_idx[i];
        int64_t count = offsets[t + 1] - offsets[t];
        if (count > max_edges) {
            max_edges = count;
        }
    }

    const int64_t nv = n + 1; /* real vertices plus the virtual root */
    /* one vertex-indexed array (dfn), 16 preorder-indexed arrays
     * (nv + 1 each for safety), predecessor data. */
    int64_t words = nv + 16 * (nv + 1) + (max_edges + num_seeds);
    int64_t *scratch = (int64_t *)malloc((size_t)words * sizeof(int64_t));
    if (scratch == NULL) {
        return -1;
    }
    int64_t *cursor_ptr = scratch;
    int64_t *dfn = cursor_ptr;        cursor_ptr += nv;
    int64_t *order = cursor_ptr;      cursor_ptr += nv + 1;
    int64_t *parent = cursor_ptr;     cursor_ptr += nv + 1;
    int64_t *row_lo = cursor_ptr;     cursor_ptr += nv + 1;
    int64_t *row_hi = cursor_ptr;     cursor_ptr += nv + 1;
    int64_t *semi = cursor_ptr;       cursor_ptr += nv + 1;
    int64_t *idom = cursor_ptr;       cursor_ptr += nv + 1;
    int64_t *ancestor = cursor_ptr;   cursor_ptr += nv + 1;
    int64_t *label = cursor_ptr;      cursor_ptr += nv + 1;
    int64_t *bkt_head = cursor_ptr;   cursor_ptr += nv + 1;
    int64_t *bkt_tail = cursor_ptr;   cursor_ptr += nv + 1;
    int64_t *bkt_next = cursor_ptr;   cursor_ptr += nv + 1;
    int64_t *path = cursor_ptr;       cursor_ptr += nv + 1;
    int64_t *stack_num = cursor_ptr;  cursor_ptr += nv + 1;
    int64_t *stack_cur = cursor_ptr;  cursor_ptr += nv + 1;
    int64_t *stack_end = cursor_ptr;  cursor_ptr += nv + 1;
    int64_t *pred_ptr = cursor_ptr;   cursor_ptr += nv + 1;
    int64_t *pred_dat = cursor_ptr;

    for (int64_t v = 0; v < nv; v++) {
        dfn[v] = -1;
    }

    /* The root's successor list is the blocked-filtered seed list,
     * shared by every sample in the batch. */
    int64_t *live_seeds = path; /* borrowed: path is unused until LT */
    int64_t num_live_seeds = 0;
    for (int64_t k = 0; k < num_seeds; k++) {
        if (!blocked[seeds[k]]) {
            live_seeds[num_live_seeds++] = seeds[k];
        }
    }
    int64_t *seed_copy =
        (int64_t *)malloc((size_t)(num_live_seeds + 1) * sizeof(int64_t));
    if (seed_copy == NULL) {
        free(scratch);
        return -1;
    }
    for (int64_t k = 0; k < num_live_seeds; k++) {
        seed_copy[k] = live_seeds[k];
    }
    live_seeds = seed_copy;

    int64_t out_pos = 0;
    for (int64_t i = 0; i < batch; i++) {
        int64_t t = sample_idx[i];
        int64_t slice_lo = offsets[t];
        int64_t slice_hi = offsets[t + 1];

        /* --- step 1: iterative DFS from the virtual root; vertex
         * rows are located lazily by binary search on the sample's
         * position slice --- */
        int64_t size = 1;
        dfn[n] = 0;
        order[0] = n;
        parent[0] = 0;
        row_lo[0] = 0;
        row_hi[0] = num_live_seeds;
        int64_t depth = 0;
        stack_num[0] = 0;
        stack_cur[0] = 0;
        stack_end[0] = num_live_seeds;
        while (depth >= 0) {
            int64_t u_num = stack_num[depth];
            int64_t j = stack_cur[depth];
            int64_t end = stack_end[depth];
            int advanced = 0;
            while (j < end) {
                int64_t v = (u_num == 0)
                    ? live_seeds[j]
                    : edge_dst[positions[j]];
                j++;
                if (blocked[v] || dfn[v] >= 0) {
                    continue;
                }
                int64_t v_num = size++;
                dfn[v] = v_num;
                order[v_num] = v;
                parent[v_num] = u_num;
                int64_t lo = lower_bound(
                    positions, slice_lo, slice_hi, indptr[v]);
                int64_t hi = lower_bound(
                    positions, lo, slice_hi, indptr[v + 1]);
                row_lo[v_num] = lo;
                row_hi[v_num] = hi;
                stack_cur[depth] = j;
                depth++;
                stack_num[depth] = v_num;
                stack_cur[depth] = lo;
                stack_end[depth] = hi;
                advanced = 1;
                break;
            }
            if (!advanced) {
                depth--;
            }
        }

        /* --- predecessor lists in preorder numbering, CSR form;
         * fill order matches the Python append order (preorder-major,
         * edge-position order within a row) --- */
        for (int64_t w = 0; w <= size; w++) {
            pred_ptr[w] = 0;
        }
        for (int64_t u_num = 0; u_num < size; u_num++) {
            for (int64_t j = row_lo[u_num]; j < row_hi[u_num]; j++) {
                int64_t d = (u_num == 0)
                    ? live_seeds[j]
                    : edge_dst[positions[j]];
                if (!blocked[d]) {
                    pred_ptr[dfn[d] + 1]++;
                }
            }
        }
        for (int64_t w = 0; w < size; w++) {
            pred_ptr[w + 1] += pred_ptr[w];
        }
        /* second pass fills using pred_ptr[w] as a running cursor;
         * the prefix is restored by shifting back afterwards. */
        for (int64_t u_num = 0; u_num < size; u_num++) {
            for (int64_t j = row_lo[u_num]; j < row_hi[u_num]; j++) {
                int64_t d = (u_num == 0)
                    ? live_seeds[j]
                    : edge_dst[positions[j]];
                if (!blocked[d]) {
                    pred_dat[pred_ptr[dfn[d]]++] = u_num;
                }
            }
        }
        for (int64_t w = size; w > 0; w--) {
            pred_ptr[w] = pred_ptr[w - 1];
        }
        pred_ptr[0] = 0;

        /* --- steps 2/3: semidominators + implicit idoms --- */
        for (int64_t w = 0; w < size; w++) {
            semi[w] = w;
            idom[w] = 0;
            ancestor[w] = -1;
            label[w] = w;
            bkt_head[w] = -1;
        }
        for (int64_t w = size - 1; w >= 1; w--) {
            for (int64_t j = pred_ptr[w]; j < pred_ptr[w + 1]; j++) {
                int64_t u = lt_eval(pred_dat[j], ancestor, label, semi, path);
                if (semi[u] < semi[w]) {
                    semi[w] = semi[u];
                }
            }
            /* FIFO bucket append, matching Python's list order */
            int64_t b = semi[w];
            if (bkt_head[b] < 0) {
                bkt_head[b] = w;
            } else {
                bkt_next[bkt_tail[b]] = w;
            }
            bkt_tail[b] = w;
            bkt_next[w] = -1;
            int64_t p = parent[w];
            ancestor[w] = p; /* link(p, w) */
            for (int64_t v = bkt_head[p]; v >= 0; v = bkt_next[v]) {
                int64_t u = lt_eval(v, ancestor, label, semi, path);
                idom[v] = (semi[u] < semi[v]) ? u : p;
            }
            bkt_head[p] = -1;
        }

        /* --- step 4: explicit idoms, then subtree sizes --- */
        for (int64_t w = 1; w < size; w++) {
            if (idom[w] != semi[w]) {
                idom[w] = idom[idom[w]];
            }
        }
        int64_t *sizes_out = out_sizes + out_pos;
        int64_t *order_out = out_order + out_pos;
        for (int64_t w = 0; w < size; w++) {
            order_out[w] = order[w];
            sizes_out[w] = 1;
        }
        for (int64_t w = size - 1; w >= 1; w--) {
            sizes_out[idom[w]] += sizes_out[w];
        }
        out_lengths[i] = size;
        out_pos += size;

        /* --- O(reachable) reset for the next sample --- */
        for (int64_t w = 0; w < size; w++) {
            dfn[order[w]] = -1;
        }
    }

    free(live_seeds);
    free(scratch);
    return out_pos;
}

/* Reach counts of one seed set over the pool's first `rounds` samples.
 *
 * The native form of the aliveness-matrix traversal in
 * repro/engine/kernels.py::reach_counts_from_alive: per sample t it
 * runs a DFS from the unblocked seeds over the surviving edges
 * positions[offsets[t]:offsets[t+1]] (ascending) and counts every
 * vertex reached, seeds included, duplicates once.  Reach counts do
 * not depend on visiting order, so this DFS counts exactly what the
 * fallback's level-synchronous BFS counts.
 *
 * A vertex's surviving out-edges are found as in repro_build_trees:
 * lower_bound for indptr[u] on the sample's slice, then a forward
 * scan while positions stay below indptr[u + 1].  No per-sample
 * aliveness row exists, so work per sample scales with the reached
 * subgraph.  Visited marks are stamped with the sample id (t + 1, 0
 * meaning never), so samples need no reset pass.
 *
 * blocked: byte mask over the n vertices; blocked vertices are never
 *     entered, blocked seeds included (callers reject those first).
 * out_counts[t]: reached-vertex count of sample t, for t < rounds.
 *
 * Returns 0, or -1 when scratch allocation fails.
 */
int64_t repro_reach_counts(
    int64_t n,
    const int64_t *indptr,
    const int64_t *edge_dst,
    const int32_t *positions,
    const int64_t *offsets,
    int64_t rounds,
    const int64_t *seeds,
    int64_t num_seeds,
    const uint8_t *blocked,
    int64_t *out_counts) {
    if (rounds <= 0) {
        return 0;
    }
    /* mark[n] plus a DFS stack[n]: a vertex is pushed at most once
     * per sample */
    int64_t *scratch =
        (int64_t *)malloc((size_t)(2 * n + 1) * sizeof(int64_t));
    if (scratch == NULL) {
        return -1;
    }
    int64_t *mark = scratch;
    int64_t *stack = scratch + n;
    for (int64_t v = 0; v < n; v++) {
        mark[v] = 0;
    }
    for (int64_t t = 0; t < rounds; t++) {
        const int64_t stamp = t + 1;
        const int64_t slice_lo = offsets[t];
        const int64_t slice_hi = offsets[t + 1];
        int64_t top = 0;
        int64_t count = 0;
        for (int64_t k = 0; k < num_seeds; k++) {
            int64_t s = seeds[k];
            if (!blocked[s] && mark[s] != stamp) {
                mark[s] = stamp;
                stack[top++] = s;
                count++;
            }
        }
        while (top > 0) {
            int64_t u = stack[--top];
            int64_t row_end = indptr[u + 1];
            for (int64_t j = lower_bound(positions, slice_lo, slice_hi,
                                         indptr[u]);
                 j < slice_hi && positions[j] < row_end; j++) {
                int64_t v = edge_dst[positions[j]];
                if (!blocked[v] && mark[v] != stamp) {
                    mark[v] = stamp;
                    stack[top++] = v;
                    count++;
                }
            }
        }
        out_counts[t] = count;
    }
    free(scratch);
    return 0;
}

/* The keyed coin stream of repro/engine/pool.py: edge j survives in
 * sample t iff mix64(keys[j] + (t + 1) * GOLDEN) < thr[j], or sure[j].
 * mix64 is the splitmix64 finalizer (pool.py::_mix64); the constants
 * must match pool.py's _GOLDEN, _MIX_A and _MIX_B.  Unsigned overflow
 * wraps mod 2^64, exactly like numpy's uint64 arithmetic. */
#define COIN_GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t mix64(uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

/* Surviving-edge count of each sample t in [lo, hi), written to
 * out_counts[t - lo].
 *
 * keys / thr: per-edge stream keys and uint64 survival thresholds
 *     (pool.py::_edge_keys, _thresholds), m entries each.
 * sure: byte mask over the m edges that survive unconditionally.
 */
void repro_coin_counts(
    int64_t m,
    const uint64_t *keys,
    const uint64_t *thr,
    const uint8_t *sure,
    int64_t lo,
    int64_t hi,
    int64_t *out_counts) {
    for (int64_t t = lo; t < hi; t++) {
        const uint64_t step = (uint64_t)(t + 1) * COIN_GOLDEN;
        int64_t count = 0;
        for (int64_t j = 0; j < m; j++) {
            count += (mix64(keys[j] + step) < thr[j]) | sure[j];
        }
        out_counts[t - lo] = count;
    }
}

/* Surviving edge positions of each sample t in [lo, hi), ascending,
 * written to positions[offsets[t]:offsets[t + 1]].
 *
 * offsets must hold the counts repro_coin_counts returned for the same
 * inputs, so each sample's window is exactly its survivor count, and m
 * must fit int32 positions (the caller refuses larger graphs).  The
 * store is branchless: every edge is written to the next free slot and
 * the slot advances only when the edge survives.  The scan stops as
 * soon as the window is full, so no store lands past it.
 */
void repro_coin_fill(
    int64_t m,
    const uint64_t *keys,
    const uint64_t *thr,
    const uint8_t *sure,
    int64_t lo,
    int64_t hi,
    const int64_t *offsets,
    int32_t *positions) {
    for (int64_t t = lo; t < hi; t++) {
        const uint64_t step = (uint64_t)(t + 1) * COIN_GOLDEN;
        int32_t *out = positions + offsets[t];
        const int64_t need = offsets[t + 1] - offsets[t];
        int64_t k = 0;
        for (int64_t j = 0; j < m && k < need; j++) {
            out[k] = (int32_t)j;
            k += (mix64(keys[j] + step) < thr[j]) | sure[j];
        }
    }
}
