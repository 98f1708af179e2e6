"""Distributed graph kernels (connected components, PageRank) over an
edge Dataset — raw-task BSP exchanges.

The near-dup APPLY step needs per-document cluster labels.
``dedup.dedup_apply`` (dedup.py:700) folds the edge list driver-side
behind a checked ``max_edges`` limit — the right call when near-dup
detection did its job and the edge list is tiny relative to the
corpus.  This module is the unbounded-scale sibling.

Both kernels here are ITERATIVE FIXED POINTS — the one shape where the
Dataset API genuinely can't express the semantics cheaply: every round
re-visits the SAME edge partitioning, and a Dataset ``groupby`` re-pays
a full all-to-all materialization (fixed scheduling latency + block
shuffle) per round.  So the loops run as raw-task BSP supersteps
instead (the brief's sanctioned escape hatch): the directed edge table
is split ONCE by hash(src) into object-store partitions, and each
round moves only node-sized vectors between two task waves —

1. SEND: ``label[src]`` (a partition-local sorted ``searchsorted`` —
   hash(src) co-locates all of a source's out-edges with its label
   row) emitted per edge, PRE-FOLDED per destination (min for
   components, integer sum for PageRank: at most |V_p| values leave a
   partition, never |E_p|), split by hash(dst).
2. FOLD: each partition combines the incoming partials onto its node
   vector; for components the fold also reports how many labels
   strictly dropped, so convergence is exact, not heuristic (no drop
   anywhere => adjacent nodes agree => labels are per-component
   constant and equal the component minimum).
3. JUMP (components only, optional, default on): ``label <-
   label[label]`` — pointer jumping, which turns diameter-bound
   convergence into O(log diameter) for chain-shaped components; three
   small waves (dedup + request by hash(label), partition-local
   lookup, stitch) moving at most |V| values.

The driver holds only ObjectRefs plus one tiny changed-counter per
partition per round; exchange volume is O(|V|) per round with P^2
small objects (P capped at 512 by default — beyond that partitions
grow instead, keeping the object count bounded on a real cluster).
The classic reference shape is Kiveris et al., "Connected Components
in MapReduce and Beyond", SoCC'14.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .aggregate import arrow_refs


def _segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(0, np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(change)


def _empty_result():
    import ray

    return ray.data.from_arrow(pa.table({
        "node": pa.array([], pa.int64()),
        "component": pa.array([], pa.int64())}))


def _cc_build_part(*chunks):
    """Assemble one partition: edges sorted by src, sorted node vector,
    and the FUSED ROUND-0 labels label(u) = min(u, neighbors(u)) —
    partition-locally exact because hash(src) co-locates all of a
    node's out-edges.  Returns (partition, labels, node_count)."""
    half = len(chunks) // 2
    sk = np.concatenate([c[0] for c in chunks[:half]]) if half else \
        np.zeros(0, np.int64)
    sv = np.concatenate([c[1] for c in chunks[:half]]) if half else \
        np.zeros(0, np.int64)
    order = np.argsort(sk, kind="stable")
    sk, sv = sk[order], sv[order]
    nodes = np.unique(np.concatenate(list(chunks[half:]))) if half else \
        np.zeros(0, np.int64)
    labels = nodes.copy()
    starts = _segment_starts(sk)
    if len(sk):
        idx = np.searchsorted(nodes, sk[starts])
        np.minimum.at(labels, idx, np.minimum.reduceat(sv, starts))
    return (sk, sv, nodes), labels, len(nodes)


def _cc_send(part, labels: np.ndarray, n_parts: int):
    """SEND wave: label[src] per edge, pre-folded min per destination,
    split by hash(dst)."""
    sk, sv, nodes = part
    if len(sk):
        cand = labels[np.searchsorted(nodes, sk)]
        order = np.argsort(sv, kind="stable")
        dst, c = sv[order], cand[order]
        starts = _segment_starts(dst)
        dk = dst[starts]
        dc = np.minimum.reduceat(c, starts)
    else:
        dk = dc = np.zeros(0, np.int64)
    parts = _pr_split_arrays(_pr_hash(dk, n_parts), [dk, dc], n_parts)
    return parts[0] if n_parts == 1 else parts


def _cc_fold(part, labels: np.ndarray, *partials):
    """FOLD wave: min the incoming candidates onto this partition's
    labels; returns (new_labels, n_strictly_dropped) for num_returns=2
    — the counter is the round's exact convergence signal."""
    nodes = part[2]
    new = labels.copy()
    for dk, dc in partials:
        if len(dk):
            idx = np.searchsorted(nodes, dk)
            # dk unique within one partial -> plain elementwise min
            new[idx] = np.minimum(new[idx], dc)
    return new, int((new < labels).sum())


def _cc_jump_req(labels: np.ndarray, n_parts: int):
    """JUMP wave 1: the partition's DEDUPED label values, split by
    hash(label) — each is a node id whose own label row lives there."""
    uniq = np.unique(labels)
    parts = _pr_split_arrays(_pr_hash(uniq, n_parts), [uniq], n_parts)
    return [c[0] for c in parts] if n_parts > 1 else parts[0][0]


def _cc_jump_ans(part, labels: np.ndarray, *reqs):
    """JUMP wave 2: partition-local label[value] lookups, one reply
    array per requesting partition (answers align with the request)."""
    nodes = part[2]
    out = [labels[np.searchsorted(nodes, r)] for r in reqs]
    return out if len(reqs) > 1 else out[0]


def _cc_jump_apply(labels: np.ndarray, n_parts: int, *ans):
    """JUMP wave 3: stitch the replies back (recomputing the request
    split deterministically) and map every label to label[label]."""
    uniq = np.unique(labels)
    order = np.argsort(_pr_hash(uniq, n_parts), kind="stable")
    jumped = np.empty_like(uniq)
    jumped[order] = np.concatenate([np.asarray(a, np.int64) for a in ans])
    return jumped[np.searchsorted(uniq, labels)]


def _cc_emit(part, labels: np.ndarray) -> pa.Table:
    return pa.table({"node": pa.array(part[2], pa.int64()),
                     "component": pa.array(labels, pa.int64())})


def connected_components(pairs, *, a_col: str = "doc_a",
                         b_col: str = "doc_b", pointer_jump: bool = True,
                         max_rounds: int = 64,
                         num_partitions: int | None = None):
    """(node, component) for every node in ``pairs``; component = the
    minimum node id reachable from it.  ``pairs`` is a Dataset of
    undirected edges; propagation runs as the module-docstring BSP
    loop — the edge table is split once by hash(src), each round moves
    only node-sized pre-folded label vectors, and nothing edge-sized
    ever reaches the driver.  Raises if ``max_rounds`` relaxations
    don't converge (with pointer jumping that bounds component
    diameter at ~2^64)."""
    import ray

    n_edges = pairs.count()
    if n_edges == 0:
        return _empty_result()
    n_dir = 2 * n_edges
    if num_partitions:
        n_parts = int(num_partitions)
    else:
        # data-proportional, no cpu floor — same rationale as pagerank:
        # a wave over tiny partitions is pure launch overhead, big
        # graphs hit the 250k-rows band on their own
        n_parts = max(1, min(512, -(-n_dir // 250_000)))

    split_task = ray.remote(_pr_split_block).options(
        num_returns=2 * n_parts)
    build_task = ray.remote(_cc_build_part).options(num_returns=3)
    send_task = ray.remote(_cc_send)
    fold_task = ray.remote(_cc_fold).options(num_returns=2)
    req_task = ray.remote(_cc_jump_req)
    ans_task = ray.remote(_cc_jump_ans)
    apply_task = ray.remote(_cc_jump_apply)
    emit_task = ray.remote(_cc_emit)

    splits = [split_task.remote(ref, a_col, b_col, True, n_parts)
              for ref in arrow_refs(pairs)]
    parts, labels = [], []
    for p in range(n_parts):
        pref, lref, _ = build_task.remote(
            *([s[p] for s in splits] + [s[n_parts + p] for s in splits]))
        parts.append(pref)
        labels.append(lref)

    for rnd in range(max_rounds):
        if n_parts == 1:
            outs = [[send_task.remote(parts[0], labels[0], 1)]]
        else:
            outs = [send_task.options(num_returns=n_parts)
                    .remote(parts[p], labels[p], n_parts)
                    for p in range(n_parts)]
        new_labels, changed_refs = [], []
        for p in range(n_parts):
            lref, cref = fold_task.remote(
                parts[p], labels[p], *[outs[q][p] for q in range(n_parts)])
            new_labels.append(lref)
            changed_refs.append(cref)
        labels = new_labels
        if sum(ray.get(changed_refs)) == 0:
            break
        # Pointer jumping only once plain relaxation has run twice
        # without converging: shallow graphs (the near-dup norm) never
        # pay the extra waves, chains get O(log diameter) once jumping
        # kicks in.
        if pointer_jump and rnd >= 2:
            if n_parts == 1:
                reqs = [[req_task.remote(labels[0], 1)]]
                answers = [[ans_task.remote(parts[0], labels[0],
                                            reqs[0][0])]]
            else:
                reqs = [req_task.options(num_returns=n_parts)
                        .remote(labels[p], n_parts)
                        for p in range(n_parts)]
                answers = [ans_task.options(num_returns=n_parts)
                           .remote(parts[q], labels[q],
                                   *[reqs[p][q] for p in range(n_parts)])
                           for q in range(n_parts)]
            labels = [apply_task.remote(
                labels[p], n_parts,
                *[answers[q][p] for q in range(n_parts)])
                for p in range(n_parts)]
    else:
        raise ValueError(
            f"connected_components: no fixpoint after {max_rounds} "
            "rounds; raise max_rounds (or check for label cycles in a "
            "custom edge source)")

    return ray.data.from_arrow_refs(
        [emit_task.remote(parts[p], labels[p]) for p in range(n_parts)])


# ---------------------------------------------------------------------------
# PageRank — fixed-point INTEGER power iteration (SQL-replayable)
# ---------------------------------------------------------------------------

def _pr_empty():
    import ray

    return ray.data.from_arrow(pa.table({
        "node": pa.array([], pa.int64()),
        "rank_fp": pa.array([], pa.int64())}))


_PR_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _pr_hash(k: np.ndarray, n_parts: int) -> np.ndarray:
    """Deterministic multiplicative partition hash: uint64 multiply is
    wrap-defined at any id magnitude (the sample.py lesson), the >>17
    mixes high bits into the modulus."""
    h = (k.astype(np.uint64) * _PR_GOLDEN) >> np.uint64(17)
    return (h % np.uint64(n_parts)).astype(np.int64)


def _pr_split_arrays(h: np.ndarray, arrays: list, n_parts: int) -> list:
    """Split ``arrays`` (parallel) into ``n_parts`` tuples by the
    partition vector ``h`` — one stable sort, then slice views."""
    order = np.argsort(h, kind="stable")
    hs = h[order]
    bounds = np.searchsorted(hs, np.arange(n_parts + 1))
    sa = [a[order] for a in arrays]
    return [tuple(a[bounds[p]:bounds[p + 1]] for a in sa)
            for p in range(n_parts)]


def _pr_split_block(t: pa.Table, src_col: str, dst_col: str,
                    symmetric: bool, n_parts: int):
    """Per input block: directed edges split by hash(src), plus the
    block's DEDUPED node candidates split by hash(node).  Returns a
    flat list of 2*n_parts values (edges first) for num_returns.
    Empty blocks can surface with a degenerate schema in ray 2.49
    (same quirk aggregate.concat_nonempty guards), hence the guard."""
    if t.num_rows == 0 or src_col not in t.schema.names:
        z = np.zeros(0, np.int64)
        return [(z, z)] * n_parts + [z] * n_parts
    a = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
    b = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if symmetric:
        a, b = np.concatenate([a, b]), np.concatenate([b, a])
    edge_parts = _pr_split_arrays(_pr_hash(a, n_parts), [a, b], n_parts)
    # symmetric: every node appears as a source; directed: dangling
    # destinations need rank rows too, so take both endpoints
    cand = np.unique(a if symmetric else np.concatenate([a, b]))
    node_parts = _pr_split_arrays(_pr_hash(cand, n_parts), [cand], n_parts)
    return list(edge_parts) + [c[0] for c in node_parts]


def _pr_build_part(*chunks):
    """Assemble one partition: edges sorted by src with outdeg attached
    (partition-locally exact — hash(src) co-locates all of a source's
    out-edges), plus the partition's sorted node vector.  Returns
    (partition, node_count) for num_returns=2."""
    half = len(chunks) // 2
    sk = np.concatenate([c[0] for c in chunks[:half]]) if half else \
        np.zeros(0, np.int64)
    sv = np.concatenate([c[1] for c in chunks[:half]]) if half else \
        np.zeros(0, np.int64)
    order = np.argsort(sk, kind="stable")
    sk, sv = sk[order], sv[order]
    starts = _segment_starts(sk)
    counts = np.diff(np.append(starts, len(sk)))
    deg = np.repeat(counts, counts).astype(np.int64)
    nodes = np.unique(np.concatenate(list(chunks[half:]))) if half else \
        np.zeros(0, np.int64)
    return (sk, sv, deg, nodes), len(nodes)


def _pr_init_ranks(part, r0: int) -> np.ndarray:
    return np.full(len(part[3]), int(r0), np.int64)


def _pr_contrib(part, ranks: np.ndarray, n_parts: int):
    """One BSP superstep, send half: rank[src] // outdeg(src) per edge,
    PRE-FOLDED per destination (the combiner — at most |V_p| rows leave
    per partition, not |E_p|), then split by hash(dst).  Returns
    n_parts (dst, sum) pairs (the bare pair when n_parts == 1)."""
    sk, sv, deg, nodes = part
    if len(sk):
        contrib = ranks[np.searchsorted(nodes, sk)] // deg
        order = np.argsort(sv, kind="stable")
        dst, c = sv[order], contrib[order]
        starts = _segment_starts(dst)
        dk = dst[starts]
        dc = np.add.reduceat(c, starts)
    else:
        dk = dc = np.zeros(0, np.int64)
    parts = _pr_split_arrays(_pr_hash(dk, n_parts), [dk, dc], n_parts)
    return parts[0] if n_parts == 1 else parts


def _pr_fold(part, base: int, damping_pct: int, *partials) -> np.ndarray:
    """One BSP superstep, receive half: sum the per-destination partial
    contributions (int64 addition — exact in any arrival order) onto
    this partition's node vector, apply the damped recurrence.  Nodes
    with no in-edges get exactly ``base`` (the recurrence verbatim)."""
    nodes = part[3]
    s = np.zeros(len(nodes), np.int64)
    for dk, dc in partials:
        if len(dk):
            # dk is unique within one partial, so fancy-index add is exact
            s[np.searchsorted(nodes, dk)] += dc
    return int(base) + (int(damping_pct) * s) // 100


def _pr_emit(part, ranks: np.ndarray) -> pa.Table:
    return pa.table({"node": pa.array(part[3], pa.int64()),
                     "rank_fp": pa.array(ranks, pa.int64())})


def pagerank(edges, *, src_col: str = "src", dst_col: str = "dst",
             symmetric: bool = True, iters: int = 5,
             damping_pct: int = 85, scale: int = 10 ** 12,
             num_partitions: int | None = None):
    """(node, rank_fp) PageRank over an int64-keyed edge Dataset,
    computed ENTIRELY in fixed-point integers so the result is exactly
    reproducible by any engine (the DuckDB oracle unrolls the same
    recurrence; float power iteration would differ in ulps by
    summation order):

        base           = ((100 - damping_pct) * (scale // n)) // 100
        rank_0(v)      = scale // n
        contrib_k(u)   = rank_k(u) // outdeg(u)
        rank_{k+1}(v)  = base + (damping_pct * sum_{u->v} contrib_k(u)) // 100

    with ``n`` = |nodes appearing in the edge set|.  ``symmetric=True``
    mirrors every edge (undirected graph: no dangling nodes by
    construction); with ``symmetric=False`` dangling-node mass is
    simply lost each round (the recurrence above, verbatim).

    Scale shape — raw-task BSP, the one place in this package where
    the Dataset API genuinely can't express the semantics cheaply: an
    iterative fixed point re-visits the SAME edge partitioning every
    round, and a Dataset ``groupby`` re-pays a full all-to-all
    materialization (fixed latency + block shuffle) per round — at
    sf0.1 the old Dataset loop spent 8.5 of 12.7 s on exactly that.
    Here the directed edge table is split ONCE by hash(src) into
    ``num_partitions`` object-store partitions (outdeg attached
    partition-locally; plasma keeps each partition node-local after
    the first fetch), and each iteration moves only rank-vector-sized
    data: a contrib wave (rank lookup is a partition-local sorted
    searchsorted; per-destination sums PRE-FOLDED before the split by
    hash(dst) — at most |V_p| rows leave a partition, never |E_p|)
    and a fold wave.  The driver holds only ObjectRefs; exchange
    volume is O(|V|) per iteration with P^2 small objects (P capped
    at 512 by default — beyond that partitions grow instead, keeping
    the object count bounded on a real cluster).
    Overflow-safe for scale <= 10**16: ranks sum to <= scale, so any
    partial contribution sum stays < 100 * scale << 2**63.
    """
    import ray

    if iters < 0 or not (0 <= damping_pct <= 100):
        raise ValueError("pagerank: need iters >= 0, 0 <= damping_pct <= 100")
    n_edges = edges.count()
    if n_edges == 0:
        return _pr_empty()
    n_dir = n_edges * (2 if symmetric else 1)
    if num_partitions:
        n_parts = int(num_partitions)
    else:
        # data-proportional, NO cpu floor: a raw-task wave over tiny
        # partitions is pure launch overhead, and big graphs hit the
        # 250k-rows-per-partition band on their own
        n_parts = max(1, min(512, -(-n_dir // 250_000)))

    split_task = ray.remote(_pr_split_block).options(
        num_returns=2 * n_parts)
    build_task = ray.remote(_pr_build_part).options(num_returns=2)
    init_task = ray.remote(_pr_init_ranks)
    contrib_task = ray.remote(_pr_contrib)
    fold_task = ray.remote(_pr_fold)
    emit_task = ray.remote(_pr_emit)

    splits = [split_task.remote(ref, src_col, dst_col, symmetric, n_parts)
              for ref in arrow_refs(edges)]
    parts, count_refs = [], []
    for p in range(n_parts):
        pref, cref = build_task.remote(
            *([s[p] for s in splits] + [s[n_parts + p] for s in splits]))
        parts.append(pref)
        count_refs.append(cref)
    n = int(sum(ray.get(count_refs)))
    r0 = scale // n
    base = ((100 - damping_pct) * r0) // 100

    ranks = [init_task.remote(parts[p], r0) for p in range(n_parts)]
    for _ in range(iters):
        if n_parts == 1:
            outs = [[contrib_task.remote(parts[0], ranks[0], 1)]]
        else:
            outs = [contrib_task.options(num_returns=n_parts)
                    .remote(parts[p], ranks[p], n_parts)
                    for p in range(n_parts)]
        ranks = [fold_task.remote(parts[p], base, damping_pct,
                                  *[outs[q][p] for q in range(n_parts)])
                 for p in range(n_parts)]
    return ray.data.from_arrow_refs(
        [emit_task.remote(parts[p], ranks[p]) for p in range(n_parts)])
