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
shuffle) per round.  So both run as raw-task BSP supersteps instead
(the brief's sanctioned escape hatch), on one mechanism: the edge
table, mirrored (the graph is undirected), is split ONCE by hash(src)
into object-store partitions (:func:`_partitioned`), and each round
moves only node-sized vectors between two task waves —

1. SEND (:func:`_send`): the source's value per edge (a
   partition-local sorted ``searchsorted`` — hash(src) co-locates all
   of a source's out-edges with its row), PRE-FOLDED per destination
   (``np.minimum`` for components, integer ``np.add`` for PageRank: at
   most |V_p| values leave a partition, never |E_p|), split by
   hash(dst).
2. FOLD (:func:`_fold`): each partition combines the incoming partials
   onto its node vector and reports how many values changed; for
   components that count is the exact convergence signal (no label
   dropped anywhere => adjacent nodes agree => labels are
   per-component constant and equal the component minimum).

Components add a JUMP (:func:`_jump`) once plain relaxation has run
three rounds without converging: ``label <- label[label]``, pointer
jumping, which turns diameter-bound convergence into O(log diameter)
for chain-shaped components; three small waves (dedup + request by
hash(label), partition-local lookup, stitch) moving at most |V|
values.

The driver holds only ObjectRefs plus one tiny changed-counter per
partition per round; exchange volume is O(|V|) per round with P^2
small objects: one partition per ``PART_ROWS`` directed edges, at most
``MAX_PARTS`` (beyond that partitions grow instead, keeping the object
count bounded on a real cluster).  The classic reference shape is
Kiveris et al., "Connected Components in MapReduce and Beyond",
SoCC'14.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from .aggregate import arrow_refs

PART_ROWS = 250_000   # directed edges per partition
MAX_PARTS = 512
MAX_ROUNDS = 64       # components: relaxation rounds before raising
ITERS = 5             # PageRank: power iterations ...
DAMPING_PCT = 85      # ... damping in percent ...
SCALE = 10 ** 12      # ... and total rank mass (fixed point)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(0, np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(change)


def _hash(k: np.ndarray, n_parts: int) -> np.ndarray:
    """Deterministic multiplicative partition hash: uint64 multiply is
    wrap-defined at any id magnitude (the sample.py lesson), the >>17
    mixes high bits into the modulus."""
    h = (k.astype(np.uint64) * _GOLDEN) >> np.uint64(17)
    return (h % np.uint64(n_parts)).astype(np.int64)


def _split(arrays: list, n_parts: int) -> list:
    """Split parallel ``arrays`` into ``n_parts`` tuples by the hash of
    the first — one stable sort, then slice views."""
    h = _hash(arrays[0], n_parts)
    order = np.argsort(h, kind="stable")
    bounds = np.searchsorted(h[order], np.arange(n_parts + 1))
    sa = [a[order] for a in arrays]
    return [tuple(a[bounds[p]:bounds[p + 1]] for a in sa)
            for p in range(n_parts)]


def _returns(fn, n: int, *args):
    """Task body: ``fn``'s list of ``n`` results in Ray's return shape,
    which is the bare value for ``num_returns=1``."""
    out = fn(*args)
    return out[0] if n == 1 else out


@functools.cache
def _task():
    import ray

    return ray.remote(_returns)


def _submit(fn, n: int, *args) -> list:
    """``fn(*args)`` as one task with ``n`` returns, answered as a list
    of ``n`` refs at every ``n`` (Ray hands ``num_returns=1`` back as a
    bare ref).  Every wave kernel returns the list of its results."""
    refs = _task().options(num_returns=n).remote(fn, n, *args)
    return [refs] if n == 1 else refs


def _split_block(t: pa.Table, cols: tuple, n_parts: int) -> list:
    """Per input block: both directions of every edge split by
    hash(src), plus the block's DEDUPED nodes split by hash(node) — 2 *
    ``n_parts`` values, edges first.  Empty blocks can surface with a
    degenerate schema in ray 2.49 (same quirk
    aggregate.concat_nonempty guards), hence the guard."""
    if t.num_rows == 0:
        z = np.zeros(0, np.int64)
        return [(z, z)] * n_parts + [z] * n_parts
    a, b = (t[c].to_numpy(zero_copy_only=False).astype(np.int64)
            for c in cols)
    a, b = np.concatenate([a, b]), np.concatenate([b, a])
    nodes = np.unique(a)
    return _split([a, b], n_parts) + [c[0] for c in
                                      _split([nodes], n_parts)]


def _build(*chunks) -> list:
    """Assemble one partition from every block's split: the edges
    sorted by src, the partition's sorted node ids and each node's
    out-degree (partition-locally exact: hash(src) co-locates a node's
    out-edges, and every node is a source of the mirrored table).
    Returns [partition, node ids, node count]."""
    half = len(chunks) // 2
    sk = np.concatenate([c[0] for c in chunks[:half]])
    sv = np.concatenate([c[1] for c in chunks[:half]])
    order = np.argsort(sk, kind="stable")
    sk, sv = sk[order], sv[order]
    nodes = np.unique(np.concatenate(chunks[half:]))
    deg = np.diff(np.append(_segment_starts(sk), len(sk)))
    return [(sk, sv, nodes, deg), nodes, len(nodes)]


def _send(part, state: np.ndarray, op, n_parts: int) -> list:
    """SEND wave: per edge the source's value — its label for
    components (``op`` is ``np.minimum``), rank // outdeg for PageRank
    (``np.add``) — pre-folded per destination by ``op``, split by
    hash(dst)."""
    sk, sv, nodes, deg = part
    i = np.searchsorted(nodes, sk)
    value = state[i] if op is np.minimum else state[i] // deg[i]
    order = np.argsort(sv, kind="stable")
    dst = sv[order]
    starts = _segment_starts(dst)
    return _split([dst[starts], op.reduceat(value[order], starts)],
                  n_parts)


def _fold(part, state: np.ndarray, op, base, *partials) -> list:
    """FOLD wave: combine the incoming partials onto this partition's
    node vector — components min them onto the labels; PageRank sums
    them (int64 addition, exact in any arrival order) and applies the
    damped recurrence, so nodes with no in-edges get exactly ``base``.
    Returns [new state, count of nodes whose value changed]."""
    nodes = part[2]
    acc = state.copy() if op is np.minimum else np.zeros_like(state)
    for dk, dc in partials:
        i = np.searchsorted(nodes, dk)  # dk is unique within a partial
        acc[i] = op(acc[i], dc)
    new = acc if op is np.minimum else base + (DAMPING_PCT * acc) // 100
    return [new, int((new != state).sum())]


def _jump_req(labels: np.ndarray, n_parts: int) -> list:
    """JUMP wave 1: the partition's DEDUPED label values, split by
    hash(label) — each is a node id whose own label row lives there."""
    return [c[0] for c in _split([np.unique(labels)], n_parts)]


def _jump_ans(part, labels: np.ndarray, *reqs) -> list:
    """JUMP wave 2: partition-local label[value] lookups, one reply
    array per requesting partition (answers align with the request)."""
    return [labels[np.searchsorted(part[2], r)] for r in reqs]


def _jump_apply(labels: np.ndarray, n_parts: int, *ans) -> list:
    """JUMP wave 3: stitch the replies back (recomputing the request
    split deterministically) and map every label to label[label]."""
    uniq = np.unique(labels)
    order = np.argsort(_hash(uniq, n_parts), kind="stable")
    jumped = np.empty_like(uniq)
    jumped[order] = np.concatenate([np.asarray(a, np.int64) for a in ans])
    return [jumped[np.searchsorted(uniq, labels)]]


def _emit(part, state: np.ndarray, col: str) -> list:
    return [pa.table({"node": pa.array(part[2], pa.int64()),
                      col: pa.array(state, pa.int64())})]


def _partitioned(edges, cols: tuple, col: str, run):
    """The one BSP frame: split ``edges`` once into partitions (one
    per ``PART_ROWS`` directed edges, at most ``MAX_PARTS``), let
    ``run(parts, nodes, counts)`` — per partition: partition, node ids
    and node count refs — iterate to its per-partition state refs, and
    answer (node, ``col``).  An edge-less input answers the typed empty
    table."""
    import ray

    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()), col: pa.array([], pa.int64())}))
    n_parts = min(MAX_PARTS, -(-2 * n_edges // PART_ROWS))
    splits = [_submit(_split_block, 2 * n_parts, ref, cols, n_parts)
              for ref in arrow_refs(edges)]
    parts, nodes, counts = zip(*[
        _submit(_build, 3, *[s[p] for s in splits],
                *[s[n_parts + p] for s in splits])
        for p in range(n_parts)])
    state = run(parts, nodes, counts)
    return ray.data.from_arrow_refs(
        [_submit(_emit, 1, p, s, col)[0] for p, s in zip(parts, state)])


def _superstep(parts, state: list, op, base) -> tuple[list, list]:
    """One SEND + FOLD round: (new state refs, changed-count refs)."""
    n_parts = len(parts)
    outs = [_submit(_send, n_parts, p, s, op, n_parts)
            for p, s in zip(parts, state)]
    folded = [_submit(_fold, 2, parts[p], state[p], op, base,
                      *[out[p] for out in outs])
              for p in range(n_parts)]
    return [f[0] for f in folded], [f[1] for f in folded]


def _jump(parts, labels: list) -> list:
    """One pointer-jumping step ``label <- label[label]`` (three
    waves, see the module docstring)."""
    n_parts = len(parts)
    reqs = [_submit(_jump_req, n_parts, lab, n_parts) for lab in labels]
    answers = [_submit(_jump_ans, n_parts, parts[q], labels[q],
                       *[req[q] for req in reqs])
               for q in range(n_parts)]
    return [_submit(_jump_apply, 1, labels[p], n_parts,
                    *[ans[p] for ans in answers])[0]
            for p in range(n_parts)]


def connected_components(pairs):
    """(node, component) for every node in ``pairs`` (undirected
    ``doc_a``/``doc_b`` edges); component = the minimum node id
    reachable from it.  Propagation runs as the module-docstring BSP
    loop from every node labelled with its own id — each round moves
    only node-sized pre-folded label vectors, and nothing edge-sized
    ever reaches the driver.  Raises if ``MAX_ROUNDS`` relaxations
    don't converge (with pointer jumping that bounds component
    diameter at ~2^64)."""
    import ray

    def run(parts, labels, _counts):
        for rnd in range(MAX_ROUNDS):
            labels, changed = _superstep(parts, labels, np.minimum, None)
            if sum(ray.get(changed)) == 0:
                return labels
            # Pointer jumping only once plain relaxation has run three
            # rounds without converging: shallow graphs (the near-dup
            # norm) never pay the extra waves, chains get O(log
            # diameter) once jumping kicks in.
            if rnd >= 2:
                labels = _jump(parts, labels)
        raise ValueError(
            f"connected_components: no fixpoint after {MAX_ROUNDS} "
            "rounds; raise MAX_ROUNDS (or check for label cycles in a "
            "custom edge source)")

    return _partitioned(pairs, ("doc_a", "doc_b"), "component", run)


# ---------------------------------------------------------------------------
# PageRank — fixed-point INTEGER power iteration (SQL-replayable)
# ---------------------------------------------------------------------------

def _fill(nodes: np.ndarray, value: int) -> list:
    return [np.full(len(nodes), value, np.int64)]


def pagerank(edges):
    """(node, rank_fp) PageRank over an undirected int64 ``src``/``dst``
    edge Dataset (every edge mirrored: no dangling nodes by
    construction), computed ENTIRELY in fixed-point integers so the
    result is exactly reproducible by any engine (the DuckDB oracle
    unrolls the same recurrence; float power iteration would differ in
    ulps by summation order):

        base           = ((100 - DAMPING_PCT) * (SCALE // n)) // 100
        rank_0(v)      = SCALE // n
        contrib_k(u)   = rank_k(u) // outdeg(u)
        rank_{k+1}(v)  = base + (DAMPING_PCT * sum_{u->v} contrib_k(u)) // 100

    for ``ITERS`` iterations, with ``n`` = |nodes appearing in the edge
    set|.

    Scale shape — the module-docstring BSP loop, the one place in this
    package where the Dataset API genuinely can't express the
    semantics cheaply: an iterative fixed point re-visits the SAME edge
    partitioning every round, and a Dataset ``groupby`` re-pays a full
    all-to-all materialization (fixed latency + block shuffle) per
    round — at sf0.1 the old Dataset loop spent 8.5 of 12.7 s on
    exactly that.  Here outdeg is attached partition-locally (plasma
    keeps each partition node-local after the first fetch), and each
    iteration moves only rank-vector-sized data: a send wave of
    per-destination contribution sums and a fold wave.
    Overflow-safe for SCALE <= 10**16: ranks sum to <= SCALE, so any
    partial contribution sum stays < 100 * SCALE << 2**63.
    """
    import ray

    def run(parts, nodes, counts):
        r0 = SCALE // int(sum(ray.get(list(counts))))
        base = ((100 - DAMPING_PCT) * r0) // 100
        ranks = [_submit(_fill, 1, v, r0)[0] for v in nodes]
        for _ in range(ITERS):
            ranks, _ = _superstep(parts, ranks, np.add, base)
        return ranks

    return _partitioned(edges, ("src", "dst"), "rank_fp", run)
