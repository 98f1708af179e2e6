"""Mergeable sketches — distinct counts (HyperLogLog), frequent items
(Misra-Gries), set membership (Bloom) and quantiles (MRL).

Exact per-group COUNT DISTINCT (the A3b shape) ships every distinct
(group, value) pair through a shuffle once; at 100 TB the pair stream
IS the cost.  A HyperLogLog register set is a fixed ``2^HLL_P`` bytes
per group regardless of input size, merges with an elementwise ``max``
(commutative, associative, idempotent — so the estimate is independent
of partitioning, batch order and task retries), and answers within
~``1.04 / sqrt(2^HLL_P)`` relative error.  The registers are the
shuffle payload; the values never leave their batch.

Every sketch here runs on ONE fold (:func:`_fold_states`, the
mergeable-summary shape of Agarwal et al., PODS'12): a ``map_batches``
partial turns each block into a ``{group: state}`` dict (bounded: the
group domain is schema-scale, like the routed-sink / event-type shape
this package folds everywhere else), and the driver merges each
group's states in block order with the sketch's own merge —
``np.maximum`` for HLL registers, ``|`` for Bloom words, integer
addition for Misra-Gries counters, ``mrl_merge`` for MRL levels.  For
unbounded groups the same partials would feed ``window.keyed_apply``
with a partition-local merge.

Determinism: value hashing is ``pandas.util.hash_array`` (SipHash,
fixed key), the same primitive the dedup family pins; no RNG anywhere.
"""

from __future__ import annotations

import operator
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa

from .aggregate import arrow_blocks, concat_nonempty, fold_agg

HLL_P = 12                          # 2^12 registers per group
QS = (0.01, 0.25, 0.5, 0.75, 0.99)  # quantile_sketch's quantiles
GROUP_QS = (0.25, 0.5, 0.75)        # quantile_sketch_grouped's


def _fold_states(ds, partial, merge) -> dict:
    """The one sketch fold: ``partial(b)`` turns each block into a
    ``{group: state}`` dict (pickled, one row per block) and the driver
    merges each group's states in block order with ``merge``.  Zero-row
    blocks, which ray 2.49 can surface without a schema, never reach
    ``partial``."""
    def body(b: pa.Table) -> pa.Table:
        states = partial(b) if b.num_rows else {}
        return pa.table({"sk": pa.array([pickle.dumps(states)],
                                        pa.binary())})

    parts = concat_nonempty(arrow_blocks(
        ds.map_batches(body, batch_format="pyarrow")))
    merged: dict = {}
    for blob in parts["sk"].to_pylist() if parts.num_rows else ():
        for g, state in pickle.loads(blob).items():
            merged[g] = merge(merged[g], state) if g in merged else state
    return merged


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (0 -> 0): 6-step binary
    search, no float round-trip (float64 log2 is off-by-one near
    power-of-two boundaries above 2^53)."""
    w = w.copy()
    bl = np.zeros(len(w), np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        t = w >> np.uint64(shift)
        gt = t > 0
        bl[gt] += shift
        w[gt] = t[gt]
    bl += (w > 0).astype(np.int64)
    return bl


def hll_partial(values: np.ndarray, group_codes: np.ndarray,
                n_groups: int, p: int) -> np.ndarray:
    """(n_groups, 2^p) uint8 register matrix from one batch.

    ``values`` is any dtype ``pandas.util.hash_array`` accepts;
    ``group_codes`` assigns each value to a group in [0, n_groups).
    One flat ``np.maximum.at`` across all groups — no per-group loop.
    """
    m = 1 << p
    regs = np.zeros(n_groups * m, np.uint8)
    if len(values):
        h = pd.util.hash_array(values, categorize=False)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = h << np.uint64(p)  # low 64-p payload bits, left-aligned
        # rho = leading zeros of payload + 1; all-zero payload -> 64-p+1
        rho = np.where(w > 0, 64 - _bit_length_u64(w) + 1, 64 - p + 1) \
            .astype(np.uint8)
        np.maximum.at(regs, group_codes.astype(np.int64) * m + idx, rho)
    return regs.reshape(n_groups, m)


def hll_estimate(regs: np.ndarray) -> int:
    """Standard HLL estimate with the small-range (linear counting)
    correction; no large-range correction (unnecessary with a 64-bit
    hash)."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if e <= 2.5 * m and zeros:
        e = m * np.log(m / zeros)
    return int(round(e))


def hll_distinct(ds, key_col: str, value_col: str) -> pa.Table:
    """Approximate COUNT(DISTINCT value) per key — bounded key domain
    (the fold state is n_keys x 2^HLL_P bytes, O(1) in the input)."""
    def partial(b: pa.Table) -> dict:
        codes, uniq = pd.factorize(
            b[key_col].to_numpy(zero_copy_only=False))
        regs = hll_partial(b[value_col].to_numpy(zero_copy_only=False),
                           codes, len(uniq), HLL_P)
        return dict(zip(uniq, regs))

    folded = _fold_states(ds, partial, np.maximum)
    keys = sorted(folded)
    return pa.table({
        key_col: pa.array(keys, pa.string()),
        "approx_distinct": pa.array(
            [hll_estimate(folded[k]) for k in keys], pa.int64()),
    })


# ---------------------------------------------------------------- Misra-Gries


def mg_summary(values: np.ndarray, counts: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Compress exact (value, count) pairs to a Misra-Gries summary of
    at most ``k`` counters: subtract the (k+1)-th largest count from
    every counter and keep the positive ones.  Guarantee: any value
    with true count > (total seen)/(k+1) keeps a positive counter, and
    summaries MERGE by concat + re-compress (Agarwal et al., the
    mergeable-summaries result) — so the candidate set is independent
    of batch order and partitioning."""
    if len(values) <= k:
        return values, counts
    kth = np.partition(counts, len(counts) - (k + 1))[len(counts) - (k + 1)]
    keep = counts > kth
    return values[keep], counts[keep] - kth


def heavy_hitters(ds, col: str, *, k: int = 64) -> pa.Table:
    """EXACT frequent-items via a two-pass Misra-Gries sketch:
    ``(value, cnt)`` for every value whose count exceeds
    ``total // (k + 1)``, the largest threshold the sketch guarantees.

    Pass 1 folds per-batch exact counts compressed to <= k MG counters
    (the shuffle payload is k entries per block, O(1) in the batch),
    plus the block's row count under the ``None`` key (``pd.factorize``
    never yields ``None`` as a value); the merged candidate set
    provably contains every above-threshold value.  Pass 2 broadcasts
    the candidates (<= k values via ``ray.put``) and re-counts ONLY
    them exactly (bounded key domain -> per-batch partials + driver
    fold), so the reported counts are exact, not estimates.  Nothing
    unbounded ever reaches the driver."""
    import pyarrow.compute as pc

    import ray

    def partial(b: pa.Table) -> dict:
        codes, uniq = pd.factorize(b[col].to_numpy(zero_copy_only=False))
        v, c = mg_summary(uniq.astype(object),
                          np.bincount(codes).astype(np.int64), k)
        return {None: b.num_rows, **dict(zip(v, c.tolist()))}

    merged = _fold_states(ds, partial, operator.add)
    total = merged.pop(None, 0)
    cand_v, _ = mg_summary(np.asarray(list(merged), dtype=object),
                           np.asarray(list(merged.values()), np.int64), k)
    if len(cand_v) == 0:
        return pa.table({col: pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    ref = ray.put(pa.array(sorted(cand_v), pa.string()))

    def candidates(b: pa.Table) -> pa.Table:
        vals = pc.cast(b[col], pa.string())
        return pa.table({"v": vals}).filter(
            pc.is_in(vals, value_set=ray.get(ref)))

    exact = fold_agg(ds, ["v"], {"cnt": ([], "count_all")}, candidates,
                     empty_schema=pa.schema([("v", pa.string()),
                                             ("cnt", pa.int64())]))
    return exact.filter(pc.greater(exact["cnt"], total // (k + 1))) \
        .rename_columns([col, "cnt"])


# -------------------------------------------------------------------- Bloom


def _bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via double hashing: pos_i = (h1 + i*h2)
    mod m.  ``h`` is uint64; h2 forced odd so the probe sequence walks
    the whole (power-of-two) table."""
    h = h.astype(np.uint64, copy=False)
    m = np.uint64(m_bits)
    h1 = h % m
    h2 = ((h >> np.uint64(32)) | np.uint64(1)) % m
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % m).astype(np.int64)


def bloom_words(hashes: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """uint64 word array (m_bits/64 words) with the k probe bits of
    every hash set — one vectorized ``bitwise_or.at``, no loop over
    values.  Mergeable by elementwise OR (commutative, associative,
    idempotent: partitioning/retry independent, like HLL registers)."""
    words = np.zeros(m_bits // 64, np.uint64)
    if len(hashes):
        pos = _bloom_positions(hashes, m_bits, k).ravel()
        np.bitwise_or.at(words, pos >> 6,
                         np.uint64(1) << (pos.astype(np.uint64)
                                          & np.uint64(63)))
    return words


def bloom_probe(hashes: np.ndarray, words: np.ndarray, m_bits: int,
                k: int) -> np.ndarray:
    """Bool mask: True where ALL k probe bits are set (possible
    member; false positives at the configured rate, NEVER false
    negatives)."""
    if len(hashes) == 0:
        return np.zeros(0, bool)
    pos = _bloom_positions(hashes, m_bits, k)
    bits = (words[pos >> 6] >> (pos.astype(np.uint64) & np.uint64(63))) \
        & np.uint64(1)
    return bits.all(axis=1)


def bloom_from_dataset(ds, col: str, *, m_bits: int,
                       k: int = 6) -> np.ndarray:
    """Distributed Bloom build over an int64 hash column: per-batch
    word-array partials (a fixed ``m_bits/8`` bytes each, O(1) in the
    batch) OR-folded driver-side — the same mergeable-sketch fold as
    the HLL registers.  ``m_bits`` must be a power of two."""
    if m_bits & (m_bits - 1):
        raise ValueError(f"m_bits {m_bits} must be a power of two")

    def partial(b: pa.Table) -> dict:
        h = b[col].to_numpy(zero_copy_only=False).astype(np.uint64)
        return {0: bloom_words(h, m_bits, k)}

    return _fold_states(ds, partial, np.bitwise_or).get(
        0, np.zeros(m_bits // 64, np.uint64))


# --------------------------------------------- deterministic quantile sketch

def mrl_collapse(buf: np.ndarray):
    """One MRL collapse: sort, keep every other element starting at a
    FIXED offset (deterministic — the classic Munro-Paterson /
    Manku-Rajagopalan-Lindsay compaction; randomizing the offset gives
    KLL's tighter constants, but a fixed offset keeps the whole sketch
    reproducible run-to-run).  Odd-length buffers leave one element
    behind at the current level so total weight is EXACTLY preserved.
    Returns (promoted, leftover)."""
    s = np.sort(buf, kind="stable")
    if len(s) % 2:
        return s[1:][1::2], s[:1]
    return s[1::2], s[:0]


def mrl_build(values: np.ndarray, k: int = 256) -> list:
    """Level-array sketch of ``values``: entries at level i carry
    weight 2^i; any level holding >= 2k entries collapses into the
    next.  Deterministic rank error per level <= weight/2, so the
    total rank error is O(N log(N/k) / k) — the classic bound."""
    levels: list[np.ndarray] = [np.asarray(values, np.int64)]
    return _mrl_compact(levels, k)


def _mrl_compact(levels: list, k: int) -> list:
    i = 0
    while i < len(levels):
        while len(levels[i]) >= 2 * k:
            promoted, leftover = mrl_collapse(levels[i])
            levels[i] = leftover
            if i + 1 == len(levels):
                levels.append(np.zeros(0, np.int64))
            levels[i + 1] = np.concatenate([levels[i + 1], promoted])
        i += 1
    return levels


def mrl_merge(a: list, b: list, k: int = 256) -> list:
    """Merge two level-array sketches (same-level concat + re-collapse)
    — the mergeability that makes the sketch a per-block partial."""
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        av = a[i] if i < len(a) else np.zeros(0, np.int64)
        bv = b[i] if i < len(b) else np.zeros(0, np.int64)
        out.append(np.concatenate([av, bv]))
    return _mrl_compact(out, k)


def mrl_quantile(levels: list, q: float) -> int:
    """Weighted-rank quantile from a level-array sketch."""
    vals = np.concatenate([lv for lv in levels if len(lv)]) \
        if any(len(lv) for lv in levels) else np.zeros(0, np.int64)
    if not len(vals):
        raise ValueError("mrl_quantile: empty sketch")
    wts = np.concatenate([
        np.full(len(lv), 1 << i, np.int64)
        for i, lv in enumerate(levels) if len(lv)])
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    cum = np.cumsum(wts)
    target = q * cum[-1]
    return int(vals[np.searchsorted(cum, target, side="left")])


def _mrl_fold(ds, group_col: str | None, col: str, k: int) -> dict:
    """{group: MRL sketch of ``col``}: per-block ``mrl_build`` partials
    per group, merged in the fixed block order (so repeated runs
    produce identical sketches); ``group_col`` None is one group, 0."""
    def partial(b: pa.Table) -> dict:
        v = pd.Series(b[col].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        g = b[group_col].to_pandas() if group_col else np.zeros(len(v), int)
        return {key: mrl_build(sub.to_numpy(), k)
                for key, sub in v.groupby(g, sort=False)}

    return _fold_states(ds, partial, lambda a, b: mrl_merge(a, b, k))


def quantile_sketch(ds, col: str, *, k: int = 256) -> pa.Table:
    """APPROXIMATE ``QS`` quantiles via a mergeable deterministic MRL
    sketch — the sketch-family sibling of hll_distinct (distinct) and
    heavy_hitters (frequency), and :func:`quantile_sketch_grouped` over
    one group: per-block ``mrl_build`` partials (a few KiB each
    regardless of block size) merged driver-side, so at 100 TB the
    exact sort/shuffle of e_value_quantiles is replaced by an
    O(blocks x k log(N/k)) fold.  Rank error is deterministic (no
    failure probability); the bound is pytest-pinned against the exact
    quantiles.  Returns a pa.Table (q, value)."""
    sketch = _mrl_fold(ds, None, col, k).get(0)
    qs = QS if sketch else ()
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "value": pa.array([mrl_quantile(sketch, q) for q in qs],
                          pa.int64()),
    })


def quantile_sketch_grouped(ds, group_col: str, col: str, *,
                            k: int = 256) -> pa.Table:
    """Per-GROUP approximate ``GROUP_QS`` quantiles via the MRL sketch —
    grouped percentiles without the exact per-group sort/shuffle: each
    block contributes one {group: levels} partial (bounded: groups x k
    entries), merged per group.  Bounded-key doctrine (group domain is
    schema-scale, like interval_counts' sink x level; its values are
    strings).  Returns a pa.Table (group, q, value) sorted by (group,
    q)."""
    merged = _mrl_fold(ds, group_col, col, k)
    keys = sorted(merged)
    return pa.table({
        group_col: pa.array([g for g in keys for _ in GROUP_QS],
                            pa.string()),
        "q": pa.array(list(GROUP_QS) * len(keys), pa.float64()),
        "value": pa.array([mrl_quantile(merged[g], q)
                           for g in keys for q in GROUP_QS], pa.int64()),
    })
