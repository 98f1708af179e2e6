"""Distributed ordered scan (global prefix sum) — the sequence-packing
primitive.

Ray Data has maps, shuffles and folds but no SCAN: "give every row the
running total of ``val_col`` over ``order_col`` order".  Training-data
pipelines need it for sequence packing (assign each document a pack id
from the running token count against a fixed budget), global offsets,
and resumable byte layouts.

Shape (no shuffle, no global sort): the input is required to be
BLOCK-ORDERED on ``order_col`` — blocks cover disjoint key ranges, rows
inside a block may be unsorted (Parquet shards written by any ordered
producer satisfy this; the operator VALIDATES it and raises otherwise).

1. materialize the (order, val) projection once so both passes see the
   same immutable blocks;
2. pass 1: per-block (min, max, sum) partials -> driver sorts by min,
   checks ranges are disjoint, prefix-sums the block totals;
3. pass 2: each block sorts locally, adds its driver-computed offset to
   a local cumsum.

Driver state is 3 numbers per block — O(blocks), not O(rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import arrow_blocks, concat_nonempty


def ordered_prefix_sum(ds, val_col: str, order_col: str, *,
                       out_col: str = "prefix", exclusive: bool = True):
    """Add ``out_col`` = running sum of ``val_col`` over global
    ``order_col`` order (exclusive by default: the sum of all STRICTLY
    EARLIER rows).  Input must be block-ordered on ``order_col``
    (checked).  Project ``ds`` down to the needed columns first — the
    projection is materialized once."""
    import ray

    slim = ds.materialize()

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"bmin": pa.array([], pa.int64()),
                             "bmax": pa.array([], pa.int64()),
                             "bsum": pa.array([], pa.int64())})
        keys = b[order_col].to_numpy(zero_copy_only=False)
        vals = b[val_col].to_numpy(zero_copy_only=False)
        return pa.table({"bmin": [int(keys.min())],
                         "bmax": [int(keys.max())],
                         "bsum": [int(vals.sum())]})

    parts = concat_nonempty(arrow_blocks(
        slim.map_batches(partial, batch_format="pyarrow",
                         batch_size=None)))
    if parts.num_rows == 0 or parts.num_columns == 0:
        # all blocks empty: keep the declared schema (out_col present)
        return slim.map_batches(
            lambda b: b.append_column(out_col,
                                      pa.nulls(b.num_rows, pa.int64())),
            batch_format="pyarrow", batch_size=None)
    bmin = parts["bmin"].to_numpy(zero_copy_only=False)
    bmax = parts["bmax"].to_numpy(zero_copy_only=False)
    bsum = parts["bsum"].to_numpy(zero_copy_only=False)
    order = np.argsort(bmin, kind="stable")
    bmin, bmax, bsum = bmin[order], bmax[order], bsum[order]
    if np.any(bmax[:-1] >= bmin[1:]):
        i = int(np.flatnonzero(bmax[:-1] >= bmin[1:])[0])
        raise ValueError(
            f"ordered_prefix_sum: input is not block-ordered on "
            f"{order_col!r} — block range [{bmin[i]}, {bmax[i]}] overlaps "
            f"[{bmin[i + 1]}, {bmax[i + 1]}]; sort/partition the input by "
            f"{order_col!r} first")
    offsets = np.concatenate([[0], np.cumsum(bsum)[:-1]])
    # Keyed by block min: pass 2 re-reads the SAME materialized blocks,
    # so every batch's min has exactly one entry (checked).
    off_ref = ray.put((bmin, bmax, offsets))

    def apply(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.append_column(out_col, pa.array([], pa.int64()))
        mins, maxs, offs = ray.get(off_ref)
        keys = b[order_col].to_numpy(zero_copy_only=False)
        vals = b[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        j = int(np.searchsorted(mins, int(keys.min())))
        if j >= len(mins) or mins[j] != keys.min() or maxs[j] != keys.max():
            raise RuntimeError(
                "ordered_prefix_sum: block layout changed between "
                "passes (batch range not found in pass-1 partials)")
        srt = np.argsort(keys, kind="stable")
        c = np.cumsum(vals[srt])
        run = np.empty_like(c)
        run[srt] = c
        if exclusive:
            run = run - vals
        return b.append_column(
            out_col, pa.array(run + int(offs[j]), pa.int64()))

    return slim.map_batches(apply, batch_format="pyarrow",
                            batch_size=None)


def ntile(ds, order_col: str, k: int, *, out_col: str = "tile"):
    """NTILE(k) OVER (ORDER BY order_col) — split the global order into
    k buckets, the first ``n mod k`` buckets one row larger (SQL
    semantics).  Same contract as :func:`global_rank`: ``order_col``
    unique int64 (pack composite keys injectively).

    Shape: one range-partition sort + prefix-count rank, then the tile
    is pure per-row arithmetic from (rank, n) — n is O(1) driver state
    from the rank pass's own partials, so NO extra pass or shuffle
    beyond the rank's."""
    import ray

    ranked = global_rank(ds, order_col, out_col="__rank").materialize()
    n = ranked.count()  # footer metadata on the materialized blocks
    big, rem = (n // k) + 1, n % k
    cut = rem * big
    small = max(n // k, 1)

    def fin(b: pa.Table) -> pa.Table:
        r = b["__rank"].to_numpy(zero_copy_only=False)
        tile = np.where(r <= cut, (r - 1) // big + 1,
                        rem + (r - 1 - cut) // small + 1)
        return b.drop_columns(["__rank"]).append_column(
            out_col, pa.array(tile.astype(np.int64)))

    return ranked.map_batches(fin, batch_format="pyarrow")


def global_rank(ds, order_col: str, *, out_col: str = "rank"):
    """1-based GLOBAL row number over ascending ``order_col`` order —
    the distributed ranking operator (ROW_NUMBER() OVER (ORDER BY ...)
    with no partition clause).  ``order_col`` values must be unique
    int64 (encode composite sort keys — e.g. (total DESC, id ASC) —
    into one injective int64 first; the prefix-sum pass validates
    block disjointness, so a non-injective key that straddles a sort
    boundary raises rather than mis-ranks).

    Shape: range-partitioning sort on the key, then rank = exclusive
    prefix COUNT via :func:`ordered_prefix_sum` — per-block partials,
    O(blocks) driver state, no second shuffle."""

    def ones(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__one", pa.array(np.ones(b.num_rows, np.int64)))

    ranked = ordered_prefix_sum(
        ds.map_batches(ones, batch_format="pyarrow").sort(order_col),
        "__one", order_col, out_col=out_col, exclusive=True)

    def fin(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index(out_col)
        b = b.set_column(i, out_col, pc.add(b[out_col], 1))
        return b.drop_columns(["__one"])

    return ranked.map_batches(fin, batch_format="pyarrow")
