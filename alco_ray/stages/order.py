"""Stable ordering + skew handling (SURVEY.md §2.6 O1, §4).

The reference's contract is a per-logger total order by ``(ts, seq)``;
the graft's is stable ``(conv_id, turn_idx)`` order (BASELINE.json:15).

Two tools, picked by the consumer:

- :func:`stable_order` — global ``ds.sort(["conv_id", "turn_idx"])``.
  Ray Data's sort range-partitions on the composite key, so a hot
  conversation (Zipf head holding ~5% of all turns) is *split across
  range partitions* rather than landing on one reducer: the composite
  key is the skew handling.  Used for ordered sinks / ordered reads.

- salted per-conversation grouping — for per-conversation grouped
  computation (context windows, per-conv stats), ``groupby(conv_id)``
  would put a hot conversation in ONE group.  :func:`add_salt` appends
  ``salt = turn_idx % S`` (deterministic, uniform within every
  conversation — no hash needed) so decomposable per-conv aggregates
  run as ``groupby([conv_id, salt])`` partials merged by a second tiny
  ``groupby(conv_id)``; see :func:`per_conv_turn_stats` for the
  pattern (BASELINE.json:14 "salted repartitioning").
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import arrow_blocks, concat_nonempty
from .window import keyed_apply


def stable_order(ds):
    """Global stable (conv_id, turn_idx) order — range-partition shuffle."""
    return ds.sort(["conv_id", "turn_idx"])


def add_salt(batch: pa.Table, salt_buckets: int = 16) -> pa.Table:
    """Deterministic intra-conversation salt column (turn_idx % S)."""
    salt = pc.cast(
        pc.bit_wise_and(batch["turn_idx"],
                        pa.scalar(salt_buckets - 1, pa.int32()))
        if (salt_buckets & (salt_buckets - 1)) == 0
        else pc.subtract(batch["turn_idx"],
                         pc.multiply(pc.divide(batch["turn_idx"], salt_buckets),
                                     salt_buckets)),
        pa.int32())
    return batch.append_column("salt", salt)


def per_conv_turn_stats(ds, salt_buckets: int = 16):
    """Per-conversation (n_turns, min_ts, max_ts) via salted two-phase
    aggregation: shuffle #1 partitions on hash(conv_id, salt) so any
    reducer's share of a hot conversation is bounded to 1/S of it;
    shuffle #2 merges the <= S tiny partials per conversation.

    Both phases use the frame-local pandas aggregation shape of
    :func:`keyed_apply` (a (conv_id, salt) group — phase 2: a conv_id
    — lives in exactly one frame): Ray's own Aggregate measured ~44k
    rows/s on this workload, and its Min/Max also re-infers the
    timestamp unit from the values (second-aligned us data came back
    timestamp[s])."""
    import pandas as pd

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["conv_id", "salt"], sort=False)
                .agg(n_turns=("ts", "size"), min_ts=("ts", "min"),
                     max_ts=("ts", "max"))
                .reset_index())
        return out.drop(columns=["salt"])

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("conv_id", sort=False)
                .agg(n_turns=("n_turns", "sum"), min_ts=("min_ts", "min"),
                     max_ts=("max_ts", "max"))
                .reset_index())
        out["n_turns"] = out["n_turns"].astype("int64")
        return out

    salted = ds.map_batches(lambda b: add_salt(b, salt_buckets),
                            batch_format="pyarrow")
    partials = keyed_apply(salted, ["conv_id", "salt"], partial)
    return keyed_apply(partials, "conv_id", merge)


def top_k_per_group(ds, group_col: str, sort_cols: list[str], k: int,
                    descending=True):
    """Top-k rows PER GROUP (latest k turns per conversation, top
    events per user — the grouped-limit operator Ray Data lacks):
    shuffle on the group key, then one vectorized
    sort + groupby-head per frame of whole groups.  Deterministic given a
    tie-breaking sort key; returns all input columns."""
    import numpy as np  # noqa: F401
    import pandas as pd

    if isinstance(descending, bool):
        descending = [descending] * len(sort_cols)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, kind="mergesort",
                          ascending=[not d for d in descending])
        return g.groupby(group_col, sort=False).head(k)

    return keyed_apply(ds, group_col, body)


def top_k(ds, keys: list[str], k: int, descending=True):
    """A4 top-k without a global sort: per-block local top-k inside
    map_batches (whole-block batches), then a driver-side merge of the
    at most (num_blocks * k) survivor rows — Ray's distributed sort
    costs seconds of fixed shuffle latency to order what is by
    construction a tiny table.

    ``descending`` may be a bool or a per-key list (mixed-direction
    tie-breaks, e.g. newest-first with ascending id tie-break)."""
    import ray
    import ray.data

    if isinstance(descending, bool):
        descending = [descending] * len(keys)
    order = [(key, "descending" if d else "ascending")
             for key, d in zip(keys, descending)]

    def local_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        idx = pc.sort_indices(batch, sort_keys=order)
        return batch.take(idx.slice(0, k))

    pruned = ds.map_batches(local_top, batch_format="pyarrow", batch_size=None)
    parts = arrow_blocks(pruned)
    merged = concat_nonempty(parts)
    if merged.num_columns == 0:
        # All blocks fully filtered upstream (empty search result):
        # recover the schema if Ray still knows it, else return the
        # 0-row table as-is — either way 0 rows, not a
        # missing-sort-key crash.
        sch = ds.schema(fetch_if_missing=True)
        base = getattr(sch, "base_schema", None) if sch else None
        if base is None or not hasattr(base, "empty_table"):
            # pandas-block upstream: no Arrow schema to recover —
            # return the 0-row table as-is (callers treat 0 rows
            # uniformly)
            return ray.data.from_arrow(merged)
        merged = base.empty_table()
    idx = pc.sort_indices(merged, sort_keys=order)
    return ray.data.from_arrow(merged.take(idx.slice(0, k)))
