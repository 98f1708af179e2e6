"""Keyed semi/anti joins for UNBOUNDED right sides (SURVEY.md §2.4 J3+).

The package's row-membership filters so far assumed a bounded right
side (dead-letter route list, broadcast drop set).  A user filtering
100 TB by a 10 B-row key set can't broadcast: both sides must hash-
partition on the key and meet in partition-local probes.  Ray Data's
``Dataset.join`` ships exactly that shuffle with ``left_semi`` /
``left_anti`` join types, so these wrappers add only the parts that
bite in practice:

- the empty-side guard (ray 2.49 ``Dataset.join`` raises ArrowInvalid
  when either side has no rows — semi of anything with an empty key
  set is empty, anti is the input unchanged);
- key-column projection of the right side (its payload columns must
  not ride through the shuffle);
- :func:`join_partitions`, the partition count of every hash join in
  the package.
"""

from __future__ import annotations

from .aggregate import arrow_blocks, concat_nonempty

#: key-side rows up to which a join broadcasts instead of shuffling
BROADCAST_LIMIT = 2_000_000


def _prepared(keys_ds, on: list[str]):
    """Project the right side to its key columns and materialize it
    (the join pulls it fully anyway; materializing lets the empty-side
    guard use a metadata count instead of a second pass)."""
    return keys_ds.select_columns(list(on)).materialize()


def _has_no_rows(ds) -> bool:
    """Exact emptiness at the cost of one row: a pure read answers from
    metadata, a transformed plan stops at its first output row."""
    return ds.limit(1).count() == 0


def join_partitions() -> int:
    """Partition count of every ``Dataset.join`` in the package: half
    the cluster CPUs, at least 2.  Dataset.join schedules one
    aggregator actor per partition, and a partition count above what
    the cluster can start DEADLOCKS the join (verified on ray 2.49:
    num_partitions=64 on 4 CPUs never completes).  On a real cluster
    CPUs grow with nodes, so the count still scales out; per-partition
    size is data/CPUs, which is Ray join's own memory contract
    (partition_size_hint exists for skewed cases)."""
    import ray

    return max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)


def _key_lists(on, right_on):
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    return on, right_on


def semi_join(ds, keys_ds, on: list[str] | str, *,
              right_on: list[str] | str | None = None):
    """Rows of ``ds`` whose key appears in ``keys_ds`` (no row
    multiplication, left columns only).  Hash-shuffle on both sides —
    the right side may be arbitrarily large."""
    on, right_on = _key_lists(on, right_on)
    return _semi_join_prepared(ds, _prepared(keys_ds, right_on), on,
                               right_on)


def _semi_join_prepared(ds, keys, on: list[str], right_on: list[str]):
    """:func:`semi_join` on a key side :func:`_prepared` already
    projected and materialized."""
    # semi of an empty key set — or of an empty left — is empty.
    if keys.count() == 0 or _has_no_rows(ds):
        return ds.limit(0)
    return ds.join(keys, "left_semi", num_partitions=join_partitions(),
                   on=tuple(on), right_on=tuple(right_on))


def anti_join(ds, keys_ds, on: list[str] | str, *,
              right_on: list[str] | str | None = None):
    """Rows of ``ds`` whose key does NOT appear in ``keys_ds`` (left
    columns only) — the dead-letter / drop-list filter generalized to
    an unbounded right side."""
    on, right_on = _key_lists(on, right_on)
    keys = _prepared(keys_ds, right_on)
    # anti of an empty key set is the input; of an empty left, empty.
    if keys.count() == 0:
        return ds
    if _has_no_rows(ds):
        return ds.limit(0)
    return ds.join(keys, "left_anti", num_partitions=join_partitions(),
                   on=tuple(on), right_on=tuple(right_on))


def runtime_filter_semi_join(ds, keys_ds, on: str, *,
                             right_on: str | None = None):
    """Size-ADAPTIVE semi join (runtime-filter pushdown): when the
    distinct key side fits ``BROADCAST_LIMIT`` rows, the probe is a
    broadcast ``pc.is_in`` mask inside ``map_batches`` — the fact side
    is FILTERED IN PLACE with zero shuffle (the classic bloom/IN-list
    runtime filter every warehouse pushes below its joins; exact here,
    because a semi join carries no right payload).  Above the limit it
    falls back to :func:`semi_join`'s hash-shuffle plan, which is the
    only correct shape for a 10 B-row key side.

    Single-key only: the broadcast probe hinges on one Arrow
    ``value_set``; multi-key callers use :func:`semi_join` directly.
    The decision reads just the materialized key side's metadata count
    before paying for the driver-side distinct."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray

    right_on = right_on or on
    keys = _prepared(keys_ds, [right_on])
    n_keys = keys.count()
    if n_keys == 0:
        return ds.limit(0)
    if n_keys > BROADCAST_LIMIT:
        return _semi_join_prepared(ds, keys, [on], [right_on])

    def distinct(b: pa.Table) -> pa.Table:
        return pa.table({right_on: pc.unique(b[right_on]).drop_null()})

    parts = arrow_blocks(keys.map_batches(distinct, batch_format="pyarrow"))
    vs = pc.unique(concat_nonempty(parts)[right_on].combine_chunks())
    ref = ray.put(vs)

    def probe(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b[on], value_set=ray.get(ref)))

    return ds.map_batches(probe, batch_format="pyarrow")


def auto_join(left, right, on, *, right_on=None,
              right_rows: int | None = None):
    """ADAPTIVE inner join — the one planning decision every pipeline
    makes, made explicit: BROADCAST the right side when it is
    dimension-sized (a sorted-key gather inside ``map_batches``; the
    fact side never shuffles) and fall back to the hash-shuffle
    ``Dataset.join`` when it is not.  The threshold is a row count
    (``BROADCAST_LIMIT``) against the right side's metadata count —
    pass ``right_rows`` when the caller already knows it (avoids an
    execution of a transformed right side).

    Currently single-int64-key inner joins only — exactly the shape
    the q_shuffle_join / q_mktsegment pair hand-plans; other joins
    keep their explicit operators (semi/anti above, Dataset.join
    directly).  Broadcast-path column collision: right-side payload
    columns must not collide with left column names (raises).
    """
    import numpy as np
    import pyarrow as pa
    import ray

    lkey = on if isinstance(on, str) else list(on)[0]
    rkey = (right_on if isinstance(right_on, str)
            else list(right_on)[0] if right_on else lkey)
    n_right = right_rows if right_rows is not None else right.count()
    if n_right > BROADCAST_LIMIT:
        # the empty-side guard: an inner join with an empty left is empty
        if _has_no_rows(left):
            return left.limit(0)
        return left.join(right, "inner", num_partitions=join_partitions(),
                         on=(lkey,), right_on=(rkey,))

    # A fully-filtered right side can materialize as ZERO blocks in
    # ray 2.49; bare pa.concat_tables([]) raises, so guard the empty
    # refs list before concatenating (ADVICE r3).
    right_tables = arrow_blocks(right)
    rt = pa.concat_tables(right_tables) if right_tables else None
    if rt is not None and rt.num_columns == 0:  # zero-column empty side
        rt = None
    payload_cols = [c for c in (rt.column_names if rt else [])
                    if c != rkey]
    ref = None
    if rt is not None and rt.num_rows:
        keys = rt[rkey].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        if len(skeys) > 1 and (skeys[1:] == skeys[:-1]).any():
            # duplicate right keys would row-multiply under a real
            # inner join; the broadcast gather can't express that —
            # refuse rather than silently under-produce
            raise ValueError(
                "auto_join broadcast: right side has duplicate keys; "
                "use Dataset.join (or dedupe the dimension first)")
        ref = ray.put((skeys,
                       {c: rt[c].take(pa.array(order)) for c in
                        payload_cols}))

    def probe(b: pa.Table) -> pa.Table:
        bad = [c for c in payload_cols if c in b.column_names]
        if bad:
            raise ValueError(f"auto_join broadcast: right columns {bad} "
                             "collide with left schema")
        if ref is None:
            return b.slice(0, 0)
        rkeys, payload = ray.get(ref)
        lk = b[lkey].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(rkeys, lk)
        idx_c = np.minimum(idx, len(rkeys) - 1)
        hit = rkeys[idx_c] == lk
        out = b.filter(pa.array(hit))
        take = pa.array(idx_c[hit])
        for c in payload_cols:
            out = out.append_column(c, payload[c].take(take))
        return out

    return left.map_batches(probe, batch_format="pyarrow")
