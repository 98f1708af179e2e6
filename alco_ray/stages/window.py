"""Windowed / as-of / session / context operators (SURVEY.md §2.4 J2).

The reference fetches +-k neighboring lines around a search hit within
the same context-column values.  Graft: per-conversation windows over
``turn_idx``.

Execution shape (round 2): instead of ``groupby(conv_id).map_groups``
— one Python call and one pandas frame PER conversation, so at
billions of small conversations the interpreter overhead dominates the
math — every operator here sorts on a hash of the key column, then
runs ONE vectorized segmented kernel per frame of many whole key
groups: sort the frame by (key, idx), find segment boundaries with one
diff, and answer every window/as-of/session question with cumsum /
maximum.accumulate arithmetic over the whole frame at once.  A key
lives in exactly one frame, so frame-local answers are globally exact.

Partitioning assumption: a frame fits one worker's heap.
:func:`keyed_apply` cuts each sorted block into runs of whole key
groups of at most :data:`FRAME_ROWS` rows (a larger group is one frame
of its own), and its tasks are the sort's partitions, one per input
block, so frames stay bounded at any corpus size and no caller sizes
anything.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

#: Most rows :func:`keyed_apply` hands one kernel call, unless a single
#: key group is larger (it goes whole).
FRAME_ROWS = 250_000


def default_hash_parts() -> int:
    """CPU-derived FLOOR for the key-hash partition count: a multiple
    of cluster CPUs, power-of-two.  The data-proportional default is
    :func:`suggest_key_partitions`; this floor keeps small inputs from
    under-parallelizing."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    want = max(64, 4 * cpus)
    return 1 << (want - 1).bit_length()


def suggest_key_partitions(n_rows: int) -> int:
    """Data-proportional power-of-two partition count for a hash
    layout of ``n_rows`` rows (join partitions, index buckets, the
    :func:`partition_by_key` skew measurement): at most
    :data:`FRAME_ROWS` rows per partition at ANY corpus size.  Floor =
    :func:`default_hash_parts` (parallelism at small scale), cap 2^16
    bounds per-partition scheduling overhead."""
    want = max(default_hash_parts(),
               min(1 << 16, -(-int(n_rows) // FRAME_ROWS)))
    return 1 << (int(want) - 1).bit_length()


def _key_hash(b: pa.Table, cols: list[str]) -> np.ndarray:
    """uint64 hash of each row's key columns (pandas SipHash, fixed
    key, so deterministic across processes)."""
    if len(cols) == 1:
        return pd.util.hash_array(b[cols[0]].to_numpy(zero_copy_only=False))
    return pd.util.hash_pandas_object(
        b.select(cols).to_pandas(), index=False).to_numpy()


def partition_by_key(ds, key_cols, n_parts: int):
    """Append int32 ``part`` = hash(key columns) % n_parts, from the
    same key hash :func:`keyed_apply` sorts on.  A key lives in exactly
    one partition."""
    cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def add_part(b: pa.Table) -> pa.Table:
        return b.append_column("part", pa.array(
            (_key_hash(b, cols) % n_parts).astype(np.int32)))

    return ds.map_batches(add_part, batch_format="pyarrow")


_HASH = "__key_hash"


def keyed_apply(ds, keys, kernel):
    """Run ``kernel`` over frames of whole key groups of ``ds`` — the
    one keyed shuffle behind every frame-local kernel in this package.
    All rows of a key (``keys``: a column name or a list of them) reach
    the same call, so frame-local answers are globally exact.

    Shape: append the 64-bit key hash, ``ds.sort`` on it (one sort
    partition per input block, so the task count follows the data),
    then cut each sorted block into runs of whole hash groups of at
    most :data:`FRAME_ROWS` rows; a larger group is a frame of its own.

    ``kernel`` gets a pandas frame of MANY whole key groups with the
    input columns (never the hash column, dropped zero-copy on the
    Arrow side before the pandas conversion) and returns a batch (a
    pandas frame or Arrow table).  It must be pure per group: which
    groups share a frame, and in what row order, is not fixed, so a
    kernel sorts and segments its frame itself."""
    from ray.data.block import BlockAccessor

    cols = [keys] if isinstance(keys, str) else list(keys)
    frame_rows = FRAME_ROWS  # captured here: tasks see the caller's value

    def add_hash(b: pa.Table) -> pa.Table:
        return b.append_column(
            _HASH, pa.array(_key_hash(b, cols).view(np.int64)))

    @functools.wraps(kernel)  # Ray Data names the operator after it
    def run(t: pa.Table):
        h = t[_HASH].to_numpy()
        t = t.drop_columns([_HASH])
        start, n = 0, len(h)
        while start < n:
            stop = start + frame_rows
            if stop < n:
                # back off to the start of the group the cut would split;
                # a group longer than a frame goes whole
                cut = int(np.searchsorted(h, h[stop], "left"))
                stop = cut if cut > start else \
                    int(np.searchsorted(h, h[start], "right"))
            yield kernel(BlockAccessor.for_block(
                t.slice(start, min(stop, n) - start)).to_pandas())
            start = stop

    return (ds.map_batches(add_hash, batch_format="pyarrow").sort(_HASH)
            .map_batches(run, batch_size=None, batch_format="pyarrow"))


def _segment_bounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (segment_start, segment_end) positions for a sorted key
    column: one vectorized change-point pass."""
    n = len(keys)
    if n == 0:
        z = np.array([], dtype=np.int64)
        return z, z, z
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = keys[1:] != keys[:-1]
    seg_id = np.cumsum(change) - 1
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    return starts[seg_id], ends[seg_id], seg_id


def _windowed_flag_sum(flag: np.ndarray, seg_start: np.ndarray,
                       seg_end: np.ndarray, radius: int) -> np.ndarray:
    """Centered ROWS-frame windowed sum of ``flag`` within segments:
    prefix sums + clamped window edges, no per-segment loop."""
    n = len(flag)
    c0 = np.concatenate([[0], np.cumsum(flag)])
    pos = np.arange(n, dtype=np.int64)
    lo = np.maximum(pos - radius, seg_start)
    hi = np.minimum(pos + radius, seg_end - 1)
    return c0[hi + 1] - c0[lo]


def rolling_count(ds, *, flag_col: str, flag_value, radius: int = 2,
                  conv_col: str = "conv_id", idx_col: str = "turn_idx",
                  out_col: str = "w_count"):
    """Centered rolling window aggregate: for every turn, the number of
    rows with ``flag_col == flag_value`` within ``radius`` turns in the
    same conversation (ROWS frame)."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g[idx_col].to_numpy(), g[conv_col].to_numpy()))
        g = g.iloc[order]
        seg_start, seg_end, _ = _segment_bounds(g[conv_col].to_numpy())
        flag = (g[flag_col] == flag_value).to_numpy().astype(np.int64)
        out = g[[conv_col, idx_col]].copy()
        out[out_col] = _windowed_flag_sum(flag, seg_start, seg_end, radius)
        return out

    return keyed_apply(ds, conv_col, body)


def asof_prior(ds, *, flag_col: str, flag_value,
               conv_col: str = "conv_id", idx_col: str = "turn_idx",
               out_col: str = "last_match_idx"):
    """As-of join within a conversation: for every turn, the most
    recent ``turn_idx`` at-or-before it whose ``flag_col`` equals
    ``flag_value`` (-1 if none yet).

    Kernel: segment-reset running max via the offset trick — add
    seg_id * 2^32 to each candidate value so np.maximum.accumulate
    never carries a value across a segment boundary."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g[idx_col].to_numpy(), g[conv_col].to_numpy()))
        g = g.iloc[order]
        idx = g[idx_col].to_numpy().astype(np.int64)
        _, _, seg_id = _segment_bounds(g[conv_col].to_numpy())
        flag = (g[flag_col] == flag_value).to_numpy()
        OFF = np.int64(1) << 32  # > max turn_idx + 2
        val = np.where(flag, idx, np.int64(-1)) + seg_id * OFF
        run = np.maximum.accumulate(val)
        out = g[[conv_col, idx_col]].copy()
        out[out_col] = run - seg_id * OFF
        return out

    return keyed_apply(ds, conv_col, body)


def sessionize(ds, *, key_col: str = "user_id", ts_col: str = "ts",
               gap_minutes: int = 30, out_col: str = "session_id"):
    """Gap-based sessionization: within each key, a new session starts
    whenever the time since the previous event exceeds ``gap_minutes``.
    session_id = running count of gap-breaks (0-based) per key.

    Kernel: one diff over the (key, ts)-sorted frame; a row is a
    gap-break iff it is not a segment start and its ts-delta exceeds
    the gap; session_id = cumsum re-based at each segment start."""
    gap_us = np.int64(gap_minutes) * 60 * 1_000_000

    def body(g: pd.DataFrame) -> pd.DataFrame:
        ts = g[ts_col].to_numpy()
        order = np.lexsort((ts, g[key_col].to_numpy()))
        g = g.iloc[order]
        ts = ts[order].astype("datetime64[us]").view(np.int64)
        seg_start, _, _ = _segment_bounds(g[key_col].to_numpy())
        n = len(g)
        gap = np.zeros(n, dtype=np.int64)
        if n > 1:
            delta = ts[1:] - ts[:-1]
            pos = np.arange(1, n, dtype=np.int64)
            gap[1:] = ((delta > gap_us) &
                       (pos != seg_start[1:])).astype(np.int64)
        c = np.cumsum(gap)
        g = g.copy()
        g[out_col] = c - c[seg_start]
        return g

    return keyed_apply(ds, key_col, body)


def context_window(ds, *, match_col: str, match_value, radius: int = 1,
                   conv_col: str = "conv_id", idx_col: str = "turn_idx",
                   keep_cols: list[str] | None = None):
    """Rows within ``radius`` turns of a matching row in the same
    conversation (the grep context view).  Returns the kept rows."""
    cols = keep_cols or [conv_col, idx_col, match_col]

    def body(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g[idx_col].to_numpy(), g[conv_col].to_numpy()))
        g = g.iloc[order]
        seg_start, seg_end, _ = _segment_bounds(g[conv_col].to_numpy())
        flag = (g[match_col] == match_value).to_numpy().astype(np.int64)
        w = _windowed_flag_sum(flag, seg_start, seg_end, radius)
        return g.loc[w > 0, cols]

    return keyed_apply(ds, conv_col, body)


def nearby_count(ds, *, key_col: str, ts_col: str, id_col: str,
                 radius_us: int, flag_col: str | None = None,
                 flag_value=None, out_col: str = "n_nearby"):
    """Time-RANGE join count: for every (flagged) row, the number of
    OTHER rows with the same key whose timestamp lies within
    ``±radius_us`` — the interval/range-join shape Ray Data has no
    native operator for (a SQL engine answers it with a non-equi
    self-join).

    Kernel (per key-hash frame, fully vectorized): collapse
    (key, ts) into ONE int64 timeline — ``code * span + (ts - min)``
    with ``span > (max - min) + radius + 1`` so no probe window can
    bleed across keys — then a single pair of ``np.searchsorted``
    calls answers every probe at once.  No self-join, no row
    multiplication; shuffle volume = input once.  Composite-key
    overflow is CHECKED (raise, don't corrupt)."""
    radius_us = int(radius_us)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        ts = g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        if len(ts) == 0:
            return pd.DataFrame({id_col: np.array([], np.int64),
                                 out_col: np.array([], np.int64)})
        codes, _ = pd.factorize(g[key_col].to_numpy())
        base = ts - ts.min()
        span = int(base.max()) + radius_us + 2
        n_keys = int(codes.max()) + 1
        if span * n_keys >= (1 << 62):
            raise ValueError(
                f"nearby_count: composite timeline overflow "
                f"({n_keys} keys x span {span} in one frame)")
        comp = codes.astype(np.int64) * span + base
        srt = np.sort(comp)
        probe = (g[flag_col] == flag_value).to_numpy() \
            if flag_col is not None else np.ones(len(ts), dtype=bool)
        lo = np.searchsorted(srt, comp[probe] - radius_us, "left")
        hi = np.searchsorted(srt, comp[probe] + radius_us, "right")
        return pd.DataFrame({
            id_col: g[id_col].to_numpy()[probe],
            out_col: (hi - lo - 1).astype(np.int64),
        })

    return keyed_apply(ds, key_col, body)


def lag_delta(ds, *, key_col: str, ts_col: str, id_col: str,
              out_col: str = "gap_us"):
    """LAG window function: for every row, microseconds since the
    PREVIOUS row of the same key in (ts, id) order — null for each
    key's first row (SQL ``ts - lag(ts) OVER (PARTITION BY key
    ORDER BY ts, id)``).  The inter-event-time signal behind retention
    / bot-detection features.

    Kernel: one lexsort per key-hash frame, one diff; segment
    starts masked to null via a pandas Int64 (nullable) column so the
    output schema stays int64, not float."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({id_col: np.array([], np.int64),
                                 out_col: pd.array([], dtype="Int64")})
        ts = g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        order = np.lexsort((g[id_col].to_numpy(), ts,
                            g[key_col].to_numpy()))
        g = g.iloc[order]
        ts = ts[order]
        seg_start, _, _ = _segment_bounds(g[key_col].to_numpy())
        n = len(g)
        gap = np.zeros(n, dtype=np.int64)
        if n > 1:
            gap[1:] = ts[1:] - ts[:-1]
        col = pd.array(gap, dtype="Int64")
        col[np.arange(n) == seg_start] = pd.NA
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             out_col: col})

    from alco_ray.stages import enforce_schema

    s = ds.schema()
    id_type = s.types[s.names.index(id_col)]
    out = keyed_apply(ds, key_col, body)
    # Pin Arrow-native int64-with-nulls output: the pandas Int64
    # extension column above hashes as `123`/`<NA>` while the oracle's
    # nullable BIGINT round-trips as `123.0`/`NaN` — driver hash
    # mismatch on identical values (CORRECTNESS_r03 e_event_gaps).
    return enforce_schema(out, {id_col: id_type, out_col: pa.int64()})


def grouped_cumsum(ds, *, key_col: str, ts_col: str, id_col: str,
                   val_col: str, out_col: str = "cum"):
    """Per-key RUNNING SUM: inclusive cumulative sum of ``val_col``
    (int64) over (ts, id) order within each key — SQL ``sum(val) OVER
    (PARTITION BY key ORDER BY ts, id ROWS UNBOUNDED PRECEDING)``.
    Unlike stages/scan.ordered_prefix_sum (ONE global order, block-
    ordered input) this is the per-group variant over arbitrary input:
    segment-rebased cumsum per key-hash frame."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({id_col: np.array([], np.int64),
                                 out_col: np.array([], np.int64)})
        ts = g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        order = np.lexsort((g[id_col].to_numpy(), ts,
                            g[key_col].to_numpy()))
        g = g.iloc[order]
        seg_start, _, _ = _segment_bounds(g[key_col].to_numpy())
        vals = g[val_col].to_numpy().astype(np.int64)
        c = np.cumsum(vals)
        run = c - (c[seg_start] - vals[seg_start])
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             out_col: run})

    return keyed_apply(ds, key_col, body)


def grouped_dense_rank(ds, *, key_col: str, val_col: str, id_col: str,
                       out_col: str = "drank", descending: bool = True):
    """Per-key DENSE_RANK over ``val_col`` (int64; ties share a rank,
    no gaps) — SQL ``dense_rank() OVER (PARTITION BY key ORDER BY val
    DESC)``.  Same key-hash-framed segmented kernel as
    :func:`grouped_cumsum`: one shuffle on the key hash, vectorized
    rank per frame, never a global sort."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({id_col: np.array([], np.int64),
                                 out_col: np.array([], np.int64)})
        vals = g[val_col].to_numpy().astype(np.int64)
        sval = -vals if descending else vals
        order = np.lexsort((sval, g[key_col].to_numpy()))
        g = g.iloc[order]
        sval = sval[order]
        seg_start, _, _ = _segment_bounds(g[key_col].to_numpy())
        new_seg = np.zeros(len(g), bool)
        new_seg[seg_start] = True
        changed = np.empty(len(g), bool)
        changed[0] = True
        changed[1:] = sval[1:] != sval[:-1]
        bump = (changed & ~new_seg).astype(np.int64)
        c = np.cumsum(bump)
        # seg_start is PER-ROW (each row's own segment-start position)
        rank = c - c[seg_start] + 1
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             out_col: rank})

    return keyed_apply(ds, key_col, body)


def asof_join(left_ds, right_ds, *, key_col: str, ts_col: str,
              left_id_col: str, right_val_col: str,
              out_col: str = "asof_val"):
    """Two-INPUT as-of join (pandas ``merge_asof`` / SQL ``ASOF LEFT
    JOIN``): for every left row, the value carried by the right row of
    the SAME key with the greatest ``ts`` at-or-before the left row's
    ``ts`` (null if none) — the event-vs-slowly-changing-state lookup
    (:func:`asof_prior` is the single-table special case).

    Shape: tag each side, project both to one shared schema, union,
    ONE key-hash shuffle.  Per frame the kernel sorts by
    (key, ts, side) with right rows FIRST at equal ts (inclusive
    match), then a segment-reset running max over ROW POSITIONS (the
    offset trick) answers every probe at once; the matched value is a
    single vectorized gather.  No per-key loop, no row multiplication,
    shuffle volume = |L| + |R| exactly once."""
    import ray.data  # noqa: F401  (Dataset.union)

    def _field_type(ds, col):
        s = ds.schema()  # ray.data Schema wrapper, not pyarrow
        return s.types[s.names.index(col)]

    rtype = _field_type(right_ds, right_val_col)
    ltype = _field_type(left_ds, left_id_col)

    def tag_left(b: pa.Table) -> pa.Table:
        return pa.table({key_col: b[key_col], ts_col: b[ts_col],
                         "__id": b[left_id_col],
                         "__val": pa.nulls(b.num_rows, rtype),
                         "__side": pa.array(
                             np.ones(b.num_rows, np.int8))})

    def tag_right(b: pa.Table) -> pa.Table:
        return pa.table({key_col: b[key_col], ts_col: b[ts_col],
                         "__id": pa.nulls(b.num_rows, ltype),
                         "__val": b[right_val_col],
                         "__side": pa.array(
                             np.zeros(b.num_rows, np.int8))})

    both = (left_ds.map_batches(tag_left, batch_format="pyarrow")
            .union(right_ds.map_batches(tag_right,
                                        batch_format="pyarrow")))

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0 or not (g["__side"] == 1).any():
            # dtype-preserving empty output (object-dtype empties would
            # break Arrow schema unification across frames)
            return pd.DataFrame({left_id_col: g["__id"].iloc[:0],
                                 out_col: g["__val"].iloc[:0]})
        ts = g[ts_col].to_numpy()
        if ts.dtype.kind == "M":
            ts = ts.astype("datetime64[us]").view(np.int64)
        side = g["__side"].to_numpy()
        order = np.lexsort((side, ts, g[key_col].to_numpy()))
        g = g.iloc[order]
        side = side[order]
        n = len(g)
        _, _, seg_id = _segment_bounds(g[key_col].to_numpy())
        OFF = np.int64(1) << 40  # > any frame's row count
        if n >= OFF:
            raise ValueError("asof_join: frame too large")
        cand = np.where(side == 0, np.arange(n, dtype=np.int64),
                        np.int64(-1)) + seg_id * OFF
        pos = np.maximum.accumulate(cand) - seg_id * OFF
        left = side == 1
        lpos = pos[left]
        vals = g["__val"].iloc[np.maximum(lpos, 0)].reset_index(drop=True)
        vals[lpos < 0] = None
        return pd.DataFrame({
            left_id_col: g["__id"].iloc[left].reset_index(drop=True),
            out_col: vals})

    from alco_ray.stages import enforce_schema

    out = keyed_apply(both, key_col, body)
    # Pin the output schema: the null-unioned __id column upcasts to
    # float64 in the pandas kernel, so without this cast the engine's
    # id column is `double` while the oracle's is int64 (CORRECTNESS_
    # r03 q_asof_join).  Left ids are never null, so the safe
    # float->int cast is lossless by construction.
    return enforce_schema(out, {left_id_col: ltype, out_col: rtype})


def transition_counts(ds, *, key_col: str, order_col: str, val_col: str,
                      from_col: str = "from_val", to_col: str = "to_val",
                      out_col: str = "n") -> pa.Table:
    """First-order Markov TRANSITION counts: for every pair of
    CONSECUTIVE rows of the same key in ``order_col`` order, count
    (previous value -> value) — the conversational-flow / user-journey
    matrix (SQL ``lag(val) OVER (PARTITION BY key ORDER BY ord)`` then
    ``GROUP BY from, to``).

    The pairing runs once per key-hash frame (:func:`keyed_apply`);
    each kernel call emits PRE-AGGREGATED (from, to, cnt) partials, so
    the driver fold is frames x |value domain|^2 rows — correct ONLY
    for bounded value domains (roles, levels, event types; for
    unbounded values the partials would feed a second
    :func:`keyed_apply` instead)."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({from_col: np.array([], object),
                                 to_col: np.array([], object),
                                 "cnt": np.array([], np.int64)})
        order = np.lexsort((g[order_col].to_numpy(), g[key_col].to_numpy()))
        vals = g[val_col].to_numpy()[order]
        keys = g[key_col].to_numpy()[order]
        seg_start, _, _ = _segment_bounds(keys)
        n = len(vals)
        not_first = np.arange(n) != seg_start
        d = pd.DataFrame({from_col: vals[np.arange(n) - 1][not_first],
                          to_col: vals[not_first]})
        out = d.groupby([from_col, to_col], as_index=False).size() \
            .rename(columns={"size": "cnt"})
        out["cnt"] = out["cnt"].astype("int64")
        return out

    from .aggregate import fold_partials

    kern = keyed_apply(ds, key_col, body)
    t = fold_partials(kern, [from_col, to_col], [("cnt", "sum")])
    return t.rename_columns([from_col, to_col, out_col])


def path_counts(ds, *, key_col: str, order_cols: list[str],
                val_col: str, n: int = 3, sep: str = ">",
                path_col: str = "path", out_col: str = "cnt") -> pa.Table:
    """Order-``n`` PATH counts — the user-journey generalization of
    :func:`transition_counts`: for every run of ``n`` CONSECUTIVE
    rows of the same key (``order_cols`` order), count the joined
    value path ``v1>v2>...>vn`` (SQL: n-1 stacked ``lead()`` windows
    then GROUP BY).  Same keyed shape: one :func:`keyed_apply`
    over the key, pre-aggregated (path, cnt) partials, bounded-domain
    driver fold (|value domain|^n rows — event types, roles, levels;
    unbounded values would feed a second :func:`keyed_apply`
    instead)."""
    from functools import reduce

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < n:
            return pd.DataFrame({path_col: np.array([], object),
                                 "cnt": np.array([], np.int64)})
        order = np.lexsort(tuple(g[c].to_numpy()
                                 for c in reversed(order_cols))
                           + (g[key_col].to_numpy(),))
        vals = g[val_col].to_numpy()[order].astype(object)
        keys = g[key_col].to_numpy()[order]
        # keys are sorted, so first == last  =>  the whole window is
        # one key segment
        same = keys[: len(keys) - n + 1] == keys[n - 1:]
        paths = reduce(lambda a, k: a + sep + vals[k: len(vals) - n
                                                   + 1 + k],
                       range(1, n), vals[: len(vals) - n + 1])[same]
        out = pd.DataFrame({path_col: paths}) \
            .groupby(path_col, as_index=False).size() \
            .rename(columns={"size": "cnt"})
        out["cnt"] = out["cnt"].astype("int64")
        return out

    from .aggregate import fold_partials

    kern = keyed_apply(ds, key_col, body)
    t = fold_partials(kern, [path_col], [("cnt", "sum")],
                      empty_schema=pa.schema([(path_col, pa.string()),
                                              ("cnt", pa.int64())]))
    return t.rename_columns([path_col, out_col])


def debounce(ds, *, key_cols, ts_col: str, id_col: str,
             cooldown: int):
    """GREEDY DEBOUNCE / alert suppression (the log-pipeline storm
    breaker): per key, keep an event iff its timestamp is >= the last
    KEPT event's timestamp + ``cooldown`` (the first event of a key
    is always kept).  This is the inherently-SEQUENTIAL streaming
    state machine (which event is kept depends on which were kept
    before), so no window function expresses it — but it vectorizes
    by ROUNDS: round r keeps the r-th survivor of every key at once
    (one searchsorted over a composite segment+time key per round).
    Round count is bounded by span/cooldown — the DATA DURATION, not
    the row count — so the kernel stays O(rounds x log n) vector ops
    even on a year of events.

    ``ts_col`` must be integer-valued (cast timestamps upstream).
    Runs per key-hash frame; returns the kept rows, all input
    columns."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*key_cols, ts_col, id_col],
                          kind="mergesort")
        n = len(g)
        if n == 0:
            return g
        seg = g.groupby(key_cols, sort=False).ngroup().to_numpy()
        ts = g[ts_col].to_numpy().astype(np.int64)
        span = np.int64(ts.max() - ts.min() + cooldown + 2)
        comp = seg.astype(np.int64) * span + (ts - ts.min())
        kept = np.zeros(n, bool)
        active = np.flatnonzero(np.diff(seg, prepend=seg[0] - 1) != 0)
        while len(active):
            kept[active] = True
            nxt = np.searchsorted(comp, comp[active] + cooldown,
                                  side="left")
            valid = nxt < n
            nxt = nxt[valid]
            active = nxt[seg[nxt] == seg[active[valid]]]
        return g.iloc[kept]

    return keyed_apply(ds, key_cols[0], body)


def adjacent_pairs(ds, *, key_col: str, order_col: str,
                   role_col: str | None = None,
                   text_col: str, from_role: str | None = None,
                   to_role: str | None = None,
                   prompt_col: str = "prompt",
                   response_col: str = "response",
                   require_consecutive: bool = True,
                   emit_order: str = "first"):
    """CONSECUTIVE-ROW PAIR EXTRACTION: for every pair of adjacent
    rows of the same key in ``order_col`` order where the first row's
    ``role_col`` is ``from_role`` and the next row's is ``to_role``,
    emit (key, order, first text, next text) — the SFT training-pair
    extractor (user turn -> the assistant turn that answers it), and
    generically any stimulus->response adjacency (SQL ``lead() OVER
    (PARTITION BY key ORDER BY ord)`` + a two-row predicate).

    ``role_col``/``from_role``/``to_role`` of None disable the role
    predicate (EVERY positional adjacency pairs — the self-repetition
    / drift analyses).  ``require_consecutive`` additionally demands
    order values differ by exactly 1 (a missing middle turn breaks
    the pair).  ``emit_order`` picks which row's order value labels
    the pair ('first' or 'second').  Runs once per key-hash frame
    (:func:`keyed_apply`); output rows only (never the non-matching
    corpus)."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g[order_col].to_numpy(),
                            g[key_col].to_numpy()))
        keys = g[key_col].to_numpy()[order]
        ordv = g[order_col].to_numpy()[order]
        txt = g[text_col].to_numpy()[order]
        i = np.arange(max(len(keys) - 1, 0))
        ok = keys[i] == keys[i + 1]
        if role_col is not None:
            roles = g[role_col].to_numpy()[order]
            ok = (ok & (roles[i] == from_role)
                  & (roles[i + 1] == to_role))
        if require_consecutive:
            ok = ok & (ordv[i + 1] == ordv[i] + 1)
        i = i[ok]
        lab = ordv[i] if emit_order == "first" else ordv[i + 1]
        return pd.DataFrame({key_col: keys[i], order_col: lab,
                             prompt_col: txt[i],
                             response_col: txt[i + 1]})

    return keyed_apply(ds, key_col, body)


def first_last_by(ds, *, key_col: str, ts_col: str, id_col: str,
                  val_col: str, first_col: str = "first_val",
                  last_col: str = "last_val", n_col: str = "n"):
    """Per-key FIRST and LAST value in (ts, id) order plus row count —
    the distributed arg_min/arg_max (SQL ``min_by(val, (ts, id))`` /
    ``max_by``), the entry/exit-event feature of funnel analytics.

    Shape: a map-side reduce collapses each batch to at most ONE row
    per key seen (its batch-local argmin/argmax/count — 8 fixed-width
    columns), then a key-hash frame fold re-reduces; shuffle
    volume is per-batch distinct keys, never the event stream.  Both
    reduce levels are the same vectorized sort + drop_duplicates —
    no per-key Python."""
    def partial(pb: pa.Table) -> pd.DataFrame:
        g = pb.select([key_col, ts_col, id_col, val_col]).to_pandas()
        if len(g) == 0:
            # dtypes derive from the (empty) input so all blocks agree
            return pd.DataFrame({
                key_col: g[key_col],
                "f_ts": g[ts_col].to_numpy().astype("datetime64[us]"),
                "f_id": g[id_col].to_numpy().astype(np.int64),
                "f_val": g[val_col],
                "l_ts": g[ts_col].to_numpy().astype("datetime64[us]"),
                "l_id": g[id_col].to_numpy().astype(np.int64),
                "l_val": g[val_col],
                "cnt": np.array([], np.int64)})
        ts = g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        order = np.lexsort((g[id_col].to_numpy(), ts,
                            g[key_col].to_numpy()))
        g = g.iloc[order]
        first = g.drop_duplicates(subset=[key_col], keep="first")
        last = g.drop_duplicates(subset=[key_col], keep="last")
        cnt = g.groupby(key_col, sort=False, as_index=False).size()
        out = pd.DataFrame({
            key_col: first[key_col].to_numpy(),
            "f_ts": first[ts_col].to_numpy().astype("datetime64[us]"),
            "f_id": first[id_col].to_numpy().astype(np.int64),
            "f_val": first[val_col].to_numpy(),
            "l_ts": last[ts_col].to_numpy().astype("datetime64[us]"),
            "l_id": last[id_col].to_numpy().astype(np.int64),
            "l_val": last[val_col].to_numpy(),
            "cnt": cnt["size"].to_numpy().astype(np.int64),
        })
        return out


    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({key_col: g[key_col],
                                 first_col: g["f_val"],
                                 last_col: g["l_val"],
                                 n_col: np.array([], np.int64)})
        a = g.sort_values([key_col, "f_ts", "f_id"], kind="mergesort")
        first = a.drop_duplicates(subset=[key_col], keep="first")
        b2 = g.sort_values([key_col, "l_ts", "l_id"], kind="mergesort")
        last = b2.drop_duplicates(subset=[key_col], keep="last")
        cnt = g.groupby(key_col, as_index=False)["cnt"].sum()
        out = first[[key_col, "f_val"]].merge(
            last[[key_col, "l_val"]], on=key_col).merge(cnt, on=key_col)
        out.columns = [key_col, first_col, last_col, n_col]
        out[n_col] = out[n_col].astype("int64")
        return out

    return keyed_apply(ds.map_batches(partial, batch_format="pyarrow"),
                       key_col, fold)


def asof_lookup(ds, dim: pa.Table, *, ts_col: str, dim_ts_col: str,
                payload_col: str, out_col: str | None = None):
    """Broadcast AS-OF lookup against a SMALL dimension (the
    slowly-changing-dimension enrichment: effective exchange rate /
    price / config at event time): the dimension — already deduped to
    ONE row per effective timestamp by the caller — is sorted and
    broadcast once via ``ray.put``; each fact batch finds its row with
    one vectorized ``searchsorted`` (last dim ts at-or-before the
    fact ts; null when none precedes).

    This is the broadcast DUAL of :func:`asof_join`: identical
    semantics, opposite plan — the fact side never shuffles, so it is
    the right shape whenever the dimension fits memory (an SCD table
    at 100 TB fact scale almost always does).  Callers with a
    fact-sized right side use :func:`asof_join`."""
    import ray

    out_col = out_col or payload_col
    d = dim.sort_by([(dim_ts_col, "ascending")])
    dts = d[dim_ts_col].to_numpy(zero_copy_only=False) \
        .astype("datetime64[us]").view(np.int64)
    if len(np.unique(dts)) != len(dts):
        raise ValueError("asof_lookup dimension must hold one row per "
                         f"distinct {dim_ts_col}; pre-aggregate ties")
    payload = d[payload_col].combine_chunks() if isinstance(
        d[payload_col], pa.ChunkedArray) else d[payload_col]
    ref = ray.put((dts, payload))

    def enrich(b: pa.Table) -> pa.Table:
        dim_ts, vals = ray.get(ref)
        ts = b[ts_col].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").view(np.int64)
        idx = np.searchsorted(dim_ts, ts, side="right") - 1
        has = idx >= 0
        take = pa.array(np.where(has, idx, 0), pa.int64())
        got = pc.take(vals, take)
        got = pc.if_else(pa.array(has), got, pa.scalar(None, vals.type))
        return b.append_column(out_col, got)

    return ds.map_batches(enrich, batch_format="pyarrow")


def _range_frame_bounds(keys: np.ndarray, ts: np.ndarray,
                        interval_us: int) -> tuple[np.ndarray, np.ndarray]:
    """[lo, hi) index bounds of each row's RANGE frame
    ``[ts - interval, ts]`` within its key segment, for rows ALREADY
    sorted by (key, ts).  Pure kernel (property-tested directly):
    two vectorized ``searchsorted`` calls over a segment-offset
    composite that keeps each key's rows in a disjoint integer range;
    int64-overflow fallback loops per segment (still vectorized
    inside each)."""
    seg_start, seg_end, seg_id = _segment_bounds(keys)
    n = len(keys)
    if n == 0:
        z = np.array([], dtype=np.int64)
        return z, z
    rel = ts - ts.min()
    span = int(rel.max()) + int(interval_us) + 2
    n_seg = int(seg_id[-1]) + 1
    if n_seg * span < (1 << 62):
        c = seg_id * span + rel
        lo = np.searchsorted(c, c - interval_us, side="left")
        hi = np.searchsorted(c, c, side="right")
        lo = np.maximum(lo, seg_start)
    else:  # pragma: no cover - needs ~10^18 composite range
        lo = np.empty(n, np.int64)
        hi = np.empty(n, np.int64)
        for s in np.flatnonzero(np.diff(np.concatenate(([-1], seg_id)))):
            e = int(seg_end[s])
            seg = ts[s:e]
            lo[s:e] = s + np.searchsorted(seg, seg - interval_us,
                                          side="left")
            hi[s:e] = s + np.searchsorted(seg, seg, side="right")
    return lo, hi


def grouped_range_count(ds, *, key_col: str, ts_col: str, id_col: str,
                        interval_us: int, out_col: str = "n_range"):
    """Per-key TIME-RANGE frame count: for every row, the number of
    same-key rows with ``ts`` in ``[ts - interval, ts]`` — SQL
    ``count(*) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    INTERVAL x PRECEDING AND CURRENT ROW)``, the rate-limit /
    burst-detection frame.  RANGE semantics: peers (equal ts) are IN
    the frame regardless of position, unlike the ROWS frames above.

    Kernel: one lexsort per key-hash frame, then two vectorized
    ``searchsorted`` calls over a segment-offset composite (seg_id *
    span + ts) that keeps each key's rows in their own disjoint
    integer range — no per-segment Python loop.  When the composite
    would overflow int64 (astronomical segment-count x time-span
    products) it falls back to a per-segment loop, still vectorized
    inside each segment."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({id_col: np.array([], np.int64),
                                 out_col: np.array([], np.int64)})
        ts0 = g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        order = np.lexsort((g[id_col].to_numpy(), ts0,
                            g[key_col].to_numpy()))
        g = g.iloc[order]
        lo, hi = _range_frame_bounds(g[key_col].to_numpy(), ts0[order],
                                     interval_us)
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             out_col: hi - lo})

    return keyed_apply(ds, key_col, body)


def grouped_rolling_sum(ds, *, key_col: str, ts_col: str, id_col: str,
                        val_col: str, frame: int = 3,
                        out_col: str = "roll"):
    """Per-key BOUNDED-FRAME running sum: sum of ``val_col`` over the
    current row and the ``frame - 1`` preceding rows of the same key
    in (ts, id) order — SQL ``sum(val) OVER (PARTITION BY key ORDER BY
    ts, id ROWS BETWEEN frame-1 PRECEDING AND CURRENT ROW)``, the
    trailing-window feature (recent spend, burst detection).

    Kernel: one lexsort per key-hash frame, one cumsum, one
    clamped gather — the frame lower bound is ``max(segment start,
    i - frame + 1)`` so windows never cross keys.  No per-row loop."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({id_col: np.array([], np.int64),
                                 out_col: np.array([], np.int64)})
        ts = g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        order = np.lexsort((g[id_col].to_numpy(), ts,
                            g[key_col].to_numpy()))
        g = g.iloc[order]
        seg_start, _, _ = _segment_bounds(g[key_col].to_numpy())
        vals = g[val_col].to_numpy().astype(np.int64)
        c = np.cumsum(vals)
        n = len(g)
        lo = np.maximum(seg_start, np.arange(n, dtype=np.int64)
                        - frame + 1)
        roll = c - (c[lo] - vals[lo])
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             out_col: roll})

    return keyed_apply(ds, key_col, body)


def densify_daily(ds, key_col: str, ts_col: str):
    """GAP FILLING / densification: per key, one row for EVERY calendar
    day in that key's [min(ts), max(ts)] span with the day's event
    count (0 for silent days) — the time-series regularization step
    before rolling features or resampled training snapshots.

    Shape: key-hash frames (a key's span is frame-local), one
    vectorized kernel per frame: per-(key, day) counts via sort +
    reduceat, spans expanded with a single global ``arange`` minus
    per-row offsets (no per-key Python), counts scattered into the
    dense frame by computed index.  Output rows = sum of span lengths;
    day rides as a string so engines agree on the type exactly."""
    import pandas as pd

    def prep(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.floor_temporal(b[ts_col], unit="day"),
                       pa.timestamp("us"))
        epoch_days = pc.divide(pc.cast(days, pa.int64()),
                               pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({key_col: b[key_col], "d": epoch_days})

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        k = g[key_col].to_numpy()
        d = g["d"].to_numpy().astype(np.int64)
        order = np.lexsort((d, k))
        k, d = k[order], d[order]
        kstart = np.ones(len(k), bool)
        kstart[1:] = k[1:] != k[:-1]
        kidx = np.cumsum(kstart) - 1          # dense key index per row
        # per-(key, day) counts
        pair_start = kstart.copy()
        pair_start[1:] |= d[1:] != d[:-1]
        ps = np.flatnonzero(pair_start)
        cnt = np.diff(np.append(ps, len(k)))
        pk, pd_ = kidx[ps], d[ps]
        # per-key span
        ks = np.flatnonzero(kstart)
        lo = d[ks]
        hi = np.maximum.reduceat(d, ks)
        span = hi - lo + 1
        offs = np.concatenate(([0], np.cumsum(span)))
        total = int(offs[-1])
        rows = np.repeat(np.arange(len(ks)), span)
        day = (np.arange(total, dtype=np.int64)
               - np.repeat(offs[:-1], span) + np.repeat(lo, span))
        n = np.zeros(total, np.int64)
        n[offs[pk] + (pd_ - lo[pk])] = cnt
        day_str = np.datetime_as_string(
            day.astype("datetime64[D]"), unit="D")
        return pd.DataFrame({
            key_col: k[ks][rows],
            "day": day_str.astype(object),
            "n_events": n})

    return keyed_apply(ds.map_batches(prep, batch_format="pyarrow"),
                       key_col, fill)


def locf_daily(ds, key_col: str, ts_col: str, id_col: str,
               val_col: str):
    """Densify + LAST-OBSERVATION-CARRIED-FORWARD: per key, one row
    per calendar day in the key's span carrying the day's LAST value
    ((ts, id) order) forward over silent days — the feature-snapshot
    regularization step (:func:`densify_daily` gives the counts;
    this gives the state).  ``val_col`` must be integer-exact (cents).

    Kernel: one lexsort per frame finds each (key, day)'s closing
    value, the dense frame expands exactly as densify_daily, and the
    fill is the classic vectorized LOCF (position-of-last-observation
    via ``np.maximum.accumulate`` + gather).  Every key's first dense
    day has an observation by construction (the span STARTS at an
    observed day), so the carry never crosses keys and the output has
    no nulls."""
    import pandas as pd

    def prep(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.floor_temporal(b[ts_col], unit="day"),
                       pa.timestamp("us"))
        epoch_days = pc.divide(pc.cast(days, pa.int64()),
                               pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({
            key_col: b[key_col], "d": epoch_days,
            "t": pc.cast(b[ts_col], pa.int64()), id_col: b[id_col],
            "v": b[val_col]})

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        k = g[key_col].to_numpy()
        d = g["d"].to_numpy().astype(np.int64)
        t = g["t"].to_numpy().astype(np.int64)
        i = g[id_col].to_numpy().astype(np.int64)
        v = g["v"].to_numpy().astype(np.int64)
        order = np.lexsort((i, t, d, k))
        k, d, v = k[order], d[order], v[order]
        # closing value per (key, day) = last row of each segment
        pair_start = np.ones(len(k), bool)
        pair_start[1:] = (k[1:] != k[:-1]) | (d[1:] != d[:-1])
        ps = np.flatnonzero(pair_start)
        pe = np.append(ps[1:], len(k)) - 1
        pk_rows, pd_, pv = ps, d[ps], v[pe]
        kstart = np.ones(len(ps), bool)
        kstart[1:] = k[ps][1:] != k[ps][:-1]
        kidx = np.cumsum(kstart) - 1
        ks = np.flatnonzero(kstart)
        lo = pd_[ks]
        hi = np.maximum.reduceat(pd_, ks)
        span = hi - lo + 1
        offs = np.concatenate(([0], np.cumsum(span)))
        total = int(offs[-1])
        rows = np.repeat(np.arange(len(ks)), span)
        day = (np.arange(total, dtype=np.int64)
               - np.repeat(offs[:-1], span) + np.repeat(lo, span))
        vals = np.zeros(total, np.int64)
        has = np.zeros(total, bool)
        pos = offs[kidx] + (pd_ - lo[kidx])
        vals[pos] = pv
        has[pos] = True
        # vectorized LOCF: index of the last observed position
        src = np.where(has, np.arange(total), -1)
        src = np.maximum.accumulate(src)
        filled = vals[src]
        day_str = np.datetime_as_string(
            day.astype("datetime64[D]"), unit="D")
        return pd.DataFrame({
            key_col: k[ps][ks][rows],
            "day": day_str.astype(object),
            "cents": filled})

    return keyed_apply(ds.map_batches(prep, batch_format="pyarrow"),
                       key_col, fill)


def coalesce_intervals(ds, key_col: str, ts_col: str, id_col: str, *,
                       before_us: int = 900_000_000,
                       after_us: int = 900_000_000):
    """INTERVAL COALESCING (union of overlapping intervals per key):
    each row spans ``[ts - before, ts + after]``; touching/overlapping
    spans of one key merge into maximal islands — the generic
    primitive behind "busy periods", on-call coverage, downtime
    merging (gap-based :func:`sessionize` is the point-event special
    case).  Returns (key, start_ts, end_ts, n_events) per island.

    Kernel: one lexsort per key-hash frame; with fixed ±W spans
    the interval END is monotone within a key, so an island break is
    simply ``start > previous end`` — one shifted compare + cumsum,
    then segment-bound gathers.  No per-key Python."""
    import pandas as pd

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({key_col: b[key_col],
                         "t": pc.cast(b[ts_col], pa.int64()),
                         id_col: b[id_col]})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        k = g[key_col].to_numpy()
        t = g["t"].to_numpy().astype(np.int64)
        i = g[id_col].to_numpy().astype(np.int64)
        order = np.lexsort((i, t, k))
        k, t = k[order], t[order]
        s = t - before_us
        e = t + after_us
        n = len(k)
        brk = np.ones(n, bool)
        if n > 1:
            brk[1:] = (k[1:] != k[:-1]) | (s[1:] > e[:-1])
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], n) - 1
        return pd.DataFrame({
            key_col: k[starts],
            "start_ts": s[starts].view("datetime64[us]"),
            "end_ts": e[ends].view("datetime64[us]"),
            "n_events": (ends - starts + 1).astype(np.int64)})

    return keyed_apply(ds.map_batches(prep, batch_format="pyarrow"),
                       key_col, merge)
