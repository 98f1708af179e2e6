"""Windowed / as-of / session / context operators (SURVEY.md §2.4 J2).

The reference fetches +-k neighboring lines around a search hit within
the same context-column values.  Graft: per-conversation windows over
``turn_idx``, and per-key windows over time.

Every keyed operator here is a kernel run by :func:`keyed_apply`, the
one keyed shuffle: it sorts on a hash of the key column and hands each
kernel call a pandas frame of MANY whole key groups, so frame-local
answers are globally exact.  The kernel contract: a frame holds whole
key groups, is never empty, and arrives in any row order.  A kernel
sorts its frame by (key, order columns) and finds the key segments in
one step (:func:`_sort_segments`), then answers every row at once with
cumsum / maximum.accumulate / searchsorted arithmetic over the whole
frame: a ROWS frame sum (:func:`_frame_sum`), the last flagged row at
or before each row (:func:`_last_flagged`), and a per-segment time seek
(:func:`_time_seek`).  No kernel loops over keys in Python.

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

#: The transcript operators' key and order columns.
CONV_COL, TURN_COL = "conv_id", "turn_idx"

#: Half-width of each event's span in :func:`coalesce_intervals`
#: (15 minutes either side).
BUSY_PAD_US = 900_000_000


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


def _micros(a) -> np.ndarray:
    """int64 microseconds of a timestamp (or integer) column."""
    return np.asarray(a).astype("datetime64[us]").view(np.int64)


def _segment_bounds(keys: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (segment_start, segment_end, segment_id) for a sorted key
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


def _sort_segments(g: pd.DataFrame, key: str, *order):
    """``g`` sorted by (``key``, *``order``), ties in frame order, with
    the per-row (segment_start, segment_end, segment_id) of the sorted
    key.  Each of ``order`` is a column name or an array aligned with
    ``g``, most significant first."""
    cols = [g[c].to_numpy() if isinstance(c, str) else c
            for c in reversed(order)]
    s = g.iloc[np.lexsort((*cols, g[key].to_numpy()))]
    return (s, *_segment_bounds(s[key].to_numpy()))


def _frame_sum(x: np.ndarray, seg_start: np.ndarray, seg_end: np.ndarray,
               before: int | None, after: int) -> np.ndarray:
    """Sum of ``x`` over each row's ROWS frame ``[i - before, i +
    after]`` clipped to its segment (``before=None``: from the segment
    start, the running sum): prefix sums + clamped frame edges, no
    per-segment loop."""
    c0 = np.concatenate([[0], np.cumsum(x)])
    pos = np.arange(len(x), dtype=np.int64)
    lo = seg_start if before is None else np.maximum(pos - before,
                                                     seg_start)
    hi = np.minimum(pos + after, seg_end - 1)
    return c0[hi + 1] - c0[lo]


def _last_flagged(flag: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Per row, the last position at or before it, within its segment,
    where ``flag`` is set; -1 if there is none."""
    pos = np.maximum.accumulate(np.where(flag, np.arange(len(flag)), -1))
    return np.where(pos >= seg_start, pos, -1)


def _session_ids(ts: np.ndarray, seg_start: np.ndarray,
                 seg_end: np.ndarray, gap_us: int) -> np.ndarray:
    """0-based session number of each row of (key, ts)-sorted rows: a
    session breaks where the time since the key's previous row exceeds
    ``gap_us``."""
    brk = np.zeros(len(ts), np.int64)
    brk[1:] = np.diff(ts) > gap_us
    brk[seg_start] = 0
    return _frame_sum(brk, seg_start, seg_end, None, 0)


def _time_seek(ts: np.ndarray, seg_start: np.ndarray, seg_end: np.ndarray,
               seg_id: np.ndarray):
    """The time seek over rows sorted by (segment, ``ts``):
    ``seek(rows, t, side)`` gives, for each probe row ``rows[j]``
    (ascending), the first position in that row's segment whose ts is
    ``>= t[j]`` (side ``"left"``) or ``> t[j]`` (``"right"``), and the
    segment end when there is none.

    One ``searchsorted`` over the composite ``seg_id * span + (ts -
    min)`` answers every probe.  Targets are clipped to one step outside
    the frame's time range, so ``span`` is that range plus 3 and no
    probe reaches another segment.  When the composite would overflow
    int64, each probed segment is searched on its own."""
    t0 = ts.min()
    rng = int(ts.max()) - int(t0)
    span = rng + 3
    if (int(seg_id[-1]) + 1) * span < 1 << 62:
        comp = seg_id * span + (ts - t0)

        def seek(rows, t, side):
            rel = np.clip(t - t0, -1, rng + 1)
            return np.searchsorted(comp, seg_id[rows] * span + rel, side)
        return seek

    def seek(rows, t, side):
        out = np.empty(len(rows), np.int64)
        run = np.flatnonzero(np.diff(seg_id[rows], prepend=-1))
        for a, b in zip(run, np.append(run[1:], len(rows))):
            lo, hi = seg_start[rows[a]], seg_end[rows[a]]
            out[a:b] = lo + np.searchsorted(ts[lo:hi], t[a:b], side)
        return out
    return seek


def rolling_count(ds, *, flag_col: str, flag_value, radius: int = 2):
    """Centered rolling window aggregate: for every turn, the number of
    rows with ``flag_col == flag_value`` within ``radius`` turns in the
    same conversation (ROWS frame): (conv_id, turn_idx, w_count)."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, end, _ = _sort_segments(g, CONV_COL, TURN_COL)
        flag = (s[flag_col] == flag_value).to_numpy().astype(np.int64)
        out = s[[CONV_COL, TURN_COL]].copy()
        out["w_count"] = _frame_sum(flag, start, end, radius, radius)
        return out

    return keyed_apply(ds, CONV_COL, body)


def asof_prior(ds, *, flag_col: str, flag_value):
    """As-of join within a conversation: for every turn, the most
    recent ``turn_idx`` at-or-before it whose ``flag_col`` equals
    ``flag_value`` (-1 if none yet): (conv_id, turn_idx,
    last_match_idx)."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, _, _ = _sort_segments(g, CONV_COL, TURN_COL)
        idx = s[TURN_COL].to_numpy().astype(np.int64)
        pos = _last_flagged((s[flag_col] == flag_value).to_numpy(), start)
        out = s[[CONV_COL, TURN_COL]].copy()
        out["last_match_idx"] = np.where(pos >= 0, idx[pos], -1)
        return out

    return keyed_apply(ds, CONV_COL, body)


def sessionize(ds, *, key_col: str = "user_id", ts_col: str = "ts",
               gap_minutes: int = 30):
    """Gap-based sessionization: within each key, a new session starts
    whenever the time since the previous event exceeds ``gap_minutes``.
    ``session_id`` = running count of gap-breaks (0-based) per key;
    every input column is kept."""
    gap_us = np.int64(gap_minutes) * 60 * 1_000_000

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, end, _ = _sort_segments(g, key_col, ts_col)
        s = s.copy()
        s["session_id"] = _session_ids(_micros(s[ts_col]), start, end,
                                       gap_us)
        return s

    return keyed_apply(ds, key_col, body)


def context_window(ds, *, match_col: str, match_value, radius: int = 1):
    """Rows within ``radius`` turns of a matching row in the same
    conversation (the grep context view): (conv_id, turn_idx,
    ``match_col``) of each kept row."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, end, _ = _sort_segments(g, CONV_COL, TURN_COL)
        flag = (s[match_col] == match_value).to_numpy().astype(np.int64)
        w = _frame_sum(flag, start, end, radius, radius)
        return s.loc[w > 0, [CONV_COL, TURN_COL, match_col]]

    return keyed_apply(ds, CONV_COL, body)


def nearby_count(ds, *, key_col: str, ts_col: str, id_col: str,
                 radius_us: int, flag_col: str | None = None,
                 flag_value=None):
    """Time-RANGE join count: for every (flagged) row, the number
    ``n_nearby`` of OTHER rows with the same key whose timestamp lies
    within ``±radius_us`` — the interval/range-join shape Ray Data has
    no native operator for (a SQL engine answers it with a non-equi
    self-join).

    Kernel: two :func:`_time_seek` probes per row over the (key,
    ts)-sorted frame; rows come out in the frame's input order.  No
    self-join, no row multiplication; shuffle volume = input once."""
    radius_us = int(radius_us)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, end, sid = _sort_segments(g, key_col, ts_col)
        ts = _micros(s[ts_col])
        probe = np.flatnonzero((s[flag_col] == flag_value).to_numpy()) \
            if flag_col is not None else np.arange(len(s))
        seek = _time_seek(ts, start, end, sid)
        n = (seek(probe, ts[probe] + radius_us, "right")
             - seek(probe, ts[probe] - radius_us, "left") - 1)
        back = np.argsort(s.index.to_numpy()[probe])  # input order
        return pd.DataFrame({id_col: s[id_col].to_numpy()[probe][back],
                             "n_nearby": n[back].astype(np.int64)})

    return keyed_apply(ds, key_col, body)


def lag_delta(ds, *, key_col: str, ts_col: str, id_col: str):
    """LAG window function: for every row, microseconds ``gap_us``
    since the PREVIOUS row of the same key in (ts, id) order — null for
    each key's first row (SQL ``ts - lag(ts) OVER (PARTITION BY key
    ORDER BY ts, id)``).  The inter-event-time signal behind retention
    / bot-detection features.

    Kernel: one sorted frame, one diff; segment starts masked to null
    via a pandas Int64 (nullable) column so the output schema stays
    int64, not float."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, _, _ = _sort_segments(g, key_col, ts_col, id_col)
        ts = _micros(s[ts_col])
        col = pd.array(np.diff(ts, prepend=ts[0]), dtype="Int64")
        col[np.arange(len(ts)) == start] = pd.NA
        return pd.DataFrame({id_col: s[id_col].to_numpy(), "gap_us": col})

    from alco_ray.stages import enforce_schema

    s = ds.schema()
    id_type = s.types[s.names.index(id_col)]
    out = keyed_apply(ds, key_col, body)
    # Pin Arrow-native int64-with-nulls output: the pandas Int64
    # extension column above hashes as `123`/`<NA>` while the oracle's
    # nullable BIGINT round-trips as `123.0`/`NaN` — driver hash
    # mismatch on identical values (CORRECTNESS_r03 e_event_gaps).
    return enforce_schema(out, {id_col: id_type, "gap_us": pa.int64()})


def grouped_cumsum(ds, *, key_col: str, ts_col: str, id_col: str,
                   val_col: str, out_col: str = "cum"):
    """Per-key RUNNING SUM: inclusive cumulative sum of ``val_col``
    (int64) over (ts, id) order within each key — SQL ``sum(val) OVER
    (PARTITION BY key ORDER BY ts, id ROWS UNBOUNDED PRECEDING)``.
    Unlike stages/scan.ordered_prefix_sum (ONE global order, block-
    ordered input) this is the per-group variant over arbitrary input."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, end, _ = _sort_segments(g, key_col, ts_col, id_col)
        vals = s[val_col].to_numpy().astype(np.int64)
        return pd.DataFrame({id_col: s[id_col].to_numpy(),
                             out_col: _frame_sum(vals, start, end, None, 0)})

    return keyed_apply(ds, key_col, body)


def grouped_dense_rank(ds, *, key_col: str, val_col: str, id_col: str,
                       out_col: str = "drank"):
    """Per-key DENSE_RANK over ``val_col`` (int64; ties share a rank,
    no gaps) — SQL ``dense_rank() OVER (PARTITION BY key ORDER BY val
    DESC)``: one sorted frame, the rank is the running count of value
    changes within each key."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[val_col].to_numpy().astype(np.int64)
        s, start, end, _ = _sort_segments(g, key_col, -vals)
        v = s[val_col].to_numpy().astype(np.int64)
        bump = np.zeros(len(v), np.int64)
        bump[1:] = v[1:] != v[:-1]
        bump[start] = 0
        return pd.DataFrame({id_col: s[id_col].to_numpy(),
                             out_col: _frame_sum(bump, start, end, None, 0)
                             + 1})

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
    match); the last right row at or before each row
    (:func:`_last_flagged`) answers every probe at once, and the
    matched value is a single vectorized gather.  No per-key loop, no
    row multiplication, shuffle volume = |L| + |R| exactly once."""
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
        if not (g["__side"] == 1).any():
            # dtype-preserving empty output (object-dtype empties would
            # break Arrow schema unification across frames)
            return pd.DataFrame({left_id_col: g["__id"].iloc[:0],
                                 out_col: g["__val"].iloc[:0]})
        s, start, _, _ = _sort_segments(g, key_col, ts_col, "__side")
        side = s["__side"].to_numpy()
        pos = _last_flagged(side == 0, start)
        left = side == 1
        lpos = pos[left]
        vals = s["__val"].iloc[np.maximum(lpos, 0)].reset_index(drop=True)
        vals[lpos < 0] = None
        return pd.DataFrame({
            left_id_col: s["__id"].iloc[left].reset_index(drop=True),
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
        s, start, _, _ = _sort_segments(g, key_col, order_col)
        vals = s[val_col].to_numpy()
        not_first = np.arange(len(vals)) != start
        d = pd.DataFrame({from_col: np.roll(vals, 1)[not_first],
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
                val_col: str, n: int = 3, sep: str = ">") -> pa.Table:
    """Order-``n`` PATH counts — the user-journey generalization of
    :func:`transition_counts`: for every run of ``n`` CONSECUTIVE
    rows of the same key (``order_cols`` order), count the joined
    value path ``v1>v2>...>vn`` (SQL: n-1 stacked ``lead()`` windows
    then GROUP BY): a (path, cnt) table.  Same keyed shape: one
    :func:`keyed_apply` over the key, pre-aggregated (path, cnt)
    partials, bounded-domain driver fold (|value domain|^n rows —
    event types, roles, levels; unbounded values would feed a second
    :func:`keyed_apply` instead)."""
    from functools import reduce

    def body(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < n:
            return pd.DataFrame({"path": np.array([], object),
                                 "cnt": np.array([], np.int64)})
        s, _, end, _ = _sort_segments(g, key_col, *order_cols)
        vals = s[val_col].to_numpy().astype(object)
        m = len(vals) - n + 1
        # a window is one key's when it ends inside its first row's key
        same = np.arange(m) + n <= end[:m]
        paths = reduce(lambda a, k: a + sep + vals[k: m + k],
                       range(1, n), vals[:m])[same]
        out = pd.DataFrame({"path": paths}) \
            .groupby("path", as_index=False).size() \
            .rename(columns={"size": "cnt"})
        out["cnt"] = out["cnt"].astype("int64")
        return out

    from .aggregate import fold_partials

    return fold_partials(keyed_apply(ds, key_col, body), ["path"],
                         [("cnt", "sum")],
                         empty_schema=pa.schema([("path", pa.string()),
                                                 ("cnt", pa.int64())]))


def debounce(ds, *, key_col: str, ts_col: str, id_col: str,
             cooldown: int):
    """GREEDY DEBOUNCE / alert suppression (the log-pipeline storm
    breaker): per key, keep an event iff its timestamp is >= the last
    KEPT event's timestamp + ``cooldown`` (the first event of a key
    is always kept).  This is the inherently-SEQUENTIAL streaming
    state machine (which event is kept depends on which were kept
    before), so no window function expresses it — but it vectorizes
    by ROUNDS: round r keeps the r-th survivor of every key at once
    (one :func:`_time_seek` per round).  Round count is bounded by
    span/cooldown — the DATA DURATION, not the row count — so the
    kernel stays O(rounds x log n) vector ops even on a year of
    events.

    ``ts_col`` must be integer-valued (cast timestamps upstream).
    Runs per key-hash frame; returns the kept rows, all input
    columns."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, end, sid = _sort_segments(g, key_col, ts_col, id_col)
        ts = s[ts_col].to_numpy().astype(np.int64)
        seek = _time_seek(ts, start, end, sid)
        kept = np.zeros(len(s), bool)
        active = np.unique(start)
        while len(active):
            kept[active] = True
            nxt = seek(active, ts[active] + cooldown, "left")
            active = nxt[nxt < end[active]]
        return s.iloc[kept]

    return keyed_apply(ds, key_col, body)


def adjacent_pairs(ds, *, key_col: str, order_col: str,
                   role_col: str | None = None,
                   text_col: str, from_role: str | None = None,
                   to_role: str | None = None):
    """CONSECUTIVE-ROW PAIR EXTRACTION: for every pair of adjacent
    rows of the same key whose ``order_col`` values differ by exactly 1
    (a missing middle turn breaks the pair), where the first row's
    ``role_col`` is ``from_role`` and the next row's is ``to_role``,
    emit (key, first row's order, ``prompt`` = first text,
    ``response`` = next text) — the SFT training-pair extractor (user
    turn -> the assistant turn that answers it), and generically any
    stimulus->response adjacency (SQL ``lead() OVER (PARTITION BY key
    ORDER BY ord)`` + a two-row predicate).

    ``role_col``/``from_role``/``to_role`` of None disable the role
    predicate (EVERY positional adjacency pairs — the self-repetition
    / drift analyses).  Runs once per key-hash frame
    (:func:`keyed_apply`); output rows only (never the non-matching
    corpus)."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, _, end, _ = _sort_segments(g, key_col, order_col)
        ordv = s[order_col].to_numpy()
        txt = s[text_col].to_numpy()
        i = np.arange(len(s) - 1)
        ok = (i + 1 < end[i]) & (ordv[i + 1] == ordv[i] + 1)
        if role_col is not None:
            roles = s[role_col].to_numpy()
            ok = (ok & (roles[i] == from_role)
                  & (roles[i + 1] == to_role))
        i = i[ok]
        return pd.DataFrame({key_col: s[key_col].to_numpy()[i],
                             order_col: ordv[i],
                             "prompt": txt[i], "response": txt[i + 1]})

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
    reduce levels are vectorized sorts — no per-key Python."""
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
        s, start, end, _ = _sort_segments(g, key_col, ts_col, id_col)
        first = np.unique(start)
        f, last = s.iloc[first], s.iloc[end[first] - 1]
        return pd.DataFrame({
            key_col: f[key_col].to_numpy(),
            "f_ts": f[ts_col].to_numpy().astype("datetime64[us]"),
            "f_id": f[id_col].to_numpy().astype(np.int64),
            "f_val": f[val_col].to_numpy(),
            "l_ts": last[ts_col].to_numpy().astype("datetime64[us]"),
            "l_id": last[id_col].to_numpy().astype(np.int64),
            "l_val": last[val_col].to_numpy(),
            "cnt": (end[first] - first).astype(np.int64),
        })

    def fold(g: pd.DataFrame) -> pd.DataFrame:
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
                payload_col: str):
    """Broadcast AS-OF lookup against a SMALL dimension (the
    slowly-changing-dimension enrichment: effective exchange rate /
    price / config at event time): the dimension — already deduped to
    ONE row per effective timestamp by the caller — is sorted and
    broadcast once via ``ray.put``; each fact batch finds its row with
    one vectorized ``searchsorted`` (last dim ts at-or-before the
    fact ts; null when none precedes) and gains it as ``payload_col``.

    This is the broadcast DUAL of :func:`asof_join`: identical
    semantics, opposite plan — the fact side never shuffles, so it is
    the right shape whenever the dimension fits memory (an SCD table
    at 100 TB fact scale almost always does).  Callers with a
    fact-sized right side use :func:`asof_join`."""
    import ray

    d = dim.sort_by([(dim_ts_col, "ascending")])
    dts = _micros(d[dim_ts_col].to_numpy(zero_copy_only=False))
    if len(np.unique(dts)) != len(dts):
        raise ValueError("asof_lookup dimension must hold one row per "
                         f"distinct {dim_ts_col}; pre-aggregate ties")
    payload = d[payload_col].combine_chunks() if isinstance(
        d[payload_col], pa.ChunkedArray) else d[payload_col]
    ref = ray.put((dts, payload))

    def enrich(b: pa.Table) -> pa.Table:
        dim_ts, vals = ray.get(ref)
        ts = _micros(b[ts_col].to_numpy(zero_copy_only=False))
        idx = np.searchsorted(dim_ts, ts, side="right") - 1
        has = idx >= 0
        take = pa.array(np.where(has, idx, 0), pa.int64())
        got = pc.take(vals, take)
        got = pc.if_else(pa.array(has), got, pa.scalar(None, vals.type))
        return b.append_column(payload_col, got)

    return ds.map_batches(enrich, batch_format="pyarrow")


def grouped_range_count(ds, *, key_col: str, ts_col: str, id_col: str,
                        interval_us: int, out_col: str = "n_range"):
    """Per-key TIME-RANGE frame count: for every row, the number of
    same-key rows with ``ts`` in ``[ts - interval, ts]`` — SQL
    ``count(*) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    INTERVAL x PRECEDING AND CURRENT ROW)``, the rate-limit /
    burst-detection frame.  RANGE semantics: peers (equal ts) are IN
    the frame regardless of position, unlike the ROWS frames above.

    Kernel: one sorted frame, two :func:`_time_seek` probes per row —
    no per-segment Python loop."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, end, sid = _sort_segments(g, key_col, ts_col, id_col)
        ts = _micros(s[ts_col])
        seek = _time_seek(ts, start, end, sid)
        rows = np.arange(len(ts))
        return pd.DataFrame({
            id_col: s[id_col].to_numpy(),
            out_col: (seek(rows, ts, "right")
                      - seek(rows, ts - interval_us, "left"))})

    return keyed_apply(ds, key_col, body)


def grouped_rolling_sum(ds, *, key_col: str, ts_col: str, id_col: str,
                        val_col: str, frame: int = 3,
                        out_col: str = "roll"):
    """Per-key BOUNDED-FRAME running sum: sum of ``val_col`` over the
    current row and the ``frame - 1`` preceding rows of the same key
    in (ts, id) order — SQL ``sum(val) OVER (PARTITION BY key ORDER BY
    ts, id ROWS BETWEEN frame-1 PRECEDING AND CURRENT ROW)``, the
    trailing-window feature (recent spend, burst detection)."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        s, start, end, _ = _sort_segments(g, key_col, ts_col, id_col)
        vals = s[val_col].to_numpy().astype(np.int64)
        return pd.DataFrame({id_col: s[id_col].to_numpy(),
                             out_col: _frame_sum(vals, start, end,
                                                 frame - 1, 0)})

    return keyed_apply(ds, key_col, body)


def _by_day(ds, key_col: str, ts_col: str, cols: list[str], fill):
    """:func:`keyed_apply` of ``fill`` over ``ds`` projected to
    (``key_col``, epoch day ``d`` of ``ts_col``, *``cols``)."""

    def prep(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.floor_temporal(b[ts_col], unit="day"),
                       pa.timestamp("us"))
        epoch_days = pc.divide(pc.cast(days, pa.int64()),
                               pa.scalar(86_400_000_000, pa.int64()))
        return pa.table({key_col: b[key_col], "d": epoch_days,
                         **{c: b[c] for c in cols}})

    return keyed_apply(ds.map_batches(prep, batch_format="pyarrow"),
                       key_col, fill)


def _dense_days(g: pd.DataFrame, key_col: str, *order):
    """The dense-day expansion of a frame of (key, epoch day ``d``)
    rows: every key gets one dense row per calendar day of its
    [first, last] day span, built from one global ``arange`` minus
    per-key offsets (no per-key Python).

    Returns the frame sorted by (key, d, *order), the first row of each
    (key, day) run, each run's dense row, the dense (key, ``day``
    string) frame, and each dense row's key's first dense row."""
    s, start, end, sid = _sort_segments(g, key_col, "d", *order)
    d = s["d"].to_numpy().astype(np.int64)
    first = np.arange(len(d)) == start
    first[1:] |= d[1:] != d[:-1]
    runs = np.flatnonzero(first)
    keys = np.unique(start)
    lo = d[keys]
    span = d[end[keys] - 1] - lo + 1
    offs = np.concatenate(([0], np.cumsum(span)))
    owner = np.repeat(np.arange(len(keys)), span)  # key of each dense row
    key_start = offs[owner]
    day = np.arange(offs[-1], dtype=np.int64) - key_start + lo[owner]
    dense = pd.DataFrame({
        key_col: s[key_col].to_numpy()[keys][owner],
        "day": np.datetime_as_string(day.astype("datetime64[D]"),
                                     unit="D").astype(object)})
    pos = offs[sid[runs]] + d[runs] - lo[sid[runs]]
    return s, runs, pos, dense, key_start


def densify_daily(ds, key_col: str, ts_col: str):
    """GAP FILLING / densification: per key, one row for EVERY calendar
    day in that key's [min(ts), max(ts)] span with the day's event
    count ``n_events`` (0 for silent days) — the time-series
    regularization step before rolling features or resampled training
    snapshots.  Key-hash frames (a key's span is frame-local), one
    :func:`_dense_days` per frame, counts scattered into the dense
    frame by computed index.  Output rows = sum of span lengths; day
    rides as a string so engines agree on the type exactly."""

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        s, runs, pos, dense, _ = _dense_days(g, key_col)
        n = np.zeros(len(dense), np.int64)
        n[pos] = np.diff(np.append(runs, len(s)))
        dense["n_events"] = n
        return dense

    return _by_day(ds, key_col, ts_col, [], fill)


def locf_daily(ds, key_col: str, ts_col: str, id_col: str,
               val_col: str):
    """Densify + LAST-OBSERVATION-CARRIED-FORWARD: per key, one row
    per calendar day in the key's span carrying the day's LAST value
    ((ts, id) order) forward over silent days as ``cents`` — the
    feature-snapshot regularization step (:func:`densify_daily` gives
    the counts; this gives the state).  ``val_col`` must be
    integer-exact (cents).

    Kernel: the dense frame of :func:`_dense_days`, each (key, day)'s
    closing value scattered into it, and the fill is the last observed
    dense row at or before each row (:func:`_last_flagged`).  Every
    key's first dense day has an observation by construction (the span
    STARTS at an observed day), so the output has no nulls."""

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        s, runs, pos, dense, key_start = _dense_days(g, key_col, ts_col,
                                                     id_col)
        v = s[val_col].to_numpy().astype(np.int64)
        vals = np.zeros(len(dense), np.int64)
        has = np.zeros(len(dense), bool)
        vals[pos] = v[np.append(runs[1:], len(s)) - 1]
        has[pos] = True
        dense["cents"] = vals[_last_flagged(has, key_start)]
        return dense

    return _by_day(ds, key_col, ts_col, [ts_col, id_col, val_col], fill)


def coalesce_intervals(ds, key_col: str, ts_col: str, id_col: str):
    """INTERVAL COALESCING (union of overlapping intervals per key):
    each row spans ``[ts - BUSY_PAD_US, ts + BUSY_PAD_US]``;
    touching/overlapping spans of one key merge into maximal islands —
    the generic primitive behind "busy periods", on-call coverage,
    downtime merging (gap-based :func:`sessionize` is the point-event
    special case).  Returns (key, start_ts, end_ts, n_events) per
    island.

    Kernel: one sorted frame; with fixed ±W spans the interval END is
    monotone within a key, so an island break is simply ``start >
    previous end`` — one shifted compare, then run-bound gathers.  No
    per-key Python."""
    pad = BUSY_PAD_US  # captured here: tasks see the caller's value

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({key_col: b[key_col],
                         "t": pc.cast(b[ts_col], pa.int64()),
                         id_col: b[id_col]})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        s, start, _, _ = _sort_segments(g, key_col, "t", id_col)
        t = s["t"].to_numpy().astype(np.int64)
        lo, hi = t - pad, t + pad
        brk = np.arange(len(t)) == start
        brk[1:] |= lo[1:] > hi[:-1]
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(t)) - 1
        return pd.DataFrame({
            key_col: s[key_col].to_numpy()[starts],
            "start_ts": lo[starts].view("datetime64[us]"),
            "end_ts": hi[ends].view("datetime64[us]"),
            "n_events": (ends - starts + 1).astype(np.int64)})

    return keyed_apply(ds.map_batches(prep, batch_format="pyarrow"),
                       key_col, merge)
