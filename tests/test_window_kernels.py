"""Property tests (hypothesis) for the segmented window kernels.

The Ray plumbing around these kernels is pinned by the DuckDB oracle
queries; these tests hammer the pure numpy kernels themselves with
randomized segment layouts, which is where off-by-one window clamping
and segment-reset bugs live.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alco_ray.stages.window import (_dense_days, _frame_sum, _last_flagged,
                                    _segment_bounds, _session_ids,
                                    _time_seek)

segments = st.lists(st.integers(min_value=1, max_value=15),
                    min_size=1, max_size=8)


def _layout(seg_lens, rng_seed):
    rng = np.random.RandomState(rng_seed)
    keys = np.repeat(np.arange(len(seg_lens)), seg_lens)
    flags = rng.randint(0, 2, size=len(keys)).astype(np.int64)
    return keys, flags


@given(seg_lens=segments, before=st.one_of(st.none(), st.integers(0, 4)),
       after=st.integers(0, 4), seed=st.integers(0, 999))
@settings(max_examples=150, deadline=None)
def test_windowed_flag_sum_matches_bruteforce(seg_lens, before, after, seed):
    keys, flags = _layout(seg_lens, seed)
    seg_start, seg_end, _ = _segment_bounds(keys)
    got = _frame_sum(flags, seg_start, seg_end, before, after)
    for i in range(len(keys)):
        lo = seg_start[i] if before is None else max(i - before,
                                                     seg_start[i])
        hi = min(i + after, seg_end[i] - 1)
        assert got[i] == flags[lo:hi + 1].sum()


@given(seg_lens=segments, seed=st.integers(0, 999))
@settings(max_examples=150, deadline=None)
def test_asof_carry_matches_bruteforce(seg_lens, seed):
    keys, flags = _layout(seg_lens, seed)
    seg_start, _, _ = _segment_bounds(keys)
    got = _last_flagged(flags.astype(bool), seg_start)
    # brute force: last flagged position at-or-before, per segment
    last = {}
    for i in range(len(keys)):
        k = keys[i]
        if flags[i]:
            last[k] = i
        assert got[i] == last.get(k, -1)


@given(seg_lens=segments, gap=st.integers(1, 10), seed=st.integers(0, 999))
@settings(max_examples=150, deadline=None)
def test_session_cumsum_rebase_matches_bruteforce(seg_lens, gap, seed):
    keys, _ = _layout(seg_lens, seed)
    rng = np.random.RandomState(seed + 2)
    deltas = rng.randint(0, 15, size=len(keys)).astype(np.int64)
    ts = np.concatenate([np.cumsum(deltas[keys == k])
                         for k in range(len(seg_lens))])
    seg_start, seg_end, _ = _segment_bounds(keys)
    n = len(keys)
    got = _session_ids(ts, seg_start, seg_end, gap)
    # brute force per segment
    expect = np.zeros(n, dtype=np.int64)
    for k in range(len(seg_lens)):
        rows = np.flatnonzero(keys == k)
        sid = 0
        for j, r in enumerate(rows):
            if j > 0 and ts[r] - ts[rows[j - 1]] > gap:
                sid += 1
            expect[r] = sid
    assert np.array_equal(got, expect)


@given(seg_lens=segments, big=st.booleans(), sides=st.lists(
    st.tuples(st.integers(-30, 30), st.sampled_from(["left", "right"]),
              st.booleans()), min_size=1, max_size=4),
       seed=st.integers(0, 999))
@settings(max_examples=150, deadline=None)
def test_time_seek_matches_per_key_loop(seg_lens, big, sides, seed):
    """The time seek against a per-key scan, over times near 2^62
    too, where the composite timeline overflows and each segment is
    searched on its own."""
    rng = np.random.RandomState(seed)
    keys = np.repeat(np.arange(len(seg_lens)), seg_lens)
    scale = np.int64(1) << 57 if big else np.int64(1)
    ts = np.concatenate([np.sort(rng.randint(0, 25, size=m))
                         for m in seg_lens]).astype(np.int64) * scale
    seek = _time_seek(ts, *_segment_bounds(keys))
    for delta, side, every in sides:
        rows = np.arange(len(ts)) if every else \
            np.flatnonzero(rng.randint(0, 2, size=len(ts)))
        t = ts[rows] + delta * scale
        got = seek(rows, t, side)
        for j, r in enumerate(rows):
            seg = np.flatnonzero(keys == keys[r])
            hit = [p for p in seg
                   if (ts[p] >= t[j] if side == "left" else ts[p] > t[j])]
            assert got[j] == (hit[0] if hit else seg[-1] + 1)


@given(rows=st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 12)),
                     min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_dense_days_match_per_key_loop(rows):
    """The dense-day expansion against a per-key loop: one dense row
    per day of each key's span, each (key, day) run mapped to its
    dense row, and each dense row to its key's first dense row."""
    import pandas as pd

    g = pd.DataFrame({"k": [k for k, _ in rows],
                      "d": np.array([d for _, d in rows], np.int64)})
    s, runs, pos, dense, key_start = _dense_days(g, "k")

    assert s[["k", "d"]].values.tolist() == sorted(map(list, rows))
    want, first = [], []
    for k in sorted({k for k, _ in rows}):
        days = [d for k2, d in rows if k2 == k]
        first += [len(want)] * (max(days) - min(days) + 1)
        want += [(k, str(np.datetime64(d, "D")))
                 for d in range(min(days), max(days) + 1)]
    assert list(zip(dense["k"], dense["day"])) == want
    assert key_start.tolist() == first
    pairs = sorted(set(rows))
    assert list(zip(s["k"].iloc[runs], s["d"].iloc[runs])) == pairs
    assert [want[p] for p in pos] == [
        (k, str(np.datetime64(d, "D"))) for k, d in pairs]


@pytest.mark.parametrize("op", ["debounce", "nearby_count",
                                "grouped_range_count"])
def test_time_operators_survive_composite_overflow(op):
    """Five keys whose events sit at 0, 10 and 2^61 put each frame's
    composite (key, time) timeline past int64: every operator must
    still answer as a per-key loop does, through the per-segment
    seek."""
    import pandas as pd
    import ray.data

    from alco_ray.stages import window

    n_keys, width = 5, 10
    df = pd.DataFrame({"k": np.repeat(np.arange(n_keys), 3),
                       "ts": np.tile(np.array([0, 10, 1 << 61],
                                              np.int64), n_keys),
                       "i": np.arange(3 * n_keys, dtype=np.int64)})
    ds = ray.data.from_pandas(df.sample(frac=1, random_state=1)) \
        .repartition(3)
    want = {}
    for k, grp in df.groupby("k"):
        ts, ids = grp["ts"].to_numpy(), grp["i"].to_numpy()
        for t, i in zip(ts, ids):
            if op == "nearby_count":
                want[i] = int((abs(ts - t) <= width).sum()) - 1
            elif op == "grouped_range_count":
                want[i] = int(((ts >= t - width) & (ts <= t)).sum())
        if op == "debounce":
            last = None
            for t, i in sorted(zip(ts, ids)):
                if last is None or t >= last + width:
                    want[i], last = True, t

    if op == "debounce":
        out = window.debounce(ds, key_col="k", ts_col="ts", id_col="i",
                              cooldown=width).to_pandas()
        got = dict.fromkeys(out["i"], True)
    elif op == "nearby_count":
        out = window.nearby_count(ds, key_col="k", ts_col="ts",
                                  id_col="i", radius_us=width).to_pandas()
        got = dict(zip(out["i"], out["n_nearby"]))
    else:
        out = window.grouped_range_count(
            ds, key_col="k", ts_col="ts", id_col="i",
            interval_us=width).to_pandas()
        got = dict(zip(out["i"], out["n_range"]))
    assert got == want


@pytest.mark.parametrize("frame_rows", [None, 7],
                         ids=["block_frames", "frame_rows_7"])
def test_keyed_apply_never_calls_a_kernel_on_an_empty_frame(frame_rows,
                                                            monkeypatch):
    """The contract the kernels rely on: every call gets a non-empty
    frame, also over blocks a filter emptied, and a zero-row input
    calls the kernel zero times."""
    import pandas as pd
    import ray.data

    from alco_ray.stages import window

    if frame_rows is not None:
        monkeypatch.setattr(window, "FRAME_ROWS", frame_rows)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"rows": [len(g)]})

    # range blocks hold consecutive ids, so the filter empties the
    # first five of the eight
    ds = ray.data.range(800, override_num_blocks=8) \
        .filter(expr="id >= 500")
    got = pd.DataFrame(window.keyed_apply(ds, "id", kernel).take_all())
    assert got["rows"].min() > 0 and got["rows"].sum() == 300

    empty = ray.data.range(800, override_num_blocks=8) \
        .filter(expr="id < 0")
    assert window.keyed_apply(empty, "id", kernel).take_all() == []


def test_adjacent_pairs_brute_force():
    """adjacent_pairs == Python brute force, at block layouts that
    split a conversation mid-stream (the key shuffle reunites it) and
    with every non-pair shape present: user at conv end, user->tool,
    turn_idx gap, assistant->user reversed."""
    import pyarrow as pa
    import ray.data

    from alco_ray.stages import window

    rows = []
    # conv a: u->a pair, then a->u (no), then u at end (no)
    rows += [("a", 0, "user", "q1"), ("a", 1, "assistant", "r1"),
             ("a", 2, "user", "q2")]
    # conv b: u->tool (no), tool->a (no), u->a pair
    rows += [("b", 0, "user", "q3"), ("b", 1, "tool", "t1"),
             ("b", 2, "user", "q4"), ("b", 3, "assistant", "r4")]
    # conv c: turn_idx GAP between user and assistant -> no pair
    rows += [("c", 0, "user", "q5"), ("c", 2, "assistant", "r5")]
    # conv d: two pairs back to back
    rows += [("d", 0, "user", "q6"), ("d", 1, "assistant", "r6"),
             ("d", 2, "user", "q7"), ("d", 3, "assistant", "r7")]
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows])})

    want = set()
    by_conv = {}
    for cid, tidx, role, txt in rows:
        by_conv.setdefault(cid, []).append((tidx, role, txt))
    for cid, ts in by_conv.items():
        ts.sort()
        for (t0, r0, x0), (t1, r1, x1) in zip(ts, ts[1:]):
            if r0 == "user" and r1 == "assistant" and t1 == t0 + 1:
                want.add((cid, t0, x0, x1))

    for nblocks in (1, 4):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        got = {(r["conv_id"], r["turn_idx"], r["prompt"], r["response"])
               for r in window.adjacent_pairs(
                   ds, key_col="conv_id", order_col="turn_idx",
                   role_col="role", text_col="text",
                   from_role="user", to_role="assistant").take_all()}
        assert got == want, nblocks


def test_debounce_matches_sequential_brute_force(small_frames):
    """The vectorized-rounds debounce == the sequential greedy state
    machine, at several partitionings, with ties, long storms, and a
    key whose every event is kept."""
    import pyarrow as pa
    import ray.data

    from alco_ray.stages import window

    rows = []
    # key 1: storm — 10 events 1s apart, cooldown 5s
    rows += [(1, 1_000_000 * i, 100 + i) for i in range(10)]
    # key 2: all spaced >= cooldown -> all kept
    rows += [(2, 10_000_000 * i, 200 + i) for i in range(4)]
    # key 3: exact-boundary ties (two events same ts, then +cooldown)
    rows += [(3, 0, 300), (3, 0, 301), (3, 5_000_000, 302),
             (3, 9_999_999, 303), (3, 15_000_000, 304)]
    cool = 5_000_000

    want = set()
    by_k = {}
    for k, t, i in rows:
        by_k.setdefault(k, []).append((t, i))
    for k, evs in by_k.items():
        evs.sort()
        last = None
        for t, i in evs:
            if last is None or t >= last + cool:
                want.add(i)
                last = t

    tbl = pa.table({"k": pa.array([r[0] for r in rows], pa.int64()),
                    "t": pa.array([r[1] for r in rows], pa.int64()),
                    "i": pa.array([r[2] for r in rows], pa.int64())})
    for nblocks in (1, 3):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        got = {r["i"] for r in window.debounce(
            ds, key_col="k", ts_col="t", id_col="i",
            cooldown=cool).take_all()}
        assert got == want, nblocks


@pytest.mark.parametrize("frame_rows", [None, 7],
                         ids=["block_frames", "frame_rows_7"])
@pytest.mark.parametrize("keys", ["k", ["k", "j"]], ids=["one", "multi"])
def test_keyed_apply_contract(keys, frame_rows, monkeypatch):
    """keyed_apply hands each kernel call whole key groups with only
    the input columns, matches a pandas groupby, and maps an empty
    input to no rows, with whole blocks as frames and with small
    frames."""
    import uuid

    import pandas as pd
    import ray

    from alco_ray.stages import window

    if frame_rows is not None:
        monkeypatch.setattr(window, "FRAME_ROWS", frame_rows)
    cols = [keys] if isinstance(keys, str) else keys
    rng = np.random.default_rng(7)
    n = 3000
    df = pd.DataFrame({"k": rng.integers(0, 97, n),
                       "j": rng.choice(["a", "b", "c"], n),
                       "v": rng.integers(0, 1000, n)})

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(cols, as_index=False).agg(
            n=("v", "size"), s=("v", "sum"))
        out["call"] = uuid.uuid4().hex
        out["cols"] = ",".join(g.columns)
        return out

    ds = ray.data.from_pandas(df).repartition(8)
    got = pd.DataFrame(window.keyed_apply(ds, keys, kernel).take_all())

    assert (got["cols"] == "k,j,v").all()
    # one output row per key means no key was split across two calls
    assert not got.duplicated(cols).any()
    assert got["call"].nunique() > 1
    want = df.groupby(cols, as_index=False).agg(n=("v", "size"),
                                                s=("v", "sum"))
    pd.testing.assert_frame_equal(
        got[cols + ["n", "s"]].sort_values(cols).reset_index(drop=True),
        want.sort_values(cols).reset_index(drop=True), check_dtype=False)

    empty = ray.data.from_pandas(df.iloc[:0])
    assert window.keyed_apply(empty, keys, kernel).take_all() == []


def test_keyed_apply_frames_hold_whole_groups(monkeypatch):
    """Frames are runs of whole key groups of at most FRAME_ROWS rows;
    a larger group is a frame of its own.  The answer does not depend
    on the frame size."""
    import uuid

    import pandas as pd
    import ray

    from alco_ray.stages import window

    rng = np.random.default_rng(11)
    small = np.repeat(np.arange(60), rng.integers(1, 4, 60))
    keys = np.concatenate([small, np.full(20, 999)])
    df = pd.DataFrame({"k": keys, "v": rng.integers(0, 100, len(keys))})
    ds = ray.data.from_pandas(df.sample(frac=1, random_state=3)) \
        .repartition(4)

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", as_index=False).agg(n=("v", "size"),
                                                 s=("v", "sum"))
        out["frame"] = uuid.uuid4().hex
        out["frame_rows"] = len(g)
        return out

    def run() -> pd.DataFrame:
        return pd.DataFrame(window.keyed_apply(ds, "k", kernel).take_all())

    whole = run()
    monkeypatch.setattr(window, "FRAME_ROWS", 7)
    framed = run()

    assert not framed.duplicated("k").any()  # no key in two frames
    frames = framed.groupby("frame").agg(rows=("frame_rows", "first"),
                                         groups=("k", "size"),
                                         n=("n", "sum"))
    assert (frames["rows"] == frames["n"]).all()
    assert (frames.loc[frames["rows"] > 7, "groups"] == 1).all()
    assert frames["rows"].max() == 20        # the big group went whole
    assert (frames["groups"] > 1).any()      # small groups share frames
    assert len(frames) > whole["frame"].nunique()
    pd.testing.assert_frame_equal(
        framed[["k", "n", "s"]].sort_values("k").reset_index(drop=True),
        whole[["k", "n", "s"]].sort_values("k").reset_index(drop=True))


@given(lens=st.lists(st.integers(0, 9), max_size=8), k=st.integers(1, 6),
       seed=st.integers(0, 999))
@settings(max_examples=200, deadline=None)
def test_text_row_kernels_match_per_row_loop(lens, k, seed):
    """text.py's per-row kernels against a literal loop over each row:
    the window enumerator, the window hash, the per-row distinct (with
    run lengths) and the per-row reduce, over rows shorter than k and
    empty rows too."""
    from collections import Counter

    from alco_ray.stages.text import (_TRIGRAM_B, _distinct_per_row,
                                      _poly, _reduce_rows, _windows,
                                      segmented_window_hashes)

    rng = np.random.RandomState(seed)
    offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    # a 3-letter alphabet, so windows repeat inside a row
    vals = rng.randint(0, 3, size=int(offs[-1])).astype(np.uint64)

    def horner(w):
        h = int(w[0])
        for v in w[1:]:
            h = (h * int(_TRIGRAM_B) + int(v)) % (1 << 64)
        return h

    windows = [(int(offs[r]) + p, r, p)
               for r, n in enumerate(lens) for p in range(n - k + 1)]
    starts, row, pos = _windows(offs, k)
    assert list(zip(starts.tolist(), row.tolist(), pos.tolist())) == windows

    win = _poly(vals, k, _TRIGRAM_B, starts)
    assert win.tolist() == [horner(vals[s:s + k]) for s, _, _ in windows]

    per_row = [Counter(horner(vals[s:s + k]) for s, r2, _ in windows
                       if r2 == r) for r in range(len(lens))]
    want = [(r, h, c) for r, cnt in enumerate(per_row)
            for h, c in sorted(cnt.items())]
    d_row, d_val, d_run = _distinct_per_row(row, win)
    assert list(zip(d_row.tolist(), d_val.tolist(), d_run.tolist())) == want
    h, hoffs = segmented_window_hashes(vals, offs, k, _TRIGRAM_B)
    assert [h[hoffs[r]:hoffs[r + 1]].tolist() for r in range(len(lens))] \
        == [sorted(cnt) for cnt in per_row]

    rows = [vals[offs[r]:offs[r + 1]] for r in range(len(lens))]
    assert _reduce_rows(np.add, vals, offs, 7).tolist() == \
        [int(x.sum()) if len(x) else 7 for x in rows]
    assert _reduce_rows(np.minimum, vals, offs, 9).tolist() == \
        [int(x.min()) if len(x) else 9 for x in rows]
