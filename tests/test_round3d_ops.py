"""Round-3d operators: correlation moments, mode, ntile, exact
distinct-count.

Each operator is compared against an independent brute force (numpy /
pandas) on a small randomized multi-block input — the driver's DuckDB
oracle pins the same semantics at sf0.01; these tests pin them at
commit time with adversarial layouts (tied mode counts, n % k != 0
tiles).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _table(seed: int = 11, n: int = 500):
    rng = np.random.RandomState(seed)
    return pa.table({
        "grp": pa.array(rng.choice(["a", "b", "c"], n)),
        "x": pa.array(rng.randint(0, 1000, n).astype(np.int64)),
        "y": pa.array(rng.randint(-200, 200, n).astype(np.int64)),
        "id": pa.array(np.arange(n, dtype=np.int64)),
    })


@pytest.fixture(scope="module")
def tbl():
    return _table()


def _ds(table, n_blocks: int = 6):
    import ray.data

    return ray.data.from_arrow(table).repartition(n_blocks)


def test_corr_moments_match_numpy(tbl):
    """The moments are the sufficient statistics for Pearson r: r
    computed from them in exact integers matches numpy's."""
    from alco_ray.stages.aggregate import corr_moments

    m = corr_moments(_ds(tbl), "x", "y", "grp")
    assert m.column_names == ["grp", "n", "sx", "sy", "sxy", "sxx", "syy"]
    df = tbl.to_pandas()
    for row in m.to_pylist():
        n, sx, sy = row["n"], row["sx"], row["sy"]
        r = (n * row["sxy"] - sx * sy) / math.sqrt(
            (n * row["sxx"] - sx * sx) * (n * row["syy"] - sy * sy))
        g = df[df["grp"] == row["grp"]]
        assert row["n"] == len(g)
        assert row["sx"] == g["x"].sum()
        assert row["sxy"] == (g["x"] * g["y"]).sum()
        want = np.corrcoef(g["x"], g["y"])[0, 1]
        assert abs(r - want) < 1e-9


def test_mode_by_tiebreak_smallest():
    from alco_ray.stages.aggregate import mode_by

    # a: 7 twice, 3 twice (tie -> 3); b: unique mode 9
    t = pa.table({"grp": ["a", "a", "a", "a", "a", "b", "b", "b"],
                  "v": pa.array([7, 3, 7, 3, 1, 9, 9, 2], pa.int64())})
    out = mode_by(_ds(t, 3), "v", "grp").to_pydict()
    assert out["grp"] == ["a", "b"]
    assert out["mode_value"] == [3, 9]
    assert out["mode_n"] == [2, 2]


def test_mode_by_matches_pandas(tbl):
    from alco_ray.stages.aggregate import mode_by

    out = mode_by(_ds(tbl), "y", "grp").to_pandas()
    df = tbl.to_pandas()
    for _, r in out.iterrows():
        vc = df[df["grp"] == r["grp"]]["y"].value_counts()
        top = vc[vc == vc.max()]
        assert r["mode_n"] == vc.max()
        assert r["mode_value"] == min(top.index)


@pytest.mark.parametrize("n,k", [(10, 4), (12, 4), (3, 5), (100, 7)])
def test_ntile_sql_semantics(n, k):
    from alco_ray.stages.scan import ntile

    t = pa.table({"key": pa.array(np.random.RandomState(n).permutation(n)
                                  .astype(np.int64))})
    out = (ntile(_ds(t, min(4, n)), "key", k)
           .to_pandas().sort_values("key").reset_index(drop=True))
    # SQL NTILE: first n%k tiles have n//k+1 rows, rest n//k
    sizes = [n // k + 1] * (n % k) + [n // k] * (k - n % k)
    want = np.concatenate([[i + 1] * s for i, s in enumerate(sizes)])
    assert (out["tile"].to_numpy() == want[: n]).all()


def test_cube_sums_matches_duckdb(tbl):
    import duckdb

    from alco_ray.stages.aggregate import cube_sums

    got = (cube_sums(_ds(tbl), ["grp", "x"], ["y"])
           .to_pandas())
    con = duckdb.connect()
    con.register("t", tbl.to_pandas())
    want = con.execute(
        "SELECT grp, x, CAST(sum(y) AS BIGINT) AS y, "
        "CAST(count(*) AS BIGINT) AS n_rows "
        "FROM t GROUP BY CUBE (grp, x)").df()
    key = ["grp", "x", "y", "n_rows"]
    g = got[key].sort_values(key).reset_index(drop=True)
    w = want[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


def test_quantiles_disc_matches_single_q(tbl):
    from alco_ray.stages.aggregate import quantile_disc, quantiles_disc

    t = tbl.append_column(
        "fv", pa.array(tbl["y"].to_numpy(zero_copy_only=False) / 100.0))
    multi = quantiles_disc(_ds(t), "fv", [0.25, 0.5, 0.75], "grp",
                           out_prefix="p")
    for q, col in [(0.25, "p25"), (0.5, "p50"), (0.75, "p75")]:
        single = quantile_disc(_ds(t), "fv", q, "grp")
        assert multi[col].to_pylist() == single["q_value"].to_pylist()


def test_grouped_dense_rank_matches_pandas(tbl, small_frames):
    from alco_ray.stages.window import grouped_dense_rank

    got = (grouped_dense_rank(_ds(tbl), key_col="grp", val_col="y",
                              id_col="id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    df = tbl.to_pandas()
    want = (df.groupby("grp")["y"].rank(method="dense", ascending=False)
            .astype(np.int64))
    df = df.assign(drank=want).sort_values("id").reset_index(drop=True)
    assert len(got) == len(df)
    assert (got["drank"].to_numpy() == df["drank"].to_numpy()).all()


@pytest.mark.parametrize("limit", [2_000_000, 0])
def test_runtime_filter_semi_join_both_paths(tbl, limit, monkeypatch):
    # limit=0 forces the hash-shuffle fallback; both paths must agree
    from alco_ray.stages import join
    from alco_ray.stages.join import runtime_filter_semi_join

    monkeypatch.setattr(join, "BROADCAST_LIMIT", limit)
    left = tbl
    keys = pa.table({"k": pa.array([1, 3, 5, 7, 9] * 3, pa.int64())})
    got = (runtime_filter_semi_join(_ds(left), _ds(keys, 2), "x",
                                    right_on="k")
           .to_pandas().sort_values("id").reset_index(drop=True))
    df = left.to_pandas()
    want = (df[df["x"].isin([1, 3, 5, 7, 9])]
            .sort_values("id").reset_index(drop=True))
    assert list(got.columns) == list(want.columns)
    assert (got["id"].to_numpy() == want["id"].to_numpy()).all()


def test_runtime_filter_fallback_prepares_keys_once(tbl, monkeypatch):
    """The hash-shuffle fallback joins the key side the size decision
    already projected and materialized: one ``Project`` plan, then the
    join."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from alco_ray.stages import join
    from alco_ray.stages.join import runtime_filter_semi_join

    monkeypatch.setattr(join, "BROADCAST_LIMIT", 0)
    keys = pa.table({"k": pa.array([1, 3, 5, 7, 9], pa.int64())})
    plans = []
    orig = StreamingExecutor.execute

    def recording(self, dag, *a, **kw):
        plans.append(dag.name)
        return orig(self, dag, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    n = runtime_filter_semi_join(
        ray.data.from_arrow(tbl), ray.data.from_arrow(keys), "x",
        right_on="k").count()
    df = tbl.to_pandas()
    assert n == int(df["x"].isin([1, 3, 5, 7, 9]).sum())
    assert plans == ["Project", "AggregateNumRows"]


def test_runtime_filter_semi_join_empty_keys(tbl):
    from alco_ray.stages.join import runtime_filter_semi_join

    keys = pa.table({"k": pa.array([], pa.int64())})
    got = runtime_filter_semi_join(_ds(tbl), _ds(keys, 1), "x",
                                   right_on="k")
    assert got.count() == 0


def _conv_table() -> pd.DataFrame:
    """30 conversations of 10 turns; every 7th row is an ERROR, and
    roles repeat a 7-row cycle (user, assistant, tool, assistant,
    user, user, assistant) that drifts against the conversations."""
    n = 300
    roles = np.array(["user", "assistant", "tool", "assistant", "user"])
    return pd.DataFrame({
        "conv_id": np.repeat([f"c{i:03d}" for i in range(30)], 10),
        "turn_idx": np.tile(np.arange(10, dtype=np.int64), 30),
        "level": np.where(np.arange(n) % 7 == 0, "ERROR", "INFO"),
        "role": roles[np.arange(n) % 7 % 5],
        "text": [f"t{i}" for i in range(n)],
    })


def _rolling_count(ds, df):
    from alco_ray.stages.window import rolling_count

    got = rolling_count(ds, flag_col="level", flag_value="ERROR",
                        radius=2).to_pandas()
    flag = (df["level"] == "ERROR").astype(np.int64)
    want = df[["conv_id", "turn_idx"]].assign(
        w_count=flag.groupby(df["conv_id"]).transform(
            lambda s: s.rolling(5, center=True, min_periods=1).sum())
        .astype(np.int64))
    return got, want


def _asof_prior(ds, df):
    from alco_ray.stages.window import asof_prior

    got = asof_prior(ds, flag_col="level", flag_value="ERROR").to_pandas()
    hit = df["turn_idx"].where(df["level"] == "ERROR", -1)
    want = df[["conv_id", "turn_idx"]].assign(
        last_match_idx=hit.groupby(df["conv_id"]).cummax()
        .astype(np.int64))
    return got, want


def _context_window(ds, df):
    from alco_ray.stages.window import context_window

    got = context_window(ds, match_col="level", match_value="ERROR",
                         radius=1).to_pandas()
    errs = {(c, t) for c, t, lv in zip(df["conv_id"], df["turn_idx"],
                                       df["level"]) if lv == "ERROR"}
    near = [any((c, t + d) in errs for d in (-1, 0, 1))
            for c, t in zip(df["conv_id"], df["turn_idx"])]
    return got, df.loc[near, ["conv_id", "turn_idx", "level"]]


def _transition_counts(ds, df):
    from alco_ray.stages.window import transition_counts

    got = transition_counts(ds, key_col="conv_id", order_col="turn_idx",
                            val_col="role").to_pandas()
    prev = df.groupby("conv_id")["role"].shift(1)
    want = (pd.DataFrame({"from_val": prev, "to_val": df["role"]})
            .dropna().groupby(["from_val", "to_val"], as_index=False)
            .size().rename(columns={"size": "n"}))
    return got, want.astype({"n": np.int64})


def _path_counts(ds, df):
    from alco_ray.stages.window import path_counts

    got = path_counts(ds, key_col="conv_id", order_cols=["turn_idx"],
                      val_col="role", n=3).to_pandas()
    paths = [">".join(g["role"].iloc[i:i + 3])
             for _, g in df.groupby("conv_id")
             for i in range(len(g) - 2)]
    want = (pd.Series(paths, name="path").value_counts()
            .rename("cnt").reset_index())
    return got, want.astype({"cnt": np.int64})


def _adjacent_pairs(ds, df):
    from alco_ray.stages.window import adjacent_pairs

    got = adjacent_pairs(ds, key_col="conv_id", order_col="turn_idx",
                         role_col="role", text_col="text",
                         from_role="user", to_role="assistant").to_pandas()
    nxt = df.groupby("conv_id")[["role", "text"]].shift(-1)
    hit = (df["role"] == "user") & (nxt["role"] == "assistant")
    want = pd.DataFrame({"conv_id": df["conv_id"][hit],
                         "turn_idx": df["turn_idx"][hit],
                         "prompt": df["text"][hit],
                         "response": nxt["text"][hit]})
    return got, want


@pytest.mark.parametrize("op", [
    _rolling_count, _asof_prior, _context_window, _transition_counts,
    _path_counts, _adjacent_pairs], ids=lambda f: f.__name__[1:])
def test_window_operator_runs_one_plan(op, monkeypatch, small_frames):
    # Block boundaries land mid-conversation (7 blocks of ~43 rows),
    # and so do 25-row frame cuts, so a kernel that ran per block, or
    # a frame that split a key group, would cut windows, pairs and
    # paths at every boundary.  Each
    # operator matches a pandas or brute-force answer and runs ONE
    # Ray Data plan: the key-hash shuffle, consumed once.
    import ray.data
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    df = _conv_table()
    ds = ray.data.from_pandas(df).repartition(7)
    executions = []
    orig = StreamingExecutor.execute

    def counting(self, *a, **kw):
        executions.append(a)
        return orig(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    got, want = op(ds, df)
    assert len(executions) == 1
    assert len(got) > 0
    cols = list(want.columns)
    norm = [x[cols].sort_values(cols).reset_index(drop=True)
            for x in (got, want)]
    pd.testing.assert_frame_equal(*norm)


def test_distinct_count_by_matches_pandas(tbl):
    from alco_ray.stages.aggregate import distinct_count_by

    out = distinct_count_by(_ds(tbl), "y", "grp").to_pandas()
    df = tbl.to_pandas()
    want = df.groupby("grp")["y"].nunique()
    assert dict(zip(out["grp"], out["n_distinct"])) == want.to_dict()
