"""Round-3c operators: pivot, rollup, lag, grouped cumsum, full join.

Each operator is compared against an independent brute-force (pandas
window/groupby or DuckDB GROUP BY ROLLUP) on a small randomized input —
the driver's DuckDB oracle pins the same semantics at sf0.01; these
tests pin them at commit time with adversarial layouts (ties in ts,
single-event keys, keys missing from one join side).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events_table(seed: int = 7, n: int = 400, n_users: int = 23):
    rng = np.random.RandomState(seed)
    ts = (np.int64(1_700_000_000_000_000)
          + rng.randint(0, 3600, n).astype(np.int64) * 1_000_000)
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.randint(0, n_users, n).astype(np.int64)),
        # duplicate timestamps within a user are common: forces the
        # (ts, event_id) tiebreak path
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "event_type": pa.array(rng.choice(
            ["click", "view", "purchase", "signup", "error"], n)),
        "cents": pa.array(rng.randint(-500, 5000, n).astype(np.int64)),
    })


@pytest.fixture(scope="module")
def ev():
    return _events_table()


def _ds(table, n_blocks: int = 5):
    import ray.data

    return ray.data.from_arrow(table).repartition(n_blocks)


def test_lag_delta_matches_pandas(ev, small_frames):
    from alco_ray.stages.window import lag_delta

    got = (lag_delta(_ds(ev), key_col="user_id", ts_col="ts",
                     id_col="event_id")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    df = ev.to_pandas().sort_values(["user_id", "ts", "event_id"])
    prev = df.groupby("user_id")["ts"].shift(1)
    want = ((df["ts"] - prev).dt.total_seconds() * 1e6)
    df = df.assign(gap_us=want).sort_values("event_id")
    g = got["gap_us"].astype("Float64")
    w = pd.array(df["gap_us"].to_numpy(), dtype="Float64")
    assert len(got) == len(df)
    assert (g.isna().to_numpy() == pd.isna(w)).all()
    mask = ~g.isna().to_numpy()
    assert (g.to_numpy(dtype=float)[mask] ==
            np.asarray(w, dtype=float)[mask]).all()


def test_grouped_cumsum_matches_pandas(ev, small_frames):
    from alco_ray.stages.window import grouped_cumsum

    got = (grouped_cumsum(_ds(ev), key_col="user_id", ts_col="ts",
                          id_col="event_id", val_col="cents",
                          out_col="cum")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    df = ev.to_pandas().sort_values(["user_id", "ts", "event_id"])
    df["cum"] = df.groupby("user_id")["cents"].cumsum()
    df = df.sort_values("event_id").reset_index(drop=True)
    assert (got["cum"].to_numpy() == df["cum"].to_numpy()).all()


def test_pivot_counts_matches_pandas(ev):
    from alco_ray.stages.aggregate import pivot_counts

    vals = ["click", "view", "purchase", "signup", "error"]
    got = (pivot_counts(_ds(ev), "user_id", "event_type", vals)
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    df = ev.to_pandas()
    want = (pd.crosstab(df["user_id"], df["event_type"])
            .reindex(columns=vals, fill_value=0))
    for v in vals:
        assert (got[f"n_{v}"].to_numpy() ==
                want[v].to_numpy()).all(), v
    # row counts reconcile: every event counted exactly once
    assert int(got[[f"n_{v}" for v in vals]].to_numpy().sum()) == ev.num_rows


def test_rollup_sums_matches_duckdb(ev):
    import duckdb

    from alco_ray.stages.aggregate import rollup_sums

    t = ev.append_column("flag", pa.array(
        np.where(np.arange(ev.num_rows) % 3 == 0, "A", "B")))
    got = rollup_sums(_ds(t), ["flag", "event_type"], ["cents"]).to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.execute("""
        SELECT flag, event_type, CAST(sum(cents) AS BIGINT) AS cents,
               CAST(count(*) AS BIGINT) AS n_rows
        FROM t GROUP BY ROLLUP (flag, event_type)""").df()
    key = ["flag", "event_type"]
    g = got.sort_values(key, na_position="last").reset_index(drop=True)
    w = want.sort_values(key, na_position="last").reset_index(drop=True)
    assert len(g) == len(w)
    for c in key:
        assert (g[c].isna().to_numpy() == w[c].isna().to_numpy()).all()
        m = ~g[c].isna().to_numpy()
        assert (g[c].to_numpy()[m] == w[c].to_numpy()[m]).all()
    assert (g["cents"].to_numpy() == w["cents"].to_numpy()).all()
    assert (g["n_rows"].to_numpy() == w["n_rows"].to_numpy()).all()


def test_full_outer_join_keeps_both_sides(ev):
    """q_full_join shape on a table engineered so some users click but
    never purchase and vice versa."""
    import pyarrow.compute as pc

    import ray

    df = ev.to_pandas()
    # users 0..4: strip purchases; users 5..9: strip clicks
    drop = (((df.user_id < 5) & (df.event_type == "purchase")) |
            ((df.user_id >= 5) & (df.user_id < 10) &
             (df.event_type == "click")))
    t = pa.Table.from_pandas(df[~drop], preserve_index=False)

    from ray.data.aggregate import Sum

    def side(evt, name):
        def f(b):
            b = b.filter(pc.equal(b["event_type"], evt))
            g = b.group_by(["user_id"]).aggregate([([], "count_all")])
            return g.rename_columns(["user_id", name])
        return f

    ds = _ds(t)
    clicks = (ds.map_batches(side("click", "n_click"),
                             batch_format="pyarrow")
              .groupby("user_id").aggregate(Sum("n_click",
                                               alias_name="n_click")))
    purch = (ds.map_batches(side("purchase", "n_purchase"),
                            batch_format="pyarrow")
             .groupby("user_id").aggregate(Sum("n_purchase",
                                              alias_name="n_purchase")))
    j = clicks.join(purch, "full_outer", num_partitions=2,
                    on=("user_id",)).to_pandas()
    w = df[~drop]
    wc = w[w.event_type == "click"].groupby("user_id").size()
    wp = w[w.event_type == "purchase"].groupby("user_id").size()
    users = set(wc.index) | set(wp.index)
    assert set(j["user_id"]) == users
    j = j.set_index("user_id")
    for u in users:
        assert (0 if pd.isna(j.loc[u, "n_click"])
                else int(j.loc[u, "n_click"])) == int(wc.get(u, 0))
        assert (0 if pd.isna(j.loc[u, "n_purchase"])
                else int(j.loc[u, "n_purchase"])) == int(wp.get(u, 0))


def test_asof_join_matches_merge_asof(ev, small_frames):
    """Two-input as-of join vs pandas merge_asof (backward, inclusive)
    — duplicate timestamps within a user exercise the right-rows-first
    tiebreak; users with no right rows exercise the null path."""
    from alco_ray.stages.window import asof_join

    df = ev.to_pandas()
    left = df[df.event_type == "click"]
    right = df[(df.event_type == "purchase") & (df.user_id < 15)]
    got = asof_join(
        _ds(pa.Table.from_pandas(left, preserve_index=False)),
        _ds(pa.Table.from_pandas(right, preserve_index=False)),
        key_col="user_id", ts_col="ts", left_id_col="event_id",
        right_val_col="ts", out_col="m_ts",
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    want = pd.merge_asof(
        left.sort_values("ts", kind="mergesort"),
        right.sort_values("ts", kind="mergesort")[["user_id", "ts"]]
             .assign(m_ts=lambda d: d["ts"]),
        on="ts", by="user_id", direction="backward",
        allow_exact_matches=True,
    ).sort_values("event_id").reset_index(drop=True)
    assert len(got) == len(want) == len(left)
    assert (got["m_ts"].isna().to_numpy() ==
            want["m_ts"].isna().to_numpy()).all()
    m = ~got["m_ts"].isna().to_numpy()
    assert (got["m_ts"].to_numpy()[m] == want["m_ts"].to_numpy()[m]).all()


def test_melt_roundtrips_pivot(ev):
    """melt(pivot) reconstructs the original long-format counts."""
    from alco_ray.stages.aggregate import melt, pivot_counts

    vals = ["click", "view", "purchase", "signup", "error"]
    wide = pivot_counts(_ds(ev), "user_id", "event_type", vals)
    long = (melt(wide, ["user_id"], [f"n_{v}" for v in vals],
                 var_col="metric", val_col="cnt")
            .to_pandas())
    df = ev.to_pandas()
    want = (df.groupby(["user_id", "event_type"]).size()
            .rename("cnt").reset_index())
    got_nz = (long[long.cnt > 0]
              .assign(event_type=lambda d: d["metric"].str[2:])
              [["user_id", "event_type", "cnt"]]
              .sort_values(["user_id", "event_type"])
              .reset_index(drop=True))
    want = want.sort_values(["user_id", "event_type"]).reset_index(drop=True)
    assert (got_nz["cnt"].to_numpy() == want["cnt"].to_numpy()).all()
    assert len(long) == wide.count() * len(vals)


def test_label_vector_sums_partition_invariant():
    """Centroid partials: exact vs numpy brute force, and bit-identical
    across different block layouts (the integer-quantize-then-sum
    guarantee float sums can't give)."""
    from alco_ray.stages.similarity import label_vector_sums

    rng = np.random.RandomState(3)
    n, d = 300, 8
    vecs = rng.randn(n, d).astype(np.float32)
    labels = rng.randint(0, 4, n).astype(np.int32)
    t = pa.table({
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.reshape(-1)), d),
        "label": pa.array(labels),
    })
    outs = []
    for blocks in (1, 7):
        got = (label_vector_sums(_ds(t, blocks))
               .to_pandas().sort_values(["label", "dim"])
               .reset_index(drop=True))
        outs.append(got)
    assert outs[0].equals(outs[1])
    got = outs[0]
    q = np.floor(np.abs(vecs.astype(np.float64)) * 1e6 + 0.5).astype(np.int64)
    q *= np.sign(vecs).astype(np.int64)
    for lab in range(4):
        sub = q[labels == lab]
        want = sub.sum(axis=0)
        rows = got[got.label == lab].sort_values("dim")
        assert (rows["s"].to_numpy() == want).all()
        assert (rows["n"].to_numpy() == len(sub)).all()
