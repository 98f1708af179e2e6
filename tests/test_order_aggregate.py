"""Stable ordering, salted per-conv stats, top-k, interval aggregates."""

import pandas as pd
import pytest
import pyarrow as pa
import ray.data

from alco_ray.oracle import oracle_run_table
from alco_ray.specs import default_transcript_config
from alco_ray.stages.aggregate import distinct_values, interval_counts, minmax_ts, routed_counts
from alco_ray.stages.order import per_conv_turn_stats, stable_order, top_k
from alco_ray.stages.parse import make_parse_batch
from alco_ray.stages.route import make_route_batch


def _routed_ds(table):
    cfg = default_transcript_config()
    ds = ray.data.from_arrow(table).map_batches(
        make_parse_batch(cfg), batch_format="pyarrow").map_batches(
        make_route_batch(cfg), batch_format="pyarrow")
    return ds


def test_stable_order_per_turn_text_equality(t_small_table, t_small_oracle):
    """THE per-row invariant (BASELINE.json:15): per-turn text equality
    under stable (conv_id, turn_idx) order — bit-for-bit, incl. order."""
    shuffled = ray.data.from_arrow(t_small_table).random_shuffle(seed=7)
    got = stable_order(shuffled).to_pandas()
    want = t_small_oracle["ordered"]
    assert got["conv_id"].tolist() == want["conv_id"].tolist()
    assert got["turn_idx"].tolist() == want["turn_idx"].tolist()
    assert got["text"].tolist() == want["text"].tolist()


def test_per_conv_turn_stats_salted(t_small_table):
    got = per_conv_turn_stats(ray.data.from_arrow(t_small_table),
                              salt_buckets=8).to_pandas()
    got = got.sort_values("conv_id").reset_index(drop=True)
    df = t_small_table.to_pandas()
    want = df.groupby("conv_id").agg(
        n_turns=("turn_idx", "size"), min_ts=("ts", "min"),
        max_ts=("ts", "max")).reset_index()
    pd.testing.assert_frame_equal(
        got[["conv_id", "n_turns", "min_ts", "max_ts"]].astype({"n_turns": "int64"}),
        want)


def test_top_k(t_small_table):
    ds = ray.data.from_arrow(t_small_table).repartition(6)
    got = top_k(ds, ["ts"], 10).to_pandas()
    want = (t_small_table.to_pandas().sort_values("ts", ascending=False)
            .head(10).reset_index(drop=True))
    assert got["ts"].tolist() == want["ts"].tolist()


def test_interval_counts_bit_for_bit(t_small_table, t_small_oracle):
    agg = interval_counts(_routed_ds(t_small_table)).to_pandas()
    got = agg.sort_values(["sink", "level", "bucket"]).reset_index(drop=True)
    want = (t_small_oracle["interval_counts"]
            .sort_values(["sink", "level", "bucket"]).reset_index(drop=True))
    assert got["sink"].tolist() == want["sink"].tolist()
    assert got["level"].tolist() == want["level"].tolist()
    assert got["bucket"].tolist() == want["bucket"].tolist()
    assert got["cnt"].astype("int64").tolist() == want["cnt"].astype("int64").tolist()


def test_routed_counts_match_oracle(t_small_table, t_small_oracle):
    got = routed_counts(_routed_ds(t_small_table)).to_pandas()
    got_map = dict(zip(got["sink"], got["cnt"].astype(int)))
    assert got_map == t_small_oracle["routed_counts"]


def test_minmax_ts(t_small_table):
    got = minmax_ts(_routed_ds(t_small_table)).to_pandas()
    odf = make_parse_batch(default_transcript_config())(t_small_table).to_pandas()
    cfg = default_transcript_config()
    odf["sink"] = odf["role"].map(cfg.route_table())
    want = odf.groupby("sink")["parsed_ts"].agg(["min", "max"])
    for _, row in got.iterrows():
        assert row["min_ts"] == want.loc[row["sink"], "min"]
        assert row["max_ts"] == want.loc[row["sink"], "max"]


def test_distinct_values(t_small_table):
    got = distinct_values(ray.data.from_arrow(t_small_table),
                          "role")["role"].to_pylist()
    assert got == ["assistant", "system", "tool", "user"]


def test_top_k_per_group(t_small_table):
    from alco_ray.stages.order import top_k_per_group

    got = top_k_per_group(
        ray.data.from_arrow(t_small_table).repartition(5),
        "conv_id", ["turn_idx"], 2, descending=True).to_pandas()
    df = t_small_table.to_pandas()
    want = (df.sort_values(["conv_id", "turn_idx"],
                           ascending=[True, False])
              .groupby("conv_id").head(2))
    g = got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    w = want.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert g[["conv_id", "turn_idx", "text"]].equals(
        w[["conv_id", "turn_idx", "text"]])


def test_to_fixed_rounds_half_away_from_zero():
    from alco_ray.stages.aggregate import to_fixed

    x = pa.array([0.5, -0.5, 1.5, -1.5, 2.4999, None, 0.0], pa.float64())
    assert to_fixed(x).to_pylist() == [1, -1, 2, -2, 2, None, 0]
    cents = to_fixed(pa.array([0.125, -0.125, 1.005, None]), 100)
    assert cents.type == pa.int64()
    # 0.125 x 100 is exactly 12.5; 1.005 x 100 is 100.49999... in binary
    assert cents.to_pylist() == [13, -13, 100, None]
    e4 = to_fixed(pa.array([0.12345678, -0.12345678, 2.5]), 10_000)
    assert e4.to_pylist() == [1235, -1235, 25000]
    chunked = pa.chunked_array([[0.5], [None, -2.5]])
    assert to_fixed(chunked).to_pylist() == [1, None, -3]


def test_partial_agg_states_keys_and_aggregates_once():
    from alco_ray.stages.aggregate import merge_aggs, partial_agg

    aggs = {"n": ([], "count_all"), "s": ("v", "sum"),
            "lo": ("v", "min"), "hi": ("v", "max")}
    t = pa.table({"k": ["a", "b", "a", None], "v": [1, 2, 3, 4]})
    got = partial_agg(["k"], aggs)(t).sort_by("n")
    assert got.column_names == ["k", "n", "s", "lo", "hi"]
    assert got.to_pylist()[-1] == {"k": "a", "n": 2, "s": 4, "lo": 1,
                                   "hi": 3}
    # counts merge by summing; sums, minima and maxima keep their op
    assert merge_aggs(aggs) == [("n", "sum"), ("s", "sum"),
                                ("lo", "min"), ("hi", "max")]
    # the projection runs before the grouping
    double = partial_agg(["k"], {"s": ("w", "sum")},
                         lambda b: b.append_column(
                             "w", pa.compute.multiply(b["v"], 2)))
    assert double(t).sort_by("k").column("s").to_pylist() == [8, 4, 8]


def test_fold_agg_merges_count_all_across_blocks():
    from alco_ray.stages.aggregate import fold_agg, merge_partials

    t = pa.table({"k": ["x", "y", "x", "x", "y", "z"],
                  "v": [1, 2, 3, 4, 5, 6]})
    ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2, 2), t.slice(4, 2)])
    got = fold_agg(ds, ["k"], {"n": ([], "count_all"), "s": ("v", "sum")})
    assert got.to_pylist() == [{"k": "x", "n": 3, "s": 8},
                               {"k": "y", "n": 2, "s": 7},
                               {"k": "z", "n": 1, "s": 6}]
    assert got.schema.field("n").type == pa.int64()
    # the driver half takes tables already fetched
    parts = [pa.table({"k": ["x"], "n": [2]}),
             pa.table({"k": ["x"], "n": [5]})]
    assert merge_partials(parts, ["k"], [("n", "sum")]).to_pylist() == [
        {"k": "x", "n": 7}]


def test_merge_partials_over_no_blocks_and_schemaless_blocks():
    from alco_ray.stages.aggregate import merge_partials

    schema = pa.schema([("k", pa.string()), ("n", pa.int64())])
    for parts in ([], [pa.table({})], [pa.table({}), schema.empty_table()]):
        out = merge_partials(parts, ["k"], [("n", "sum")], schema)
        assert out.num_rows == 0
        assert out.schema.equals(schema)
    # a schema-less empty block next to real partials is skipped
    out = merge_partials([pa.table({}), pa.table({"k": ["a"], "n": [3]})],
                         ["k"], [("n", "sum")], schema)
    assert out.to_pylist() == [{"k": "a", "n": 3}]
    with pytest.raises(Exception):
        merge_partials([], ["k"], [("n", "sum")])  # unknowable schema


def test_shuffle_agg_matches_fold_agg():
    from alco_ray.stages.aggregate import fold_agg, shuffle_agg

    t = pa.table({"k": [3, 1, 3, 2, 1, 3], "v": [1.25, 2.5, -0.5, 4.0,
                                                 0.125, 6.0]})
    ds = ray.data.from_arrow([t.slice(0, 3), t.slice(3, 3)])
    aggs = {"n": ([], "count_all"), "c": ("c", "sum"), "top": ("c", "max")}

    def cents(b):
        from alco_ray.stages.aggregate import to_fixed

        return pa.table({"k": b["k"], "c": to_fixed(b["v"], 100)})

    folded = fold_agg(ds, ["k"], aggs, cents)
    shuffled = pa.Table.from_pandas(
        shuffle_agg(ds, ["k"], aggs, cents).to_pandas(), preserve_index=False)
    assert shuffled.sort_by("k").select(folded.column_names).equals(folded)
    assert folded.to_pylist()[2] == {"k": 3, "n": 3, "c": 675, "top": 600}
