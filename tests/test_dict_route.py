"""Dictionary build/encode + routing vs oracle."""

import pyarrow as pa

from alco_ray.oracle import oracle_run_table
from alco_ray.specs import default_transcript_config
from alco_ray.stages.dict_encode import (DictEncoder, build_dict_table,
                                         dicts_from_distincts,
                                         distinct_values, encode_with_dicts)
from alco_ray.stages.parse import make_parse_batch
from alco_ray.stages.route import make_route_batch


def test_dict_ids_sorted_distinct():
    t = build_dict_table(["b", "a", "b", None, "c", "a"])
    assert t.to_pydict() == {"value": ["a", "b", "c"], "id": [0, 1, 2]}


def test_dict_build_partition_order_invariant(t_small_table):
    """Property: ids independent of partition order (SURVEY.md §5.3).
    The per-block kernel and the merge see the corpus as one block,
    then as two blocks cut elsewhere, in reverse order."""
    cols = ["role", "tool"]

    def build(blocks):
        return dicts_from_distincts(
            [distinct_values(b, cols) for b in blocks], cols)

    d1 = build([t_small_table])
    d2 = build([t_small_table.slice(600), t_small_table.slice(0, 600)])
    for col in cols:
        assert d1[col].equals(d2[col])


def test_encode_matches_oracle(t_small_table, t_small_oracle):
    cfg = default_transcript_config()
    parsed = make_parse_batch(cfg)(t_small_table)
    dicts = {col: build_dict_table(
        list(t_small_oracle["dicts"][col].keys()))
        for col in cfg.filtered_columns()}
    out = encode_with_dicts(parsed, dicts)
    odf = t_small_oracle["parsed"]
    for col in cfg.filtered_columns():
        got = out[f"{col}_id"].to_pandas()
        want = odf[f"{col}_id"].astype("Int32")
        assert got.astype("Int32").equals(want), col


def test_dict_encoder_actor_class(t_small_table):
    """Smoke the actor class body directly (init failures surface late
    inside Ray otherwise)."""
    import ray

    cfg = default_transcript_config()
    parsed = make_parse_batch(cfg)(t_small_table)
    dicts = dicts_from_distincts([distinct_values(t_small_table, ["role"])],
                                 ["role"])
    refs = {"role": ray.put(dicts["role"])}
    enc = DictEncoder(refs)
    out = enc(parsed)
    assert "role_id" in out.column_names
    assert out["role_id"].null_count == 0


def test_routing_matches_oracle(t_small_table, t_small_oracle):
    cfg = default_transcript_config()
    parsed = make_parse_batch(cfg)(t_small_table)
    routed = make_route_batch(cfg)(parsed)
    assert routed["sink"].to_pylist() == t_small_oracle["parsed"]["sink"].tolist()
    assert routed["date"].to_pylist() == t_small_oracle["parsed"]["date"].tolist()


def test_dead_letter_split():
    cfg = default_transcript_config()
    table = pa.table({
        "conv_id": ["c"] * 3,
        "turn_idx": pa.array([0, 1, 2], pa.int32()),
        "role": ["user", "alien", "tool"],
        "text": ["a", "b", "c"],
        "tool": pa.array([None, None, "calc"], pa.string()),
        "ts": pa.array([0, 1, 2], pa.timestamp("us")),
    })
    parsed = make_parse_batch(cfg)(table)
    routed = make_route_batch(cfg)(parsed)
    assert routed["sink"].to_pylist() == ["chat", "_dead_letter", "tools"]
