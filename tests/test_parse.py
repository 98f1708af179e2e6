"""Parse stage vs the independent single-process oracle (SURVEY.md §5.2)."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from alco_ray.oracle import oracle_parse_row
from alco_ray.specs import default_transcript_config
from alco_ray.stages.parse import make_parse_batch, tokenize


@pytest.fixture(scope="module")
def parsed(t_small_table):
    return make_parse_batch(default_transcript_config())(t_small_table)


def test_level_matches_oracle(parsed, t_small_oracle):
    assert parsed["level"].to_pylist() == t_small_oracle["parsed"]["level"].tolist()


def test_parsed_ts_matches_oracle(parsed, t_small_oracle):
    got = parsed["parsed_ts"].to_pandas().tolist()
    want = t_small_oracle["parsed"]["parsed_ts"].tolist()
    assert got == want


def test_parse_ok_matches_oracle(parsed, t_small_oracle):
    assert parsed["parse_ok"].to_pylist() == t_small_oracle["parsed"]["parse_ok"].tolist()
    assert pc.sum(pc.cast(pc.invert(parsed["parse_ok"]), "int64")).as_py() > 0


def test_n_tokens_matches_oracle(parsed, t_small_oracle):
    assert parsed["n_tokens"].to_pylist() == t_small_oracle["parsed"]["n_tokens"].tolist()


def test_bucket_is_5min_floor(parsed):
    bucket = parsed["bucket"].to_pandas()
    ts = parsed["parsed_ts"].to_pandas()
    assert (bucket == ts.dt.floor("5min")).all()


@pytest.mark.parametrize("layout", [(1, None), (72, 1, None)],
                         ids=["1-n", "72-1-n"])
def test_parse_batch_is_chunk_layout_proof(t_small_table, layout):
    """parse_batch on a batch whose columns have a length-1 chunk that
    is not the last one equals parse_batch on the same rows combined.
    pyarrow 16.1's coalesce over differently chunked operands got the
    rows after such a chunk wrong (parsed_ts, bucket)."""
    table = t_small_table.slice(0, 145).combine_chunks()
    sizes = [n if n is not None else table.num_rows - sum(layout[:-1])
             for n in layout]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    chunked = pa.concat_tables(
        [table.slice(o, n) for o, n in zip(offsets, sizes)])
    assert chunked["ts"].num_chunks == len(layout)
    parse_batch = make_parse_batch(default_transcript_config())
    assert parse_batch(chunked).equals(parse_batch(chunked.combine_chunks()))


def test_parse_edge_cases():
    table = pa.table({
        "conv_id": ["c", "c", "c", "c", "c"],
        "turn_idx": pa.array([0, 1, 2, 3, 4], pa.int32()),
        "role": ["user"] * 5,
        "text": [
            "no tokens here at all UPPER",
            "level=WEIRD not canonical",
            "at=2024-13-99T99:99:99Z broken",
            "at=2024-02-03T04:05:06Z exact no frac level=ERROR",
            "",
        ],
        "tool": pa.array([None] * 5, pa.string()),
        "ts": pa.array([1704067200000000 + i for i in range(5)],
                       pa.timestamp("us")),
    })
    out = make_parse_batch(default_transcript_config())(table)
    rows = out.to_pylist()
    for got, src in zip(rows, table.to_pylist()):
        level, parsed_ts, ok, toks = oracle_parse_row(src["text"], src["ts"])
        assert got["level"] == level
        assert got["parsed_ts"] == parsed_ts
        assert got["parse_ok"] == ok
        assert got["n_tokens"] == len(toks)
    # malformed token present but unparseable -> failure + arrival fallback
    assert rows[2]["parse_ok"] is False
    assert rows[2]["parsed_ts"] == table["ts"][2].as_py()
    # non-canonical level -> UNKNOWN
    assert rows[1]["level"] == "UNKNOWN"


def test_tokenize_drops_empties():
    arr = pa.chunked_array([pa.array(["Hello, World!", "", "a--b  c", "!!!"])])
    toks = tokenize(arr, 4)
    assert toks.to_pylist() == [["hello", "world"], [], ["a", "b", "c"], []]


def test_dirty_input_engine_oracle_parity():
    """Padded/empty role values, null text, and calendar-invalid
    timestamps must parse/route/enrich identically in engine and
    oracle (findings from round-1 review: normalization and Arrow's
    date normalization were engine-only divergences)."""
    import datetime as dt

    import pandas as pd

    from alco_ray.oracle import oracle_run_table
    from alco_ray.specs import default_transcript_config
    from alco_ray.stages.dict_encode import encode_with_dicts, build_dict_table
    from alco_ray.stages.parse import make_parse_batch
    from alco_ray.stages.route import make_route_batch

    base = dt.datetime(2024, 1, 1)
    t = pa.table({
        "conv_id": pa.array(["x"] * 6),
        "turn_idx": pa.array(range(6), pa.int32()),
        "role": pa.array([" user ", "", "assistant", None, "tool", "user"]),
        "text": pa.array([
            "hello level=INFO",
            "at=2024-02-30T00:00:00Z level=ERROR",   # invalid calendar day
            "at=2024-02-29T12:00:00.5Z fine",        # valid leap day
            None,                                     # null text
            "tool_call:code(arg=1) level=WARN",
            "   ",
        ]),
        "tool": pa.array([None, " code ", None, "", "code", None]),
        "ts": pa.array([base + dt.timedelta(minutes=i) for i in range(6)],
                       pa.timestamp("us")),
    })
    cfg = default_transcript_config()
    parsed = make_parse_batch(cfg)(t)
    routed = make_route_batch(cfg)(parsed)

    o = oracle_run_table(t, cfg)
    odf = o["parsed"]
    assert routed["level"].to_pylist() == odf["level"].tolist()
    assert routed["parse_ok"].to_pylist() == odf["parse_ok"].tolist()
    assert routed["sink"].to_pylist() == odf["sink"].tolist()
    got_ts = routed["parsed_ts"].to_pylist()
    want_ts = [x.to_pydatetime() for x in odf["parsed_ts"]]
    assert got_ts == want_ts
    # invalid calendar day -> failure + arrival fallback on BOTH sides
    assert routed["parse_ok"][1].as_py() is False
    assert got_ts[1] == base + dt.timedelta(minutes=1)
    # normalized dict build matches oracle dict
    dicts = {
        "role": build_dict_table(
            sorted({v for v in routed["role"].to_pylist() if v})),
        "tool": build_dict_table(
            sorted({v for v in routed["tool"].to_pylist() if v})),
    }
    enc = encode_with_dicts(routed, dicts)
    assert enc["role_id"].to_pylist() == [
        None if pd.isna(v) else v for v in odf["role_id"].tolist()]
