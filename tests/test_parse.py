"""Parse stage vs the independent single-process oracle (SURVEY.md §5.2)."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from alco_ray.oracle import oracle_parse_row
from alco_ray.specs import default_transcript_config
from alco_ray.stages.parse import (TOKEN_PATTERN, TS_TOKEN_PATTERN,
                                   count_tokens, make_parse_batch,
                                   parse_embedded_ts, tokenize)
from alco_ray.stages.route import day_string


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


def test_n_tokens_of_null_text_matches_oracle():
    """A null text has a null token count in the engine, the oracle and
    SQL (``len(regexp_extract_all(NULL, ...))``); an empty one has 0."""
    import datetime as dt

    import duckdb
    import pandas as pd

    from alco_ray.oracle import oracle_run_table

    t = pa.table({
        "conv_id": ["c", "c", "c"],
        "turn_idx": pa.array([0, 1, 2], pa.int32()),
        "role": ["user"] * 3,
        "text": pa.array(["two tokens", None, ""]),
        "tool": pa.array([None] * 3, pa.string()),
        "ts": pa.array([dt.datetime(2024, 1, 1)] * 3, pa.timestamp("us")),
    })
    got = make_parse_batch(default_transcript_config())(t)
    want = [None if pd.isna(v) else v for v in
            oracle_run_table(t)["parsed"]["n_tokens"].tolist()]
    sql = [n for (n,) in duckdb.sql(
        "SELECT len(regexp_extract_all(lower(text), '[a-z0-9]+')) "
        "FROM t ORDER BY turn_idx").fetchall()]
    assert got["n_tokens"].to_pylist() == want == sql == [2, None, 0]


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


def _regex_token_count(text):
    """The regex token count ``count_tokens`` replaced (reference)."""
    return pc.cast(pc.count_substring_regex(pc.utf8_lower(text),
                                            TOKEN_PATTERN), pa.int32())


TOKEN_TEXTS = pa.array([
    None, "", "--lead", "trail--", "--both--", "plain words here",
    "Straße KELVIN émoji 🙂 x1y2", "\u212a\u212aelvin k", "ab12 CD_34",
    None, "!!!", "x", "ÉCOLE école 東京 tōkyō 42", "a" * 300,
])


@pytest.mark.parametrize("shape", [
    "whole", "offset", "middle", "tail-empty", "no-rows", "all-null",
    "chunked", "no-chunks", "large_string", "large_string-offset"])
def test_count_tokens_equals_regex_count(shape):
    text = {
        "whole": TOKEN_TEXTS,
        "offset": TOKEN_TEXTS.slice(3),
        "middle": TOKEN_TEXTS.slice(1, 7),
        "tail-empty": TOKEN_TEXTS.slice(9, 3),
        "no-rows": TOKEN_TEXTS.slice(2, 0),
        "all-null": pa.array([None, None], pa.string()),
        "chunked": pa.chunked_array([TOKEN_TEXTS.slice(0, 5),
                                     TOKEN_TEXTS.slice(5, 0),
                                     TOKEN_TEXTS.slice(5)]),
        "no-chunks": pa.chunked_array([], pa.string()),
        "large_string": TOKEN_TEXTS.cast(pa.large_string()),
        "large_string-offset": TOKEN_TEXTS.cast(pa.large_string()).slice(4),
    }[shape]
    got = count_tokens(text)
    want = _regex_token_count(text)
    assert got.type == pa.int32()
    assert type(got) is type(want)
    assert got.to_pylist() == want.to_pylist()
    assert got.null_count == want.null_count


def test_count_tokens_on_corpus_text(t_small_table):
    text = t_small_table["text"]
    assert count_tokens(text).to_pylist() == \
        _regex_token_count(text).to_pylist()
    assert count_tokens(text).to_pylist() == \
        [len(t) for t in tokenize(text, len(text)).to_pylist()]


def test_count_tokens_rejects_non_string():
    with pytest.raises(TypeError):
        count_tokens(pa.array([b"ab cd"], pa.binary()))


def _strftime_parsed_ts(text):
    """``parse_embedded_ts``'s timestamp with the strftime calendar
    round trip it replaced (reference)."""
    st = pc.extract_regex(text, TS_TOKEN_PATTERN)
    dt = pc.struct_field(st, "dt")
    base = pc.strptime(dt, format="%Y-%m-%dT%H:%M:%S", unit="us",
                       error_is_null=True)
    roundtrip = pc.strftime(pc.cast(base, pa.timestamp("s")),
                            format="%Y-%m-%dT%H:%M:%S")
    base = pc.if_else(pc.coalesce(pc.equal(roundtrip, dt), False),
                      base, pa.scalar(None, pa.timestamp("us")))
    frac = pc.cast(pc.utf8_rpad(pc.coalesce(pc.struct_field(st, "us"), "0"),
                                6, "0"), pa.int64())
    return pc.add(base, pc.cast(frac, pa.duration("us")))


CALENDAR_TOKENS = [
    "at=1969-12-31T23:59:59Z", "at=1969-07-20T20:17:40.25Z",
    "at=1900-03-01T01:02:03Z", "at=0001-01-01T00:00:00Z",
    "at=0999-12-31T23:59:59Z", "at=9999-12-31T23:59:59.999999Z",
    "at=2023-02-29T00:00:00Z", "at=2024-02-29T12:00:00Z",
    "at=2024-02-30T00:00:00Z", "at=2023-12-31T23:59:60Z",
    "at=2024-06-30T24:00:00Z", None, "no token", "at=2024-1-1T00:00:00Z",
]


def test_calendar_check_equals_strftime_roundtrip():
    text = pa.array(CALENDAR_TOKENS)
    parsed, _ = parse_embedded_ts(text)
    want = _strftime_parsed_ts(text)
    assert parsed.to_pylist() == want.to_pylist()
    # the cases the check exists for are rejected, the rest kept
    rejected = [t for t, p in zip(CALENDAR_TOKENS, parsed.to_pylist())
                if p is None and t and t.startswith("at=")]
    assert rejected == ["at=2023-02-29T00:00:00Z", "at=2024-02-30T00:00:00Z",
                        "at=2023-12-31T23:59:60Z", "at=2024-06-30T24:00:00Z",
                        "at=2024-1-1T00:00:00Z"]


@pytest.mark.parametrize("tz", [None, "America/New_York"])
def test_day_string_equals_strftime(tz):
    import datetime as dt

    instants = [dt.datetime(1969, 12, 31, 23, 59, 59, 500000),
                dt.datetime(1900, 3, 1, 1, 2, 3), dt.datetime(1, 1, 1, 0, 0, 1),
                dt.datetime(999, 5, 5, 12), dt.datetime(9999, 12, 31, 23, 59),
                dt.datetime(2024, 2, 29, 23, 59, 59, 999999),
                dt.datetime(2024, 1, 2, 2), None]
    ts = pa.array(instants, pa.timestamp("us", tz=tz))
    for arr in (ts, ts.slice(2), pa.chunked_array([ts.slice(0, 3),
                                                   ts.slice(3)])):
        got = day_string(arr)
        assert got.type == pa.string()
        assert got.to_pylist() == \
            pc.strftime(arr, format="%Y-%m-%d").to_pylist()


def test_year_zero_and_leap_second_match_oracle():
    """Tokens Python's datetime rejects — year 0000, second 60, Feb 30
    — are parse failures falling back to the arrival time in engine
    and oracle alike; years 0001 and 9999 parse in both."""
    import datetime as dt

    texts = ["level=INFO at=0000-01-01T00:00:00Z",
             "at=2016-12-31T23:59:60Z", "at=2024-02-30T00:00:00Z",
             "at=0001-01-01T00:00:00Z", "at=9999-12-31T23:59:59.5Z"]
    arrival = [dt.datetime(2024, 1, 1, 0, i) for i in range(len(texts))]
    out = make_parse_batch(default_transcript_config())(pa.table({
        "text": texts, "ts": pa.array(arrival, pa.timestamp("us"))}))
    for got, text, ts in zip(out.to_pylist(), texts, arrival):
        level, parsed_ts, ok, toks = oracle_parse_row(text, ts)
        assert (got["level"], got["parsed_ts"], got["parse_ok"],
                got["n_tokens"]) == (level, parsed_ts, ok, len(toks))
    assert out["parse_ok"].to_pylist() == [False, False, False, True, True]
    assert out["parsed_ts"][0].as_py() == arrival[0]
