"""S5 routed output schema, the sink block writer, wire-format sources,
P5 residual-JSON projection."""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa

from alco_ray import fixtures
from alco_ray.specs import TRANSCRIPT_SCHEMA, default_transcript_config
from alco_ray.stages.dict_encode import build_dict_table, encode_with_dicts
from alco_ray.stages.parse import make_parse_batch, make_residual_js
from alco_ray.stages.route import make_route_batch


def _routed_sample() -> pa.Table:
    cfg = default_transcript_config()
    batch = fixtures.generate_transcripts(10, 100, seed=7)
    dicts = {
        "role": build_dict_table(["assistant", "system", "tool", "user"]),
        "tool": build_dict_table(["code", "search"]),
        "level": build_dict_table(["DEBUG", "ERROR", "INFO", "UNKNOWN",
                                   "WARN"]),
    }
    parsed = make_parse_batch(cfg)(batch)
    return make_route_batch(cfg)(encode_with_dicts(parsed, dicts))


def test_routed_output_schema():
    """The routed batch is the input columns, then the parse-derived
    ones, one ``<col>_id`` int32 per filtered column, then the
    partition columns (the sphinx.conf-generator analog's layout)."""
    cfg = default_transcript_config()
    want = pa.schema(
        list(TRANSCRIPT_SCHEMA)
        + [pa.field("level", pa.string()),
           pa.field("parsed_ts", pa.timestamp("us")),
           pa.field("parse_ok", pa.bool_()),
           pa.field("n_tokens", pa.int32()),
           pa.field("bucket", pa.timestamp("us"))]
        + [pa.field(f"{c}_id", pa.int32()) for c in cfg.filtered_columns()]
        + [pa.field("sink", pa.string()), pa.field("date", pa.string())])
    got = _routed_sample().schema
    assert got.names == want.names
    for name in want.names:
        assert got.field(name).type == want.field(name).type, name


def test_residual_js():
    import json

    t = pa.table({
        "role": pa.array(["user", None, 'quo"te', "back\\slash", None]),
        "tool": pa.array([None, "code", "sql", None, None]),
    })
    out = make_residual_js(["role", "tool"])(t)["js"].to_pylist()
    assert out == [
        '{"role":"user"}',
        '{"tool":"code"}',
        '{"role":"quo\\"te","tool":"sql"}',
        '{"role":"back\\\\slash"}',
        "{}",
    ]
    # every residual is valid JSON round-tripping the kept values
    assert json.loads(out[2]) == {"role": 'quo"te', "tool": "sql"}
    assert json.loads(out[3]) == {"role": "back\\slash"}


def _staged_names(root) -> list[str]:
    return sorted(p.relative_to(root).as_posix()
                  for p in Path(root).rglob("*.parquet"))


def test_block_writer_names_files_by_content(tmp_path):
    """Writing one batch twice (in any chunk layout) leaves one file
    per partition under the same names; a batch that differs only in
    its last column gets different names."""
    from alco_ray.sinks import _make_block_writer

    t = pa.table({
        "sink": pa.array(["a", "b", "a", "b", "a"]),
        "date": pa.array(["2024-01-01", "2024-01-01", "2024-01-02",
                          "2024-01-01", "2024-01-01"]),
        "x": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(["p", "q", "r", "s", "t"]),
    })
    write = _make_block_writer(str(tmp_path / "one"), ["sink", "date"])
    write(t)
    names = _staged_names(tmp_path / "one")
    assert len(names) == 3  # (a, 01-01), (a, 01-02), (b, 01-01)
    write(t)
    write(pa.concat_tables([t.slice(0, 1), t.slice(1, 3), t.slice(4)]))
    assert _staged_names(tmp_path / "one") == names

    last = t.set_column(3, "text", pa.array(["p", "q", "r", "s", "u"]))
    _make_block_writer(str(tmp_path / "two"), ["sink", "date"])(last)
    other = _staged_names(tmp_path / "two")
    assert len(other) == 3
    assert not {Path(n).name for n in names} & {Path(n).name for n in other}


def test_jsonl_source_matches_parquet(t_small_dir):
    """The JSONL mirror of a Parquet corpus must ingest to an
    identical table (schema + values) — the wire-format parity ALCO's
    JSON messages require."""
    import pyarrow.parquet as pq

    from alco_ray.sources import read_jsonl_transcripts, read_transcripts

    tag = Path(t_small_dir).name
    jd = fixtures.ensure_jsonl_corpus(tag)
    a = read_jsonl_transcripts(jd).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    b = read_transcripts(t_small_dir).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    assert a.equals(b)


def test_csv_source_matches_parquet(t_small_dir):
    """The CSV mirror must ingest bit-for-bit identically to the
    Parquet corpus — including empty fields round-tripping to the null
    ``tool`` the Parquet schema carries."""
    from alco_ray.sources import read_csv_transcripts, read_transcripts

    tag = Path(t_small_dir).name
    cd = fixtures.ensure_csv_corpus(tag)
    a = read_csv_transcripts(cd).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    b = read_transcripts(t_small_dir).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    assert b["tool"].isna().any()  # nulls present -> parity is real
    assert a.equals(b)


def _write_like_value_scan(tmp_path, n: int, n_sinks: int, n_dates: int,
                           cuts: list[int]) -> None:
    """Write an ``n``-row block cut into chunks at ``cuts``, with random
    ``sink``/``date`` keys (``n_sinks``/``n_dates`` values and null),
    and check it against the reference: a value scan of the stably
    sorted block and ``pq.write_table`` of each partition's slice.
    Every partition is one file with the reference's bytes."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from alco_ray.sinks import _make_block_writer

    rng = np.random.default_rng(3)
    sinks = np.array([f"s{i:02d}" for i in range(n_sinks)] + [None])
    dates = np.array([f"2024-01-{i + 1:02d}" for i in range(n_dates)]
                     + [None])
    t = pa.table({"sink": pa.array(sinks[rng.integers(0, len(sinks), n)],
                                   pa.string()),
                  "date": pa.array(dates[rng.integers(0, len(dates), n)],
                                   pa.string()),
                  "x": pa.array(rng.integers(0, 1 << 40, n))})
    bounds = [0, *cuts, n]
    t = pa.concat_tables([t.slice(s, e - s)
                          for s, e in zip(bounds, bounds[1:])])
    assert t["x"].num_chunks == len(cuts) + 1
    written = _make_block_writer(str(tmp_path / "w"), ["sink", "date"])(
        t, "id")

    # the value scan: compare neighbouring keys as Python objects
    b = t.take(pc.sort_indices(t, sort_keys=[("sink", "ascending"),
                                             ("date", "ascending")]))
    keys = [b[c].to_numpy(zero_copy_only=False) for c in ("sink", "date")]
    change = np.ones(n, dtype=bool)
    change[1:] = (keys[0][1:] != keys[0][:-1]) | (keys[1][1:] != keys[1][:-1])
    starts = np.flatnonzero(change)
    assert len(starts) == len(sinks) * len(dates)
    want = {}
    data = b.drop_columns(["sink", "date"])
    for s, e in zip(starts, np.append(starts[1:], n)):
        path = tmp_path / "v" / f"sink={keys[0][s]}" / f"date={keys[1][s]}"
        path.mkdir(parents=True)
        pq.write_table(data.slice(s, e - s), path / "bid.parquet")
        want[str(path.relative_to(tmp_path / "v"))] = \
            (path / "bid.parquet").read_bytes()

    files = list((tmp_path / "w").rglob("*.parquet"))
    got = {str(p.parent.relative_to(tmp_path / "w")): p.read_bytes()
           for p in files}
    assert written["files"].to_pylist() == [len(starts)] == [len(files)]
    assert "sink=None/date=None" in got
    assert got == want


def test_block_writer_partitions_null_keys_like_value_scan(tmp_path):
    """Null ``sink`` and ``date`` keys are one partition each
    (``sink=None``, ``date=None``), and every file holds that
    partition's rows, byte for byte, in a multi-chunk block too."""
    _write_like_value_scan(tmp_path, 5_000, 3, 3, [1_700])


def test_block_writer_many_partitions_one_file_each(tmp_path):
    """A block in three chunks, one of them longer than the 131,072
    rows a dataset scan cuts a batch into, over more than 1,024 (sink,
    date) keys with nulls, still writes exactly one file per key, in
    block order, with ``pq.write_table``'s bytes: the writer lifts
    ``write_dataset``'s 1,024-key limits and keeps chunk order."""
    _write_like_value_scan(tmp_path, 200_000, 40, 30, [1_000, 150_000])
