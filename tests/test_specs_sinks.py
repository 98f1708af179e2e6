"""S5 schema compiler, S6 TTL rotation, P5 residual-JSON projection."""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa

from alco_ray import fixtures
from alco_ray.sinks import drop_expired_partitions
from alco_ray.specs import compile_schema, default_transcript_config
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


def test_compile_schema_matches_actual_routed_output():
    """The sphinx.conf-generator analog must describe reality exactly."""
    got = _routed_sample().schema
    want = compile_schema(default_transcript_config())
    assert got.names == want.names
    for name in want.names:
        assert got.field(name).type == want.field(name).type, name


def test_drop_expired_partitions(tmp_path):
    for sink in ("chat", "sys"):
        for date in ("2024-01-01", "2024-01-05", "2024-02-01"):
            d = tmp_path / f"sink={sink}" / f"date={date}"
            d.mkdir(parents=True)
            (d / "part-0.parquet").touch()
    n = drop_expired_partitions(tmp_path, "2024-01-05")
    assert n == 2  # both sinks' 2024-01-01
    left = sorted(p.name for p in tmp_path.glob("sink=*/date=*"))
    assert left == ["date=2024-01-05", "date=2024-01-05",
                    "date=2024-02-01", "date=2024-02-01"]


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


def test_write_routed_standalone(tmp_path):
    """The standalone partitioned-sink API (outside the fused worker)."""
    import ray.data

    from alco_ray.sinks import write_routed

    t = pa.table({
        "sink": pa.array(["a", "a", "b", "b"]),
        "date": pa.array(["2024-01-01", "2024-01-02"] * 2),
        "x": pa.array([1, 2, 3, 4], pa.int64()),
    })
    write_routed(ray.data.from_arrow(t), tmp_path, num_tasks=1)
    import pyarrow.parquet as pq

    files = sorted(tmp_path.glob("sink=*/date=*/*.parquet"))
    assert len(files) == 4  # one per (sink, date)
    back = pq.read_table(sorted(tmp_path.glob("sink=a/date=2024-01-01/*"))[0])
    assert back.column_names == ["x"]  # partition cols live in the path


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


def test_compact_partitions_preserves_rows(tmp_path):
    """Compaction merges small files per partition dir, preserves row
    content bit-for-bit, and is idempotent (a second call is a no-op)."""
    import glob

    import pyarrow.parquet as pq

    import ray.data

    from alco_ray.sinks import compact_partitions, write_routed

    batch = fixtures.generate_transcripts(40, 400, seed=13)
    cfg = default_transcript_config()
    routed = make_route_batch(cfg)(make_parse_batch(cfg)(batch))
    ds = ray.data.from_arrow(routed).repartition(12)
    write_routed(ds, tmp_path, ["sink", "date"])

    files_before = glob.glob(f"{tmp_path}/sink=*/date=*/*.parquet")
    want = pq.read_table(sorted(files_before)) \
        .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])

    removed = compact_partitions(tmp_path, target_bytes=1 << 30)
    files_after = glob.glob(f"{tmp_path}/sink=*/date=*/*.parquet")
    assert removed > 0 and len(files_after) < len(files_before)
    # every dir with >1 input collapsed to one file under a big target
    for d in set(str(Path(f).parent) for f in files_after):
        assert len(glob.glob(f"{d}/*.parquet")) == 1
    got = pq.read_table(sorted(files_after)) \
        .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.select(want.column_names).equals(want)

    assert compact_partitions(tmp_path, target_bytes=1 << 30) == 0  # no-op


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


def test_compaction_leaves_uncommitted_wave_orphans(tmp_path):
    """compact_partitions must not absorb orphan files of a
    half-committed wave: they stay identifiable by wave-id prefix so
    the next run's cleanup can delete them (compacting them would
    duplicate the wave's rows on resume)."""
    import json

    import pyarrow.parquet as pq

    d = tmp_path / "sink=chat" / "date=2024-01-01"
    d.mkdir(parents=True)
    t = pa.table({"conv_id": pa.array(["a", "b"]),
                  "turn_idx": pa.array([0, 1], pa.int32())})
    for name in ("wAAAA-00000-b1.parquet", "wAAAA-00001-b2.parquet",
                 "wBBBB-00000-b3.parquet", "wBBBB-00001-b4.parquet"):
        pq.write_table(t, d / name)
    ck = tmp_path / "_checkpoint"
    ck.mkdir()
    (ck / "manifest.json").write_text(json.dumps(
        {"wAAAA": {"status": "done", "input_files": [], "metrics": {}}}))

    from alco_ray.sinks import compact_partitions

    removed = compact_partitions(tmp_path, target_bytes=1 << 30)
    names = sorted(p.name for p in d.glob("*.parquet"))
    # committed wave's two files merged into one c-*; orphans untouched
    assert removed == 1
    assert [n for n in names if n.startswith("wBBBB")] == \
        ["wBBBB-00000-b3.parquet", "wBBBB-00001-b4.parquet"]
    assert len([n for n in names if n.startswith("c-")]) == 1
    assert not [n for n in names if n.startswith("wAAAA")]


def test_compaction_crash_window_safety(tmp_path):
    """(a) stale .c-*.parquet.tmp orphans are swept by the recovery
    pass; (b) while a compacted file AND its absorbed inputs coexist
    (the crash window between install and unlink), read_routed_output
    must not double-count rows."""
    import glob

    import pyarrow.parquet as pq

    import ray.data

    from alco_ray.sinks import compact_partitions, write_routed
    from alco_ray.sources import read_routed_output, routed_output_files

    batch = fixtures.generate_transcripts(20, 200, seed=17)
    cfg = default_transcript_config()
    routed = make_route_batch(cfg)(make_parse_batch(cfg)(batch))
    ds = ray.data.from_arrow(routed).repartition(8)
    write_routed(ds, tmp_path, ["sink", "date"])

    want_rows = read_routed_output(tmp_path).count()
    d = Path(sorted(glob.glob(f"{tmp_path}/sink=*/date=*"))[0])
    orphan = d / ".c-deadbeef.parquet.tmp"
    orphan.write_bytes(b"torn write")

    # simulate the crash window: compact into c-*, then restore one
    # absorbed input alongside it
    inputs_before = sorted(d.glob("*.parquet"))
    saved = {p.name: p.read_bytes() for p in inputs_before}
    compact_partitions(tmp_path, target_bytes=1 << 30)
    assert not orphan.exists()  # (a) tmp swept
    cfiles = list(d.glob("c-*.parquet"))
    if len(saved) > 1:
        assert len(cfiles) == 1
        resurrect = sorted(saved)[0]
        (d / resurrect).write_bytes(saved[resurrect])
        live = routed_output_files(tmp_path)
        assert str(d / resurrect) not in live  # (b) absorbed input skipped
        assert read_routed_output(tmp_path).count() == want_rows
        # next compaction pass heals the window
        compact_partitions(tmp_path, target_bytes=1 << 30)
        assert not (d / resurrect).exists()
        assert read_routed_output(tmp_path).count() == want_rows


def test_block_writer_partitions_null_keys_like_value_scan(tmp_path):
    """The writer's change-point scan over dictionary indices cuts the
    sorted block where a scan over the key values does: null ``sink``
    and ``date`` keys are one partition each (``sink=None``,
    ``date=None``), and every file holds that partition's rows, byte
    for byte, in a multi-chunk block too."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from alco_ray.sinks import _make_block_writer

    rng = np.random.default_rng(3)
    n = 5_000
    sinks = np.array(["chat", "sys", "tools", None], dtype=object)
    dates = np.array(["2024-01-01", "2024-01-02", "2024-01-03", None],
                     dtype=object)
    t = pa.table({"sink": pa.array(sinks[rng.integers(0, 4, n)], pa.string()),
                  "date": pa.array(dates[rng.integers(0, 4, n)], pa.string()),
                  "x": pa.array(rng.integers(0, 1 << 40, n))})
    t = pa.concat_tables([t.slice(0, 1_700), t.slice(1_700)])
    written = _make_block_writer(str(tmp_path / "w"), ["sink", "date"])(
        t, "id")

    # the value scan: compare neighbouring keys as Python objects
    b = t.take(pc.sort_indices(t, sort_keys=[("sink", "ascending"),
                                             ("date", "ascending")]))
    keys = [b[c].to_numpy(zero_copy_only=False) for c in ("sink", "date")]
    change = np.ones(n, dtype=bool)
    change[1:] = (keys[0][1:] != keys[0][:-1]) | (keys[1][1:] != keys[1][:-1])
    starts = np.flatnonzero(change)
    want = {}
    for s, e in zip(starts, np.append(starts[1:], n)):
        path = tmp_path / "v" / f"sink={keys[0][s]}" / f"date={keys[1][s]}"
        path.mkdir(parents=True)
        pq.write_table(b.drop_columns(["sink", "date"]).slice(s, e - s),
                       path / "bid.parquet")
        want[str(path.relative_to(tmp_path / "v"))] = \
            (path / "bid.parquet").read_bytes()

    got = {str(p.parent.relative_to(tmp_path / "w")): p.read_bytes()
           for p in (tmp_path / "w").rglob("*.parquet")}
    assert written["files"].to_pylist() == [16]
    assert "sink=None/date=None" in got
    assert got == want
