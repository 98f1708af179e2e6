"""Sources — pruned Parquet readers (SURVEY.md §2.1 S1/S2).

The AMQP queue of the reference becomes Parquet shards consumed by Ray
Data's streaming executor (incremental, backpressured).  Readers always
take an explicit column list when the consumer doesn't need the full
schema — at 100 TB a read that loads all columns for a two-column
transform is a bug, not a style issue.
"""

from __future__ import annotations

from pathlib import Path

import ray.data


def transcript_files(input_dir: str | Path) -> list[str]:
    """Deterministic (sorted) shard list — the checkpoint partition unit."""
    return sorted(str(p) for p in Path(input_dir).glob("*.parquet")
                  if not p.name.startswith("_"))


def suggest_num_blocks(paths: list[str], target_bytes: int = 32 << 20) -> int:
    """Input-split count that keeps blocks near ``target_bytes`` while
    still giving every CPU work on small corpora.

    Ray's default read parallelism (~200) shreds a small corpus into
    sub-MB blocks, and per-block overhead (task dispatch, one output
    file per block x partition) then dominates; at the other end, big
    corpora get max(bytes/target) splits regardless of CPU count.
    """
    import os

    import ray

    total = sum(os.path.getsize(p) for p in paths)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    # 4 blocks per CPU: fine enough that the last scheduling wave can't
    # idle a third of the pool (12 blocks on 8 CPUs = 75% utilization),
    # coarse enough that per-task overhead stays negligible.
    return max(-(-total // target_bytes), min(len(paths), 4 * cpus), 1)


def read_transcripts(paths: list[str] | str, columns: list[str] | None = None,
                     **kwargs) -> "ray.data.Dataset":
    if isinstance(paths, (str, Path)):
        paths = transcript_files(paths)
    kwargs.setdefault("override_num_blocks", suggest_num_blocks(paths))
    return ray.data.read_parquet(paths, columns=columns, **kwargs)


def read_jsonl_transcripts(paths: list[str] | str,
                           ) -> "ray.data.Dataset":
    """S1/S2 for the reference's native wire format: ALCO consumes
    JSON log messages from the queue, so transcripts arriving as
    JSON-lines shards must ingest identically to Parquet ones.
    ``read_json`` + one vectorized normalization batch op: ISO ``ts``
    strings -> timestamp[us], ``turn_idx`` -> int32, columns ordered to
    the canonical transcript schema — downstream stages can't tell the
    source apart."""
    if isinstance(paths, (str, Path)):
        paths = sorted(str(p) for p in Path(paths).glob("*.jsonl")
                       if not p.name.startswith("_"))
    ds = ray.data.read_json(paths)
    return ds.map_batches(normalize_wire_batch, batch_format="pyarrow")


def normalize_wire_batch(b: "pa.Table") -> "pa.Table":
    """Shared wire-format normalization (JSONL / CSV sources): ISO
    ``ts`` strings -> timestamp[us], then :func:`conform` (``turn_idx``
    -> int32, columns ordered to the canonical transcript schema) —
    downstream stages can't tell the source apart."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ts = b["ts"]
    if pa.types.is_string(ts.type):
        # Arrow strptime has no %f: parse the seconds part, then
        # add the (zero-padded) fractional micros explicitly.
        base = pc.strptime(pc.utf8_slice_codeunits(ts, 0, 19),
                           format="%Y-%m-%dT%H:%M:%S", unit="us",
                           error_is_null=True)
        frac = pc.utf8_trim(pc.utf8_slice_codeunits(ts, 19, 26), ".Z")
        frac = pc.utf8_rpad(pc.if_else(pc.equal(frac, ""),
                                       pa.scalar("0"), frac), 6, "0")
        ts = pc.add(base, pc.cast(pc.cast(frac, pa.int64()),
                                  pa.duration("us")))
    return conform(b.set_column(b.schema.get_field_index("ts"), "ts", ts))


def read_csv_transcripts(paths: list[str] | str) -> "ray.data.Dataset":
    """S1/S2 for the flat-file drop-folder wire format: CSV shards
    must ingest identically to Parquet/JSONL ones.  ``read_csv`` with
    ``strings_can_be_null`` (an empty field IS a null tool, matching
    the Parquet schema) + the shared normalization batch op."""
    from pyarrow import csv as pacsv

    if isinstance(paths, (str, Path)):
        paths = sorted(str(p) for p in Path(paths).glob("*.csv")
                       if not p.name.startswith("_"))
    ds = ray.data.read_csv(
        paths,
        convert_options=pacsv.ConvertOptions(strings_can_be_null=True))
    return ds.map_batches(normalize_wire_batch, batch_format="pyarrow")


def conform(b: "pa.Table", target: "pa.Schema | None" = None) -> "pa.Table":
    """``b`` in the shape of ``target`` (the canonical transcript schema
    by default): the target's columns in its order, each cast to its
    type, a missing one as typed nulls, any other column dropped.  So
    a physical variant of a shard (``large_string`` text, a dictionary
    ``role``, ``int64`` turn_idx, ``timestamp[ms]`` ts, reordered or
    extra columns) reads as the canonical table; a value the cast
    cannot hold raises."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..specs import TRANSCRIPT_SCHEMA

    cols = {}
    for f in target or TRANSCRIPT_SCHEMA:
        if f.name in b.column_names:
            cols[f.name] = pc.cast(b[f.name], f.type)
        else:
            cols[f.name] = pa.nulls(b.num_rows, f.type)
    return pa.table(cols)


def read_evolving_transcripts(paths: list[str] | str,
                              target_schema=None,
                              columns: list[str] | None = None,
                              ) -> "ray.data.Dataset":
    """Schema-EVOLUTION read (the S5 LoggerColumn-migration story):
    shards written before a column existed ingest side-by-side with
    current ones — a missing column materializes as typed nulls,
    extra (since-dropped) columns are pruned at the read, and types
    cast to the target.

    Files are grouped by schema fingerprint read from Parquet FOOTERS
    only (metadata, no data I/O); each group becomes one pruned
    ``read_parquet`` plan reading ONLY the target columns that
    generation actually has, and a per-batch conform op fills/casts.
    The groups union at plan level — no shuffle, no materialization;
    downstream stages can't tell the generations apart."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ..specs import TRANSCRIPT_SCHEMA

    if isinstance(paths, (str, Path)):
        paths = transcript_files(paths)
    target = target_schema or TRANSCRIPT_SCHEMA
    if columns is not None:
        target = pa.schema([target.field(c) for c in columns])

    groups: dict[tuple, list[str]] = {}
    for p in paths:
        s = pq.read_schema(p)
        key = tuple(sorted(zip(s.names, (str(t) for t in s.types))))
        groups.setdefault(key, []).append(p)

    parts = []
    for key, files in sorted(groups.items()):
        have = {n for n, _ in key}
        cols = [f.name for f in target if f.name in have]
        ds = ray.data.read_parquet(
            files, columns=cols or None,
            override_num_blocks=suggest_num_blocks(files))
        parts.append(ds.map_batches(conform, batch_format="pyarrow",
                                    fn_kwargs={"target": target}))
    out = parts[0]
    return out.union(*parts[1:]) if len(parts) > 1 else out


def routed_output_files(out_root: str | Path) -> list[str]:
    """Sorted file list of the sink tree: every promoted
    ``sink=*/date=*/*.parquet`` file (nothing rewrites or absorbs
    one, see alco_ray.sinks)."""
    return sorted(str(p) for p in
                  Path(out_root).glob("sink=*/date=*/*.parquet"))


def read_routed_output(out_root: str | Path, columns: list[str] | None = None,
                       ) -> "ray.data.Dataset":
    """Read back the partitioned sink tree (hive keys sink/date become
    columns again) — D2 union-of-shards."""
    files = routed_output_files(out_root)
    return ray.data.read_parquet(files, columns=columns,
                                 override_num_blocks=suggest_num_blocks(files))
