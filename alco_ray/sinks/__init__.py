"""Sinks — routed, partitioned, resumable Parquet output (SURVEY.md S3).

ALCO's buffered bulk INSERT into per-logger per-day Sphinx RT shards
maps to ``sink=<logger>/date=<YYYY-MM-DD>/`` partitioned Parquet.
Buffering = Ray block granularity; fan-out = ``partition_cols`` on the
write (one file per (block x partition) — no extra shuffle, no
per-sink re-scan of the input).

Writes go to a staging directory first; :func:`promote_staging` then
moves every file into the final tree under a deterministic
``<wave_id>-`` filename prefix (atomic per-file ``os.replace``).
Combined with the checkpoint manifest this yields partition-level
exactly-once output (see alco_ray.state.checkpoint).
"""

from __future__ import annotations

import shutil
from pathlib import Path


def _batch_ident(b) -> str:
    """A block's file-name identity: 16 hex digits of a blake2b over
    its Arrow IPC stream bytes (schema plus every column's full
    contents, chunks combined first so the layout does not matter).
    Two blocks that differ in any value of any column, or in row
    order, get different names (a first/last-row sample let
    same-shaped batches collide, and two tasks writing one path tear
    the file); the same rows in the same order always get the same
    name."""
    import hashlib

    import pyarrow as pa

    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, b.schema) as w:
        w.write_table(b.combine_chunks())
    return hashlib.blake2b(sink.getvalue(), digest_size=8).hexdigest()


def _make_block_writer(staging_dir: str, partition_cols: list[str]):
    """Per-block hive-partitioned writer (runs inside map_batches).

    One stable sort of the block by the partition key, then one slice
    per distinct key — NOT one filter scan per partition (90 partitions
    x full-block scans was quadratic-ish).  The partitions' files are
    written through ``map_fn``: builtin ``map`` by default, one after
    the other; the flagship passes the ``map`` of its task's thread
    pool, which has as many threads as the CPUs Ray reserved for the
    task, so a node never runs more writer threads than it has CPUs.
    (Ray's own parquet datasink instead gives every write task a
    full-node Arrow pool, ``write_dataset(use_threads=True)``, and N
    write tasks x N threads each measurably ANTI-scale on one node.)
    Each file's rows and row order do not depend on ``map_fn``, so
    neither do its bytes.

    Every partition's file is named ``b<ident>.parquet``, so a retried
    task overwrites its own files (idempotent) instead of duplicating
    rows.  ``ident`` must be the same on every attempt over the same
    rows and differ between the blocks written to one staging
    directory.  The flagship passes a hash of its batch's row ranges,
    which its driver fixes (``plan_slices``).  Without one, the name is
    a content hash of the sorted block (:func:`_batch_ident`), which
    covers row order, so a retried task must see the same rows in the
    same order: the index builders, which rely on it, map over the
    immutable blocks of a materialized dataset."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    def write_block(batch: pa.Table, ident: str | None = None,
                    map_fn=map) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"files": pa.array([0], pa.int64())})
        order = pc.sort_indices(
            batch, sort_keys=[(c, "ascending") for c in partition_cols])
        b = batch.take(order)
        # A partition starts where any sorted key changes.  Equal values
        # share a dictionary index (nulls too, as one more entry), so
        # the scan compares int32 indices, never the values themselves.
        n = b.num_rows
        change = np.zeros(n, dtype=bool)
        change[0] = True
        for c in partition_cols:
            idx = pc.dictionary_encode(b[c].combine_chunks(),
                                       null_encoding="encode").indices
            k = idx.to_numpy(zero_copy_only=False)
            change[1:] |= k[1:] != k[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        if ident is None:
            ident = _batch_ident(b)
        data = b.drop_columns(list(partition_cols))

        def write_partition(s: int, e: int) -> None:
            d = Path(staging_dir)
            for c in partition_cols:
                d = d / f"{c}={b[c][s].as_py()}"
            d.mkdir(parents=True, exist_ok=True)
            pq.write_table(data.slice(s, e - s), d / f"b{ident}.parquet")

        list(map_fn(write_partition, starts, ends))
        return pa.table({"files": pa.array([len(starts)], pa.int64())})

    return write_block


def write_routed(ds, staging_dir: str | Path,
                 partition_cols: list[str] | None = None,
                 num_tasks: int | None = None) -> None:
    """Streaming partitioned write of a routed dataset to staging.

    ``num_tasks`` coalesces the write into about that many tasks:
    output file count is write_tasks x partitions-touched, so writing
    from every parse-grained block multiplies tiny files (parse wants
    ~4 blocks per CPU for balance; the write wants ~64 MB per task).
    Coalescing happens via map_batches ``batch_size`` (tasks pull and
    concat adjacent blocks locally) — NOT ``repartition``, whose
    all-to-all pass through the object store costs more than the write
    itself."""
    batch_rows = None
    if num_tasks is not None:
        n = ds.count()  # metadata-only on a materialized dataset
        if n:
            batch_rows = max(1, -(-n // num_tasks))
    writer = _make_block_writer(str(staging_dir),
                                partition_cols or ["sink", "date"])
    # Consume fully; results are one tiny row per write task.
    ds.map_batches(writer, batch_format="pyarrow",
                   batch_size=batch_rows).materialize()


def drop_expired_partitions(out_root: str | Path, before_date: str) -> int:
    """S6 TTL / shard rotation: drop ``date=<d>`` partition dirs with
    d < before_date (ISO dates compare lexicographically).  The analog
    of ALCO's daily cron dropping old Sphinx RT day-shards; partition
    pruning makes retention a filesystem op, not a data job.  Returns
    the number of partition directories removed."""
    n = 0
    for d in sorted(Path(out_root).glob("sink=*/date=*")):
        if d.is_dir() and d.name.split("=", 1)[1] < before_date:
            shutil.rmtree(d)
            n += 1
    return n


def promote_staging(staging_dir: str | Path, out_root: str | Path,
                    wave_id: str) -> int:
    """Move staged files into the final partitioned tree.

    Each staged ``sink=S/date=D/<name>.parquet`` becomes
    ``out_root/sink=S/date=D/<wave_id>-<i>-<name>.parquet``.
    ``os.replace`` is atomic per file; a crash mid-promotion leaves a
    prefix of the files, which ``cleanup_uncommitted_outputs`` removes before
    the wave re-runs.  Returns the number of files promoted.
    """
    import os

    staging = Path(staging_dir)
    root = Path(out_root)
    made: set[Path] = set()
    n = 0
    for f in sorted(staging.glob("sink=*/date=*/*.parquet")):
        rel = f.relative_to(staging)
        dest = root / rel.parent
        if dest not in made:
            dest.mkdir(parents=True, exist_ok=True)
            made.add(dest)
        os.replace(f, dest / f"{wave_id}-{n:05d}-{rel.name}")
        n += 1
    shutil.rmtree(staging, ignore_errors=True)
    return n


def compacted_input_names(dirpath: str | Path) -> set[str]:
    """Basenames recorded as ``compacted_inputs`` by any ``c-*`` file in
    the directory: files a compaction already absorbed.  Readers skip
    them so the crash window between installing a compacted file and
    unlinking its inputs can never double-count rows (footer-only
    reads; cheap)."""
    import json

    import pyarrow.parquet as pq

    out: set[str] = set()
    for c in Path(dirpath).glob("c-*.parquet"):
        meta = pq.read_schema(c).metadata or {}
        out.update(json.loads(meta.get(b"compacted_inputs", b"[]")))
    return out


def compact_partitions(out_root: str | Path, target_bytes: int = 256 << 20,
                       pattern: str = "sink=*/date=*") -> int:
    """Small-file compaction of the routed sink tree (the Sphinx RT
    segment-merge analog): within each partition directory, greedily
    group files up to ``target_bytes`` and rewrite each group as one
    file.  Convergent and checkpoint-aware:

    - when the tree has a checkpoint manifest, only files belonging to
      COMMITTED waves (or earlier compactions) are touched — orphan
      files of a half-committed wave must stay identifiable by their
      wave-id prefix so ``cleanup_uncommitted_outputs`` can delete
      them before the wave re-runs (compacting them would duplicate
      the wave's rows on resume);
    - a compacted file records its input basenames in the Parquet
      key-value metadata; a recovery pass first deletes any recorded
      inputs still present, so repeated calls converge.  A crash
      between installing the compacted file and unlinking its inputs
      leaves BOTH readable until the next compaction call — schedule
      compaction when no readers race it (same operational contract
      as Sphinx segment merges);
    - compacted outputs are named ``c-<hash-of-inputs>`` so a retry
      overwrites its own file.

    Directories compact in parallel as Ray tasks (one task per
    partition dir — the natural unit; no shuffle).  Returns the number
    of files removed (inputs deleted minus outputs written).
    """
    import hashlib
    import json

    import ray

    committed: set[str] | None = None
    manifest = Path(out_root) / "_checkpoint" / "manifest.json"
    if manifest.exists():
        committed = {wid for wid, w in json.loads(manifest.read_text())
                     .items() if w.get("status") == "done"}

    def compact_dir(d: str) -> int:
        import pyarrow.parquet as pq_  # re-import inside the task

        dp = Path(d)
        removed = 0
        # recovery: sweep tmp orphans of a crash between write_table and
        # os.replace (no pass would otherwise ever touch them), then
        # drop inputs a previous crash left behind
        for tmp in dp.glob(".c-*.parquet.tmp"):
            tmp.unlink()
        for c in dp.glob("c-*.parquet"):
            meta = pq_.read_schema(c).metadata or {}
            inputs = json.loads(meta.get(b"compacted_inputs", b"[]"))
            for name in inputs:
                victim = dp / name
                if victim.exists() and victim != c:
                    victim.unlink()
                    removed += 1
        files = sorted(p for p in dp.glob("*.parquet"))
        if committed is not None:
            files = [p for p in files
                     if p.name.startswith("c-")
                     or p.name.split("-", 1)[0] in committed]
        if len(files) <= 1:
            return removed
        group: list[Path] = []
        size = 0

        def flush(group: list[Path]) -> int:
            if len(group) <= 1:
                return 0
            import pyarrow as pa_

            t = pa_.concat_tables([pq_.read_table(p) for p in group])
            names = sorted(p.name for p in group)
            h = hashlib.sha1("\n".join(names).encode()).hexdigest()[:16]
            meta = dict(t.schema.metadata or {})
            meta[b"compacted_inputs"] = json.dumps(names).encode()
            t = t.replace_schema_metadata(meta)
            dest = dp / f"c-{h}.parquet"
            tmp = dp / f".c-{h}.parquet.tmp"
            pq_.write_table(t, tmp)
            import os as os_

            os_.replace(tmp, dest)
            n = 0
            for p in group:
                if p != dest:
                    p.unlink()
                    n += 1
            return n - 1  # inputs removed minus one output added

        for p in files:
            sz = p.stat().st_size
            if group and size + sz > target_bytes:
                removed += flush(group)
                group, size = [], 0
            group.append(p)
            size += sz
        removed += flush(group)
        return removed

    dirs = sorted(str(d) for d in Path(out_root).glob(pattern) if d.is_dir())
    if not dirs:
        return 0
    if ray.is_initialized():
        worker = ray.remote(num_cpus=1)(compact_dir)
        return sum(ray.get([worker.remote(d) for d in dirs]))
    return sum(compact_dir(d) for d in dirs)


def _iso_ts_column(ts) -> "pa.Array":
    """timestamp[us] -> ISO-8601 string with explicit fractional
    micros ('%Y-%m-%dT%H:%M:%S.ffffffZ') — Arrow's strftime has no
    %f, so the micros are appended from integer arithmetic.  Exactly
    the format sources.normalize_wire_batch parses back, making
    write -> read a bit-for-bit round trip."""
    import pyarrow as pa
    import pyarrow.compute as pc

    base = pc.strftime(ts, format="%Y-%m-%dT%H:%M:%S")
    micros = pc.cast(ts, pa.int64())
    frac = pc.utf8_lpad(
        pc.cast(pc.subtract(micros,
                            pc.multiply(pc.divide(micros, 1_000_000),
                                        1_000_000)),
                pa.string()), 6, "0")
    return pc.binary_join_element_wise(
        base, frac, pa.scalar("Z", pa.string()), ".")


def _export_writer(out_dir: str | Path, fmt: str):
    """Shared JSONL/CSV export writer (runs inside map_batches):
    serialize the block with the wire-format ts encoding and write it
    to a UNIQUELY-NAMED staging file (content hash + uuid); the
    driver-side :func:`_finalize_export` then renames staging files to
    their final ``part-<hash>-<ordinal>`` names.

    Why content hash alone is NOT a final name: two byte-identical
    blocks are legal (a corpus unioned with itself), and a pure
    content-hash name would make the second block silently overwrite
    the first, losing rows (ADVICE r3).  The two-phase write keeps
    BOTH properties: no block is ever lost (staging names never
    collide), and a re-export of the same dataset produces the same
    final file set (ordinals are assigned per content hash over the
    run's full multiset of payloads, so the mapping depends only on
    the data — identical payloads are interchangeable bytes, making
    any within-hash order correct)."""
    import hashlib
    import uuid

    import pyarrow as pa

    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"staged": pa.array([], pa.string()),
                             "hash": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        cols = {c: batch[c] for c in batch.column_names}
        if "ts" in cols:
            cols["ts"] = _iso_ts_column(cols["ts"])
        t = pa.table(cols)
        if fmt == "jsonl":
            payload = t.to_pandas().to_json(
                orient="records", lines=True,
                force_ascii=False).encode()
            if not payload.endswith(b"\n"):
                payload += b"\n"
        elif fmt == "csv":
            import io

            from pyarrow import csv as pacsv

            buf = io.BytesIO()
            pacsv.write_csv(t, buf)
            payload = buf.getvalue()
        else:
            raise ValueError(f"unknown export format {fmt!r}")
        h = hashlib.sha256(payload).hexdigest()[:16]
        tmp = d / f".stage-{h}-{uuid.uuid4().hex[:12]}.{fmt}.tmp"
        tmp.write_bytes(payload)
        return pa.table({"staged": pa.array([str(tmp)], pa.string()),
                         "hash": pa.array([h], pa.string()),
                         "rows": pa.array([batch.num_rows], pa.int64())})

    return write_block


def _finalize_export(staged_meta, fmt: str) -> list[str]:
    """Driver-side rename of staged export files to their final
    ``part-<contenthash>-<ordinal>`` names (metadata-only: O(files)
    renames, no data moves).  Ordinals count duplicate payloads within
    the run, so re-exporting the same dataset reproduces the same file
    set (idempotent), while byte-identical blocks still land in
    DISTINCT files (no silent row loss — ADVICE r3).  Stray staging
    files from a crashed earlier run are swept."""
    import os
    from collections import defaultdict

    seen: dict[str, int] = defaultdict(int)
    final = []
    for r in sorted(staged_meta, key=lambda r: (r["hash"], r["staged"])):
        h = r["hash"]
        src = Path(r["staged"])
        dst = src.parent / f"part-{h}-{seen[h]}.{fmt}"
        seen[h] += 1
        os.replace(src, dst)
        final.append(str(dst))
    # sweep staging leftovers (crashed prior run / retried task twins)
    for d in {Path(p).parent for p in final}:
        for stray in d.glob(f".stage-*.{fmt}.tmp"):
            stray.unlink(missing_ok=True)
    return sorted(final)


def write_jsonl_transcripts(ds, out_dir: str | Path) -> list[str]:
    """EXPORT sink, JSON-lines wire format: the write-side dual of
    sources.read_jsonl_transcripts — read(write(ds)) reproduces ds
    bit-for-bit (ISO ts with explicit micros, nulls as JSON null).
    One file per block, content-hash-plus-ordinal names (idempotent
    re-export, duplicate-block safe), two-phase rename."""
    out = ds.map_batches(_export_writer(out_dir, "jsonl"),
                         batch_format="pyarrow").materialize()
    return _finalize_export(out.take_all(), "jsonl")


def write_csv_transcripts(ds, out_dir: str | Path) -> list[str]:
    """EXPORT sink, CSV wire format: the write-side dual of
    sources.read_csv_transcripts (quoted fields, empty = null under
    the reader's strings_can_be_null).  Same idempotent content-hash
    naming as the JSONL sink."""
    out = ds.map_batches(_export_writer(out_dir, "csv"),
                         batch_format="pyarrow").materialize()
    return _finalize_export(out.take_all(), "csv")
