"""Sinks — routed, partitioned, resumable Parquet output (SURVEY.md S3).

ALCO's buffered bulk INSERT into per-logger per-day Sphinx RT shards
maps to ``sink=<logger>/date=<YYYY-MM-DD>/`` partitioned Parquet.
Buffering = one ingest batch; fan-out = :func:`_make_block_writer`,
which writes one file per (batch x partition) from inside the batch's
task with one Arrow ``write_dataset`` call — no extra shuffle, no
per-sink re-scan of the input, no per-partition Python loop.

Writes go to a staging directory first; :func:`promote_staging` then
moves every file into the final tree under a deterministic
``<wave_id>-`` filename prefix (atomic per-file ``os.replace``).
Combined with the checkpoint manifest this yields partition-level
exactly-once output (see alco_ray.state.checkpoint).  Nothing rewrites
a promoted file: the tree is every committed wave's files, so a reader
lists it with one glob (``sources.routed_output_files``).
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

    One ``pyarrow.dataset.write_dataset`` call per block writes one
    file per distinct ``partition_cols`` key under ``<col>=<value>/``
    (a null key is ``<col>=None``) with the bytes ``pq.write_table``
    gives that key's rows in block order.  The partitioning runs on
    the calling thread; Arrow encodes and writes the files on its IO
    thread pool (``pa.io_thread_count()``), outside the GIL and outside
    the CPUs Ray counts for the task.  The settings keep that exact:
    ``use_threads=False`` and a ``RecordBatchReader`` source keep block
    order (pyarrow 16 reorders a multi-chunk ``Table`` source whose
    chunk outgrows a scan batch); row groups of ``1 << 20`` rows are
    ``pq.write_table``'s; ``segment_encoding="none"`` writes key
    values raw.  ``max_partitions`` is above any block's key count (at
    the default, 1,024, more keys raise), and so is ``max_open_files``
    (at the default, more keys close and reopen files, splitting a
    partition into ``.0``, ``.1``, ...) up to half the process's
    open-file limit, since every key holds an open file until the
    block is written.

    Every partition's file is named ``b<ident>.0.parquet``, so a
    retried task overwrites its own files (idempotent) instead of
    duplicating rows.  ``ident`` must be the same on every attempt over
    the same rows and differ between the blocks written to one staging
    directory.  The flagship passes a hash of its batch's row ranges,
    which its driver fixes (``plan_slices``).  Without one, the name is
    a content hash of the block (:func:`_batch_ident`), which covers
    row order, so a retried task must see the same rows in the same
    order: the index builders, which rely on it, map over the
    immutable blocks of a materialized dataset."""
    import resource

    import pyarrow as pa
    import pyarrow.dataset as pds

    nofile = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    open_files = nofile // 2 if nofile != resource.RLIM_INFINITY else 1 << 30

    def write_block(batch: pa.Table, ident: str | None = None) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"files": pa.array([0], pa.int64())})
        keys = batch.num_rows + 1  # more than the block's keys
        files: list[str] = []
        pds.write_dataset(
            batch.to_reader(), staging_dir, format="parquet",
            partitioning=pds.HivePartitioning(
                pa.schema([batch.schema.field(c) for c in partition_cols]),
                null_fallback="None", segment_encoding="none"),
            basename_template=f"b{ident or _batch_ident(batch)}.{{i}}.parquet",
            use_threads=False,
            min_rows_per_group=1 << 20, max_rows_per_group=1 << 20,
            max_partitions=keys, max_open_files=min(keys, open_files),
            existing_data_behavior="overwrite_or_ignore",
            file_visitor=lambda f: files.append(f.path))
        return pa.table({"files": pa.array([len(files)], pa.int64())})

    return write_block


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
