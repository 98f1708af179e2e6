"""Sinks — routed, partitioned, resumable Parquet output (SURVEY.md S3).

ALCO's buffered bulk INSERT into per-logger per-day Sphinx RT shards
maps to ``sink=<logger>/date=<YYYY-MM-DD>/`` partitioned Parquet.
Buffering = one ingest batch; fan-out = :func:`_make_block_writer`,
which writes one file per (batch x partition) from inside the batch's
task — no extra shuffle, no per-sink re-scan of the input.

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
