"""Flagship pipeline: collect -> parse -> enrich -> route -> sink -> aggregate.

The Ray-Data re-expression of ALCO's collector ingest loop
(SURVEY.md §3.1 -> §3.4), one wave at a time:

  Parquet footers of the wave's pending shards            # driver: rows per shard
    -> plan_slices: batches of (path, start, stop) ranges  #   the batch cut
  from_items(batches)
    .map_batches(IngestWorker(cfg, dict_refs, staging))   # ONE fused task-pool stage:
        read the batch's row groups                       #   S1 source, in the task
        -> parse -> dict-encode -> route                  #   P1-P5,P8; T1 broadcast probe
        -> write sink=<logger>/date=<day> files           #   S3 buffered fan-out, staged
        -> per-batch partial counts                       #   the stage's only output
  merge partials -> promote staging -> manifest.commit    # ack-after-flush
  fold new waves' partials into the aggregate             # A1/A2 interval_counts

Scale properties: no full-input shuffle anywhere on the ingest path
(routing is a map + partitioned write); input rows never enter the
object store (each task reads its own row ranges, and only row ranges
and bounded partials travel); the dict tables ride in the
``IngestWorker`` instance, which Ray Data puts in the object store once
per wave, not once per batch; waves bound the blast radius of a
failure and make output resumable (state/checkpoint.py).

A wave is cut into as few batches as keep every CPU busy with tasks
that fit the smallest node (``ingest_batch_rows``): one per node when
the nodes are equal, more past a row cap.  Each task holds an equal
share of the CPUs (``ingest_task_cpus``) and spreads its batch over
that many threads.  Threads, not extra batches, do the balancing, so
the sink file count (batches x sinks x dates) grows with nodes and
rows, not with CPUs.  A wave's batches run side by side.  Ray Data
reserves ``target_max_block_size`` x
``_max_num_blocks_in_streaming_gen_buffer`` (256 MiB by default) of
object store for each map task that has not yet reported an output
size, so on a small store one task would run until the first
returned.  The wave plan's only output is the partials, so
``run_flagship`` declares it small on the wave dataset's own context
(why that is safe: ``IngestWorker``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..specs import (LEVELS, TRANSCRIPT_SCHEMA, UNKNOWN_LEVEL, PipelineConfig,
                     default_transcript_config)
from ..sources import conform, transcript_files
from ..sinks import promote_staging
from ..stages.aggregate import (arrow_blocks, merge_aggs, merge_partials,
                                partial_agg)
from ..stages.parse import make_parse_batch
from ..stages.dict_encode import (build_dict_table, dicts_from_distincts,
                                  distinct_values)
from ..stages.route import make_route_batch
from ..state.checkpoint import (CheckpointManifest,
                                cleanup_uncommitted_outputs, make_waves)


#: Dictionary-encoded columns are the LOW-cardinality enum-ish ones
#: (role, tool): every dict is broadcast whole to every ingest task
#: and grown via a driver-side set, so a high-cardinality column
#: (user text, ids) pointed at this path would silently build a
#: giant driver-resident dict.  Guarded: past this cap the build
#: RAISES naming the column instead of degrading.
MAX_DICT_CARDINALITY = 100_000

#: Rows per ingest batch at most, so worker heap stays bounded.
MAX_BATCH_ROWS = 300_000

_log = logging.getLogger("alco_ray")


def build_or_load_dicts(files: list[str], cfg: PipelineConfig,
                        cache_dir: str | Path,
                        max_cardinality: int = MAX_DICT_CARDINALITY,
                        ) -> dict[str, pa.Table]:
    """J1 build: role/tool dicts from a column-pruned distinct scan,
    cached as Parquet artifacts and grown **insert-if-absent**.

    The scan runs on the driver, one row group at a time, reading only
    the dictionary columns of the shards the cache has not seen,
    through ``dict_encode.distinct_values`` (the parse stage's
    normalize, then unique) and ``dicts_from_distincts``.  Those
    columns are low-cardinality by contract, so this is tens of
    milliseconds for a 64-shard wave, where a Ray Data plan costs ~1 s
    to start.

    The cache tracks which corpus files it has already folded in
    (``_scanned.json``), so a re-run scans only NEW shards; values
    unseen by the cache are APPENDED with ids continuing after the
    existing max — ALCO's Redis insert-if-absent semantics — so ids
    already written into routed output never change when the corpus
    grows.  (First build = sorted distinct, the documented
    deterministic deviation from Redis arrival order; a vocab-stable
    appended corpus therefore yields byte-identical dicts to a fresh
    full build.)  The level dict is the static canonical set (the
    level vocabulary is config, not data).

    Concurrency contract: ONE writer per cache dir at a time (the
    checkpointed out_root default satisfies this; a shared
    ``dict_cache`` must not be grown by overlapping runs — per-file
    writes are atomic, but the grow step is read-modify-write)."""
    dicts: dict[str, pa.Table] = {}
    dynamic = [c for c in cfg.filtered_columns() if c != "level"]
    cache = Path(cache_dir)
    if dynamic:
        state_path = cache / "_scanned.json"
        scanned = set(json.loads(state_path.read_text())) \
            if state_path.exists() else set()
        for c in dynamic:
            p = cache / f"{c}.parquet"
            if p.exists():
                dicts[c] = pq.read_table(p)
        pending = [f for f in sorted(files) if f not in scanned]
        if pending:
            fresh = dicts_from_distincts(
                [distinct_values(t, dynamic)
                 for t in _row_groups(pending, dynamic)], dynamic)
            cache.mkdir(parents=True, exist_ok=True)
            for c in dynamic:
                old = dicts.get(c)
                if old is not None:
                    have = set(dicts[c]["value"].to_pylist())
                    new_vals = [v for v in fresh[c]["value"].to_pylist()
                                if v not in have]
                    if new_vals:
                        grown = pa.table({
                            "value": pa.array(
                                list(dicts[c]["value"].to_pylist())
                                + sorted(new_vals), pa.string()),
                            "id": pa.array(
                                range(len(have) + len(new_vals)), pa.int32()),
                        })
                        dicts[c] = grown
                else:
                    dicts[c] = fresh[c]
                if dicts[c].num_rows > max_cardinality:
                    raise ValueError(
                        f"dictionary column {c!r} has cardinality "
                        f"{dicts[c].num_rows} > max_cardinality="
                        f"{max_cardinality}: dictionary encoding is "
                        "for low-cardinality enum columns (the dict "
                        "is broadcast whole to every ingest task); exclude "
                        "this column or raise the cap explicitly")
                if dicts[c] is not old:  # new or grown
                    tmp = cache / f".{c}.parquet.tmp.{os.getpid()}"
                    pq.write_table(dicts[c], tmp)
                    os.replace(tmp, cache / f"{c}.parquet")
            scanned.update(pending)
            tmp = cache / f"._scanned.json.tmp.{os.getpid()}"
            tmp.write_text(json.dumps(sorted(scanned)))
            os.replace(tmp, state_path)
    if "level" in cfg.filtered_columns():
        dicts["level"] = build_dict_table(sorted([*LEVELS, UNKNOWN_LEVEL]))
    return dicts


def _row_groups(files: list[str], columns: list[str]):
    """Each row group of ``files`` in order, reading only ``columns``,
    cast to their canonical types (``conform``); a read error, a
    value the cast cannot hold, or a requested column the file lacks
    (which ``read_row_group`` would silently drop) names the file."""
    target = pa.schema([TRANSCRIPT_SCHEMA.field(c) for c in columns])
    for f in files:
        try:
            pf = pq.ParquetFile(f)
            missing = [c for c in columns if c not in pf.schema_arrow.names]
            if missing:
                raise RuntimeError(f"reading {f}: no column {missing[0]!r}")
            for i in range(pf.num_row_groups):
                yield conform(pf.read_row_group(i, columns=columns,
                                                use_threads=False), target)
        except (OSError, pa.ArrowException) as e:
            raise RuntimeError(f"reading {f}: {e}") from e


def plan_slices(row_counts: list[tuple[str, int]], batch_rows: int,
                ) -> list[list[tuple[str, int, int]]]:
    """Cut the rows of ``row_counts`` (``(path, rows)`` per file), in
    file order, into batches of ``batch_rows`` rows; the last batch
    takes the rest.  A batch is a list of ``(path, start, stop)`` row
    ranges and may span files; an empty file gets no range."""
    batches: list[list[tuple[str, int, int]]] = []
    cur: list[tuple[str, int, int]] = []
    room = batch_rows
    for path, n in row_counts:
        start = 0
        while start < n:
            stop = min(n, start + room)
            cur.append((path, start, stop))
            room -= stop - start
            start = stop
            if room == 0:
                batches.append(cur)
                cur, room = [], batch_rows
    if cur:
        batches.append(cur)
    return batches


def read_slices(ranges: list[tuple[str, int, int]]) -> pa.Table:
    """The rows of ``ranges`` as one contiguous table in the canonical
    transcript schema (``conform``, so shards that differ only
    physically can share a batch), reading only the row groups that
    overlap each range."""
    parts = []
    for path, start, stop in ranges:
        pf = pq.ParquetFile(path)
        groups, first, offset = [], 0, 0
        for i in range(pf.metadata.num_row_groups):
            n = pf.metadata.row_group(i).num_rows
            if offset < stop and offset + n > start:
                if not groups:
                    first = offset
                groups.append(i)
            offset += n
        parts.append(conform(pf.read_row_groups(groups, use_threads=False)
                             .slice(start - first, stop - start)))
    return pa.concat_tables(parts).combine_chunks()


def split_ranges(ranges: list[tuple[str, int, int]], parts: int,
                 ) -> list[list[tuple[str, int, int]]]:
    """Cut one batch's ``(path, start, stop)`` ranges, in order, into at
    most ``parts`` runs of consecutive rows (``plan_slices`` over the
    ranges, with ceil(rows / parts) rows per run)."""
    rows = sum(stop - start for _, start, stop in ranges)
    cut = plan_slices([(i, stop - start)
                       for i, (_, start, stop) in enumerate(ranges)],
                      max(1, -(-rows // parts)))
    return [[(ranges[i][0], ranges[i][1] + s, ranges[i][1] + e)
             for i, s, e in run] for run in cut]


def _ranges_ident(ranges: list[tuple[str, int, int]]) -> str:
    """A batch's file-name identity: 16 hex digits of a blake2b over its
    ``(path, start, stop)`` ranges."""
    return hashlib.blake2b(repr(ranges).encode(),
                           digest_size=8).hexdigest()


class IngestWorker:
    """The collector, fused: read -> parse -> dict-encode -> route (->
    buffered sink insert) in ONE task-pool stage.  ``run_flagship``
    builds one instance per wave on the driver (broadcast dict tables
    fetched and pattern registry compiled once, in ``__init__``) and
    passes the instance itself as the ``map_batches`` UDF over the
    wave's planned batches, so Ray Data ships it to the object store
    once per wave and every task reuses it.  Each input row is one
    batch: its ``path``/``start``/``stop`` row ranges (``plan_slices``),
    which the task reads itself (``read_slices``).

    This is ALCO's collector worker re-expressed: consume a batch,
    parse/enrich it, bulk-insert it into the routed per-logger per-day
    sink, and emit only the counters.  Putting the scan inside the task
    means input rows never enter the object store (only their ranges
    do) and a wave pays no Parquet reader setup (metadata prefetch and
    sampling tasks).  The whole ingest CPU budget lives in one stage,
    and the routed rows never enter the object store either: the task
    writes them under ``staging_dir``, and the stage's dataset output
    is just the per-batch partial aggregate (sink, level, bucket ->
    rows, failures).

    Because that output is small, ``run_flagship`` sets
    ``target_max_block_size = None`` on the wave dataset's context.
    Ray Data then reserves no block-sized object store budget for a
    task that has not reported yet (it uses the measured partial size
    once one has), and does not split output blocks, so every batch
    of the wave starts as soon as a CPU is free instead of one after
    another.  This is safe because a partial holds one row per
    (sink, level, 5-minute bucket) key of its batch, and the bucket
    key grows with the corpus's time span: 68,747 keys, 2.83 MB, for a
    165k-row sf0.1 batch over ~30 days.  A batch has at most
    ``MAX_BATCH_ROWS`` rows, so at most that many keys (~12 MB at
    41 bytes a key), still far below the 256 MiB block Ray Data would
    otherwise reserve per task; and ``from_items`` gives the dataset
    its own copy of the current ``DataContext``, so the setting
    reaches neither the process's context nor any other plan (no read
    operator sees it).

    It is a task pool, not an actor pool, because nothing in it changes
    after ``__init__``: an actor pool would only add a fresh worker
    process per wave (start, re-import ``ray.data``/``pandas``/
    ``alco_ray``): a one-shard (1,500-turn) append took ~1.8 s with
    it and ~0.45 s without, on a 1-core host.  Tasks run in Ray's
    already-started workers, so a 1-CPU cluster runs every batch too.

    A task spreads its batch over ``threads`` threads: the CPUs
    ``run_flagship`` reserved for it (``ingest_task_cpus``), all of a
    node's CPUs when the wave is one batch per node.  Threads, not
    batches, balance the work, so a wave writes one set of sink files
    per batch, not per CPU.  The task cuts the batch's ranges into
    ``threads`` row-balanced runs (``split_ranges``), reads, parses,
    encodes and routes each run on its own thread, and concatenates
    the results in order; every parse kernel works row by row, so the
    routed table does not depend on the thread count.  Arrow kernels
    run mostly outside the GIL.  One thread is one run on one worker
    thread, the same code.  (A row group split between two runs is
    decoded by both.)  The writer then partitions the routed batch on
    the task's thread and encodes its files on Arrow's IO thread pool
    (``sinks._make_block_writer``), which belongs to the worker
    process and is not among the CPUs Ray gave the task.

    The stage's plan executes ONCE per wave: the driver collects the
    partials with ``stages.aggregate.arrow_blocks``, which never
    re-runs a plan, so no second pass ever rewrites a batch's sink
    files.  Retried tasks are still safe: the driver fixes each
    batch's rows, and a batch's sink files are named by a hash of its
    ``(path, start, stop)`` ranges (``_ranges_ident``), not of its
    rows, so a replayed batch overwrites its own files and re-emits
    the same partial; different batches of a wave have different
    ranges, and ``promote_staging``'s wave prefix separates waves.  An
    error while reading or processing a batch re-raises naming
    ``wave_id`` and the batch's ranges."""

    def __init__(self, cfg: PipelineConfig, dict_refs: dict[str, Any],
                 staging_dir: str, wave_id: str | None = None,
                 threads: int = 1):
        from ..sinks import _make_block_writer

        self.parse = make_parse_batch(cfg)
        self.route = make_route_batch(cfg)
        self.dicts = {c: ray.get(r).combine_chunks()
                      for c, r in dict_refs.items()}
        self.writer = _make_block_writer(staging_dir, ["sink", "date"])
        self.wave_id = wave_id
        self.threads = threads

    def _routed(self, ranges: list[tuple[str, int, int]]) -> pa.Table:
        from ..stages.dict_encode import encode_with_dicts

        return self.route(encode_with_dicts(
            self.parse(read_slices(ranges)), self.dicts))

    def __call__(self, slices: pa.Table) -> pa.Table:
        [batch] = slices.to_pylist()  # batch_size=1: one planned batch
        ranges = list(zip(batch["path"], batch["start"], batch["stop"]))
        try:
            with ThreadPoolExecutor(self.threads) as pool:
                routed = pa.concat_tables(pool.map(
                    self._routed, split_ranges(ranges, self.threads),
                )).combine_chunks()
            self.writer(routed, _ranges_ident(ranges))
            return _partial_of(routed)
        except Exception as e:
            raise RuntimeError(
                f"wave {self.wave_id} batch {ranges}: {e}") from e


_PARTIAL_KEYS = ["sink", "level", "bucket"]
#: The T3 counters per key: rows, and rows that failed to parse.
_PARTIAL_AGGS = {"rows": ([], "count_all"), "failures": ("fail", "sum")}
#: What ``_partial_of`` returns; a wave without rows commits it empty.
_PARTIAL_SCHEMA = pa.schema([("sink", pa.string()), ("level", pa.string()),
                             ("bucket", pa.timestamp("us")),
                             ("rows", pa.int64()), ("failures", pa.int64())])


def _counted(routed: pa.Table) -> pa.Table:
    """The columns ``_PARTIAL_AGGS`` counts: the keys, and ``fail`` (1
    for a row that failed to parse)."""
    return pa.table({"sink": pc.cast(routed["sink"], pa.string()),
                     "level": routed["level"], "bucket": routed["bucket"],
                     "fail": pc.cast(pc.invert(routed["parse_ok"]),
                                     pa.int64())})


#: Per-batch partial aggregate (sink, level, bucket) -> (rows,
#: failures), computed where the rows are.
_partial_of = partial_agg(_PARTIAL_KEYS, _PARTIAL_AGGS, _counted)


def _merge_partials(parts: list[pa.Table]) -> pa.Table:
    """Combine per-batch partials into the wave's partial aggregate.

    Per-batch partials are bounded by key cardinality (sinks x levels
    x buckets-touched), so the final combine is a driver-side merge of
    tiny tables — a distributed shuffle here would be pure overhead.
    A wave without batches merges to the empty ``_PARTIAL_SCHEMA``."""
    return merge_partials(parts, _PARTIAL_KEYS, merge_aggs(_PARTIAL_AGGS),
                          _PARTIAL_SCHEMA)


def _metrics_from_partials(partials: pa.Table) -> dict[str, Any]:
    """The wave's manifest metrics; ``routed_counts`` in sink order."""
    by_sink = (partials.group_by("sink").aggregate([("rows", "sum")])
               .sort_by("sink"))
    return {
        "rows": pc.sum(partials["rows"], min_count=0).as_py(),
        "parse_failures": pc.sum(partials["failures"], min_count=0).as_py(),
        "routed_counts": dict(zip(by_sink["sink"].to_pylist(),
                                  by_sink["rows_sum"].to_pylist())),
    }


#: Key of the interval-counts file's Parquet metadata that lists the
#: committed waves it sums.
_COVERS = b"alco_ray.covers"


def _fold_interval_counts(path: Path, partials_dir: Path, waves: list[str],
                          in_memory: dict[str, pa.Table]) -> None:
    """Bring the interval-counts aggregate at ``path`` up to ``waves``,
    the committed waves.  The counts are sums, so the aggregate folds
    with the partials of only the waves its metadata (``_COVERS``)
    does not list yet: those in ``in_memory`` (this run's) as they
    are, the others (a crash fell before their fold) read from
    ``partials_dir``.  A missing aggregate, unreadable coverage, or
    coverage naming a wave not in ``waves`` rebuilds it from every
    partial.  One input (a merged wave partial, as on a fresh
    ingest) is written as it is, and an aggregate that covers every
    wave is left alone.  The file is replaced in one ``os.replace``,
    so its counts and its coverage change together and a crash leaves
    the previous aggregate; readers skip the hidden temp file."""
    cols = _PARTIAL_KEYS + ["rows"]
    try:
        old = pq.ParquetFile(path)
        covered = set(json.loads(old.schema_arrow.metadata[_COVERS]))
    except (OSError, pa.ArrowException, KeyError, TypeError, ValueError):
        covered = None
    inputs: list[pa.Table] = []
    if covered is None or not covered <= set(waves):
        covered = set()  # rebuild
    elif covered == set(waves):
        return
    else:
        inputs.append(old.read().rename_columns(cols))
    for wid in waves:
        if wid in covered:
            continue
        inputs.append(in_memory[wid].select(cols) if wid in in_memory else
                      pq.read_table(partials_dir / f"{wid}.parquet",
                                    columns=cols))
    agg = inputs[0] if len(inputs) == 1 else merge_partials(
        inputs, _PARTIAL_KEYS, [("rows", "sum")], _PARTIAL_SCHEMA)
    agg = agg.rename_columns(_PARTIAL_KEYS + ["cnt"]).replace_schema_metadata(
        {_COVERS: json.dumps(sorted(waves))})
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp"
    pq.write_table(agg, tmp)
    os.replace(tmp, path)


def ingest_batch_rows(n_rows: int, cpus: int, node_cpus: int) -> int:
    """Rows per ingest batch for a wave of ``n_rows`` on a cluster of
    ``cpus`` CPUs whose smallest node has ``node_cpus``: the fewest
    batches of at most ``MAX_BATCH_ROWS`` rows that keep every CPU busy
    with tasks of ``ingest_task_cpus`` CPUs, so at least one per node;
    a one-node wave is one batch that its threads balance.  Sink files
    are batches x sinks x dates, so this fixes the output layout."""
    cut = -(-n_rows // MAX_BATCH_ROWS)
    batches = max(cut, cpus // ingest_task_cpus(cut, cpus, node_cpus))
    return max(1, -(-n_rows // batches))


def ingest_task_cpus(n_batches: int, cpus: int, node_cpus: int) -> int:
    """CPUs (and threads) per ingest task for a wave of ``n_batches``
    batches on a cluster of ``cpus`` CPUs whose smallest node has
    ``node_cpus``: an equal share of the cluster per batch, at most the
    smallest node, at least one.  The wave's tasks together never hold
    more than the cluster's CPUs, and each fits on every node."""
    return max(1, min(node_cpus, cpus // max(1, n_batches)))


def run_flagship(input_dir: str | Path, out_root: str | Path,
                 cfg: PipelineConfig | None = None, *,
                 wave_size: int = 64,
                 write_aggregates: bool = True,
                 dict_cache: str | Path | None = None) -> dict[str, Any]:
    """Run (or resume) the flagship ingest over a transcript corpus.

    Returns a summary dict with total metrics; detailed per-wave lineage
    lives in ``<out_root>/_checkpoint/manifest.json``.

    ``wave_size`` trades resume granularity against fixed per-wave cost
    (plan start, execution barrier, partial fold, promote, commit).  A
    one-shard (1,500-turn) append wave takes ~0.2 s end to end on a
    4-vCPU host with 4 Ray CPUs, most of it that fixed cost.
    Size waves so each carries at least ~a minute of compute: at
    10^12-turn scale that is tens of ~1 GB shards per wave and the
    overhead is percent-level; 1-file waves would be dominated by it.
    Each committed wave logs one INFO line on the ``alco_ray`` logger
    (wave id, input files, planned batches, rows, parse failures, files
    promoted, wall seconds).

    Shards need the canonical transcript columns
    (``specs.TRANSCRIPT_SCHEMA``), not its physical types: each task
    and the dictionary scan cast what they read to it (``conform``),
    so ``large_string`` text, a dictionary ``role``, ``int64``
    turn_idx, ``timestamp[ms]`` ts, reordered or extra columns ingest
    like the canonical shard, and the sink tree keeps one schema per
    sink.  A shard without a dictionary column (``role``/``tool``) is
    rejected, not read as nulls: the dictionary scan runs before the
    first wave and raises naming the file and the column, so no task
    runs.  A null ``tool`` is the value for a non-tool turn, and a
    missing column is more likely a producer bug than such a corpus.
    """
    cfg = cfg or default_transcript_config()
    out_root = Path(out_root)
    files = transcript_files(input_dir)
    if not files:
        raise FileNotFoundError(f"no parquet shards under {input_dir}")

    manifest = CheckpointManifest(out_root)

    # Incremental / append-stable ingest: the manifest is keyed by the
    # FILES each committed wave processed, so a grown corpus resumes by
    # processing only the new shards — the streaming collector's most
    # common operation.  A *shrunk* corpus is ambiguous (totals would
    # silently include vanished data) and is rejected.
    processed = manifest.processed_files()
    gone = sorted(processed - set(files))
    if gone:
        raise ValueError(
            f"checkpoint at {out_root} records {len(gone)} processed "
            f"file(s) missing from the corpus (first: {gone[0]}); "
            "committed totals would silently include vanished data — "
            "use a fresh out_root for a shrunk/replaced corpus")
    # A shard rewritten IN PLACE (same name, new size/mtime) must not
    # be silently treated as already-processed: committed output and
    # aggregates would go stale.  Same contract as the shrunk-corpus
    # check; use a fresh out_root for a replaced corpus.
    recorded = manifest.file_sigs()
    for f in files:
        sig = recorded.get(f)
        if sig is not None:
            st = os.stat(f)
            if [st.st_size, st.st_mtime_ns] != sig:
                raise ValueError(
                    f"checkpoint at {out_root} recorded {f} with "
                    f"size/mtime {sig}, but the file on disk has "
                    f"[{st.st_size}, {st.st_mtime_ns}] — shard rewritten "
                    "in place; use a fresh out_root for a replaced corpus")
    pending = [f for f in files if f not in processed]
    # Signatures captured BEFORE any wave reads its files: a shard a
    # producer rewrites/appends WHILE a wave is reading it must carry
    # its pre-read signature in the manifest, so the next resume
    # detects the change instead of silently dropping the new rows.
    pending_sigs: dict[str, list] = {}
    for f in pending:
        try:
            st = os.stat(f)
            pending_sigs[f] = [st.st_size, st.st_mtime_ns]
        except OSError:
            pass
    waves = make_waves(pending, wave_size)
    # Orphans of half-committed waves (any wave-id prefix not in the
    # manifest) are deleted up front; content-hashed wave ids mean a
    # crashed run's regrouped pending files get fresh ids.
    cleanup_uncommitted_outputs(out_root, set(manifest.waves))

    partials_dir = out_root / "_checkpoint" / "partials"
    partials_dir.mkdir(parents=True, exist_ok=True)

    dict_refs = None
    fresh: dict[str, pa.Table] = {}  # this run's wave partials
    if pending:
        # Insert-if-absent growth keyed by already-scanned shards: a
        # resume/append run scans only new files, and ids already
        # written into committed output never change.  ``dict_cache``
        # lets runs over the same corpus share the artifact (ALCO's
        # dictionaries live in Redis and are warm for every collector;
        # rebuilding them per job is fixed cost the reference never
        # pays).
        dicts = build_or_load_dicts(files, cfg,
                                    dict_cache or out_root / "dicts")
        dict_refs = {col: ray.put(t) for col, t in dicts.items()}

    for wave_id, wave_files in waves:
        if manifest.is_done(wave_id):
            continue
        started = time.perf_counter()
        staging = out_root / "_staging" / wave_id
        shutil.rmtree(staging, ignore_errors=True)

        # The batch cut, from the shards' footers: rows in file order,
        # ingest_batch_rows per batch.  Fixed here, not by block
        # arrival order, so a retried task rebuilds the same batch.
        counts = []
        for f in wave_files:
            try:
                counts.append((f, pq.read_metadata(f).num_rows))
            except (OSError, pa.ArrowException) as e:
                raise RuntimeError(f"wave {wave_id}: reading the footer "
                                   f"of {f}: {e}") from e
        cpus = int(ray.cluster_resources().get("CPU", 8))
        # The smallest node's CPUs (a CPU-less head limits nothing).
        node_cpus = int(min(n["Resources"].get("CPU") or cpus
                            for n in ray.nodes() if n["Alive"]))
        batches = plan_slices(counts, ingest_batch_rows(
            sum(n for _, n in counts), cpus, node_cpus))
        task_cpus = ingest_task_cpus(len(batches), cpus, node_cpus)
        # ONE streaming pass: each task reads its batch's row ranges,
        # then parses, enriches, routes, writes its sink files AND
        # reduces them to a partial-count table — input and routed
        # rows never transit the object store, there is no
        # materialize barrier, and the stage's output IS the wave's
        # metric partials.  A wave of empty shards runs no plan.
        parts = []
        if batches:
            ds = ray.data.from_items(
                [{"path": [r[0] for r in b], "start": [r[1] for r in b],
                  "stop": [r[2] for r in b]} for b in batches],
                override_num_blocks=len(batches))
            # The stage outputs only partials (MBs, not the 256 MiB
            # block Ray Data assumes; see IngestWorker): without this,
            # Ray Data reserves a full block per task until the first
            # one reports, and on a small object store that lets one
            # batch run at a time.  ds.context is this plan's own copy
            # (see IngestWorker).
            ds.context.target_max_block_size = None
            parts = arrow_blocks(ds.map_batches(
                IngestWorker(cfg, dict_refs, staging_dir=str(staging),
                             wave_id=wave_id, threads=task_cpus),
                batch_format="pyarrow", batch_size=1, num_cpus=task_cpus))
        partials = _merge_partials(parts)
        pq.write_table(partials, partials_dir / f"{wave_id}.parquet")
        promoted = promote_staging(staging, out_root, wave_id)
        metrics = _metrics_from_partials(partials)
        manifest.commit(wave_id, input_files=wave_files, metrics=metrics,
                        input_sigs={f: pending_sigs[f] for f in wave_files
                                    if f in pending_sigs})
        fresh[wave_id] = partials
        _log.info("wave %s committed: input_files=%d batches=%d "
                 "task_cpus=%d rows=%d parse_failures=%d "
                 "promoted_files=%d wall_s=%.3f",
                 wave_id, len(wave_files), len(batches), task_cpus,
                 metrics["rows"],
                 metrics["parse_failures"], promoted,
                 time.perf_counter() - started)

    shutil.rmtree(out_root / "_staging", ignore_errors=True)

    summary = manifest.total_metrics()
    if write_aggregates:
        # A1/A2: exact interval counts over ALL committed waves (earlier
        # runs' too): the committed aggregate folded with the partials
        # of the waves it does not cover yet, so an append run reads
        # no old partial and no committed corpus data.  Bounded key
        # cardinality keeps this driver-side.
        agg_dir = out_root / "aggregates" / "interval_counts"
        _fold_interval_counts(agg_dir / "part-00000.parquet", partials_dir,
                              list(manifest.waves), fresh)
        summary["aggregate_files"] = len(list(agg_dir.glob("*.parquet")))
    return summary
