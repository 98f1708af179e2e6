"""Per-layer measurements, all taken from outside the package.

Ingest layers: ``replay_ingest`` re-runs ``IngestWorker``'s kernels
in-process, single-threaded, on batches sized as ``run_flagship`` sizes
them, timing each layer call with a span.  The replay is also the
stream-processing baseline: the same work without Ray.  The Ray side of
an ingest comes from Ray Data's own execution log (``RayDataLog``).

Query layers: the four queries of the grep/count mix, each timed from
the call to its last consumed batch.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from alco_ray.pipelines import flagship
from alco_ray.pipelines.flagship import IngestWorker, build_or_load_dicts
from alco_ray.sinks import promote_staging
from alco_ray.sources import read_routed_output, transcript_files
from alco_ray.specs import default_transcript_config
from alco_ray.stages import aggregate, order, window
from alco_ray.stages.dict_encode import encode_with_dicts
from alco_ray.state.checkpoint import CheckpointManifest

from pipebench.tracing import Tracer

QUERIES = {
    "aggregate.interval_counts": lambda tree: aggregate.interval_counts(
        read_routed_output(tree, columns=["sink", "level", "bucket"])),
    "order.stable_order": lambda tree: order.stable_order(
        read_routed_output(tree, columns=["conv_id", "turn_idx", "text"])),
    "window.rolling_count": lambda tree: window.rolling_count(
        read_routed_output(tree, columns=["conv_id", "turn_idx", "level"]),
        flag_col="level", flag_value="ERROR", radius=2),
    "order.per_conv_turn_stats": lambda tree: order.per_conv_turn_stats(
        read_routed_output(tree, columns=["conv_id", "turn_idx", "ts"])),
}

# Replay spans whose self time is per-row kernel work (flagship.kernel_s).
KERNEL_SPANS = ("sources.read", "parse", "dict_encode", "route",
                "sinks.write", "flagship.partial")


def run_query(name: str, tree: Path) -> pa.Table:
    ds = QUERIES[name](tree)
    return aggregate.concat_nonempty(
        list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def partition_skew(tree: Path) -> float:
    """Max / mean rows per ``partition_by_key`` partition of conv_id
    over the sink tree, at the partition count the package picks."""
    ds = read_routed_output(tree, columns=["conv_id"])
    n = ds.count()
    n_parts = window.suggest_key_partitions(n)
    counts = (window.partition_by_key(ds, "conv_id", n_parts=n_parts)
              .groupby("part").count().to_pandas())
    return float(counts["count()"].max() / (n / n_parts))


def flagship_batch_rows(n_rows: int, cpus: int) -> int:
    """Rows per IngestWorker batch.  Mirrors run_flagship's sizing in
    alco_ray/pipelines/flagship.py (its ``n_act`` pool size and
    ``rows_per_batch``, without an ``encoder_concurrency`` override);
    change both together."""
    n_act = max(1, min(cpus - max(1, cpus // 8), max(1, n_rows // 50_000)))
    return max(1, min(-(-n_rows // (2 * n_act)), 300_000))


def snapshot(out_root: Path, dest: Path) -> None:
    """Copy the dictionary cache and checkpoint manifest an ingest is
    about to start from, so the replay starts from the same state."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if (out_root / "dicts").exists():
        shutil.copytree(out_root / "dicts", dest / "dicts")
    manifest = out_root / "_checkpoint" / "manifest.json"
    if manifest.exists():
        (dest / "_checkpoint").mkdir()
        shutil.copy(manifest, dest / "_checkpoint" / "manifest.json")


def replay_ingest(tracer: Tracer, input_dir: Path, new_files: list[Path],
                  state: Path, cpus: int) -> dict:
    """Replay one ingest's layers in-process from ``state`` (a
    ``snapshot``); returns the counts, the tracer holds the times."""
    cfg = default_transcript_config()
    files = [str(f) for f in new_files]
    staging = state / "_staging"
    counts = {"rows": 0, "bytes": sum(f.stat().st_size for f in new_files),
              "parse_failures": 0, "dead_letter_rows": 0, "files": 0}
    partitions: set[tuple[str, str]] = set()
    parts = []
    with tracer.span("replay"):
        with tracer.span("dicts.build"):
            dicts = build_or_load_dicts(transcript_files(input_dir), cfg,
                                        state / "dicts")
        refs = {c: ray.put(t) for c, t in dicts.items()}
        worker = IngestWorker(cfg, refs, staging_dir=str(staging))
        with tracer.span("sources.read"):
            table = pa.concat_tables([pq.read_table(f) for f in files])
        counts["rows"] = table.num_rows
        step = flagship_batch_rows(table.num_rows, cpus)
        for off in range(0, table.num_rows, step):
            batch = table.slice(off, step)
            with tracer.span("parse"):
                parsed = worker.parse(batch)
            with tracer.span("dict_encode"):
                encoded = encode_with_dicts(parsed, worker.dicts)
            with tracer.span("route"):
                routed = worker.route(encoded)
            with tracer.span("sinks.write"):
                written = worker.writer(routed)
            with tracer.span("flagship.partial"):
                parts.append(flagship._partial_of(routed))
            counts["files"] += written["files"][0].as_py()
            counts["parse_failures"] += pc.sum(
                pc.invert(routed["parse_ok"])).as_py() or 0
            counts["dead_letter_rows"] += pc.sum(pc.equal(
                routed["sink"], cfg.dead_letter)).as_py() or 0
            keys = routed.select(["sink", "date"]).group_by(
                ["sink", "date"]).aggregate([])
            partitions.update(zip(keys["sink"].to_pylist(),
                                  keys["date"].to_pylist()))
        with tracer.span("flagship.partial"):
            merged = flagship._merge_partials(parts)
        with tracer.span("sinks.promote"):
            promote_staging(staging, state, "wreplay")
        with tracer.span("checkpoint.commit"):
            CheckpointManifest(state).commit(
                "wreplay", input_files=files,
                metrics=flagship._metrics_from_partials(merged))
    counts["partitions"] = len(partitions)
    return counts


def ingest_layer_metrics(self_times: dict[str, float], counts: dict,
                         wall_s: float, executions: list[dict],
                         manifest_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one ingest from its replay's self times and
    counts, its wall time and its Ray Data executions."""
    if not executions:
        raise RuntimeError("no Ray Data execution found in the session log")
    st = {k: self_times.get(k, 0.0) for k in (
        *KERNEL_SPANS, "dicts.build", "sinks.promote", "checkpoint.commit")}
    kernel = sum(st[k] for k in KERNEL_SPANS)
    reruns = [e for e in executions if e["rerun"]]
    return {
        "sources.read_s": st["sources.read"],
        "sources.rows": counts["rows"],
        "sources.bytes": counts["bytes"],
        "parse.s": st["parse"],
        "parse.failures": counts["parse_failures"],
        "dict_encode.s": st["dict_encode"],
        "route.s": st["route"],
        "route.partitions": counts["partitions"],
        "route.dead_letter_rows": counts["dead_letter_rows"],
        "sinks.write_s": st["sinks.write"],
        "sinks.files": counts["files"],
        "sinks.rows_per_file": counts["rows"] / max(1, counts["files"]),
        "flagship.partial_s": st["flagship.partial"],
        "flagship.kernel_s": kernel,
        "dicts.build_s": st["dicts.build"],
        "sinks.promote_s": st["sinks.promote"],
        "checkpoint.commit_s": st["checkpoint.commit"],
        "checkpoint.manifest_bytes": manifest_bytes,
        "flagship.ray_overhead_s": wall_s - kernel,
        "flagship.plan_runs": (len(executions) - len(reruns)) / len(executions),
        "flagship.rerun_s": sum(e["seconds"] for e in reruns),
    }
