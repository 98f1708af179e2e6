"""The benchmark's traced run, in tier 1.

``pipebench/run.py --trace 1`` drives the flagship's internals from
outside the package: it replays an ingest through ``IngestWorker``'s
kernels and the flagship's partial fold (``layers.replay_ingest``),
derives per-layer metrics that need the ingest's Ray Data plan
(``layers.ingest_layer_metrics``), runs the query mix over the sink
tree (``layers.QUERIES``), counts the tree's files
(``sources.routed_output_files``) and measures its key skew
(``layers.partition_skew``).  Any of these raising is a failed
benchmark operation, so a change that breaks one fails here first."""

import time
from pathlib import Path

import ray

from alco_ray.pipelines.flagship import run_flagship
from alco_ray.sources import routed_output_files
from pipebench import checks, inputs, layers
from pipebench.session import NUM_CPUS, RayDataLog
from pipebench.tracing import Tracer


def test_traced_benchmark_path_on_t_small(t_small_dir, t_small_table,
                                          tmp_path):
    corpus = Path(t_small_dir)
    out, state = tmp_path / "out", tmp_path / "replay"
    session = Path(ray._private.worker._global_node.get_session_dir_path())
    data_log = RayDataLog(session / "logs" / "ray-data" / "ray-data.log")

    layers.snapshot(out, state)
    mark = data_log.mark()
    t0 = time.perf_counter()
    summary = run_flagship(corpus, out, wave_size=4)
    wall = time.perf_counter() - t0
    executions = data_log.executions(mark)

    expect = inputs.Expected(t_small_table, 1)
    want = expect.ingest([0])
    assert checks.check_ingest(out, summary, want, checks.sink_tree(out)) == []

    tracer = Tracer(True)
    tracer.run_id = "op0"
    counts = layers.replay_ingest(tracer, corpus,
                                  sorted(corpus.glob("*.parquet")), state,
                                  NUM_CPUS)
    metrics = layers.ingest_layer_metrics(
        tracer.self_times("op0"), counts, wall, executions,
        (out / "_checkpoint" / "manifest.json").stat().st_size)
    assert counts["rows"] == metrics["sources.rows"] == summary["rows"]
    assert metrics["parse.failures"] == summary["parse_failures"]
    assert metrics["flagship.plan_runs"] == 1.0

    queries = expect.queries()
    for name in layers.QUERIES:
        assert checks.check_query(name, layers.run_query(name, out),
                                  queries[name]) == []
    assert routed_output_files(out) == sorted(
        str(p) for p in out.glob("sink=*/date=*/*.parquet"))
    assert layers.partition_skew(out) >= 1.0
