"""Worker-death resilience of the raw-task BSP waves and the flagship
ingest.

graph.py (components/pagerank) and model.py (GD fit) run iterative
fixed points as raw ``ray.remote`` task waves, so they lean on Ray
CORE's task retry + lineage machinery rather than Ray Data's
per-operator retries.  These tests pin that contract: a worker
process dying mid-iteration (``os._exit`` inside a wave kernel — a
process crash, not a Python exception) must still yield the
oracle-exact fixed point via task retry.  The flagship ingest task
must leave, after its retry, the sink tree a clean run writes.

Injection: the wave kernels are module globals the driver resolves
when it submits a wave (graph.py hands each kernel to its task; model.py
wraps it with ``ray.remote``), so a driver-side monkeypatch with a
CLOSURE (cloudpickle ships closures by value) reaches every worker.
The ingest's kernels are closures too, built on the driver in
``IngestWorker.__init__`` and shipped with the instance.  A sentinel
file consumed by an atomic rename makes exactly one task attempt
crash its worker.
"""
from __future__ import annotations

import glob
import logging
import os
import re
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from alco_ray.stages import graph, model


def _crash_once(fn, sentinel: str):
    """Wrap a wave kernel: the first task attempt (across all workers)
    to consume ``sentinel`` dies as a PROCESS; every other attempt —
    including the retry of the dead one — runs ``fn`` normally."""

    def wrapped(*args, **kwargs):
        try:
            os.rename(sentinel, sentinel + ".consumed")
        except OSError:
            pass
        else:
            os._exit(1)
        return fn(*args, **kwargs)

    return wrapped


def _edges(a, b):
    return ray.data.from_arrow(pa.table({
        "doc_a": pa.array(list(a), pa.int64()),
        "doc_b": pa.array(list(b), pa.int64())}))


def test_components_survive_worker_death(ray_session, tmp_path,
                                         monkeypatch):
    rng = np.random.RandomState(7)
    a = rng.randint(0, 200, 400)
    b = rng.randint(0, 200, 400)
    m = a != b
    a, b = a[m].tolist(), b[m].tolist()
    # three partitions of the 2 * len(a) directed edges
    monkeypatch.setattr(graph, "PART_ROWS", -(-2 * len(a) // 3))
    want = graph.connected_components(_edges(a, b))
    assert want.num_blocks() == 3
    want = want.to_pandas()
    want = sorted(zip(want["node"], want["component"]))

    sentinel = str(tmp_path / "cc_crash")
    open(sentinel, "w").close()
    monkeypatch.setattr(graph, "_send", _crash_once(graph._send, sentinel))
    got = graph.connected_components(_edges(a, b))
    assert got.num_blocks() == 3
    got = got.to_pandas()
    assert os.path.exists(sentinel + ".consumed"), "crash never fired"
    assert sorted(zip(got["node"], got["component"])) == want


def test_pagerank_survives_worker_death(ray_session, tmp_path,
                                        monkeypatch):
    rng = np.random.RandomState(13)
    src = rng.randint(0, 150, 600).tolist()
    dst = rng.randint(0, 150, 600).tolist()
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64())}))
    monkeypatch.setattr(graph, "PART_ROWS", -(-2 * len(src) // 3))
    want = graph.pagerank(ds)
    assert want.num_blocks() == 3
    want = want.to_pandas()
    want = sorted(zip(want["node"], want["rank_fp"]))

    sentinel = str(tmp_path / "pr_crash")
    open(sentinel, "w").close()
    monkeypatch.setattr(graph, "_send", _crash_once(graph._send, sentinel))
    ds2 = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64())}))
    got = graph.pagerank(ds2)
    assert got.num_blocks() == 3
    got = got.to_pandas()
    assert os.path.exists(sentinel + ".consumed"), "crash never fired"
    assert sorted(zip(got["node"], got["rank_fp"])) == want


def test_gd_fit_survives_worker_death(ray_session, tmp_path,
                                      monkeypatch):
    rng = np.random.RandomState(3)
    n = 400
    x = {c: rng.randint(0, 1000, n).astype(np.int64)
         for c in ("f0", "f1", "f2")}
    y = ((x["f0"] + 2 * x["f1"] - x["f2"]) > 900).astype(np.int64)
    t = pa.table({**{c: pa.array(v) for c, v in x.items()},
                  "y": pa.array(y)})
    blocks = [t.slice(i, 100) for i in range(0, n, 100)]
    ds = ray.data.from_arrow(blocks)
    monkeypatch.setattr(model, "FEAT_COLS", ["f0", "f1", "f2"])
    want = model.fit_linear_gd(ds, iters=6)

    sentinel = str(tmp_path / "gd_crash")
    open(sentinel, "w").close()
    monkeypatch.setattr(model, "_gd_block_partial",
                        _crash_once(model._gd_block_partial, sentinel))
    ds2 = ray.data.from_arrow(blocks)
    got = model.fit_linear_gd(ds2, iters=6)
    assert os.path.exists(sentinel + ".consumed"), "crash never fired"
    assert got == want


def test_kmeans_waves_survive_worker_death(ray_session, tmp_path,
                                           monkeypatch):
    """The PQ / IVF-PQ codebook fits ride the same raw-task wave
    doctrine (similarity.kmeans_fixed_point): a worker dying inside
    an assignment wave must still yield the oracle-exact fixed point
    via Ray core's task retry."""
    from alco_ray.stages import similarity

    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    want = similarity.kmeans_fixed_point(ds, k=8, iters=2).to_pandas()
    want = sorted(zip(want["vec_id"], want["cluster"]))

    sentinel = str(tmp_path / "km_crash")
    open(sentinel, "w").close()
    monkeypatch.setattr(
        similarity, "_km_assign_block",
        _crash_once(similarity._km_assign_block, sentinel))
    ds2 = ray.data.read_parquet(f"{sf}/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    got = similarity.kmeans_fixed_point(ds2, k=8, iters=2).to_pandas()
    assert os.path.exists(sentinel + ".consumed"), "crash never fired"
    assert sorted(zip(got["vec_id"], got["cluster"])) == want


def _sink_files(out) -> dict[str, bytes]:
    return {Path(f).relative_to(out).as_posix(): Path(f).read_bytes()
            for f in glob.glob(f"{out}/sink=*/date=*/*.parquet")}


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("point", ["parse", "after_write"])
def test_ingest_survives_worker_death(ray_session, t_small_dir, tmp_path,
                                      monkeypatch, caplog, threads, point):
    """A worker process dies inside ``IngestWorker.__call__`` (before
    the batch's first parse, or after its sink files are staged), on a
    task of one thread and of four.  After the retry the summary,
    routed row sets, ``interval_counts`` and sink file set equal a clean
    run's, and every file reads back with the clean run's bytes:
    nothing is duplicated or torn.

    On the 4-CPU session cluster a t-small wave is one 4-CPU batch; a
    100-row cap cuts it into six 1-CPU batches instead."""
    import alco_ray.pipelines.flagship as fl
    import alco_ray.sinks as sinks

    if threads == 1:
        monkeypatch.setattr(fl, "MAX_BATCH_ROWS", 100)
    clean = tmp_path / "clean"
    want = fl.run_flagship(t_small_dir, clean, wave_size=4)

    sentinel = str(tmp_path / "ingest_crash")
    open(sentinel, "w").close()
    if point == "parse":
        parse = fl.make_parse_batch
        monkeypatch.setattr(fl, "make_parse_batch",
                            lambda cfg: _crash_once(parse(cfg), sentinel))
    else:
        make_writer = sinks._make_block_writer

        def writer_then_crash(*args):
            write, crash = make_writer(*args), _crash_once(lambda: None,
                                                           sentinel)

            def wrapped(*a, **kw):
                out = write(*a, **kw)
                crash()
                return out
            return wrapped
        monkeypatch.setattr(sinks, "_make_block_writer", writer_then_crash)
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="alco_ray"):
        got = fl.run_flagship(t_small_dir, out, wave_size=4)
    assert os.path.exists(sentinel + ".consumed"), "crash never fired"
    assert {int(m) for m in re.findall(r"task_cpus=(\d+)", caplog.text)} \
        == {threads}

    assert got == want
    files = _sink_files(out)
    assert files == _sink_files(clean)
    assert sum(pq.read_metadata(out / f).num_rows for f in files) \
        == want["rows"]
    key = ["conv_id", "turn_idx"]
    for sink in {f.split("/")[0] for f in files}:
        rows = [pq.read_table(sorted(glob.glob(f"{o}/{sink}/*/*.parquet")))
                .sort_by([(k, "ascending") for k in key])
                for o in (out, clean)]
        assert rows[0].equals(rows[1]), sink
    agg = [pq.read_table(o / "aggregates" / "interval_counts")
           for o in (out, clean)]
    assert agg[0].equals(agg[1])
