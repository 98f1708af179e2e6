"""End-to-end flagship: oracle equality, resume idempotence, grok."""

import glob
import json
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from alco_ray.functions.grok import compile_grok
from alco_ray.pipelines.flagship import run_flagship
from alco_ray.state.checkpoint import CheckpointManifest, make_waves


def _read_out(out_root):
    files = sorted(glob.glob(f"{out_root}/sink=*/date=*/*.parquet"))
    return pq.read_table(files)


@pytest.fixture(scope="module")
def flagship_out(t_small_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("flagship")
    summary = run_flagship(t_small_dir, out, wave_size=4)
    return out, summary


def test_summary_matches_oracle(flagship_out, t_small_oracle):
    _, summary = flagship_out
    assert summary["rows"] == len(t_small_oracle["parsed"])
    assert summary["parse_failures"] == t_small_oracle["parse_failures"]
    assert summary["routed_counts"] == t_small_oracle["routed_counts"]


def test_routed_row_sets_bit_for_bit(flagship_out, t_small_oracle):
    """Per-turn text equality under stable order (BASELINE.json:14,15)."""
    out, _ = flagship_out
    got = (_read_out(out).select(["conv_id", "turn_idx", "text", "level"])
           .to_pandas().sort_values(["conv_id", "turn_idx"])
           .reset_index(drop=True))
    want = (t_small_oracle["ordered"][["conv_id", "turn_idx", "text", "level"]]
            .reset_index(drop=True))
    assert got.equals(want)


def test_aggregate_artifact_matches_oracle(flagship_out, t_small_oracle):
    out, _ = flagship_out
    agg = pq.read_table(
        glob.glob(f"{out}/aggregates/interval_counts/*.parquet")).to_pandas()
    got = agg.sort_values(["sink", "level", "bucket"]).reset_index(drop=True)
    want = (t_small_oracle["interval_counts"]
            .sort_values(["sink", "level", "bucket"]).reset_index(drop=True))
    assert got["cnt"].astype(int).tolist() == want["cnt"].astype(int).tolist()
    assert got["bucket"].tolist() == want["bucket"].tolist()


def test_manifest_lineage(flagship_out, t_small_dir):
    out, _ = flagship_out
    manifest = json.loads((Path(out) / "_checkpoint" / "manifest.json").read_text())
    n_files = len(list(Path(t_small_dir).glob("*.parquet")))
    assert len(manifest) == -(-n_files // 4)
    for wave in manifest.values():
        assert wave["status"] == "done"
        assert wave["input_files"]
        assert set(wave["metrics"]) >= {"rows", "parse_failures", "routed_counts"}


def test_resume_idempotent(t_small_dir, flagship_out, tmp_path):
    """Kill after k waves -> resume -> identical output (SURVEY.md §5.3)."""
    ref_out, ref_summary = flagship_out
    out = tmp_path / "resume"

    calls = {"n": 0}
    import alco_ray.pipelines.flagship as fl
    orig = fl.promote_staging

    def exploding(*a, **kw):
        if calls["n"] >= 1:
            raise RuntimeError("simulated kill")
        calls["n"] += 1
        return orig(*a, **kw)

    fl.promote_staging = exploding
    try:
        with pytest.raises(RuntimeError):
            run_flagship(t_small_dir, out, wave_size=4)
    finally:
        fl.promote_staging = orig

    m = CheckpointManifest(out)
    assert 0 < len(m.waves) < len(make_waves([str(p) for p in Path(t_small_dir).glob('*.parquet')], 4))

    summary = run_flagship(t_small_dir, out, wave_size=4)  # resume
    assert summary["rows"] == ref_summary["rows"]
    assert summary["routed_counts"] == ref_summary["routed_counts"]
    got = _read_out(out).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    want = _read_out(ref_out).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    assert got["text"].equals(want["text"])
    assert len(got) == len(want)


def test_grok_compiler():
    pat = compile_grok(r"status=%{INT:status} ip=%{IP:ip}")
    import re

    m = re.search(pat, "x status=42 ip=10.0.0.1 y")
    assert m.group("status") == "42" and m.group("ip") == "10.0.0.1"
    with pytest.raises(KeyError):
        compile_grok("%{NOPE:x}")


def test_grok_in_pipeline_config(t_small_table):
    from alco_ray.specs import ColumnSpec, PipelineConfig, LoggerSpec
    from alco_ray.stages.parse import make_parse_batch

    cfg = PipelineConfig(
        columns=[ColumnSpec("req_id", source="regex",
                            pattern=r"req_id=%{INT:req_id}")],
        loggers=[LoggerSpec("all", ("system", "user", "assistant", "tool"))],
    )
    out = make_parse_batch(cfg)(t_small_table)
    vals = out["req_id"].to_pylist()
    import re
    for text, got in zip(t_small_table["text"].to_pylist()[:200], vals[:200]):
        m = re.search(r"req_id=(\d+)", text)
        assert got == (m.group(1) if m else None)


def test_partition_layout_invariance(t_small_table, flagship_out, tmp_path):
    """SURVEY §5.3 order-invariance: re-sharding the same rows into a
    different file layout (different count, interleaved assignment)
    must produce identical summary metrics and aggregates."""
    import json

    import pyarrow.parquet as pq

    from alco_ray.pipelines.flagship import run_flagship

    alt = tmp_path / "alt_corpus"
    alt.mkdir()
    n = t_small_table.num_rows
    for i in range(3):  # round-robin rows into 3 files (vs 8 contiguous)
        idx = list(range(i, n, 3))
        pq.write_table(t_small_table.take(idx), alt / f"p-{i}.parquet")

    out = tmp_path / "alt_out"
    summary = run_flagship(alt, out, wave_size=2)
    _, base_summary = flagship_out
    assert {k: summary[k] for k in ("rows", "parse_failures",
                                    "routed_counts")} == \
           {k: base_summary[k] for k in ("rows", "parse_failures",
                                         "routed_counts")}

    base_out, _ = flagship_out
    a = pq.read_table(out / "aggregates" / "interval_counts")
    b = pq.read_table(base_out / "aggregates" / "interval_counts")
    assert a.equals(b)


def test_resume_after_partial_promote(t_small_dir, flagship_out, tmp_path):
    """Crash mid-promote (some files moved into the final tree, no
    manifest commit) -> resume cleans the orphans and converges to the
    reference output."""
    import alco_ray.pipelines.flagship as fl

    ref_out, ref_summary = flagship_out
    out = tmp_path / "partial"

    orig = fl.promote_staging

    def half_promote(staging_dir, out_root, wave_id):
        # Move only half the staged files, then die: worst-case torn
        # promote.
        files = sorted(Path(staging_dir).glob("sink=*/date=*/*.parquet"))
        for i, f in enumerate(files[: max(1, len(files) // 2)]):
            rel = f.relative_to(staging_dir)
            dest = Path(out_root) / rel.parent / f"{wave_id}-{i:05d}-{rel.name}"
            dest.parent.mkdir(parents=True, exist_ok=True)
            f.rename(dest)
        raise RuntimeError("simulated crash mid-promote")

    fl.promote_staging = half_promote
    try:
        with pytest.raises(RuntimeError):
            run_flagship(t_small_dir, out, wave_size=4)
    finally:
        fl.promote_staging = orig

    # Orphan files with the wave prefix exist but nothing is committed.
    assert list(Path(out).glob("sink=*/date=*/w*.parquet"))
    assert len(CheckpointManifest(out).waves) == 0

    summary = run_flagship(t_small_dir, out, wave_size=4)  # resume
    assert summary["rows"] == ref_summary["rows"]
    assert summary["routed_counts"] == ref_summary["routed_counts"]
    got = _read_out(out).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    want = _read_out(ref_out).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    assert got["text"].equals(want["text"]) and len(got) == len(want)


def test_resume_tolerates_changed_wave_size(t_small_dir, tmp_path):
    """Waves are keyed by the files they processed, not by position:
    resuming with a different wave_size is a clean no-op."""
    out = tmp_path / "guard"
    run_flagship(t_small_dir, out, wave_size=4)
    s = run_flagship(t_small_dir, out, wave_size=2)
    assert s["rows"] == 1173


def test_resume_rejects_shrunk_corpus(t_small_dir, tmp_path):
    """A corpus missing files the manifest already committed is
    ambiguous (totals would include vanished data) -> hard error."""
    import shutil as sh

    corpus = tmp_path / "shrink_corpus"
    sh.copytree(t_small_dir, corpus)
    out = tmp_path / "shrink_out"
    run_flagship(corpus, out, wave_size=4)
    victim = sorted(corpus.glob("*.parquet"))[0]
    victim.unlink()
    with pytest.raises(ValueError, match="missing from the corpus"):
        run_flagship(corpus, out, wave_size=4)


def test_incremental_append_processes_only_new_files(t_small_dir, tmp_path):
    """The streaming-collector contract (SURVEY §2.9): append shards,
    re-run the same out_root -> only the new files are processed, and
    totals + aggregate artifact equal a fresh full run bit-for-bit."""
    import shutil as sh

    import alco_ray.pipelines.flagship as fl

    all_files = sorted(Path(t_small_dir).glob("*.parquet"))
    assert len(all_files) >= 4
    grow = tmp_path / "grow_corpus"
    grow.mkdir()
    for f in all_files[:-2]:
        sh.copy(f, grow / f.name)

    out = tmp_path / "grow_out"
    run_flagship(grow, out, wave_size=4)
    n_waves_before = len(CheckpointManifest(out).waves)

    # Append the last two shards; count how many waves actually run by
    # spying on promote_staging (one promote per executed wave).
    for f in all_files[-2:]:
        sh.copy(f, grow / f.name)
    executed = []
    orig = fl.promote_staging

    def spy(staging_dir, out_root, wave_id):
        executed.append(wave_id)
        return orig(staging_dir, out_root, wave_id)

    fl.promote_staging = spy
    try:
        summary = run_flagship(grow, out, wave_size=4)
    finally:
        fl.promote_staging = orig

    assert len(executed) == 1  # 2 new files, wave_size 4 -> one wave
    m = CheckpointManifest(out)
    assert len(m.waves) == n_waves_before + 1
    appended_names = {f.name for f in all_files[-2:]}
    new_wave = m.waves[executed[0]]
    assert {Path(p).name for p in new_wave["input_files"]} == appended_names

    # Bit-for-bit vs a fresh full run over the same (grown) corpus.
    fresh_out = tmp_path / "fresh_out"
    fresh = run_flagship(grow, fresh_out, wave_size=4)
    assert summary["rows"] == fresh["rows"]
    assert summary["parse_failures"] == fresh["parse_failures"]
    assert summary["routed_counts"] == fresh["routed_counts"]
    a = pq.read_table(out / "aggregates" / "interval_counts")
    b = pq.read_table(fresh_out / "aggregates" / "interval_counts")
    assert a.equals(b)
    got = _read_out(out).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    want = _read_out(fresh_out).to_pandas().sort_values(
        ["conv_id", "turn_idx"]).reset_index(drop=True)
    assert got.equals(want)


def test_resume_rejects_shard_rewritten_in_place(t_small_dir, tmp_path):
    """A committed shard rewritten in place (same name, new
    size/mtime) must raise at resume, not be silently treated as
    already-processed (stale output/aggregates)."""
    import shutil as sh

    import pyarrow.parquet as pq

    corpus = tmp_path / "rewrite_corpus"
    sh.copytree(t_small_dir, corpus)
    out = tmp_path / "rewrite_out"
    run_flagship(corpus, out, wave_size=4)
    victim = sorted(corpus.glob("*.parquet"))[0]
    t = pq.read_table(victim)
    pq.write_table(t.slice(0, max(1, t.num_rows // 2)), victim)
    with pytest.raises(ValueError, match="rewritten in place"):
        run_flagship(corpus, out, wave_size=4)


def test_dict_build_rejects_high_cardinality_column(tmp_path):
    """The dictionary path is for enum-ish columns (dicts broadcast
    whole, grown driver-side): a high-cardinality column must fail
    loudly, naming the column, before anything is cached."""
    import pyarrow as pa

    from alco_ray.pipelines.flagship import build_or_load_dicts
    from alco_ray.specs import ColumnSpec, LoggerSpec, PipelineConfig

    n = 500
    t = pa.table({
        "conv_id": pa.array([f"c{i // 4}" for i in range(n)]),
        "turn_idx": pa.array([i % 4 for i in range(n)], pa.int32()),
        "role": pa.array(["user", "assistant"][i % 2] for i in range(n)),
        "text": pa.array([f"msg {i}" for i in range(n)]),
        "tool": pa.array([f"tool-{i}" for i in range(n)]),  # all distinct
        "ts": pa.array([1_700_000_000_000_000 + i for i in range(n)],
                       pa.timestamp("us")),
    })
    shard = tmp_path / "corpus.parquet"
    pq.write_table(t, shard)
    cfg = PipelineConfig(
        columns=[ColumnSpec("role", filtered=True),
                 ColumnSpec("tool", filtered=True)],
        loggers=[LoggerSpec("all", ("user", "assistant"))],
    )
    cache = tmp_path / "dict_cache"
    with pytest.raises(ValueError, match="'tool'.*cardinality"):
        build_or_load_dicts([str(shard)], cfg, cache, max_cardinality=100)
    assert not (cache / "tool.parquet").exists()  # nothing poisoned
    # Under the cap the same corpus builds fine; role stays tiny.
    dicts = build_or_load_dicts([str(shard)], cfg, tmp_path / "cache2",
                                max_cardinality=1_000)
    assert dicts["role"].num_rows == 2
    assert dicts["tool"].num_rows == n


def test_dict_files_rewritten_only_when_grown(t_small_dir, tmp_path):
    """A shard that brings no new role or tool leaves both dictionary
    files untouched (bytes and mtime) and is still recorded as
    scanned; a shard with a new tool rewrites only ``tool.parquet``,
    appending the value."""
    from alco_ray.pipelines.flagship import build_or_load_dicts
    from alco_ray.specs import default_transcript_config

    cfg = default_transcript_config()
    base = sorted(Path(t_small_dir).glob("*.parquet"))[0]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    files = [str(shutil.copy(base, corpus / "a.parquet"))]
    cache = tmp_path / "dicts"
    build_or_load_dicts(files, cfg, cache)

    def state():
        return {c: ((cache / f"{c}.parquet").read_bytes(),
                    (cache / f"{c}.parquet").stat().st_mtime_ns)
                for c in ("role", "tool")}

    before = state()
    files.append(str(shutil.copy(base, corpus / "b.parquet")))
    build_or_load_dicts(files, cfg, cache)
    assert state() == before
    assert json.loads((cache / "_scanned.json").read_text()) == files

    t = pq.read_table(base)
    tools = t["tool"].to_pylist()
    tools[0] = "a-tool-no-shard-had"
    pq.write_table(t.set_column(t.schema.get_field_index("tool"), "tool",
                                pa.array(tools, t.schema.field("tool").type)),
                   corpus / "c.parquet")
    files.append(str(corpus / "c.parquet"))
    dicts = build_or_load_dicts(files, cfg, cache)
    after = state()
    assert after["role"] == before["role"]
    assert after["tool"] != before["tool"]
    assert dicts["tool"]["value"].to_pylist()[-1] == "a-tool-no-shard-had"


def _remerged_partials(out) -> pa.Table:
    """``interval_counts`` rebuilt from every committed wave's partial."""
    from alco_ray.stages.aggregate import merge_partials

    keys = ["sink", "level", "bucket"]
    return merge_partials(
        [pq.read_table(Path(out) / "_checkpoint" / "partials"
                       / f"{w}.parquet", columns=keys + ["rows"])
         for w in CheckpointManifest(out).waves],
        keys, [("rows", "sum")]).rename_columns(keys + ["cnt"])


def test_interval_counts_fold_only_uncovered_waves(t_small_dir,
                                                   t_small_oracle, tmp_path,
                                                   monkeypatch):
    """A base of two waves plus one-shard appends: after every run the
    aggregate equals a full re-merge of the partials, and at the end
    the oracle.  An append reads no partial of a wave the aggregate
    covers.  A crash between the last commit and the aggregate's
    ``os.replace`` leaves the old aggregate, and the next run folds in
    just the wave it missed.  An aggregate whose coverage is gone or
    names a wave the manifest lacks is rebuilt from every partial."""
    import os

    import pyarrow.compute as pc

    import alco_ray.pipelines.flagship as fl

    shards = sorted(Path(t_small_dir).glob("*.parquet"))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    out = tmp_path / "out"
    agg_path = out / "aggregates" / "interval_counts" / "part-00000.parquet"
    read, read_table = [], pq.read_table

    def spy(source, *a, **kw):
        if Path(source).parent.name == "partials":
            read.append(Path(source).stem)
        return read_table(source, *a, **kw)

    monkeypatch.setattr(pq, "read_table", spy)

    def run(*new):
        for f in new:
            shutil.copy(f, corpus / f.name)
        covered = set()
        if agg_path.exists():
            meta = pq.read_schema(agg_path).metadata or {}
            covered = set(json.loads(meta.get(fl._COVERS, b"[]")))
        if not covered <= set(CheckpointManifest(out).waves):
            covered = set()  # rebuilt: every partial is read
        read.clear()
        fl.run_flagship(corpus, out, wave_size=2)
        partials = list(read)
        assert not set(partials) & covered
        assert read_table(agg_path).equals(_remerged_partials(out))
        return partials

    run(*shards[:4])
    assert len(CheckpointManifest(out).waves) == 2
    for f in shards[4:6]:
        run(f)

    replace = os.replace

    def crash_at_aggregate(src, dst):
        if Path(dst) == agg_path:
            raise OSError("crash before the aggregate is replaced")
        replace(src, dst)

    before = agg_path.read_bytes()
    shutil.copy(shards[6], corpus / shards[6].name)
    monkeypatch.setattr(fl.os, "replace", crash_at_aggregate)
    with pytest.raises(OSError, match="crash before"):
        fl.run_flagship(corpus, out, wave_size=2)
    monkeypatch.setattr(fl.os, "replace", replace)
    assert agg_path.read_bytes() == before
    missed = list(CheckpointManifest(out).waves)[-1]
    assert run() == [missed]

    # coverage naming a wave the manifest lacks, then no coverage at
    # all: both rebuild from every partial (counts made wrong first)
    exact = read_table(agg_path)
    for covers in ([*CheckpointManifest(out).waves, "wnot-committed"], None):
        wrong = exact.set_column(3, "cnt", pc.multiply(exact["cnt"], 2))
        pq.write_table(wrong.replace_schema_metadata(
            None if covers is None else {fl._COVERS: json.dumps(covers)}),
            agg_path)
        assert len(run()) == len(CheckpointManifest(out).waves)

    run(shards[7])
    got = read_table(agg_path).to_pandas()
    want = (t_small_oracle["interval_counts"]
            .sort_values(["sink", "level", "bucket"]).reset_index(drop=True))
    assert got["cnt"].astype(int).tolist() == want["cnt"].astype(int).tolist()
    assert got["bucket"].tolist() == want["bucket"].tolist()


def test_one_cpu_cluster_completes(t_small_dir, t_small_oracle, tmp_path):
    """A 1-CPU cluster must finish an ingest: the IngestWorker pool may
    not hold the only CPU the read tasks need.  Runs in a subprocess
    with its own ``ray.init(num_cpus=1)`` under a timeout, so a hang
    fails the test instead of stalling the suite."""
    import os
    import subprocess
    import sys

    script = (
        "import json, sys, ray\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "from alco_ray.pipelines.flagship import run_flagship\n"
        "s = run_flagship(sys.argv[1], sys.argv[2], wave_size=4)\n"
        "print('SUMMARY ' + json.dumps(s))\n"
        "ray.shutdown()\n")
    root = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [root, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(t_small_dir),
         str(tmp_path / "out")],
        capture_output=True, text=True, timeout=240, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [ln for ln in proc.stdout.splitlines()
            if ln.startswith("SUMMARY ")][-1]
    summary = json.loads(line[len("SUMMARY "):])
    assert summary["rows"] == len(t_small_oracle["parsed"])
    assert summary["parse_failures"] == t_small_oracle["parse_failures"]
    assert summary["routed_counts"] == t_small_oracle["routed_counts"]


# Driver-script lines that swap in an ``IngestWorker`` subclass defined
# in ``__main__`` (so it ships by value).  Each batch records its start,
# waits (at most 30 s) until every batch of the run has recorded one,
# then runs and writes ``[start, end, peers_started]`` to a ``span-``
# file.  ``reset(n)`` empties the ``times`` directory before a run of
# ``n`` planned batches (a warm-up run waits for none: ``reset(1)``).
# The wait makes "all starts precede all ends" hold whenever the
# batches really run side by side, whatever the host's scheduling
# delay; a run that serializes them leaves a batch whose wait timed
# out.
_TIMED_WORKER = (
    "class Timed(fl.IngestWorker):\n"
    "    def __call__(self, slices):\n"
    "        t0, me = time.time(), uuid.uuid4().hex\n"
    "        open(os.path.join(times, 'start-' + me), 'w').close()\n"
    "        with open(os.path.join(times, 'expect')) as f:\n"
    "            n = int(f.read())\n"
    "        def started():\n"
    "            return sum(p.startswith('start-')"
    " for p in os.listdir(times))\n"
    "        while started() < n and time.time() < t0 + 30:\n"
    "            time.sleep(0.005)\n"
    "        peers = started() >= n\n"
    "        out = super().__call__(slices)\n"
    "        with open(os.path.join(times, 'span-' + me), 'w') as f:\n"
    "            json.dump([t0, time.time(), peers], f)\n"
    "        return out\n"
    "fl.IngestWorker = Timed\n"
    "def reset(n):\n"
    "    for p in os.listdir(times):\n"
    "        os.remove(os.path.join(times, p))\n"
    "    with open(os.path.join(times, 'expect'), 'w') as f:\n"
    "        f.write(str(n))\n"
    "def spans():\n"
    "    return [json.load(open(os.path.join(times, p)))"
    " for p in os.listdir(times) if p.startswith('span-')]\n")


def _assert_side_by_side(spans):
    """Every batch saw all its peers start, and every start precedes
    every end."""
    assert spans and all(peers for _, _, peers in spans), spans
    assert max(s for s, _, _ in spans) < min(e for _, e, _ in spans), spans


def test_wave_batches_run_concurrently(tmp_path):
    """The batches of one wave run side by side: on a 4-CPU cluster
    with a 512 MiB object store, a two-batch wave's second batch starts
    before its first one ends.  Ray Data charges every map task that has
    not reported its output size a full block reserve, which let only
    one task start; the wave plan declares its output small instead.

    Runs in a subprocess with its own ``ray.init``.  A one-node wave is
    one batch, so the driver lowers the row cap to half the corpus to
    get two.  Each batch records its start and end times and waits for
    its peer to start (``_TIMED_WORKER``)."""
    import os
    import subprocess
    import sys

    from alco_ray.fixtures import ensure_corpus

    corpus = ensure_corpus("t-conc", 700, 20_000, seed=5,
                           root=str(tmp_path))
    n_rows = sum(pq.read_metadata(f).num_rows
                 for f in corpus.glob("*.parquet"))
    times = tmp_path / "times"
    times.mkdir()

    script = (
        "import json, os, sys, time, uuid, ray\n"
        "ray.init(address='local', num_cpus=4,"
        " object_store_memory=512 << 20, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "import alco_ray.pipelines.flagship as fl\n"
        "times = sys.argv[3]\n"
        + _TIMED_WORKER +
        "fl.MAX_BATCH_ROWS = int(sys.argv[4])\n"
        # a warm-up wave, so every worker has imported alco_ray
        "reset(1)\n"
        "fl.run_flagship(sys.argv[1], sys.argv[2] + '-warm')\n"
        "reset(2)\n"
        "s = fl.run_flagship(sys.argv[1], sys.argv[2])\n"
        "print('SUMMARY ' + json.dumps(s))\n"
        "print('SPANS ' + json.dumps(spans()))\n"
        "ray.shutdown()\n")
    root = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [root, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(corpus), str(tmp_path / "out"),
         str(times), str(-(-n_rows // 2))],
        capture_output=True, text=True, timeout=240, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = dict(ln.split(" ", 1) for ln in proc.stdout.splitlines()
               if ln.startswith(("SUMMARY ", "SPANS ")))
    assert json.loads(got["SUMMARY"])["rows"] == n_rows

    spans = json.loads(got["SPANS"])
    assert len(spans) == 2, spans  # one wave of two ~10k-row batches
    _assert_side_by_side(spans)


def test_ingest_leaves_global_data_context_alone(t_small_dir, tmp_path,
                                                  monkeypatch):
    """The wave plan's small-output hint lives on the wave dataset's own
    context: after an ingest, the process's current ``DataContext`` is
    the same object with the same block-size fields, and a plan built
    afterwards still splits its output at the current bound."""
    import numpy as np
    import ray
    from ray.data import DataContext

    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", 1 << 20)
    fields = ("target_max_block_size", "target_min_block_size",
              "_max_num_blocks_in_streaming_gen_buffer")
    before = {f: getattr(ctx, f) for f in fields}
    run_flagship(t_small_dir, tmp_path / "out", wave_size=4)
    assert DataContext.get_current() is ctx
    assert {f: getattr(ctx, f) for f in fields} == before

    # one task emitting 4 MiB comes out as >= 4 blocks of <= 1 MiB
    ds = ray.data.range(1, override_num_blocks=1).map_batches(
        lambda b: pa.table({"x": np.arange(1 << 19)}),
        batch_format="pyarrow").materialize()
    assert ds.count() == 1 << 19
    assert ds.num_blocks() >= 4


def test_empty_shard_appends_with_zero_rows(t_small_dir, tmp_path,
                                            monkeypatch):
    """A zero-row shard (an hour with no traffic) landing next to a
    committed tree commits a 0-row wave: dicts, summary and aggregate
    unchanged, no sink file added, the shard recorded as processed."""
    import alco_ray.pipelines.flagship as fl
    from alco_ray.specs import TRANSCRIPT_SCHEMA

    corpus = tmp_path / "corpus"
    shutil.copytree(t_small_dir, corpus)
    out = tmp_path / "out"
    before = run_flagship(corpus, out, wave_size=4)
    files_before = sorted(glob.glob(f"{out}/sink=*/date=*/*.parquet"))
    dicts_before = {p.name: pq.read_table(p)
                    for p in (out / "dicts").glob("*.parquet")}
    agg_before = pq.read_table(out / "aggregates" / "interval_counts")

    empty = corpus / "part-99999.parquet"
    pq.write_table(TRANSCRIPT_SCHEMA.empty_table(), empty)
    executed = []  # one promote_staging call per executed wave
    orig = fl.promote_staging

    def spy(staging_dir, out_root, wave_id):
        executed.append(wave_id)
        return orig(staging_dir, out_root, wave_id)

    monkeypatch.setattr(fl, "promote_staging", spy)
    assert run_flagship(corpus, out, wave_size=4) == before
    assert len(executed) == 1
    wave = CheckpointManifest(out).waves[executed[0]]
    assert wave["input_files"] == [str(empty)]
    assert wave["metrics"] == {"rows": 0, "parse_failures": 0,
                               "routed_counts": {}}
    assert str(empty) in CheckpointManifest(out).processed_files()
    assert sorted(glob.glob(f"{out}/sink=*/date=*/*.parquet")) \
        == files_before
    assert {p.name: pq.read_table(p)
            for p in (out / "dicts").glob("*.parquet")} == dicts_before
    assert pq.read_table(out / "aggregates" / "interval_counts") \
        .equals(agg_before)

    assert run_flagship(corpus, out, wave_size=4) == before
    assert len(executed) == 1  # third run: nothing pending


def test_ingest_starts_no_actor(t_small_dir, tmp_path):
    """The ingest stage is a task-pool map: a wave starts no Ray Data
    map actor (an actor pool would start a worker process per wave)."""
    import ray

    before = set(ray._private.state.actors())
    run_flagship(t_small_dir, tmp_path / "out", wave_size=4)
    new = [a["ActorClassName"]
           for aid, a in ray._private.state.actors().items()
           if aid not in before]
    assert not [n for n in new if n.startswith("MapWorker(")], new


@pytest.mark.parametrize("n_rows,cpus,node_cpus,want", [
    (96_000, 4, 4, 96_000),          # one node: one batch of 4 threads
    (1_500, 4, 4, 1_500),
    (657_000, 4, 4, 164_250),        # past the cap: 4 x 1 CPU, not 3
    (10_000_000, 32, 32, 294_118),   # 34 capped batches
    (700_000, 8, 8, 175_000),        # 4 x 2 CPUs, not 3
    (1, 1, 1, 1),
    (96_000, 4, 2, 48_000),          # 0+2+2: one batch per node
    (96_000, 4, 1, 24_000),          # 3+1: four 1-CPU tasks
    (96_000, 16, 4, 24_000),         # four 4-CPU nodes
])
def test_ingest_batch_rows(n_rows, cpus, node_cpus, want):
    """Batch size is fixed by (rows, CPUs, smallest node's CPUs); sink
    file count is batches x sinks x dates, so these values pin the
    output layout."""
    from alco_ray.pipelines.flagship import ingest_batch_rows

    assert ingest_batch_rows(n_rows, cpus, node_cpus) == want


@pytest.mark.parametrize("n_batches,cpus,node_cpus,want", [
    (1, 1, 1, 1),
    (1, 4, 4, 4),
    (2, 4, 4, 2),
    (3, 4, 4, 1),
    (8, 4, 4, 1),
    (1, 16, 4, 4),   # 16 CPUs in 4-CPU nodes: a task must fit a node
    (2, 4, 1, 1),    # 3+1: a 2-CPU task would fit only the 3-CPU node
])
def test_ingest_task_cpus(n_batches, cpus, node_cpus, want):
    """A wave's tasks share the cluster's CPUs, each within the smallest
    node; a wave with as many batches as CPUs, or more, gets 1 per
    task."""
    from alco_ray.pipelines.flagship import ingest_task_cpus

    assert ingest_task_cpus(n_batches, cpus, node_cpus) == want


def test_split_ranges():
    """A batch's ranges cut into at most ``parts`` row-balanced runs, in
    order, crossing file boundaries like ``plan_slices``."""
    from alco_ray.pipelines.flagship import split_ranges

    ranges = [("a", 2, 6), ("b", 0, 3)]
    assert split_ranges(ranges, 1) == [ranges]
    assert split_ranges(ranges, 2) == [[("a", 2, 6)], [("b", 0, 3)]]
    assert split_ranges(ranges, 3) == [
        [("a", 2, 5)], [("a", 5, 6), ("b", 0, 2)], [("b", 2, 3)]]
    assert split_ranges(ranges, 10) == [
        [(p, i, i + 1)] for p, s, e in ranges for i in range(s, e)]


def test_wave_log_line(t_small_dir, tmp_path, caplog):
    """One INFO line per committed wave on the ``alco_ray`` logger,
    carrying the wave's id, input files, planned batches, CPUs per
    task, rows, parse failures, files promoted and wall seconds."""
    import logging
    import re

    import ray

    from alco_ray.pipelines.flagship import (ingest_batch_rows,
                                             ingest_task_cpus, plan_slices)

    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="alco_ray"):
        summary = run_flagship(t_small_dir, out, wave_size=4)
    pat = re.compile(r"wave (\w+) committed: input_files=(\d+) "
                     r"batches=(\d+) task_cpus=(\d+) rows=(\d+) "
                     r"parse_failures=(\d+) promoted_files=(\d+) "
                     r"wall_s=(\d+\.\d+)$")
    lines = [pat.match(r.getMessage()) for r in caplog.records
             if r.name == "alco_ray"]
    assert lines and all(lines)
    waves = CheckpointManifest(out).waves
    assert [m[1] for m in lines] == list(waves)
    cpus = int(ray.cluster_resources()["CPU"])
    node_cpus = int(min(node["Resources"]["CPU"] for node in ray.nodes()
                        if node["Alive"] and node["Resources"].get("CPU")))
    for m in lines:
        wave = waves[m[1]]
        assert int(m[2]) == len(wave["input_files"])
        counts = [(f, pq.read_metadata(f).num_rows)
                  for f in wave["input_files"]]
        n_batches = len(plan_slices(counts, ingest_batch_rows(
            sum(n for _, n in counts), cpus, node_cpus)))
        assert int(m[3]) == n_batches
        assert int(m[4]) == ingest_task_cpus(n_batches, cpus, node_cpus)
        assert int(m[5]) == wave["metrics"]["rows"]
        assert int(m[6]) == wave["metrics"]["parse_failures"]
        assert float(m[8]) > 0
    assert sum(int(m[5]) for m in lines) == summary["rows"]
    assert sum(int(m[7]) for m in lines) \
        == len(glob.glob(f"{out}/sink=*/date=*/*.parquet"))


def test_plan_slices():
    """The driver's batch cut, without Ray: rows in file order, full
    batches of ``batch_rows`` and a shorter last one, ranges crossing
    file boundaries, no range for an empty file."""
    from alco_ray.pipelines.flagship import plan_slices

    counts = [("a", 6), ("b", 1), ("c", 0), ("d", 5)]
    assert plan_slices(counts, 4) == [
        [("a", 0, 4)],
        [("a", 4, 6), ("b", 0, 1), ("d", 0, 1)],
        [("d", 1, 5)],
    ]
    assert plan_slices(counts, 12) == [
        [("a", 0, 6), ("b", 0, 1), ("d", 0, 5)]]
    assert plan_slices(counts, 100) == plan_slices(counts, 12)
    assert plan_slices([("a", 0), ("b", 0)], 3) == []
    assert plan_slices([], 3) == []
    assert plan_slices([("a", 3)], 1) == [[("a", i, i + 1)] for i in range(3)]


def test_read_slices_reads_overlapping_row_groups(t_small_table, tmp_path):
    """A range is served from the row groups it overlaps, sliced to the
    exact rows; ranges of several files come back as one chunk."""
    from alco_ray.pipelines.flagship import read_slices

    a, b = tmp_path / "a.parquet", tmp_path / "b.parquet"
    pq.write_table(t_small_table.slice(0, 250), a, row_group_size=60)
    pq.write_table(t_small_table.slice(250, 10), b)
    got = read_slices([(str(a), 59, 181), (str(b), 0, 3)])
    assert got.num_rows == 125
    assert all(c.num_chunks == 1 for c in got.columns)
    assert got.equals(pa.concat_tables([t_small_table.slice(59, 122),
                                        t_small_table.slice(250, 3)])
                      .combine_chunks())


def _sink_rows_per_batch(out) -> list[int]:
    """Rows per ingest batch: sink files are named ``<wave>-<n>-b<id>``,
    where ``<id>`` identifies the batch that wrote them."""
    rows: dict[str, int] = {}
    for f in glob.glob(f"{out}/sink=*/date=*/*.parquet"):
        ident = Path(f).stem.rsplit("-", 1)[1]
        rows[ident] = rows.get(ident, 0) + pq.read_metadata(f).num_rows
    return sorted(rows.values())


def test_wave_shapes_match_oracle(t_small_table, t_small_oracle, tmp_path,
                                  monkeypatch):
    """One wave holding a 1-row shard in the middle, an empty shard and
    a shard of several row groups larger than one batch, cut (under a
    600-row cap) into batches that cross shard boundaries: the output
    equals the oracle and each batch holds the rows
    ``ingest_batch_rows`` gives it.  The first batch's rows come from
    shards of 300, 1 and 286 rows, a layout that pyarrow 16.1's
    coalesce gets wrong if it reaches the parse still chunked."""
    import ray

    import alco_ray.pipelines.flagship as fl

    n = t_small_table.num_rows
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(t_small_table.slice(0, 300), corpus / "part-0.parquet")
    pq.write_table(t_small_table.slice(300, 1), corpus / "part-1.parquet")
    pq.write_table(t_small_table.slice(0, 0), corpus / "part-2.parquet")
    pq.write_table(t_small_table.slice(301), corpus / "part-3.parquet",
                   row_group_size=200)
    monkeypatch.setattr(fl, "MAX_BATCH_ROWS", 600)
    step = fl.ingest_batch_rows(
        n, int(ray.cluster_resources()["CPU"]),
        int(min(node["Resources"]["CPU"] for node in ray.nodes()
                if node["Alive"] and node["Resources"].get("CPU"))))
    # batch 1 crosses shards 0, 1 and 3; shard 3 outgrows one batch
    assert 301 < step < n - 301 and n % step

    out = tmp_path / "out"
    summary = run_flagship(corpus, out, wave_size=4)
    assert len(CheckpointManifest(out).waves) == 1
    assert summary["rows"] == len(t_small_oracle["parsed"])
    assert summary["parse_failures"] == t_small_oracle["parse_failures"]
    assert summary["routed_counts"] == t_small_oracle["routed_counts"]
    got = (_read_out(out).select(["conv_id", "turn_idx", "text", "level"])
           .to_pandas().sort_values(["conv_id", "turn_idx"])
           .reset_index(drop=True))
    want = (t_small_oracle["ordered"][["conv_id", "turn_idx", "text",
                                       "level"]].reset_index(drop=True))
    assert got.equals(want)
    agg = (pq.read_table(out / "aggregates" / "interval_counts").to_pandas()
           .sort_values(["sink", "level", "bucket"]).reset_index(drop=True))
    want_agg = (t_small_oracle["interval_counts"]
                .sort_values(["sink", "level", "bucket"])
                .reset_index(drop=True))
    assert agg["cnt"].astype(int).tolist() \
        == want_agg["cnt"].astype(int).tolist()
    assert agg["bucket"].tolist() == want_agg["bucket"].tolist()
    assert _sink_rows_per_batch(out) \
        == sorted([step] * (n // step) + [n % step])


def test_ingest_starts_no_parquet_reader_or_dict_plan(t_small_dir,
                                                      t_small_oracle,
                                                      tmp_path, monkeypatch):
    """The ingest reads shards inside its tasks: with
    ``ray.data.read_parquet`` disabled, a fresh ingest, a one-shard
    append and an empty-shard append all succeed, and the dictionary
    build starts no Ray Data execution."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from alco_ray.pipelines.flagship import build_or_load_dicts
    from alco_ray.specs import TRANSCRIPT_SCHEMA, default_transcript_config

    def no_reader(*a, **kw):
        raise AssertionError("ray.data.read_parquet called")

    monkeypatch.setattr(ray.data, "read_parquet", no_reader)
    shards = sorted(Path(t_small_dir).glob("*.parquet"))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for f in shards[:-1]:
        shutil.copy(f, corpus / f.name)
    out = tmp_path / "out"
    run_flagship(corpus, out, wave_size=4)                   # fresh
    shutil.copy(shards[-1], corpus / shards[-1].name)
    summary = run_flagship(corpus, out, wave_size=4)         # one shard
    pq.write_table(TRANSCRIPT_SCHEMA.empty_table(),
                   corpus / "part-99999.parquet")
    assert run_flagship(corpus, out, wave_size=4) == summary  # empty shard
    assert summary["rows"] == len(t_small_oracle["parsed"])
    assert summary["routed_counts"] == t_small_oracle["routed_counts"]

    executions = []
    orig = StreamingExecutor.execute

    def counting(self, *a, **kw):
        executions.append(a)
        return orig(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    dicts = build_or_load_dicts([str(f) for f in shards],
                                default_transcript_config(),
                                tmp_path / "fresh_dicts")
    assert executions == []
    for c in ("role", "tool"):
        assert dicts[c].equals(pq.read_table(out / "dicts" / f"{c}.parquet"))


def _planned_batches(t_small_table, tmp_path, row_group_size=None):
    """(config, dict refs, batches): the t-small rows as shards of 400
    and 773 rows cut by ``plan_slices`` into three 500-row batches, each
    as the one-row table ``IngestWorker`` takes."""
    import ray

    from alco_ray.pipelines.flagship import build_or_load_dicts, plan_slices
    from alco_ray.specs import default_transcript_config

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    counts = []
    for i, part in enumerate([t_small_table.slice(0, 400),
                              t_small_table.slice(400)]):
        path = corpus / f"part-{i}.parquet"
        pq.write_table(part, path, row_group_size=row_group_size)
        counts.append((str(path), part.num_rows))
    cfg = default_transcript_config()
    dicts = build_or_load_dicts([p for p, _ in counts], cfg,
                                tmp_path / "dicts")
    batches = [pa.table({"path": [[p for p, _, _ in b]],
                         "start": [[s for _, s, _ in b]],
                         "stop": [[e for _, _, e in b]]})
               for b in plan_slices(counts, 500)]
    assert len(batches) == 3
    return cfg, {c: ray.put(t) for c, t in dicts.items()}, batches


def _staged_bytes(staging) -> dict[str, bytes]:
    return {p.relative_to(staging).as_posix(): p.read_bytes()
            for p in Path(staging).rglob("*.parquet")}


def test_rerun_batch_rewrites_only_its_own_files(t_small_table, tmp_path):
    """A retried ingest task over the same planned ranges rewrites
    exactly the staged files its first attempt wrote: same names, same
    bytes, no other batch's file touched and no new file.  The names
    come from each batch's ranges: the three batches of a wave get
    pairwise disjoint names, and more threads give the same names."""
    from itertools import combinations

    from alco_ray.pipelines.flagship import IngestWorker

    cfg, refs, batches = _planned_batches(t_small_table, tmp_path)
    staging = tmp_path / "staging"
    worker = IngestWorker(cfg, refs, staging_dir=str(staging),
                          wave_id="wtest")

    def staged():
        return {p: p.read_bytes() for p in staging.rglob("*.parquet")}

    worker(batches[0])
    own = staged()
    worker(batches[1])
    worker(batches[2])
    written = staged()
    assert own and set(own) < set(written)
    for p in written:
        p.write_bytes(b"stale")
    partial = worker(batches[0])
    after = staged()
    assert set(after) == set(written)
    assert {p for p in after if after[p] != b"stale"} == set(own)
    assert all(after[p] == own[p] for p in own)
    assert sum(partial["rows"].to_pylist()) == 500

    names = {}  # threads -> each batch's staged file names
    for threads in (1, 3):
        names[threads] = []
        for i, b in enumerate(batches):
            d = tmp_path / f"names-{threads}-{i}"
            IngestWorker(cfg, refs, staging_dir=str(d), wave_id="wtest",
                         threads=threads)(b)
            names[threads].append({p.name for p in d.rglob("*.parquet")})
    assert names[1] == names[3]
    assert all(names[1])
    assert all(not a & b for a, b in combinations(names[1], 2))


def test_ingest_threads_change_nothing_on_disk(t_small_table, tmp_path):
    """One planned batch, crossing a shard boundary and split row
    groups, through ``IngestWorker`` with 1, 2 and 4 threads: the same
    staged names with the same bytes, and equal partials."""
    from alco_ray.pipelines.flagship import IngestWorker

    cfg, refs, batches = _planned_batches(t_small_table, tmp_path,
                                          row_group_size=64)
    got = []
    for threads in (1, 2, 4):
        staging = tmp_path / f"staging-{threads}"
        partial = IngestWorker(cfg, refs, staging_dir=str(staging),
                               wave_id="wtest", threads=threads)(batches[0])
        got.append((_staged_bytes(staging), partial))
    (files, partial), *rest = got
    assert files and sum(partial["rows"].to_pylist()) == 500
    for other_files, other_partial in rest:
        assert other_files == files
        assert other_partial.equals(partial)


def test_ingest_task_holds_its_cpus(t_small_table, tmp_path):
    """A wave of fewer batches than CPUs gives each task the idle CPUs,
    reserved from Ray and filled with threads: on a 4-CPU cluster a
    one-batch wave's task holds 4 CPUs and runs 4 threads, and each
    task of a two-batch wave 2 and 2.

    Runs in a subprocess with its own ``ray.init``.  A one-node wave is
    one batch, so the driver lowers the row cap to 500 rows before the
    1,000-row wave to get two.  It swaps in an ``IngestWorker``
    subclass defined in ``__main__`` (so it ships by value) that
    records, per batch, the CPUs Ray assigned to its task and the
    worker's thread count."""
    import os
    import subprocess
    import sys

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(t_small_table.slice(0, 1), corpus / "part-0.parquet")
    later = tmp_path / "part-1.parquet"  # 1,000 rows: two batches
    pq.write_table(t_small_table.slice(1, 1000), later)
    records = tmp_path / "records"
    records.mkdir()

    script = (
        "import json, os, shutil, sys, uuid, ray\n"
        "ray.init(address='local', num_cpus=4,"
        " object_store_memory=512 << 20, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "import alco_ray.pipelines.flagship as fl\n"
        "corpus, out, later, records = sys.argv[1:5]\n"
        "class Probe(fl.IngestWorker):\n"
        "    def __call__(self, slices):\n"
        "        cpu = ray.get_runtime_context().get_assigned_resources()\n"
        "        with open(os.path.join(records, uuid.uuid4().hex),"
        " 'w') as f:\n"
        "            json.dump([cpu.get('CPU'), self.threads], f)\n"
        "        return super().__call__(slices)\n"
        "fl.IngestWorker = Probe\n"
        "def waves():\n"
        "    got = sorted(json.load(open(os.path.join(records, p)))"
        " for p in os.listdir(records))\n"
        "    for p in os.listdir(records):\n"
        "        os.remove(os.path.join(records, p))\n"
        "    return got\n"
        "fl.run_flagship(corpus, out)\n"
        "print('ONE ' + json.dumps(waves()))\n"
        "shutil.copy(later, corpus)\n"
        "fl.MAX_BATCH_ROWS = 500\n"
        "fl.run_flagship(corpus, out)\n"
        "print('TWO ' + json.dumps(waves()))\n"
        "ray.shutdown()\n")
    root = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [root, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(corpus), str(tmp_path / "out"),
         str(later), str(records)],
        capture_output=True, text=True, timeout=240, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = dict(ln.split(" ", 1) for ln in proc.stdout.splitlines()
               if ln.startswith(("ONE ", "TWO ")))
    assert json.loads(got["ONE"]) == [[4, 4]]
    assert json.loads(got["TWO"]) == [[2, 2], [2, 2]]


def _routed_rows(out) -> dict[str, pa.Table]:
    """Each sink's rows, in (conv_id, turn_idx) order."""
    return {Path(d).name: pq.read_table(
                sorted(glob.glob(f"{d}/date=*/*.parquet")))
            .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
            for d in sorted(glob.glob(f"{out}/sink=*"))}


def test_cluster_shapes_match_single_node(tmp_path):
    """A fresh ingest on multi-node clusters of 0+2+2, 3+1 and 1+1+1+1
    CPUs gives the summary, routed row sets and ``interval_counts`` of
    a one-node 4-CPU run.  A wave fills every CPU with tasks that fit
    the smallest node (``ingest_batch_rows``, ``ingest_task_cpus``), so
    on 3+1 four 1-CPU tasks run at once, where two 2-CPU tasks would
    both need the 3-CPU node and run one after the other.

    Runs in a subprocess that starts each shape with
    ``ray.cluster_utils.Cluster``, all nodes on the local machine.  The
    driver keeps the wave log lines, and each batch records its start
    and end times and waits for its peers to start (``_TIMED_WORKER``).
    A warm-up ingest per shape starts the workers first."""
    import os
    import re
    import subprocess
    import sys

    from alco_ray.fixtures import ensure_corpus
    from alco_ray.pipelines.flagship import (ingest_batch_rows,
                                             ingest_task_cpus, plan_slices)

    corpus = ensure_corpus("t-conc", 700, 20_000, seed=5,
                           root=str(tmp_path))
    times = tmp_path / "times"
    times.mkdir()
    # shape -> (CPUs, smallest CPU node's CPUs)
    shapes = {"4": (4, 4), "0+2+2": (4, 2), "3+1": (4, 1),
              "1+1+1+1": (4, 1)}
    # shape -> (batches, task_cpus) of its one wave
    plans = {"4": (1, 4), "0+2+2": (2, 2), "3+1": (4, 1),
             "1+1+1+1": (4, 1)}

    script = (
        "import json, logging, os, sys, time, uuid, ray\n"
        "from ray.cluster_utils import Cluster\n"
        "from ray.data import DataContext\n"
        "import alco_ray.pipelines.flagship as fl\n"
        "corpus, root, times, batches = sys.argv[1:5]\n"
        + _TIMED_WORKER +
        "lines = []\n"
        "class Keep(logging.Handler):\n"
        "    def emit(self, record):\n"
        "        lines.append(record.getMessage())\n"
        "log = logging.getLogger('alco_ray')\n"
        "log.setLevel(logging.INFO)\n"
        "log.addHandler(Keep())\n"
        "for name in sys.argv[5:]:\n"
        "    head, *rest = map(int, name.split('+'))\n"
        "    c = Cluster(initialize_head=True, head_node_args={"
        "'num_cpus': head, 'object_store_memory': 128 << 20})\n"
        "    for n in rest:\n"
        "        c.add_node(num_cpus=n, object_store_memory=128 << 20)\n"
        "    c.wait_for_nodes()\n"
        "    ray.init(address=c.address, logging_level='ERROR')\n"
        "    DataContext.get_current().enable_progress_bars = False\n"
        "    reset(1)\n"
        "    fl.run_flagship(corpus, os.path.join(root, name + '-warm'))\n"
        "    reset(json.loads(batches)[name])\n"
        "    del lines[:]\n"
        "    s = fl.run_flagship(corpus, os.path.join(root, name))\n"
        "    print('SHAPE ' + json.dumps([name, s, lines, spans()]))\n"
        "    ray.shutdown()\n"
        "    c.shutdown()\n")
    root = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [root, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(corpus), str(tmp_path),
         str(times), json.dumps({k: b for k, (b, _) in plans.items()}),
         *shapes],
        capture_output=True, text=True, timeout=480, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr[-2000:]
    runs = {name: (summary, lines, spans) for name, summary, lines, spans
            in (json.loads(ln[len("SHAPE "):])
                for ln in proc.stdout.splitlines()
                if ln.startswith("SHAPE "))}
    assert list(runs) == list(shapes)

    n_rows = sum(pq.read_metadata(f).num_rows
                 for f in corpus.glob("*.parquet"))
    want_rows = _routed_rows(tmp_path / "4")
    want_agg = pq.read_table(tmp_path / "4" / "aggregates" /
                             "interval_counts")
    wave = re.compile(r"wave \w+ committed: input_files=\d+ "
                      r"batches=(\d+) task_cpus=(\d+) ")
    for name, (summary, lines, spans) in runs.items():
        assert summary == runs["4"][0], name
        assert summary["rows"] == n_rows
        got_rows = _routed_rows(tmp_path / name)
        assert list(got_rows) == list(want_rows), name
        assert all(got_rows[k].equals(want_rows[k]) for k in want_rows), name
        assert pq.read_table(tmp_path / name / "aggregates" /
                             "interval_counts").equals(want_agg), name
        [line] = lines
        planned = tuple(map(int, wave.match(line).groups()))
        n_batches = len(plan_slices(
            [(f, pq.read_metadata(f).num_rows)
             for f in sorted(map(str, corpus.glob("*.parquet")))],
            ingest_batch_rows(n_rows, *shapes[name])))
        assert planned == plans[name] == (
            n_batches, ingest_task_cpus(n_batches, *shapes[name])), name
        assert len(spans) == planned[0], name
        _assert_side_by_side(spans)


def test_batch_errors_name_wave_and_ranges(t_small_table, tmp_path):
    """A batch that fails to read re-raises naming its wave and its
    (path, start, stop) ranges, both in the worker and through a run;
    a shard whose footer is unreadable is named too, and so is a shard
    that lacks a dictionary column."""
    import ray

    from alco_ray.pipelines.flagship import IngestWorker
    from alco_ray.specs import default_transcript_config

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    good, bad = corpus / "part-0.parquet", corpus / "part-1.parquet"
    pq.write_table(t_small_table.slice(0, 600), good)
    pq.write_table(t_small_table.slice(600), bad)
    truncated = tmp_path / "truncated.parquet"
    truncated.write_bytes(bad.read_bytes()[: bad.stat().st_size // 2])

    worker = IngestWorker(default_transcript_config(),
                          {"role": ray.put(pa.table({
                              "value": pa.array([], pa.string()),
                              "id": pa.array([], pa.int32())}))},
                          staging_dir=str(tmp_path / "staging"),
                          wave_id="wtest")
    batch = pa.table({"path": [[str(good), str(truncated)]],
                      "start": [[590, 0]], "stop": [[600, 5]]})
    with pytest.raises(RuntimeError) as err:
        worker(batch)
    assert "wave wtest" in str(err.value)
    assert repr([(str(good), 590, 600), (str(truncated), 0, 5)]) \
        in str(err.value)

    # Damage the middle of the text column only: the footer and the
    # dictionary columns still read, so the failure is in the task.
    col = next(c for c in (pq.read_metadata(bad).row_group(0).column(i)
                           for i in range(6)) if c.path_in_schema == "text")
    data = bytearray(bad.read_bytes())
    mid = col.dictionary_page_offset + col.total_compressed_size // 2
    data[mid:mid + 64] = bytes(range(64))
    bad.write_bytes(bytes(data))
    pq.read_table(bad, columns=["role", "tool"])
    with pytest.raises(OSError):
        pq.read_table(bad)
    [(wave_id, _)] = make_waves([str(good), str(bad)], 4)
    with pytest.raises(Exception) as err:
        run_flagship(corpus, tmp_path / "out", wave_size=4)
    assert f"wave {wave_id} batch [" in str(err.value)
    assert repr((str(bad), 0, t_small_table.num_rows - 600)) \
        in str(err.value)

    shutil.copy(truncated, bad)
    with pytest.raises(RuntimeError, match=f"reading {bad}"):
        run_flagship(corpus, tmp_path / "out2", wave_size=4)

    pq.write_table(t_small_table.slice(600).drop_columns(["tool"]), bad)
    with pytest.raises(RuntimeError,
                       match=f"reading {bad}: no column 'tool'"):
        run_flagship(corpus, tmp_path / "out3", wave_size=4)



def _shard_variant(name: str, t: pa.Table):
    """A physical variant of canonical shard ``t`` and the canonical
    table it must ingest like (its twin), or None: rejected."""
    import pyarrow.compute as pc

    def with_col(c: str, values) -> pa.Table:
        return t.set_column(t.schema.get_field_index(c), c, values)

    ms = pc.cast(t["ts"], pa.timestamp("ms"), safe=False)
    nulls = pa.nulls(t.num_rows)
    return {
        "int64_turn_idx": (with_col("turn_idx",
                                    pc.cast(t["turn_idx"], pa.int64())), t),
        "reordered": (t.select(t.column_names[::-1]), t),
        "extra_column": (t.append_column(
            "source", pa.array(["replay"] * t.num_rows)), t),
        "ts_ms": (with_col("ts", ms),
                  with_col("ts", pc.cast(ms, pa.timestamp("us")))),
        "large_string_text": (with_col(
            "text", pc.cast(t["text"], pa.large_string())), t),
        "dictionary_role": (with_col("role", pc.dictionary_encode(t["role"])),
                            t),
        "null_text": (with_col("text", nulls),
                      with_col("text", pc.cast(nulls, pa.string()))),
        "missing_tool": (t.drop_columns(["tool"]), None),
    }[name]


@pytest.mark.parametrize("variant", [
    "int64_turn_idx", "reordered", "extra_column", "ts_ms",
    "large_string_text", "dictionary_role", "null_text", "missing_tool"])
def test_shard_schema_variants_ingest_like_canonical(variant, t_small_table,
                                                     tmp_path):
    """A shard that differs from the canonical schema only physically
    gives, next to a canonical shard (in the same batch, and in a wave
    of its own), the summary, routed row sets and ``interval_counts``
    of its canonical twin, and each sink keeps one schema; a shard
    without a dictionary column is rejected before any task runs,
    naming the file and the column."""
    import re

    shard, twin = _shard_variant(variant, t_small_table.slice(600))

    def corpus_with(second: pa.Table, name: str) -> Path:
        corpus = tmp_path / f"{name}_in"
        corpus.mkdir()
        pq.write_table(t_small_table.slice(0, 600), corpus / "part-0.parquet")
        pq.write_table(second, corpus / "part-1.parquet")
        return corpus

    if twin is None:
        corpus = corpus_with(shard, "rejected")
        bad = re.escape(str(corpus / "part-1.parquet"))
        with pytest.raises(RuntimeError,
                           match=f"reading {bad}: no column 'tool'"):
            run_flagship(corpus, tmp_path / "out", wave_size=4)
        assert not glob.glob(f"{tmp_path}/out/sink=*")
        assert not CheckpointManifest(tmp_path / "out").waves
        return

    twin_out = tmp_path / "twin_out"
    twin_summary = run_flagship(corpus_with(twin, "twin"), twin_out,
                                wave_size=4)
    agg = "aggregates/interval_counts/part-00000.parquet"
    for name, wave_size in (("mixed", 4), ("own_wave", 1)):
        out = tmp_path / f"{name}_out"
        assert run_flagship(corpus_with(shard, name), out,
                            wave_size=wave_size) == twin_summary
        got, want = _routed_rows(out), _routed_rows(twin_out)
        assert got.keys() == want.keys()
        for sink in want:
            assert got[sink].equals(want[sink]), sink
            schemas = {pq.read_schema(f) for f in
                       glob.glob(f"{out}/{sink}/date=*/*.parquet")}
            assert len(schemas) == 1, (sink, schemas)
        assert pq.read_table(out / agg).equals(pq.read_table(twin_out / agg))
