"""The two workloads and the measurement loop.

Every workload is a closed loop with one client: the next operation
starts only after the previous one returned and was verified.  Set-up is
repeated ``setups`` times and the last set-up's state is measured.
Verification and the traced run's replays happen outside the timed
region; an operation that raises, times out or fails verification counts
in ``failed``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from alco_ray.sources import routed_output_files

from pipebench import checks, inputs, layers
from pipebench.session import (NUM_CPUS, OpTimeout, PeakRss, RaySession,
                               call_with_timeout, run_flagship)
from pipebench.tracing import Tracer

OP_TIMEOUT_S = 90.0
# Kept free at the end of a run for the last verification and teardown.
RESERVE_S = 25.0


def log(msg: str) -> None:
    print(f"pipebench: {msg}", file=sys.stderr, flush=True)


@dataclass
class Op:
    latency_s: float
    turns: int
    sink_files: int
    sink_bytes: int
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    traced: bool = False


class Run:
    """What one benchmark run shares between its workload and the loop."""

    def __init__(self, name: str, seed: int, scale: inputs.Scale, work: Path,
                 session: RaySession, trace: bool, deadline: float):
        self.name, self.seed, self.scale = name, seed, scale
        self.work, self.session, self.trace = work, session, trace
        self.deadline = deadline
        self.tracer = Tracer(False)
        self.rss = PeakRss()
        self.attempted = 0
        self.failed = 0
        self.turns = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def call(self, fn):
        """One operation of the program, under the run's timeout."""
        timeout = min(OP_TIMEOUT_S, self.remaining() - RESERVE_S)
        try:
            return call_with_timeout(fn, timeout)
        except (OpTimeout, SystemExit, KeyboardInterrupt):
            # The call may still be running; teardown must not wait on it.
            self.session.abandoned_thread = True
            raise

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log(f"FAIL workload={self.name} op={op}: {p}")

    def ingest(self, input_dir: Path, out_root: Path, traced: bool,
               land=None) -> tuple[dict, float, list[dict]]:
        """Timed ``run_flagship`` (after ``land``, which moves a new
        shard into ``input_dir``); in a traced op also the Ray Data
        executions it ran, as child spans."""
        if traced:
            self.prepare_replay(out_root)
        mark = self.session.data_log.mark()

        def call():
            if land is not None:
                land()
            return run_flagship(input_dir, out_root)

        with self.tracer.span("flagship.run_flagship"):
            epoch0, t0 = time.time(), time.perf_counter()
            with self.rss:
                summary = self.call(call)
            wall = time.perf_counter() - t0
            executions = self.session.data_log.executions(mark)
            for e in executions:
                start = t0 + e["start"] - epoch0
                self.tracer.add("ray_data.rerun" if e["rerun"]
                                else "ray_data.execution",
                                start, start + e["seconds"])
        return summary, wall, executions

    @property
    def replay_state(self) -> Path:
        return self.work / "replay"

    def prepare_replay(self, out_root: Path) -> None:
        """Snapshot the state an ingest starts from (empty for a fresh
        tree) for the replay that follows it."""
        layers.snapshot(out_root, self.replay_state)

    def replay(self, input_dir: Path, new_files: list[Path], out_root: Path,
               wall: float, executions: list[dict]) -> dict[str, float]:
        counts = self.call(lambda: layers.replay_ingest(
            self.tracer, input_dir, new_files, self.replay_state, NUM_CPUS))
        manifest = out_root / "_checkpoint" / "manifest.json"
        metrics = layers.ingest_layer_metrics(
            self.tracer.self_times(self.tracer.run_id), counts, wall,
            executions, manifest.stat().st_size)
        shutil.rmtree(self.replay_state)
        return metrics


class Workload:
    setups = 2
    # A timed workload runs operations until the run's seconds are used;
    # the others run a fixed list of operations.
    timed = True

    def __init__(self, run: Run):
        self.run = run
        self.dir = run.work / run.name
        self.scale = run.scale

    def clear(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def generate(self) -> None:
        self.table = inputs.generate(self.run.seed, self.scale)
        self.run.turns = self.table.num_rows

    def has_op(self, i: int) -> bool:
        return True

    def post_layers(self) -> dict[str, float]:
        """Traced run: per-layer metrics not covered by its operations."""
        return {}


class IngestFresh(Workload):
    """One run_flagship over the whole corpus into an empty tree."""

    setups = 3

    def setup(self) -> None:
        self.generate()
        inputs.write_shards(self.table, self.scale.shards, self.dir / "in",
                            range(self.scale.shards))

    def after_setup(self) -> None:
        self.expect = inputs.Expected(self.table, self.scale.shards)
        self.want = self.expect.ingest(range(self.scale.shards))

    def op(self, i: int, traced: bool) -> Op:
        shutil.rmtree(self.dir / f"out{i - 1}", ignore_errors=True)
        inp, out = self.dir / "in", self.dir / f"out{i}"
        self.out = out
        summary, wall, executions = self.run.ingest(inp, out, traced)
        tree = checks.sink_tree(out)
        problems = checks.check_ingest(out, summary, self.want, tree)
        op = Op(wall, self.want["rows"], tree.files, tree.bytes, problems)
        if traced:
            op.layers = self.run.replay(inp, sorted(inp.glob("*.parquet")),
                                        out, wall, executions)
        return op

    def post_layers(self) -> dict[str, float]:
        return query_layers(self.run, self.out, self.expect)


class IngestAppend(Workload):
    """One-shard appends, each landed (renamed into the input dir) and
    ingested with run_flagship onto the committed base tree.  Every run
    lands all 16 pending shards: each append re-merges every partial so
    far, so a time limit would measure fewer, cheaper appends on a slower
    build."""

    timed = False

    def setup(self) -> None:
        self.generate()
        base = self.scale.base_shards
        inputs.write_shards(self.table, self.scale.shards, self.dir / "in",
                            range(base))
        inputs.write_shards(self.table, self.scale.shards,
                            self.dir / "pending", range(base, self.scale.shards))
        self.summary = run_flagship(self.dir / "in", self.dir / "out")

    def after_setup(self) -> None:
        self.expect = inputs.Expected(self.table, self.scale.shards)
        out = self.dir / "out"
        self.run.record("setup-ingest", checks.check_ingest(
            out, self.summary,
            self.expect.ingest(range(self.scale.base_shards)),
            checks.sink_tree(out)))

    def has_op(self, i: int) -> bool:
        return self.scale.base_shards + i < self.scale.shards

    def op(self, i: int, traced: bool) -> Op:
        s = self.scale.base_shards + i
        name = inputs.shard_name(s)
        inp, out = self.dir / "in", self.dir / "out"
        summary, wall, executions = self.run.ingest(
            inp, out, traced,
            land=lambda: os.replace(self.dir / "pending" / name, inp / name))
        tree = checks.sink_tree(out)
        problems = checks.check_ingest(out, summary,
                                       self.expect.ingest(range(s + 1)), tree)
        op = Op(wall, self.expect.shard_turns(s), tree.files, tree.bytes,
                problems)
        if traced:
            op.layers = self.run.replay(inp, [inp / name], out, wall,
                                        executions)
        return op

    def post_layers(self) -> dict[str, float]:
        return query_layers(self.run, self.dir / "out", self.expect)


def query_layers(run: Run, tree: Path,
                 expect: inputs.Expected) -> dict[str, float]:
    """Traced run of an ingest workload: the grep/count query mix once
    over the tree its operations left (which then holds the whole
    corpus), each query timed and its result verified against DuckDB
    over the oracle, plus the tree's read-side shape."""
    run.tracer.enabled = True
    run.tracer.run_id = "post-queries"
    want = expect.queries()
    metrics, problems = {}, []
    with run.tracer.span("query.pass"):
        for name in layers.QUERIES:
            with run.tracer.span(name):
                t0 = time.perf_counter()
                result = run.call(lambda: layers.run_query(name, tree))
                metrics[f"{name}_s"] = time.perf_counter() - t0
            problems += checks.check_query(name, result, want[name])
    run.record("post-queries", problems)
    metrics["sources.read_files"] = len(routed_output_files(tree))
    metrics["window.partition_skew"] = run.call(
        lambda: layers.partition_skew(tree))
    return metrics


WORKLOADS = {"ingest_fresh": IngestFresh, "ingest_append": IngestAppend}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Set up, then run the workload's operations (a timed workload until
    they used ``seconds``); returns the metrics of the run's mode."""
    wl = WORKLOADS[run.name](run)
    setup_s = []
    for _ in range(wl.setups):
        wl.clear()
        t0 = time.perf_counter()
        run.call(wl.setup)
        setup_s.append(time.perf_counter() - t0)
    wl.after_setup()
    log(f"{run.name}: set-up {[round(s, 2) for s in setup_s]} s")

    ops: list[Op] = []
    busy, i = 0.0, 0
    while wl.has_op(i):
        # A traced run traces ops in the order T U U T T U U T ..., so
        # each pair (2k, 2k + 1) holds one traced and one untraced op and
        # state that grows from op to op biases neither side.
        traced = run.trace and i % 4 in (0, 3)
        run.tracer.enabled = traced
        run.tracer.run_id = f"op{i}"
        try:
            op = wl.op(i, traced)
        except OpTimeout as e:
            run.record(f"op{i}", [f"timed out: {e}"])
            break
        except Exception as e:  # the program failed; report and stop
            run.record(f"op{i}", [f"raised {e!r}"])
            break
        run.record(f"op{i}", op.problems)
        op.traced = traced
        ops.append(op)
        busy += op.latency_s
        i += 1
        if run.remaining() < _median(o.latency_s for o in ops) + RESERVE_S:
            break
        if wl.timed and busy >= seconds and (not run.trace or i % 2 == 0):
            break
    log(f"{run.name}: {len(ops)} operations, latencies "
        f"{[round(o.latency_s, 2) for o in ops]} s")

    plain = [o for o in ops if not o.traced]
    traced_ops = [o for o in ops if o.traced]
    if not run.trace:
        return {
            "setup_s": _median(setup_s),
            "op_latency_s": _median(o.latency_s for o in plain),
            "turns_per_s": _median(o.turns / o.latency_s for o in plain),
            # The sink tree as the run left it.
            "sink_files": ops[-1].sink_files if ops else 0,
            "sink_bytes": ops[-1].sink_bytes if ops else 0,
            "driver_peak_rss_mb": run.rss.peak_mb,
        }
    metrics = {k: _median(o.layers[k] for o in traced_ops)
               for k in (traced_ops[0].layers if traced_ops else {})}
    if traced_ops and not run.session.abandoned_thread:
        metrics.update(wl.post_layers())
    pairs = zip(ops[0::2], ops[1::2])
    metrics["trace.overhead_s"] = _median(
        (a.latency_s - b.latency_s) * (1 if a.traced else -1) for a, b in pairs)
    return metrics
