#!/usr/bin/env python3
"""Benchmark of the transcript pipeline: fresh ingest and incremental
append over a seeded transcript corpus, with the sink-tree queries
measured per layer.

    python3 pipebench/run.py --workload ingest_fresh --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The corpus is generated from
``--seed`` and written as Parquet shards under ``.pipebench/``; the
program (``alco_ray``) sees only those files.  Each workload sets up
several times (``setup_s`` is the median), then runs operations one
after another, verifying each against the oracle outside the timed
region: ingest_fresh until ``--seconds`` of operation time are used,
ingest_append always its 16 appends.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` reports the per-layer metrics and writes the run's spans
to ``.pipebench/traces/``.  Progress and failures go to stderr; stdout
ends with a ``conditions`` line (host and config) and then one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, where each
metric is ``{"value", "unit"}``.  Metric values are only meaningful
when ``correct`` is true.

Exit status: 0 after a result was printed; 2 when the package is
missing from the checkout; 3 when another Ray session is running;
anything else when set-up itself failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every run must end within 180 s, teardown included.
RUN_BUDGET_S = 160.0


def parse_args(argv):
    from pipebench import inputs, workloads

    default = inputs.Scale()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="operation time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shards", type=int, default=default.shards,
                   help="corpus shards (the smoke test shrinks the corpus)")
    p.add_argument("--turns-per-shard", type=int,
                   default=default.turns_per_shard)
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    # A terminated run still tears down the Ray processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "alco_ray" / "__init__.py").is_file():
        print("pipebench: no alco_ray package in this checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Ray workers import alco_ray through PYTHONPATH; with the package on
    # the driver's sys.path only, their tasks fail, retry and hang.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    # A call still running at teardown must not start a new Ray cluster.
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    sys.path[0] = str(ROOT)
    args = parse_args(argv)

    from pipebench import inputs, session, workloads

    scale = inputs.Scale(args.shards, args.turns_per_shard)
    state = ROOT / ".pipebench"
    work = state / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with session.RaySession(work) as ray_session:
            run = workloads.Run(args.workload, args.seed, scale, work,
                                ray_session, bool(args.trace),
                                started + RUN_BUDGET_S)
            metrics = workloads.measure(run, args.seconds)
    except session.RaySessionBusy as e:
        print(f"pipebench: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        run.tracer.dump(state / "traces" / f"{args.workload}-seed{args.seed}.json")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not run.failed:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": run.attempted > 0 and run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        # A failed run may lack some measurements; it reports them as 0.
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared},
    }
    print("conditions " + json.dumps({
        **session.conditions(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "shards": scale.shards,
        "turns_per_shard": scale.turns_per_shard, "turns": run.turns}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
