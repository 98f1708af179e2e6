#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny scale.

    python3 pipebench/smoke.py

Checks that every workload emits every metric named in BENCHMARK.json
with its unit in both modes, that a deliberately truncated sink file is
counted as a failed operation, and that a different seed gives different
inputs (and the same seed the same).  Exits non-zero on a failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = (8, 300)  # shards, turns per shard
TINY_ARGS = ("--shards", str(TINY[0]), "--turns-per-shard", str(TINY[1]))


def check_metric_names() -> None:
    from pipebench.report import run_bench
    from pipebench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run_bench(workload, 1, 1, trace, TINY_ARGS)
            problems = r.pop("problems")
            assert set(r) == {"correct", "attempted", "failed", "metrics"}, r
            assert r["attempted"] >= 1, r
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            assert got == want, (workload, trace, got, want)
            assert all(isinstance(m["value"], (int, float))
                       for m in r["metrics"].values()), r
            print(f"ok: {workload} trace={trace} emits {len(got)} metrics "
                  f"(correct={r['correct']})", *problems, sep="\n  ")


def check_truncated_file_fails() -> None:
    from pipebench import inputs, workloads
    from pipebench.session import RaySession

    class TruncatingRun(workloads.Run):
        """Cuts one sink file down to its 4-byte header after the ingest."""

        def ingest(self, input_dir, out_root, traced, land=None):
            out = super().ingest(input_dir, out_root, traced, land)
            self.victim = sorted(out_root.glob("sink=*/date=*/*.parquet"))[0]
            self.victim.write_bytes(self.victim.read_bytes()[:4])
            return out

    work = ROOT / ".pipebench" / f"smoke-{os.getpid()}"
    err = io.StringIO()
    try:
        with RaySession(work) as session, contextlib.redirect_stderr(err):
            run = TruncatingRun("ingest_fresh", 1, inputs.Scale(*TINY), work,
                                session, False, time.monotonic() + 160)
            workloads.measure(run, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert run.attempted == 1 and run.failed == 1, (run.attempted, run.failed)
    assert f"unreadable sink file {run.victim}" in err.getvalue(), err.getvalue()
    print("ok: a truncated sink file counts as a failed operation")


def check_seed_changes_inputs() -> None:
    from pipebench import inputs

    tiny = inputs.Scale(*TINY)
    a, b = inputs.generate(1, tiny), inputs.generate(2, tiny)
    assert not a.equals(b)
    assert a.equals(inputs.generate(1, tiny))
    print("ok: inputs are a function of the seed")


def main() -> int:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    sys.path[0] = str(ROOT)
    check_seed_changes_inputs()
    check_truncated_file_fails()
    check_metric_names()
    return 0


if __name__ == "__main__":
    sys.exit(main())
