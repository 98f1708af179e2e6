#!/usr/bin/env python3
"""Run every workload in both modes and print every metric by name, with
its unit, and each run's verification verdict.

    python3 pipebench/report.py [--seed N] [--seconds S]

Each run is a separate ``run.py`` process, as the benchmark is run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload: str, seed: int, seconds: float, trace: int,
              extra: tuple[str, ...] = ()) -> dict:
    """One benchmark run; its result object (the last stdout line)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "pipebench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["problems"] = [line for line in proc.stderr.splitlines()
                          if line.startswith("pipebench: FAIL")]
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = p.parse_args()
    sys.path[0] = str(ROOT)
    from pipebench.workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_bench(workload, args.seed, args.seconds, trace)
            ok &= r["correct"]
            print(f"{workload} trace={trace}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
            for name, m in r["metrics"].items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
            for line in r["problems"]:
                print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
