"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into each layer
(nothing inside ``alco_ray`` is instrumented) and written out once, when
the run ends.  A layer's self time is its span's duration minus the part
of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        rec = self._open(name, time.perf_counter())
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the open one (used for Ray Data
        executions read back from its log)."""
        if self.enabled:
            self._open(name, start)["end"] = end

    def _open(self, name: str, start: float) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": start, "end": None}
        self.spans.append(rec)
        return rec

    def self_times(self, run: str) -> dict[str, float]:
        """Total self time per span name over the spans of one run."""
        spans = [s for s in self.spans if s["run"] == run and s["end"]]
        children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children[s["id"]]):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out[s["name"]] += s["end"] - s["start"] - covered
        return dict(out)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))
