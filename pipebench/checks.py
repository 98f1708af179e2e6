"""Verification of each operation's output, run outside the timed
region.  Every function returns a list of problems; an empty list means
the output matched the oracle."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from pipebench.inputs import canonical


@dataclass
class SinkTree:
    files: int = 0
    bytes: int = 0
    rows_by_sink: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)


# Row counts of sink files already opened, by (path, size, mtime): a
# growing tree is re-checked without re-reading the footers that did
# not change.
_footer_rows: dict[tuple, int] = {}


def sink_tree(out_root: Path) -> SinkTree:
    """Open the footer of every sink file and total rows per sink."""
    tree = SinkTree()
    for f in sorted(Path(out_root).glob("sink=*/date=*/*.parquet")):
        st = f.stat()
        tree.files += 1
        tree.bytes += st.st_size
        key = (f, st.st_size, st.st_mtime_ns)
        if key not in _footer_rows:
            try:
                _footer_rows[key] = pq.read_metadata(f).num_rows
            except (OSError, pa.ArrowException) as e:
                tree.problems.append(f"unreadable sink file {f}: {e}")
                continue
        tree.rows_by_sink[f.parent.parent.name.split("=", 1)[1]] += \
            _footer_rows[key]
    return tree


def check_ingest(out_root: Path, summary: dict, want: dict,
                 tree: SinkTree) -> list[str]:
    """Sink files, run summary and interval-count aggregate against the
    oracle for the shards the tree should hold."""
    problems = list(tree.problems)
    if dict(tree.rows_by_sink) != want["routed_counts"]:
        problems.append(f"rows per sink in {out_root}: "
                        f"{dict(tree.rows_by_sink)} != oracle "
                        f"{want['routed_counts']}")
    for key in ("rows", "parse_failures", "routed_counts"):
        if summary.get(key) != want[key]:
            problems.append(f"summary {key} {summary.get(key)} != oracle "
                            f"{want[key]}")
    agg = Path(out_root) / "aggregates" / "interval_counts" / "part-00000.parquet"
    try:
        got = canonical(pq.read_table(agg))
    except (OSError, pa.ArrowException) as e:
        problems.append(f"unreadable aggregate {agg}: {e}")
    else:
        if not got.equals(want["interval"]):
            problems.append(f"interval counts in {agg} differ from the "
                            f"oracle ({got.num_rows} vs "
                            f"{want['interval'].num_rows} groups)")
    return problems


def check_query(name: str, result: pa.Table, want: pa.Table) -> list[str]:
    """A query result against its DuckDB answer (``canonical``);
    stable_order must also come back in order, the others are compared
    as sorted row sets."""
    got = canonical(result, sort=name != "order.stable_order")
    if not got.equals(want):
        return [f"{name} result differs from the oracle "
                f"({got.num_rows} vs {want.num_rows} rows)"]
    return []
