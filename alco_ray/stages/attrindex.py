"""Persisted numeric ATTRIBUTE index — the Sphinx attribute-filter
analog of the inverted text index (textindex.py): ALCO's search side
filters by numeric/time attributes (Sphinx attribute filters) next to
MATCH; this module gives range predicates the same build-once /
probe-pruned treatment.

Build: one map-side (min, max) fold sizes an equi-width bucket grid,
then every row lands in exactly one ``bucket=<i>/`` Parquet directory
(content-hashed filenames — idempotent retries; staged build + atomic
swap, :func:`staging.staged_index`).  A range probe reads
ONLY the buckets overlapping [lo, hi) — at 100 TB the scan cost is
proportional to the selected value range, not the corpus — and applies
the exact vectorized predicate to the edge buckets.

meta.json also records the data schema (Arrow IPC, base64), so a
probe answers a typed empty table — no bucket file, or every row
filtered — without reading any file.

Two bucket-grid modes, both reproducible from meta.json alone:
``boundaries="width"`` (default) is an equi-width grid — assignment is
a float floor, the right choice for roughly uniform attributes;
``boundaries="quantile"`` samples the value distribution once
(aggregate.quantile_cont) and stores the edge list, so a heavily
SKEWED attribute still yields near-equal bucket sizes — assignment
and pruning become one ``searchsorted`` over the edges.  Probes are
agnostic: they read whichever grid the meta carries.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _bucket_of_meta(v: np.ndarray, meta: dict) -> np.ndarray:
    """Bucket assignment from meta alone — the ONE shared rule for
    build and probe (grid drift between them would silently unprune
    results)."""
    nb = meta["n_buckets"]
    if "edges" in meta:
        return np.searchsorted(np.asarray(meta["edges"], np.float64),
                               v, side="right").astype(np.int32)
    return np.clip(np.floor((v - meta["lo"]) / meta["width"]),
                   0, nb - 1).astype(np.int32)


def build_value_index(ds, index_dir: str | Path, *,
                      value_col: str = "value",
                      n_buckets: int = 64,
                      boundaries: str = "width",
                      extra_meta: dict | None = None) -> None:
    """Build the persisted range index over ``ds`` (all columns are
    carried into the bucket files — the index IS the routed copy of
    the table, like the text index's docstore).  ``boundaries``:
    "width" (equi-width grid) or "quantile" (edges from the observed
    distribution — near-equal bucket sizes under skew)."""
    from ..sinks import _make_block_writer
    from .aggregate import _count_min_max, quantile_cont
    from .staging import staged_index

    if boundaries == "quantile":
        ps = [i / n_buckets for i in range(1, n_buckets)]
        qt = quantile_cont(ds, value_col, ps)
        edges = sorted(set(qt["lo_value"].to_pylist())) \
            if qt.num_rows else []
        meta_grid = {"edges": edges,
                     "n_buckets": len(edges) + 1}
    elif boundaries == "width":
        n, lo, hi = _count_min_max(ds, value_col)
        if n == 0:
            lo, hi = 0.0, 1.0
        width = (hi - lo) / n_buckets or 1.0
        meta_grid = {"lo": lo, "width": width, "n_buckets": n_buckets}
    else:
        raise ValueError(f"boundaries must be 'width' or 'quantile', "
                         f"got {boundaries!r}")
    schema = ds.schema().base_schema.remove_metadata()
    meta = {"kind": "value_range", "version": 1, "value_col": value_col,
            "schema": base64.b64encode(schema.serialize()).decode(),
            **meta_grid, **(extra_meta or {})}

    def assign(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return b.append_column("bucket",
                               pa.array(_bucket_of_meta(v, meta)))

    with staged_index(index_dir) as (build, staged_meta):
        writer = _make_block_writer(str(build / "buckets"), ["bucket"])
        (ds.map_batches(assign, batch_format="pyarrow")
           .map_batches(writer, batch_format="pyarrow").materialize())
        staged_meta.update(meta)


def range_probe(index_dir: str | Path, lo: float, hi: float, *,
                columns: list[str] | None = None,
                stats_out: dict | None = None):
    """Rows with ``lo <= value < hi``, reading ONLY the overlapping
    bucket directories (pruned at the FILE level before any byte of
    data moves) then applying the exact predicate vectorized."""
    import ray.data

    d = Path(index_dir)
    meta = json.loads((d / "meta.json").read_text())
    vcol = meta["value_col"]
    ends = _bucket_of_meta(
        np.array([lo, np.nextafter(hi, -np.inf)], np.float64), meta)
    b_lo, b_hi = int(ends[0]), int(ends[1])
    files = sorted(str(p) for b in range(b_lo, b_hi + 1)
                   for p in (d / "buckets" / f"bucket={b}")
                   .glob("*.parquet"))
    if stats_out is not None:
        stats_out["bucket_range"] = (b_lo, b_hi)
        stats_out["files"] = files
    schema = pa.ipc.read_schema(
        pa.py_buffer(base64.b64decode(meta["schema"])))
    columns = columns or schema.names
    empty = pa.table({c: pa.array([], schema.field(c).type)
                      for c in columns})
    if not files:
        return empty
    ds = ray.data.read_parquet(files, columns=columns)

    def exact(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(b[vcol], pa.scalar(lo)),
                       pc.less(b[vcol], pa.scalar(hi)))
        return b.filter(keep)

    # materialize once: the count() guard below would otherwise
    # re-execute the (pruned) read when the consumer iterates
    out = ds.map_batches(exact, batch_format="pyarrow").materialize()
    if out.count() == 0:
        # all-filtered surfaces as ZERO blocks -> a 0-column frame
        # downstream (ray 2.49 drops the schema); the count() runs over
        # the PRUNED read, so this guard is bucket-range-cheap.  A
        # pa.Table, NOT from_arrow(zero-row): ray 2.49 drops the schema
        # of a zero-row Dataset on to_pandas()
        return empty
    return out
