"""Dictionary build + enrich — ALCO's Redis value->id dictionaries.

SURVEY.md §2.4 J1 / §2.3 T1.  The reference keeps a Redis hash per
(logger, filtered column) mapping string value -> small int id, with a
per-process cache; ids are assigned by arrival order (INCR).  Here:

- **build**: one distinct pass over the filtered columns, then ids
  assigned by **sorted-distinct order** — deterministic and
  reproducible across partitionings, a documented deviation from Redis
  INCR arrival order (BASELINE.json:14 demands reproducible equality;
  arrival order is nondeterministic under parallelism).  Nulls get no
  id (stay null).  The per-batch kernel (:func:`distinct_values`) and
  the merge (:func:`dicts_from_distincts`) are module-level; the
  flagship's driver-side scan of new shards
  (``flagship.build_or_load_dicts``) runs them over row groups.
- **broadcast + probe** (:class:`DictEncoder`): the dict tables are put
  in the object store once (``ray.put``); each actor in the pool reads
  them ONCE in ``__init__`` and probes per batch with ``pc.index_in``
  (hash lookup, zero-copy).  No shuffle, no per-batch re-ship.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import concat_nonempty


def build_dict_table(values: pa.Array | list) -> pa.Table:
    """Sorted-distinct value -> id table: (value:string, id:int32)."""
    arr = pa.array(values, pa.string()) if isinstance(values, list) else values
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    distinct = pc.unique(arr.drop_null())
    distinct = distinct.sort()
    ids = pa.array(range(len(distinct)), pa.int32())
    return pa.table({"value": distinct, "id": ids})


def distinct_values(batch: pa.Table, columns: list[str]) -> pa.Table:
    """Distinct non-null values of ``columns`` in ``batch`` as
    (col, value) rows.  Values are normalized exactly as the parse
    stage normalizes them before the probe (trim, empty->null): a dict
    built on raw values would miss every value that only appears
    dirty."""
    from .parse import normalize_strings

    cols: list[pa.Array] = []
    vals: list[pa.Array] = []
    for c in columns:
        u = pc.unique(normalize_strings(batch[c])).drop_null()
        vals.append(pc.cast(u, pa.string()))
        cols.append(pa.array([c] * len(u), pa.string()))
    return pa.table({"col": pa.concat_arrays(cols),
                     "value": pa.concat_arrays(vals)})


def dicts_from_distincts(parts: list[pa.Table], columns: list[str],
                         ) -> dict[str, pa.Table]:
    """Merge :func:`distinct_values` tables into one sorted-distinct
    dict table per column."""
    merged = concat_nonempty(parts)
    if merged.num_rows == 0:  # no input rows: nothing to type it
        merged = pa.table({"col": pa.array([], pa.string()),
                           "value": pa.array([], pa.string())})
    return {col: build_dict_table(
                merged.filter(pc.equal(merged["col"], col))["value"]
                .combine_chunks())
            for col in columns}


def encode_with_dicts(batch: pa.Table, dicts: dict[str, pa.Table]) -> pa.Table:
    """Append ``<col>_id`` int32 per filtered column (null stays null)."""
    for col, table in dicts.items():
        if col not in batch.column_names:
            continue
        ids = pc.index_in(batch[col], value_set=table["value"].combine_chunks()
                          if isinstance(table["value"], pa.ChunkedArray)
                          else table["value"])
        batch = batch.append_column(f"{col}_id", pc.cast(ids, pa.int32()))
    return batch


class DictEncoder:
    """Actor-pool stage (T1): broadcast dict tables, probe per batch.

    Use as ``ds.map_batches(DictEncoder, fn_constructor_kwargs=
    {"dict_refs": refs}, batch_format="pyarrow", concurrency=N)``.
    ``dict_refs`` is ``{col: ray.ObjectRef}`` from one driver-side
    ``ray.put`` per dict — each actor fetches from the local object
    store once, in ``__init__``, not per batch.
    """

    def __init__(self, dict_refs: dict[str, object]):
        import ray

        self.dicts = {col: ray.get(ref) for col, ref in dict_refs.items()}
        # Pre-combine chunks once so per-batch index_in probes are flat.
        self.dicts = {
            col: t.combine_chunks() for col, t in self.dicts.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        return encode_with_dicts(batch, self.dicts)
