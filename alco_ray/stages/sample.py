"""Deterministic sampling / mixture policies for training-data prep.

Data mixing is the step between curation and tokenization: each source
(web crawl, code, books, low-resource language) is up- or down-sampled
to a target rate before packing.  Everything here is RNG-free — the
keep/repeat decision is a pure function of (row id, rate) via the same
multiplicative hash the split/cap operators use — so results are
independent of partitioning, resumable after failure, and identical
between the distributed plan and a SQL oracle.

Scale shape: ``mixture_resample`` is a stateless ``map_batches`` body
(no shuffle; the rates dict is bounded by the number of sources and
rides the task closure); at 100 TB it streams.  Rate POLICY (e.g.
temperature flattening) is driver-side arithmetic over the bounded
per-source count table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

HASH_MULT = 2654435761  # Knuth multiplicative; shared with split/cap
HASH_MOD = 4294967296


def mixture_resample(ds, rates: dict[str, float]):
    """Deterministic per-source resampling: every row of ``source`` s is
    emitted floor(r_s) times, plus once more iff its multiplicative
    id-hash falls below frac(r_s) * 2^32 — expected copies exactly
    r_s, and downsampling (r<1), pass-through (r==1) and upsampling
    (r>1) are the same code path.  Answers (``doc_id``, ``source``,
    ``copy_idx``), the 0-based copy number for downstream epoch-aware
    shuffling.

    Rows whose source has no rate raise (an unmapped source in a
    mixing config is a curation bug, not an implicit keep).  The
    expansion is vectorized: one ``np.repeat`` over row indices, no
    per-row Python."""
    keys = sorted(rates)
    key_arr = pa.array(keys, pa.string())
    rate_arr = np.array([rates[k] for k in keys], dtype=np.float64)
    if np.any(rate_arr < 0):
        raise ValueError("negative mixture rate")
    base_arr = np.floor(rate_arr).astype(np.int64)
    thr_arr = np.floor((rate_arr - np.floor(rate_arr))
                       * HASH_MOD).astype(np.int64)

    def body(b: pa.Table) -> pa.Table:
        idx = pc.index_in(b["source"], value_set=key_arr)
        if b.num_rows and pc.any(pc.is_null(idx)).as_py():
            missing = pc.unique(b.filter(pc.is_null(idx))["source"])
            raise KeyError(f"sources without a mixture rate: "
                           f"{missing.to_pylist()[:5]}")
        idx_np = idx.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if b.num_rows and ids.min() < 0:
            raise ValueError("mixture_resample: negative ids break "
                             "engine/oracle hash parity (DuckDB % is "
                             "sign-preserving)")
        # uint64 multiply after a mod-2^32 reduce: the true product
        # (2^32-1) * HASH_MULT < 2^64, so there is no wrap and the
        # result equals (id * HASH_MULT) mod 2^32 at ANY non-negative
        # id magnitude — the old int64 multiply silently wrapped for
        # id >~ 3.47e9 while the DuckDB-BIGINT oracle didn't (ADVICE
        # r3).  Oracle-side equivalent: (CAST(id AS HUGEINT) *
        # 2654435761) % 4294967296.
        h = ((ids.astype(np.uint64) % np.uint64(HASH_MOD))
             * np.uint64(HASH_MULT)) % np.uint64(HASH_MOD)
        h = h.astype(np.int64)
        copies = base_arr[idx_np] + (h < thr_arr[idx_np])
        row = np.repeat(np.arange(b.num_rows, dtype=np.int64), copies)
        first = np.concatenate(([0], np.cumsum(copies)[:-1]))
        copy_idx = np.arange(row.size, dtype=np.int64) - first[row]
        take = pa.array(row)
        return pa.table({
            "doc_id": pc.take(_chunked(b["doc_id"]), take),
            "source": pc.take(_chunked(b["source"]), take),
            "copy_idx": pa.array(copy_idx, pa.int64()),
        })

    return ds.map_batches(body, batch_format="pyarrow")


def _chunked(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
