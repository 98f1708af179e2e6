"""Similarity search over embedding columns (list<float>).

Brute-force cosine top-k is the exact baseline: the query matrix is
broadcast once (``ray.put``), each batch does one float64 matmul, and
per-batch local top-k keeps the shuffle at (num_blocks x k) rows — the
same top-k shape as stages.order.top_k.  The LSH-bucketed variant is
the scale path: random-hyperplane signatures bucket the corpus so a
query probes ~corpus/2^bits rows; recall is tunable by multi-probing.

Each step is written once and shared by every operator: ``_unit``
(row normalization) and ``_cosine``, ``_quant`` (fixed-point
quantization), ``_sq_dist`` (exact integer squared distance),
``_top_k`` (block-local top-k, driver merge, ``rank``, typed empty
answer), ``_pq_codebooks`` and ``_long`` (PQ codebook fit and its
long-form sidecar table) and ``_probe`` (the pruned read of a
persisted index).  Operators read the ``embedding`` column and the
``vec_id`` id; the constants below are the values the SQL oracles
replay.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import (arrow_blocks, arrow_refs, concat_nonempty,
                        fold_partials, half_away, to_fixed)
from .staging import staged_index
from .window import keyed_apply

#: Fixed-point scale of the integer operators (k-means, cluster purity,
#: PQ, IVF-PQ, PCA, MMR, SQ8).
_FIXED_SCALE = 1024
#: Fixed-point scale of the exact vector sums (label_vector_sums,
#: gram_matrix).
_SUM_SCALE = 1_000_000
_SQ_LEVELS = 255
#: MMR score ``7*rel - 3*maxsim``: lambda = 7/10.
_MMR_LAMBDA = (7, 10)
#: Reciprocal-rank fusion ``scale // (k + rank)``.
_RRF_K, _RRF_SCALE = 60, 10 ** 12
#: cosine_dup_pairs switches to the bucketed plan above this many rows.
_EXACT_MAX_ROWS = 100_000
_DUP_TABLES, _DUP_SEED, _DUP_BUCKET_ROWS = 8, 991, 50_000
_N_PLANES, _LSH_SEED, _N_PROBE_BITS = 12, 777, 2
_IVF_SEED, _IVF_ITERS = 123, 5

_ADC = pa.schema([("vec_id", pa.int64()), ("adc_dist", pa.int64())])


def _matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    """(n, d) float64 matrix from a list<float> column, zero-copy-ish;
    (0, 0) for a block without rows (which may carry no columns)."""
    if batch.num_rows == 0:
        return np.zeros((0, 0))
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    if isinstance(arr, pa.FixedSizeListArray):
        d = arr.type.list_size
    else:
        offs = np.asarray(arr.offsets)
        d = int(offs[1] - offs[0])
        if np.any(np.diff(offs) != d):
            raise ValueError(f"{col}: ragged vectors")
    return flat.reshape(len(arr), d)


def _unit(m: np.ndarray) -> np.ndarray:
    """The rows of ``m`` (or the vector ``m``) scaled to unit length."""
    return m / np.maximum(np.linalg.norm(m, axis=-1, keepdims=True), 1e-30)


def _cosine(batch: pa.Table, qn: np.ndarray) -> np.ndarray:
    """Cosine of each embedding in ``batch`` against the unit query
    ``qn`` (d,) or query rows (q, d): (n,) or (n, q)."""
    return _unit(_matrix(batch)) @ qn.T


def _quant(x: np.ndarray) -> np.ndarray:
    """``x`` in fixed point: x * 1024 rounded half away from zero
    (DuckDB ``round``), int64."""
    return half_away(x * float(_FIXED_SCALE)).astype(np.int64)


def _sq_dist(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Exact integer squared distances (n, k) between the rows of ``X``
    (n, d) and ``C`` (k, d), by the |x|^2 + |c|^2 - 2<x,c> expansion."""
    return (X * X).sum(1)[:, None] + (C * C).sum(1)[None, :] - 2 * (X @ C.T)


def _best(t: pa.Table, key: str, k: int, desc: bool, id_col: str,
          group: str | None):
    """``t``'s k best rows by (``key``, ``id_col``), ``key`` descending
    if ``desc``, per ``group`` value (ascending) when given; returned
    with their 0-based rank."""
    s = t[key].to_numpy(zero_copy_only=False)
    cols = [t[id_col].to_numpy(zero_copy_only=False), -s if desc else s]
    if group is not None:
        cols.append(t[group].to_numpy(zero_copy_only=False))
    order = np.lexsort(cols)
    rank = np.arange(len(order))
    if group is not None:
        g = cols[-1][order]
        first = np.ones(len(g), dtype=bool)
        first[1:] = g[1:] != g[:-1]
        rank = rank - np.maximum.accumulate(np.where(first, rank, 0))
    keep = rank < k
    return t.take(pa.array(order[keep])), rank[keep]


def _top_k(ds, score, key: str, k: int, *, desc: bool, empty: pa.Schema,
           id_col: str = "vec_id", group: str | None = None) -> pa.Table:
    """The top-k tail: ``score(block)`` tabulates ``id_col``, ``key``
    and any column to carry for each row of a block; each block keeps
    its k best rows (:func:`_best`), the driver merges the (num_blocks
    x k) survivors, keeps the k best and numbers them ``rank`` 1..k.
    No survivors: zero rows typed by ``empty`` (the scored columns)."""
    def local(b: pa.Table) -> pa.Table:
        return _best(score(b), key, k, desc, id_col, group)[0]

    merged = concat_nonempty(arrow_blocks(ds.map_batches(
        local, batch_format="pyarrow", batch_size=None)))
    if merged.num_columns == 0:
        merged = empty.empty_table()
    top, rank = _best(merged, key, k, desc, id_col, group)
    return top.append_column("rank", pa.array(rank + 1, pa.int64()))


def knn_brute(ds, query_vec, k: int = 10, *, id_col: str = "vec_id"):
    """Exact cosine top-k: Dataset(id_col, sim, rank) of size k.

    Deterministic tie-break: (-sim, id_col).  Per-block local top-k
    (broadcast query via ray.put, one matmul per block), then a
    driver-side merge of the (num_blocks x k) survivors — a
    distributed sort over a k-row result is pure fixed latency.
    """
    import ray
    import ray.data

    qref = ray.put(_unit(np.asarray(query_vec, dtype=np.float64)))

    def score(b: pa.Table) -> pa.Table:
        return pa.table({id_col: b[id_col],
                         "sim": pa.array(_cosine(b, ray.get(qref)))})

    return ray.data.from_arrow(_top_k(
        ds, score, "sim", k, desc=True, id_col=id_col,
        empty=pa.schema([(id_col, pa.int64()), ("sim", pa.float64())])))


def knn_brute_multi(ds, query_mat, qids, k: int = 10):
    """Batched exact cosine top-k — ONE matmul per block scores ALL
    queries at once (the retrieval shape of eval-set decontamination
    and hard-negative mining: thousands of probe vectors against the
    full corpus).  Returns Dataset(qid, vec_id, rank), k rows per
    query, tie-break (-sim, vec_id) — identical to :func:`knn_brute`
    per query.

    Scale shape: the (q, d) normalized query matrix broadcasts once
    via ``ray.put``; each block pays one (n, d)x(d, q) float64 matmul
    and emits q x k local-survivor rows, so the driver merge holds
    num_blocks x q x k tiny rows — never the corpus."""
    import ray
    import ray.data

    qn = _unit(np.asarray(query_mat, dtype=np.float64))
    qid_arr = np.asarray(qids, dtype=np.int64)
    if qid_arr.shape[0] != qn.shape[0]:
        raise ValueError("qids must align with query_mat rows")
    qref = ray.put((qn, qid_arr))

    def score(b: pa.Table) -> pa.Table:
        qmat, qv = ray.get(qref)
        sims = _cosine(b, qmat)  # (n, q), row-major below
        return pa.table({
            "qid": pa.array(np.tile(qv, b.num_rows)),
            "vec_id": pa.array(np.repeat(
                b["vec_id"].to_numpy(zero_copy_only=False), len(qv))),
            "sim": pa.array(sims.ravel())})

    top = _top_k(ds, score, "sim", k, desc=True, group="qid",
                 empty=pa.schema([("qid", pa.int64()),
                                  ("vec_id", pa.int64()),
                                  ("sim", pa.float64())]))
    return ray.data.from_arrow(top.select(["qid", "vec_id", "rank"]))


def triplet_mine(ds, anchor_mat, anchor_ids, anchor_labels):
    """HARD-TRIPLET mining for contrastive training: per anchor, the
    nearest SAME-label corpus vector (positive, self excluded) and
    the nearest DIFFERENT-label vector (hard negative), exact cosine,
    tie-break (-sim, vec_id).  Returns pa.Table(anchor_id, pos_id,
    neg_id) — ids nullable when a class has no candidate.

    Scale shape: the anchor matrix is the caller's BOUNDED probe set
    broadcast once via ``ray.put`` (the knn_brute_multi contract);
    each block pays one matmul + 2q masked lexsorts and emits at most
    2q local-winner rows, so the driver merge holds blocks x 2q tiny
    rows, never corpus rows."""
    import ray

    aids = np.asarray(anchor_ids, dtype=np.int64)
    albl = np.asarray(anchor_labels, dtype=np.int64)
    ref = ray.put((_unit(np.asarray(anchor_mat, dtype=np.float64)), aids,
                   albl))

    def local_best(batch: pa.Table) -> pa.Table:
        qm, av, al = ray.get(ref)
        sims = _cosine(batch, qm)  # (n, q)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        lbl = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_a, out_c, out_s, out_same = [], [], [], []
        for j in range(qm.shape[0]):
            same = (lbl == al[j]) & (ids != av[j])
            diff = lbl != al[j]
            for mask, is_same in ((same, 1), (diff, 0)):
                if not mask.any():
                    continue
                ii = np.flatnonzero(mask)
                best = ii[np.lexsort((ids[ii], -sims[ii, j]))[0]]
                out_a.append(av[j])
                out_c.append(ids[best])
                out_s.append(sims[best, j])
                out_same.append(is_same)
        return pa.table({
            "anchor_id": pa.array(out_a, pa.int64()),
            "cand_id": pa.array(out_c, pa.int64()),
            "sim": pa.array(out_s, pa.float64()),
            "is_same": pa.array(out_same, pa.int64())})

    local = ds.map_batches(local_best, batch_format="pyarrow",
                           batch_size=None)
    merged = concat_nonempty(arrow_blocks(local))
    pos: dict = {}
    neg: dict = {}
    if merged.num_columns:
        a = merged["anchor_id"].to_numpy(zero_copy_only=False)
        c = merged["cand_id"].to_numpy(zero_copy_only=False)
        s = merged["sim"].to_numpy(zero_copy_only=False)
        sm = merged["is_same"].to_numpy(zero_copy_only=False)
        order = np.lexsort((c, -s, sm, a))
        for i in order:  # first row per (anchor, class) wins
            d = pos if sm[i] == 1 else neg
            d.setdefault(int(a[i]), int(c[i]))
    return pa.table({
        "anchor_id": pa.array(aids, pa.int64()),
        "pos_id": pa.array([pos.get(int(v)) for v in aids], pa.int64()),
        "neg_id": pa.array([neg.get(int(v)) for v in aids], pa.int64()),
    })


def range_search(ds, query_vec, tau: float):
    """Radius (range) cosine search: every vector with
    ``cos(v, query) >= tau`` — the retrieval dual of top-k (fixed
    similarity floor instead of fixed result count; the shape used for
    'pull everything near this eval example' decontamination sweeps).

    Pure streaming filter: the normalized query broadcasts once via
    ``ray.put``, each block does one float64 matmul and keeps only the
    in-radius rows — no shuffle, no driver materialization, result size
    proportional to the true neighborhood.  At 100 TB this is a single
    map over the corpus; compose with the LSH/IVF bucket indexes when
    the radius is tight enough to prune reads.  A typed empty block
    rides along in the same plan, so an empty answer keeps its
    ``vec_id`` column."""
    import ray
    import ray.data

    qref = ray.put(_unit(np.asarray(query_vec, dtype=np.float64)))

    def in_radius(batch: pa.Table) -> pa.Table:
        keep = _cosine(batch, ray.get(qref)) >= tau
        return batch.select(["vec_id"]).filter(pa.array(keep))

    return ds.map_batches(in_radius, batch_format="pyarrow",
                          batch_size=None).union(ray.data.from_arrow(
                              pa.schema([("vec_id", pa.int64())])
                              .empty_table()))


def ivf_centroids(ds, n_centroids: int = 16) -> np.ndarray:
    """Distributed k-means (IVF coarse quantizer) over unit-normalized
    embeddings.  Deterministic: centroids init from a seeded random
    rotation, each Lloyd iteration is one map_batches pass emitting
    per-block (centroid, sum, count) partials folded on the driver —
    the iterative-algorithm shape on Ray Data (no shuffle; the model is
    tiny and broadcast per pass)."""
    import ray

    first = arrow_blocks(ds.limit(max(n_centroids * 8, 256)))
    sample = _unit(_matrix(concat_nonempty(first)))
    if not len(sample):
        raise ValueError("ivf_centroids: empty embedding corpus")
    # Degrade gracefully on tiny corpora: fewer centroids than asked
    # beats a ValueError from sampling without replacement.
    n_centroids = min(n_centroids, len(sample))
    rng = np.random.RandomState(_IVF_SEED)
    cents = sample[rng.choice(len(sample), n_centroids, replace=False)]

    for _ in range(_IVF_ITERS):
        ref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            m = _unit(_matrix(batch))
            assign = np.argmax(m @ c.T, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(c))
            return pa.table({
                "cid": pa.array(np.arange(len(c)), pa.int32()),
                "n": pa.array(counts, pa.int64()),
                "s": pa.FixedSizeListArray.from_arrays(
                    pa.array(sums.reshape(-1), pa.float64()), c.shape[1]),
            })

        parts = arrow_blocks(ds.map_batches(partial, batch_format="pyarrow",
                                            batch_size=None))
        merged = concat_nonempty(parts)
        d = cents.shape[1]
        sums = np.zeros((len(cents), d))
        counts = np.zeros(len(cents), dtype=np.int64)
        for i in range(merged.num_rows):
            cid = merged["cid"][i].as_py()
            counts[cid] += merged["n"][i].as_py()
            sums[cid] += np.asarray(merged["s"][i].as_py())
        nz = counts > 0
        cents[nz] = sums[nz] / counts[nz, None]
        cents = _unit(cents)
    return cents


def cosine_dup_pairs(ds, threshold: float = 0.4):
    """Embedding-cosine near-dup pairs: (vec_a, vec_b) with
    cosine >= threshold, vec_a < vec_b.

    Two plans, picked by corpus size:

    - **exact** (rows <= ``_EXACT_MAX_ROWS``): broadcast the normalized
      matrix once, one matmul per batch — O(n^2/p) all-pairs exactness
      for oracle-scale inputs; driver memory is bounded by the guard.
    - **bucketed** (above the guard): :func:`cosine_dup_pairs_lsh` —
      banded random-hyperplane LSH + per-bucket exact verification; no
      driver materialization, no all-pairs work.  Emitted pairs are
      exact-cosine verified (zero false positives); recall is tested
      on planted near-dups.
    """
    if ds.count() > _EXACT_MAX_ROWS:
        return cosine_dup_pairs_lsh(ds, threshold)
    return _cosine_dup_pairs_exact(ds, threshold)


def _cosine_dup_pairs_exact(ds, threshold: float):
    import ray
    import ray.data

    full = concat_nonempty(arrow_blocks(ds))
    if full.num_rows == 0:  # zero rows, or schema-less filtered blocks
        return ray.data.from_arrow(pa.schema(
            [("vec_a", pa.int64()), ("vec_b", pa.int64())]).empty_table())
    ref = ray.put((full["vec_id"].to_numpy(zero_copy_only=False),
                   _unit(_matrix(full))))

    def pairs(batch: pa.Table) -> pa.Table:
        bids = batch["vec_id"].to_numpy(zero_copy_only=False)
        aids, am = ray.get(ref)
        sims = _unit(_matrix(batch)) @ am.T
        bi, ai = np.nonzero((sims >= threshold) &
                            (bids[:, None] < aids[None, :]))
        return pa.table({"vec_a": pa.array(bids[bi], pa.int64()),
                         "vec_b": pa.array(aids[ai], pa.int64())})

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)


def cosine_dup_pairs_lsh(ds, threshold: float = 0.4):
    """Bucketed cosine near-dup pairs — the 100 TB plan.

    Banded random-hyperplane LSH: ``_DUP_TABLES`` independent sign-bit
    signatures of ``n_bits`` hyperplanes each; rows sharing a (table,
    bucket) signature are candidates, verified with an exact in-bucket
    matmul, deduplicated across tables by a pair-keyed
    :func:`keyed_apply`.

    Partitioning assumptions: a (table, bucket) group holds ~corpus /
    2^n_bits rows — ``n_bits`` is log2(rows / _DUP_BUCKET_ROWS)
    (clamped 6..20) so buckets stay bounded as the corpus grows;
    shuffle volume is n_tables x corpus (linear).
    Recall: a pair at cosine c collides in one table with
    p = (1 - arccos(c)/pi)^n_bits, across tables 1-(1-p)^n_tables
    (n_tables=8, n_bits=8: ~0.99 at c=0.95); emitted pairs are
    exact-verified, so precision is 1.0 at any setting.
    """
    import math

    n_tables = _DUP_TABLES
    n_bits = min(20, max(6, math.ceil(
        math.log2(max(2, ds.count() / _DUP_BUCKET_ROWS)))))

    def explode(batch: pa.Table) -> pa.Table:
        m = _unit(_matrix(batch))
        nb, d = m.shape
        planes = _planes_banded(d, n_tables, n_bits)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        # (nb, n_tables*n_bits) signs -> (nb, n_tables) bucket ints
        bits = (m @ planes) >= 0
        weights = (1 << np.arange(n_bits, dtype=np.int64))
        buckets = bits.reshape(nb, n_tables, n_bits) @ weights
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, n_tables)),
            "table_id": pa.array(
                np.tile(np.arange(n_tables, dtype=np.int32), nb)),
            "bucket": pa.array(buckets.reshape(-1).astype(np.int64)),
            "emb": pa.FixedSizeListArray.from_arrays(
                pa.array(np.repeat(m, n_tables, axis=0).reshape(-1),
                         pa.float64()), d),
        })

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def pairs_in_buckets(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        emb = np.stack(g["emb"].to_numpy())  # already normalized
        out_a, out_b = [], []
        for rows in g.groupby(["table_id", "bucket"],
                              sort=False).indices.values():
            bid, m = ids[rows], emb[rows]
            ai, bi = np.nonzero((m @ m.T >= threshold) &
                                (bid[:, None] < bid[None, :]))
            out_a.append(bid[ai])
            out_b.append(bid[bi])
        return pd.DataFrame({"vec_a": np.concatenate(out_a).astype(np.int64),
                             "vec_b": np.concatenate(out_b).astype(np.int64)})

    def distinct_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["vec_a", "vec_b"])

    # a pair can collide in several tables: dedupe keyed on the pair
    partials = keyed_apply(exploded, ["table_id", "bucket"],
                           pairs_in_buckets)
    return keyed_apply(partials, ["vec_a", "vec_b"], distinct_pairs)


def _planes_banded(d: int, n_tables: int, n_bits: int) -> np.ndarray:
    """(d, n_tables*n_bits) deterministic hyperplanes (cached)."""
    key = (d, n_tables, n_bits)
    cached = _PLANES_CACHE.get(key)
    if cached is None:
        rng = np.random.RandomState(_DUP_SEED)
        cached = rng.standard_normal((d, n_tables * n_bits))
        _PLANES_CACHE[key] = cached
    return cached


_PLANES_CACHE: dict = {}


def _planes(d: int, seed: int, n_planes: int = _N_PLANES) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((d, n_planes))


def _lsh_bucket(x: np.ndarray, seed: int, n_planes: int) -> np.ndarray:
    """Sign-bit signature of the rows of ``x`` (or the vector ``x``)
    under ``n_planes`` seeded random hyperplanes — the one bucket rule
    of the LSH build and its probe."""
    planes = _planes(x.shape[-1], seed, n_planes)
    return ((x @ planes) >= 0) @ (1 << np.arange(n_planes))


def lsh_bucket_batch(batch: pa.Table) -> pa.Table:
    """Append int32 ``bucket`` = sign-bit signature of random projections."""
    bucket = _lsh_bucket(_matrix(batch), _LSH_SEED, _N_PLANES)
    return batch.append_column("bucket", pa.array(bucket.astype(np.int32)))


def _probe_bucket_set(base: int, n_probe_bits: int,
                      n_planes: int) -> set[int]:
    """The query's LSH bucket plus all buckets within Hamming distance
    ``n_probe_bits`` of it (multi-probe)."""
    probe = {base}
    if n_probe_bits >= 1:
        for i in range(n_planes):
            probe.add(base ^ (1 << i))
    if n_probe_bits >= 2:
        for i in range(n_planes):
            for j in range(i + 1, n_planes):
                probe.add(base ^ (1 << i) ^ (1 << j))
    return probe


def _probe(index_dir, parts: list[str], q: np.ndarray, k: int):
    """Exact cosine top-k (:func:`knn_brute`) over the partition
    directories ``parts`` of a persisted index, in that order — the
    only files the probe reads."""
    import ray.data

    files = [str(p) for part in parts
             for p in sorted((index_dir / part).glob("*.parquet"))]
    ds = ray.data.read_parquet(files) if files else ray.data.from_arrow(
        pa.schema([("vec_id", pa.int64()),
                   ("embedding", pa.list_(pa.float64()))]).empty_table())
    return knn_brute(ds, q, k)


def build_lsh_index(ds, index_dir, *, extra_meta: dict | None = None) -> None:
    """Persisted ANN index, built ONCE and probed many times (the
    Sphinx-index analog): rows are written as bucket-partitioned
    Parquet (``bucket=<b>/``) via the idempotent partitioned sink, plus
    a meta sidecar pinning the hash family.  The build is staged
    (:func:`staging.staged_index`), so a crashed build never leaves a
    torn/merged index.  Probes read ONLY the probed bucket directories
    — no per-query corpus re-scan or re-assignment.  ``extra_meta``
    (e.g. a corpus signature) rides along in meta.json for staleness
    checks."""
    from ..sinks import _make_block_writer

    with staged_index(index_dir) as (build, meta):
        writer = _make_block_writer(str(build), ["bucket"])
        ds.map_batches(lsh_bucket_batch, batch_format="pyarrow") \
          .map_batches(writer, batch_format="pyarrow").materialize()
        # col/id_col: earlier versions' probes read them
        meta.update({"kind": "lsh", "n_planes": _N_PLANES,
                     "seed": _LSH_SEED, "col": "embedding",
                     "id_col": "vec_id", **(extra_meta or {})})


def knn_lsh_probe(index_dir, query_vec, k: int = 10):
    """Partition-pruned ANN probe against a persisted LSH index: read
    only the ``bucket=<b>/`` directories within Hamming distance 2 of
    the query's, exact cosine within.  Cost scales with the probed
    fraction of the corpus, independent of how many queries have run
    before."""
    import json
    from pathlib import Path

    d = Path(index_dir)
    meta = json.loads((d / "meta.json").read_text())
    q = np.asarray(query_vec, dtype=np.float64)
    # The hash family comes from the META sidecar, not module
    # constants: an index persisted under a different plane count must
    # be probed with ITS planes.
    base = int(_lsh_bucket(q, meta["seed"], meta["n_planes"]))
    probe = _probe_bucket_set(base, _N_PROBE_BITS, meta["n_planes"])
    return _probe(d, [f"bucket={b}" for b in sorted(probe)], q, k)


def build_ivf_index(ds, index_dir, n_centroids: int = 16, *,
                    extra_meta: dict | None = None) -> None:
    """Persisted IVF index: k-means coarse quantizer trained once, rows
    written as inverted-list-partitioned Parquet (``list=<cid>/``) with
    a centroid sidecar — probes read only the probed lists.  Staged
    build + atomic swap, like :func:`build_lsh_index`."""
    import pyarrow.parquet as pq

    import ray

    from ..sinks import _make_block_writer

    with staged_index(index_dir) as (build, meta):
        cents = ivf_centroids(ds, n_centroids)
        cref = ray.put(cents)

        def assign(batch: pa.Table) -> pa.Table:
            cid = np.argmax(_unit(_matrix(batch)) @ ray.get(cref).T, axis=1)
            return batch.append_column("list", pa.array(cid.astype(np.int32)))

        writer = _make_block_writer(str(build), ["list"])
        ds.map_batches(assign, batch_format="pyarrow") \
          .map_batches(writer, batch_format="pyarrow").materialize()
        pq.write_table(pa.table({
            "cid": pa.array(np.arange(len(cents), dtype=np.int32)),
            "centroid": pa.FixedSizeListArray.from_arrays(
                pa.array(cents.reshape(-1), pa.float64()), cents.shape[1]),
        }), build / "centroids.parquet")
        meta.update({"kind": "ivf", "n_centroids": len(cents),
                     "seed": _IVF_SEED, "col": "embedding",
                     "id_col": "vec_id", **(extra_meta or {})})


def knn_ivf_probe(index_dir, query_vec, k: int = 10, *, n_probe: int = 4):
    """Partition-pruned probe against a persisted IVF index: rank the
    sidecar centroids, read only the top ``n_probe`` list directories,
    exact cosine within."""
    from pathlib import Path

    import pyarrow.parquet as pq

    d = Path(index_dir)
    cents = _matrix(pq.read_table(d / "centroids.parquet"), "centroid")
    q = np.asarray(query_vec, dtype=np.float64)
    probe = np.argsort(-(cents @ _unit(q)))[:n_probe]
    return _probe(d, [f"list={cid}" for cid in probe], q, k)


def _sum_quant(b: pa.Table, scale: int) -> np.ndarray:
    """``b``'s embeddings x ``scale`` as int64 by
    :func:`aggregate.to_fixed` (Arrow's half-away rounding, on the
    flat values; np.round is half-even — wrong tie behavior)."""
    m = _matrix(b)
    return to_fixed(pa.array(m.ravel()), float(scale)) \
        .to_numpy(zero_copy_only=False).reshape(m.shape)


def label_vector_sums(ds, *, scale: int = _SUM_SCALE):
    """VECTOR-COLUMN AGGREGATION (the k-means centroid step as a
    first-class operator): per label, the dimension-wise sum of the
    integer-quantized embedding plus the member count — consumers
    derive the centroid as s/(scale*n).  Integer-exact (float sums are
    order-dependent; quantize-then-sum is not), so the result is
    bit-stable under ANY partitioning.

    Shape: per-block (label, dim) partial sums — a batch collapses to
    |labels-in-block| x d rows — then the bounded-key driver fold
    (labels x dims is a SCHEMA-scale table).  Returns a Dataset of
    (label, dim 1-based, s, n)."""
    import ray.data

    def partial(b: pa.Table) -> pa.Table:
        mat = _sum_quant(b, scale)
        d = mat.shape[1]
        codes, uniq = pd.factorize(b["label"].to_numpy(zero_copy_only=False))
        sums = np.zeros((len(uniq), d), dtype=np.int64)
        np.add.at(sums, codes, mat)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(uniq, d))
            .cast(b.schema.field("label").type),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64),
                                    len(uniq))),
            "s": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(counts, d)),
        })

    p = ds.map_batches(partial, batch_format="pyarrow")
    return ray.data.from_arrow(fold_partials(
        p, ["label", "dim"], [("s", "sum"), ("n", "sum")],
        empty_schema=pa.schema([(c, pa.int64())
                                for c in ("label", "dim", "s", "n")])))


def gram_matrix(ds):
    """Distributed EXACT Gram / second-moment matrix of an embedding
    column — the PCA / covariance / whitening precursor: X^T X over
    the integer-quantized vectors (same half-away quantization as
    :func:`label_vector_sums`; float accumulation would be summation-
    order-dependent and break bit-equality).

    Shape: ONE integer matmul per block (a (n_block, d) x (d, n_block)
    contraction collapses the block to d*d cells) -> bounded (i, j)
    driver fold — the exchange moves d^2 rows per block, never
    vectors.  Returns (i, j, s) with 1-based dims, s = sum of
    x_i * x_j over all rows.  Overflow bound: a cell partial is
    <= n_rows * (10^6 * max|x|)^2; for unit-normalized embeddings
    that caps the EXACT path near ~10^6 rows per fold — beyond that,
    lower the scale (10^4 holds ~10^10 rows) or fold the i64 cells
    into object-store shards; dims stay schema-scale."""
    def partial(b: pa.Table) -> pa.Table:
        x = _sum_quant(b, _SUM_SCALE)
        g = x.T @ x  # int64 matmul: exact
        dims = np.arange(1, x.shape[1] + 1, dtype=np.int64)
        return pa.table({
            "i": pa.array(np.repeat(dims, len(dims))),
            "j": pa.array(np.tile(dims, len(dims))),
            "s": pa.array(g.ravel(), pa.int64()),
        })

    p = ds.map_batches(partial, batch_format="pyarrow")
    return fold_partials(
        p, ["i", "j"], [("s", "sum")],
        empty_schema=pa.schema([("i", pa.int64()), ("j", pa.int64()),
                                ("s", pa.int64())]))


# --------------------------------------------------- fixed-point k-means

def _km_tdiv_vec(sums: list, n: int) -> list:
    """Elementwise truncating division on Python ints (DuckDB ``//``
    semantics — toward zero; Python's ``//`` floors)."""
    out = []
    for s in sums:
        q = abs(s) // n
        out.append(q if s >= 0 else -q)
    return out


def _km_init_block(t: pa.Table, id_col: str, k: int):
    """Per-block seed candidates: the block's k smallest ids + their
    quantized vectors (the driver merges blocks and keeps the global
    k smallest — deterministic seeding without assuming dense ids)."""
    if t.num_rows == 0:
        return np.zeros(0, np.int64), np.zeros((0, 0), np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")[:k]
    return ids[order], _quant(_matrix(t))[order]


def _km_assign_block(t: pa.Table, cents: np.ndarray):
    """One Lloyd assignment pass over one block: exact integer squared
    distances (ties -> the lowest cluster index, np.argmin's
    first-minimum rule), returning per-cluster coordinate sums +
    counts (int64 within the block, arbitrary-precision across blocks
    in the driver fold)."""
    k, d = cents.shape
    if t.num_rows == 0:
        return np.zeros((k, d), np.int64), np.zeros(k, np.int64)
    q = _quant(_matrix(t))
    assign = np.argmin(_sq_dist(q, cents), axis=1)
    sums = np.zeros((k, d), np.int64)
    np.add.at(sums, assign, q)
    return sums, np.bincount(assign, minlength=k).astype(np.int64)


def _km_emit_block(t: pa.Table, id_col: str, cents: np.ndarray) -> pa.Table:
    if t.num_rows == 0:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "cluster": pa.array([], pa.int64())})
    return pa.table({
        "vec_id": pa.array(t[id_col].to_numpy(zero_copy_only=False)
                           .astype(np.int64)),
        "cluster": pa.array(np.argmin(_sq_dist(_quant(_matrix(t)), cents),
                                      axis=1).astype(np.int64)),
    })


def kmeans_fixed_point(ds, k: int = 8, iters: int = 3, *,
                       id_col: str = "vec_id", centroids_only: bool = False):
    """EXACT fixed-point Lloyd k-means with per-vector assignments out
    — the oracle-checkable sibling of :func:`ivf_centroids` (which
    stays float/rows-only as an ANN coarse quantizer).  Every step is
    integer arithmetic with a pinned recurrence, so a SQL oracle can
    unroll the identical iterations and the assignment table
    hash-matches bit-for-bit:

    * quantize:  x = round_half_away(embedding * 1024) as int64;
    * seed:      centroids = the k smallest ids' vectors, cluster
                 index = rank of id in that sorted seed list;
    * assign:    argmin of exact integer squared distance, ties to
                 the LOWEST cluster index;
    * update:    centroid = tdiv(coordinate sum, count) per dimension
                 (truncating division — DuckDB ``//``), empty clusters
                 keep their previous centroid;
    * output:    assignments under the centroids after ``iters``
                 updates (one final assignment pass).

    Scale shape: the embedding blocks are materialized once into
    object-store refs; each iteration is ONE RAW-TASK WAVE over those
    refs (the graph.py / fit_linear_gd doctrine — a Dataset job per
    Lloyd pass would re-pay fixed scheduling latency x iters), each
    task returning a (k x d) int64 partial folded driver-side in
    arbitrary precision.  Only the k x d centroid matrix ships per
    wave; nothing row-sized ever reaches the driver."""
    import ray

    refs = arrow_refs(ds)
    init_task = ray.remote(_km_init_block).options(num_returns=2)
    assign_task = ray.remote(_km_assign_block).options(num_returns=2)
    emit_task = ray.remote(_km_emit_block)

    seeds = [init_task.remote(r, id_col, k) for r in refs]
    ids = np.concatenate(ray.get([s[0] for s in seeds])) if seeds else \
        np.zeros(0, np.int64)
    if len(ids) < k:
        raise ValueError(f"kmeans_fixed_point: need >= {k} vectors, "
                         f"got {len(ids)}")
    vecs = np.concatenate(
        [v for v in ray.get([s[1] for s in seeds]) if v.size],
        axis=0)
    order = np.argsort(ids, kind="stable")[:k]
    cents = vecs[order].astype(np.int64)

    for _ in range(iters):
        waves = [assign_task.remote(r, cents) for r in refs]
        flat = ray.get([r for pair in waves for r in pair])
        parts = list(zip(flat[0::2], flat[1::2]))
        kk, d = cents.shape
        sums = [[0] * d for _ in range(kk)]
        counts = [0] * kk
        for s, n in parts:
            for c in range(kk):
                counts[c] += int(n[c])
                if n[c]:
                    row = sums[c]
                    sc = s[c]
                    for j in range(d):
                        row[j] += int(sc[j])
        new = cents.copy()
        for c in range(kk):
            if counts[c]:
                new[c] = np.array(_km_tdiv_vec(sums[c], counts[c]),
                                  np.int64)
        cents = new
    if centroids_only:
        # callers that re-assign per batch themselves (d_semdedup's
        # fused tag+pair stage) skip the emit wave entirely
        return cents
    return ray.data.from_arrow_refs(
        [emit_task.remote(r, id_col, cents) for r in refs])


def cluster_purity(ds):
    """CLUSTER PURITY / confusion audit over a labeled embedding
    table — the eval every labeling or clustering stage needs: per
    label, how many member vectors sit CLOSER (exact integer squared
    distance in quantized units) to another label's centroid than to
    their own.  Centroids are the truncating-division means of the
    quantized vectors (the kmeans update step), so the whole chain is
    integer and a SQL oracle reproduces it bit-for-bit.

    Returns pa.Table(label, n_members, n_confused).

    Scale shape: centroids come from :func:`label_vector_sums`
    (per-block (label, dim) partials, bounded driver fold — schema-
    sized state, at this module's fixed-point scale 1024); the
    confusion pass is one map_batches with the (L x d) centroid
    matrix broadcast, each block emitting <= L partial rows; final
    fold is bounded by |labels|."""
    import ray

    sums = concat_nonempty(arrow_blocks(
        label_vector_sums(ds, scale=_FIXED_SCALE)))
    labels = np.unique(sums["label"].to_numpy(zero_copy_only=False))
    d = int(pc.max(sums["dim"]).as_py() or 0)
    C = np.zeros((len(labels), d), np.int64)
    s = sums["s"].to_numpy(zero_copy_only=False)
    C[np.searchsorted(labels, sums["label"].to_numpy(zero_copy_only=False)),
      sums["dim"].to_numpy(zero_copy_only=False) - 1] = \
        np.sign(s) * (np.abs(s) // sums["n"].to_numpy(zero_copy_only=False))
    ref = ray.put((labels, C))

    def local(b: pa.Table) -> pa.Table:
        labs, Cm = ray.get(ref)
        lbl = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(lbl)
        d2 = _sq_dist(_quant(_matrix(b)), Cm)          # (n, L) exact int64
        own_ix = np.searchsorted(labs, lbl)
        own_d = d2[np.arange(n), own_ix]
        d2[np.arange(n), own_ix] = np.iinfo(np.int64).max
        confused = (d2.min(axis=1) < own_d).astype(np.int64)
        order = np.argsort(lbl, kind="stable")
        ul, starts = np.unique(lbl[order], return_index=True)
        return pa.table({
            "label": pa.array(ul, pa.int64()),
            "n_members": pa.array(np.diff(np.append(starts, n)), pa.int64()),
            "n_confused": pa.array(np.add.reduceat(confused[order], starts),
                                   pa.int64())})

    return fold_partials(
        ds.map_batches(local, batch_format="pyarrow"),
        ["label"], [("n_members", "sum"), ("n_confused", "sum")],
        empty_schema=pa.schema([("label", pa.int64()),
                                ("n_members", pa.int64()),
                                ("n_confused", pa.int64())]))


# ----------------------------------------------------- product quantization

def _sub_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(n, m, kc) exact squared distances from each of the m contiguous
    subvectors of the rows of ``X`` to that subspace's kc codewords
    ``C[s]`` (C is (m, kc, d/m))."""
    m, _, sub_d = C.shape
    Xs = X.reshape(len(X), m, sub_d)
    return np.stack([_sq_dist(Xs[:, s], C[s]) for s in range(m)], axis=1)


def _pq_codebooks(ds, d: int, m: int, kc: int, iters: int) -> np.ndarray:
    """(m, kc, d/m) int64 PQ codebooks: the pinned integer k-means
    (:func:`kmeans_fixed_point`, ``kc`` centroids) fitted on each of
    the m contiguous subspaces of ``ds``'s embeddings."""
    sub_d = d // m

    def subspace(s: int):
        def slicer(b: pa.Table) -> pa.Table:
            mtx = _matrix(b)[:, s * sub_d:(s + 1) * sub_d]
            return pa.table({"vec_id": b["vec_id"],
                             "embedding": pa.array(list(mtx))})

        return ds.map_batches(slicer, batch_format="pyarrow")

    return np.stack([kmeans_fixed_point(subspace(s), k=kc, iters=iters,
                                        centroids_only=True)
                     for s in range(m)])


def _long(a: np.ndarray, names: list[str]) -> pa.Table:
    """Long-form int64 sidecar table of ``a``: one row per cell in C
    order, its indices in ``names[:-1]`` and its value in
    ``names[-1]``."""
    cols = [*np.indices(a.shape).reshape(a.ndim, -1), a.reshape(-1)]
    return pa.table({n: pa.array(c, pa.int64()) for n, c in zip(names, cols)})


def pq_probe(ds, query_vec, *, m: int = 4, kc: int = 16,
             iters: int = 2, k: int = 10):
    """PRODUCT QUANTIZATION (Jégou et al., PAMI 2011) fit + encode +
    ADC probe, EXACT in fixed point end to end: the embedding is
    split into ``m`` contiguous subspaces, each fitted with the
    pinned integer k-means recurrence (:func:`kmeans_fixed_point`,
    ``kc`` centroids), every vector encoded as the per-subspace
    argmin code (ties to the lowest cluster index), and the
    asymmetric-distance top-k for ``query_vec`` computed from the
    (m x kc) integer table of query-subvector-to-centroid squared
    distances.  Because quantization, assignment and ADC are all
    integer, the oracle replays ENCODE + ADC in SQL from the
    persisted centroid sidecar — fit correctness is checked through
    the codes it induces.

    Returns ``(topk_table, centroids_long)`` — the (vec_id,
    adc_dist, rank) top-k and the (sub, cl, jj, c) long-form
    centroid table for the sidecar.

    Scale shape: m x (iters+1) raw-task waves fit the codebooks
    (only m*kc*d/m ints ship per wave); encode+probe is ONE
    map_batches pass emitting k local survivors per block (the
    knn_brute merge contract) — codes for a persistent index would
    be written per-block, never collected."""
    import ray

    q = np.asarray(query_vec, dtype=np.float64)
    d = q.shape[0]
    if d % m:
        raise ValueError(f"pq_probe: dim {d} not divisible by m={m}")
    # no vectors: no codebook to fit (k-means refuses) and nothing to
    # rank — empty codebooks, so the answers are typed empty tables
    C = _pq_codebooks(ds, d, m, kc, iters) if ds.count() else \
        np.zeros((m, 0, d // m), np.int64)
    ref = ray.put((C, _sub_dists(_quant(q)[None], C)[0]))   # (m, kc)

    def score(b: pa.Table) -> pa.Table:
        Cm, qd = ray.get(ref)
        codes = _sub_dists(_quant(_matrix(b)), Cm).argmin(axis=2)
        return pa.table({"vec_id": b["vec_id"], "adc_dist": pa.array(
            qd[np.arange(m)[None, :], codes].sum(axis=1))})

    return (_top_k(ds, score, "adc_dist", k, desc=False, empty=_ADC),
            _long(C, ["sub", "cl", "jj", "c"]))


def ivfpq_probe(ds, query_vec, *, kl: int = 8, m: int = 4,
                kc: int = 16, iters: int = 2, nprobe: int = 2,
                k: int = 10):
    """IVF-PQ — the PRODUCTION big-ANN shape (coarse inverted lists
    prune the search space, PQ codes of the RESIDUALS compress what
    remains), exact in fixed point end to end: the coarse quantizer
    is the pinned integer k-means (``kl`` lists), residuals
    ``x - c_list`` stay integer, the residual codebooks are ``m``
    more pinned k-means fits, and the probe scans only the ``nprobe``
    lists nearest the query (integer coarse distance, ties to the
    lower list), ranking by residual-ADC against per-list query
    residuals.  Everything replayable in SQL from the two persisted
    codebook sidecars.

    Returns ``(topk_table, coarse_long, pq_long)``.

    Scale shape: (1 + m) x (iters+1) raw-task codebook waves (k x d
    ints each); encode+probe is ONE map_batches pass — each block
    coarse-assigns, prunes to probed lists, PQ-encodes only the
    survivors, and emits k local winners (the knn_brute merge
    contract)."""
    import ray

    q = np.asarray(query_vec, dtype=np.float64)
    d = q.shape[0]
    if d % m:
        raise ValueError(f"ivfpq_probe: dim {d} not divisible by {m}")

    CL = kmeans_fixed_point(ds, k=kl, iters=iters,
                            centroids_only=True)          # (kl, d)
    clref = ray.put(CL)

    def residuals(b: pa.Table) -> pa.Table:
        cl = ray.get(clref)
        X = _quant(_matrix(b))
        R = (X - cl[_sq_dist(X, cl).argmin(axis=1)]).astype(np.float64) \
            / _FIXED_SCALE
        return pa.table({"vec_id": b["vec_id"],
                         "embedding": pa.array(list(R))})

    C = _pq_codebooks(ds.map_batches(residuals, batch_format="pyarrow"),
                      d, m, kc, iters)                    # (m, kc, d/m)
    qq = _quant(q)
    # the nprobe lists nearest the query, ties to the lower list, and
    # per probed list the query residual's ADC table (m, kc)
    probed = np.sort(np.argsort(_sq_dist(qq[None], CL)[0],
                                kind="stable")[:nprobe])
    ref = ray.put((CL, C, probed, _sub_dists(qq[None] - CL[probed], C)))

    def score(b: pa.Table) -> pa.Table:
        cl, Cm, pl, qds = ray.get(ref)
        X = _quant(_matrix(b))
        lists = _sq_dist(X, cl).argmin(axis=1)
        keep = np.isin(lists, pl)
        X, lists = X[keep], lists[keep]
        codes = _sub_dists(X - cl[lists], Cm).argmin(axis=2)
        adist = qds[np.searchsorted(pl, lists)[:, None],
                    np.arange(m)[None, :], codes].sum(axis=1)
        return pa.table({"vec_id": b["vec_id"].filter(pa.array(keep)),
                         "adc_dist": pa.array(adist, pa.int64())})

    return (_top_k(ds, score, "adc_dist", k, desc=False, empty=_ADC),
            _long(CL, ["cl", "j", "c"]), _long(C, ["sub", "cl", "jj", "c"]))


# ------------------------------------------------ fixed-point power PCA

def pca_power_fixed_point(ds, *, iters: int = 4):
    """EXACT fixed-point power-iteration PCA: the principal direction
    of the quantized embedding matrix via ``iters`` rounds of
    ``v <- tdiv(G v * 1024, max|G v|)`` on the Gram matrix
    ``G = X^T X``, then the per-vector projection ``X v`` — every step
    integer (quantization = :func:`_quant`, division = DuckDB
    truncating ``//``), so an unrolled SQL oracle reproduces the
    scores bit-for-bit (float power iteration differs in ulps by
    summation order under distribution).

    Scale shape (the distributed-covariance pattern): ONE pass of
    per-block d x d Gram partials — d^2 ints per block, folded on the
    driver in unbounded Python ints (no int64 overflow at any corpus
    size) — a driver-side d^2 iteration loop (d is model-sized, not
    corpus-sized), then ONE broadcast projection map over the same
    materialized non-empty blocks.  Two passes over the data total,
    nothing corpus-sized on the driver; centering is intentionally
    skipped (quantized PCA on the raw second moment — document if the
    data is not approximately zero-mean)."""
    import ray

    @ray.remote
    def gram_block(t: pa.Table):
        q = _quant(_matrix(t))
        return (q.T @ q) if q.size else None

    @ray.remote
    def proj_block(t: pa.Table, v: np.ndarray) -> pa.Table:
        p = _quant(_matrix(t)) @ v
        return pa.table({"vec_id": t["vec_id"],
                         "proj": pa.array(p.astype(np.int64))})

    refs = arrow_refs(ds)
    grams = ray.get([gram_block.remote(r) for r in refs])
    parts = [g for g in grams if g is not None]
    if not parts:
        return ray.data.from_arrow(
            pa.table({"vec_id": pa.array([], pa.int64()),
                      "proj": pa.array([], pa.int64())}))
    d = parts[0].shape[0]
    # fold in unbounded Python ints: int64 Gram partials are exact per
    # block (|x| <= 1024 |e|, block rows bounded), the cross-block sum is
    # where a 100-TB corpus would overflow int64
    G = [[sum(int(p[i, j]) for p in parts) for j in range(d)]
         for i in range(d)]
    v = [_FIXED_SCALE] * d
    for _ in range(iters):
        w = [sum(G[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in w)
        if m == 0:
            raise ValueError(
                "pca_power_fixed_point: zero Gram-vector product "
                "(degenerate all-zero input?)")
        v = [(abs(x) * _FIXED_SCALE // m) * (1 if x >= 0 else -1) for x in w]
    vec = np.array(v, np.int64)
    return ray.data.from_arrow_refs(
        [proj_block.remote(r, vec)
         for r, g in zip(refs, grams) if g is not None])


# ----------------------------------------------- embedding inference stage
# The canonical "model loaded once per actor" inference pattern that
# turns RAW TEXT into the embedding column every ANN path here
# consumes (knn_brute / build_lsh_index / build_ivf_index) — on a GPU
# cluster swap `_load_model` for a checkpoint load and size the pool
# with map_batches(concurrency=..., num_gpus=...); nothing downstream
# changes.

_ENC_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_ENC_DIM, _ENC_SEED = 8, 5


class TextEncoder:
    """Actor-pool ``(doc_id, text)`` -> ``(doc_id, embedding)``
    (list<double>) inference.

    The stand-in model is DETERMINISTIC and exactly replayable by the
    SQL oracle: 26 letter-count features (vectorized
    ``pc.count_substring`` over the lowercased text — no Python row
    loop) projected by a seed-derived integer matrix
    ``R[i][j] = ((3*i + 5*j + i*j + seed) % 7) - 3`` (8 x 26, seed 5;
    the i*j cross term keeps the rows independent — rank 7), built
    ONCE per actor in ``__init__`` exactly where a real checkpoint
    load would go.  Outputs are integers (exactly
    float64-representable), so the cosine ranking downstream is
    engine-independent to the same degree as v_knn's.
    """

    def __init__(self):
        self.R = self._load_model(_ENC_DIM, _ENC_SEED)

    @staticmethod
    def _load_model(d_out: int, seed: int) -> np.ndarray:
        # Real impl: torch.load / onnx session init, once per actor.
        i = np.arange(d_out, dtype=np.int64)[:, None]
        j = np.arange(len(_ENC_ALPHABET), dtype=np.int64)[None, :]
        return ((3 * i + 5 * j + i * j + seed) % 7) - 3

    def encode(self, text: pa.Array) -> np.ndarray:
        """(n, d_out) int64 embedding matrix for a string array."""
        lt = pc.utf8_lower(text)
        cols = [pc.count_substring(lt, ch).to_numpy(zero_copy_only=False)
                for ch in _ENC_ALPHABET]
        counts = np.stack(cols, axis=1).astype(np.int64)
        return counts @ self.R.T

    def __call__(self, batch: pa.Table) -> pa.Table:
        e = self.encode(batch["text"])
        n, d = e.shape
        emb = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int64))
            .cast(pa.int32()),
            pa.array(e.reshape(-1).astype(np.float64), pa.float64()))
        return pa.table({"doc_id": batch["doc_id"], "embedding": emb})


def hybrid_rrf(legs: list[pa.Table], *, k: int = 10) -> pa.Table:
    """Reciprocal-rank fusion of retrieval legs (BM25 + ANN is the
    canonical pair): ``rrf(doc) = sum_leg 10^12 // (60 + rank)``
    with a missing leg contributing 0 — the standard RRF law
    (Cormack et al., SIGIR'09) made EXACT-integer by the scaled
    floor division, so any engine reproduces the fused ranking
    bit-for-bit (a float 1/(60+r) sum is ulp-fragile in the ties).

    Each leg is a small ``(doc_id, ..., rank)`` Arrow table — the
    top-k output of :func:`knn_brute` /
    :func:`textindex.bm25_docs_topk` — so the fold is a driver-side
    merge of ``legs x k`` rows, bounded by the query constants, never
    by the corpus.  Ties break ascending id.  Returns
    ``(doc_id, rrf_score, rank)`` with rank 1..k, int64 throughout
    (max score legs x 10^12 // 61 << 2^63)."""
    acc: dict[int, int] = {}
    for t in legs:
        for i, r in zip(t["doc_id"].to_pylist(), t["rank"].to_pylist()):
            acc[i] = acc.get(i, 0) + _RRF_SCALE // (_RRF_K + int(r))
    rows = sorted(acc.items(), key=lambda x: (-x[1], x[0]))[:k]
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "rrf_score": pa.array([r[1] for r in rows],
                                           pa.int64()),
                     "rank": pa.array(np.arange(1, len(rows) + 1,
                                                dtype=np.int64))})


# --------------------------------------------- MMR diversified re-rank

def mmr_rerank(ds, query_vec, *, k: int = 10, pool: int = 25):
    """EXACT Maximal Marginal Relevance re-ranking (Carbonell &
    Goldstein 1998): fetch a relevance pool distributed, then greedily
    pick ``k`` results maximizing ``lam*rel - (1-lam)*max_sim_to_
    selected`` — the diversity-aware variant of top-k every retrieval
    stack bolts onto its ranker.  All-integer: rel and pairwise sim
    are int64 dot products of the :func:`_quant` embeddings, the MMR
    score is ``7*rel - 3*maxsim`` (lambda = 7/10, no floats), ties
    broken by smallest id — so an unrolled SQL oracle replays the
    greedy walk bit-for-bit.

    Scale shape — the canonical two-phase re-rank: ONE distributed
    pass computes integer relevance and keeps a per-block top-``pool``
    (plus the survivors' embeddings: pool x d values per block), the
    driver merges blocks x pool survivor rows and runs the greedy
    loop over a pool x pool integer Gram matrix.  Pool and k are
    query-sized constants, never corpus-sized; nothing else leaves
    the blocks."""
    import ray

    lam_num, lam_den = _MMR_LAMBDA
    # captured by value, not ray.put: the quantized probe is d int64s
    # (~0.5 KB) — a closure constant ships with the task spec for free,
    # and a captured ObjectRef in a map_batches closure is the one
    # pattern that has tripped Ray's inlined-dependency refcounting
    # under load (reference_count.cc check failure seen in bench)
    qq = _quant(np.asarray(query_vec, dtype=np.float64))

    def score(t: pa.Table) -> pa.Table:
        return pa.table({
            "vec_id": pa.array(t["vec_id"].to_numpy(zero_copy_only=False)
                               .astype(np.int64)),
            "rel": pa.array(_quant(_matrix(t)) @ qq),
            "embedding": t["embedding"]})

    top = _top_k(ds, score, "rel", pool, desc=True, empty=pa.schema([
        ("vec_id", pa.int64()), ("rel", pa.int64()),
        ("embedding", pa.list_(pa.float64()))]))
    ids = top["vec_id"].to_numpy(zero_copy_only=False)
    rel = top["rel"].to_numpy(zero_copy_only=False)
    C = _quant(_matrix(top))
    S = C @ C.T  # pool x pool integer Gram — query-sized
    n = len(ids)
    maxsim = np.zeros(n, dtype=np.int64)  # empty-selection term = 0
    remaining = np.ones(n, dtype=bool)
    out_ids, out_scores = [], []
    for _ in range(min(k, n)):
        score = lam_num * rel - (lam_den - lam_num) * maxsim
        cand = np.flatnonzero(remaining)
        best = cand[np.lexsort((ids[cand], -score[cand]))[0]]
        out_ids.append(int(ids[best]))
        out_scores.append(int(score[best]))
        remaining[best] = False
        np.maximum(maxsim, S[:, best], out=maxsim)
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(out_ids, pa.int64()),
        "mmr_rank": pa.array(np.arange(1, len(out_ids) + 1,
                                       dtype=np.int64)),
        "score": pa.array(out_scores, pa.int64())}))


# ----------------------------------------------- int8 scalar quantization

def scalar_quantize_stats(ds):
    """EXACT SQ8 scalar quantization of the embedding column — the
    vector-compression pass (FAISS's SQ8 / uint8 codes) a 100-TB
    embedding store runs before indexing: per-dimension global
    [min, max] over the :func:`_quant` integers, then
    ``code = (x - mn) * 255 // (mx - mn)`` (all integer, ``// ``
    truncating = floor since ``x >= mn``; constant-dimension columns
    code to 0).  Emits per vector the code checksum + range —
    ``(vec_id, code_sum, code_min, code_max)`` — rather than a
    list<uint8> column so the driver comparator hashes scalars.

    Scale shape (same two-wave pattern as the fixed-point PCA): one
    pass of per-block (min, max) partials — 2d ints each, folded on
    the driver — then one broadcast quantize map over the same
    materialized non-empty blocks.  Nothing corpus-sized ever leaves
    a block."""
    import ray

    @ray.remote
    def minmax_block(t: pa.Table):
        q = _quant(_matrix(t))
        return (q.min(axis=0), q.max(axis=0)) if q.size else None

    @ray.remote
    def code_block(t: pa.Table, mn: np.ndarray,
                   span: np.ndarray) -> pa.Table:
        q = _quant(_matrix(t))
        codes = np.where(span > 0,
                         (q - mn) * _SQ_LEVELS // np.maximum(span, 1), 0)
        return pa.table({
            "vec_id": t["vec_id"],
            "code_sum": pa.array(codes.sum(axis=1).astype(np.int64)),
            "code_min": pa.array(codes.min(axis=1).astype(np.int64)),
            "code_max": pa.array(codes.max(axis=1).astype(np.int64))})

    refs = arrow_refs(ds)
    parts = ray.get([minmax_block.remote(r) for r in refs])
    if all(p is None for p in parts):
        return ray.data.from_arrow(pa.table({
            c: pa.array([], pa.int64())
            for c in ("vec_id", "code_sum", "code_min", "code_max")}))
    mn = np.min([p[0] for p in parts if p is not None], axis=0)
    mx = np.max([p[1] for p in parts if p is not None], axis=0)
    return ray.data.from_arrow_refs(
        [code_block.remote(r, mn, mx - mn)
         for r, p in zip(refs, parts) if p is not None])
