"""Similarity search over embedding columns (list<float>).

Brute-force cosine top-k is the exact baseline: the query matrix is
broadcast once (``ray.put``), each batch does one float64 matmul, and
per-batch local top-k keeps the shuffle at (num_blocks x k) rows — the
same top-k shape as stages.order.top_k.  The LSH-bucketed variant is
the scale path: random-hyperplane signatures bucket the corpus so a
query probes ~corpus/2^bits rows; recall is tunable by multi-probing.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import arrow_blocks, arrow_refs, concat_nonempty, to_fixed
from .window import keyed_apply


def _matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    """(n, d) float64 matrix from a list<float> column, zero-copy-ish."""
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
    if isinstance(arr, pa.FixedSizeListArray):
        d = arr.type.list_size
    else:
        offs = np.asarray(arr.offsets)
        d = int(offs[1] - offs[0]) if len(offs) > 1 else 0
    return flat.reshape(-1, d)


class BruteForceTopK:
    """Actor-pool stage: per-batch cosine scores against a broadcast
    query vector; emits each batch's local top-k candidates."""

    def __init__(self, query_ref, k: int = 10, col: str = "embedding",
                 id_col: str = "vec_id"):
        import ray

        q = np.asarray(ray.get(query_ref), dtype=np.float64)
        self.q = q / max(np.linalg.norm(q), 1e-30)
        self.k = k
        self.col = col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _matrix(batch, self.col)
        norms = np.linalg.norm(m, axis=1)
        sims = (m @ self.q) / np.maximum(norms, 1e-30)
        order = np.lexsort((batch[self.id_col].to_numpy(zero_copy_only=False),
                            -sims))[: self.k]
        return pa.table({
            self.id_col: pc.take(batch[self.id_col].combine_chunks()
                                 if isinstance(batch[self.id_col], pa.ChunkedArray)
                                 else batch[self.id_col],
                                 pa.array(order)),
            "sim": pa.array(sims[order], pa.float64()),
        })


def knn_brute(ds, query_vec, k: int = 10, *, col: str = "embedding",
              id_col: str = "vec_id"):
    """Exact cosine top-k: Dataset(vec_id, sim, rank) of size k.

    Deterministic tie-break: (-sim, vec_id).  Per-block local top-k
    (broadcast query via ray.put, one matmul per block), then a
    driver-side merge of the (num_blocks x k) survivors — a
    distributed sort over a k-row result is pure fixed latency.
    """
    import ray
    import ray.data

    q = np.asarray(query_vec, dtype=np.float64)
    qref = ray.put(q)

    def local_top(batch: pa.Table) -> pa.Table:
        return BruteForceTopK(qref, k=k, col=col, id_col=id_col)(batch)

    local = ds.map_batches(local_top, batch_format="pyarrow",
                           batch_size=None)
    merged = concat_nonempty(arrow_blocks(local))
    if merged.num_columns == 0:
        # Every block pruned empty (e.g. an ANN probe over unpopulated
        # buckets): an approximate-search miss is 0 rows, not a crash.
        merged = pa.table({id_col: pa.array([], pa.int64()),
                           "sim": pa.array([], pa.float64())})
    order = np.lexsort((merged[id_col].to_numpy(zero_copy_only=False),
                        -merged["sim"].to_numpy(zero_copy_only=False)))[:k]
    out = merged.take(pa.array(order)).append_column(
        "rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64)))
    return ray.data.from_arrow(out)


def knn_brute_multi(ds, query_mat, qids, k: int = 10, *,
                    col: str = "embedding", id_col: str = "vec_id"):
    """Batched exact cosine top-k — ONE matmul per block scores ALL
    queries at once (the retrieval shape of eval-set decontamination
    and hard-negative mining: thousands of probe vectors against the
    full corpus).  Returns Dataset(qid, vec_id, rank), k rows per
    query, tie-break (-sim, vec_id) — identical to :func:`knn_brute`
    per query.

    Scale shape: the (q, d) normalized query matrix broadcasts once
    via ``ray.put``; each block pays one (n, d)x(d, q) float64 matmul
    and emits q x k local-survivor rows, so the driver merge holds
    num_blocks x q x k tiny rows — never the corpus.  The only Python
    loop is over QUERIES within a block (selection per score column),
    not rows."""
    import ray
    import ray.data

    q = np.asarray(query_mat, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    qid_arr = np.asarray(qids, dtype=np.int64)
    if qid_arr.shape[0] != qn.shape[0]:
        raise ValueError("qids must align with query_mat rows")
    qref = ray.put((qn, qid_arr))

    def local_top(batch: pa.Table) -> pa.Table:
        qmat, qv = ray.get(qref)
        m = _matrix(batch, col)
        norms = np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sims = (m / norms) @ qmat.T  # (n, q)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        kk = min(k, len(ids))
        sel = np.empty((qmat.shape[0], kk), dtype=np.int64)
        for j in range(qmat.shape[0]):
            sel[j] = np.lexsort((ids, -sims[:, j]))[:kk]
        return pa.table({
            "qid": pa.array(np.repeat(qv, kk), pa.int64()),
            id_col: pa.array(ids[sel.ravel()]),
            "sim": pa.array(sims[sel.ravel(),
                                 np.repeat(np.arange(qmat.shape[0]), kk)],
                            pa.float64()),
        })

    local = ds.map_batches(local_top, batch_format="pyarrow",
                           batch_size=None)
    merged = concat_nonempty(arrow_blocks(local))
    if merged.num_columns == 0:
        return ray.data.from_arrow(pa.table({
            "qid": pa.array([], pa.int64()),
            id_col: pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64())}))
    qcol = merged["qid"].to_numpy(zero_copy_only=False)
    icol = merged[id_col].to_numpy(zero_copy_only=False)
    scol = merged["sim"].to_numpy(zero_copy_only=False)
    order = np.lexsort((icol, -scol, qcol))
    qs = qcol[order]
    new_grp = np.ones(len(qs), dtype=bool)
    new_grp[1:] = qs[1:] != qs[:-1]
    grp_start = np.maximum.accumulate(
        np.where(new_grp, np.arange(len(qs)), 0))
    rank = np.arange(len(qs)) - grp_start
    keep = order[rank < k]
    return ray.data.from_arrow(pa.table({
        "qid": pa.array(qcol[keep], pa.int64()),
        id_col: pa.array(icol[keep]),
        "rank": pa.array(rank[rank < k] + 1, pa.int64()),
    }))


def triplet_mine(ds, anchor_mat, anchor_ids, anchor_labels, *,
                 col: str = "embedding", id_col: str = "vec_id",
                 label_col: str = "label"):
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

    q = np.asarray(anchor_mat, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    aids = np.asarray(anchor_ids, dtype=np.int64)
    albl = np.asarray(anchor_labels, dtype=np.int64)
    ref = ray.put((qn, aids, albl))

    def local_best(batch: pa.Table) -> pa.Table:
        qm, av, al = ray.get(ref)
        m = _matrix(batch, col)
        norms = np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                           1e-30)
        sims = (m / norms) @ qm.T  # (n, q)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        lbl = batch[label_col].to_numpy(
            zero_copy_only=False).astype(np.int64)
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


def range_search(ds, query_vec, tau: float, *, col: str = "embedding",
                 id_col: str = "vec_id"):
    """Radius (range) cosine search: every vector with
    ``cos(v, query) >= tau`` — the retrieval dual of top-k (fixed
    similarity floor instead of fixed result count; the shape used for
    'pull everything near this eval example' decontamination sweeps).

    Pure streaming filter: the normalized query broadcasts once via
    ``ray.put``, each block does one float64 matmul and keeps only the
    in-radius rows — no shuffle, no driver materialization, result size
    proportional to the true neighborhood.  At 100 TB this is a single
    map over the corpus; compose with the LSH/IVF bucket indexes when
    the radius is tight enough to prune reads."""
    import ray

    q = np.asarray(query_vec, dtype=np.float64)
    q = q / max(np.linalg.norm(q), 1e-30)
    qref = ray.put(q)

    def in_radius(batch: pa.Table) -> pa.Table:
        qv = ray.get(qref)
        m = _matrix(batch, col)
        sims = (m @ qv) / np.maximum(np.linalg.norm(m, axis=1), 1e-30)
        keep = sims >= tau
        ids = batch[id_col].combine_chunks() if isinstance(
            batch[id_col], pa.ChunkedArray) else batch[id_col]
        return pa.table({id_col: ids.filter(pa.array(keep))})

    return ds.map_batches(in_radius, batch_format="pyarrow",
                          batch_size=None)


def ivf_centroids(ds, n_centroids: int = 16, iters: int = 5, *,
                  col: str = "embedding", seed: int = 123) -> np.ndarray:
    """Distributed k-means (IVF coarse quantizer) over unit-normalized
    embeddings.  Deterministic: centroids init from a seeded random
    rotation, each Lloyd iteration is one map_batches pass emitting
    per-block (centroid, sum, count) partials folded on the driver —
    the iterative-algorithm shape on Ray Data (no shuffle; the model is
    tiny and broadcast per pass)."""
    import ray

    first = arrow_blocks(ds.limit(max(n_centroids * 8, 256)))
    sample = _matrix(concat_nonempty(first), col)
    sample = sample / np.maximum(
        np.linalg.norm(sample, axis=1, keepdims=True), 1e-30)
    if not len(sample):
        raise ValueError("ivf_centroids: empty embedding corpus")
    # Degrade gracefully on tiny corpora: fewer centroids than asked
    # beats a ValueError from sampling without replacement.
    n_centroids = min(n_centroids, len(sample))
    rng = np.random.RandomState(seed)
    cents = sample[rng.choice(len(sample), n_centroids, replace=False)]

    for _ in range(iters):
        ref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            m = _matrix(batch, col)
            m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                               1e-30)
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
        cents = cents / np.maximum(
            np.linalg.norm(cents, axis=1, keepdims=True), 1e-30)
    return cents


def cosine_dup_pairs(ds, threshold: float = 0.4, *, col: str = "embedding",
                     id_col: str = "vec_id",
                     exact_max_rows: int = 100_000, n_tables: int = 8,
                     n_bits: int | None = None):
    """Embedding-cosine near-dup pairs: (vec_a, vec_b) with
    cosine >= threshold, vec_a < vec_b.

    Two plans, picked by corpus size:

    - **exact** (rows <= ``exact_max_rows``): broadcast the normalized
      matrix once, one matmul per batch — O(n^2/p) all-pairs exactness
      for oracle-scale inputs; driver memory is bounded by the guard.
    - **bucketed** (above the guard): :func:`cosine_dup_pairs_lsh` —
      banded random-hyperplane LSH + per-bucket exact verification; no
      driver materialization, no all-pairs work.  Emitted pairs are
      exact-cosine verified (zero false positives); recall is tunable
      via (n_tables, n_bits) and tested on planted near-dups.
    """
    if ds.count() > exact_max_rows:
        return cosine_dup_pairs_lsh(ds, threshold, col=col, id_col=id_col,
                                    n_tables=n_tables, n_bits=n_bits)
    return _cosine_dup_pairs_exact(ds, threshold, col=col, id_col=id_col)


def _cosine_dup_pairs_exact(ds, threshold: float, *, col: str,
                            id_col: str):
    import ray
    import ray.data

    parts = arrow_blocks(ds)
    full = concat_nonempty(parts)
    ids = full[id_col].to_numpy(zero_copy_only=False)
    m = _matrix(full, col)
    m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
    ref = ray.put((ids, m))

    def pairs(batch: pa.Table) -> pa.Table:
        bids, bm = (batch[id_col].to_numpy(zero_copy_only=False),
                    _matrix(batch, col))
        aids, am = ray.get(ref)
        bm = bm / np.maximum(np.linalg.norm(bm, axis=1, keepdims=True),
                             1e-30)
        sims = bm @ am.T
        bi, ai = np.nonzero((sims >= threshold) &
                            (bids[:, None] < aids[None, :]))
        return pa.table({"vec_a": pa.array(bids[bi], pa.int64()),
                         "vec_b": pa.array(aids[ai], pa.int64())})

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)


def cosine_dup_pairs_lsh(ds, threshold: float = 0.4, *,
                         col: str = "embedding", id_col: str = "vec_id",
                         n_tables: int = 8, n_bits: int | None = None,
                         seed: int = 991, target_bucket_rows: int = 50_000):
    """Bucketed cosine near-dup pairs — the 100 TB plan.

    Banded random-hyperplane LSH: ``n_tables`` independent sign-bit
    signatures of ``n_bits`` hyperplanes each; rows sharing a (table,
    bucket) signature are candidates, verified with an exact in-bucket
    matmul, deduplicated across tables by a pair-keyed
    :func:`keyed_apply`.

    Partitioning assumptions: a (table, bucket) group holds ~corpus /
    2^n_bits rows — ``n_bits`` defaults to log2(rows /
    target_bucket_rows) (clamped 6..20) so buckets stay bounded as the
    corpus grows; shuffle volume is n_tables x corpus (linear).
    Recall: a pair at cosine c collides in one table with
    p = (1 - arccos(c)/pi)^n_bits, across tables 1-(1-p)^n_tables
    (n_tables=8, n_bits=8: ~0.99 at c=0.95); emitted pairs are
    exact-verified, so precision is 1.0 at any setting.
    """
    if n_bits is None:
        import math

        n_bits = min(20, max(6, math.ceil(
            math.log2(max(2, ds.count() / target_bucket_rows)))))

    def explode(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, col)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        nb, d = m.shape
        planes = _planes_banded(d, n_tables, n_bits, seed)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        # (nb, n_tables*n_bits) signs -> (nb, n_tables) bucket ints
        bits = (m @ planes) >= 0
        weights = (1 << np.arange(n_bits, dtype=np.int64))
        buckets = bits.reshape(nb, n_tables, n_bits) @ weights
        return pa.table({
            id_col: pa.array(np.repeat(ids, n_tables)),
            "table_id": pa.array(
                np.tile(np.arange(n_tables, dtype=np.int32), nb)),
            "bucket": pa.array(buckets.reshape(-1).astype(np.int64)),
            "emb": pa.FixedSizeListArray.from_arrays(
                pa.array(np.repeat(m, n_tables, axis=0).reshape(-1),
                         pa.float64()), d),
        })

    exploded = ds.map_batches(explode, batch_format="pyarrow")

    def pairs_in_buckets(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
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


def _planes_banded(d: int, n_tables: int, n_bits: int,
                   seed: int) -> np.ndarray:
    """(d, n_tables*n_bits) deterministic hyperplanes (cached)."""
    key = (d, n_tables, n_bits, seed)
    cached = _PLANES_CACHE.get(key)
    if cached is None:
        rng = np.random.RandomState(seed)
        cached = rng.standard_normal((d, n_tables * n_bits))
        _PLANES_CACHE[key] = cached
    return cached


_PLANES_CACHE: dict = {}


_N_PLANES = 12


def _planes(d: int, seed: int = 777, n_planes: int | None = None
            ) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((d, n_planes or _N_PLANES))


def lsh_bucket_batch(batch: pa.Table, *, col: str = "embedding",
                     seed: int = 777) -> pa.Table:
    """Append int32 ``bucket`` = sign-bit signature of random projections."""
    m = _matrix(batch, col)
    planes = _planes(m.shape[1], seed)
    bits = (m @ planes) >= 0
    bucket = bits @ (1 << np.arange(_N_PLANES))
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


def _sweep_stale_builds(index_dir) -> None:
    """Remove orphan ``.{name}.building.*`` staging dirs left by
    crashed builds (each run stages under its own pid, so the scheme
    must be self-cleaning)."""
    import shutil
    from pathlib import Path

    d = Path(index_dir)
    for stale in d.parent.glob(f".{d.name}.building.*"):
        shutil.rmtree(stale, ignore_errors=True)


def _swap_in_index(build_dir, index_dir) -> None:
    """Install a freshly built index directory with a minimal missing-
    path window: old dir is renamed aside (one syscall), the new dir
    renamed in (one syscall), then the old removed — a crashed build
    leaves only an orphan ``.building.*``/``.trash.*`` dir, never a
    torn or merged index.  Concurrent REBUILDS of the same index dir
    still need external coordination (single-writer, like the dict
    cache); probes racing the two renames can transiently miss the
    dir."""
    import os
    import shutil
    from pathlib import Path

    index_dir = Path(index_dir)
    trash = None
    if index_dir.exists():
        trash = index_dir.parent / f".{index_dir.name}.trash.{os.getpid()}"
        os.rename(index_dir, trash)
    os.rename(build_dir, index_dir)
    if trash is not None:
        shutil.rmtree(trash, ignore_errors=True)


def build_lsh_index(ds, index_dir, *, col: str = "embedding",
                    id_col: str = "vec_id", seed: int = 777,
                    extra_meta: dict | None = None) -> None:
    """Persisted ANN index, built ONCE and probed many times (the
    Sphinx-index analog): rows are written as bucket-partitioned
    Parquet (``bucket=<b>/``) via the idempotent partitioned sink, plus
    a meta sidecar pinning the hash family.  The build stages into a
    ``.building.<pid>`` dir and swaps in atomically (meta.json written
    last), so a crashed build never leaves a torn/merged index.
    Probes read ONLY the probed bucket directories — no per-query
    corpus re-scan or re-assignment.  ``extra_meta`` (e.g. a corpus
    signature) rides along in meta.json for staleness checks."""
    import json
    import os
    from pathlib import Path

    from ..sinks import _make_block_writer

    d = Path(index_dir)
    _sweep_stale_builds(d)
    build = d.parent / f".{d.name}.building.{os.getpid()}"
    build.mkdir(parents=True, exist_ok=True)
    writer = _make_block_writer(str(build), ["bucket"])
    bucketed = ds.map_batches(
        lambda b: lsh_bucket_batch(b, col=col, seed=seed),
        batch_format="pyarrow")
    bucketed.map_batches(writer, batch_format="pyarrow").materialize()
    meta = {"kind": "lsh", "n_planes": _N_PLANES, "seed": seed,
            "col": col, "id_col": id_col, **(extra_meta or {})}
    (build / "meta.json").write_text(json.dumps(meta))
    _swap_in_index(build, d)


def knn_lsh_probe(index_dir, query_vec, k: int = 10, *,
                  n_probe_bits: int = 2):
    """Partition-pruned ANN probe against a persisted LSH index: read
    only the probed ``bucket=<b>/`` directories, exact cosine within.
    Cost scales with the probed fraction of the corpus, independent of
    how many queries have run before."""
    import json
    from pathlib import Path

    import ray.data

    d = Path(index_dir)
    meta = json.loads((d / "meta.json").read_text())
    q = np.asarray(query_vec, dtype=np.float64)
    # The hash family comes from the META sidecar, not module
    # constants: an index persisted under a different plane count must
    # be probed with ITS planes.
    planes = _planes(len(q), meta["seed"], meta["n_planes"])
    base = int(((q @ planes) >= 0) @ (1 << np.arange(meta["n_planes"])))
    probe = _probe_bucket_set(base, n_probe_bits, meta["n_planes"])
    dirs = [d / f"bucket={b}" for b in sorted(probe)]
    files = [str(p) for b in dirs if b.is_dir()
             for p in sorted(b.glob("*.parquet"))]
    if not files:
        empty = pa.table({meta["id_col"]: pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64()),
                          "rank": pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)
    ds = ray.data.read_parquet(files)
    return knn_brute(ds, q, k, col=meta["col"], id_col=meta["id_col"])


def build_ivf_index(ds, index_dir, n_centroids: int = 16, *,
                    col: str = "embedding", id_col: str = "vec_id",
                    seed: int = 123,
                    extra_meta: dict | None = None) -> None:
    """Persisted IVF index: k-means coarse quantizer trained once, rows
    written as inverted-list-partitioned Parquet (``list=<cid>/``) with
    a centroid sidecar — probes read only the probed lists.  Staged
    build + atomic swap, like :func:`build_lsh_index`."""
    import json
    import os
    from pathlib import Path

    import ray

    from ..sinks import _make_block_writer

    d = Path(index_dir)
    _sweep_stale_builds(d)
    build = d.parent / f".{d.name}.building.{os.getpid()}"
    build.mkdir(parents=True, exist_ok=True)
    cents = ivf_centroids(ds, n_centroids, col=col, seed=seed)
    cref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        m = _matrix(batch, col)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        cid = np.argmax(m @ c.T, axis=1).astype(np.int32)
        return batch.append_column("list", pa.array(cid))

    writer = _make_block_writer(str(build), ["list"])
    ds.map_batches(assign, batch_format="pyarrow") \
      .map_batches(writer, batch_format="pyarrow").materialize()
    import pyarrow.parquet as pq

    cent_t = pa.table({
        "cid": pa.array(np.arange(len(cents), dtype=np.int32)),
        "centroid": pa.FixedSizeListArray.from_arrays(
            pa.array(cents.reshape(-1), pa.float64()), cents.shape[1]),
    })
    pq.write_table(cent_t, build / "centroids.parquet")
    meta = {"kind": "ivf", "n_centroids": len(cents), "seed": seed,
            "col": col, "id_col": id_col, **(extra_meta or {})}
    (build / "meta.json").write_text(json.dumps(meta))
    _swap_in_index(build, d)


def knn_ivf_probe(index_dir, query_vec, k: int = 10, *, n_probe: int = 4):
    """Partition-pruned probe against a persisted IVF index: rank the
    sidecar centroids, read only the top ``n_probe`` list directories,
    exact cosine within."""
    import json
    from pathlib import Path

    import pyarrow.parquet as pq

    import ray.data

    d = Path(index_dir)
    meta = json.loads((d / "meta.json").read_text())
    cent_t = pq.read_table(d / "centroids.parquet")
    cents = _matrix(cent_t, "centroid")
    q = np.asarray(query_vec, dtype=np.float64)
    qn = q / max(np.linalg.norm(q), 1e-30)
    probe = np.argsort(-(cents @ qn))[:n_probe].tolist()
    files = [str(p) for cid in probe
             for p in sorted((d / f"list={cid}").glob("*.parquet"))
             if (d / f"list={cid}").is_dir()]
    if not files:
        empty = pa.table({meta["id_col"]: pa.array([], pa.int64()),
                          "sim": pa.array([], pa.float64()),
                          "rank": pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)
    ds = ray.data.read_parquet(files)
    return knn_brute(ds, q, k, col=meta["col"], id_col=meta["id_col"])


def label_vector_sums(ds, *, vec_col: str = "embedding",
                      label_col: str = "label", scale: int = 1_000_000):
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
    import pyarrow.compute as pc

    import ray.data

    from .aggregate import fold_partials

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({label_col: b[label_col],
                             "dim": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        arr = b[vec_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        # quantize on the FLAT values with the same double-precision
        # half-away rounding the oracle uses (np.round is half-even —
        # wrong tie behavior)
        q = to_fixed(pc.cast(arr.values, pa.float64()), float(scale)) \
            .to_numpy(zero_copy_only=False)
        if isinstance(arr, pa.FixedSizeListArray):
            d = arr.type.list_size
        else:
            offs = np.asarray(arr.offsets)
            d = int(offs[1] - offs[0]) if len(offs) > 1 else 0
            if np.any(np.diff(offs) != d):
                raise ValueError("label_vector_sums: ragged vectors")
        mat = q.reshape(-1, d)
        labels = b[label_col].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(labels)
        sums = np.zeros((len(uniq), d), dtype=np.int64)
        np.add.at(sums, codes, mat)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        lab = np.repeat(uniq, d)
        dim = np.tile(np.arange(1, d + 1, dtype=np.int64), len(uniq))
        return pa.table({
            label_col: pa.array(lab).cast(b.schema.field(label_col).type),
            "dim": pa.array(dim),
            "s": pa.array(sums.reshape(-1)),
            "n": pa.array(np.repeat(counts, d)),
        })

    p = ds.map_batches(partial, batch_format="pyarrow")
    return ray.data.from_arrow(fold_partials(
        p, [label_col, "dim"], [("s", "sum"), ("n", "sum")]))


def gram_matrix(ds, *, vec_col: str = "embedding",
                scale: int = 1_000_000):
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
    <= n_rows * (scale * max|x|)^2; at scale=10^6 and unit-normalized
    embeddings that caps the EXACT path near ~10^6 rows per fold —
    beyond that, lower ``scale`` (10^4 holds ~10^10 rows) or fold the
    i64 cells into object-store shards; dims stay schema-scale."""
    import pyarrow.compute as pc

    from .aggregate import fold_partials

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({"i": pa.array([], pa.int64()),
                          "j": pa.array([], pa.int64()),
                          "s": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        arr = b[vec_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        q = to_fixed(pc.cast(arr.values, pa.float64()), float(scale)) \
            .to_numpy(zero_copy_only=False)
        if isinstance(arr, pa.FixedSizeListArray):
            d = arr.type.list_size
        else:
            offs = np.asarray(arr.offsets)
            d = int(offs[1] - offs[0]) if len(offs) > 1 else 0
        if d == 0:
            return empty
        x = q.reshape(-1, d)
        g = x.T @ x  # int64 matmul: exact
        dims = np.arange(1, d + 1, dtype=np.int64)
        return pa.table({
            "i": pa.array(np.repeat(dims, d)),
            "j": pa.array(np.tile(dims, d)),
            "s": pa.array(g.ravel()),
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


def _km_quant(t: pa.Table, col: str, scale: int) -> np.ndarray:
    """Half-away-from-zero quantization (DuckDB ``round``, the rule of
    ``aggregate.to_fixed``) of the embedding matrix to int64."""
    m = _matrix(t, col) * float(scale)
    return np.copysign(np.floor(np.abs(m) + 0.5), m).astype(np.int64)


def _km_init_block(t: pa.Table, col: str, id_col: str, scale: int,
                   k: int):
    """Per-block seed candidates: the block's k smallest ids + their
    quantized vectors (the driver merges blocks and keeps the global
    k smallest — deterministic seeding without assuming dense ids)."""
    if t.num_rows == 0 or id_col not in t.schema.names:
        return np.zeros(0, np.int64), np.zeros((0, 0), np.int64)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    q = _km_quant(t, col, scale)
    order = np.argsort(ids, kind="stable")[:k]
    return ids[order], q[order]


def _km_assign_block(t: pa.Table, col: str, id_col: str, scale: int,
                     cents: np.ndarray):
    """One Lloyd assignment pass over one block: exact integer squared
    distances via the |x|^2 + |c|^2 - 2<x,c> expansion (ties -> the
    lowest cluster index, np.argmin's first-minimum rule), returning
    per-cluster coordinate sums + counts (int64 within the block,
    arbitrary-precision across blocks in the driver fold)."""
    k, d = cents.shape
    if t.num_rows == 0 or id_col not in t.schema.names:
        return np.zeros((k, d), np.int64), np.zeros(k, np.int64)
    q = _km_quant(t, col, scale)
    dist = ((q * q).sum(1)[:, None] + (cents * cents).sum(1)[None, :]
            - 2 * (q @ cents.T))
    assign = np.argmin(dist, axis=1)
    sums = np.zeros((k, d), np.int64)
    np.add.at(sums, assign, q)
    return sums, np.bincount(assign, minlength=k).astype(np.int64)


def _km_emit_block(t: pa.Table, col: str, id_col: str, scale: int,
                   cents: np.ndarray) -> pa.Table:
    if t.num_rows == 0 or id_col not in t.schema.names:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "cluster": pa.array([], pa.int64())})
    q = _km_quant(t, col, scale)
    dist = ((q * q).sum(1)[:, None] + (cents * cents).sum(1)[None, :]
            - 2 * (q @ cents.T))
    return pa.table({
        "vec_id": pa.array(t[id_col].to_numpy(zero_copy_only=False)
                           .astype(np.int64)),
        "cluster": pa.array(np.argmin(dist, axis=1).astype(np.int64)),
    })


def kmeans_fixed_point(ds, k: int = 8, iters: int = 3, *,
                       col: str = "embedding", id_col: str = "vec_id",
                       scale: int = 1024, centroids_only: bool = False):
    """EXACT fixed-point Lloyd k-means with per-vector assignments out
    — the oracle-checkable sibling of :func:`ivf_centroids` (which
    stays float/rows-only as an ANN coarse quantizer).  Every step is
    integer arithmetic with a pinned recurrence, so a SQL oracle can
    unroll the identical iterations and the assignment table
    hash-matches bit-for-bit:

    * quantize:  x = round_half_away(embedding * scale) as int64;
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

    seeds = [init_task.remote(r, col, id_col, scale, k) for r in refs]
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
        waves = [assign_task.remote(r, col, id_col, scale, cents)
                 for r in refs]
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
        [emit_task.remote(r, col, id_col, scale, cents) for r in refs])


def cluster_purity(ds, *, scale: int = 1024, col: str = "embedding",
                   id_col: str = "vec_id", label_col: str = "label"):
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
    sized state); the confusion pass is one map_batches with the
    (L x d) centroid matrix broadcast, each block emitting <= L
    partial rows; final fold is bounded by |labels|."""
    import ray

    sums = concat_nonempty(arrow_blocks(
        label_vector_sums(ds, vec_col=col, label_col=label_col,
                          scale=scale)))
    labels = np.unique(sums[label_col].to_numpy(zero_copy_only=False)
                       .astype(np.int64))
    d = int(sums["dim"].to_numpy().max())
    C = np.zeros((len(labels), d), np.int64)
    lidx = {int(v): i for i, v in enumerate(labels)}
    svals = sums["s"].to_numpy(zero_copy_only=False)
    nvals = sums["n"].to_numpy(zero_copy_only=False)
    lvals = sums[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
    dvals = sums["dim"].to_numpy(zero_copy_only=False)
    for lab, dim, s, n in zip(lvals, dvals, svals, nvals):
        C[lidx[int(lab)], int(dim) - 1] = \
            (abs(int(s)) // int(n)) * (1 if s >= 0 else -1)
    ref = ray.put((labels, C))

    def local(b: pa.Table) -> pa.Table:
        labs, Cm = ray.get(ref)
        X = _km_quant(b, col, scale)
        n = X.shape[0]
        if n == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "n_members": pa.array([], pa.int64()),
                             "n_confused": pa.array([], pa.int64())})
        lbl = b[label_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        xsq = (X ** 2).sum(axis=1)[:, None]
        csq = (Cm ** 2).sum(axis=1)[None, :]
        d2 = xsq - 2 * (X @ Cm.T) + csq          # (n, L) exact int64
        own_ix = np.searchsorted(labs, lbl)
        own_d = d2[np.arange(n), own_ix]
        masked = d2.copy()
        masked[np.arange(n), own_ix] = np.iinfo(np.int64).max
        other_d = masked.min(axis=1)
        confused = (other_d < own_d).astype(np.int64)
        order = np.argsort(lbl, kind="stable")
        ul, starts = np.unique(lbl[order], return_index=True)
        members = np.diff(np.append(starts, n))
        conf = np.add.reduceat(confused[order], starts)
        return pa.table({"label": pa.array(ul, pa.int64()),
                         "n_members": pa.array(members, pa.int64()),
                         "n_confused": pa.array(conf, pa.int64())})

    from .aggregate import fold_partials
    return fold_partials(
        ds.map_batches(local, batch_format="pyarrow"),
        ["label"], [("n_members", "sum"), ("n_confused", "sum")],
        empty_schema=pa.schema([("label", pa.int64()),
                                ("n_members", pa.int64()),
                                ("n_confused", pa.int64())]))


def pq_probe(ds, query_vec, *, m: int = 4, kc: int = 16,
             iters: int = 2, k: int = 10, scale: int = 1024,
             col: str = "embedding", id_col: str = "vec_id"):
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
    sub_d = d // m
    if ds.count() == 0:
        # no vectors: no codebook to fit and nothing to rank — typed
        # empty top-k and centroid tables, not a k-means error
        return (pa.table({id_col: pa.array([], pa.int64()),
                          "adc_dist": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64())}),
                pa.table({c: pa.array([], pa.int64())
                          for c in ("sub", "cl", "jj", "c")}))

    cents = []
    for s in range(m):
        lo = s * sub_d

        def slicer(b: pa.Table, lo=lo) -> pa.Table:
            mtx = _matrix(b, col)[:, lo:lo + sub_d]
            return pa.table({id_col: b[id_col],
                             col: pa.array(list(mtx))})

        sub = ds.map_batches(slicer, batch_format="pyarrow")
        cents.append(kmeans_fixed_point(
            sub, k=kc, iters=iters, col=col, id_col=id_col,
            scale=scale, centroids_only=True))
    C = np.stack(cents)                        # (m, kc, sub_d) int64
    qq = np.copysign(np.floor(np.abs(q * scale) + 0.5),
                     q * scale).astype(np.int64)
    qs = qq.reshape(m, sub_d)
    qd = ((qs[:, None, :] - C) ** 2).sum(axis=2)   # (m, kc) int64
    ref = ray.put((C, qd))

    def local_top(b: pa.Table) -> pa.Table:
        Cm, qdm = ray.get(ref)
        X = _km_quant(b, col, scale)
        n = X.shape[0]
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "adc_dist": pa.array([], pa.int64())})
        Xs = X.reshape(n, m, sub_d)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        codes = np.empty((n, m), np.int64)
        for s in range(m):
            xsq = (Xs[:, s] ** 2).sum(axis=1)[:, None]
            csq = (Cm[s] ** 2).sum(axis=1)[None, :]
            dist = xsq - 2 * (Xs[:, s] @ Cm[s].T) + csq
            codes[:, s] = dist.argmin(axis=1)    # first = lowest cl
        adist = qdm[np.arange(m)[None, :], codes].sum(axis=1)
        order = np.lexsort((ids, adist))[:k]
        return pa.table({id_col: pa.array(ids[order], pa.int64()),
                         "adc_dist": pa.array(adist[order], pa.int64())})

    local = ds.map_batches(local_top, batch_format="pyarrow",
                           batch_size=None)
    merged = concat_nonempty(arrow_blocks(local))
    ids = merged[id_col].to_numpy(zero_copy_only=False)
    ad = merged["adc_dist"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, ad))[:k]
    topk = pa.table({
        id_col: pa.array(ids[order], pa.int64()),
        "adc_dist": pa.array(ad[order], pa.int64()),
        "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64))})
    subs, cls, jjs, vals = [], [], [], []
    for s in range(m):
        for c in range(kc):
            for j in range(sub_d):
                subs.append(s); cls.append(c); jjs.append(j)
                vals.append(int(C[s, c, j]))
    cent_long = pa.table({
        "sub": pa.array(subs, pa.int64()),
        "cl": pa.array(cls, pa.int64()),
        "jj": pa.array(jjs, pa.int64()),
        "c": pa.array(vals, pa.int64())})
    return topk, cent_long


def ivfpq_probe(ds, query_vec, *, kl: int = 8, m: int = 4,
                kc: int = 16, iters: int = 2, nprobe: int = 2,
                k: int = 10, scale: int = 1024,
                col: str = "embedding", id_col: str = "vec_id"):
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
    sub_d = d // m

    CL = kmeans_fixed_point(ds, k=kl, iters=iters, col=col,
                            id_col=id_col, scale=scale,
                            centroids_only=True)          # (kl, d)
    clref = ray.put(CL)

    def residual_batch(b: pa.Table) -> pa.Table:
        cl = ray.get(clref)
        X = _km_quant(b, col, scale)
        if X.shape[0] == 0:
            return pa.table({id_col: b[id_col], col: b[col]})
        xsq = (X ** 2).sum(axis=1)[:, None]
        csq = (cl ** 2).sum(axis=1)[None, :]
        dist = xsq - 2 * (X @ cl.T) + csq
        lists = dist.argmin(axis=1)
        R = (X - cl[lists]).astype(np.float64) / scale
        return pa.table({id_col: b[id_col],
                         col: pa.array(list(R))})

    res = ds.map_batches(residual_batch, batch_format="pyarrow")
    cents = []
    for s in range(m):
        lo = s * sub_d

        def slicer(b: pa.Table, lo=lo) -> pa.Table:
            mtx = _matrix(b, col)[:, lo:lo + sub_d]
            return pa.table({id_col: b[id_col],
                             col: pa.array(list(mtx))})

        sub = res.map_batches(slicer, batch_format="pyarrow")
        cents.append(kmeans_fixed_point(
            sub, k=kc, iters=iters, col=col, id_col=id_col,
            scale=scale, centroids_only=True))
    C = np.stack(cents)                          # (m, kc, sub_d)

    qq = np.copysign(np.floor(np.abs(q * scale) + 0.5),
                     q * scale).astype(np.int64)
    qd_coarse = ((qq[None, :] - CL) ** 2).sum(axis=1)     # (kl,)
    probe_order = np.lexsort((np.arange(kl), qd_coarse))
    probed = np.sort(probe_order[:nprobe])
    # per probed list: the query residual's distance table (m, kc)
    qds = {}
    for li in probed:
        qr = qq - CL[li]
        qs = qr.reshape(m, sub_d)
        qds[int(li)] = ((qs[:, None, :] - C) ** 2).sum(axis=2)
    ref = ray.put((CL, C, probed, qds))

    def local_top(b: pa.Table) -> pa.Table:
        cl, Cm, pl, qdm = ray.get(ref)
        X = _km_quant(b, col, scale)
        n = X.shape[0]
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "adc_dist": pa.array([], pa.int64()),
                          "list_id": pa.array([], pa.int64())})
        if n == 0:
            return empty
        ids = b[id_col].to_numpy(zero_copy_only=False)
        xsq = (X ** 2).sum(axis=1)[:, None]
        csq = (cl ** 2).sum(axis=1)[None, :]
        lists = (xsq - 2 * (X @ cl.T) + csq).argmin(axis=1)
        keep = np.isin(lists, pl)
        if not keep.any():
            return empty
        X, ids, lists = X[keep], ids[keep], lists[keep]
        R = X - cl[lists]
        Rs = R.reshape(len(ids), m, sub_d)
        codes = np.empty((len(ids), m), np.int64)
        for s in range(m):
            rsq = (Rs[:, s] ** 2).sum(axis=1)[:, None]
            ksq = (Cm[s] ** 2).sum(axis=1)[None, :]
            codes[:, s] = (rsq - 2 * (Rs[:, s] @ Cm[s].T)
                           + ksq).argmin(axis=1)
        adist = np.empty(len(ids), np.int64)
        for li in np.unique(lists):
            mask = lists == li
            adist[mask] = qdm[int(li)][
                np.arange(m)[None, :], codes[mask]].sum(axis=1)
        order = np.lexsort((ids, adist))[:k]
        return pa.table({
            id_col: pa.array(ids[order], pa.int64()),
            "adc_dist": pa.array(adist[order], pa.int64()),
            "list_id": pa.array(lists[order], pa.int64())})

    local = ds.map_batches(local_top, batch_format="pyarrow",
                           batch_size=None)
    merged = concat_nonempty(arrow_blocks(local))
    if merged.num_columns == 0 or merged.num_rows == 0:
        topk = pa.table({id_col: pa.array([], pa.int64()),
                         "adc_dist": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64())})
    else:
        ids = merged[id_col].to_numpy(zero_copy_only=False)
        ad = merged["adc_dist"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, ad))[:k]
        topk = pa.table({
            id_col: pa.array(ids[order], pa.int64()),
            "adc_dist": pa.array(ad[order], pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1,
                                       dtype=np.int64))})
    cl_rows = [(int(li), int(j), int(CL[li, j]))
               for li in range(kl) for j in range(d)]
    coarse_long = pa.table({
        "cl": pa.array([r[0] for r in cl_rows], pa.int64()),
        "j": pa.array([r[1] for r in cl_rows], pa.int64()),
        "c": pa.array([r[2] for r in cl_rows], pa.int64())})
    pq_rows = [(s, c, j, int(C[s, c, j])) for s in range(m)
               for c in range(kc) for j in range(sub_d)]
    pq_long = pa.table({
        "sub": pa.array([r[0] for r in pq_rows], pa.int64()),
        "cl": pa.array([r[1] for r in pq_rows], pa.int64()),
        "jj": pa.array([r[2] for r in pq_rows], pa.int64()),
        "c": pa.array([r[3] for r in pq_rows], pa.int64())})
    return topk, coarse_long, pq_long


# ------------------------------------------------ fixed-point power PCA

def pca_power_fixed_point(ds, *, iters: int = 4, col: str = "embedding",
                          id_col: str = "vec_id", scale: int = 1024):
    """EXACT fixed-point power-iteration PCA: the principal direction
    of the quantized embedding matrix via ``iters`` rounds of
    ``v <- tdiv(G v * scale, max|G v|)`` on the Gram matrix
    ``G = X^T X``, then the per-vector projection ``X v`` — every step
    integer (quantization = :func:`_km_quant`, division = DuckDB
    truncating ``//``), so an unrolled SQL oracle reproduces the
    scores bit-for-bit (float power iteration differs in ulps by
    summation order under distribution).

    Scale shape (the distributed-covariance pattern): ONE pass of
    per-block d x d Gram partials — d^2 ints per block, folded on the
    driver in unbounded Python ints (no int64 overflow at any corpus
    size) — a driver-side d^2 iteration loop (d is model-sized, not
    corpus-sized), then ONE broadcast projection map over the same
    materialized blocks.  Two passes over the data total, nothing
    corpus-sized on the driver; centering is intentionally skipped
    (quantized PCA on the raw second moment — document if the data
    is not approximately zero-mean)."""
    import ray

    @ray.remote
    def gram_block(t: pa.Table):
        q = _km_quant(t, col, scale)
        return (q.T @ q) if q.size else None

    @ray.remote
    def proj_block(t: pa.Table, v: np.ndarray) -> pa.Table:
        q = _km_quant(t, col, scale)
        p = q @ v
        return pa.table({id_col: t[id_col],
                         "proj": pa.array(p.astype(np.int64))})

    refs = arrow_refs(ds)
    parts = [g for g in ray.get([gram_block.remote(r) for r in refs])
             if g is not None]
    if not parts:
        return ray.data.from_arrow(
            pa.table({id_col: pa.array([], pa.int64()),
                      "proj": pa.array([], pa.int64())}))
    d = parts[0].shape[0]
    # fold in unbounded Python ints: int64 Gram partials are exact per
    # block (|x| <= scale, block rows bounded), the cross-block sum is
    # where a 100-TB corpus would overflow int64
    G = [[sum(int(p[i, j]) for p in parts) for j in range(d)]
         for i in range(d)]
    v = [scale] * d
    for _ in range(iters):
        w = [sum(G[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in w)
        if m == 0:
            raise ValueError(
                "pca_power_fixed_point: zero Gram-vector product "
                "(degenerate all-zero input?)")
        v = [(abs(x) * scale // m) * (1 if x >= 0 else -1) for x in w]
    vec = np.array(v, np.int64)
    return ray.data.from_arrow_refs(
        [proj_block.remote(r, vec) for r in refs])


# ----------------------------------------------- embedding inference stage
# The canonical "model loaded once per actor" inference pattern that
# turns RAW TEXT into the embedding column every ANN path here
# consumes (knn_brute / build_lsh_index / build_ivf_index) — on a GPU
# cluster swap `_load_model` for a checkpoint load and size the pool
# with map_batches(concurrency=..., num_gpus=...); nothing downstream
# changes.

_ENC_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class TextEncoder:
    """Actor-pool text -> ``embedding`` (list<double>) inference.

    The stand-in model is DETERMINISTIC and exactly replayable by the
    SQL oracle: 26 letter-count features (vectorized
    ``pc.count_substring`` over the lowercased text — no Python row
    loop) projected by a seed-derived integer matrix
    ``R[i][j] = ((3*i + 5*j + i*j + seed) % 7) - 3`` (the i*j cross
    term keeps the rows independent — rank 7), built ONCE per actor
    in ``__init__`` exactly where a real checkpoint load would go.
    Outputs are integers (exactly float64-representable), so the
    cosine ranking downstream is engine-independent to the same
    degree as v_knn's.
    """

    def __init__(self, d_out: int = 8, seed: int = 5,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.R = self._load_model(d_out, seed)
        self.text_col = text_col
        self.id_col = id_col

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
        e = self.encode(batch[self.text_col])
        n, d = e.shape
        emb = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int64))
            .cast(pa.int32()),
            pa.array(e.reshape(-1).astype(np.float64), pa.float64()))
        return pa.table({self.id_col: batch[self.id_col],
                         "embedding": emb})


def hybrid_rrf(legs: list[pa.Table], *, k: int = 10, rrf_k: int = 60,
               scale: int = 10 ** 12, id_col: str = "doc_id") -> pa.Table:
    """Reciprocal-rank fusion of retrieval legs (BM25 + ANN is the
    canonical pair): ``rrf(doc) = sum_leg scale // (rrf_k + rank)``
    with a missing leg contributing 0 — the standard RRF law
    (Cormack et al., SIGIR'09) made EXACT-integer by the scaled
    floor division, so any engine reproduces the fused ranking
    bit-for-bit (a float 1/(60+r) sum is ulp-fragile in the ties).

    Each leg is a small ``(id_col, ..., rank)`` Arrow table — the
    top-k output of :func:`knn_brute` /
    :func:`textindex.bm25_docs_topk` — so the fold is a driver-side
    merge of ``legs x k`` rows, bounded by the query constants, never
    by the corpus.  Ties break ascending id.  Returns
    ``(id_col, rrf_score, rank)`` with rank 1..k, int64 throughout
    (max score legs x scale // (rrf_k+1) << 2^63)."""
    acc: dict[int, int] = {}
    for t in legs:
        ids = t[id_col].to_pylist()
        ranks = t["rank"].to_pylist()
        for i, r in zip(ids, ranks):
            acc[i] = acc.get(i, 0) + scale // (rrf_k + int(r))
    rows = sorted(acc.items(), key=lambda x: (-x[1], x[0]))[:k]
    return pa.table({id_col: pa.array([r[0] for r in rows], pa.int64()),
                     "rrf_score": pa.array([r[1] for r in rows],
                                           pa.int64()),
                     "rank": pa.array(np.arange(1, len(rows) + 1,
                                                dtype=np.int64))})


# --------------------------------------------- MMR diversified re-rank

def mmr_rerank(ds, query_vec, *, k: int = 10, pool: int = 25,
               lam_num: int = 7, lam_den: int = 10,
               col: str = "embedding", id_col: str = "vec_id",
               scale: int = 1024):
    """EXACT Maximal Marginal Relevance re-ranking (Carbonell &
    Goldstein 1998): fetch a relevance pool distributed, then greedily
    pick ``k`` results maximizing ``lam*rel - (1-lam)*max_sim_to_
    selected`` — the diversity-aware variant of top-k every retrieval
    stack bolts onto its ranker.  All-integer: rel and pairwise sim
    are int64 dot products of the :func:`_km_quant` embeddings, the
    MMR score is ``lam_num*rel - (lam_den-lam_num)*maxsim`` (no
    floats), ties broken by smallest id — so an unrolled SQL oracle
    replays the greedy walk bit-for-bit.

    Scale shape — the canonical two-phase re-rank: ONE distributed
    pass computes integer relevance and keeps a per-block top-``pool``
    (plus the survivors' quantized vectors: pool x d ints per block),
    the driver merges blocks x pool survivor rows and runs the greedy
    loop over a pool x pool integer Gram matrix.  Pool and k are
    query-sized constants, never corpus-sized; nothing else leaves
    the blocks."""
    import ray

    q = np.asarray(query_vec, dtype=np.float64) * float(scale)
    # captured by value, not ray.put: the quantized probe is d int64s
    # (~0.5 KB) — a closure constant ships with the task spec for free,
    # and a captured ObjectRef in a map_batches closure is the one
    # pattern that has tripped Ray's inlined-dependency refcounting
    # under load (reference_count.cc check failure seen in bench)
    qq = np.copysign(np.floor(np.abs(q) + 0.5), q).astype(np.int64)

    def local_top(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "rel": pa.array([], pa.int64()),
                             "qv": pa.array([], pa.list_(pa.int64()))})
        X = _km_quant(t, col, scale)
        rel = X @ qq
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((ids, -rel))[:pool]
        return pa.table({
            id_col: pa.array(ids[o]),
            "rel": pa.array(rel[o]),
            "qv": pa.array(list(X[o]), pa.list_(pa.int64()))})

    parts = arrow_blocks(ds.map_batches(local_top, batch_format="pyarrow",
                                        batch_size=None))
    m = concat_nonempty(parts)
    if m.num_columns == 0 or m.num_rows == 0:
        return ray.data.from_arrow(
            pa.table({id_col: pa.array([], pa.int64()),
                      "mmr_rank": pa.array([], pa.int64()),
                      "score": pa.array([], pa.int64())}))
    ids = m[id_col].to_numpy(zero_copy_only=False)
    rel = m["rel"].to_numpy(zero_copy_only=False)
    o = np.lexsort((ids, -rel))[:pool]
    ids, rel = ids[o], rel[o]
    C = np.stack([np.asarray(v, dtype=np.int64)
                  for v in m["qv"].to_pylist()])[o]
    S = C @ C.T  # pool x pool integer Gram — query-sized
    n = len(ids)
    picked: list[int] = []
    maxsim = np.zeros(n, dtype=np.int64)  # empty-selection term = 0
    remaining = np.ones(n, dtype=bool)
    out_ids, out_scores = [], []
    for _ in range(min(k, n)):
        score = lam_num * rel - (lam_den - lam_num) * maxsim
        cand = np.flatnonzero(remaining)
        best = cand[np.lexsort((ids[cand], -score[cand]))[0]]
        picked.append(best)
        out_ids.append(int(ids[best]))
        out_scores.append(int(score[best]))
        remaining[best] = False
        np.maximum(maxsim, S[:, best], out=maxsim)
    return ray.data.from_arrow(pa.table({
        id_col: pa.array(out_ids, pa.int64()),
        "mmr_rank": pa.array(np.arange(1, len(out_ids) + 1,
                                       dtype=np.int64)),
        "score": pa.array(out_scores, pa.int64())}))


# ----------------------------------------------- int8 scalar quantization

def scalar_quantize_stats(ds, *, col: str = "embedding",
                          id_col: str = "vec_id", scale: int = 1024,
                          levels: int = 255):
    """EXACT SQ8 scalar quantization of the embedding column — the
    vector-compression pass (FAISS's SQ8 / uint8 codes) a 100-TB
    embedding store runs before indexing: per-dimension global
    [min, max] over the :func:`_km_quant` integers, then
    ``code = (x - mn) * levels // (mx - mn)`` (all integer, ``// ``
    truncating = floor since ``x >= mn``; constant-dimension columns
    code to 0).  Emits per vector the code checksum + range —
    ``(vec_id, code_sum, code_min, code_max)`` — rather than a
    list<uint8> column so the driver comparator hashes scalars.

    Scale shape (same two-wave pattern as the fixed-point PCA): one
    pass of per-block (min, max) partials — 2d ints each, folded on
    the driver — then one broadcast quantize map over the same
    materialized blocks.  Nothing corpus-sized ever leaves a block."""
    import ray

    @ray.remote
    def minmax_block(t: pa.Table):
        q = _km_quant(t, col, scale)
        if not q.size:
            return None
        return q.min(axis=0), q.max(axis=0)

    @ray.remote
    def code_block(t: pa.Table, mn: np.ndarray,
                   span: np.ndarray) -> pa.Table:
        q = _km_quant(t, col, scale)
        if not q.size:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "code_sum": pa.array([], pa.int64()),
                             "code_min": pa.array([], pa.int64()),
                             "code_max": pa.array([], pa.int64())})
        codes = np.where(span > 0,
                         (q - mn) * levels // np.maximum(span, 1), 0)
        return pa.table({
            id_col: t[id_col],
            "code_sum": pa.array(codes.sum(axis=1).astype(np.int64)),
            "code_min": pa.array(codes.min(axis=1).astype(np.int64)),
            "code_max": pa.array(codes.max(axis=1).astype(np.int64))})

    refs = arrow_refs(ds)
    parts = [p for p in ray.get([minmax_block.remote(r) for r in refs])
             if p is not None]
    if not parts:
        return ray.data.from_arrow(
            pa.table({id_col: pa.array([], pa.int64()),
                      "code_sum": pa.array([], pa.int64()),
                      "code_min": pa.array([], pa.int64()),
                      "code_max": pa.array([], pa.int64())}))
    mn = np.min([p[0] for p in parts], axis=0)
    mx = np.max([p[1] for p in parts], axis=0)
    span = mx - mn
    return ray.data.from_arrow_refs(
        [code_block.remote(r, mn, span) for r in refs])
