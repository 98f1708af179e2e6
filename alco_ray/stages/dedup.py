"""Deduplication operators — exact and near-dup (training-data core).

Scalable shapes (each documented with its partitioning assumption):

- **Exact dedup** (:func:`dedup_exact`): hash-shuffle on the key
  column(s), keep the deterministic first row per group (min of
  ``order_col``).  Shuffle key = content hash, so duplicate rows
  co-locate regardless of input partitioning.
- **Exact n-gram Jaccard pairs** (:func:`jaccard_pairs`): explode
  distinct token 3-shingles, hash-shuffle on shingle, emit co-occurring
  doc pairs per shingle group, then sum pair intersections and compare
  with set sizes.  Shuffle keys = shingle, then (doc_a, doc_b).
- **MinHash + LSH** (:func:`minhash_batch`, :func:`lsh_candidate_pairs`):
  shingle -> 64 minhashes -> 16 bands x 4 rows; band-bucket groupby
  emits candidates; probability a pair with Jaccard s collides in some
  band is 1-(1-s^4)^16 (>=0.97 at s=0.8).  Shuffle key = (band_id,
  band_hash).
- **SimHash** (:func:`simhash_batch`, :func:`simhash_near_pairs`):
  64-bit signature per doc; near-dups are docs whose signatures differ
  in <= k bits — bucket by (chunk_id, chunk_val) for candidate
  generation.

Every pair join shuffles only through :func:`~.window.keyed_apply`:
one call emits candidate pairs per bucket key, and where several
buckets can emit the same pair, a second call keyed on the pair sums
or dedupes it (:func:`lsh_candidate_pairs` folds on the driver
instead; :func:`simhash_near_pairs` emits each pair once).  So all
shuffle hashing goes through ``pandas.util.hash_array``
(deterministic SipHash); shingle, MinHash and SimHash values mix
fixed odd constants for independent hash families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import (arrow_blocks, arrow_refs, concat_nonempty,
                        drop_empty_blocks, partials)
from .parse import tokenize
from .text import hash_tokens, segmented_window_hashes
from .window import keyed_apply

MERSENNE_P = np.uint64((1 << 61) - 1)

#: byte-wise popcount lookup (numpy 1.x has no bitwise_count; a LUT
#: gather over the uint8 view beats unpackbits ~8x in memory traffic)
_POPCNT = np.array([bin(i).count("1") for i in range(256)], np.uint8)


def dedup_exact(ds, key_cols: list[str], order_col: str):
    """One row per exact key: (key_cols..., <order_col> of the kept
    representative = group min, n_dups) — the D1 row-level backstop.

    Shape: shuffle on the key columns (a key lives in exactly one
    :func:`keyed_apply` frame), then ONE vectorized pandas aggregation
    per frame.  Ray's own hash-shuffle aggregate measured ~44k rows/s
    on this path (30 s for 1.3M rows at sf0.1); the partitioned
    pandas groupby is bounded only by the shuffle.  This also
    sidesteps Ray's value-dependent timestamp-unit re-inference
    (second-aligned timestamp[us] came back timestamp[s] from
    Dataset.groupby Min).  To recover full rows use
    :func:`dedup_exact_rows`."""
    import pandas as pd  # noqa: F811

    def body(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(key_cols, sort=False, dropna=False)
                .agg(**{order_col: (order_col, "min"),
                        "n_dups": (order_col, "size")})
                .reset_index())
        out["n_dups"] = out["n_dups"].astype("int64")
        return out

    return keyed_apply(ds, key_cols, body)


def _shingle_hashes(batch: pa.Table, text_col: str, k: int = 3
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-row arrays of DISTINCT k-token-shingle hashes.

    Returns (flat uint64 hashes, int64 offsets) with len(offsets) =
    num_rows + 1.  Shingle hash = polynomial combine of the k token
    hashes (order-sensitive), reduced into [0, 2^61-1).  One
    vectorized segmented pass over the whole batch.
    """
    toks = tokenize(batch[text_col], batch.num_rows)
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    offs = np.asarray(toks.offsets).astype(np.int64)
    th = hash_tokens(flat) if len(flat) else np.zeros(0, np.uint64)
    return segmented_window_hashes(
        th, offs, k, np.uint64(0x9E3779B97F4A7C15), MERSENNE_P)


def shingle_explode(batch: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id", k: int = 3) -> pa.Table:
    """(id, shingle_hash, n_shingles) — one row per DISTINCT shingle."""
    h, offsets = _shingle_hashes(batch, text_col, k)
    counts = np.diff(offsets)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    return pa.table({
        id_col: pa.array(np.repeat(ids, counts)),
        "shingle": pa.array(h.view(np.int64), pa.int64()),
        "n_shingles": pa.array(np.repeat(counts, counts), pa.int64()),
    })


def _hit_counts(hits, id_col: str):
    """Per-doc ``n_hit_grams`` over a shingle semi join's hits.  Its
    rows are (doc, shingle)-distinct by construction, so the per-doc
    size IS the distinct overlap count.  No overlap is a typed empty
    answer (int64 ids, the corpora's doc id type), not a schema-less
    one."""

    def body(g: "pd.DataFrame") -> "pd.DataFrame":
        out = (g.groupby(id_col, sort=False).size()
                .rename("n_hit_grams").reset_index())
        out["n_hit_grams"] = out["n_hit_grams"].astype("int64")
        return out

    return drop_empty_blocks(
        keyed_apply(hits, id_col, body),
        pa.schema([(id_col, pa.int64()), ("n_hit_grams", pa.int64())]))


def decontaminate(ds, bench, *, k: int = 3, text_col: str = "text",
                  id_col: str = "doc_id"):
    """Benchmark decontamination: for every corpus document, the number
    of DISTINCT k-token shingles it shares with ANY document of the
    ``bench`` corpus (only contaminated docs are returned — sharing at
    least one shingle).  The training-data hygiene op: drop or flag
    training docs that overlap an eval set.

    Shape: distinct shingle hashes per doc on both sides (one
    vectorized segmented pass, :func:`shingle_explode`), then a keyed
    SEMI JOIN on the shingle hash — both sides hash-shuffle, so the
    benchmark may be arbitrarily large (no broadcast) — then a
    frame-local per-doc count.  Shingle identity is its 61-bit
    hash (the fingerprint family's negligible-collision trade)."""
    from .join import semi_join

    def grams(b: pa.Table) -> pa.Table:
        return shingle_explode(b, text_col, id_col, k) \
            .select([id_col, "shingle"])

    cg = ds.map_batches(grams, batch_format="pyarrow")
    bg = bench.map_batches(grams, batch_format="pyarrow") \
        .select_columns(["shingle"])
    return _hit_counts(semi_join(cg, bg, "shingle"), id_col)


def decontaminate_bloom(ds, bench, *, k: int = 3, text_col: str = "text",
                        id_col: str = "doc_id", bloom_bits: int = 1 << 22,
                        bloom_k: int = 6):
    """:func:`decontaminate` with a BLOOM-FILTER prefilter — the
    100-TB-corpus shape: the benchmark's shingle set compresses to a
    fixed ``bloom_bits/8``-byte word array (mergeable OR-fold,
    broadcast once via ``ray.put``), and the corpus-side probe drops
    every non-candidate (doc, shingle) row MAP-SIDE, so the exact
    shingle semi join that follows shuffles only the surviving sliver
    instead of the whole corpus gram stream.  Bloom false positives
    cannot leak into the output — the exact semi join re-verifies
    every candidate — so the result is IDENTICAL to
    :func:`decontaminate` (same oracle), just cheaper when overlap is
    rare (the training-data common case)."""
    import ray

    from .join import semi_join
    from .sketch import bloom_from_dataset, bloom_probe

    def grams(b: pa.Table) -> pa.Table:
        return shingle_explode(b, text_col, id_col, k) \
            .select([id_col, "shingle"])

    bg = bench.map_batches(grams, batch_format="pyarrow") \
        .select_columns(["shingle"])
    bg = bg.materialize()  # consumed twice: bloom build + exact verify
    words = bloom_from_dataset(bg, "shingle", m_bits=bloom_bits,
                               k=bloom_k)
    wref = ray.put(words)

    def probe(b: pa.Table) -> pa.Table:
        g = shingle_explode(b, text_col, id_col, k) \
            .select([id_col, "shingle"])
        h = g["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = bloom_probe(h, ray.get(wref), bloom_bits, bloom_k)
        return g.filter(pa.array(keep))

    cg = ds.map_batches(probe, batch_format="pyarrow")
    return _hit_counts(semi_join(cg, bg, "shingle"), id_col)


def dedup_exact_rows(ds, key_cols: list[str], order_col: str):
    """Full-row exact dedup: keep the first row (minimum ``order_col``)
    per exact key, with ALL columns — the operator users actually want
    when "dedup" means "give me the surviving rows".

    Shape: shuffle on the key columns (a key lives in exactly one
    :func:`keyed_apply` frame), then ONE vectorized sort +
    drop_duplicates per frame — no per-group Python, no broadcast,
    shuffle volume = input size once."""
    import pandas as pd  # noqa: F811

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*key_cols, order_col], kind="mergesort")
        return g.drop_duplicates(subset=key_cols, keep="first")

    return keyed_apply(ds, key_cols, body)


def _shingle_overlaps(g: pd.DataFrame, id_col: str) -> pd.DataFrame:
    """(doc_a, doc_b, inter, na, nb), doc_a < doc_b, for every doc pair
    sharing a shingle in ``g`` (whole shingle groups): ``inter`` is the
    pair's shared-shingle count within this frame, ``na``/``nb`` the
    docs' distinct-shingle counts."""
    m = g.merge(g, on="shingle", suffixes=("_a", "_b"))
    m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
    return (m.groupby([f"{id_col}_a", f"{id_col}_b"])
             .agg(inter=("shingle", "size"),
                  na=("n_shingles_a", "first"),
                  nb=("n_shingles_b", "first"))
             .reset_index()
             .rename(columns={f"{id_col}_a": "doc_a",
                              f"{id_col}_b": "doc_b"}))


def _sum_overlaps(g: pd.DataFrame) -> pd.DataFrame:
    """Per-pair totals of :func:`_shingle_overlaps` partials (``g``
    holds whole pairs)."""
    return (g.groupby(["doc_a", "doc_b"], sort=False)
             .agg(inter=("inter", "sum"), na=("na", "max"),
                  nb=("nb", "max"))
             .reset_index())


def jaccard_pairs(ds, threshold: float = 0.5, *, text_col: str = "text",
                  id_col: str = "doc_id", k: int = 3):
    """Exact n-gram Jaccard near-dup pairs with Jaccard >= threshold.

    Returns Dataset(doc_a, doc_b, inter, uni) with doc_a < doc_b.
    threshold applied as inter/uni >= threshold using exact integer
    arithmetic (inter * 1000 >= uni * round(threshold*1000)).

    Shape: a partitioned self hash-join (ray_guide "Joins and
    lookups").  :func:`keyed_apply` on ``shingle`` runs one vectorized
    pandas self-merge per frame of whole shingle groups, emitting
    per-pair partial intersections; a second :func:`keyed_apply` on
    (doc_a, doc_b) sums them (Ray's own Aggregate measured ~44k rows/s
    on this shape).
    """
    sh = ds.map_batches(
        lambda b: shingle_explode(b, text_col, id_col, k),
        batch_format="pyarrow")
    thr = round(threshold * 1000)

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = _shingle_overlaps(g, id_col)
        # Exact-safe size-ratio prune: J >= t and inter <= min(na, nb)
        # imply min(na, nb) >= t * max(na, nb); incompatible-size
        # pairs can never pass the final threshold, so dropping their
        # partials here cuts the shuffle without changing the answer.
        na = out["na"].to_numpy()
        nb = out["nb"].to_numpy()
        return out[np.minimum(na, nb) * 1000 >= thr * np.maximum(na, nb)]

    def sum_finalize(g: pd.DataFrame) -> pd.DataFrame:
        s = _sum_overlaps(g)
        uni = (s["na"] + s["nb"] - s["inter"]).astype("int64")
        keep = s["inter"].to_numpy() * 1000 >= uni.to_numpy() * thr
        out = pd.DataFrame({"doc_a": s["doc_a"], "doc_b": s["doc_b"],
                            "inter": s["inter"].astype("int64"),
                            "uni": uni})
        return out[keep]

    partials = keyed_apply(sh, "shingle", pairs_in_bucket)
    return keyed_apply(partials, ["doc_a", "doc_b"], sum_finalize)


def containment_pairs(ds, threshold: float = 0.8, *,
                      text_col: str = "text", id_col: str = "doc_id",
                      k: int = 3, min_shingles: int = 5):
    """DIRECTED n-gram containment pairs: C(A->B) = |sh(A) ∩ sh(B)|
    / |sh(A)| >= threshold — the asymmetric near-dup relation Jaccard
    misses (a short document quoted whole inside a long one scores
    J ≈ |A|/|B| but containment 1.0).  Returns Dataset(contained,
    container, inter, n_contained), one row PER DIRECTION that
    passes, exact integer threshold (inter*1000 >= n_a*thr_ppt),
    n_a >= min_shingles guards degenerate tiny docs.

    Scale shape: identical to :func:`jaccard_pairs` (a shingle-keyed
    self-merge, then a pair-keyed exact finalize) — only the
    feasibility prune changes: a directed pass needs inter <= min(na,
    nb) >= thr*na, so pairs where NEITHER direction satisfies thr*min
    <= 1000*max drop before the second exchange."""
    sh = ds.map_batches(
        lambda b: shingle_explode(b, text_col, id_col, k),
        batch_format="pyarrow")
    thr = round(threshold * 1000)

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = _shingle_overlaps(g, id_col)
        na = out["na"].to_numpy()
        nb = out["nb"].to_numpy()
        # feasibility: inter <= min(na, nb); a->b needs thr*na <=
        # 1000*min(na, nb) i.e. thr*na <= 1000*nb; b->a symmetric.
        return out[(thr * na <= 1000 * nb) | (thr * nb <= 1000 * na)]

    def containment_finalize(g: pd.DataFrame) -> pd.DataFrame:
        s = _sum_overlaps(g)
        inter = s["inter"].to_numpy().astype("int64")
        na = s["na"].to_numpy().astype("int64")
        nb = s["nb"].to_numpy().astype("int64")
        rows = []
        for cont_id, ctr_id, n_c in (("doc_a", "doc_b", na),
                                     ("doc_b", "doc_a", nb)):
            keep = (inter * 1000 >= thr * n_c) & (n_c >= min_shingles)
            rows.append(pd.DataFrame({
                "contained": s.loc[keep, cont_id].astype("int64"),
                "container": s.loc[keep, ctr_id].astype("int64"),
                "inter": inter[keep],
                "n_contained": n_c[keep]}))
        return pd.concat(rows, ignore_index=True)

    partials = keyed_apply(sh, "shingle", pairs_in_bucket)
    return keyed_apply(partials, ["doc_a", "doc_b"], containment_finalize)


# ---------------------------------------------------------------- MinHash

N_HASHES = 64
N_BANDS = 16
ROWS_PER_BAND = N_HASHES // N_BANDS


def _hash_family(seed: int = 1234) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, (1 << 61) - 1, size=N_HASHES, dtype=np.uint64) | np.uint64(1)
    b = rng.randint(0, (1 << 61) - 1, size=N_HASHES, dtype=np.uint64)
    return a, b


_A, _B = _hash_family()


def minhash_batch(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id", k: int = 3) -> pa.Table:
    """(id, sig: list<int64>[64]) MinHash signatures.  Docs with fewer
    than k tokens get an all-max signature (never near anything)."""
    h, offsets = _shingle_hashes(batch, text_col, k)
    n = batch.num_rows
    sigs = np.full((n, N_HASHES), (1 << 61) - 1, dtype=np.uint64)
    lens = np.diff(offsets)
    nonempty = lens > 0
    starts = offsets[:-1][nonempty]
    if len(h) and len(starts):
        # One segmented min per hash function: empty rows contribute no
        # flat elements, so consecutive non-empty starts are exactly
        # the reduceat segment boundaries (same trick as
        # text.fingerprint).  64 O(total) passes instead of one Python
        # loop + (64, m) matmul per row.
        with np.errstate(over="ignore"):
            for i in range(N_HASHES):
                vals = (_A[i] * h + _B[i]) % MERSENNE_P
                sigs[nonempty, i] = np.minimum.reduceat(vals, starts)
    return pa.table({
        id_col: batch[id_col],
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).view(np.int64), pa.int64()), N_HASHES),
    })


def band_explode(batch: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """(id, band_id, band_hash) — one row per LSH band.

    Rows carrying the all-max sentinel (fewer than k tokens, see
    :func:`minhash_batch`) are dropped BEFORE banding: they would all
    share identical band hashes and pair every short/empty doc with
    every other in all 16 bands."""
    sig = batch["sig"]
    if isinstance(sig, pa.ChunkedArray):
        sig = sig.combine_chunks()
    flat = sig.values.to_numpy(zero_copy_only=False).view(np.uint64)
    n = batch.num_rows
    sigs = flat.reshape(n, N_HASHES)
    real = ~(sigs == (1 << 61) - 1).all(axis=1)
    if not real.all():
        batch = batch.filter(pa.array(real))
        sigs = sigs[real]
        n = batch.num_rows
    B = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        bands = sigs.reshape(n, N_BANDS, ROWS_PER_BAND)
        acc = np.zeros((n, N_BANDS), dtype=np.uint64)
        for j in range(ROWS_PER_BAND):
            acc = acc * B + bands[:, :, j]
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    return pa.table({
        id_col: pa.array(np.repeat(ids, N_BANDS)),
        "band_id": pa.array(np.tile(np.arange(N_BANDS, dtype=np.int32), n)),
        "band_hash": pa.array(acc.reshape(-1).view(np.int64), pa.int64()),
    })


def lsh_candidate_pairs(ds, *, text_col: str = "text", id_col: str = "doc_id",
                        k: int = 3, max_bucket: int = 256,
                        max_candidate_rows: int = 50_000_000) -> pa.Table:
    """MinHash-LSH candidate pairs: pa.Table(doc_a, doc_b, n_bands),
    one row per distinct pair, ``n_bands`` = bands it collided in.

    Pipeline: signatures -> band explode -> :func:`keyed_apply` on
    (band_id, band_hash) -> pairs per bucket -> driver-side distinct.
    ``max_bucket`` caps quadratic blowup from degenerate buckets
    (boilerplate-heavy corpora).  Candidate lists are bounded by
    construction, and their consumers (e.g. the verify chain)
    materialize them anyway, so the cross-partition distinct folds on
    the driver instead of paying a second all-to-all shuffle;
    ``max_candidate_rows`` makes that bound a checked limit.
    """
    import ray

    sigs = ds.map_batches(
        lambda b: minhash_batch(b, text_col, id_col, k),
        batch_format="pyarrow")
    bands = sigs.map_batches(lambda b: band_explode(b, id_col),
                             batch_format="pyarrow")

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        if max_bucket is not None:
            sz = g.groupby(["band_id", "band_hash"])[id_col].transform("size")
            g = g[sz <= max_bucket]
        m = g.merge(g, on=["band_id", "band_hash"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        out = (m.groupby([f"{id_col}_a", f"{id_col}_b"])
                .size().rename("n_bands").reset_index())
        return out.rename(columns={f"{id_col}_a": "doc_a",
                                   f"{id_col}_b": "doc_b"})

    partials = keyed_apply(bands, ["band_id", "band_hash"], pairs_in_part)
    # Checked limit enforced INCREMENTALLY: blocks are fetched one at a
    # time and counted as they arrive, so an over-limit corpus
    # transfers at most max_candidate_rows + one block to the driver
    # before raising — not the whole edge list.
    blocks, total = [], 0
    for ref in arrow_refs(partials):
        t = ray.get(ref)
        total += t.num_rows
        if total > max_candidate_rows:
            raise ValueError(
                f"lsh_candidate_pairs: >{max_candidate_rows} candidate "
                "rows (limit max_candidate_rows); raise the limit or "
                "verify in shards")
        blocks.append(t)
    t = concat_nonempty(blocks)
    if t.num_columns == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "n_bands": pa.array([], pa.int64())})
    g = t.group_by(["doc_a", "doc_b"]).aggregate([("n_bands", "sum")])
    return g.rename_columns(["doc_a", "doc_b", "n_bands"])


def _count_block_rows(refs) -> list:
    """Per-block row counts for a list of Arrow block refs, counted
    remotely (colocated with each block) — the driver never pulls a
    block just to count it."""
    import ray

    @ray.remote(num_cpus=0)
    def block_rows(t) -> int:
        return t.num_rows

    return ray.get([block_rows.remote(r) for r in refs])


def _verify_in_waves(ds, refs, counts, threshold, *, text_col, id_col,
                     k, max_candidates):
    """Bounded-wave driver loop behind :func:`verify_pairs`: greedily
    pack candidate block refs into <= max_candidates-pair shards and
    verify each shard independently.  Exact — every pair is in exactly
    one shard and Jaccard verification is per-pair."""
    import ray

    waves: list[list] = []
    cur: list = []
    cur_n = 0
    for r, c in zip(refs, counts):
        if cur and cur_n + c > max_candidates:
            waves.append(cur)
            cur, cur_n = [], 0
        cur.append(r)
        cur_n += c
    if cur:
        waves.append(cur)
    outs = []
    for w in waves:
        t = concat_nonempty(ray.get(w))
        outs.append(verify_pairs(ds, t, threshold, text_col=text_col,
                                 id_col=id_col, k=k,
                                 max_candidates=max_candidates))
    res = outs[0]
    for o in outs[1:]:
        res = res.union(o)
    return res


def verify_pairs(ds, candidates, threshold: float = 0.5, *,
                 text_col: str = "text", id_col: str = "doc_id",
                 k: int = 3, max_candidates: int = 50_000_000):
    """Exact-Jaccard verification of candidate near-dup pairs.

    ``candidates`` (Dataset/Table of doc_a, doc_b — e.g. from
    :func:`lsh_candidate_pairs`) are APPROXIMATE: at scale, feeding
    them straight into :func:`dedup_apply` silently deletes
    non-duplicate documents on LSH false positives.  This operator
    computes the exact n-gram Jaccard for candidate pairs only and
    keeps those at/above ``threshold``.

    Shape: semi-join the corpus to the involved doc ids (broadcast —
    candidates are small relative to the corpus; ``max_candidates``
    makes that a checked limit), run the exact bucketed pair kernel
    over that subset (cost ~ |involved|, not corpus), then intersect
    with the candidate set.  Returns Dataset(doc_a, doc_b, inter, uni).

    Above ``max_candidates`` the verification runs in bounded WAVES
    instead of raising: candidate blocks are greedily packed into
    <= max_candidates-pair shards (one candidate block held on the
    driver at a time, never the full table), each shard is verified
    independently against its own semi-joined corpus subset, and the
    per-shard result datasets are unioned.  A pair lands in exactly
    one shard, so the union is exact.  Each wave re-scans the corpus
    for its semi-join — at W waves that is W corpus scans, the price
    of bounding driver/broadcast memory; callers with pathological
    candidate volume should raise ``max_candidates`` toward what a
    single broadcast can hold rather than paying many scans.
    """
    import ray
    import ray.data

    if isinstance(candidates, ray.data.Dataset):
        refs = arrow_refs(candidates)
        counts = _count_block_rows(refs)
        if sum(counts) > max_candidates:
            return _verify_in_waves(
                ds, refs, counts, threshold, text_col=text_col,
                id_col=id_col, k=k, max_candidates=max_candidates)
        candidates = concat_nonempty(ray.get(refs))
    if candidates.num_rows > max_candidates:
        # Table input over the cap: zero-copy slice into waves.
        slices = [candidates.slice(i, max_candidates)
                  for i in range(0, candidates.num_rows, max_candidates)]
        outs = [verify_pairs(ds, s, threshold, text_col=text_col,
                             id_col=id_col, k=k,
                             max_candidates=max_candidates)
                for s in slices]
        res = outs[0]
        for o in outs[1:]:
            res = res.union(o)
        return res
    if candidates.num_rows == 0:
        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "inter": pa.array([], pa.int64()),
                          "uni": pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)
    a = candidates["doc_a"].to_numpy(zero_copy_only=False)
    b = candidates["doc_b"].to_numpy(zero_copy_only=False)
    involved = pa.array(np.unique(np.concatenate([a, b])))
    iref = ray.put(involved)

    def keep_involved(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch[id_col], value_set=ray.get(iref)))

    sub = ds.map_batches(keep_involved, batch_format="pyarrow")

    if candidates.num_rows <= 200_000 and len(involved) <= 200_000:
        # Bounded candidate sets (the common case — that's the point
        # of LSH): pull the involved rows once and verify per-pair
        # with sorted-array intersections locally.  The distributed
        # alternative costs TWO extra all-to-all shuffles whose fixed
        # latency dwarfs this much compute.
        subset = concat_nonempty(arrow_blocks(
            sub.select_columns([id_col, text_col])))
        if subset.num_rows == 0 or id_col not in subset.column_names:
            # No candidate doc id exists in the corpus (concat_nonempty
            # collapses an all-empty ref list to a zero-column table).
            empty = pa.table({"doc_a": pa.array([], pa.int64()),
                              "doc_b": pa.array([], pa.int64()),
                              "inter": pa.array([], pa.int64()),
                              "uni": pa.array([], pa.int64())})
            return ray.data.from_arrow(empty)
        h, offs = _shingle_hashes(subset, text_col, k)
        ids = subset[id_col].to_numpy(zero_copy_only=False)
        # Vectorized id -> row position (sorted lookup, no Python dict).
        order = np.argsort(ids, kind="stable")
        sids = ids[order]

        def locate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            j = np.clip(np.searchsorted(sids, x), 0, len(sids) - 1)
            ok = sids[j] == x
            return order[j], ok

        ja, oka = locate(a)
        jb, okb = locate(b)
        valid = oka & okb
        inter = np.zeros(candidates.num_rows, dtype=np.int64)
        uni = np.zeros(candidates.num_rows, dtype=np.int64)
        va, vb = ja[valid], jb[valid]
        la = offs[va + 1] - offs[va]
        lb = offs[vb + 1] - offs[vb]

        def gather(rows: np.ndarray, lens: np.ndarray) -> np.ndarray:
            # Segmented gather of variable-length shingle slices: one
            # fancy-index instead of a per-pair Python loop.
            out_starts = np.cumsum(lens) - lens
            idx = (np.arange(int(lens.sum()), dtype=np.int64)
                   - np.repeat(out_starts, lens)
                   + np.repeat(offs[rows], lens))
            return h[idx]

        # Per-doc shingles are DISTINCT (see _shingle_hashes), so after
        # sorting each pair's combined (A ++ B) list, every shared
        # shingle appears as exactly one adjacent duplicate.
        pair_ids = np.arange(len(va), dtype=np.int64)
        vals = np.concatenate([gather(va, la), gather(vb, lb)])
        keys = np.concatenate([np.repeat(pair_ids, la),
                               np.repeat(pair_ids, lb)])
        srt = np.lexsort((vals, keys))
        kv, vv = keys[srt], vals[srt]
        dup = (kv[1:] == kv[:-1]) & (vv[1:] == vv[:-1])
        icount = np.bincount(kv[1:][dup],
                             minlength=len(va)).astype(np.int64)
        inter[valid] = icount
        uni[valid] = la + lb - icount
        thr = round(threshold * 1000)
        keep = (uni > 0) & (inter * 1000 >= uni * thr)
        out = pa.table({"doc_a": pa.array(a[keep]),
                        "doc_b": pa.array(b[keep]),
                        "inter": pa.array(inter[keep], pa.int64()),
                        "uni": pa.array(uni[keep], pa.int64())})
        return ray.data.from_arrow(out)

    exact = jaccard_pairs(sub, threshold, text_col=text_col, id_col=id_col,
                          k=k)
    exact_t = concat_nonempty(arrow_blocks(exact))
    if exact_t.num_rows == 0 or exact_t.num_columns == 0:
        empty = pa.table({"doc_a": pa.array([], pa.int64()),
                          "doc_b": pa.array([], pa.int64()),
                          "inter": pa.array([], pa.int64()),
                          "uni": pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)
    # Intersect exact pairs among involved docs with the candidate set
    # (exact pairs between involved-but-not-candidate docs must not
    # leak through).  Both tables are bounded; exact pandas merge.
    got = exact_t.to_pandas().merge(
        candidates.select(["doc_a", "doc_b"]).to_pandas(),
        on=["doc_a", "doc_b"], how="inner")
    return ray.data.from_arrow(pa.Table.from_pandas(
        got, preserve_index=False).select(["doc_a", "doc_b", "inter", "uni"]))


def simhash_near_pairs(ds, max_hamming: int = 7, *,
                       text_col: str = "text", id_col: str = "doc_id",
                       n_chunks: int = 8, sig_ds=None):
    """All pairs with SimHash Hamming distance <= ``max_hamming``.

    Banded by pigeonhole: the 64-bit signature splits into ``n_chunks``
    equal bit-chunks; a pair differing in <= n_chunks-1 bits must agree
    on at least one chunk, so grouping by (chunk_id, chunk_value)
    reaches **recall 1.0** for ``max_hamming < n_chunks``, and the
    in-bucket exact Hamming check gives precision 1.0 — making the
    distributed pair generation exactly SQL-checkable from the
    signature table.  Raises ``ValueError`` unless ``n_chunks``
    divides 64 and ``max_hamming < n_chunks``.  ``sig_ds`` lets the
    caller reuse precomputed (id, simhash) signatures.
    """
    if 64 % n_chunks or not max_hamming < n_chunks:
        raise ValueError(
            f"simhash_near_pairs: need 64 % n_chunks == 0 and "
            f"max_hamming < n_chunks for recall 1.0, got "
            f"n_chunks={n_chunks}, max_hamming={max_hamming}")
    bits = 64 // n_chunks
    sigs = sig_ds if sig_ds is not None else ds.map_batches(
        lambda t: simhash_batch(t, text_col, id_col),
        batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        sig = t["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        n = len(ids)
        shifts = (np.arange(n_chunks, dtype=np.uint64) * np.uint64(bits))
        vals = ((sig[:, None] >> shifts[None, :])
                & np.uint64((1 << bits) - 1)).reshape(-1)
        return pa.table({
            id_col: pa.array(np.repeat(ids, n_chunks)),
            "sig": pa.array(np.repeat(sig.view(np.int64), n_chunks)),
            "chunk_id": pa.array(
                np.tile(np.arange(n_chunks, dtype=np.int32), n)),
            "chunk_val": pa.array(vals.view(np.int64)),
        })

    chunks = sigs.map_batches(explode, batch_format="pyarrow")

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        # Segment-sorted numpy pair generation: a pandas self-merge
        # materializes bucket^2 full-width rows (measured 11M rows /
        # 75 s at sf0.1 under real chunk skew); triu indices + a
        # filter-before-materialize popcount keep only index arrays
        # and the surviving pairs.
        ids = g[id_col].to_numpy()
        sg = g["sig"].to_numpy().astype(np.int64).view(np.uint64)
        cid = g["chunk_id"].to_numpy()
        cval = g["chunk_val"].to_numpy()
        order = np.lexsort((cval, cid))
        ids, sg, cid, cval = ids[order], sg[order], cid[order], cval[order]
        n = len(ids)
        change = np.empty(n, dtype=bool)
        if n:
            change[0] = True
            change[1:] = (cid[1:] != cid[:-1]) | (cval[1:] != cval[:-1])
        starts = np.flatnonzero(change) if n else np.zeros(0, np.int64)
        ends = np.append(starts[1:], n)
        out_a, out_b, out_h = [], [], []

        def emit(aa, bb, hm):
            swap = aa > bb
            out_a.append(np.where(swap, bb, aa))
            out_b.append(np.where(swap, aa, bb))
            out_h.append(np.broadcast_to(
                np.asarray(hm, np.int64), aa.shape).copy())

        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            # Near-identical docs share the FULL signature, so real
            # buckets hold few DISTINCT signatures (measured: 1019
            # members / tens of sigs at sf0.1) — compare distinct
            # signatures pairwise, then expand survivors to member
            # cross products (Hamming is constant per signature pair).
            u_sg, inv = np.unique(sg[s:e], return_inverse=True)
            counts = np.bincount(inv)
            pos_by_g = np.argsort(inv, kind="stable")
            offs = np.concatenate([[0], np.cumsum(counts)])
            bucket_ids = ids[s:e]

            def members(g):
                return bucket_ids[pos_by_g[offs[g]:offs[g + 1]]]

            # identical-signature pairs agree on EVERY chunk, so the
            # min-agreeing-chunk rule emits them from chunk 0 only
            if int(cid[s]) == 0:
                for g in np.flatnonzero(counts > 1):
                    mem = members(g)
                    ia0, ib0 = np.triu_indices(len(mem), k=1)
                    emit(mem[ia0], mem[ib0], 0)
            ku = len(u_sg)
            if ku < 2:
                continue
            ia, ib = np.triu_indices(ku, k=1)
            x = u_sg[ia] ^ u_sg[ib]
            ham = _POPCNT[x.view(np.uint8).reshape(-1, 8)] \
                .sum(axis=1, dtype=np.int64)
            keep = ham <= max_hamming
            if not keep.any():
                continue
            # Emit each pair from its SMALLEST agreeing chunk only:
            # both full signatures are present in every matching
            # bucket, so global uniqueness holds by construction and
            # the cross-partition distinct shuffle (measured as the
            # dominant cost) disappears entirely.
            xk = x[keep]
            mask = np.uint64((1 << bits) - 1)
            agree = np.stack([(xk >> np.uint64(c * bits)) & mask == 0
                              for c in range(n_chunks)], axis=1)
            mine = np.argmax(agree, axis=1) == int(cid[s])
            ia_k, ib_k = ia[keep][mine], ib[keep][mine]
            ham_k = ham[keep][mine]
            for p, q, hm in zip(ia_k, ib_k, ham_k):
                A, B = members(p), members(q)
                emit(np.repeat(A, len(B)), np.tile(B, len(A)), hm)
        if not out_a:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "hamming": pd.Series([], dtype="int64")})
        return pd.DataFrame({"doc_a": np.concatenate(out_a),
                             "doc_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_h)})

    # No distinct stage: min-agreeing-chunk emission is globally unique
    # by construction (see pairs_in_part).
    return keyed_apply(chunks, ["chunk_id", "chunk_val"], pairs_in_part)


def dedup_apply(ds, pairs, *, id_col: str = "doc_id",
                max_edges: int = 50_000_000):
    """Keep one representative per near-dup cluster.

    ``pairs`` is a Dataset/Table of (doc_a, doc_b) near-dup edges (from
    :func:`jaccard_pairs`, :func:`lsh_candidate_pairs` or
    similarity.cosine_dup_pairs).  Connected components are computed
    driver-side — the edge list is small relative to the corpus
    (that's the point of near-dup detection), and ``max_edges`` makes
    that assumption a checked limit instead of an implicit one —
    keeping the minimum id per cluster; the removal set is broadcast
    and applied as a vectorized anti-join filter, no shuffle."""
    import ray
    import ray.data

    if isinstance(pairs, ray.data.Dataset):
        # Enforce the limit INCREMENTALLY while fetching: an over-limit
        # edge list moves at most max_edges + one block to the driver
        # before the raise — not the whole thing.
        blocks, n_edges = [], 0
        for ref in arrow_refs(pairs):
            t = ray.get(ref)
            n_edges += t.num_rows
            if n_edges > max_edges:
                break
            blocks.append(t)
        if n_edges <= max_edges:
            pairs = concat_nonempty(blocks)
    else:
        n_edges = pairs.num_rows
    if n_edges > max_edges:
        raise ValueError(
            f"dedup_apply: {n_edges} near-dup edges exceed the "
            f"driver-side component limit ({max_edges}); raise the pair "
            "threshold or pre-contract edges (e.g. keep only each doc's "
            "minimum partner) before applying")
    if pairs.num_rows:
        # Vectorized min-label propagation with pointer jumping:
        # labels are indices into the sorted node array, so the
        # minimum label IS the minimum doc id; converges in
        # O(log(diameter)) vectorized rounds.
        a = pairs["doc_a"].to_numpy(zero_copy_only=False)
        b = pairs["doc_b"].to_numpy(zero_copy_only=False)
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        ia, ib = inv[: len(a)], inv[len(a):]
        lab = np.arange(len(nodes), dtype=np.int64)
        while True:
            prev = lab.copy()
            np.minimum.at(lab, ia, lab[ib])
            np.minimum.at(lab, ib, lab[ia])
            while True:
                jumped = lab[lab]
                if np.array_equal(jumped, lab):
                    break
                lab = jumped
            if np.array_equal(lab, prev):
                break
        drop_arr = pa.array(nodes[lab != np.arange(len(nodes))])
    else:
        drop_arr = pa.array([], pa.int64())
    ref = ray.put(drop_arr)

    def keep(batch: pa.Table) -> pa.Table:
        d = ray.get(ref)
        return batch.filter(pc.invert(pc.is_in(batch[id_col], value_set=d)))

    return ds.map_batches(keep, batch_format="pyarrow", batch_size=None)


def simhash_batch(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """(id, simhash int64): 64-bit SimHash over token hashes."""
    toks = tokenize(batch[text_col], batch.num_rows)
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    offs = np.asarray(toks.offsets).astype(np.int64)
    th = hash_tokens(flat) if len(flat) else np.zeros(0, np.uint64)

    n = batch.num_rows
    out = np.zeros(n, dtype=np.uint64)
    lens = np.diff(offs)
    nonempty = lens > 0
    starts = offs[:-1][nonempty]
    if len(th) and len(starts):
        # Per-bit segmented sum (64 O(n_tokens) reduceat passes); rows
        # with no tokens keep signature 0.
        for j in range(64):
            bitvals = (((th >> np.uint64(j)) & np.uint64(1))
                       .astype(np.int64) * 2 - 1)
            seg_sum = np.add.reduceat(bitvals, starts)
            bits = (seg_sum >= 0).astype(np.uint64)
            col = np.zeros(n, dtype=np.uint64)
            col[nonempty] = bits
            out |= col << np.uint64(j)
    return pa.table({id_col: batch[id_col],
                     "simhash": pa.array(out.view(np.int64), pa.int64())})


# ---------------------------------------------------------------------
# Fuzzy (edit-distance <= 1) similarity join
# ---------------------------------------------------------------------

_FZ_P = np.uint64(1099511628211)  # FNV-ish odd multiplier, mod 2^64


def _fz_pad(cp: np.ndarray, offs: np.ndarray,
            maxlen: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, maxlen) uint32 codepoint matrix + length vector."""
    n = len(offs) - 1
    lens = np.diff(offs)
    m = np.zeros((n, maxlen), np.uint32)
    if len(cp):
        rows = np.repeat(np.arange(n), lens)
        pos = np.arange(len(cp), dtype=np.int64) - np.repeat(offs[:-1], lens)
        m[rows, pos] = cp
    return m, lens.astype(np.int64)


def _fz_variant_hashes(values) -> tuple[np.ndarray, np.ndarray]:
    """Deletion-neighborhood hashes: for each string s emit the
    polynomial hash of s itself AND of every single-deletion variant
    s[:i] + s[i+1:] — two strings are within edit distance 1
    (sub/ins/del) iff their variant STRING sets intersect, so hash
    equality is a complete candidate rule (collisions only ADD
    candidates; the exact verifier removes them).  Hashes combine
    precomputed prefix hashes and suffix hashes, all uint64 wrap
    arithmetic — no per-string Python.  Returns (row_idx, hash)."""
    from .text import _codepoints_arrow

    cp, offs = _codepoints_arrow(values)
    n = len(offs) - 1
    lens = np.diff(offs)
    maxlen = int(lens.max()) if n else 0
    m, lens = _fz_pad(cp, offs, maxlen)
    m64 = m.astype(np.uint64)
    pre = np.zeros((n, maxlen + 1), np.uint64)
    for j in range(maxlen):
        pre[:, j + 1] = pre[:, j] * _FZ_P + m64[:, j]
    suf = np.zeros((n, maxlen + 1), np.uint64)
    pw = np.ones(maxlen + 1, np.uint64)
    with np.errstate(over="ignore"):  # uint64 wrap IS the hash ring
        for j in range(1, maxlen + 1):
            pw[j] = pw[j - 1] * _FZ_P
    for j in range(maxlen - 1, -1, -1):
        # suf[:, j] = hash of s[j:len] = cp[j] * P^(len-1-j) + suf[j+1]
        e = (lens - 1 - j)
        valid = e >= 0
        exp = np.where(valid, e, 0).astype(np.int64)
        suf[:, j] = np.where(valid, m64[:, j] * pw[exp] + suf[:, j + 1],
                             np.uint64(0))
    # full-string hash = suf[:, 0]
    rows_full = np.arange(n, dtype=np.int64)
    h_full = suf[:, 0]
    # deletion at i (0 <= i < len): pre_i * P^(len-1-i) + suf[i+1]
    del_rows = np.repeat(rows_full, lens)
    if len(del_rows):
        i = (np.arange(len(del_rows), dtype=np.int64)
             - np.repeat(np.cumsum(lens) - lens, lens))
        ln = np.repeat(lens, lens)
        h_del = (pre[del_rows, i] * pw[ln - 1 - i]
                 + suf[del_rows, i + 1])
    else:
        i = np.zeros(0, np.int64)
        h_del = np.zeros(0, np.uint64)
    rows = np.concatenate([rows_full, del_rows])
    hashes = np.concatenate([h_full, h_del])
    return rows, hashes.view(np.int64)


def _lev1_exact(a_vals, b_vals) -> np.ndarray:
    """Vectorized exact edit-distance<=1 check for paired string
    arrays (pa.Array or pa.ChunkedArray), all-numpy: equal-length
    pairs count mismatched positions; length-diff-1 pairs test the
    classic first-mismatch / shifted-suffix alignment with a reverse
    cumulative AND.  Returns bool mask (distance exactly 1 for
    distinct values, <=1 in general)."""
    from .text import _codepoints_arrow

    acp, aoffs = _codepoints_arrow(a_vals)
    bcp, boffs = _codepoints_arrow(b_vals)
    n = len(aoffs) - 1
    # width maxlen+1: the shifted-suffix compare reads X[:, 1:maxlen+1]
    maxlen = int(max(np.diff(aoffs).max(initial=0),
                     np.diff(boffs).max(initial=0), 1))
    A, la = _fz_pad(acp, aoffs, maxlen + 1)
    B, lb = _fz_pad(bcp, boffs, maxlen + 1)
    # orient: X = longer side
    swap = lb > la
    X = np.where(swap[:, None], B, A)
    Y = np.where(swap[:, None], A, B)
    lx = np.where(swap, lb, la)
    ly = np.where(swap, la, lb)
    diff = lx - ly
    out = np.zeros(n, bool)
    w = maxlen + 1
    cols = np.arange(w)
    inbounds = cols[None, :] < ly[:, None]
    # equal length: <= 1 substituted position
    eqmask = diff == 0
    mism = ((X != Y) & inbounds).sum(axis=1)
    out[eqmask] = mism[eqmask] <= 1
    # length + 1: delete one char of X to get Y.  k = first mismatch
    # (the deleted position); match iff X[k+1:lx] == Y[k:ly], tested
    # with a reverse cumulative AND over the shifted equality.
    d1 = diff == 1
    if d1.any():
        peq = (X == Y) | ~inbounds          # prefix equality, pad-true
        allpre = peq.all(axis=1)
        k = np.where(allpre, ly, np.argmin(peq, axis=1))
        seq = np.ones((n, w), bool)
        seq[:, :w - 1] = X[:, 1:w] == Y[:, :w - 1]
        seq |= ~inbounds                    # pad-true at/after ly
        rs = np.flip(np.logical_and.accumulate(
            np.flip(seq, axis=1), axis=1), axis=1)
        out[d1] = rs[np.arange(n), k][d1]
    return out


def fuzzy_pairs(ds, col: str, *, max_bucket: int = 512,
                on_oversized: str = "error"):
    """FUZZY SIMILARITY JOIN: all pairs of DISTINCT values of ``col``
    within edit distance 1 (substitution, insertion or deletion) —
    the typo/near-identifier matching operator.  Returns a Dataset of
    (val_a, val_b), val_a < val_b.

    Shape: deletion-neighborhood hashing (the SymSpell candidate rule:
    d(a,b) <= 1  iff  the single-deletion variant sets of a and b
    intersect) — each distinct value emits len+1 variant hashes, a
    bucket groupby pairs only values sharing a variant, and a
    vectorized exact verifier (codepoint matrices, no per-pair Python)
    removes hash collisions.  Shuffle volume is values x (len+1)
    hashes, never values^2; ``max_bucket`` caps degenerate buckets the
    same way the MinHash-LSH path does.

    ``on_oversized`` governs buckets past ``max_bucket`` (ADVICE r3:
    silently dropping them broke the "all pairs within edit distance
    1" contract undetected on corpora where many values share a
    deletion variant).  Default ``"error"`` raises with the bucket
    size so the break is LOUD; ``"keep"`` verifies oversized buckets
    exactly anyway (quadratic in the bucket — caller accepts the
    cost); ``"drop"`` is the old documented approximation."""
    def distinct_fold(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": g["v"].drop_duplicates()})

    # distinct values, frame-locally exact
    distinct = keyed_apply(
        partials(ds, ["v"], {}, lambda b: pa.table({"v": b[col]})),
        "v", distinct_fold)

    def variants(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"v": pa.array([], pa.string()),
                             "h": pa.array([], pa.int64())})
        vals = b["v"]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        rows, hashes = _fz_variant_hashes(vals)
        return pa.table({"v": vals.take(pa.array(rows)),
                         "h": pa.array(hashes)})

    hv = distinct.map_batches(variants, batch_format="pyarrow")

    if on_oversized not in ("error", "keep", "drop"):
        raise ValueError(f"fuzzy_pairs: on_oversized={on_oversized!r}")

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        if max_bucket is not None and on_oversized != "keep":
            sz = g.groupby("h")["v"].transform("size")
            over = sz > max_bucket
            if over.any() and on_oversized == "error":
                raise ValueError(
                    "fuzzy_pairs: a deletion-variant bucket holds "
                    f"{int(sz[over].max())} values (> max_bucket="
                    f"{max_bucket}); the all-pairs-within-edit-"
                    "distance-1 contract cannot be met under the cap. "
                    "Pass on_oversized='keep' (exact, quadratic in "
                    "the bucket) or 'drop' (approximate).")
            g = g[~over]
        m = g.merge(g, on="h", suffixes=("_a", "_b"))
        m = m[m["v_a"] < m["v_b"]]
        return m[["v_a", "v_b"]].drop_duplicates()

    cands = keyed_apply(hv, "h", pairs_in_part)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["v_a", "v_b"])
        if not len(g):
            return pd.DataFrame({"val_a": pd.Series([], dtype=object),
                                 "val_b": pd.Series([], dtype=object)})
        ok = _lev1_exact(pa.array(g["v_a"].to_numpy(), pa.string()),
                         pa.array(g["v_b"].to_numpy(), pa.string()))
        kept = g[ok]
        return pd.DataFrame({"val_a": kept["v_a"].to_numpy(),
                             "val_b": kept["v_b"].to_numpy()})

    # distinct across frames (a pair can share several variants)
    return keyed_apply(cands, ["v_a", "v_b"], verify)
