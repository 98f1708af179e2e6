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

Every operator over documents reads their ``text`` column and keys on
``doc_id``.  Every pair join shuffles only through
:func:`~.window.keyed_apply`: one call emits candidate pairs per
bucket key, and where several buckets can emit the same pair, a second
call keyed on the pair sums or dedupes it
(:func:`lsh_candidate_pairs` folds on the driver instead;
:func:`simhash_near_pairs` emits each pair once).  So all shuffle
hashing goes through ``pandas.util.hash_array`` (deterministic
SipHash); shingle, MinHash and SimHash values mix fixed odd constants
for independent hash families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import (arrow_blocks, arrow_refs, concat_nonempty,
                        drop_empty_blocks, partials)
from .text import (_TRIGRAM_B, _distinct_per_row, _reduce_rows,
                   _token_hashes, segmented_window_hashes)
from .window import keyed_apply

MERSENNE_P = np.uint64((1 << 61) - 1)

#: Tokens per shingle, for every shingle operator here.
SHINGLE_K = 3

#: decontaminate_bloom's filter: bits, and probes per shingle.
BLOOM_BITS = 1 << 22
BLOOM_K = 6

#: Checked driver-side limits: candidate rows lsh_candidate_pairs
#: folds, candidate pairs verify_pairs takes in one wave, and edges
#: dedup_apply joins into components.
MAX_CANDIDATE_ROWS = 50_000_000
MAX_CANDIDATES = 50_000_000
MAX_EDGES = 50_000_000

#: Largest bucket a pair kernel expands: LSH band buckets past it are
#: skipped (boilerplate-heavy corpora), a fuzzy deletion-variant
#: bucket past it raises.
LSH_MAX_BUCKET = 256
FUZZY_MAX_BUCKET = 512

#: SimHash bit-chunks for pigeonhole banding (divides 64).
N_CHUNKS = 8

#: byte-wise popcount lookup (numpy 1.x has no bitwise_count; a LUT
#: gather over the uint8 view beats unpackbits ~8x in memory traffic)
_POPCNT = np.array([bin(i).count("1") for i in range(256)], np.uint8)

#: verify_pairs' answer.
_VERIFIED = pa.schema([(c, pa.int64())
                       for c in ("doc_a", "doc_b", "inter", "uni")])


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

    def body(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(key_cols, sort=False, dropna=False)
                .agg(**{order_col: (order_col, "min"),
                        "n_dups": (order_col, "size")})
                .reset_index())
        out["n_dups"] = out["n_dups"].astype("int64")
        return out

    return keyed_apply(ds, key_cols, body)


def _shingle_hashes(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Per-row arrays of DISTINCT :data:`SHINGLE_K`-token-shingle hashes.

    Returns (flat uint64 hashes, int64 offsets) with len(offsets) =
    num_rows + 1.  Shingle hash = polynomial combine of the k token
    hashes (order-sensitive), reduced into [0, 2^61-1).  One
    vectorized segmented pass over the whole batch.
    """
    h, offs = _token_hashes(batch)
    return segmented_window_hashes(h, offs, SHINGLE_K, _TRIGRAM_B,
                                   MERSENNE_P)


def shingle_explode(batch: pa.Table) -> pa.Table:
    """(id, shingle_hash, n_shingles) — one row per DISTINCT shingle."""
    h, offsets = _shingle_hashes(batch)
    counts = np.diff(offsets)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.table({
        "doc_id": pa.array(np.repeat(ids, counts)),
        "shingle": pa.array(h.view(np.int64), pa.int64()),
        "n_shingles": pa.array(np.repeat(counts, counts), pa.int64()),
    })


def _doc_shingles(batch: pa.Table) -> pa.Table:
    """(doc_id, shingle): the decontamination sides' rows."""
    return shingle_explode(batch).select(["doc_id", "shingle"])


def _hit_counts(hits):
    """Per-doc ``n_hit_grams`` over a shingle semi join's hits.  Its
    rows are (doc, shingle)-distinct by construction, so the per-doc
    size IS the distinct overlap count.  No overlap is a typed empty
    answer (int64 ids, the corpora's doc id type), not a schema-less
    one."""

    def body(g: "pd.DataFrame") -> "pd.DataFrame":
        out = (g.groupby("doc_id", sort=False).size()
                .rename("n_hit_grams").reset_index())
        out["n_hit_grams"] = out["n_hit_grams"].astype("int64")
        return out

    return drop_empty_blocks(
        keyed_apply(hits, "doc_id", body),
        pa.schema([("doc_id", pa.int64()), ("n_hit_grams", pa.int64())]))


def decontaminate(ds, bench):
    """Benchmark decontamination: for every corpus document, the number
    of DISTINCT shingles it shares with ANY document of the ``bench``
    corpus (only contaminated docs are returned — sharing at least one
    shingle).  The training-data hygiene op: drop or flag training docs
    that overlap an eval set.

    Shape: distinct shingle hashes per doc on both sides (one
    vectorized segmented pass, :func:`shingle_explode`), then a keyed
    SEMI JOIN on the shingle hash — both sides hash-shuffle, so the
    benchmark may be arbitrarily large (no broadcast) — then a
    frame-local per-doc count.  Shingle identity is its 61-bit
    hash (the fingerprint family's negligible-collision trade)."""
    from .join import semi_join

    cg = ds.map_batches(_doc_shingles, batch_format="pyarrow")
    bg = bench.map_batches(_doc_shingles, batch_format="pyarrow") \
        .select_columns(["shingle"])
    return _hit_counts(semi_join(cg, bg, "shingle"))


def decontaminate_bloom(ds, bench):
    """:func:`decontaminate` with a BLOOM-FILTER prefilter — the
    100-TB-corpus shape: the benchmark's shingle set compresses to a
    fixed ``BLOOM_BITS/8``-byte word array (mergeable OR-fold,
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

    bits, probes = BLOOM_BITS, BLOOM_K  # captured here: tasks see these values
    bg = bench.map_batches(_doc_shingles, batch_format="pyarrow") \
        .select_columns(["shingle"])
    bg = bg.materialize()  # consumed twice: bloom build + exact verify
    wref = ray.put(bloom_from_dataset(bg, "shingle", m_bits=bits,
                                      k=probes))

    def probe(b: pa.Table) -> pa.Table:
        g = _doc_shingles(b)
        h = g["shingle"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return g.filter(pa.array(bloom_probe(h, ray.get(wref), bits,
                                             probes)))

    cg = ds.map_batches(probe, batch_format="pyarrow")
    return _hit_counts(semi_join(cg, bg, "shingle"))


def dedup_exact_rows(ds, key_cols: list[str], order_col: str):
    """Full-row exact dedup: keep the first row (minimum ``order_col``)
    per exact key, with ALL columns — the operator users actually want
    when "dedup" means "give me the surviving rows".

    Shape: shuffle on the key columns (a key lives in exactly one
    :func:`keyed_apply` frame), then ONE vectorized sort +
    drop_duplicates per frame — no per-group Python, no broadcast,
    shuffle volume = input size once."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*key_cols, order_col], kind="mergesort")
        return g.drop_duplicates(subset=key_cols, keep="first")

    return keyed_apply(ds, key_cols, body)


def _shingle_pairs(ds, prune, finalize):
    """The exchange behind :func:`jaccard_pairs` and
    :func:`containment_pairs`, a partitioned self hash-join (ray_guide
    "Joins and lookups"): :func:`keyed_apply` on ``shingle`` runs one
    vectorized pandas self-merge per frame of whole shingle groups into
    per-pair partial overlaps ``(doc_a, doc_b, inter, na, nb)``,
    doc_a < doc_b, kept where ``prune(na, nb)`` holds (``na``/``nb``:
    the docs' distinct-shingle counts); a second :func:`keyed_apply`
    on (doc_a, doc_b) sums them and hands the totals to ``finalize``
    (Ray's own Aggregate measured ~44k rows/s on this shape)."""

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="shingle", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        out = (m.groupby(["doc_id_a", "doc_id_b"])
                .agg(inter=("shingle", "size"),
                     na=("n_shingles_a", "first"),
                     nb=("n_shingles_b", "first"))
                .reset_index()
                .rename(columns={"doc_id_a": "doc_a", "doc_id_b": "doc_b"}))
        return out[prune(out["na"].to_numpy(), out["nb"].to_numpy())]

    def sum_finalize(g: pd.DataFrame) -> pd.DataFrame:
        return finalize(g.groupby(["doc_a", "doc_b"], sort=False)
                         .agg(inter=("inter", "sum"), na=("na", "max"),
                              nb=("nb", "max"))
                         .reset_index())

    sh = ds.map_batches(shingle_explode, batch_format="pyarrow")
    return keyed_apply(keyed_apply(sh, "shingle", pairs_in_bucket),
                       ["doc_a", "doc_b"], sum_finalize)


def jaccard_pairs(ds, threshold: float = 0.5):
    """Exact n-gram Jaccard near-dup pairs with Jaccard >= threshold.

    Returns Dataset(doc_a, doc_b, inter, uni) with doc_a < doc_b.
    threshold applied as inter/uni >= threshold using exact integer
    arithmetic (inter * 1000 >= uni * round(threshold*1000)), over
    :func:`_shingle_pairs`.
    """
    thr = round(threshold * 1000)

    def prune(na: np.ndarray, nb: np.ndarray) -> np.ndarray:
        # Exact-safe size-ratio prune: J >= t and inter <= min(na, nb)
        # imply min(na, nb) >= t * max(na, nb); incompatible-size
        # pairs can never pass the final threshold, so dropping their
        # partials here cuts the shuffle without changing the answer.
        return np.minimum(na, nb) * 1000 >= thr * np.maximum(na, nb)

    def finalize(s: pd.DataFrame) -> pd.DataFrame:
        uni = (s["na"] + s["nb"] - s["inter"]).astype("int64")
        keep = s["inter"].to_numpy() * 1000 >= uni.to_numpy() * thr
        out = pd.DataFrame({"doc_a": s["doc_a"], "doc_b": s["doc_b"],
                            "inter": s["inter"].astype("int64"),
                            "uni": uni})
        return out[keep]

    return _shingle_pairs(ds, prune, finalize)


def containment_pairs(ds, threshold: float = 0.8, *, min_shingles: int = 5):
    """DIRECTED n-gram containment pairs: C(A->B) = |sh(A) ∩ sh(B)|
    / |sh(A)| >= threshold — the asymmetric near-dup relation Jaccard
    misses (a short document quoted whole inside a long one scores
    J ≈ |A|/|B| but containment 1.0).  Returns Dataset(contained,
    container, inter, n_contained), one row PER DIRECTION that
    passes, exact integer threshold (inter*1000 >= n_a*thr_ppt),
    n_a >= min_shingles guards degenerate tiny docs.

    Scale shape: :func:`_shingle_pairs`, as for :func:`jaccard_pairs`
    — only the feasibility prune changes: a directed pass needs inter
    <= min(na, nb) >= thr*na, so pairs where NEITHER direction
    satisfies thr*min <= 1000*max drop before the second exchange."""
    thr = round(threshold * 1000)

    def prune(na: np.ndarray, nb: np.ndarray) -> np.ndarray:
        # feasibility: inter <= min(na, nb); a->b needs thr*na <=
        # 1000*min(na, nb) i.e. thr*na <= 1000*nb; b->a symmetric.
        return (thr * na <= 1000 * nb) | (thr * nb <= 1000 * na)

    def finalize(s: pd.DataFrame) -> pd.DataFrame:
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

    return _shingle_pairs(ds, prune, finalize)


# ---------------------------------------------------------------- MinHash

N_HASHES = 64
N_BANDS = 16
ROWS_PER_BAND = N_HASHES // N_BANDS
MINHASH_SEED = 1234


def _hash_family() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(MINHASH_SEED)
    a = rng.randint(1, (1 << 61) - 1, size=N_HASHES, dtype=np.uint64) | np.uint64(1)
    b = rng.randint(0, (1 << 61) - 1, size=N_HASHES, dtype=np.uint64)
    return a, b


_A, _B = _hash_family()


def minhash_batch(batch: pa.Table) -> pa.Table:
    """(id, sig: list<int64>[64]) MinHash signatures.  Docs with fewer
    than :data:`SHINGLE_K` tokens get an all-max signature (never near
    anything).  One per-row minimum per hash function: 64 O(total)
    passes instead of one Python loop + (64, m) matmul per row."""
    h, offsets = _shingle_hashes(batch)
    with np.errstate(over="ignore"):
        sigs = np.stack([
            _reduce_rows(np.minimum, (_A[i] * h + _B[i]) % MERSENNE_P,
                         offsets, MERSENNE_P)
            for i in range(N_HASHES)], axis=1)
    return pa.table({
        "doc_id": batch["doc_id"],
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).view(np.int64), pa.int64()), N_HASHES),
    })


def band_explode(batch: pa.Table) -> pa.Table:
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
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.table({
        "doc_id": pa.array(np.repeat(ids, N_BANDS)),
        "band_id": pa.array(np.tile(np.arange(N_BANDS, dtype=np.int32), n)),
        "band_hash": pa.array(acc.reshape(-1).view(np.int64), pa.int64()),
    })


def _fetch_bounded(ds, limit: int, message: str) -> pa.Table:
    """``ds``'s blocks concatenated on the driver, fetched one block at
    a time and counted as they arrive; ``ValueError(message)`` once
    more than ``limit`` rows have arrived, so an over-limit input
    moves at most ``limit`` rows plus one block, not all of it."""
    import ray

    blocks, total = [], 0
    for ref in arrow_refs(ds):
        t = ray.get(ref)
        total += t.num_rows
        if total > limit:
            raise ValueError(message)
        blocks.append(t)
    return concat_nonempty(blocks)


def lsh_candidate_pairs(ds) -> pa.Table:
    """MinHash-LSH candidate pairs: pa.Table(doc_a, doc_b, n_bands),
    one row per distinct pair, ``n_bands`` = bands it collided in.

    Pipeline: signatures -> band explode -> :func:`keyed_apply` on
    (band_id, band_hash) -> pairs per bucket -> driver-side distinct.
    Buckets past :data:`LSH_MAX_BUCKET` are skipped: that caps
    quadratic blowup from degenerate buckets (boilerplate-heavy
    corpora).  Candidate lists are bounded by construction, and their
    consumers (e.g. the verify chain) materialize them anyway, so the
    cross-partition distinct folds on the driver instead of paying a
    second all-to-all shuffle; :data:`MAX_CANDIDATE_ROWS` makes that
    bound a checked limit.
    """
    cap = LSH_MAX_BUCKET  # captured here: tasks see this value
    sigs = ds.map_batches(minhash_batch, batch_format="pyarrow")
    bands = sigs.map_batches(band_explode, batch_format="pyarrow")

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby(["band_id", "band_hash"])["doc_id"].transform("size")
        g = g[sz <= cap]
        m = g.merge(g, on=["band_id", "band_hash"], suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        out = (m.groupby(["doc_id_a", "doc_id_b"])
                .size().rename("n_bands").reset_index())
        return out.rename(columns={"doc_id_a": "doc_a",
                                   "doc_id_b": "doc_b"})

    t = _fetch_bounded(
        keyed_apply(bands, ["band_id", "band_hash"], pairs_in_part),
        MAX_CANDIDATE_ROWS,
        f"lsh_candidate_pairs: more than MAX_CANDIDATE_ROWS "
        f"({MAX_CANDIDATE_ROWS}) candidate rows; raise the limit or "
        "verify in shards")
    if t.num_columns == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "n_bands": pa.array([], pa.int64())})
    g = t.group_by(["doc_a", "doc_b"]).aggregate([("n_bands", "sum")])
    return g.rename_columns(["doc_a", "doc_b", "n_bands"])


def verify_pairs(ds, candidates: pa.Table, threshold: float = 0.5):
    """Exact-Jaccard verification of candidate near-dup pairs.

    ``candidates`` (a Table of doc_a, doc_b — e.g. from
    :func:`lsh_candidate_pairs`) are APPROXIMATE: at scale, feeding
    them straight into :func:`dedup_apply` silently deletes
    non-duplicate documents on LSH false positives.  This operator
    computes the exact n-gram Jaccard for candidate pairs only and
    keeps those at/above ``threshold``.

    Shape: semi-join the corpus to the involved doc ids (broadcast —
    candidates are small relative to the corpus; :data:`MAX_CANDIDATES`
    makes that a checked limit), run the exact bucketed pair kernel
    over that subset (cost ~ |involved|, not corpus), then intersect
    with the candidate set.  Returns Dataset(doc_a, doc_b, inter, uni).

    Above :data:`MAX_CANDIDATES` the verification runs in bounded
    WAVES instead of raising: the table is cut into zero-copy slices
    of at most MAX_CANDIDATES pairs, each slice is verified
    independently against its own semi-joined corpus subset, and the
    per-slice result datasets are unioned.  A pair lands in exactly
    one slice, so the union is exact.  Each wave re-scans the corpus
    for its semi-join — at W waves that is W corpus scans, the price
    of bounding broadcast memory.
    """
    import ray
    import ray.data

    n = candidates.num_rows
    if n > MAX_CANDIDATES:
        waves = [verify_pairs(ds, candidates.slice(i, MAX_CANDIDATES),
                              threshold)
                 for i in range(0, n, MAX_CANDIDATES)]
        return waves[0].union(*waves[1:])
    empty = _VERIFIED.empty_table()
    if n == 0:
        return ray.data.from_arrow(empty)
    a = candidates["doc_a"].to_numpy(zero_copy_only=False)
    b = candidates["doc_b"].to_numpy(zero_copy_only=False)
    involved = pa.array(np.unique(np.concatenate([a, b])))
    iref = ray.put(involved)

    def keep_involved(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch["doc_id"],
                                     value_set=ray.get(iref)))

    sub = ds.map_batches(keep_involved, batch_format="pyarrow")

    if n <= 200_000 and len(involved) <= 200_000:
        # Bounded candidate sets (the common case — that's the point
        # of LSH): pull the involved rows once and verify per-pair
        # with sorted-array intersections locally.  The distributed
        # alternative costs TWO extra all-to-all shuffles whose fixed
        # latency dwarfs this much compute.  No candidate doc id in
        # the corpus: no rows, and no pair survives.
        subset = concat_nonempty(arrow_blocks(
            sub.select_columns(["doc_id", "text"])))
        out = _jaccard_of(subset, a, b, threshold) if subset.num_rows \
            else empty
    else:
        exact_t = concat_nonempty(arrow_blocks(jaccard_pairs(sub,
                                                             threshold)))
        out = empty
        if exact_t.num_rows:
            # Intersect exact pairs among involved docs with the
            # candidate set (exact pairs between involved-but-not-
            # candidate docs must not leak through).  Both tables are
            # bounded; exact pandas merge.
            got = exact_t.to_pandas().merge(
                candidates.select(["doc_a", "doc_b"]).to_pandas(),
                on=["doc_a", "doc_b"], how="inner")
            out = pa.Table.from_pandas(got, preserve_index=False) \
                .select(_VERIFIED.names)
    return ray.data.from_arrow(out)


def _jaccard_of(subset: pa.Table, a: np.ndarray, b: np.ndarray,
                threshold: float) -> pa.Table:
    """The pairs (a[i], b[i]) whose docs are both in ``subset`` (doc_id,
    text) and whose exact shingle Jaccard is at/above ``threshold``,
    with their intersection and union sizes."""
    h, offs = _shingle_hashes(subset)
    ids = subset["doc_id"].to_numpy(zero_copy_only=False)
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
    inter = np.zeros(len(a), dtype=np.int64)
    uni = np.zeros(len(a), dtype=np.int64)
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

    # Per-doc shingles are DISTINCT (see _shingle_hashes), so the
    # distinct values of a pair's combined (A ++ B) list are A ∪ B.
    pair_ids = np.arange(len(va), dtype=np.int64)
    pairs, _, _ = _distinct_per_row(
        np.concatenate([np.repeat(pair_ids, la), np.repeat(pair_ids, lb)]),
        np.concatenate([gather(va, la), gather(vb, lb)]))
    union = np.bincount(pairs, minlength=len(va))
    inter[valid] = la + lb - union
    uni[valid] = union
    thr = round(threshold * 1000)
    keep = (uni > 0) & (inter * 1000 >= uni * thr)
    return pa.table({"doc_a": pa.array(a[keep]),
                     "doc_b": pa.array(b[keep]),
                     "inter": pa.array(inter[keep], pa.int64()),
                     "uni": pa.array(uni[keep], pa.int64())})


def simhash_near_pairs(ds, max_hamming: int = 7, *, sig_ds=None):
    """All pairs with SimHash Hamming distance <= ``max_hamming``.

    Banded by pigeonhole: the 64-bit signature splits into
    :data:`N_CHUNKS` equal bit-chunks; a pair differing in <=
    N_CHUNKS-1 bits must agree on at least one chunk, so grouping by
    (chunk_id, chunk_value) reaches **recall 1.0** for ``max_hamming <
    N_CHUNKS``, and the in-bucket exact Hamming check gives precision
    1.0 — making the distributed pair generation exactly SQL-checkable
    from the signature table.  Raises ``ValueError`` unless
    ``max_hamming < N_CHUNKS``.  ``sig_ds`` lets the caller reuse
    precomputed (id, simhash) signatures.
    """
    if not max_hamming < N_CHUNKS:
        raise ValueError(
            f"simhash_near_pairs: need max_hamming < N_CHUNKS "
            f"({N_CHUNKS}) for recall 1.0, got max_hamming={max_hamming}")
    bits = 64 // N_CHUNKS
    sigs = sig_ds if sig_ds is not None else ds.map_batches(
        simhash_batch, batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        sig = t["simhash"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        n = len(ids)
        shifts = (np.arange(N_CHUNKS, dtype=np.uint64) * np.uint64(bits))
        vals = ((sig[:, None] >> shifts[None, :])
                & np.uint64((1 << bits) - 1)).reshape(-1)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, N_CHUNKS)),
            "sig": pa.array(np.repeat(sig.view(np.int64), N_CHUNKS)),
            "chunk_id": pa.array(
                np.tile(np.arange(N_CHUNKS, dtype=np.int32), n)),
            "chunk_val": pa.array(vals.view(np.int64)),
        })

    chunks = sigs.map_batches(explode, batch_format="pyarrow")

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        # Segment-sorted numpy pair generation: a pandas self-merge
        # materializes bucket^2 full-width rows (measured 11M rows /
        # 75 s at sf0.1 under real chunk skew); triu indices + a
        # filter-before-materialize popcount keep only index arrays
        # and the surviving pairs.
        ids = g["doc_id"].to_numpy()
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
                              for c in range(N_CHUNKS)], axis=1)
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


def dedup_apply(ds, pairs, *, id_col: str = "doc_id"):
    """Keep one representative per near-dup cluster.

    ``pairs`` is a Dataset of (doc_a, doc_b) near-dup edges (from
    :func:`jaccard_pairs`, :func:`verify_pairs` or
    similarity.cosine_dup_pairs).  Connected components are computed
    driver-side — the edge list is small relative to the corpus
    (that's the point of near-dup detection), and :data:`MAX_EDGES`
    makes that assumption a checked limit instead of an implicit one —
    keeping the minimum id per cluster; the removal set is broadcast
    and applied as a vectorized anti-join filter, no shuffle."""
    import ray

    pairs = _fetch_bounded(
        pairs, MAX_EDGES,
        f"dedup_apply: the near-dup edges exceed the driver-side "
        f"component limit MAX_EDGES ({MAX_EDGES}); raise the pair "
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


def simhash_batch(batch: pa.Table) -> pa.Table:
    """(id, simhash int64): 64-bit SimHash over token hashes — bit j
    is set where the row's tokens vote it 1 at least as often as 0
    (one per-row sum of +-1 votes per bit); rows with no tokens keep
    signature 0."""
    th, offs = _token_hashes(batch)
    out = np.zeros(batch.num_rows, dtype=np.uint64)
    for j in range(64):
        votes = (((th >> np.uint64(j)) & np.uint64(1))
                 .astype(np.int64) * 2 - 1)
        bit = _reduce_rows(np.add, votes, offs, -1) >= 0
        out |= bit.astype(np.uint64) << np.uint64(j)
    return pa.table({"doc_id": batch["doc_id"],
                     "simhash": pa.array(out.view(np.int64), pa.int64())})


# ---------------------------------------------------------------------
# Fuzzy (edit-distance <= 1) similarity join
# ---------------------------------------------------------------------

_FZ_P = np.uint64(1099511628211)  # FNV-ish odd multiplier, mod 2^64


def _length_slices(lens: np.ndarray) -> list[np.ndarray]:
    """Row indices sorted by length, cut where a length exceeds
    max(2 x the slice's shortest, 16): padded to its own longest
    value, a slice costs at most 2 x its characters + 16 cells per
    row, not rows x the batch's longest value."""
    order = np.argsort(lens, kind="stable")
    s = lens[order]
    out, lo = [], 0
    while lo < len(s):
        hi = int(np.searchsorted(s, max(2 * int(s[lo]), 16), "right"))
        out.append(order[lo:hi])
        lo = hi
    return out


def _fz_pad(cp: np.ndarray, offs: np.ndarray, rows: np.ndarray,
            width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(len(rows), width) uint32 codepoint matrix of ``rows``, their
    lengths, and the flat positions of their codepoints in ``cp``."""
    lens = np.diff(offs)[rows]
    intra = (np.arange(lens.sum(), dtype=np.int64)
             - np.repeat(np.cumsum(lens) - lens, lens))
    flat = np.repeat(offs[:-1][rows], lens) + intra
    m = np.zeros((len(rows), width), np.uint32)
    m[np.repeat(np.arange(len(rows)), lens), intra] = cp[flat]
    return m, lens, flat


def _fz_slice_hashes(m: np.ndarray,
                     lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-string hash per row and deletion-variant hashes in (row,
    deleted position) order, of one padded codepoint matrix."""
    n, maxlen = m.shape
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
    # deletion at i (0 <= i < len): pre_i * P^(len-1-i) + suf[i+1]
    del_rows = np.repeat(np.arange(n), lens)
    i = (np.arange(len(del_rows), dtype=np.int64)
         - np.repeat(np.cumsum(lens) - lens, lens))
    ln = np.repeat(lens, lens)
    return suf[:, 0], pre[del_rows, i] * pw[ln - 1 - i] \
        + suf[del_rows, i + 1]


def _fz_variant_hashes(values) -> tuple[np.ndarray, np.ndarray]:
    """Deletion-neighborhood hashes: for each string s emit the
    polynomial hash of s itself AND of every single-deletion variant
    s[:i] + s[i+1:] — two strings are within edit distance 1
    (sub/ins/del) iff their variant STRING sets intersect, so hash
    equality is a complete candidate rule (collisions only ADD
    candidates; the exact verifier removes them).  Hashes combine
    precomputed prefix hashes and suffix hashes, all uint64 wrap
    arithmetic — no per-string Python — over length slices
    (:func:`_length_slices`), so one long value pads only its own
    slice.  Returns (row_idx, hash): every row's full hash, then its
    deletion hashes in (row, position) order."""
    from .text import _codepoints_arrow

    cp, offs = _codepoints_arrow(values)
    lens = np.diff(offs)
    h_full = np.zeros(len(lens), np.uint64)
    h_del = np.zeros(len(cp), np.uint64)
    for rows in _length_slices(lens):
        m, ln, flat = _fz_pad(cp, offs, rows, int(lens[rows[-1]]))
        h_full[rows], h_del[flat] = _fz_slice_hashes(m, ln)
    rows_full = np.arange(len(lens), dtype=np.int64)
    return (np.concatenate([rows_full, np.repeat(rows_full, lens)]),
            np.concatenate([h_full, h_del]).view(np.int64))


def _lev1_exact(a_vals, b_vals) -> np.ndarray:
    """Vectorized exact edit-distance<=1 check for paired string
    arrays (pa.Array or pa.ChunkedArray), all-numpy, over length
    slices of the pairs (:func:`_length_slices` on the longer side).
    Returns bool mask (distance exactly 1 for distinct values, <=1 in
    general)."""
    from .text import _codepoints_arrow

    acp, aoffs = _codepoints_arrow(a_vals)
    bcp, boffs = _codepoints_arrow(b_vals)
    longest = np.maximum(np.diff(aoffs), np.diff(boffs))
    out = np.zeros(len(longest), bool)
    for rows in _length_slices(longest):
        # width maxlen+1: the shifted-suffix compare reads X[:, 1:w]
        w = max(int(longest[rows[-1]]), 1) + 1
        A, la, _ = _fz_pad(acp, aoffs, rows, w)
        B, lb, _ = _fz_pad(bcp, boffs, rows, w)
        out[rows] = _lev1_padded(A, la, B, lb)
    return out


def _lev1_padded(A: np.ndarray, la: np.ndarray, B: np.ndarray,
                 lb: np.ndarray) -> np.ndarray:
    """Edit distance <= 1 per row of two padded codepoint matrices
    (width > every length): equal-length pairs count mismatched
    positions; length-diff-1 pairs test the classic first-mismatch /
    shifted-suffix alignment with a reverse cumulative AND."""
    n, w = A.shape
    # orient: X = longer side
    swap = lb > la
    X = np.where(swap[:, None], B, A)
    Y = np.where(swap[:, None], A, B)
    lx = np.where(swap, lb, la)
    ly = np.where(swap, la, lb)
    diff = lx - ly
    out = np.zeros(n, bool)
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


def fuzzy_pairs(ds, col: str):
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
    hashes, never values^2.

    A bucket past :data:`FUZZY_MAX_BUCKET` values raises with the
    bucket size (silently dropping such buckets broke the "all pairs
    within edit distance 1" contract undetected on corpora where many
    values share a deletion variant), so the break is LOUD."""
    cap = FUZZY_MAX_BUCKET  # captured here: tasks see this value

    def distinct_fold(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": g["v"].drop_duplicates()})

    # distinct values, frame-locally exact
    distinct = keyed_apply(
        partials(ds, ["v"], {}, lambda b: pa.table({"v": b[col]})),
        "v", distinct_fold)

    def variants(b: pa.Table) -> pa.Table:
        vals = b["v"]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        rows, hashes = _fz_variant_hashes(vals)
        return pa.table({"v": vals.take(pa.array(rows)),
                         "h": pa.array(hashes)})

    hv = distinct.map_batches(variants, batch_format="pyarrow")

    def pairs_in_part(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby("h")["v"].transform("size")
        if (sz > cap).any():
            raise ValueError(
                "fuzzy_pairs: a deletion-variant bucket holds "
                f"{int(sz.max())} values (> FUZZY_MAX_BUCKET={cap}); "
                "the all-pairs-within-edit-distance-1 contract cannot "
                "be met under the cap.")
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
