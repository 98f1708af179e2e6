"""Text-analysis operators for training-data pipelines.

Beyond the reference's own operator set (SURVEY.md §2 covers ALCO's),
these are the text ops a large-scale training-data pipeline needs:
token stats, quality scoring, language ID, document fingerprinting.
All vectorized (pyarrow.compute / numpy / pandas-hash) map_batches
bodies; langid is a stateful actor-pool class (profiles built once per
actor).

Determinism: all hashing uses ``pandas.util.hash_array`` (SipHash with
a fixed key) — stable across runs, processes and partitionings, unlike
Python's seeded ``hash``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .parse import TOKENIZE_SPLIT, tokenize
from .aggregate import fold_agg, partials
from .join import join_partitions
from .window import keyed_apply

STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "it")


def token_stats(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """(id, n_tokens, n_uniq_tokens) per document."""
    toks = tokenize(batch[text_col], batch.num_rows)
    n = pc.cast(pc.list_value_length(toks), pa.int64())
    # distinct count per list: flatten -> (parent, token) -> local groupby
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    t = pa.table({"p": parents, "tok": flat})
    uniq = (t.group_by(["p", "tok"]).aggregate([])
            .group_by(["p"]).aggregate([([], "count_all")]))
    counts = np.zeros(batch.num_rows, dtype=np.int64)
    counts[uniq["p"].to_numpy()] = uniq["count_all"].to_numpy()
    return pa.table({
        id_col: batch[id_col],
        "n_tokens": n,
        "n_uniq_tokens": pa.array(counts, pa.int64()),
    })


def repetition_stats(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Gopher-style repetition signals per document (the quality gate
    that kills boilerplate/templated text): total bigram count,
    DISTINCT bigram count, and the frequency of the single most
    repeated bigram.  Consumers derive the published ratios
    (dup-bigram fraction = 1 - distinct/total, top-bigram fraction =
    top/total) — integers only leave this stage so distributed and
    oracle results compare bit-for-bit.

    Fully vectorized: token SipHashes -> one polynomial combine for
    every adjacent pair -> per-(row, bigram) run-length counts from a
    single lexsort.  Bigram identity is its 64-bit hash (the same
    negligible-collision trade the fingerprint family pins)."""
    toks = tokenize(batch[text_col], batch.num_rows)
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    offs = np.asarray(toks.offsets).astype(np.int64)
    n = batch.num_rows
    lens = np.diff(offs)
    counts = np.maximum(lens - 1, 0)
    total = int(counts.sum())
    n_distinct = np.zeros(n, np.int64)
    top = np.zeros(n, np.int64)
    if total:
        h = hash_tokens(flat)
        with np.errstate(over="ignore"):
            acc = h[:-1] * _TRIGRAM_B + h[1:]
        seg_base = np.repeat(offs[:-1], counts)
        cum0 = np.concatenate([[0], np.cumsum(counts)[:-1]])
        intra = np.arange(total, dtype=np.int64) - np.repeat(cum0, counts)
        bh = acc[seg_base + intra]
        row = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((bh, row))
        rv, vv = row[order], bh[order]
        new = np.ones(total, dtype=bool)
        new[1:] = (vv[1:] != vv[:-1]) | (rv[1:] != rv[:-1])
        grp_rows = rv[new]
        grp_counts = np.diff(np.append(np.flatnonzero(new), total))
        n_distinct = np.bincount(grp_rows, minlength=n)
        np.maximum.at(top, grp_rows, grp_counts)
    return pa.table({
        id_col: batch[id_col],
        "n_bigrams": pa.array(counts, pa.int64()),
        "n_distinct_bigrams": pa.array(n_distinct, pa.int64()),
        "top_bigram_n": pa.array(top, pa.int64()),
    })


def token_explode(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """(id, token) — one row per token occurrence (P4 flattened)."""
    toks = tokenize(batch[text_col], batch.num_rows)
    parents = pc.list_parent_indices(toks)
    ids = pc.take(batch[id_col].combine_chunks()
                  if isinstance(batch[id_col], pa.ChunkedArray)
                  else batch[id_col], parents)
    return pa.table({id_col: ids, "token": pc.list_flatten(toks)})


def chunk_documents(batch: pa.Table, chunk_size: int = 64,
                    text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Context-window chunking: split each document into consecutive
    ``chunk_size``-token windows (last window may be short; empty docs
    emit nothing).  The pretraining prep step that turns variable-
    length documents into model-context rows — the inverse of
    pack_greedy, which merges short docs UP to a budget.

    Fully vectorized and embarrassingly parallel: one tokenize pass,
    then the chunk list-array is rebuilt directly over the flat token
    buffer with numpy-computed offsets (chunks tile each document's
    token range exactly, so the boundaries ARE the offsets — no
    per-chunk gather, no Python loop), and ``pc.binary_join`` emits
    the chunk text.  Stateless per batch: at 100 TB this runs as a
    plain map with zero shuffle."""
    toks = tokenize(batch[text_col], batch.num_rows)
    offs = np.asarray(toks.offsets, dtype=np.int64)
    n_tok = np.diff(offs)
    n_chunks = -(-n_tok // chunk_size)  # ceil; 0 for empty docs
    total = int(n_chunks.sum())
    if total == 0:
        return pa.table({
            id_col: pa.array([], batch[id_col].type),
            "chunk_idx": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string()),
        })
    doc_idx = np.repeat(np.arange(batch.num_rows), n_chunks)
    first_chunk = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
    chunk_idx = np.arange(total, dtype=np.int64) - first_chunk[doc_idx]
    start = offs[doc_idx] + chunk_idx * chunk_size
    end = np.minimum(start + chunk_size, offs[doc_idx + 1])
    # consecutive chunks tile the flat token array (end[i] == start[i+1]
    # within a doc and across docs, empty docs contributing nothing), so
    # the list array is just (starts + final end) over the same buffer.
    bounds = np.concatenate([start, end[-1:]])
    lists = pa.ListArray.from_arrays(
        pa.array(bounds, pa.int64()).cast(pa.int32()), toks.values)
    ids = batch[id_col].combine_chunks() if isinstance(
        batch[id_col], pa.ChunkedArray) else batch[id_col]
    return pa.table({
        id_col: pc.take(ids, pa.array(doc_idx)),
        "chunk_idx": pa.array(chunk_idx, pa.int64()),
        "n_tokens": pa.array(end - start, pa.int64()),
        "chunk_text": pc.binary_join(lists, " "),
    })


def quality_score(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """Integer-exact quality features per document.

    All outputs are int64 so distributed and oracle results compare
    bit-for-bit (no float-sum order effects): character length, token
    count, stopword count, alphabetic character count, and
    ``alpha_ratio_millis`` = floor(1000 * alpha_chars / max(1, chars)).
    """
    text = batch[text_col]
    toks = tokenize(text, batch.num_rows)
    n_tokens = pc.cast(pc.list_value_length(toks), pa.int64())

    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    is_stop = pc.is_in(flat, value_set=pa.array(list(STOPWORDS)))
    stops = np.zeros(batch.num_rows, dtype=np.int64)
    np.add.at(stops, parents.to_numpy(zero_copy_only=False),
              is_stop.to_numpy(zero_copy_only=False).astype(np.int64))

    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    n_alpha = pc.cast(pc.count_substring_regex(text, "[a-zA-Z]"), pa.int64())
    denom = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
    ratio = pc.divide(pc.multiply(n_alpha, pa.scalar(1000, pa.int64())), denom)
    return pa.table({
        id_col: batch[id_col],
        "n_chars": n_chars,
        "n_tokens": n_tokens,
        "n_stopwords": pa.array(stops, pa.int64()),
        "n_alpha": n_alpha,
        "alpha_ratio_millis": ratio,
    })


def hash_tokens(tokens: np.ndarray) -> np.ndarray:
    """Deterministic uint64 hash per token (vectorized SipHash)."""
    return pd.util.hash_array(tokens.astype(object), categorize=False)


def hash_strings(arr: pa.Array) -> np.ndarray:
    """Deterministic uint64 hash per element of an Arrow string array.

    Prefers polars' native hash kernel (zero Python-object round trip
    — the string buffers are hashed in place); job-internal use only
    (never persisted), so cross-version hash stability is not needed.
    Falls back to :func:`hash_tokens` when polars is unavailable."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    try:
        import polars as pl
        return pl.from_arrow(arr).hash(seed=0) \
            .to_numpy().astype(np.uint64, copy=False)
    except ImportError:  # pragma: no cover - polars is baked in
        return hash_tokens(arr.to_numpy(zero_copy_only=False))


def segmented_window_hashes(vals: np.ndarray, offs: np.ndarray, k: int,
                            B: np.uint64, mod: np.uint64 | None = None,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """DISTINCT k-window polynomial hashes per segment, fully vectorized.

    ``vals`` is a flat uint64 array segmented by ``offs`` (len =
    n_segments + 1).  For every length-k window that lies wholly inside
    one segment, hash = order-sensitive polynomial combine of its k
    values (wrap-mod 2^64, then optionally ``% mod``); per segment the
    hashes are deduplicated and sorted.  Returns (flat uint64 hashes,
    int64 offsets).  One O(total) pass — no per-segment Python loop.
    Shared by token shingling (dedup) and char-trigram langid.
    """
    n_seg = len(offs) - 1
    lens = np.diff(offs)
    counts = np.maximum(lens - k + 1, 0)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, np.uint64), np.zeros(n_seg + 1, np.int64)
    N = len(vals)
    with np.errstate(over="ignore"):
        acc_all = vals[: N - k + 1].copy()
        for j in range(1, k):
            acc_all = acc_all * B + vals[j: N - k + 1 + j]
        if mod is not None:
            acc_all %= mod
    # Window-start index per (segment, intra-window): offs[s] + intra.
    seg_base = np.repeat(offs[:-1], counts)
    cum0 = np.concatenate([[0], np.cumsum(counts)[:-1]])
    intra = np.arange(total, dtype=np.int64) - np.repeat(cum0, counts)
    win = acc_all[seg_base + intra]
    row_id = np.repeat(np.arange(n_seg, dtype=np.int64), counts)
    # Per-segment sorted-unique: lexsort by (segment, hash), drop
    # consecutive duplicates within a segment.
    order = np.lexsort((win, row_id))
    rv, vv = row_id[order], win[order]
    keep = np.ones(total, dtype=bool)
    keep[1:] = (vv[1:] != vv[:-1]) | (rv[1:] != rv[:-1])
    out_vals, out_rows = vv[keep], rv[keep]
    out_counts = np.bincount(out_rows, minlength=n_seg)
    offsets = np.concatenate([[0], np.cumsum(out_counts)])
    return out_vals, offsets.astype(np.int64)


_TRIGRAM_B = np.uint64(0x9E3779B97F4A7C15)


def _codepoints(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Flat uint32 code-point array + per-text int64 offsets.

    One C-level pass: join, encode utf-32-le, frombuffer — no
    per-character Python.  Offsets come from per-text ``len`` (Python
    len counts code points, matching utf-32's 4 bytes per point)."""
    joined = "".join(texts)
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64,
                       count=len(texts))
    return cp, np.concatenate([[0], np.cumsum(lens)])


def _codepoints_arrow(arr) -> tuple[np.ndarray, np.ndarray]:
    """Flat uint32 code-point array + per-string int64 offsets, decoded
    straight from the Arrow string buffers — no ``to_pylist()``, no
    Python-object materialization of the text column.

    Vectorized UTF-8 decode: classify each byte's payload bits, assign
    bytes to characters with one cumsum over start-byte flags, then sum
    ``payload << 6*(bytes_after_it_in_char)`` per character (exact in
    float64: every addend < 2^21, totals < 2^21).  Matches
    :func:`_codepoints` bit-for-bit on valid UTF-8."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    width = 8 if pa.types.is_large_string(arr.type) else 4
    odt = np.int64 if width == 8 else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=odt, count=len(arr) + 1,
                         offset=arr.offset * width).astype(np.int64)
    data = arr.buffers()[2]
    b = (np.frombuffer(data, dtype=np.uint8)[offs[0]:offs[-1]]
         if data is not None and offs[-1] > offs[0]
         else np.zeros(0, np.uint8))
    offs = offs - offs[0]
    is_start = (b & 0xC0) != 0x80
    starts_cum = np.concatenate([[0], np.cumsum(is_start)])
    str_offs = starts_cum[offs].astype(np.int64)
    if not len(b):
        return np.zeros(0, np.uint32), str_offs
    char_id = starts_cum[1:] - 1
    nchars = int(char_id[-1]) + 1
    val = np.where(b < 0x80, b,
          np.where((b & 0xE0) == 0xC0, b & 0x1F,
          np.where((b & 0xF0) == 0xE0, b & 0x0F,
          np.where((b & 0xF8) == 0xF0, b & 0x07,
                   b & 0x3F)))).astype(np.int64)
    start_pos = np.flatnonzero(is_start)
    char_len = np.diff(np.append(start_pos, len(b)))
    pos_in_char = np.arange(len(b), dtype=np.int64) - start_pos[char_id]
    shift = (char_len[char_id] - 1 - pos_in_char) * 6
    cp = np.bincount(char_id, weights=(val << shift).astype(np.float64),
                     minlength=nchars).astype(np.uint32)
    return cp, str_offs


def _trigram_set(text: str) -> np.ndarray:
    """Sorted distinct char-trigram hashes of one string."""
    cp, offs = _codepoints([text])
    h, _ = segmented_window_hashes(cp.astype(np.uint64), offs, 3, _TRIGRAM_B)
    return h


def fingerprint(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """Rolling polynomial fingerprint of the token stream -> int64.

    fp(doc) = sum_i h(tok_i) * B^(n-1-i)  (mod 2^64), B odd constant.
    Order-sensitive (unlike a bag-of-tokens hash) and mergeable by
    blocks if ever needed.  Returned as int64 (reinterpreted bits) so
    it round-trips Parquet/SQL engines without unsigned-type trouble.
    """
    toks = tokenize(batch[text_col], batch.num_rows)
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    offsets = np.asarray(toks.offsets).astype(np.int64)
    h = hash_tokens(flat) if len(flat) else np.zeros(0, np.uint64)

    # Horner vectorized: fp = sum h_i * B^(L-1-i) over each segment,
    # via a precomputed power table + one segmented reduceat.
    B = np.uint64(0x100000001B3)  # FNV prime, odd
    lens = np.diff(offsets)
    max_len = int(lens.max()) if len(lens) else 0
    with np.errstate(over="ignore"):
        powtab = np.ones(max_len + 1, dtype=np.uint64)
        for k in range(1, max_len + 1):
            powtab[k] = powtab[k - 1] * B
        if len(flat):
            pos = np.arange(len(flat), dtype=np.int64)
            seg_end = np.repeat(offsets[1:], lens)
            exp = seg_end - 1 - pos
            contrib = h * powtab[exp]
            # reduceat over NON-empty segment starts only: empty
            # segments contribute no flat elements, so consecutive
            # non-empty starts are contiguous element ranges.  (Feeding
            # empty/clamped starts to reduceat shifts the previous
            # segment's end and silently corrupts its fingerprint.)
            out = np.zeros(batch.num_rows, dtype=np.uint64)
            nonempty = lens > 0
            out[nonempty] = np.add.reduceat(contrib,
                                            offsets[:-1][nonempty])
        else:
            out = np.zeros(batch.num_rows, dtype=np.uint64)
    return pa.table({id_col: batch[id_col],
                     "fingerprint": pa.array(out.view(np.int64), pa.int64())})


def fingerprint_dups(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Documents whose token-stream fingerprint collides with another's:
    (doc_id, rep_doc_id = min id of the colliding group) — one row per
    member of every dup group, representatives included.

    Fingerprint equality <=> token-stream equality (64-bit rolling
    hash; collisions are the usual negligible-risk trade), so this is
    the content-identity dedup view.  Shape: map-side fingerprints ->
    groupby(fingerprint) to find dup groups -> hash-shuffle join of the
    (small) dup-group table back to the fingerprint rows — both sides
    partition on the same key, no broadcast of an unbounded set."""
    fps = ds.map_batches(
        lambda b: fingerprint(b, text_col, id_col), batch_format="pyarrow")

    def dup_reps(g: pd.DataFrame) -> pd.DataFrame:
        # frame-local group stats (a fingerprint lives in exactly one
        # frame); Ray's Aggregate measures ~44k rows/s here
        out = (g.groupby("fingerprint", sort=False)
                .agg(rep_doc_id=(id_col, "min"), n=(id_col, "size"))
                .reset_index())
        return out.loc[out["n"] > 1, ["fingerprint", "rep_doc_id"]]

    dup_groups = keyed_apply(fps, "fingerprint", dup_reps).materialize()
    if dup_groups.count() == 0:
        # A fully-empty join side crashes Ray's hash join (ray 2.49.2:
        # ArrowInvalid "no match for key field on right side"); a
        # dup-free corpus is a 0-row answer, not a crash.
        import ray.data

        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "rep_doc_id": pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)
    joined = fps.join(dup_groups, "inner", num_partitions=join_partitions(),
                      on=("fingerprint",))
    return joined.select_columns([id_col, "rep_doc_id"])


# Character-trigram profiles per language, built deterministically from
# tiny embedded seed text.  This is a heuristic n-gram language ID
# (stub-grade: real pipelines plug a model here); the Ray plumbing —
# stateful actor pool, vectorized scoring — is the real part.
_LANG_SEEDS = {
    "en": "the quick brown fox jumps over the lazy dog and this is a test of english text",
    "de": "der schnelle braune fuchs springt über den faulen hund und dies ist ein deutscher text",
    "fr": "le renard brun rapide saute par dessus le chien paresseux et ceci est un texte francais",
    "es": "el rapido zorro marron salta sobre el perro perezoso y este es un texto en espanol",
    "ru": "быстрая коричневая лиса прыгает через ленивую собаку и это русский текст",
    "zh": "敏捷的棕色狐狸跳过懒狗这是一个中文文本测试",
}


class LangId:
    """Actor-pool language-ID stage: char-trigram hash profiles built
    once per actor in ``__init__`` (the model-load analog); per-batch
    scoring is fully vectorized — one segmented trigram-hash pass over
    the whole batch, then one ``np.isin`` + segmented sum per language
    (no per-row Python).  Prediction = argmax distinct-trigram overlap,
    ties broken by sorted language order."""

    def __init__(self, langs: dict[str, str] | None = None):
        seeds = langs or _LANG_SEEDS
        self.profiles: dict[str, np.ndarray] = {
            lang: _trigram_set(seed.lower()) for lang, seed in seeds.items()
        }
        self.langs = sorted(self.profiles)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lowered = pc.utf8_lower(
            pc.coalesce(batch["text"], pa.scalar("", pa.string())))
        cp, offs = _codepoints_arrow(lowered)
        grams, goffs = segmented_window_hashes(
            cp.astype(np.uint64), offs, 3, _TRIGRAM_B)
        n = batch.num_rows
        lens = np.diff(goffs)
        nonempty = lens > 0
        starts = goffs[:-1][nonempty]
        scores = np.zeros((n, len(self.langs)), dtype=np.int64)
        if len(grams) and len(starts):
            for j, lang in enumerate(self.langs):
                hit = np.isin(grams, self.profiles[lang]).astype(np.int64)
                scores[nonempty, j] = np.add.reduceat(hit, starts)
        best = np.argmax(scores, axis=1)  # first max == sorted-order tie
        return pa.table({
            "doc_id": batch["doc_id"],
            "pred_lang": pa.array([self.langs[i] for i in best], pa.string()),
            "score": pa.array(scores[np.arange(n), best], pa.int64()),
        })


def tf_df(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Integer-exact IR stats: (doc_id, token, tf, df) — term frequency
    per document and document frequency per token (the TF-IDF
    precursor; the float weighting is a trivial map the consumer
    applies, kept out so results stay bit-for-bit comparable).

    Shape: per-batch (doc, token, tf) partials (a document lives
    wholly in one batch), then shuffle on token — a token's rows
    co-locate, so df is a frame-local distinct count."""

    def explode(b: pa.Table) -> pa.Table:
        return token_explode(b, text_col, id_col)

    tf = partials(ds, [id_col, "token"], {"tf": ([], "count_all")}, explode)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        out = g[[id_col, "token", "tf"]].copy()
        out["tf"] = out["tf"].astype("int64")
        # df = number of (doc, token) rows per token (distinct docs by
        # construction: tf rows are already per-(doc, token))
        out["df"] = g.groupby("token")["token"].transform("size") \
            .astype("int64")
        return out

    return keyed_apply(tf, "token", body)


def ngram_counts(ds, *, n: int = 2, text_col: str = "text"):
    """Corpus-wide n-gram frequency table ``(gram, cnt)`` — the
    language-model co-occurrence / collocation primitive (top-k
    bigrams, contamination n-gram banks, PMI inputs).

    Shape: per-batch partial counts — tokens flatten once, every
    adjacent ``n``-window whose rows share a parent document joins in
    ONE ``binary_join_element_wise`` call (no Python loop over rows or
    grams) — then a gram-keyed :func:`keyed_apply` fold, because the
    gram domain is unbounded (driver folds are reserved for bounded
    key domains).
    Shuffle volume is the pre-aggregated per-batch distinct grams, not
    the token stream."""
    sep = pa.scalar(" ", pa.string())

    def ngrams(b: pa.Table) -> pa.Table:
        empty = pa.table({"gram": pa.array([], pa.string())})
        if b.num_rows == 0:
            return empty
        toks = tokenize(b[text_col], b.num_rows)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        m = len(flat)
        if m < n:
            return empty
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        # windows [i, i+n) staying inside one document: first and last
        # parent equal (parents are non-decreasing)
        mask = pa.array(par[: m - (n - 1)] == par[n - 1:])
        pieces = [flat.slice(i, m - (n - 1)).filter(mask) for i in range(n)]
        grams = pieces[0]
        for p in pieces[1:]:
            grams = pc.binary_join_element_wise(grams, p, sep)
        return pa.table({"gram": grams})

    counts = partials(ds, ["gram"], {"cnt": ([], "count_all")}, ngrams)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("gram", as_index=False, sort=False)["cnt"].sum())
        out["cnt"] = out["cnt"].astype("int64")
        return out

    return keyed_apply(counts, "gram", fold)


# ------------------------------------------------------- learned langid
# The seed-profile LangId above is honestly stub-grade (6 embedded
# exemplars).  This is the REAL path: profiles are FIT from labeled
# data with a distributed document-frequency fold, and the whole
# fit + predict chain is integer-exact, so a SQL oracle can replay it
# end-to-end (see d_lang_id_learned).

_GRAM_RADIX = np.int64(1) << 21  # > max Unicode codepoint (0x10FFFF)


def _char_trigrams_distinct(arr) -> tuple[np.ndarray, np.ndarray]:
    """Per-row DISTINCT character-trigram codes + int64 offsets,
    decoded straight from the Arrow buffers (no ``to_pylist``).

    Code = c0*R^2 + c1*R + c2 with R = 2^21: injective over Unicode,
    and integer order equals UTF-8 lexicographic order (UTF-8 is
    order-preserving), so tie-breaks on the code match SQL's binary
    string collation exactly."""
    cp, offs = _codepoints_arrow(arr)
    n = len(offs) - 1
    cp64 = cp.astype(np.int64)
    total = len(cp64)
    if total < 3:
        return np.zeros(0, np.int64), np.zeros(n + 1, np.int64)
    w = (cp64[:-2] * (_GRAM_RADIX * _GRAM_RADIX)
         + cp64[1:-1] * _GRAM_RADIX + cp64[2:])
    pos = np.arange(total - 2, dtype=np.int64)
    owner = np.searchsorted(offs, pos, side="right") - 1
    valid = (pos + 3) <= offs[owner + 1]
    g, row = w[valid], owner[valid]
    order = np.lexsort((g, row))
    g, row = g[order], row[order]
    if len(g):
        keep = np.ones(len(g), bool)
        keep[1:] = (g[1:] != g[:-1]) | (row[1:] != row[:-1])
        g, row = g[keep], row[keep]
    counts = np.bincount(row, minlength=n) if len(row) else \
        np.zeros(n, np.int64)
    goffs = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return g, goffs


def fit_trigram_profiles(ds, *, text_col: str = "text",
                         lang_col: str = "lang", k: int = 50,
                         ) -> dict[str, np.ndarray]:
    """LEARN language profiles from labeled data: per-(lang, gram)
    DOCUMENT frequency via map-side distinct-gram partials folded
    driver-side (bounded: |langs| x distinct grams in the corpus),
    then the top-``k`` grams per language (df DESC, gram ASC — the
    collation-parity tie-break).  Returns lang -> sorted gram codes.

    Scale: the fold is the only cross-node traffic and it moves
    (lang, gram, partial-df) rows, never text; at an unbounded gram
    domain switch the fold to a gram-hash partition (the tf_df
    shape)."""
    import ray

    def grams(b: pa.Table) -> pa.Table:
        g, goffs = _char_trigrams_distinct(b[text_col])
        counts = np.diff(goffs)
        langs = b[lang_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "lang": pa.array(np.repeat(langs, counts)),
            "gram": pa.array(g, pa.int64()),
        })

    folded = fold_agg(
        ds, ["lang", "gram"], {"df": ([], "count_all")}, grams,
        empty_schema=pa.schema([("lang", pa.string()),
                                ("gram", pa.int64()),
                                ("df", pa.int64())]))
    df = folded.to_pandas()
    profiles: dict[str, np.ndarray] = {}
    for lang, grp in df.groupby("lang", sort=True):
        top = grp.sort_values(["df", "gram"],
                              ascending=[False, True]).head(k)
        profiles[str(lang)] = np.sort(top["gram"].to_numpy())
    return profiles


def predict_lang_learned(ds, profiles: dict[str, np.ndarray], *,
                         text_col: str = "text", id_col: str = "doc_id"):
    """Score every document against the LEARNED profiles: distinct
    trigram codes per doc, one ``np.isin`` + segmented sum per
    language, argmax with sorted-language tie-break; documents with
    zero overlap against every profile predict '' (no evidence beats a
    wrong guess).  Profiles broadcast once via ``ray.put``."""
    import ray

    langs = sorted(profiles)
    if not langs:
        return ds.map_batches(
            lambda b: pa.table({
                id_col: b[id_col],
                "pred_lang": pa.array([""] * b.num_rows, pa.string())}),
            batch_format="pyarrow")
    pref = ray.put({ln: np.sort(np.asarray(profiles[ln], np.int64))
                    for ln in langs})

    def body(b: pa.Table) -> pa.Table:
        profs = ray.get(pref)
        g, goffs = _char_trigrams_distinct(b[text_col])
        n = b.num_rows
        lens = np.diff(goffs)
        nonempty = lens > 0
        starts = goffs[:-1][nonempty]
        scores = np.zeros((n, len(langs)), np.int64)
        if len(g) and len(starts):
            for j, ln in enumerate(langs):
                hit = np.isin(g, profs[ln]).astype(np.int64)
                scores[nonempty, j] = np.add.reduceat(hit, starts)
        best = np.argmax(scores, axis=1)  # first max == sorted-lang tie
        pred = np.array(langs, dtype=object)[best]
        pred[scores.max(axis=1) == 0] = ""
        return pa.table({
            id_col: b[id_col],
            "pred_lang": pa.array(list(pred), pa.string()),
        })

    return ds.map_batches(body, batch_format="pyarrow")


def _char_trigrams_all(arr) -> tuple[np.ndarray, np.ndarray]:
    """Per-row character-trigram codes WITH multiplicity (every
    position, in order) + int64 row offsets — the with-duplicates
    sibling of :func:`_char_trigrams_distinct`, same code encoding."""
    cp, offs = _codepoints_arrow(arr)
    n = len(offs) - 1
    cp64 = cp.astype(np.int64)
    total = len(cp64)
    if total < 3:
        return np.zeros(0, np.int64), np.zeros(n + 1, np.int64)
    w = (cp64[:-2] * (_GRAM_RADIX * _GRAM_RADIX)
         + cp64[1:-1] * _GRAM_RADIX + cp64[2:])
    pos = np.arange(total - 2, dtype=np.int64)
    owner = np.searchsorted(offs, pos, side="right") - 1
    valid = (pos + 3) <= offs[owner + 1]
    g, row = w[valid], owner[valid]
    counts = np.bincount(row, minlength=n) if len(row) else \
        np.zeros(n, np.int64)
    goffs = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return g, goffs


def fit_background_trigrams(ds, *, text_col: str = "text",
                            k: int = 200) -> np.ndarray:
    """LEARN a single background language-model profile: the top-``k``
    lowercase character trigrams by corpus DOCUMENT frequency (df DESC,
    gram ASC — the collation-parity tie-break), as sorted int64 codes.

    The unsupervised sibling of :func:`fit_trigram_profiles`: per-batch
    distinct-gram partials fold driver-side (bounded: distinct
    lowercase trigrams in the corpus, alphabet-cubed in practice; at an
    unbounded gram domain switch the fold to a gram-hash partition —
    the tf_df shape)."""
    def grams(b: pa.Table) -> pa.Table:
        lowered = pc.utf8_lower(
            pc.coalesce(b[text_col], pa.scalar("", pa.string())))
        g, goffs = _char_trigrams_distinct(lowered)
        return pa.table({"gram": pa.array(g, pa.int64())})

    folded = fold_agg(
        ds, ["gram"], {"df": ([], "count_all")}, grams,
        empty_schema=pa.schema([("gram", pa.int64()),
                                ("df", pa.int64())]))
    df = folded.to_pandas()
    top = df.sort_values(["df", "gram"],
                         ascending=[False, True]).head(k)
    return np.sort(top["gram"].to_numpy().astype(np.int64))


def trigram_coverage(ds, profile: np.ndarray, *, text_col: str = "text",
                     id_col: str = "doc_id"):
    """Score every document under the background profile: the share of
    its lowercase trigram POSITIONS (with multiplicity) whose gram is
    in the profile — the cheap stand-in for LM perplexity that a
    quality-filtering pipeline thresholds on.  Integer hit/total counts
    ride along so the float share is one IEEE division of the same two
    integers on any engine.  Profile broadcast once via ``ray.put``."""
    import ray

    pref = ray.put(np.sort(np.asarray(profile, np.int64)))

    def body(b: pa.Table) -> pa.Table:
        prof = ray.get(pref)
        lowered = pc.utf8_lower(
            pc.coalesce(b[text_col], pa.scalar("", pa.string())))
        g, goffs = _char_trigrams_all(lowered)
        lens = np.diff(goffs)
        hits = np.zeros(b.num_rows, np.int64)
        nonempty = lens > 0
        starts = goffs[:-1][nonempty]
        if len(g) and len(starts):
            hit = np.isin(g, prof).astype(np.int64)
            hits[nonempty] = np.add.reduceat(hit, starts)
        score = np.divide(hits, lens, out=np.zeros(len(lens), np.float64),
                          where=lens > 0)
        return pa.table({
            id_col: b[id_col],
            "n_grams": pa.array(lens.astype(np.int64)),
            "n_hits": pa.array(hits),
            "lm_score": pa.array(score, pa.float64()),
        })

    return ds.map_batches(body, batch_format="pyarrow")


def cross_doc_ngram_share(ds, *, n: int = 5, text_col: str = "text",
                          id_col: str = "doc_id"):
    """Per-document CROSS-document duplication rate: the share of a
    document's DISTINCT word ``n``-grams that also occur in at least
    one OTHER document — the substring-level contamination/boilerplate
    signal (cf. Lee et al., "Deduplicating Training Data Makes
    Language Models Better", ACL'22) at n-gram granularity.

    Shape: per-batch (doc, gram-hash) distinct partials (a document
    lives wholly in one batch; :func:`segmented_window_hashes` emits
    the per-doc DISTINCT uint64 window hashes directly, so no literal
    gram string is ever materialized or shuffled — 8 bytes/gram on the
    wire) -> gram-hash frames where a gram's document frequency is
    frame-locally exact; each frame PRE-FOLDS to per-doc
    (grams-seen, grams-shared) counts, so the second (doc-keyed)
    exchange moves <= |docs| rows per frame, not the gram stream.
    Documents shorter than ``n`` tokens surface with zero counts via a
    doc-id base union — no driver materialization anywhere.  The SQL
    oracle replays the literal-gram rule; divergence requires a 64-bit
    cross-gram collision (P ~ G^2/2^65).  Output: (doc_id, n_grams,
    n_dup, dup_share)."""

    def gram_partial(b: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], b[id_col].type),
                          "gram": pa.array([], pa.uint64())})
        if b.num_rows == 0:
            return empty
        toks = tokenize(b[text_col], b.num_rows)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if len(flat) < n:
            return empty
        hv = hash_strings(flat)
        offs = np.asarray(toks.offsets, np.int64)
        win, woffs = segmented_window_hashes(hv, offs, n, _TRIGRAM_B)
        owners = np.repeat(np.arange(b.num_rows, dtype=np.int64),
                           np.diff(woffs))
        return pa.table({id_col: pc.take(b[id_col], pa.array(owners)),
                         "gram": pa.array(win)})

    grams = ds.map_batches(gram_partial, batch_format="pyarrow")

    def gram_fold(g: pd.DataFrame) -> pd.DataFrame:
        df_size = g.groupby("gram")["gram"].transform("size")
        out = (g.assign(_dup=(df_size > 1).astype("int64"),
                        _one=np.ones(len(g), np.int64))
               .groupby(id_col, as_index=False)
               .agg(gp=("_one", "sum"), dp=("_dup", "sum")))
        return out

    per_part = keyed_apply(grams, "gram", gram_fold)
    base = ds.map_batches(
        lambda b: pa.table({
            id_col: b[id_col],
            "gp": pa.array(np.zeros(b.num_rows, np.int64)),
            "dp": pa.array(np.zeros(b.num_rows, np.int64))}),
        batch_format="pyarrow")

    def doc_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(id_col, as_index=False)
               .agg(n_grams=("gp", "sum"), n_dup=("dp", "sum")))
        ng = out["n_grams"].to_numpy().astype(np.int64)
        nd = out["n_dup"].to_numpy().astype(np.int64)
        out["n_grams"] = ng
        out["n_dup"] = nd
        out["dup_share"] = np.divide(
            nd, ng, out=np.zeros(len(ng), np.float64), where=ng > 0)
        return out

    return keyed_apply(per_part.union(base), id_col, doc_fold)


def dup_span_mask(ds, *, n: int = 5, text_col: str = "text",
                  id_col: str = "doc_id"):
    """Cross-document duplicated-SPAN removal — the APPLY step of
    exact substring dedup (Lee et al., "Deduplicating Training Data
    Makes Language Models Better", ACL'22): every token position
    covered by a word ``n``-gram that occurs in >= 2 DISTINCT
    documents is masked, and the document is re-emitted without those
    spans.  Sibling of :func:`cross_doc_ngram_share` (which only
    SCORES the duplication).

    Grams travel through the gram-keyed exchange as uint64 ROLLING
    HASHES (per-token :func:`hash_strings` values combined by the same
    order-sensitive polynomial as :func:`segmented_window_hashes`),
    NOT literal strings — shuffle volume is 8 bytes/window instead of
    ~n x the corpus text bytes, which is what makes this exchange
    survivable at 100 TB.  The SQL oracle replays the literal-gram
    rule; a divergence needs two DIFFERENT n-grams colliding on 64
    bits inside one frequency test (P ~ G^2/2^65 — vanishing at any
    testable scale, and an error only ADDS a masked span, never drops
    one).

    Shape: two :func:`keyed_apply` exchanges —

    1. gram-keyed: every gram OCCURRENCE (doc, start position) ships
       to its gram hash's frame, where distinct-doc frequency is
       frame-locally exact and only occurrences of shared grams
       survive (volume out <= volume in, usually far less);
    2. doc-keyed: surviving (doc, pos) masks meet the document text
       rows; the per-frame kernel re-tokenizes (the SAME
       tokenizer), unions the [pos, pos+n) intervals with one
       interval-diff pass over the flat token array, and rebuilds
       ``clean_text`` with Arrow filter + ``pc.binary_join`` — no
       per-document Python loop.

    Output: (doc_id, n_tokens, n_masked, clean_text) for EVERY doc.
    """
    import pandas as pd

    B = _TRIGRAM_B

    def occ_partial(b: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "gram": pa.array([], pa.uint64()),
                          "pos": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        toks = tokenize(b[text_col], b.num_rows)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        m = len(flat)
        if m < n:
            return empty
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        mask_np = par[: m - (n - 1)] == par[n - 1:]
        hv = hash_strings(flat)
        with np.errstate(over="ignore"):
            acc = hv[: m - (n - 1)].copy()
            for j in range(1, n):
                acc = acc * B + hv[j: m - (n - 1) + j]
        owners = par[: m - (n - 1)][mask_np]
        # window start relative to the doc's first flat token (par is
        # nondecreasing, so searchsorted finds each doc's base index)
        pos = np.flatnonzero(mask_np) - np.searchsorted(par, owners,
                                                        side="left")
        return pa.table({
            id_col: pc.take(b[id_col], pa.array(owners)),
            "gram": pa.array(acc[mask_np]),
            "pos": pa.array(pos.astype(np.int64)),
        })

    occurrences = ds.map_batches(occ_partial, batch_format="pyarrow")

    def gram_keep(g: pd.DataFrame) -> pd.DataFrame:
        shared = g.groupby("gram")[id_col].transform("nunique") > 1
        out = g.loc[shared, [id_col, "pos"]]
        return pd.DataFrame({id_col: out[id_col].to_numpy(np.int64),
                             "pos": out["pos"].to_numpy(np.int64)})

    masks = keyed_apply(occurrences, "gram", gram_keep)
    mask_rows = masks.map_batches(
        lambda b: pa.table({
            id_col: b[id_col],
            text_col: pa.array([""] * b.num_rows, pa.string()),
            "pos": b["pos"]}),
        batch_format="pyarrow")
    text_rows = ds.map_batches(
        lambda b: pa.table({
            id_col: b[id_col],
            text_col: b[text_col],
            "pos": pa.array(np.full(b.num_rows, -1, np.int64))}),
        batch_format="pyarrow")

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        is_text = g["pos"].to_numpy() == -1
        docs = g.loc[is_text, [id_col, text_col]] \
            .sort_values(id_col, kind="mergesort")
        dids = docs[id_col].to_numpy(np.int64)
        if len(dids) == 0:
            return pd.DataFrame({id_col: dids,
                                 "n_tokens": np.zeros(0, np.int64),
                                 "n_masked": np.zeros(0, np.int64),
                                 "clean_text": []})
        toks = tokenize(pa.array(docs[text_col], pa.string(),
                                 from_pandas=True), len(docs))
        offs = np.asarray(toks.offsets, np.int64)
        total = int(offs[-1])
        nt = np.diff(offs)
        mrows = g.loc[~is_text]
        mdid = mrows[id_col].to_numpy(np.int64)
        mpos = mrows["pos"].to_numpy(np.int64)
        # Interval union over the FLAT token array: one diff pass for
        # every mask in the frame (no per-document Python loop).
        ridx = np.searchsorted(dids, mdid)
        starts = offs[ridx] + np.clip(mpos, 0,
                                      np.maximum(nt[ridx] - 1, 0))
        ends = np.minimum(starts + n, offs[ridx + 1])
        delta = np.zeros(total + 1, np.int64)
        np.add.at(delta, starts, 1)
        np.add.at(delta, ends, -1)
        kept = np.cumsum(delta[:-1]) <= 0
        cum = np.concatenate([[0], np.cumsum(kept)])
        kept_per_doc = cum[offs[1:]] - cum[offs[:-1]]
        # Segmented rebuild: filter the flat Arrow values, re-list with
        # the kept-prefix-sum offsets, join — zero Python strings.
        kept_vals = toks.values.filter(pa.array(kept))
        lists = pa.ListArray.from_arrays(
            pa.array(cum[offs], pa.int64()).cast(pa.int32()), kept_vals)
        clean = pc.binary_join(lists, " ")
        return pd.DataFrame({id_col: dids, "n_tokens": nt,
                             "n_masked": nt - kept_per_doc,
                             "clean_text": clean.to_pandas()})

    return keyed_apply(text_rows.union(mask_rows), id_col, rebuild)


def longest_shared_span(ds, *, max_len: int = 16, text_col: str = "text",
                        id_col: str = "doc_id"):
    """Per-document VARIABLE-LENGTH duplicate-span measure: the length
    (in tokens) of the longest token span that also occurs verbatim in
    at least one OTHER document, capped at ``max_len`` (0 = no shared
    token at all) — the variable-length generalization of
    :func:`dup_span_mask`'s fixed n, i.e. the per-doc answer a corpus
    suffix array would give, for spans up to the cap.

    Shape: ONE fused gram-keyed exchange instead of a pass per
    length — every doc emits its DISTINCT window hashes for ALL
    lengths n = 1..max_len (:func:`segmented_window_hashes` per n
    over the same per-token u64 hashes; 8 bytes/window), so exchange
    volume is <= max_len x corpus tokens x 8B.  Each gram frame
    computes sharedness exactly per (n, hash) and PRE-FOLDS to one
    (doc, local max shared n) row, so the doc-keyed exchange moves
    <= |docs| rows per frame.  A corpus-suffix-array formulation
    would avoid the max_len factor for unbounded spans; at the span
    caps curation uses (dozens of tokens) the fused ladder is one
    exchange and embarrassingly parallel.  The SQL oracle replays the
    literal rule over all lengths (64-bit collisions: P ~ G^2/2^65,
    and a collision can only INFLATE a length, never drop one).

    Output: (doc_id, max_shared_len) for EVERY doc.
    """
    import pandas as pd

    def occ_partial(b: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64()),
                          "gram": pa.array([], pa.uint64())})
        if b.num_rows == 0:
            return empty
        toks = tokenize(b[text_col], b.num_rows)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if len(flat) == 0:
            return empty
        hv = hash_strings(flat)
        offs = np.asarray(toks.offsets, np.int64)
        ids_np = b[id_col].to_numpy(zero_copy_only=False)
        parts = []
        for n in range(1, max_len + 1):
            win, woffs = segmented_window_hashes(hv, offs, n, _TRIGRAM_B)
            if not len(win):
                break
            owners = np.repeat(ids_np, np.diff(woffs))
            parts.append(pa.table({
                id_col: pa.array(owners.astype(np.int64)),
                "n": pa.array(np.full(len(win), n, np.int64)),
                "gram": pa.array(win)}))
        return pa.concat_tables(parts) if parts else empty

    occurrences = ds.map_batches(occ_partial, batch_format="pyarrow")

    def gram_fold(g: pd.DataFrame) -> pd.DataFrame:
        # per (n, gram) sharedness is frame-locally exact; rows
        # are already distinct per doc, so size == distinct docs
        shared = g.groupby(["n", "gram"])[id_col].transform("size") > 1
        hit = g.loc[shared, [id_col, "n"]]
        out = (hit.groupby(id_col, as_index=False)
               .agg(max_shared_len=("n", "max")))
        out["max_shared_len"] = out["max_shared_len"].astype(np.int64)
        return out

    per_part = keyed_apply(occurrences, "gram", gram_fold)
    base = ds.map_batches(
        lambda b: pa.table({
            id_col: b[id_col],
            "max_shared_len": pa.array(np.zeros(b.num_rows, np.int64))}),
        batch_format="pyarrow")

    def doc_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(id_col, as_index=False)
               .agg(max_shared_len=("max_shared_len", "max")))
        out["max_shared_len"] = out["max_shared_len"].astype(np.int64)
        return out

    return keyed_apply(per_part.union(base), id_col, doc_fold)


def wrap_html_batch(batch: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Deterministic single-line HTML page per document — the
    web-crawl fixture for :func:`strip_html` (the mm_* synthetic-
    payload pattern applied to markup).  The payload text is
    entity-escaped (& first, then < >) so the wrap/strip pair
    round-trips exactly even when documents contain markup
    characters; boilerplate (title, style, nav, script, footer)
    varies with doc_id so a leak is id-dependent and hash-visible."""
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    esc = pc.replace_substring(batch[text_col], "&", "&amp;")
    esc = pc.replace_substring(esc, "<", "&lt;")
    esc = pc.replace_substring(esc, ">", "&gt;")
    body = esc.to_numpy(zero_copy_only=False).astype(object)
    html = np.array([
        f'<html><head><title>doc {i}</title>'
        f'<style>p{{margin:{i % 7}px}}</style></head>'
        f'<body><nav>home | about | section {i % 5}</nav>'
        f'<div class="c{i % 3}"><p>{t}</p>'
        f'<script>track({i});</script></div>'
        f'<footer>(c) site {i % 11}</footer></body></html>'
        for i, t in zip(ids, body)], dtype=object)
    return pa.table({id_col: batch[id_col],
                     "html": pa.array(html, pa.string())})


#: Boilerplate elements stripped WITH their content (one global
#: non-greedy RE2 pass each; pyarrow and DuckDB both run RE2, so the
#: oracle semantics are identical by construction).
_HTML_BOILER = ("script", "style", "nav", "footer", "title")


def strip_html(batch: pa.Table, html_col: str = "html",
               id_col: str = "doc_id") -> pa.Table:
    """Boilerplate removal + tag strip + entity unescape + whitespace
    normalization — the web-corpus cleaning step every crawl pipeline
    runs before quality scoring.  Fully vectorized (six RE2 passes +
    three substring passes per batch, no Python row loop) and
    embarrassingly parallel: at 100 TB this is a pure map with zero
    shuffle.  Unescape order (&lt;/&gt; before &amp;) makes the
    :func:`wrap_html_batch` round-trip exact."""
    s = batch[html_col]
    for el in _HTML_BOILER:
        s = pc.replace_substring_regex(
            s, f"<{el}\\b[^>]*>.*?</{el}>", " ")
    s = pc.replace_substring_regex(s, "<[^>]+>", " ")
    s = pc.replace_substring(s, "&lt;", "<")
    s = pc.replace_substring(s, "&gt;", ">")
    s = pc.replace_substring(s, "&amp;", "&")
    # RE2 trim (NOT utf8_trim_whitespace: that trims the Unicode ws
    # class, which \s does not match — the oracle's regexp trim and
    # this one must share one whitespace definition)
    s = pc.replace_substring_regex(
        pc.replace_substring_regex(s, "\\s+", " "),
        "^ | $", "")
    return pa.table({id_col: batch[id_col], "clean_text": s,
                     "clean_len": pc.cast(pc.utf8_length(s),
                                          pa.int64())})


# ------------------------------------------------ winnowing fingerprints

#: Winnowing hash law (shared with the SQL oracle): token id = 1-based
#: rank in the sorted corpus vocabulary, k-gram hash = left-fold
#: ``h <- (h * WINNOW_B + id) % WINNOW_M``.  WINNOW_M = 2^31 - 1 keeps
#: every intermediate < 2^51 (exact in int64 AND in DuckDB BIGINT);
#: collisions at 2^31 are harmless for oracle equality because BOTH
#: sides apply the identical law.
WINNOW_B = 1_000_003
WINNOW_M = (1 << 31) - 1


def winnow_stats(batch: pa.Table, vocab: np.ndarray, *, k: int = 4,
                 w: int = 5, text_col: str = "text",
                 id_col: str = "doc_id") -> pa.Table:
    """Per-document WINNOWING fingerprint selection (Schleimer,
    Wilkerson & Aiken 2003 — the MOSS local document fingerprint):
    hash every k-token gram, slide a w-gram window, and select each
    window's minimum hash (ties -> RIGHTMOST, the paper's rule that
    makes consecutive windows usually share their pick).  Emits per
    doc: gram count, count of DISTINCT selected positions, and the
    fingerprint checksum (sum of the selected hashes) — the compact
    signature an overlap-detection join runs on.

    Fully vectorized, zero shuffle: one tokenize pass, token ids by
    ``np.searchsorted`` against the broadcast sorted vocab (rank law =
    the oracle's ``row_number() OVER (ORDER BY token)``), the k-fold
    polynomial over the flat id array, then the w-window minimum as a
    chain of w shifted ``np.minimum`` slices over a combined
    ``h * 2^31 + (2^31-1-pos)`` key (min => min hash, rightmost pos).
    Documents with fewer than k tokens emit nothing; documents with
    1..w-1 grams form a single window (grouped ``minimum.reduceat``).
    """
    toks = tokenize(batch[text_col], batch.num_rows)
    offs = np.asarray(toks.offsets, dtype=np.int64)
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    ids = (np.searchsorted(vocab, flat.astype(str)) + 1).astype(np.int64)

    lens = np.diff(offs)
    G = np.maximum(lens - k + 1, 0)
    total = int(G.sum())
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "n_grams": pa.array([], pa.int64()),
                      "n_select": pa.array([], pa.int64()),
                      "fp_sum": pa.array([], pa.int64())})
    if total == 0:
        return empty

    # k-gram polynomial at every flat start (cross-doc starts are
    # computed then discarded by the compaction below — branch-free).
    N = len(ids)
    acc = ids[: N - k + 1].copy()
    for j in range(1, k):
        acc = (acc * WINNOW_B + ids[j: N - k + 1 + j]) % WINNOW_M

    # Compact to per-doc gram arrays (in position order).
    seg_base = np.repeat(offs[:-1], G)
    cum0 = np.concatenate([[0], np.cumsum(G)[:-1]])
    intra = np.arange(total, dtype=np.int64) - np.repeat(cum0, G)
    h = acc[seg_base + intra]
    gram_doc = np.repeat(np.arange(len(G), dtype=np.int64), G)

    # Combined key: min over it = (min hash, rightmost position).
    HALF = np.int64(1) << 31
    key = h * HALF + (HALF - 1 - intra)

    sel_doc_parts, sel_key_parts = [], []
    # Full windows: doc-local window start s covers grams s..s+w-1;
    # valid iff s <= G_doc - w.  One vectorized min chain, then mask.
    if total >= w:
        kw = key[: total - w + 1].copy()
        for j in range(1, w):
            np.minimum(kw, key[j: total - w + 1 + j], out=kw)
        full = intra[: total - w + 1] <= (
            np.repeat(G, G)[: total - w + 1] - w)
        sel_doc_parts.append(gram_doc[: total - w + 1][full])
        sel_key_parts.append(kw[full])
    # Short docs (0 < G < w): single window over all their grams.
    short = (G > 0) & (G < w)
    if short.any():
        starts = cum0[short]
        ends = starts + G[short]
        # reduceat over explicit [start, end) pairs (a bare `starts`
        # index list would reduce each segment to the END of the flat
        # array, bleeding into the next doc's grams); the sentinel
        # pad keeps `end == total` a legal index.
        keyp = np.append(key, np.int64(1) << 62)
        bounds = np.column_stack([starts, ends]).ravel()
        gmin = np.minimum.reduceat(keyp, bounds)[::2]
        sel_doc_parts.append(np.flatnonzero(short).astype(np.int64))
        sel_key_parts.append(gmin)

    sd = np.concatenate(sel_doc_parts)
    sk = np.concatenate(sel_key_parts)
    # Distinct (doc, selected position): consecutive-dup drop after a
    # (doc, key) lexsort — same keys <=> same position (pos is IN the
    # key, so distinct keys per doc = distinct positions per doc).
    o = np.lexsort((sk, sd))
    sd, sk = sd[o], sk[o]
    keep = np.ones(len(sd), dtype=bool)
    keep[1:] = (sd[1:] != sd[:-1]) | (sk[1:] != sk[:-1])
    sd, sk = sd[keep], sk[keep]
    sel_h = sk >> 31

    n_sel = np.bincount(sd, minlength=len(G))
    fp_sum = np.bincount(sd, weights=sel_h.astype(np.float64),
                         minlength=len(G)).astype(np.int64)
    # float64 bincount weights are exact: each h < 2^31 and per-doc
    # selections are window-bounded, so sums stay far below 2^53.
    doc_ids = batch[id_col].to_numpy(zero_copy_only=False)
    m = G > 0
    return pa.table({
        id_col: pa.array(doc_ids[m].astype(np.int64)),
        "n_grams": pa.array(G[m].astype(np.int64)),
        "n_select": pa.array(n_sel[m].astype(np.int64)),
        "fp_sum": pa.array(fp_sum[m])})
