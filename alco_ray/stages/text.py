"""Text-analysis operators for training-data pipelines.

Beyond the reference's own operator set (SURVEY.md §2 covers ALCO's),
these are the text ops a large-scale training-data pipeline needs:
token stats, quality scoring, language ID, document fingerprinting.
All vectorized (pyarrow.compute / numpy / pandas-hash) map_batches
bodies; langid is a stateful actor-pool class (profiles built once per
actor).

Operators read the ``text`` column (:func:`strip_html`: ``html``) and
key their answers on ``doc_id``; :func:`quality_score` and
:func:`token_explode` take those names as parameters, which their
callers set.  The per-row steps are written once, below the hashing
helpers: :func:`_windows` lists the length-k windows of each row,
:func:`_poly` hashes them, :func:`_distinct_per_row` dedupes them per
row, :func:`_reduce_rows` folds any per-element value per row, and
:func:`_best_profile` scores rows against language profiles.

Determinism: all hashing uses ``pandas.util.hash_array`` (SipHash with
a fixed key) — stable across runs, processes and partitionings, unlike
Python's seeded ``hash``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .parse import tokenize
from .aggregate import fold_agg, partials
from .join import join_partitions
from .window import keyed_apply

STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "it")


def token_stats(batch: pa.Table) -> pa.Table:
    """(id, n_tokens, n_uniq_tokens) per document."""
    toks = tokenize(batch["text"], batch.num_rows)
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
        "doc_id": batch["doc_id"],
        "n_tokens": n,
        "n_uniq_tokens": pa.array(counts, pa.int64()),
    })


def repetition_stats(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition signals per document (the quality gate
    that kills boilerplate/templated text): total bigram count,
    DISTINCT bigram count, and the frequency of the single most
    repeated bigram.  Consumers derive the published ratios
    (dup-bigram fraction = 1 - distinct/total, top-bigram fraction =
    top/total) — integers only leave this stage so distributed and
    oracle results compare bit-for-bit.

    Fully vectorized: token SipHashes -> one polynomial combine for
    every bigram (the k=2 windows) -> per-(row, bigram) run lengths
    from :func:`_distinct_per_row`.  Bigram identity is its 64-bit
    hash (the same negligible-collision trade the fingerprint family
    pins)."""
    n = batch.num_rows
    h, offs = _token_hashes(batch)
    starts, row, _ = _windows(offs, 2)
    rows, _, runs = _distinct_per_row(row, _poly(h, 2, _TRIGRAM_B, starts))
    top = np.zeros(n, np.int64)
    np.maximum.at(top, rows, runs)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_bigrams": pa.array(np.bincount(row, minlength=n), pa.int64()),
        "n_distinct_bigrams": pa.array(np.bincount(rows, minlength=n),
                                       pa.int64()),
        "top_bigram_n": pa.array(top, pa.int64()),
    })


def token_explode(batch: pa.Table, id_col: str = "doc_id") -> pa.Table:
    """(id, token) — one row per token occurrence (P4 flattened)."""
    toks = tokenize(batch["text"], batch.num_rows)
    parents = pc.list_parent_indices(toks)
    ids = pc.take(batch[id_col].combine_chunks()
                  if isinstance(batch[id_col], pa.ChunkedArray)
                  else batch[id_col], parents)
    return pa.table({id_col: ids, "token": pc.list_flatten(toks)})


def chunk_documents(batch: pa.Table, chunk_size: int = 64) -> pa.Table:
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
    toks = tokenize(batch["text"], batch.num_rows)
    offs = np.asarray(toks.offsets, dtype=np.int64)
    n_tok = np.diff(offs)
    n_chunks = -(-n_tok // chunk_size)  # ceil; 0 for empty docs
    total = int(n_chunks.sum())
    if total == 0:
        return pa.table({
            "doc_id": pa.array([], batch["doc_id"].type),
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
    ids = batch["doc_id"].combine_chunks() if isinstance(
        batch["doc_id"], pa.ChunkedArray) else batch["doc_id"]
    return pa.table({
        "doc_id": pc.take(ids, pa.array(doc_idx)),
        "chunk_idx": pa.array(chunk_idx, pa.int64()),
        "n_tokens": pa.array(end - start, pa.int64()),
        "chunk_text": pc.binary_join(lists, " "),
    })


def quality_score(batch: pa.Table) -> pa.Table:
    """Integer-exact quality features per (``doc_id``, ``text``)
    document.

    All outputs are int64 so distributed and oracle results compare
    bit-for-bit (no float-sum order effects): character length, token
    count, stopword count, alphabetic character count, and
    ``alpha_ratio_millis`` = floor(1000 * alpha_chars / max(1, chars)).
    """
    text = batch["text"]
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
        "doc_id": batch["doc_id"],
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


def _tokens(batch: pa.Table) -> tuple[pa.Array, np.ndarray]:
    """The batch's flat token array + int64 row offsets."""
    toks = tokenize(batch["text"], batch.num_rows)
    return pc.list_flatten(toks), np.asarray(toks.offsets, np.int64)


def _token_hashes(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hash_tokens` of the batch's flat tokens + row offsets."""
    flat, offs = _tokens(batch)
    return hash_tokens(flat.to_numpy(zero_copy_only=False)), offs


# ------------------------------------------------------ per-row kernels

def _windows(offs: np.ndarray, k: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every length-``k`` window that lies wholly inside one row of a
    flat array cut by ``offs`` (len = rows + 1), in flat order, as
    int64 (flat start, row, position in row).  One O(total) pass — no
    per-row Python loop."""
    counts = np.maximum(np.diff(offs) - k + 1, 0)
    row = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos = np.arange(len(row), dtype=np.int64) \
        - np.repeat(np.cumsum(counts) - counts, counts)
    return offs[:-1][row] + pos, row, pos


def _poly(vals: np.ndarray, k: int, B: np.uint64,
          starts: np.ndarray) -> np.ndarray:
    """Order-sensitive polynomial hash of ``vals[s:s+k]`` for each
    window start ``s``: Horner's rule in uint64, wrapping mod 2^64."""
    with np.errstate(over="ignore"):
        acc = vals[starts].astype(np.uint64)
        for j in range(1, k):
            acc = acc * B + vals[starts + j]
    return acc


def _distinct_per_row(row: np.ndarray, val: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct values per row: one lexsort on (row, value),
    then the first of each run of equal pairs, as (row, value, run
    length)."""
    order = np.lexsort((val, row))
    row, val = row[order], val[order]
    first = np.ones(len(row), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (val[1:] != val[:-1])
    at = np.flatnonzero(first)
    return row[at], val[at], np.diff(np.append(at, len(row)))


def _row_offsets(row: np.ndarray, n: int) -> np.ndarray:
    """int64 offsets (len n + 1) of a flat array sorted by ``row``."""
    return np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))]) \
        .astype(np.int64)


def _reduce_rows(ufunc, vals: np.ndarray, offs: np.ndarray,
                 fill) -> np.ndarray:
    """``ufunc.reduceat`` of ``vals`` per row of ``offs``; a row with
    no values gets ``fill``.  Only non-empty rows' starts reach
    reduceat: an empty row's start would cut the previous row's
    segment short and silently corrupt its value."""
    lens = np.diff(offs)
    out = np.full(len(lens), fill, vals.dtype)
    nonempty = lens > 0
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(vals, offs[:-1][nonempty])
    return out


def segmented_window_hashes(vals: np.ndarray, offs: np.ndarray, k: int,
                            B: np.uint64, mod: np.uint64 | None = None,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """DISTINCT k-window polynomial hashes per segment, fully vectorized.

    ``vals`` is a flat unsigned array segmented by ``offs`` (len =
    n_segments + 1).  For every length-k window that lies wholly inside
    one segment, hash = :func:`_poly` of its k values (wrap-mod 2^64,
    then optionally ``% mod``); per segment the hashes are deduplicated
    and sorted.  Returns (flat uint64 hashes, int64 offsets).  Shared by
    token shingling (dedup), n-gram sharing and char-trigram langid.
    """
    starts, row, _ = _windows(offs, k)
    win = _poly(vals, k, B, starts)
    if mod is not None:
        win %= mod
    rows, win, _ = _distinct_per_row(row, win)
    return win, _row_offsets(rows, len(offs) - 1)


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


def _lowered(col) -> pa.Array:
    """Lowercased text, nulls as ''."""
    return pc.utf8_lower(pc.coalesce(col, pa.scalar("", pa.string())))


def _best_profile(grams: np.ndarray, goffs: np.ndarray,
                  profiles: dict[str, np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``grams`` (cut by ``goffs``): the language whose
    profile holds most of the row's grams, ties broken in sorted
    language order, and that count.  One ``np.isin`` and one per-row
    sum per language — no per-row Python."""
    langs = sorted(profiles)
    n = len(goffs) - 1
    if not langs:
        return np.full(n, "", dtype=object), np.zeros(n, np.int64)
    scores = np.stack([
        _reduce_rows(np.add, np.isin(grams, profiles[ln]).astype(np.int64),
                     goffs, 0)
        for ln in langs], axis=1)
    best = np.argmax(scores, axis=1)  # first max == sorted-order tie
    return np.array(langs, dtype=object)[best], scores[np.arange(n), best]


def fingerprint(batch: pa.Table) -> pa.Table:
    """Rolling polynomial fingerprint of the token stream -> int64.

    fp(doc) = sum_i h(tok_i) * B^(n-1-i)  (mod 2^64), B odd constant.
    Order-sensitive (unlike a bag-of-tokens hash) and mergeable by
    blocks if ever needed.  Returned as int64 (reinterpreted bits) so
    it round-trips Parquet/SQL engines without unsigned-type trouble.
    """
    h, offsets = _token_hashes(batch)
    # Horner vectorized: fp = sum h_i * B^(L-1-i) over each segment,
    # via a power table (a wrapping uint64 cumprod) + one per-row sum.
    B = np.uint64(0x100000001B3)  # FNV prime, odd
    lens = np.diff(offsets)
    max_len = int(lens.max()) if len(lens) else 0
    powtab = np.ones(max_len + 1, dtype=np.uint64)
    powtab[1:] = np.cumprod(np.full(max_len, B, np.uint64))
    exp = np.repeat(offsets[1:], lens) - 1 - np.arange(len(h), dtype=np.int64)
    out = _reduce_rows(np.add, h * powtab[exp], offsets, 0)
    return pa.table({"doc_id": batch["doc_id"],
                     "fingerprint": pa.array(out.view(np.int64), pa.int64())})


def fingerprint_dups(ds):
    """Documents whose token-stream fingerprint collides with another's:
    (doc_id, rep_doc_id = min id of the colliding group) — one row per
    member of every dup group, representatives included.

    Fingerprint equality <=> token-stream equality (64-bit rolling
    hash; collisions are the usual negligible-risk trade), so this is
    the content-identity dedup view.  Shape: map-side fingerprints ->
    groupby(fingerprint) to find dup groups -> hash-shuffle join of the
    (small) dup-group table back to the fingerprint rows — both sides
    partition on the same key, no broadcast of an unbounded set."""
    fps = ds.map_batches(fingerprint, batch_format="pyarrow")

    def dup_reps(g: pd.DataFrame) -> pd.DataFrame:
        # frame-local group stats (a fingerprint lives in exactly one
        # frame); Ray's Aggregate measures ~44k rows/s here
        out = (g.groupby("fingerprint", sort=False)
                .agg(rep_doc_id=("doc_id", "min"), n=("doc_id", "size"))
                .reset_index())
        return out.loc[out["n"] > 1, ["fingerprint", "rep_doc_id"]]

    dup_groups = keyed_apply(fps, "fingerprint", dup_reps).materialize()
    if dup_groups.count() == 0:
        # A fully-empty join side crashes Ray's hash join (ray 2.49.2:
        # ArrowInvalid "no match for key field on right side"); a
        # dup-free corpus is a 0-row answer, not a crash.
        import ray.data

        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "rep_doc_id": pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)
    joined = fps.join(dup_groups, "inner", num_partitions=join_partitions(),
                      on=("fingerprint",))
    return joined.select_columns(["doc_id", "rep_doc_id"])


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
    """Actor-pool language-ID stage: char-trigram hash profiles of the
    embedded seeds built once per actor in ``__init__`` (the model-load
    analog); per-batch scoring is fully vectorized — one segmented
    trigram-hash pass over the whole batch, then :func:`_best_profile`
    (no per-row Python).  Prediction = argmax distinct-trigram overlap,
    ties broken by sorted language order."""

    def __init__(self):
        langs = sorted(_LANG_SEEDS)
        cp, offs = _codepoints([_LANG_SEEDS[ln].lower() for ln in langs])
        h, hoffs = segmented_window_hashes(cp, offs, 3, _TRIGRAM_B)
        self.profiles: dict[str, np.ndarray] = {
            ln: h[hoffs[i]:hoffs[i + 1]] for i, ln in enumerate(langs)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        cp, offs = _codepoints_arrow(_lowered(batch["text"]))
        pred, score = _best_profile(
            *segmented_window_hashes(cp, offs, 3, _TRIGRAM_B), self.profiles)
        return pa.table({
            "doc_id": batch["doc_id"],
            "pred_lang": pa.array(pred, pa.string()),
            "score": pa.array(score, pa.int64()),
        })


def tf_df(ds):
    """Integer-exact IR stats: (doc_id, token, tf, df) — term frequency
    per document and document frequency per token (the TF-IDF
    precursor; the float weighting is a trivial map the consumer
    applies, kept out so results stay bit-for-bit comparable).

    Shape: per-batch (doc, token, tf) partials (a document lives
    wholly in one batch), then shuffle on token — a token's rows
    co-locate, so df is a frame-local distinct count."""
    tf = partials(ds, ["doc_id", "token"], {"tf": ([], "count_all")},
                  token_explode)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        out = g[["doc_id", "token", "tf"]].copy()
        out["tf"] = out["tf"].astype("int64")
        # df = number of (doc, token) rows per token (distinct docs by
        # construction: tf rows are already per-(doc, token))
        out["df"] = g.groupby("token")["token"].transform("size") \
            .astype("int64")
        return out

    return keyed_apply(tf, "token", body)


def ngram_counts(ds, *, n: int = 2):
    """Corpus-wide n-gram frequency table ``(gram, cnt)`` — the
    language-model co-occurrence / collocation primitive (top-k
    bigrams, contamination n-gram banks, PMI inputs).

    Shape: per-batch partial counts — tokens flatten once, and the
    ``n`` tokens of every window inside one document (:func:`_windows`)
    join element-wise (no Python loop over rows or grams) — then a
    gram-keyed :func:`keyed_apply` fold, because the gram domain is
    unbounded (driver folds are reserved for bounded key domains).
    Shuffle volume is the pre-aggregated per-batch distinct grams, not
    the token stream."""
    sep = pa.scalar(" ", pa.string())

    def ngrams(b: pa.Table) -> pa.Table:
        flat, offs = _tokens(b)
        starts, _, _ = _windows(offs, n)
        grams = flat.take(pa.array(starts))
        for j in range(1, n):
            grams = pc.binary_join_element_wise(
                grams, flat.take(pa.array(starts + j)), sep)
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

#: Trigram code = c0*R^2 + c1*R + c2 with R = 2^21 > max Unicode code
#: point (0x10FFFF): injective over Unicode, below 2^63, and integer
#: order equals UTF-8 lexicographic order (UTF-8 is order-preserving),
#: so tie-breaks on the code match SQL's binary string collation.
_GRAM_RADIX = np.uint64(1 << 21)

#: Grams kept per language by :func:`fit_trigram_profiles`.
PROFILE_GRAMS = 50


def _trigram_codes(col) -> tuple[np.ndarray, np.ndarray]:
    """Per-row DISTINCT character-trigram codes (int64) + offsets,
    decoded straight from the Arrow buffers (no ``to_pylist``)."""
    g, goffs = segmented_window_hashes(*_codepoints_arrow(col), 3,
                                       _GRAM_RADIX)
    return g.view(np.int64), goffs


def fit_trigram_profiles(ds) -> dict[str, np.ndarray]:
    """LEARN language profiles from labeled data (``lang``): per-(lang,
    gram) DOCUMENT frequency via map-side distinct-gram partials folded
    driver-side (bounded: |langs| x distinct grams in the corpus),
    then the top :data:`PROFILE_GRAMS` grams per language (df DESC,
    gram ASC — the collation-parity tie-break).  Returns lang ->
    sorted gram codes.

    Scale: the fold is the only cross-node traffic and it moves
    (lang, gram, partial-df) rows, never text; at an unbounded gram
    domain switch the fold to a gram-hash partition (the tf_df
    shape)."""
    def grams(b: pa.Table) -> pa.Table:
        g, goffs = _trigram_codes(b["text"])
        langs = b["lang"].to_numpy(zero_copy_only=False)
        return pa.table({
            "lang": pa.array(np.repeat(langs, np.diff(goffs))),
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
                              ascending=[False, True]).head(PROFILE_GRAMS)
        profiles[str(lang)] = np.sort(top["gram"].to_numpy())
    return profiles


def learned_lang(col, profiles: dict[str, np.ndarray]) -> pa.Array:
    """Predicted language per row of a text column under LEARNED
    profiles (sorted int64 trigram codes): :func:`_best_profile` over
    the rows' distinct trigram codes; rows with zero overlap against
    every profile predict '' (no evidence beats a wrong guess)."""
    pred, score = _best_profile(*_trigram_codes(col), profiles)
    pred[score == 0] = ""
    return pa.array(pred, pa.string())


def predict_lang_learned(ds, profiles: dict[str, np.ndarray]):
    """Score every document against the LEARNED profiles
    (:func:`learned_lang`).  Profiles broadcast once via ``ray.put``."""
    import ray

    pref = ray.put({ln: np.sort(np.asarray(p, np.int64))
                    for ln, p in profiles.items()})
    return ds.map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"],
                            "pred_lang": learned_lang(b["text"],
                                                      ray.get(pref))}),
        batch_format="pyarrow")


def fit_background_trigrams(ds, *, k: int = 200) -> np.ndarray:
    """LEARN a single background language-model profile: the top-``k``
    lowercase character trigrams by corpus DOCUMENT frequency (df DESC,
    gram ASC — the collation-parity tie-break), as sorted int64 codes.

    The unsupervised sibling of :func:`fit_trigram_profiles`: per-batch
    distinct-gram partials fold driver-side (bounded: distinct
    lowercase trigrams in the corpus, alphabet-cubed in practice; at an
    unbounded gram domain switch the fold to a gram-hash partition —
    the tf_df shape)."""
    def grams(b: pa.Table) -> pa.Table:
        g, _ = _trigram_codes(_lowered(b["text"]))
        return pa.table({"gram": pa.array(g, pa.int64())})

    folded = fold_agg(
        ds, ["gram"], {"df": ([], "count_all")}, grams,
        empty_schema=pa.schema([("gram", pa.int64()),
                                ("df", pa.int64())]))
    df = folded.to_pandas()
    top = df.sort_values(["df", "gram"],
                         ascending=[False, True]).head(k)
    return np.sort(top["gram"].to_numpy().astype(np.int64))


def trigram_coverage(ds, profile: np.ndarray):
    """Score every document under the background profile: the share of
    its lowercase trigram POSITIONS (with multiplicity) whose gram is
    in the profile — the cheap stand-in for LM perplexity that a
    quality-filtering pipeline thresholds on.  Integer hit/total counts
    ride along so the float share is one IEEE division of the same two
    integers on any engine.  Profile broadcast once via ``ray.put``."""
    import ray

    pref = ray.put(np.sort(np.asarray(profile, np.int64)))

    def body(b: pa.Table) -> pa.Table:
        cp, offs = _codepoints_arrow(_lowered(b["text"]))
        starts, row, _ = _windows(offs, 3)
        g = _poly(cp, 3, _GRAM_RADIX, starts).view(np.int64)
        goffs = _row_offsets(row, b.num_rows)
        lens = np.diff(goffs)
        hits = _reduce_rows(
            np.add, np.isin(g, ray.get(pref)).astype(np.int64), goffs, 0)
        score = np.divide(hits, lens, out=np.zeros(len(lens), np.float64),
                          where=lens > 0)
        return pa.table({
            "doc_id": b["doc_id"],
            "n_grams": pa.array(lens),
            "n_hits": pa.array(hits),
            "lm_score": pa.array(score, pa.float64()),
        })

    return ds.map_batches(body, batch_format="pyarrow")


def cross_doc_ngram_share(ds, *, n: int = 5):
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
        flat, offs = _tokens(b)
        win, woffs = segmented_window_hashes(hash_strings(flat), offs, n,
                                             _TRIGRAM_B)
        owners = np.repeat(np.arange(b.num_rows, dtype=np.int64),
                           np.diff(woffs))
        return pa.table({"doc_id": pc.take(b["doc_id"], pa.array(owners)),
                         "gram": pa.array(win)})

    grams = ds.map_batches(gram_partial, batch_format="pyarrow")

    def gram_fold(g: pd.DataFrame) -> pd.DataFrame:
        df_size = g.groupby("gram")["gram"].transform("size")
        out = (g.assign(_dup=(df_size > 1).astype("int64"),
                        _one=np.ones(len(g), np.int64))
               .groupby("doc_id", as_index=False)
               .agg(gp=("_one", "sum"), dp=("_dup", "sum")))
        return out

    per_part = keyed_apply(grams, "gram", gram_fold)
    base = ds.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "gp": pa.array(np.zeros(b.num_rows, np.int64)),
            "dp": pa.array(np.zeros(b.num_rows, np.int64))}),
        batch_format="pyarrow")

    def doc_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("doc_id", as_index=False)
               .agg(n_grams=("gp", "sum"), n_dup=("dp", "sum")))
        ng = out["n_grams"].to_numpy().astype(np.int64)
        nd = out["n_dup"].to_numpy().astype(np.int64)
        out["n_grams"] = ng
        out["n_dup"] = nd
        out["dup_share"] = np.divide(
            nd, ng, out=np.zeros(len(ng), np.float64), where=ng > 0)
        return out

    return keyed_apply(per_part.union(base), "doc_id", doc_fold)


def dup_span_mask(ds, *, n: int = 5):
    """Cross-document duplicated-SPAN removal — the APPLY step of
    exact substring dedup (Lee et al., "Deduplicating Training Data
    Makes Language Models Better", ACL'22): every token position
    covered by a word ``n``-gram that occurs in >= 2 DISTINCT
    documents is masked, and the document is re-emitted without those
    spans.  Sibling of :func:`cross_doc_ngram_share` (which only
    SCORES the duplication).

    Grams travel through the gram-keyed exchange as uint64 ROLLING
    HASHES (per-token :func:`hash_strings` values combined by
    :func:`_poly`, the law of :func:`segmented_window_hashes`), NOT
    literal strings — shuffle volume is 8 bytes/window instead of
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

    def occ_partial(b: pa.Table) -> pa.Table:
        flat, offs = _tokens(b)
        starts, row, pos = _windows(offs, n)
        return pa.table({
            "doc_id": pc.take(b["doc_id"], pa.array(row)),
            "gram": pa.array(_poly(hash_strings(flat), n, _TRIGRAM_B,
                                   starts)),
            "pos": pa.array(pos),
        })

    occurrences = ds.map_batches(occ_partial, batch_format="pyarrow")

    def gram_keep(g: pd.DataFrame) -> pd.DataFrame:
        shared = g.groupby("gram")["doc_id"].transform("nunique") > 1
        out = g.loc[shared, ["doc_id", "pos"]]
        return pd.DataFrame({"doc_id": out["doc_id"].to_numpy(np.int64),
                             "pos": out["pos"].to_numpy(np.int64)})

    masks = keyed_apply(occurrences, "gram", gram_keep)
    mask_rows = masks.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "text": pa.array([""] * b.num_rows, pa.string()),
            "pos": b["pos"]}),
        batch_format="pyarrow")
    text_rows = ds.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "text": b["text"],
            "pos": pa.array(np.full(b.num_rows, -1, np.int64))}),
        batch_format="pyarrow")

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        is_text = g["pos"].to_numpy() == -1
        docs = g.loc[is_text, ["doc_id", "text"]] \
            .sort_values("doc_id", kind="mergesort")
        dids = docs["doc_id"].to_numpy(np.int64)
        if len(dids) == 0:
            return pd.DataFrame({"doc_id": dids,
                                 "n_tokens": np.zeros(0, np.int64),
                                 "n_masked": np.zeros(0, np.int64),
                                 "clean_text": []})
        toks = tokenize(pa.array(docs["text"], pa.string(),
                                 from_pandas=True), len(docs))
        offs = np.asarray(toks.offsets, np.int64)
        total = int(offs[-1])
        nt = np.diff(offs)
        mrows = g.loc[~is_text]
        mdid = mrows["doc_id"].to_numpy(np.int64)
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
        return pd.DataFrame({"doc_id": dids, "n_tokens": nt,
                             "n_masked": nt - kept_per_doc,
                             "clean_text": clean.to_pandas()})

    return keyed_apply(text_rows.union(mask_rows), "doc_id", rebuild)


def longest_shared_span(ds, *, max_len: int = 16):
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

    def occ_partial(b: pa.Table) -> pa.Table:
        flat, offs = _tokens(b)
        hv = hash_strings(flat)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        parts = []
        for n in range(1, max_len + 1):
            win, woffs = segmented_window_hashes(hv, offs, n, _TRIGRAM_B)
            if not len(win):
                break
            parts.append(pa.table({
                "doc_id": pa.array(np.repeat(ids, np.diff(woffs))
                                   .astype(np.int64)),
                "n": pa.array(np.full(len(win), n, np.int64)),
                "gram": pa.array(win)}))
        if not parts:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "gram": pa.array([], pa.uint64())})
        return pa.concat_tables(parts)

    occurrences = ds.map_batches(occ_partial, batch_format="pyarrow")

    def gram_fold(g: pd.DataFrame) -> pd.DataFrame:
        # per (n, gram) sharedness is frame-locally exact; rows
        # are already distinct per doc, so size == distinct docs
        shared = g.groupby(["n", "gram"])["doc_id"].transform("size") > 1
        hit = g.loc[shared, ["doc_id", "n"]]
        out = (hit.groupby("doc_id", as_index=False)
               .agg(max_shared_len=("n", "max")))
        out["max_shared_len"] = out["max_shared_len"].astype(np.int64)
        return out

    per_part = keyed_apply(occurrences, "gram", gram_fold)
    base = ds.map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "max_shared_len": pa.array(np.zeros(b.num_rows, np.int64))}),
        batch_format="pyarrow")

    def doc_fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("doc_id", as_index=False)
               .agg(max_shared_len=("max_shared_len", "max")))
        out["max_shared_len"] = out["max_shared_len"].astype(np.int64)
        return out

    return keyed_apply(per_part.union(base), "doc_id", doc_fold)


def wrap_html_batch(batch: pa.Table) -> pa.Table:
    """Deterministic single-line HTML page per document — the
    web-crawl fixture for :func:`strip_html` (the mm_* synthetic-
    payload pattern applied to markup).  The payload text is
    entity-escaped (& first, then < >) so the wrap/strip pair
    round-trips exactly even when documents contain markup
    characters; boilerplate (title, style, nav, script, footer)
    varies with doc_id so a leak is id-dependent and hash-visible."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    esc = pc.replace_substring(batch["text"], "&", "&amp;")
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
    return pa.table({"doc_id": batch["doc_id"],
                     "html": pa.array(html, pa.string())})


#: Boilerplate elements stripped WITH their content (one global
#: non-greedy RE2 pass each; pyarrow and DuckDB both run RE2, so the
#: oracle semantics are identical by construction).
_HTML_BOILER = ("script", "style", "nav", "footer", "title")


def strip_html(batch: pa.Table) -> pa.Table:
    """Boilerplate removal + tag strip + entity unescape + whitespace
    normalization of the ``html`` column — the web-corpus cleaning
    step every crawl pipeline runs before quality scoring.  Fully
    vectorized (six RE2 passes + three substring passes per batch, no
    Python row loop) and embarrassingly parallel: at 100 TB this is a
    pure map with zero shuffle.  Unescape order (&lt;/&gt; before
    &amp;) makes the :func:`wrap_html_batch` round-trip exact."""
    s = batch["html"]
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
    return pa.table({"doc_id": batch["doc_id"], "clean_text": s,
                     "clean_len": pc.cast(pc.utf8_length(s),
                                          pa.int64())})


# ------------------------------------------------ winnowing fingerprints

#: Winnowing law (shared with the SQL oracle): token id = 1-based
#: rank in the sorted corpus vocabulary, k-gram hash (k = WINNOW_K
#: tokens) = left-fold ``h <- (h * WINNOW_B + id) % WINNOW_M``, one
#: pick per window of WINNOW_W grams.  WINNOW_M = 2^31 - 1 keeps every
#: intermediate < 2^51 (exact in int64 AND in DuckDB BIGINT);
#: collisions at 2^31 are harmless for oracle equality because BOTH
#: sides apply the identical law.
WINNOW_B = 1_000_003
WINNOW_M = (1 << 31) - 1
WINNOW_K = 4
WINNOW_W = 5


def winnow_stats(batch: pa.Table, vocab: np.ndarray) -> pa.Table:
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
    law over each window of :func:`_windows`, then the w-window minimum
    as a chain of w shifted ``np.minimum`` slices over a combined
    ``h * 2^31 + (2^31-1-pos)`` key (min => min hash, rightmost pos).
    Documents with fewer than k tokens emit nothing; documents with
    1..w-1 grams form a single window (their per-row minimum).
    """
    k, w = WINNOW_K, WINNOW_W
    flat, offs = _tokens(batch)
    ids = (np.searchsorted(vocab, flat.to_numpy(zero_copy_only=False)
                           .astype(str)) + 1).astype(np.int64)
    starts, gram_doc, intra = _windows(offs, k)
    total = len(starts)
    if total == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_grams": pa.array([], pa.int64()),
                         "n_select": pa.array([], pa.int64()),
                         "fp_sum": pa.array([], pa.int64())})
    h = ids[starts]
    for j in range(1, k):
        h = (h * WINNOW_B + ids[starts + j]) % WINNOW_M
    goffs = _row_offsets(gram_doc, batch.num_rows)
    G = np.diff(goffs)

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
        full = intra[: total - w + 1] <= G[gram_doc[: total - w + 1]] - w
        sel_doc_parts.append(gram_doc[: total - w + 1][full])
        sel_key_parts.append(kw[full])
    # Short docs (0 < G < w): single window over all their grams.
    short = (G > 0) & (G < w)
    if short.any():
        sel_doc_parts.append(np.flatnonzero(short).astype(np.int64))
        sel_key_parts.append(_reduce_rows(np.minimum, key, goffs, 0)[short])

    # Distinct (doc, selected position): pos is IN the key, so distinct
    # keys per doc = distinct positions per doc.
    sd, sk, _ = _distinct_per_row(np.concatenate(sel_doc_parts),
                                  np.concatenate(sel_key_parts))
    sel_h = sk >> 31

    n_sel = np.bincount(sd, minlength=len(G))
    fp_sum = np.bincount(sd, weights=sel_h.astype(np.float64),
                         minlength=len(G)).astype(np.int64)
    # float64 bincount weights are exact: each h < 2^31 and per-doc
    # selections are window-bounded, so sums stay far below 2^53.
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    m = G > 0
    return pa.table({
        "doc_id": pa.array(doc_ids[m].astype(np.int64)),
        "n_grams": pa.array(G[m].astype(np.int64)),
        "n_select": pa.array(n_sel[m].astype(np.int64)),
        "fp_sum": pa.array(fp_sum[m])})
