"""Persisted inverted full-text index and its probes.

The reference's entire read side is a persisted *searchable* index
(Sphinx RT MATCH over per-logger per-day shards; SURVEY.md §1.1
"Indexed row", §3.3 grep path).  ``t_grep`` answers that query by
re-scanning and re-parsing the corpus per call; this module is the
build-once / query-many analog, shaped like the persisted ANN indexes
in similarity.py:

- **Build** (:func:`build_text_index`): one parse pass over the corpus
  emits per-turn DISTINCT token postings ``(token, positions, doclen,
  conv_id, turn_idx, parsed_ts, level)`` written as
  ``postings/bucket=<h>/`` partitioned Parquet (bucket = token-hash &
  mask — Sphinx's term dictionary), plus a ``docs/date=<d>/`` docstore
  carrying the text payload (Sphinx's attribute/row store, partitioned
  by day exactly like ALCO's per-day shards).  Staged
  ``.building.<pid>`` dir + atomic swap, meta sidecar with the format
  version (:data:`INDEX_VERSION`), the bucket count, the corpus totals
  BM25 needs and a caller corpus signature.
- **Probe**: every probe takes one path.  :func:`_postings` reads
  meta.json, refuses any format but :data:`INDEX_VERSION`, and reads
  only the queried terms' posting buckets; the probe's kernel turns
  those posting rows into matched turns (grep: attribute filters and a
  keyset cursor; AND / OR: turns holding enough distinct terms; phrase
  and NEAR: positional kernels; ranked and BM25: integer scores); and
  :func:`_top_turns` takes the top-k and fetches text from only the
  matched rows' date partitions.  Cost scales with the probed buckets
  + matched days, not the corpus.

Match semantics are Sphinx MATCH's: whole-token equality after the
shared tokenizer (``parse.tokenize``), not substring LIKE — the same
trade the reference makes.  Ranking is integer arithmetic end to end
(:func:`_idf`, :func:`_tfc`), so an engine-independent oracle replays
it bit-for-bit; the index-free :func:`bm25_docs_topk` uses the same
law.
"""


from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .aggregate import arrow_blocks, concat_nonempty, fold_agg, partials
from .parse import tokenize
from .route import day_string
from .text import hash_tokens
from .window import keyed_apply

#: Format of the persisted index: v2 added token positions (phrase,
#: NEAR), v3 the per-posting ``doclen`` and the corpus token totals
#: (BM25).  The probes read this version only.
INDEX_VERSION = 3

#: Fixed-point scales of the integer BM25 law (:func:`_idf`,
#: :func:`_tfc`).
IDF_SCALE = 1_000_000
TF_SCALE = 10_000

#: A turn's ranking score and its event time, from per-hit rows.
_SCORE_AGGS = {"score": ("s", "sum"), "parsed_ts": ("parsed_ts", "min")}

POSTING_COLS = ["conv_id", "turn_idx", "parsed_ts", "level"]

#: A matched turn's key, and the columns every probe kernel emits.
_KEY = ["conv_id", "turn_idx"]
_TURN = [*_KEY, "parsed_ts"]


def _bucket_of(tokens: np.ndarray, n_buckets: int) -> np.ndarray:
    return (hash_tokens(tokens) & np.uint64(n_buckets - 1)).astype(np.int32)


def posting_explode(batch: pa.Table, n_buckets: int,
                    text_col: str = "text") -> pa.Table:
    """One posting row per (turn, DISTINCT token) with the token's
    in-turn POSITIONS as a list column (format v2 — phrase search
    needs adjacency): vectorized tokenize -> per-row first-occurrence
    dedup (lexsort + adjacent-duplicate drop, positions gathered from
    the same sort) -> bucket id.  No per-row Python."""
    toks = tokenize(batch[text_col], batch.num_rows)
    flat = toks.values.to_numpy(zero_copy_only=False)
    offs = np.asarray(toks.offsets).astype(np.int64)
    rows = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                     np.diff(offs))
    if len(flat):
        pos_in_row = np.arange(len(flat), dtype=np.int64) - offs[rows]
        h = hash_tokens(flat)
        srt = np.lexsort((pos_in_row, h, rows))
        rs, hs = rows[srt], h[srt]
        first = np.ones(len(srt), dtype=bool)
        first[1:] = (rs[1:] != rs[:-1]) | (hs[1:] != hs[:-1])
        keep = srt[first]
        starts = np.flatnonzero(first)
        plist = pa.ListArray.from_arrays(
            pa.array(np.append(starts, len(srt)).astype(np.int32)),
            pa.array(pos_in_row[srt].astype(np.int32)))
    else:
        keep = np.zeros(0, dtype=np.int64)
        plist = pa.array([], pa.list_(pa.int32()))
    kept_tokens = flat[keep]
    kept_rows = rows[keep]
    doclens = np.diff(offs)[kept_rows] if len(keep) \
        else np.zeros(0, np.int64)
    cols = {
        "bucket": pa.array(_bucket_of(kept_tokens, n_buckets)),
        "token": pa.array(kept_tokens, pa.string()),
        "positions": plist,
        # total token count of the owning turn (v3): BM25 length
        # normalization needs dl per candidate at score time, and
        # carrying it on the posting row (4 bytes) beats a corpus-
        # sized docstore join per query.
        "doclen": pa.array(doclens.astype(np.int32)),
    }
    for c in POSTING_COLS:
        cols[c] = batch[c].take(pa.array(kept_rows))
    return pa.table(cols)


def build_text_index(parsed_ds, index_dir: str | Path, *,
                     text_col: str = "text", n_buckets: int | None = None,
                     extra_meta: dict | None = None) -> None:
    """Build the persisted index from a PARSED dataset (columns
    conv_id, turn_idx, parsed_ts, level, text).  Staged build + atomic
    swap (crash-safe, :func:`staging.staged_index`); ``extra_meta``
    (e.g. a corpus signature) rides in meta.json for staleness
    checks."""
    from ..sinks import _make_block_writer
    from .staging import staged_index
    from .window import suggest_key_partitions

    with staged_index(index_dir) as (build, meta):
        # One parse of the corpus feeds BOTH artifacts: without this,
        # the postings pass and the docstore pass would each re-execute
        # the upstream read+parse plan.
        parsed_ds = parsed_ds.materialize()
        if n_buckets is None:
            # ~32 distinct tokens per turn estimated; bucket files
            # bounded at any corpus size, power of two for the mask.
            # The count is the materialized blocks' metadata.
            n_buckets = suggest_key_partitions(parsed_ds.count() * 32)

        post_writer = _make_block_writer(str(build / "postings"),
                                         ["bucket"])
        postings = parsed_ds.map_batches(
            lambda b: posting_explode(b, n_buckets, text_col),
            batch_format="pyarrow")
        postings.map_batches(post_writer,
                             batch_format="pyarrow").materialize()

        doc_writer = _make_block_writer(str(build / "docs"), ["date"])

        def docstore(b: pa.Table) -> pa.Table:
            return pa.table({
                "date": day_string(b["parsed_ts"]),
                "conv_id": b["conv_id"],
                "turn_idx": b["turn_idx"],
                text_col: b[text_col],
            })

        parsed_ds.map_batches(docstore, batch_format="pyarrow") \
            .map_batches(doc_writer, batch_format="pyarrow").materialize()

        n_turns, total_tokens = _corpus_token_totals(parsed_ds, text_col)
        meta.update({"kind": "text_inverted", "version": INDEX_VERSION,
                     "n_buckets": n_buckets,
                     "n_turns": n_turns, "total_tokens": total_tokens,
                     "text_col": text_col, **(extra_meta or {})})


def _corpus_token_totals(parsed_ds, text_col: str) -> tuple[int, int]:
    """(n_turns, total token count) of a parsed corpus — the BM25
    avgdl inputs, recorded in meta.json at build time so probes
    never re-scan.  One distributed pass emitting one row per block."""

    def totals(b: pa.Table) -> pa.Table:
        toks = tokenize(b[text_col], b.num_rows)
        t = pc.sum(pc.list_value_length(toks)).as_py() or 0
        return pa.table({"rows": pa.array([b.num_rows], pa.int64()),
                         "toks": pa.array([int(t)], pa.int64())})

    per_block = parsed_ds.map_batches(
        totals, batch_format="pyarrow").to_pandas()
    return int(per_block["rows"].sum()), int(per_block["toks"].sum())




def _postings(index_dir: str | Path, terms, cols: list[str],
              stats_out: dict | None, where=()):
    """The one posting read behind every probe.  Reads ``meta.json``
    and checks its format version; then reads only the buckets of
    ``terms`` (lower-case tokens), keeps the rows of those terms that
    pass every ``where`` predicate (batch -> boolean mask), and projects
    them to ``cols``.  ``stats_out`` (if given) records the posting
    files read and, until a text fetch, no doc files.  Returns
    ``(meta, hits)``; ``hits`` is None when those buckets hold no
    file."""
    import ray.data

    d = Path(index_dir)
    meta = json.loads((d / "meta.json").read_text())
    version = meta.get("version", 1)
    if version != INDEX_VERSION:
        raise ValueError(
            f"{d} is a v{version} text index; the probes read "
            f"v{INDEX_VERSION} — rebuild it with build_text_index")
    want = sorted(set(terms))
    buckets = sorted({int(b) for b in _bucket_of(
        np.array(want, dtype=object), meta["n_buckets"])})
    pfiles = sorted(str(p) for b in buckets
                    for p in (d / "postings" / f"bucket={b}")
                    .glob("*.parquet"))
    if stats_out is not None:
        stats_out["posting_files"] = pfiles
        stats_out["doc_files"] = []
    if not pfiles:
        return meta, None
    term_set = pa.array(want, pa.string())

    def match(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b["token"], value_set=term_set)
        for pred in where:
            keep = pc.and_(keep, pred(b))
        return b.filter(keep).select(cols)

    return meta, ray.data.read_parquet(pfiles).map_batches(
        match, batch_format="pyarrow", batch_size=None)


def _top_turns(index_dir: str | Path, meta: dict, turns, k: int,
               stats_out: dict | None, rank_by: str = "parsed_ts"):
    """The one answer tail behind every probe: the top ``k`` matched
    ``turns`` (a Dataset, or None for no match) by ``rank_by``
    descending, ties (conv_id, turn_idx) ascending, each with its text
    from the docstore.  A ``score`` ranking keeps that column ahead of
    ``parsed_ts``; no match is the typed empty table."""
    import ray.data

    from .order import top_k

    text_col = meta["text_col"]
    schema = pa.schema(
        [("conv_id", pa.string()), ("turn_idx", pa.int32())]
        + ([("score", pa.int64())] if rank_by == "score" else [])
        + [("parsed_ts", pa.timestamp("us")), (text_col, pa.string())])
    if turns is not None:
        topk = top_k(turns, [rank_by, "conv_id", "turn_idx"], k,
                     descending=[True, False, False]).to_pandas()
        if len(topk):
            return _fetch_texts(Path(index_dir), text_col, topk, schema,
                                stats_out)
    return ray.data.from_arrow(schema.empty_table())


def _fetch_texts(d: Path, text_col: str, topk, schema: pa.Schema,
                 stats_out: dict | None):
    """Text fetch for a driver-side top-k frame: read only the matched
    rows' docstore day partitions (k rows -> a handful of days), join
    driver-side."""
    import ray.data

    days = sorted(set(day_string(pa.array(topk["parsed_ts"])).to_pylist()))
    dfiles = sorted(str(p) for day in days
                    for p in (d / "docs" / f"date={day}").glob("*.parquet"))
    if stats_out is not None:
        stats_out["doc_files"] = dfiles
    convs = pa.array(topk["conv_id"].unique())

    def fetch(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["conv_id"], value_set=convs)) \
            .select(["conv_id", "turn_idx", text_col])

    docs = ray.data.read_parquet(dfiles) \
        .map_batches(fetch, batch_format="pyarrow", batch_size=None)
    dt = concat_nonempty(arrow_blocks(docs))
    out = topk.merge(dt.to_pandas(), on=["conv_id", "turn_idx"],
                     how="left")
    return ray.data.from_arrow(pa.Table.from_pandas(
        out, preserve_index=False).cast(schema))


def _turns(frame) -> pa.Table:
    """A kernel's matched turns as an explicitly typed Arrow table:
    empty pandas frames with object columns lose their schema in block
    conversion."""
    return pa.table({
        "conv_id": pa.array(frame["conv_id"].to_numpy(), pa.string()),
        "turn_idx": pa.array(frame["turn_idx"].to_numpy().astype(np.int32)),
        "parsed_ts": pa.array(
            frame["parsed_ts"].to_numpy().astype("datetime64[us]")),
    })


def grep_probe(index_dir: str | Path, term: str, *, level: str | None = None,
               ts_min=None, ts_max=None, k: int = 20,
               cursor: tuple | None = None,
               stats_out: dict | None = None):
    """MATCH-style probe: rows whose tokenized text contains ``term``,
    optional level / [ts_min, ts_max) filters, newest-first top-k with
    (conv_id, turn_idx) tie-break.  Reads ONE posting bucket directory
    and only the matched rows' docstore day-partitions; ``stats_out``
    (if given) records the file lists actually read, for audit.

    ``cursor`` = (parsed_ts, conv_id, turn_idx) of the LAST row of the
    previous page enables KEYSET pagination (the offset-free cursor
    read SURVEY §2 O2 deferred): only rows strictly after the cursor
    in (ts DESC, conv ASC, turn ASC) order are candidates, so page N+1
    costs the same one-bucket probe as page 1 — no OFFSET scan, no
    server-side state."""
    where = []
    if level is not None:
        where.append(lambda b: pc.equal(b["level"], level))
    if ts_min is not None:
        where.append(lambda b: pc.greater_equal(b["parsed_ts"],
                                                pa.scalar(ts_min)))
    if ts_max is not None:
        where.append(lambda b: pc.less(b["parsed_ts"], pa.scalar(ts_max)))
    if cursor is not None:
        c_ts, c_conv, c_turn = cursor

        def after(b: pa.Table):
            ts, cv, tn = b["parsed_ts"], b["conv_id"], b["turn_idx"]
            return pc.or_(
                pc.less(ts, pa.scalar(c_ts)),
                pc.and_(pc.equal(ts, pa.scalar(c_ts)), pc.or_(
                    pc.greater(cv, pa.scalar(c_conv)),
                    pc.and_(pc.equal(cv, pa.scalar(c_conv)),
                            pc.greater(tn, pa.scalar(c_turn,
                                                     type=tn.type))))))

        where.append(after)
    meta, hits = _postings(index_dir, [term.lower()], _TURN, stats_out,
                           where)
    return _top_turns(index_dir, meta, hits, k, stats_out)


def _turns_with(index_dir: str | Path, terms: set[str], need: int, k: int,
                stats_out: dict | None):
    """Turns holding at least ``need`` of the distinct ``terms``: the
    terms' pruned posting buckets, then one (conv_id, turn_idx)-hash
    pass counts each turn's distinct terms.  A turn goes on once,
    however many terms it holds."""
    import pandas as pd

    meta, hits = _postings(index_dir, terms, [*_TURN, "token"], stats_out)
    if hits is None:
        return _top_turns(index_dir, meta, None, k, stats_out)

    def enough(g: pd.DataFrame) -> pa.Table:
        n = g.groupby(_KEY)["token"].transform("nunique").to_numpy()
        return _turns(g[n >= need].drop_duplicates(_KEY))

    return _top_turns(index_dir, meta, keyed_apply(hits, _KEY, enough), k,
                      stats_out)


def match_all_probe(index_dir: str | Path, terms: list[str], *,
                    k: int = 20, stats_out: dict | None = None):
    """Multi-term AND probe (Sphinx ``MATCH('a b')`` implicit-AND
    semantics): rows whose tokenized text contains EVERY term.  Reads
    one posting bucket directory PER DISTINCT TERM (still pruned — the
    untouched buckets never load); only the posting rows for the
    queried terms shuffle; top-k + docstore fetch as in
    :func:`grep_probe`."""
    want = {t.lower() for t in terms}
    return _turns_with(index_dir, want, len(want), k, stats_out)


def match_any_probe(index_dir: str | Path, terms: list[str], *,
                    k: int = 20, stats_out: dict | None = None):
    """Multi-term OR probe (Sphinx ``MATCH('a | b')`` disjunction):
    rows whose tokenized text contains ANY of the terms, a turn that
    matched several terms once.  Same pruned per-term bucket reads as
    :func:`match_all_probe`."""
    return _turns_with(index_dir, {t.lower() for t in terms}, 1, k,
                       stats_out)


def phrase_probe(index_dir: str | Path, phrase: list[str], *,
                 k: int = 20, stats_out: dict | None = None):
    """PHRASE search (Sphinx ``MATCH('"a b"')`` exact-adjacency
    semantics): turns where the terms appear CONSECUTIVELY in token
    order.  Same pruned per-term posting buckets as
    :func:`match_all_probe`; the intersection kernel rides the
    positional postings — each term's positions shift left by its
    phrase rank, and a turn matches iff some shifted position is
    shared by ALL ranks (per-(turn, position) distinct-rank count ==
    phrase length).  Repeated phrase terms are handled per rank."""
    import pandas as pd

    ranks = [t.lower() for t in phrase]
    n_ranks = len(ranks)
    meta, hits = _postings(index_dir, ranks, [*_TURN, "token", "positions"],
                           stats_out)
    if hits is None:
        return _top_turns(index_dir, meta, None, k, stats_out)

    def intersect(g: pd.DataFrame) -> pa.Table:
        frames = []
        for r, term in enumerate(ranks):
            sel = g[g["token"] == term]
            if not len(sel):
                continue
            lens = sel["positions"].map(len).to_numpy()
            adj = np.concatenate(
                [np.asarray(p, dtype=np.int64) for p in sel["positions"]]
            ) - r if lens.sum() else np.array([], np.int64)
            frames.append(pd.DataFrame({
                "conv_id": np.repeat(sel["conv_id"].to_numpy(), lens),
                "turn_idx": np.repeat(sel["turn_idx"].to_numpy(), lens),
                "parsed_ts": np.repeat(sel["parsed_ts"].to_numpy(), lens),
                "adj": adj, "rank": r}))
        df = pd.concat(frames, ignore_index=True)
        cnt = df.groupby(["conv_id", "turn_idx", "adj"])["rank"] \
            .transform("size")
        return _turns(df.iloc[(cnt.to_numpy() == n_ranks)
                              & (df["rank"] == 0).to_numpy()]
                      .drop_duplicates(subset=_KEY))

    return _top_turns(index_dir, meta, keyed_apply(hits, _KEY, intersect),
                      k, stats_out)


def near_probe(index_dir: str | Path, term_a: str, term_b: str, *,
               max_dist: int = 2, k: int = 20,
               stats_out: dict | None = None):
    """PROXIMITY search (Sphinx ``MATCH('"a b"~N')`` NEAR semantics):
    turns where ``term_a`` and ``term_b`` occur within ``max_dist``
    token positions of each other (either order).  Same pruned
    per-term posting buckets as :func:`match_all_probe`; the kernel
    rides the positional postings — per partition, every A-position
    checks only its two B-neighbors (one ``searchsorted`` into the
    gid-composite B-position array), which is exactly the min-distance
    test, fully vectorized.  Distances use in-turn token indices, so
    the 0- vs 1-based convention cancels against any SQL oracle."""
    import pandas as pd

    ta, tb = term_a.lower(), term_b.lower()
    if ta == tb:
        raise ValueError("near_probe: need two distinct terms")
    if max_dist < 1:
        raise ValueError("near_probe: max_dist must be >= 1")
    meta, hits = _postings(index_dir, [ta, tb],
                           [*_TURN, "token", "positions"], stats_out)
    if hits is None:
        return _top_turns(index_dir, meta, None, k, stats_out)

    def nearest(g: pd.DataFrame) -> pa.Table:
        both = g.assign(gid=g.groupby(_KEY, sort=False).ngroup())
        lens = both["positions"].map(len).to_numpy()
        flat = np.concatenate(
            [np.asarray(p, np.int64) for p in both["positions"]])
        gids = np.repeat(both["gid"].to_numpy(), lens)
        is_a = np.repeat((both["token"] == ta).to_numpy(), lens)
        big = np.int64(flat.max() + max_dist + 2)
        ag, ap = gids[is_a], flat[is_a]
        bg, bp = gids[~is_a], flat[~is_a]
        if not len(ag) or not len(bg):
            return _turns(g.iloc[:0])
        order = np.argsort(bg * big + bp)
        bg, bp = bg[order], bp[order]
        kb = bg * big + bp
        idx = np.searchsorted(kb, ag * big + ap)
        ok = np.zeros(len(ag), bool)
        right = idx < len(kb)
        ok[right] = (bg[idx[right]] == ag[right]) \
            & (bp[idx[right]] - ap[right] <= max_dist)
        left = idx > 0
        li = idx - 1
        ok[left] |= (bg[li[left]] == ag[left]) \
            & (ap[left] - bp[li[left]] <= max_dist)
        hit_gids = np.unique(ag[ok])
        return _turns(both.drop_duplicates("gid").set_index("gid")
                      .loc[hit_gids])

    return _top_turns(index_dir, meta, keyed_apply(hits, _KEY, nearest), k,
                      stats_out)


def _idf(n_docs: int, df):
    """BM25 idf ``(N - df + 0.5) / (df + 0.5)`` as ONE exact integer
    ratio at :data:`IDF_SCALE` — so the whole score is integer
    arithmetic and an engine-independent oracle reproduces the ranking
    bit-for-bit (a float ln-idf would differ in ulps)."""
    return ((2 * n_docs - 2 * df + 1) * IDF_SCALE) // (2 * df + 1)


def _tfc(tf: np.ndarray, dl: np.ndarray, n_docs: int,
         total_tokens: int) -> np.ndarray:
    """BM25 term-frequency component (k1 = 1.2, b = 0.75) in integers:

        avgdl_q = (total_tokens * 1000) // N     (milli-tokens)
        tfc     = (22 * tf * avgdl_q * TF_SCALE)
                  // (10*avgdl_q*tf + 3*avgdl_q + 9000*dl)

    — tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)) with numerator and
    denominator both multiplied by ``10 * avgdl_q`` (k1 = 12/10,
    b = 3/4 exactly), quantized at :data:`TF_SCALE`.  int64-safe for
    dl, avgdl <= ~10^5 tokens and N <= ~10^9 turns."""
    avgdl_q = (total_tokens * 1000) // max(1, n_docs)
    den = 10 * avgdl_q * tf + 3 * avgdl_q + 9000 * dl
    return (22 * tf * avgdl_q * TF_SCALE) // np.maximum(den, 1)


def _ranked(index_dir: str | Path, terms: list[str], k: int,
            stats_out: dict | None, bm25: bool):
    """Top-``k`` turns by ``score = sum_t tfc_t * _idf(N, df_t)``, where
    ``tfc`` is the raw term frequency, or :func:`_tfc` when ``bm25``.
    tf, df and dl come straight from the pruned posting buckets (tf =
    positions length, df = posting rows per term, dl = ``doclen``);
    N and the token total from meta.json.  Ties break (conv_id,
    turn_idx) ascending."""
    import pandas as pd

    want = {t.lower() for t in terms}
    if not want:
        raise ValueError("ranked retrieval needs at least one term")
    meta, hits = _postings(index_dir, want,
                           [*_TURN, "token", "positions", "doclen"],
                           stats_out)
    n_docs, total_tokens = int(meta["n_turns"]), int(meta["total_tokens"])
    if hits is not None:
        hits = hits.materialize()
        # df per term: bounded fold (|terms| keys)
        df_t = fold_agg(
            hits, ["token"], {"df": ([], "count_all")},
            empty_schema=pa.schema([("token", pa.string()),
                                    ("df", pa.int64())]))
        weights = {r["token"]: _idf(n_docs, int(r["df"]))
                   for r in df_t.to_pylist()}
    if hits is None or not weights:
        return _top_turns(index_dir, meta, None, k, stats_out, "score")

    def scored(b: pa.Table) -> pa.Table:
        w = np.array([weights[t] for t in b["token"].to_pylist()],
                     np.int64)
        tf = pc.list_value_length(b["positions"]).to_numpy().astype(
            np.int64)
        if bm25:
            tf = _tfc(tf, b["doclen"].to_numpy().astype(np.int64), n_docs,
                      total_tokens)
        return pa.table({"conv_id": b["conv_id"],
                         "turn_idx": b["turn_idx"],
                         "parsed_ts": b["parsed_ts"],
                         "s": pa.array(w * tf)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(_KEY, as_index=False)
               .agg(score=("score", "sum"), parsed_ts=("parsed_ts",
                                                       "min")))
        out["turn_idx"] = out["turn_idx"].astype(np.int32)
        out["score"] = out["score"].astype(np.int64)
        return out

    totals = keyed_apply(partials(hits, _KEY, _SCORE_AGGS, scored), _KEY,
                         fold)
    return _top_turns(index_dir, meta, totals, k, stats_out, "score")


def ranked_probe(index_dir: str | Path, terms: list[str], *, k: int = 20,
                 stats_out: dict | None = None):
    """RANKED retrieval (the Sphinx weighted-MATCH analog): top-``k``
    turns by a QUANTIZED-IDF weighted term frequency

        score(turn) = sum_t  tf_t(turn) * _idf(N, df_t)

    with N the index's turn count (meta.json).  The unnormalized
    sibling of :func:`ranked_bm25_probe`."""
    return _ranked(index_dir, terms, k, stats_out, bm25=False)


def ranked_bm25_probe(index_dir: str | Path, terms: list[str], *,
                      k: int = 20, stats_out: dict | None = None):
    """Full BM25 (k1 = 1.2, b = 0.75) top-``k`` retrieval, computed
    ENTIRELY in integer arithmetic so any engine reproduces the
    ranking bit-for-bit:

        score(turn) = sum_t  _idf(N, df_t) * _tfc(tf_t, dl, N, total)

    This is the length-normalized ranking :func:`ranked_probe` lacks
    (long turns stop winning on raw tf).  ``dl`` rides on every
    posting row (``doclen``) and N / total_tokens come from meta.json —
    both written by the build, so no probe-time corpus pass."""
    return _ranked(index_dir, terms, k, stats_out, bm25=True)


def bm25_docs_topk(ds, terms: list[str], *, k: int = 50,
                   id_col: str = "doc_id", text_col: str = "text"):
    """Index-free exact-integer BM25 top-``k`` over a document Dataset
    — the same integer law as :func:`ranked_bm25_probe` (:func:`_idf`,
    :func:`_tfc`; ties (score desc, id asc)) computed directly from the
    corpus in TWO passes, for corpora that don't carry a persisted
    index:

    1. a stats pass whose per-block partial is ``2 + len(terms)``
       integers (doc count, token total, per-term df) folded on the
       driver — the combine-inside-map_batches shape, nothing
       data-sized moves;
    2. a pure scoring map: each document's tf/dl live entirely in its
       own row, so with (N, avgdl, w_t) broadcast the score needs NO
       shuffle at all — at 100 TB this leg is embarrassingly parallel
       and only ``blocks x k`` survivor rows reach the driver via
       :func:`order.top_k`.

    Returns an Arrow table ``(id_col, score, rank)`` with rank 1..k."""
    from .order import top_k

    want = sorted({t.lower() for t in terms})
    if not want:
        raise ValueError("bm25_docs_topk: need at least one term")

    def stats_partial(b: pa.Table) -> pa.Table:
        toks = tokenize(b[text_col], b.num_rows)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        parents = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)
        row = {"n_docs": [b.num_rows],
               "total_tokens": [int(len(flat))]}
        for i, t in enumerate(want):
            row[f"df_{i}"] = [int(np.unique(parents[flat == t]).size)]
        return pa.table(row)

    parts = ds.map_batches(stats_partial, batch_format="pyarrow",
                           batch_size=None).take_all()
    n_docs = sum(r["n_docs"] for r in parts)
    total_tokens = sum(r["total_tokens"] for r in parts)
    dfs = [sum(r[f"df_{i}"] for r in parts) for i in range(len(want))]
    empty = pa.table({id_col: pa.array([], pa.int64()),
                      "score": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64())})
    if n_docs == 0 or not any(dfs):
        return empty
    ws = [_idf(n_docs, df) for df in dfs]

    def score_batch(b: pa.Table) -> pa.Table:
        toks = tokenize(b[text_col], b.num_rows)
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        parents = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)
        dl = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        score = np.zeros(b.num_rows, np.int64)
        for t, w in zip(want, ws):
            tf = np.bincount(parents[flat == t],
                             minlength=b.num_rows).astype(np.int64)
            score += w * _tfc(tf, dl, n_docs, total_tokens)
        keep = score > 0
        ids = b[id_col].combine_chunks() \
            if isinstance(b[id_col], pa.ChunkedArray) else b[id_col]
        return pa.table({id_col: ids.filter(pa.array(keep)),
                         "score": pa.array(score[keep])})

    scored = ds.map_batches(score_batch, batch_format="pyarrow",
                            batch_size=None)

    topk = top_k(scored, ["score", id_col], k,
                 descending=[True, False])
    merged = concat_nonempty(arrow_blocks(topk))
    if merged.num_columns == 0 or merged.num_rows == 0:
        return empty
    return merged.append_column(
        "rank", pa.array(np.arange(1, merged.num_rows + 1,
                                   dtype=np.int64)))
