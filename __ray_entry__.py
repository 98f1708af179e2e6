"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship ALCO-style ingest on the sf0.001-scale
synthetic transcript corpus; ``queries()`` exposes every implemented
operator from SURVEY.md §2 (plus the training-data operator suite) —
267 queries, 260 with DuckDB oracles; ``oracle_sql()`` gives the
DuckDB-equivalent SQL for each SQL-expressible query.  Hash-family
chains (LSH->verify, SimHash banding, langid eval) are made
oracle-checkable by persisting the engine's hash-family intermediates
as /tmp sidecars the SQL consumes.  The seven omissions are the
genuinely approximate ANN probes and sketches (v_knn_lsh, v_knn_ivf,
e_approx_users, e_type_sketch, e_value_sketch), the zlib-based
d_compress_ratio and the declared multimodal stub (mm_features) —
rows-only checks, values pinned by pytest.

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in alco_ray) calls ``ray.init()`` / ``ray.shutdown()``.

Numeric policy (shared with alco_ray.pipelines.queries): counts BIGINT,
money in integer cents (half-away-from-zero rounding both sides), no
distributed float sums — so value hashes match bit-for-bit.

Transcript queries (``t_*``) run over the deterministic synthetic corpus
generated by ``alco_ray.fixtures`` (seed 42); their oracle SQL reads the
very same Parquet files from /tmp, so engine and oracle see identical
input.  ``queries()`` materializes the corpora eagerly so the SQL side
never races the generator.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline on the sf0.001-scale corpus; returns the
    interval-count aggregate Dataset (rows >= 0, stable schema)."""
    import shutil

    import ray.data

    from alco_ray import fixtures
    from alco_ray.pipelines.flagship import run_flagship

    corpus = fixtures.ensure_corpus("sf0.001")
    out = "/tmp/alco_ray_entry_out"
    shutil.rmtree(out, ignore_errors=True)
    run_flagship(corpus, out, wave_size=8)
    import glob

    files = sorted(glob.glob(f"{out}/aggregates/interval_counts/*.parquet"))
    return ray.data.read_parquet(files)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def queries() -> dict[str, Callable[[str], Any]]:
    from alco_ray import fixtures
    from alco_ray.pipelines.queries import REGISTRY

    # Materialize the corpora the t_* oracle SQL reads (idempotent, cached).
    fixtures.ensure_corpus("sf0.001")
    fixtures.ensure_corpus("sf0.01")
    # Ground-truth sidecars the mm_adpcm_meta / mm_jpeg_meta oracles
    # read (independent-reference decoder stats; no Ray needed) — the
    # oracle must never race the query that writes them.
    for name in fixtures.DECODE_FIXTURE_DOCS:
        fixtures.ensure_decode_fixture(name)
    # Pre-materialize the hash-family sidecars the d_minhash_lsh /
    # d_simhash / d_lang_id oracle SQL reads at the driver's sf0.01
    # gate, so oracle execution can never race the query that writes
    # them.  (The queries rewrite the sidecars at call time anyway —
    # deterministically, so both writes agree.)
    import ray

    if ray.is_initialized():
        import warnings

        for name in ("d_minhash_lsh", "d_simhash", "d_lang_id",
                     "d_minhash_apply"):
            try:
                REGISTRY[name]("/root/testdata/sf0.01")
            except Exception as e:
                # per-name: one failure must not skip the others; the
                # query itself still writes its sidecar at call time —
                # but surface the diagnostic instead of hiding a broken
                # query until oracle time.
                warnings.warn(
                    f"{name} sidecar pre-materialization failed: "
                    f"{type(e).__name__}: {e}")
    return dict(REGISTRY)


# ---------------------------------------------------------------------------
# oracle SQL
# ---------------------------------------------------------------------------

_T_SRC = "read_parquet('/tmp/alco_ray_fixtures/sf0.01/*.parquet')"

# Shared transcript parse CTE — mirrors alco_ray.stages.parse semantics:
# level: first 'level=<A-Z+>' match canonicalized else UNKNOWN;
# parsed_ts: first 'at=<ISO8601>' token (optional .fraction) parsed, else
# arrival ts; parse_ok false iff a token marker was present but the parse
# failed; sink from the role routing table; bucket = 5-min floor.
_T_PARSED = f"""
WITH t AS (SELECT * FROM {_T_SRC}),
p0 AS (
  SELECT t.*,
    nullif(regexp_extract(text,
      'at=([0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}}T[0-9]{{2}}:[0-9]{{2}}:[0-9]{{2}}(?:\\.[0-9]{{1,6}})?Z)',
      1), '') AS ts_token,
    CASE WHEN regexp_extract(text, 'level=([A-Z]+)', 1)
              IN ('DEBUG','INFO','WARN','ERROR')
         THEN regexp_extract(text, 'level=([A-Z]+)', 1)
         ELSE 'UNKNOWN' END AS level
  FROM t),
p1 AS (
  SELECT p0.*,
    COALESCE(try_strptime(ts_token, '%Y-%m-%dT%H:%M:%S.%fZ'),
             try_strptime(ts_token, '%Y-%m-%dT%H:%M:%SZ')) AS parsed_raw
  FROM p0),
p AS (
  SELECT p1.*,
    COALESCE(parsed_raw, ts) AS parsed_ts,
    NOT (regexp_matches(text, 'at=\\S+') AND parsed_raw IS NULL) AS parse_ok,
    CASE role WHEN 'system' THEN 'sys' WHEN 'user' THEN 'chat'
              WHEN 'assistant' THEN 'chat' WHEN 'tool' THEN 'tools'
              ELSE '_dead_letter' END AS sink,
    time_bucket(INTERVAL '5 minutes', COALESCE(parsed_raw, ts)) AS bucket
  FROM p1)
"""

_LEVEL_DICT = ("(VALUES ('DEBUG', 0), ('ERROR', 1), ('INFO', 2), "
               "('UNKNOWN', 3), ('WARN', 4)) AS ld(value, id)")

_DOC_TOKENS = ("SELECT doc_id, list_filter(string_split_regex(lower(text), "
               "'[^a-z0-9]+'), x -> x <> '') AS l FROM documents")

# Shared n-gram Jaccard pair CTE (threshold 0.5, 3-token shingles) —
# used by d_jaccard_pairs and as the edge list for d_dedup_apply.
_JACCARD_BODY = """
    WITH toks AS (
      SELECT doc_id, list_filter(string_split_regex(lower(text),
             '[^a-z0-9]+'), x -> x <> '') AS tk
      FROM documents),
    sh AS (
      SELECT DISTINCT doc_id,
             tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] AS s
      FROM toks, unnest(generate_series(1, len(tk) - 2)) AS u(i)),
    sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
    pairs AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             CAST(count(*) AS BIGINT) AS inter
      FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
      GROUP BY 1, 2),
    jp AS (
      SELECT doc_a, doc_b, inter,
             CAST(sa.n + sb.n - inter AS BIGINT) AS uni
      FROM pairs JOIN sizes sa ON sa.doc_id = doc_a
                 JOIN sizes sb ON sb.doc_id = doc_b
      WHERE inter * 1000 >= (sa.n + sb.n - inter) * 500)
"""

# Shared learned-langid replay: distributed trigram-profile fit +
# distinct-overlap argmax predict; footers pick per-doc predictions
# (d_lang_id_learned) or the confusion matrix (d_langid_confusion).
_LANGID_BODY = """
    WITH pos AS (
      SELECT doc_id, lang, lower(text) AS t,
             unnest(generate_series(1,
                    greatest(length(text) - 2, 0))) AS p
      FROM documents),
    g AS (SELECT DISTINCT doc_id, lang, substr(t, p, 3) AS gram
          FROM pos),
    df AS (SELECT lang, gram, count(*) AS df FROM g
           GROUP BY lang, gram),
    prof AS (SELECT lang, gram FROM (
               SELECT lang, gram,
                      row_number() OVER (PARTITION BY lang
                          ORDER BY df DESC, gram) AS rn
               FROM df)
             WHERE rn <= 50),
    dg AS (SELECT DISTINCT doc_id, gram FROM g),
    sc AS (SELECT dg.doc_id, prof.lang, count(*) AS s
           FROM dg JOIN prof USING (gram)
           GROUP BY dg.doc_id, prof.lang),
    best AS (SELECT doc_id, lang,
                    row_number() OVER (PARTITION BY doc_id
                        ORDER BY s DESC, lang) AS rn
             FROM sc)
"""

# Shared PQ replay: quantize -> encode vs the persisted codebook
# sidecar -> ADC table; footers pick top-10 (v_pq) or the recall
# intersection (v_pq_recall).
_PQ_BODY = """
    WITH q AS (
      SELECT vec_id,
             CAST(generate_subscripts(embedding, 1) AS BIGINT)
                 - 1 AS j0,
             CAST(round(CAST(unnest(embedding) AS DOUBLE)
                  * 1024) AS BIGINT) AS x
      FROM embeddings),
    dim AS (SELECT (max(j0) + 1) // 4 AS sd FROM q),
    qs AS (SELECT vec_id, j0 // sd AS sub, j0 % sd AS jj, x
           FROM q, dim),
    cent AS (SELECT sub, cl, jj, c FROM read_parquet(
        '/tmp/alco_ray_cache/sf0.01/pq_centroids.parquet')),
    dist AS (SELECT v.vec_id, v.sub, cc.cl,
                    sum((v.x - cc.c) * (v.x - cc.c)) AS dd
             FROM qs v JOIN cent cc
                  ON v.sub = cc.sub AND v.jj = cc.jj
             GROUP BY 1, 2, 3),
    code AS (SELECT vec_id, sub, cl FROM (
               SELECT vec_id, sub, cl,
                      row_number() OVER (
                          PARTITION BY vec_id, sub
                          ORDER BY dd, cl) AS rn
               FROM dist) WHERE rn = 1),
    qv AS (SELECT sub, cl, dd FROM dist WHERE vec_id = 0),
    adc AS (SELECT c.vec_id, sum(qv.dd) AS adist
            FROM code c JOIN qv
                 ON c.sub = qv.sub AND c.cl = qv.cl
            GROUP BY c.vec_id)
"""

_EVENT_SINK = ("CASE event_type WHEN 'click' THEN 'web' WHEN 'view' THEN 'web' "
               "WHEN 'purchase' THEN 'commerce' WHEN 'signup' THEN 'commerce' "
               "WHEN 'error' THEN 'errors' ELSE '_dead_letter' END")


_PR_SCALE = 1_000_000_000_000

# e_markov_stationary oracle: the 12 integer power-iteration steps
# UNROLLED as chained CTEs (the v_kmeans unrolled-recurrence
# doctrine — DuckDB recursive CTEs disallow the needed aggregation),
# replaying the engine's per-term floor division exactly.
_MARKOV_STEPS = "".join(f""",
            p{s + 1} AS (SELECT m.t AS s,
                         CAST(sum((p{s}.p * m.c) // r.r) AS BIGINT)
                             AS p
                  FROM p{s} JOIN m ON m.f = p{s}.s
                       JOIN r ON r.f = p{s}.s
                  GROUP BY m.t)""" for s in range(12))

_MARKOV_SQL = f"""
            WITH tr AS (SELECT event_type AS f,
                               lead(event_type) OVER (
                                   PARTITION BY user_id
                                   ORDER BY ts, event_id) AS t
                        FROM events),
            cc AS (SELECT f, t, CAST(count(*) AS BIGINT) AS c
                   FROM tr WHERE t IS NOT NULL GROUP BY f, t),
            st AS (SELECT DISTINCT f AS s FROM cc
                   UNION SELECT DISTINCT t FROM cc),
            m AS (SELECT f, t, c FROM cc
                  UNION ALL
                  SELECT s, s, CAST(1 AS BIGINT) FROM st
                  WHERE s NOT IN (SELECT f FROM cc)),
            r AS (SELECT f, CAST(sum(c) AS BIGINT) AS r
                  FROM m GROUP BY f),
            n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM st),
            p0 AS (SELECT st.s, CAST(1000000000000 // n.n AS BIGINT)
                              AS p
                   FROM st, n){_MARKOV_STEPS}
            SELECT s AS event_type, CAST(p AS BIGINT) AS pi_scaled
            FROM p12"""


def _kmeans_sql(k: int = 8, iters: int = 3, scale: int = 1024, *,
                prefix: str | None = None,
                footer: str | None = None) -> str:
    """Unrolled fixed-point Lloyd k-means — the EXACT recurrence of
    stages/similarity.kmeans_fixed_point (half-away quantization,
    integer squared distances with lowest-cluster tie-break,
    truncating-division centroid updates, empty-cluster carry), so
    the per-vector assignment table hash-matches bit-for-bit.

    ``prefix`` overrides the input CTEs (must define ``q(vec_id, j,
    x)`` and ``seed(vec_id, cl)``) and ``footer`` the output SELECT,
    so _text_clusters_sql can run the identical unrolled recurrence
    over TextEncoder embeddings instead of the embeddings table."""
    parts = [prefix if prefix is not None else f"""
        WITH q AS (
          SELECT vec_id, CAST(i AS BIGINT) AS j,
                 CAST(round(CAST(e AS DOUBLE) * {scale}) AS BIGINT) AS x
          FROM (SELECT vec_id, unnest(embedding) AS e,
                       generate_subscripts(embedding, 1) AS i
                FROM embeddings)),
        seed AS (
          SELECT vec_id,
                 CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
                     AS cl
          FROM (SELECT vec_id FROM embeddings
                ORDER BY vec_id LIMIT {k}))"""]
    parts.append(""",
        c0 AS (SELECT s.cl, q.j, q.x AS c
               FROM q JOIN seed s USING (vec_id))""")
    for i in range(iters + 1):
        parts.append(f""",
        a{i} AS (SELECT vec_id, cl FROM (
            SELECT q.vec_id, c.cl,
                   row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY sum((q.x - c.c) * (q.x - c.c)),
                                c.cl) AS rn
            FROM q JOIN c{i} c USING (j)
            GROUP BY q.vec_id, c.cl) WHERE rn = 1)""")
        if i < iters:
            parts.append(f""",
        u{i} AS (SELECT a.cl, q.j,
                        CAST(sum(q.x) // count(*) AS BIGINT) AS c
                 FROM q JOIN a{i} a USING (vec_id)
                 GROUP BY a.cl, q.j),
        c{i + 1} AS (SELECT * FROM u{i}
                     UNION ALL
                     SELECT c.cl, c.j, c.c FROM c{i} c
                     WHERE c.cl NOT IN (SELECT DISTINCT cl FROM u{i}))""")
    parts.append(footer if footer is not None else f"""
        SELECT vec_id, cl AS cluster FROM a{iters}""")
    return "".join(parts)


def _text_clusters_sql(k: int = 8, iters: int = 3,
                       scale: int = 1024) -> str:
    """v_text_clusters oracle: the TextEncoder letter-count embedding
    CTE (same closed form as _text_knn_sql) feeding the identical
    unrolled k-means recurrence of _kmeans_sql — quantization is
    exact because the encoder emits integers (|e| << 2^53 / scale)."""
    import numpy as np  # noqa: F401
    import pyarrow as pa  # noqa: F401

    from alco_ray.stages.similarity import _ENC_ALPHABET, TextEncoder

    enc = TextEncoder()
    d = enc.R.shape[0]

    def cnt(ch: str) -> str:
        return f"(length(s) - length(replace(s, '{ch}', '')))"

    e_exprs = []
    for i in range(d):
        terms = [f"({int(enc.R[i, j])})*{cnt(_ENC_ALPHABET[j])}"
                 for j in range(len(_ENC_ALPHABET)) if enc.R[i, j]]
        e_exprs.append("CAST(" + " + ".join(terms)
                       + f" AS DOUBLE) AS e{i}")
    dims = " UNION ALL ".join(
        f"SELECT doc_id AS vec_id, CAST({j} AS BIGINT) AS j, "
        f"CAST(round(e{j} * {scale}) AS BIGINT) AS x FROM c"
        for j in range(d))
    prefix = f"""
        WITH lt AS (SELECT doc_id, lower(text) AS s FROM documents),
        c AS (SELECT doc_id, {', '.join(e_exprs)} FROM lt),
        q AS ({dims}),
        seed AS (
          SELECT doc_id AS vec_id,
                 CAST(row_number() OVER (ORDER BY doc_id) - 1 AS BIGINT)
                     AS cl
          FROM (SELECT doc_id FROM documents
                ORDER BY doc_id LIMIT {k}))"""
    footer = f"""
        SELECT vec_id AS doc_id, cl AS cluster FROM a{iters}"""
    return _kmeans_sql(k, iters, scale, prefix=prefix, footer=footer)


def _semdedup_sql(k: int = 8, iters: int = 3,
                  scale: int = 1024) -> str:
    """d_semdedup oracle: the _text_clusters_sql encoder + unrolled
    k-means assignment, then the within-cluster pair join under the
    IDENTICAL integer cosine test (tau = 999/1000, multiplication
    only: dot > 0 AND 10^6 dot^2 >= 998001 na nb) — the embedding
    CTE here stays BIGINT so dot^2 is exact (the DOUBLE e-columns of
    the clustering CTE would lose exactness past 2^53)."""
    from alco_ray.stages.similarity import _ENC_ALPHABET, TextEncoder

    enc = TextEncoder()
    d = enc.R.shape[0]

    def cnt(ch: str) -> str:
        return f"(length(s) - length(replace(s, '{ch}', '')))"

    e_exprs, i_exprs = [], []
    for i in range(d):
        terms = [f"({int(enc.R[i, j])})*{cnt(_ENC_ALPHABET[j])}"
                 for j in range(len(_ENC_ALPHABET)) if enc.R[i, j]]
        body = " + ".join(terms)
        e_exprs.append(f"CAST({body} AS DOUBLE) AS e{i}")
        i_exprs.append(f"CAST({body} AS BIGINT) AS i{i}")
    dims = " UNION ALL ".join(
        f"SELECT doc_id AS vec_id, CAST({j} AS BIGINT) AS j, "
        f"CAST(round(e{j} * {scale}) AS BIGINT) AS x FROM c"
        for j in range(d))
    prefix = f"""
        WITH lt AS (SELECT doc_id, lower(text) AS s FROM documents),
        c AS (SELECT doc_id, {', '.join(e_exprs)} FROM lt),
        ei AS (SELECT doc_id, {', '.join(i_exprs)} FROM lt),
        q AS ({dims}),
        seed AS (
          SELECT doc_id AS vec_id,
                 CAST(row_number() OVER (ORDER BY doc_id) - 1 AS BIGINT)
                     AS cl
          FROM (SELECT doc_id FROM documents
                ORDER BY doc_id LIMIT {k}))"""
    dot = " + ".join(f"x.i{j} * y.i{j}" for j in range(d))
    na = " + ".join(f"x.i{j} * x.i{j}" for j in range(d))
    nb = " + ".join(f"y.i{j} * y.i{j}" for j in range(d))
    footer = f""",
        asn AS (SELECT vec_id AS doc_id, cl AS cluster FROM a{iters}),
        pr AS (SELECT ax.doc_id AS a, ay.doc_id AS b,
                      ax.cluster AS cluster,
                      ({dot}) AS dot, ({na}) AS na, ({nb}) AS nb
               FROM asn ax
               JOIN asn ay ON ax.cluster = ay.cluster
                          AND ax.doc_id > ay.doc_id
               JOIN ei x ON x.doc_id = ax.doc_id
               JOIN ei y ON y.doc_id = ay.doc_id)
        SELECT a AS doc_id, CAST(cluster AS BIGINT) AS cluster,
               CAST(min(b) AS BIGINT) AS rep_id
        FROM pr
        WHERE dot > 0 AND 1000000 * dot * dot >= 998001 * na * nb
        GROUP BY a, cluster"""
    return _kmeans_sql(k, iters, scale, prefix=prefix, footer=footer)


def _pca_sql(iters: int = 4, scale: int = 1024, d: int = 64) -> str:
    """Unrolled fixed-point power-iteration PCA — the EXACT recurrence
    of stages/similarity.pca_power_fixed_point (Gram matrix of the
    half-away-quantized embeddings, ``v <- (G v * scale) // max|G v|``
    with DuckDB's truncating ``//``, HUGEINT-exact via sum()
    promotion), so the projection column hash-matches bit-for-bit."""
    # EVERY CTE is MATERIALIZED: DuckDB inlines plain single-reference
    # CTEs into a 64-deep nested plan whose optimization cost grows
    # exponentially with depth (measured: 2.6 s at 16 iters, 222 s at
    # 24, unbounded at 64); forcing materialization makes each
    # iteration a sequential 64-row step (1.6 s total at 64 iters).
    parts = [f"""
        WITH q AS MATERIALIZED (
          SELECT vec_id,
                 CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT)
                     AS j,
                 CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
                      AS BIGINT) AS x
          FROM embeddings),
        g AS MATERIALIZED (
          SELECT a.j AS i, b.j AS jj, sum(a.x * b.x) AS gv
          FROM q a JOIN q b USING (vec_id) GROUP BY a.j, b.j),
        v0 AS MATERIALIZED (
               SELECT CAST(t.j AS BIGINT) AS j,
                      CAST({scale} AS HUGEINT) AS v
               FROM range({d}) t(j))"""]
    for i in range(1, iters + 1):
        parts.append(f""",
        w{i} AS MATERIALIZED (
                 SELECT g.i AS j, sum(g.gv * v.v) AS w
                 FROM g JOIN v{i - 1} v ON v.j = g.jj GROUP BY g.i),
        v{i} AS MATERIALIZED (
                 SELECT j, (w * {scale}) // (max(abs(w)) OVER ()) AS v
                 FROM w{i})""")
    parts.append(f"""
        SELECT q.vec_id, CAST(sum(q.x * v.v) AS BIGINT) AS proj
        FROM q JOIN v{iters} v USING (j)
        GROUP BY q.vec_id""")
    return "".join(parts)


def _mmr_sql(k: int = 10, pool: int = 25, lam_num: int = 7,
             lam_den: int = 10, scale: int = 1024) -> str:
    """Unrolled greedy Maximal-Marginal-Relevance walk — the EXACT
    integer recurrence of stages/similarity.mmr_rerank (quantized dot
    products, score = lam_num*rel - (lam_den-lam_num)*max_sim_to_
    selected, rel-desc/id-asc pool cut, score-desc/id-asc step pick,
    empty-selection maxsim = 0), so the (vec_id, mmr_rank, score)
    rows hash-match bit-for-bit.  Every step CTE is MATERIALIZED
    (the _pca_sql lesson: inlined step chains blow up DuckDB's
    optimizer past ~20 levels)."""
    mu = lam_den - lam_num
    parts = [f"""
        WITH q AS MATERIALIZED (
          SELECT vec_id,
                 CAST(generate_subscripts(embedding, 1) AS BIGINT) AS j,
                 CAST(round(CAST(unnest(embedding) AS DOUBLE) * {scale})
                      AS BIGINT) AS x
          FROM embeddings),
        qv AS MATERIALIZED (SELECT j, x FROM q WHERE vec_id = 0),
        pool AS MATERIALIZED (
          SELECT q.vec_id, sum(q.x * qv.x) AS rel
          FROM q JOIN qv USING (j) GROUP BY q.vec_id
          ORDER BY rel DESC, q.vec_id LIMIT {pool}),
        pd AS MATERIALIZED (
          SELECT a.vec_id AS va, b.vec_id AS vb, sum(a.x * b.x) AS dot
          FROM q a JOIN pool pa ON pa.vec_id = a.vec_id
               JOIN q b ON b.j = a.j
               JOIN pool pb ON pb.vec_id = b.vec_id
          GROUP BY a.vec_id, b.vec_id),
        s1 AS MATERIALIZED (
          SELECT vec_id, {lam_num} * rel AS score FROM pool
          ORDER BY score DESC, vec_id LIMIT 1),
        sel1 AS MATERIALIZED (SELECT vec_id FROM s1)"""]
    for t in range(2, k + 1):
        parts.append(f""",
        s{t} AS MATERIALIZED (
          SELECT p.vec_id,
                 {lam_num} * p.rel - {mu} * max(d.dot) AS score
          FROM pool p JOIN pd d ON d.va = p.vec_id
               JOIN sel{t - 1} s ON s.vec_id = d.vb
          WHERE p.vec_id NOT IN (SELECT vec_id FROM sel{t - 1})
          GROUP BY p.vec_id, p.rel
          ORDER BY score DESC, p.vec_id LIMIT 1),
        sel{t} AS MATERIALIZED (
          SELECT vec_id FROM sel{t - 1}
          UNION ALL SELECT vec_id FROM s{t})""")
    union = "\n          UNION ALL ".join(
        f"SELECT vec_id, {t} AS r, score FROM s{t}"
        for t in range(1, k + 1))
    parts.append(f"""
        SELECT vec_id, CAST(r AS BIGINT) AS mmr_rank,
               CAST(score AS BIGINT) AS score
        FROM ({union})""")
    return "".join(parts)


def _pr_sql(iters: int = 5) -> str:
    """Unrolled fixed-point-integer PageRank — the EXACT recurrence of
    stages/graph.pagerank (scale 10^12, damping 85, floor division
    everywhere), so ranks hash-match bit-for-bit; a float power
    iteration would differ in ulps by summation order."""
    parts = [f"""
        WITH e0 AS (
          SELECT DISTINCT o.o_custkey * 2 AS src,
                          l.l_suppkey * 2 + 1 AS dst
          FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey),
        e AS (SELECT src AS k, dst AS v FROM e0
              UNION ALL SELECT dst, src FROM e0),
        deg AS (SELECT k, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY k),
        cons AS (SELECT {_PR_SCALE} // count(*) AS r0 FROM deg),
        p0 AS (SELECT k AS node, (SELECT r0 FROM cons) AS r FROM deg)"""]
    for i in range(1, iters + 1):
        parts.append(f""",
        p{i} AS (
          SELECT dg.k AS node,
                 (15 * (SELECT r0 FROM cons)) // 100
                 + (85 * COALESCE(s.c, 0)) // 100 AS r
          FROM deg dg LEFT JOIN (
            SELECT e.v AS node, sum(p.r // dd.d) AS c
            FROM e JOIN p{i - 1} p ON p.node = e.k
                   JOIN deg dd ON dd.k = e.k
            GROUP BY e.v) s ON s.node = dg.k)""")
    parts.append(f"""
        SELECT CASE WHEN node % 2 = 0 THEN 'cust' ELSE 'supp' END AS kind,
               CAST(node // 2 AS BIGINT) AS node_key,
               CAST(r AS BIGINT) AS rank_fp
        FROM p{iters}""")
    return "".join(parts)


def _model_sql(iters: int = 16) -> str:
    """Unrolled fixed-point-integer linear-GD fit + scoring — the
    EXACT recurrence of stages/model.fit_linear_gd (weights scale
    10^6, LR_DEN = 5 * 1000^2, truncating division — DuckDB's ``//``
    truncates toward zero exactly like model._tdiv), so the trained
    weights AND every document's score hash-match bit-for-bit."""
    feats = """
        WITH tk AS MATERIALIZED (SELECT doc_id, text,
                           list_filter(string_split_regex(lower(text),
                             '[^a-z0-9]+'), x -> x <> '') AS l
                    FROM documents),
        q AS MATERIALIZED (SELECT doc_id,
                CAST(length(text) AS BIGINT) AS n_chars,
                CAST(len(l) AS BIGINT) AS n_tokens,
                CAST(len(list_filter(l, x -> x IN
                     ('the','a','and','of','to','in','is','it')))
                     AS BIGINT) AS n_stopwords,
                (1000 * CAST(length(regexp_replace(text, '[^a-zA-Z]',
                     '', 'g')) AS BIGINT))
                    // GREATEST(CAST(length(text) AS BIGINT), 1)
                    AS alpha_ratio_millis
              FROM tk),
        f AS MATERIALIZED (SELECT doc_id,
                CAST(1000 AS BIGINT) AS f0,
                least(n_chars, 2000) * 1000 // 2000 AS f1,
                least(n_tokens, 400) * 1000 // 400 AS f2,
                least(1000 * n_stopwords // GREATEST(n_tokens, 1),
                      200) * 1000 // 200 AS f3,
                alpha_ratio_millis AS f4,
                CASE WHEN n_tokens >= 20 AND n_stopwords * 10 >= n_tokens
                     THEN CAST(1000 AS BIGINT) ELSE CAST(0 AS BIGINT)
                     END AS y
              FROM q),
        nn AS MATERIALIZED (SELECT CAST(count(*) AS HUGEINT) AS n FROM f),
        w0 AS (SELECT CAST(0 AS HUGEINT) AS w0, CAST(0 AS HUGEINT) AS w1,
                      CAST(0 AS HUGEINT) AS w2, CAST(0 AS HUGEINT) AS w3,
                      CAST(0 AS HUGEINT) AS w4)"""
    parts = [feats]
    dot = ("CAST(f0 AS HUGEINT) * w.w0 + CAST(f1 AS HUGEINT) * w.w1"
           " + CAST(f2 AS HUGEINT) * w.w2 + CAST(f3 AS HUGEINT) * w.w3"
           " + CAST(f4 AS HUGEINT) * w.w4")
    for i in range(1, iters + 1):
        gsel = ", ".join(
            f"sum(CAST(f{j} AS HUGEINT) * r) AS g{j}" for j in range(5))
        wsel = ", ".join(
            f"w.w{j} - g.g{j} // ((SELECT n FROM nn) * 5000000) AS w{j}"
            for j in range(5))
        parts.append(f""",
        g{i} AS MATERIALIZED (SELECT {gsel} FROM (
            SELECT f.*, ({dot} - CAST(y AS HUGEINT) * 1000000) AS r
            FROM f, w{i - 1} w)),
        w{i} AS MATERIALIZED (SELECT {wsel} FROM w{i - 1} w, g{i} g)""")
    parts.append(f""",
        sc AS MATERIALIZED (SELECT f.doc_id, ({dot}) AS s, y
                            FROM f, w{iters} w),
        th AS (SELECT CASE
                 WHEN count(*) FILTER (WHERE y = 1000) = 0
                   OR count(*) FILTER (WHERE y = 0) = 0
                 THEN CAST(500000000 AS HUGEINT)
                 ELSE (sum(s) FILTER (WHERE y = 1000)
                         // count(*) FILTER (WHERE y = 1000)
                       + sum(s) FILTER (WHERE y = 0)
                         // count(*) FILTER (WHERE y = 0)) // 2
                 END AS thr FROM sc)
        SELECT doc_id, CAST(s AS BIGINT) AS score_fp,
               s >= (SELECT thr FROM th) AS pred_keep
        FROM sc""")
    return "".join(parts)


def _text_knn_sql(limit: int = 10) -> str:
    """Generate the v_text_knn oracle: re-derive the TextEncoder's
    integer projection and the probe's query vector in Python and
    inline them as SQL constants — letter counts via length/replace,
    cosine mirroring knn_brute's max(norm, 1e-30) guard.  ``limit``
    parameterizes the rank depth so _hybrid_rrf_sql can reuse the
    generator for its depth-50 semantic leg."""
    import numpy as np
    import pyarrow as pa

    from alco_ray.pipelines.queries import TEXT_KNN_PROBE
    from alco_ray.stages.similarity import _ENC_ALPHABET, TextEncoder

    enc = TextEncoder()
    qv = enc.encode(pa.array([TEXT_KNN_PROBE], pa.string()))[0]
    d = len(qv)

    def cnt(ch: str) -> str:
        return f"(length(s) - length(replace(s, '{ch}', '')))"

    e_exprs = []
    for i in range(d):
        terms = [f"({int(enc.R[i, j])})*{cnt(_ENC_ALPHABET[j])}"
                 for j in range(len(_ENC_ALPHABET)) if enc.R[i, j]]
        e_exprs.append("CAST(" + " + ".join(terms) + f" AS DOUBLE) AS e{i}")
    dot = " + ".join(f"e{i}*({int(qv[i])})" for i in range(d))
    nrm = " + ".join(f"e{i}*e{i}" for i in range(d))
    qn = repr(float(np.linalg.norm(qv.astype(np.float64))))
    return f"""
        WITH lt AS (SELECT doc_id, lower(text) AS s FROM documents),
        c AS (SELECT doc_id, {', '.join(e_exprs)} FROM lt),
        sm AS (SELECT doc_id,
                      ({dot}) / (greatest(sqrt({nrm}), 1e-30) * {qn})
                          AS sim
               FROM c)
        SELECT doc_id, CAST(row_number() OVER (
                   ORDER BY sim DESC, doc_id) AS BIGINT) AS rank
        FROM sm QUALIFY rank <= {limit}"""


def _hybrid_rrf_sql() -> str:
    """Generate the v_hybrid_rrf oracle: the exact-integer BM25 law
    of stages/textindex.bm25_docs_topk (identical to
    ranked_bm25_probe's: w = ((2N-2df+1)*10^6)//(2df+1), avgdl_q =
    (total_tokens*1000)//N, tfc = (22*tf*avgdl_q*10^4) //
    (10*avgdl_q*tf + 3*avgdl_q + 9000*dl)) over the shared document
    tokenization, the TextEncoder cosine leg at depth 50 via
    _text_knn_sql, and the scaled-integer RRF fold
    (10^12 // (60 + rank), missing leg -> 0) — every step floor
    division on positive integers, so the fused ranking is
    engine-independent bit-for-bit."""
    from alco_ray.pipelines.queries import HYBRID_TERMS

    tf_cols = ", ".join(
        f"CAST(len(list_filter(l, x -> x = '{t}')) AS BIGINT) AS tf{i}"
        for i, t in enumerate(HYBRID_TERMS))
    df_cols = ", ".join(
        f"CAST(count(*) FILTER (WHERE tf{i} > 0) AS BIGINT) AS df{i}"
        for i in range(len(HYBRID_TERMS)))
    w_cols = ", ".join(
        f"((2*n - 2*df{i} + 1) * 1000000) // (2*df{i} + 1) AS w{i}"
        for i in range(len(HYBRID_TERMS)))
    score = " + ".join(
        f"w{i} * ((22 * tf{i} * avgdl * 10000) // "
        f"greatest(10*avgdl*tf{i} + 3*avgdl + 9000*dl, 1))"
        for i in range(len(HYBRID_TERMS)))
    return f"""
        WITH bmtk AS ({_DOC_TOKENS}),
        bmst AS (SELECT CAST(count(*) AS BIGINT) AS n,
                        CAST(coalesce(sum(len(l)), 0) AS BIGINT) AS tt
                 FROM bmtk),
        bmtf AS (SELECT doc_id, CAST(len(l) AS BIGINT) AS dl, {tf_cols}
                 FROM bmtk),
        bmdf AS (SELECT {df_cols} FROM bmtf),
        bmw AS (SELECT (tt * 1000) // n AS avgdl, {w_cols}
                FROM bmst, bmdf),
        bmsc AS (SELECT doc_id, {score} AS score FROM bmtf, bmw),
        bm AS (SELECT doc_id, CAST(row_number() OVER (
                   ORDER BY score DESC, doc_id) AS BIGINT) AS r
               FROM bmsc WHERE score > 0 QUALIFY r <= 50),
        kn AS ({_text_knn_sql(50)}),
        ids AS (SELECT doc_id FROM bm UNION SELECT doc_id FROM kn),
        fused AS (SELECT i.doc_id,
                    coalesce(1000000000000 // (60 + bm.r), 0)
                  + coalesce(1000000000000 // (60 + kn.rank), 0)
                      AS rrf_score
                  FROM ids i
                  LEFT JOIN bm ON i.doc_id = bm.doc_id
                  LEFT JOIN kn ON i.doc_id = kn.doc_id)
        SELECT doc_id, rrf_score, CAST(row_number() OVER (
                   ORDER BY rrf_score DESC, doc_id) AS BIGINT) AS rank
        FROM fused QUALIFY rank <= 10"""


def oracle_sql() -> dict[str, str]:
    return {
        # ----------------------------------------------- round-4 ops
        "d_model_score": _model_sql(16),
        "v_text_knn": _text_knn_sql(),
        "v_hybrid_rrf": _hybrid_rrf_sql(),
        "v_text_clusters": _text_clusters_sql(8, 3, 1024),
        "d_semdedup": _semdedup_sql(8, 3, 1024),
        "v_pca": _pca_sql(64, 1024, 64),
        "v_mmr": _mmr_sql(10, 25, 7, 10, 1024),
        # SQ8 scalar quantization: per-dim global [min,max] over the
        # quantized ints, code = (x-mn)*255 // span (x >= mn, so
        # truncation = floor in both engines); constant dims code 0.
        "v_sq8": f"""
            WITH q AS (
              SELECT vec_id,
                     CAST(generate_subscripts(embedding, 1) AS BIGINT)
                         AS j,
                     CAST(round(CAST(unnest(embedding) AS DOUBLE)
                          * 1024) AS BIGINT) AS x
              FROM embeddings),
            mm AS (SELECT j, min(x) AS mn, max(x) AS mx FROM q
                   GROUP BY j),
            c AS (SELECT vec_id,
                         CASE WHEN mx > mn
                              THEN ((x - mn) * 255) // (mx - mn)
                              ELSE 0 END AS code
                  FROM q JOIN mm USING (j))
            SELECT vec_id, CAST(sum(code) AS BIGINT) AS code_sum,
                   CAST(min(code) AS BIGINT) AS code_min,
                   CAST(max(code) AS BIGINT) AS code_max
            FROM c GROUP BY vec_id""",
        # Winnowing: token id = sorted-vocab rank (the engine's
        # searchsorted + 1), k=4 gram left-fold poly mod 2^31-1, w=5
        # window min with RIGHTMOST tie (ORDER BY h, p DESC), distinct
        # selected positions per doc.
        "d_winnow": f"""
            WITH tk AS ({{doc_tokens}}),
            vocab AS (SELECT token,
                             CAST(row_number() OVER (ORDER BY token)
                                  AS BIGINT) AS vid
                      FROM (SELECT DISTINCT unnest(l) AS token
                            FROM tk)),
            pos AS (SELECT doc_id,
                           CAST(generate_subscripts(l, 1) AS BIGINT)
                               AS p,
                           unnest(l) AS token
                    FROM tk),
            pv AS (SELECT doc_id, p, vid
                   FROM pos JOIN vocab USING (token)),
            g AS (SELECT a.doc_id, a.p,
                         ((((a.vid * 1000003 + b.vid) % 2147483647)
                            * 1000003 + c.vid) % 2147483647
                            * 1000003 + d.vid) % 2147483647 AS h
                  FROM pv a
                  JOIN pv b ON b.doc_id = a.doc_id AND b.p = a.p + 1
                  JOIN pv c ON c.doc_id = a.doc_id AND c.p = a.p + 2
                  JOIN pv d ON d.doc_id = a.doc_id AND d.p = a.p + 3),
            gc AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams
                   FROM g GROUP BY doc_id),
            wins AS (SELECT doc_id, n_grams,
                            CAST(unnest(generate_series(1,
                                 greatest(n_grams - 4, 1))) AS BIGINT)
                                AS wj
                     FROM gc),
            wg AS (SELECT w.doc_id, w.wj, g.p, g.h,
                          row_number() OVER (
                              PARTITION BY w.doc_id, w.wj
                              ORDER BY g.h, g.p DESC) AS rn
                   FROM wins w JOIN g ON g.doc_id = w.doc_id
                        AND g.p BETWEEN w.wj
                            AND least(w.wj + 4, w.n_grams)),
            sel AS (SELECT DISTINCT doc_id, p, h FROM wg
                    WHERE rn = 1)
            SELECT s.doc_id, gc.n_grams,
                   CAST(count(*) AS BIGINT) AS n_select,
                   CAST(sum(h) AS BIGINT) AS fp_sum
            FROM sel s JOIN gc USING (doc_id)
            GROUP BY s.doc_id, gc.n_grams""".format(
                doc_tokens=_DOC_TOKENS),
        # CUSUM changepoint: dev_i = n*prefix_i - i*total over cents
        # in (ts, event_id) order; max |dev|, earliest index on ties.
        "e_cusum": """
            WITH e AS (SELECT user_id,
                              CAST(round(value * 100) AS BIGINT)
                                  AS cents,
                              CAST(row_number() OVER (
                                   PARTITION BY user_id
                                   ORDER BY ts, event_id) AS BIGINT)
                                  AS i
                       FROM events),
            n AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                         sum(cents) AS tot
                  FROM e GROUP BY user_id),
            c AS (SELECT e.user_id, e.i, n.n,
                         abs(n.n * sum(e.cents) OVER (
                                 PARTITION BY e.user_id ORDER BY e.i)
                             - e.i * n.tot) AS adev
                  FROM e JOIN n USING (user_id))
            SELECT user_id, n AS n_events,
                   CAST(adev AS BIGINT) AS max_dev,
                   CAST(i AS BIGINT) AS cp_idx
            FROM c
            QUALIFY row_number() OVER (PARTITION BY user_id
                                       ORDER BY adev DESC, i) = 1""",
        # BPE: the engine persists its TRAINED merge list as a sidecar
        # (training itself is pinned by pytest against a single-process
        # reference); the oracle replays the apply law — sequential
        # rank-order passes, leftmost-non-overlapping occurrences — as
        # a recursive CTE over a separator-wrapped token string, where
        # one string replace() IS one merge pass.
        "d_bpe_tokens": f"""
            WITH m AS MATERIALIZED (SELECT rank, lhs, rhs
              FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/bpe_merges.parquet')),
            tk AS MATERIALIZED ({_DOC_TOKENS}),
            w AS (SELECT DISTINCT unnest(l) AS word FROM tk),
            c AS (SELECT word, chr(31) || array_to_string(
                      string_split(word, ''), chr(31) || chr(31))
                      || chr(31) AS s0 FROM w),
            fin AS MATERIALIZED (
              WITH RECURSIVE st(word, s, r) AS (
                SELECT word, s0, 0 FROM c
                UNION ALL
                SELECT st.word,
                       replace(st.s, chr(31) || m.lhs || chr(31)
                               || chr(31) || m.rhs || chr(31),
                               chr(31) || m.lhs || m.rhs || chr(31)),
                       st.r + 1
                FROM st JOIN m ON m.rank = st.r + 1)
              SELECT word, string_split(trim(s, chr(31)),
                                        chr(31) || chr(31)) AS toks
              FROM st WHERE r = COALESCE((SELECT max(rank) FROM m), 0)),
            t AS (SELECT doc_id, unnest(l) AS word,
                         generate_subscripts(l, 1) AS wi FROM tk),
            e AS (SELECT t.doc_id, t.wi, unnest(f.toks) AS bpe_token,
                         generate_subscripts(f.toks, 1) AS k
                  FROM t JOIN fin f USING (word))
            SELECT doc_id,
                   row_number() OVER (PARTITION BY doc_id
                                      ORDER BY wi, k) - 1 AS tok_idx,
                   bpe_token
            FROM e""",
        "d_pack_bpe": f"""
            WITH m AS MATERIALIZED (SELECT rank, lhs, rhs
              FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/bpe_merges.parquet')),
            tk AS MATERIALIZED ({_DOC_TOKENS}),
            w AS (SELECT DISTINCT unnest(l) AS word FROM tk),
            c AS (SELECT word, chr(31) || array_to_string(
                      string_split(word, ''), chr(31) || chr(31))
                      || chr(31) AS s0 FROM w),
            fin AS MATERIALIZED (
              WITH RECURSIVE st(word, s, r) AS (
                SELECT word, s0, 0 FROM c
                UNION ALL
                SELECT st.word,
                       replace(st.s, chr(31) || m.lhs || chr(31)
                               || chr(31) || m.rhs || chr(31),
                               chr(31) || m.lhs || m.rhs || chr(31)),
                       st.r + 1
                FROM st JOIN m ON m.rank = st.r + 1)
              SELECT word, string_split(trim(s, chr(31)),
                                        chr(31) || chr(31)) AS toks
              FROM st WHERE r = COALESCE((SELECT max(rank) FROM m), 0)),
            t AS (SELECT doc_id, unnest(l) AS word FROM tk),
            cnt AS (SELECT d.doc_id, COALESCE(s.n, 0) AS n_bpe_tokens
                    FROM documents d LEFT JOIN (
                      SELECT t.doc_id,
                             CAST(sum(len(f.toks)) AS BIGINT) AS n
                      FROM t JOIN fin f USING (word)
                      GROUP BY t.doc_id) s USING (doc_id))
            SELECT doc_id, n_bpe_tokens,
                   CAST((sum(n_bpe_tokens) OVER (ORDER BY doc_id
                         ROWS UNBOUNDED PRECEDING) - n_bpe_tokens)
                        // 512 AS BIGINT) AS pack_id
            FROM cnt""",
        "d_chunk_bpe": f"""
            WITH m AS MATERIALIZED (SELECT rank, lhs, rhs
              FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/bpe_merges.parquet')),
            tk AS MATERIALIZED ({_DOC_TOKENS}),
            w AS (SELECT DISTINCT unnest(l) AS word FROM tk),
            c AS (SELECT word, chr(31) || array_to_string(
                      string_split(word, ''), chr(31) || chr(31))
                      || chr(31) AS s0 FROM w),
            fin AS MATERIALIZED (
              WITH RECURSIVE st(word, s, r) AS (
                SELECT word, s0, 0 FROM c
                UNION ALL
                SELECT st.word,
                       replace(st.s, chr(31) || m.lhs || chr(31)
                               || chr(31) || m.rhs || chr(31),
                               chr(31) || m.lhs || m.rhs || chr(31)),
                       st.r + 1
                FROM st JOIN m ON m.rank = st.r + 1)
              SELECT word, string_split(trim(s, chr(31)),
                                        chr(31) || chr(31)) AS toks
              FROM st WHERE r = COALESCE((SELECT max(rank) FROM m), 0)),
            t AS (SELECT doc_id, unnest(l) AS word,
                         generate_subscripts(l, 1) AS wi FROM tk),
            e AS (SELECT t.doc_id, t.wi, unnest(f.toks) AS bpe_token,
                         generate_subscripts(f.toks, 1) AS k
                  FROM t JOIN fin f USING (word)),
            x AS (SELECT doc_id,
                         row_number() OVER (PARTITION BY doc_id
                                            ORDER BY wi, k) - 1
                             AS tok_idx,
                         bpe_token
                  FROM e)
            SELECT doc_id, tok_idx // 64 AS chunk_idx,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   string_agg(bpe_token, ' ' ORDER BY tok_idx)
                       AS chunk_text
            FROM x GROUP BY doc_id, chunk_idx""",
        "t_grep_after": _T_PARSED + """
            SELECT conv_id, turn_idx, parsed_ts, text
            FROM p
            WHERE text LIKE '%shuffle%' AND level = 'ERROR'
              AND parsed_ts >= TIMESTAMP '2024-01-05 00:00:00'
              AND parsed_ts <  TIMESTAMP '2024-01-25 00:00:00'
            ORDER BY parsed_ts DESC, conv_id, turn_idx
            LIMIT 20 OFFSET 20""",
        # ----------------------------------------------- round-3i ops
        "q_pagerank": _pr_sql(5),
        "v_kmeans": _kmeans_sql(8, 3, 1024),
        "t_gap_median": f"""
            WITH t AS (SELECT * FROM {_T_SRC}),
            lg AS (SELECT conv_id, ts,
                          lag(ts) OVER (PARTITION BY conv_id
                                        ORDER BY ts, turn_idx) AS pts
                   FROM t),
            g AS (SELECT conv_id,
                         CAST(date_diff('microsecond', pts, ts)
                              AS DOUBLE) AS gap_us
                  FROM lg WHERE pts IS NOT NULL),
            o AS (SELECT conv_id, gap_us,
                         row_number() OVER (PARTITION BY conv_id
                                            ORDER BY gap_us) - 1 AS r,
                         count(*) OVER (PARTITION BY conv_id) AS n
                  FROM g)
            SELECT conv_id,
                   max(CASE WHEN r = CAST(floor(0.5 * (n - 1)) AS BIGINT)
                            THEN gap_us END) AS lo_value,
                   max(CASE WHEN r = CAST(ceil(0.5 * (n - 1)) AS BIGINT)
                            THEN gap_us END) AS hi_value
            FROM o GROUP BY conv_id""",
        "t_search_bm25": _T_PARSED + """
            , tk3 AS (SELECT conv_id, turn_idx,
                      list_filter(string_split_regex(lower(text),
                                  '[^a-z0-9]+'), x -> x <> '') AS l
                      FROM p),
            dl AS (SELECT conv_id, turn_idx,
                          CAST(len(l) AS BIGINT) AS dl FROM tk3),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(len(l)) AS BIGINT) AS toks
                    FROM tk3),
            ag AS (SELECT (toks * 1000) // n AS avgdl_q, n FROM tot),
            pos3 AS (SELECT conv_id, turn_idx, unnest(l) AS tok
                     FROM tk3),
            tt AS (SELECT conv_id, turn_idx, tok,
                          CAST(count(*) AS BIGINT) AS tf
                   FROM pos3 WHERE tok IN ('shuffle', 'stream')
                   GROUP BY conv_id, turn_idx, tok),
            dfq AS (SELECT tok, CAST(count(*) AS BIGINT) AS df
                    FROM tt GROUP BY tok),
            wq AS (SELECT tok,
                          ((2 * (SELECT n FROM ag) - 2 * df + 1)
                           * 1000000) // (2 * df + 1) AS w
                   FROM dfq),
            sc AS (SELECT tt.conv_id, tt.turn_idx,
                          CAST(sum(wq.w *
                               ((22 * tt.tf * ag.avgdl_q * 10000) //
                                (10 * ag.avgdl_q * tt.tf
                                 + 3 * ag.avgdl_q + 9000 * dl.dl)))
                               AS BIGINT) AS score
                   FROM tt
                   JOIN wq USING (tok)
                   JOIN dl USING (conv_id, turn_idx)
                   CROSS JOIN ag
                   GROUP BY tt.conv_id, tt.turn_idx)
            SELECT p.conv_id, p.turn_idx, sc.score, p.parsed_ts, p.text
            FROM sc JOIN p USING (conv_id, turn_idx)
            ORDER BY sc.score DESC, conv_id, turn_idx LIMIT 20""",
        "t_search_ranked": _T_PARSED + """
            , tk3 AS (SELECT conv_id, turn_idx,
                      list_filter(string_split_regex(lower(text),
                                  '[^a-z0-9]+'), x -> x <> '') AS l
                      FROM p),
            pos3 AS (SELECT conv_id, turn_idx, unnest(l) AS tok
                     FROM tk3),
            tt AS (SELECT conv_id, turn_idx, tok,
                          CAST(count(*) AS BIGINT) AS tf
                   FROM pos3 WHERE tok IN ('shuffle', 'stream')
                   GROUP BY conv_id, turn_idx, tok),
            dfq AS (SELECT tok, CAST(count(*) AS BIGINT) AS df
                    FROM tt GROUP BY tok),
            nn3 AS (SELECT CAST(count(*) AS BIGINT) AS n FROM p),
            wq AS (SELECT tok,
                          ((2 * (SELECT n FROM nn3) - 2 * df + 1)
                           * 1000000) // (2 * df + 1) AS w
                   FROM dfq),
            sc AS (SELECT tt.conv_id, tt.turn_idx,
                          CAST(sum(tt.tf * wq.w) AS BIGINT) AS score
                   FROM tt JOIN wq USING (tok)
                   GROUP BY tt.conv_id, tt.turn_idx)
            SELECT p.conv_id, p.turn_idx, sc.score, p.parsed_ts, p.text
            FROM sc JOIN p USING (conv_id, turn_idx)
            ORDER BY sc.score DESC, conv_id, turn_idx LIMIT 20""",
        "e_busy_periods": """
            WITH e AS (SELECT user_id, ts, event_id,
                              ts - INTERVAL 15 MINUTE AS s,
                              ts + INTERVAL 15 MINUTE AS en
                       FROM events),
            o AS (SELECT *, lag(en) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS pen
                  FROM e),
            m AS (SELECT *, CASE WHEN pen IS NULL OR s > pen
                                 THEN 1 ELSE 0 END AS brk FROM o),
            i AS (SELECT *, sum(brk) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)
                            AS island FROM m)
            SELECT user_id, min(s) AS start_ts, max(en) AS end_ts,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM i GROUP BY user_id, island""",
        "e_mad": """
            WITH c AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cents
                       FROM events),
            m AS (SELECT event_type, quantile_disc(cents, 0.5) AS med
                  FROM c GROUP BY event_type)
            SELECT c.event_type,
                   CAST(quantile_disc(abs(c.cents - m.med), 0.5)
                        AS BIGINT) AS mad_cents
            FROM c JOIN m USING (event_type)
            GROUP BY c.event_type""",
        "e_locf": """
            WITH e AS (SELECT user_id, CAST(ts AS DATE) AS d, ts,
                              event_id,
                              CAST(round(value * 100) AS BIGINT) AS c
                       FROM events),
            dl AS (SELECT user_id, d, c FROM (
                     SELECT *, row_number() OVER (
                         PARTITION BY user_id, d
                         ORDER BY ts DESC, event_id DESC) AS rn
                     FROM e) WHERE rn = 1),
            b AS (SELECT user_id, min(d) AS lo, max(d) AS hi
                  FROM e GROUP BY user_id),
            days AS (SELECT user_id,
                            CAST(unnest(generate_series(
                                lo, hi, INTERVAL 1 DAY)) AS DATE) AS d
                     FROM b),
            j AS (SELECT days.user_id, days.d, dl.c
                  FROM days LEFT JOIN dl USING (user_id, d)),
            g AS (SELECT *, count(c) OVER (PARTITION BY user_id
                                           ORDER BY d) AS grp
                  FROM j)
            SELECT user_id, strftime(d, '%Y-%m-%d') AS day,
                   CAST(max(c) OVER (PARTITION BY user_id, grp)
                        AS BIGINT) AS cents
            FROM g""",
        "e_outliers": """
            WITH c AS (SELECT event_id, event_type,
                              CAST(round(value * 100) AS BIGINT) AS cents
                       FROM events),
            st AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(cents) AS BIGINT) AS s,
                          CAST(sum(CAST(cents AS HUGEINT) * cents)
                               AS HUGEINT) AS q
                   FROM c GROUP BY event_type)
            SELECT c.event_id, c.event_type, c.cents
            FROM c JOIN st USING (event_type)
            WHERE CAST(st.n * c.cents - st.s AS HUGEINT)
                  * CAST(st.n * c.cents - st.s AS HUGEINT)
                  > 4 * (st.n * st.q
                         - CAST(st.s AS HUGEINT) * st.s)""",
        "e_value_indexed": """
            SELECT event_id, user_id, value FROM events
            WHERE value >= 37.25 AND value < 41.5""",
        "e_value_indexed_q": """
            SELECT event_id, user_id, value FROM events
            WHERE value >= 37.25 AND value < 41.5""",
        "t_profile": " UNION ALL ".join(
            f"""SELECT '{c}' AS col_name,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(*) - count({c}) AS BIGINT) AS n_nulls,
                   CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct
            FROM (SELECT * FROM {_T_SRC})""" for c in
            ["conv_id", "turn_idx", "role", "text", "tool", "ts"]),
        "e_profile": " UNION ALL ".join(
            f"""SELECT '{c}' AS col_name,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(count(*) - count({c}) AS BIGINT) AS n_nulls,
                   CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct
            FROM events""" for c in
            ["event_id", "ts", "user_id", "event_type", "value",
             "props"]),
        "q_fuzzy_names": """
            WITH c AS (SELECT c_name FROM customer
                       WHERE c_custkey % 4 = 0)
            SELECT a.c_name AS val_a, b.c_name AS val_b
            FROM c a JOIN c b ON a.c_name < b.c_name
            WHERE levenshtein(a.c_name, b.c_name) <= 1""",
        "e_densify": """
            WITH e AS (SELECT user_id, CAST(ts AS DATE) AS d
                       FROM events),
            b AS (SELECT user_id, min(d) AS lo, max(d) AS hi
                  FROM e GROUP BY user_id),
            days AS (SELECT user_id,
                            CAST(unnest(generate_series(
                                lo, hi, INTERVAL 1 DAY)) AS DATE) AS d
                     FROM b),
            c AS (SELECT user_id, d, CAST(count(*) AS BIGINT) AS n
                  FROM e GROUP BY user_id, d)
            SELECT days.user_id, strftime(days.d, '%Y-%m-%d') AS day,
                   COALESCE(c.n, 0) AS n_events
            FROM days LEFT JOIN c USING (user_id, d)""",
        "t_grep_near": _T_PARSED + """
            , tk2 AS (SELECT conv_id, turn_idx,
                      list_filter(string_split_regex(lower(text),
                                  '[^a-z0-9]+'), x -> x <> '') AS l
                      FROM p),
            posn AS (SELECT conv_id, turn_idx, unnest(l) AS tok,
                            generate_subscripts(l, 1) AS pn FROM tk2),
            na AS (SELECT conv_id, turn_idx, pn FROM posn
                   WHERE tok = 'shuffle'),
            nb AS (SELECT conv_id, turn_idx, pn FROM posn
                   WHERE tok = 'stream'),
            nhit AS (SELECT DISTINCT na.conv_id, na.turn_idx
                     FROM na JOIN nb USING (conv_id, turn_idx)
                     WHERE abs(na.pn - nb.pn) <= 2)
            SELECT p.conv_id, p.turn_idx, p.parsed_ts, p.text
            FROM p JOIN nhit USING (conv_id, turn_idx)
            ORDER BY parsed_ts DESC, conv_id, turn_idx LIMIT 20""",
        "v_gram": """
            WITH v AS (SELECT vec_id, unnest(embedding) AS e,
                              generate_subscripts(embedding, 1) AS i
                       FROM embeddings),
            q AS (SELECT vec_id, i,
                         CAST(round(CAST(e AS DOUBLE) * 1000000)
                              AS BIGINT) AS x
                  FROM v)
            SELECT a.i AS i, b.i AS j,
                   CAST(sum(a.x * b.x) AS BIGINT) AS s
            FROM q a JOIN q b USING (vec_id)
            GROUP BY a.i, b.i""",
        "e_grouping_sets": """
            WITH e AS (SELECT event_type,
                              strftime(ts, '%Y-%m-%d') AS day,
                              CAST(round(value * 100) AS BIGINT) AS c
                       FROM events)
            SELECT event_type, day,
                   CAST(sum(c) AS BIGINT) AS value_cents,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM e
            GROUP BY GROUPING SETS ((event_type, day), (day), ())""",
        "d_lm_score": """
            WITH lo AS (SELECT doc_id, lower(text) AS t FROM documents),
            pos AS (SELECT doc_id, t,
                           unnest(generate_series(1,
                                  greatest(length(t) - 2, 0))) AS p
                    FROM lo),
            ag AS (SELECT doc_id, substr(t, p, 3) AS gram FROM pos),
            dg AS (SELECT DISTINCT doc_id, gram FROM ag),
            df AS (SELECT gram, count(*) AS df FROM dg GROUP BY gram),
            prof AS (SELECT gram FROM (
                       SELECT gram, row_number() OVER (
                           ORDER BY df DESC, gram) AS rn
                       FROM df) WHERE rn <= 200),
            hits AS (SELECT ag.doc_id, CAST(count(*) AS BIGINT) AS h
                     FROM ag JOIN prof USING (gram) GROUP BY ag.doc_id),
            tot AS (SELECT doc_id,
                           CAST(greatest(length(t) - 2, 0) AS BIGINT) AS n
                    FROM lo)
            SELECT t.doc_id, t.n AS n_grams,
                   COALESCE(h.h, 0) AS n_hits,
                   CASE WHEN t.n > 0
                        THEN CAST(COALESCE(h.h, 0) AS DOUBLE) / t.n
                        ELSE 0.0 END AS lm_score
            FROM tot t LEFT JOIN hits h USING (doc_id)""",
        "d_cross_dup": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) AS ord FROM tk),
            w AS (SELECT doc_id, tok,
                         lead(tok, 1) OVER win AS t1,
                         lead(tok, 2) OVER win AS t2,
                         lead(tok, 3) OVER win AS t3,
                         lead(tok, 4) OVER win AS t4
                  FROM t WINDOW win AS (PARTITION BY doc_id ORDER BY ord)),
            g AS (SELECT DISTINCT doc_id,
                         tok || ' ' || t1 || ' ' || t2 || ' ' || t3
                             || ' ' || t4 AS gram
                  FROM w WHERE t4 IS NOT NULL),
            df AS (SELECT gram, CAST(count(*) AS BIGINT) AS df
                   FROM g GROUP BY gram),
            st AS (SELECT g.doc_id, CAST(count(*) AS BIGINT) AS ng,
                          CAST(sum(CASE WHEN df.df > 1 THEN 1 ELSE 0 END)
                               AS BIGINT) AS nd
                   FROM g JOIN df USING (gram) GROUP BY g.doc_id)
            SELECT d.doc_id, COALESCE(st.ng, 0) AS n_grams,
                   COALESCE(st.nd, 0) AS n_dup,
                   CASE WHEN COALESCE(st.ng, 0) > 0
                        THEN CAST(st.nd AS DOUBLE) / st.ng
                        ELSE 0.0 END AS dup_share
            FROM documents d LEFT JOIN st USING (doc_id)""",
        "d_dup_spans": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) - 1 AS ord FROM tk),
            w AS (SELECT doc_id, ord, tok,
                         lead(tok, 1) OVER win AS t1,
                         lead(tok, 2) OVER win AS t2,
                         lead(tok, 3) OVER win AS t3,
                         lead(tok, 4) OVER win AS t4
                  FROM t WINDOW win AS (PARTITION BY doc_id ORDER BY ord)),
            g AS (SELECT doc_id, ord,
                         tok || ' ' || t1 || ' ' || t2 || ' ' || t3
                             || ' ' || t4 AS gram
                  FROM w WHERE t4 IS NOT NULL),
            shared AS (SELECT gram FROM g GROUP BY gram
                       HAVING count(DISTINCT doc_id) > 1),
            cov AS (SELECT DISTINCT g.doc_id, g.ord + k.k AS ord
                    FROM g JOIN shared USING (gram),
                         (SELECT unnest(generate_series(0, 4)) AS k) k),
            nt AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens
                   FROM t GROUP BY doc_id),
            nm AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_masked
                   FROM cov GROUP BY doc_id),
            ct AS (SELECT t.doc_id,
                          string_agg(t.tok, ' ' ORDER BY t.ord)
                              AS clean_text
                   FROM t LEFT JOIN cov
                     ON t.doc_id = cov.doc_id AND t.ord = cov.ord
                   WHERE cov.ord IS NULL
                   GROUP BY t.doc_id)
            SELECT d.doc_id,
                   COALESCE(nt.n_tokens, 0) AS n_tokens,
                   COALESCE(nm.n_masked, 0) AS n_masked,
                   COALESCE(ct.clean_text, '') AS clean_text
            FROM documents d
            LEFT JOIN nt USING (doc_id)
            LEFT JOIN nm USING (doc_id)
            LEFT JOIN ct USING (doc_id)""",
        "q_nation_traffic": """
            SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(round(l.l_extendedprice
                                       * (1 - l.l_discount) * 100)
                                 AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation sn ON sn.n_nationkey = s.s_nationkey
            JOIN nation cn ON cn.n_nationkey = c.c_nationkey
            GROUP BY sn.n_name, cn.n_name""",
        "q_type_profit": """
            SELECT n.n_name AS supp_nation,
                   CAST(year(l.l_shipdate) AS BIGINT) AS ship_year,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(round(l.l_extendedprice
                                       * (1 - l.l_discount) * 100)
                                 AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
                       AND p.p_type = 'PROMO'
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            GROUP BY n.n_name, year(l.l_shipdate)""",
        "e_except": """
            SELECT DISTINCT user_id, strftime(ts, '%Y-%m-%d') AS day
            FROM events WHERE event_type = 'view'
            EXCEPT
            SELECT DISTINCT user_id, strftime(ts, '%Y-%m-%d')
            FROM events WHERE event_type = 'click'""",
        "e_intersect": """
            SELECT DISTINCT user_id, strftime(ts, '%Y-%m-%d') AS day
            FROM events WHERE event_type = 'view'
            INTERSECT
            SELECT DISTINCT user_id, strftime(ts, '%Y-%m-%d')
            FROM events WHERE event_type = 'click'""",
        # ------------------------------------------------- transcripts
        "t_interval_counts": _T_PARSED + """
            SELECT sink, level, bucket, CAST(count(*) AS BIGINT) AS cnt
            FROM p GROUP BY sink, level, bucket""",
        "t_routed_counts": _T_PARSED + """
            SELECT sink, CAST(count(*) AS BIGINT) AS cnt
            FROM p GROUP BY sink""",
        "t_parse_metrics": _T_PARSED + """
            SELECT sink, CAST(count(*) AS BIGINT) AS rows,
                   CAST(sum(CASE WHEN parse_ok THEN 0 ELSE 1 END) AS BIGINT)
                       AS failures
            FROM p GROUP BY sink""",
        "t_dict_role": f"""
            SELECT value,
                   CAST(row_number() OVER (ORDER BY value) - 1 AS INTEGER) AS id
            FROM (SELECT DISTINCT role AS value FROM {_T_SRC}
                  WHERE role IS NOT NULL)""",
        "t_dict_tool": f"""
            SELECT value,
                   CAST(row_number() OVER (ORDER BY value) - 1 AS INTEGER) AS id
            FROM (SELECT DISTINCT tool AS value FROM {_T_SRC}
                  WHERE tool IS NOT NULL)""",
        "t_enriched": _T_PARSED + f""",
            rd AS (SELECT value, CAST(row_number() OVER (ORDER BY value) - 1
                                      AS INTEGER) AS id
                   FROM (SELECT DISTINCT role AS value FROM t
                         WHERE role IS NOT NULL)),
            td AS (SELECT value, CAST(row_number() OVER (ORDER BY value) - 1
                                      AS INTEGER) AS id
                   FROM (SELECT DISTINCT tool AS value FROM t
                         WHERE tool IS NOT NULL)),
            ld AS (SELECT value, CAST(id AS INTEGER) AS id FROM {_LEVEL_DICT})
            SELECT p.conv_id, p.turn_idx,
                   rd.id AS role_id, td.id AS tool_id, ld.id AS level_id
            FROM p LEFT JOIN rd ON p.role = rd.value
                   LEFT JOIN td ON p.tool = td.value
                   LEFT JOIN ld ON p.level = ld.value""",
        "t_ordered_turns": f"""
            SELECT conv_id, turn_idx, text FROM {_T_SRC}""",
        "t_sft_pairs": f"""
            WITH t AS (SELECT conv_id, turn_idx, role, text,
                              lead(role) OVER w AS nrole,
                              lead(text) OVER w AS ntext,
                              lead(turn_idx) OVER w AS ntidx
                       FROM {_T_SRC}
                       WINDOW w AS (PARTITION BY conv_id
                                    ORDER BY turn_idx))
            SELECT conv_id, turn_idx, text AS prompt,
                   ntext AS response
            FROM t WHERE role = 'user' AND nrole = 'assistant'
              AND ntidx = turn_idx + 1""",
        "t_sft_masks": f"""
            WITH t AS (SELECT conv_id, turn_idx, role,
                              length(role || ': ' || text) AS ll
                       FROM {_T_SRC}),
            c AS (SELECT conv_id, turn_idx, role, ll,
                         COALESCE(sum(ll + 1) OVER (
                             PARTITION BY conv_id ORDER BY turn_idx
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), 0) AS s
                  FROM t)
            SELECT conv_id, turn_idx, CAST(s AS BIGINT) AS start_off,
                   CAST(s + ll AS BIGINT) AS end_off
            FROM c WHERE role = 'assistant'""",
        "t_trending": f"""
            WITH t AS (SELECT epoch_us(ts) // 86400000000 AS day,
                              unnest(list_filter(string_split_regex(
                                  lower(text), '[^a-z0-9]+'),
                                  x -> x <> '')) AS token
                       FROM {_T_SRC}),
            c AS (SELECT day, token, CAST(count(*) AS BIGINT) AS cnt
                  FROM t GROUP BY day, token)
            SELECT CAST(day AS BIGINT) AS day, token, cnt FROM c
            QUALIFY row_number() OVER (PARTITION BY day
                                       ORDER BY cnt DESC, token)
                    <= 5""",
        "t_conv_render": f"""
            SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
                   string_agg(role || ': ' || text, chr(10)
                              ORDER BY turn_idx) AS rendered
            FROM {_T_SRC} GROUP BY conv_id""",
        "t_tool_calls": f"""
            SELECT conv_id, turn_idx,
                   regexp_extract(text,
                       'tool_call:([a-z]+)\\(arg=([0-9]+)\\)', 1)
                       AS call_name,
                   CAST(regexp_extract(text,
                       'tool_call:([a-z]+)\\(arg=([0-9]+)\\)', 2)
                        AS BIGINT) AS arg
            FROM {_T_SRC}
            WHERE regexp_matches(text,
                'tool_call:[a-z]+\\(arg=[0-9]+\\)')""",
        "t_per_conv_stats": f"""
            SELECT conv_id, CAST(count(*) AS BIGINT) AS n_turns,
                   min(ts) AS min_ts, max(ts) AS max_ts
            FROM {_T_SRC} GROUP BY conv_id""",
        "t_top_recent": _T_PARSED + """
            SELECT conv_id, turn_idx, parsed_ts
            FROM p ORDER BY parsed_ts DESC, conv_id, turn_idx LIMIT 50""",
        "t_conv_tool_stats": f"""
            SELECT conv_id,
                   CAST(count(tool) AS BIGINT) AS n_tool_turns,
                   CAST(count(DISTINCT tool) AS BIGINT)
                       AS n_distinct_tools
            FROM {_T_SRC} GROUP BY conv_id""",
        "t_topk_per_conv": f"""
            SELECT conv_id, turn_idx, text FROM {_T_SRC}
            QUALIFY row_number() OVER (PARTITION BY conv_id
                                       ORDER BY turn_idx DESC) <= 3""",
        "t_grep": _T_PARSED + """
            SELECT conv_id, turn_idx, parsed_ts, text
            FROM p
            WHERE text LIKE '%shuffle%' AND level = 'ERROR'
              AND parsed_ts >= TIMESTAMP '2024-01-05 00:00:00'
              AND parsed_ts <  TIMESTAMP '2024-01-25 00:00:00'
            ORDER BY parsed_ts DESC, conv_id, turn_idx LIMIT 20""",
        # same oracle as t_grep: the persisted-index probe must return
        # the identical result set (MATCH token semantics coincide with
        # LIKE on this corpus — 'shuffle' appears only as a whole token)
        "t_grep_indexed": _T_PARSED + """
            SELECT conv_id, turn_idx, parsed_ts, text
            FROM p
            WHERE text LIKE '%shuffle%' AND level = 'ERROR'
              AND parsed_ts >= TIMESTAMP '2024-01-05 00:00:00'
              AND parsed_ts <  TIMESTAMP '2024-01-25 00:00:00'
            ORDER BY parsed_ts DESC, conv_id, turn_idx LIMIT 20""",
        "t_grep_phrase": _T_PARSED + """
            SELECT conv_id, turn_idx, parsed_ts, text
            FROM p
            WHERE text LIKE '%shuffle stream%'
            ORDER BY parsed_ts DESC, conv_id, turn_idx LIMIT 20""",
        "t_grep_and": _T_PARSED + """
            SELECT conv_id, turn_idx, parsed_ts, text
            FROM p
            WHERE text LIKE '%shuffle%' AND text LIKE '%stream%'
            ORDER BY parsed_ts DESC, conv_id, turn_idx LIMIT 20""",
        "t_grep_or": _T_PARSED + """
            SELECT conv_id, turn_idx, parsed_ts, text
            FROM p
            WHERE text LIKE '%shuffle%' OR text LIKE '%stream%'
            ORDER BY parsed_ts DESC, conv_id, turn_idx LIMIT 20""",
        "t_dead_letter": _T_PARSED.replace(
            "WHEN 'tool' THEN 'tools'", "WHEN 'tool' THEN '_dead_letter'"
        ) + """
            SELECT sink, CAST(count(*) AS BIGINT) AS cnt
            FROM p GROUP BY sink""",
        "t_rolling_errors": _T_PARSED + """
            SELECT conv_id, turn_idx,
                   CAST(sum(CASE WHEN level = 'ERROR' THEN 1 ELSE 0 END)
                        OVER (PARTITION BY conv_id ORDER BY turn_idx
                              ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING)
                        AS BIGINT) AS w_count
            FROM p""",
        "t_asof_last_error": _T_PARSED + """
            SELECT conv_id, turn_idx,
                   COALESCE(CAST(max(CASE WHEN level = 'ERROR'
                                          THEN turn_idx END)
                        OVER (PARTITION BY conv_id ORDER BY turn_idx
                              ROWS UNBOUNDED PRECEDING)
                        AS BIGINT), -1) AS last_match_idx
            FROM p""",
        "t_kv_fields": f"""
            SELECT conv_id, turn_idx,
                   nullif(regexp_extract(text, 'host=(\\d+)', 1), '')
                       AS host,
                   nullif(regexp_extract(text, 'req_id=(\\d+)', 1), '')
                       AS req_id,
                   nullif(regexp_extract(text, 'status=(\\d+)', 1), '')
                       AS status,
                   nullif(regexp_extract(text, 'shard=(\\d+)', 1), '')
                       AS shard
            FROM {_T_SRC}""",
        "t_dedup_backstop": f"""
            SELECT conv_id, turn_idx, min(ts) AS ts,
                   CAST(count(*) AS BIGINT) AS n_dups
            FROM (SELECT * FROM {_T_SRC}
                  UNION ALL SELECT * FROM {_T_SRC})
            GROUP BY conv_id, turn_idx""",
        "e_sessionize": """
            SELECT user_id, event_id, ts,
                   CAST(sum(CASE WHEN gap THEN 1 ELSE 0 END)
                        OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS session_id
            FROM (SELECT user_id, event_id, ts,
                         ts - lag(ts) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id)
                           > INTERVAL '30 minutes' AS gap
                  FROM events)""",
        "e_session_stats": """
            WITH s AS (
              SELECT user_id, event_id, ts,
                     CAST(sum(CASE WHEN gap THEN 1 ELSE 0 END)
                          OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING)
                          AS BIGINT) AS session_id
              FROM (SELECT user_id, event_id, ts,
                           ts - lag(ts) OVER (PARTITION BY user_id
                                              ORDER BY ts, event_id)
                             > INTERVAL '30 minutes' AS gap
                    FROM events))
            SELECT user_id, session_id,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT)
                       AS duration_us
            FROM s GROUP BY user_id, session_id""",
        "t_residual_js": f"""
            WITH esc AS (
              SELECT conv_id, turn_idx,
                replace(replace(replace(replace(replace(role,
                  '\\', '\\\\'), '"', '\\"'), chr(10), '\\n'),
                  chr(13), '\\r'), chr(9), '\\t') AS role_e,
                replace(replace(replace(replace(replace(tool,
                  '\\', '\\\\'), '"', '\\"'), chr(10), '\\n'),
                  chr(13), '\\r'), chr(9), '\\t') AS tool_e
              FROM {_T_SRC}),
            f AS (
              SELECT conv_id, turn_idx,
                COALESCE(',"role":"' || role_e || '"', '') AS f1,
                COALESCE(',"tool":"' || tool_e || '"', '') AS f2
              FROM esc)
            SELECT conv_id, turn_idx,
                   '{{' || ltrim(f1 || f2, ',') || '}}' AS js
            FROM f""",
        "t_jsonl_routed": _T_PARSED + """
            SELECT sink, CAST(count(*) AS BIGINT) AS cnt
            FROM p GROUP BY sink""",
        "t_csv_routed": _T_PARSED + """
            SELECT sink, CAST(count(*) AS BIGINT) AS cnt
            FROM p GROUP BY sink""",
        "t_evolved_routed": _T_PARSED + """
            SELECT sink, CAST(count(*) AS BIGINT) AS cnt
            FROM p GROUP BY sink""",
        "t_context_errors": _T_PARSED + """
            SELECT DISTINCT a.conv_id, a.turn_idx, a.level
            FROM p a JOIN p b
              ON a.conv_id = b.conv_id AND b.level = 'ERROR'
             AND abs(a.turn_idx - b.turn_idx) <= 1""",
        # ------------------------------------------------------ events
        "e_interval_counts": """
            SELECT event_type, time_bucket(INTERVAL '5 minutes', ts) AS bucket,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM events GROUP BY event_type, bucket""",
        "e_routed_counts": f"""
            SELECT {_EVENT_SINK} AS sink, CAST(count(*) AS BIGINT) AS cnt
            FROM events GROUP BY sink""",
        "e_dict_encode": """
            WITH d AS (SELECT value, CAST(row_number() OVER (ORDER BY value) - 1
                                          AS INTEGER) AS id
                       FROM (SELECT DISTINCT event_type AS value FROM events))
            SELECT event_id, d.id AS event_type_id
            FROM events JOIN d ON events.event_type = d.value""",
        "e_json_k": r"""
            SELECT event_id,
                   TRY_CAST(nullif(regexp_extract(props, '"k": (\d+)', 1), '')
                            AS BIGINT) AS k
            FROM events""",
        "e_user_stats": """
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS total_cents
            FROM events GROUP BY user_id""",
        "e_median_value": """
            SELECT event_type,
                   CAST(round(quantile_disc(value, 0.5) * 100) AS BIGINT)
                       AS median_cents
            FROM events GROUP BY event_type""",
        "e_topk_value": """
            SELECT event_id, value FROM events
            ORDER BY value DESC, event_id LIMIT 100""",
        "e_range_join": """
            SELECT a.event_id, CAST(count(b.event_id) AS BIGINT) AS n_nearby
            FROM events a LEFT JOIN events b
              ON a.user_id = b.user_id AND b.event_id <> a.event_id
             AND b.ts BETWEEN a.ts - INTERVAL '60 seconds'
                          AND a.ts + INTERVAL '60 seconds'
            WHERE a.event_type = 'error'
            GROUP BY a.event_id""",
        "e_user_rank": """
            WITH u AS (SELECT user_id,
                              CAST(sum(CAST(round(value * 100) AS BIGINT))
                                   AS BIGINT) AS total_cents
                       FROM events GROUP BY user_id)
            SELECT user_id, total_cents,
                   CAST(row_number() OVER (ORDER BY total_cents DESC,
                                           user_id) AS BIGINT) AS rank
            FROM u""",
        "e_minmax_ts": """
            SELECT event_type, min(ts) AS min_ts, max(ts) AS max_ts
            FROM events GROUP BY event_type""",
        "e_value_corr": """
            WITH m AS (SELECT event_type,
                              (epoch_us(ts) - (SELECT epoch_us(min(ts))
                                               FROM events)) // 60000000 AS x,
                              CAST(round(value * 100) AS BIGINT) AS y
                       FROM events)
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(x) AS BIGINT) AS sx,
                   CAST(sum(y) AS BIGINT) AS sy,
                   CAST(sum(x * y) AS BIGINT) AS sxy,
                   CAST(sum(x * x) AS BIGINT) AS sxx,
                   CAST(sum(y * y) AS BIGINT) AS syy
            FROM m GROUP BY event_type""",
        "e_mode_hour": """
            WITH h AS (SELECT event_type,
                              CAST(extract(hour FROM ts) AS BIGINT) AS hour,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2),
            r AS (SELECT *, row_number() OVER (PARTITION BY event_type
                                ORDER BY n DESC, hour) AS rn FROM h)
            SELECT event_type, hour AS mode_hour, n AS mode_n
            FROM r WHERE rn = 1""",
        "e_ntile": """
            SELECT event_id,
                   CAST(round(value * 100) AS BIGINT) AS cents,
                   CAST(ntile(4) OVER (ORDER BY value, event_id)
                        AS BIGINT) AS tile
            FROM events""",
        "e_distinct_users": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type""",
        "e_cube": """
            SELECT event_type,
                   CAST(isodow(ts) - 1 AS BIGINT) AS dow,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS cents,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM events GROUP BY CUBE (event_type, dow)""",
        "e_value_quantiles": """
            SELECT event_type,
                   CAST(round(quantile_disc(value, 0.25) * 100) AS BIGINT)
                       AS p25,
                   CAST(round(quantile_disc(value, 0.5) * 100) AS BIGINT)
                       AS p50,
                   CAST(round(quantile_disc(value, 0.75) * 100) AS BIGINT)
                       AS p75
            FROM events GROUP BY event_type""",
        "e_dense_rank": """
            SELECT event_id,
                   CAST(dense_rank() OVER (PARTITION BY user_id
                        ORDER BY CAST(round(value * 100) AS BIGINT) DESC)
                        AS BIGINT) AS drank
            FROM events""",
        "e_pivot": """
            SELECT user_id,
                   CAST(count(*) FILTER (WHERE event_type = 'click') AS BIGINT)
                       AS n_click,
                   CAST(count(*) FILTER (WHERE event_type = 'view') AS BIGINT)
                       AS n_view,
                   CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT)
                       AS n_purchase,
                   CAST(count(*) FILTER (WHERE event_type = 'signup') AS BIGINT)
                       AS n_signup,
                   CAST(count(*) FILTER (WHERE event_type = 'error') AS BIGINT)
                       AS n_error
            FROM events GROUP BY user_id""",
        "e_event_gaps": """
            SELECT event_id,
                   CAST(epoch_us(ts) - epoch_us(lag(ts) OVER (
                            PARTITION BY user_id ORDER BY ts, event_id))
                        AS BIGINT) AS gap_us
            FROM events""",
        "e_late_events": """
            WITH p AS (
              SELECT event_id, event_type,
                     epoch_us(ts) - CASE WHEN event_id % 37 = 0
                                         THEN (event_id % 7) * 3600000000
                                         ELSE 0 END AS ts2
              FROM events),
            w AS (
              SELECT event_type, ts2,
                     max(ts2) OVER (ORDER BY event_id
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING) AS wm
              FROM p)
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(count(*) FILTER (WHERE wm IS NOT NULL
                                         AND ts2 + 1800000000 < wm)
                        AS BIGINT) AS n_late
            FROM w GROUP BY event_type""",
        "e_upsert_merge": """
            WITH base AS (
              SELECT event_id,
                     CAST(round(value * 100) AS BIGINT) AS vc
              FROM events),
            log AS (
              SELECT event_id, 0 AS seq, 'i' AS op, vc FROM base
              UNION ALL
              SELECT event_id, 1, 'u', vc + event_id % 1000 + 1
              FROM base WHERE event_id % 13 = 0
              UNION ALL
              SELECT event_id, 2, 'd', 0
              FROM base WHERE event_id % 29 = 0),
            latest AS (
              SELECT * FROM log
              QUALIFY row_number() OVER (PARTITION BY event_id
                                         ORDER BY seq DESC) = 1)
            SELECT event_id, CAST(vc AS BIGINT) AS value_cents,
                   CAST(seq AS BIGINT) AS last_seq
            FROM latest WHERE op <> 'd'""",
        "e_snapshot_diff": """
            WITH a AS (
              SELECT event_id,
                     CAST(round(value * 100) AS BIGINT) AS vc
              FROM events),
            b AS (
              SELECT event_id,
                     CASE WHEN event_id % 7 = 0 THEN vc + 1
                          ELSE vc END AS vc
              FROM a WHERE event_id % 11 <> 0
              UNION ALL
              SELECT event_id + 1000000000, event_id % 997
              FROM a WHERE event_id % 13 = 0)
            SELECT COALESCE(a.event_id, b.event_id) AS event_id,
                   CASE WHEN a.event_id IS NULL THEN 'added'
                        WHEN b.event_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM a FULL OUTER JOIN b ON a.event_id = b.event_id
            WHERE a.event_id IS NULL OR b.event_id IS NULL
               OR a.vc <> b.vc""",
        "e_seq_match": """
            WITH e AS (SELECT user_id, event_type,
                              row_number() OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS pos
                       FROM events),
            m AS (SELECT user_id, pos, event_type,
                         max(CASE WHEN event_type = 'signup'
                             THEN pos END) OVER w AS sig,
                         max(CASE WHEN event_type = 'error'
                             THEN pos END) OVER w AS err
                  FROM e
                  WINDOW w AS (PARTITION BY user_id ORDER BY pos
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING))
            SELECT user_id,
                   CAST(count(*) FILTER (
                       WHERE event_type = 'purchase'
                         AND sig IS NOT NULL
                         AND (err IS NULL OR sig > err))
                        AS BIGINT) AS n_matched
            FROM m GROUP BY user_id""",
        "e_debounce": """
            WITH RECURSIVE ev AS (
              SELECT user_id AS k, epoch_us(ts) AS t, event_id
              FROM events),
            kept AS (
              (SELECT k, t, event_id FROM ev
               QUALIFY row_number() OVER (PARTITION BY k
                                          ORDER BY t, event_id) = 1)
              UNION ALL
              SELECT n.k, n.t, n.event_id
              FROM kept kk, LATERAL (
                SELECT k, t, event_id FROM ev
                WHERE ev.k = kk.k AND ev.t >= kk.t + 86400000000
                ORDER BY t, event_id LIMIT 1) n)
            SELECT event_id FROM kept""",
        "e_group_sample": """
            WITH p AS (
              SELECT event_id, event_type,
                     CAST((CAST(event_id AS HUGEINT) * 2654435761)
                          % 4294967296 AS BIGINT) AS priority
              FROM events)
            SELECT event_id, event_type, priority FROM p
            QUALIFY row_number() OVER (PARTITION BY event_type
                                       ORDER BY priority, event_id)
                    <= 20""",
        "e_window_distinct": """
            WITH e AS (SELECT user_id, event_type,
                              epoch_us(ts) AS t FROM events),
            w AS (SELECT user_id, event_type,
                         (t // 900000000 - k.k) * 900000000 AS wstart
                  FROM e CROSS JOIN
                       (SELECT unnest(range(4)) AS k) k)
            SELECT event_type, CAST(wstart AS BIGINT) AS wstart,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM w GROUP BY event_type, wstart""",
        "d_consistent_sample": """
            SELECT doc_id,
                   CAST((CAST(doc_id AS HUGEINT) * 2654435761)
                        % 4294967296 AS BIGINT) AS priority
            FROM documents
            ORDER BY priority, doc_id LIMIT 100""",
        "e_quantile_normalize": """
            WITH v AS (SELECT event_id,
                              CAST(round(value * 100) AS BIGINT) AS vc
                       FROM events),
            n AS (SELECT count(*) AS n FROM v)
            SELECT event_id,
                   CAST((rank() OVER (ORDER BY vc) - 1) * 1000000
                        // greatest((SELECT n - 1 FROM n), 1)
                        AS BIGINT) AS pctl_ppm
            FROM v""",
        "e_rolling_spend": """
            SELECT event_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
                            PARTITION BY user_id ORDER BY ts, event_id
                            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                        AS BIGINT) AS roll_cents
            FROM events""",
        "e_user_cumsum": """
            SELECT event_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
                            PARTITION BY user_id ORDER BY ts, event_id
                            ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS cum_cents
            FROM events""",
        "q_qty_share": """
            SELECT l_orderkey, l_linenumber,
                   CAST((CAST(round(l_quantity) AS BIGINT) * 1000000) //
                        sum(CAST(round(l_quantity) AS BIGINT))
                            OVER (PARTITION BY l_returnflag)
                        AS BIGINT) AS share_ppm
            FROM lineitem""",
        "e_latest_event": """
            SELECT user_id, event_id, ts FROM events
            QUALIFY row_number() OVER (PARTITION BY user_id
                                       ORDER BY ts DESC, event_id DESC)
                    = 1""",
        "e_retention": """
            WITH w AS (SELECT user_id,
                              epoch_us(ts) // 604800000000 AS wk
                       FROM events),
            f AS (SELECT user_id, min(wk) AS cohort FROM w
                  GROUP BY user_id),
            c AS (SELECT DISTINCT w.user_id, f.cohort,
                         w.wk - f.cohort AS week_offset
                  FROM w JOIN f USING (user_id))
            SELECT cohort, week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM c GROUP BY cohort, week_offset""",
        "e_funnel": """
            WITH s AS (SELECT user_id, min(ts) AS fs FROM events
                       WHERE event_type = 'signup' GROUP BY user_id),
            p AS (SELECT user_id, ts FROM events
                  WHERE event_type = 'purchase')
            SELECT s.user_id,
                   CAST(count(p.ts) AS BIGINT) AS n_purchase_after
            FROM s LEFT JOIN p
              ON p.user_id = s.user_id AND p.ts > s.fs
            GROUP BY s.user_id""",
        "q_returns_topk": """
            WITH r AS (
                SELECT o.o_custkey,
                       CAST(round(l.l_extendedprice
                                  * (1 - l.l_discount) * 100) AS BIGINT)
                           AS cents
                FROM lineitem l JOIN orders o
                  ON o.o_orderkey = l.l_orderkey
                WHERE l.l_returnflag = 'R')
            SELECT c.c_custkey, c.c_name,
                   CAST(sum(r.cents) AS BIGINT) AS revenue_cents
            FROM r JOIN customer c ON c.c_custkey = r.o_custkey
            GROUP BY c.c_custkey, c.c_name
            ORDER BY revenue_cents DESC, c.c_custkey LIMIT 20""",
        "q_cust_dist": """
            WITH per_cust AS (
                SELECT c.c_custkey,
                       CAST(count(o.o_orderkey) AS BIGINT) AS c_count
                FROM customer c
                LEFT JOIN orders o ON o.o_custkey = c.c_custkey
                GROUP BY c.c_custkey)
            SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
            FROM per_cust GROUP BY c_count""",
        "q_big_orders": """
            WITH s AS (
                SELECT l_orderkey,
                       CAST(sum(CAST(round(l_quantity) AS BIGINT))
                            AS BIGINT) AS sum_qty
                FROM lineitem GROUP BY l_orderkey
                HAVING sum_qty > 300)
            SELECT o.o_orderkey, o.o_orderdate,
                   CAST(round(o.o_totalprice * 100) AS BIGINT)
                       AS total_cents,
                   s.sum_qty
            FROM orders o JOIN s ON s.l_orderkey = o.o_orderkey""",
        "e_first_last": """
            WITH f AS (SELECT user_id, event_type AS first_type
                       FROM events
                       QUALIFY row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) = 1),
            l AS (SELECT user_id, event_type AS last_type FROM events
                  QUALIFY row_number() OVER (
                      PARTITION BY user_id
                      ORDER BY ts DESC, event_id DESC) = 1),
            n AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
                  FROM events GROUP BY user_id)
            SELECT n.user_id, first_type, last_type, n_events
            FROM n JOIN f USING (user_id) JOIN l USING (user_id)""",
        # Drain-style template mining: (token count, first token)
        # groups, per-position keep-if-unanimous else '<*>'.
        "t_templates": f"""
            WITH t AS (SELECT * FROM {_T_SRC}),
            tk AS (SELECT string_split(text, ' ') AS l FROM t),
            nn AS (SELECT len(l) AS n, l[1] AS first, l FROM tk),
            p AS (SELECT n, first, u.i AS pos, l[u.i] AS token
                  FROM nn, unnest(generate_series(1, n)) AS u(i)),
            dis AS (SELECT n, first, pos,
                           CASE WHEN count(DISTINCT token) = 1
                                THEN min(token) ELSE '<*>' END AS tt
                    FROM p GROUP BY 1, 2, 3),
            tpl AS (SELECT n, first,
                           string_agg(tt, ' ' ORDER BY pos) AS template
                    FROM dis GROUP BY 1, 2),
            cnt AS (SELECT len(string_split(text, ' ')) AS n,
                           string_split(text, ' ')[1] AS first,
                           count(*) AS c
                    FROM t GROUP BY 1, 2)
            SELECT template, CAST(c AS BIGINT) AS n_msgs
            FROM tpl JOIN cnt USING (n, first)""",
        "t_role_transitions": f"""
            WITH g AS (SELECT lag(role) OVER (
                           PARTITION BY conv_id ORDER BY turn_idx)
                           AS from_role,
                       role AS to_role
                       FROM {_T_SRC})
            SELECT from_role, to_role, CAST(count(*) AS BIGINT) AS n
            FROM g WHERE from_role IS NOT NULL
            GROUP BY from_role, to_role""",
        "e_hop_counts": """
            SELECT event_type,
                   time_bucket(INTERVAL '5 minutes', ts)
                       - INTERVAL '5 minutes' * k AS ws,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM events, (VALUES (0), (1)) AS u(k)
            GROUP BY event_type, ws""",
        "v_centroid": """
            SELECT label, CAST(i AS BIGINT) AS dim,
                   CAST(sum(CAST(round(CAST(e AS DOUBLE) * 1000000)
                                 AS BIGINT)) AS BIGINT) AS s,
                   CAST(count(*) AS BIGINT) AS n
            FROM (SELECT label, unnest(embedding) AS e,
                         generate_subscripts(embedding, 1) AS i
                  FROM embeddings)
            GROUP BY label, i""",
        "d_shuffle_order": """
            SELECT doc_id,
                   CAST(row_number() OVER (
                            ORDER BY (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296,
                                     doc_id) AS BIGINT) AS pos
            FROM documents""",
        "e_unpivot": """
            WITH w AS (SELECT user_id,
                   CAST(count(*) FILTER (WHERE event_type = 'click')
                        AS BIGINT) AS n_click,
                   CAST(count(*) FILTER (WHERE event_type = 'view')
                        AS BIGINT) AS n_view,
                   CAST(count(*) FILTER (WHERE event_type = 'purchase')
                        AS BIGINT) AS n_purchase,
                   CAST(count(*) FILTER (WHERE event_type = 'signup')
                        AS BIGINT) AS n_signup,
                   CAST(count(*) FILTER (WHERE event_type = 'error')
                        AS BIGINT) AS n_error
                   FROM events GROUP BY user_id)
            SELECT user_id, 'n_click' AS metric, n_click AS cnt FROM w
            UNION ALL
            SELECT user_id, 'n_view', n_view FROM w
            UNION ALL
            SELECT user_id, 'n_purchase', n_purchase FROM w
            UNION ALL
            SELECT user_id, 'n_signup', n_signup FROM w
            UNION ALL
            SELECT user_id, 'n_error', n_error FROM w""",
        "q_asof_join": """
            SELECT a.event_id, b.ts AS last_purchase_ts
            FROM (SELECT event_id, user_id, ts FROM events
                  WHERE event_type = 'click') a
            ASOF LEFT JOIN (SELECT user_id, ts FROM events
                            WHERE event_type = 'purchase') b
              ON a.user_id = b.user_id AND b.ts <= a.ts""",
        "q_full_join": """
            WITH c AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_click
                       FROM events WHERE event_type = 'click'
                       GROUP BY user_id),
                 p AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_purchase
                       FROM events WHERE event_type = 'purchase'
                       GROUP BY user_id)
            SELECT COALESCE(c.user_id, p.user_id) AS user_id,
                   CAST(COALESCE(n_click, 0) AS BIGINT) AS n_click,
                   CAST(COALESCE(n_purchase, 0) AS BIGINT) AS n_purchase
            FROM c FULL JOIN p ON c.user_id = p.user_id""",
        # -------------------------------------------------------- tpch
        "q1_pricing": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                        AS BIGINT) AS sum_base_cents,
                   CAST(sum(CAST(round(l_extendedprice * (1 - l_discount)
                                       * 10000) AS BIGINT)) AS BIGINT)
                       AS sum_disc_10k,
                   CAST(count(*) AS BIGINT) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
            GROUP BY l_returnflag, l_linestatus""",
        "q_mktsegment": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment""",
        "q_nation_region": """
            SELECT r_name, CAST(count(*) AS BIGINT) AS n_customers
            FROM customer JOIN nation ON c_nationkey = n_nationkey
                          JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name""",
        "q_shuffle_join": """
            SELECT o_orderstatus, CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(round(l_extendedprice * (1 - l_discount)
                                       * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderstatus""",
        "q_top_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10""",
        "q_part_filter": """
            SELECT p_partkey, p_name, p_size FROM part WHERE p_size >= 25""",
        "q_rollup": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM lineitem
            GROUP BY ROLLUP (l_returnflag, l_linestatus)""",
        "q_order_priority": """
            SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
            FROM orders
            WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                                 WHERE l_returnflag = 'R')
            GROUP BY o_orderpriority""",
        "q_left_join": """
            SELECT c_custkey, c_mktsegment,
                   CAST(count(o_custkey) AS BIGINT) AS n_orders,
                   CAST(COALESCE(sum(CAST(round(o_totalprice * 100)
                                          AS BIGINT)), 0) AS BIGINT)
                       AS total_cents
            FROM customer LEFT JOIN orders ON c_custkey = o_custkey
            GROUP BY c_custkey, c_mktsegment""",
        "q_region_revenue": """
            SELECT r_name, CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(round(l_extendedprice * (1 - l_discount)
                                       * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                          JOIN supplier ON l_suppkey = s_suppkey
                          JOIN nation ON s_nationkey = n_nationkey
                          JOIN region ON n_regionkey = r_regionkey
            WHERE o_orderdate >= TIMESTAMP '1997-01-01 00:00:00'
            GROUP BY r_name""",
        "q_ship_priority": """
            SELECT l_orderkey, o_orderdate,
                   CAST(sum(CAST(round(l_extendedprice * (1 - l_discount)
                                       * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM customer JOIN orders ON c_custkey = o_custkey
                          JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1997-01-01 00:00:00'
              AND l_shipdate > TIMESTAMP '1997-01-01 00:00:00'
            GROUP BY l_orderkey, o_orderdate
            ORDER BY revenue_cents DESC, o_orderdate, l_orderkey
            LIMIT 10""",
        "q_promo_share": """
            SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate)
                        AS BIGINT) AS ship_month,
                   CAST(sum(CASE WHEN p_type = 'PROMO' THEN units
                                 ELSE 0 END) AS BIGINT) AS promo_units,
                   CAST(sum(units) AS BIGINT) AS total_units
            FROM (SELECT l_partkey, l_shipdate,
                         CAST(round(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l_discount * 100) AS BIGINT))
                             AS units
                  FROM lineitem) li
            JOIN part ON l_partkey = p_partkey
            GROUP BY ship_month""",
        "q_top_supplier": """
            WITH rev AS (
              SELECT l_suppkey,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                          * (100 - CAST(round(l_discount * 100)
                                        AS BIGINT))) AS BIGINT)
                         AS total_units
              FROM lineitem GROUP BY l_suppkey)
            SELECT s_suppkey, s_name, total_units
            FROM supplier JOIN rev ON s_suppkey = l_suppkey
            WHERE total_units = (SELECT max(total_units) FROM rev)""",
        "q_avg_qty_joinback": """
            WITH li AS (
              SELECT l_partkey,
                     CAST(round(l_quantity) AS BIGINT) AS q,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
              FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM part
                                  WHERE p_brand = 'Brand#4')),
            st AS (SELECT l_partkey, CAST(sum(q) AS BIGINT) AS sq,
                          CAST(count(*) AS BIGINT) AS cnt
                   FROM li GROUP BY l_partkey)
            SELECT CAST(COALESCE(sum(li.cents), 0) AS BIGINT)
                       AS total_cents,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM li JOIN st USING (l_partkey)
            WHERE 5 * li.q * st.cnt < st.sq""",
        "q_idle_customers": """
            WITH sc AS (
              SELECT CAST(c_custkey AS BIGINT) AS c_custkey,
                     CAST(c_nationkey AS BIGINT) AS c_nationkey,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS cents
              FROM customer),
            g AS (SELECT sum(cents) AS s, count(*) AS n FROM sc
                  WHERE cents > 0)
            SELECT c_nationkey,
                   CAST(count(*) AS BIGINT) AS n_cust,
                   CAST(sum(cents) AS BIGINT) AS total_cents
            FROM sc, g
            WHERE cents > 0 AND cents * g.n > g.s
              AND c_custkey NOT IN (SELECT o_custkey FROM orders
                                    WHERE o_totalprice > 400000)
            GROUP BY c_nationkey""",
        "e_asof_lookup": """
            WITH dim AS (SELECT o_orderdate AS dts,
                                CAST(max(o_orderkey) AS BIGINT) AS ref_key
                         FROM orders GROUP BY o_orderdate)
            SELECT e.event_id, d.ref_key
            FROM events e ASOF LEFT JOIN dim d ON e.ts >= d.dts""",
        "q_disjunctive": """
            SELECT CAST(COALESCE(sum(CAST(round(l_extendedprice * 100)
                                          AS BIGINT)), 0) AS BIGINT)
                       AS total_cents,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 15
                   AND CAST(round(l_quantity) AS BIGINT)
                       BETWEEN 1 AND 20)
               OR (p_brand = 'Brand#2' AND p_size BETWEEN 10 AND 30
                   AND CAST(round(l_quantity) AS BIGINT)
                       BETWEEN 10 AND 40)""",
        "q_supplier_variety": """
            SELECT p_brand || '|' ||
                   CAST((p_size // 10) * 10 AS VARCHAR) AS cell,
                   CAST(count(DISTINCT l_suppkey) AS BIGINT)
                       AS n_suppliers
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                    WHERE s_acctbal < 0)
            GROUP BY cell""",
        "t_semi_join": _T_PARSED + """
            SELECT conv_id, turn_idx FROM p
            WHERE conv_id IN (SELECT conv_id FROM p
                              WHERE level = 'ERROR')""",
        "t_anti_join": _T_PARSED + """
            SELECT conv_id, turn_idx FROM p
            WHERE conv_id NOT IN (SELECT conv_id FROM p
                                  WHERE level = 'ERROR')""",
        # --------------------------------------------------- documents
        "d_split_assign": """
            SELECT doc_id,
                   CASE WHEN (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 100 < 80
                        THEN 'train'
                        WHEN (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 % 100 < 90
                        THEN 'val' ELSE 'test' END AS split
            FROM documents""",
        "d_pack_greedy": f"""
            WITH tk AS ({_DOC_TOKENS})
            SELECT doc_id, CAST(len(l) AS BIGINT) AS n_tokens,
                   CAST((sum(len(l)) OVER (ORDER BY doc_id
                         ROWS UNBOUNDED PRECEDING) - len(l)) // 512
                        AS BIGINT) AS pack_id
            FROM tk""",
        "d_keywords": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS token FROM tk),
            tf AS (SELECT doc_id, token,
                          CAST(count(*) AS BIGINT) AS tf
                   FROM t GROUP BY doc_id, token),
            df AS (SELECT token, CAST(count(*) AS BIGINT) AS df
                   FROM tf GROUP BY token),
            s AS (SELECT tf.doc_id, tf.token,
                         CAST(tf.tf *
                              (((SELECT count(*) FROM documents)
                                * 1000) // df.df) AS BIGINT) AS score
                  FROM tf JOIN df USING (token))
            SELECT doc_id, token, score FROM s
            QUALIFY row_number() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, token)
                    <= 5""",
        "d_oov_rate": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS token FROM tk),
            top AS (SELECT token FROM (
                      SELECT token, count(*) AS cnt FROM t
                      GROUP BY token
                      ORDER BY cnt DESC, token LIMIT 1000)),
            s AS (SELECT doc_id,
                         CAST(count(*) AS BIGINT) AS n_tokens,
                         CAST(count(*) FILTER (WHERE token NOT IN
                              (SELECT token FROM top)) AS BIGINT)
                             AS n_oov
                  FROM t GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(COALESCE(s.n_tokens, 0) AS BIGINT)
                       AS n_tokens,
                   CAST(COALESCE(s.n_oov, 0) AS BIGINT) AS n_oov,
                   CAST(COALESCE(s.n_oov, 0) * 1000000
                        // greatest(COALESCE(s.n_tokens, 0), 1)
                        AS BIGINT) AS oov_ppm
            FROM documents d LEFT JOIN s USING (doc_id)""",
        "d_ttr": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS token FROM tk),
            s AS (SELECT doc_id,
                         CAST(count(*) AS BIGINT) AS n_tokens,
                         CAST(count(DISTINCT token) AS BIGINT)
                             AS n_types
                  FROM t GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(COALESCE(s.n_tokens, 0) AS BIGINT)
                       AS n_tokens,
                   CAST(COALESCE(s.n_types, 0) AS BIGINT) AS n_types,
                   CAST(COALESCE(s.n_types, 0) * 1000000
                        // greatest(COALESCE(s.n_tokens, 0), 1)
                        AS BIGINT) AS ttr_ppm
            FROM documents d LEFT JOIN s USING (doc_id)""",
        "d_span_corrupt": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) - 1 AS pos
                  FROM tk),
            m AS (SELECT doc_id, tok, pos,
                         pos % 10 < 2 AS masked,
                         pos // 10 AS run
                  FROM t),
            c AS (SELECT doc_id,
                         string_agg(CASE WHEN masked
                                    THEN '<X_' || run || '>'
                                    ELSE tok END, ' ' ORDER BY pos)
                           FILTER (WHERE NOT masked OR pos % 10 = 0)
                           AS corrupted,
                         string_agg(CASE WHEN pos % 10 = 0
                                    THEN '<X_' || run || '> ' || tok
                                    ELSE tok END, ' ' ORDER BY pos)
                           FILTER (WHERE masked) AS targets,
                         CAST(count(*) FILTER (WHERE pos % 10 = 0)
                              AS BIGINT) AS n_spans
                  FROM m GROUP BY doc_id)
            SELECT d.doc_id, COALESCE(c.corrupted, '') AS corrupted,
                   COALESCE(c.targets, '') AS targets,
                   CAST(COALESCE(c.n_spans, 0) AS BIGINT) AS n_spans
            FROM documents d LEFT JOIN c USING (doc_id)""",
        "d_incremental_dedup": """
            WITH new AS (
              SELECT doc_id + 1000000 AS doc_id, text
              FROM documents WHERE doc_id < 50
              UNION ALL
              SELECT doc_id + 2000000,
                     text || ' novel ' || doc_id
              FROM documents WHERE doc_id >= 50 AND doc_id < 75)
            SELECT doc_id FROM new
            WHERE text NOT IN (SELECT text FROM documents)""",
        "d_weighted_sample": f"""
            WITH tk AS ({_DOC_TOKENS}),
            p AS (SELECT doc_id,
                         CAST(len(l) AS BIGINT) AS n_tokens,
                         CAST(((CAST(doc_id AS HUGEINT) * 2654435761)
                               % 4294967296) * 1000000
                              // greatest(len(l), 1)
                              AS BIGINT) AS priority
                  FROM tk)
            SELECT doc_id, n_tokens, priority FROM p
            ORDER BY priority, doc_id LIMIT 100""",
        "d_stratified_sample": """
            SELECT doc_id, length(text) // 100 AS len_bucket
            FROM documents
            WHERE ((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296
                   + (length(text) // 100) * 97) % 100 < 20""",
        "d_pack_concat": f"""
            WITH tk AS ({_DOC_TOKENS}),
            pk AS (
              SELECT doc_id,
                     CAST((sum(len(l)) OVER (ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) - len(l)) // 512
                          AS BIGINT) AS pack_id
              FROM tk)
            SELECT pk.pack_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   string_agg(d.text, ' ' ORDER BY d.doc_id) AS seq
            FROM pk JOIN documents d USING (doc_id)
            GROUP BY pk.pack_id""",
        "d_redact": r"""
            SELECT doc_id,
                   regexp_replace(text, '\b(key|value|hash)\b', '[X]',
                                  'g') AS redacted
            FROM documents""",
        # closed form of the wrap/strip round-trip: strip_html must
        # return exactly the whitespace-normalized original text —
        # boilerplate leaks, entity-order bugs and glued-word tag
        # strips all diverge from this independent statement
        "d_html_clean": r"""
            WITH c AS (SELECT doc_id,
                              regexp_replace(regexp_replace(
                                  text, '\s+', ' ', 'g'),
                                  '^ | $', '', 'g') AS clean_text
                       FROM documents)
            SELECT doc_id, clean_text,
                   CAST(length(clean_text) AS BIGINT) AS clean_len
            FROM c""",
        "d_len_hist": """
            SELECT length(text) // 100 AS len_bucket,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM documents GROUP BY len_bucket""",
        "d_tf_df": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS token FROM tk),
            tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
                   FROM t GROUP BY doc_id, token),
            df AS (SELECT token, CAST(count(*) AS BIGINT) AS df
                   FROM tf GROUP BY token)
            SELECT tf.doc_id, tf.token, tf.tf, df.df
            FROM tf JOIN df USING (token)""",
        "d_token_explode": f"""
            WITH tk AS ({_DOC_TOKENS})
            SELECT doc_id, unnest(l) AS token FROM tk""",
        "d_chunk": f"""
            WITH tk AS ({_DOC_TOKENS}),
            c AS (SELECT doc_id, l,
                         unnest(generate_series(0,
                             CAST(ceil(len(l) / 64.0) AS BIGINT) - 1))
                             AS ci
                  FROM tk)
            SELECT doc_id, CAST(ci AS BIGINT) AS chunk_idx,
                   CAST(least((ci + 1) * 64, len(l)) - ci * 64 AS BIGINT)
                       AS n_tokens,
                   array_to_string(l[ci * 64 + 1 :
                                     least((ci + 1) * 64, len(l))], ' ')
                       AS chunk_text
            FROM c""",
        # chunk-level dedup: literal chunk_text here (the engine ships
        # u64 chunk hashes; the oracle states the collision-free rule)
        "d_chunk_dedup": f"""
            WITH u AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000 AS doc_id, text FROM documents
              WHERE doc_id < 50),
            tk AS (SELECT doc_id, list_filter(string_split_regex(
                       lower(text), '[^a-z0-9]+'), x -> x <> '') AS l
                   FROM u),
            c AS (SELECT doc_id, l,
                         unnest(generate_series(0,
                             CAST(ceil(len(l) / 64.0) AS BIGINT) - 1))
                             AS ci
                  FROM tk),
            ch AS (SELECT doc_id, CAST(ci AS BIGINT) AS chunk_idx,
                          array_to_string(l[ci * 64 + 1 :
                              least((ci + 1) * 64, len(l))], ' ')
                              AS chunk_text
                   FROM c),
            f AS (SELECT doc_id, row_number() OVER (
                      PARTITION BY chunk_text
                      ORDER BY doc_id, chunk_idx) AS rn
                  FROM ch)
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
                   CAST(count(*) FILTER (WHERE rn > 1) AS BIGINT)
                       AS n_dup_chunks
            FROM f GROUP BY doc_id""",
        "d_lang_id_learned": _LANGID_BODY + """
            SELECT d.doc_id, COALESCE(b.lang, '') AS pred_lang
            FROM documents d
            LEFT JOIN (SELECT doc_id, lang FROM best WHERE rn = 1) b
              USING (doc_id)""",
        # Confusion matrix of the identical fit + predict.
        "d_langid_confusion": _LANGID_BODY + """
            SELECT d.lang AS true_lang,
                   COALESCE(b.lang, '') AS pred_lang,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM documents d
            LEFT JOIN (SELECT doc_id, lang FROM best WHERE rn = 1) b
              USING (doc_id)
            GROUP BY 1, 2""",
        "d_mixture": """
            WITH r AS (
              SELECT doc_id, source,
                     (CAST(substr(source, 4) AS BIGINT) % 4) * 0.75
                     + 0.25 AS rate,
                     (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS h
              FROM documents),
            c AS (
              SELECT doc_id, source,
                     CAST(floor(rate) AS BIGINT)
                     + CASE WHEN h < floor((rate - floor(rate))
                                           * 4294967296)
                            THEN 1 ELSE 0 END AS k
              FROM r)
            SELECT doc_id, source, CAST(ci AS BIGINT) AS copy_idx
            FROM (SELECT doc_id, source,
                         unnest(generate_series(0, k - 1)) AS ci
                  FROM c)""",
        "d_source_cap": """
            SELECT doc_id, source FROM (
              SELECT doc_id, source,
                     (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS h
              FROM documents)
            QUALIFY row_number() OVER (PARTITION BY source
                                       ORDER BY h, doc_id) <= 10""",
        "d_repetition": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) AS ord
                  FROM tk),
            bg AS (SELECT doc_id,
                          tok || ' ' || lead(tok) OVER (
                              PARTITION BY doc_id ORDER BY ord) AS bigram
                   FROM t QUALIFY bigram IS NOT NULL),
            c AS (SELECT doc_id, bigram, CAST(count(*) AS BIGINT) AS n
                  FROM bg GROUP BY doc_id, bigram),
            s AS (SELECT doc_id, CAST(sum(n) AS BIGINT) AS n_bigrams,
                         CAST(count(*) AS BIGINT) AS n_distinct_bigrams,
                         CAST(max(n) AS BIGINT) AS top_bigram_n
                  FROM c GROUP BY doc_id)
            SELECT d.doc_id,
                   COALESCE(s.n_bigrams, 0) AS n_bigrams,
                   COALESCE(s.n_distinct_bigrams, 0) AS n_distinct_bigrams,
                   COALESCE(s.top_bigram_n, 0) AS top_bigram_n
            FROM documents d LEFT JOIN s USING (doc_id)""",
        "d_decontaminate": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) AS ord
                  FROM tk),
            g AS (SELECT doc_id,
                         tok || ' ' || lead(tok, 1) OVER w
                             || ' ' || lead(tok, 2) OVER w AS gram
                  FROM t WINDOW w AS (PARTITION BY doc_id ORDER BY ord)
                  QUALIFY gram IS NOT NULL),
            dg AS (SELECT DISTINCT doc_id, gram FROM g),
            b AS (SELECT DISTINCT gram FROM dg WHERE doc_id % 97 = 0)
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hit_grams
            FROM dg WHERE doc_id % 97 <> 0
              AND gram IN (SELECT gram FROM b)
            GROUP BY doc_id""",
        # identical semantics through the Bloom-prefiltered plan (false
        # positives re-verified by the exact semi join)
        "d_decontaminate_bloom": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) AS ord
                  FROM tk),
            g AS (SELECT doc_id,
                         tok || ' ' || lead(tok, 1) OVER w
                             || ' ' || lead(tok, 2) OVER w AS gram
                  FROM t WINDOW w AS (PARTITION BY doc_id ORDER BY ord)
                  QUALIFY gram IS NOT NULL),
            dg AS (SELECT DISTINCT doc_id, gram FROM g),
            b AS (SELECT DISTINCT gram FROM dg WHERE doc_id % 97 = 0)
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hit_grams
            FROM dg WHERE doc_id % 97 <> 0
              AND gram IN (SELECT gram FROM b)
            GROUP BY doc_id""",
        "d_heavy_tokens": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT unnest(l) AS token FROM tk)
            SELECT token, CAST(count(*) AS BIGINT) AS cnt
            FROM t GROUP BY token
            HAVING count(*) > (SELECT count(*) FROM t) // 65""",
        "d_ngram_top": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) AS ord
                  FROM tk),
            g AS (SELECT tok || ' ' || lead(tok, 1) OVER (
                             PARTITION BY doc_id ORDER BY ord) AS gram
                  FROM t QUALIFY gram IS NOT NULL)
            SELECT gram, CAST(count(*) AS BIGINT) AS cnt
            FROM g GROUP BY gram
            ORDER BY cnt DESC, gram LIMIT 20""",
        "d_token_stats": f"""
            WITH tk AS ({_DOC_TOKENS})
            SELECT doc_id, CAST(len(l) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(l)) AS BIGINT) AS n_uniq_tokens
            FROM tk""",
        "d_quality": f"""
            WITH tk AS (SELECT doc_id, text,
                               list_filter(string_split_regex(lower(text),
                                 '[^a-z0-9]+'), x -> x <> '') AS l
                        FROM documents)
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(len(l) AS BIGINT) AS n_tokens,
                   CAST(len(list_filter(l, x -> x IN
                        ('the','a','and','of','to','in','is','it')))
                        AS BIGINT) AS n_stopwords,
                   CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))
                        AS BIGINT) AS n_alpha,
                   (1000 * CAST(length(regexp_replace(text, '[^a-zA-Z]', '',
                        'g')) AS BIGINT))
                       // GREATEST(CAST(length(text) AS BIGINT), 1)
                       AS alpha_ratio_millis
            FROM tk""",
        "d_quality_filter": f"""
            WITH tk AS (SELECT doc_id,
                               list_filter(string_split_regex(lower(text),
                                 '[^a-z0-9]+'), x -> x <> '') AS l
                        FROM documents),
            q AS (SELECT doc_id, CAST(len(l) AS BIGINT) AS n_tokens,
                         CAST(len(list_filter(l, x -> x IN
                              ('the','a','and','of','to','in','is','it')))
                              AS BIGINT) AS n_stopwords
                  FROM tk)
            SELECT doc_id, n_tokens, n_stopwords FROM q
            WHERE n_tokens >= 20 AND n_stopwords * 10 >= n_tokens""",
        "d_vocab": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT unnest(l) AS token FROM tk)
            SELECT token, CAST(count(*) AS BIGINT) AS cnt FROM t
            GROUP BY token ORDER BY cnt DESC, token LIMIT 100""",
        "d_cooccur": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS token FROM tk),
            top AS (SELECT token FROM (
                      SELECT token, count(*) AS cnt FROM t
                      GROUP BY token
                      ORDER BY cnt DESC, token LIMIT 50)),
            d AS (SELECT DISTINCT doc_id, token FROM t
                  WHERE token IN (SELECT token FROM top))
            SELECT a.token AS token_a, b.token AS token_b,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM d a JOIN d b
              ON a.doc_id = b.doc_id AND a.token < b.token
            GROUP BY a.token, b.token""",
        "d_dedup_exact": """
            SELECT text, CAST(min(doc_id) AS BIGINT) AS doc_id,
                   CAST(count(*) AS BIGINT) AS n_dups
            FROM documents GROUP BY text""",
        "d_dedup_exact_rows": """
            SELECT doc_id, text FROM (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000 AS doc_id, text FROM documents
              WHERE doc_id < 50)
            QUALIFY row_number() OVER (PARTITION BY text
                                       ORDER BY doc_id) = 1""",
        "d_split_leakage": """
            WITH u AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000 AS doc_id, text FROM documents
              WHERE doc_id < 50),
            s AS (SELECT doc_id, text,
                   CASE WHEN (CAST(doc_id AS HUGEINT) * 2654435761)
                             % 4294967296 % 100 < 80 THEN 'train'
                        WHEN (CAST(doc_id AS HUGEINT) * 2654435761)
                             % 4294967296 % 100 < 90 THEN 'val'
                        ELSE 'test' END AS split
                  FROM u)
            SELECT CAST(min(doc_id) AS BIGINT) AS group_id,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT split) AS BIGINT) AS n_splits
            FROM s GROUP BY text
            HAVING count(DISTINCT split) >= 2""",
        "d_jaccard_pairs": _JACCARD_BODY + """
            SELECT doc_a, doc_b, inter, uni FROM jp""",
        # Directed containment: both directions of every shared-shingle
        # pair tested against |sh(contained)|; n >= 5 shingle guard.
        "d_containment": """
            WITH toks AS (
              SELECT doc_id, list_filter(string_split_regex(lower(text),
                     '[^a-z0-9]+'), x -> x <> '') AS tk
              FROM documents),
            sh AS (
              SELECT DISTINCT doc_id,
                     tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2] AS s
              FROM toks, unnest(generate_series(1, len(tk) - 2)) AS u(i)),
            sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
            pairs AS (
              SELECT a.doc_id AS da, b.doc_id AS db,
                     CAST(count(*) AS BIGINT) AS inter
              FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id <> b.doc_id
              GROUP BY 1, 2)
            SELECT CAST(da AS BIGINT) AS contained,
                   CAST(db AS BIGINT) AS container,
                   inter,
                   CAST(sa.n AS BIGINT) AS n_contained
            FROM pairs JOIN sizes sa ON sa.doc_id = da
            WHERE inter * 1000 >= 800 * sa.n AND sa.n >= 5""",
        "d_dedup_apply": _JACCARD_BODY + """,
            e AS (SELECT doc_a AS u, doc_b AS v FROM jp
                  UNION ALL SELECT doc_b, doc_a FROM jp),
            -- reachable-smaller-label propagation: a doc is dropped
            -- iff any smaller doc_id is in its near-dup component
            r AS (
              WITH RECURSIVE rr(u, l) AS (
                SELECT u, v FROM e WHERE v < u
                UNION
                SELECT e.u, rr.l FROM e JOIN rr ON rr.u = e.v
                WHERE rr.l < e.u)
              SELECT DISTINCT u FROM rr)
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT u FROM r)""",
        "mm_frame_sample": """
            WITH f AS (SELECT doc_id, octet_length(encode(text)) AS nb
                       FROM documents),
            idx AS (SELECT doc_id, nb,
                           unnest(generate_series(
                               0, CAST(ceil(nb / 64.0) AS INT) - 1)) AS i
                    FROM f WHERE nb > 0)
            SELECT doc_id, CAST(i AS BIGINT) AS frame_idx,
                   CAST(LEAST(64, nb - i * 64) AS BIGINT) AS frame_bytes
            FROM idx WHERE i % 4 = 0""",
        "mm_image_meta": """
            SELECT doc_id,
                   CAST(octet_length(encode(text)) AS BIGINT) AS n_bytes,
                   CAST(octet_length(encode(text)) AS BIGINT) % 640 + 1
                       AS width,
                   CAST(octet_length(encode(text)) AS BIGINT) * 7 % 480 + 1
                       AS height
            FROM documents""",
        "mm_ppm_meta": """
            SELECT doc_id, TRUE AS decode_ok,
                   CAST((doc_id % 8 + 1) * 2 AS BIGINT) AS width,
                   CAST((doc_id % 4 + 1) * 2 AS BIGINT) AS height,
                   CAST(doc_id % 256 AS BIGINT) AS mean_r,
                   CAST((doc_id * 7) % 256 AS BIGINT) AS mean_g,
                   CAST((doc_id * 13) % 256 AS BIGINT) AS mean_b
            FROM documents""",
        "mm_png_meta": """
            SELECT doc_id, TRUE AS decode_ok,
                   CAST((doc_id % 7 + 1) * 2 AS BIGINT) AS width,
                   CAST((doc_id % 5 + 1) * 2 AS BIGINT) AS height,
                   CAST(doc_id % 256 AS BIGINT) AS mean_r,
                   CAST((doc_id * 11) % 256 AS BIGINT) AS mean_g,
                   CAST((doc_id * 17) % 256 AS BIGINT) AS mean_b
            FROM documents""",
        "d_longest_dup": """
            WITH tk AS (SELECT doc_id,
                               list_filter(string_split_regex(lower(text),
                                 '[^a-z0-9]+'), x -> x <> '') AS l
                        FROM documents),
            ns AS (SELECT doc_id, l,
                          unnest(generate_series(1, 12)) AS n
                   FROM tk),
            sp AS (SELECT doc_id, n, l,
                          unnest(generate_series(0, len(l) - n)) AS s
                   FROM ns WHERE len(l) >= n),
            gd AS (SELECT DISTINCT doc_id, n,
                          array_to_string(l[s + 1:s + n], ' ') AS gram
                   FROM sp),
            sh AS (SELECT n, gram FROM gd
                   GROUP BY n, gram HAVING count(*) > 1),
            mx AS (SELECT gd.doc_id,
                          CAST(max(gd.n) AS BIGINT) AS max_shared_len
                   FROM gd JOIN sh USING (n, gram)
                   GROUP BY gd.doc_id)
            SELECT d.doc_id,
                   COALESCE(mx.max_shared_len, 0) AS max_shared_len
            FROM documents d LEFT JOIN mx USING (doc_id)""",
        "mm_mp3_meta": """
            WITH fr AS (SELECT doc_id,
                               unnest(generate_series(0, doc_id % 40))
                                   AS f
                        FROM documents),
            kb AS (SELECT doc_id,
                          CASE (doc_id + f) % 14 + 1 WHEN 1 THEN 32 WHEN 2 THEN 40 WHEN 3 THEN 48 WHEN 4 THEN 56 WHEN 5 THEN 64 WHEN 6 THEN 80 WHEN 7 THEN 96 WHEN 8 THEN 112 WHEN 9 THEN 128 WHEN 10 THEN 160 WHEN 11 THEN 192 WHEN 12 THEN 224 WHEN 13 THEN 256 WHEN 14 THEN 320
                          END AS kbps
                   FROM fr),
            agg AS (SELECT doc_id,
                           CAST(count(*) AS BIGINT) AS n_frames,
                           CAST(sum(kbps) AS BIGINT) AS kb_sum
                    FROM kb GROUP BY doc_id),
            rt AS (SELECT doc_id, n_frames, kb_sum,
                          CASE doc_id % 3 WHEN 0 THEN 44100
                               WHEN 1 THEN 48000 ELSE 32000
                          END AS rate
                   FROM agg)
            SELECT doc_id, TRUE AS decode_ok, n_frames,
                   CAST(rate AS BIGINT) AS sample_rate,
                   CAST((n_frames * 1152 * 1000000) // rate AS BIGINT)
                       AS duration_us,
                   CAST(kb_sum // n_frames AS BIGINT)
                       AS mean_bitrate_kbps
            FROM rt""",
        "mm_mp4_meta": """
            SELECT doc_id, TRUE AS decode_ok, 'isom' AS brand,
                   CAST(doc_id % 2 + 1 AS BIGINT) AS n_tracks,
                   CAST(((doc_id % 50 + 1) * 100 * 1000000)
                        // (600 * (doc_id % 3 + 1)) AS BIGINT)
                       AS duration_us,
                   CASE WHEN doc_id % 2 = 0 THEN 'avc1'
                        ELSE 'avc1,mp4a' END AS codecs,
                   CAST(doc_id % 64 + 8 AS BIGINT) AS mdat_bytes
            FROM documents""",
        # EWMA snapshot: weight 2^(8-k) for the k-th newest of the
        # user's last 8 events, exact integer num/den pair.
        "e_ewma": """
            WITH e AS (SELECT user_id,
                              CAST(round(value * 100) AS BIGINT)
                                  AS cents,
                              row_number() OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts DESC, event_id DESC)
                                  AS k,
                              count(*) OVER (PARTITION BY user_id)
                                  AS n
                       FROM events)
            SELECT user_id,
                   CAST(any_value(n) AS BIGINT) AS n_events,
                   CAST(sum(cents * (CAST(1 AS BIGINT) << (8 - k)))
                        AS BIGINT) AS ewma_num,
                   CAST(sum(CAST(1 AS BIGINT) << (8 - k)) AS BIGINT)
                       AS ewma_den
            FROM e WHERE k <= 8 GROUP BY user_id""",
        # Lag-1 autocovariance numerator scaled by n^2 (division-free:
        # sum of (n*c_i - S)(n*c_{i+1} - S) over consecutive pairs).
        "e_autocorr": """
            WITH e AS (SELECT user_id,
                              CAST(round(value * 100) AS BIGINT) AS c,
                              lead(CAST(round(value * 100) AS BIGINT))
                                  OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS cn
                       FROM events),
            s AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(c) AS BIGINT) AS tot
                  FROM e GROUP BY user_id)
            SELECT s.user_id, s.n AS n_events,
                   CAST(COALESCE(sum((s.n * e.c - s.tot)
                                     * (s.n * e.cn - s.tot))
                                 FILTER (WHERE e.cn IS NOT NULL),
                                 0) AS BIGINT) AS ac_num
            FROM e JOIN s USING (user_id)
            GROUP BY s.user_id, s.n""",
        # Benford first-digit counts over positive cents amounts.
        "e_benford": """
            WITH e AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS c
                       FROM events
                       WHERE CAST(round(value * 100) AS BIGINT) > 0)
            SELECT event_type,
                   CAST(substr(CAST(c AS VARCHAR), 1, 1) AS BIGINT)
                       AS digit,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM e GROUP BY event_type, digit""",
        # 3-step user-journey paths: two stacked leads, then count.
        "e_paths": """
            WITH e AS (SELECT user_id, event_type,
                              lead(event_type, 1) OVER w AS t2,
                              lead(event_type, 2) OVER w AS t3
                       FROM events
                       WINDOW w AS (PARTITION BY user_id
                                    ORDER BY ts, event_id))
            SELECT event_type || '>' || t2 || '>' || t3 AS path,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM e WHERE t3 IS NOT NULL
            GROUP BY path""",
        # Per-source token-distribution L1 drift, scaled by T * T_s
        # (tokens absent from a source contribute |C_t * T_s|).
        "d_source_drift": """
            WITH tk AS (SELECT source,
                               unnest(list_filter(string_split_regex(
                                   lower(text), '[^a-z0-9]+'),
                                   x -> x <> '')) AS tok
                        FROM documents),
            st AS (SELECT source, tok, CAST(count(*) AS BIGINT) AS c
                   FROM tk GROUP BY source, tok),
            tsrc AS (SELECT source, CAST(sum(c) AS BIGINT) AS t_s
                     FROM st GROUP BY source),
            gt AS (SELECT tok, CAST(sum(c) AS BIGINT) AS c_t
                   FROM st GROUP BY tok),
            tot AS (SELECT CAST(sum(c) AS BIGINT) AS t FROM st),
            x AS (SELECT tsrc.source, tsrc.t_s, gt.tok, gt.c_t,
                         COALESCE(st.c, 0) AS c, tot.t
                  FROM tsrc CROSS JOIN gt CROSS JOIN tot
                  LEFT JOIN st ON st.source = tsrc.source
                              AND st.tok = gt.tok)
            SELECT source, any_value(t_s) AS n_tokens,
                   CAST(sum(abs(c * t - c_t * t_s)) AS BIGINT)
                       AS l1_scaled
            FROM x GROUP BY source""",
        # TPC-H Q6 analog: revenue in exact 1e-4 units (cents x
        # discount-hundredths, both integer before the multiply);
        # the discount predicate compares rounded hundredths.
        "q_forecast_revenue": """
            WITH l AS (SELECT CAST(round(l_extendedprice * 100)
                                   AS BIGINT) AS cents,
                              CAST(round(l_discount * 100) AS BIGINT)
                                  AS d100,
                              CAST(round(l_quantity) AS BIGINT) AS q
                       FROM lineitem
                       WHERE l_shipdate >= TIMESTAMP '1994-01-01'
                         AND l_shipdate < TIMESTAMP '1995-01-01')
            SELECT CAST(count(*) FILTER (WHERE d100 BETWEEN 5 AND 7
                                           AND q < 24) AS BIGINT)
                       AS n_items,
                   CAST(COALESCE(sum(cents * d100)
                                 FILTER (WHERE d100 BETWEEN 5 AND 7
                                           AND q < 24), 0) AS BIGINT)
                       AS revenue_e4
            FROM l""",
        # Markov stationary distribution: unrolled 12-step integer
        # power iteration (constant defined above the dict).
        "e_markov_stationary": _MARKOV_SQL,
        "t_error_runs": _T_PARSED + """
            , e AS (SELECT conv_id, turn_idx,
                           (level = 'ERROR') AS is_err,
                           row_number() OVER (PARTITION BY conv_id
                                              ORDER BY turn_idx) AS rn
                    FROM p),
            r AS (SELECT conv_id, is_err,
                         rn - row_number() OVER (
                             PARTITION BY conv_id, is_err
                             ORDER BY rn) AS grp
                  FROM e),
            runs AS (SELECT conv_id, CAST(count(*) AS BIGINT)
                                AS run_len
                     FROM r WHERE is_err GROUP BY conv_id, grp)
            SELECT conv_id,
                   CAST(max(run_len) AS BIGINT) AS max_err_run,
                   CAST(count(*) AS BIGINT) AS n_err_runs
            FROM runs GROUP BY conv_id""",
        "t_tool_lift": f"""
            WITH ct AS (SELECT DISTINCT conv_id, tool FROM {_T_SRC}
                        WHERE tool IS NOT NULL),
                 n AS (SELECT count(DISTINCT conv_id) AS nc FROM ct),
                 tc AS (SELECT tool, count(*) AS c FROM ct
                        GROUP BY tool),
                 pr AS (SELECT a.tool AS tool_a, b.tool AS tool_b,
                               CAST(count(*) AS BIGINT) AS n_convs
                        FROM ct a JOIN ct b ON a.conv_id = b.conv_id
                                           AND a.tool < b.tool
                        GROUP BY 1, 2)
            SELECT tool_a, tool_b, n_convs,
                   CAST(CAST(1000000 AS HUGEINT) * n_convs
                        * (SELECT nc FROM n)
                        // (ca.c * cb.c) AS BIGINT) AS lift_ppm
            FROM pr JOIN tc ca ON tool_a = ca.tool
                    JOIN tc cb ON tool_b = cb.tool""",
        "q_volume_shipping": """
            WITH s AS (SELECT s_suppkey, n_name AS supp_nation
                       FROM supplier
                       JOIN nation ON s_nationkey = n_nationkey
                       WHERE n_name IN ('NATION_1', 'NATION_2')),
                 c AS (SELECT c_custkey, n_name AS cust_nation
                       FROM customer
                       JOIN nation ON c_nationkey = n_nationkey
                       WHERE n_name IN ('NATION_1', 'NATION_2'))
            SELECT supp_nation, cust_nation,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_e4
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                 JOIN s ON l_suppkey = s_suppkey
                 JOIN c ON o_custkey = c_custkey
            WHERE supp_nation <> cust_nation
              AND l_shipdate >= TIMESTAMP '1995-01-01 00:00:00'
              AND l_shipdate < TIMESTAMP '1997-01-01 00:00:00'
            GROUP BY supp_nation, cust_nation, l_year""",
        "q_market_share": """
            WITH tgt AS (SELECT s_suppkey,
                                CASE WHEN n_name = 'NATION_2'
                                     THEN 1 ELSE 0 END AS is_t
                         FROM supplier
                         JOIN nation ON s_nationkey = n_nationkey),
                 ck AS (SELECT c_custkey FROM customer
                        JOIN nation ON c_nationkey = n_nationkey
                        JOIN region ON n_regionkey = r_regionkey
                        WHERE r_name = 'ASIA'),
                 li AS (SELECT l_orderkey, l_partkey, l_suppkey,
                               CAST(round(l_extendedprice * 100)
                                    AS BIGINT)
                               * (100 - CAST(round(l_discount * 100)
                                             AS BIGINT)) AS units
                        FROM lineitem)
            SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(is_t * units) AS BIGINT) AS target_e4,
                   CAST(sum(units) AS BIGINT) AS total_e4
            FROM li JOIN orders ON l_orderkey = o_orderkey
                    JOIN tgt ON l_suppkey = s_suppkey
            WHERE l_partkey IN (SELECT p_partkey FROM part
                                WHERE p_type = 'ECONOMY')
              AND o_custkey IN (SELECT c_custkey FROM ck)
              AND o_orderdate >= TIMESTAMP '1996-01-01 00:00:00'
              AND o_orderdate < TIMESTAMP '1998-01-01 00:00:00'
            GROUP BY o_year""",
        # TPC-H Q17 analog: integer cross-multiplied avg comparison
        # (5*qty*cnt < sum_qty <=> qty < 0.2*avg), exact cents.
        "q_small_qty_revenue": """
            WITH pk AS (SELECT p_partkey FROM part
                        WHERE p_brand = 'Brand#3'
                          AND p_type = 'ECONOMY'),
                 st AS (SELECT l_partkey,
                               sum(CAST(round(l_quantity) AS BIGINT))
                                   AS sq,
                               count(*) AS cnt
                        FROM lineitem
                        WHERE l_partkey IN (SELECT p_partkey FROM pk)
                        GROUP BY l_partkey)
            SELECT CAST(count(*) AS BIGINT) AS n_items,
                   CAST(coalesce(sum(CAST(round(l_extendedprice * 100)
                                          AS BIGINT)), 0) AS BIGINT)
                       AS sum_price_e2
            FROM lineitem l JOIN st ON l.l_partkey = st.l_partkey
            WHERE 5 * CAST(round(l_quantity) AS BIGINT) * cnt < sq""",
        # TPC-H Q2 analog: per-ECONOMY-part argmin of the exact
        # integer unit price floor(cents*1e4/qty), ties to suppkey.
        "q_min_cost_supp": """
            WITH pk AS (SELECT p_partkey FROM part
                        WHERE p_type = 'ECONOMY'),
            li AS (SELECT l_partkey, l_suppkey,
                          (CAST(round(l_extendedprice * 100) AS BIGINT)
                           * 10000)
                          // CAST(round(l_quantity) AS BIGINT) AS up
                   FROM lineitem
                   WHERE l_partkey IN (SELECT p_partkey FROM pk)),
            r AS (SELECT l_partkey, l_suppkey, up,
                         row_number() OVER (PARTITION BY l_partkey
                                            ORDER BY up, l_suppkey)
                             AS rn
                  FROM li)
            SELECT CAST(l_partkey AS BIGINT) AS p_partkey,
                   CAST(l_suppkey AS BIGINT) AS s_suppkey,
                   s_name,
                   CAST(up AS BIGINT) AS min_unit_e6
            FROM r JOIN supplier ON l_suppkey = s_suppkey
            WHERE rn = 1""",
        # TPC-H Q18 analog: orders whose total line quantity > 300.
        "q_large_orders": """
            WITH s AS (SELECT l_orderkey,
                              sum(CAST(round(l_quantity) AS BIGINT))
                                  AS sum_qty
                       FROM lineitem GROUP BY l_orderkey
                       HAVING sum(CAST(round(l_quantity) AS BIGINT))
                              > 300)
            SELECT CAST(c_custkey AS BIGINT) AS c_custkey, c_name,
                   CAST(o_orderkey AS BIGINT) AS o_orderkey,
                   CAST(o_orderdate AS TIMESTAMP) AS o_orderdate,
                   CAST(round(o_totalprice * 100) AS BIGINT)
                       AS o_totalprice_e2,
                   CAST(sum_qty AS BIGINT) AS sum_qty
            FROM s JOIN orders ON s.l_orderkey = o_orderkey
                   JOIN customer ON o_custkey = c_custkey""",
        # Minimal-PDF closed forms: version rotation, object count,
        # per-object /Len sum.
        "mm_pdf_meta": """
            WITH ob AS (SELECT doc_id,
                               unnest(generate_series(0, doc_id % 5
                                                         + 1)) AS k
                        FROM documents),
            e AS (SELECT doc_id, k, (doc_id * 3 + k) % 100 AS ln
                  FROM ob)
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(doc_id % 4 + 3 AS BIGINT) AS version_minor,
                   CAST(doc_id % 5 + 2 AS BIGINT) AS n_objects,
                   CAST(sum(ln) AS BIGINT) AS len_sum,
                   CAST(9 + sum(length(CAST(k + 1 AS VARCHAR))
                                + length(CAST(k AS VARCHAR))
                                + length(CAST(ln AS VARCHAR)) + 35)
                        AS BIGINT) AS xref_off
            FROM e GROUP BY doc_id""",
        # ustar closed forms: member sizes, block accounting (1 header
        # + ceil(size/512) data blocks per member + 2 terminators).
        "mm_tar_meta": """
            WITH mb AS (SELECT doc_id,
                               unnest(generate_series(0, doc_id % 4))
                                   AS k
                        FROM documents),
            e AS (SELECT doc_id, k,
                         (doc_id * 13 + k * 7) % 900 AS sz
                  FROM mb)
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(doc_id % 4 + 1 AS BIGINT) AS n_members,
                   CAST(sum(sz) AS BIGINT) AS total_bytes,
                   CAST(doc_id * 100 + doc_id % 4 AS BIGINT)
                       AS max_mtime,
                   CAST(sum(1 + (sz + 511) // 512) + 2 AS BIGINT)
                       AS n_blocks
            FROM e GROUP BY doc_id""",
        # AVI nested-LIST closed forms; stream fourccs alternate
        # vids/auds starting with vids.
        "mm_avi_meta": """
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(doc_id % 1000 + 1 AS BIGINT) AS total_frames,
                   CAST((doc_id % 64 + 1) * 16 AS BIGINT) AS width,
                   CAST((doc_id % 36 + 1) * 16 AS BIGINT) AS height,
                   CAST((doc_id % 3 + 2) // 2 AS BIGINT) AS n_video,
                   CAST((doc_id % 3 + 1) // 2 AS BIGINT) AS n_audio,
                   CAST((doc_id * 11) % 500 + 4 AS BIGINT)
                       AS movi_bytes
            FROM documents""",
        # SRT cue-timeline closed forms incl. the overlap count.
        "mm_srt_meta": """
            WITH cu AS (SELECT doc_id,
                               unnest(generate_series(0, doc_id % 6))
                                   AS c
                        FROM documents),
            e AS (SELECT doc_id, c,
                         (doc_id * 7 + c * 13) % 3000 + 500 AS dur,
                         1 + (doc_id + c) % 2 AS nl,
                         CASE WHEN c < doc_id % 6
                                   AND (doc_id * 7 + c * 13) % 3000
                                       + 500 > 3000
                              THEN 1 ELSE 0 END AS ov
                  FROM cu)
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(doc_id % 6 + 1 AS BIGINT) AS n_cues,
                   CAST(sum(dur) AS BIGINT) AS total_dur_ms,
                   CAST(sum(nl) AS BIGINT) AS n_lines,
                   CAST(sum(ov) AS BIGINT) AS n_overlaps
            FROM e GROUP BY doc_id""",
        # ICO directory closed forms incl. the width-0 = 256 quirk.
        "mm_ico_meta": """
            WITH im AS (SELECT doc_id,
                               unnest(generate_series(0, doc_id % 4))
                                   AS k
                        FROM documents),
            e AS (SELECT doc_id, k,
                         CASE WHEN (doc_id + k * 17) % 256 = 0
                              THEN 256
                              ELSE (doc_id + k * 17) % 256 END AS w,
                         CASE (doc_id + k) % 5 WHEN 0 THEN 1
                              WHEN 1 THEN 4 WHEN 2 THEN 8
                              WHEN 3 THEN 24 ELSE 32 END AS bpp,
                         (doc_id * 5 + k * 3) % 200 + 8 AS sz,
                         CASE WHEN (doc_id + k) % 2 = 1
                              THEN 1 ELSE 0 END AS png
                  FROM im)
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(doc_id % 4 + 1 AS BIGINT) AS n_images,
                   CAST(max(w) AS BIGINT) AS max_width,
                   CAST(max(bpp) AS BIGINT) AS max_bpp,
                   CAST(sum(sz) AS BIGINT) AS payload_bytes,
                   CAST(sum(png) AS BIGINT) AS n_png
            FROM e GROUP BY doc_id""",
        # Dimension-truncated retrieval: the 16-dim top-10 with
        # full-dim top-10 membership flags.
        "v_dim_truncation": """
            WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id = 0),
            f AS (SELECT vec_id FROM embeddings, q
                  QUALIFY row_number() OVER (
                      ORDER BY list_cosine_similarity(
                          CAST(embedding AS DOUBLE[]), qe) DESC,
                      vec_id) <= 10),
            t AS (SELECT vec_id,
                         CAST(row_number() OVER (
                             ORDER BY list_cosine_similarity(
                                 CAST(embedding[1:16] AS DOUBLE[]),
                                 qe[1:16]) DESC,
                             vec_id) AS BIGINT) AS rank
                  FROM embeddings, q
                  QUALIFY rank <= 10)
            SELECT t.vec_id, t.rank,
                   CAST(CASE WHEN t.vec_id IN (SELECT vec_id FROM f)
                        THEN 1 ELSE 0 END AS BIGINT) AS in_full_topk
            FROM t""",
        # WebP variant-rotated closed forms (VP8 / VP8L / VP8X).
        "mm_webp_meta": """
            SELECT doc_id, TRUE AS decode_ok,
                   CASE doc_id % 3 WHEN 0 THEN 'VP8'
                        WHEN 1 THEN 'VP8L' ELSE 'VP8X' END AS fmt,
                   CAST(doc_id % 300 + 1 AS BIGINT) AS width,
                   CAST(doc_id % 200 + 1 AS BIGINT) AS height,
                   CAST(CASE WHEN doc_id % 3 = 0 THEN 0
                        ELSE doc_id % 2 END AS BIGINT) AS has_alpha,
                   CAST(CASE WHEN doc_id % 3 < 2 THEN 1
                        ELSE 2 + doc_id % 2 END AS BIGINT) AS n_chunks
            FROM documents""",
        # Ogg page-walk closed forms; payload_bytes sums the lacing
        # rotation per page (the generate_series doctrine).
        "mm_ogg_meta": """
            WITH pg AS (SELECT doc_id,
                               unnest(generate_series(0, doc_id % 5))
                                   AS p
                        FROM documents),
            tot AS (SELECT doc_id,
                           CAST(sum((doc_id * 3 + p * 7) % 600 + 1)
                                AS BIGINT) AS payload_bytes
                    FROM pg GROUP BY doc_id)
            SELECT d.doc_id, TRUE AS decode_ok,
                   CAST(d.doc_id % 5 + 1 AS BIGINT) AS n_pages,
                   CAST(d.doc_id % 5 + 1 AS BIGINT) AS n_packets,
                   CAST((d.doc_id * 7 + 13) % 100000 AS BIGINT)
                       AS serial,
                   CAST((d.doc_id % 97 + 1) * 1000 + d.doc_id % 5
                        AS BIGINT) AS last_granule,
                   t.payload_bytes
            FROM documents d JOIN tot t USING (doc_id)""",
        # FLAC STREAMINFO bit-packed closed forms.
        "mm_flac_meta": """
            WITH g AS (SELECT doc_id,
                              CASE doc_id % 3 WHEN 0 THEN 32000
                                   WHEN 1 THEN 44100 ELSE 48000
                              END AS rate,
                              (doc_id % 50 + 1) * 1000 + doc_id % 7
                                  AS total
                       FROM documents)
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(rate AS BIGINT) AS sample_rate,
                   CAST(doc_id % 2 + 1 AS BIGINT) AS channels,
                   CAST(CASE WHEN doc_id % 2 = 0 THEN 16 ELSE 24 END
                        AS BIGINT) AS bits_per_sample,
                   CAST(total AS BIGINT) AS total_samples,
                   CAST(total * 1000000 // rate AS BIGINT)
                       AS duration_us,
                   CAST(1 + CASE WHEN doc_id % 2 = 0 THEN 1 ELSE 0 END
                        + CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS n_blocks
            FROM g""",
        # ANN recall: the exact brute leg replayed in SQL, joined
        # against the engine's persisted LSH-probe sidecar.
        "v_knn_recall": """
            WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id = 0),
            b AS (SELECT vec_id FROM embeddings, q
                  QUALIFY row_number() OVER (
                      ORDER BY list_cosine_similarity(
                          CAST(embedding AS DOUBLE[]), qe) DESC,
                          vec_id) <= 10),
            s AS (SELECT vec_id FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/knn_recall_lsh.parquet'))
            SELECT CAST(10 AS BIGINT) AS k,
                   CAST((SELECT count(*) FROM s) AS BIGINT)
                       AS n_probe,
                   CAST((SELECT count(*) FROM s JOIN b USING (vec_id))
                        AS BIGINT) AS n_hits""",
        # Growth accounting: per-day new/retained/resurrected actives
        # over integer epoch days (no date dtype to drift).
        "e_lifecycle": """
            WITH ud AS (SELECT DISTINCT user_id,
                               CAST(datediff('day', DATE '1970-01-01',
                                    CAST(ts AS DATE)) AS BIGINT)
                                   AS day_num
                        FROM events),
            c AS (SELECT user_id, day_num,
                         min(day_num) OVER (PARTITION BY user_id)
                             AS first_day,
                         lag(day_num) OVER (PARTITION BY user_id
                                            ORDER BY day_num)
                             AS prev_day
                  FROM ud)
            SELECT day_num,
                   CAST(count(*) FILTER (WHERE day_num = first_day)
                        AS BIGINT) AS new_users,
                   CAST(count(*) FILTER (WHERE day_num <> first_day
                        AND prev_day = day_num - 1) AS BIGINT)
                       AS retained,
                   CAST(count(*) FILTER (WHERE day_num <> first_day
                        AND prev_day <> day_num - 1) AS BIGINT)
                       AS resurrected
            FROM c GROUP BY day_num""",
        # Near-dup degree histogram over the exact-Jaccard pair law,
        # degree-0 mass included.
        "d_dup_degree": _JACCARD_BODY + """,
            e AS (SELECT doc_a AS doc_id FROM jp
                  UNION ALL SELECT doc_b FROM jp),
            deg AS (SELECT d.doc_id,
                           CAST(count(e.doc_id) AS BIGINT) AS degree
                    FROM documents d LEFT JOIN e USING (doc_id)
                    GROUP BY d.doc_id)
            SELECT degree, CAST(count(*) AS BIGINT) AS n_docs
            FROM deg GROUP BY degree""",
        # ZIP central directory: closed forms of the fixture rotation
        # (STORED members, so compressed == uncompressed; names are
        # 'mNN' = 3 bytes each).
        "mm_zip_meta": """
            WITH mem AS (SELECT doc_id,
                                unnest(generate_series(0, doc_id % 6))
                                    AS j
                         FROM documents),
            sz AS (SELECT doc_id,
                          CAST(sum((doc_id + j) % 50 + 1) AS BIGINT)
                              AS tot
                   FROM mem GROUP BY doc_id)
            SELECT d.doc_id, TRUE AS decode_ok,
                   CAST(d.doc_id % 6 + 1 AS BIGINT) AS n_members,
                   sz.tot AS total_uncompressed,
                   sz.tot AS total_compressed,
                   CAST(d.doc_id % 6 + 1 AS BIGINT) AS n_stored,
                   CAST((d.doc_id % 6 + 1) * 3 AS BIGINT)
                       AS names_bytes,
                   CAST(d.doc_id % 7 AS BIGINT) AS comment_len
            FROM documents d JOIN sz USING (doc_id)""",
        # Uniform-mix rebalancing weights: floor((T * 1e6)/(L * c_l)).
        "d_mix_weights": """
            WITH c AS (SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
                       FROM documents GROUP BY lang),
            t AS (SELECT CAST(sum(n_docs) AS BIGINT) AS total,
                         CAST(count(*) AS BIGINT) AS n_langs
                  FROM c)
            SELECT c.lang, c.n_docs,
                   CAST((t.total * 1000000)
                        // (t.n_langs * c.n_docs) AS BIGINT)
                       AS weight_ppm
            FROM c CROSS JOIN t""",
        # TIFF IFD walk: closed forms of the fixture rotation.
        "mm_tiff_meta": """
            SELECT doc_id, TRUE AS decode_ok,
                   CASE WHEN doc_id % 2 = 0 THEN 'II' ELSE 'MM' END
                       AS byte_order,
                   CAST((doc_id % 9 + 1) * 3 AS BIGINT) AS width,
                   CAST((doc_id % 5 + 2) * 4 AS BIGINT) AS height,
                   CAST(CASE WHEN doc_id % 2 = 0 THEN 8 ELSE 16 END
                        AS BIGINT) AS bits_per_sample,
                   CAST(1 AS BIGINT) AS compression,
                   CAST(doc_id % 3 + 1 AS BIGINT) AS n_pages
            FROM documents""",
        # Partitioner skew audit: the d_split_assign multiplicative
        # hash law, bucketed mod 64 (HUGEINT keeps the product exact).
        "d_hash_bucket_stats": """
            SELECT CAST((CAST(doc_id AS HUGEINT) * 2654435761)
                        % 4294967296 % 64 AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM documents GROUP BY bucket""",
        # Weekday x hour calendar heatmap; Monday = 0 on both sides.
        "e_heatmap": """
            SELECT CAST(isodow(ts) - 1 AS BIGINT) AS dow,
                   CAST(hour(ts) AS BIGINT) AS hour,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM events GROUP BY dow, hour""",
        # Gini numerator over ascending per-user cents totals:
        # sum (2i - n - 1) x_(i) — order within ties is irrelevant
        # because the weight sum over a tie block is invariant.
        "e_gini": """
            WITH u AS (SELECT user_id,
                              CAST(sum(CAST(round(value * 100)
                                            AS BIGINT)) AS BIGINT)
                                  AS tot
                       FROM events GROUP BY user_id),
            r AS (SELECT tot,
                         row_number() OVER (ORDER BY tot, user_id)
                             AS i,
                         count(*) OVER () AS n
                  FROM u)
            SELECT CAST(any_value(n) AS BIGINT) AS n_users,
                   CAST(sum(tot) AS BIGINT) AS total_cents,
                   CAST(sum((2 * i - n - 1) * tot) AS BIGINT)
                       AS gini_num
            FROM r""",
        # Argmax of the conditional bigram distribution per token
        # (count desc, next-token asc tie-break).
        "d_bigram_cond": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS tok,
                         generate_subscripts(l, 1) AS ord
                  FROM tk),
            g AS (SELECT tok, lead(tok, 1) OVER (
                             PARTITION BY doc_id ORDER BY ord)
                             AS next_token
                  FROM t QUALIFY next_token IS NOT NULL),
            c AS (SELECT tok AS token, next_token,
                         CAST(count(*) AS BIGINT) AS cnt
                  FROM g GROUP BY token, next_token)
            SELECT token, next_token, cnt FROM c
            QUALIFY row_number() OVER (
                PARTITION BY token
                ORDER BY cnt DESC, next_token) = 1""",
        # Exact reply latency for consecutive user->assistant pairs.
        "t_response_latency": f"""
            WITH t AS (SELECT conv_id, turn_idx, role, ts,
                              lead(role) OVER w AS nrole,
                              lead(ts) OVER w AS nts,
                              lead(turn_idx) OVER w AS ntidx
                       FROM {_T_SRC}
                       WINDOW w AS (PARTITION BY conv_id
                                    ORDER BY turn_idx))
            SELECT conv_id, turn_idx,
                   CAST(epoch_us(nts) - epoch_us(ts) AS BIGINT)
                       AS latency_us
            FROM t WHERE role = 'user' AND nrole = 'assistant'
              AND ntidx = turn_idx + 1""",
        # GIF89a container: every output column restates the fixture
        # rotation's closed form; total_delay_cs replays the per-frame
        # Graphic Control delay sum.
        "mm_gif_meta": """
            WITH fr AS (SELECT doc_id,
                               unnest(generate_series(0, doc_id % 5))
                                   AS f
                        FROM documents),
            dl AS (SELECT doc_id,
                          CAST(sum((doc_id * 3 + f) % 100) AS BIGINT)
                              AS total_delay_cs
                   FROM fr GROUP BY doc_id)
            SELECT d.doc_id, TRUE AS decode_ok,
                   CAST((d.doc_id % 6 + 1) * 2 AS BIGINT) AS width,
                   CAST((d.doc_id % 4 + 2) * 2 AS BIGINT) AS height,
                   CAST(d.doc_id % 5 + 1 AS BIGINT) AS n_frames,
                   dl.total_delay_cs,
                   CAST(CASE d.doc_id % 3 WHEN 0 THEN 2 WHEN 1 THEN 4
                        ELSE 8 END AS BIGINT) AS gct_colors,
                   CAST(CASE WHEN d.doc_id % 6 = 0 THEN d.doc_id % 10
                        ELSE 0 END AS BIGINT) AS loops
            FROM documents d JOIN dl USING (doc_id)""",
        # 24-bit BMP: floor channel means are base + (h-1)//2 under
        # the fixture's per-row gradient; the top-left pixel is the
        # base itself (the vertical-flip witness).
        "mm_bmp_meta": """
            WITH g AS (SELECT doc_id,
                              (doc_id % 7 + 1) * 2 AS w,
                              (doc_id % 5 + 1) * 2 AS h,
                              doc_id % 100 AS bb,
                              doc_id * 3 % 100 AS bg,
                              doc_id * 7 % 100 AS br
                       FROM documents)
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(w AS BIGINT) AS width,
                   CAST(h AS BIGINT) AS height,
                   CAST(br + (h - 1) // 2 AS BIGINT) AS mean_r,
                   CAST(bg + (h - 1) // 2 AS BIGINT) AS mean_g,
                   CAST(bb + (h - 1) // 2 AS BIGINT) AS mean_b,
                   CAST(br AS BIGINT) AS top_r,
                   CAST(bg AS BIGINT) AS top_g,
                   CAST(bb AS BIGINT) AS top_b
            FROM g""",
        "mm_jpeg_meta": """
            SELECT doc_id, TRUE AS decode_ok, width, height,
                   mean_r, mean_g, mean_b
            FROM read_parquet(
                '/tmp/alco_ray_fixtures/jpeg/jpeg_eval.parquet')""",
        "mm_adpcm_meta": """
            SELECT doc_id, TRUE AS decode_ok, sample_rate, n_samples,
                   duration_us, peak, mean_amp
            FROM read_parquet(
                '/tmp/alco_ray_fixtures/adpcm/adpcm_eval.parquet')""",
        "mm_wav_meta": """
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(8000 + (doc_id % 4) * 4000 AS BIGINT)
                       AS sample_rate,
                   CAST((doc_id % 50 + 1) * 100 AS BIGINT) AS n_samples,
                   CAST(((doc_id % 50 + 1) * 100 * 1000000)
                        // (8000 + (doc_id % 4) * 4000) AS BIGINT)
                       AS duration_us,
                   CAST(abs(doc_id % 1000 - 500) AS BIGINT) AS peak,
                   CAST(doc_id % 1000 - 500 AS BIGINT) AS mean_amp
            FROM documents""",
        "mm_ppm_resize": """
            SELECT doc_id, TRUE AS decode_ok,
                   CAST(doc_id % 8 + 1 AS BIGINT) AS width,
                   CAST(doc_id % 4 + 1 AS BIGINT) AS height,
                   CAST(doc_id % 256 AS BIGINT) AS mean_r,
                   CAST((doc_id * 7) % 256 AS BIGINT) AS mean_g,
                   CAST((doc_id * 13) % 256 AS BIGINT) AS mean_b
            FROM documents""",
        # -------------------------------------------------- embeddings
        "v_knn": """
            WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id = 0)
            SELECT vec_id,
                   CAST(row_number() OVER (
                        ORDER BY list_cosine_similarity(
                                   CAST(embedding AS DOUBLE[]), qe) DESC,
                                 vec_id) AS BIGINT) AS rank
            FROM embeddings, q
            QUALIFY rank <= 10""",
        # Q12 analog: lineitem counts by (returnflag, order priority
        # class), high = 1-URGENT / 2-HIGH.
        "q_priority_lines": """
            SELECT l_returnflag,
                   CAST(sum(CASE WHEN o_orderpriority IN
                            ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END)
                        AS BIGINT) AS high_lines,
                   CAST(sum(CASE WHEN o_orderpriority IN
                            ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END)
                        AS BIGINT) AS low_lines
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY l_returnflag""",
        # Power-of-two histogram: bucket = bit_length(|cents|) via the
        # binary-format length (no float log2 anywhere).
        "e_exp_hist": """
            WITH v AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT)
                                  AS cents
                       FROM events)
            SELECT event_type,
                   CAST(CASE WHEN cents = 0 THEN 0
                        ELSE length(format('{:b}', abs(cents)))
                        END AS BIGINT) AS bucket,
                   CAST(CASE WHEN cents < 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS neg,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM v GROUP BY 1, 2, 3""",
        # Pairwise audience overlap: distinct-user intersections per
        # type pair, only pairs with a nonzero intersection.
        "e_type_overlap": """
            WITH ut AS (SELECT DISTINCT user_id, event_type
                        FROM events),
            sz AS (SELECT event_type, count(*) AS n FROM ut
                   GROUP BY event_type),
            px AS (SELECT a.event_type AS type_a,
                          b.event_type AS type_b,
                          CAST(count(*) AS BIGINT) AS inter_users
                   FROM ut a JOIN ut b USING (user_id)
                   WHERE a.event_type < b.event_type
                   GROUP BY 1, 2)
            SELECT type_a, type_b, inter_users,
                   CAST(sa.n AS BIGINT) AS n_a,
                   CAST(sb.n AS BIGINT) AS n_b
            FROM px JOIN sz sa ON sa.event_type = type_a
                    JOIN sz sb ON sb.event_type = type_b""",
        # Mann-Whitney 2*U1 between even/odd-day halves: exact integer
        # tie handling (each tie contributes exactly 1 to 2U).
        "e_mannwhitney": """
            WITH v AS (SELECT CAST(round(value * 100) AS BIGINT)
                              AS cents,
                              (epoch_us(ts) // 86400000000) % 2 AS odd
                       FROM events),
            c AS (SELECT cents,
                         sum(CASE WHEN odd = 0 THEN 1 ELSE 0 END)
                             AS c1,
                         sum(CASE WHEN odd = 1 THEN 1 ELSE 0 END)
                             AS c2
                  FROM v GROUP BY cents),
            w AS (SELECT cents, c1, c2,
                         coalesce(sum(c2) OVER (ORDER BY cents
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING), 0) AS c2lt
                  FROM c)
            SELECT CAST(sum(c1) AS BIGINT) AS n1,
                   CAST(sum(c2) AS BIGINT) AS n2,
                   CAST(sum(c1 * (2 * c2lt + c2)) AS BIGINT)
                       AS u2_first
            FROM w""",
        # Rolling 5-window median per user, 2x-scaled to keep the
        # even-window middle-pair average integer.
        "e_rolling_median": """
            WITH v AS (SELECT user_id, event_id, ts,
                              CAST(round(value * 100) AS BIGINT)
                                  AS cents
                       FROM events)
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(event_id AS BIGINT) AS event_id,
                   CAST(round(2 * median(cents) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 4 PRECEDING AND CURRENT ROW))
                       AS BIGINT) AS med2
            FROM v""",
        # Time-to-convert: first signup -> first purchase at-or-after
        # it, exact microsecond lag, converters only.
        "e_conversion_lag": """
            WITH s AS (SELECT user_id, min(ts) AS ts0 FROM events
                       WHERE event_type = 'signup' GROUP BY user_id),
            p AS (SELECT e.user_id, min(e.ts) AS ts1
                  FROM events e JOIN s USING (user_id)
                  WHERE e.event_type = 'purchase' AND e.ts >= s.ts0
                  GROUP BY e.user_id)
            SELECT CAST(s.user_id AS BIGINT) AS user_id,
                   CAST(epoch_us(ts1) - epoch_us(ts0) AS BIGINT)
                       AS lag_us
            FROM s JOIN p USING (user_id)""",
        # Cluster purity: truncating-division label centroids over the
        # scale-1024 quantized vectors, exact integer distances, a
        # member is confused iff strictly closer to a foreign centroid.
        "v_cluster_purity": """
            WITH q AS (
              SELECT vec_id, label,
                     CAST(generate_subscripts(embedding, 1) AS BIGINT)
                         AS j,
                     CAST(round(CAST(unnest(embedding) AS DOUBLE)
                          * 1024) AS BIGINT) AS x
              FROM embeddings),
            c AS (SELECT label, j,
                         CAST(sum(x) // count(*) AS BIGINT) AS c
                  FROM q GROUP BY label, j),
            d AS (SELECT q.vec_id, q.label AS own, c.label AS l2,
                         sum((q.x - c.c) * (q.x - c.c)) AS dd
                  FROM q JOIN c ON q.j = c.j
                  GROUP BY 1, 2, 3),
            o AS (SELECT vec_id, own,
                         max(CASE WHEN l2 = own THEN dd END) AS own_d,
                         min(CASE WHEN l2 <> own THEN dd END)
                             AS other_d
                  FROM d GROUP BY 1, 2)
            SELECT CAST(own AS BIGINT) AS label,
                   CAST(count(*) AS BIGINT) AS n_members,
                   CAST(sum(CASE WHEN other_d < own_d THEN 1 ELSE 0
                            END) AS BIGINT) AS n_confused
            FROM o GROUP BY own""",
        # Product quantization: ENCODE (per-subspace integer argmin
        # vs the engine's persisted codebook sidecar, ties to lowest
        # cluster) + ADC top-10 replayed entirely in SQL.  The dist
        # CTE doubles as the query's ADC table (vec_id = 0 rows).
        "v_pq": _PQ_BODY + """
            SELECT CAST(vec_id AS BIGINT) AS vec_id,
                   CAST(adist AS BIGINT) AS adc_dist,
                   CAST(row_number() OVER (ORDER BY adist, vec_id)
                        AS BIGINT) AS rank
            FROM adc QUALIFY rank <= 10""",
        # PQ retrieval quality as a CHECKED quantity: the ADC top-10
        # intersected with the exact cosine top-10, both legs fully
        # SQL-derived (codebook from the sidecar, exact leg direct).
        "v_pq_recall": _PQ_BODY + """,
            p10 AS (SELECT vec_id FROM adc
                    QUALIFY row_number() OVER (ORDER BY adist, vec_id)
                        <= 10),
            qx AS (SELECT CAST(embedding AS DOUBLE[]) AS qe
                   FROM embeddings WHERE vec_id = 0),
            e10 AS (SELECT vec_id FROM embeddings, qx
                    QUALIFY row_number() OVER (
                        ORDER BY list_cosine_similarity(
                            CAST(embedding AS DOUBLE[]), qe) DESC,
                        vec_id) <= 10)
            SELECT CAST(10 AS BIGINT) AS k,
                   CAST((SELECT count(*) FROM p10
                         JOIN e10 USING (vec_id)) AS BIGINT)
                       AS n_hits""",
        # IVF-PQ: coarse assignment, probe-list selection, residual
        # encoding and ADC all replayed in SQL from the two persisted
        # codebook sidecars.
        "v_ivfpq": """
            WITH q AS (
              SELECT vec_id,
                     CAST(generate_subscripts(embedding, 1) AS BIGINT)
                         - 1 AS j,
                     CAST(round(CAST(unnest(embedding) AS DOUBLE)
                          * 1024) AS BIGINT) AS x
              FROM embeddings),
            cl AS (SELECT cl, j, c FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/ivfpq_coarse.parquet')),
            pqc AS (SELECT sub, cl AS pc, jj, c FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/ivfpq_pq.parquet')),
            sd AS (SELECT max(jj) + 1 AS sd FROM pqc),
            cd AS (SELECT v.vec_id, cc.cl,
                          sum((v.x - cc.c) * (v.x - cc.c)) AS dd
                   FROM q v JOIN cl cc USING (j)
                   GROUP BY 1, 2),
            asg AS (SELECT vec_id, cl FROM (
                      SELECT vec_id, cl,
                             row_number() OVER (PARTITION BY vec_id
                                 ORDER BY dd, cl) AS rn
                      FROM cd) WHERE rn = 1),
            probed AS (SELECT cl FROM cd WHERE vec_id = 0
                       QUALIFY row_number() OVER (ORDER BY dd, cl)
                           <= 2),
            surv AS (SELECT vec_id, cl FROM asg
                     WHERE cl IN (SELECT cl FROM probed)),
            res AS (SELECT s.vec_id, s.cl AS list_id,
                           q.j // sd.sd AS sub, q.j % sd.sd AS jj,
                           q.x - c.c AS r
                    FROM surv s
                    JOIN q ON q.vec_id = s.vec_id
                    JOIN cl c ON c.cl = s.cl AND c.j = q.j
                    CROSS JOIN sd),
            ed AS (SELECT r.vec_id, r.list_id, r.sub, p.pc,
                          sum((r.r - p.c) * (r.r - p.c)) AS dd
                   FROM res r JOIN pqc p
                        ON p.sub = r.sub AND p.jj = r.jj
                   GROUP BY 1, 2, 3, 4),
            enc AS (SELECT vec_id, list_id, sub, pc FROM (
                      SELECT vec_id, list_id, sub, pc,
                             row_number() OVER (
                                 PARTITION BY vec_id, sub
                                 ORDER BY dd, pc) AS rn
                      FROM ed) WHERE rn = 1),
            qres AS (SELECT p.cl AS list_id, q.j // sd.sd AS sub,
                            q.j % sd.sd AS jj, q.x - c.c AS r
                     FROM probed p
                     JOIN q ON q.vec_id = 0
                     JOIN cl c ON c.cl = p.cl AND c.j = q.j
                     CROSS JOIN sd),
            qdt AS (SELECT r.list_id, r.sub, p.pc,
                           sum((r.r - p.c) * (r.r - p.c)) AS dd
                    FROM qres r JOIN pqc p
                         ON p.sub = r.sub AND p.jj = r.jj
                    GROUP BY 1, 2, 3),
            adc AS (SELECT e.vec_id, sum(t.dd) AS adist
                    FROM enc e JOIN qdt t
                         ON t.list_id = e.list_id
                        AND t.sub = e.sub AND t.pc = e.pc
                    GROUP BY e.vec_id)
            SELECT CAST(vec_id AS BIGINT) AS vec_id,
                   CAST(adist AS BIGINT) AS adc_dist,
                   CAST(row_number() OVER (ORDER BY adist, vec_id)
                        AS BIGINT) AS rank
            FROM adc QUALIFY rank <= 10""",
        # Hard-triplet mining: per anchor the argmax-cosine same-label
        # (self excluded) and different-label vectors, tie-break
        # (-sim, vec_id) via the window ordering.
        "v_triplet_mining": """
            WITH a AS (SELECT vec_id AS aid,
                              CAST(embedding AS DOUBLE[]) AS ae,
                              label AS al
                       FROM embeddings WHERE vec_id % 50 = 0),
            sc AS (SELECT a.aid, e.vec_id,
                          list_cosine_similarity(
                              CAST(e.embedding AS DOUBLE[]), a.ae) AS sim,
                          CASE WHEN e.label = a.al THEN 1 ELSE 0 END
                              AS same
                   FROM embeddings e, a
                   WHERE e.vec_id <> a.aid),
            r AS (SELECT aid, vec_id, same,
                         row_number() OVER (PARTITION BY aid, same
                                            ORDER BY sim DESC, vec_id)
                             AS rn
                  FROM sc)
            SELECT CAST(aid AS BIGINT) AS anchor_id,
                   CAST(max(CASE WHEN same = 1 THEN vec_id END)
                        AS BIGINT) AS pos_id,
                   CAST(max(CASE WHEN same = 0 THEN vec_id END)
                        AS BIGINT) AS neg_id
            FROM r WHERE rn = 1 GROUP BY aid""",
        "d_curate": """
            WITH tk AS (SELECT doc_id, text,
                               list_filter(string_split_regex(lower(text),
                                 '[^a-z0-9]+'), x -> x <> '') AS l
                        FROM documents),
            q AS (SELECT doc_id, text FROM tk
                  WHERE len(l) >= 20
                    AND len(list_filter(l, x -> x IN
                        ('the','a','and','of','to','in','is','it')))
                        * 10 >= len(l)),
            dd AS (SELECT min(doc_id) AS doc_id, text FROM q
                   GROUP BY text),
            tk2 AS (SELECT doc_id,
                           list_filter(string_split_regex(lower(text),
                             '[^a-z0-9]+'), x -> x <> '') AS l
                    FROM dd),
            c AS (SELECT doc_id, l,
                         unnest(generate_series(0,
                             CAST(ceil(len(l) / 64.0) AS BIGINT) - 1))
                             AS ci
                  FROM tk2)
            SELECT doc_id, CAST(ci AS BIGINT) AS chunk_idx,
                   CAST(least((ci + 1) * 64, len(l)) - ci * 64 AS BIGINT)
                       AS n_tokens,
                   array_to_string(l[ci * 64 + 1 :
                                     least((ci + 1) * 64, len(l))], ' ')
                       AS chunk_text
            FROM c""",
        "e_user_median": """
            WITH o AS (SELECT user_id, value,
                              row_number() OVER (PARTITION BY user_id
                                                 ORDER BY value) - 1 AS r,
                              count(*) OVER (PARTITION BY user_id) AS n
                       FROM events)
            SELECT user_id,
                   max(CASE WHEN r = CAST(floor(0.5 * (n - 1)) AS BIGINT)
                            THEN value END) AS lo_value,
                   max(CASE WHEN r = CAST(ceil(0.5 * (n - 1)) AS BIGINT)
                            THEN value END) AS hi_value
            FROM o GROUP BY user_id""",
        "e_events_1h": """
            SELECT event_id,
                   CAST(count(*) OVER (PARTITION BY user_id ORDER BY ts
                        RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                        AND CURRENT ROW) AS BIGINT) AS n_1h
            FROM events""",
        "e_value_pctl": """
            WITH o AS (SELECT value,
                              row_number() OVER (ORDER BY value) - 1 AS r,
                              count(*) OVER () AS n
                       FROM events),
            ps AS (SELECT CAST(p AS DOUBLE) AS p
                   FROM (VALUES (0.25), (0.5), (0.9)) t(p))
            SELECT p,
                   max(CASE WHEN r = CAST(floor(p * (n - 1)) AS BIGINT)
                            THEN value END) AS lo_value,
                   max(CASE WHEN r = CAST(ceil(p * (n - 1)) AS BIGINT)
                            THEN value END) AS hi_value
            FROM o CROSS JOIN ps
            GROUP BY p""",
        "v_knn_multi": """
            WITH q AS (SELECT vec_id AS qid, CAST(embedding AS DOUBLE[])
                              AS qe
                       FROM embeddings WHERE vec_id < 3)
            SELECT qid, vec_id, rank FROM (
              SELECT q.qid, e.vec_id,
                     CAST(row_number() OVER (PARTITION BY q.qid
                          ORDER BY list_cosine_similarity(
                                     CAST(e.embedding AS DOUBLE[]),
                                     q.qe) DESC,
                                   e.vec_id) AS BIGINT) AS rank
              FROM embeddings e, q)
            WHERE rank <= 10""",
        "v_range_search": """
            WITH q AS (SELECT CAST(embedding AS DOUBLE[]) AS qe
                       FROM embeddings WHERE vec_id = 0)
            SELECT vec_id FROM embeddings, q
            WHERE list_cosine_similarity(CAST(embedding AS DOUBLE[]), qe)
                  >= 0.25""",
        "v_cosine_dup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[]))
                  >= 0.4""",
        "v_cosine_dedup_apply": """
            WITH jp AS (
              SELECT a.vec_id AS doc_a, b.vec_id AS doc_b
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
              WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                           CAST(b.embedding AS DOUBLE[]))
                    >= 0.4),
            e AS (SELECT doc_a AS u, doc_b AS v FROM jp
                  UNION ALL SELECT doc_b, doc_a FROM jp),
            r AS (
              WITH RECURSIVE rr(u, l) AS (
                SELECT u, v FROM e WHERE v < u
                UNION
                SELECT e.u, rr.l FROM e JOIN rr ON rr.u = e.v
                WHERE rr.l < e.u)
              SELECT DISTINCT u FROM rr)
            SELECT vec_id FROM embeddings
            WHERE vec_id NOT IN (SELECT u FROM r)""",
        "v_dims": """
            SELECT vec_id, CAST(len(embedding) AS BIGINT) AS dim, label
            FROM embeddings""",
        # ----------------------- hash-family chains via engine sidecars
        # The engine persists its hash-family intermediates (LSH
        # candidates, SimHash signatures) under /tmp/alco_ray_cache/<sf>
        # at query time; the oracle consumes the SAME artifact, so the
        # exact stage downstream of the approximate stage is fully
        # hash-checked (the hash families themselves are pinned by
        # pytest planted-pair tests).
        "d_minhash_apply": _JACCARD_BODY + """,
            vp AS (SELECT jp.doc_a, jp.doc_b
                   FROM jp JOIN read_parquet(
                     '/tmp/alco_ray_cache/sf0.01/lsh_apply_candidates.parquet') c
                     ON c.doc_a = jp.doc_a AND c.doc_b = jp.doc_b),
            e AS (SELECT doc_a AS u, doc_b AS v FROM vp
                  UNION ALL SELECT doc_b, doc_a FROM vp),
            r AS (
              WITH RECURSIVE rr(u, l) AS (
                SELECT u, v FROM e WHERE v < u
                UNION
                SELECT e.u, rr.l FROM e JOIN rr ON rr.u = e.v
                WHERE rr.l < e.u)
              SELECT DISTINCT u FROM rr)
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT u FROM r)""",
        "d_minhash_lsh": _JACCARD_BODY + """
            SELECT jp.doc_a, jp.doc_b, inter, uni
            FROM jp JOIN read_parquet(
                '/tmp/alco_ray_cache/sf0.01/lsh_candidates.parquet') c
              ON c.doc_a = jp.doc_a AND c.doc_b = jp.doc_b""",
        "d_simhash": """
            WITH s AS (SELECT * FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/simhash_sigs.parquet'))
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT)
                       AS hamming
            FROM s a JOIN s b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 7""",
        "d_components": """
            WITH RECURSIVE pr AS (
              SELECT doc_a, doc_b FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/cc_pairs.parquet')),
            e AS (SELECT doc_a AS u, doc_b AS v FROM pr
                  UNION SELECT doc_b AS u, doc_a AS v FROM pr),
            reach(u, v) AS (
              SELECT u, v FROM e
              UNION
              SELECT r.u, e2.v FROM reach r JOIN e e2 ON r.v = e2.u)
            SELECT u AS doc_id,
                   CAST(least(u, min(v)) AS BIGINT) AS component
            FROM reach GROUP BY u ORDER BY doc_id""",
        "d_fingerprint": """
            WITH u AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000 AS doc_id, text FROM documents
              WHERE doc_id < 50),
            tk AS (
              SELECT doc_id,
                     array_to_string(list_filter(string_split_regex(
                         lower(text), '[^a-z0-9]+'), x -> x <> ''), ' ')
                         AS stream
              FROM u)
            SELECT doc_id,
                   CAST(min(doc_id) OVER (PARTITION BY stream) AS BIGINT)
                       AS rep_doc_id
            FROM tk
            QUALIFY count(*) OVER (PARTITION BY stream) > 1""",
        "d_lang_id": """
            SELECT doc_id, true_lang AS pred_lang FROM read_parquet(
                '/tmp/alco_ray_fixtures/sf0.01_langid/langid_eval.parquet')""",
        "e_streaks": """
            WITH d AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS day
                       FROM events),
            r AS (SELECT user_id, day,
                         CAST(row_number() OVER (
                             PARTITION BY user_id ORDER BY day)
                              AS BIGINT) AS rn
                  FROM d),
            isl AS (SELECT user_id, CAST(count(*) AS BIGINT) AS len
                    FROM r
                    GROUP BY user_id, day - rn * INTERVAL 1 DAY)
            SELECT user_id,
                   CAST(sum(len) AS BIGINT) AS n_active_days,
                   CAST(max(len) AS BIGINT) AS longest_streak
            FROM isl GROUP BY user_id""",
        "e_interval_union": """
            WITH iv AS (SELECT user_id, epoch_us(ts) AS s,
                               epoch_us(ts)
                               + ((CAST(floor(abs(value)) AS BIGINT)
                                   % 3600) + 60) * 1000000 AS e
                        FROM events),
            o AS (SELECT user_id, s, e,
                         max(e) OVER (PARTITION BY user_id
                             ORDER BY s, e ROWS BETWEEN UNBOUNDED
                             PRECEDING AND 1 PRECEDING) AS pm
                  FROM iv),
            b AS (SELECT user_id, s, e,
                         CASE WHEN pm IS NULL OR s > pm
                              THEN 1 ELSE 0 END AS brk
                  FROM o),
            j AS (SELECT user_id, s, e,
                         sum(brk) OVER (PARTITION BY user_id
                             ORDER BY s, e ROWS UNBOUNDED PRECEDING)
                             AS gid
                  FROM b),
            m AS (SELECT user_id, gid, min(s) AS ms, max(e) AS me
                  FROM j GROUP BY user_id, gid)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_merged,
                   CAST(sum(me - ms) AS BIGINT) AS covered_us
            FROM m GROUP BY user_id""",
        "e_hhi": """
            WITH c AS (SELECT user_id, event_type,
                              CAST(count(*) AS BIGINT) AS cnt
                       FROM events GROUP BY user_id, event_type)
            SELECT user_id, CAST(sum(cnt) AS BIGINT) AS n_events,
                   CAST(count(*) AS BIGINT) AS n_types,
                   CAST(sum(cnt * cnt) * 1000000
                        // (sum(cnt) * sum(cnt)) AS BIGINT) AS hhi_ppm
            FROM c GROUP BY user_id""",
        "t_safety_flags": f"""
            WITH cats(category, pat) AS (VALUES
                ('transport', '\\b(route|stream)\\b'),
                ('bulk', '\\b(shuffle|batch)\\b'),
                ('transform', '\\b(enrich|merge)\\b'))
            SELECT conv_id, turn_idx, category,
                   CAST(len(regexp_extract_all(text, pat)) AS BIGINT)
                       AS n_hits
            FROM {_T_SRC} CROSS JOIN cats
            WHERE regexp_matches(text, pat)""",
        "d_unicode_norm": """
            WITH u AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 3000000 AS doc_id,
                     text || ' cafe' || chr(769) AS text
              FROM documents WHERE doc_id < 20)
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS len_raw,
                   CAST(length(nfc_normalize(text)) AS BIGINT)
                       AS len_nfc,
                   CAST(CASE WHEN nfc_normalize(text) <> text
                        THEN 1 ELSE 0 END AS BIGINT) AS changed
            FROM u""",
        "t_self_repeat": f"""
            WITH p AS (SELECT conv_id, turn_idx,
                     list_filter(string_split_regex(lower(text),
                         '[^a-z0-9]+'), x -> x <> '') AS la,
                     lead(list_filter(string_split_regex(lower(text),
                         '[^a-z0-9]+'), x -> x <> ''))
                         OVER (PARTITION BY conv_id
                               ORDER BY turn_idx) AS lb
                  FROM {_T_SRC}),
            s AS (SELECT conv_id, turn_idx,
                         CAST(len(list_distinct(la)) AS BIGINT) AS da,
                         CAST(len(list_distinct(lb)) AS BIGINT) AS db,
                         CAST(len(list_distinct(list_concat(la, lb)))
                              AS BIGINT) AS du
                  FROM p WHERE lb IS NOT NULL)
            SELECT conv_id, turn_idx,
                   CAST(da + db - du AS BIGINT) AS inter_toks,
                   du AS union_toks,
                   CAST((da + db - du) * 1000000
                        // greatest(du, 1) AS BIGINT) AS jac_ppm
            FROM s""",
        "e_rfm": """
            WITH agg AS (SELECT user_id,
                     CAST(count(*) AS BIGINT) AS freq,
                     CAST(sum(CAST(round(value * 100) AS BIGINT))
                          AS BIGINT) AS mon_cents,
                     CAST(date_diff('day', CAST(max(ts) AS DATE),
                          (SELECT CAST(max(ts) AS DATE) FROM events))
                          AS BIGINT) AS rec_days
                  FROM events GROUP BY user_id)
            SELECT user_id, rec_days, freq, mon_cents,
                   CAST(ntile(4) OVER (ORDER BY rec_days, user_id)
                        AS BIGINT) AS r_q,
                   CAST(ntile(4) OVER (ORDER BY freq, user_id)
                        AS BIGINT) AS f_q,
                   CAST(ntile(4) OVER (ORDER BY mon_cents, user_id)
                        AS BIGINT) AS m_q
            FROM agg""",
        "d_prefix_dedup": """
            WITH u AS (SELECT doc_id, text FROM documents
                       UNION ALL
                       SELECT doc_id + 4000000 AS doc_id,
                              substring(text, 1, 40) AS text
                       FROM documents WHERE doc_id < 30)
            SELECT a.doc_id,
                   CAST(length(a.text) AS BIGINT) AS prefix_len
            FROM u a
            WHERE EXISTS (SELECT 1 FROM u b
                          WHERE starts_with(b.text, a.text)
                            AND length(b.text) > length(a.text))""",
        # DSIR importance weights: identical add-1-smoothed integer
        # ratio-sum (S=10^4, floor division, HUGEINT-exact in DuckDB,
        # int64-guarded in the engine); target = doc_id % 7 == 0.
        "d_dsir": f"""
            WITH tk AS ({_DOC_TOKENS}),
            t AS (SELECT doc_id, unnest(l) AS token FROM tk),
            raw AS (SELECT token,
                           count(*) AS cr,
                           count(*) FILTER (WHERE doc_id % 7 = 0)
                               AS ct
                    FROM t GROUP BY token),
            s AS (SELECT sum(cr) AS nr, sum(ct) AS nt,
                         count(*) AS v FROM raw),
            r AS (SELECT token,
                         10000 * ((ct + 1) * (nr + v))
                             // ((cr + 1) * (nt + v)) AS ratio
                  FROM raw, s),
            tf AS (SELECT doc_id, token, count(*) AS occ
                   FROM t GROUP BY doc_id, token)
            SELECT tf.doc_id,
                   CAST(sum(occ) AS BIGINT) AS n_tokens,
                   CAST(sum(occ * ratio) AS BIGINT) AS dsir_w
            FROM tf JOIN r USING (token)
            GROUP BY tf.doc_id""",
        # Two-sample KS drift: the exact-integer numerator of
        # max |F1 - F2| between even- and odd-day events over value
        # cents; smallest attaining value breaks ties.
        "e_ks_drift": """
            WITH e AS (SELECT
                         CAST(round(value * 100) AS BIGINT) AS cents,
                         (CAST(ts AS DATE) - DATE '1970-01-01') % 2
                             AS odd
                       FROM events),
            g AS (SELECT cents,
                         count(*) FILTER (WHERE odd = 0) AS c1,
                         count(*) FILTER (WHERE odd = 1) AS c2
                  FROM e GROUP BY cents),
            s AS (SELECT sum(c1) AS n1, sum(c2) AS n2 FROM g),
            c AS (SELECT cents,
                         sum(c1) OVER (ORDER BY cents) AS f1,
                         sum(c2) OVER (ORDER BY cents) AS f2
                  FROM g),
            d AS (SELECT cents,
                         abs(f1 * n2 - f2 * n1) AS d_num
                  FROM c, s)
            SELECT CAST(cents AS BIGINT) AS at_value,
                   CAST(d_num AS BIGINT) AS d_num,
                   CAST(n1 AS BIGINT) AS n1,
                   CAST(n2 AS BIGINT) AS n2,
                   CAST(d_num * 1000000
                        // greatest(n1 * n2, 1) AS BIGINT) AS ks_ppm
            FROM d, s
            ORDER BY d_num DESC, cents LIMIT 1""",
        # Triangle count over the persisted SimHash pair sidecar
        # (a < b min/max edges): oriented triple self-join, then each
        # triangle contributes to its three corners.
        "d_dup_triangles": """
            WITH pr AS (SELECT doc_a AS a, doc_b AS b FROM read_parquet(
                '/tmp/alco_ray_cache/sf0.01/tri_pairs.parquet')),
            t AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
                  FROM pr e1
                  JOIN pr e2 ON e2.a = e1.a AND e1.b < e2.b
                  JOIN pr e3 ON e3.a = e1.b AND e3.b = e2.b),
            n AS (SELECT x AS node FROM t
                  UNION ALL SELECT y FROM t
                  UNION ALL SELECT z FROM t)
            SELECT node AS doc_id, CAST(count(*) AS BIGINT) AS n_tri
            FROM n GROUP BY node""",
        # v_knn_lsh, v_knn_ivf, mm_features, e_approx_users:
        # intentionally omitted — approximate ANN probes and the HLL
        # sketch have no exact SQL equivalent (recall / error bound
        # pinned by pytest) and the multimodal codec is a declared
        # stub; the driver records rows-only checks for these four.
    }
