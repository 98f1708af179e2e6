"""Round-5 tail operator tests: gaps-and-islands streaks, interval
union, and integer Herfindahl concentration.

The distributed plumbing is pinned end-to-end by the DuckDB oracles
(scripts/check_contract.py); these tests pin the island/merge kernel
SEMANTICS against independent pure-Python references on adversarial
small inputs (overlap chains, contained intervals, exact-touching
endpoints, single-event users) that the synthetic corpus may not
exercise densely.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray


def _run_partitioned(ds, body):
    from alco_ray.stages.window import partition_by_key

    out = (partition_by_key(ds, "user_id", n_parts=3)
           .groupby("part").map_groups(body, batch_format="pandas"))
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def _streak_ref(day_pairs):
    """Independent reference: dict of sorted day sets per user."""
    by_user = {}
    for u, d in day_pairs:
        by_user.setdefault(u, set()).add(d)
    rows = []
    for u, days in sorted(by_user.items()):
        ds = sorted(days)
        longest = cur = 1
        for a, b in zip(ds, ds[1:]):
            cur = cur + 1 if b - a == 1 else 1
            longest = max(longest, cur)
        rows.append((u, len(ds), longest))
    return rows


def test_streak_kernel_matches_reference(ray_session):
    import alco_ray.pipelines.queries as q

    # user 1: two islands (3-day and 2-day); user 2: singleton days
    # only; user 3: one long run with an interior duplicate day.
    pairs = [(1, 10), (1, 11), (1, 12), (1, 20), (1, 21),
             (2, 5), (2, 7), (2, 9),
             (3, 100), (3, 101), (3, 101), (3, 102), (3, 103)]
    tbl = pa.table({"user_id": pa.array([u for u, _ in pairs], pa.int64()),
                    "day": pa.array([d for _, d in pairs], pa.int32())})
    ds = ray.data.from_arrow(tbl)

    # reuse the exact kernel body from e_streaks via a tiny local copy
    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates(["user_id", "day"])
              .sort_values(["user_id", "day"], kind="mergesort"))
        u = g["user_id"].to_numpy()
        d = g["day"].to_numpy().astype(np.int64)
        new = np.ones(len(g), bool)
        if len(g) > 1:
            new[1:] = (u[1:] != u[:-1]) | (d[1:] - d[:-1] != 1)
        starts = np.flatnonzero(new)
        isl = np.cumsum(new) - 1
        ln = np.bincount(isl).astype(np.int64)
        per = pd.DataFrame({"user_id": u[starts], "len": ln})
        r = (per.groupby("user_id", sort=False)
                .agg(n_active_days=("len", "sum"),
                     longest_streak=("len", "max")).reset_index())
        return r.astype({"n_active_days": "int64",
                         "longest_streak": "int64"})

    got = _run_partitioned(ds, body)
    want = _streak_ref(pairs)
    assert list(got.itertuples(index=False, name=None)) == want


def _union_ref(ivs):
    """Independent reference: per-user sorted sweep with Python ints."""
    by_user = {}
    for u, s, e in ivs:
        by_user.setdefault(u, []).append((s, e))
    rows = []
    for u, lst in sorted(by_user.items()):
        lst.sort()
        merged = []
        for s, e in lst:
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        rows.append((u, len(merged), sum(e - s for s, e in merged)))
    return rows


def test_interval_union_kernel_adversarial(ray_session):
    # user 1: chain overlap a-b-c collapsing to one; user 2: interval
    # fully CONTAINED in a longer earlier one (cummax, not plain prev-
    # end, must carry the reach); user 3: exact-touch endpoints merge
    # (s == reach is NOT a break); user 4: disjoint singletons.
    ivs = [(1, 0, 10), (1, 5, 12), (1, 11, 20),
           (2, 0, 100), (2, 10, 20), (2, 90, 250), (2, 300, 310),
           (3, 0, 10), (3, 10, 20),
           (4, 0, 5), (4, 50, 55)]
    tbl = pa.table({
        "user_id": pa.array([u for u, _, _ in ivs], pa.int64()),
        "s": pa.array([s for _, s, _ in ivs], pa.int64()),
        "e": pa.array([e for _, _, e in ivs], pa.int64())})
    ds = ray.data.from_arrow(tbl)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "s", "e"], kind="mergesort")
        u = g["user_id"].to_numpy()
        s = g["s"].to_numpy()
        cm = g.groupby("user_id", sort=False)["e"].cummax().to_numpy()
        new_user = np.ones(len(g), bool)
        if len(g) > 1:
            new_user[1:] = u[1:] != u[:-1]
        pm = np.empty(len(g), np.int64)
        pm[0] = np.iinfo(np.int64).min
        if len(g) > 1:
            pm[1:] = cm[:-1]
        pm[new_user] = np.iinfo(np.int64).min
        brk = new_user | (s > pm)
        starts = np.flatnonzero(brk)
        e_arr = g["e"].to_numpy()
        me = np.maximum.reduceat(e_arr, starts)
        per = pd.DataFrame({"user_id": u[starts],
                            "cov": me - s[starts]})
        r = (per.groupby("user_id", sort=False)
                .agg(n_merged=("cov", "size"),
                     covered_us=("cov", "sum")).reset_index())
        return r.astype({"n_merged": "int64", "covered_us": "int64"})

    got = _run_partitioned(ds, body)
    want = _union_ref(ivs)
    assert list(got.itertuples(index=False, name=None)) == want


def test_hhi_degenerate_and_uniform(ray_session):
    import alco_ray.pipelines.queries  # noqa: F401  (import sanity)

    # single-type user -> hhi exactly 1_000_000 ppm; perfectly uniform
    # 4-type user -> exactly 250_000 ppm.
    rows = [(1, "a")] * 7 + [(2, t) for t in "abcd" * 3]
    tbl = pa.table({
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "event_type": pa.array([t for _, t in rows])})
    ds = ray.data.from_arrow(tbl)

    def partial(b: pa.Table) -> pa.Table:
        g = (b.group_by(["user_id", "event_type"])
             .aggregate([([], "count_all")]))
        return g.rename_columns(["user_id", "event_type", "cnt"])

    parts = ds.map_batches(partial, batch_format="pyarrow")

    def body(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["user_id", "event_type"], sort=False)["cnt"]
              .sum().reset_index())
        c["cnt"] = c["cnt"].astype("int64")
        c["sq"] = c["cnt"] * c["cnt"]
        r = (c.groupby("user_id", sort=False)
              .agg(n_events=("cnt", "sum"), n_types=("cnt", "size"),
                   ss=("sq", "sum")).reset_index())
        r["hhi_ppm"] = (r["ss"] * 1_000_000) // \
            (r["n_events"] * r["n_events"])
        return r[["user_id", "n_events", "n_types", "hhi_ppm"]].astype(
            {"n_events": "int64", "n_types": "int64",
             "hhi_ppm": "int64"})

    got = _run_partitioned(parts, body)
    assert got.loc[got.user_id == 1, "hhi_ppm"].item() == 1_000_000
    assert got.loc[got.user_id == 2, "hhi_ppm"].item() == 250_000
    assert got.loc[got.user_id == 2, "n_types"].item() == 4


def test_safety_lexicon_word_boundaries(ray_session):
    from alco_ray.pipelines.queries import SAFETY_LEXICON
    import pyarrow.compute as pc

    texts = pa.array(["route the stream", "rerouted streams",
                      "shuffle batch shuffle", "no hits here"])
    by_cat = {cat: pc.count_substring_regex(texts, pattern=pat).to_pylist()
              for cat, pat in SAFETY_LEXICON}
    # \b must reject 'rerouted'/'streams' as whole-word hits
    assert by_cat["transport"] == [2, 0, 0, 0]
    assert by_cat["bulk"] == [0, 0, 3, 0]


def test_unicode_norm_planted_rows(ray_session, monkeypatch):
    import alco_ray.pipelines.queries as q

    out = q.d_unicode_norm("/root/testdata/sf0.001").to_pandas()
    planted = out[out.doc_id >= 3_000_000]
    orig = out[out.doc_id < 3_000_000]
    assert len(planted) == 20
    # every planted row composes e+U+0301 -> one fewer codepoint
    assert (planted.changed == 1).all()
    assert (planted.len_raw - planted.len_nfc == 1).all()
    # the ASCII corpus is untouched
    assert (orig.changed == 0).all()
    assert (orig.len_raw == orig.len_nfc).all()


def test_self_repeat_jaccard_reference(ray_session):
    import alco_ray.pipelines.queries as q

    out = q.t_self_repeat("/root/testdata/sf0.001").to_pandas()
    # independent reference on a few sampled pairs via raw corpus
    import duckdb
    from alco_ray import fixtures
    import re

    corpus = fixtures.corpus_for_sf("/root/testdata/sf0.001")
    rows = duckdb.sql(
        f"SELECT conv_id, turn_idx, text FROM "
        f"read_parquet('{corpus}/*.parquet') ORDER BY conv_id, turn_idx"
    ).fetchall()
    by_conv = {}
    for c, t, x in rows:
        by_conv.setdefault(c, []).append((t, x))
    tok = lambda s: set(re.split(r"[^a-z0-9]+", s.lower())) - {""}
    checked = 0
    for _, r in out.head(50).iterrows():
        turns = by_conv[r.conv_id]
        idx = [t for t, _ in turns]
        pos = idx.index(r.turn_idx)
        a, b = tok(turns[pos][1]), tok(turns[pos + 1][1])
        assert r.inter_toks == len(a & b)
        assert r.union_toks == len(a | b)
        assert r.jac_ppm == len(a & b) * 1_000_000 // max(len(a | b), 1)
        checked += 1
    assert checked == 50


def test_rfm_ntile_matches_duckdb_law(ray_session):
    # pin the engine's NTILE law against DuckDB on an awkward n (not
    # divisible by 4, with metric ties broken by user_id)
    import duckdb
    import alco_ray.pipelines.queries  # noqa: F401
    from alco_ray.stages.scan import ntile

    vals = [5, 5, 5, 1, 2, 9, 9, 3, 7, 7, 7]  # n=11
    ids = list(range(11))
    tbl = pa.table({"user_id": pa.array(ids, pa.int64()),
                    "m": pa.array(vals, pa.int64())})
    ds = ray.data.from_arrow(tbl).map_batches(
        lambda b: b.append_column(
            "__key", pa.array(
                b["m"].to_numpy(zero_copy_only=False) * 100
                + b["user_id"].to_numpy(zero_copy_only=False))),
        batch_format="pyarrow")
    got = (ntile(ds, "__key", 4, out_col="q").to_pandas()
           .sort_values("user_id"))
    want = duckdb.sql(
        "SELECT user_id, ntile(4) OVER (ORDER BY m, user_id) AS q "
        "FROM (SELECT unnest(?) AS m, unnest(?) AS user_id)",
        params=[vals, ids]).df().sort_values("user_id")
    assert list(got["q"]) == list(want["q"])


def test_semdedup_integer_cosine_boundary():
    """The multiplication-only int64 test (dot > 0 AND 10^6 dot^2 >=
    998001 na nb) must agree with float cosine >= 0.999 on crafted
    vectors straddling the threshold: a=(1,0) vs b=(999,k) has
    cos^2 = 998001/(998001+k^2), and the tau^2 boundary sits at
    k^2 = 1999 — so k=44 passes, k=45 fails, and an anti-parallel
    vector fails on the sign guard no matter the magnitude."""
    def int_test(a, b):
        dot = sum(x * y for x, y in zip(a, b))
        na = sum(x * x for x in a)
        nb = sum(y * y for y in b)
        return dot > 0 and 1_000_000 * dot * dot >= 998_001 * na * nb

    import math

    def float_test(a, b):
        dot = sum(x * y for x, y in zip(a, b))
        return dot / math.sqrt(sum(x * x for x in a)) \
            / math.sqrt(sum(y * y for y in b)) >= 0.999

    a = (1, 0)
    for b in [(999, 44), (999, 45), (-999, 0), (1, 0), (0, 1),
              (10 ** 6, 44_988), (10 ** 6, 44_999)]:
        assert int_test(a, b) == float_test(a, b), b
    assert int_test(a, (999, 44)) and not int_test(a, (999, 45))
    assert not int_test(a, (-999, 0))


def test_semdedup_pairs_independently_verified(ray_session):
    """Every (doc_id, rep_id) the pipeline reports must satisfy the
    exact integer cosine law when the two texts are re-encoded from
    the raw corpus by an independent pure-Python replay of the
    TextEncoder (letter counts x R in unbounded Python ints), and the
    representative must be a smaller id."""
    import duckdb
    import alco_ray.pipelines.queries as q
    from alco_ray.stages.similarity import _ENC_ALPHABET, TextEncoder

    sf = "/root/testdata/sf0.001"
    out = q.d_semdedup(sf).to_pandas()
    assert len(out) > 0
    assert (out.rep_id < out.doc_id).all()

    R = TextEncoder._load_model(8, 5).tolist()  # python ints
    need = sorted(set(out.doc_id) | set(out.rep_id))
    rows = duckdb.sql(
        f"SELECT doc_id, lower(text) FROM "
        f"read_parquet('{sf}/documents.parquet') "
        f"WHERE doc_id IN ({','.join(map(str, need))})").fetchall()
    txt = dict(rows)

    def enc(s):
        cnt = [s.count(ch) for ch in _ENC_ALPHABET]
        return [sum(r[j] * cnt[j] for j in range(26)) for r in R]

    emb = {i: enc(txt[i]) for i in need}
    for r in out.itertuples(index=False):
        a, b = emb[r.doc_id], emb[r.rep_id]
        dot = sum(x * y for x, y in zip(a, b))
        na = sum(x * x for x in a)
        nb = sum(y * y for y in b)
        assert dot > 0 and 1_000_000 * dot * dot >= 998_001 * na * nb, \
            (r.doc_id, r.rep_id)


def test_prefix_dedup_planted_and_edges(ray_session):
    import alco_ray.pipelines.queries as q

    out = q.d_prefix_dedup("/root/testdata/sf0.001").to_pandas()
    planted = out[out.doc_id >= 4_000_000]
    # every planted 40-char truncation is a strict prefix of its source
    assert len(planted) >= 30 - 1  # collisions between planted rows allowed
    assert (planted.prefix_len == 40).all()
    # no doc flags itself: every flagged doc has a STRICTLY longer superstring
    import duckdb
    sf = "/root/testdata/sf0.001"
    n = duckdb.sql(f"""
        WITH u AS (SELECT doc_id, text
                   FROM read_parquet('{sf}/documents.parquet')
                   UNION ALL
                   SELECT doc_id + 4000000, substring(text, 1, 40)
                   FROM read_parquet('{sf}/documents.parquet')
                   WHERE doc_id < 30)
        SELECT count(*) FROM u a
        WHERE EXISTS (SELECT 1 FROM u b
                      WHERE starts_with(b.text, a.text)
                        AND length(b.text) > length(a.text))
        """).fetchone()[0]
    assert len(out) == n


def test_dsir_weight_independent_replay(ray_session):
    """Recompute a handful of document weights from the raw corpus in
    pure Python (unbounded ints, add-1 smoothed ratio law, S=10^4)
    and demand exact equality with the distributed result."""
    import re
    import duckdb
    import alco_ray.pipelines.queries as q

    sf = "/root/testdata/sf0.001"
    out = q.d_dsir(sf).to_pandas().set_index("doc_id")

    rows = duckdb.sql(
        f"SELECT doc_id, lower(text) FROM "
        f"read_parquet('{sf}/documents.parquet')").fetchall()
    tok = lambda s: [t for t in re.split(r"[^a-z0-9]+", s) if t]
    cr, ct = {}, {}
    for i, s in rows:
        for t in tok(s):
            cr[t] = cr.get(t, 0) + 1
            if i % 7 == 0:
                ct[t] = ct.get(t, 0) + 1
    nr, nt, v = sum(cr.values()), sum(ct.values()), len(cr)
    ratio = {t: (10_000 * ((ct.get(t, 0) + 1) * (nr + v)))
             // ((c + 1) * (nt + v)) for t, c in cr.items()}
    for i, s in rows[:25]:
        toks = tok(s)
        assert out.loc[i, "n_tokens"] == len(toks)
        assert out.loc[i, "dsir_w"] == sum(ratio[t] for t in toks)


def test_ks_drift_closed_form(ray_session, tmp_path):
    """Synthetic two-day event stream with a hand-computable KS
    statistic: even day values {100,200,300}, odd day values
    {300,300,400,400} -> D numerator peaks at value 200 with
    |2*4 - 0*3| = 8 (n1=3, n2=4)."""
    import datetime as dt
    import pyarrow as pa
    import pyarrow.parquet as pq
    import alco_ray.pipelines.queries as q

    d0 = dt.datetime(2024, 1, 2)   # even epoch-day? fix below by parity
    # epoch day of 2024-01-02 = 19724 (even); 2024-01-03 = 19725 (odd)
    assert (dt.date(2024, 1, 2) - dt.date(1970, 1, 1)).days % 2 == 0
    even = [1.00, 2.00, 3.00]
    odd = [3.00, 3.00, 4.00, 4.00]
    t = pa.table({
        "event_id": pa.array(range(7), pa.int64()),
        "ts": pa.array([d0] * 3 + [d0 + dt.timedelta(days=1)] * 4,
                       pa.timestamp("us")),
        "user_id": pa.array([1] * 7, pa.int64()),
        "event_type": pa.array(["click"] * 7),
        "value": pa.array(even + odd, pa.float64()),
        "props": pa.array(["{}"] * 7)})
    pq.write_table(t, tmp_path / "events.parquet")
    got = q.e_ks_drift(str(tmp_path)).to_pandas()
    assert len(got) == 1
    r = got.iloc[0]
    # cumulative at 200 cents: F1 = 2/3, F2 = 0/4 -> |2*4 - 0*3| = 8
    assert (r.at_value, r.d_num, r.n1, r.n2) == (200, 8, 3, 4)
    assert r.ks_ppm == 8 * 1_000_000 // 12


def test_dup_triangles_brute_force(ray_session):
    """Brute-force the triangle count from the persisted pair sidecar
    and demand per-node equality with the distributed wedge-join."""
    import pyarrow.parquet as pq
    import alco_ray.pipelines.queries as q

    sf = "/root/testdata/sf0.001"
    out = q.d_dup_triangles(sf).to_pandas().set_index("doc_id")
    pairs = pq.read_table(
        "/tmp/alco_ray_cache/sf0.001/tri_pairs.parquet").to_pydict()
    edges = set(zip(pairs["doc_a"], pairs["doc_b"]))
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    ref = {}
    for a, nbs in adj.items():
        for b in nbs:
            for c in adj.get(b, ()):  # a < b < c path
                if c in nbs:
                    for n in (a, b, c):
                        ref[n] = ref.get(n, 0) + 1
    assert len(ref) > 0
    assert dict(out["n_tri"]) == ref
    # planted 3-cliques: every doc < 60 triangles with its two rekeys
    for d in range(5):
        assert out.loc[d, "n_tri"] >= 1
        assert out.loc[d + 1_000_000, "n_tri"] >= 1
        assert out.loc[d + 2_000_000, "n_tri"] >= 1


def test_pca_fixed_point_aligns_with_float_eigenvector(ray_session):
    """The integer power-iteration projection must align (|cos| >
    0.999) with the float top eigenvector of the same quantized Gram
    matrix — exactness is oracle-pinned; this pins that the
    fixed-point recurrence still computes PCA, not just a
    deterministic number."""
    import pyarrow.parquet as pq
    import alco_ray.pipelines.queries as q

    sf = "/root/testdata/sf0.001"
    out = q.v_pca(sf).to_pandas().set_index("vec_id").sort_index()

    t = pq.read_table(f"{sf}/embeddings.parquet")
    flat = np.asarray(t["embedding"].combine_chunks().values,
                      dtype=np.float64)
    E = flat.reshape(t.num_rows, -1) * 1024.0
    Eq = np.copysign(np.floor(np.abs(E) + 0.5), E)  # similarity._quant law
    ids = t["vec_id"].to_numpy()
    G = Eq.T @ Eq
    w, V = np.linalg.eigh(G)
    u = V[:, -1]
    ref = Eq @ u
    got = out.loc[np.sort(ids), "proj"].to_numpy().astype(np.float64)
    ref = ref[np.argsort(ids)]
    cos = abs(ref @ got) / (np.linalg.norm(ref) * np.linalg.norm(got))
    # lambda2/lambda1 = 0.93 on this corpus: 64 iterations reach
    # 0.9996; 0.99 leaves margin for the fixed-point quantization
    assert cos > 0.99


def test_pca_zero_input_raises(ray_session):
    from alco_ray.stages.similarity import pca_power_fixed_point

    t = pa.table({"vec_id": pa.array([1, 2], pa.int64()),
                  "embedding": pa.array([[0.0] * 4, [0.0] * 4],
                                        pa.list_(pa.float32()))})
    with pytest.raises((ValueError, Exception)) as ei:
        pca_power_fixed_point(ray.data.from_arrow(t)).to_pandas()
    assert "zero Gram" in str(ei.value)


def test_winnow_matches_brute_force(ray_session):
    """winnow_stats vs an independent per-doc Python reference on
    adversarial docs (short docs, all-equal hashes forcing the
    rightmost-tie rule, sub-window gram counts)."""
    import re

    from alco_ray.stages.text import WINNOW_B, WINNOW_M, winnow_stats

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(20)] + ["a", "b"]
    docs = [" ".join(rng.choice(words, size=int(n)))
            for n in rng.integers(0, 25, 120)]
    docs += ["a a a a a a a a a a", "a b", "", "x y z w"]
    vocab = np.array(sorted({t for d in docs
                             for t in re.split(r"[^a-z0-9]+", d.lower())
                             if t}))
    b = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    out = winnow_stats(b, vocab).to_pandas() \
        .set_index("doc_id")

    def brute(d, k=4, w=5):
        toks = [t for t in re.split(r"[^a-z0-9]+", d.lower()) if t]
        v = [int(np.searchsorted(vocab, t)) + 1 for t in toks]
        G = len(v) - k + 1
        if G <= 0:
            return None
        hs = []
        for p in range(G):
            h = v[p]
            for j in range(1, k):
                h = (h * WINNOW_B + v[p + j]) % WINNOW_M
            hs.append(h)
        sel = set()
        wins = ([(s, s + w) for s in range(G - w + 1)]
                if G >= w else [(0, G)])
        for a, bnd in wins:
            mh = min(hs[a:bnd])
            sel.add(max(p for p in range(a, bnd) if hs[p] == mh))
        return G, len(sel), sum(hs[p] for p in sel)

    for i, d in enumerate(docs):
        want = brute(d)
        got = (tuple(int(x) for x in out.loc[i])
               if i in out.index else None)
        assert want == got, (i, want, got)


def test_winnow_density_guarantee(ray_session):
    """The winnowing guarantee: every w-window contributes a
    fingerprint and one gram can serve at most w consecutive windows,
    so selections per doc lie in [ceil(n_windows / w), n_grams]."""
    import alco_ray.pipelines.queries as q

    out = q.d_winnow("/root/testdata/sf0.001").to_pandas()
    assert len(out) == 500
    g, s = out["n_grams"].to_numpy(), out["n_select"].to_numpy()
    n_win = np.maximum(g - 4, 1)
    assert (s >= -(-n_win // 5)).all() and (s <= g).all()
    assert (out["fp_sum"] >= 0).all()


def test_mmr_greedy_reference(ray_session):
    """mmr_rerank vs an independent greedy over the full quantized
    table: identical picks, and pick #1 is the max-relevance row."""
    import pyarrow.parquet as pq
    import alco_ray.pipelines.queries as q

    sf = "/root/testdata/sf0.001"
    got = q.v_mmr(sf).to_pandas()

    t = pq.read_table(f"{sf}/embeddings.parquet").sort_by("vec_id")
    flat = np.asarray(t["embedding"].combine_chunks().values,
                      dtype=np.float64)
    E = flat.reshape(t.num_rows, -1) * 1024.0
    X = np.copysign(np.floor(np.abs(E) + 0.5), E).astype(np.int64)
    ids = t["vec_id"].to_numpy()
    qv = X[ids == 0][0]
    rel = X @ qv
    o = np.lexsort((ids, -rel))[:25]
    pids, prel, P = ids[o], rel[o], X[o]
    S = P @ P.T
    picked, maxsim = [], np.zeros(25, np.int64)
    rem = np.ones(25, bool)
    for _ in range(10):
        score = 7 * prel - 3 * maxsim
        cand = np.flatnonzero(rem)
        best = cand[np.lexsort((pids[cand], -score[cand]))[0]]
        picked.append((int(pids[best]), int(score[best])))
        rem[best] = False
        np.maximum(maxsim, S[:, best], out=maxsim)
    assert list(zip(got["vec_id"], got["score"])) == picked
    assert got["vec_id"].iloc[0] == int(pids[np.lexsort((pids, -prel))[0]])
    assert got["mmr_rank"].tolist() == list(range(1, 11))


def test_sq8_code_bounds_and_reconstruction(ray_session):
    """SQ8 codes stay in [0, 255] and the per-dim extreme vectors get
    the extreme codes (the row holding the global max of a dim must
    contain a 255 code unless that dim is constant)."""
    import alco_ray.pipelines.queries as q

    out = q.v_sq8("/root/testdata/sf0.001").to_pandas()
    assert len(out) == 500
    assert (out["code_min"] >= 0).all()
    assert (out["code_max"] <= 255).all()
    assert out["code_max"].max() == 255 and out["code_min"].min() == 0
    assert (out["code_sum"] <= 255 * 64).all()


def test_cusum_brute_force(ray_session):
    """e_cusum vs a per-user Python reference over the sf0.001 events
    (max |n*prefix - i*total|, earliest index on ties)."""
    import pyarrow.parquet as pq
    import alco_ray.pipelines.queries as q

    sf = "/root/testdata/sf0.001"
    got = q.e_cusum(sf).to_pandas().set_index("user_id").sort_index()

    t = pq.read_table(f"{sf}/events.parquet",
                      columns=["event_id", "user_id", "ts", "value"]) \
        .to_pandas().sort_values(["user_id", "ts", "event_id"])
    for uid, g in t.groupby("user_id"):
        v = g["value"].to_numpy() * 100.0
        cents = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(int)
        n, tot = len(cents), int(cents.sum())
        best = (-1, -1)
        pref = 0
        for i, c in enumerate(cents, 1):
            pref += int(c)
            dev = abs(n * pref - i * tot)
            if dev > best[0]:
                best = (dev, i)
        row = got.loc[uid]
        assert (int(row["n_events"]), int(row["max_dev"]),
                int(row["cp_idx"])) == (n, best[0], best[1])
