"""Training-data operator suite: dedup, similarity, text, multimodal,
window — each checked against a small brute-force Python oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from alco_ray.stages import dedup, multimodal, similarity, text, window
from alco_ray.stages.parse import TOKENIZE_SPLIT


def _docs_table():
    """Small corpus with planted exact dups, near-dups and distinct docs."""
    base = ("the quick brown fox jumps over the lazy dog and then runs "
            "far away into the deep green forest to hide from hunters")
    near = base.replace("green", "dark")          # 1-token edit: high Jaccard
    texts = [
        base, base, near,                          # 0,1 exact dup; 2 near-dup
        "completely different text about ray data pipelines and arrow "
        "columnar batches streaming through the object store tonight",
        "short one",
        "la rapide renarde brune saute par dessus le chien paresseux "
        "dans la foret verte et profonde ce soir",
        "",                                        # empty doc
    ]
    return pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


def _py_tokens(s: str) -> list[str]:
    import re

    return [t for t in re.split(TOKENIZE_SPLIT, (s or "").lower()) if t]


def _py_shingles(s: str, k: int = 3) -> set[tuple[str, ...]]:
    t = _py_tokens(s)
    return {tuple(t[i:i + k]) for i in range(len(t) - k + 1)}


# ------------------------------------------------------------------ dedup

def test_dedup_exact():
    ds = ray.data.from_arrow(_docs_table())
    out = dedup.dedup_exact(ds, ["text"], "doc_id").to_pandas()
    by_text = dict(zip(out["text"], zip(out["doc_id"], out["n_dups"])))
    assert by_text[_docs_table()["text"][0].as_py()] == (0, 2)
    assert len(out) == 6  # 7 docs, one exact dup pair


def test_jaccard_pairs_matches_bruteforce():
    t = _docs_table()
    ds = ray.data.from_arrow(t)
    got = dedup.jaccard_pairs(ds, threshold=0.5).to_pandas()
    got_pairs = {(a, b): (i, u) for a, b, i, u in
                 zip(got["doc_a"], got["doc_b"], got["inter"], got["uni"])}

    texts = t["text"].to_pylist()
    expect = {}
    for a, b in itertools.combinations(range(len(texts)), 2):
        sa, sb = _py_shingles(texts[a]), _py_shingles(texts[b])
        if not sa or not sb:
            continue
        inter, uni = len(sa & sb), len(sa | sb)
        if inter * 1000 >= uni * 500:
            expect[(a, b)] = (inter, uni)
    assert got_pairs == expect
    assert (0, 1) in got_pairs and (0, 2) in got_pairs


@pytest.mark.parametrize("min_shingles", [5, 1])
def test_containment_pairs_matches_bruteforce(min_shingles):
    # _docs_table plus two quotes of doc 0: 6 shingles (contained in 0,
    # 1 and 2, but not the reverse) and 4 shingles (below the default
    # min_shingles guard).
    base = _docs_table()
    quotes = ["the quick brown fox jumps over the lazy",
              "jumps over the lazy dog and"]
    t = pa.concat_tables([base, pa.table({
        "doc_id": pa.array(range(base.num_rows,
                                 base.num_rows + len(quotes)), pa.int64()),
        "text": pa.array(quotes, pa.string())})])
    got = dedup.containment_pairs(ray.data.from_arrow(t), threshold=0.8,
                                  min_shingles=min_shingles).to_pandas()
    got_rows = {(a, b): (i, n) for a, b, i, n in
                zip(got["contained"], got["container"], got["inter"],
                    got["n_contained"])}
    assert len(got_rows) == len(got)

    texts = t["text"].to_pylist()
    expect = {}
    for a, b in itertools.permutations(range(len(texts)), 2):
        sa, sb = _py_shingles(texts[a]), _py_shingles(texts[b])
        inter = len(sa & sb)
        if inter and len(sa) >= min_shingles and \
                inter * 1000 >= len(sa) * 800:
            expect[(a, b)] = (inter, len(sa))
    assert got_rows == expect
    assert (0, 2) in got_rows and (2, 0) in got_rows     # both directions
    assert (7, 0) in got_rows and (0, 7) not in got_rows  # one direction
    assert ((8, 0) in got_rows) == (min_shingles <= 4)    # the guard


def test_minhash_lsh_finds_planted_pairs():
    ds = ray.data.from_arrow(_docs_table())
    got = dedup.lsh_candidate_pairs(ds).to_pandas()
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    # exact dup must collide in every band; near-dup with very high
    # probability (1-(1-s^4)^16, s ~ 0.87)
    assert (0, 1) in pairs and (0, 2) in pairs
    # distinct docs must not collide
    assert (3, 4) not in pairs and (0, 3) not in pairs


def test_minhash_signature_properties():
    t = _docs_table()
    sig = dedup.minhash_batch(t)
    sigs = np.asarray(sig["sig"].combine_chunks().values).reshape(
        t.num_rows, dedup.N_HASHES)
    assert (sigs[0] == sigs[1]).all()                    # exact dup
    frac = (sigs[0] == sigs[2]).mean()                   # near-dup
    assert frac > 0.6
    assert (sigs[0] == sigs[3]).mean() < 0.2             # distinct
    # <k tokens -> all-max sentinel
    assert (sigs[6] == (1 << 61) - 1).all()


def test_simhash_hamming():
    t = _docs_table()
    out = dedup.simhash_batch(t)
    h = np.asarray(out["simhash"]).view(np.uint64)

    def ham(a, b):
        return bin(int(a) ^ int(b)).count("1")

    assert ham(h[0], h[1]) == 0
    assert ham(h[0], h[2]) <= 8
    assert ham(h[0], h[3]) > 16


# ------------------------------------------------------------------- text

def test_token_stats_and_quality():
    t = _docs_table()
    stats = text.token_stats(t)
    qual = text.quality_score(t)
    texts = t["text"].to_pylist()
    for i, s in enumerate(texts):
        toks = _py_tokens(s)
        assert stats["n_tokens"][i].as_py() == len(toks)
        assert stats["n_uniq_tokens"][i].as_py() == len(set(toks))
        assert qual["n_chars"][i].as_py() == len(s)
        assert qual["n_stopwords"][i].as_py() == sum(
            tk in text.STOPWORDS for tk in toks)
        n_alpha = sum(c.isascii() and c.isalpha() for c in s)
        assert qual["n_alpha"][i].as_py() == n_alpha
        assert qual["alpha_ratio_millis"][i].as_py() == \
            1000 * n_alpha // max(len(s), 1)


def test_fingerprint_order_sensitive_and_deterministic():
    t1 = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                   "text": pa.array(["alpha beta gamma", "gamma beta alpha",
                                     "alpha beta gamma"])})
    fp = text.fingerprint(t1)["fingerprint"].to_pylist()
    assert fp[0] == fp[2]          # same text -> same fingerprint
    assert fp[0] != fp[1]          # order matters
    fp2 = text.fingerprint(t1)["fingerprint"].to_pylist()
    assert fp == fp2               # run-to-run deterministic


def test_lang_id():
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "this is clearly an english text about the quick brown fox",
            "der faule hund springt nicht über den braunen fuchs",
            "это русский текст про быструю коричневую лису",
        ]),
    })
    out = text.LangId()(t)
    assert out["pred_lang"].to_pylist() == ["en", "de", "ru"]


# -------------------------------------------------------------- similarity

def _vec_table(n=200, d=16, seed=7):
    rng = np.random.RandomState(seed)
    m = rng.standard_normal((n, d)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(m.reshape(-1), pa.float32()), d),
    }), m


def test_knn_brute_matches_numpy():
    t, m = _vec_table()
    q = m[0].astype(np.float64)
    ds = ray.data.from_arrow(t)
    got = similarity.knn_brute(ds, q, k=10).to_pandas()

    mm = m.astype(np.float64)
    sims = (mm @ (q / np.linalg.norm(q))) / np.linalg.norm(mm, axis=1)
    order = np.lexsort((np.arange(len(mm)), -sims))[:10]
    assert got["vec_id"].tolist() == order.tolist()
    assert got["rank"].tolist() == list(range(1, 11))
    np.testing.assert_allclose(got["sim"].to_numpy(), sims[order], rtol=1e-12)


# -------------------------------------------------------------- multimodal

def test_multimodal_plumbing():
    t = _docs_table()
    media = multimodal.encode_documents_as_media(t)
    assert media.schema.equals(multimodal.MULTIMODAL_SCHEMA)
    ds = ray.data.from_arrow(media)
    meta = multimodal.decode_media(ds).to_pandas().sort_values("doc_id")
    texts = t["text"].to_pylist()
    for i, s in enumerate(texts):
        nb = len(s.encode())
        row = meta[meta["doc_id"] == i].iloc[0]
        assert row["n_bytes"] == nb
        assert row["width"] == nb % 640 + 1
        assert row["height"] == nb * 7 % 480 + 1

    feats = multimodal.decode_media(
        ds, multimodal.FakeFeatureExtractor).to_pandas()
    f = np.stack(feats.sort_values("doc_id")["feature"].to_numpy())
    assert f.shape == (t.num_rows, multimodal.FakeFeatureExtractor.DIM)
    norms = np.linalg.norm(f, axis=1)
    np.testing.assert_allclose(norms[:-1], 1.0, rtol=1e-5)  # unit vectors
    assert norms[-1] == 0.0                                 # empty payload


# ------------------------------------------------------------------ window

def test_context_window():
    t = pa.table({
        "conv_id": pa.array(["a"] * 5 + ["b"] * 3),
        "turn_idx": pa.array([0, 1, 2, 3, 4, 0, 1, 2], pa.int32()),
        "role": pa.array(["user", "tool", "user", "user", "tool",
                          "user", "user", "user"]),
    })
    ds = ray.data.from_arrow(t)
    out = window.context_window(
        ds, match_col="role", match_value="tool", radius=1).to_pandas()
    got = set(zip(out["conv_id"], out["turn_idx"]))
    # conv a: hits at 1 and 4 -> turns {0,1,2} + {3,4}; conv b: none
    assert got == {("a", 0), ("a", 1), ("a", 2), ("a", 3), ("a", 4)}


def test_rolling_count_and_asof():
    t = pa.table({
        "conv_id": pa.array(["a"] * 6),
        "turn_idx": pa.array([0, 1, 2, 3, 4, 5], pa.int32()),
        "level": pa.array(["INFO", "ERROR", "INFO", "INFO", "ERROR",
                           "INFO"]),
    })
    ds = ray.data.from_arrow(t)
    roll = (window.rolling_count(ds, flag_col="level", flag_value="ERROR",
                                 radius=1)
            .to_pandas().sort_values("turn_idx"))
    # window +-1: [0+1, 0+1+2, 1+2+3, 2+3+4, 3+4+5, 4+5]
    assert roll["w_count"].tolist() == [1, 1, 1, 1, 1, 1]
    roll2 = (window.rolling_count(ds, flag_col="level", flag_value="ERROR",
                                  radius=2)
             .to_pandas().sort_values("turn_idx"))
    assert roll2["w_count"].tolist() == [1, 1, 2, 2, 1, 1]

    asof = (window.asof_prior(ds, flag_col="level", flag_value="ERROR")
            .to_pandas().sort_values("turn_idx"))
    assert asof["last_match_idx"].tolist() == [-1, 1, 1, 1, 4, 4]


def test_sessionize():
    import datetime as dt

    base = dt.datetime(2024, 1, 1)
    rows = [
        ("u1", 0, base),
        ("u1", 1, base + dt.timedelta(minutes=10)),
        ("u1", 2, base + dt.timedelta(minutes=50)),   # 40-min gap -> new
        ("u1", 3, base + dt.timedelta(minutes=55)),
        ("u2", 4, base),
        ("u2", 5, base + dt.timedelta(hours=2)),      # new session
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows]),
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
    })
    out = (window.sessionize(ray.data.from_arrow(t), gap_minutes=30)
           .to_pandas().sort_values("event_id"))
    assert out["session_id"].tolist() == [0, 0, 1, 1, 0, 1]


def test_cosine_dup_pairs_matches_bruteforce():
    t, m = _vec_table(n=80, d=8, seed=3)
    got = similarity.cosine_dup_pairs(
        ray.data.from_arrow(t), threshold=0.5).to_pandas()
    got_pairs = set(zip(got["vec_a"], got["vec_b"]))

    mm = m.astype(np.float64)
    mm = mm / np.linalg.norm(mm, axis=1, keepdims=True)
    sims = mm @ mm.T
    expect = {(a, b) for a in range(80) for b in range(a + 1, 80)
              if sims[a, b] >= 0.5}
    assert got_pairs == expect and expect  # non-trivial at d=8


def test_fingerprint_unaffected_by_trailing_empty_docs():
    t1 = pa.table({"doc_id": pa.array([0], pa.int64()),
                   "text": pa.array(["alpha beta gamma"])})
    t2 = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                   "text": pa.array(["alpha beta gamma", "", "!!!"])})
    a = text.fingerprint(t1)["fingerprint"].to_pylist()
    b = text.fingerprint(t2)["fingerprint"].to_pylist()
    assert a[0] == b[0]            # batch layout must not change values
    assert b[1] == 0 and b[2] == 0


def test_lsh_short_docs_never_pair():
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["short one", "", "tiny doc"]),
    })
    got = dedup.lsh_candidate_pairs(ray.data.from_arrow(t)).to_pandas()
    assert len(got) == 0           # all-max sentinel rows dropped


def test_topk_and_knn_empty_inputs():
    t = pa.table({"a": pa.array([1, 2, 3], pa.int64()),
                  "b": pa.array([1.0, 2.0, 3.0])})
    from alco_ray.stages import order as order_stage

    empty = ray.data.from_arrow(t).filter(lambda r: False)
    out = order_stage.top_k(empty, ["a"], 5).to_pandas()
    assert len(out) == 0

    vt, m = _vec_table(n=50, d=8, seed=1)
    no_vecs = ray.data.from_arrow(vt).filter(lambda r: False)
    res = similarity.knn_brute(no_vecs, np.full(8, 100.0), k=3).to_pandas()
    assert len(res) == 0


def test_dedup_apply_keeps_min_per_cluster():
    t = _docs_table()
    pairs = pa.table({"doc_a": pa.array([0, 0], pa.int64()),
                      "doc_b": pa.array([1, 2], pa.int64())})
    kept = dedup.dedup_apply(ray.data.from_arrow(t),
                             ray.data.from_arrow(pairs)).to_pandas()
    assert sorted(kept["doc_id"]) == [0, 3, 4, 5, 6]  # 1,2 fold into 0

    # transitive chain through a larger intermediate: 5-10 edge? use
    # (3,5),(4,5): component {3,4,5} -> keep 3
    pairs2 = pa.table({"doc_a": pa.array([3, 4], pa.int64()),
                       "doc_b": pa.array([5, 5], pa.int64())})
    kept2 = dedup.dedup_apply(ray.data.from_arrow(t),
                              ray.data.from_arrow(pairs2)).to_pandas()
    assert sorted(kept2["doc_id"]) == [0, 1, 2, 3, 6]


def test_dedup_apply_union_find_random_graph():
    # Vectorized min-label propagation vs a plain Python union-find on
    # a random edge set (chains, cliques, isolated nodes).
    rng = np.random.RandomState(11)
    n_nodes, n_edges = 400, 300
    a = rng.randint(0, n_nodes, n_edges).astype(np.int64)
    b = rng.randint(0, n_nodes, n_edges).astype(np.int64)
    keep_mask = a != b
    a, b = a[keep_mask], b[keep_mask]

    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, v in zip(a.tolist(), b.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            lo, hi = (ru, rv) if ru < rv else (rv, ru)
            parent[hi] = lo
    expect_drop = sorted(x for x in parent if find(x) != x)

    rows = pa.table({"doc_id": pa.array(range(n_nodes), pa.int64())})
    pairs = pa.table({"doc_a": pa.array(a), "doc_b": pa.array(b)})
    kept = dedup.dedup_apply(ray.data.from_arrow(rows),
                             ray.data.from_arrow(pairs)).to_pandas()
    got_drop = sorted(set(range(n_nodes)) - set(kept["doc_id"]))
    assert got_drop == expect_drop


def test_cosine_dup_lsh_planted_recall_and_precision(monkeypatch):
    # 40 planted near-dup pairs (cosine ~0.98) among 400 random vectors:
    # the bucketed path must find nearly all of them (recall via banded
    # LSH) and — because every emitted pair is exact-verified — nothing
    # below the threshold.  Buckets of 2 target rows give 400 rows
    # ceil(log2(200)) = 8 bits per table.
    monkeypatch.setattr(similarity, "_DUP_BUCKET_ROWS", 2)
    rng = np.random.RandomState(3)
    d = 32
    base = rng.standard_normal((40, d))
    noise = base + 0.08 * rng.standard_normal((40, d))
    other = rng.standard_normal((320, d))
    m = np.vstack([base, noise, other])
    t = pa.table({
        "vec_id": pa.array(range(len(m)), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(m.reshape(-1), pa.float64()), d),
    })
    ds = ray.data.from_arrow(t)
    got = similarity.cosine_dup_pairs_lsh(ds, threshold=0.9).to_pandas()
    got_pairs = set(zip(got["vec_a"], got["vec_b"]))

    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mn @ mn.T
    iu = np.triu_indices(len(m), k=1)
    true_pairs = {(int(a), int(b)) for a, b in zip(*[x[sims[iu] >= 0.9]
                  for x in iu])}
    assert true_pairs, "fixture must plant pairs above threshold"
    # precision 1.0: every emitted pair is a true pair
    assert got_pairs <= true_pairs
    # recall: banded LSH at (8 tables x 8 bits) finds ~99% at c~0.95
    assert len(got_pairs) >= 0.9 * len(true_pairs)


def test_cosine_dup_pairs_guard_dispatch(monkeypatch):
    # Above the guard the exact path (driver materialization) must not
    # run; both plans agree on planted pairs.
    t, m = _vec_table(n=60, d=16, seed=9)
    ds = ray.data.from_arrow(t)
    exact = similarity.cosine_dup_pairs(ds, threshold=0.4).to_pandas()
    monkeypatch.setattr(similarity, "_EXACT_MAX_ROWS", 10)
    bucketed = similarity.cosine_dup_pairs(ds, threshold=0.4).to_pandas()
    e = set(zip(exact["vec_a"], exact["vec_b"]))
    b = set(zip(bucketed["vec_a"], bucketed["vec_b"]))
    assert b <= e  # verified: no false positives


def test_verify_pairs_filters_false_positives():
    t = _docs_table()
    ds = ray.data.from_arrow(t)
    # Candidates: one true near-dup pair, one unrelated pair (an LSH
    # false positive), one exact-dup pair.
    cands = pa.table({"doc_a": pa.array([0, 0, 0], pa.int64()),
                      "doc_b": pa.array([1, 2, 3], pa.int64())})
    got = dedup.verify_pairs(ds, cands, threshold=0.5).to_pandas()
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    assert (0, 1) in pairs and (0, 2) in pairs   # real dups survive
    assert (0, 3) not in pairs                   # false positive killed
    # inter/uni match the brute-force shingle sets
    texts = t["text"].to_pylist()
    for _, r in got.iterrows():
        sa = _py_shingles(texts[int(r.doc_a)])
        sb = _py_shingles(texts[int(r.doc_b)])
        assert r.inter == len(sa & sb) and r.uni == len(sa | sb)
    # verify never invents pairs outside the candidate set: docs 0 and
    # 1 are both involved, but only listed pairs can come back
    assert pairs <= {(0, 1), (0, 2), (0, 3)}


def test_verify_pairs_waves_match_single_pass(monkeypatch):
    # Above MAX_CANDIDATES verify_pairs must shard into bounded waves
    # of zero-copy slices (not raise) and the waved union must equal
    # the single-pass answer pair-for-pair.
    words = ("alpha beta gamma delta epsilon zeta eta theta iota "
             "kappa lamda mu").split()
    texts = []
    for i in range(30):
        w = list(words)
        w[i % len(w)] = f"tok{i}"          # 1-token edits: mixed Jaccard
        if i % 3 == 0:
            w[(i + 5) % len(w)] = f"alt{i}"
        texts.append(" ".join(w))
    corpus = pa.table({"doc_id": pa.array(range(30), pa.int64()),
                       "text": pa.array(texts, pa.string())})
    ds = ray.data.from_arrow(corpus)
    pairs = [(a, b) for a in range(30) for b in range(a + 1, 30)]
    cands = pa.table({"doc_a": pa.array([p[0] for p in pairs], pa.int64()),
                      "doc_b": pa.array([p[1] for p in pairs], pa.int64())})

    def norm(df):
        return sorted(map(tuple, df[["doc_a", "doc_b", "inter",
                                     "uni"]].itertuples(index=False)))

    want = norm(dedup.verify_pairs(ds, cands, threshold=0.3).to_pandas())
    assert want, "fixture must keep at least one pair"
    monkeypatch.setattr(dedup, "MAX_CANDIDATES", 50)
    got = norm(dedup.verify_pairs(ds, cands, threshold=0.3).to_pandas())
    assert got == want


def test_simhash_near_pairs_exhaustive_vs_bruteforce():
    # Pigeonhole banding must find EXACTLY the pairs with hamming <=
    # max_hamming (recall and precision 1.0) — compare against the
    # all-pairs answer on a corpus with planted near-identical docs.
    t = _docs_table()
    got = dedup.simhash_near_pairs(
        ray.data.from_arrow(t), max_hamming=7).to_pandas()
    sig = dedup.simhash_batch(t)
    h = np.asarray(sig["simhash"]).view(np.uint64)
    expect = {}
    for a in range(len(h)):
        for b in range(a + 1, len(h)):
            d = bin(int(h[a]) ^ int(h[b])).count("1")
            if d <= 7:
                expect[(a, b)] = d
    assert {(a, b): d for a, b, d in
            zip(got["doc_a"], got["doc_b"], got["hamming"])} == expect
    assert expect, "fixture must contain at least one near pair"


def test_simhash_near_pairs_rejects_lossy_banding():
    # max_hamming >= N_CHUNKS loses recall: it raises (an assert would
    # vanish under python -O)
    ds = ray.data.from_arrow(_docs_table())
    with pytest.raises(ValueError, match="N_CHUNKS"):
        dedup.simhash_near_pairs(ds, max_hamming=dedup.N_CHUNKS)


def test_fingerprint_dups_and_empty_corpus():
    t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": pa.array(["a b c", "b c a", "a b c", "x y z"])})
    got = text.fingerprint_dups(ray.data.from_arrow(t)).to_pandas()
    assert sorted(zip(got["doc_id"], got["rep_doc_id"])) == [(0, 0), (2, 0)]
    # corpus without any dup: 0 rows, not a crashed hash join
    t2 = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                   "text": pa.array(["a b c", "x y z"])})
    got2 = text.fingerprint_dups(ray.data.from_arrow(t2)).to_pandas()
    assert len(got2) == 0


def test_dedup_exact_rows_keeps_full_first_row():
    t = pa.table({
        "doc_id": pa.array([5, 1, 3, 2], pa.int64()),
        "text": pa.array(["same", "same", "other", "same"]),
        "extra": pa.array([50, 10, 30, 20], pa.int64()),
    })
    got = dedup.dedup_exact_rows(
        ray.data.from_arrow(t), ["text"], "doc_id").to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    # min-doc_id row per text, all columns preserved
    assert got.to_dict("records") == [
        {"doc_id": 1, "text": "same", "extra": 10},
        {"doc_id": 3, "text": "other", "extra": 30},
    ]


def test_persisted_ann_indexes_build_once_probe_pruned(tmp_path):
    t, m = _vec_table(n=300, d=16, seed=21)
    ds = ray.data.from_arrow(t)

    # LSH: build once, probe twice; the probe must touch only a strict
    # subset of the bucket partitions (partition pruning), and the
    # query vector itself must come back rank 1.
    lsh_dir = tmp_path / "lsh"
    similarity.build_lsh_index(ds, lsh_dir)
    all_buckets = {p.name for p in lsh_dir.glob("bucket=*")}
    assert len(all_buckets) > 8
    import json
    meta = json.loads((lsh_dir / "meta.json").read_text())
    q = m[7].astype(np.float64)
    planes = similarity._planes(len(q), meta["seed"])
    base = int(((q @ planes) >= 0) @ (1 << np.arange(meta["n_planes"])))
    probe = similarity._probe_bucket_set(base, 2, meta["n_planes"])
    probed_present = {f"bucket={b}" for b in probe} & all_buckets
    assert 0 < len(probed_present) < len(all_buckets)  # pruned read
    for _ in range(2):  # build once, probe many
        got = similarity.knn_lsh_probe(lsh_dir, q, k=5).to_pandas()
        assert got["vec_id"].tolist()[0] == 7
        assert got["sim"].tolist()[0] == pytest.approx(1.0)

    # IVF: same contract over inverted lists.
    ivf_dir = tmp_path / "ivf"
    similarity.build_ivf_index(ds, ivf_dir, n_centroids=8)
    lists = {p.name for p in ivf_dir.glob("list=*")}
    assert len(lists) > 4
    got = similarity.knn_ivf_probe(ivf_dir, q, k=5, n_probe=3).to_pandas()
    assert got["vec_id"].tolist()[0] == 7  # self-query recall
    assert len(got) == 5


def test_multimodal_resize_and_frame_sample(monkeypatch):
    t = _docs_table()
    media = multimodal.encode_documents_as_media(t)

    # smaller frames than the default, so each payload spans many
    monkeypatch.setattr(multimodal, "FRAME_BYTES", 16)
    monkeypatch.setattr(multimodal, "FRAME_EVERY", 2)
    frames = multimodal.sample_frames_batch(media)
    # brute-force expectation: every 2nd 16-byte frame per payload
    expect = []
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        p = text.encode()
        n = -(-len(p) // 16)
        for i in range(0, n, 2):
            expect.append((did, i, p[i * 16:(i + 1) * 16]))
    got = list(zip(frames["doc_id"].to_pylist(),
                   frames["frame_idx"].to_pylist(),
                   frames["payload"].to_pylist()))
    assert got == expect
    assert expect  # fixture yields frames


def test_quantile_disc_matches_numpy():
    from alco_ray.stages import aggregate as agg

    rng = np.random.RandomState(5)
    vals = np.round(rng.uniform(0, 100, size=500), 2)
    keys = rng.choice(["a", "b", "c"], size=500)
    t = pa.table({"k": pa.array(keys), "value": pa.array(vals)})
    for q in (0.25, 0.5, 0.9):
        got = agg.quantile_disc(ray.data.from_arrow(t).repartition(5),
                                "value", q, by="k")
        m = dict(zip(got["k"].to_pylist(), got["q_value"].to_pylist()))
        for k in "abc":
            cents = np.sort(np.round(vals[keys == k] * 100)
                            .astype(np.int64))
            idx = max(1, int(np.ceil(q * len(cents)))) - 1
            assert m[k] == cents[idx], (k, q)


def test_tf_df_matches_bruteforce():
    t = _docs_table()
    got = text.tf_df(ray.data.from_arrow(t).repartition(3)).to_pandas()
    got_map = {(d, tk): (tf, df) for d, tk, tf, df in
               zip(got["doc_id"], got["token"], got["tf"], got["df"])}
    from collections import Counter

    texts = t["text"].to_pylist()
    tfs = {i: Counter(_py_tokens(s)) for i, s in enumerate(texts)}
    dfs = Counter(tk for c in tfs.values() for tk in c)
    expect = {(i, tk): (n, dfs[tk]) for i, c in tfs.items()
              for tk, n in c.items()}
    assert got_map == expect


def test_key_partitions_grow_with_input():
    """suggest_key_partitions must be data-proportional (a fixed
    CPU-derived count means partition frames grow linearly with the
    corpus) with the CPU floor at small scale."""
    from alco_ray.stages.window import (default_hash_parts,
                                        suggest_key_partitions)

    floor = default_hash_parts()
    small = suggest_key_partitions(10_000)
    big = suggest_key_partitions(1_000_000_000)
    assert small == floor
    assert big > small
    # bounded frame size: rows/parts stays near the target
    assert 1_000_000_000 / big <= 250_000
    for n in (small, big):
        assert n & (n - 1) == 0  # power of two (mask partitioning)
    assert suggest_key_partitions(10**12) == 1 << 16  # capped


def test_dedup_apply_max_edges_checked_before_concat(monkeypatch):
    """An over-limit pair Dataset must raise BEFORE the driver-side
    concat materializes the edge list."""
    import pytest
    import ray.data

    from alco_ray.stages import dedup

    docs = ray.data.from_arrow(pa.table({"doc_id": list(range(10))}))
    edges = pa.table({"doc_a": [0, 1, 2, 3], "doc_b": [4, 5, 6, 7]})
    pairs = ray.data.from_arrow(edges)
    want = sorted(dedup.dedup_apply(docs, pairs).to_pandas()["doc_id"])
    monkeypatch.setattr(dedup, "MAX_EDGES", 3)
    with pytest.raises(ValueError, match="exceed the"):
        dedup.dedup_apply(docs, pairs)
    # at the limit: the same answer as under the default limit
    monkeypatch.setattr(dedup, "MAX_EDGES", 4)
    got = sorted(dedup.dedup_apply(docs, pairs).to_pandas()["doc_id"])
    assert got == want == [0, 1, 2, 3, 8, 9]


def test_codepoints_arrow_matches_python():
    """The Arrow-buffer UTF-8 decode must match the utf-32 reference
    (incl. multibyte, 4-byte emoji, empty strings, slice offsets)."""
    from alco_ray.stages.text import _codepoints, _codepoints_arrow

    texts = ["hello", "", "héllo wörld", "быстрая лиса", "敏捷的狐狸",
             "mixed ascii и кириллица 中文 \U0001F600\U0001F680", "a"]
    want_cp, want_offs = _codepoints(texts)
    arr = pa.array(texts, pa.string())
    got_cp, got_offs = _codepoints_arrow(arr)
    assert np.array_equal(got_cp, want_cp)
    assert np.array_equal(got_offs, want_offs)
    # sliced array (non-zero arr.offset) and large_string
    sl = arr.slice(2, 4)
    want_cp2, want_offs2 = _codepoints(texts[2:6])
    got_cp2, got_offs2 = _codepoints_arrow(sl)
    assert np.array_equal(got_cp2, want_cp2)
    assert np.array_equal(got_offs2, want_offs2)
    big = pa.array(texts, pa.large_string())
    got_cp3, got_offs3 = _codepoints_arrow(big)
    assert np.array_equal(got_cp3, want_cp)
    assert np.array_equal(got_offs3, want_offs)
    # all-empty input
    e_cp, e_offs = _codepoints_arrow(pa.array(["", ""], pa.string()))
    assert len(e_cp) == 0 and np.array_equal(e_offs, [0, 0, 0])


def test_semi_anti_join_unbounded_right():
    """Keyed semi/anti joins: no row multiplication on duplicate right
    keys, left columns only, empty right side = empty/identity."""
    import ray.data

    from alco_ray.stages.join import anti_join, semi_join

    left = ray.data.from_arrow(pa.table(
        {"k": [1, 2, 3, 4, 5, 2], "v": ["a", "b", "c", "d", "e", "f"]}))
    right = ray.data.from_arrow(pa.table(
        {"k": [2, 2, 4, 9], "payload": ["x", "y", "z", "w"]}))
    semi = semi_join(left, right, "k").to_pandas()
    assert sorted(semi.columns) == ["k", "v"]
    assert sorted(map(tuple, semi.values)) == [(2, "b"), (2, "f"), (4, "d")]
    anti = anti_join(left, right, "k").to_pandas()
    assert sorted(map(tuple, anti.values)) == [(1, "a"), (3, "c"), (5, "e")]
    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert semi_join(left, empty, "k").count() == 0
    assert anti_join(left, empty, "k").count() == 6


def test_text_index_probe_reads_strict_subset(tmp_path):
    """grep_probe must read exactly one posting bucket dir and only the
    matched rows' docstore day partitions — never the whole index —
    and return the same rows as a brute-force filter."""
    import numpy as np
    from pathlib import Path

    import ray.data

    from alco_ray.stages.textindex import build_text_index, grep_probe

    n = 400
    rng = np.random.RandomState(7)
    ts = (np.datetime64("2024-01-01T00:00:00", "us")
          + rng.randint(0, 20, n).astype("timedelta64[D]").astype(
              "timedelta64[us]")
          + rng.randint(0, 86_400_000_000, n).astype("timedelta64[us]"))
    words = np.array(["alpha", "bravo", "needle", "charlie", "delta"])
    text = np.array([" ".join(rng.choice(words, 4)) for _ in range(n)])
    level = rng.choice(np.array(["INFO", "ERROR"]), n)
    parsed = pa.table({
        "conv_id": pa.array([f"c{i % 37}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
        "parsed_ts": pa.array(ts),
        "level": pa.array(level, pa.string()),
        "text": pa.array(text, pa.string()),
    })
    idx = tmp_path / "tidx"
    build_text_index(ray.data.from_arrow(parsed), idx, n_buckets=64)

    stats = {}
    got = grep_probe(idx, "needle", level="ERROR", k=1000,
                     stats_out=stats).to_pandas()
    all_posting = sorted(str(p) for p in idx.glob("postings/*/*.parquet"))
    all_docs = sorted(str(p) for p in idx.glob("docs/*/*.parquet"))
    assert stats["posting_files"] and all_posting
    assert set(stats["posting_files"]) < set(all_posting)  # strict subset
    assert len({str(Path(f).parent) for f in stats["posting_files"]}) == 1
    assert set(stats["doc_files"]) <= set(all_docs)

    mask = (np.char.find(text.astype(str), "needle") >= 0) \
        & (level == "ERROR")
    want = parsed.to_pandas()[mask][
        ["conv_id", "turn_idx", "parsed_ts", "text"]]
    key = lambda df: sorted(map(tuple, df.values))
    assert key(got) == key(want)
    # docstore pruning is real: matched days < all days when possible
    days = {str(Path(f).parent.name) for f in stats["doc_files"]}
    assert days == {f"date={d}" for d in
                    want["parsed_ts"].dt.strftime("%Y-%m-%d").unique()}
    # absent term: empty result with the right schema, no doc reads
    s2 = {}
    miss = grep_probe(idx, "zzzmissing", k=10, stats_out=s2).to_pandas()
    assert len(miss) == 0 and s2["doc_files"] == []


def test_ordered_prefix_sum_scan():
    """Distributed scan: exclusive prefix over block-ordered input
    equals the serial cumsum; non-block-ordered input raises."""
    import ray.data

    from alco_ray.stages.scan import ordered_prefix_sum

    n = 500
    ids = np.arange(n, dtype=np.int64)
    vals = (ids * 7) % 13 + 1
    t = pa.table({"k": ids, "v": vals})
    # 8 ordered blocks with unsorted rows INSIDE each block
    rng = np.random.RandomState(3)
    blocks = []
    for i in range(0, n, 64):
        sl = np.arange(i, min(i + 64, n))
        rng.shuffle(sl)
        blocks.append(t.take(sl))
    ds = ray.data.from_arrow(blocks)
    out = ordered_prefix_sum(ds, "v", "k", out_col="p").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    want = np.concatenate([[0], np.cumsum(vals)[:-1]])
    assert np.array_equal(out["p"].to_numpy(), want)
    # inclusive variant
    out2 = ordered_prefix_sum(ds, "v", "k", out_col="p",
                              exclusive=False).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert np.array_equal(out2["p"].to_numpy(), np.cumsum(vals))
    # overlapping block ranges must raise, not silently mis-assign
    import pytest

    bad = ray.data.from_arrow([t.take(np.arange(0, 300)),
                               t.take(np.arange(200, 500))])
    with pytest.raises(ValueError, match="not block-ordered"):
        ordered_prefix_sum(bad, "v", "k")


def test_semi_anti_join_empty_left(tmp_path):
    """A left side with no rows returns empty, not a crash in ray's
    join (it raises when either side has no rows), however the rows
    went: a map that drops them all, or a Parquet read whose filter
    matches nothing."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from alco_ray.stages.join import anti_join, semi_join

    table = pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]})
    pq.write_table(table, tmp_path / "t.parquet")
    left = ray.data.from_arrow(table)
    right = ray.data.from_arrow(pa.table({"k": [2, 9]}))
    empties = [
        left.map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow"),
        ray.data.read_parquet(str(tmp_path / "t.parquet"),
                              filter=pads.field("k") > 10),
    ]
    for empty_left in empties:
        assert semi_join(empty_left, right, "k").count() == 0
        assert anti_join(empty_left, right, "k").count() == 0
    # the guard does not fire on a left side that has rows
    assert semi_join(left, right, "k").to_pandas()["k"].tolist() == [2]
    assert sorted(anti_join(left, right, "k").to_pandas()["k"]) == [1, 3]


def test_decontaminate_bloom_without_overlap():
    """An eval set that shares no shingle with the corpus: the bloom
    probe drops every corpus row, and the answer is a typed empty
    frame, not a crash in the semi join."""
    import ray.data

    from alco_ray.stages.dedup import decontaminate_bloom

    cand = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": ["alpha beta gamma delta", "one two three four"]}))
    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([9], pa.int64()),
        "text": ["zulu yankee xray whiskey"]}))
    out = decontaminate_bloom(cand, bench)
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "n_hit_grams"]


# ------------------------------------------------------- round-3b ops

def test_hll_distinct_accuracy_and_independence():
    """HLL estimate within the p=12 error envelope, identical across
    partitionings (max-merge is order/partition independent), and
    register merge = elementwise max."""
    import ray.data

    from alco_ray.stages.sketch import hll_distinct, hll_partial

    rng = np.random.RandomState(7)
    a_vals = rng.randint(0, 5000, size=20000)      # ~4900 distinct
    b_vals = rng.randint(0, 300, size=8000)        # ~300 distinct
    t = pa.table({
        "g": pa.array(["a"] * len(a_vals) + ["b"] * len(b_vals)),
        "v": pa.array(np.concatenate([a_vals, b_vals]), pa.int64()),
    })
    exact = {"a": len(np.unique(a_vals)), "b": len(np.unique(b_vals))}
    outs = []
    for blocks in (1, 7):
        ds = ray.data.from_arrow(t).repartition(blocks)
        res = hll_distinct(ds, "g", "v")
        outs.append({k: n for k, n in zip(res["g"].to_pylist(),
                                          res["approx_distinct"].to_pylist())})
    assert outs[0] == outs[1]          # partitioning-independent
    for k, n in exact.items():
        assert abs(outs[0][k] - n) / n < 0.05
    # merge law: registers of the whole == max of the halves
    v = a_vals.astype(np.int64)
    full = hll_partial(v, np.zeros(len(v), np.int64), 1, 12)
    h1 = hll_partial(v[:9000], np.zeros(9000, np.int64), 1, 12)
    h2 = hll_partial(v[9000:], np.zeros(len(v) - 9000, np.int64), 1, 12)
    assert np.array_equal(full, np.maximum(h1, h2))


def test_nearby_count_matches_bruteforce(small_frames):
    """Range-join count vs an O(n^2) oracle, self excluded, flagged
    probes only."""
    import ray.data

    rng = np.random.RandomState(11)
    n = 400
    users = rng.randint(0, 12, size=n)
    ts = rng.randint(0, 10_000, size=n).astype("datetime64[us]")
    kinds = rng.choice(["error", "click"], size=n)
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ts),
        "event_type": pa.array(kinds),
    })
    R = 500  # us
    out = window.nearby_count(
        ray.data.from_arrow(t).repartition(5), key_col="user_id",
        ts_col="ts", id_col="event_id", radius_us=R,
        flag_col="event_type", flag_value="error") \
        .to_pandas().set_index("event_id")["n_nearby"].to_dict()
    tsi = ts.view(np.int64)
    want = {}
    for i in range(n):
        if kinds[i] != "error":
            continue
        want[i] = int(np.sum((users == users[i])
                             & (np.abs(tsi - tsi[i]) <= R))) - 1
    assert out == want


def test_repetition_stats_bruteforce():
    t = _docs_table()
    out = text.repetition_stats(t).to_pandas().set_index("doc_id")
    for row in t.to_pylist():
        toks = _py_tokens(row["text"])
        bgs = [tuple(toks[i:i + 2]) for i in range(len(toks) - 1)]
        got = out.loc[row["doc_id"]]
        assert got["n_bigrams"] == len(bgs)
        assert got["n_distinct_bigrams"] == len(set(bgs))
        top = max((bgs.count(b) for b in set(bgs)), default=0)
        assert got["top_bigram_n"] == top


def test_decontaminate_planted_overlap():
    """Docs sharing a trigram with the benchmark are flagged with the
    exact distinct-overlap count; clean docs are absent."""
    import ray.data

    bench_txt = "alpha beta gamma delta epsilon zeta"
    corpus = pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "text": pa.array([
            "alpha beta gamma something else entirely here",  # 1 shared
            "one two three four five six seven eight nine",   # clean
            "x alpha beta gamma delta y",                     # 2 shared
        ]),
    })
    bench = pa.table({"doc_id": pa.array([0], pa.int64()),
                      "text": pa.array([bench_txt])})
    out = dedup.decontaminate(
        ray.data.from_arrow(corpus), ray.data.from_arrow(bench)) \
        .to_pandas().set_index("doc_id")["n_hit_grams"].to_dict()
    assert out == {10: 1, 12: 2}


def test_global_rank_matches_argsort():
    import ray.data

    from alco_ray.stages.scan import global_rank

    rng = np.random.RandomState(13)
    keys = rng.permutation(5000).astype(np.int64) * 3 + 1
    t = pa.table({"k": pa.array(keys, pa.int64()),
                  "payload": pa.array(keys % 17, pa.int64())})
    out = global_rank(ray.data.from_arrow(t).repartition(6), "k") \
        .to_pandas().sort_values("k").reset_index(drop=True)
    # ascending key order == rank order, payload rides along
    assert np.array_equal(out["rank"].to_numpy(),
                          np.arange(1, len(keys) + 1))
    assert np.array_equal(out["payload"].to_numpy(),
                          (out["k"].to_numpy() % 17))


def test_source_cap_partition_stable(small_frames):
    """Per-group cap: never more than k rows per group, and the SAME
    surviving ids under different partitionings (hash order, not
    arrival order)."""
    import ray.data

    from alco_ray.stages.order import top_k_per_group

    rng = np.random.RandomState(5)
    n = 600
    t = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "source": pa.array([f"s{i}" for i in rng.randint(0, 7, n)]),
        "h": pa.array(((np.arange(n).astype(np.uint64)
                        * np.uint64(2654435761))
                       % np.uint64(1 << 32)).astype(np.int64)),
    })
    picks = []
    for blocks in (2, 9):
        out = top_k_per_group(
            ray.data.from_arrow(t).repartition(blocks),
            "source", ["h", "doc_id"], 5, descending=False).to_pandas()
        assert out.groupby("source").size().max() <= 5
        picks.append(set(out["doc_id"]))
    assert picks[0] == picks[1]


def test_text_encoder_feeds_ann_paths(tmp_path):
    """Embedding inference end to end from raw text: the actor-pool
    TextEncoder's integer embeddings must (a) match a per-row Python
    re-derivation of the projection, (b) rank with knn_brute exactly
    like a local numpy cosine, and (c) build a persisted LSH index
    whose probe recalls its own document at rank 1 (the self-query
    recall law all ANN indexes here are pinned by)."""
    from alco_ray.stages.similarity import (_ENC_ALPHABET, TextEncoder,
                                            build_lsh_index, knn_brute,
                                            knn_lsh_probe)

    rng = np.random.RandomState(21)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel", "india", "juliet", "kilo", "lima"]
    texts = [" ".join(rng.choice(words, rng.randint(3, 30)))
             for _ in range(80)] + [""]
    t = pa.table({"doc_id": pa.array(range(81), pa.int64()),
                  "text": pa.array(texts, pa.string())})

    enc = TextEncoder()
    E = enc.encode(t["text"])
    # (a) projection law, re-derived per row in plain Python
    for i in (0, 7, 80):
        counts = [texts[i].lower().count(ch) for ch in _ENC_ALPHABET]
        want = [sum(int(enc.R[d, j]) * counts[j] for j in range(26))
                for d in range(enc.R.shape[0])]
        assert E[i].tolist() == want
    assert np.linalg.matrix_rank(enc.R) == min(enc.R.shape) - 1

    ds = ray.data.from_arrow(t)
    emb = ds.map_batches(TextEncoder, batch_format="pyarrow",
                         concurrency=(1, 2))
    q = E[7].astype(np.float64)
    got = knn_brute(emb, q, k=5, id_col="doc_id").to_pandas()
    # (b) exact agreement with a local cosine ranking
    Ef = E.astype(np.float64)
    sims = (Ef @ (q / np.linalg.norm(q))) \
        / np.maximum(np.linalg.norm(Ef, axis=1), 1e-30)
    want_ids = np.lexsort((np.arange(81), -sims))[:5]
    assert got["doc_id"].tolist() == want_ids.tolist()
    # (c) LSH index from raw text: self-query recalled at rank 1
    emb2 = ds.map_batches(TextEncoder, batch_format="pyarrow",
                          concurrency=(1, 2)).map_batches(
        lambda b: b.rename_columns(["vec_id", "embedding"]),
        batch_format="pyarrow")
    build_lsh_index(emb2, tmp_path / "lsh")
    lsh = knn_lsh_probe(tmp_path / "lsh", q, k=5).to_pandas()
    assert lsh["vec_id"].tolist()[0] == 7
    assert lsh["sim"].tolist()[0] == pytest.approx(1.0)


def test_longest_shared_span_matches_bruteforce(small_frames):
    """Fused variable-length ladder == per-pair Python brute force,
    including the cap, the zero base for unshared docs, and exact
    dups maxing out at min(doc len, cap)."""
    t = _docs_table()
    got = text.longest_shared_span(
        ray.data.from_arrow(t), max_len=10).to_pandas()
    got_map = dict(zip(got["doc_id"], got["max_shared_len"]))

    texts = [_py_tokens(s) for s in t["text"].to_pylist()]
    want = {}
    for i, ti in enumerate(texts):
        best = 0
        for n in range(1, 11):
            grams_i = {tuple(ti[s:s + n])
                       for s in range(len(ti) - n + 1)}
            hit = any(
                grams_i & {tuple(tj[s:s + n])
                           for s in range(len(tj) - n + 1)}
                for j, tj in enumerate(texts) if j != i)
            if hit:
                best = n
        want[i] = best
    assert got_map == want
    assert want[0] == 10 and want[1] == 10      # exact dups hit the cap
    assert 1 <= want[2] <= 10                    # near-dup shares spans
    assert want[6] == 0                          # empty doc shares nothing


def test_bm25_docs_and_hybrid_rrf_match_bruteforce():
    """bm25_docs_topk reproduces the exact-integer BM25 law computed
    by a sequential Python oracle, and hybrid_rrf fuses two rank
    lists by the scaled-integer RRF law — including a doc present in
    only one leg."""
    from alco_ray.stages.textindex import bm25_docs_topk

    tbl = _docs_table()
    terms = ["the", "ray"]
    ds = ray.data.from_arrow(tbl).repartition(3)
    got = bm25_docs_topk(ds, terms, k=4)

    # Sequential oracle: identical integer law, brute force.
    toks = [_py_tokens(s) for s in tbl["text"].to_pylist()]
    n, tt = len(toks), sum(len(t) for t in toks)
    avgdl = (tt * 1000) // n
    scores = {}
    for i, tk in enumerate(toks):
        s = 0
        for t in sorted(set(terms)):
            df = sum(1 for u in toks if t in u)
            w = ((2 * n - 2 * df + 1) * 1_000_000) // (2 * df + 1)
            tf = tk.count(t)
            den = 10 * avgdl * tf + 3 * avgdl + 9000 * len(tk)
            s += w * ((22 * tf * avgdl * 10_000) // max(den, 1))
        if s > 0:
            scores[i] = s
    want = sorted(scores.items(), key=lambda x: (-x[1], x[0]))[:4]
    assert got["doc_id"].to_pylist() == [d for d, _ in want]
    assert got["score"].to_pylist() == [s for _, s in want]
    assert got["rank"].to_pylist() == list(range(1, len(want) + 1))

    # RRF fold: doc 99 appears only in leg B and must still score.
    leg_a = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                      "rank": pa.array([1, 2, 3], pa.int64())})
    leg_b = pa.table({"doc_id": pa.array([2, 99], pa.int64()),
                      "rank": pa.array([1, 2], pa.int64())})
    fused = similarity.hybrid_rrf([leg_a, leg_b], k=4)
    S = 10 ** 12
    exp = {1: S // 61, 2: S // 62 + S // 61, 3: S // 63, 99: S // 62}
    order = sorted(exp.items(), key=lambda x: (-x[1], x[0]))
    assert fused["doc_id"].to_pylist() == [d for d, _ in order]
    assert fused["rrf_score"].to_pylist() == [s for _, s in order]


def test_strip_html_roundtrip_and_boilerplate():
    """wrap_html_batch -> strip_html round-trips exactly to the
    whitespace-normalized original — including documents that
    themselves contain markup characters and pre-escaped entities —
    and leaks no boilerplate token."""
    texts = [
        "plain words only",
        "contains <b>literal</b> tags & ampersands",
        "already escaped &lt;tag&gt; and &amp; stay intact",
        "  leading and   trailing   whitespace  ",
        "",
        "a < b > c & d </script> fake closer",
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    out = text.strip_html(text.wrap_html_batch(tbl))
    import re
    want = [re.sub(r"^ | $", "", re.sub(r"\s+", " ", t)) for t in texts]
    got = out["clean_text"].to_pylist()
    assert got == want
    assert out["clean_len"].to_pylist() == [len(w) for w in want]
    # no boilerplate leak, ever
    for g in got:
        for tok in ("home", "about", "track", "margin", "(c) site",
                    "doc 0", "<nav", "<script"):
            assert tok not in g

    # multiple script/style blocks in one page strip independently
    # (non-greedy per block, not one greedy span eating the payload)
    page = pa.table({
        "doc_id": pa.array([7], pa.int64()),
        "html": pa.array(["<p>keep one</p><script>a;</script>"
                          "<p>keep two</p><script>b;</script>"
                          "<style>x</style><p>keep three</p>"],
                         pa.string())})
    got2 = text.strip_html(page)["clean_text"].to_pylist()[0]
    assert got2 == "keep one keep two keep three"


def test_bm25_docs_topk_no_match_and_empty():
    """No-match terms and empty corpora return the typed empty
    (doc_id, score, rank) table, not a crash — the approximate-miss
    contract knn_brute follows."""
    from alco_ray.stages.textindex import bm25_docs_topk

    ds = ray.data.from_arrow(_docs_table())
    out = bm25_docs_topk(ds, ["zzznotpresent"], k=5)
    assert out.num_rows == 0
    assert out.column_names == ["doc_id", "score", "rank"]

    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())}))
    out2 = bm25_docs_topk(empty, ["stream"], k=5)
    assert out2.num_rows == 0
    with pytest.raises(ValueError):
        bm25_docs_topk(ds, [], k=5)


def test_text_clusters_composition_matches_pinned_parts():
    """TextEncoder -> kmeans_fixed_point composes exactly: running
    Lloyd's pinned integer recurrence by hand over the encoder's own
    embeddings reproduces the distributed assignment per doc, at
    several partitionings."""
    from alco_ray.stages.similarity import (TextEncoder,
                                            kmeans_fixed_point)

    texts = [f"doc {i} " + "word " * (i % 5) + "tail" * (i % 3)
             for i in range(30)]
    tbl = pa.table({"doc_id": pa.array(range(30), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    enc = TextEncoder()
    emb = enc.encode(tbl["text"]).astype(np.int64)  # integers: exact

    k, iters, scale = 4, 2, 1024
    q = emb * scale
    cents = q[:k].copy()
    for it in range(iters + 1):
        d = ((q * q).sum(1)[:, None] + (cents * cents).sum(1)[None, :]
             - 2 * (q @ cents.T))
        a = np.argmin(d, axis=1)
        if it == iters:
            break
        new = cents.copy()
        for ci in range(k):
            m = q[a == ci]
            if len(m):
                s = m.sum(0)
                new[ci] = np.sign(s) * (np.abs(s) // len(m))
        cents = new

    for nblocks in (1, 4):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        e = ds.map_batches(TextEncoder, batch_format="pyarrow",
                           concurrency=2)
        out = kmeans_fixed_point(e, k=k, iters=iters, id_col="doc_id")
        got = {r["vec_id"]: r["cluster"] for r in out.take_all()}
        assert [got[i] for i in range(30)] == list(a), nblocks


def test_split_leakage_bruteforce():
    """The leakage audit finds exactly the text groups whose copies
    straddle >= 2 splits under the pinned multiplicative-hash law."""
    from alco_ray.pipelines.queries import d_split_leakage  # noqa: F401 (law lives inline)

    # ids chosen so duplicates land in DIFFERENT splits (hash law
    # below) and one duplicate pair lands in the SAME split
    ids = [0, 1, 2, 3, 4, 5, 6, 7]
    texts = ["dup a", "dup a", "dup b", "dup b",
             "uniq 1", "uniq 2", "dup c", "dup c"]
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts, pa.string())})

    def split_of(i):
        h = (i * 2654435761) % 4294967296 % 100
        return "train" if h < 80 else ("val" if h < 90 else "test")

    groups = {}
    for i, t in zip(ids, texts):
        groups.setdefault(t, []).append(i)
    want = sorted(
        (min(g), len(g), len({split_of(i) for i in g}))
        for g in groups.values()
        if len({split_of(i) for i in g}) >= 2)

    import pandas as pd
    from alco_ray.stages.window import partition_by_key

    def assign(b):
        h = (b["doc_id"].to_numpy(zero_copy_only=False)
             .astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(4294967296) % np.uint64(100)
        sp = np.where(h < 80, "train", np.where(h < 90, "val", "test"))
        return b.append_column("split", pa.array(sp, pa.string()))

    tagged = ray.data.from_arrow(tbl).repartition(3) \
        .map_batches(assign, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("text", as_index=False)
               .agg(group_id=("doc_id", "min"),
                    n_docs=("doc_id", "size"),
                    n_splits=("split", "nunique")))
        out = out[out["n_splits"] >= 2]
        return out[["group_id", "n_docs", "n_splits"]]

    got = sorted(
        (r["group_id"], r["n_docs"], r["n_splits"])
        for r in partition_by_key(tagged, "text", 2)
        .groupby("part").map_groups(fold, batch_format="pandas")
        .take_all())
    assert got == want
    assert want  # the fixture must actually plant a leak


def test_chunk_dedup_first_wins_bruteforce():
    """Chunk-level dedup marks exactly the chunks whose text repeats
    an earlier (doc_id, chunk_idx) occurrence, corpus-wide, at any
    partitioning — brute-forced over a corpus with whole-doc dups,
    an intra-doc repeated chunk, and unique docs."""
    import pandas as pd

    from alco_ray.stages.window import partition_by_key

    w = lambda n, tag: " ".join(f"{tag}{i % 17}" for i in range(n))
    texts = [
        w(128, "a"),            # doc 0: 2 chunks
        w(128, "a"),            # doc 1: exact dup of doc 0
        w(64, "b") + " " + w(64, "b"),  # doc 2: same chunk twice
        w(200, "c"),            # doc 3: unique, ragged tail chunk
        "",                     # doc 4: empty -> absent from output
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})

    # brute force: first occurrence by (doc, chunk_idx) over literal
    # chunk text
    seen, want = set(), {}
    for d, t in enumerate(texts):
        toks = _py_tokens(t)
        chunks = [" ".join(toks[i:i + 64])
                  for i in range(0, len(toks), 64)]
        if not chunks:
            continue
        n_dup = 0
        for c in chunks:
            if c in seen:
                n_dup += 1
            seen.add(c)
        want[d] = (len(chunks), n_dup)

    def to_hashed(b):
        c = text.chunk_documents(b)
        return pa.table({
            "doc_id": c["doc_id"], "chunk_idx": c["chunk_idx"],
            "chunk_h": pa.array(
                text.hash_strings(c["chunk_text"]).view(np.int64))})

    def first_wins(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["chunk_h", "doc_id", "chunk_idx"],
                          kind="mergesort")
        dup = g.groupby("chunk_h", sort=False).cumcount() > 0
        return pd.DataFrame({"doc_id": g["doc_id"].astype(np.int64),
                             "is_dup": dup.astype(np.int64).to_numpy()})

    for nblocks in (1, 3):
        chunks = (ray.data.from_arrow(tbl).repartition(nblocks)
                  .map_batches(to_hashed, batch_format="pyarrow"))
        marked = partition_by_key(chunks, "chunk_h", 2) \
            .groupby("part").map_groups(first_wins,
                                        batch_format="pandas")
        got = {}
        agg = {}
        for r in marked.take_all():
            n, d = agg.get(r["doc_id"], (0, 0))
            agg[r["doc_id"]] = (n + 1, d + r["is_dup"])
        got = agg
        assert got == want, nblocks


def test_compress_ratio_matches_direct_zlib():
    """d_compress_ratio is rows-only (no SQL zlib) — pin its exact
    per-doc values against a direct zlib brute force on the same
    parquet, including the ppm integer-division law."""
    import zlib

    import pyarrow.parquet as pq

    from alco_ray.pipelines.queries import d_compress_ratio

    sf = "/root/testdata/sf0.001"
    tbl = pq.read_table(f"{sf}/documents.parquet",
                        columns=["doc_id", "text"])
    want = {}
    for did, txt in zip(tbl["doc_id"].to_pylist(),
                        tbl["text"].to_pylist()):
        raw = len(txt.encode("utf-8"))
        comp = len(zlib.compress(txt.encode("utf-8"), 6))
        want[did] = (raw, comp, comp * 1_000_000 // max(raw, 1))

    got = {r["doc_id"]: (r["raw_bytes"], r["zip_bytes"], r["ratio_ppm"])
           for r in d_compress_ratio(sf).take_all()}
    assert got == want
    # the signal separates repetitive from diverse text
    ratios = [v[2] for v in want.values()]
    assert min(ratios) < max(ratios)


def test_sft_masks_index_into_rendered_samples():
    """t_sft_masks spans, applied to the t_conv_render strings, must
    cut out exactly the assistant lines — the two operators agree on
    the sample layout without either materializing the other."""
    from alco_ray.pipelines.queries import t_conv_render, t_sft_masks

    sf = "/root/testdata/sf0.001"
    rendered = {r["conv_id"]: r["rendered"]
                for r in t_conv_render(sf).take_all()}
    masks = t_sft_masks(sf).take_all()
    assert masks
    checked = 0
    for m in masks:
        seg = rendered[m["conv_id"]][m["start_off"]:m["end_off"]]
        assert seg.startswith("assistant: ")
        assert "\n" not in seg
        checked += 1
    assert checked == sum(r.count("assistant: ")
                          for r in rendered.values())
