"""Round-3i operator tests: fixed-point PageRank, background-LM
coverage, cross-document n-gram duplication, keyed set ops.

The distributed plumbing of each operator is pinned end-to-end by its
DuckDB oracle (scripts/check_contract.py); these tests pin the SEMANTICS
against independent pure-Python references on small inputs, plus the
degenerate shapes (empty graph, short docs) the oracle corpus may not
exercise.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict

import numpy as np
import pyarrow as pa
import pytest

import ray


def _ref_pagerank(pairs, iters=5, scale=10 ** 12, damping=85):
    """Independent integer-recurrence reference (dict-and-loop)."""
    dirs = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    nodes = sorted({x for e in dirs for x in e})
    deg = Counter(a for a, _ in dirs)
    n = len(nodes)
    r0 = scale // n
    base = ((100 - damping) * r0) // 100
    r = {v: r0 for v in nodes}
    for _ in range(iters):
        agg = {v: 0 for v in nodes}
        for a, b in dirs:
            agg[b] += r[a] // deg[a]
        r = {v: base + (damping * agg[v]) // 100 for v in nodes}
    return r


def _pairs_ds(pairs):
    a = pa.array([p[0] for p in pairs], pa.int64())
    b = pa.array([p[1] for p in pairs], pa.int64())
    return ray.data.from_arrow(pa.table({"src": a, "dst": b}))


@pytest.mark.parametrize("seed,n_nodes,n_edges", [(0, 8, 12), (1, 30, 60),
                                                  (2, 5, 4)])
def test_pagerank_matches_reference(seed, n_nodes, n_edges):
    from alco_ray.stages.graph import pagerank

    rng = np.random.RandomState(seed)
    pairs = set()
    while len(pairs) < n_edges:
        a, b = rng.randint(0, n_nodes, 2)
        if a != b:
            pairs.add((int(min(a, b)), int(max(a, b))))
    pairs = sorted(pairs)
    got = {r["node"]: r["rank_fp"]
           for r in pagerank(_pairs_ds(pairs), iters=5,
                             num_partitions=4).take_all()}
    assert got == _ref_pagerank(pairs)


def test_pagerank_mass_and_empty():
    from alco_ray.stages.graph import pagerank

    # star graph: hub rank strictly dominates, total mass stays within
    # rounding slack of scale (each of the 5 iterations floor-divides)
    pairs = [(0, i) for i in range(1, 9)]
    out = {r["node"]: r["rank_fp"]
           for r in pagerank(_pairs_ds(pairs), iters=5,
                             num_partitions=2).take_all()}
    assert len(out) == 9
    assert out[0] > max(v for k, v in out.items() if k)
    assert abs(sum(out.values()) - 10 ** 12) < 10 ** 7
    empty = pagerank(_pairs_ds([]), iters=3)
    assert empty.count() == 0
    assert empty.schema().names == ["node", "rank_fp"]


def _docs_ds(texts):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, pa.string())}))


def test_trigram_coverage_matches_reference():
    from alco_ray.stages.text import (fit_background_trigrams,
                                      trigram_coverage)

    texts = ["the cat sat on the mat", "the dog sat", "xyzzy",
             "", "ab", "the the the cat"]
    ds = _docs_ds(texts)
    k = 4
    prof = fit_background_trigrams(ds, k=k)
    # reference fit: distinct trigrams per doc -> df -> top-k by
    # (df DESC, gram ASC); string order == code order by construction
    df = Counter()
    for t in texts:
        df.update({t[i:i + 3] for i in range(max(len(t) - 2, 0))})
    top = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    top_set = {g for g, _ in top}
    assert len(prof) == min(k, len(df))

    out = {r["doc_id"]: r
           for r in trigram_coverage(ds, prof).take_all()}
    for i, t in enumerate(texts):
        grams = [t[j:j + 3] for j in range(max(len(t) - 2, 0))]
        hits = sum(g in top_set for g in grams)
        assert out[i]["n_grams"] == len(grams)
        assert out[i]["n_hits"] == hits
        want = hits / len(grams) if grams else 0.0
        assert out[i]["lm_score"] == want


def test_cross_doc_ngram_share_matches_reference(small_frames):
    from alco_ray.stages.text import cross_doc_ngram_share

    texts = [
        "one two three four five six seven",      # shares 5-grams w/ 1
        "zero one two three four five six",       # overlaps doc 0
        "totally different words here nothing shared at all",
        "short doc",                               # < 5 tokens
        "one two three four five six seven",      # exact dup of doc 0
    ]
    ds = _docs_ds(texts)
    out = {r["doc_id"]: r
           for r in cross_doc_ngram_share(ds, n=5)
           .take_all()}

    def grams(t):
        toks = [x for x in re.split(r"[^a-z0-9]+", t.lower()) if x]
        return {" ".join(toks[i:i + 5]) for i in range(len(toks) - 4)}

    gsets = [grams(t) for t in texts]
    df = Counter(g for s in gsets for g in s)
    assert len(out) == len(texts)
    for i, s in enumerate(gsets):
        nd = sum(df[g] > 1 for g in s)
        assert out[i]["n_grams"] == len(s)
        assert out[i]["n_dup"] == nd
        want = nd / len(s) if s else 0.0
        assert out[i]["dup_share"] == want
    assert out[3]["n_grams"] == 0 and out[3]["dup_share"] == 0.0
    assert out[4]["dup_share"] == 1.0  # exact dup: every gram shared
    assert out[2]["n_dup"] == 0


def test_near_probe_semantics(tmp_path):
    import ray.data

    from alco_ray.stages.textindex import build_text_index, near_probe

    n = 60
    rng = np.random.RandomState(7)
    ts = (np.datetime64("2024-03-01T00:00:00", "us")
          + rng.randint(0, 86_400_000_000, n).astype("timedelta64[us]"))
    words = np.array(["alpha", "bravo", "charlie"])
    text = np.array([" ".join(rng.choice(words, 5)) for _ in range(n)],
                    dtype=object)
    text[3] = "aa bb pad pad"            # dist 1 -> hit
    text[9] = "aa pad bb pad"            # dist 2 -> hit
    text[15] = "bb pad pad aa"           # dist 3, reversed -> miss at 2
    text[21] = "bb pad aa"               # reversed dist 2 -> hit
    text[27] = "aa pad pad pad bb aa"    # repeated a: min dist 1 -> hit
    text[33] = "aa only here"            # one term -> miss
    parsed = pa.table({
        "conv_id": pa.array([f"c{i % 7}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
        "parsed_ts": pa.array(ts),
        "level": pa.array(["INFO"] * n, pa.string()),
        "text": pa.array(list(text), pa.string()),
    })
    idx = tmp_path / "tidx_near"
    build_text_index(ray.data.from_arrow(parsed), idx, n_buckets=64)
    got = near_probe(idx, "aa", "bb", max_dist=2, k=100).to_pandas()
    assert sorted(got["turn_idx"]) == [3, 9, 21, 27]
    # widen the radius: the dist-3 turn joins
    got3 = near_probe(idx, "aa", "bb", max_dist=3, k=100).to_pandas()
    assert sorted(got3["turn_idx"]) == [3, 9, 15, 21, 27]
    with pytest.raises(ValueError):
        near_probe(idx, "aa", "aa", max_dist=2)


def test_gram_matrix_matches_numpy():
    from alco_ray.stages.similarity import gram_matrix

    rng = np.random.RandomState(5)
    x = rng.randn(50, 6).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "embedding": pa.array([list(map(float, r)) for r in x],
                              pa.list_(pa.float32()))}))
    out = gram_matrix(ds)
    q = np.floor(np.abs(x.astype(np.float64)) * 1_000_000 + 0.5).astype(
        np.int64) * np.sign(x).astype(np.int64)  # half away from zero
    want = q.T @ q
    got = {(r["i"], r["j"]): r["s"] for r in out.to_pylist()}
    assert len(got) == 36
    for i in range(6):
        for j in range(6):
            assert got[(i + 1, j + 1)] == want[i, j]
    # symmetry comes free from exactness
    assert all(got[(i, j)] == got[(j, i)] for i, j in got)


def test_grouping_sets_matches_pandas():
    import pandas as pd

    from alco_ray.stages.aggregate import grouping_sets_sums

    rng = np.random.RandomState(11)
    n = 300
    t = pa.table({
        "a": pa.array(rng.choice(["x", "y", "z"], n)),
        "b": pa.array(rng.choice(["p", "q"], n)),
        "v": pa.array(rng.randint(0, 100, n).astype(np.int64)),
    })
    ds = ray.data.from_arrow(t)
    out = grouping_sets_sums(ds, ["a", "b"], [["a", "b"], ["b"], []],
                             ["v"]).to_pandas()
    df = t.to_pandas()
    fine = df.groupby(["a", "b"], as_index=False).agg(
        v=("v", "sum"), n_rows=("v", "size"))
    byb = df.groupby(["b"], as_index=False).agg(
        v=("v", "sum"), n_rows=("v", "size"))
    assert len(out) == len(fine) + len(byb) + 1
    total = out[out["a"].isna() & out["b"].isna()]
    assert len(total) == 1
    assert total["v"].iloc[0] == df["v"].sum()
    assert total["n_rows"].iloc[0] == n
    for _, r in byb.iterrows():
        m = out[(out["a"].isna()) & (out["b"] == r["b"])]
        assert len(m) == 1 and m["v"].iloc[0] == r["v"]
    with pytest.raises(ValueError):
        grouping_sets_sums(ds, ["a"], [["zz"]], ["v"])


def _lev_ref(a, b):
    m, n = len(a), len(b)
    d = list(range(n + 1))
    for i in range(1, m + 1):
        prev, d[0] = d[0], i
        for j in range(1, n + 1):
            cur = d[j]
            d[j] = min(d[j] + 1, d[j - 1] + 1,
                       prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return d[n]


def test_lev1_kernel_bruteforce():
    import random

    from alco_ray.stages.dedup import _fz_variant_hashes, _lev1_exact

    random.seed(3)
    strs = ["".join(random.choice("abc")
                    for _ in range(random.randint(0, 6)))
            for _ in range(300)]
    pairs = [(random.choice(strs), random.choice(strs))
             for _ in range(1500)]
    got = _lev1_exact(pa.array([p[0] for p in pairs], pa.string()),
                      pa.array([p[1] for p in pairs], pa.string()))
    for i, (x, y) in enumerate(pairs):
        assert bool(got[i]) == (_lev_ref(x, y) <= 1), (x, y)
    # candidate completeness: every lev<=1 pair shares a variant hash
    vals = sorted(set(strs))
    rows, hashes = _fz_variant_hashes(pa.array(vals, pa.string()))
    sets: dict = {}
    for r, h in zip(rows, hashes):
        sets.setdefault(vals[r], set()).add(int(h))
    import itertools
    for x, y in itertools.combinations(vals, 2):
        if _lev_ref(x, y) <= 1:
            assert sets[x] & sets[y], (x, y)


def test_fuzzy_pairs_end_to_end(small_frames):
    from alco_ray.stages.dedup import fuzzy_pairs

    vals = ["alpha", "alpho", "alpha", "lpha", "alphaa", "beta",
            "betas", "gamma", "", "a"]
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.string())}))
    got = {(r["val_a"], r["val_b"])
           for r in fuzzy_pairs(ds, "v").take_all()}
    uniq = sorted(set(vals))
    import itertools
    want = {(a, b) for a, b in itertools.combinations(uniq, 2)
            if _lev_ref(a, b) <= 1}
    assert got == want
    assert ("alpha", "alpho") in got and ("", "a") in got


def test_densify_daily_matches_pandas(small_frames):
    import pandas as pd

    from alco_ray.stages.window import densify_daily

    rng = np.random.RandomState(13)
    n = 400
    users = rng.randint(0, 12, n).astype(np.int64)
    ts = (np.datetime64("2024-02-01", "us")
          + rng.randint(0, 40, n).astype("timedelta64[D]").astype(
              "timedelta64[us]")
          + rng.randint(0, 86_400_000_000, n).astype("timedelta64[us]"))
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array(users), "ts": pa.array(ts)}))
    out = densify_daily(ds, "user_id", "ts").to_pandas()
    df = pd.DataFrame({"user_id": users,
                       "day": ts.astype("datetime64[D]")})
    for u, grp in df.groupby("user_id"):
        span = pd.date_range(grp["day"].min(), grp["day"].max(),
                             freq="D")
        sel = out[out["user_id"] == u].set_index("day")["n_events"]
        assert len(sel) == len(span)
        counts = grp.groupby("day").size()
        for d in span:
            key = d.strftime("%Y-%m-%d")
            want = int(counts.get(d, 0))
            assert int(sel[key]) == want
    assert (out.groupby("user_id")["n_events"].sum().to_numpy()
            == df.groupby("user_id").size().to_numpy()).all()


def test_profile_table_matches_pandas(small_frames):
    import pandas as pd

    from alco_ray.stages.aggregate import profile_table

    rng = np.random.RandomState(21)
    n = 500
    vals = rng.randn(n)
    vals[rng.rand(n) < 0.1] = np.nan  # nulls via masked column below
    t = pa.table({
        "a": pa.array(rng.randint(0, 7, n).astype(np.int64)),
        "b": pa.array([None if rng.rand() < 0.2 else f"s{rng.randint(40)}"
                       for _ in range(n)], pa.string()),
        "f": pa.array(rng.choice([1.5, 2.25, -3.0, 0.0], n)),
    })
    out = profile_table(ray.data.from_arrow(t), ["a", "b", "f"]) \
        .to_pandas().set_index("col_name")
    df = t.to_pandas()
    for c in ["a", "b", "f"]:
        assert out.loc[c, "n_rows"] == n
        assert out.loc[c, "n_nulls"] == df[c].isna().sum()
        assert out.loc[c, "n_distinct"] == df[c].dropna().nunique()


def test_lev1_kernel_unicode():
    import random

    from alco_ray.stages.dedup import _lev1_exact

    random.seed(9)
    alpha = "aé漢🎉b"  # 1-4 byte UTF-8 codepoints
    strs = ["".join(random.choice(alpha)
                    for _ in range(random.randint(0, 5)))
            for _ in range(150)]
    pairs = [(random.choice(strs), random.choice(strs))
             for _ in range(800)]
    got = _lev1_exact(pa.array([p[0] for p in pairs], pa.string()),
                      pa.array([p[1] for p in pairs], pa.string()))
    for i, (x, y) in enumerate(pairs):
        assert bool(got[i]) == (_lev_ref(x, y) <= 1), (x, y)


def test_fuzzy_kernels_pad_per_length_slice():
    """Both fuzzy kernels pad each length slice to its own longest
    value: on 2,000 short names plus one 4,000-character value the
    tracemalloc peak stays under 32 MiB (215 MiB when every row was
    padded to the batch's longest), and across slice boundaries the
    hashes equal a per-string fold and the verdicts the reference."""
    import random
    import tracemalloc

    from alco_ray.stages.dedup import (_FZ_P, _fz_variant_hashes,
                                       _lev1_exact)

    names = [f"user{i % 997}x{i}" for i in range(2000)] + ["q" * 4000]
    tracemalloc.start()
    try:
        _fz_variant_hashes(pa.array(names, pa.string()))
        _lev1_exact(pa.array(names, pa.string()),
                    pa.array([n[1:] for n in names], pa.string()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak

    def fold(s):
        h = 0
        for ch in s:
            h = (h * int(_FZ_P) + ord(ch)) % (1 << 64)
        return h

    random.seed(5)
    lengths = [0, 1, 8, 16, 17, 33, 40]     # across slice boundaries
    strs = ["".join(random.choice("ab漢")
                    for _ in range(random.choice(lengths)))
            for _ in range(200)]
    rows, hashes = _fz_variant_hashes(pa.array(strs, pa.string()))
    want = [(r, fold(s)) for r, s in enumerate(strs)] + [
        (r, fold(s[:i] + s[i + 1:]))
        for r, s in enumerate(strs) for i in range(len(s))]
    assert list(zip(rows.tolist(), hashes.view(np.uint64).tolist())) \
        == want
    # one deletion (or none) of each string, and random pairs
    pairs = [(x, x[:k] + x[k + 1:]) for x in strs
             for k in [random.randrange(len(x) + 1)]]
    pairs += list(zip(strs, random.sample(strs, len(strs))))
    got = _lev1_exact(pa.array([p[0] for p in pairs], pa.string()),
                      pa.array([p[1] for p in pairs], pa.string()))
    for i, (x, y) in enumerate(pairs):
        assert bool(got[i]) == (_lev_ref(x, y) <= 1), (x, y)


def test_pagerank_directed_with_dangling():
    from alco_ray.stages.graph import pagerank

    # 0 -> 1 -> 2, 3 -> 2 : node 2 is a dangling sink, 0 and 3 have
    # no in-edges (rank = base each round)
    pairs = [(0, 1), (1, 2), (3, 2)]
    got = {r["node"]: r["rank_fp"]
           for r in pagerank(_pairs_ds(pairs), symmetric=False,
                             iters=4, num_partitions=2).take_all()}
    # reference on the directed recurrence
    scale, damping = 10 ** 12, 85
    nodes = {0, 1, 2, 3}
    deg = {0: 1, 1: 1, 3: 1}
    n = len(nodes)
    r0 = scale // n
    base = ((100 - damping) * r0) // 100
    r = {v: r0 for v in nodes}
    for _ in range(4):
        agg = {v: 0 for v in nodes}
        for a, b in pairs:
            agg[b] += r[a] // deg[a]
        r = {v: base + (damping * agg[v]) // 100 for v in nodes}
    assert got == r
    assert got[2] > got[1] > got[0] == got[3]


def test_value_index_probe_and_pruning(tmp_path):
    from alco_ray.stages.attrindex import build_value_index, range_probe

    rng = np.random.RandomState(31)
    n = 2000
    t = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "value": pa.array(rng.uniform(0, 100, n)),
    })
    idx = tmp_path / "vidx"
    build_value_index(ray.data.from_arrow(t), idx, value_col="value",
                      n_buckets=16)
    df = t.to_pandas()
    for lo, hi in [(10.0, 12.5), (0.0, 100.1), (37.25, 41.5),
                   (99.999, 100.1)]:
        stats: dict = {}
        got = range_probe(idx, lo, hi, stats_out=stats).to_pandas()
        want = df[(df["value"] >= lo) & (df["value"] < hi)]
        assert sorted(got["id"]) == sorted(want["id"]), (lo, hi)
        assert "bucket" not in got.columns
        b0, b1 = stats["bucket_range"]
        assert 0 <= b0 <= b1 <= 15
        if hi - lo < 5:  # narrow probe must actually prune files
            assert b1 - b0 <= 1
            assert len(stats["files"]) < len(
                list((idx / "buckets").rglob("*.parquet")))
    # out-of-domain empty probe keeps the schema
    empty = range_probe(idx, 200.0, 300.0).to_pandas()
    assert len(empty) == 0


def test_value_index_quantile_grid_under_skew(tmp_path):
    from alco_ray.stages.attrindex import build_value_index, range_probe

    rng = np.random.RandomState(47)
    # heavy skew: 90% of mass below 1, long tail to 10_000
    v = np.where(rng.rand(3000) < 0.9, rng.rand(3000),
                 rng.pareto(0.5, 3000) * 100)
    t = pa.table({"id": pa.array(np.arange(3000, dtype=np.int64)),
                  "value": pa.array(v)})
    idx = tmp_path / "vidx_q"
    build_value_index(ray.data.from_arrow(t), idx, value_col="value",
                      n_buckets=16, boundaries="quantile")
    df = t.to_pandas()
    for lo, hi in [(0.2, 0.4), (0.0, 1e9), (50.0, 500.0)]:
        stats: dict = {}
        got = range_probe(idx, lo, hi, stats_out=stats).to_pandas()
        want = df[(df["value"] >= lo) & (df["value"] < hi)]
        assert sorted(got["id"]) == sorted(want["id"]), (lo, hi)
    # the dense [0.2, 0.4) probe must prune to a few near-equal
    # buckets despite the 10^4 value range (equi-width would put ~90%
    # of rows into bucket 0 and prune nothing)
    stats = {}
    range_probe(idx, 0.2, 0.4, stats_out=stats)
    b0, b1 = stats["bucket_range"]
    assert b1 - b0 <= 6
    assert len(stats["files"]) < len(
        list((idx / "buckets").rglob("*.parquet")))


@pytest.mark.parametrize("boundaries", ["width", "quantile"])
@pytest.mark.parametrize("values", [[], [37.3]], ids=["no_rows", "filtered"])
def test_value_index_empty_answer_is_typed(tmp_path, boundaries, values):
    """An empty answer carries the table's columns and types, from the
    schema meta.json records: with no bucket file in the probed range
    (a zero-row table, like e_value_indexed over empty events) and
    with every row of the probed bucket filtered out."""
    from alco_ray.stages.attrindex import build_value_index, range_probe

    t = pa.table({
        "event_id": pa.array(range(len(values)), pa.int64()),
        "user_id": pa.array(range(len(values)), pa.int64()),
        "value": pa.array(values, pa.float64())})
    idx = tmp_path / "vidx"
    build_value_index(ray.data.from_arrow(t), idx, value_col="value",
                      boundaries=boundaries)
    got = range_probe(idx, 37.31, 37.32)
    assert got.num_rows == 0
    assert got.schema == t.schema


def test_auto_join_paths_agree():
    from alco_ray.stages.join import auto_join

    rng = np.random.RandomState(51)
    left = pa.table({
        "k": pa.array(rng.randint(0, 40, 500).astype(np.int64)),
        "x": pa.array(rng.randint(0, 9, 500).astype(np.int64))})
    right = pa.table({
        "k": pa.array(np.arange(0, 30, dtype=np.int64)),
        "name": pa.array([f"n{i}" for i in range(30)], pa.string())})
    lds = ray.data.from_arrow(left)
    rds = ray.data.from_arrow(right)
    bc = auto_join(lds, rds, "k").to_pandas()
    sh = auto_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                   "k", broadcast_limit=0).to_pandas()
    key = ["k", "x", "name"]
    a = bc[key].sort_values(key).reset_index(drop=True)
    b = sh[key].sort_values(key).reset_index(drop=True)
    assert a.equals(b)
    want = left.to_pandas().merge(right.to_pandas(), on="k")
    assert len(a) == len(want)
    # duplicate right keys refuse the broadcast path
    dup = pa.table({"k": pa.array([1, 1], pa.int64()),
                    "name": pa.array(["a", "b"], pa.string())})
    with pytest.raises(ValueError):
        auto_join(lds, ray.data.from_arrow(dup), "k").to_pandas()
    # empty right: inner join is empty, schema-stable left slice
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "name": pa.array([], pa.string())})
    out = auto_join(lds, ray.data.from_arrow(empty), "k")
    assert out.count() == 0
    # empty left: empty on both paths (Dataset.join itself raises
    # ArrowInvalid on it)
    none_left = lds.filter(expr="k > 100")
    for limit in (2_000_000, 0):
        assert auto_join(none_left, rds, "k",
                         broadcast_limit=limit).count() == 0


def test_outlier_rule_matches_bigint_bruteforce():
    """The engine's isqrt threshold rule must equal the exact squared
    comparison with unbounded ints (the oracle's HUGEINT form)."""
    import math

    rng = np.random.RandomState(61)
    c = rng.randint(0, 10_000_000, 400).astype(np.int64)
    n, s, q = len(c), int(c.sum()), int((c.astype(object) ** 2).sum())
    bound = math.isqrt(4 * (n * q - s * s))
    got = np.abs(n * c - s) > bound
    for i, ci in enumerate(c):
        d = n * int(ci) - s
        assert bool(got[i]) == (d * d > 4 * (n * q - s * s))


def test_locf_daily_matches_pandas(small_frames):
    import pandas as pd

    from alco_ray.stages.window import locf_daily

    rng = np.random.RandomState(67)
    n = 300
    t = pa.table({
        "u": pa.array(rng.randint(0, 9, n).astype(np.int64)),
        "ts": pa.array(np.datetime64("2024-05-01", "us")
                       + rng.randint(0, 30, n).astype("timedelta64[D]")
                       .astype("timedelta64[us]")
                       + rng.randint(0, 86_400_000_000, n)
                       .astype("timedelta64[us]")),
        "eid": pa.array(np.arange(n, dtype=np.int64)),
        "c": pa.array(rng.randint(0, 1000, n).astype(np.int64)),
    })
    out = locf_daily(ray.data.from_arrow(t), "u", "ts", "eid", "c").to_pandas()
    df = t.to_pandas()
    df["day"] = df["ts"].dt.floor("D")
    for u, grp in df.groupby("u"):
        last = (grp.sort_values(["day", "ts", "eid"])
                .groupby("day")["c"].last())
        span = pd.date_range(grp["day"].min(), grp["day"].max(),
                             freq="D")
        filled = last.reindex(span).ffill()
        sel = out[out["u"] == u].set_index("day")["cents"]
        assert len(sel) == len(span)
        for d in span:
            assert int(sel[d.strftime("%Y-%m-%d")]) == int(filled[d])


def test_coalesce_intervals_matches_bruteforce(small_frames, monkeypatch):
    from alco_ray.stages import window
    from alco_ray.stages.window import coalesce_intervals

    rng = np.random.RandomState(71)
    n = 400
    W = 1_000_000  # +-1s spans for dense overlap
    t = pa.table({
        "u": pa.array(rng.randint(0, 6, n).astype(np.int64)),
        "ts": pa.array(np.datetime64("2024-06-01", "us")
                       + rng.randint(0, 60_000_000, n)
                       .astype("timedelta64[us]")),
        "eid": pa.array(np.arange(n, dtype=np.int64)),
    })
    monkeypatch.setattr(window, "BUSY_PAD_US", W)
    out = coalesce_intervals(ray.data.from_arrow(t), "u", "ts",
                             "eid").to_pandas()
    df = t.to_pandas()
    for u, grp in df.groupby("u"):
        ts = np.sort(grp["ts"].to_numpy().astype("datetime64[us]")
                     .view(np.int64))
        islands = []
        cur = [ts[0] - W, ts[0] + W, 1]
        for x in ts[1:]:
            if x - W > cur[1]:
                islands.append(tuple(cur))
                cur = [x - W, x + W, 1]
            else:
                cur[1] = x + W
                cur[2] += 1
        islands.append(tuple(cur))
        got = (out[out["u"] == u]
               .sort_values("start_ts"))
        assert len(got) == len(islands)
        for (s, e, c), (_, r) in zip(islands, got.iterrows()):
            assert r["start_ts"].to_datetime64().astype(
                "datetime64[us]").view(np.int64) == s
            assert r["end_ts"].to_datetime64().astype(
                "datetime64[us]").view(np.int64) == e
            assert r["n_events"] == c


def test_fuzzy_pairs_oversized_bucket_contract(small_frames, monkeypatch):
    """Buckets past FUZZY_MAX_BUCKET must not be dropped SILENTLY: the
    operator errors loudly."""
    import pytest

    from alco_ray.stages import dedup

    # every value shares the deletion variant "x" (all are "x"+c or
    # "x" itself), so one bucket holds all of them
    vals = ["x"] + [f"x{c}" for c in "abcdefgh"]
    ds = ray.data.from_arrow(pa.table({"v": pa.array(vals, pa.string())}))

    monkeypatch.setattr(dedup, "FUZZY_MAX_BUCKET", 3)
    with pytest.raises(Exception, match="FUZZY_MAX_BUCKET"):
        dedup.fuzzy_pairs(ds, "v").take_all()


def test_mixture_hash_large_id_parity():
    """ADVICE r3: the multiplicative id-hash must equal
    (id * 2654435761) mod 2^32 in EXACT integer math at any
    non-negative id magnitude (the old int64 multiply wrapped past
    ~3.47e9) — DuckDB-side equivalent is the HUGEINT form."""
    from alco_ray.stages.sample import mixture_resample

    big = [0, 1, 3_470_000_000, 2**40 + 7, 2**62 + 12345]
    t = pa.table({"doc_id": pa.array(big, pa.int64()),
                  "source": pa.array(["s"] * len(big), pa.string())})
    rate = 0.5
    out = mixture_resample(ray.data.from_arrow(t), {"s": rate})
    got = sorted(r["doc_id"] for r in out.take_all())
    thr = int((rate % 1) * 2**32)
    want = sorted(i for i in big if (i * 2654435761) % 2**32 < thr)
    assert got == want
