"""Round-3f operators: n-gram counts, Misra-Gries heavy hitters,
role transitions, first/last-by-key, Q13/Q18-style query shapes.

Each operator is compared against an independent brute force on a
small randomized multi-block input — the driver's DuckDB oracle pins
the same semantics at sf0.01; these tests pin them at commit time with
adversarial layouts (documents split across blocks, skewed streams,
single-token documents, all-counters-cancelled MG batches).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(table, n_blocks: int = 6):
    import ray.data

    return ray.data.from_arrow(table).repartition(n_blocks)


# --------------------------------------------------------------- ngrams


def _docs(seed: int = 7, n: int = 120):
    rng = np.random.RandomState(seed)
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = [" ".join(rng.choice(words, rng.randint(1, 12)))
             for _ in range(n)]
    return pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                     "text": pa.array(texts)})


def _brute_bigrams(texts):
    c = Counter()
    for t in texts:
        toks = t.lower().split()
        c.update(f"{a} {b}" for a, b in zip(toks, toks[1:]))
    return c


def test_ngram_counts_match_brute_force():
    from alco_ray.stages.text import ngram_counts

    t = _docs()
    got = {r["gram"]: r["cnt"]
           for r in ngram_counts(_ds(t), n=2).take_all()}
    want = _brute_bigrams(t["text"].to_pylist())
    assert got == dict(want)


def test_ngram_counts_trigrams_and_short_docs():
    from alco_ray.stages.text import ngram_counts

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(["one", "a b", "x y z x y"])})
    got = {r["gram"]: r["cnt"]
           for r in ngram_counts(_ds(t, 2), n=3).take_all()}
    assert got == {"x y z": 1, "y z x": 1, "z x y": 1}


# ------------------------------------------------------------ heavy hitters


def test_mg_summary_guarantee_and_merge():
    from alco_ray.stages.sketch import mg_summary

    rng = np.random.RandomState(3)
    # zipf-ish skewed stream: value i appears ~ n/(i+1) times
    stream = np.concatenate(
        [np.repeat(f"v{i}", 2000 // (i + 1)) for i in range(200)])
    rng.shuffle(stream)
    k = 8
    total = len(stream)
    # merge per-chunk summaries, then compress once more
    vals: list = []
    cnts: list = []
    for chunk in np.array_split(stream, 7):
        u, c = np.unique(chunk, return_counts=True)
        v2, c2 = mg_summary(u.astype(object), c.astype(np.int64), k)
        vals.append(v2)
        cnts.append(c2)
    merged = pd.DataFrame({"v": np.concatenate(vals),
                           "c": np.concatenate(cnts)}) \
        .groupby("v", as_index=False)["c"].sum()
    v, c = mg_summary(merged["v"].to_numpy(dtype=object),
                      merged["c"].to_numpy().astype(np.int64), k)
    assert len(v) <= k
    exact = Counter(stream.tolist())
    thresh = total / (k + 1)
    survivors = set(v)
    for val, n in exact.items():
        if n > thresh:
            assert val in survivors, (val, n, thresh)


def test_heavy_hitters_exact_counts():
    from alco_ray.stages.sketch import heavy_hitters

    rng = np.random.RandomState(5)
    stream = np.concatenate([
        np.repeat("hot", 500), np.repeat("warm", 120),
        rng.choice([f"cold{i}" for i in range(400)], 600),
    ])
    rng.shuffle(stream)
    t = pa.table({"token": pa.array(stream.astype(object), pa.string())})
    out = heavy_hitters(_ds(t, 8), "token", k=16)
    got = dict(zip(out["token"].to_pylist(), out["cnt"].to_pylist()))
    exact = Counter(stream.tolist())
    thresh = len(stream) // 17
    want = {v: n for v, n in exact.items() if n > thresh}
    assert got == want
    assert "hot" in got and got["hot"] == 500


# ------------------------------------------------- transitions / first-last


def _events(seed: int = 9, n: int = 400, n_users: int = 12):
    rng = np.random.RandomState(seed)
    ts = (np.datetime64("2024-01-01", "us")
          + rng.randint(0, 10**9, n).astype("timedelta64[us]"))
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.randint(0, n_users, n).astype(np.int64)),
        "ts": pa.array(ts),
        "event_type": pa.array(rng.choice(["a", "b", "c", "d"], n)),
    })


def test_transition_counts_match_pandas():
    from alco_ray.stages.window import transition_counts

    t = _events()
    got = transition_counts(_ds(t, 7), key_col="user_id",
                            order_col="event_id", val_col="event_type")
    df = t.to_pandas().sort_values(["user_id", "event_id"])
    df["frm"] = df.groupby("user_id")["event_type"].shift(1)
    want = (df.dropna(subset=["frm"])
              .groupby(["frm", "event_type"]).size().to_dict())
    got_d = {(r["from_val"], r["to_val"]): r["n"] for r in got.to_pylist()}
    assert got_d == want


def test_transition_counts_single_row_keys():
    from alco_ray.stages.window import transition_counts

    t = pa.table({"k": pa.array(["x", "y", "z"]),
                  "o": pa.array([0, 0, 0], pa.int64()),
                  "v": pa.array(["p", "q", "r"])})
    got = transition_counts(_ds(t, 3), key_col="k", order_col="o",
                            val_col="v")
    assert got.num_rows == 0


def test_first_last_by_matches_pandas():
    from alco_ray.stages.window import first_last_by

    t = _events(seed=21)
    out = first_last_by(_ds(t, 7), key_col="user_id", ts_col="ts",
                        id_col="event_id", val_col="event_type",
                        first_col="first_type", last_col="last_type",
                        n_col="n_events")
    got = {r["user_id"]: (r["first_type"], r["last_type"], r["n_events"])
           for r in out.take_all()}
    df = t.to_pandas().sort_values(["ts", "event_id"])
    want = {}
    for uid, g in df.groupby("user_id"):
        want[uid] = (g["event_type"].iloc[0], g["event_type"].iloc[-1],
                     len(g))
    assert got == want


def test_first_last_by_ties_on_ts():
    from alco_ray.stages.window import first_last_by

    ts = np.repeat(np.datetime64("2024-01-01", "us"), 4)
    t = pa.table({"event_id": pa.array([3, 1, 2, 0], pa.int64()),
                  "user_id": pa.array([7, 7, 7, 7], pa.int64()),
                  "ts": pa.array(ts),
                  "event_type": pa.array(["d", "b", "c", "a"])})
    out = first_last_by(_ds(t, 2), key_col="user_id", ts_col="ts",
                        id_col="event_id", val_col="event_type").take_all()
    assert out == [{"user_id": 7, "first_val": "a", "last_val": "d",
                    "n": 4}]


# --------------------------------------------------------------- bloom


def test_bloom_no_false_negatives_and_fp_rate():
    from alco_ray.stages.sketch import bloom_probe, bloom_words

    rng = np.random.RandomState(17)
    members = rng.randint(0, 2**63, 5000).astype(np.uint64)
    others = rng.randint(0, 2**63, 20000).astype(np.uint64)
    others = others[~np.isin(others, members)]
    m_bits, k = 1 << 17, 6
    w = bloom_words(members, m_bits, k)
    assert bloom_probe(members, w, m_bits, k).all()  # never-FN law
    fp = bloom_probe(others, w, m_bits, k).mean()
    assert fp < 0.02, fp  # ~m/n=26 bits/key, k=6 -> well under 2%


def test_bloom_merge_is_elementwise_or():
    from alco_ray.stages.sketch import bloom_words

    rng = np.random.RandomState(23)
    a = rng.randint(0, 2**63, 100).astype(np.uint64)
    b = rng.randint(0, 2**63, 100).astype(np.uint64)
    m_bits, k = 1 << 12, 4
    assert (bloom_words(np.concatenate([a, b]), m_bits, k)
            == (bloom_words(a, m_bits, k) | bloom_words(b, m_bits, k))).all()


def test_decontaminate_bloom_equals_exact_plan(monkeypatch):
    from alco_ray.stages import dedup
    from alco_ray.stages.dedup import decontaminate, decontaminate_bloom

    rng = np.random.RandomState(31)
    words = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(words, 12)) for _ in range(80)]
    texts[7] = texts[3]  # planted exact overlap with the bench side
    texts[11] = " ".join(texts[5].split()[:6]) + " zz qq"
    t = pa.table({"doc_id": pa.array(np.arange(80, dtype=np.int64)),
                  "text": pa.array(texts)})
    bench = pa.table({"doc_id": pa.array([3, 5], pa.int64()),
                      "text": pa.array([texts[3], texts[5]])})
    cand = t.filter(pa.array(~np.isin(np.arange(80), [3, 5])))
    exact = {r["doc_id"]: r["n_hit_grams"]
             for r in decontaminate(_ds(cand, 5), _ds(bench, 1)).take_all()}
    # a small filter, so that false positives happen
    monkeypatch.setattr(dedup, "BLOOM_BITS", 1 << 14)
    bloom = {r["doc_id"]: r["n_hit_grams"]
             for r in decontaminate_bloom(_ds(cand, 5),
                                          _ds(bench, 1)).take_all()}
    assert exact == bloom
    assert exact[7] > 0


# --------------------------------------------------------- match_all probe


def test_match_all_probe_intersects_terms(tmp_path):
    import ray.data

    from alco_ray.stages.textindex import build_text_index, match_all_probe

    n = 300
    rng = np.random.RandomState(13)
    ts = (np.datetime64("2024-02-01T00:00:00", "us")
          + rng.randint(0, 10, n).astype("timedelta64[D]").astype(
              "timedelta64[us]")
          + rng.randint(0, 86_400_000_000, n).astype("timedelta64[us]"))
    words = np.array(["alpha", "bravo", "charlie", "delta"])
    text = np.array([" ".join(rng.choice(words, 3)) for _ in range(n)],
                    dtype=object)
    # plant rows holding BOTH needles, plus rows holding only one
    for i in (5, 50, 123):
        text[i] = "alpha needleA filler needleB"
    for i in (7, 90):
        text[i] = "needleA only here"
    parsed = pa.table({
        "conv_id": pa.array([f"c{i % 17}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
        "parsed_ts": pa.array(ts),
        "level": pa.array(rng.choice(np.array(["INFO", "ERROR"]), n),
                          pa.string()),
        "text": pa.array(list(text), pa.string()),
    })
    idx = tmp_path / "tidx2"
    build_text_index(ray.data.from_arrow(parsed), idx, n_buckets=64)
    stats = {}
    got = match_all_probe(idx, ["needlea", "needleb"], k=100,
                          stats_out=stats).to_pandas()
    assert sorted(got["turn_idx"]) == [5, 50, 123]
    # pruned: at most one bucket dir per distinct term
    dirs = {str(Path(f).parent) for f in stats["posting_files"]}
    assert 1 <= len(dirs) <= 2
    # absent combination: clean empty, no doc reads
    s2 = {}
    miss = match_all_probe(idx, ["needlea", "zzznope"], k=10,
                           stats_out=s2).to_pandas()
    assert len(miss) == 0 and s2["doc_files"] == []


def test_phrase_probe_exact_adjacency(tmp_path):
    import ray.data

    from alco_ray.stages.textindex import build_text_index, phrase_probe

    n = 200
    rng = np.random.RandomState(19)
    ts = (np.datetime64("2024-03-01T00:00:00", "us")
          + rng.randint(0, 5, n).astype("timedelta64[D]").astype(
              "timedelta64[us]")
          + rng.randint(0, 86_400_000_000, n).astype("timedelta64[us]"))
    words = np.array(["alpha", "bravo", "charlie"])
    text = np.array([" ".join(rng.choice(words, 4)) for _ in range(n)],
                    dtype=object)
    text[3] = "pad aa bb pad"          # adjacent -> hit
    text[9] = "aa pad bb"              # both present, NOT adjacent
    text[15] = "bb aa"                 # reversed order -> no hit
    text[21] = "aa aa bb"              # repeated first term -> hit
    parsed = pa.table({
        "conv_id": pa.array([f"c{i % 11}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
        "parsed_ts": pa.array(ts),
        "level": pa.array(rng.choice(np.array(["INFO", "ERROR"]), n),
                          pa.string()),
        "text": pa.array(list(text), pa.string()),
    })
    idx = tmp_path / "tidx3"
    build_text_index(ray.data.from_arrow(parsed), idx, n_buckets=64)
    got = phrase_probe(idx, ["aa", "bb"], k=100).to_pandas()
    assert sorted(got["turn_idx"]) == [3, 21]
    # repeated-term phrase: 'aa aa' matches only the doubled turn
    got2 = phrase_probe(idx, ["aa", "aa"], k=100).to_pandas()
    assert sorted(got2["turn_idx"]) == [21]


def test_grouped_rolling_sum_matches_pandas():
    from alco_ray.stages.window import grouped_rolling_sum

    t = _events(seed=29)

    def cents(b):
        import pyarrow.compute as pc2
        return b.append_column(
            "v", pc2.cast(b["event_id"], pa.int64()))

    ds = _ds(t, 7).map_batches(cents, batch_format="pyarrow")
    out = grouped_rolling_sum(ds, key_col="user_id", ts_col="ts",
                              id_col="event_id", val_col="v", frame=3)
    got = {r["event_id"]: r["roll"] for r in out.take_all()}
    df = t.to_pandas()
    df["v"] = df["event_id"].astype("int64")
    df = df.sort_values(["user_id", "ts", "event_id"])
    df["want"] = (df.groupby("user_id")["v"]
                  .rolling(3, min_periods=1).sum()
                  .reset_index(level=0, drop=True).astype("int64"))
    want = dict(zip(df["event_id"], df["want"]))
    assert got == want
