"""Round-3g operators: radius cosine search, context-window chunking,
and the TPC-H composition queries' kernels (partition-local argmax,
integer avg cross-multiply, empty-fold schema).

Each operator is compared against an independent brute force (numpy /
pandas) on small adversarial inputs — ties in the argmax, chunk sizes
that don't divide the token count, docs with zero tokens, an empty
radius result.  The driver's DuckDB oracles pin the same semantics at
sf0.01; these pin them at commit time.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _emb_table(seed: int = 7, n: int = 200, d: int = 16):
    rng = np.random.RandomState(seed)
    m = rng.randn(n, d).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(m), pa.list_(pa.float32())),
    }), m


def _ds(table, n_blocks: int = 5):
    import ray.data

    return ray.data.from_arrow(table).repartition(n_blocks)


def test_range_search_matches_bruteforce():
    from alco_ray.stages.similarity import range_search

    t, m = _emb_table()
    q = np.asarray(m[3], dtype=np.float64)
    sims = (m.astype(np.float64) @ (q / np.linalg.norm(q)))
    sims = sims / np.linalg.norm(m.astype(np.float64), axis=1)
    for tau in (0.0, 0.2, 0.5):
        got = range_search(_ds(t), q, tau).to_pandas()
        want = set(np.flatnonzero(sims >= tau).tolist())
        assert set(got["vec_id"].tolist()) == want
        assert len(got) == len(want)  # no duplicate emission


def test_knn_brute_multi_matches_per_query():
    from alco_ray.stages.similarity import knn_brute, knn_brute_multi

    t, m = _emb_table(seed=3, n=150)
    qids = np.array([7, 42, 99], dtype=np.int64)
    qmat = m[[7, 42, 99]].astype(np.float64)
    got = knn_brute_multi(_ds(t, 4), qmat, qids, k=8).to_pandas()
    assert len(got) == 3 * 8
    for qid, qv in zip(qids, qmat):
        sub = got[got["qid"] == qid].sort_values("rank")
        want = knn_brute(_ds(t, 4), qv, k=8).to_pandas()
        assert sub["vec_id"].tolist() == want["vec_id"].tolist()
        assert sub["rank"].tolist() == want["rank"].tolist()


def test_knn_brute_multi_k_exceeds_corpus():
    from alco_ray.stages.similarity import knn_brute_multi

    t, m = _emb_table(seed=9, n=5)
    got = knn_brute_multi(_ds(t, 2), m[:2].astype(np.float64),
                          np.array([0, 1]), k=10).to_pandas()
    # k > corpus: every vector ranked once per query, no padding rows
    assert sorted(got[got["qid"] == 0]["vec_id"].tolist()) == list(range(5))
    assert sorted(got[got["qid"] == 1]["vec_id"].tolist()) == list(range(5))
    assert got.groupby("qid")["rank"].max().tolist() == [5, 5]


def test_range_search_empty_result():
    from alco_ray.stages.similarity import range_search

    t, m = _emb_table(n=40)
    got = range_search(_ds(t, 3), m[0], 1.5).to_pandas()
    assert len(got) == 0


def test_chunk_documents_reassembly():
    from alco_ray.stages.parse import tokenize
    from alco_ray.stages.text import chunk_documents

    rng = np.random.RandomState(23)
    words = np.array(["alpha", "beta", "Gamma", "d7", "echo-five"])
    texts = [" ".join(rng.choice(words, rng.randint(0, 23)))
             for _ in range(40)]
    texts[5] = ""            # zero tokens -> no chunks
    texts[9] = "?!,  ..."    # punctuation-only -> zero tokens
    batch = pa.table({"doc_id": pa.array(np.arange(40, dtype=np.int64)),
                      "text": pa.array(texts)})
    out = chunk_documents(batch, chunk_size=5)
    toks = tokenize(batch["text"], batch.num_rows).to_pylist()
    by_doc: dict[int, list] = {}
    for r in out.to_pylist():
        by_doc.setdefault(r["doc_id"], []).append(r)
    for i, tk in enumerate(toks):
        rows = sorted(by_doc.get(i, []), key=lambda r: r["chunk_idx"])
        if not tk:
            assert rows == []
            continue
        # contiguous chunk ids, exact text reassembly, size law
        assert [r["chunk_idx"] for r in rows] == list(range(len(rows)))
        assert " ".join(r["chunk_text"] for r in rows) == " ".join(tk)
        assert all(r["n_tokens"] == 5 for r in rows[:-1])
        assert rows[-1]["n_tokens"] == len(tk) - 5 * (len(rows) - 1)
        assert all(len(r["chunk_text"].split(" ")) == r["n_tokens"]
                   for r in rows)


def test_chunk_documents_exact_multiple():
    from alco_ray.stages.text import chunk_documents

    batch = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array([" ".join(["w"] * 10)])})
    out = chunk_documents(batch, chunk_size=5).to_pylist()
    assert [r["n_tokens"] for r in out] == [5, 5]
    assert [r["chunk_text"] for r in out] == ["w w w w w"] * 2


def _write_sf(tmp_path, tables: dict[str, pa.Table]) -> str:
    d = tmp_path / "sf"
    d.mkdir()
    for name, t in tables.items():
        pq.write_table(t, d / f"{name}.parquet")
    return str(d)


def test_top_supplier_emits_all_tied_maxima(tmp_path):
    from alco_ray.pipelines.queries import q_top_supplier

    # suppliers 1 and 2 tie exactly; 3 trails.
    li = pa.table({
        "l_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "l_suppkey": pa.array([1, 2, 2, 3], pa.int64()),
        "l_extendedprice": pa.array([100.0, 60.0, 40.0, 10.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0]),
    })
    sup = pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["s1", "s2", "s3"]),
    })
    sf = _write_sf(tmp_path, {"lineitem": li, "supplier": sup})
    got = q_top_supplier(sf).to_pandas().sort_values("s_suppkey")
    assert got["s_suppkey"].tolist() == [1, 2]
    assert got["total_units"].tolist() == [100_00 * 100] * 2


def test_avg_qty_joinback_integer_law(tmp_path):
    from alco_ray.pipelines.queries import q_avg_qty_joinback

    rng = np.random.RandomState(5)
    n = 300
    partkeys = rng.randint(1, 30, n).astype(np.int64)
    qty = rng.randint(1, 50, n).astype(np.float64)
    price = np.round(rng.uniform(10, 500, n), 2)
    li = pa.table({
        "l_partkey": pa.array(partkeys),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(price),
    })
    part = pa.table({
        "p_partkey": pa.array(np.arange(1, 30, dtype=np.int64)),
        "p_brand": pa.array(["Brand#4" if k % 3 == 0 else "Brand#1"
                             for k in range(1, 30)]),
    })
    sf = _write_sf(tmp_path, {"lineitem": li, "part": part})
    got = q_avg_qty_joinback(sf).to_pandas()

    brand = {k for k in range(1, 30) if k % 3 == 0}
    mask = np.isin(partkeys, list(brand))
    q = qty.astype(np.int64)
    cents = np.round(price * 100).astype(np.int64)
    total = n_rows = 0
    for k in brand:
        sel = partkeys == k
        if not sel.any():
            continue
        sq, cnt = q[sel].sum(), sel.sum()
        keep = sel & (5 * q * cnt < sq)
        total += int(cents[keep].sum())
        n_rows += int(keep.sum())
    assert got["total_cents"].tolist() == [total]
    assert got["n_rows"].tolist() == [n_rows]
    assert mask.any()  # the planted brand subset is non-trivial


def _qc_ds(vals, n_blocks=6):
    import ray.data

    return ray.data.from_arrow(
        pa.table({"value": pa.array(vals, pa.float64())})
    ).repartition(n_blocks)


def test_quantile_cont_matches_sorted_bruteforce(monkeypatch):
    import math

    from alco_ray.stages import aggregate
    from alco_ray.stages.aggregate import quantile_cont

    rng = np.random.RandomState(1)
    vals = rng.randn(5000) * 37.0
    # tiny COLLECT_LIMIT forces the histogram refinement path
    monkeypatch.setattr(aggregate, "COLLECT_LIMIT", 50)
    out = quantile_cont(_qc_ds(vals), "value",
                        [0.0, 0.25, 0.5, 0.9, 1.0]).to_pydict()
    s = np.sort(vals)
    n = len(s)
    for i, p in enumerate(out["p"]):
        idx = p * (n - 1)
        assert out["lo_value"][i] == s[math.floor(idx)]
        assert out["hi_value"][i] == s[math.ceil(idx)]


def test_quantile_cont_duplicate_heavy(monkeypatch):
    from alco_ray.stages import aggregate
    from alco_ray.stages.aggregate import quantile_cont

    monkeypatch.setattr(aggregate, "COLLECT_LIMIT", 10)
    # all-equal column: every percentile is that value
    out = quantile_cont(_qc_ds(np.full(4000, 3.25)), "value",
                        [0.5]).to_pydict()
    assert out["lo_value"] == [3.25] and out["hi_value"] == [3.25]
    # two ulp-adjacent floats, mass too big to collect: the ulp
    # termination rules must resolve, not loop
    b = np.nextafter(1.0, 2.0)
    vals = np.concatenate([np.full(3000, 1.0), np.full(3000, b)])
    out = quantile_cont(_qc_ds(vals), "value", [0.25, 0.75]).to_pydict()
    assert out["lo_value"] == [1.0, b] and out["hi_value"] == [1.0, b]


def test_quantile_cont_nulls_and_empty():
    from alco_ray.stages.aggregate import quantile_cont

    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "value": pa.array([None, 2.0, None, 1.0, 3.0], pa.float64())}))
    out = quantile_cont(ds, "value", [0.5]).to_pydict()
    assert out["lo_value"] == [2.0] and out["hi_value"] == [2.0]
    empty = quantile_cont(_qc_ds(np.array([], np.float64), 1), "value",
                          [0.5])
    assert empty.num_rows == 0


def test_order_stats_cont_rank_bounds(monkeypatch):
    from alco_ray.stages import aggregate
    from alco_ray.stages.aggregate import order_stats_cont

    ds = _qc_ds(np.arange(10, dtype=np.float64), 2)
    with pytest.raises(ValueError):
        order_stats_cont(ds, "value", [10])
    monkeypatch.setattr(aggregate, "COLLECT_LIMIT", 2)
    got = order_stats_cont(ds, "value", [0, 9])
    assert got == {0: 0.0, 9: 9.0}


def test_mixture_resample_exact_copies():
    import ray.data

    from alco_ray.stages.sample import HASH_MOD, HASH_MULT, mixture_resample

    n = 400
    ids = np.arange(n, dtype=np.int64)
    srcs = np.array(["a", "b", "c", "d"])[ids % 4]
    t = pa.table({"doc_id": pa.array(ids), "source": pa.array(srcs)})
    rates = {"a": 0.0, "b": 0.5, "c": 1.0, "d": 2.25}
    out = mixture_resample(ray.data.from_arrow(t).repartition(5),
                           rates).to_pandas()
    # brute force: floor(r) copies + 1 iff hash below frac threshold
    h = (ids * HASH_MULT) % HASH_MOD
    want = {}
    for i, s in zip(ids, srcs):
        r = rates[s]
        k = int(np.floor(r)) + (h[i] < np.floor((r - np.floor(r))
                                                * HASH_MOD))
        if k:
            want[int(i)] = k
    got = out.groupby("doc_id")["copy_idx"].agg(["count", "max"])
    assert {int(i): int(c) for i, c in got["count"].items()} == want
    # copy_idx is 0..k-1 per row
    assert (got["max"] == got["count"] - 1).all()
    # source a fully dropped, c exactly preserved
    assert not (out["source"] == "a").any()
    assert (out["source"] == "c").sum() == (srcs == "c").sum()


def test_mixture_resample_unmapped_source_raises():
    import ray.data

    from alco_ray.stages.sample import mixture_resample

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "source": pa.array(["a", "zz"])})
    ds = mixture_resample(ray.data.from_arrow(t), {"a": 1.0})
    with pytest.raises(Exception, match="zz"):
        ds.materialize()


def test_grouped_range_count_matches_pandas():
    import pandas as pd
    import ray.data

    from alco_ray.stages.window import grouped_range_count

    rng = np.random.RandomState(17)
    n = 800
    users = rng.randint(0, 25, n).astype(np.int64)
    # coarse second grid plants plenty of exact-tie peers
    ts = np.datetime64("2026-01-01", "us") + \
        rng.randint(0, 3600 * 4, n).astype("timedelta64[s]").astype(
            "timedelta64[us]")
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(users),
        "ts": pa.array(ts.astype("datetime64[us]")),
    })
    interval = 900 * 1_000_000  # 15 min
    got = grouped_range_count(
        ray.data.from_arrow(t).repartition(6), key_col="user_id",
        ts_col="ts", id_col="event_id", interval_us=interval,
        out_col="n_range").to_pandas().set_index("event_id")["n_range"]
    df = pd.DataFrame({"u": users, "t": ts.view(np.int64),
                       "e": np.arange(n)})
    for _, r in df.iterrows():
        want = ((df["u"] == r["u"]) & (df["t"] >= r["t"] - interval)
                & (df["t"] <= r["t"])).sum()
        assert got[r["e"]] == want


def test_grouped_range_count_peers_included():
    import ray.data

    from alco_ray.stages.window import grouped_range_count

    # three rows, identical ts: RANGE frame counts all three for each
    t = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "user_id": pa.array([7, 7, 7], pa.int64()),
        "ts": pa.array(np.full(3, np.datetime64("2026-01-01", "us"))),
    })
    got = grouped_range_count(
        ray.data.from_arrow(t), key_col="user_id", ts_col="ts",
        id_col="event_id", interval_us=1).to_pandas()
    assert got["n_range"].tolist() == [3, 3, 3]


def test_group_order_stats_matches_numpy():
    import math

    import ray.data

    from alco_ray.stages.aggregate import group_order_stats

    rng = np.random.RandomState(29)
    n = 600
    keys = rng.randint(0, 40, n).astype(np.int64)
    vals = rng.randn(n) * 11.0
    vals[3] = np.nan  # nulls excluded per contract
    t = pa.table({"user_id": pa.array(keys),
                  "value": pa.array(vals, pa.float64())})
    for p in (0.0, 0.5, 0.9):
        got = group_order_stats(
            ray.data.from_arrow(t).repartition(5), "user_id", "value",
            p).to_pandas().set_index("user_id").sort_index()
        for k in np.unique(keys):
            s = np.sort(vals[(keys == k) & ~np.isnan(vals)])
            idx = p * (len(s) - 1)
            assert got.loc[k, "lo_value"] == s[math.floor(idx)]
            assert got.loc[k, "hi_value"] == s[math.ceil(idx)]


def test_curate_chain_laws(tmp_path):
    from alco_ray.pipelines.queries import d_curate

    good = " ".join(["the word"] * 40)       # 80 tokens, 50% stopwords
    other = " ".join(["of thing"] * 35)      # 70 tokens, 50% stopwords
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["too short", good, good, other]),
    })
    sf = _write_sf(tmp_path, {"documents": docs})
    got = d_curate(sf).to_pandas()
    # low-quality doc 1 dropped; duplicate doc 3 collapsed into doc 2
    assert set(got["doc_id"]) == {2, 4}
    # chunk arithmetic: 80 tokens -> 64 + 16; 70 -> 64 + 6
    d2 = got[got["doc_id"] == 2].sort_values("chunk_idx")
    assert d2["n_tokens"].tolist() == [64, 16]
    d4 = got[got["doc_id"] == 4].sort_values("chunk_idx")
    assert d4["n_tokens"].tolist() == [64, 6]
    joined = " ".join(d2["chunk_text"])
    assert joined == good  # exact reassembly through the whole chain


def _parsed_corpus(n=240, seed=31):
    rng = np.random.RandomState(seed)
    ts = (np.datetime64("2024-03-01T00:00:00", "us")
          + rng.randint(0, 8, n).astype("timedelta64[D]").astype(
              "timedelta64[us]")
          + rng.randint(0, 86_400_000_000, n).astype("timedelta64[us]"))
    words = np.array(["alpha", "bravo", "charlie", "delta"])
    text = np.array([" ".join(rng.choice(words, 3)) for _ in range(n)],
                    dtype=object)
    for i in (4, 40):
        text[i] = "wantA filler here"
    for i in (9, 90):
        text[i] = "wantB other filler"
    text[120] = "wantA and wantB both"
    return pa.table({
        "conv_id": pa.array([f"c{i % 13}" for i in range(n)], pa.string()),
        "turn_idx": pa.array(np.arange(n, dtype=np.int32)),
        "parsed_ts": pa.array(ts),
        "level": pa.array(rng.choice(np.array(["INFO", "ERROR"]), n),
                          pa.string()),
        "text": pa.array(list(text), pa.string()),
    })


def test_match_any_probe_unions_and_dedupes(tmp_path):
    import ray.data

    from alco_ray.stages.textindex import build_text_index, match_any_probe

    parsed = _parsed_corpus()
    idx = tmp_path / "tidx_or"
    build_text_index(ray.data.from_arrow(parsed), idx, n_buckets=64)
    got = match_any_probe(idx, ["wanta", "wantb"], k=100).to_pandas()
    # union of both needles, the double-match row exactly once
    assert sorted(got["turn_idx"]) == [4, 9, 40, 90, 120]
    miss = match_any_probe(idx, ["zzznope"], k=10).to_pandas()
    assert len(miss) == 0


@pytest.fixture(scope="module")
def parsed_index(tmp_path_factory):
    import ray.data

    from alco_ray.stages.textindex import build_text_index

    idx = tmp_path_factory.mktemp("tidx") / "index"
    build_text_index(ray.data.from_arrow(_parsed_corpus()), idx,
                     n_buckets=64)
    return idx


_TURN_COLS = ["conv_id", "turn_idx", "parsed_ts", "text"]
_RANKED_COLS = ["conv_id", "turn_idx", "score", "parsed_ts", "text"]


@pytest.mark.parametrize("probe, args, cols", [
    ("grep_probe", ("zzznope",), _TURN_COLS),
    ("match_all_probe", (["wanta", "zzznope"],), _TURN_COLS),
    ("match_any_probe", (["zzznope"],), _TURN_COLS),
    ("phrase_probe", (["wanta", "zzznope"],), _TURN_COLS),
    ("near_probe", ("wanta", "zzznope"), _TURN_COLS),
    ("ranked_probe", (["zzznope"],), _RANKED_COLS),
    ("ranked_bm25_probe", (["zzznope"],), _RANKED_COLS),
])
def test_probe_of_absent_term_is_typed_empty(parsed_index, probe, args,
                                             cols):
    """A term the index lacks: zero rows, the probe's columns, and no
    docstore read."""
    from alco_ray.stages import textindex

    stats = {}
    out = getattr(textindex, probe)(parsed_index, *args, k=10,
                                    stats_out=stats)
    assert out.count() == 0
    assert out.schema().names == cols
    assert stats["doc_files"] == []


def test_read_evolving_transcripts_fill_and_prune(tmp_path):
    import ray.data

    from alco_ray.sources import read_evolving_transcripts

    ts = pa.array(np.full(3, np.datetime64("2024-01-02T03:04:05", "us")))
    full = pa.table({
        "conv_id": pa.array(["a", "b", "c"]),
        "turn_idx": pa.array([0, 1, 2], pa.int32()),
        "role": pa.array(["user", "assistant", "tool"]),
        "text": pa.array(["t1", "t2", "t3"]),
        "tool": pa.array(["x", None, "z"]),
        "ts": ts,
    })
    # generation 1: tool column doesn't exist yet
    old = full.drop_columns(["tool"]).slice(0, 2)
    # generation 3: an extra since-dropped column + int64 turn_idx
    extra = pa.table({
        "conv_id": pa.array(["d"]),
        "turn_idx": pa.array([9], pa.int64()),
        "role": pa.array(["user"]),
        "text": pa.array(["t4"]),
        "tool": pa.array(["w"]),
        "ts": ts.slice(0, 1),
        "legacy_debug": pa.array(["gone"]),
    })
    pq.write_table(old, tmp_path / "s0.parquet")
    pq.write_table(full.slice(2), tmp_path / "s1.parquet")
    pq.write_table(extra, tmp_path / "s2.parquet")
    got = read_evolving_transcripts(str(tmp_path)).to_pandas() \
        .sort_values("conv_id").reset_index(drop=True)
    assert list(got.columns) == ["conv_id", "turn_idx", "role", "text",
                                 "tool", "ts"]           # extra pruned
    assert got["tool"].tolist()[:2] == [None, None]      # missing filled
    assert got["tool"].tolist()[2:] == ["z", "w"]
    assert got["turn_idx"].tolist() == [0, 1, 2, 9]      # int64 -> int32
    assert str(got["turn_idx"].dtype) == "int32"
    assert len(got) == 4


def test_asof_lookup_matches_merge_asof():
    import pandas as pd
    import ray.data

    from alco_ray.stages.window import asof_lookup

    rng = np.random.RandomState(41)
    dim_ts = np.sort(rng.choice(
        np.arange(100, 10_000, 7), size=40, replace=False))
    dim = pa.table({
        "dts": pa.array(dim_ts.astype("datetime64[us]")),
        "ref": pa.array(np.arange(40, dtype=np.int64) * 10),
    })
    # fact ts straddle the dim range, incl. BEFORE the first dim row
    fts = rng.randint(0, 12_000, 300).astype("datetime64[us]")
    facts = pa.table({
        "event_id": pa.array(np.arange(300, dtype=np.int64)),
        "ts": pa.array(fts),
    })
    got = asof_lookup(ray.data.from_arrow(facts).repartition(4), dim,
                      ts_col="ts", dim_ts_col="dts",
                      payload_col="ref").to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    want = pd.merge_asof(
        facts.to_pandas().sort_values("ts"),
        dim.to_pandas().rename(columns={"dts": "ts"}),
        on="ts", direction="backward").sort_values("event_id")
    assert got["ref"].fillna(-1).tolist() == \
        want["ref"].fillna(-1).tolist()
    # pre-dim facts are null, not clamped to the first row
    assert got.loc[got["ts"] < pd.Timestamp(dim_ts[0].item()),
                   "ref"].isna().all()


def test_asof_lookup_rejects_tied_dimension():
    import ray.data

    from alco_ray.stages.window import asof_lookup

    dim = pa.table({"dts": pa.array(np.array([5, 5], "datetime64[us]")),
                    "ref": pa.array([1, 2], pa.int64())})
    facts = ray.data.from_arrow(pa.table({
        "ts": pa.array(np.array([6], "datetime64[us]"))}))
    with pytest.raises(ValueError, match="one row per distinct"):
        asof_lookup(facts, dim, ts_col="ts", dim_ts_col="dts",
                    payload_col="ref")


def _ppm(w, h, px):
    return b"P6\n%d %d\n255\n" % (w, h) + px.astype(np.uint8).tobytes()


def test_ppm_decoder_real_pixels_and_poison():
    from alco_ray.stages.multimodal import PpmDecoder

    rng = np.random.RandomState(3)
    px = rng.randint(0, 256, (6, 4, 3))
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "payload": pa.array([
            _ppm(4, 6, px),
            b"not an image",
            _ppm(2, 2, np.zeros((2, 2, 3))) + b"trailing-junk",
        ], pa.binary()),
    })
    got = PpmDecoder()(batch).to_pylist()
    assert got[0]["decode_ok"] and (got[0]["width"], got[0]["height"]) \
        == (4, 6)
    want = px.reshape(-1, 3).sum(axis=0) // 24
    assert [got[0][c] for c in ("mean_r", "mean_g", "mean_b")] \
        == want.tolist()
    # poison payloads survive as flagged rows, not crashes
    assert not got[1]["decode_ok"] and got[1]["width"] is None
    assert not got[2]["decode_ok"]  # body-length mismatch


def test_ppm_resizer_box_filter():
    from alco_ray.stages.multimodal import PpmResizer

    # non-constant 4x2: each 2x2 block mean must be the exact floor avg
    px = np.array([[[0, 0, 0], [4, 8, 12], [100, 0, 0], [0, 0, 0]],
                   [[8, 0, 0], [5, 1, 3], [0, 0, 0], [3, 0, 1]]])
    batch = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "payload": pa.array([_ppm(4, 2, px),
                             _ppm(3, 2, np.zeros((2, 3, 3)))],  # odd w
                            pa.binary()),
    })
    got = PpmResizer()(batch).to_pylist()
    assert got[0]["decode_ok"] and (got[0]["width"], got[0]["height"]) \
        == (2, 1)
    small = (px.astype(np.int64).reshape(1, 2, 2, 2, 3)
             .sum(axis=(1, 3)) // 4)
    want = small.reshape(-1, 3).sum(axis=0) // 2
    assert [got[0][c] for c in ("mean_r", "mean_g", "mean_b")] \
        == want.tolist()
    assert not got[1]["decode_ok"]  # odd dims rejected, not mangled


def test_wav_decoder_real_samples_and_poison():
    import struct

    from alco_ray.stages.multimodal import WavDecoder

    def wav(rate, samples, extra_chunk=False):
        data = np.asarray(samples, dtype="<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
        if extra_chunk:  # odd-sized chunk exercises word alignment
            body += b"LIST" + struct.pack("<I", 3) + b"abc\x00"
        body += b"data" + struct.pack("<I", len(data)) + data
        return b"RIFF" + struct.pack("<I", len(body)) + body

    s = np.array([100, -300, 250, 0, -50], dtype=np.int64)
    stereo_fmt = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
    stereo = (b"RIFF" + struct.pack("<I", 36) + b"WAVEfmt "
              + struct.pack("<I", 16) + stereo_fmt
              + b"data" + struct.pack("<I", 4) + b"\x00\x00\x00\x00")
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "payload": pa.array([
            wav(16000, s, extra_chunk=True),
            b"RIFF....not-wave",
            stereo,                       # non-mono rejected
            wav(8000, []),                # empty data rejected
        ], pa.binary()),
    })
    got = WavDecoder()(batch).to_pylist()
    assert got[0]["decode_ok"]
    assert got[0]["sample_rate"] == 16000
    assert got[0]["n_samples"] == 5
    assert got[0]["duration_us"] == 5 * 1_000_000 // 16000
    assert got[0]["peak"] == 300
    assert got[0]["mean_amp"] == int(s.sum()) // 5
    assert [r["decode_ok"] for r in got[1:]] == [False, False, False]
    assert got[1]["sample_rate"] is None


def test_learned_langid_discriminates_real_languages():
    import ray.data

    from alco_ray.stages.text import (fit_trigram_profiles,
                                      predict_lang_learned)

    words = {
        "xx": ["zarquon", "blenth", "croswick", "drunver", "quiblex"],
        "yy": ["amarillo", "estrella", "ventana", "orilla", "manzana"],
        "zz": ["schiff", "strasse", "fenster", "gebirge", "pfeffer"],
    }
    shared = ["data", "the", "row"]

    def corpus(n, seed_off):
        r = np.random.RandomState(100 + seed_off)
        ids, texts, langs = [], [], []
        for i in range(n):
            lang = ["xx", "yy", "zz"][i % 3]
            pool = words[lang] + shared
            texts.append(" ".join(r.choice(pool, 25)))
            langs.append(lang)
            ids.append(i + seed_off * 10_000)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text": pa.array(texts),
                         "lang": pa.array(langs)})

    train = corpus(120, 0)
    test = corpus(90, 1)  # held out: different draw, same languages
    profiles = fit_trigram_profiles(
        ray.data.from_arrow(train).repartition(4))
    assert sorted(profiles) == ["xx", "yy", "zz"]
    got = predict_lang_learned(
        ray.data.from_arrow(test).repartition(3), profiles).to_pandas()
    truth = test.to_pandas()[["doc_id", "lang"]]
    m = got.merge(truth, on="doc_id")
    acc = (m["pred_lang"] == m["lang"]).mean()
    assert acc >= 0.95, acc
    # zero-overlap text predicts '' (no evidence beats a wrong guess)
    garbage = pa.table({"doc_id": pa.array([1], pa.int64()),
                        "text": pa.array(["00 11 22 33 44 55 66 77"])})
    g = predict_lang_learned(ray.data.from_arrow(garbage),
                             profiles).to_pandas()
    assert g["pred_lang"].tolist() == [""]


def test_fold_partials_empty_schema():
    import ray.data

    from alco_ray.stages.aggregate import fold_partials

    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    empty = ray.data.from_arrow(schema.empty_table()).map_batches(
        lambda b: b, batch_format="pyarrow")
    out = fold_partials(empty, ["k"], [("v", "sum")], empty_schema=schema)
    assert out.num_rows == 0
    assert out.column_names == ["k", "v"]
    with pytest.raises(Exception):
        fold_partials(empty, ["k"], [("v", "sum")])  # unknowable schema


def test_bm25_probe_and_incremental_totals(tmp_path):
    """BM25 and tf-weighted rankings against a Python brute force, and
    the v3 token totals (the avgdl inputs) the build records in
    meta.json."""
    import json

    import ray.data

    from alco_ray.stages.parse import TOKENIZE_SPLIT
    from alco_ray.stages.textindex import (build_text_index,
                                           ranked_bm25_probe, ranked_probe)

    parsed = _parsed_corpus()
    full_idx = tmp_path / "tidx_bm_full"
    build_text_index(ray.data.from_arrow(parsed), full_idx, n_buckets=64)
    terms = ["wanta", "wantb"]
    got = ranked_bm25_probe(full_idx, terms, k=10).to_pandas()
    got_tf = ranked_probe(full_idx, terms, k=10).to_pandas()

    # brute-force the integer BM25 in Python
    import re

    toks = [[t for t in re.split(TOKENIZE_SPLIT, s.lower()) if t]
            for s in parsed["text"].to_pylist()]
    n = len(toks)
    tot = sum(len(t) for t in toks)
    avgdl_q = (tot * 1000) // n
    df = {w: sum(w in t for t in toks) for w in terms}
    want_scores, tf_scores = {}, {}
    for i, t in enumerate(toks):
        s = s_tf = 0
        for w in terms:
            tf = t.count(w)
            if not tf or not df[w]:
                continue
            wt = ((2 * n - 2 * df[w] + 1) * 1_000_000) // (2 * df[w] + 1)
            den = 10 * avgdl_q * tf + 3 * avgdl_q + 9000 * len(t)
            s += wt * ((22 * tf * avgdl_q * 10_000) // den)
            s_tf += tf * wt
        key = (parsed["conv_id"][i].as_py(), parsed["turn_idx"][i].as_py())
        if s:
            want_scores[key] = s
        if s_tf:
            tf_scores[key] = s_tf
    for _, r in got.iterrows():
        assert want_scores[(r.conv_id, r.turn_idx)] == r.score
    assert len(got) == min(10, len(want_scores))
    # length normalization is live: scores differ from pure tf*w
    assert got["score"].nunique() > 1
    # ranked_probe: score = sum tf * w, the whole ranking in order
    # (score desc, conv_id, turn_idx), N read from meta.json
    want_tf = sorted(tf_scores.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [((r.conv_id, r.turn_idx), r.score)
            for r in got_tf.itertuples()] == want_tf[:10]
    assert list(got_tf.columns) == ["conv_id", "turn_idx", "score",
                                    "parsed_ts", "text"]

    # the avgdl inputs in meta.json are the corpus totals
    meta = json.loads((full_idx / "meta.json").read_text())
    assert meta["n_turns"] == n and meta["total_tokens"] == tot
