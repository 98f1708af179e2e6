"""Round-5 second-wave operators: GIF/BMP container+decode parsers
and the events-family analytics added after the driver-window repack.
Codec tests are pure-Python (no Ray session needed); query-level tests
replay the oracle law over the sf0.001 parquet inputs."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from alco_ray.pipelines import queries as q


def test_gif_parser_blocks_and_poison():
    """GIF89a block walk: closed-form fixture fields back out (LSD bit
    fields, per-frame Graphic Control delay sum, NETSCAPE loop count,
    local-color-table frames), and malformed streams dead-letter."""
    from alco_ray.stages.multimodal import GifMetaParser

    ids = list(range(45))
    enc = GifMetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    parser = GifMetaParser()
    out = parser(enc).to_pylist()
    for i, r in zip(ids, out):
        assert r["decode_ok"] is True
        assert r["width"] == (i % 6 + 1) * 2
        assert r["height"] == (i % 4 + 2) * 2
        assert r["n_frames"] == i % 5 + 1
        assert r["total_delay_cs"] == sum(
            (i * 3 + f) % 100 for f in range(i % 5 + 1))
        assert r["gct_colors"] == 2 << (i % 3)
        assert r["loops"] == (i % 10 if i % 6 == 0 else 0)
    # the rotation really covers loops / comments / local tables
    assert any(b"NETSCAPE2.0" in enc["payload"][i].as_py() for i in ids)
    assert any(b"\x21\xfe" in enc["payload"][i].as_py() for i in ids)

    good = enc["payload"][3].as_py()
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "payload": pa.array(
            [good[:-1],            # missing trailer
             good + b"x",          # bytes after trailer
             b"GIF89a",            # truncated LSD
             b"NOTAGIF" + good,    # bad magic
             b""], pa.binary()),
    })
    got = parser(batch).to_pylist()
    assert [r["decode_ok"] for r in got] == [False] * 5
    assert got[0]["n_frames"] is None


def test_bmp_decoder_stride_flip_and_poison():
    """24-bit BMP decode: exact floor channel means under the per-row
    gradient, the TOP-LEFT pixel witnesses the bottom-up flip (ids
    with id%3 == 0 store top-down), and malformed headers
    dead-letter."""
    import struct

    from alco_ray.stages.multimodal import BmpDecoder

    ids = list(range(36))
    enc = BmpDecoder.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    dec = BmpDecoder()
    out = dec(enc).to_pylist()
    for i, r in zip(ids, out):
        h = (i % 5 + 1) * 2
        assert r["decode_ok"] is True
        assert r["width"] == (i % 7 + 1) * 2 and r["height"] == h
        assert r["mean_r"] == i * 7 % 100 + (h - 1) // 2
        assert r["mean_g"] == i * 3 % 100 + (h - 1) // 2
        assert r["mean_b"] == i % 100 + (h - 1) // 2
        # top row is base + 0 whichever storage order was used
        assert (r["top_r"], r["top_g"], r["top_b"]) == (
            i * 7 % 100, i * 3 % 100, i % 100)
    # both storage orders present (negative biHeight = top-down)
    heights = [struct.unpack_from("<i", enc["payload"][i].as_py(), 22)[0]
               for i in ids]
    assert any(v < 0 for v in heights) and any(v > 0 for v in heights)

    good = enc["payload"][1].as_py()
    bad_bpp = bytearray(good)
    struct.pack_into("<h", bad_bpp, 28, 8)
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "payload": pa.array(
            [good[:40], bytes(bad_bpp), b"XX" + good[2:], b""],
            pa.binary()),
    })
    got = dec(batch).to_pylist()
    assert [r["decode_ok"] for r in got] == [False] * 4


def test_path_counts_kernel_law():
    """path_counts == brute-force n-gram paths per key, including
    cross-key suppression and order tie-breaks."""
    import pandas as pd
    import ray

    from alco_ray.stages.window import path_counts

    rng = np.random.default_rng(7)
    n = 400
    df = pd.DataFrame({
        "k": rng.integers(0, 12, n),
        "o1": rng.integers(0, 50, n),
        "o2": np.arange(n),
        "v": rng.choice(list("abc"), n),
    })
    ds = ray.data.from_pandas(df)
    got = path_counts(ds, key_col="k", order_cols=["o1", "o2"],
                      val_col="v", n=3).to_pandas() \
        .set_index("path")["cnt"].to_dict()

    want: dict = {}
    for _, g in df.sort_values(["k", "o1", "o2"]).groupby("k"):
        v = g["v"].tolist()
        for i in range(len(v) - 2):
            p = ">".join(v[i:i + 3])
            want[p] = want.get(p, 0) + 1
    assert got == want


def test_ewma_autocorr_benford_laws():
    """Replay the three integer laws over sf0.001 events row-by-row."""
    from alco_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet").to_pandas() \
        .sort_values(["user_id", "ts", "event_id"])
    v = t["value"].to_numpy() * 100.0
    t["c"] = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)

    ew = q.e_ewma(sf).to_pandas().set_index("user_id")
    ac = q.e_autocorr(sf).to_pandas().set_index("user_id")
    for uid, g in t.groupby("user_id"):
        c = g["c"].to_numpy()
        n = len(c)
        tail = c[-min(n, 8):][::-1]            # newest first
        wts = [1 << (7 - k) for k in range(len(tail))]
        assert int(ew.loc[uid, "ewma_num"]) == int(
            sum(int(x) * w for x, w in zip(tail, wts)))
        assert int(ew.loc[uid, "ewma_den"]) == sum(wts)
        s = int(c.sum())
        num = sum((n * int(c[i]) - s) * (n * int(c[i + 1]) - s)
                  for i in range(n - 1))
        assert int(ac.loc[uid, "ac_num"]) == num

    bf = q.e_benford(sf).to_pandas()
    assert set(bf["digit"]) <= set(range(1, 10))
    assert bf["cnt"].sum() == (t["c"] > 0).sum()
    want = t.loc[t["c"] > 0].assign(
        digit=lambda d: d["c"].astype(str).str[0].astype(int)) \
        .groupby(["event_type", "digit"]).size()
    got = bf.set_index(["event_type", "digit"])["cnt"]
    assert got.sort_index().equals(want.sort_index().astype("int64"))


def test_source_drift_absent_tokens_counted():
    """The L1 fold must charge |C_t * T_s| for vocabulary a source
    never emits — a two-source corpus with disjoint vocabularies has
    maximal drift on both sides."""
    import pathlib
    import tempfile

    import pandas as pd

    from alco_ray.pipelines import queries as q

    with tempfile.TemporaryDirectory() as td:
        df = pd.DataFrame({
            "doc_id": np.arange(4, dtype=np.int64),
            "text": ["aa aa", "aa", "bb bb bb", ""],
            "lang": ["en"] * 4,
            "source": ["s1", "s1", "s2", "s2"],
            "n_chars": np.int64([5, 2, 8, 0]),
        })
        df.to_parquet(pathlib.Path(td) / "documents.parquet")
        got = q.d_source_drift(td).to_pandas() \
            .set_index("source").sort_index()
        # T=6, s1: 3 'aa'; s2: 3 'bb'.  L1(s1) = |3*6-3*3| + |0-3*3|
        # = 9 + 9 = 18; same for s2.
        assert got.loc["s1", "n_tokens"] == 3
        assert got.loc["s1", "l1_scaled"] == 18
        assert got.loc["s2", "l1_scaled"] == 18


def test_gini_law_and_bounds():
    """Gini numerator replayed over sf0.001 per-user totals; the
    implied coefficient lies in [0, 1)."""
    from alco_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet",
                      columns=["user_id", "value"]).to_pandas()
    v = t["value"].to_numpy() * 100.0
    t["c"] = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)
    x = np.sort(t.groupby("user_id")["c"].sum().to_numpy(np.int64))
    n = len(x)
    i = np.arange(1, n + 1)
    want = int(((2 * i - n - 1) * x).sum())

    got = q.e_gini(sf).to_pandas()
    assert int(got.loc[0, "n_users"]) == n
    assert int(got.loc[0, "total_cents"]) == int(x.sum())
    assert int(got.loc[0, "gini_num"]) == want
    assert 0 <= want < n * int(x.sum())


def test_response_latency_law():
    """Every emitted latency is the ts gap of a genuine consecutive
    user->assistant adjacency, and every such adjacency is emitted."""
    from alco_ray.pipelines import queries as q
    from alco_ray.pipelines.queries import _corpus
    from alco_ray.sources import read_transcripts

    sf = "/root/testdata/sf0.001"
    got = q.t_response_latency(sf).to_pandas() \
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    t = read_transcripts(_corpus(sf),
                         columns=["conv_id", "turn_idx", "role", "ts"]) \
        .to_pandas().sort_values(["conv_id", "turn_idx"])
    want = []
    for cid, g in t.groupby("conv_id"):
        r = g["role"].to_numpy()
        ti = g["turn_idx"].to_numpy()
        ts = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        for j in range(len(g) - 1):
            if (r[j] == "user" and r[j + 1] == "assistant"
                    and ti[j + 1] == ti[j] + 1):
                want.append((cid, int(ti[j]), int(ts[j + 1] - ts[j])))
    import pandas as pd
    want_pd = pd.DataFrame(want, columns=["conv_id", "turn_idx",
                                          "latency_us"]) \
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(got) == len(want_pd)
    assert (got["latency_us"].to_numpy(np.int64)
            == want_pd["latency_us"].to_numpy(np.int64)).all()


def test_tiff_parser_endian_pages_and_poison():
    """TIFF IFD walk: closed forms under both byte orders, multi-page
    chains counted, and malformed files (bad magic, truncation,
    IFD-offset CYCLE) dead-letter."""
    import struct

    from alco_ray.stages.multimodal import TiffMetaParser

    ids = list(range(24))
    enc = TiffMetaParser.encode(
        pa.table({"doc_id": pa.array(ids, pa.int64())}))
    parser = TiffMetaParser()
    out = parser(enc).to_pylist()
    for i, r in zip(ids, out):
        assert r["decode_ok"] is True
        assert r["byte_order"] == ("II" if i % 2 == 0 else "MM")
        assert r["width"] == (i % 9 + 1) * 3
        assert r["height"] == (i % 5 + 2) * 4
        assert r["bits_per_sample"] == (8 if i % 2 == 0 else 16)
        assert r["n_pages"] == i % 3 + 1

    good = enc["payload"][2].as_py()     # little-endian, 3 pages
    cyc = bytearray(good)
    # point the FIRST IFD's next-offset back at itself (offset 8)
    n_entries = struct.unpack_from("<H", cyc, 8)[0]
    struct.pack_into("<I", cyc, 8 + 2 + 12 * n_entries, 8)
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "payload": pa.array(
            [good[:9], b"XX" + good[2:], bytes(cyc), b""], pa.binary()),
    })
    got = parser(batch).to_pylist()
    assert [r["decode_ok"] for r in got] == [False] * 4


def test_forecast_revenue_exact_fixed_point():
    """Q6 revenue: engine value equals a decimal-exact replay over the
    raw parquet (no float product anywhere)."""
    from decimal import Decimal

    from alco_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/lineitem.parquet").to_pandas()
    n = 0
    rev = 0
    for _, r in t.iterrows():
        if not (np.datetime64("1994-01-01") <= r["l_shipdate"]
                < np.datetime64("1995-01-01")):
            continue
        d100 = int(Decimal(repr(r["l_discount"])).scaleb(2)
                   .to_integral_value(rounding="ROUND_HALF_UP"))
        qty = int(Decimal(repr(r["l_quantity"]))
                  .to_integral_value(rounding="ROUND_HALF_UP"))
        if not (5 <= d100 <= 7 and qty < 24):
            continue
        cents = int(Decimal(repr(r["l_extendedprice"])).scaleb(2)
                    .to_integral_value(rounding="ROUND_HALF_UP"))
        n += 1
        rev += cents * d100
    got = q.q_forecast_revenue(sf).to_pandas()
    assert int(got.loc[0, "n_items"]) == n
    assert int(got.loc[0, "revenue_e4"]) == rev


def test_zip_parser_directory_and_poison():
    """ZIP central-directory walk: closed forms incl. the EOCD
    scan-back through every comment length 0..6; malformed archives
    (truncated comment, shifted offsets, entry-count lies)
    dead-letter."""
    import struct

    from alco_ray.stages.multimodal import ZipMetaParser

    ids = list(range(42))
    enc = ZipMetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    parser = ZipMetaParser()
    out = parser(enc).to_pylist()
    for i, r in zip(ids, out):
        nm = i % 6 + 1
        tu = sum((i + j) % 50 + 1 for j in range(nm))
        assert r["decode_ok"] is True
        assert r["n_members"] == nm
        assert r["total_uncompressed"] == tu
        assert r["total_compressed"] == tu       # STORED
        assert r["n_stored"] == nm
        assert r["names_bytes"] == 3 * nm
        assert r["comment_len"] == i % 7

    good = enc["payload"][9].as_py()
    lie = bytearray(good)
    # EOCD total-entry field inflated by one
    at = bytes(lie).rfind(b"PK\x05\x06")
    struct.pack_into("<H", lie, at + 10, 99)
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "payload": pa.array(
            [good[:-1], good[10:], bytes(lie), b""], pa.binary()),
    })
    got = parser(batch).to_pylist()
    assert [r["decode_ok"] for r in got] == [False] * 4


def test_mix_weights_law():
    """Uniform-mix law: weight_ppm == floor(T*1e6 / (L*c)) and a
    perfectly balanced corpus gets weight exactly 1e6 per language."""
    from alco_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/documents.parquet",
                      columns=["lang"]).to_pandas()
    c = t.groupby("lang").size()
    total, n_langs = int(c.sum()), len(c)
    got = q.d_mix_weights(sf).to_pandas().set_index("lang")
    for lang, n in c.items():
        assert int(got.loc[lang, "n_docs"]) == int(n)
        assert int(got.loc[lang, "weight_ppm"]) == \
            (total * 1_000_000) // (n_langs * int(n))
    # balance identity: sum over langs of c_l * w_l ~ T * 1e6
    s = int((got["n_docs"] * got["weight_ppm"]).sum())
    assert abs(s - total * 1_000_000) < n_langs * n_langs * 1_000_000


def test_lifecycle_growth_accounting_law():
    """new + retained + resurrected == distinct actives per day; a
    user's first day is 'new'; day-after runs are 'retained' —
    replayed brute-force over sf0.001."""
    import pandas as pd

    from alco_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet",
                      columns=["user_id", "ts"]).to_pandas()
    t["day"] = t["ts"].to_numpy("datetime64[D]").astype(np.int64)
    ud = t[["user_id", "day"]].drop_duplicates() \
        .sort_values(["user_id", "day"])
    want: dict = {}
    for uid, g in ud.groupby("user_id"):
        d = g["day"].to_numpy()
        for j, day in enumerate(d):
            if j == 0:
                cls = "new_users"
            elif d[j] - d[j - 1] == 1:
                cls = "retained"
            else:
                cls = "resurrected"
            k = (int(day), cls)
            want[k] = want.get(k, 0) + 1
    got = q.e_lifecycle(sf).to_pandas().set_index("day_num")
    for day, row in got.iterrows():
        for cls in ("new_users", "retained", "resurrected"):
            assert int(row[cls]) == want.get((int(day), cls), 0)
    actives = ud.groupby("day").size()
    total = got[["new_users", "retained", "resurrected"]].sum(axis=1)
    assert total.sort_index().equals(actives.sort_index()
                                     .astype("int64"))


def test_dup_degree_conserves_docs_and_edges():
    """Degree histogram masses: sum n_docs == corpus size and
    sum degree*n_docs == 2 |pairs|."""
    from alco_ray.pipelines import queries as q
    from alco_ray.pipelines.queries import _nrows, _tp

    sf = "/root/testdata/sf0.001"
    hist = q.d_dup_degree(sf).to_pandas()
    n_pairs = len(q.d_jaccard_pairs(sf).to_pandas())
    assert int(hist["n_docs"].sum()) == _nrows(_tp(sf, "documents"))
    assert int((hist["degree"] * hist["n_docs"]).sum()) == 2 * n_pairs


def test_flac_parser_bitfields_and_poison():
    """STREAMINFO bit extraction across byte boundaries under the
    full fixture rotation; malformed streams dead-letter."""
    from alco_ray.stages.multimodal import FlacMetaParser

    rates = (32000, 44100, 48000)
    ids = list(range(60))
    enc = FlacMetaParser.encode(
        pa.table({"doc_id": pa.array(ids, pa.int64())}))
    parser = FlacMetaParser()
    out = parser(enc).to_pylist()
    for i, r in zip(ids, out):
        total = (i % 50 + 1) * 1000 + i % 7
        rate = rates[i % 3]
        assert r["decode_ok"] is True
        assert r["sample_rate"] == rate
        assert r["channels"] == i % 2 + 1
        assert r["bits_per_sample"] == (16 if i % 2 == 0 else 24)
        assert r["total_samples"] == total
        assert r["duration_us"] == total * 1_000_000 // rate
        assert r["n_blocks"] == 1 + (i % 2 == 0) + (i % 5 == 0)

    good = enc["payload"][7].as_py()
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "payload": pa.array([good[:-1], b"fLaX" + good[4:], b""],
                            pa.binary()),
    })
    got = parser(batch).to_pylist()
    assert [r["decode_ok"] for r in got] == [False] * 3


def test_knn_recall_consistency():
    """n_hits <= n_probe <= k, and the sidecar the oracle joins is
    exactly the LSH probe's id set."""
    from alco_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    got = q.v_knn_recall(sf).to_pandas()
    k = int(got.loc[0, "k"])
    n_probe = int(got.loc[0, "n_probe"])
    n_hits = int(got.loc[0, "n_hits"])
    assert 0 <= n_hits <= n_probe <= k == 10
    side = pq.read_table(
        "/tmp/alco_ray_cache/sf0.001/knn_recall_lsh.parquet")
    assert side.num_rows == n_probe
    # The operator MEASURES recall (the hash-checked quantity); it
    # does not guarantee it — at this 500-vector scale the banded
    # probe legitimately returns a low overlap (observed 1/10), and
    # recall-vs-scale behavior is pinned by the LSH law tests.  Only
    # assert non-degeneracy: the probe returned something real.
    assert n_probe == 10 and n_hits >= 1


def test_markov_stationary_law():
    """12-step integer power iteration replayed brute-force over
    sf0.001; mass is conserved up to the per-term floor losses and
    the result is a near-fixed point of one more step."""
    import pandas as pd

    from alco_ray.pipelines import queries as q

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet").to_pandas() \
        .sort_values(["user_id", "ts", "event_id"])
    pairs: dict = {}
    for _, g in t.groupby("user_id"):
        v = g["event_type"].tolist()
        for a, b in zip(v, v[1:]):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
    states = sorted({s for p in pairs for s in p})
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}
    c = np.zeros((n, n), np.int64)
    for (a, b), k in pairs.items():
        c[idx[a], idx[b]] = k
    r = c.sum(axis=1)
    for i in np.flatnonzero(r == 0):
        c[i, i] = 1
        r[i] = 1
    pi = np.full(n, 10 ** 12 // n, np.int64)
    for _ in range(12):
        pi = ((pi[:, None] * c) // r[:, None]).sum(axis=0)

    got = q.e_markov_stationary(sf).to_pandas() \
        .set_index("event_type").sort_index()
    assert list(got.index) == states
    assert (got["pi_scaled"].to_numpy(np.int64) == pi).all()
    # floor losses only ever shrink mass, and only slightly
    assert 10 ** 12 >= pi.sum() > 10 ** 12 - 12 * n * n * 5
    nxt = ((pi[:, None] * c) // r[:, None]).sum(axis=0)
    assert np.abs(nxt - pi).max() <= max(64, int(0.001 * pi.max()))


def test_small_qty_revenue_oracle_law():
    """Q17 analog replayed brute-force in pandas over sf0.001: the
    integer cross-product comparison 5*qty*cnt < sum_qty is the exact
    float-free form of qty < 0.2*avg(qty)."""
    sf = "/root/testdata/sf0.001"
    part = pq.read_table(f"{sf}/part.parquet").to_pandas()
    li = pq.read_table(f"{sf}/lineitem.parquet").to_pandas()
    pk = set(part.loc[(part.p_brand == "Brand#3")
                      & (part.p_type == "ECONOMY"), "p_partkey"])
    sub = li[li.l_partkey.isin(pk)].copy()
    sub["q"] = sub.l_quantity.round().astype("int64")
    st = sub.groupby("l_partkey")["q"].agg(["sum", "count"])
    j = sub.join(st, on="l_partkey")
    keep = 5 * j["q"] * j["count"] < j["sum"]
    want_n = int(keep.sum())
    want_s = int((j.loc[keep, "l_extendedprice"] * 100).round()
                 .astype("int64").sum())

    got = q.q_small_qty_revenue(sf).to_pandas()
    assert int(got.loc[0, "n_items"]) == want_n
    assert int(got.loc[0, "sum_price_e2"]) == want_s
    assert want_n > 0  # the fixture really exercises the branch


def test_large_orders_oracle_law():
    """Q18 analog replayed in pandas over sf0.001: every order over
    300 total units appears exactly once with its customer name and
    exact-cents total price."""
    sf = "/root/testdata/sf0.001"
    li = pq.read_table(f"{sf}/lineitem.parquet").to_pandas()
    orders = pq.read_table(f"{sf}/orders.parquet").to_pandas()
    cust = pq.read_table(f"{sf}/customer.parquet").to_pandas()
    li["q"] = li.l_quantity.round().astype("int64")
    sums = li.groupby("l_orderkey")["q"].sum()
    big = sums[sums > 300]
    assert len(big) > 0

    got = q.q_large_orders(sf).to_pandas() \
        .sort_values("o_orderkey").reset_index(drop=True)
    assert set(got.o_orderkey) == set(big.index)
    assert len(got) == len(big)
    omap = orders.set_index("o_orderkey")
    cmap = cust.set_index("c_custkey")["c_name"]
    for _, r in got.iterrows():
        o = omap.loc[r.o_orderkey]
        assert int(r.sum_qty) == int(big.loc[r.o_orderkey])
        assert int(r.c_custkey) == int(o.o_custkey)
        assert r.c_name == cmap.loc[int(o.o_custkey)]
        assert int(r.o_totalprice_e2) == int(round(o.o_totalprice * 100))


def test_webp_parser_variants_and_poison():
    """All three WebP chunk variants decode to the fixture closed
    forms; malformed containers dead-letter."""
    from alco_ray.stages.multimodal import WebpMetaParser

    ids = list(range(60))
    enc = WebpMetaParser.encode(
        pa.table({"doc_id": pa.array(ids, pa.int64())}))
    out = WebpMetaParser()(enc).to_pylist()
    for i, r in zip(ids, out):
        assert r["decode_ok"] is True
        assert r["fmt"] == ["VP8", "VP8L", "VP8X"][i % 3]
        assert r["width"] == i % 300 + 1
        assert r["height"] == i % 200 + 1
        assert r["has_alpha"] == (0 if i % 3 == 0 else i % 2)
        assert r["n_chunks"] == (1 if i % 3 < 2 else 2 + i % 2)
    good = enc["payload"][0].as_py()       # VP8 variant
    goodl = enc["payload"][1].as_py()      # VP8L variant
    poison = [
        good[:11],                              # truncated header
        b"RIFX" + good[4:],                     # bad RIFF magic
        good[:8] + b"WAVE" + good[12:],         # wrong form type
        good[:15] + b"\xff" + good[16:],        # VP8 start code broken
        goodl[:20] + b"\x01" + goodl[21:],      # VP8L version != 0
    ]
    bad = pa.table({
        "doc_id": pa.array(list(range(len(poison))), pa.int64()),
        "payload": pa.array(poison, pa.binary())})
    br = WebpMetaParser()(bad).to_pylist()
    assert all(r["decode_ok"] is False for r in br[:4])
    # start-code poison on the VP8 path must dead-letter too
    assert br[3]["decode_ok"] is False


def test_ogg_parser_crc_and_poison():
    """Ogg page walk: closed forms back out, the fast zlib-transform
    CRC agrees with the spec-literal table implementation, and a
    single flipped payload bit dead-letters via CRC."""
    from alco_ray.stages.multimodal import (OggMetaParser, _ogg_crc)

    # independent spec-literal reference CRC (slow table walk)
    tbl = []
    for b in range(256):
        r = b << 24
        for _ in range(8):
            r = ((r << 1) ^ 0x04C11DB7) & 0xFFFFFFFF if r & 0x80000000 \
                else (r << 1) & 0xFFFFFFFF
        tbl.append(r)

    def ref_crc(data: bytes) -> int:
        crc = 0
        for b in data:
            crc = ((crc << 8) & 0xFFFFFFFF) ^ tbl[((crc >> 24) ^ b) & 0xFF]
        return crc

    import os
    rng = np.random.default_rng(7)
    for n in (0, 1, 27, 400):
        m = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert _ogg_crc(m) == ref_crc(m)

    ids = list(range(120))
    enc = OggMetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    out = OggMetaParser()(enc).to_pylist()
    for i, r in zip(ids, out):
        n = i % 5 + 1
        assert r["decode_ok"] is True
        assert r["n_pages"] == n and r["n_packets"] == n
        assert r["serial"] == (i * 7 + 13) % 100000
        assert r["last_granule"] == (i % 97 + 1) * 1000 + n - 1
        assert r["payload_bytes"] == sum(
            (i * 3 + p * 7) % 600 + 1 for p in range(n))
    # the length rotation really exercises the 255-lacing split
    assert any((i * 3 + p * 7) % 600 + 1 >= 255
               for i in ids for p in range(i % 5 + 1))

    good = bytearray(enc["payload"][3].as_py())
    flipped = bytes(good[:-1] + bytes([good[-1] ^ 1]))
    poison = [
        flipped,                                 # CRC mismatch
        bytes(good)[:20],                        # truncated page
        b"OggX" + bytes(good)[4:],               # bad capture pattern
        bytes(good[:4]) + b"\x01" + bytes(good[5:]),  # bad version
    ]
    bad = pa.table({
        "doc_id": pa.array(list(range(len(poison))), pa.int64()),
        "payload": pa.array(poison, pa.binary())})
    br = OggMetaParser()(bad).to_pylist()
    assert all(r["decode_ok"] is False for r in br)


def test_containment_law():
    """Directed containment replayed brute-force over sf0.001: every
    emitted (contained, container) pair has inter/n_contained >= 0.8
    over literal 3-token shingle sets, and no qualifying pair is
    missed."""
    sf = "/root/testdata/sf0.001"
    import re

    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "text"]).to_pylist()
    sh = {}
    for r in docs:
        tk = [t for t in re.split(r"[^a-z0-9]+", r["text"].lower()) if t]
        sh[r["doc_id"]] = {" ".join(tk[i:i + 3])
                           for i in range(len(tk) - 2)}
    want = set()
    items = [(d, s) for d, s in sh.items() if s]
    for da, sa in items:
        if len(sa) < 5:
            continue
        for db, sb in items:
            if da == db:
                continue
            inter = len(sa & sb)
            if inter * 1000 >= 800 * len(sa):
                want.add((da, db, inter, len(sa)))

    got = q.d_containment(sf).to_pandas()
    got_set = {(int(r.contained), int(r.container), int(r.inter),
                int(r.n_contained)) for r in got.itertuples()}
    assert got_set == want
    assert len(want) > 0

    # asymmetry witness: a short doc quoted whole inside a much
    # longer one must emit (short -> long) but NOT (long -> short)
    import pathlib
    import tempfile

    import pandas as pd

    quote = "alpha beta gamma delta epsilon zeta eta theta"
    long_doc = ("intro words here first " + quote
                + " and then many unrelated closing tokens follow "
                  "one two three four five six seven eight nine ten "
                  "eleven twelve thirteen fourteen fifteen sixteen")
    with tempfile.TemporaryDirectory() as td:
        pd.DataFrame({
            "doc_id": np.int64([1, 2]),
            "text": [quote, long_doc],
            "lang": ["en", "en"],
            "source": ["s", "s"],
            "n_chars": np.int64([len(quote), len(long_doc)]),
        }).to_parquet(pathlib.Path(td) / "documents.parquet")
        syn = q.d_containment(td).to_pandas()
        pairs = {(int(r.contained), int(r.container))
                 for r in syn.itertuples()}
        assert (1, 2) in pairs and (2, 1) not in pairs


def test_triplet_mining_law():
    """Hard-triplet mining replayed brute-force: per anchor the
    max-cosine same-label (self excluded) and different-label ids,
    ties to the smaller vec_id."""
    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet").to_pandas()
    X = np.stack([np.asarray(v, np.float64) for v in t.embedding])
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-30)
    ids = t.vec_id.to_numpy().astype(np.int64)
    lbl = t.label.to_numpy().astype(np.int64)
    anchors = ids[ids % 50 == 0]

    got = q.v_triplet_mining(sf).to_pandas().set_index("anchor_id")
    assert sorted(got.index) == sorted(anchors)
    for a in anchors:
        ai = np.flatnonzero(ids == a)[0]
        sims = Xn @ Xn[ai]
        for mask, col in ((
                (lbl == lbl[ai]) & (ids != a), "pos_id"),
                (lbl != lbl[ai], "neg_id")):
            if not mask.any():
                assert got.loc[a, col] is None or np.isnan(got.loc[a, col])
                continue
            ii = np.flatnonzero(mask)
            best = ii[np.lexsort((ids[ii], -sims[ii]))[0]]
            assert int(got.loc[a, col]) == int(ids[best])


def test_min_cost_supp_law():
    """Q2 analog replayed in pandas: exact floor unit price, argmin
    per part with suppkey tie-break."""
    sf = "/root/testdata/sf0.001"
    part = pq.read_table(f"{sf}/part.parquet").to_pandas()
    li = pq.read_table(f"{sf}/lineitem.parquet").to_pandas()
    supp = pq.read_table(f"{sf}/supplier.parquet").to_pandas()
    pk = set(part.loc[part.p_type == "ECONOMY", "p_partkey"])
    sub = li[li.l_partkey.isin(pk)].copy()
    sub["up"] = (sub.l_extendedprice * 100).round().astype("int64") \
        * 10_000 // sub.l_quantity.round().astype("int64")
    sub = sub.sort_values(["l_partkey", "up", "l_suppkey"],
                          kind="mergesort").drop_duplicates("l_partkey")
    got = q.q_min_cost_supp(sf).to_pandas() \
        .sort_values("p_partkey").reset_index(drop=True)
    assert len(got) == len(sub)
    smap = supp.set_index("s_suppkey")["s_name"]
    want = sub.sort_values("l_partkey").reset_index(drop=True)
    assert (got.p_partkey.to_numpy() == want.l_partkey.to_numpy()).all()
    assert (got.s_suppkey.to_numpy() == want.l_suppkey.to_numpy()).all()
    assert (got.min_unit_e6.to_numpy() == want.up.to_numpy()).all()
    assert (got.s_name == [smap.loc[s] for s in want.l_suppkey]).all()


def test_pq_probe_law():
    """PQ replayed brute-force over sf0.001: fixed-point subspace
    codebooks induce first-occurrence-argmin codes, ADC = sum of the
    query's per-subspace distances at those codes, top-10 ordered by
    (adist, vec_id)."""
    import ray

    from alco_ray.stages.similarity import kmeans_fixed_point, pq_probe

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet")
    X = np.stack([np.asarray(v, np.float64) for v in t.column("embedding").to_pylist()])
    ids = t.column("vec_id").to_numpy().astype(np.int64)
    Xq = np.copysign(np.floor(np.abs(X * 1024) + 0.5),
                     X * 1024).astype(np.int64)
    m, kc, d = 4, 16, X.shape[1]
    sd = d // m

    ds = ray.data.read_parquet(f"{sf}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    qvec = X[ids == 0][0]
    topk, cents = pq_probe(ds, qvec, m=m, kc=kc, iters=2, k=10)

    # rebuild C from the long-form sidecar table and replay
    C = np.zeros((m, kc, sd), np.int64)
    for r in cents.to_pylist():
        C[r["sub"], r["cl"], r["jj"]] = r["c"]
    # the sidecar codebook must BE the pinned kmeans fixed point
    for s in range(m):
        sub_tbl = pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(list(X[:, s * sd:(s + 1) * sd]))})
        want_c = kmeans_fixed_point(
            ray.data.from_arrow(sub_tbl), k=kc, iters=2,
            centroids_only=True)
        assert (C[s] == want_c).all()

    Xs = Xq.reshape(len(ids), m, sd)
    codes = np.empty((len(ids), m), np.int64)
    for s in range(m):
        dist = ((Xs[:, s][:, None, :] - C[s][None]) ** 2).sum(axis=2)
        codes[:, s] = dist.argmin(axis=1)
    qsub = Xq[ids == 0][0].reshape(m, sd)
    qd = ((qsub[:, None, :] - C) ** 2).sum(axis=2)
    adist = qd[np.arange(m)[None, :], codes].sum(axis=1)
    order = np.lexsort((ids, adist))[:10]

    got = topk.to_pylist()
    assert [r["vec_id"] for r in got] == [int(ids[i]) for i in order]
    assert [r["adc_dist"] for r in got] == [int(adist[i]) for i in order]
    # ADC is an approximation with teeth: its top-10 must overlap the
    # exact top-10 (the query itself is always ADC-reachable)
    exact = np.lexsort((ids, -((Xq @ Xq[ids == 0][0]))))[:10]
    assert len({int(ids[i]) for i in exact}
               & {r["vec_id"] for r in got}) >= 1


def test_conversion_lag_law():
    """Time-to-convert replayed row-by-row over sf0.001: first signup,
    first purchase at-or-after it, exact microsecond lag, converters
    only."""
    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet",
                      columns=["user_id", "ts", "event_type"]).to_pandas()
    want = {}
    for uid, g in t.groupby("user_id"):
        sg = g.loc[g.event_type == "signup", "ts"]
        if sg.empty:
            continue
        t0 = sg.min()
        pur = g.loc[(g.event_type == "purchase") & (g.ts >= t0), "ts"]
        if pur.empty:
            continue
        want[int(uid)] = int((pur.min().value - t0.value) // 1000)

    got = q.e_conversion_lag(sf).to_pandas()
    got_map = dict(zip(got.user_id.astype(int), got.lag_us.astype(int)))
    assert got_map == want
    assert len(want) > 0


def test_cluster_purity_law():
    """Cluster purity replayed brute-force: truncating-division
    centroids over quantized vectors, strict-inequality confusion."""
    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet")
    X = np.stack([np.asarray(v, np.float64)
                  for v in t.column("embedding").to_pylist()])
    lbl = t.column("label").to_numpy().astype(np.int64)
    Xq = np.copysign(np.floor(np.abs(X * 1024) + 0.5),
                     X * 1024).astype(np.int64)
    labels = np.unique(lbl)
    C = np.zeros((len(labels), X.shape[1]), np.int64)
    for i, L in enumerate(labels):
        s = Xq[lbl == L].sum(axis=0)
        n = (lbl == L).sum()
        C[i] = np.sign(s) * (np.abs(s) // n)
    d2 = ((Xq[:, None, :] - C[None]) ** 2).sum(axis=2)
    own_ix = np.searchsorted(labels, lbl)
    own = d2[np.arange(len(lbl)), own_ix]
    masked = d2.copy()
    masked[np.arange(len(lbl)), own_ix] = np.iinfo(np.int64).max
    other = masked.min(axis=1)

    got = q.v_cluster_purity(sf).to_pandas().set_index("label")
    for i, L in enumerate(labels):
        assert int(got.loc[L, "n_members"]) == int((lbl == L).sum())
        assert int(got.loc[L, "n_confused"]) == int(
            ((other < own) & (lbl == L)).sum())


def test_templates_law():
    """Drain-style template mining replayed brute-force over the
    sf0.001 corpus: (token count, first token) groups, per-position
    keep-if-unanimous else '<*>', message counts exact."""
    import glob

    import pandas as pd

    from alco_ray import fixtures

    corpus = fixtures.corpus_for_sf("/root/testdata/sf0.001")
    texts = []
    for f in sorted(glob.glob(f"{corpus}/*.parquet")):
        texts.extend(pq.read_table(f, columns=["text"])
                     ["text"].to_pylist())
    groups: dict = {}
    for s in texts:
        tk = s.split(" ")
        groups.setdefault((len(tk), tk[0]), []).append(tk)
    want = {}
    for (_, _), msgs in groups.items():
        cols = list(zip(*msgs))
        tpl = " ".join(c[0] if len(set(c)) == 1 else "<*>"
                       for c in cols)
        want[tpl] = want.get(tpl, 0) + len(msgs)

    got = q.t_templates("/root/testdata/sf0.001").to_pandas()
    got_map = dict(zip(got.template, got.n_msgs.astype(int)))
    assert got_map == want
    # the miner genuinely wildcards: some template has '<*>' and some
    # position survives verbatim
    assert any("<*>" in t for t in want)
    assert any("level=INFO" in t or "level=DEBUG" in t or "<*>" != t
               for t in want)


def test_ico_parser_quirk_and_poison():
    """ICO directory walk: closed forms back out including the
    width-0 = 256 quirk; bad type/truncation/bounds dead-letter."""
    from alco_ray.stages.multimodal import IcoMetaParser

    ids = list(range(300))
    enc = IcoMetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    out = IcoMetaParser()(enc).to_pylist()
    saw256 = False
    for i, r in zip(ids, out):
        n = i % 4 + 1
        assert r["decode_ok"] is True
        assert r["n_images"] == n
        ws = [((i + k * 17) % 256) or 256 for k in range(n)]
        assert r["max_width"] == max(ws)
        saw256 |= max(ws) == 256
        assert r["max_bpp"] == max(
            [1, 4, 8, 24, 32][(i + k) % 5] for k in range(n))
        assert r["payload_bytes"] == sum(
            (i * 5 + k * 3) % 200 + 8 for k in range(n))
        assert r["n_png"] == sum(1 for k in range(n) if (i + k) % 2)
    assert saw256  # the 0-byte -> 256 decode really occurred

    good = enc["payload"][5].as_py()
    poison = [good[:10], b"\x00\x00\x02\x00" + good[4:],
              good[:6 + 16 * 2 - 1], b""]
    bad = pa.table({
        "doc_id": pa.array(list(range(len(poison))), pa.int64()),
        "payload": pa.array(poison, pa.binary())})
    br = IcoMetaParser()(bad).to_pylist()
    assert all(r["decode_ok"] is False for r in br)


def test_dim_truncation_law():
    """Truncated-leg top-10 replayed brute-force; membership flags
    match the full-dim top-10."""
    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet")
    X = np.stack([np.asarray(v, np.float64)
                  for v in t.column("embedding").to_pylist()])
    ids = t.column("vec_id").to_numpy().astype(np.int64)
    qv = X[ids == 0][0]

    def topk(M, q):
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True),
                            1e-30)
        s = Mn @ (q / max(np.linalg.norm(q), 1e-30))
        return ids[np.lexsort((ids, -s))[:10]]

    full = set(topk(X, qv))
    tr = topk(X[:, :16], qv[:16])
    got = q.v_dim_truncation(sf).to_pylist()
    assert [r["vec_id"] for r in got] == [int(v) for v in tr]
    assert [r["rank"] for r in got] == list(range(1, 11))
    assert [r["in_full_topk"] for r in got] == [
        1 if int(v) in full else 0 for v in tr]


def test_mannwhitney_law_and_identity():
    """2*U1 replayed brute-force over sf0.001 pairs, and the rank-sum
    identity 2U1 + 2U2 == 2*n1*n2 holds."""
    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet",
                      columns=["ts", "value"]).to_pandas()
    us = t["ts"].astype("datetime64[us]").astype("int64").to_numpy()
    v = t["value"].to_numpy() * 100.0
    cents = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)
    odd = (us // 86_400_000_000) % 2
    s1 = np.sort(cents[odd == 0])
    s2 = np.sort(cents[odd == 1])
    # brute 2*U1 via searchsorted (greater + ties counted once)
    lt = np.searchsorted(s2, s1, side="left")
    le = np.searchsorted(s2, s1, side="right")
    want = int((2 * lt + (le - lt)).sum())

    got = q.e_mannwhitney(sf).to_pylist()[0]
    assert got["n1"] == len(s1) and got["n2"] == len(s2)
    assert got["u2_first"] == want
    # identity: 2U1 + 2U2 = 2 n1 n2
    lt2 = np.searchsorted(s1, s2, side="left")
    le2 = np.searchsorted(s1, s2, side="right")
    u2_second = int((2 * lt2 + (le2 - lt2)).sum())
    assert got["u2_first"] + u2_second == 2 * len(s1) * len(s2)


def test_rolling_median_law():
    """Trailing 5-window 2x-median replayed per user row-by-row."""
    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet").to_pandas() \
        .sort_values(["user_id", "ts", "event_id"])
    v = t["value"].to_numpy() * 100.0
    t["c"] = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)
    want = {}
    for uid, g in t.groupby("user_id"):
        c = g["c"].tolist()
        for i, eid in enumerate(g["event_id"]):
            w = sorted(c[max(0, i - 4):i + 1])
            n = len(w)
            m2 = w[n // 2] * 2 if n % 2 else w[n // 2 - 1] + w[n // 2]
            want[int(eid)] = int(m2)
    got = q.e_rolling_median(sf).to_pandas()
    got_map = dict(zip(got.event_id.astype(int), got.med2.astype(int)))
    assert got_map == want


def test_srt_parser_timeline_and_poison():
    """SRT cue walk: closed forms back out incl. the overlap count;
    structural poison dead-letters."""
    from alco_ray.stages.multimodal import SrtMetaParser

    ids = list(range(500))
    enc = SrtMetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    out = SrtMetaParser()(enc).to_pylist()
    saw_ov = 0
    for i, r in zip(ids, out):
        n = i % 6 + 1
        assert r["decode_ok"] is True
        assert r["n_cues"] == n
        durs = [(i * 7 + c * 13) % 3000 + 500 for c in range(n)]
        assert r["total_dur_ms"] == sum(durs)
        assert r["n_lines"] == sum(1 + (i + c) % 2 for c in range(n))
        ov = sum(1 for c in range(n - 1) if durs[c] > 3000)
        assert r["n_overlaps"] == ov
        saw_ov += ov
    assert saw_ov > 0  # the rotation really produces overlapping cues

    good = enc["payload"][7].as_py().decode()
    poison = [
        good.replace(" --> ", " -> ", 1).encode(),    # bad arrow
        good.replace("00:00:00,000", "00:99:00,000", 1).encode(),
        ("0\n" + good).encode(),                      # index gap
        b"\xff\xfe\x00bad",                           # not utf-8
    ]
    bad = pa.table({
        "doc_id": pa.array(list(range(len(poison))), pa.int64()),
        "payload": pa.array(poison, pa.binary())})
    br = SrtMetaParser()(bad).to_pylist()
    assert all(r["decode_ok"] is False for r in br)


def test_ivfpq_probe_law():
    """IVF-PQ replayed brute-force from the returned codebooks over
    sf0.001: coarse assignment, probe selection (nprobe=2, tie to
    lower list), residual encoding and ADC top-10."""
    import ray

    from alco_ray.stages.similarity import ivfpq_probe

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet")
    X = np.stack([np.asarray(v, np.float64)
                  for v in t.column("embedding").to_pylist()])
    ids = t.column("vec_id").to_numpy().astype(np.int64)
    Xq = np.copysign(np.floor(np.abs(X * 1024) + 0.5),
                     X * 1024).astype(np.int64)
    qv = X[ids == 0][0]
    ds = ray.data.read_parquet(f"{sf}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    topk, coarse, pqc = ivfpq_probe(ds, qv, kl=8, m=4, kc=16,
                                    iters=2, nprobe=2, k=10)
    d = X.shape[1]
    m, kc, sd = 4, 16, d // 4
    CL = np.zeros((8, d), np.int64)
    for r in coarse.to_pylist():
        CL[r["cl"], r["j"]] = r["c"]
    C = np.zeros((m, kc, sd), np.int64)
    for r in pqc.to_pylist():
        C[r["sub"], r["cl"], r["jj"]] = r["c"]

    lists = ((Xq[:, None, :] - CL[None]) ** 2).sum(axis=2).argmin(axis=1)
    qq = Xq[ids == 0][0]
    qd = ((qq[None] - CL) ** 2).sum(axis=1)
    probed = np.sort(np.lexsort((np.arange(8), qd))[:2])
    keep = np.isin(lists, probed)
    R = (Xq - CL[lists])[keep].reshape(-1, m, sd)
    kids, klists = ids[keep], lists[keep]
    codes = np.empty((len(kids), m), np.int64)
    for s in range(m):
        codes[:, s] = ((R[:, s][:, None, :] - C[s][None]) ** 2) \
            .sum(axis=2).argmin(axis=1)
    adist = np.empty(len(kids), np.int64)
    for li in probed:
        qr = (qq - CL[li]).reshape(m, sd)
        qdt = ((qr[:, None, :] - C) ** 2).sum(axis=2)
        msk = klists == li
        adist[msk] = qdt[np.arange(m)[None, :], codes[msk]].sum(axis=1)
    order = np.lexsort((kids, adist))[:10]

    got = topk.to_pylist()
    assert [r["vec_id"] for r in got] == [int(kids[i]) for i in order]
    assert [r["adc_dist"] for r in got] == [int(adist[i]) for i in order]
    # the query's own list is probed, so vec 0 is reachable
    assert lists[ids == 0][0] in probed


def test_avi_parser_nested_walk_and_poison():
    """AVI nested-LIST walk: closed forms back out; structural
    damage dead-letters."""
    from alco_ray.stages.multimodal import AviMetaParser

    ids = list(range(120))
    enc = AviMetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    out = AviMetaParser()(enc).to_pylist()
    for i, r in zip(ids, out):
        n = i % 3 + 1
        assert r["decode_ok"] is True
        assert r["total_frames"] == i % 1000 + 1
        assert r["width"] == (i % 64 + 1) * 16
        assert r["height"] == (i % 36 + 1) * 16
        assert r["n_video"] == (n + 1) // 2
        assert r["n_audio"] == n // 2
        assert r["movi_bytes"] == (i * 11) % 500 + 4
    good = enc["payload"][5].as_py()
    poison = [good[:20], b"RIFX" + good[4:],
              good[:8] + b"WAVE" + good[12:], b""]
    bad = pa.table({
        "doc_id": pa.array(list(range(len(poison))), pa.int64()),
        "payload": pa.array(poison, pa.binary())})
    br = AviMetaParser()(bad).to_pylist()
    assert all(r["decode_ok"] is False for r in br)


def test_pq_recall_consistency():
    """v_pq_recall's n_hits equals the PQ-top10 ∩ exact-top10 size
    recomputed from the two legs directly."""
    import ray

    from alco_ray.stages.similarity import knn_brute, pq_probe

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet")
    ids = t.column("vec_id").to_numpy().astype(np.int64)
    X = np.stack([np.asarray(v, np.float64)
                  for v in t.column("embedding").to_pylist()])
    qv = X[ids == 0][0]
    ds = ray.data.read_parquet(f"{sf}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    topk, _ = pq_probe(ds, qv, m=4, kc=16, iters=2, k=10)
    exact = knn_brute(ds, qv, k=10).to_pandas()
    want = len(set(topk["vec_id"].to_pylist())
               & set(exact.vec_id.astype(int)))
    got = q.v_pq_recall(sf).to_pylist()[0]
    assert got["k"] == 10 and got["n_hits"] == want
    assert got["n_hits"] >= 1  # the query itself is ADC-reachable


def test_exp_hist_law():
    """Power-of-two buckets replayed row-by-row; counts conserve."""
    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet",
                      columns=["event_type", "value"]).to_pandas()
    v = t["value"].to_numpy() * 100.0
    cents = np.copysign(np.floor(np.abs(v) + 0.5), v).astype(np.int64)
    want: dict = {}
    for et, c in zip(t.event_type, cents):
        b = 0 if c == 0 else int(abs(int(c))).bit_length()
        key = (et, b, 1 if c < 0 else 0)
        want[key] = want.get(key, 0) + 1
    got = q.e_exp_hist(sf).to_pylist()
    got_map = {(r["event_type"], r["bucket"], r["neg"]): r["cnt"]
               for r in got}
    assert got_map == want
    assert sum(want.values()) == len(t)


def test_langid_confusion_consistency():
    """Confusion-matrix counts equal the per-doc predictions grouped
    by (true, pred), and mass is conserved."""
    sf = "/root/testdata/sf0.001"
    pred = q.d_lang_id_learned(sf).to_pandas()
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "lang"]).to_pandas()
    j = pred.merge(docs, on="doc_id")
    want = j.groupby(["lang", "pred_lang"]).size()

    got = q.d_langid_confusion(sf).to_pandas() \
        .set_index(["true_lang", "pred_lang"])["cnt"]
    assert got.sort_index().equals(
        want.sort_index().astype("int64").rename("cnt"))
    assert got.sum() == len(docs)


def test_tar_parser_checksum_and_stdlib_agreement():
    """ustar walk: closed forms + stdlib tarfile agreement (two
    implementations of the spec), checksum/terminator poison."""
    import io
    import tarfile

    from alco_ray.stages.multimodal import TarMetaParser

    ids = list(range(150))
    enc = TarMetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    out = TarMetaParser()(enc).to_pylist()
    for i, r in zip(ids, out):
        n = i % 4 + 1
        sizes = [(i * 13 + k * 7) % 900 for k in range(n)]
        assert r["decode_ok"] is True
        assert r["n_members"] == n
        assert r["total_bytes"] == sum(sizes)
        assert r["max_mtime"] == i * 100 + n - 1
        assert r["n_blocks"] == sum(1 + (s + 511) // 512
                                    for s in sizes) + 2
    t = tarfile.open(fileobj=io.BytesIO(enc["payload"][37].as_py()))
    mem = t.getmembers()
    assert len(mem) == 37 % 4 + 1
    assert sum(m.size for m in mem) == out[37]["total_bytes"]
    assert [m.mtime for m in mem] == [3700, 3701]

    good = bytearray(enc["payload"][5].as_py())
    flip = bytearray(good)
    flip[50] ^= 1
    badmag = bytearray(good)
    badmag[257] = ord("X")
    poison = [bytes(flip), bytes(good[:-1024]), bytes(badmag),
              b"x" * 511]
    bad = pa.table({
        "doc_id": pa.array(list(range(len(poison))), pa.int64()),
        "payload": pa.array(poison, pa.binary())})
    br = TarMetaParser()(bad).to_pylist()
    assert all(r["decode_ok"] is False for r in br)


def test_type_overlap_law():
    """Pairwise audience overlap replayed brute-force; Jaccard bounds
    hold (inter <= min(n_a, n_b))."""
    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/events.parquet",
                      columns=["user_id", "event_type"]).to_pandas()
    sets = {et: set(g.user_id) for et, g in t.groupby("event_type")}
    types = sorted(sets)
    want = {}
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            inter = len(sets[a] & sets[b])
            if inter:
                want[(a, b)] = (inter, len(sets[a]), len(sets[b]))
    got = q.e_type_overlap(sf).to_pylist()
    got_map = {(r["type_a"], r["type_b"]):
               (r["inter_users"], r["n_a"], r["n_b"]) for r in got}
    assert got_map == want
    for (a, b), (i2, na, nb) in got_map.items():
        assert i2 <= min(na, nb)


def test_type_overlap_rejects_unmapped_type(tmp_path):
    """An event type outside the five known ones fails loudly, naming
    the type, instead of silently leaving the engine's answer apart
    from the oracle's.  The ValueError is raised in a Ray task, so it
    reaches the driver wrapped in Ray's task error."""
    pq.write_table(pa.table({
        "user_id": pa.array([1, 1, 2, 3], pa.int64()),
        "event_type": ["click", "refund", "view", "click"]}),
        tmp_path / "events.parquet")
    with pytest.raises(Exception, match=r"ValueError: e_type_overlap: "
                       r"unmapped event type\(s\) \['refund'\]"):
        q.e_type_overlap(str(tmp_path))


def test_pdf_parser_xref_validation_and_poison():
    """Minimal-PDF backward parse: closed forms back out (incl. the
    xref offset), and stale-startxref / shifted-offset / truncation
    poison dead-letters."""
    import re

    from alco_ray.stages.multimodal import PdfMetaParser

    ids = list(range(200))
    enc = PdfMetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    out = PdfMetaParser()(enc).to_pylist()
    for i, r in zip(ids, out):
        n = i % 5 + 2
        assert r["decode_ok"] is True
        assert r["version_minor"] == i % 4 + 3
        assert r["n_objects"] == n
        lens = [(i * 3 + k) % 100 for k in range(n)]
        assert r["len_sum"] == sum(lens)
        want_off = 9 + sum(len(str(k + 1)) + len(str(k))
                           + len(str(lens[k])) + 35 for k in range(n))
        assert r["xref_off"] == want_off

    good = bytes(enc["payload"][9].as_py())
    m = re.search(rb"startxref\n(\d+)", good)
    stale = good.replace(m.group(1), str(int(m.group(1)) + 3).encode())
    shift = good.replace(b"2 0 obj", b"9 0 obj", 1)
    poison = [b"%XDF" + good[4:], stale, shift, good[:40]]
    bad = pa.table({
        "doc_id": pa.array(list(range(len(poison))), pa.int64()),
        "payload": pa.array(poison, pa.binary())})
    br = PdfMetaParser()(bad).to_pylist()
    assert all(r["decode_ok"] is False for r in br)


def test_drop_empty_blocks_semantics():
    """The empty-block join guard: zero-row blocks vanish, data
    blocks survive byte-identically, and an all-empty input yields
    ONE typed empty block (downstream joins stay schema-stable)."""
    import ray

    from alco_ray.stages.aggregate import drop_empty_blocks

    schema = pa.schema([("token", pa.string()), ("ratio", pa.int64())])
    t1 = pa.table({"token": pa.array(["a", "b"], pa.string()),
                   "ratio": pa.array([1, 2], pa.int64())})
    mixed = ray.data.from_arrow_refs(
        [ray.put(t1), ray.put(pa.table({})),
         ray.put(schema.empty_table())])
    out = drop_empty_blocks(mixed, schema)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert got.equals(t1)

    all_empty = ray.data.from_arrow_refs([ray.put(pa.table({}))])
    out2 = drop_empty_blocks(all_empty, schema)
    blocks = ray.get(out2.to_arrow_refs())
    assert len(blocks) == 1 and blocks[0].schema.equals(schema) \
        and blocks[0].num_rows == 0


def test_pdf_missing_endobj_dead_letters():
    """An object body without its ``endobj`` token, in a document whose
    header, startxref and xref offsets all validate, dead-letters the
    document instead of raising out of the batch."""
    from alco_ray.stages.multimodal import PdfMetaParser

    enc = PdfMetaParser.encode(
        pa.table({"doc_id": pa.array([7, 8], pa.int64())}))
    good = enc["payload"][0].as_py()
    cut = good.rindex(b"endobj")
    no_end = good[:cut] + b"xxxxxx" + good[cut + 6:]  # offsets unchanged
    batch = pa.table({"doc_id": pa.array([7, 8], pa.int64()),
                      "payload": pa.array([no_end, enc["payload"][1].as_py()],
                                          pa.binary())})
    out = PdfMetaParser()(batch).to_pylist()
    assert out[0]["decode_ok"] is False and out[0]["n_objects"] is None
    assert out[1]["decode_ok"] is True


def _int64s(*names):
    return pa.schema([(n, pa.int64()) for n in names])


_TYPED_EMPTY = {
    "pq_probe": (
        lambda s, ds: s.pq_probe(ds, np.ones(8), m=4, kc=16, iters=2,
                                 k=10)[0],
        _int64s("vec_id", "adc_dist", "rank")),
    "scalar_quantize_stats": (
        lambda s, ds: s.scalar_quantize_stats(ds),
        _int64s("vec_id", "code_sum", "code_min", "code_max")),
    "pca_power_fixed_point": (
        lambda s, ds: s.pca_power_fixed_point(ds, iters=4),
        _int64s("vec_id", "proj")),
    "label_vector_sums": (
        lambda s, ds: s.label_vector_sums(ds),
        _int64s("label", "dim", "s", "n")),
    "cluster_purity": (
        lambda s, ds: s.cluster_purity(ds),
        _int64s("label", "n_members", "n_confused")),
    "range_search": (
        lambda s, ds: s.range_search(ds, np.ones(8), 0.25),
        _int64s("vec_id")),
    "cosine_dup_pairs": (
        lambda s, ds: s.cosine_dup_pairs(ds, 0.4),
        _int64s("vec_a", "vec_b")),
    "knn_brute": (
        lambda s, ds: s.knn_brute(ds, np.ones(8), 10),
        pa.schema([("vec_id", pa.int64()), ("sim", pa.float64()),
                   ("rank", pa.int64())])),
}


@pytest.mark.parametrize("how", ["empty", "filtered"])
@pytest.mark.parametrize("op", sorted(_TYPED_EMPTY))
def test_empty_input_returns_typed_empty(op, how):
    """No embeddings in — a zero-row table, or every row filtered out
    (Ray's schema-less empty blocks): zero rows out, typed, not a
    reshape, k-means or missing-column error.  The schema is read off
    the Arrow blocks: ``Dataset.to_pandas`` drops it."""
    import ray

    from alco_ray.stages import similarity
    from alco_ray.stages.aggregate import arrow_blocks

    t = pa.table({"vec_id": pa.array([1, 2], pa.int64()),
                  "embedding": pa.array([[1.0] * 8, [-1.0] * 8],
                                        pa.list_(pa.float64())),
                  "label": pa.array([0, 1], pa.int64())})
    ds = (ray.data.from_arrow(t.slice(0, 0)) if how == "empty" else
          ray.data.from_arrow(t).filter(lambda r: False))
    run, schema = _TYPED_EMPTY[op]
    out = run(similarity, ds)
    blocks = [out] if isinstance(out, pa.Table) else arrow_blocks(out)
    assert sum(b.num_rows for b in blocks) == 0
    typed = [b.schema for b in blocks if b.num_columns]
    assert typed and all(s == schema for s in typed), typed


def test_pq_probe_empty_centroid_sidecar():
    """No embeddings in: the long-form centroid sidecar is empty too,
    with its columns."""
    import ray

    from alco_ray.stages.similarity import _matrix, pq_probe

    empty = pa.table({"vec_id": pa.array([], pa.int64()),
                      "embedding": pa.array([], pa.list_(pa.float64()))})
    assert _matrix(empty).shape == (0, 0)
    _, cents = pq_probe(ray.data.from_arrow(empty), np.ones(8),
                        m=4, kc=16, iters=2, k=10)
    assert cents.num_rows == 0
    assert cents.schema == _int64s("sub", "cl", "jj", "c")
