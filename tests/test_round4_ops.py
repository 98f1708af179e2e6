"""Round-4 operator tests: deterministic BPE tokenizer and the
fixed-point learned linear scorer.

The distributed plumbing of each operator is pinned end-to-end by its
DuckDB oracle (d_bpe_tokens / d_pack_bpe / d_model_score in
scripts/check_contract.py — the oracle replays TRAINING as well as
inference); these tests pin the SEMANTICS against independent
pure-Python references plus the laws the oracle corpus may not
exercise (overlap handling, division semantics, partitioning
invariance, discriminative power)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray

from alco_ray.stages import bpe, model

# --------------------------------------------------------------- BPE


def _docs_ds(texts):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))


def test_merge_pass_leftmost_nonoverlap():
    assert bpe._merge_pass(list("aaa"), "a", "a") == ["aa", "a"]
    assert bpe._merge_pass(list("aaaa"), "a", "a") == ["aa", "aa"]
    assert bpe._merge_pass(list("abab"), "a", "b") == ["ab", "ab"]
    assert bpe._merge_pass(["x"], "a", "b") == ["x"]


def test_fit_bpe_hand_checked():
    # 'abab' x3, 'abc' x2: pair counts (a,b)=8, (b,a)=3, (b,c)=2
    wc = pa.table({"word": ["abab", "abc"], "n": [3, 2]})
    merges = bpe.fit_bpe(wc, n_merges=3)
    # merge1 (a,b); then 'abab'->[ab,ab] (count 3), 'abc'->[ab,c]:
    # pairs (ab,ab)=3, (ab,c)=2 -> merge2 (ab,ab); then (abab? ...)
    assert merges[0] == ("a", "b")
    assert merges[1] == ("ab", "ab")


def test_fit_bpe_tie_break_lexicographic():
    # (a,b) and (c,d) both count 2 -> lexicographically smaller wins
    wc = pa.table({"word": ["ab", "cd"], "n": [2, 2]})
    merges = bpe.fit_bpe(wc, n_merges=1)
    assert merges == [("a", "b")]


def _priority_apply(word, merges):
    """Independent reference: classic lowest-rank-first apply."""
    rank = {m: i for i, m in enumerate(merges)}
    syms = list(word)
    while len(syms) > 1:
        pairs = [(rank.get(p, len(merges)), i)
                 for i, p in enumerate(zip(syms, syms[1:]))]
        best_rank = min(p[0] for p in pairs)
        if best_rank == len(merges):
            break
        l, r = merges[best_rank]
        syms = bpe._merge_pass(syms, l, r)
    return syms


def test_sequential_apply_equals_priority_apply():
    rng = np.random.RandomState(7)
    alphabet = list("abc")
    words = ["".join(rng.choice(alphabet, size=rng.randint(1, 12)))
             for _ in range(300)]
    wc = pa.table({"word": sorted(set(words)),
                   "n": [1] * len(set(words))})
    merges = bpe.fit_bpe(wc, n_merges=25)
    assert merges  # the corpus is dense enough to learn something
    for w in set(words):
        assert bpe._segment(w, merges) == _priority_apply(w, merges), w


def test_segment_roundtrip_and_positions():
    texts = ["the cat sat", "the the the", ""]
    ds = _docs_ds(texts)
    wc = bpe.word_count_table(ds)
    merges = bpe.fit_bpe(wc, n_merges=10)
    tok = bpe.BpeTokenizer(merges)
    out = pa.concat_tables(
        ray.get(ds.map_batches(tok, batch_format="pyarrow")
                .to_arrow_refs()))
    df = out.to_pandas().sort_values(["doc_id", "tok_idx"])
    # concatenating a doc's subword tokens reproduces its words
    for doc_id, texts_i in enumerate(texts):
        got = "".join(df[df.doc_id == doc_id].bpe_token)
        assert got == texts_i.replace(" ", "")
    # positions are 0..n-1 per doc
    for doc_id, g in df.groupby("doc_id"):
        assert list(g.tok_idx) == list(range(len(g)))
    # count mode agrees with explode mode
    cnt = pa.concat_tables(ray.get(
        ds.map_batches(bpe.BpeTokenizer(merges, mode="count"),
                       batch_format="pyarrow").to_arrow_refs()))
    cdf = cnt.to_pandas().set_index("doc_id").n_bpe_tokens
    sizes = df.groupby("doc_id").size()
    for doc_id in range(len(texts)):
        assert cdf.loc[doc_id] == sizes.get(doc_id, 0)


def test_word_count_guard_raises(monkeypatch):
    ds = _docs_ds(["one two three four five six"])
    monkeypatch.setattr(bpe, "MAX_WORDS", 3)
    with pytest.raises(ValueError, match="MAX_WORDS"):
        bpe.word_count_table(ds)


# ------------------------------------------------------------- model


def test_tdiv_matches_duckdb_truncation():
    import duckdb

    cases = [(7, 2), (-7, 2), (7, -2), (-7, -2), (0, 5), (-1, 3),
             (10 ** 18, 7), (-10 ** 18, 7)]
    got = [model._tdiv(a, b) for a, b in cases]
    want = [duckdb.sql(
        f"SELECT CAST({a} AS HUGEINT) // CAST({b} AS HUGEINT)"
    ).fetchone()[0] for a, b in cases]
    assert got == [int(w) for w in want]


def _ref_fit(F, y, iters=16):
    """Independent single-process reference of the integer GD."""
    d = F.shape[1]
    lr_den = d * model.FEAT_SCALE ** 2
    n = len(y)
    w = [0] * d
    for _ in range(iters):
        g = [0] * d
        for i in range(n):
            resid = sum(int(F[i, j]) * w[j] for j in range(d)) \
                - int(y[i]) * model.W_SCALE
            for j in range(d):
                g[j] += int(F[i, j]) * resid
        w = [w[j] - model._tdiv(g[j], n * lr_den) for j in range(d)]
    return w


def _synth_features(n=200, seed=3):
    rng = np.random.RandomState(seed)
    F = np.column_stack([
        np.full(n, model.FEAT_SCALE, dtype=np.int64),
        rng.randint(0, 1001, size=(n, 4)).astype(np.int64)])
    # a linearly-separable target along one feature (the shape the
    # ratio feature gives the real corpus)
    y = np.where(F[:, 3] >= 500, model.FEAT_SCALE, 0).astype(np.int64)
    return F, y


def _feat_table(F, y):
    cols = {f"f{j}": pa.array(F[:, j], pa.int64()) for j in range(5)}
    cols["doc_id"] = pa.array(range(len(y)), pa.int64())
    cols["y"] = pa.array(y, pa.int64())
    return pa.table(cols)


def _ref_threshold(F, y, w):
    s = F @ np.array(w, dtype=np.int64)
    pos, neg = s[y == model.FEAT_SCALE], s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        return model.FEAT_SCALE * model.W_SCALE // 2
    return model._tdiv(
        model._tdiv(int(pos.sum()), len(pos))
        + model._tdiv(int(neg.sum()), len(neg)), 2)


def test_fit_matches_reference_and_partitioning_invariant():
    F, y = _synth_features()
    t = _feat_table(F, y)
    want = _ref_fit(F, y)
    want_thr = _ref_threshold(F, y, want)
    for parts in (1, 7):
        ds = ray.data.from_arrow(t).repartition(parts)
        got = model.fit_linear_gd(ds)
        assert got == want, parts
        assert model.class_midpoint_threshold(ds, got) == want_thr, parts


def test_scorer_distills_the_gate():
    """On the synthetic target the learned linear scorer + learned
    class-midpoint threshold must agree with the label on a large
    majority (it IS linearly structured)."""
    F, y = _synth_features(n=400)
    ds = ray.data.from_arrow(_feat_table(F, y))
    w = model.fit_linear_gd(ds)
    thr = model.class_midpoint_threshold(ds, w)
    out = pa.concat_tables(ray.get(
        ds.map_batches(model.LinearScorer(w, threshold_fp=thr),
                       batch_format="pyarrow")
        .to_arrow_refs())).to_pandas().sort_values("doc_id")
    pred = out.pred_keep.to_numpy()
    acc = (pred == (y == model.FEAT_SCALE)).mean()
    assert acc >= 0.85, acc
    assert 0.0 < pred.mean() < 1.0  # actually discriminates


def test_quality_features_ranges():
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["the cat in the hat is it", ""],
                                   pa.string())})
    f = model.quality_features(t)
    for c in model.FEAT_COLS:
        v = f[c].to_numpy(zero_copy_only=False)
        assert (v >= 0).all() and (v <= model.FEAT_SCALE).all(), c
    assert f["y"].to_pylist() == [0, 0]  # < 20 tokens


def test_chunk_mode_consistency():
    texts = ["the cat sat on the mat " * 30, "tiny", ""]
    ds = _docs_ds(texts)
    wc = bpe.word_count_table(ds)
    merges = bpe.fit_bpe(wc, n_merges=12)
    exp = pa.concat_tables(ray.get(
        ds.map_batches(bpe.BpeTokenizer(merges), batch_format="pyarrow")
        .to_arrow_refs())).to_pandas()
    ch = pa.concat_tables(ray.get(
        ds.map_batches(bpe.BpeTokenizer(merges, mode="chunk",
                                        chunk_size=16),
                       batch_format="pyarrow")
        .to_arrow_refs())).to_pandas().sort_values(["doc_id", "chunk_idx"])
    for doc_id in range(len(texts)):
        toks = list(exp[exp.doc_id == doc_id]
                    .sort_values("tok_idx").bpe_token)
        g = ch[ch.doc_id == doc_id]
        if toks:
            # chunk concat reproduces the token stream
            assert " ".join(g.chunk_text).split(" ") == toks
            # all chunks full except possibly the last
            sizes = list(g.n_tokens)
            assert all(s == 16 for s in sizes[:-1])
            assert 1 <= sizes[-1] <= 16
            assert list(g.chunk_idx) == list(range(len(sizes)))
        else:
            assert len(g) == 0


def test_grep_cursor_pagination_matches_offset():
    """Keyset page-2 == rows 21..40 of the global ordering, and the
    two pages are disjoint."""
    from alco_ray.pipelines.queries import _ensure_text_index
    from alco_ray.stages.textindex import grep_probe

    sf = "/root/testdata/sf0.001"
    idx = _ensure_text_index(sf)
    top40 = grep_probe(idx, "shuffle", k=40).to_pandas()
    page1 = grep_probe(idx, "shuffle", k=20).to_pandas()
    last = page1.iloc[-1]
    cursor = (np.datetime64(last["parsed_ts"], "us"),
              str(last["conv_id"]), int(last["turn_idx"]))
    page2 = grep_probe(idx, "shuffle", k=20, cursor=cursor).to_pandas()
    key = ["parsed_ts", "conv_id", "turn_idx"]
    assert page2[key].reset_index(drop=True).equals(
        top40.iloc[20:40][key].reset_index(drop=True))
    merged = page1[key].merge(page2[key], on=key)
    assert len(merged) == 0


def test_index_freshness_reads_only_the_signature(tmp_path):
    """The LSH and IVF index metas carry no format version; an index
    is fresh when its signature matches, whatever else meta.json
    holds."""
    import json

    from alco_ray.pipelines.queries import _index_fresh

    idx = tmp_path / "ann"
    assert not _index_fresh(idx, "abc")             # never built
    idx.mkdir()
    (idx / "meta.json").write_text(json.dumps(
        {"kind": "lsh", "corpus_sig": "abc"}))
    assert _index_fresh(idx, "abc")
    assert not _index_fresh(idx, "abd")             # corpus changed


def test_probes_refuse_an_index_of_another_version(tmp_path):
    import json

    from alco_ray.stages import textindex

    (tmp_path / "meta.json").write_text(json.dumps(
        {"kind": "text_inverted", "version": textindex.INDEX_VERSION - 1,
         "n_buckets": 4, "text_col": "text"}))
    with pytest.raises(ValueError, match="rebuild"):
        textindex.grep_probe(tmp_path, "shuffle")


# --------------------------------------------------------------- PNG


def test_png_roundtrip_all_filters_random_pixels():
    """Encoder filters with RAW-byte predictors, decoder reconstructs
    with RECONSTRUCTED-byte predictors — agreement across all five
    spec filter types on random pixels pins both against RFC 2083."""
    import struct
    import zlib

    from alco_ray.stages import multimodal as mm

    rng = np.random.RandomState(7)
    w, h = 5, 5
    px = rng.randint(0, 256, (h, w, 3)).astype(np.uint8)
    for ft in range(5):
        prev = np.zeros(w * 3, np.uint8)
        lines = []
        for y in range(h):
            raw = px[y].reshape(-1)
            lines.append(bytes([ft])
                         + mm._png_filter_row(ft, raw, prev).tobytes())
            prev = raw
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        payload = (mm._PNG_SIG + mm._png_chunk(b"IHDR", ihdr)
                   + mm._png_chunk(b"IDAT",
                                   zlib.compress(b"".join(lines)))
                   + mm._png_chunk(b"IEND", b""))
        got = mm.PngDecoder()._decode(payload)
        assert got is not None, f"filter {ft} failed to decode"
        assert got[:2] == (w, h)
        np.testing.assert_array_equal(got[2], px), f"filter {ft}"


def test_png_decoder_spec_conformance_and_poison():
    from alco_ray.stages.multimodal import (PngDecoder, _PNG_SIG,
                                            _png_chunk)

    enc = PngDecoder.encode(pa.table({
        "doc_id": pa.array(list(range(25)), pa.int64())}))
    good = enc["payload"][3].as_py()
    # split the IDAT stream across two chunks — spec-legal, must decode
    import struct
    (size,) = struct.unpack(
        ">I", good[len(_PNG_SIG) + 25:len(_PNG_SIG) + 29])
    ihdr_blob = good[:len(_PNG_SIG) + 25]
    idat = good[len(_PNG_SIG) + 33:len(_PNG_SIG) + 33 + size]
    iend = _png_chunk(b"IEND", b"")
    two_idat = (ihdr_blob + _png_chunk(b"IDAT", idat[:5])
                + _png_chunk(b"IDAT", idat[5:]) + iend)
    dec = PngDecoder()
    one, two = dec._decode(good), dec._decode(two_idat)
    assert one is not None and two is not None
    np.testing.assert_array_equal(one[2], two[2])

    # corrupting any single byte of the payload must yield decode_ok
    # False (CRC catches it), never a crash or wrong pixels
    corrupt = bytearray(good)
    corrupt[len(_PNG_SIG) + 8 + 4] ^= 0xFF  # IHDR width byte
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "payload": pa.array([bytes(corrupt), b"", good[:-2]],
                            pa.binary()),
    })
    out = dec(batch).to_pylist()
    assert [r["decode_ok"] for r in out] == [False, False, False]
    assert out[0]["mean_r"] is None


def test_png_fixture_closed_forms():
    from alco_ray.stages.multimodal import PngDecoder

    ids = pa.table({"doc_id": pa.array(list(range(70)), pa.int64())})
    out = PngDecoder()(PngDecoder.encode(ids)).to_pylist()
    for r in out:
        i = r["doc_id"]
        assert r["decode_ok"]
        assert (r["width"], r["height"]) == ((i % 7 + 1) * 2,
                                             (i % 5 + 1) * 2)
        assert (r["mean_r"], r["mean_g"], r["mean_b"]) \
            == (i % 256, (i * 11) % 256, (i * 17) % 256)


# --------------------------------------------------------------- ADPCM


def test_ima_reconstruct_hand_computed():
    """Spec arithmetic by hand from the initial state (pred 0, index 0,
    step 7): nibble 7 -> delta 0+1+3+7 = 11, index 0+8 = 8; nibble 8
    (sign only, delta step>>3 = step/8 floor) -> pred -= step>>3."""
    from alco_ray.stages.multimodal import _ima_reconstruct

    assert _ima_reconstruct(7, 0, 0) == (11, 8)
    assert _ima_reconstruct(0, 0, 0) == (0, 0)     # clamp index at 0
    assert _ima_reconstruct(8, 100, 20) == (100 - (50 >> 3), 19)
    # saturation: max positive step from top index clamps at int16
    assert _ima_reconstruct(7, 32000, 88)[0] == 32767


def test_adpcm_stage_matches_independent_reference():
    from alco_ray.fixtures import _adpcm_reference_stats
    from alco_ray.stages.multimodal import AdpcmWavDecoder

    enc = AdpcmWavDecoder.encode(pa.table({
        "doc_id": pa.array([0, 3, 11, 57, 123], pa.int64())}))
    got = AdpcmWavDecoder()(enc).to_pylist()
    for row, payload in zip(got, enc["payload"].to_pylist()):
        assert row["decode_ok"]
        ref = _adpcm_reference_stats(payload)
        assert (row["sample_rate"], row["n_samples"], row["duration_us"],
                row["peak"], row["mean_amp"]) == ref


def test_adpcm_roundtrip_tracks_signal_and_poison():
    from alco_ray.stages.multimodal import (AdpcmWavDecoder,
                                            adpcm_fixture_signal)

    enc = AdpcmWavDecoder.encode(pa.table({
        "doc_id": pa.array([2], pa.int64())}))
    payload = enc["payload"][0].as_py()
    rate, sig = adpcm_fixture_signal(2)
    d = AdpcmWavDecoder()._decode(payload)
    assert d is not None and d[0] == rate and len(d[1]) == len(sig)
    # lossy 4-bit codec: after step-size adaptation (skip the first
    # block) the decoded signal tracks the original within one step
    err = np.abs(d[1][505:] - sig[505:].astype(np.int64))
    assert err.mean() < 1500 and np.median(err) < 1000
    # poison payloads dead-letter, never crash
    bad = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "payload": pa.array([
            b"RIFFxxxxWAVE",                      # no chunks
            payload[:-10],                        # truncated data chunk
            payload.replace(b"\x11\x00\x01\x00",  # PCM tag, not 0x11
                            b"\x01\x00\x01\x00", 1),
        ], pa.binary()),
    })
    out = AdpcmWavDecoder()(bad).to_pylist()
    assert [r["decode_ok"] for r in out] == [False, False, False]


# --------------------------------------------------------------- JPEG


def test_jpeg_roundtrip_within_quantization_error():
    """decode(encode(img)) must track the original within the error a
    flat qt=16/24 baseline JPEG permits — a loose bound that still
    catches orientation/zigzag/extend bugs (any of those produce
    garbage, not small error)."""
    from alco_ray.stages.jpeg import (decode_baseline_jpeg,
                                      encode_baseline_jpeg,
                                      jpeg_fixture_image)

    for i in (0, 5, 17):
        img = jpeg_fixture_image(i)
        w, h, rgb = decode_baseline_jpeg(encode_baseline_jpeg(img))
        assert (h, w) == img.shape[:2]
        err = np.abs(rgb.astype(np.int64) - img.astype(np.int64))
        assert err.max() <= 64 and err.mean() < 12, (i, err.max())


def test_jpeg_extend_rule_and_bitwriter_stuffing():
    from alco_ray.stages.jpeg import _BitWriter, _extend, _extend_bits

    # spec F.1.2.1 magnitude coding is its own inverse
    for v in (-255, -128, -1, 1, 2, 127, 1023):
        size, bits = _extend_bits(v)
        assert _extend(bits, size) == v
    assert _extend_bits(0) == (0, 0)
    # a 0xFF byte in the entropy stream must be stuffed with 0x00
    bw = _BitWriter()
    bw.write(0xFF, 8)
    out = bw.flush()
    assert out[:2] == b"\xff\x00"


def test_jpeg_stage_matches_independent_reference():
    from alco_ray.fixtures import _jpeg_reference_stats
    from alco_ray.stages.jpeg import JpegDecoder

    enc = JpegDecoder.encode(pa.table({
        "doc_id": pa.array([0, 1, 7, 29, 113], pa.int64())}))
    got = JpegDecoder()(enc).to_pylist()
    for row, payload in zip(got, enc["payload"].to_pylist()):
        assert row["decode_ok"]
        assert (row["width"], row["height"], row["mean_r"],
                row["mean_g"], row["mean_b"]) \
            == _jpeg_reference_stats(payload)


def test_jpeg_poison_payloads_dead_letter():
    from alco_ray.stages.jpeg import JpegDecoder, decode_baseline_jpeg

    enc = JpegDecoder.encode(pa.table({
        "doc_id": pa.array([4, 0], pa.int64())}))
    good = enc["payload"][0].as_py()
    sos = good.index(b"\xff\xda")
    # the decoder's two non-ValueError escapes, as single-bit flips of
    # the smallest fixture (id 0, 8x8)
    small = enc["payload"][1].as_py()
    # SOF0 marker -> DHT: the frame header is read as a Huffman table
    # whose BITS list is too short
    sof_as_dht = bytearray(small)
    sof_as_dht[small.index(b"\xff\xc0") + 1] ^= 0x04
    # last HUFFVAL of the first (DC) table + 64: a DC size category
    # that large overflows the int64 coefficient
    dc_symbol = bytearray(small)
    dht = small.index(b"\xff\xc4")
    dht_len = int.from_bytes(small[dht + 2:dht + 4], "big")
    dc_symbol[dht + 1 + dht_len] ^= 0x40
    with pytest.raises(IndexError):
        decode_baseline_jpeg(bytes(sof_as_dht))
    with pytest.raises(OverflowError):
        decode_baseline_jpeg(bytes(dc_symbol))
    bad = pa.table({
        "doc_id": pa.array(list(range(7)), pa.int64()),
        "payload": pa.array([
            b"",                                  # empty
            b"\xff\xd8\xff\xd9",                  # SOI+EOI, no frame
            good[:sos],                           # headers, no scan
            good[:-20],                           # truncated entropy
            good.replace(b"\xff\xc0", b"\xff\xc2", 1),  # progressive SOF
            bytes(sof_as_dht),                    # IndexError
            bytes(dc_symbol),                     # OverflowError
        ], pa.binary()),
    })
    out = JpegDecoder()(bad).to_pylist()
    assert [r["decode_ok"] for r in out] == [False] * 7
    assert all(r["mean_r"] is None for r in out)


# -------------------------------------------------------------- k-means


def _km_reference(vecs, k, iters, scale=1024):
    """Independent dict-and-loop replay of the pinned k-means
    recurrence (quantize half-away, argmin with lowest-index ties,
    truncating-division updates, empty-cluster carry)."""
    import math

    q = [[int(math.floor(abs(x * scale) + 0.5)) * (1 if x >= 0 else -1)
          for x in v] for v in vecs]
    cents = [list(q[i]) for i in range(k)]

    def assign(c):
        out = []
        for v in q:
            best, bd = 0, None
            for ci, cv in enumerate(c):
                d = sum((a - b) ** 2 for a, b in zip(v, cv))
                if bd is None or d < bd:
                    best, bd = ci, d
            out.append(best)
        return out

    for _ in range(iters):
        a = assign(cents)
        new = [list(c) for c in cents]
        for ci in range(k):
            members = [q[i] for i in range(len(q)) if a[i] == ci]
            if members:
                n = len(members)
                new[ci] = [
                    (abs(s) // n) * (1 if s >= 0 else -1)
                    for s in (sum(col) for col in zip(*members))]
        cents = new
    return assign(cents)


def test_kmeans_matches_reference_and_partitioning(ray_session):
    from alco_ray.stages.similarity import kmeans_fixed_point

    rng = np.random.RandomState(5)
    vecs = rng.randn(60, 6)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    want = _km_reference([list(v) for v in vecs], k=4, iters=3)

    def ds_with_blocks(nblocks):
        t = pa.table({
            "vec_id": pa.array(range(60), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32()))})
        # float32 storage like the fixture table; reference quantizes
        # the same float64-upcast values
        return ray.data.from_arrow(t).repartition(nblocks)

    # reference quantizes from the FLOAT32-rounded values too
    f32 = np.array([np.array(v, np.float32) for v in vecs], np.float64)
    want = _km_reference([list(v) for v in f32], k=4, iters=3)
    for nblocks in (1, 3, 7):
        out = kmeans_fixed_point(ds_with_blocks(nblocks), k=4, iters=3)
        got = {r["vec_id"]: r["cluster"] for r in out.take_all()}
        assert [got[i] for i in range(60)] == want, nblocks


def test_kmeans_small_corpus_raises(ray_session):
    from alco_ray.stages.similarity import kmeans_fixed_point

    t = pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[0.1, 0.2], [0.3, 0.4]],
                              pa.list_(pa.float32()))})
    with pytest.raises(ValueError, match="need >= 8"):
        kmeans_fixed_point(ray.data.from_arrow(t), k=8, iters=1)


# --------------------------------------------------------- dup spans


def _span_reference(texts, n=5):
    """Independent dict-and-loop replay of the span-masking rule."""
    import re
    from collections import defaultdict

    toks = [
        [t for t in re.split(r"[^a-z0-9]+", s.lower()) if t]
        for s in texts]
    owner = defaultdict(set)
    for d, tk in enumerate(toks):
        for i in range(len(tk) - n + 1):
            owner[tuple(tk[i:i + n])].add(d)
    out = []
    for d, tk in enumerate(toks):
        covered = [False] * len(tk)
        for i in range(len(tk) - n + 1):
            if len(owner[tuple(tk[i:i + n])]) > 1:
                for j in range(i, i + n):
                    covered[j] = True
        kept = [t for t, c in zip(tk, covered) if not c]
        out.append((len(tk), sum(covered), " ".join(kept)))
    return out


def test_dup_span_mask_matches_reference(ray_session, monkeypatch):
    from alco_ray.stages import window
    from alco_ray.stages.text import dup_span_mask

    texts = [
        "the quick brown fox jumps over the lazy dog tonight",
        "a quick brown fox jumps over the lazy dog yesterday",  # shared span
        "completely unrelated words appear in this one only",
        "short doc",                                    # < n tokens
        "",                                             # empty
        "the quick brown fox jumps over the lazy dog tonight",  # full dup
        "repeat repeat repeat repeat repeat repeat me",  # within-doc only
    ]
    want = _span_reference(texts)
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    for frame_rows in (4, window.FRAME_ROWS):
        monkeypatch.setattr(window, "FRAME_ROWS", frame_rows)
        got = {r["doc_id"]: (r["n_tokens"], r["n_masked"], r["clean_text"])
               for r in dup_span_mask(ds, n=5).take_all()}
        assert len(got) == len(texts)
        for d in range(len(texts)):
            assert got[d] == want[d], (frame_rows, d, got[d], want[d])
    # the fully-duplicated pair is entirely masked; the within-doc
    # repeat is NOT (distinct-doc rule); the unrelated doc is intact
    assert got[0][2] == "" and got[5][2] == ""
    assert got[6] == (7, 0, texts[6])
    assert got[2][1] == 0


# ---------------------------------------------------- quantile sketch


def test_mrl_sketch_rank_error_bound():
    """Deterministic MRL: observed rank error of every queried
    quantile stays within the level-weight budget (sum of collapse
    weights), checked against exact quantiles on adversarial and
    random inputs."""
    from alco_ray.stages.sketch import mrl_build, mrl_quantile

    rng = np.random.RandomState(17)
    for vals in (rng.randint(-10**9, 10**9, 200_000),
                 np.arange(200_000),           # sorted
                 np.arange(200_000)[::-1],     # reverse-sorted
                 np.repeat([5, -3, 11], 50_000)):
        vals = vals.astype(np.int64)
        sk = mrl_build(vals, k=256)
        vs = np.sort(vals)
        n = len(vs)
        for q in (0.01, 0.25, 0.5, 0.75, 0.99):
            got = mrl_quantile(sk, q)
            # a duplicated value occupies a rank INTERVAL — error is
            # the distance from q*n to [left, right)
            lo = np.searchsorted(vs, got, side="left")
            hi = np.searchsorted(vs, got, side="right")
            err = max(lo - q * n, q * n - hi, 0)
            # generous envelope: 2% of N for k=256 (measured ~0.5%)
            assert err <= 0.02 * n + 256, (q, lo, hi, q * n)


def test_mrl_merge_equals_monolithic_weight_and_bound():
    from alco_ray.stages.sketch import (mrl_build, mrl_merge,
                                        mrl_quantile)

    rng = np.random.RandomState(3)
    a = rng.randint(0, 10**6, 60_000).astype(np.int64)
    b = rng.randint(0, 10**6, 90_000).astype(np.int64)
    merged = mrl_merge(mrl_build(a, 256), mrl_build(b, 256), 256)
    # total weight is exactly preserved by collapses and merges
    tot = sum(len(lv) * (1 << i) for i, lv in enumerate(merged))
    assert tot == len(a) + len(b)
    allv = np.sort(np.concatenate([a, b]))
    med = mrl_quantile(merged, 0.5)
    rank = np.searchsorted(allv, med)
    assert abs(rank - 0.5 * len(allv)) <= 0.02 * len(allv) + 256


def test_quantile_sketch_dataset_roundtrip(ray_session):
    from alco_ray.stages.sketch import quantile_sketch

    vals = np.arange(50_000, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"value": pa.array(vals)})) \
        .repartition(8)
    out = quantile_sketch(ds, "value", k=256)
    got = {r["q"]: r["value"] for r in out.to_pylist()}
    for q, v in got.items():
        assert abs(v - q * 50_000) <= 0.02 * 50_000 + 256, (q, v)


def test_quantile_sketch_grouped_bounds(ray_session):
    from alco_ray.stages.sketch import quantile_sketch_grouped

    rng = np.random.RandomState(9)
    groups = np.repeat(["a", "b", "c"], 30_000)
    vals = np.concatenate([
        rng.randint(0, 1000, 30_000),
        rng.randint(5000, 9000, 30_000),
        np.arange(30_000)])
    ds = ray.data.from_arrow(pa.table({
        "event_type": pa.array(groups),
        "value": pa.array(vals.astype(np.int64))})).repartition(6)
    out = quantile_sketch_grouped(ds, "event_type", "value", k=256)
    rows = out.to_pylist()
    assert sorted({r["event_type"] for r in rows}) == ["a", "b", "c"]
    by_g = {g: np.sort(vals[groups == g]) for g in "abc"}
    for r in rows:
        vs = by_g[r["event_type"]]
        lo = np.searchsorted(vs, r["value"], side="left")
        hi = np.searchsorted(vs, r["value"], side="right")
        n = len(vs)
        err = max(lo - r["q"] * n, r["q"] * n - hi, 0)
        assert err <= 0.02 * n + 256, r


def test_mp4_parser_boxes_and_poison():
    """ISO-BMFF box walk: closed-form fixture fields back out, both
    mvhd versions and the largesize branch are hit, and malformed
    containers dead-letter with decode_ok=False instead of crashing."""
    import struct

    from alco_ray.stages.multimodal import Mp4MetaParser

    ids = list(range(12))
    enc = Mp4MetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    parser = Mp4MetaParser()
    out = parser(enc).to_pylist()
    for i, r in zip(ids, out):
        assert r["decode_ok"] is True
        assert r["brand"] == "isom"
        assert r["n_tracks"] == i % 2 + 1
        assert r["duration_us"] == ((i % 50 + 1) * 100 * 1_000_000
                                    ) // (600 * (i % 3 + 1))
        assert r["codecs"] == ("avc1" if i % 2 == 0 else "avc1,mp4a")
        assert r["mdat_bytes"] == i % 64 + 8
    # fixture rotation really covers both mvhd versions + largesize
    assert any(enc["payload"][i].as_py().find(b"mdat") and i % 5 == 0
               for i in ids)
    good = enc["payload"][7].as_py()
    assert good[4:8] == b"ftyp"

    # poison: truncated box, size underrun inside moov, missing ftyp,
    # empty payload — all dead-letter, none crash
    no_ftyp = good[good.index(b"moov") - 4:]
    trunc = good[:-5]
    bad_size = bytearray(good)
    moov_at = good.index(b"moov") - 4
    struct.pack_into(">I", bad_size, moov_at, 4)  # size < header
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "payload": pa.array([no_ftyp, trunc, bytes(bad_size), b""],
                            pa.binary()),
    })
    got = parser(batch).to_pylist()
    assert [r["decode_ok"] for r in got] == [False] * 4
    assert got[0]["duration_us"] is None and got[0]["codecs"] is None


def test_mp4_duration_overflow_dead_letters():
    """A v1 mvhd duration whose microsecond value is >= 2**63 cannot
    fit the int64 column: that row dead-letters, its neighbours keep
    their values, and nothing raises."""
    import struct

    from alco_ray.stages.multimodal import Mp4MetaParser

    enc = Mp4MetaParser.encode(pa.table({"doc_id": pa.array([0, 1, 2],
                                                        pa.int64())}))
    payloads = enc["payload"].to_pylist()
    huge = bytearray(payloads[1])                 # odd id: mvhd v1
    mvhd = huge.index(b"mvhd") + 4
    assert huge[mvhd] == 1
    struct.pack_into(">Q", huge, mvhd + 24, 2 ** 64 - 1)  # duration
    timescale = struct.unpack_from(">I", huge, mvhd + 20)[0]
    assert (2 ** 64 - 1) * 1_000_000 // timescale >= 2 ** 63

    parser = Mp4MetaParser()
    clean = parser(enc).to_pylist()
    got = parser(pa.table({
        "doc_id": enc["doc_id"],
        "payload": pa.array([payloads[0], bytes(huge), payloads[2]],
                            pa.binary()),
    })).to_pylist()
    assert [r["decode_ok"] for r in got] == [True, False, True]
    assert got[1]["duration_us"] is None and got[1]["brand"] is None
    assert (got[0], got[2]) == (clean[0], clean[2])


def test_mp3_parser_vbr_and_poison():
    """Frame-header walk: closed forms back out (VBR — per-frame
    bitrates rotate, duration must count frames not bytes), and bad
    sync / truncation / mid-stream rate changes dead-letter."""
    from alco_ray.stages.multimodal import (_MP3_BITRATES, Mp3MetaParser)

    ids = list(range(10))
    enc = Mp3MetaParser.encode(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    parser = Mp3MetaParser()
    out = parser(enc).to_pylist()
    rates = (44100, 48000, 32000)
    for i, r in zip(ids, out):
        nf = i % 40 + 1
        assert r["decode_ok"] is True
        assert r["n_frames"] == nf
        assert r["sample_rate"] == rates[i % 3]
        assert r["duration_us"] == nf * 1152 * 1_000_000 // rates[i % 3]
        assert r["mean_bitrate_kbps"] == sum(
            _MP3_BITRATES[(i + f) % 14 + 1] for f in range(nf)) // nf

    good = enc["payload"][3].as_py()
    bad_sync = b"\x00" + good[1:]
    trunc = good[:-1]
    # two individually-valid streams at different sampling rates,
    # concatenated: every frame parses, the rate change must reject
    mixed_rate = enc["payload"][0].as_py() + enc["payload"][2].as_py()
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "payload": pa.array([bad_sync, trunc, mixed_rate, b""],
                            pa.binary()),
    })
    got = parser(batch).to_pylist()
    assert [r["decode_ok"] for r in got] == [False, False, False, False]
    assert got[0]["duration_us"] is None
