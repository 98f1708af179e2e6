"""Deterministic synthetic transcript corpus (FIXTURES.md §1).

Generates the authoritative input table
``transcripts(conv_id, turn_idx, role, text, tool, ts)`` at any scale,
fully determined by ``seed`` — no wall clock, no external data.  The
``text`` column embeds the parse targets the engine must extract
(``level=<L>`` tokens, ISO-8601 timestamps incl. malformed ones,
``key=value`` pairs, ``tool_call:<name>(...)`` markers), with rows that
lack a level token (UNKNOWN bucket) and rows with malformed timestamps
(parse_failures metric) guaranteed to exist.

Conversation lengths are Zipf(a=1.5)-skewed, clipped to [2, 512], plus
two "hot" conversations holding ~5% of all turns each, to exercise the
salted repartitioning required by BASELINE.json:14.

Output is multi-file Parquet (>=8 files) so partition-level
checkpoint/resume and routing operate on real partitions.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROLES = np.array(["system", "user", "assistant", "tool"])
ROLE_P = np.array([0.05, 0.35, 0.40, 0.20])
TOOLS = np.array(
    ["search", "code", "browser", "calc", "sql", "shell", "files", "mail",
     "wiki", "maps", "vision", "audio", "translate", "weather", "news", "stock"]
)
LEVELS = np.array(["DEBUG", "INFO", "WARN", "ERROR"])
LEVEL_P = np.array([0.3, 0.45, 0.15, 0.10])
KV_KEYS = np.array(["host", "req_id", "status", "shard"])
BASE_TS_US = np.int64(1704067200000000)  # 2024-01-01T00:00:00Z in microseconds

_VOCAB = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu stream batch shuffle parse route enrich aggregate"
).split()


def _lorem_phrases(rng: np.random.RandomState, n_phrases: int = 256) -> np.ndarray:
    """Pre-built pool of lorem phrases; rows sample from the pool so text
    assembly stays vectorized at any corpus size."""
    idx = rng.randint(0, len(_VOCAB), size=(n_phrases, 8))
    return np.array([" ".join(_VOCAB[j] for j in row) for row in idx])


def conversation_lengths(rng: np.random.RandomState, n_convs: int,
                         target_turns: int) -> np.ndarray:
    """Zipf(1.5) lengths clipped to [2, 512], rescaled to ~target_turns,
    then two hot conversations each inflated to ~5% of all turns."""
    lens = np.clip(rng.zipf(1.5, size=n_convs), 2, 512).astype(np.int64)
    scale = target_turns / max(1, lens.sum())
    lens = np.maximum(2, (lens * scale).astype(np.int64))
    if n_convs >= 4:
        hot = max(2, int(0.05 * lens.sum()))
        lens[0] = hot
        lens[1] = hot
    return lens


def generate_transcripts(n_convs: int, target_turns: int,
                         seed: int = 42, conv_prefix: str = "c") -> pa.Table:
    """Build the full transcript table in memory (vectorized numpy)."""
    rng = np.random.RandomState(seed)
    lens = conversation_lengths(rng, n_convs, target_turns)
    n = int(lens.sum())
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])

    conv_ids = np.array([f"{conv_prefix}{i:06d}" for i in range(n_convs)])
    conv_of_row = np.repeat(np.arange(n_convs), lens)
    conv_id = conv_ids[conv_of_row]
    turn_idx = (np.arange(n) - np.repeat(starts, lens)).astype(np.int32)

    # ts: per-conv deterministic start (spread over ~30 days), then
    # strictly increasing 1..60 s gaps within the conversation.
    conv_start = BASE_TS_US + (rng.randint(0, 30 * 86400, size=n_convs).astype(np.int64) * 1_000_000)
    gaps = rng.randint(1, 61, size=n).astype(np.int64) * 1_000_000
    cum = np.cumsum(gaps)
    cum_within = cum - np.repeat(cum[starts] - gaps[starts], lens)
    ts = np.repeat(conv_start, lens) + cum_within

    role = rng.choice(ROLES, size=n, p=ROLE_P)
    role[turn_idx == 0] = "system"
    is_tool = role == "tool"
    tool_str = rng.choice(TOOLS, size=n)

    # --- text assembly (Arrow compute kernels; C++-vectorized) -------
    import pyarrow.compute as pc

    def _join(*parts, sep=""):
        return pc.binary_join_element_wise(*parts, sep)

    def _masked(mask, arr):
        return pc.if_else(pa.array(mask), arr, pa.scalar(None, pa.string()))

    phrases = _lorem_phrases(rng)
    body = pa.array(phrases[rng.randint(0, len(phrases), size=n)], pa.string())

    has_level = rng.random_sample(n) < 0.8
    level_tok = _masked(has_level, _join(
        pa.scalar("level="), pa.array(rng.choice(LEVELS, size=n, p=LEVEL_P))))

    has_ts = rng.random_sample(n) < 0.5
    bad_ts = rng.random_sample(n) < 0.05  # malformed subset
    # Deterministic ISO token derived from the row ts plus jitter.
    iso_us = ts + rng.randint(0, 1_000_000, size=n)
    iso = _format_iso(iso_us)
    ts_tok = _masked(
        has_ts,
        pc.if_else(pa.array(bad_ts), pa.scalar("at=2024-13-99T99:99:99Z"),
                   _join(pa.scalar("at="), iso)))

    has_kv = rng.random_sample(n) < 0.6
    kv = _masked(has_kv, _join(
        pa.array(rng.choice(KV_KEYS, size=n)), pa.scalar("="),
        pa.array(rng.randint(0, 1000, size=n).astype(str))))

    tool_tok = _masked(is_tool, _join(
        pa.scalar("tool_call:"), pa.array(tool_str), pa.scalar("(arg="),
        pa.array(rng.randint(0, 100, size=n).astype(str)), pa.scalar(")")))

    text = pc.binary_join_element_wise(
        body, level_tok, ts_tok, kv, tool_tok, " ", null_handling="skip")

    return pa.table(
        {
            "conv_id": pa.array(conv_id, pa.string()),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": text,
            "tool": pc.if_else(pa.array(is_tool), pa.array(tool_str),
                               pa.scalar(None, pa.string())),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )


def _format_iso(us: np.ndarray) -> pa.Array:
    """Vectorized ISO-8601 'YYYY-MM-DDTHH:MM:SS.ffffffZ' from int64 micros."""
    import pyarrow.compute as pc

    secs = (us // 1_000_000).astype("datetime64[s]")
    frac = (us % 1_000_000).astype(np.int64)
    base = pa.array(np.datetime_as_string(secs))  # YYYY-MM-DDTHH:MM:SS
    fracs = pc.utf8_lpad(pc.cast(pa.array(frac), pa.string()), 6, "0")
    return pc.binary_join_element_wise(base, ".", fracs, "Z", "")


# Named scales (FIXTURES.md §1); t-bench size comes from the caller.
SCALES = {
    "t-small": (100, 1_000),
    "t-mid": (2_000, 50_000),
}

# Map a driver sf dir to a transcript corpus size mirroring lineitem rows.
SF_TURNS = {"sf0.001": (300, 6_000), "sf0.01": (2_000, 60_000),
            "sf0.1": (20_000, 600_000), "sf1": (200_000, 6_000_000)}

# Shard count per scale: enough files that a 32-CPU run has real
# read/ingest parallelism (blocks >= CPUs) at bench scales, while the
# tiny test scales stay cheap to generate and read.
SF_FILES = {"sf0.001": 8, "sf0.01": 16, "sf0.1": 64, "sf1": 256}


def corpus_dir(tag: str, root: str = "/tmp/alco_ray_fixtures") -> Path:
    return Path(root) / tag


def ensure_corpus(tag: str, n_convs: int | None = None,
                  target_turns: int | None = None, seed: int = 42,
                  n_files: int = 8, root: str = "/tmp/alco_ray_fixtures") -> Path:
    """Idempotently materialize the corpus for ``tag`` as >=n_files
    Parquet files; atomic via write-to-temp + rename, so concurrent or
    interrupted generation can never yield a partial corpus."""
    if n_convs is None or target_turns is None:
        n_convs, target_turns = SCALES.get(tag) or SF_TURNS[tag]
        n_files = SF_FILES.get(tag, n_files)
    out = corpus_dir(tag, root)
    marker = out / "_COMPLETE"
    # The marker records the FULL generation parameters: a cached tag
    # must regenerate whenever any of them change, not just the layout.
    stamp = f"{n_files}:{n_convs}:{target_turns}:{seed}"
    if marker.exists():
        if marker.read_text() == stamp:
            return out
        import shutil
        shutil.rmtree(out, ignore_errors=True)
    table = generate_transcripts(n_convs, target_turns, seed=seed)
    tmp = out.with_name(out.name + f".tmp.{os.getpid()}")
    import shutil
    shutil.rmtree(tmp, ignore_errors=True)  # stale shards from a crash
    tmp.mkdir(parents=True, exist_ok=True)
    n = table.num_rows
    per = max(1, -(-n // n_files))
    for i in range(n_files):
        chunk = table.slice(i * per, per)
        if chunk.num_rows == 0:
            break
        pq.write_table(chunk, tmp / f"part-{i:05d}.parquet")
    (tmp / "_COMPLETE").write_text(stamp)
    try:
        os.rename(tmp, out)
    except OSError:
        # Another process won the race; ours is redundant.
        import shutil
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def ensure_corpus_parallel(tag: str, n_convs: int, target_turns: int,
                           n_files: int, seed: int = 42,
                           root: str = "/tmp/alco_ray_fixtures") -> Path:
    """Large-corpus variant: each shard generated by an independent Ray
    task (shard-local seed, disjoint ``s<i>c...`` conv_id namespace) and
    written straight to its own Parquet file — generation time scales
    with CPUs instead of a single driver thread.  Content differs from
    the single-pass generator for the same sizes (different RNG
    stream); use only for bench-scale corpora, not oracle fixtures."""
    import ray

    out = corpus_dir(tag, root)
    marker = out / "_COMPLETE"
    stamp = f"{n_files}:{n_convs}:{target_turns}:{seed}"
    if marker.exists() and marker.read_text() == stamp:
        return out

    @ray.remote(num_cpus=1)
    def gen_shard(i: int, path: str) -> int:
        t = generate_transcripts(
            max(4, n_convs // n_files), target_turns // n_files,
            seed=seed * 100_003 + i, conv_prefix=f"s{i:03d}c")
        pq.write_table(t, path)
        return t.num_rows

    import shutil
    tmp = out.with_name(out.name + f".tmp.{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True, exist_ok=True)
    ray.get([gen_shard.remote(i, str(tmp / f"part-{i:05d}.parquet"))
             for i in range(n_files)])
    (tmp / "_COMPLETE").write_text(stamp)
    shutil.rmtree(out, ignore_errors=True)
    try:
        os.rename(tmp, out)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def corpus_for_sf(sf_dir: str, root: str = "/tmp/alco_ray_fixtures") -> Path:
    """Transcript corpus sized to match a driver testdata dir."""
    tag = Path(sf_dir).name
    if tag not in SF_TURNS:
        tag = "sf0.01"
    return ensure_corpus(tag, root=root)


def _adpcm_reference_stats(payload: bytes):
    """INDEPENDENT naive IMA-ADPCM reference decoder (plain Python
    loops, its own chunk walk) — deliberately a second implementation
    of the spec next to stages/multimodal.AdpcmWavDecoder, so the
    mm_adpcm_meta oracle checks the stage against a reimplementation,
    not against itself.  Only the published spec CONSTANTS (step /
    index tables) are shared; the state machine is rewritten here."""
    import struct

    from .stages.multimodal import _IMA_INDEX, _IMA_STEPS

    chunks = {}
    pos = 12
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        (size,) = struct.unpack("<I", payload[pos + 4:pos + 8])
        chunks[cid] = payload[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    tag, _, rate, _, balign, _, _, spb = struct.unpack(
        "<HHIIHHHH", chunks[b"fmt "][:20])
    assert tag == 0x11
    (n_total,) = struct.unpack("<I", chunks[b"fact"][:4])
    data = chunks[b"data"]
    samples = []
    for b0 in range(0, len(data), balign):
        pred, index = struct.unpack("<hB", data[b0:b0 + 3])
        samples.append(pred)
        for byte in data[b0 + 4:b0 + balign]:
            for nib in (byte & 0xF, byte >> 4):
                step = int(_IMA_STEPS[index])
                delta = step >> 3
                if nib & 1:
                    delta += step >> 2
                if nib & 2:
                    delta += step >> 1
                if nib & 4:
                    delta += step
                pred = pred - delta if nib & 8 else pred + delta
                pred = min(32767, max(-32768, pred))
                index = min(88, max(0, index + int(_IMA_INDEX[nib & 7])))
                samples.append(pred)
    samples = samples[:n_total]
    total = sum(samples)
    return (rate, len(samples), len(samples) * 1_000_000 // rate,
            max(abs(s) for s in samples), total // len(samples))


def _jpeg_reference_stats(payload: bytes):
    """INDEPENDENT naive baseline-JPEG reference decoder — a second
    implementation of ITU-T T.81 next to stages/jpeg.decode_baseline_
    jpeg, sharing only the PINNED spec constants (zigzag order, the
    integer-IDCT cosine table, the integer JFIF conversion formulas —
    the module-docstring contract in stages/jpeg.py).  Everything
    structural is rewritten: dict-based Huffman decode over code
    strings, a generator bit reader, per-sample IDCT loops."""
    import struct

    from .stages.jpeg import IDCT_M, ZIGZAG

    assert payload[:2] == b"\xff\xd8"
    pos = 2
    qts, huffs, sof = {}, {}, None
    while True:
        marker = payload[pos + 1]
        (ln,) = struct.unpack(">H", payload[pos + 2:pos + 4])
        seg = payload[pos + 4:pos + 2 + ln]
        pos += 2 + ln
        if marker == 0xDB:
            body = seg
            while body:
                qts[body[0] & 0xF] = list(body[1:65])
                body = body[65:]
        elif marker == 0xC4:
            body = seg
            while body:
                cls, tid = body[0] >> 4, body[0] & 0xF
                counts = list(body[1:17])
                vals = list(body[17:17 + sum(counts)])
                table, code, vi = {}, 0, 0
                for length in range(1, 17):
                    for _ in range(counts[length - 1]):
                        table[format(code, f"0{length}b")] = vals[vi]
                        code += 1
                        vi += 1
                    code <<= 1
                huffs[(cls, tid)] = table
                body = body[17 + sum(counts):]
        elif marker == 0xC0:
            _, h, w, nc = struct.unpack(">BHHB", seg[:6])
            comps = [(seg[6 + 3 * i], seg[8 + 3 * i]) for i in range(nc)]
            sof = (w, h, comps)
        elif marker == 0xDA:
            ns = seg[0]
            scan_tables = [(seg[2 + 2 * i] >> 4, seg[2 + 2 * i] & 0xF)
                           for i in range(ns)]
            break

    def bit_stream(d: bytes):
        i = 0
        while i < len(d):
            b = d[i]
            i += 2 if b == 0xFF else 1
            for k in range(7, -1, -1):
                yield (b >> k) & 1

    bits = bit_stream(payload[pos:])

    def read_symbol(table):
        code = ""
        while code not in table:
            code += str(next(bits))
            assert len(code) <= 16
        return table[code]

    def read_extend(size):
        if size == 0:
            return 0
        v = 0
        for _ in range(size):
            v = (v << 1) | next(bits)
        return v if v >= (1 << (size - 1)) else v - (1 << size) + 1

    w, h, comps = sof
    planes = [[[0] * w for _ in range(h)] for _ in range(len(comps))]
    preds = [0] * len(comps)
    for by in range(0, h, 8):
        for bx in range(0, w, 8):
            for ci, (cid, tq) in enumerate(comps):
                dct, act = scan_tables[ci]
                zz = [0] * 64
                preds[ci] += read_extend(read_symbol(huffs[(0, dct)]))
                zz[0] = preds[ci]
                k = 1
                while k < 64:
                    sym = read_symbol(huffs[(1, act)])
                    if sym == 0:
                        break
                    k += sym >> 4
                    if sym & 0xF:
                        zz[k] = read_extend(sym & 0xF)
                    # ZRL (0xF0) skips 16 zeros: run 15 + this slot
                    k += 1
                # dequant + pinned integer IDCT, plain loops; F's row
                # index is the VERTICAL frequency (natural zigzag
                # layout), so u pairs with y and v with x
                F = [[0] * 8 for _ in range(8)]
                for k2 in range(64):
                    nat = int(ZIGZAG[k2])
                    F[nat // 8][nat % 8] = zz[k2] * qts[tq][k2]
                for y in range(8):
                    for x in range(8):
                        acc = 0
                        for u in range(8):
                            for v in range(8):
                                acc += (F[u][v] * int(IDCT_M[u][y])
                                        * int(IDCT_M[v][x]))
                        s = ((acc + (1 << 29)) >> 30) + 128
                        planes[ci][by + y][bx + x] = \
                            min(255, max(0, s))
    sums = [0, 0, 0]
    for y in range(h):
        for x in range(w):
            if len(comps) == 1:
                r = g = b = planes[0][y][x]
            else:
                Y = planes[0][y][x]
                cb = planes[1][y][x] - 128
                cr = planes[2][y][x] - 128
                r = min(255, max(0, Y + ((91881 * cr + 32768) >> 16)))
                g = min(255, max(0, Y - ((22554 * cb + 46802 * cr
                                          + 32768) >> 16)))
                b = min(255, max(0, Y + ((116130 * cb + 32768) >> 16)))
            sums[0] += r
            sums[1] += g
            sums[2] += b
    n = w * h
    return (w, h, sums[0] // n, sums[1] // n, sums[2] // n)


#: documents per decode fixture (sf-independent: one untagged
#: directory serves every scale)
DECODE_FIXTURE_DOCS = {"adpcm": 400, "jpeg": 300}


def ensure_decode_fixture(name: str) -> Path:
    """Deterministic decode eval fixture ``name`` ("adpcm" or "jpeg"):
    ``<name>_docs.parquet`` (doc_id, media_type, payload — the
    parser's REAL fixture payloads for ids 0..n-1) plus
    ``<name>_eval.parquet``, one column per parser ``schema`` field,
    with the stats the INDEPENDENT reference decoder above extracts —
    the ground-truth table IS the DuckDB oracle for the stage decoder
    (the d_lang_id sidecar pattern), so two implementations of the
    spec must agree.  Idempotent + atomic like ensure_corpus."""
    from .stages.jpeg import JpegDecoder
    from .stages.multimodal import AdpcmWavDecoder

    parser, reference = {
        "adpcm": (AdpcmWavDecoder, _adpcm_reference_stats),
        "jpeg": (JpegDecoder, _jpeg_reference_stats)}[name]
    out_dir = Path("/tmp/alco_ray_fixtures") / name
    eval_path = out_dir / f"{name}_eval.parquet"
    docs_path = out_dir / f"{name}_docs.parquet"
    if eval_path.exists() and docs_path.exists():
        return out_dir
    docs = parser.encode(pa.table({"doc_id": pa.array(
        range(DECODE_FIXTURE_DOCS[name]), pa.int64())}))
    cols = zip(*map(reference, docs["payload"].to_pylist()))
    ev = pa.table({"doc_id": docs["doc_id"],
                   **{f.name: pa.array(c, f.type)
                      for f, c in zip(parser.schema, cols)}})
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, table in ((docs_path, docs), (eval_path, ev)):
        tmp = out_dir / f".{path.name}.tmp.{os.getpid()}"
        pq.write_table(table, tmp)
        os.replace(tmp, path)
    return out_dir


def ensure_langid_fixture(tag: str, n_per_lang: int = 20, seed: int = 97,
                          root: str = "/tmp/alco_ray_fixtures") -> Path:
    """Deterministic labeled multilingual eval table for language ID:
    (doc_id, text, true_lang), ``n_per_lang`` sentences per language
    sampled from each language's seed-word pool (so the trigram
    classifier's expected accuracy is 100% — validated at generation,
    which makes ``true_lang`` a legitimate DuckDB oracle for
    ``pred_lang``).  Idempotent + atomic like ensure_corpus."""
    import os

    from .stages.text import _LANG_SEEDS, LangId

    out_dir = Path(root) / f"{tag}_langid"
    path = out_dir / "langid_eval.parquet"
    if path.exists():
        return path
    rng = np.random.RandomState(seed)
    rows_text, rows_lang = [], []
    for lang in sorted(_LANG_SEEDS):
        words = _LANG_SEEDS[lang].split()
        for _ in range(n_per_lang):
            n_words = rng.randint(10, 18)
            rows_text.append(" ".join(rng.choice(words, size=n_words)))
            rows_lang.append(lang)
    t = pa.table({
        "doc_id": pa.array(range(len(rows_text)), pa.int64()),
        "text": pa.array(rows_text, pa.string()),
        "true_lang": pa.array(rows_lang, pa.string()),
    })
    pred = LangId()(t)["pred_lang"].to_pylist()
    bad = [i for i, (p, w) in enumerate(zip(pred, rows_lang)) if p != w]
    if bad:  # deterministic: never fires once validated for a seed
        raise AssertionError(
            f"langid fixture seed {seed} yields misclassified rows {bad}")
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f".langid_eval.parquet.tmp.{os.getpid()}"
    pq.write_table(t, tmp)
    os.replace(tmp, path)
    return path


def ensure_jsonl_corpus(tag: str, root: str = "/tmp/alco_ray_fixtures") -> Path:
    """JSON-lines mirror of a Parquet corpus (ALCO's native wire format
    is JSON messages): one ``<shard>.jsonl`` per Parquet shard, ``ts``
    serialized as full-precision ISO-8601.  Idempotent + atomic; used
    to prove the JSONL source ingests identically to the Parquet one."""
    src = ensure_corpus(tag, root=root)
    # Stamp the mirror with the SOURCE corpus's generation stamp: if
    # the Parquet corpus regenerates (parameter change), a stale JSONL
    # mirror must not survive to be "parity-checked" against new data.
    src_stamp = (src / "_COMPLETE").read_text()
    out_dir = Path(root) / f"{tag}_jsonl"
    done = out_dir / "_COMPLETE"
    if done.exists() and done.read_text() == src_stamp:
        return out_dir
    # Staged build + rename-swap (same pattern as ensure_corpus): a
    # stale mirror stays readable until the fresh tree swaps in, and a
    # crash leaves only an orphan .tmp dir, never a half-written
    # marker-less mirror.
    import shutil

    tmp_dir = out_dir.with_name(out_dir.name + f".tmp.{os.getpid()}")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    for p in sorted(src.glob("*.parquet")):
        t = pq.read_table(p)
        iso = _format_iso(t["ts"].combine_chunks().cast(pa.int64())
                          .to_numpy(zero_copy_only=False))
        df = t.drop_columns(["ts"]).append_column("ts", iso).to_pandas()
        df.to_json(tmp_dir / f"{p.stem}.jsonl", orient="records",
                   lines=True, force_ascii=False)
    (tmp_dir / "_COMPLETE").write_text(src_stamp)
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        os.rename(tmp_dir, out_dir)
    except OSError:
        shutil.rmtree(tmp_dir, ignore_errors=True)  # lost a race
    return out_dir


def ensure_evolved_corpus(tag: str, root: str = "/tmp/alco_ray_fixtures",
                          ) -> Path:
    """Schema-EVOLUTION mirror of a Parquet corpus: the first half of
    the shards are rewritten WITHOUT the ``tool`` column (the
    pre-migration generation, as if produced before the LoggerColumn
    existed), the second half keep the full schema.  Same staged
    rename-swap + source-stamp invalidation as the other mirrors."""
    src = ensure_corpus(tag, root=root)
    src_stamp = (src / "_COMPLETE").read_text()
    out_dir = Path(root) / f"{tag}_evolved"
    done = out_dir / "_COMPLETE"
    if done.exists() and done.read_text() == src_stamp:
        return out_dir
    import shutil

    tmp_dir = out_dir.with_name(out_dir.name + f".tmp.{os.getpid()}")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    shards = sorted(src.glob("*.parquet"))
    for i, p in enumerate(shards):
        t = pq.read_table(p)
        if i < len(shards) // 2:
            t = t.drop_columns(["tool"])
        pq.write_table(t, tmp_dir / p.name)
    (tmp_dir / "_COMPLETE").write_text(src_stamp)
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        os.rename(tmp_dir, out_dir)
    except OSError:
        shutil.rmtree(tmp_dir, ignore_errors=True)  # lost a race
    return out_dir


def ensure_csv_corpus(tag: str, root: str = "/tmp/alco_ray_fixtures") -> Path:
    """CSV mirror of a Parquet corpus (the flat-file drop-folder wire
    format legacy producers emit): one ``<shard>.csv`` per Parquet
    shard, ``ts`` as full-precision ISO-8601, text safely quoted.
    Idempotent + atomic with the same staged rename-swap and
    source-stamp invalidation as the JSONL mirror."""
    src = ensure_corpus(tag, root=root)
    src_stamp = (src / "_COMPLETE").read_text()
    out_dir = Path(root) / f"{tag}_csv"
    done = out_dir / "_COMPLETE"
    if done.exists() and done.read_text() == src_stamp:
        return out_dir
    import shutil

    tmp_dir = out_dir.with_name(out_dir.name + f".tmp.{os.getpid()}")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    for p in sorted(src.glob("*.parquet")):
        t = pq.read_table(p)
        iso = _format_iso(t["ts"].combine_chunks().cast(pa.int64())
                          .to_numpy(zero_copy_only=False))
        df = t.drop_columns(["ts"]).append_column("ts", iso).to_pandas()
        df.to_csv(tmp_dir / f"{p.stem}.csv", index=False)
    (tmp_dir / "_COMPLETE").write_text(src_stamp)
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        os.rename(tmp_dir, out_dir)
    except OSError:
        shutil.rmtree(tmp_dir, ignore_errors=True)  # lost a race
    return out_dir
