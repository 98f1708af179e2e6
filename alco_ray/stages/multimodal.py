"""Multimodal column plumbing — binary payloads through Ray Data.

Images/audio/video ride the pipeline as opaque ``binary`` columns with
typed metadata.  Every real decoder/parser here (PPM, WAV, PNG, ADPCM,
MP4, ..., and the baseline JPEG decoder in ``stages/jpeg.py``) is a
:class:`MediaParser`: it declares a ``schema`` (typed output fields)
and a per-payload ``_parse`` returning one value per field, and the
base ``__call__`` is the one row loop.  Dead-letter policy: a null
payload, a ``None`` from ``_parse``, any exception ``_parse`` raises,
or an integer that does not fit its int64 column turns that row into
``decode_ok = false`` with every field null; a poison payload never
fails the task or changes its neighbours.  The ``Fake*`` classes are
deterministic stand-ins with their own contract (no ``decode_ok``).

Each parser also carries its own fixture: a ``media_type`` and a
per-id ``payload(doc_id) -> bytes`` that builds REAL bytes of its
format, whose docstring states the closed forms the oracle checks.
The base :meth:`MediaParser.encode` is the one batch adapter
(``doc_id`` in; ``doc_id``, ``media_type``, ``payload`` out).  The
RIFF parsers (WAV, ADPCM, WebP, AVI) share one chunk walk
(:func:`_riff_chunks`) and their fixtures one chunk writer
(:func:`_riff_chunk`).

Scale notes: binary payloads are large, so these stages use an explicit
small batch (:data:`DECODE_BATCH`; payload x batch x actors must fit
the worker heap) and never convert the binary column to pandas (object
dtype copies); everything stays ``batch_format="pyarrow"``.
"""

from __future__ import annotations

import logging
import re
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MULTIMODAL_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("media_type", pa.string()),   # "image" | "audio" | ...
    ("payload", pa.binary()),      # opaque encoded bytes
])

#: rows per decode batch and the decode actor pool's (min, max) size
DECODE_BATCH = 256
DECODE_ACTORS = (1, 4)

#: frame sampling: frame size in bytes, and every how many frames one
#: is kept
FRAME_BYTES = 64
FRAME_EVERY = 4


def encode_documents_as_media(batch: pa.Table) -> pa.Table:
    """Test/bench adapter: wrap the documents table's text bytes as fake
    image payloads so the binary plumbing has real (deterministic) data."""
    return pa.table({
        "doc_id": batch["doc_id"],
        "media_type": pa.array(["image"] * batch.num_rows, pa.string()),
        "payload": pc.cast(batch["text"], pa.binary()),
    })


class FakeImageDecoder:
    """Actor-pool decode stub: binary in -> typed metadata out.

    A real decoder would import its codec library once per actor in
    ``__init__`` and do ``PIL.Image.open(io.BytesIO(x))`` here (or
    raise ``NotImplementedError`` when the codec is missing).  The fake
    derives (width, height, n_bytes) deterministically from the payload
    so tests/oracles are exact: width = n_bytes % 640 + 1,
    height = (n_bytes * 7) % 480 + 1.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_bytes = pc.cast(pc.binary_length(batch["payload"]), pa.int64())
        nb = n_bytes.to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bytes": n_bytes,
            "width": pa.array(nb % 640 + 1, pa.int64()),
            "height": pa.array(nb * 7 % 480 + 1, pa.int64()),
        })


class FakeFeatureExtractor:
    """Actor-pool feature stub: payload -> fixed-size float32 embedding.

    Deterministic: bytes are folded into a 16-dim histogram (byte-value
    buckets) normalized to unit L2 — the Ray plumbing (list<float32>
    output, small batches, actor reuse) matches a real model stage.
    """

    DIM = 16

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        out = np.zeros((len(payloads), self.DIM), dtype=np.float32)
        for i, p in enumerate(payloads):
            if p:
                arr = np.frombuffer(p, dtype=np.uint8)
                hist = np.bincount(arr >> 4, minlength=self.DIM).astype(np.float32)
                out[i] = hist / max(np.linalg.norm(hist), 1e-30)
        flat = pa.array(out.reshape(-1), pa.float32())
        return pa.table({
            "doc_id": batch["doc_id"],
            "feature": pa.FixedSizeListArray.from_arrays(flat, self.DIM),
        })


def sample_frames_batch(batch: pa.Table) -> pa.Table:
    """Frame sampling: treat each payload as a sequence of
    :data:`FRAME_BYTES`-sized frames and emit every
    :data:`FRAME_EVERY`-th frame as its own row (doc_id, frame_idx,
    payload) — the video keyframe-extraction shape.  Vectorized: one
    flat byte buffer + one offsets array, frames materialized via
    zero-copy ``LargeBinaryArray.from_buffers`` (no per-frame Python
    objects)."""
    frame_bytes, every_n = FRAME_BYTES, FRAME_EVERY
    payloads = batch["payload"].to_pylist()
    ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    flat = b"".join(p or b"" for p in payloads)
    lens = np.fromiter((len(p or b"") for p in payloads), dtype=np.int64,
                       count=len(payloads))
    doc_start = np.concatenate([[0], np.cumsum(lens)])
    n_frames = -(-lens // frame_bytes)          # ceil
    n_sampled = -(-n_frames // every_n)          # frames 0, n, 2n, ...
    total = int(n_sampled.sum())
    if total == 0:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "frame_idx": pa.array([], pa.int64()),
            "payload": pa.array([], pa.large_binary()),
        })
    # per-sampled-frame: owning doc, intra-doc sampled ordinal
    doc_of = np.repeat(np.arange(len(ids)), n_sampled)
    cum0 = np.concatenate([[0], np.cumsum(n_sampled)[:-1]])
    ordinal = np.arange(total) - np.repeat(cum0, n_sampled)
    frame_idx = ordinal * every_n
    starts = doc_start[doc_of] + frame_idx * frame_bytes
    ends = np.minimum(starts + frame_bytes, doc_start[doc_of] + lens[doc_of])
    offsets = np.empty(total + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(ends - starts, out=offsets[1:])
    # gather the sampled byte ranges into one contiguous buffer —
    # segmented-arange (repeat + intra-offset), no per-frame Python
    src = np.frombuffer(flat, dtype=np.uint8)
    frame_lens = ends - starts
    tot_bytes = int(frame_lens.sum())
    base = np.repeat(starts, frame_lens)
    cum0b = np.concatenate([[0], np.cumsum(frame_lens)[:-1]])
    intra = np.arange(tot_bytes, dtype=np.int64) \
        - np.repeat(cum0b, frame_lens)
    data = src[base + intra].tobytes()
    frames = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), total,
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)])
    return pa.table({
        "doc_id": pa.array(ids[doc_of]),
        "frame_idx": pa.array(frame_idx, pa.int64()),
        "payload": frames,
    })


def decode_media(ds, decoder_cls=FakeImageDecoder):
    """Run an actor-pool decode (a :class:`MediaParser`, or one of the
    ``Fake*`` stubs) over a multimodal dataset."""
    return ds.map_batches(decoder_cls, batch_format="pyarrow",
                          batch_size=DECODE_BATCH, concurrency=DECODE_ACTORS)


# ------------------------------------------------------ parser skeleton

_log = logging.getLogger(__name__)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _int64s(*names: str) -> pa.Schema:
    return pa.schema([(n, pa.int64()) for n in names])


RGB_MEANS = _int64s("width", "height", "mean_r", "mean_g", "mean_b")
PCM_STATS = _int64s("sample_rate", "n_samples", "duration_us", "peak",
                    "mean_amp")


class MediaParser:
    """Actor-pool decode stage: binary ``payload`` in; ``doc_id``,
    ``decode_ok`` and one typed column per ``schema`` field out.

    Subclasses declare ``schema`` and ``_parse(payload)``, which gets
    non-null bytes and returns one value per ``schema`` field, or
    ``None`` to reject the payload.  ``__call__`` owns the dead-letter
    policy (module docstring): rejection, any exception from
    ``_parse`` and int64 overflow are all per-row ``decode_ok =
    false``, so ``_parse`` never needs a ``try`` of its own.

    Each subclass also declares its fixture: ``media_type`` and a
    static ``payload(doc_id) -> bytes``; :meth:`encode` serves them
    all."""

    schema: pa.Schema
    media_type: str

    @classmethod
    def encode(cls, batch: pa.Table) -> pa.Table:
        """Fixture adapter: a ``doc_id`` batch -> (doc_id, media_type,
        payload) with one ``payload(doc_id)`` per row."""
        ids = batch["doc_id"]
        return pa.table({
            "doc_id": ids,
            "media_type": pa.array([cls.media_type] * len(ids),
                                   pa.string()),
            "payload": pa.array([cls.payload(i) for i in ids.to_pylist()],
                                pa.binary()),
        })

    def _parse(self, payload: bytes) -> tuple | None:
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for p in batch["payload"].to_pylist():
            try:
                row = None if p is None else self._parse(p)
            except Exception:
                _log.debug("%s: payload dead-lettered",
                           type(self).__name__, exc_info=True)
                row = None
            if row is not None and any(
                    isinstance(v, int) and not _INT64_MIN <= v <= _INT64_MAX
                    for v in row):
                row = None
            rows.append(row)
        cols = {"doc_id": batch["doc_id"],
                "decode_ok": pa.array([r is not None for r in rows],
                                      pa.bool_())}
        for k, field in enumerate(self.schema):
            cols[field.name] = pa.array(
                [None if r is None else r[k] for r in rows], field.type)
        return pa.table(cols)


def rgb_means_row(w: int, h: int, px: np.ndarray) -> tuple:
    """``RGB_MEANS`` row: dims + exact floor per-channel means."""
    sums = px.reshape(-1, 3).sum(axis=0, dtype=np.int64)
    return (w, h, *(sums // (w * h)).tolist())


def _pcm_stats(rate: int, s: np.ndarray):
    """``PCM_STATS`` row: rate, sample count, floor-us duration, peak
    |amplitude|, floor mean amplitude; ``None`` for an empty stream."""
    if len(s) == 0:
        return None
    s = s.astype(np.int64)
    return (rate, len(s), len(s) * 1_000_000 // rate,
            int(np.abs(s).max()), int(s.sum()) // len(s))


# ------------------------------------------------------------- real PPM
# P6 "raw PPM" is header + raw RGB bytes: parsing it IS decoding, no
# codec library required — so this path is a REAL image pipeline (byte
# layout, header validation, pixel math), not a stub.  PNG (below) and
# baseline JPEG (stages/jpeg.py) are the real compressed-image
# decoders; all of them are MediaParser subclasses.

_PPM_HEADER = re.compile(rb"\AP6\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _ppm_pixels(p: bytes):
    """Validate a P6 payload (magic, maxval 255, exact body length);
    (w, h, (h, w, 3) uint8 pixels) or ``None``."""
    m = _PPM_HEADER.match(p)
    if not m:
        return None
    w, h, maxval = (int(m.group(j)) for j in (1, 2, 3))
    body = p[m.end():]
    if maxval != 255 or len(body) != w * h * 3 or w * h == 0:
        return None
    return w, h, np.frombuffer(body, np.uint8).reshape(h, w, 3)


class PpmDecoder(MediaParser):
    """Actor-pool REAL image decode (P6): validate magic + maxval,
    parse dims from the header, reshape the raw bytes to (h, w, 3),
    emit exact integer per-channel means (sum // n).  Decoding one
    payload at a time is the normal decode-stage shape (PIL is
    per-image too); each image's pixel math is numpy-vectorized."""

    schema = RGB_MEANS
    media_type = "image/ppm"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL binary PPM: width = (id % 8 + 1) * 2,
        height = (id % 4 + 1) * 2, constant per-channel pixels
        R = id % 256, G = id*7 % 256, B = id*13 % 256 — so every
        decoded statistic has a closed form an oracle can state while
        the engine path decodes actual bytes."""
        w, h = (i % 8 + 1) * 2, (i % 4 + 1) * 2
        px = np.empty((h, w, 3), np.uint8)
        px[...] = (i % 256, i * 7 % 256, i * 13 % 256)
        return b"P6\n%d %d\n255\n" % (w, h) + px.tobytes()

    def _parse(self, p: bytes):
        d = _ppm_pixels(p)
        return None if d is None else rgb_means_row(*d)


class PpmResizer(PpmDecoder):
    """Actor-pool REAL 2x box downsample: decode (the PpmDecoder
    header check), average each 2x2 block exactly (integer sum // 4),
    emit the resized dims and the resized image's exact integer channel
    means.  Requires even input dims (the PPM fixture it inherits
    guarantees them); odd dims emit ``decode_ok = false`` like
    malformed payloads."""

    def _parse(self, p: bytes):
        d = _ppm_pixels(p)
        if d is None or d[0] % 2 or d[1] % 2:
            return None
        w, h, px = d
        small = (px.astype(np.int64)
                 .reshape(h // 2, 2, w // 2, 2, 3)
                 .sum(axis=(1, 3)) // 4)
        return rgb_means_row(w // 2, h // 2, small)


# ------------------------------------------------------------- real WAV
# RIFF/WAVE PCM is the audio analog of P6: a chunked container around
# raw int16 samples, decodable with struct math alone — the audio
# modality's REAL path next to the PPM image one.  The RIFF chunk
# walk and writer below serve every RIFF format here (WAV, ADPCM,
# WebP, AVI).

def _riff_chunk(cid: bytes, body: bytes) -> bytes:
    """One RIFF chunk: id, little-endian body size, body, and a pad
    byte after an odd-sized body (chunks are word-aligned)."""
    return cid + struct.pack("<I", len(body)) + body \
        + b"\x00" * (len(body) & 1)


def _riff_chunks(p: bytes, lo: int, hi: int):
    """The RIFF chunks in ``p[lo:hi]`` as (id, body start, body end),
    hopping the pad byte after odd-sized bodies; ``None`` when a body
    runs past ``hi``.  Trailing bytes too short for a chunk header are
    ignored."""
    out = []
    while lo + 8 <= hi:
        size = int.from_bytes(p[lo + 4:lo + 8], "little")
        end = lo + 8 + size
        if end > hi:
            return None
        out.append((p[lo:lo + 4], lo + 8, end))
        lo = end + (size & 1)
    return out


def _wave_chunks(p: bytes):
    """Chunk bodies by id of a RIFF/WAVE payload (a repeated id keeps
    its last body), or ``None``; the RIFF size field is not checked."""
    if p[:4] != b"RIFF" or p[8:12] != b"WAVE":
        return None
    chunks = _riff_chunks(p, 12, len(p))
    return None if chunks is None else \
        {cid: p[lo:hi] for cid, lo, hi in chunks}


class WavDecoder(MediaParser):
    """Actor-pool REAL audio decode (RIFF/WAVE PCM): validate the RIFF
    container, walk the chunk list to ``fmt `` and ``data``, reject
    non-PCM / non-mono-16-bit streams, view the data chunk as int16
    samples, and emit exact integer stats — sample rate, sample count,
    floor-microsecond duration, peak |amplitude| and floor mean
    amplitude."""

    schema = PCM_STATS
    media_type = "audio/wav"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL mono 16-bit PCM WAV: sample_rate =
        8000 + (id % 4) * 4000, n_samples = (id % 50 + 1) * 100, every
        sample the constant id % 1000 - 500 — closed forms for the
        oracle, real RIFF bytes for the engine."""
        rate = 8000 + (i % 4) * 4000
        data = np.full((i % 50 + 1) * 100, i % 1000 - 500, "<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
        return _riff_chunk(b"RIFF", b"WAVE" + _riff_chunk(b"fmt ", fmt)
                           + _riff_chunk(b"data", data))

    def _parse(self, p: bytes):
        c = _wave_chunks(p)
        if c is None:
            return None
        fmt, data = c.get(b"fmt "), c.get(b"data")
        if fmt is None or data is None or len(fmt) < 16:
            return None
        audio_fmt, channels, rate, _, _, bits = struct.unpack(
            "<HHIIHH", fmt[:16])
        if audio_fmt != 1 or channels != 1 or bits != 16 or len(data) % 2:
            return None
        return _pcm_stats(rate, np.frombuffer(data, dtype="<i2"))


# ------------------------------------------------------------- real PNG
# PNG is the first REAL COMPRESSED image format here: zlib (a stdlib
# battery, not an image codec) inflates the IDAT stream, and the five
# spec filter types (None/Sub/Up/Average/Paeth, RFC 2083 s6) are
# reconstructed in numpy — so this path exercises an actual
# entropy-coded container end to end: signature, chunk walk with CRC32
# verification, IHDR validation, inflate, per-scanline defiltering.
# (JPEG has a full decoder in stages/jpeg.py; the MP4 CONTAINER is
# parsed for real below (Mp4MetaParser — ISO/IEC 14496-12 box walk);
# MP3 and the entropy-coded A/V payloads INSIDE MP4 tracks (H.264,
# AAC) remain declared stubs: their entropy coders need a codec
# library this container doesn't ship.)

def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF))


_PNG_SIG = b"\x89PNG\r\n\x1a\n"

#: bytes per pixel of the one supported PNG mode (8-bit RGB)
_PNG_BPP = 3


def _png_filter_row(ftype: int, raw: np.ndarray,
                    prev: np.ndarray) -> np.ndarray:
    """Apply PNG filter ``ftype`` to one raw scanline (encoder side —
    predictors use RAW bytes, all five vectorizable)."""
    r = raw.astype(np.int64)
    left = np.concatenate([np.zeros(_PNG_BPP, np.int64), r[:-_PNG_BPP]])
    up = prev.astype(np.int64)
    upleft = np.concatenate([np.zeros(_PNG_BPP, np.int64), up[:-_PNG_BPP]])
    if ftype == 0:
        out = r
    elif ftype == 1:
        out = r - left
    elif ftype == 2:
        out = r - up
    elif ftype == 3:
        out = r - (left + up) // 2
    else:  # Paeth
        p = left + up - upleft
        pa_, pb_, pc_ = (np.abs(p - left), np.abs(p - up),
                         np.abs(p - upleft))
        pred = np.where((pa_ <= pb_) & (pa_ <= pc_), left,
                        np.where(pb_ <= pc_, up, upleft))
        out = r - pred
    return (out % 256).astype(np.uint8)


class PngDecoder(MediaParser):
    """Actor-pool REAL compressed-image decode: verify the PNG
    signature, walk chunks verifying each CRC32, validate IHDR
    (8-bit RGB, no interlace), inflate the concatenated IDAT stream
    with stdlib zlib, reconstruct all five spec filter types, and emit
    exact integer per-channel means.  None/Sub/Up rows are fully
    numpy-vectorized (Sub is a mod-256 cumsum per byte lane);
    Average/Paeth run the spec's sequential recurrence (the data
    dependency on the reconstructed left pixel is inherent — real
    codecs pay it too).  Malformed payloads (bad magic, CRC mismatch,
    unsupported color mode, short stream) emit ``decode_ok = false``
    rows — the poison-file dead-letter pattern."""

    schema = RGB_MEANS
    media_type = "image/png"

    #: IHDR the decoder supports: bit depth 8, color type 2 (RGB),
    #: compression 0, filter method 0, interlace 0
    _IHDR_TAIL = (8, 2, 0, 0, 0)

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL RGB8 PNG: width = (id % 7 + 1) * 2,
        height = (id % 5 + 1) * 2, constant channels R = id % 256,
        G = id*11 % 256, B = id*17 % 256 (closed forms for the oracle)
        — with per-scanline filter type (id + row) % 5, so every
        fixture batch exercises ALL FIVE spec filters through the
        decoder's reconstruction math, and the IDAT stream is genuinely
        zlib-compressed."""
        w, h = (i % 7 + 1) * 2, (i % 5 + 1) * 2
        px = np.empty((h, w, 3), np.uint8)
        px[...] = (i % 256, i * 11 % 256, i * 17 % 256)
        prev = np.zeros(w * 3, np.uint8)
        lines = []
        for y in range(h):
            raw = px[y].reshape(-1)
            ft = (i + y) % 5
            lines.append(bytes([ft])
                         + _png_filter_row(ft, raw, prev).tobytes())
            prev = raw
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
                + _png_chunk(b"IDAT", zlib.compress(b"".join(lines), 9))
                + _png_chunk(b"IEND", b""))

    def _chunks(self, p: bytes):
        pos, out = len(_PNG_SIG), []
        while pos + 12 <= len(p):
            (size,) = struct.unpack(">I", p[pos:pos + 4])
            ctype = p[pos + 4:pos + 8]
            data = p[pos + 8:pos + 8 + size]
            if len(data) != size or pos + 12 + size > len(p):
                return None
            (crc,) = struct.unpack(">I", p[pos + 8 + size:pos + 12 + size])
            if zlib.crc32(ctype + data) & 0xFFFFFFFF != crc:
                return None
            out.append((ctype, data))
            pos += 12 + size
            if ctype == b"IEND":
                return out if pos == len(p) else None
        return None

    def _defilter(self, stream: bytes, w: int, h: int):
        bpp = _PNG_BPP
        stride = w * bpp
        if len(stream) != h * (1 + stride):
            return None
        rows = np.frombuffer(stream, np.uint8).reshape(h, 1 + stride)
        out = np.empty((h, stride), np.uint8)
        prev = np.zeros(stride, np.int64)
        for y in range(h):
            ft = int(rows[y, 0])
            f = rows[y, 1:].astype(np.int64)
            if ft == 0:
                recon = f
            elif ft == 1:
                recon = f.copy()
                for c in range(bpp):          # mod-256 cumsum per lane
                    recon[c::bpp] = np.cumsum(f[c::bpp]) % 256
            elif ft == 2:
                recon = (f + prev) % 256
            elif ft in (3, 4):
                recon = np.zeros(stride, np.int64)
                for x in range(stride):
                    a = recon[x - bpp] if x >= bpp else 0
                    b = prev[x]
                    if ft == 3:
                        recon[x] = (f[x] + (a + b) // 2) % 256
                    else:
                        c = prev[x - bpp] if x >= bpp else 0
                        pp = a + b - c
                        pa_, pb_, pc_ = abs(pp - a), abs(pp - b), abs(pp - c)
                        pred = a if pa_ <= pb_ and pa_ <= pc_ else \
                            b if pb_ <= pc_ else c
                        recon[x] = (f[x] + pred) % 256
            else:
                return None
            out[y] = recon
            prev = recon
        return out.reshape(h, w, bpp)

    def _decode(self, p: bytes):
        if not p.startswith(_PNG_SIG):
            return None
        chunks = self._chunks(p)
        if not chunks or chunks[0][0] != b"IHDR" \
                or len(chunks[0][1]) != 13:
            return None
        w, h, *tail = struct.unpack(">IIBBBBB", chunks[0][1])
        if tuple(tail) != self._IHDR_TAIL or w * h == 0:
            return None
        idat = b"".join(d for t, d in chunks if t == b"IDAT")
        px = self._defilter(zlib.decompress(idat), w, h)
        return None if px is None else (w, h, px)

    def _parse(self, p: bytes):
        d = self._decode(p)
        return None if d is None else rgb_means_row(*d)


# ------------------------------------------------------- real IMA ADPCM
# IMA/DVI ADPCM (4 bits per sample) is the audio analog of the PNG
# path: a REAL COMPRESSED format decodable from the published spec
# tables alone (IMA Digital Audio Pack, 1992; WAV format tag 0x11) —
# an adaptive-step-size delta quantizer, so unlike PCM the decoder is
# a genuine stateful codec, not byte reinterpretation.

_IMA_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34,
    37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
    157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494,
    544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552,
    1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428,
    4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487,
    12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086,
    29794, 32767], np.int64)

_IMA_INDEX = np.array([-1, -1, -1, -1, 2, 4, 6, 8], np.int64)

#: WAV IMA-ADPCM mono block: 4-byte header (int16 predictor = first
#: sample, uint8 step index, reserved), then 2 samples per byte
_ADPCM_BLOCK_ALIGN = 256
_ADPCM_SPB = (_ADPCM_BLOCK_ALIGN - 4) * 2 + 1   # samples per block


def _ima_reconstruct(nib: int, pred: int, index: int):
    """One spec step: dequantize nibble -> new (pred, index).  Shared
    by the encoder (which must track the decoder's state to stay in
    sync — that is WHY lossy ADPCM round-trips deterministically)."""
    step = int(_IMA_STEPS[index])
    diff = step >> 3
    if nib & 4:
        diff += step
    if nib & 2:
        diff += step >> 1
    if nib & 1:
        diff += step >> 2
    pred = pred - diff if nib & 8 else pred + diff
    pred = max(-32768, min(32767, pred))
    index = max(0, min(88, index + int(_IMA_INDEX[nib & 7])))
    return pred, index


def _ima_encode_block(samples: np.ndarray, index: int):
    """Encode one mono block (len == _ADPCM_SPB): header carries the
    first sample verbatim + entry step index; the rest quantize to
    nibbles, predictor tracked through the reconstruction above.
    Returns (block_bytes, exit_index) so the caller can seed the next
    block's header with the evolved step index."""
    pred = int(samples[0])
    out = bytearray(struct.pack("<hBB", pred, index, 0))
    nibs = []
    for s in samples[1:]:
        step = int(_IMA_STEPS[index])
        diff = int(s) - pred
        nib = 0
        if diff < 0:
            nib = 8
            diff = -diff
        if diff >= step:
            nib |= 4
            diff -= step
        if diff >= step >> 1:
            nib |= 2
            diff -= step >> 1
        if diff >= step >> 2:
            nib |= 1
        pred, index = _ima_reconstruct(nib, pred, index)
        nibs.append(nib)
    for lo, hi in zip(nibs[0::2], nibs[1::2]):
        out.append(lo | (hi << 4))
    return bytes(out), index


def adpcm_fixture_signal(doc_id: int):
    """Deterministic per-id test signal: (rate, int16 samples) — a
    seeded ramp+noise mix, length an exact multiple of the block size
    so fixtures never need partial-block padding."""
    rng = np.random.RandomState(1000 + int(doc_id) % (2 ** 31 - 1000))
    n = (int(doc_id) % 6 + 1) * _ADPCM_SPB
    ramp = (np.arange(n, dtype=np.int64) * 37) % 8192 - 4096
    noise = rng.randint(-3000, 3001, n)
    rate = 8000 + (int(doc_id) % 3) * 8000
    return rate, np.clip(ramp + noise, -32768, 32767).astype(np.int16)


class AdpcmWavDecoder(MediaParser):
    """Actor-pool REAL compressed-audio decode: walk the RIFF chunks,
    validate fmt tag 0x11 / mono / 4-bit, then run the IMA state
    machine over every block (predictor re-seeded per block header,
    nibbles low-first) and emit exact integer stats over the DECODED
    samples.  The per-nibble recurrence is inherently sequential (the
    adaptive step depends on every prior nibble) — that loop IS the
    codec, as in any real ADPCM implementation.  Malformed payloads
    (bad container, unsupported format, step index > 88, short data)
    emit ``decode_ok = false`` rows."""

    schema = PCM_STATS
    media_type = "audio/adpcm"

    @staticmethod
    def payload(i: int) -> bytes:
        """REAL WAV(tag 0x11)-contained IMA-ADPCM over the
        deterministic per-id signal (:func:`adpcm_fixture_signal`).
        The ground-truth sidecar (fixtures.ensure_decode_fixture)
        decodes the same payloads with an INDEPENDENT naive reference
        decoder, so the oracle checks the stage decoder against a
        second implementation of the spec, not against itself."""
        rate, samples = adpcm_fixture_signal(i)
        blocks, index = [], 0
        for b0 in range(0, len(samples), _ADPCM_SPB):
            # spec: each block's header re-seeds predictor+index, so
            # blocks are independently decodable (seek support);
            # carrying the exit index forward just improves quality
            block, index = _ima_encode_block(
                samples[b0:b0 + _ADPCM_SPB], index)
            blocks.append(block)
        fmt = struct.pack("<HHIIHHHH", 0x11, 1, rate,
                          rate * _ADPCM_BLOCK_ALIGN // _ADPCM_SPB,
                          _ADPCM_BLOCK_ALIGN, 4, 2, _ADPCM_SPB)
        return _riff_chunk(b"RIFF", b"WAVE" + _riff_chunk(b"fmt ", fmt)
                           + _riff_chunk(b"fact",
                                         struct.pack("<I", len(samples)))
                           + _riff_chunk(b"data", b"".join(blocks)))

    def _decode(self, p: bytes):
        c = _wave_chunks(p)
        if c is None:
            return None
        fmt, data, fact = c.get(b"fmt "), c.get(b"data"), c.get(b"fact")
        if fmt is None or data is None or fact is None or len(fmt) < 20:
            return None
        tag, channels, rate, _, balign, bits, _, spb = struct.unpack(
            "<HHIIHHHH", fmt[:20])
        if tag != 0x11 or channels != 1 or bits != 4 or balign < 5 \
                or spb != (balign - 4) * 2 + 1:
            return None
        (n_total,) = struct.unpack("<I", fact[:4])
        if len(data) % balign or n_total > (len(data) // balign) * spb:
            return None
        out = np.empty(n_total, np.int64)
        w = 0
        for b0 in range(0, len(data), balign):
            if w >= n_total:
                break
            pred, index = struct.unpack("<hB", data[b0:b0 + 3])
            if index > 88:
                return None
            out[w] = pred
            w += 1
            nibbles = np.frombuffer(
                data[b0 + 4:b0 + balign], np.uint8)
            for byte in nibbles:
                for nib in (int(byte) & 0xF, int(byte) >> 4):
                    if w >= n_total:
                        break
                    pred, index = _ima_reconstruct(nib, pred, index)
                    out[w] = pred
                    w += 1
        return rate, out[:w]

    def _parse(self, p: bytes):
        d = self._decode(p)
        return None if d is None else _pcm_stats(*d)


# ------------------------------------------------------ real MP4 (ISO BMFF)
# What a 100-TB multimodal sweep needs FIRST from video files is the
# container metadata — duration, track table, codec fourccs — which
# ISO/IEC 14496-12 defines as a pure box structure: no entropy
# decoding required.  The parser below is a real conforming box walk
# (32-bit sizes, size==1 largesize, size==0 to-end, nested
# containers, mvhd version 0 AND 1); only the entropy-coded track
# PAYLOADS (H.264/AAC samples inside mdat) stay stubbed.

_MP4_CONTAINERS = frozenset(
    (b"moov", b"trak", b"mdia", b"minf", b"stbl"))


def _mp4_box(btype: bytes, payload: bytes, largesize: bool = False) -> bytes:
    if largesize:
        return (struct.pack(">I", 1) + btype
                + struct.pack(">Q", len(payload) + 16) + payload)
    return struct.pack(">I", len(payload) + 8) + btype + payload


_MP4_MATRIX = (b"\x00\x01\x00\x00" + b"\x00" * 12
               + b"\x00\x01\x00\x00" + b"\x00" * 12
               + b"\x40\x00\x00\x00")


class Mp4MetaParser(MediaParser):
    """Actor-pool REAL MP4/ISO-BMFF container parse (ISO/IEC 14496-12
    box walk): recursive descent over {moov, trak, mdia, minf, stbl},
    32-bit sizes plus the size==1 largesize and size==0 to-end forms,
    mvhd version 0 and 1 — emitting per-file (brand, n_tracks,
    duration_us, codec fourcc list, mdat byte count).  No entropy
    decoding — the track payloads stay opaque (H.264/AAC stubs).
    Malformed containers (truncated box, size underrun, missing ftyp
    or mvhd) emit ``decode_ok = false`` — the poison-file dead-letter
    pattern shared by every decoder in this module."""

    schema = pa.schema([("brand", pa.string()), ("n_tracks", pa.int64()),
                        ("duration_us", pa.int64()), ("codecs", pa.string()),
                        ("mdat_bytes", pa.int64())])
    media_type = "video/mp4"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL ISO BMFF container with closed forms for
        the oracle — timescale = 600*(id%3+1), duration units =
        (id%50+1)*100, n_tracks = id%2+1 (track 1 'avc1' video, track
        2 'mp4a' audio), mdat payload length = id%64+8.  Coverage
        rotation: mvhd version = id%2 (32- vs 64-bit times) and ids
        divisible by 5 write mdat with a 64-bit largesize header, so
        the parser's every branch sees real data at every scale."""
        tscale = 600 * (i % 3 + 1)
        dur = (i % 50 + 1) * 100
        n_tracks = i % 2 + 1
        ftyp = _mp4_box(b"ftyp", b"isom" + struct.pack(">I", 0x200)
                        + b"isom" + b"mp42")
        if i % 2 == 1:
            mvhd_body = (b"\x01\x00\x00\x00"
                         + struct.pack(">QQIQ", 0, 0, tscale, dur))
        else:
            mvhd_body = (b"\x00\x00\x00\x00"
                         + struct.pack(">IIII", 0, 0, tscale, dur))
        mvhd_body += (struct.pack(">I", 0x00010000)   # rate 1.0
                      + struct.pack(">H", 0x0100)     # volume 1.0
                      + b"\x00" * 10 + _MP4_MATRIX
                      + b"\x00" * 24
                      + struct.pack(">I", n_tracks + 1))
        traks = []
        for k in range(n_tracks):
            tkhd = _mp4_box(b"tkhd", b"\x00\x00\x00\x07"
                            + struct.pack(">III", 0, 0, k + 1)
                            + b"\x00" * 4 + struct.pack(">I", dur)
                            + b"\x00" * 16 + _MP4_MATRIX + b"\x00" * 8)
            mdhd = _mp4_box(b"mdhd", b"\x00\x00\x00\x00"
                            + struct.pack(">IIII", 0, 0, tscale, dur)
                            + struct.pack(">HH", 0x55C4, 0))
            handler = b"vide" if k == 0 else b"soun"
            hdlr = _mp4_box(b"hdlr", b"\x00" * 8 + handler
                            + b"\x00" * 12 + b"trk\x00")
            fourcc = b"avc1" if k == 0 else b"mp4a"
            entry_len = 86 if k == 0 else 36
            entry = (struct.pack(">I", entry_len) + fourcc
                     + b"\x00" * (entry_len - 8))
            stsd = _mp4_box(b"stsd", b"\x00" * 4
                            + struct.pack(">I", 1) + entry)
            stbl = _mp4_box(b"stbl", stsd)
            minf = _mp4_box(b"minf", stbl)
            mdia = _mp4_box(b"mdia", mdhd + hdlr + minf)
            traks.append(_mp4_box(b"trak", tkhd + mdia))
        moov = _mp4_box(b"moov", _mp4_box(b"mvhd", mvhd_body)
                        + b"".join(traks))
        mdat = _mp4_box(b"mdat",
                        bytes((i + j) % 256 for j in range(i % 64 + 8)),
                        largesize=i % 5 == 0)
        return ftyp + moov + mdat

    def _walk(self, p: bytes, start: int, end: int, out: dict) -> bool:
        pos = start
        while pos < end:
            if pos + 8 > end:
                return False
            size = int.from_bytes(p[pos:pos + 4], "big")
            btype = p[pos + 4:pos + 8]
            hdr = 8
            if size == 1:
                if pos + 16 > end:
                    return False
                size = int.from_bytes(p[pos + 8:pos + 16], "big")
                hdr = 16
            elif size == 0:
                size = end - pos
            if size < hdr or pos + size > end:
                return False
            b0, b1 = pos + hdr, pos + size
            if btype in _MP4_CONTAINERS:
                if btype == b"trak":
                    out["n_tracks"] += 1
                if not self._walk(p, b0, b1, out):
                    return False
            elif btype == b"ftyp":
                if b1 - b0 < 4:
                    return False
                out["brand"] = p[b0:b0 + 4].decode("ascii", "replace")
            elif btype == b"mvhd":
                if b1 - b0 < 20:
                    return False
                ver = p[b0]
                if ver == 1:
                    if b1 - b0 < 32:
                        return False
                    out["timescale"] = int.from_bytes(
                        p[b0 + 20:b0 + 24], "big")
                    out["duration"] = int.from_bytes(
                        p[b0 + 24:b0 + 32], "big")
                else:
                    out["timescale"] = int.from_bytes(
                        p[b0 + 12:b0 + 16], "big")
                    out["duration"] = int.from_bytes(
                        p[b0 + 16:b0 + 20], "big")
            elif btype == b"stsd":
                if b1 - b0 < 8:
                    return False
                if int.from_bytes(p[b0 + 4:b0 + 8], "big") >= 1:
                    if b0 + 16 > b1:
                        return False
                    out["codecs"].append(
                        p[b0 + 12:b0 + 16].decode("ascii", "replace"))
            elif btype == b"mdat":
                out["mdat_bytes"] += b1 - b0
            pos += size
        return pos == end

    def _parse(self, p: bytes):
        out = {"brand": None, "timescale": 0, "duration": 0,
               "n_tracks": 0, "codecs": [], "mdat_bytes": 0}
        if len(p) < 8 or p[4:8] != b"ftyp":
            return None
        if not self._walk(p, 0, len(p), out):
            return None
        if out["brand"] is None or out["timescale"] <= 0:
            return None
        return (out["brand"], out["n_tracks"],
                out["duration"] * 1_000_000 // out["timescale"],
                ",".join(out["codecs"]), out["mdat_bytes"])


# --------------------------------------------------- real MP3 (frame headers)
# Like MP4: what a sweep needs from MP3 files first — duration,
# bitrate profile, sample rate — lives in the FRAME HEADERS (ISO/IEC
# 11172-3 s2.4.1.3), plain bit fields walked frame to frame by the
# header's own length formula.  Only the Huffman-coded audio payload
# inside each frame stays stubbed.

#: MPEG-1 Layer III bitrate table (kbit/s), index 1..14 (0 = free, 15
#: = forbidden) and sampling-rate table (Hz), index 0..2.
_MP3_BITRATES = (0, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192,
                 224, 256, 320)
_MP3_RATES = (44100, 48000, 32000)


def _mp3_frame_len(bitrate_kbps: int, rate_hz: int, padding: int) -> int:
    # MPEG-1 Layer III: floor(144 * bitrate / rate) + padding
    return 144 * bitrate_kbps * 1000 // rate_hz + padding


class Mp3MetaParser(MediaParser):
    """Actor-pool REAL MP3 frame-header walk (ISO/IEC 11172-3): verify
    the 11-bit sync, decode version/layer/bitrate/rate/padding bit
    fields, hop frame to frame by the header-implied length, and emit
    (n_frames, sample_rate, total bitrate-sum for the exact mean,
    duration) — VBR-correct: duration accumulates 1152 samples per
    frame regardless of each frame's bitrate.  duration_us =
    (n_frames * 1152 * 1_000_000) // rate, exact integer.  Malformed
    streams (bad sync mid-stream, truncated frame, forbidden
    bitrate/rate index, rate changes mid-stream) dead-letter with
    ``decode_ok = false``.  The Huffman-coded payload is never
    touched — that part stays a declared stub."""

    schema = _int64s("n_frames", "sample_rate", "duration_us",
                     "mean_bitrate_kbps")
    media_type = "audio/mpeg"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL MPEG-1 Layer III frame stream with closed
        forms for the oracle — n_frames = id%40+1, sampling-rate index
        = id%3, per-frame bitrate index rotating (id + frame) % 14 + 1
        (so VBR streams exist whenever n_frames > 1 — the parser must
        not assume CBR), padding bit = (id + frame) % 2.  Each frame
        is a spec header plus zero payload bytes of exactly the
        header-implied length."""
        rate_idx = i % 3
        out = bytearray()
        for f in range(i % 40 + 1):
            br_idx = (i + f) % 14 + 1
            pad = (i + f) % 2
            # sync(11)=all 1 | version(2)=11 (MPEG-1) | layer(2)=01
            # (III) | prot(1)=1 | bitrate(4) | rate(2) | padding(1) |
            # private(1)=0 | mode(2)=11 (mono) | rest 0
            b2 = (br_idx << 4) | (rate_idx << 2) | (pad << 1)
            flen = _mp3_frame_len(_MP3_BITRATES[br_idx],
                                  _MP3_RATES[rate_idx], pad)
            out += bytes((0xFF, 0xFB, b2, 0xC0)) + bytes(flen - 4)
        return bytes(out)

    def _parse(self, p: bytes):
        pos, n_frames, rate, br_sum = 0, 0, None, 0
        while pos < len(p):
            if pos + 4 > len(p):
                return None
            b0, b1, b2, _ = p[pos:pos + 4]
            if b0 != 0xFF or (b1 & 0xFE) != 0xFA:  # MPEG-1 Layer III
                return None
            br_idx = b2 >> 4
            rate_idx = (b2 >> 2) & 0x3
            pad = (b2 >> 1) & 0x1
            if not 1 <= br_idx <= 14 or rate_idx > 2:
                return None
            r = _MP3_RATES[rate_idx]
            if rate is None:
                rate = r
            elif r != rate:
                return None
            flen = _mp3_frame_len(_MP3_BITRATES[br_idx], r, pad)
            if pos + flen > len(p):
                return None
            br_sum += _MP3_BITRATES[br_idx]
            n_frames += 1
            pos += flen
        if n_frames == 0:
            return None
        return (n_frames, rate,
                n_frames * 1152 * 1_000_000 // rate,
                br_sum // n_frames)


# ------------------------------------------------------ real GIF (container)
# Same policy as MP4/MP3: what a multimodal sweep needs FIRST from
# animated GIFs — dimensions, frame count, total animation delay,
# palette size, loop count — is pure block structure (GIF89a spec,
# 89a §§17-26): Logical Screen Descriptor bit fields, extension
# blocks, image descriptors and length-prefixed data sub-block
# chains.  Only the LZW-coded pixel payload stays a declared stub
# (walked by sub-block length, never decompressed).

class GifMetaParser(MediaParser):
    """Actor-pool REAL GIF89a container parse: header + Logical
    Screen Descriptor bit fields, global/local color-table walks,
    extension dispatch (Graphic Control delays summed, NETSCAPE2.0
    loop count, comments skipped), image-descriptor count, and the
    length-prefixed data sub-block chain hop — emitting (width,
    height, n_frames, total_delay_cs, gct_colors, loops).  The
    LZW-compressed pixel payload is never decompressed (declared
    stub, like MP4's mdat).  Malformed streams (bad magic, truncated
    block, missing trailer, bytes after the trailer) dead-letter with
    ``decode_ok = false``."""

    schema = _int64s("width", "height", "n_frames", "total_delay_cs",
                     "gct_colors", "loops")
    media_type = "image/gif"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL GIF89a stream with closed forms for the
        oracle — width = (id%6+1)*2, height = (id%4+2)*2, global
        palette of 2 << (id%3) colors, n_frames = id%5+1, each frame's
        Graphic Control delay = (id*3 + frame) % 100 centisec.
        Coverage rotation: frames with (id+frame)%4 == 0 carry a LOCAL
        color table (size bits id%2), ids with id%6 == 0 carry a
        NETSCAPE looping application extension (loop count id%10), ids
        with id%7 == 0 carry a comment extension — so every block-walk
        branch sees real data at every scale.  Data sub-blocks are
        length-valid chains of deterministic filler bytes (the LZW
        payload is the declared stub, exactly like mdat in the MP4
        fixture)."""
        w = (i % 6 + 1) * 2
        h = (i % 4 + 2) * 2
        gbits = i % 3
        out = bytearray(b"GIF89a")
        # LSD: w, h, packed(GCT flag | color res 010 | size bits), bg,
        # aspect
        out += struct.pack("<HH", w, h)
        out += bytes((0x80 | (0b010 << 4) | gbits, 0, 0))
        out += bytes((i + j) % 256 for j in range(3 * (2 << gbits)))  # GCT
        if i % 6 == 0:                      # NETSCAPE loop extension
            out += b"\x21\xff\x0bNETSCAPE2.0"
            out += bytes((3, 1)) + struct.pack("<H", i % 10)
            out += b"\x00"
        if i % 7 == 0:                      # comment extension
            out += b"\x21\xfe\x04meta\x00"
        for f in range(i % 5 + 1):
            delay = (i * 3 + f) % 100
            out += b"\x21\xf9\x04\x00" + struct.pack("<H", delay)
            out += b"\x00\x00"              # transparent idx, term
            out += b"\x2c" + struct.pack("<HHHH", 0, 0, w, h)
            if (i + f) % 4 == 0:            # local color table
                lbits = i % 2
                out += bytes((0x80 | lbits,))
                out += bytes((i + f + j) % 256
                             for j in range(3 * (2 << lbits)))
            else:
                out += b"\x00"
            out += bytes((7,))              # LZW min code size
            a = (i + f) % 200 + 1           # two filler sub-blocks
            b = (i * 2 + f) % 100 + 1
            out += bytes((a,)) + bytes((i + j) % 256 for j in range(a))
            out += bytes((b,)) + bytes((f + j) % 256 for j in range(b))
            out += b"\x00"                  # sub-block terminator
        out += b"\x3b"                      # trailer
        return bytes(out)

    def _subblocks(self, p: bytes, pos: int):
        while True:
            if pos >= len(p):
                return None
            ln = p[pos]
            pos += 1 + ln
            if ln == 0:
                return pos
            if pos > len(p):
                return None

    def _parse(self, p: bytes):
        if len(p) < 13 or p[:6] not in (b"GIF89a", b"GIF87a"):
            return None
        w = int.from_bytes(p[6:8], "little")
        h = int.from_bytes(p[8:10], "little")
        packed = p[10]
        pos = 13
        gct_colors = 0
        if packed & 0x80:
            gct_colors = 2 << (packed & 0x07)
            pos += 3 * gct_colors
        n_frames, total_delay, loops = 0, 0, 0
        while True:
            if pos >= len(p):
                return None
            b0 = p[pos]
            pos += 1
            if b0 == 0x3B:                  # trailer
                if pos != len(p):
                    return None
                break
            if b0 == 0x21:                  # extension
                if pos >= len(p):
                    return None
                label = p[pos]
                pos += 1
                if label == 0xF9:           # graphic control
                    if pos + 6 > len(p) or p[pos] != 4:
                        return None
                    total_delay += int.from_bytes(
                        p[pos + 2:pos + 4], "little")
                    pos = self._subblocks(p, pos)
                elif label == 0xFF:         # application
                    if pos + 12 > len(p) or p[pos] != 11:
                        return None
                    app = p[pos + 1:pos + 12]
                    end = self._subblocks(p, pos)
                    if end is None:
                        return None
                    if app == b"NETSCAPE2.0" and p[pos + 12] == 3:
                        loops = int.from_bytes(
                            p[pos + 14:pos + 16], "little")
                    pos = end
                else:                       # comment / plain text
                    pos = self._subblocks(p, pos)
                if pos is None:
                    return None
            elif b0 == 0x2C:                # image descriptor
                if pos + 9 > len(p):
                    return None
                ipacked = p[pos + 8]
                pos += 9
                if ipacked & 0x80:
                    pos += 3 * (2 << (ipacked & 0x07))
                pos += 1                    # LZW min code size
                pos = self._subblocks(p, pos)
                if pos is None:
                    return None
                n_frames += 1
            else:
                return None
        if n_frames == 0:
            return None
        return (w, h, n_frames, total_delay, gct_colors, loops)


# ------------------------------------------------------- real BMP (decode)
# Like PPM, an uncompressed 24-bit BMP is header + raw pixels — so
# this path is a FULL image decode (BITMAPFILEHEADER +
# BITMAPINFOHEADER validation, 4-byte row-stride padding, bottom-up
# vs top-down row order, BGR channel order), not a stub.

class BmpDecoder(MediaParser):
    """Actor-pool REAL uncompressed 24-bit BMP decode: file + info
    header validation (magic, header size 40, planes, bpp 24,
    BI_RGB), 4-byte row-stride arithmetic, bottom-up (positive
    biHeight) vs top-down (negative) row order, BGR order — emitting
    exact integer floor channel means plus the top-left pixel (the
    flip witness).  Per-image pixel math is numpy over the reshaped
    stride matrix; malformed payloads dead-letter with
    ``decode_ok = false``."""

    schema = _int64s("width", "height", "mean_r", "mean_g", "mean_b",
                     "top_r", "top_g", "top_b")
    media_type = "image/bmp"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL 24-bit BMP with closed forms for the
        oracle — width = (id%7+1)*2, height = (id%5+1)*2, and IMAGE row
        y (top-based) holds constant channels B = id%100 + y,
        G = id*3%100 + y, R = id*7%100 + y, so the exact floor channel
        means are base + (h-1)//2 and the TOP row is base + 0 (which
        catches a missed bottom-up flip, unlike the mean).  Rotation:
        ids with id%3 == 0 store TOP-DOWN (negative biHeight — the
        other real DIB branch), everything else bottom-up; width
        alternates 3*w % 4 in {0, 2} so the row-padding branch sees
        both forms."""
        w = (i % 7 + 1) * 2
        h = (i % 5 + 1) * 2
        top_down = i % 3 == 0
        stride = (3 * w + 3) & ~3
        rows = np.zeros((h, stride), np.uint8)
        y = np.arange(h, dtype=np.int64)
        px = np.empty((h, w, 3), np.uint8)
        px[..., 0] = (i % 100 + y)[:, None]        # B
        px[..., 1] = (i * 3 % 100 + y)[:, None]    # G
        px[..., 2] = (i * 7 % 100 + y)[:, None]    # R
        rows[:, :3 * w] = px.reshape(h, 3 * w)
        if not top_down:
            rows = rows[::-1]
        data = rows.tobytes()
        return (b"BM" + struct.pack("<IHHI", 54 + len(data), 0, 0, 54)
                + struct.pack("<IiihhIIiiII", 40, w,
                              -h if top_down else h, 1, 24, 0,
                              len(data), 2835, 2835, 0, 0)
                + data)

    def _parse(self, p: bytes):
        if len(p) < 54 or p[:2] != b"BM":
            return None
        off = struct.unpack_from("<I", p, 10)[0]
        (hsz, w, h_raw, planes, bpp, comp) = struct.unpack_from(
            "<IiihhI", p, 14)
        if hsz != 40 or planes != 1 or bpp != 24 or comp != 0:
            return None
        if w <= 0 or h_raw == 0:
            return None
        h = abs(h_raw)
        stride = (3 * w + 3) & ~3
        if off + stride * h > len(p):
            return None
        rows = np.frombuffer(p, np.uint8, stride * h, off) \
            .reshape(h, stride)
        if h_raw > 0:                       # bottom-up: flip to image
            rows = rows[::-1]
        px = rows[:, :3 * w].reshape(h, w, 3).astype(np.int64)
        sums = px.sum(axis=(0, 1))
        n = w * h
        return (w, h, int(sums[2]) // n, int(sums[1]) // n,
                int(sums[0]) // n, int(px[0, 0, 2]),
                int(px[0, 0, 1]), int(px[0, 0, 0]))


# ------------------------------------------------------ real TIFF (IFD walk)
# TIFF metadata is a linked list of Image File Directories — tag /
# type / count / value entries with BOTH byte orders in the wild
# ('II' little, 'MM' big) — so the parser exercises the endianness
# branch every other fixture row.  Strip payloads stay opaque (the
# MP4-mdat policy).

class TiffMetaParser(MediaParser):
    """Actor-pool REAL TIFF IFD walk (TIFF 6.0): byte-order mark +
    magic 42, then the chained Image File Directories — 12-byte
    tag/type/count/value entries with SHORT values read from the
    left-justified inline field under EITHER endianness — emitting
    (byte_order, width, height, bits_per_sample, compression,
    n_pages) from the first page.  Strip payloads stay opaque.
    Malformed files (bad magic, truncated IFD, IFD-offset loop)
    dead-letter with ``decode_ok = false``."""

    schema = pa.schema([("byte_order", pa.string()), *_int64s(
        "width", "height", "bits_per_sample", "compression", "n_pages")])
    media_type = "image/tiff"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL baseline-TIFF header with closed forms
        for the oracle — width = (id%9+1)*3 (LONG entry), height =
        (id%5+2)*4 (SHORT entry, exercising the left-justified
        inline-value rule), bits_per_sample = 8 or 16 by id%2,
        compression = 1, and id%3+1 chained IFDs (multi-page).  Byte
        order rotates: even ids 'II', odd ids 'MM'."""
        little = i % 2 == 0
        e = "<" if little else ">"
        pages = i % 3 + 1
        entries = [
            (256, 4, 1, (i % 9 + 1) * 3),   # ImageWidth, LONG
            (257, 3, 1, (i % 5 + 2) * 4),   # ImageLength, SHORT
            (258, 3, 1, 8 if little else 16),  # BitsPerSample, SHORT
            (259, 3, 1, 1),                 # Compression, none
        ]
        out = bytearray()
        out += b"II" if little else b"MM"
        out += struct.pack(e + "H", 42)
        out += struct.pack(e + "I", 8)      # first IFD right after
        pos = 8
        for p in range(pages):
            ifd = bytearray(struct.pack(e + "H", len(entries)))
            for tag, typ, cnt, val in entries:
                ifd += struct.pack(e + "HHI", tag, typ, cnt)
                if typ == 3:                # SHORT: left-justified
                    ifd += struct.pack(e + "H", val) + b"\x00\x00"
                else:
                    ifd += struct.pack(e + "I", val)
            nxt = pos + 2 + 12 * len(entries) + 4 if p < pages - 1 \
                else 0
            ifd += struct.pack(e + "I", nxt)
            out += ifd
            pos += len(ifd)
        return bytes(out)

    def _parse(self, p: bytes):
        if len(p) < 8 or p[:2] not in (b"II", b"MM"):
            return None
        e = "<" if p[:2] == b"II" else ">"
        if struct.unpack_from(e + "H", p, 2)[0] != 42:
            return None
        off = struct.unpack_from(e + "I", p, 4)[0]
        first = None
        pages = 0
        seen = set()
        while off != 0:
            if off in seen or off + 2 > len(p):
                return None
            seen.add(off)
            n = struct.unpack_from(e + "H", p, off)[0]
            end = off + 2 + 12 * n
            if end + 4 > len(p):
                return None
            tags = {}
            for k in range(n):
                tag, typ, cnt = struct.unpack_from(
                    e + "HHI", p, off + 2 + 12 * k)
                vo = off + 2 + 12 * k + 8
                if typ == 3 and cnt == 1:
                    tags[tag] = struct.unpack_from(e + "H", p, vo)[0]
                elif typ == 4 and cnt == 1:
                    tags[tag] = struct.unpack_from(e + "I", p, vo)[0]
            if first is None:
                if not {256, 257}.issubset(tags):
                    return None
                first = (tags[256], tags[257], tags.get(258, 1),
                         tags.get(259, 1))
            pages += 1
            off = struct.unpack_from(e + "I", p, end)[0]
        if first is None:
            return None
        return (p[:2].decode("ascii"),) + first + (pages,)


# ------------------------------------------------------ real ZIP (directory)
# Document pipelines ingest ARCHIVES long before they decode media:
# what a sweep needs from a .zip is the central directory — member
# count, sizes, methods — found via the end-of-central-directory
# record (APPNOTE 4.3.16) whose trailing comment forces the
# scan-back-from-tail branch every parser must get right.  Member
# payloads stay opaque (the mdat policy); STORED members carry real
# CRC32s so the fixture bytes are genuine archives.

class ZipMetaParser(MediaParser):
    """Actor-pool REAL ZIP central-directory parse (PKWARE APPNOTE
    4.3): EOCD located by scanning back from the tail through the
    variable-length comment, then the central directory walked entry
    by entry — emitting (n_members, total_uncompressed,
    total_compressed, n_stored, names_bytes, comment_len).  Member
    payloads are never inflated.  Malformed archives (no EOCD, entry
    count mismatch, bad entry signature, truncated directory)
    dead-letter with ``decode_ok = false``."""

    schema = _int64s("n_members", "total_uncompressed", "total_compressed",
                     "n_stored", "names_bytes", "comment_len")
    media_type = "application/zip"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL ZIP archive with closed forms for the
        oracle — n_members = id%6+1, member j holds (id+j)%50+1 filler
        bytes STORED (method 0, real CRC32), names 'm00'.., and an
        EOCD comment of id%7 bytes so the tail scan-back is exercised
        at every length."""
        n_members = i % 6 + 1
        locals_, centrals = [], []
        pos = 0
        for j in range(n_members):
            name = b"m%02d" % j
            data = bytes((i + j + k) % 256 for k in range((i + j) % 50 + 1))
            crc = zlib.crc32(data) & 0xFFFFFFFF
            lfh = (b"PK\x03\x04" + struct.pack(
                "<HHHHHIIIHH", 20, 0, 0, 0, 0, crc, len(data),
                len(data), len(name), 0) + name + data)
            cde = (b"PK\x01\x02" + struct.pack(
                "<HHHHHHIIIHHHHHII", 20, 20, 0, 0, 0, 0, crc,
                len(data), len(data), len(name), 0, 0, 0, 0, 0, pos)
                + name)
            locals_.append(lfh)
            centrals.append(cde)
            pos += len(lfh)
        cd = b"".join(centrals)
        comment = bytes(65 + k for k in range(i % 7))
        eocd = (b"PK\x05\x06" + struct.pack(
            "<HHHHIIH", 0, 0, n_members, n_members, len(cd), pos,
            len(comment)) + comment)
        return b"".join(locals_) + cd + eocd

    def _parse(self, p: bytes):
        lo = max(0, len(p) - 65557)
        at = p.rfind(b"PK\x05\x06", lo)
        if at < 0 or at + 22 > len(p):
            return None
        (_, _, n_here, n_total, cd_size, cd_off, clen) = \
            struct.unpack_from("<HHHHIIH", p, at + 4)
        if at + 22 + clen != len(p) or n_here != n_total:
            return None
        if cd_off + cd_size != at:
            return None
        pos = cd_off
        tot_u = tot_c = stored = names = 0
        for _ in range(n_total):
            if pos + 46 > at or p[pos:pos + 4] != b"PK\x01\x02":
                return None
            (_, _, _, method, _, _, _, csize, usize, nlen, xlen,
             klen) = struct.unpack_from("<HHHHHHIIIHHH", p, pos + 4)
            tot_u += usize
            tot_c += csize
            stored += method == 0
            names += nlen
            pos += 46 + nlen + xlen + klen
        if pos != at:
            return None
        return (n_total, tot_u, tot_c, stored, names, clen)


# ------------------------------------------------------ real FLAC (headers)
# FLAC's STREAMINFO packs sample rate (20 bits), channels (3) and
# bits-per-sample (5) and the 36-bit total-sample count into one
# 64-bit field spanning byte boundaries — the bit-extraction exercise
# none of the byte-aligned parsers above hits.  The entropy-coded
# frames stay opaque (the mdat policy).

class FlacMetaParser(MediaParser):
    """Actor-pool REAL FLAC metadata parse: 'fLaC' magic, the
    METADATA_BLOCK chain (1-bit last flag + 7-bit type + 24-bit
    length), STREAMINFO required FIRST per spec, and the 64-bit
    bit-packed field split into sample rate / channels /
    bits-per-sample / 36-bit total samples — exact floor-us duration
    out.  Frames after the last metadata block stay opaque.
    Malformed streams (bad magic, STREAMINFO not first or wrong
    size, truncated block, zero rate) dead-letter."""

    schema = _int64s("sample_rate", "channels", "bits_per_sample",
                     "total_samples", "duration_us", "n_blocks")
    media_type = "audio/flac"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL FLAC metadata stream with closed forms
        for the oracle — rate rotates 32000/44100/48000, channels =
        id%2+1, bits = 16 or 24, total_samples = (id%50+1)*1000 + id%7
        (exercising low bits of the 36-bit field).  Block rotation:
        ids%2 == 0 append PADDING, ids%5 == 0 append a
        VORBIS_COMMENT-typed block, so the last-block flag moves."""
        rate = (32000, 44100, 48000)[i % 3]
        ch = i % 2 + 1
        bps = 16 if i % 2 == 0 else 24
        total = (i % 50 + 1) * 1000 + i % 7
        packed = ((rate << 44) | ((ch - 1) << 41)
                  | ((bps - 1) << 36) | total)
        si = (struct.pack(">HH", 1024, 4096)
              + (34).to_bytes(3, "big") + (8192).to_bytes(3, "big")
              + packed.to_bytes(8, "big") + bytes(16))
        blocks = [(0, si)]
        if i % 2 == 0:
            blocks.append((1, bytes(i % 9 + 1)))        # PADDING
        if i % 5 == 0:
            blocks.append((4, b"\x00\x00\x00\x00"))     # VORBIS
        out = bytearray(b"fLaC")
        for j, (btype, body) in enumerate(blocks):
            last = 0x80 if j == len(blocks) - 1 else 0
            out += bytes((last | btype,)) + len(body).to_bytes(3, "big")
            out += body
        return bytes(out)

    def _parse(self, p: bytes):
        if len(p) < 8 or p[:4] != b"fLaC":
            return None
        pos = 4
        first = True
        info = None
        n_blocks = 0
        while True:
            if pos + 4 > len(p):
                return None
            hdr = p[pos]
            last = bool(hdr & 0x80)
            btype = hdr & 0x7F
            ln = int.from_bytes(p[pos + 1:pos + 4], "big")
            b0 = pos + 4
            if b0 + ln > len(p):
                return None
            if first:
                if btype != 0 or ln != 34:
                    return None
                packed = int.from_bytes(p[b0 + 10:b0 + 18], "big")
                rate = packed >> 44
                ch = ((packed >> 41) & 0x7) + 1
                bps = ((packed >> 36) & 0x1F) + 1
                total = packed & ((1 << 36) - 1)
                if rate == 0:
                    return None
                info = (rate, ch, bps, total,
                        total * 1_000_000 // rate)
                first = False
            n_blocks += 1
            pos = b0 + ln
            if last:
                break
        return info + (n_blocks,)


# ------------------------------------------------------------ real WebP
# WebP is a RIFF container (like WAV) whose three chunk variants carry
# their dimensions in three DIFFERENT encodings — VP8 in the lossy
# frame header behind a start code, VP8L in a 14+14+1+3-bit
# little-endian bitstream (the bit-packed exercise), VP8X in 24-bit
# minus-one fields.  All three are parsed for real; the VP8/VP8L
# entropy-coded payloads remain declared stubs (the mdat doctrine).

class WebpMetaParser(MediaParser):
    """Actor-pool REAL WebP container parse: RIFF validation, chunk
    walk with word alignment, then the variant-specific dimension
    decode — VP8 lossy frame header (start-code check, 14-bit w/h),
    VP8L bit-packed header (signature byte, 14+14+1+3 LE bits), VP8X
    24-bit minus-one canvas fields + feature flags.  Malformed
    payloads dead-letter as ``decode_ok = false``."""

    schema = pa.schema([("fmt", pa.string()), *_int64s(
        "width", "height", "has_alpha", "n_chunks")])
    media_type = "image/webp"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL WebP container with closed forms for the
        oracle — w = id%300+1, h = id%200+1, variant id%3 in {VP8,
        VP8L, VP8X}, has_alpha = id%2 for the variants that can carry
        it (VP8 cannot).  VP8X ids nest an ALPH chunk (when the alpha
        flag is set) and a real VP8 frame chunk, so the chunk walk sees
        multi-chunk files at every scale."""
        w, h, alpha = i % 300 + 1, i % 200 + 1, i % 2
        part_size = i % 50 + 1
        tag = ((i % 4) << 1) | (1 << 4) | (part_size << 5)
        vp8 = _riff_chunk(b"VP8 ", struct.pack("<I", tag)[:3]
                          + b"\x9d\x01\x2a"
                          + struct.pack("<HH", w & 0x3FFF, h & 0x3FFF)
                          + bytes((i + j) % 256 for j in range(part_size)))
        variant = i % 3
        if variant == 0:
            chunks = vp8
        elif variant == 1:
            bits = ((w - 1) & 0x3FFF) | (((h - 1) & 0x3FFF) << 14) \
                | (alpha << 28) | (0 << 29)
            chunks = _riff_chunk(
                b"VP8L", b"\x2f" + struct.pack("<I", bits)
                + bytes((i * 3 + j) % 256 for j in range(i % 20 + 1)))
        else:
            flags = (alpha << 4)  # bit 4: alpha (RFC 9649 layout)
            chunks = _riff_chunk(b"VP8X", bytes((flags, 0, 0, 0))
                                 + struct.pack("<I", w - 1)[:3]
                                 + struct.pack("<I", h - 1)[:3])
            if alpha:
                chunks += _riff_chunk(b"ALPH", bytes((0,)) + bytes(
                    (i + j) % 256 for j in range(i % 9 + 1)))
            chunks += vp8
        return _riff_chunk(b"RIFF", b"WEBP" + chunks)

    def _parse(self, p: bytes):
        if len(p) < 12 or p[:4] != b"RIFF" or p[8:12] != b"WEBP":
            return None
        if struct.unpack("<I", p[4:8])[0] != len(p) - 8:
            return None
        chunks = _riff_chunks(p, 12, len(p))
        if not chunks:
            return None
        cid, lo, hi = chunks[0]
        body = p[lo:hi]
        if cid == b"VP8 ":
            if len(body) < 10 or body[3:6] != b"\x9d\x01\x2a":
                return None
            w = struct.unpack("<H", body[6:8])[0] & 0x3FFF
            h = struct.unpack("<H", body[8:10])[0] & 0x3FFF
            return "VP8", w, h, 0, len(chunks)
        if cid == b"VP8L":
            if len(body) < 5 or body[0] != 0x2F:
                return None
            bits = struct.unpack("<I", body[1:5])[0]
            w = (bits & 0x3FFF) + 1
            h = ((bits >> 14) & 0x3FFF) + 1
            alpha = (bits >> 28) & 1
            if (bits >> 29) & 0x7:          # version must be 0
                return None
            return "VP8L", w, h, alpha, len(chunks)
        if cid == b"VP8X":
            if len(body) < 10:
                return None
            alpha = (body[0] >> 4) & 1
            w = 1 + int.from_bytes(body[4:7], "little")
            h = 1 + int.from_bytes(body[7:10], "little")
            return "VP8X", w, h, alpha, len(chunks)
        return None


# ------------------------------------------------------------- real Ogg
# Ogg (RFC 3533) is the page-framed transport under Vorbis/Opus/FLAC
# streams.  Unlike every other container here it carries a REAL
# non-reflected CRC-32 (poly 0x04C11DB7, init 0, no final xor) over
# each page — the parser recomputes and enforces it, so this stage
# exercises actual integrity verification, not just field extraction.

#: Byte bit-reversal table: the Ogg CRC is the NON-reflected form of
#: the CRC-32 polynomial, and GF(2) polynomial division commutes with
#: bit order — so ogg_crc(m) = rev32(zlib_raw_crc(bitrev_bytes(m)))
#: with zlib's init/xorout conditioning cancelled.  That turns the
#: per-byte Python table walk into two C calls (bytes.translate +
#: zlib.crc32); the slow spec-literal table implementation lives in
#: tests/test_round5b_ops.py as the independent reference the fast
#: path must agree with (the adpcm/jpeg two-decoders doctrine).
_BITREV = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _ogg_crc(data: bytes) -> int:
    raw = zlib.crc32(data.translate(_BITREV), 0xFFFFFFFF) ^ 0xFFFFFFFF
    return int(f"{raw:032b}"[::-1], 2)


class OggMetaParser(MediaParser):
    """Actor-pool REAL Ogg page walk (RFC 3533): capture-pattern and
    version checks, lacing-table packet accounting, granule/serial
    extraction, BOS/EOS flag accounting — and per-page CRC-32
    RE-VERIFICATION against the spec polynomial, so a flipped bit
    anywhere in a page dead-letters the document."""

    schema = _int64s("n_pages", "n_packets", "serial", "last_granule",
                     "payload_bytes")
    media_type = "audio/ogg"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL Ogg stream with closed forms —
        n_pages = id%5+1, serial = (id*7+13)%100000, page p's payload
        length = (id*3+p*7)%600+1 (so the 255-lacing split and the
        0-terminator branch both occur), granule = (id%97+1)*1000+p,
        BOS/EOS flags on the first/last page, REAL page CRCs."""
        n_pages = i % 5 + 1
        serial = (i * 7 + 13) % 100000
        out = bytearray()
        for p in range(n_pages):
            length = (i * 3 + p * 7) % 600 + 1
            full, rem = divmod(length, 255)
            lacing = bytes([255] * full + [rem])
            body = bytes((i + p + j) % 256 for j in range(length))
            htype = (0x02 if p == 0 else 0) | \
                (0x04 if p == n_pages - 1 else 0)
            granule = (i % 97 + 1) * 1000 + p
            page = bytearray(b"OggS\x00")
            page.append(htype)
            page += struct.pack("<qII", granule, serial, p)
            page += b"\x00\x00\x00\x00"          # CRC placeholder
            page.append(len(lacing))
            page += lacing + body
            crc = _ogg_crc(bytes(page))
            page[22:26] = struct.pack("<I", crc)
            out += page
        return bytes(out)

    def _parse(self, p: bytes):
        pos, n_pages, n_packets, total = 0, 0, 0, 0
        serial0, last_granule, saw_bos, saw_eos = None, None, False, False
        while pos < len(p):
            if pos + 27 > len(p) or p[pos:pos + 4] != b"OggS" \
                    or p[pos + 4] != 0:
                return None
            htype = p[pos + 5]
            granule, serial, seq = struct.unpack(
                "<qII", p[pos + 6:pos + 22])
            crc_stored = struct.unpack("<I", p[pos + 22:pos + 26])[0]
            nseg = p[pos + 26]
            seg_end = pos + 27 + nseg
            if seg_end > len(p):
                return None
            lacing = p[pos + 27:seg_end]
            body_len = sum(lacing)
            page_end = seg_end + body_len
            if page_end > len(p):
                return None
            page = bytearray(p[pos:page_end])
            page[22:26] = b"\x00\x00\x00\x00"
            if _ogg_crc(bytes(page)) != crc_stored:
                return None
            if serial0 is None:
                serial0 = serial
            elif serial != serial0:
                return None
            if seq != n_pages:
                return None
            n_pages += 1
            n_packets += sum(1 for v in lacing if v < 255)
            total += body_len
            saw_bos |= bool(htype & 0x02)
            saw_eos |= bool(htype & 0x04)
            last_granule = granule
            pos = page_end
        if n_pages == 0 or not saw_bos or not saw_eos:
            return None
        return n_pages, n_packets, serial0, last_granule, total


# ------------------------------------------------------------- real ICO
# ICO is the DIRECTORY-of-images container (favicon.ico): a 6-byte
# ICONDIR, count x 16-byte ICONDIRENTRY records (with the width-0 =
# 256 quirk), and per-image payloads that are EITHER embedded PNG
# streams or headerless-BMP (BITMAPINFOHEADER-first) blobs — so the
# parser exercises offset/bounds accounting plus payload SNIFFING,
# the step every multimodal router runs before dispatching decoders.

class IcoMetaParser(MediaParser):
    """Actor-pool REAL ICO parse: ICONDIR validation, entry walk with
    strict offset/size bounds accounting, width-0 = 256 decode, and
    per-image payload SNIFFING (PNG signature vs BITMAPINFOHEADER
    biSize) — an entry pointing outside the file, a bad type field or
    an unrecognizable payload dead-letters the document."""

    schema = _int64s("n_images", "max_width", "max_bpp", "payload_bytes",
                     "n_png")
    media_type = "image/x-icon"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL ICO container with closed forms —
        n_images = id%4+1; image i has raw width byte (id + i*17) % 256
        (0 decodes to 256 — the quirk is exercised), bpp rotating over
        {1,4,8,24,32}, payload length (id*5+i*3)%200+8, PNG payload
        when (id+i)%2 else BMP (biSize=40 first)."""
        n = i % 4 + 1
        entries, blobs = [], []
        offset = 6 + 16 * n
        for k in range(n):
            wraw = (i + k * 17) % 256
            bpp = [1, 4, 8, 24, 32][(i + k) % 5]
            size = (i * 5 + k * 3) % 200 + 8
            if (i + k) % 2:
                blob = b"\x89PNG\r\n\x1a\n" + bytes(
                    (i + k + j) % 256 for j in range(size - 8))
            else:
                blob = struct.pack("<I", 40) + bytes(
                    (i * 2 + k + j) % 256 for j in range(size - 4))
            entries.append(struct.pack(
                "<BBBBHHII", wraw, wraw, 0, 0, 1, bpp, len(blob),
                offset))
            blobs.append(blob)
            offset += len(blob)
        return (b"\x00\x00\x01\x00" + struct.pack("<H", n)
                + b"".join(entries) + b"".join(blobs))

    def _parse(self, p: bytes):
        if len(p) < 6 or p[:4] != b"\x00\x00\x01\x00":
            return None
        n = struct.unpack("<H", p[4:6])[0]
        if n == 0 or 6 + 16 * n > len(p):
            return None
        max_w, max_bpp, total, n_png = 0, 0, 0, 0
        for k in range(n):
            e = p[6 + 16 * k:6 + 16 * (k + 1)]
            wraw, _h, _c, res, _pl, bpp, size, off = struct.unpack(
                "<BBBBHHII", e)
            if res != 0 or off + size > len(p) or size < 4:
                return None
            blob = p[off:off + size]
            if blob[:8] == b"\x89PNG\r\n\x1a\n":
                n_png += 1
            elif struct.unpack("<I", blob[:4])[0] == 40:
                pass
            else:
                return None
            max_w = max(max_w, wraw if wraw else 256)
            max_bpp = max(max_bpp, bpp)
            total += size
        return n, max_w, max_bpp, total, n_png


# ------------------------------------------------------------- real SRT
# SubRip is the TEXT-format temporal container (every video pipeline
# carries subtitle sidecars): indexed cues with millisecond time
# ranges and multi-line payloads.  Unlike the binary walks above, the
# hazards are textual — field counts, timestamp shape, range order,
# cue overlap — so the parser validates structure and emits exact
# integer timeline accounting.

def _srt_time(ms: int) -> str:
    h, ms = divmod(ms, 3_600_000)
    m, ms = divmod(ms, 60_000)
    s, ms = divmod(ms, 1_000)
    return f"{h:02d}:{m:02d}:{s:02d},{ms:03d}"


class SrtMetaParser(MediaParser):
    """Actor-pool REAL SRT parse: cue-block structure (index line,
    ``HH:MM:SS,mmm --> HH:MM:SS,mmm`` range, >= 1 text line),
    millisecond arithmetic, monotone index enforcement, end-before-
    start rejection — emitting exact integer timeline accounting
    including the OVERLAP count (next cue starts before the previous
    ends), the subtitle-QA signal."""

    schema = _int64s("n_cues", "total_dur_ms", "n_lines", "n_overlaps")
    media_type = "text/srt"

    _TS = re.compile(r"^(\d{2}):(\d{2}):(\d{2}),(\d{3})$")

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL SRT document with closed forms —
        n_cues = id%6+1; cue c starts at c*3000 ms, lasts
        (id*7+c*13)%3000+500 ms (so consecutive cues OVERLAP exactly
        when that duration exceeds 3000 ms), carries 1+(id+c)%2 text
        lines."""
        cues = []
        for c in range(i % 6 + 1):
            start = c * 3000
            dur = (i * 7 + c * 13) % 3000 + 500
            lines = "\n".join(f"line{j} of cue {c} doc {i}"
                              for j in range(1 + (i + c) % 2))
            cues.append(f"{c + 1}\n{_srt_time(start)} --> "
                        f"{_srt_time(start + dur)}\n{lines}\n")
        return "\n".join(cues).encode()

    def _ms(self, s: str):
        m = self._TS.match(s)
        if not m:
            return None
        h, mi, se, ms = map(int, m.groups())
        if mi >= 60 or se >= 60:
            return None
        return ((h * 60 + mi) * 60 + se) * 1000 + ms

    def _parse(self, p: bytes):
        blocks = [b for b in p.decode("utf-8").split("\n\n") if b.strip()]
        if not blocks:
            return None
        n_cues, total_dur, n_lines, n_overlap = 0, 0, 0, 0
        prev_end, prev_start = None, None
        for b in blocks:
            lines = b.split("\n")
            lines = [ln for ln in lines if ln != ""] \
                if lines and lines[-1] == "" else lines
            if len(lines) < 3:
                return None
            if not lines[0].isdigit() or int(lines[0]) != n_cues + 1:
                return None
            rng = lines[1].split(" --> ")
            if len(rng) != 2:
                return None
            start, end = self._ms(rng[0]), self._ms(rng[1])
            if start is None or end is None or end < start:
                return None
            if prev_start is not None and start < prev_start:
                return None
            if prev_end is not None and start < prev_end:
                n_overlap += 1
            n_cues += 1
            total_dur += end - start
            n_lines += len(lines) - 2
            prev_end, prev_start = end, start
        return n_cues, total_dur, n_lines, n_overlap


# ------------------------------------------------------------- real AVI
# AVI is the NESTED-list RIFF container (WAV and WebP walk flat chunk
# sequences; AVI's hdrl/strl/movi hierarchy requires a recursive LIST
# walk) — the last structural exercise of the RIFF family: the main
# header lives two levels deep, per-stream headers three.

class AviMetaParser(MediaParser):
    """Actor-pool REAL AVI container parse: recursive RIFF LIST walk
    (hdrl two levels deep, strl three), avih main-header decode,
    per-stream fourcc classification, movi payload accounting.  The
    frame payloads inside movi stay opaque (the mdat doctrine);
    structural damage dead-letters."""

    schema = _int64s("total_frames", "width", "height", "n_video",
                     "n_audio", "movi_bytes")
    media_type = "video/avi"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL AVI container with closed forms —
        total_frames = id%1000+1, width = (id%64+1)*16, height =
        (id%36+1)*16, n_streams = id%3+1 alternating vids/auds
        starting with vids, movi payload (id*11)%500+4 bytes."""
        n_str = i % 3 + 1
        avih = struct.pack("<10I", 33366, 0, 0, 0, i % 1000 + 1, 0, n_str,
                           0, (i % 64 + 1) * 16, (i % 36 + 1) * 16) \
            + b"\x00" * 16
        strls = b""
        for s in range(n_str):
            fcc = b"vids" if s % 2 == 0 else b"auds"
            strh = fcc + b"FAKE" + struct.pack("<IHHIII", 0, 0, 0, 0,
                                               1, 25 + s)
            strh += b"\x00" * (56 - len(strh))
            strf = bytes((i + s + j) % 256 for j in range(16))
            strls += _riff_chunk(b"LIST", b"strl"
                                 + _riff_chunk(b"strh", strh)
                                 + _riff_chunk(b"strf", strf))
        hdrl = _riff_chunk(b"LIST", b"hdrl" + _riff_chunk(b"avih", avih)
                           + strls)
        movi = _riff_chunk(b"LIST", b"movi" + _riff_chunk(
            b"00dc", bytes((i + j) % 256 for j in range(i * 11 % 500 + 4))))
        return _riff_chunk(b"RIFF", b"AVI " + hdrl + movi)

    def _parse(self, p: bytes):
        if len(p) < 12 or p[:4] != b"RIFF" or p[8:12] != b"AVI ":
            return None
        if struct.unpack("<I", p[4:8])[0] != len(p) - 8:
            return None
        top = _riff_chunks(p, 12, len(p))
        if not top:
            return None
        frames = w = h = n_streams = None
        n_vids = n_auds = 0
        movi_bytes = None
        for cid, lo, hi in top:
            if cid != b"LIST" or hi - lo < 4:
                return None
            kind = p[lo:lo + 4]
            inner = _riff_chunks(p, lo + 4, hi)
            if inner is None:
                return None
            if kind == b"hdrl":
                for c2, l2, h2 in inner:
                    if c2 == b"avih":
                        if h2 - l2 < 40:
                            return None
                        v = struct.unpack("<10I", p[l2:l2 + 40])
                        frames, n_streams, w, h = v[4], v[6], v[8], v[9]
                    elif c2 == b"LIST" and p[l2:l2 + 4] == b"strl":
                        sub = _riff_chunks(p, l2 + 4, h2)
                        if not sub or sub[0][0] != b"strh":
                            return None
                        fcc = p[sub[0][1]:sub[0][1] + 4]
                        if fcc == b"vids":
                            n_vids += 1
                        elif fcc == b"auds":
                            n_auds += 1
                        else:
                            return None
            elif kind == b"movi":
                movi_bytes = sum(h2 - l2 for _, l2, h2 in inner)
        if frames is None or movi_bytes is None \
                or n_streams != n_vids + n_auds:
            return None
        return frames, w, h, n_vids, n_auds, movi_bytes


# ------------------------------------------------------------- real TAR
# ustar is the 512-block archive format training corpora actually
# arrive in: OCTAL-text header fields (every other container here is
# binary-packed), a per-header CHECKSUM computed with its own field
# blanked (enforced below, like Ogg's CRC), block-padded payloads and
# a two-zero-block terminator.

class TarMetaParser(MediaParser):
    """Actor-pool REAL ustar walk: octal field decode, per-header
    CHECKSUM re-verification (computed with the checksum field
    blanked to spaces), 512-block payload hop, magic + terminator
    enforcement.  A flipped header byte, a corrupt size field or a
    missing terminator dead-letters the archive."""

    schema = _int64s("n_members", "total_bytes", "max_mtime", "n_blocks")
    media_type = "application/x-tar"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL ustar archive with closed forms —
        n_members = id%4+1; member k has size (id*13+k*7)%900 bytes,
        mtime id*100+k, name dir<id%10>/file<k>.bin."""
        out = bytearray()
        for k in range(i % 4 + 1):
            size = (i * 13 + k * 7) % 900
            hdr = bytearray(512)
            name = f"dir{i % 10}/file{k}.bin".encode()
            hdr[0:len(name)] = name
            hdr[100:108] = b"0000644\x00"
            hdr[108:116] = b"0000000\x00"
            hdr[116:124] = b"0000000\x00"
            hdr[124:136] = f"{size:011o}".encode() + b"\x00"
            hdr[136:148] = f"{i * 100 + k:011o}".encode() + b"\x00"
            hdr[148:156] = b" " * 8            # checksum placeholder
            hdr[156] = ord("0")                # regular file
            hdr[257:263] = b"ustar\x00"
            hdr[263:265] = b"00"
            chk = sum(hdr)
            hdr[148:156] = f"{chk:06o}".encode() + b"\x00 "
            out += hdr
            out += bytes((i + k + j) % 256 for j in range(size))
            if size % 512:
                out += b"\x00" * (512 - size % 512)
        out += b"\x00" * 1024                  # end-of-archive marker
        return bytes(out)

    def _parse(self, p: bytes):
        if len(p) % 512:
            return None
        n_members, total, max_mtime = 0, 0, None
        pos = 0
        while pos + 512 <= len(p):
            hdr = p[pos:pos + 512]
            if hdr == b"\x00" * 512:
                # terminator: require a second zero block
                if p[pos + 512:pos + 1024] != b"\x00" * 512:
                    return None
                pos += 1024
                if pos != len(p):
                    return None
                if n_members == 0:
                    return None
                return n_members, total, max_mtime, len(p) // 512
            if hdr[257:263] != b"ustar\x00":
                return None
            size = int(hdr[124:135].decode(), 8)
            mtime = int(hdr[136:147].decode(), 8)
            stored = int(hdr[148:154].decode(), 8)
            blank = bytearray(hdr)
            blank[148:156] = b" " * 8
            if sum(blank) != stored:
                return None
            n_members += 1
            total += size
            max_mtime = mtime if max_mtime is None \
                else max(max_mtime, mtime)
            pos += 512 + (size + 511) // 512 * 512
        return None                            # ran off the end


# ------------------------------------------------------------- real PDF
# PDF is parsed BACKWARD: the trailer names the xref offset, the xref
# table names every object's byte offset, and each offset must land on
# its own "<n> 0 obj" header — a cross-reference-validation hazard
# class none of the forward walks above exercise.  Object streams and
# content encodings stay opaque (the mdat doctrine); this walk is the
# STRUCTURAL triage a document pipeline runs before dispatching a real
# renderer.

class PdfMetaParser(MediaParser):
    """Actor-pool REAL (minimal) PDF structural parse: header version,
    tail-scan to ``startxref``, classic xref table decode (20-byte
    entries, free-list head), CROSS-REFERENCE VALIDATION — every
    in-use offset must land exactly on its own ``<n> 0 obj`` header —
    /Size consistency, and /Len extraction per object dict.  A stale
    startxref, a short xref table or a shifted object offset
    dead-letters the document."""

    schema = _int64s("version_minor", "n_objects", "len_sum", "xref_off")
    media_type = "application/pdf"

    @staticmethod
    def payload(i: int) -> bytes:
        """Deterministic REAL (minimal) PDF with closed forms —
        version minor id%4+3, n_objects = id%5+2, object k carries
        /Len (id*3+k)%100; a classic xref table with the 65535 free
        head, a /Size trailer and startxref -> %%EOF."""
        n = i % 5 + 2
        out = bytearray(f"%PDF-1.{i % 4 + 3}\n".encode())
        offs = []
        for k in range(n):
            offs.append(len(out))
            out += (f"{k + 1} 0 obj\n<< /Type /X{k} "
                    f"/Len {(i * 3 + k) % 100} >>\nendobj\n"
                    .encode())
        xref_off = len(out)
        out += f"xref\n0 {n + 1}\n".encode()
        out += b"0000000000 65535 f \n"
        for off in offs:
            out += f"{off:010d} 00000 n \n".encode()
        out += (f"trailer\n<< /Size {n + 1} /Root 1 0 R >>\n"
                f"startxref\n{xref_off}\n%%EOF\n".encode())
        return bytes(out)

    def _parse(self, p: bytes):
        if not p.startswith(b"%PDF-1."):
            return None
        minor = int(p[7:p.index(b"\n")].decode())
        tail = p[-256:]
        m = None
        for m in re.finditer(rb"startxref\s+(\d+)", tail):
            pass
        if m is None or b"%%EOF" not in tail:
            return None
        xref_off = int(m.group(1))
        if not p[xref_off:xref_off + 4] == b"xref":
            return None
        body = p[xref_off:].split(b"\n")
        head = body[1].split()
        first, count = int(head[0]), int(head[1])
        if first != 0 or count < 2:
            return None
        entries = body[2:2 + count]
        if len(entries) < count:
            return None
        if not entries[0].startswith(b"0000000000 65535 f"):
            return None
        n_objects, len_sum = 0, 0
        for k, e in enumerate(entries[1:], start=1):
            off = int(e[:10])
            if e[17:18] != b"n":
                return None
            if not p[off:].startswith(f"{k} 0 obj".encode()):
                return None
            end = p.find(b"endobj", off)
            if end < 0:
                return None
            obj = p[off:end]
            lm = re.search(rb"/Len (\d+)", obj)
            if lm is None:
                return None
            n_objects += 1
            len_sum += int(lm.group(1))
        return minor, n_objects, len_sum, xref_off
