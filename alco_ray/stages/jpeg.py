"""Baseline JPEG (ITU-T T.81 sequential DCT) — REAL codec-free decode.

The last compressed format on the multimodal roadmap implementable
from the published spec with stdlib + numpy alone: entropy decoding is
canonical Huffman (tables carried in-stream by DHT, exactly as the
spec's Annex C derives them from BITS/HUFFVAL), so no codec library is
required — unlike formats whose entropy coders are only practically
available as libraries (MP3/MP4/H.264).

Scope (enough for a real interchange-format decoder, held narrow on
purpose):

* baseline sequential DCT (SOF0), 8-bit samples;
* 1 or 3 components, no chroma subsampling (all sampling factors 1x1 —
  the fixture encoder below emits 4:4:4);
* one interleaved scan; restart markers rejected, not parsed.

Exact-integer reconstruction contract (what makes the decode
oracle-checkable): the spec leaves IDCT precision to implementations,
so bit-exact agreement between two independent decoders requires
pinning one arithmetic.  Both this decoder and the INDEPENDENT naive
reference in ``alco_ray.fixtures`` implement:

* IDCT:  pixel(y,x) = ((sum_{u,v} F[u][v] * M[u][y] * M[v][x]
                        + 2^29) >> 30) + 128, clamped to [0, 255]
  (F in natural zigzag layout: row index u = VERTICAL frequency),
  with M[u][x] = round((alpha(u)/2) * cos((2x+1) u pi / 16) * 2^15)
  (the shared constant table ``IDCT_M`` below — spec constants, like
  the ADPCM step table) and ``>>`` the arithmetic (floor) shift;
* YCbCr->RGB (JFIF):  with cb = Cb-128, cr = Cr-128 and
  fx(v) = (v + 32768) >> 16:
  R = Y + fx(91881 cr); G = Y - fx(22554 cb + 46802 cr);
  B = Y + fx(116130 cb); each clamped to [0, 255].

Accumulators: |F| <= 255 * 8 * 64 after dequant in practice, and the
64-term IDCT sum stays far under 2^62 — int64 is safe.

The fixture ENCODER is a real two-pass baseline encoder (float DCT +
round-to-nearest quantization — encoder-private, so float is fine;
per-image canonical Huffman tables with a fixed code length, a legal
if suboptimal choice that any conforming decoder accepts), so the
bitstream genuinely exercises marker parsing, DHT reconstruction,
bit-unstuffing, RLE/EOB and the extend rule.
"""

from __future__ import annotations

import struct

import numpy as np

from .multimodal import RGB_MEANS, MediaParser, rgb_means_row

# ----------------------------------------------------------- constants

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    np.int64)

#: M[u][x] = round((alpha(u)/2) * cos((2x+1) u pi / 16) * 2^15) —
#: the pinned IDCT constants shared with the reference decoder.
_u = np.arange(8).reshape(8, 1)
_x = np.arange(8).reshape(1, 8)
_alpha = np.where(_u == 0, 1.0 / np.sqrt(2.0), 1.0)
IDCT_M = np.round((_alpha / 2.0)
                  * np.cos((2 * _x + 1) * _u * np.pi / 16.0)
                  * (1 << 15)).astype(np.int64)
del _u, _x, _alpha

#: fixture quantization tables (modest, flat-ish — quality is
#: irrelevant to correctness; low values keep AC symbols plentiful)
QT_LUMA = np.full(64, 16, np.int64)
QT_CHROMA = np.full(64, 24, np.int64)


def idct_block(coeff_zz: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """Dequantize a zigzag coefficient vector and apply the pinned
    integer IDCT; returns an (8, 8) uint8 sample block."""
    F = np.zeros(64, np.int64)
    F[ZIGZAG] = coeff_zz * qt
    F = F.reshape(8, 8)
    # acc[x, y] = sum_{u,v} F[u,v] M[u,x] M[v,y]  (two int64 matmuls)
    acc = IDCT_M.T @ F @ IDCT_M
    return np.clip(((acc + (1 << 29)) >> 30) + 128, 0, 255) \
        .astype(np.uint8)


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray):
    """Pinned integer JFIF conversion; int64 in, three uint8 planes."""
    cb = cb.astype(np.int64) - 128
    cr = cr.astype(np.int64) - 128
    y = y.astype(np.int64)
    r = y + ((91881 * cr + 32768) >> 16)
    g = y - ((22554 * cb + 46802 * cr + 32768) >> 16)
    b = y + ((116130 * cb + 32768) >> 16)
    return tuple(np.clip(p, 0, 255).astype(np.uint8) for p in (r, g, b))


# ------------------------------------------------------------- encoder

def _extend_bits(v: int):
    """JPEG magnitude coding: (size, raw bits) for a nonzero value;
    negatives store value + 2^size - 1 (spec F.1.2.1)."""
    size = int(abs(v)).bit_length()
    return size, (v if v >= 0 else v + (1 << size) - 1)


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            byte = (self.acc >> self.nbits) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:          # byte stuffing
                self.out.append(0x00)

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # 1-bit padding per spec
        return bytes(self.out)


def _fixed_length_table(symbols: list[int]):
    """A legal canonical Huffman table where every symbol gets the same
    code length L = ceil(log2(n)) (Kraft sum n * 2^-L <= 1): BITS has
    one nonzero entry, HUFFVAL is the sorted symbol list, and the
    canonical code of symbol i is simply i.  Suboptimal compression,
    fully conforming bitstream."""
    syms = sorted(set(symbols))
    L = max(1, (len(syms) - 1).bit_length()) if len(syms) > 1 else 1
    bits = [0] * 17
    bits[L] = len(syms)
    code = {s: (i, L) for i, s in enumerate(syms)}
    return bits, syms, code


def _fdct_quant(block: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """Float forward DCT + round-to-nearest quantization (encoder-
    private arithmetic); both the output and ``qt`` are zigzag order."""
    b = block.astype(np.float64) - 128.0
    u = np.arange(8).reshape(8, 1)
    x = np.arange(8).reshape(1, 8)
    C = np.cos((2 * x + 1) * u * np.pi / 16.0) \
        * np.where(u == 0, 1.0 / np.sqrt(2.0), 1.0) / 2.0
    F = C @ b @ C.T
    return np.round(F.flatten()[ZIGZAG] / qt).astype(np.int64)


def _block_symbols(zz: np.ndarray, dc_pred: int):
    """(dc_symbol, dc_bits), [(ac_symbol, ac_bits), ...] for one block
    — RLE with ZRL (0xF0) and EOB (0x00) per spec F.2."""
    size, bits = _extend_bits(int(zz[0]) - dc_pred)
    dc = (size, bits)
    ac = []
    run = 0
    last_nz = int(np.flatnonzero(zz[1:]).max()) + 1 if zz[1:].any() else 0
    for k in range(1, last_nz + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            ac.append((0xF0, (0, 0)))
            run -= 16
        s, b = _extend_bits(v)
        ac.append(((run << 4) | s, (s, b)))
        run = 0
    if last_nz < 63:
        ac.append((0x00, (0, 0)))
    return dc, ac


def encode_baseline_jpeg(rgb: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 array (h, w multiples of 8) as a
    baseline 4:4:4 JFIF-style JPEG with per-image fixed-length
    canonical Huffman tables.  Two passes: collect symbols, then emit."""
    h, w, _ = rgb.shape
    if h % 8 or w % 8:
        raise ValueError("encode_baseline_jpeg: dims must be 8-aligned")
    # encoder-private float RGB->YCbCr (JFIF)
    r, g, b = (rgb[..., i].astype(np.float64) for i in range(3))
    y = np.clip(np.round(0.299 * r + 0.587 * g + 0.114 * b),
                0, 255).astype(np.int64)
    cb = np.clip(np.round(-0.168736 * r - 0.331264 * g + 0.5 * b + 128),
                 0, 255).astype(np.int64)
    cr = np.clip(np.round(0.5 * r - 0.418688 * g - 0.081312 * b + 128),
                 0, 255).astype(np.int64)
    planes = [(y, QT_LUMA), (cb, QT_CHROMA), (cr, QT_CHROMA)]

    # pass 1: per-block quantized coefficients + symbol statistics
    coeffs = [[], [], []]
    dc_syms = [[], []]
    ac_syms = [[], []]
    dc_pred = [0, 0, 0]
    for by in range(0, h, 8):
        for bx in range(0, w, 8):
            for ci, (plane, qt) in enumerate(planes):
                zz = _fdct_quant(plane[by:by + 8, bx:bx + 8], qt)
                coeffs[ci].append(zz)
                t = 0 if ci == 0 else 1
                dc, ac = _block_symbols(zz, dc_pred[ci])
                dc_pred[ci] = int(zz[0])
                dc_syms[t].append(dc[0])
                ac_syms[t].extend(s for s, _ in ac)
    tables = {}
    for t in (0, 1):
        tables[(0, t)] = _fixed_length_table(dc_syms[t] or [0])
        tables[(1, t)] = _fixed_length_table(ac_syms[t] or [0])

    # pass 2: entropy-coded segment
    bw = _BitWriter()
    dc_pred = [0, 0, 0]
    nblocks = (h // 8) * (w // 8)
    for mcu in range(nblocks):
        for ci in range(3):
            t = 0 if ci == 0 else 1
            zz = coeffs[ci][mcu]
            dc, ac = _block_symbols(zz, dc_pred[ci])
            dc_pred[ci] = int(zz[0])
            code, L = tables[(0, t)][2][dc[0]]
            bw.write(code, L)
            if dc[0]:
                bw.write(dc[1], dc[0])
            for sym, (s, bits) in ac:
                code, L = tables[(1, t)][2][sym]
                bw.write(code, L)
                if s:
                    bw.write(bits, s)
    scan = bw.flush()

    def seg(marker: int, payload: bytes) -> bytes:
        return struct.pack(">HH", marker, len(payload) + 2) + payload

    out = [b"\xFF\xD8"]                                   # SOI
    for tid, qt in ((0, QT_LUMA), (1, QT_CHROMA)):        # DQT
        out.append(seg(0xFFDB,                            # qt in zigzag
                       bytes([tid]) + bytes(int(v) for v in qt)))
    sof = struct.pack(">BHHB", 8, h, w, 3)
    for cid, tq in ((1, 0), (2, 1), (3, 1)):
        sof += struct.pack(">BBB", cid, 0x11, tq)         # 1x1 sampling
    out.append(seg(0xFFC0, sof))                          # SOF0
    for (cls, tid), (bits, syms, _) in sorted(tables.items()):
        out.append(seg(0xFFC4, bytes([(cls << 4) | tid])
                       + bytes(bits[1:17]) + bytes(syms)))  # DHT
    sos = struct.pack(">B", 3)
    for cid, t in ((1, 0), (2, 1), (3, 1)):
        sos += struct.pack(">BB", cid, (t << 4) | t)
    sos += b"\x00\x3F\x00"
    out.append(seg(0xFFDA, sos))                          # SOS
    out.append(scan)
    out.append(b"\xFF\xD9")                               # EOI
    return b"".join(out)


# ------------------------------------------------------------- decoder

class _BitReader:
    """MSB-first reader over the entropy-coded segment with 0xFF00
    unstuffing; raises IndexError past the end (a dead-letter row)."""

    def __init__(self, data: bytes):
        self.d = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def _fill(self):
        b = self.d[self.pos]
        self.pos += 1
        if b == 0xFF:
            nxt = self.d[self.pos]
            if nxt != 0x00:
                raise ValueError("marker inside entropy segment")
            self.pos += 1
        self.acc = (self.acc << 8) | b
        self.nbits += 8

    def bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v


class _Huffman:
    """Canonical table from DHT BITS/HUFFVAL (spec Annex C): for each
    length, first-code/last-code bounds + symbol offset — decode walks
    lengths, one compare per extra bit."""

    def __init__(self, bits: list[int], huffval: bytes):
        self.min_code = [0] * 17
        self.max_code = [-1] * 17
        self.val_ptr = [0] * 17
        self.huffval = huffval
        code = 0
        k = 0
        for ln in range(1, 17):
            self.val_ptr[ln] = k
            self.min_code[ln] = code
            code += bits[ln - 1]
            k += bits[ln - 1]
            self.max_code[ln] = code - 1
            code <<= 1
        if k != len(huffval):
            raise ValueError("DHT: BITS/HUFFVAL length mismatch")

    def decode(self, br: _BitReader) -> int:
        code = 0
        for ln in range(1, 17):
            code = (code << 1) | br.bit()
            if self.max_code[ln] >= 0 and code <= self.max_code[ln] \
                    and code >= self.min_code[ln]:
                return self.huffval[self.val_ptr[ln]
                                    + code - self.min_code[ln]]
        raise ValueError("invalid Huffman code")


def _extend(bits_val: int, size: int) -> int:
    if size == 0:
        return 0
    return bits_val if bits_val >= (1 << (size - 1)) \
        else bits_val - (1 << size) + 1


def decode_baseline_jpeg(p: bytes):
    """Decode a baseline JPEG within the module-docstring scope;
    returns (w, h, (h, w, 3) uint8 RGB) or raises on any malformation
    (ValueError for what the parser rejects by name; a truncated or
    corrupt stream may also surface as IndexError/OverflowError — the
    stage dead-letters every one).  Spec: ITU-T T.81 sections B
    (syntax), C (Huffman), F.2 (decoding)."""
    if len(p) < 4 or p[:2] != b"\xFF\xD8":
        raise ValueError("not a JPEG (no SOI)")
    pos = 2
    qts: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _Huffman] = {}
    sof = None
    while pos + 4 <= len(p):
        if p[pos] != 0xFF:
            raise ValueError("bad marker alignment")
        marker = p[pos + 1]
        if marker == 0xD9:
            raise ValueError("EOI before SOS")
        (ln,) = struct.unpack(">H", p[pos + 2:pos + 4])
        seg = p[pos + 4:pos + 2 + ln]
        if len(seg) != ln - 2:
            raise ValueError("truncated segment")
        pos += 2 + ln
        if marker == 0xDB:                                   # DQT
            while seg:
                pq, tq = seg[0] >> 4, seg[0] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant table unsupported")
                qts[tq] = np.frombuffer(
                    seg[1:65], np.uint8).astype(np.int64)
                seg = seg[65:]
        elif marker == 0xC4:                                 # DHT
            while seg:
                cls, tid = seg[0] >> 4, seg[0] & 0xF
                bits = list(seg[1:17])
                n = sum(bits)
                huff[(cls, tid)] = _Huffman(bits, seg[17:17 + n])
                seg = seg[17 + n:]
        elif marker == 0xC0:                                 # SOF0
            prec, h, w, nc = struct.unpack(">BHHB", seg[:6])
            if prec != 8 or nc not in (1, 3):
                raise ValueError("unsupported SOF0 shape")
            comps = []
            for i in range(nc):
                cid, samp, tq = seg[6 + 3 * i:9 + 3 * i]
                if samp != 0x11:
                    raise ValueError("subsampling unsupported")
                comps.append((cid, tq))
            sof = (w, h, comps)
        elif marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("non-baseline SOF unsupported")
        elif marker == 0xDD:
            raise ValueError("restart intervals unsupported")
        elif marker == 0xDA:                                 # SOS
            if sof is None:
                raise ValueError("SOS before SOF0")
            ns = seg[0]
            w, h, comps = sof
            if ns != len(comps):
                raise ValueError("scan/frame component mismatch")
            tables = []
            for i in range(ns):
                cid, tt = seg[1 + 2 * i], seg[2 + 2 * i]
                if cid != comps[i][0]:
                    raise ValueError("scan component order mismatch")
                tables.append((tt >> 4, tt & 0xF))
            return _decode_scan(p[pos:], w, h, comps, tables, qts, huff)
        # other segments (APPn, COM) skipped
    raise ValueError("no SOS marker")


def _decode_scan(data: bytes, w: int, h: int, comps, tables, qts, huff):
    if w % 8 or h % 8 or w == 0 or h == 0:
        raise ValueError("dims must be 8-aligned in this scope")
    nc = len(comps)
    br = _BitReader(data)
    planes = [np.zeros((h, w), np.uint8) for _ in range(nc)]
    dc_pred = [0] * nc
    for by in range(0, h, 8):
        for bx in range(0, w, 8):
            for ci in range(nc):
                dct, act = tables[ci]
                if (0, dct) not in huff or (1, act) not in huff \
                        or comps[ci][1] not in qts:
                    raise ValueError("missing table")
                zz = np.zeros(64, np.int64)
                s = huff[(0, dct)].decode(br)
                dc_pred[ci] += _extend(br.bits(s), s)
                zz[0] = dc_pred[ci]
                k = 1
                while k < 64:
                    sym = huff[(1, act)].decode(br)
                    if sym == 0x00:
                        break
                    run, size = sym >> 4, sym & 0xF
                    if size == 0:
                        if run != 15:
                            raise ValueError("bad AC symbol")
                        k += 16
                        continue
                    k += run
                    if k > 63:
                        raise ValueError("AC coefficient overflow")
                    zz[k] = _extend(br.bits(size), size)
                    k += 1
                planes[ci][by:by + 8, bx:bx + 8] = \
                    idct_block(zz, qts[comps[ci][1]])
    if nc == 1:
        rgb = np.repeat(planes[0][..., None], 3, axis=2)
    else:
        r, g, b = ycbcr_to_rgb(*planes)
        rgb = np.stack([r, g, b], axis=2)
    return w, h, rgb


# ----------------------------------------------------- fixture + stage

def jpeg_fixture_image(doc_id: int) -> np.ndarray:
    """Deterministic per-id RGB test image (8-aligned dims, seeded
    smooth gradient + noise so AC coefficients are plentiful)."""
    i = int(doc_id)
    w = (i % 3 + 1) * 8
    h = (i % 2 + 1) * 8
    yy, xx = np.mgrid[0:h, 0:w]
    rng = np.random.RandomState(7000 + i % (2 ** 31 - 7000))
    base = np.stack([
        (xx * 9 + i) % 256,
        (yy * 13 + 2 * i) % 256,
        (xx * 5 + yy * 7 + 3 * i) % 256], axis=2)
    return np.clip(base + rng.randint(-16, 17, (h, w, 3)),
                   0, 255).astype(np.uint8)


class JpegDecoder(MediaParser):
    """Actor-pool REAL baseline-JPEG decode: full marker parse, DHT
    canonical-Huffman reconstruction, bit-unstuffed entropy decode,
    dequant + pinned integer IDCT + pinned YCbCr->RGB, exact integer
    channel means out.  Malformed payloads emit ``decode_ok = false``
    rows (the poison-file dead-letter pattern)."""

    schema = RGB_MEANS
    media_type = "image/jpeg"

    @staticmethod
    def payload(i: int) -> bytes:
        """REAL baseline-JPEG payload of :func:`jpeg_fixture_image`."""
        return encode_baseline_jpeg(jpeg_fixture_image(i))

    def _parse(self, p: bytes):
        return rgb_means_row(*decode_baseline_jpeg(p))
