"""Parse stage — ALCO's collector-side message parsing, vectorized.

Covers SURVEY.md §2.2 P1 (datetime parse with arrival-time fallback),
P2 (level extraction + canonicalization), P3 (grok/regex field
extraction from the pattern registry), P4 (index-field tokenization),
P5/P8 (projection + normalizers), and derives the 5-minute aggregate
bucket.  Everything is ``pyarrow.compute`` over zero-copy Arrow columns
(BASELINE.json:6) — no Python per-row loops.

Parse semantics (shared bit-for-bit with alco_ray.oracle):
- level: first match of the configured level pattern, uppercased and
  canonicalized to LEVELS; no match or non-canonical value -> "UNKNOWN".
- parsed_ts: the embedded ``at=<ISO-8601>`` token parsed to
  timestamp[us]; rows whose token is absent or unparseable fall back to
  the arrival timestamp (the ``ts`` column), mirroring ALCO's
  fallback-to-arrival-time.  ``parse_ok`` is False only when a token was
  present but unparseable (the parse_failures metric).
- tokens: lowercase, split on runs of [^a-z0-9], empties dropped.
  ``n_tokens`` counts them without building them (:func:`count_tokens`).
- bucket: parsed_ts floored to the configured interval (default 5 min).

The per-row hot spots are whole-column kernels, not per-value
interpretation: the token count is a byte lookup table plus one
reduction over the string offsets (no regex), and the calendar check is
a plain timestamp -> string cast (no strftime).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..specs import LEVELS, UNKNOWN_LEVEL, PipelineConfig

# The embedded timestamp token the fixture/reference format emits.
TS_TOKEN_PATTERN = (
    r"at=(?P<dt>\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2})"
    r"(?:\.(?P<us>\d{1,6}))?Z"
)
# Marker used to detect that a (possibly malformed) token was present.
TS_MARKER_PATTERN = r"at=\S+"
TOKENIZE_SPLIT = r"[^a-z0-9]+"
# Complement of TOKENIZE_SPLIT: counting its matches == len(tokenize()).
TOKEN_PATTERN = r"[a-z0-9]+"
# TOKEN_PATTERN as a byte class: 1 for the bytes a token is made of.
_TOKEN_BYTE = np.zeros(256, dtype=np.int8)
_TOKEN_BYTE[np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789",
                          dtype=np.uint8)] = 1


def extract_regex_column(text: pa.ChunkedArray | pa.Array, pattern: str,
                         group: str) -> pa.Array:
    """One named group of ``pattern`` as a nullable string column."""
    st = pc.extract_regex(text, pattern)
    out = pc.struct_field(st, group)
    return pc.if_else(pc.is_valid(st), out, pa.scalar(None, pa.string()))


def parse_level(text, pattern: str = r"level=(?P<level>[A-Z]+)") -> pa.Array:
    """P2: canonical level or UNKNOWN (never null -> totals are total)."""
    raw = pc.utf8_upper(pc.coalesce(
        extract_regex_column(text, pattern, "level"), pa.scalar("")))
    in_set = pc.is_in(raw, value_set=pa.array(list(LEVELS)))
    return pc.if_else(in_set, raw, pa.scalar(UNKNOWN_LEVEL)).combine_chunks() \
        if isinstance(raw, pa.ChunkedArray) else pc.if_else(in_set, raw, pa.scalar(UNKNOWN_LEVEL))


def parse_embedded_ts(text) -> tuple[pa.Array, pa.Array]:
    """P1: (parsed timestamp[us] or null, token_present bool).

    Calendar validity: Arrow's strptime silently *normalizes*
    out-of-range dates (2024-02-30 -> 2024-03-01, 23:59:60 -> the next
    minute) where Python and DuckDB reject them; rendering the parsed
    instant back to text and comparing it with the token masks those
    to null, so engine and oracles agree that such tokens are parse
    failures.  Year 0000 is masked too (Python's datetime starts at
    year 1).  Null text is treated as no-token-present (not a
    failure)."""
    st = pc.extract_regex(text, TS_TOKEN_PATTERN)
    dt = pc.struct_field(st, "dt")
    us = pc.struct_field(st, "us")
    base = pc.strptime(dt, format="%Y-%m-%dT%H:%M:%S", unit="us",
                       error_is_null=True)
    # A plain cast renders "YYYY-MM-DD HH:MM:SS" (at seconds: at us it
    # would add a fraction), the token's form with a space for the T.
    roundtrip = pc.cast(pc.cast(base, pa.timestamp("s")), pa.string())
    same = pc.equal(roundtrip, pc.replace_substring(dt, "T", " ",
                                                    max_replacements=1))
    valid = pc.and_(same, pc.greater_equal(pc.year(base), 1))
    base = pc.if_else(pc.coalesce(valid, pa.scalar(False)),
                      base, pa.scalar(None, pa.timestamp("us")))
    frac = pc.cast(
        pc.utf8_rpad(pc.coalesce(us, pa.scalar("0")), 6, "0"), pa.int64())
    parsed = pc.add(base, pc.cast(pc.multiply(frac, 1), pa.duration("us")))
    parsed = pc.if_else(pc.is_valid(st), parsed, pa.scalar(None, pa.timestamp("us")))
    present = pc.coalesce(
        pc.match_substring_regex(text, TS_MARKER_PATTERN), pa.scalar(False))
    return parsed, present


def _contiguous(arr):
    return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr


def normalize_strings(arr):
    """P8 normalizer for filtered/route string columns: trim
    whitespace, map empty -> null.  Shared by the parse stage and the
    dictionary build so dictionaries hold exactly the values the
    encoder probes with."""
    cleaned = pc.utf8_trim_whitespace(arr)
    return pc.if_else(pc.equal(pc.coalesce(cleaned, pa.scalar("")), ""),
                      pa.scalar(None, pa.string()), cleaned)


def count_tokens(text):
    """P4 token count: ``len(tokenize(x))`` per row, as int32, nulls
    null, without materializing a token.

    Lowercases with ``utf8_lower`` (the tokenizer's own first step),
    then counts maximal runs of ``[a-z0-9]`` bytes: a 256-entry lookup
    table marks token bytes, a run starts at a token byte whose
    predecessor in the same row is not one, and one ``np.add.reduceat``
    over the string offsets sums the starts per row.  Exact on any
    UTF-8 text: every byte of a multi-byte character is >= 0x80, so
    no such byte is ever a token byte.  ``string`` and ``large_string``
    columns (Array or ChunkedArray) are accepted; anything else raises
    TypeError."""
    if isinstance(text, pa.ChunkedArray):
        return pa.chunked_array([count_tokens(c) for c in text.chunks],
                                pa.int32())
    if pa.types.is_string(text.type):
        off_type = np.int32
    elif pa.types.is_large_string(text.type):
        off_type = np.int64
    else:
        raise TypeError(f"count_tokens needs string text, got {text.type}")
    lowered = pc.utf8_lower(text)
    n = len(lowered)
    _, off_buf, data_buf = lowered.buffers()
    offsets = np.frombuffer(off_buf, dtype=off_type)[
        lowered.offset:lowered.offset + n + 1]
    lo, hi = int(offsets[0]), int(offsets[-1])
    token = _TOKEN_BYTE[np.frombuffer(data_buf, dtype=np.uint8)[lo:hi]]
    starts = token.copy()
    starts[1:] &= 1 - token[:-1]
    # A row's first byte starts a run whatever ends the row before it.
    first = offsets[:-1] - lo
    nonempty = offsets[1:] > offsets[:-1]
    starts[first[nonempty]] = token[first[nonempty]]
    counts = np.zeros(n, np.int32)
    if len(starts):
        counts[nonempty] = np.add.reduceat(starts, first[nonempty],
                                           dtype=np.int32)
    mask = lowered.is_null().to_numpy(zero_copy_only=False) \
        if lowered.null_count else None
    return pa.array(counts, pa.int32(), mask=mask)


def tokenize(text, nrows: int) -> pa.ListArray:
    """P4: deterministic index-field tokenization -> list<string>."""
    lowered = pc.utf8_lower(text)
    lst = pc.split_pattern_regex(lowered, TOKENIZE_SPLIT)
    if isinstance(lst, pa.ChunkedArray):
        lst = lst.combine_chunks()
    flat = pc.list_flatten(lst)
    parents = pc.list_parent_indices(lst)
    keep = pc.not_equal(flat, "")
    flat_kept = flat.filter(keep)
    parents_kept = parents.filter(keep)
    counts = np.bincount(parents_kept.to_numpy(zero_copy_only=False),
                         minlength=nrows)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int64()).cast(pa.int32()),
                                    flat_kept.combine_chunks()
                                    if isinstance(flat_kept, pa.ChunkedArray) else flat_kept)


def make_residual_js(cols: list[str]):
    """P5: the ``js`` residual — re-serialize the kept (non-excluded)
    string columns as a compact deterministic JSON object, nulls
    skipped.  ALCO stores the un-indexed remainder of each message as a
    ``js`` string attribute; key order here is the config's column
    order, values are JSON-escaped.  Fully vectorized (one
    binary_join_element_wise over pre-built fragments)."""

    def body(batch: pa.Table) -> pa.Table:
        frags = []
        for c in cols:
            v = pc.cast(batch[c], pa.string())
            # JSON string escaping: backslash, quote and the common
            # control characters.  (Exotic controls <0x20 would need a
            # regex pass; fields fed here are config/route values.)
            v = pc.replace_substring(v, "\\", "\\\\")
            v = pc.replace_substring(v, '"', '\\"')
            v = pc.replace_substring(v, "\n", "\\n")
            v = pc.replace_substring(v, "\r", "\\r")
            v = pc.replace_substring(v, "\t", "\\t")
            # Each fragment carries its own leading comma; null columns
            # collapse to "" so no separator artifacts can appear
            # inside values.
            frag = pc.binary_join_element_wise(
                pa.scalar(f',"{c}":"'), v, pa.scalar('"'), "")
            frags.append(pc.coalesce(frag, pa.scalar("")))
        inner = pc.binary_join_element_wise(*frags, "")
        inner = pc.utf8_ltrim(inner, ",")  # at most one leading comma
        js = pc.binary_join_element_wise(
            pa.scalar("{"), inner, pa.scalar("}"), "")
        return batch.append_column("js", js)

    return body


def make_parse_batch(cfg: PipelineConfig, only: set[str] | None = None):
    """Build the fused parse stage body for ``map_batches``.

    Returned callable is a plain function (stateless task stage); the
    pattern registry is compiled once here at pipeline-build time, then
    shipped in the closure (cheap: strings only).

    ``only`` prunes the DERIVED outputs computed (projection pushdown
    into the parse itself): a level-only consumer must not pay the kv
    regex passes, the timestamp parse and the token count — at sf0.1
    those are ~3/4 of parse wall time.  Values produced for a given
    name are identical to the full parse (same kernels).  None =
    everything (the flagship path)."""
    from ..functions.grok import compile_grok

    regex_cols = []
    for spec in cfg.regex_columns():
        pat = spec.pattern or ""
        if "%{" in pat:
            pat = compile_grok(pat)
        regex_cols.append((spec.name, pat))
    bucket_minutes = cfg.bucket_minutes

    def need(name: str) -> bool:
        return only is None or name in only

    def parse_batch(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n = batch.num_rows

        # P8 normalizers on the route key / filtered string columns
        # (same function the dictionary build applies — see
        # normalize_strings).
        for col in ("role", "tool"):
            if col in batch.column_names:
                batch = batch.set_column(batch.schema.get_field_index(col),
                                         col, normalize_strings(batch[col]))

        # P3: generic regex/grok registry (level is one of these specs).
        for name, pattern in regex_cols:
            if not need(name):
                continue
            if name == "level":
                batch = batch.append_column("level", parse_level(text, pattern))
            else:
                batch = batch.append_column(
                    name, extract_regex_column(text, pattern, name))
        if need("level") and "level" not in batch.column_names:
            batch = batch.append_column("level", parse_level(text))

        # P1: embedded datetime with arrival-time fallback.
        parsed_filled = None
        if need("parsed_ts") or need("parse_ok") or need("bucket"):
            parsed, present = parse_embedded_ts(text)
            ok = pc.or_(pc.invert(present), pc.is_valid(parsed))
            # Contiguous operands: pyarrow 16.1's coalesce over two
            # ChunkedArrays with different chunk layouts returns wrong
            # values after a length-1 chunk that is not the last one.
            parsed_filled = pc.coalesce(_contiguous(parsed),
                                        _contiguous(batch["ts"]))
            batch = batch.append_column("parsed_ts", parsed_filled)
            batch = batch.append_column("parse_ok", ok)

        # P4: token count from the same tokenizer contract, counted
        # over the lowered bytes (count_tokens) — building the full
        # list<string> array only to take its lengths would be the
        # single largest allocation in the hot path, and a regex match
        # count was the parse's costliest kernel.  The materialized
        # token stream (for index building / token_explode consumers)
        # stays available via :func:`tokenize`.
        if need("n_tokens"):
            batch = batch.append_column("n_tokens", count_tokens(text))

        # Aggregate bucket (event-time groupby key, not a runtime window).
        if need("bucket"):
            bucket = pc.floor_temporal(parsed_filled, multiple=bucket_minutes,
                                       unit="minute")
            batch = batch.append_column("bucket", bucket)
        return batch

    return parse_batch
