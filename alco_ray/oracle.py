"""Single-process oracle — independent reference semantics (SURVEY.md §5.2).

Implements the same parse -> enrich -> route -> aggregate semantics as
the Ray pipeline, but deliberately through a *different* code path:
Python ``re`` + row loops + pandas, no pyarrow.compute, no Ray.  pytest
asserts bit-for-bit equality of per-sink counts, routed-row sets,
dictionary tables and per-turn text under stable (conv_id, turn_idx)
order (BASELINE.json:14).  A shared bug would have to be implemented
twice, differently, to slip through.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta

import pandas as pd
import pyarrow as pa

from .specs import LEVELS, UNKNOWN_LEVEL, PipelineConfig, default_transcript_config

_LEVEL_RE = re.compile(r"level=([A-Z]+)")
_TS_RE = re.compile(r"at=(\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2})(?:\.(\d{1,6}))?Z")
_TS_MARK = re.compile(r"at=\S+")
_TOK_RE = re.compile(r"[a-z0-9]+")


def oracle_normalize(v):
    """P8: trim whitespace, empty/None -> None (mirrors
    stages.parse.normalize_strings, independently implemented)."""
    if v is None or (isinstance(v, float) and pd.isna(v)):
        return None
    v = str(v).strip()
    return v or None


def oracle_parse_row(text: str | None, arrival_ts: datetime):
    """(level, parsed_ts, parse_ok, tokens) for one row."""
    text = text or ""
    m = _LEVEL_RE.search(text)
    level = m.group(1).upper() if m else None
    if level not in LEVELS:
        level = UNKNOWN_LEVEL

    tm = _TS_RE.search(text)
    present = bool(_TS_MARK.search(text))
    parsed, ok = None, True
    if tm:
        try:
            parsed = datetime.strptime(tm.group(1), "%Y-%m-%dT%H:%M:%S")
            frac = tm.group(2)
            if frac:
                parsed += timedelta(microseconds=int(frac.ljust(6, "0")))
        except ValueError:
            parsed = None
    if present and parsed is None:
        ok = False
    if parsed is None:
        parsed = arrival_ts

    tokens = _TOK_RE.findall(text.lower())
    return level, parsed, ok, tokens


def oracle_run(df: pd.DataFrame, cfg: PipelineConfig | None = None) -> dict:
    """Full single-threaded pipeline over a transcripts DataFrame.

    Returns dict with: parsed (DataFrame incl. level/parsed_ts/parse_ok/
    n_tokens/bucket/sink/date + <col>_id), dicts, routed_counts,
    parse_failures, interval_counts (DataFrame sink/level/bucket/cnt),
    ordered (DataFrame sorted by (conv_id, turn_idx)).
    """
    cfg = cfg or default_transcript_config()
    df = df.copy().reset_index(drop=True)

    # P8 normalization of route/filtered string columns.
    for col in ("role", "tool"):
        if col in df.columns:
            df[col] = df[col].map(oracle_normalize)

    levels, parsed_list, oks, ntoks = [], [], [], []
    for text, ts in zip(df["text"], df["ts"]):
        level, parsed, ok, tokens = oracle_parse_row(text, ts.to_pydatetime())
        levels.append(level)
        parsed_list.append(parsed)
        oks.append(ok)
        # a null text has no token count (SQL: len(regexp_extract_all(
        # NULL, ...)) is NULL), an empty one has 0
        ntoks.append(None if pd.isna(text) else len(tokens))
    df["level"] = levels
    df["parsed_ts"] = pd.to_datetime(parsed_list)
    df["parse_ok"] = oks
    df["n_tokens"] = pd.array(ntoks, dtype="Int32")

    # 5-minute bucket
    df["bucket"] = df["parsed_ts"].dt.floor(f"{cfg.bucket_minutes}min")

    # dictionaries: sorted-distinct ids (level dict = static canonical set)
    dicts: dict[str, dict[str, int]] = {}
    for col in cfg.filtered_columns():
        if col == "level":
            vals = sorted([*LEVELS, UNKNOWN_LEVEL])
        else:
            vals = sorted(v for v in df[col].dropna().unique())
        dicts[col] = {v: i for i, v in enumerate(vals)}
        df[f"{col}_id"] = df[col].map(dicts[col]).astype("Int32")

    # routing
    route = cfg.route_table()
    df["sink"] = df[cfg.route_key].map(lambda v: route.get(v, cfg.dead_letter))
    df["date"] = df["parsed_ts"].dt.strftime("%Y-%m-%d")

    routed_counts = df.groupby("sink").size().to_dict()
    parse_failures = int((~df["parse_ok"]).sum())
    interval = (df.groupby(["sink", "level", "bucket"]).size()
                .reset_index(name="cnt"))
    ordered = df.sort_values(["conv_id", "turn_idx"], kind="mergesort"
                             ).reset_index(drop=True)
    return {
        "parsed": df,
        "dicts": dicts,
        "routed_counts": {str(k): int(v) for k, v in routed_counts.items()},
        "parse_failures": parse_failures,
        "interval_counts": interval,
        "ordered": ordered,
    }


def oracle_run_table(table: pa.Table, cfg: PipelineConfig | None = None) -> dict:
    return oracle_run(table.to_pandas(), cfg)
