"""Seeded benchmark inputs and the answers they must produce.

The corpus comes from ``alco_ray.fixtures.generate_transcripts`` (Zipf
conversation lengths, two hot conversations at ~5 % of turns each,
~20 % rows without a level, ~2.5 % malformed timestamps) and is written
as equal Parquet shards; the program only ever sees those files.

Expected answers come from ``alco_ray.oracle`` (an independent
row-loop implementation of parse -> enrich -> route) and from DuckDB
over the oracle's parsed rows, so a shared bug would have to exist
twice to pass unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from alco_ray import fixtures
from alco_ray.oracle import oracle_run_table

# The fixture scales (sf0.01, sf0.1) average ~30 turns per conversation.
TURNS_PER_CONV = 30


@dataclass(frozen=True)
class Scale:
    # 96k turns: every ingest plans one IngestWorker actor (see
    # ``generate``), and a run of either workload takes under two minutes.
    shards: int = 64
    turns_per_shard: int = 1500

    @property
    def base_shards(self) -> int:
        """Shards committed before the appends start (48 of 64)."""
        return self.shards * 3 // 4


def generate(seed: int, scale: Scale) -> pa.Table:
    """Exactly ``shards * turns_per_shard`` turns (the generator's two hot
    conversations overshoot its target; the tail is cut off), so that
    every ingest stays under run_flagship's 100k-row threshold for a
    second IngestWorker actor.  See ``session`` for why."""
    turns = scale.shards * scale.turns_per_shard
    table = fixtures.generate_transcripts(max(4, turns // TURNS_PER_CONV),
                                          turns, seed=seed)
    return table.slice(0, turns)


def shard_rows(n_rows: int, shards: int) -> int:
    return -(-n_rows // shards)


def shard_name(i: int) -> str:
    return f"part-{i:05d}.parquet"


def write_shards(table: pa.Table, shards: int, dest: Path,
                 indices: range) -> list[Path]:
    """Write shards ``indices`` of ``table`` (equal row slices, in
    order) into ``dest``."""
    dest.mkdir(parents=True, exist_ok=True)
    per = shard_rows(table.num_rows, shards)
    paths = []
    for i in indices:
        p = dest / shard_name(i)
        pq.write_table(table.slice(i * per, per), p)
        paths.append(p)
    return paths


def canonical(table: pa.Table, sort: bool = True) -> pa.Table:
    """``table`` with positional column names, timestamps as int64
    microseconds, integers as int64 and strings decoded and plain, sorted
    by every column unless ``sort`` is false; results of different
    physical types then compare by value with ``equals``."""
    cols = []
    for col in table.columns:
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us")).cast(pa.int64())
        elif pa.types.is_integer(col.type):
            col = col.cast(pa.int64())
        elif pa.types.is_large_string(col.type):
            col = col.cast(pa.string())
        cols.append(col)
    names = [f"c{i}" for i in range(len(cols))]
    out = pa.Table.from_arrays(cols, names=names)
    return out.sort_by([(n, "ascending") for n in names]) if sort else out


class Expected:
    """Oracle answers for a corpus, per shard subset (ingest) and for
    the whole corpus (queries)."""

    def __init__(self, table: pa.Table, shards: int):
        df = oracle_run_table(table)["parsed"]
        df["shard"] = np.arange(len(df)) // shard_rows(len(df), shards)
        self.df = df[["conv_id", "turn_idx", "text", "ts", "level",
                      "parse_ok", "bucket", "sink", "shard"]]
        self._queries: dict[str, pa.Table] | None = None

    def shard_turns(self, i: int) -> int:
        return int((self.df["shard"] == i).sum())

    def ingest(self, shards) -> dict:
        """What a tree holding exactly ``shards`` must report."""
        d = self.df[self.df["shard"].isin(list(shards))]
        interval = (d.groupby(["sink", "level", "bucket"]).size()
                    .reset_index(name="cnt"))
        return {
            "rows": len(d),
            "parse_failures": int((~d["parse_ok"]).sum()),
            "routed_counts": {str(k): int(v)
                              for k, v in d.groupby("sink").size().items()},
            "interval": canonical(pa.Table.from_pandas(
                interval, preserve_index=False)),
        }

    def queries(self) -> dict[str, pa.Table]:
        """Expected result of each query in the mix (DuckDB over the
        oracle's parsed rows), in ``canonical`` form."""
        if self._queries is None:
            sql = {
                "aggregate.interval_counts":
                    "SELECT sink, level, bucket, COUNT(*) AS cnt FROM df "
                    "GROUP BY ALL ORDER BY ALL",
                "order.stable_order":
                    "SELECT conv_id, turn_idx, text FROM df "
                    "ORDER BY conv_id, turn_idx",
                "window.rolling_count":
                    "SELECT conv_id, turn_idx, CAST(SUM(CASE WHEN "
                    "level = 'ERROR' THEN 1 ELSE 0 END) OVER (PARTITION BY "
                    "conv_id ORDER BY turn_idx ROWS BETWEEN 2 PRECEDING AND "
                    "2 FOLLOWING) AS BIGINT) AS w_count FROM df "
                    "ORDER BY conv_id, turn_idx",
                "order.per_conv_turn_stats":
                    "SELECT conv_id, COUNT(*) AS n_turns, MIN(ts) AS min_ts, "
                    "MAX(ts) AS max_ts FROM df GROUP BY conv_id "
                    "ORDER BY conv_id",
            }
            con = duckdb.connect()
            try:
                con.register("df", self.df)
                self._queries = {name: canonical(con.sql(q).arrow())
                                 for name, q in sql.items()}
            finally:
                con.close()
        return self._queries
