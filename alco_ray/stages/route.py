"""Router — ALCO's per-logger fan-out (SURVEY.md §2.1 S3, §2.4 J3).

The reference runs one collector per logger, each bulk-inserting into
its own date-sharded index.  Here routing is a *column*, not a process:
a vectorized map appends ``sink`` (logger name from the route table)
and ``date`` (day partition from the parsed event time), and the sink
writes one partition directory per (sink, date) — ALCO's per-logger
per-day RT shards re-expressed as partitioned Parquet.

Rows whose route-key value has no configured logger go to the
dead-letter sink (anti-join expressed as a broadcast ``pc.is_in``
mask — no shuffle).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..specs import PipelineConfig


def day_string(ts):
    """``YYYY-MM-DD`` of each timestamp (the ``date`` partition key and
    every other day-grain string key), nulls null.  Two casts — to
    date32 (floor to the day, in the zone's local time when the type
    has one), then to string — render the same text as a ``%Y-%m-%d``
    strftime at a fraction of its per-row cost."""
    return pc.cast(pc.cast(ts, pa.date32()), pa.string())


def make_route_batch(cfg: PipelineConfig):
    """Build the routing map_batches body (stateless; route table is a
    small dict shipped in the closure — the config is data, per §2.10)."""
    table = cfg.route_table()
    values = pa.array(list(table.keys()), pa.string())
    sinks = pa.array(list(table.values()), pa.string())
    dead = cfg.dead_letter
    route_key = cfg.route_key

    def route_batch(batch: pa.Table) -> pa.Table:
        key = batch[route_key]
        idx = pc.index_in(key, value_set=values)
        sink = pc.take(sinks, idx)  # null where unrouted
        sink = pc.coalesce(sink, pa.scalar(dead))
        date = day_string(batch["parsed_ts"])
        batch = batch.append_column("sink", sink)
        batch = batch.append_column("date", date)
        return batch

    return route_batch
