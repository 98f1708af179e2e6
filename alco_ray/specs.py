"""Schema-as-data configuration (ALCO's LoggerIndex / LoggerColumn analog).

In the reference, which fields get parsed, dictionary-encoded, displayed
or excluded is *data* (Django model rows ``LoggerIndex``/``LoggerColumn``,
see SURVEY.md §1.1), not code.  This module keeps that property: a
pipeline is driven by a :class:`PipelineConfig` holding a list of
:class:`ColumnSpec` and :class:`LoggerSpec` rows, and the stages derive
the output columns and partition layout from it (one ``<col>_id``
column per :meth:`PipelineConfig.filtered_columns` entry, one ``sink``
partition per logger; SURVEY.md §2.1 S5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

# Canonical transcript input schema (BASELINE.json:15 input_hint).
TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

# Canonical level vocabulary (ALCO parses syslog-ish levels from the line;
# unmatched rows land in the UNKNOWN bucket so aggregate equality is total).
LEVELS = ("DEBUG", "INFO", "WARN", "ERROR")
UNKNOWN_LEVEL = "UNKNOWN"


@dataclass(frozen=True)
class ColumnSpec:
    """Per-column config row (ALCO ``LoggerColumn`` analog).

    source: "column" (already a physical column) or "regex" (extracted
        from ``text`` by the parse stage via the pattern registry).
    filtered: build a value->id dictionary and emit ``<name>_id`` int32
        (ALCO: redis-backed column-value dictionary).
    excluded: drop from the stored residual.
    context: participates in context-window lookups.
    pattern: named-group regex (or grok string) when source == "regex".
    """

    name: str
    source: str = "column"
    filtered: bool = False
    excluded: bool = False
    context: bool = False
    display: bool = True
    pattern: str | None = None


@dataclass(frozen=True)
class LoggerSpec:
    """A routed sink (ALCO ``LoggerIndex`` analog): one value of the
    routing key maps to one partitioned Parquet sink directory."""

    name: str
    route_values: tuple[str, ...]  # routing-key values that map here


@dataclass
class PipelineConfig:
    """Everything the flagship pipeline needs, as plain data."""

    route_key: str = "role"  # column whose value picks the sink
    columns: list[ColumnSpec] = field(default_factory=list)
    loggers: list[LoggerSpec] = field(default_factory=list)
    dead_letter: str = "_dead_letter"  # sink for unroutable rows
    bucket_minutes: int = 5  # interval-aggregate bucket width
    salt_buckets: int = 16  # salted-repartition fan for hot conv_ids

    def filtered_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.filtered]

    def regex_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.source == "regex"]

    def route_table(self) -> dict[str, str]:
        """route-key value -> sink name."""
        out: dict[str, str] = {}
        for lg in self.loggers:
            for v in lg.route_values:
                out[v] = lg.name
        return out


def default_transcript_config() -> PipelineConfig:
    """The flagship config over the transcript table (SURVEY.md §1.2)."""
    return PipelineConfig(
        route_key="role",
        columns=[
            ColumnSpec("role", filtered=True, context=True),
            ColumnSpec("tool", filtered=True),
            ColumnSpec("level", source="regex", filtered=True,
                       pattern=r"level=(?P<level>[A-Z]+)"),
            ColumnSpec("conv_id", context=True),
            ColumnSpec("text"),
        ],
        loggers=[
            LoggerSpec("sys", ("system",)),
            LoggerSpec("chat", ("user", "assistant")),
            LoggerSpec("tools", ("tool",)),
        ],
    )
