"""Aggregates — ALCO's count/interval queries (SURVEY.md §2.5).

A1 interval counts (logger/level/5-min bucket), A2 per-sink routed
counts + parse failures, A3 global distinct, A5 min/max ts per sink.
All exact (the reference has no sketches; BASELINE.json:14 demands
bit-for-bit equality): int64 counts, timestamp[us] buckets, UTC.

Scale note: every groupby here is preceded by an explicit **map-side
partial aggregate** inside ``map_batches`` (pa.Table.group_by per
block), so the all-to-all exchange moves one row per distinct key per
block — not one row per input row.  At 10^12 turns with ~10 sinks x 5
levels x bounded bucket count this makes the shuffle negligible.

The package makes two decisions here and nowhere else:

- :func:`to_fixed` is the fixed-point rule (money in cents, rates in
  1e-4 units): scale, round half away from zero, int64.
  :func:`half_away` is the same rounding for kernels that work in
  NumPy.
- A partial aggregate is stated once, as keys plus named aggregates
  ``{out: (column or [], op)}``.  :func:`partial_agg` builds the
  per-block step from it, and :func:`merge_aggs` derives how each
  output merges across blocks: :func:`fold_agg` folds bounded keys on
  the driver (:func:`merge_partials`), :func:`shuffle_agg` merges
  unbounded keys with a Ray hash ``groupby``, and keyed folds
  (``window.keyed_apply``) take :func:`partials` as their input.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

#: How a per-block aggregate merges across blocks: counts and sums add
#: up, extrema keep theirs.  An aggregate without an entry (mean,
#: distinct count, list) cannot be merged from partials.
_MERGE_OPS = {"count_all": "sum", "sum": "sum", "min": "min", "max": "max"}

#: Fixed-point scale of the discrete quantiles: money in cents.
DISC_SCALE = 100

#: :func:`order_stats_cont`: equal-width cells per refinement pass, the
#: bracket population small enough to collect and select on the
#: driver, and the most passes before it gives up.
N_BUCKETS = 4096
COLLECT_LIMIT = 1 << 18
MAX_PASSES = 64


def to_fixed(x, scale: int = 1):
    """``x`` x ``scale`` rounded half away from zero, as int64 — the
    one fixed-point rule for exact integer money (cents at 100,
    four-decimal units at 10,000).  Nulls stay null."""
    import pyarrow.compute as pc

    if scale != 1:
        x = pc.multiply(x, scale)
    return pc.cast(pc.round(x, round_mode="half_towards_infinity"),
                   pa.int64())


def half_away(x: np.ndarray) -> np.ndarray:
    """The NumPy kernels' half-away-from-zero rounding of ``x`` (float
    out; the caller casts).  Not :func:`to_fixed`: ``pc.round`` rounds
    +-0.49999999999999994 to 0, while here ``|x| + 0.5`` rounds up to
    1.0 first — the rule these kernels' oracles pin."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def partial_agg(keys: list[str], aggs: dict[str, tuple], project=None):
    """The per-block partial aggregate: ``project(block)`` (the block
    itself by default) grouped by ``keys``, with one output column per
    ``aggs`` entry ``name: (column or [], op)``, keys first."""
    specs = [(col, op) for col, op in aggs.values()]
    names = list(keys) + list(aggs)

    def partial(b: pa.Table) -> pa.Table:
        t = b if project is None else project(b)
        return t.group_by(keys).aggregate(specs).rename_columns(names)

    return partial


def merge_aggs(aggs: dict[str, tuple]) -> list[tuple[str, str]]:
    """``(name, merge op)`` per output of :func:`partial_agg`."""
    return [(name, _MERGE_OPS[op]) for name, (_, op) in aggs.items()]


def partials(ds, keys: list[str], aggs: dict[str, tuple], project=None,
             **map_kw):
    """``ds`` reduced to one :func:`partial_agg` table per block."""
    return ds.map_batches(partial_agg(keys, aggs, project),
                          batch_format="pyarrow", **map_kw)


def fold_agg(ds, keys: list[str], aggs: dict[str, tuple], project=None,
             empty_schema: pa.Schema | None = None, **map_kw) -> pa.Table:
    """Bounded-key aggregate: :func:`partials`, then the driver fold
    (:func:`fold_partials`); ``empty_schema`` is the partial's."""
    return fold_partials(partials(ds, keys, aggs, project, **map_kw),
                         keys, merge_aggs(aggs), empty_schema)


def shuffle_agg(ds, keys: list[str], aggs: dict[str, tuple], project=None,
                **map_kw):
    """Unbounded-key aggregate: :func:`partials`, merged by a Ray hash
    ``groupby`` on ``keys`` (a Dataset, one row per key)."""
    from ray.data.aggregate import Max, Min, Sum

    ray_ops = {"sum": Sum, "min": Min, "max": Max}
    return (partials(ds, keys, aggs, project, **map_kw)
            .groupby(keys[0] if len(keys) == 1 else keys)
            .aggregate(*[ray_ops[op](name, alias_name=name)
                         for name, op in merge_aggs(aggs)]))


def concat_nonempty(parts: list[pa.Table]) -> pa.Table:
    """Concat block tables, tolerating Ray's schema-less empty blocks
    (a fully-filtered block can surface as a zero-column table that
    would fail ``pa.concat_tables`` schema unification)."""
    ts = [t for t in parts if t.num_rows]
    if ts:
        return pa.concat_tables(ts)
    with_schema = [t for t in parts if t.num_columns]
    return with_schema[0] if with_schema else pa.table({})


def _block_to_arrow(block) -> pa.Table:
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


@functools.cache
def _block_to_arrow_task():
    import ray

    return ray.remote(_block_to_arrow)


def arrow_refs(ds) -> list:
    """Refs to ``ds``'s output blocks as ``pa.Table``s, from ONE run of
    its plan — the one way the package collects blocks.

    Ray 2.49's ``Dataset.to_arrow_refs`` streams the plan, then calls
    ``schema(fetch_if_missing=True)`` to choose its zero-copy path; a
    streamed plan caches no schema, so that call runs the whole plan
    AGAIN as ``plan -> limit(1)`` — a second actor pool and, in the
    flagship, a second write of one batch's sink files.  Each output
    bundle already carries its schema, so the Arrow/pandas decision is
    made per bundle here and nothing re-executes.  Non-Arrow (pandas)
    blocks are converted in a remote task, as Ray's method does."""
    refs = []
    for bundle in ds.iter_internal_ref_bundles():
        convert = not isinstance(bundle.schema, pa.Schema)
        for ref, _ in bundle.blocks:
            refs.append(_block_to_arrow_task().remote(ref) if convert
                        else ref)
    return refs


def arrow_blocks(ds) -> list[pa.Table]:
    """:func:`arrow_refs`, fetched to the driver (one table per block)."""
    import ray

    return ray.get(arrow_refs(ds))


def drop_empty_blocks(ds, empty_schema: pa.Schema):
    """Rebuild a Dataset without Ray's schema-less EMPTY blocks.

    A hash-shuffle Aggregate (and any fully-filtering map) can emit
    zero-row blocks carrying an EMPTY schema; ``Dataset.join`` then
    dies in the HashShuffleAggregator finalize with "No match ... for
    key field reference" because the key column is absent from that
    block (observed intermittently on d_dsir's vocab join under a
    busy session).  Row counts come from metadata-sized remote probes
    — block payloads never move to the driver; if everything was
    empty, one TYPED empty block (``empty_schema``) keeps downstream
    joins schema-stable."""
    import ray
    import ray.data

    @ray.remote
    def _rows(t: pa.Table) -> int:
        return t.num_rows

    refs = arrow_refs(ds)
    keep = [r for r, n in zip(refs, ray.get([_rows.remote(r)
                                             for r in refs])) if n]
    if not keep:
        return ray.data.from_arrow(empty_schema.empty_table())
    return ray.data.from_arrow_refs(keep)


def fold_partials(partial_ds, keys: list[str], aggs: list[tuple[str, str]],
                  empty_schema: pa.Schema | None = None) -> pa.Table:
    """Collect per-block partial-aggregate tables and merge driver-side
    (:func:`merge_partials`).

    Correct ONLY for bounded-key aggregates (sinks x levels x buckets,
    not e.g. user_id): each block's partial is at most |keys| rows, so
    the driver merges num_blocks x |keys| tiny rows — a distributed
    sort/hash shuffle for that is pure fixed overhead (measured: Ray's
    groupby costs seconds of latency regardless of data size, while
    this fold is milliseconds).  Unbounded-key aggregates must keep
    ``Dataset.groupby`` — see e_user_stats / per_conv_turn_stats."""
    return merge_partials(arrow_blocks(partial_ds), keys, aggs, empty_schema)


def merge_partials(parts: list[pa.Table], keys: list[str],
                   aggs: list[tuple[str, str]],
                   empty_schema: pa.Schema | None = None) -> pa.Table:
    """The driver half of :func:`fold_partials`, over partial tables
    already fetched: ``aggs`` is ``(column, merge op)`` per aggregate,
    and the result is sorted by ``keys``.

    ``empty_schema``: PRE-aggregation schema to assume when the
    upstream produced no blocks at all (a fully-filtered input can
    surface zero partials, not zero-row partials); without it that
    case raises, because the key/agg types are unknowable here."""
    merged = concat_nonempty(parts)
    if merged.num_columns == 0 and empty_schema is not None:
        merged = empty_schema.empty_table()
    out_names = keys + [c for c, _ in aggs]
    return (merged.group_by(keys).aggregate(aggs)
            .rename_columns(out_names)
            .sort_by([(k, "ascending") for k in keys]))


def interval_counts(ds, keys: list[str] | None = None):
    """A1: count(*) per (sink, level, 5-min bucket) — partial per block,
    driver-side merge (bounded keys).  Column name ``cnt`` everywhere."""
    import ray.data

    keys = keys or ["sink", "level", "bucket"]
    return ray.data.from_arrow(fold_agg(ds, keys, {"cnt": ([], "count_all")}))


def routed_counts(ds):
    """A2: rows per routed sink."""
    return interval_counts(ds, keys=["sink"])


def minmax_ts(ds, key: str = "sink", ts_col: str = "parsed_ts"):
    """A5: min/max event time per sink (shard bookkeeping).

    Partials carry int64 micros; cast back to timestamp at the end."""
    import pyarrow.compute as pc

    import ray.data

    def micros(batch: pa.Table) -> pa.Table:
        return pa.table({key: batch[key],
                         ts_col: pc.cast(batch[ts_col], pa.int64())})

    merged = fold_agg(ds, [key], {"min_ts": (ts_col, "min"),
                                  "max_ts": (ts_col, "max")}, micros)
    for col in ("min_ts", "max_ts"):
        merged = merged.set_column(
            merged.schema.get_field_index(col), col,
            pc.cast(merged[col], pa.timestamp("us")))
    return ray.data.from_arrow(merged)


def distinct_values(ds, col: str) -> pa.Table:
    """A3: sorted distinct values of a column (dict build / UI dropdown).

    Map-side ``pc.unique`` collapses each block to its distinct set;
    the per-block sets are tiny by construction for filtered columns,
    so the final distinct-of-distincts is a driver-side fold."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch[col])
        return pa.table({col: u.drop_null()})

    parts = arrow_blocks(ds.map_batches(partial, batch_format="pyarrow"))
    merged = concat_nonempty(parts)
    vals = pc.unique(merged[col].combine_chunks()).to_pylist()
    return pa.table({col: pa.array(sorted(v for v in vals if v is not None),
                                   pa.string())})


def _scaled_hist(ds, value_col: str, by: str, scale: int) -> pa.Table:
    """(by, v, n): rows per group and fixed-point value, sorted."""
    def project(b: pa.Table) -> pa.Table:
        return pa.table({by: b[by], "v": to_fixed(b[value_col], scale)})

    return fold_agg(ds, [by, "v"], {"n": ([], "count_all")}, project)


def _disc_quantiles(ds, value_col: str, qs: list[float], by: str,
                    scale: int, names: list[str]) -> pa.Table:
    """Table(by, *names): per group, the discrete quantile at each q of
    ``qs`` — the element at 1-based rank max(1, ceil(q*n)) of the
    scaled-value histogram, by one cumulative pick."""
    import math

    hist = _scaled_hist(ds, value_col, by, scale).to_pandas()
    keys, picks = [], []
    for key, g in hist.groupby(by, sort=True):
        cum = g["n"].cumsum().to_numpy()
        ranks = [max(1, math.ceil(q * cum[-1])) for q in qs]
        keys.append(key)
        picks.append(g["v"].to_numpy()[np.searchsorted(cum, ranks)])
    cols = {by: pa.array(keys)}
    cols.update({nm: pa.array([int(p[i]) for p in picks], pa.int64())
                 for i, nm in enumerate(names)})
    return pa.table(cols)


def quantile_disc(ds, value_col: str, q: float, by: str,
                  scale: int = DISC_SCALE):
    """Exact discrete quantile per bounded group (A-family extension):
    the element at 0-based sorted index ceil(q*n)-1 of the
    integer-scaled value (money in cents) — matching DuckDB's
    ``quantile_disc`` element choice, bit-for-bit because the domain
    is discrete.

    Shape: per-block (group, scaled-value) histogram partials, driver
    fold, cumulative pick.  Exactness without a distributed sort —
    valid whenever group count x distinct scaled values is bounded
    (prices/latencies are; free-floating doubles are not — those need
    the sort-based path or a sketch).  Returns Table(by, q_value)
    with q_value in scaled integer units."""
    return _disc_quantiles(ds, value_col, [q], by, scale, ["q_value"])


def pivot_counts(ds, key: str, col: str, values: list[str]):
    """PIVOT / conditional aggregation: one output row per ``key``,
    one int64 count column ``n_{v}`` per pivot value v of ``col`` (the
    wide-format report shape — SQL's ``count(*) FILTER (WHERE col = v)``
    per v).

    Shape: the pivot width is bounded (it is a SCHEMA, not data), so
    each block collapses to at most |distinct keys in block| rows of
    |values| counters map-side; the all-to-all exchange then moves
    partial counter rows, never events.  The key itself is UNBOUNDED
    (user_id), so the merge is a Ray hash ``groupby`` — not a driver
    fold (see :func:`fold_partials` for the bounded-key contract)."""
    import pyarrow.compute as pc

    names = [f"n_{v}" for v in values]

    def indicators(b: pa.Table) -> pa.Table:
        cols = {key: b[key]}
        for v, nm in zip(values, names):
            cols[nm] = pc.cast(pc.equal(b[col], v), pa.int64())
        return pa.table(cols)

    return shuffle_agg(ds, [key], {nm: (nm, "sum") for nm in names},
                       indicators)


def rollup_sums(ds, keys: list[str], sum_cols: list[str]) -> pa.Table:
    """GROUP BY ROLLUP(keys): the finest level PLUS every prefix
    subtotal level up to the grand total, rolled-up key columns null —
    SQL ``GROUP BY ROLLUP (...)`` semantics: the grouping sets
    ``[keys, keys[:-1], ..., []]`` of :func:`grouping_sets_sums`."""
    return grouping_sets_sums(ds, keys, [keys[:i] for i in
                                         range(len(keys), -1, -1)],
                              sum_cols)


def corr_moments(ds, x_col: str, y_col: str, by: str):
    """Distributed CORRELATION kernel: exact integer co-moments per
    bounded group — (n, Σx, Σy, Σxy, Σx², Σy²) — the sufficient
    statistics for Pearson r, covariance and OLS slope.  The merge of
    per-block partials IS the distributed algorithm (moment sums are
    associative+commutative); the final r = (nΣxy − ΣxΣy) /
    √((nΣx²−(Σx)²)(nΣy²−(Σy)²)) is O(groups) arithmetic on the
    returned table, left to the caller.

    Inputs must already be int64 (caller integerizes: cents, minutes
    offset — float sums are order-dependent under distribution and
    would break bit-for-bit equality).  Exact while n·max(x²) < 2⁶³:
    shift/scale x,y near zero (corr is affine-invariant), and at
    10¹²-row groups chunk partials through Python-int folds or switch
    to Welford-in-double (documented loss of bit-exactness)."""
    import pyarrow.compute as pc

    def products(b: pa.Table) -> pa.Table:
        x, y = b[x_col], b[y_col]
        return pa.table({by: b[by], "sx": x, "sy": y,
                         "sxy": pc.multiply(x, y),
                         "sxx": pc.multiply(x, x),
                         "syy": pc.multiply(y, y)})

    spec = {"n": ([], "count_all")}
    spec.update({c: (c, "sum") for c in ("sx", "sy", "sxy", "sxx", "syy")})
    return fold_agg(ds, [by], spec, products)


def mode_by(ds, value_col: str, by: str,
            out_cols: tuple[str, str] = ("mode_value", "mode_n")):
    """MODE per bounded group: most frequent ``value_col`` value, ties
    broken by smallest value (deterministic, unlike SQL ``mode()``'s
    unspecified tie).  Valid while |groups × distinct values| is
    bounded (level per sink, hour-of-day per type): per-block
    (group, value) count partials, driver fold, argmax per group.
    Unbounded value domains need the Ray-groupby two-stage instead."""
    def pairs(b: pa.Table) -> pa.Table:
        return pa.table({by: b[by], "v": b[value_col]})

    hist = (fold_agg(ds, [by, "v"], {"n": ([], "count_all")}, pairs)
            .sort_by([(by, "ascending"), ("n", "descending"),
                      ("v", "ascending")]))
    # first row per group of the (count desc, value asc) sort = the mode
    import pyarrow.compute as pc

    keys = hist[by]
    if hist.num_rows == 0:
        return pa.table({by: keys, out_cols[0]: hist["v"],
                         out_cols[1]: hist["n"]})
    prev = keys.slice(0, hist.num_rows - 1)
    first = pa.chunked_array([pa.array([True]),
                              pc.invert(pc.equal(keys.slice(1), prev))])
    picked = hist.filter(first)
    return pa.table({by: picked[by], out_cols[0]: picked["v"],
                     out_cols[1]: picked["n"]})


def distinct_count_by(ds, value_col: str, by: str,
                      out_col: str = "n_distinct"):
    """Exact COUNT(DISTINCT value) per group.  Per-block distinct
    (group, value) pairs map-side (collapses repeats where they are),
    driver-side distinct-of-distincts + count.  Valid while the global
    pair cardinality fits the driver (sinks × levels, types × bounded
    user sets); at unbounded cardinality use the Ray ``groupby(pair)``
    two-stage, or the HLL sketch (stages/sketch, e_approx_users) when
    ±2 % suffices."""
    def project(b: pa.Table) -> pa.Table:
        return pa.table({by: b[by], "v": b[value_col]})

    pairs = fold_agg(ds, [by, "v"], {}, project)
    out = (pairs.group_by([by]).aggregate([([], "count_all")])
           .rename_columns([by, out_col])
           .sort_by([(by, "ascending")]))
    return out


def cube_sums(ds, keys: list[str], sum_cols: list[str]) -> pa.Table:
    """GROUP BY CUBE(keys): every subset of the grouping keys (all 2^k
    grouping sets, largest first, in ``combinations`` order), absent
    keys null — the full cross-tab report, by
    :func:`grouping_sets_sums`.  At 100 TB the cube costs one pass over
    the data plus (2^k−1)·|finest| rows of driver arithmetic — k is a
    report schema (2–3 keys), never data-sized."""
    from itertools import combinations

    return grouping_sets_sums(
        ds, keys, [list(c) for r in range(len(keys), -1, -1)
                   for c in combinations(keys, r)], sum_cols)


def quantiles_disc(ds, value_col: str, qs: list[float], by: str,
                   out_prefix: str = "q") -> pa.Table:
    """Multi-quantile sibling of :func:`quantile_disc` (in cents): ALL
    requested discrete quantiles from ONE histogram pass (the scan cost
    is the histogram, not the pick), one column per q named
    ``{out_prefix}{q*100:g}``.  Same bounded-domain contract."""
    return _disc_quantiles(ds, value_col, qs, by, DISC_SCALE,
                           [f"{out_prefix}{q * 100:g}" for q in qs])


def _float_vals(batch: pa.Table, col: str):
    """Non-null float64 values of one column as a numpy array."""
    v = batch[col]
    if isinstance(v, pa.ChunkedArray):
        v = v.combine_chunks()
    a = v.to_numpy(zero_copy_only=False).astype(np.float64)
    return a[~np.isnan(a)]


def _bracket_mask(a, lo: float, hi: float, closed: bool):
    return (a >= lo) & ((a < hi) | (closed & (a <= hi)))


def order_stats_cont(ds, value_col: str, ranks: list[int], *,
                     span: tuple[int, float, float] | None = None,
                     ) -> dict[int, float]:
    """EXACT k-th order statistics (0-based ranks) of a CONTINUOUS
    float column — no global sort, no bounded-domain assumption (the
    contract :func:`quantiles_disc` needs).

    Iterative histogram refinement, the distributed selection
    algorithm: each pass histograms the surviving bracket(s) into
    :data:`N_BUCKETS` equal-width cells via map-side partials folded
    driver-side (the fold is <= brackets x N_BUCKETS tiny rows), then
    narrows each rank's bracket to the one cell containing it — a
    4096x width reduction per scan, so a 64-bit value range resolves
    in <= 3-4 passes in practice and every pass is an embarrassingly
    parallel column scan (no all-to-all; a distributed sort would scan
    the same bytes AND shuffle all of them).  A bracket whose
    population falls under :data:`COLLECT_LIMIT` short-circuits: its
    values are gathered (bounded driver memory) and selected exactly.
    Duplicate-heavy columns terminate via the ulp rules: a one-ulp
    right-open bracket can only hold its left endpoint, and a
    no-progress pass snaps the bracket to the exact in-bracket
    [min, max] (equal -> resolved).  NaNs/nulls are excluded.

    ``span``: optional precomputed (n, min, max) to skip pass 0.
    """
    import ray

    n_buckets = N_BUCKETS  # captured here: tasks see the caller's value

    if span is None:
        span = _count_min_max(ds, value_col)
    n, gmin, gmax = span
    for r in ranks:
        if not (0 <= r < n):
            raise ValueError(f"rank {r} outside [0, {n})")
    if not ranks:
        return {}
    # per-rank bracket: (lo, hi, closed, offset=global rank of lo's
    # first in-bracket value, count=values inside)
    brackets = {r: (float(gmin), float(gmax), True, 0, n) for r in ranks}
    resolved: dict[int, float] = {}

    for _ in range(MAX_PASSES):
        pending = {r: b for r, b in brackets.items() if r not in resolved}
        if not pending:
            return resolved
        collect: dict[int, tuple] = {}
        refine: dict[int, tuple] = {}
        for r, (lo, hi, closed, off, cnt) in pending.items():
            if lo == hi or (not closed and np.nextafter(lo, hi) >= hi):
                resolved[r] = lo  # single representable value left
            elif cnt <= COLLECT_LIMIT:
                collect[r] = (lo, hi, closed, off, cnt)
            else:
                refine[r] = (lo, hi, closed, off, cnt)

        if collect:
            regions = sorted({b[:3] for b in collect.values()})
            rref = ray.put(regions)

            def gather(batch: pa.Table) -> pa.Table:
                a = _float_vals(batch, value_col)
                bids, vals = [], []
                for bid, (lo, hi, closed) in enumerate(ray.get(rref)):
                    sel = a[_bracket_mask(a, lo, hi, closed)]
                    if sel.size:
                        bids.append(np.full(sel.size, bid, np.int64))
                        vals.append(sel)
                if not bids:
                    return pa.table({"bid": pa.array([], pa.int64()),
                                     "v": pa.array([], pa.float64())})
                return pa.table({"bid": pa.array(np.concatenate(bids)),
                                 "v": pa.array(np.concatenate(vals))})

            got = concat_nonempty(arrow_blocks(
                ds.map_batches(gather, batch_format="pyarrow")))
            by_bid = {}
            if got.num_rows:
                bid_np = got["bid"].to_numpy(zero_copy_only=False)
                v_np = got["v"].to_numpy(zero_copy_only=False)
                for bid in np.unique(bid_np):
                    by_bid[int(bid)] = np.sort(v_np[bid_np == bid])
            for r, (lo, hi, closed, off, cnt) in collect.items():
                vals = by_bid[regions.index((lo, hi, closed))]
                resolved[r] = float(vals[r - off])

        if not refine:
            continue
        regions = sorted({b[:3] for b in refine.values()})
        rref = ray.put(regions)

        def hist(batch: pa.Table) -> pa.Table:
            a = _float_vals(batch, value_col)
            bids, cells, cnts = [], [], []
            for bid, (lo, hi, closed) in enumerate(ray.get(rref)):
                sel = a[_bracket_mask(a, lo, hi, closed)]
                if sel.size == 0:
                    continue
                bounds = np.linspace(lo, hi, n_buckets + 1)
                idx = np.searchsorted(bounds, sel, side="right") - 1
                np.clip(idx, 0, n_buckets - 1, out=idx)
                c = np.bincount(idx, minlength=n_buckets)
                nz = np.flatnonzero(c)
                bids.append(np.full(nz.size, bid, np.int64))
                cells.append(nz.astype(np.int64))
                cnts.append(c[nz])
            if not bids:
                return pa.table({"bid": pa.array([], pa.int64()),
                                 "cell": pa.array([], pa.int64()),
                                 "cnt": pa.array([], pa.int64())})
            return pa.table({"bid": pa.array(np.concatenate(bids)),
                             "cell": pa.array(np.concatenate(cells)),
                             "cnt": pa.array(np.concatenate(cnts))})

        folded = fold_partials(ds.map_batches(hist, batch_format="pyarrow"),
                               ["bid", "cell"], [("cnt", "sum")])
        fb = folded["bid"].to_numpy(zero_copy_only=False)
        fc = folded["cell"].to_numpy(zero_copy_only=False)
        fn = folded["cnt"].to_numpy(zero_copy_only=False)
        for r, (lo, hi, closed, off, cnt) in refine.items():
            bid = regions.index((lo, hi, closed))
            cells = fc[fb == bid]
            counts = fn[fb == bid]
            order = np.argsort(cells)
            cells, counts = cells[order], counts[order]
            cum = np.cumsum(counts)
            target = r - off
            j = int(np.searchsorted(cum, target, side="right"))
            cell = int(cells[j])
            new_off = off + int(cum[j - 1] if j else 0)
            new_cnt = int(counts[j])
            bounds = np.linspace(lo, hi, n_buckets + 1)
            new_lo = float(bounds[cell])
            if cell == n_buckets - 1:
                new_hi, new_closed = hi, closed
            else:
                new_hi, new_closed = float(bounds[cell + 1]), False
            if (new_lo, new_hi, new_closed) == (lo, hi, closed):
                # no float progress possible: snap to the exact
                # in-bracket [min, max] (a strict subset or a proof
                # that one value remains)
                _, bmin, bmax = _count_min_max(ds, value_col,
                                               (lo, hi, closed))
                if bmin == bmax:
                    resolved[r] = bmin
                    continue
                new_lo, new_hi, new_closed = bmin, bmax, True
            brackets[r] = (new_lo, new_hi, new_closed, new_off, new_cnt)
    raise RuntimeError("order_stats_cont did not converge "
                       f"(MAX_PASSES={MAX_PASSES})")


def _count_min_max(ds, value_col: str, bracket: tuple | None = None
                   ) -> tuple[int, float, float]:
    """(non-null count, min, max) of ``value_col`` — of its values in
    ``bracket`` (lo, hi, closed) when one is given — via one map-side
    partial pass; min and max are NaN when there is no value."""
    def partial(batch: pa.Table) -> pa.Table:
        a = _float_vals(batch, value_col)
        if bracket is not None:
            a = a[_bracket_mask(a, *bracket)]
        return pa.table({
            "n": pa.array([a.size], pa.int64()),
            "lo": pa.array([a.min() if a.size else np.inf], pa.float64()),
            "hi": pa.array([a.max() if a.size else -np.inf],
                           pa.float64())})

    t = concat_nonempty(arrow_blocks(
        ds.map_batches(partial, batch_format="pyarrow")))
    import pyarrow.compute as pc
    # a zero-row input can surface as zero blocks -> zero-column concat
    n = int(pc.sum(t["n"]).as_py() or 0) if t.num_columns else 0
    if n == 0:
        return 0, float("nan"), float("nan")
    return (n, float(pc.min(t["lo"]).as_py()), float(pc.max(t["hi"]).as_py()))


def quantile_cont(ds, value_col: str, ps: list[float]) -> pa.Table:
    """SQL ``percentile_cont`` over a continuous column, kept EXACT:
    for each p the two bracketing order statistics at ranks
    floor(p*(n-1)) and ceil(p*(n-1)) are found by
    :func:`order_stats_cont` and returned AS-IS (``lo_value`` /
    ``hi_value`` are actual data values, so distributed and oracle
    results compare bit-for-bit; the interpolated
    (1-f)*lo + f*hi is the consumer's one multiply, the same
    two-exact-integers trade q_promo_share makes)."""
    import math

    n, gmin, gmax = _count_min_max(ds, value_col)
    if n == 0:
        return pa.table({"p": pa.array([], pa.float64()),
                         "lo_value": pa.array([], pa.float64()),
                         "hi_value": pa.array([], pa.float64())})
    ranks = set()
    lo_r, hi_r = [], []
    for p in ps:
        idx = p * (n - 1)
        lo_r.append(int(math.floor(idx)))
        hi_r.append(int(math.ceil(idx)))
        ranks.update((lo_r[-1], hi_r[-1]))
    stats = order_stats_cont(ds, value_col, sorted(ranks),
                             span=(n, gmin, gmax))
    return pa.table({
        "p": pa.array([float(p) for p in ps], pa.float64()),
        "lo_value": pa.array([stats[r] for r in lo_r], pa.float64()),
        "hi_value": pa.array([stats[r] for r in hi_r], pa.float64()),
    })


def group_order_stats(ds, key_col: str, val_col: str, p: float):
    """Per-GROUP continuous percentile (SQL ``percentile_cont(p)
    WITHIN GROUP (ORDER BY val) ... GROUP BY key``), kept exact the
    same way :func:`quantile_cont` is: the two bracketing order
    statistics at ranks floor/ceil(p*(n_g-1)) are returned as actual
    data values per key: (key, lo_value, hi_value).

    Unlike the global :func:`order_stats_cont` (whose key domain is
    ONE), the grouped variant shuffles by key (:func:`~.window.keyed_apply`:
    every group lands whole in one frame) and selects with one sorted
    frame + segment-start gather per frame: no per-group Python, no
    iterative passes (the group's rows are already co-located, so
    selection is an in-frame index away)."""
    import pandas as pd

    from .window import _sort_segments, keyed_apply

    def body(g: pd.DataFrame) -> pd.DataFrame:
        v = g[val_col].to_numpy().astype(np.float64)
        nn = ~np.isnan(v)
        s, start, end, _ = _sort_segments(g[nn], key_col, v[nn])
        v = s[val_col].to_numpy().astype(np.float64)
        starts = np.unique(start)
        cnt = end[starts] - starts
        lo_r = starts + np.floor(p * (cnt - 1)).astype(np.int64)
        hi_r = starts + np.ceil(p * (cnt - 1)).astype(np.int64)
        return pd.DataFrame({key_col: s[key_col].to_numpy()[starts],
                             "lo_value": v[lo_r], "hi_value": v[hi_r]})

    return keyed_apply(ds, key_col, body)


def melt(ds, id_cols: list[str], value_cols: list[str],
         var_col: str = "variable", val_col: str = "value"):
    """UNPIVOT / melt (wide -> long reshape, the inverse of
    :func:`pivot_counts`): each input row becomes |value_cols| rows of
    (id_cols..., variable-name, value).  Pure per-batch restructuring
    — zero-copy column slices concatenated per variable, no shuffle,
    output streams at |value_cols| x input rows."""
    import pyarrow.compute as pc

    def body(b: pa.Table) -> pa.Table:
        parts = []
        for vc in value_cols:
            cols = {c: b[c] for c in id_cols}
            cols[var_col] = pa.array([vc] * b.num_rows, pa.string())
            cols[val_col] = pc.cast(b[vc], pa.int64())
            parts.append(pa.table(cols))
        return concat_nonempty(parts) if parts else b.select(id_cols)

    return ds.map_batches(body, batch_format="pyarrow")


def grouping_sets_sums(ds, keys: list[str], sets: list[list[str]],
                       sum_cols: list[str]) -> pa.Table:
    """GROUP BY GROUPING SETS(sets) — the rollup/cube generalization:
    exactly the REQUESTED grouping sets (each a subset of ``keys``),
    absent keys null, with the ``sum_cols`` sums and ``n_rows`` per
    group, sorted by ``keys``.

    Scale shape: the INPUT is scanned exactly once — per-block partials
    at the finest granularity, driver fold (bounded-key contract, same
    as :func:`fold_partials`) — and every requested set re-aggregates
    the tiny finest TABLE driver-side.  At 100 TB the coarser levels
    cost |finest| rows of arithmetic, not another pass over the data."""
    import pyarrow.compute as pc

    for s in sets:
        bad = [c for c in s if c not in keys]
        if bad:
            raise ValueError(f"grouping_sets_sums: {bad} not in keys")
    spec = {c: (c, "sum") for c in sum_cols}
    spec["n_rows"] = ([], "count_all")
    finest, aggs = fold_agg(ds, keys, spec), merge_aggs(spec)
    out_names = keys + sum_cols + ["n_rows"]
    levels = []
    for kept in sets:
        kept = [k for k in keys if k in kept]  # canonical key order
        if kept == keys:
            t = finest
        elif kept:
            t = (finest.group_by(kept).aggregate(aggs)
                 .rename_columns(kept + sum_cols + ["n_rows"]))
        else:
            t = pa.table({c: pa.array([int(pc.sum(finest[c]).as_py() or 0)],
                                      pa.int64())
                          for c in sum_cols + ["n_rows"]})
        for k in keys:
            if k not in kept:
                t = t.append_column(k, pa.nulls(t.num_rows,
                                                finest.schema.field(k).type))
        levels.append(t.select(out_names))
    return pa.concat_tables(levels).sort_by(
        [(k, "ascending") for k in keys])


def profile_table(ds, columns: list[str]):
    """DATA PROFILING: per column, (col_name, n_rows, n_nulls,
    n_distinct) with EXACT distinct counts — the schema-quality report
    an ingestion pipeline runs before training.

    Shape: one pass emits, per block, (a) bounded per-column row/null
    counters and (b) per-column per-block DISTINCT value strings; the
    distinct stream shuffles on (col, value) so a value lives in
    exactly one :func:`~.window.keyed_apply` frame and the global
    distinct count is the sum of frame-local ones.  Values travel as
    their canonical Arrow string cast — injective per column
    (shortest-roundtrip float repr, identity for strings, ISO
    timestamps), used ONLY as an engine-internal distinct key, never
    surfaced.  NULLs are excluded from
    distinct (SQL count(DISTINCT) semantics); float NaNs collapse to
    one distinct value, matching DuckDB's grouping semantics."""
    import pandas as pd
    import pyarrow.compute as pc

    from .window import keyed_apply

    def counters(b: pa.Table) -> pa.Table:
        names, nn, nl = [], [], []
        for c in columns:
            col = b[c]
            names.append(c)
            nulls = col.null_count
            nl.append(nulls)
            nn.append(b.num_rows - nulls)
        return pa.table({"col_name": pa.array(names, pa.string()),
                         "n_nonnull": pa.array(nn, pa.int64()),
                         "n_nulls": pa.array(nl, pa.int64())})

    counts = fold_partials(
        ds.map_batches(counters, batch_format="pyarrow"),
        ["col_name"], [("n_nonnull", "sum"), ("n_nulls", "sum")],
        empty_schema=pa.schema([("col_name", pa.string()),
                                ("n_nonnull", pa.int64()),
                                ("n_nulls", pa.int64())]))

    distinct_pairs = partial_agg(["col_name", "v"], {})

    def distincts(b: pa.Table) -> pa.Table:
        frames = []
        for c in columns:
            v = pc.drop_null(b[c])
            s = pc.cast(v, pa.string())
            frames.append(distinct_pairs(pa.table(
                {"col_name": pa.array([c] * len(s), pa.string()), "v": s})))
        return pa.concat_tables(frames) if frames else pa.table({
            "col_name": pa.array([], pa.string()),
            "v": pa.array([], pa.string())})

    def dcount(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates(subset=["col_name", "v"])
               .groupby("col_name", as_index=False).size())
        return out.rename(columns={"size": "nd"})

    nd = fold_partials(
        keyed_apply(ds.map_batches(distincts, batch_format="pyarrow"),
                    ["col_name", "v"], dcount),
        ["col_name"], [("nd", "sum")],
        empty_schema=pa.schema([("col_name", pa.string()),
                                ("nd", pa.int64())]))

    cdf = counts.to_pandas().set_index("col_name")
    ndf = nd.to_pandas().set_index("col_name")
    rows = []
    for c in columns:
        nnn = int(cdf["n_nonnull"].get(c, 0))
        nl = int(cdf["n_nulls"].get(c, 0))
        rows.append((c, nnn + nl, nl, int(ndf["nd"].get(c, 0))))
    return pa.table({
        "col_name": pa.array([r[0] for r in rows], pa.string()),
        "n_rows": pa.array([r[1] for r in rows], pa.int64()),
        "n_nulls": pa.array([r[2] for r in rows], pa.int64()),
        "n_distinct": pa.array([r[3] for r in rows], pa.int64()),
    })
