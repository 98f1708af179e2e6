"""Registry-wide dtype-drift regression gate (VERDICT r3 item 2).

Round 3's two driver hash mismatches were pandas-dtype drift (an Int64
extension column; a float64-upcast null-unioned id column) — value-
equal, dtype-different.  ``scripts/check_contract.py`` has since
demanded engine/oracle pandas dtype equality BEFORE value comparison;
this test drives that comparator from pytest so the class stays closed
under CI:

* default: the queries whose engine paths run pandas-format kernels
  (the only code that can produce extension/upcast dtypes) plus one
  representative per other output family, at sf0.001;
* ``ALCO_SWEEP=1``: the ENTIRE registry (the same full sweep the
  builder runs per-round at three scales before shipping).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))
sys.path.insert(0, str(REPO))

SF = "/root/testdata/sf0.001"

# Every query whose plan includes a batch_format="pandas" kernel
# (window/segment family, map_groups folds) — the dtype-drift risk
# class — plus one representative per other output family.
PANDAS_KERNEL_QUERIES = [
    "e_event_gaps", "q_asof_join", "t_asof_last_error", "e_locf",
    "e_first_last", "e_funnel", "e_rolling_spend", "e_user_cumsum",
    "e_dense_rank", "e_ntile", "t_rolling_errors", "t_context_errors",
    "t_role_transitions", "e_sessionize", "e_session_stats",
    "t_gap_median", "e_user_median", "e_events_1h", "e_retention",
    "e_densify", "e_busy_periods", "e_latest_event",
    # representatives of the non-pandas families
    "t_parse_metrics", "d_model_score", "d_bpe_tokens", "q_pagerank",
    # a hash join whose filtered left side is empty at sf0.001
    "q_volume_shipping",
    # one per aggregate.py helper shape: three fixed-point scales, a
    # bounded fold, a keyed fold, a keyed fold of three merge ops, and
    # the interval counts
    "q1_pricing", "e_exp_hist", "q_cust_dist", "e_rfm",
    "t_interval_counts",
]


def _registry_names():
    import re

    src = (REPO / "alco_ray" / "pipelines" / "queries.py").read_text()
    reg = src[src.index("REGISTRY = {"):]
    return re.findall(r'^    "([a-z0-9_]+)":', reg, re.M)


def _selected():
    if os.environ.get("ALCO_SWEEP"):
        return _registry_names()
    return PANDAS_KERNEL_QUERIES


@pytest.fixture(scope="module")
def contract_env(ray_session):
    import duckdb

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return qs, sqls, con


@pytest.mark.parametrize("name", _selected())
def test_dtype_and_value_parity(name, contract_env):
    import check_contract as cc

    qs, sqls, con = contract_env
    assert name in qs, f"{name} missing from registry"
    got = cc.to_pandas(qs[name](SF))
    if name not in sqls:
        pytest.skip("rows-only by design (no oracle)")
    sql = sqls[name].replace("sf0.01", Path(SF).name)
    want = con.sql(sql).df()
    # strict=True demands exact pandas dtype equality before values —
    # the driver's hash sensitivity.
    err = cc.compare(name, got, want, strict=True)
    assert err is None, err


@pytest.mark.parametrize("texts", [
    ["a b c d", "a b c d", "a b c d", "x y z w", "x y z w"],
    [],
], ids=["every_doc_paired", "empty"])
def test_dup_degree_matches_oracle_without_degree_zero(texts, tmp_path,
                                                       ray_session):
    """d_dup_degree has a degree-0 row only where the oracle's GROUP BY
    degree has one: when some document has no partner.  Here every
    document has one, or there are none."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    import check_contract as cc

    path = tmp_path / "documents.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}), path)
    got = cc.to_pandas(entrymod.queries()["d_dup_degree"](str(tmp_path)))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.sql(entrymod.oracle_sql()["d_dup_degree"]).df()
    assert cc.compare("d_dup_degree", got, want) is None
    assert 0 not in got["degree"].tolist()
