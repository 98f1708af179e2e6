"""The staged build the persisted indexes share
(``alco_ray.stages.staging.staged_index``): a build that raises
halfway leaves the old index readable, and the next build sweeps what
the failed one left behind."""

import json

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from alco_ray.stages import similarity


def _vectors(n: int = 120, d: int = 8) -> tuple[pa.Table, np.ndarray]:
    m = np.random.RandomState(4).standard_normal((n, d))
    return pa.table({
        "vec_id": pa.array(range(n), pa.int64()),
        "embedding": pa.array(list(m), pa.list_(pa.float64()))}), m


def test_failed_build_keeps_old_index_and_next_build_sweeps(tmp_path):
    t, m = _vectors()
    idx = tmp_path / "lsh"
    similarity.build_lsh_index(ray.data.from_arrow(t), idx,
                               extra_meta={"corpus_sig": "old"})
    before = similarity.knn_lsh_probe(idx, m[3], k=5).to_pandas()
    assert before["vec_id"].tolist()[0] == 3

    def boom(batch: pa.Table) -> pa.Table:
        raise RuntimeError("build failed halfway")

    # the build dies inside its Ray Data write, after staging began
    with pytest.raises(Exception, match="build failed halfway"):
        similarity.build_lsh_index(
            ray.data.from_arrow(t).map_batches(boom, batch_format="pyarrow"),
            idx, extra_meta={"corpus_sig": "new"})
    orphans = list(tmp_path.glob(".lsh.building.*"))
    assert len(orphans) == 1 and not (orphans[0] / "meta.json").exists()
    assert json.loads((idx / "meta.json").read_text())["corpus_sig"] == "old"
    after = similarity.knn_lsh_probe(idx, m[3], k=5).to_pandas()
    assert after.equals(before)

    # an orphan of another process's crashed build is swept as well
    (tmp_path / ".lsh.building.999999").mkdir()
    (tmp_path / ".lsh.building.999999" / "part.parquet").write_bytes(b"x")
    similarity.build_lsh_index(ray.data.from_arrow(t), idx,
                               extra_meta={"corpus_sig": "new"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lsh"]
    assert json.loads((idx / "meta.json").read_text())["corpus_sig"] == "new"
    rebuilt = similarity.knn_lsh_probe(idx, m[3], k=5).to_pandas()
    assert rebuilt.equals(before)
