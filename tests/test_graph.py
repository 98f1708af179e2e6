"""Distributed connected components (stages/graph.py), and the typed
empty answers of the graph and sketch operators."""
import numpy as np
import pyarrow as pa
import pytest

import ray


def _pairs(a, b):
    return ray.data.from_arrow(pa.table({
        "doc_a": pa.array(list(a), pa.int64()),
        "doc_b": pa.array(list(b), pa.int64())}))


def _union_find_components(a, b):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        parent[find(x)] = find(y)
    comp = {}
    for n in set(a) | set(b):
        r = find(n)
        comp[r] = min(comp.get(r, n), n)
    return {n: comp[find(n)] for n in set(a) | set(b)}


def test_components_chain_triangle_pair(ray_session):
    from alco_ray.stages.graph import connected_components

    a = list(range(19)) + [100, 101, 100] + [500]
    b = list(range(1, 20)) + [101, 102, 102] + [501]
    out = connected_components(_pairs(a, b)).to_pandas()
    comp = dict(zip(out["node"], out["component"]))
    assert all(comp[i] == 0 for i in range(20))
    assert comp[100] == comp[101] == comp[102] == 100
    assert comp[500] == comp[501] == 500
    assert len(comp) == 20 + 3 + 2


def test_components_random_graph_matches_union_find(ray_session):
    from alco_ray.stages.graph import connected_components

    rng = np.random.RandomState(11)
    a = rng.randint(0, 300, 500)
    b = rng.randint(0, 300, 500)
    m = a != b
    a, b = a[m].tolist(), b[m].tolist()
    out = connected_components(_pairs(a, b)).to_pandas()
    got = dict(zip(out["node"], out["component"]))
    assert got == _union_find_components(a, b)


def test_components_empty(ray_session):
    from alco_ray.stages.graph import connected_components

    out = connected_components(_pairs([], []))
    assert out.count() == 0
    assert set(out.schema().names) == {"node", "component"}


def test_components_partition_invariance(ray_session, monkeypatch):
    """Same labels at any partition count (the kernel's exactness must
    not depend on how keys land; 12 partitions leave some empty)."""
    from alco_ray.stages import graph

    a = [0, 1, 2, 10, 11, 7]
    b = [1, 2, 3, 11, 12, 8]
    want = _union_find_components(a, b)
    for rows, parts in ((12, 1), (6, 2), (1, 12)):  # 12 directed edges
        monkeypatch.setattr(graph, "PART_ROWS", rows)
        out = graph.connected_components(_pairs(a, b))
        assert out.num_blocks() == parts
        out = out.to_pandas()
        assert dict(zip(out["node"], out["component"])) == want


def test_components_max_rounds_raises(ray_session, monkeypatch):
    from alco_ray.stages import graph

    a = list(range(63))
    b = list(range(1, 64))
    monkeypatch.setattr(graph, "MAX_ROUNDS", 1)
    with pytest.raises(ValueError, match="MAX_ROUNDS"):
        # a 64-chain cannot converge in one relaxation round
        graph.connected_components(_pairs(a, b))



_I64, _STR = pa.int64(), pa.string()
_EMPTY_INPUT = pa.table(
    {c: pa.array([], _I64) for c in ("doc_a", "doc_b", "src", "dst", "v",
                                     "h")}
    | {c: pa.array([], _STR) for c in ("g", "tok")})


@pytest.mark.parametrize("op, want", [
    ("connected_components", [("node", _I64), ("component", _I64)]),
    ("pagerank", [("node", _I64), ("rank_fp", _I64)]),
    ("hll_distinct", [("g", _STR), ("approx_distinct", _I64)]),
    ("heavy_hitters", [("tok", _STR), ("cnt", _I64)]),
    ("quantile_sketch", [("q", pa.float64()), ("value", _I64)]),
    ("quantile_sketch_grouped",
     [("g", _STR), ("q", pa.float64()), ("value", _I64)]),
    ("bloom_from_dataset", None),
])
@pytest.mark.parametrize("filtered", [False, True],
                         ids=["zero_rows", "filtered_blocks"])
def test_operators_answer_typed_empty(ray_session, op, want, filtered):
    """Every graph and sketch operator answers its typed schema on a
    zero-row input and on blocks a filter emptied (which Ray can hand
    on without a schema); the Bloom build answers all-zero words."""
    from alco_ray.stages import graph, sketch

    if filtered:
        t = pa.table({c: pa.array(range(30), f.type) if f.type == _I64
                      else pa.array([str(i) for i in range(30)])
                      for c, f in zip(_EMPTY_INPUT.column_names,
                                      _EMPTY_INPUT.schema)})
        ds = ray.data.from_arrow(t).repartition(3).filter(expr="v < 0")
    else:
        ds = ray.data.from_arrow(_EMPTY_INPUT)
    if op == "bloom_from_dataset":
        words = sketch.bloom_from_dataset(ds, "h", m_bits=1024, k=3)
        assert words.dtype == np.uint64 and words.tolist() == [0] * 16
        return
    args = {"connected_components": (), "pagerank": (),
            "hll_distinct": ("g", "v"), "heavy_hitters": ("tok",),
            "quantile_sketch": ("v",),
            "quantile_sketch_grouped": ("g", "v")}[op]
    out = getattr(graph if op in ("connected_components", "pagerank")
                  else sketch, op)(ds, *args)
    if not isinstance(out, pa.Table):  # a Dataset
        assert out.count() == 0
        out = out.schema().base_schema.empty_table()
    assert out.num_rows == 0
    assert out.schema == pa.schema(want)
