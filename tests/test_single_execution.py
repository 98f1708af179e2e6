"""Each Ray Data plan runs once.

``Dataset.to_arrow_refs`` (Ray 2.49) re-executes a streamed plan under
``limit(1)`` to learn its schema; the package collects blocks with
``alco_ray.stages.aggregate.arrow_refs`` / ``arrow_blocks`` instead.
These tests pin the flagship to zero re-runs, keep the old call out of
the package, and check the collector's block conversion.  The same
source scan keeps hand-rolled ``partition_by_key`` shuffles out of the
package (``window.keyed_apply`` owns them), and the per-row kernels the
ingest dropped out of it: the regex token count
(``parse.count_tokens`` owns it) and ``strftime`` day strings
(``route.day_string``).  An AST scan keeps keyed shuffles unsized:
``keyed_apply`` sizes its frames from the data, so only the functions
whose counts do another job take a partition-count or row-count
parameter, and one function sizes every hash join.  A last scan keeps
every package definition reachable from an entry point."""

import ast
import glob
import re
import shutil
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from alco_ray.pipelines.flagship import run_flagship
from alco_ray.sources import read_transcripts
from alco_ray.specs import default_transcript_config
from alco_ray.stages.aggregate import arrow_blocks, arrow_refs
from alco_ray.stages.dict_encode import dicts_from_distincts, distinct_values

PKG = Path(__file__).resolve().parents[1] / "alco_ray"


@pytest.fixture
def limit_calls(monkeypatch):
    """Record every driver-side ``Dataset.limit`` call — the call Ray's
    schema fetch makes when it re-runs a streamed plan."""
    calls = []
    orig = ray.data.Dataset.limit

    def counting(self, *args, **kwargs):
        calls.append(args)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "limit", counting)
    return calls


def test_flagship_and_dict_build_run_each_plan_once(
        t_small_dir, t_small_oracle, tmp_path, limit_calls):
    shards = sorted(Path(t_small_dir).glob("*.parquet"))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for f in shards[:-1]:
        shutil.copy(f, corpus / f.name)
    out = tmp_path / "out"
    run_flagship(corpus, out, wave_size=4)                 # fresh ingest
    shutil.copy(shards[-1], corpus / shards[-1].name)
    summary = run_flagship(corpus, out, wave_size=4)       # 1-shard append

    dynamic = [c for c in default_transcript_config().filtered_columns()
               if c != "level"]
    files = [str(f) for f in shards]
    # one distributed distinct pass over every shard, collected once
    dicts = dicts_from_distincts(arrow_blocks(
        read_transcripts(files, columns=dynamic).map_batches(
            lambda b: distinct_values(b, dynamic), batch_format="pyarrow")),
        dynamic)

    assert limit_calls == []
    assert summary["rows"] == len(t_small_oracle["parsed"])
    assert summary["parse_failures"] == t_small_oracle["parse_failures"]
    assert summary["routed_counts"] == t_small_oracle["routed_counts"]
    got = (pq.read_table(sorted(glob.glob(f"{out}/sink=*/date=*/*.parquet")))
           .select(["conv_id", "turn_idx", "text", "level"]).to_pandas()
           .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))
    want = (t_small_oracle["ordered"][["conv_id", "turn_idx", "text",
                                       "level"]].reset_index(drop=True))
    assert got.equals(want)
    # the one-pass dict build sees the same vocabulary the ingest grew
    for c in dynamic:
        cached = pq.read_table(out / "dicts" / f"{c}.parquet")
        assert (set(dicts[c]["value"].to_pylist())
                == set(cached["value"].to_pylist()))


# One call's arguments, across lines: no nested call deeper than one.
_ARGS = r"(?:[^()]|\([^()]*\))*?"


@pytest.mark.parametrize("pattern, allowed, message", [
    (r"\.to_arrow_refs\(", None,
     "Dataset.to_arrow_refs() re-runs a streamed plan under limit(1); "
     "collect blocks with alco_ray.stages.aggregate.arrow_refs (refs) "
     "or arrow_blocks (tables) instead"),
    (r"\bpartition_by_key\(", "alco_ray/stages/window.py",
     "hash-partition through alco_ray.stages.window.keyed_apply instead "
     "of a hand-rolled partition_by_key -> groupby('part').map_groups "
     "chain"),
    (r"count_substring_regex\(" + _ARGS + r"\bTOKEN_PATTERN\b", None,
     "count tokens with alco_ray.stages.parse.count_tokens (a byte "
     "table and one reduction), not a regex match count"),
    (r"strftime\(" + _ARGS + r"[\"']%Y-%m-%d[\"']", "alco_ray/oracle.py",
     "render day strings with alco_ray.stages.route.day_string (two "
     "casts), not a per-row strftime; only the pandas oracle keeps it"),
    (r"\.map_groups\(", None,
     "shuffle through alco_ray.stages.window.keyed_apply (one kernel "
     "call per frame of whole key groups), not Ray's per-group "
     "groupby(...).map_groups"),
    (r"half_towards_infinity", "alco_ray/stages/aggregate.py",
     "convert to fixed point with alco_ray.stages.aggregate.to_fixed "
     "(the package's one rounding rule), not an inline pc.round"),
    (r"copysign\(np\.floor", "alco_ray/stages/aggregate.py",
     "round half away from zero in NumPy with "
     "alco_ray.stages.aggregate.half_away, not an inline "
     "copysign(floor(|x| + 0.5))"),
    (r'cluster_resources\(\)\.get\("CPU", 8\)\) // 2',
     "alco_ray/stages/join.py",
     "size a hash join with alco_ray.stages.join.join_partitions (the "
     "package's one join partition rule), not an inline CPU count"),
], ids=["to_arrow_refs", "partition_by_key", "regex_token_count",
        "strftime_day", "map_groups", "fixed_point", "half_away",
        "join_partitions"])
def test_package_never_calls(pattern, allowed, message):
    rx = re.compile(pattern)
    hits = [f"{rel}:{text.count(chr(10), 0, m.start()) + 1}"
            for p in sorted(PKG.rglob("*.py"))
            if (rel := p.relative_to(PKG.parent).as_posix()) != allowed
            for text in [p.read_text()]
            for m in rx.finditer(text)]
    assert not hits, f"{message}: {hits}"


# Sizing parameters and the functions that keep them, each for a job
# other than sizing a keyed shuffle: graph.py's partitioned iterations
# and the partition_by_key skew measurement.  A hash join's partition
# count is join.join_partitions(), which reads no row count.
_SIZING = {"n_parts", "approx_rows", "approx_docs", "grams_per_doc",
           "tokens_per_doc"}
_SIZED = {
    "alco_ray/stages/graph.py": {"_hash", "_split", "_split_block",
                                 "_send", "_jump_req", "_jump_apply"},
    "alco_ray/stages/window.py": {"partition_by_key"},
}


def test_only_non_shuffle_jobs_take_sizing_parameters():
    sized, names = {}, set()
    for p in sorted(PKG.rglob("*.py")):
        rel = p.relative_to(PKG.parent).as_posix()
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
                a = node.args
                if {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                        } & _SIZING:
                    sized.setdefault(rel, set()).add(node.name)
    assert sized == _SIZED
    assert "suggest_pair_partitions" not in names


# Entry points: the package's module-level code (which builds the query
# REGISTRY), the flagship, the CLI, and every script a user or the
# benchmark runs.
_ENTRY_FILES = ["alco_ray/run.py", "bench.py", "__ray_entry__.py",
                "pipebench/*.py", "scripts/*.py"]
_ENTRY_NAMES = {"run_flagship"}


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` mentions: bare names, attributes and
    imports (``from m import f as g`` mentions both ``f`` and ``g``)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update({n.name.rpartition(".")[2], n.asname} - {None})
    return out


def test_every_package_definition_is_reached():
    """Every top-level function and class under ``alco_ray/``, public
    or private, is reached by name from an entry point, directly or
    through the body of another reached definition.  Code only tests
    call is dead weight: delete it with its tests."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    reached = set(_ENTRY_NAMES)
    for p in sorted(PKG.rglob("*.py")):
        rel = p.relative_to(PKG.parent).as_posix()
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append((rel, node))
                for d in node.decorator_list:
                    reached |= _names(d)
            else:
                reached |= _names(node)
    for pattern in _ENTRY_FILES:
        for p in sorted(PKG.parent.glob(pattern)):
            reached |= _names(ast.parse(p.read_text()))
    todo = list(reached & defs.keys())
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for _, node in defs[name]:
                todo += (_names(node) & defs.keys()) - seen
    unreached = sorted(f"{rel}:{name}" for name, found in defs.items()
                       if name not in seen for rel, _ in found)
    assert not unreached, unreached


def _docs_ds() -> "ray.data.Dataset":
    """Six documents (two exact dups, one near dup, two texts one edit
    apart) behind a map_batches, so a ``count()`` would re-run a plan,
    not read metadata; ``conv_id``/``turn_idx``/``level`` feed
    rolling_count."""
    texts = ["one two three four five six seven",
             "zero one two three four five six",
             "one two three four five six seven",
             "totally different words here nothing shared",
             "short doc", "short dog"]
    t = pa.table({"doc_id": pa.array(range(6), pa.int64()),
                  "text": texts,
                  "conv_id": ["a", "a", "b", "b", "b", "b"],
                  "turn_idx": pa.array([0, 1, 0, 1, 2, 3], pa.int32()),
                  "level": ["ERROR", "INFO", "INFO", "ERROR", "INFO",
                            "INFO"]})
    return ray.data.from_arrow(t).map_batches(lambda b: b,
                                              batch_format="pyarrow")


def _counting_ops():
    from alco_ray.stages import aggregate, dedup, text, window

    return {
        "jaccard_pairs": lambda ds: dedup.jaccard_pairs(ds, 0.5),
        "containment_pairs": lambda ds: dedup.containment_pairs(ds, 0.8),
        "lsh_candidate_pairs": dedup.lsh_candidate_pairs,
        "simhash_near_pairs": lambda ds: dedup.simhash_near_pairs(ds, 7),
        "fuzzy_pairs": lambda ds: dedup.fuzzy_pairs(ds, "text"),
        "tf_df": text.tf_df,
        "ngram_counts": text.ngram_counts,
        "cross_doc_ngram_share": text.cross_doc_ngram_share,
        "dup_span_mask": text.dup_span_mask,
        "longest_shared_span": text.longest_shared_span,
        "profile_table": lambda ds: aggregate.profile_table(
            ds, ["doc_id", "text"]),
        "rolling_count": lambda ds: window.rolling_count(
            ds, flag_col="level", flag_value="ERROR"),
    }


@pytest.mark.parametrize("op", sorted(_counting_ops()))
def test_keyed_operators_never_count_their_input(op, monkeypatch):
    """These operators used to size their shuffles with
    ``Dataset.count()``, which re-runs the upstream plan of a
    transformed input.  Their shuffles now size themselves."""
    def no_count(self):
        raise AssertionError("Dataset.count() re-runs the upstream plan")

    monkeypatch.setattr(ray.data.Dataset, "count", no_count)
    out = _counting_ops()[op](_docs_ds())
    rows = out.num_rows if isinstance(out, pa.Table) else len(
        out.take_all())
    assert rows > 0


def test_collector_converts_blocks_without_rerun(limit_calls):
    df = pd.DataFrame({"k": [1, 2, 3], "v": ["a", "b", "c"]})
    pandas_ds = ray.data.from_pandas([df.iloc[:2], df.iloc[2:]])
    refs = arrow_refs(pandas_ds)
    assert len(refs) == 2
    blocks = ray.get(refs)
    assert all(isinstance(b, pa.Table) for b in blocks)
    assert pa.concat_tables(blocks).to_pandas().equals(df)

    t = pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    arrow_ds = ray.data.from_arrow(t).map_batches(
        lambda b: b, batch_format="pyarrow")
    assert pa.concat_tables(arrow_blocks(arrow_ds)).equals(t)

    none_left = arrow_ds.filter(expr="k > 10")
    assert sum(b.num_rows for b in arrow_blocks(none_left)) == 0
    assert limit_calls == []
