"""Property tests (hypothesis) for the round-3g pure kernels.

Same contract as test_window_kernels.py: the Ray plumbing is pinned by
the DuckDB oracle queries; these hammer the pure numpy/Arrow kernels
with randomized layouts, where off-by-one frame clamping, tie
handling, and chunk-boundary bugs live.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from alco_ray.stages.window import _segment_bounds, _time_seek

segments = st.lists(st.integers(min_value=1, max_value=12),
                    min_size=1, max_size=6)


@given(seg_lens=segments, interval=st.integers(0, 20),
       seed=st.integers(0, 999))
@settings(max_examples=150, deadline=None)
def test_range_frame_bounds_bruteforce(seg_lens, interval, seed):
    rng = np.random.RandomState(seed)
    keys = np.repeat(np.arange(len(seg_lens)), seg_lens)
    # coarse ts grid plants exact ties; sorted within each segment
    ts = np.concatenate([np.sort(rng.randint(0, 25, size=m))
                         for m in seg_lens]).astype(np.int64)
    # the RANGE frame [ts - interval, ts] that grouped_range_count seeks
    seek = _time_seek(ts, *_segment_bounds(keys))
    rows = np.arange(len(keys))
    lo, hi = seek(rows, ts - interval, "left"), seek(rows, ts, "right")
    for i in range(len(keys)):
        in_frame = ((keys == keys[i]) & (ts >= ts[i] - interval)
                    & (ts <= ts[i]))
        assert hi[i] - lo[i] == in_frame.sum()
        # bounds really bracket the frame rows (sorted layout)
        assert in_frame[lo[i]:hi[i]].all()


texts = st.lists(
    st.lists(st.sampled_from(["ab", "c", "ddd", "e4", "Fg"]),
             min_size=0, max_size=40).map(" ".join),
    min_size=1, max_size=12)


@given(texts=texts, chunk_size=st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_chunk_documents_properties(texts, chunk_size):
    from alco_ray.stages.parse import tokenize
    from alco_ray.stages.text import chunk_documents

    batch = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts),
    })
    out = chunk_documents(batch, chunk_size=chunk_size).to_pylist()
    toks = tokenize(batch["text"], batch.num_rows).to_pylist()
    by_doc: dict[int, list] = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    for i, tk in enumerate(toks):
        rows = sorted(by_doc.get(i, []), key=lambda r: r["chunk_idx"])
        if not tk:
            assert rows == []
            continue
        # chunk count, contiguity, exact reassembly, size law
        assert len(rows) == -(-len(tk) // chunk_size)
        assert [r["chunk_idx"] for r in rows] == list(range(len(rows)))
        assert " ".join(r["chunk_text"] for r in rows) == " ".join(
            t.lower() for t in tk) or \
            " ".join(r["chunk_text"] for r in rows) == " ".join(tk)
        sizes = [r["n_tokens"] for r in rows]
        assert all(s == chunk_size for s in sizes[:-1])
        assert 1 <= sizes[-1] <= chunk_size
        assert sum(sizes) == len(tk)
