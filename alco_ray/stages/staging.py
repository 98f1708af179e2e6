"""The staged build every persisted index shares.

The LSH and IVF indexes (``similarity``), the text index
(``textindex``) and the value-range index (``attrindex``) are
directories that are built once and probed many times.  Each is built
by :func:`staged_index`: orphans of crashed builds are swept, the new
index is written into a ``.{name}.building.<pid>`` directory beside
it, ``meta.json`` is written last, and two renames swap it in.  A
reader therefore sees the old index or the whole new one, never a
torn or merged one.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from pathlib import Path


@contextlib.contextmanager
def staged_index(index_dir):
    """Yield ``(build_dir, meta)`` for a new build of ``index_dir``:
    the body writes the index into ``build_dir`` and its sidecar keys
    into the ``meta`` dict.  When the body returns, ``meta.json`` is
    written last and the build swapped in: the old directory renamed
    aside, the new one renamed in, the old one removed.  When it
    raises, the old index stays as it was and the staging directory
    is left for the next build's sweep, as after a crash.

    Concurrent rebuilds of one index still need external coordination
    (single writer, like the dict cache); a probe racing the two
    renames can transiently miss the directory."""
    d = Path(index_dir)
    for stale in d.parent.glob(f".{d.name}.building.*"):
        shutil.rmtree(stale, ignore_errors=True)
    build = d.parent / f".{d.name}.building.{os.getpid()}"
    build.mkdir(parents=True, exist_ok=True)
    meta: dict = {}
    yield build, meta
    (build / "meta.json").write_text(json.dumps(meta))
    trash = None
    if d.exists():
        trash = d.parent / f".{d.name}.trash.{os.getpid()}"
        os.rename(d, trash)
    os.rename(build, d)
    if trash is not None:
        shutil.rmtree(trash, ignore_errors=True)
