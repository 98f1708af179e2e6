"""Benchmark of the transcript pipeline (``alco_ray``): fresh ingest,
incremental append and sink-tree queries.  Entry point: ``run.py``."""
