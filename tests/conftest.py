"""Session-scoped Ray fixture — ONE ray.init per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture
def small_frames(monkeypatch):
    """Cap ``keyed_apply`` frames at 25 rows, so a kernel runs over
    many frames and the frame cut lands inside key groups."""
    from alco_ray.stages import window

    monkeypatch.setattr(window, "FRAME_ROWS", 25)


@pytest.fixture(scope="session")
def t_small_dir():
    from alco_ray import fixtures

    return fixtures.ensure_corpus("t-small")


@pytest.fixture(scope="session")
def t_small_table(t_small_dir):
    import pyarrow.parquet as pq

    return pq.read_table(t_small_dir)


@pytest.fixture(scope="session")
def t_small_oracle(t_small_table):
    from alco_ray.oracle import oracle_run_table

    return oracle_run_table(t_small_table)
