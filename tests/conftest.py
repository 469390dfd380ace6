import os

import pytest

from gaitbo.pipeline import (
    baseline_table,
    benchmark,
    desk_scale_config,
    extract_safe_set,
    learn_real,
    learn_sim,
)
from gaitbo.plant import real_config


def run_phases(cfg, out_dir) -> dict:
    """All four phases in order, as the CLI chains them, artifacts under out_dir.

    Returns the artifact paths keyed by name.
    """
    table_sim = learn_sim(cfg, out_dir=out_dir)
    _, poly = extract_safe_set(table_sim, cfg, out_dir=out_dir)
    table_real, _ = learn_real(table_sim, poly, cfg, out_dir=out_dir)
    benchmark(table_real, baseline_table(cfg), cfg, real_config(), out_dir=out_dir)
    return {name: os.path.join(out_dir, name + ".json")
            for name in ("gaintable_sim", "safeset", "gaintable_real", "benchmark")}


@pytest.fixture(scope="session")
def pipeline_run():
    """run_phases, for tests that run the whole pipeline themselves."""
    return run_phases


@pytest.fixture(scope="session")
def desk_cfg():
    return desk_scale_config()


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory, desk_cfg):
    """One full desk-scale pipeline run shared by every test that needs it."""
    out = tmp_path_factory.mktemp("desk_run")
    paths = run_phases(desk_cfg, str(out))
    return {"out": str(out), "paths": paths}
