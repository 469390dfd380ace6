"""What importing gaitbo and running each command loads of scipy, and that
each scipy handle the package uses is looked up once per process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gaitbo
from gaitbo import bo, gp, safeset
from test_cli import firm_table_file, write_config, zero_table_file

SUBPACKAGES = ("scipy.linalg", "scipy.special", "scipy.spatial")


def fresh_run(code: str) -> dict:
    """Run code in a new interpreter; report the exit value it leaves in
    `code_exit` (if any), which scipy subpackages are loaded, and which of
    gaitbo's scipy handles were looked up."""
    report = f"""
import json, sys
from gaitbo import bo, gp, safeset
handles = {{"gp._lapack": gp._lapack, "bo._ndtr": bo._ndtr, "safeset._qhull": safeset._qhull}}
print(json.dumps({{
    "exit": globals().get("code_exit"),
    "loaded": [m for m in {SUBPACKAGES!r} if m in sys.modules],
    "resolved": sorted(n for n, f in handles.items() if f.cache_info().currsize),
}}))
"""
    src = str(Path(gaitbo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + report], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def run_cli(argv) -> dict:
    return fresh_run(f"from gaitbo.cli import main\ncode_exit = main({argv!r})\n")


class TestImportLoadsNoScipy:
    @pytest.mark.parametrize("module", ["gaitbo", "gaitbo.cli"])
    def test_import(self, module):
        got = fresh_run(f"import {module}\n")
        assert got["loaded"] == []
        assert got["resolved"] == []

    def test_simulate(self, tmp_path):
        got = run_cli(["simulate", "--table", firm_table_file(tmp_path), "--command",
                       "0", "0", "1.0", "--out", str(tmp_path / "t.csv")])
        assert got == {"exit": 0, "loaded": [], "resolved": []}

    def test_benchmark(self, tmp_path):
        got = run_cli(["benchmark", "--config", write_config(tmp_path), "--output-dir",
                       str(tmp_path / "out"), "--table", firm_table_file(tmp_path),
                       "--against", zero_table_file(tmp_path), "--plant", "sim"])
        assert got == {"exit": 0, "loaded": [], "resolved": []}

    def test_extract_safeset_looks_up_only_qhull(self, tmp_path):
        # scipy.spatial itself imports scipy.linalg and scipy.special, so what
        # the command alone decides is which of gaitbo's handles it resolves.
        got = run_cli(["extract-safeset", "--config", write_config(tmp_path), "--output-dir",
                       str(tmp_path / "out"), "--table", firm_table_file(tmp_path)])
        assert got["exit"] == 0
        assert "scipy.spatial" in got["loaded"]
        assert got["resolved"] == ["safeset._qhull"]


class TestHandlesLookedUpOnce:
    @pytest.fixture(autouse=True)
    def cleared(self):
        for handle in (gp._lapack, bo._ndtr, safeset._qhull):
            handle.cache_clear()

    def test_lapack(self, monkeypatch):
        calls = []
        lookup = scipy.linalg.get_lapack_funcs

        def counting(*args, **kwargs):
            calls.append(args)
            return lookup(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
        rng = np.random.default_rng(0)
        hyper = gp.Hyperparams(1.0, np.full(2, 0.3), 1e-2)
        models = []
        for n in (3, 5, 5, 8):
            models.append(gp.fit(rng.random((n, 2)), rng.random(n), hyper))
            gp.posterior_batch(models[-1], rng.random((4, 2)))
        stack = gp._stack_models(models[1:3])
        for rows in (1, 4):
            gp._stacked_moments(stack, rng.random((2, rows, 2)), gp._workspace(2, 5, rows))
        gp._fit_best(rng.random((6, 2)), rng.random(6), gp.default_hyper_grid(2))
        assert len(calls) == 1
        assert gp._lapack.cache_info().hits > 10

    def test_ndtr(self):
        for mean in (-1.0, 0.0, 2.0):
            bo.expected_improvement(mean, 0.5, 0.0)
            bo.feasibility_from_moments(mean, 0.5)
        bo._ei_values(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.5)
        info = bo._ndtr.cache_info()
        assert (info.misses, info.hits) == (1, 6)

    def test_qhull(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            safeset.convex_hull(rng.random((12, 3)))
        info = safeset._qhull.cache_info()
        assert (info.misses, info.hits) == (1, 2)
