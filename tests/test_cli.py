"""Command-line behavior: config merging, exit codes, artifacts."""

import copy
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbo.cli import CliConfig, load_cli_config, main
from gaitbo.domain import ControlParams
from gaitbo.errors import ConfigurationError
from gaitbo.pipeline import desk_scale_config, full_scale_config, real_budget
from gaitbo.safeset import convex_hull, save_polyhedron
from gaitbo.scheduler import GainTable, load_table, save_table, table_to_json_dict

TINY = {
    "seed": 0,
    "i1": 6, "i2": 4, "i3": 3,
    "init_counts": [3, 2, 2],
    "p_sim1": [[0.0, 0.0, 1.0]],
    "p_sim2": [[0.4, 0.0, 1.0]],
    "p_real": [[0.0, 0.0, 1.0]],
    "sweep_vx": [-0.4, 0.0, 0.4],
    "sweep_vy": [0.0],
    "sweep_h": [0.8, 1.0],
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    data = dict(TINY)
    if extra:
        data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def zero_table_file(tmp_path):
    table = GainTable.constant(ControlParams(np.zeros(3), np.zeros(3), np.zeros(3)))
    path = tmp_path / "zero.json"
    save_table(table, path)
    return str(path)


def firm_table_file(tmp_path):
    table = GainTable.constant(ControlParams([2.0, 2.0, 2.0], [0.5, 0.5, 0.5], [0.1, 0.0, 0.0]))
    path = tmp_path / "firm.json"
    save_table(table, path)
    return str(path)


def safe_set_file(tmp_path):
    poly = convex_hull([[0.0, 0.0, 0.8], [0.4, 0.0, 0.8], [0.0, 0.2, 0.8], [0.0, 0.0, 1.0]])
    path = tmp_path / "safeset.json"
    save_polyhedron(poly, path)
    return str(path)


class TestConfigLoading:
    def test_empty_config_is_desk_scale(self):
        cli = load_cli_config(None)
        desk = desk_scale_config()
        assert cli.pipeline.node_axes == desk.node_axes
        assert cli.pipeline.p_sim2 == desk.p_sim2
        assert cli.pipeline.i1 == 40
        assert cli.output_dir == "."

    def test_file_overrides_defaults(self, tmp_path):
        cli = load_cli_config(write_config(tmp_path, {"seed": 7}))
        assert cli.pipeline.seed == 7
        assert cli.pipeline.i1 == 6

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, {"seed": 7, "output_dir": "from_file",
                                       "plant": "real"})
        cli = load_cli_config(path, seed=99, output_dir="from_flag", plant="sim")
        assert cli.pipeline.seed == 99
        assert cli.output_dir == "from_flag"
        assert cli.plant == "sim"

    def test_integer_objective_scalars_load_as_floats(self, tmp_path):
        path = write_config(tmp_path, {"objective": {"fall_penalty": 100, "segment_duration": 5}})
        objective = load_cli_config(path).pipeline.objective
        assert type(objective.fall_penalty) is float and objective.fall_penalty == 100.0
        assert type(objective.segment_duration) is float and objective.segment_duration == 5.0

    def test_jobs_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"jobs": 2})
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            load_cli_config(path)

    @pytest.mark.parametrize("value", [True, False])
    def test_verbose_takes_a_json_boolean(self, tmp_path, value):
        cli = load_cli_config(write_config(tmp_path, {"verbose": value}))
        assert cli.verbose is value

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_verbose_rejects_non_booleans(self, tmp_path, value):
        path = write_config(tmp_path, {"verbose": value})
        with pytest.raises(ConfigurationError, match="verbose"):
            load_cli_config(path)

    @pytest.mark.parametrize("key,value", [
        ("sweep_h", [0.8, float("nan")]),
        ("sweep_vx", [float("-inf"), 0.0]),
        ("vx_nodes", [0.0, float("inf")]),
    ])
    def test_non_finite_axis_rejected_on_load(self, tmp_path, key, value):
        path = write_config(tmp_path, {key: value})
        with pytest.raises(ConfigurationError, match="finite"):
            load_cli_config(path)

    def test_full_scale_selector(self):
        cli = load_cli_config(None)
        assert cli.pipeline.p_sim2 == desk_scale_config().p_sim2
        # switching scale pulls in the full-size gait sets
        import json as _json
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            _json.dump({"scale": "full"}, fh)
            name = fh.name
        full = load_cli_config(name)
        want = full_scale_config()
        assert full.pipeline.node_axes == want.node_axes
        assert (full.pipeline.i1, full.pipeline.i2) == (want.i1, want.i2)
        assert len(full.pipeline.p_sim2) == 304

    def test_desk_scale_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"desk_scale": "no"})
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            load_cli_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {"iterations": 5})
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            load_cli_config(path)

    def test_bad_scale_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scale": "huge"})
        with pytest.raises(ConfigurationError, match="scale"):
            load_cli_config(path)

    def test_objective_subdict(self, tmp_path):
        path = write_config(tmp_path, {
            "objective": {"w1": [2.0, 2.0, 2.0], "segment_duration": 4.0},
            "constraint": {"tolerance": 0.1},
        })
        cli = load_cli_config(path)
        np.testing.assert_array_equal(np.diag(cli.pipeline.objective.w1), 2.0)
        assert cli.pipeline.objective.segment_duration == 4.0
        assert cli.pipeline.constraint.tolerance == 0.1

    def test_off_grid_gait_rejected(self, tmp_path):
        path = write_config(tmp_path, {"p_real": [[0.1, 0.0, 1.0]]})
        with pytest.raises(ConfigurationError, match="invalid config"):
            load_cli_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_cli_config(str(tmp_path / "nope.json"))

    def test_bad_plant_name(self, tmp_path):
        path = write_config(tmp_path, {"plant": "moon"})
        with pytest.raises(ConfigurationError, match="plant"):
            load_cli_config(path)


KNOWN_KEYS = sorted(set(TINY) | {
    "scale", "output_dir", "plant", "verbose", "objective", "constraint",
    "vx_nodes", "vy_nodes", "h_nodes", "kp_bounds", "kd_bounds", "delta_p_bound",
    "w1", "w2", "tolerance", "fall_penalty", "segment_duration",
})
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.integers(), st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-2.0, 2.0),
    st.sampled_from(["desk", "full", "sim", "real", "", "inf", "nan"]), st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KNOWN_KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(edits=st.dictionaries(st.sampled_from(KNOWN_KEYS) | st.text(max_size=6),
                                 JSON_VALUES, max_size=4),
           on_tiny=st.booleans())
    def test_loads_or_raises_configuration_error(self, edits, on_tiny):
        # Known and unknown keys, wrong types, NaN, huge and negative numbers,
        # written over a valid config or alone: loading either succeeds or
        # raises ConfigurationError, never anything else.
        data = {**TINY, **edits} if on_tiny else edits
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            try:
                cli = load_cli_config(path)
            except ConfigurationError:
                return
        assert isinstance(cli, CliConfig)


# Every configured number written out, so that each has a place in the file.
NUMBERED = {
    **TINY,
    "vx_nodes": [-0.4, 0.0, 0.4], "vy_nodes": [0.0], "h_nodes": [0.8, 1.0],
    "kp_bounds": [0.0, 3.0], "kd_bounds": [0.0, 1.5],
    "delta_k_fraction": 1, "delta_k_floor": 1, "delta_p_bound": 1, "shrink_factor": 1,
    "objective": {"w1": [1.0, 1.0, 1.0], "w2": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]],
                  "segment_duration": 5.0, "fall_penalty": 100.0},
    "constraint": {"tolerance": 0.05},
}


def numeric_leaves(node, path=()):
    """The key path of every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if type(node) in (int, float) else []
    return [leaf for key, value in items for leaf in numeric_leaves(value, path + (key,))]


NUMBER_PATHS = numeric_leaves(NUMBERED)
NOT_NUMBERS = (st.booleans() | st.none() | st.text(max_size=4)
               | st.integers(min_value=2**1024) | st.integers(max_value=-2**1024))


class TestNumberRule:
    def test_written_out_config_loads_its_reals_as_floats(self, tmp_path):
        assert {path[0] for path in NUMBER_PATHS} == {
            "seed", "i1", "i2", "i3", "init_counts", "p_sim1", "p_sim2", "p_real",
            "vx_nodes", "vy_nodes", "h_nodes", "sweep_vx", "sweep_vy", "sweep_h",
            "kp_bounds", "kd_bounds", "delta_k_fraction", "delta_k_floor", "delta_p_bound",
            "shrink_factor", "objective", "constraint"}
        assert len(NUMBER_PATHS) == 51
        cfg = load_cli_config(write_config(tmp_path, NUMBERED)).pipeline
        reals = [cfg.delta_k_fraction, cfg.delta_k_floor, cfg.delta_p_bound, cfg.shrink_factor,
                 *cfg.kp_bounds, *cfg.kd_bounds, *cfg.node_axes[0], *cfg.sweep_h]
        assert reals[:4] == [1.0] * 4 and all(type(v) is float for v in reals)

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(NUMBER_PATHS), value=NOT_NUMBERS)
    def test_only_a_json_number_is_a_number(self, path, value):
        # a JSON true, false, string, null or an integer too large for a float
        # in place of any configured number is a configuration error, exit 2
        data = copy.deepcopy(NUMBERED)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump(data, fh)
            with pytest.raises(ConfigurationError):
                load_cli_config(cfg)
            out = os.path.join(tmp, "out")
            assert main(["learn-sim", "--config", cfg, "--output-dir", out]) == 2
            assert not os.path.exists(out)


class TestCommands:
    def test_learn_sim_writes_table(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["learn-sim", "--config", cfg, "--output-dir", out]) == 0
        table = load_table(Path(out) / "gaintable_sim.json")
        assert table.n_nodes == 6
        assert (Path(out) / "runs" / "sim1" / "vx0_vy0_h1" / "log.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["learn-sim", "--config", cfg, "--output-dir", str(out)]) == 0
        first = {p: p.read_bytes() for p in out.rglob("*.json")}
        assert main(["learn-sim", "--config", cfg, "--output-dir", str(out)]) == 0
        for p, content in first.items():
            assert p.read_bytes() == content

    def test_full_chain(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        for cmd in ("learn-sim", "extract-safeset", "learn-real", "benchmark"):
            assert main([cmd, "--config", cfg, "--output-dir", out]) == 0, cmd
        report = json.loads((Path(out) / "benchmark.json").read_text())
        assert report["table_a"]["label"] == "tuned"

    def test_learn_real_without_real_gaits_writes_the_input_table(self, tmp_path):
        cfg = write_config(tmp_path, {"p_real": []})
        assert real_budget(load_cli_config(cfg).pipeline) == 0
        out = tmp_path / "out"
        table = firm_table_file(tmp_path)
        assert main(["learn-real", "--config", cfg, "--output-dir", str(out),
                     "--table", table, "--safeset", safe_set_file(tmp_path)]) == 0
        assert (table_to_json_dict(load_table(out / "gaintable_real.json"))
                == table_to_json_dict(load_table(table)))
        assert not (out / "runs").exists()

    def test_benchmark_against_zero_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["learn-sim", "--config", cfg, "--output-dir", out]) == 0
        zero = zero_table_file(tmp_path)
        code = main(["benchmark", "--config", cfg, "--output-dir", out,
                     "--table", str(Path(out) / "gaintable_sim.json"),
                     "--against", zero, "--plant", "sim"])
        assert code == 0
        report = json.loads((Path(out) / "benchmark.json").read_text())
        assert report["table_a"]["feasible_count"] > report["table_b"]["feasible_count"]

    @pytest.mark.parametrize("name", ["tuned", "tie"])
    def test_benchmark_against_a_colliding_label_is_rejected(self, tmp_path, capsys, name):
        # The --against file's name becomes its label, and a label equal to
        # "tuned" or "tie" would name the wrong winner.
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        against = tmp_path / "tables" / name
        against.parent.mkdir()
        against.write_text(Path(zero_table_file(tmp_path)).read_text())
        code = main(["benchmark", "--config", cfg, "--output-dir", str(out),
                     "--table", firm_table_file(tmp_path), "--against", str(against),
                     "--plant", "sim"])
        assert code == 2
        assert "labels must differ" in capsys.readouterr().err
        assert not (out / "benchmark.json").exists()

    def test_simulate_equilibrium_prints_zero_cost(self, tmp_path, capsys):
        zero = zero_table_file(tmp_path)
        out = str(tmp_path / "eq.csv")
        code = main(["simulate", "--table", zero, "--command", "0", "0", "1.0",
                     "--disturbance-free", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cost 0\n" in printed
        header = Path(out).read_text().splitlines()[0]
        assert header == "t,vx_d,vy_d,h_d,vx,vy,h,dg1,dg2,dg3"

    def test_simulate_reports_fall(self, tmp_path, capsys):
        zero = zero_table_file(tmp_path)
        code = main(["simulate", "--table", zero, "--command", "0.5", "0.5", "1.0",
                     "--plant", "real", "--out", str(tmp_path / "t.csv")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "fell at" in printed
        assert "cost 100" in printed


class TestExitCodes:
    def test_malformed_config_exits_2_without_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["learn-sim", "--config", str(bad),
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "\n" not in err.strip()
        assert not out.exists()

    def test_missing_table_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--table", str(tmp_path / "no.json"),
                     "--command", "0", "0", "1"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_safeset_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["learn-sim", "--config", cfg, "--output-dir", out]) == 0
        assert main(["learn-real", "--config", cfg, "--output-dir",
                     str(tmp_path / "elsewhere")]) == 2

    def test_pipeline_failure_exits_1(self, tmp_path, capsys):
        # a zero-gain table has no feasible commands, so no safe set exists
        cfg = write_config(tmp_path)
        zero = zero_table_file(tmp_path)
        code = main(["extract-safeset", "--config", cfg,
                     "--output-dir", str(tmp_path / "out"), "--table", zero])
        assert code == 1
        assert "error: " in capsys.readouterr().err

    def test_string_verbose_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"verbose": "false"})
        assert main(["learn-sim", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "verbose" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", False])
    def test_constraint_h_observations_key_exits_2(self, tmp_path, capsys, value):
        # constraint observations are always used; the key is not a field
        cfg = write_config(tmp_path, {"constraint": {"h_observations": value}})
        out = tmp_path / "out"
        assert main(["learn-sim", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config") and "'h_observations'" in err
        assert "\n" not in err.strip()
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["learn-sim", "--output-dir", "{file}"],
        ["learn-sim", "--output-dir", "{file}/sub"],
        ["learn-sim", "--output-dir", "{file}/../sub"],
        ["extract-safeset", "--output-dir", "{file}", "--table", "{table}"],
        ["learn-real", "--output-dir", "{file}/sub", "--table", "{table}"],
        ["benchmark", "--output-dir", "{file}", "--table", "{table}"],
        ["simulate", "--table", "{table}", "--command", "0", "0", "1", "--out", "{dir}"],
        ["simulate", "--table", "{table}", "--command", "0", "0", "1",
         "--out", "{file}/x.csv"],
        ["simulate", "--table", "{table}", "--command", "0", "0", "1",
         "--output-dir", "{file}"],
    ])
    def test_unwritable_output_path_exits_2_before_any_episode(self, tmp_path, capsys,
                                                               monkeypatch, argv):
        def no_episode(*args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr("gaitbo.plant._rollout", no_episode)
        monkeypatch.setattr("gaitbo.objective._rollout", no_episode)
        cfg = write_config(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        paths = {"file": str(tmp_path / "afile"), "dir": str(tmp_path / "adir"),
                 "table": firm_table_file(tmp_path)}
        before = sorted(tmp_path.rglob("*"))
        assert main([arg.format(**paths) for arg in argv] + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "\n" not in err.strip()
        assert str(tmp_path) in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_budget_too_large_for_its_workspace_exits_2(self, tmp_path, capsys):
        # numpy refuses sim-1's posterior workspace at once, before any episode runs
        cfg = write_config(tmp_path, {"i1": 1e300})
        assert main(["learn-sim", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "workspace" in err and "\n" not in err.strip()

    def test_nan_axis_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sweep_h": [0.8, float("nan")]})
        assert main(["learn-sim", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_invalid_simulate_command_exits_2(self, tmp_path, capsys):
        zero = zero_table_file(tmp_path)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--table", zero, "--command", "0", "0", "-1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "height" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda entries: entries[0]["kD"].__setitem__(1, float("nan")), "must be finite"),
        (lambda entries: entries.insert(0, dict(entries[0], kP=[float("nan")] * 3)),
         "duplicate gain table entry"),
        (lambda entries: entries[0].__setitem__("p", [float("nan"), 0.0, 1.0]),
         "not a grid node"),
    ], ids=["nan_gain", "duplicate_after_nan", "nan_node"])
    def test_nan_gain_table_exits_2(self, tmp_path, capsys, edit, message):
        data = json.loads(Path(zero_table_file(tmp_path)).read_text())
        edit(data["entries"])
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "t.csv"
        assert main(["simulate", "--table", str(bad), "--command", "0", "0", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "incomplete" not in err
        assert "\n" not in err.strip()
        assert not out.exists()

    @pytest.mark.parametrize("place", ["axis", "p", "kP"])
    def test_oversized_integer_in_gain_table_exits_2(self, tmp_path, capsys, place):
        # legal JSON, but no float holds it
        data = json.loads(Path(zero_table_file(tmp_path)).read_text())
        {"axis": data["axes"]["vx"], "p": data["entries"][0]["p"],
         "kP": data["entries"][0]["kP"]}[place][0] = "HUGE"
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(data).replace('"HUGE"', "1" + "0" * 400))
        out = tmp_path / "t.csv"
        assert main(["simulate", "--table", str(bad), "--command", "0", "0", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed gain table") and "\n" not in err.strip()
        assert not out.exists()

    def test_negative_gain_table_exits_2(self, tmp_path, capsys):
        data = json.loads(Path(zero_table_file(tmp_path)).read_text())
        data["entries"][0]["kP"][0] = -1.0
        bad = tmp_path / "negative.json"
        bad.write_text(json.dumps(data))
        assert main(["simulate", "--table", str(bad),
                     "--command", "0", "0", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nonnegative" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("command", ["simulate", "extract-safeset", "learn-real"])
    @pytest.mark.parametrize("edit, message", [
        ({"entries": None}, "not iterable"),
        ({"axes": {"vx": [0.0, 0.0], "vy": [0.0], "h": [1.0]}}, "increase strictly"),
        ({"axes": {"vx": [], "vy": [0.0], "h": [1.0]}}, "at least one node"),
    ])
    def test_malformed_gain_table_exits_2(self, tmp_path, capsys, command, edit, message):
        data = json.loads(Path(zero_table_file(tmp_path)).read_text())
        data.update(edit)
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        args = {
            "simulate": ["simulate", "--command", "0", "0", "1",
                         "--out", str(out / "t.csv")],
            "extract-safeset": ["extract-safeset", "--config", write_config(tmp_path),
                                "--output-dir", str(out)],
            "learn-real": ["learn-real", "--config", write_config(tmp_path),
                           "--output-dir", str(out), "--safeset", safe_set_file(tmp_path)],
        }[command]
        assert main(args + ["--table", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed gain table document") and message in err
        assert "\n" not in err.strip()
        assert not out.exists()

    def test_safe_set_without_faces_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        bad = tmp_path / "safeset.json"
        bad.write_text(json.dumps({
            "gamma": 0.9,
            "vertices": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [0, 0, 2]],
            "faces": [],
        }))
        assert main(["learn-real", "--config", cfg, "--output-dir", str(tmp_path / "out"),
                     "--table", zero_table_file(tmp_path),
                     "--safeset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "faces" in err
        assert "\n" not in err.strip()

    @pytest.mark.parametrize("field, value, message", [
        ("n", [float("nan"), 0.0, 0.0], "normals must be finite"),
        ("n", [float("inf"), 0.0, 0.0], "normals must be finite"),
        ("n", [1.0, 0.0], "shape"),
        ("v", [0, 1, float("inf")], "infinity"),
        ("v", [0, 1, 2.5], "whole-number vertex indices"),
        ("anchor", True, "whole-number vertex indices"),
    ])
    def test_malformed_safe_set_face_exits_2(self, tmp_path, capsys, field, value, message):
        data = json.loads(Path(safe_set_file(tmp_path)).read_text())
        data["faces"][0][field] = value
        bad = tmp_path / "bad_safeset.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["learn-real", "--config", write_config(tmp_path), "--output-dir", str(out),
                     "--table", zero_table_file(tmp_path), "--safeset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed safe-set document") and message in err
        assert "\n" not in err.strip()
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, "1"], ids=["true", "string"])
    @pytest.mark.parametrize("key", ["kP", "kD", "deltaP"])
    def test_non_number_in_gain_table_array_exits_2(self, tmp_path, capsys, key, value):
        # numpy would read either as 1.0
        data = json.loads(Path(zero_table_file(tmp_path)).read_text())
        data["entries"][0][key][0] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "t.csv"
        assert main(["simulate", "--table", str(bad), "--command", "0", "0", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed gain table entry")
        assert f"gain table entry {key} must be a number" in err and "\n" not in err.strip()
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, "1"], ids=["true", "string"])
    @pytest.mark.parametrize("array, what", [
        (lambda data: data["vertices"][0], "vertices"),
        (lambda data: data["faces"][0]["n"], "normals"),
    ], ids=["vertices", "normal"])
    def test_non_number_in_safe_set_array_exits_2(self, tmp_path, capsys, array, what, value):
        data = json.loads(Path(safe_set_file(tmp_path)).read_text())
        array(data)[0] = value
        bad = tmp_path / "bad_safeset.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["learn-real", "--config", write_config(tmp_path), "--output-dir", str(out),
                     "--table", zero_table_file(tmp_path), "--safeset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: malformed safe-set document: {what} must be integers or floats")
        assert "\n" not in err.strip()
        assert not out.exists()

    def test_truncated_safe_set_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "safeset.json"
        bad.write_text("{")
        out = tmp_path / "out"
        assert main(["learn-real", "--config", write_config(tmp_path), "--output-dir", str(out),
                     "--table", zero_table_file(tmp_path), "--safeset", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not valid JSON" in err
        assert "\n" not in err.strip()
        assert not out.exists()

    @staticmethod
    def run_reading(tmp_path, flag, path):
        args = {
            "--config": ["learn-sim", "--config", path],
            "--table": ["simulate", "--table", path, "--command", "0", "0", "1"],
            "--safeset": ["learn-real", "--table", zero_table_file(tmp_path), "--safeset", path],
        }[flag]
        return main(args + ["--output-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("flag", ["--config", "--table", "--safeset"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, flag):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe")
        assert self.run_reading(tmp_path, flag, str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot be read" in err
        assert "\n" not in err.strip()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--config", "--table", "--safeset"])
    def test_directory_input_exits_2(self, tmp_path, capsys, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert self.run_reading(tmp_path, flag, str(folder)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot be read" in err
        assert "\n" not in err.strip()
        assert not (tmp_path / "out").exists()

    def test_rejected_learn_real_leaves_no_output_dir(self, tmp_path, capsys):
        bad = tmp_path / "safeset.json"
        bad.write_text(json.dumps({
            "gamma": 0.9,
            "vertices": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [0, 0, 2]],
            "faces": [],
        }))
        out = tmp_path / "out"
        assert main(["learn-real", "--config", write_config(tmp_path),
                     "--output-dir", str(out), "--table", zero_table_file(tmp_path),
                     "--safeset", str(bad)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ('"i1": 1e400', "i1"),
        ('"kp_bounds": [0, "inf"]', "kp_bounds"),
        ('"seed": -1', "seed"),
        ('"seed": 1.5', "seed"),
        ('"init_counts": [1e400, 2, 2]', "init_counts"),
        ('"delta_p_bound": 1e400', "delta_p_bound"),
        ('"objective": {"fall_penalty": 1e400}', "fall_penalty"),
        ('"output_dir": 5', "output_dir"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, text, message):
        # raw JSON text: 1e400 parses as inf, which json.dumps cannot write
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY)[:-1] + ", " + text + "}")
        out = tmp_path / "out"
        assert main(["learn-sim", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "\n" not in err.strip()
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("vx_nodes", 5, "vx_nodes"),
        ("init_counts", "ab", "init_counts"),
        ("kp_bounds", [0], "unpack"),
    ])
    def test_wrongly_shaped_config_value_exits_2(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "out"
        assert main(["learn-sim", "--config", write_config(tmp_path, {key: value}),
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "\n" not in err.strip()
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("init_counts", 5),
        ("p_real", 3),
        ("kp_bounds", [0]),
        ("kd_bounds", 3),
        ("objective", [1]),
        ("constraint", 3),
    ])
    def test_wrongly_shaped_config_value_names_its_key(self, tmp_path, capsys, key, value):
        # not iterable, or the wrong number of items: the message names the key
        out = tmp_path / "out"
        assert main(["learn-sim", "--config", write_config(tmp_path, {key: value}),
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {key} must be ")
        assert "\n" not in err.strip()
        assert not out.exists()

    @pytest.mark.parametrize("segment, message", [
        (0.1, "shorter than one step"),
        (100.0, "needs 250 samples"),
    ])
    def test_unsatisfiable_segment_duration_exits_2(self, tmp_path, capsys, segment,
                                                    message):
        # a 20 s episode at dt=0.4 has 51 samples: no segment of these lengths fits
        cfg = write_config(tmp_path, {"objective": {"segment_duration": segment}})
        out = tmp_path / "out"
        assert main(["learn-sim", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: segment_duration") and message in err
        assert "\n" not in err.strip()
        assert not out.exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert main(["learn-sim", "--config", write_config(tmp_path), "--seed", "-1",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["extract-safeset", "--jobs", "2"])
        assert info.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["train"])
        assert info.value.code == 2
