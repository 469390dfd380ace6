"""Phase orchestration: configs, budgets, table assembly, and benchmarks."""

import copy
import dataclasses
import itertools
import json
import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaitbo.bo as bo
import gaitbo.objective as objective
import gaitbo.pipeline as pipeline
import gaitbo.plant as plant_module
from gaitbo.bo import optimize
from gaitbo.domain import (ControlParams, GaitParameter, SeedSpec, correction_from_vector,
                           from_unit)
from gaitbo.errors import BlackBoxError, ConfigurationError, SafeSetError, SimulationError
from gaitbo.gp import posterior_batch
from gaitbo.objective import ObjectiveConfig, converged_stats, evaluate_cost
from gaitbo.pipeline import (
    _EPISODE_KEY,
    _STREAM_BASELINE,
    _STREAM_REAL,
    _STREAM_SIM1,
    _STREAM_SIM2,
    BenchmarkReport,
    PipelineConfig,
    TableBenchmark,
    _failure_names_gait,
    _fill_table,
    _gain_black_box,
    _learning_observer,
    _sim_gains,
    _sim_levels,
    _sim_schedule,
    _warm_design,
    _write_log,
    baseline_table,
    benchmark,
    desk_scale_config,
    extract_safe_set,
    gait_run_name,
    learn_real,
    learn_sim,
    full_scale_config,
    real_budget,
    sim_budget,
)
from gaitbo.plant import learning_profile, real_config, run_episode, sim_config, stepping_start
from gaitbo.safeset import (SweepResult, constraint_value, convex_hull, load_polyhedron,
                            sweep_commands)
from gaitbo.scheduler import (GainTable, _interpolate, apply_corrections, load_table, lookup,
                              save_table)


def tiny_config(**overrides):
    """A minimal grid that learns in well under a second."""
    base = dict(
        vx_nodes=(-0.4, 0.0, 0.4),
        vy_nodes=(0.0,),
        h_nodes=(0.8, 1.0),
        p_sim1=(GaitParameter(0.0, 0.0, 1.0),),
        p_sim2=(GaitParameter(0.4, 0.0, 1.0),),
        p_real=(GaitParameter(0.0, 0.0, 1.0),),
        i1=3, i2=2, i3=2,
        init_counts=(2, 1, 1),
        sweep_vx=(-0.4, 0.0, 0.4),
        sweep_vy=(0.0,),
        sweep_h=(0.8, 1.0),
        seed=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _nearest(gait: GaitParameter, completed: list) -> tuple:
    """Closest finished gait and its optimum; earliest finish breaks ties."""
    best = None
    for other, params in completed:
        d = float(np.linalg.norm(gait.as_array() - other.as_array()))
        if best is None or d < best[0]:
            best = (d, other, params)
    return best


def reference_sim_order(cfg):
    """learn_sim's run order as first written: before every sim-2 run, each
    remaining gait is ranked again by its distance to the finished ones.

    Each finished gait's schedule position stands in for its optimum, so the
    result reads as _sim_schedule's (phase, index, gait, parent, dist).
    """
    completed: list = []
    order = []
    for i, gait in enumerate(cfg.p_sim1):
        order.append(("sim1", i, gait, None, None))
        completed.append((gait, len(order) - 1))

    remaining = list(enumerate(cfg.p_sim2))
    while remaining:
        ranked = []
        for orig_idx, gait in remaining:
            d, _, params = _nearest(gait, completed)
            ranked.append((d, orig_idx, gait, params))
        d, orig_idx, gait, incumbent = min(ranked, key=lambda r: (r[0], r[1]))
        remaining = [(i, g) for i, g in remaining if i != orig_idx]
        order.append(("sim2", orig_idx, gait, incumbent, d))
        completed.append((gait, len(order) - 1))
    return order


def full_learn_sim_slice():
    """One full-scale nominal gait and its 8 nearest sim-2 gaits."""
    full = full_scale_config()
    start = full.p_sim1[0]
    nearest = sorted(range(len(full.p_sim2)), key=lambda i: (
        float(np.linalg.norm(full.p_sim2[i].as_array() - start.as_array())), i))
    return dataclasses.replace(
        full, p_sim1=(start,),
        p_sim2=tuple(full.p_sim2[i] for i in nearest[:8]))


class TestPipelineConfig:
    def test_desk_scale_defaults(self):
        cfg = desk_scale_config()
        assert len(cfg.p_sim1) == 2 and len(cfg.p_sim2) == 4 and len(cfg.p_real) == 2
        assert (cfg.i1, cfg.i2, cfg.i3) == (40, 15, 10)
        assert cfg.init_counts == (8, 5, 3)
        # sweep covers the stepping commands the safe set must contain
        assert 0.8 in cfg.sweep_h and 1.0 in cfg.sweep_h

    def test_full_scale_shape(self):
        cfg = full_scale_config()
        n_nodes = len(cfg.vx_nodes) * len(cfg.vy_nodes) * len(cfg.h_nodes)
        assert n_nodes == 308
        assert len(cfg.p_sim1) == 4
        assert len(cfg.p_sim2) == 304
        assert len(cfg.p_real) == 3

    def test_budget_arithmetic(self):
        full = full_scale_config()
        assert sim_budget(full) == 4 * 100 + 304 * 25 == 8000
        assert real_budget(full) == 3 * 10 == 30
        desk = desk_scale_config()
        assert sim_budget(desk) == 2 * 40 + 4 * 15
        assert real_budget(desk) == 2 * 10

    def test_off_grid_gait_rejected(self):
        with pytest.raises(ConfigurationError, match="not a grid node"):
            tiny_config(p_real=(GaitParameter(0.1, 0.0, 1.0),))

    def test_budget_below_init_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot cover"):
            tiny_config(i1=1, init_counts=(2, 1, 1))

    def test_duplicate_sim_gait_rejected(self):
        with pytest.raises(ConfigurationError, match="appears twice"):
            tiny_config(p_sim2=(GaitParameter(0.0, 0.0, 1.0),))

    def test_duplicate_real_gait_rejected(self):
        # both runs would correct one node and write one run directory
        gait = GaitParameter(0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="appears twice in p_real"):
            tiny_config(p_real=(gait, gait))

    def test_empty_p_sim1_rejected(self):
        with pytest.raises(ConfigurationError, match="p_sim1"):
            tiny_config(p_sim1=())

    def test_bad_shrink_rejected(self):
        with pytest.raises(ConfigurationError, match="shrink_factor"):
            tiny_config(shrink_factor=0.0)

    @pytest.mark.parametrize("axis,nodes,message", [
        ("sweep_h", (0.8, float("nan")), "finite"),
        ("vy_nodes", (float("-inf"), 0.0), "finite"),
        ("sweep_vx", (0.4, 0.0), "increase strictly"),
        ("h_nodes", (), "at least one node"),
        ("sweep_vy", (0.0, None), "sweep_vy"),
    ])
    def test_bad_axis_rejected(self, axis, nodes, message):
        with pytest.raises(ConfigurationError, match=message):
            tiny_config(**{axis: nodes})

    @pytest.mark.parametrize("field,value,message", [
        ("i1", float("inf"), "i1"),
        ("i2", 4.5, "i2"),
        ("i3", "3", "i3"),
        ("init_counts", (2, 1, float("nan")), "init_counts"),
        ("kp_bounds", (0.0, float("inf")), "kp_bounds"),
        ("seed", -1, "seed"),
        ("seed", 1.5, "seed"),
        ("seed", True, "seed"),
        ("delta_p_bound", float("inf"), "delta_p_bound"),
        ("delta_k_floor", float("nan"), "delta_k_floor"),
        ("delta_k_fraction", float("inf"), "delta_k_fraction"),
    ])
    def test_bad_number_rejected(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            tiny_config(**{field: value})

    def test_whole_float_budget_and_seed_accepted(self):
        cfg = tiny_config(i1=3.0, seed=7.0)
        assert (cfg.i1, cfg.seed) == (3, 7)
        assert isinstance(cfg.i1, int) and isinstance(cfg.seed, int)

    def test_gain_box_layout(self):
        cfg = desk_scale_config()
        box = cfg.gain_box
        np.testing.assert_array_equal(box.lower, [0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(box.upper, [3, 3, 3, 1.5, 1.5, 1.5])

    def test_correction_box_spans(self):
        cfg = desk_scale_config()
        inc = ControlParams([2.0, 1.0, 3.0], [1.0, 0.2, 0.0], np.zeros(3))
        box = cfg.correction_box(inc)
        np.testing.assert_allclose(box.upper, [1.0, 0.5, 0.5, 0.2, 0.2, 0.2])
        np.testing.assert_allclose(box.lower, -box.upper)

    def test_run_name_format(self):
        assert gait_run_name(GaitParameter(0.0, 0.0, 1.0)) == "vx0_vy0_h1"
        assert gait_run_name(GaitParameter(-0.4, 0.0, 0.8)) == "vx-0.4_vy0_h0.8"


class TestBaselineTable:
    def test_deterministic_and_in_central_half(self):
        cfg = desk_scale_config()
        a = baseline_table(cfg)
        b = baseline_table(cfg)
        np.testing.assert_array_equal(a.values, b.values)
        box = cfg.gain_box
        lo = box.lower + 0.25 * box.widths
        hi = box.lower + 0.75 * box.widths
        flat = a.values.reshape(-1, 9)
        assert np.all(flat[:, :6] >= lo) and np.all(flat[:, :6] <= hi)
        np.testing.assert_array_equal(flat[:, 6:], 0.0)

    def test_seed_changes_gains(self):
        a = baseline_table(desk_scale_config(seed=0))
        b = baseline_table(desk_scale_config(seed=1))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("cfg", [desk_scale_config(3), full_scale_config(2)],
                             ids=["desk", "full"])
    def test_one_draw_matches_node_by_node_draws(self, cfg):
        # the oracle draws each node's six gains in turn, in C order
        box = cfg.gain_box
        rng = cfg.root_seed().derive(_STREAM_BASELINE).generator()
        lo = box.lower + 0.25 * box.widths
        want = np.zeros((len(cfg.vx_nodes), len(cfg.vy_nodes), len(cfg.h_nodes), 9))
        for node in np.ndindex(want.shape[:3]):
            want[node][:6] = lo + 0.5 * box.widths * rng.random(6)
        np.testing.assert_array_equal(baseline_table(cfg).values, want)


class TestLearnSim:
    def test_nominal_node_matches_run_log(self, tmp_path):
        cfg = tiny_config()
        table = learn_sim(cfg, out_dir=str(tmp_path))
        log_path = tmp_path / "runs" / "sim1" / "vx0_vy0_h1" / "log.json"
        entries = json.loads(log_path.read_text())
        assert len(entries) == cfg.i1
        best = min(entries, key=lambda e: e["cost"])
        expected = from_unit(np.array(best["x"]), cfg.gain_box)
        node = table.node_params(1, 0, 1)  # vx=0, h=1.0
        np.testing.assert_allclose(np.concatenate([node.kP, node.kD]), expected,
                                   atol=1e-12)
        np.testing.assert_array_equal(node.deltaP, 0.0)

    def test_warm_start_log_contains_incumbent_first(self, tmp_path):
        cfg = tiny_config()
        learn_sim(cfg, out_dir=str(tmp_path))
        sim1 = json.loads((tmp_path / "runs/sim1/vx0_vy0_h1/log.json").read_text())
        sim2 = json.loads((tmp_path / "runs/sim2/vx0.4_vy0_h1/log.json").read_text())
        best_sim1 = min(sim1, key=lambda e: e["cost"])["x"]
        np.testing.assert_allclose(sim2[0]["x"], best_sim1, atol=1e-12)

    def test_unvisited_nodes_interpolate_from_complete_subgrid(self):
        # visited: vx in {0, 0.4} at both heights; vx=-0.4 clamps onto vx=0
        cfg = tiny_config(
            p_sim1=(GaitParameter(0.0, 0.0, 1.0), GaitParameter(0.0, 0.0, 0.8)),
            p_sim2=(GaitParameter(0.4, 0.0, 1.0), GaitParameter(0.4, 0.0, 0.8)),
        )
        table = learn_sim(cfg)
        for k in range(2):
            filled = table.node_params(0, 0, k)   # vx=-0.4, unvisited
            source = table.node_params(1, 0, k)   # vx=0, visited
            np.testing.assert_array_equal(filled.as_vector(), source.as_vector())

    def test_unvisited_nodes_copy_nearest_when_subgrid_incomplete(self):
        # visited nodes (0,0,1.0) and (0.4,0,0.8) do not form a sub-grid
        cfg = tiny_config(
            p_sim1=(GaitParameter(0.0, 0.0, 1.0),),
            p_sim2=(GaitParameter(0.4, 0.0, 0.8),),
        )
        table = learn_sim(cfg)
        near_center = table.node_params(0, 0, 1)  # (-0.4, 0, 1.0)
        center = table.node_params(1, 0, 1)       # (0, 0, 1.0), distance 0.4
        np.testing.assert_array_equal(near_center.as_vector(), center.as_vector())

    def test_deterministic(self):
        cfg = tiny_config()
        a = learn_sim(cfg)
        b = learn_sim(cfg)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("segment, message", [
        (0.1, "shorter than one step of dt=0.4"),
        (100.0, "needs 250 samples of dt=0.4, but a trajectory has 51"),
    ])
    def test_unsatisfiable_segment_rejected_before_any_episode(self, segment, message,
                                                               tmp_path, monkeypatch):
        # a 20 s episode at dt=0.4 has 51 samples; the segment needs 1 to 51
        def no_episodes(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(objective, "_rollout", no_episodes)
        monkeypatch.setattr(plant_module, "_rollout", no_episodes)
        cfg = tiny_config(objective=ObjectiveConfig(segment_duration=segment))
        with pytest.raises(ConfigurationError, match=message):
            learn_sim(cfg, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestSimSchedule:
    """_sim_schedule fixes the order the sequential ranking gave, bit for bit."""

    def test_desk_matches_reference(self, desk_cfg):
        schedule = _sim_schedule(desk_cfg)
        assert schedule == reference_sim_order(desk_cfg)
        assert [run[0] for run in schedule] == ["sim1"] * 2 + ["sim2"] * 4

    def test_full_learn_sim_slice_matches_reference(self):
        cfg = full_learn_sim_slice()
        schedule = _sim_schedule(cfg)
        assert schedule == reference_sim_order(cfg)
        assert len(schedule) == 9 and all(run[3] is not None for run in schedule[1:])

    @settings(max_examples=40, deadline=None)
    @given(nodes=st.lists(st.integers(0, 307), min_size=1, max_size=60, unique=True),
           n_sim1=st.integers(1, 60))
    def test_random_splits_of_full_grid_match_reference(self, nodes, n_sim1):
        full = full_scale_config()
        grid = [GaitParameter(a, b, c) for a in full.vx_nodes
                for b in full.vy_nodes for c in full.h_nodes]
        picked = [grid[i] for i in nodes]
        n_sim1 = min(n_sim1, len(picked))
        cfg = dataclasses.replace(full, p_sim1=tuple(picked[:n_sim1]),
                                  p_sim2=tuple(picked[n_sim1:]))
        assert _sim_schedule(cfg) == reference_sim_order(cfg)

    def test_learn_sim_runs_the_schedule(self, tmp_path):
        # each sim-2 run starts from its scheduled parent's optimum
        cfg = tiny_config(
            p_sim1=(GaitParameter(0.0, 0.0, 1.0), GaitParameter(0.0, 0.0, 0.8)),
            p_sim2=(GaitParameter(0.4, 0.0, 1.0), GaitParameter(-0.4, 0.0, 0.8)),
        )
        learn_sim(cfg, out_dir=str(tmp_path))
        schedule = _sim_schedule(cfg)
        for phase, _, gait, parent, _ in schedule[2:]:
            _, _, source, _, _ = schedule[parent]
            parent_log = json.loads((tmp_path / "runs" / schedule[parent][0]
                                     / gait_run_name(source) / "log.json").read_text())
            log = json.loads((tmp_path / "runs" / phase / gait_run_name(gait)
                              / "log.json").read_text())
            best = min(parent_log, key=lambda e: e["cost"])["x"]
            np.testing.assert_allclose(log[0]["x"], best, atol=1e-12)


def reference_run_bo(what, gait, black_box, box, run_seed, iterations, init_count,
                     first=None, spec=None):
    """One gait's BO run through optimize, as the sequential phases ran it; a
    failure names the phase's quantity and the gait.

    Given a first design point, the rest of the initial design is drawn from
    the run seed's stream 0; without one, optimize draws the whole design.
    """
    design = None if first is None else _warm_design(first, run_seed, box, init_count)
    with _failure_names_gait(what, gait):
        return optimize(black_box, box, iterations, init_count, spec=spec,
                        initial_design=design, seed=run_seed)


def reference_gain_black_box(gait, cfg, plant, run_seed):
    """One gain run's black box as a closure: its own episode counter, one
    run_episode call and one evaluate_cost call per evaluation."""
    profile = learning_profile(gait)
    start = stepping_start(gait)
    counter = itertools.count()

    def black_box(x):
        idx = next(counter)
        table = GainTable.constant(ControlParams(x[:3], x[3:6], np.zeros(3)))
        traj = run_episode(plant, table, profile, start, run_seed.derive(_EPISODE_KEY, idx))
        return evaluate_cost(traj, gait, cfg.objective), None, traj.fell

    return black_box


def reference_learn_sim(cfg, out_dir=None):
    """learn_sim as a sequential loop over _sim_schedule: one optimize call
    per run, each run's log written as it finishes."""
    plant = sim_config()
    root = cfg.root_seed()
    box = cfg.gain_box
    budgets = {"sim1": (_STREAM_SIM1, cfg.i1, cfg.init_counts[0]),
               "sim2": (_STREAM_SIM2, cfg.i2, cfg.init_counts[1])}
    found: list = []
    visited: dict = {}
    for phase, index, gait, parent, _ in _sim_schedule(cfg):
        stream, iterations, init_count = budgets[phase]
        run_seed = root.derive(stream, index)
        first = None
        if parent is not None:
            first = np.concatenate([found[parent].kP, found[parent].kD])
        result = reference_run_bo("gain", gait,
                                  reference_gain_black_box(gait, cfg, plant, run_seed),
                                  box, run_seed, iterations, init_count, first=first)
        x = from_unit(result.best_x, box)
        params = ControlParams(x[:3], x[3:6], np.zeros(3))
        found.append(params)
        visited[(gait.vx, gait.vy, gait.h)] = params
        _write_log(result, out_dir, phase, gait)
    table = _fill_table(cfg, {key: params.as_vector() for key, params in visited.items()})
    if out_dir is not None:
        save_table(table, os.path.join(out_dir, "gaintable_sim.json"))
    return table


def reference_correction_black_box(gait, table, poly, cfg, plant, run_seed):
    """One real run's black box as a closure: its own episode counter and one
    run_episode call per evaluation."""
    profile = learning_profile(gait)
    start = stepping_start(gait)
    counter = itertools.count()

    def black_box(c):
        idx = next(counter)
        corrected = apply_corrections(table, [(gait, correction_from_vector(c))])
        traj = run_episode(plant, corrected, profile, start,
                           run_seed.derive(_EPISODE_KEY, idx))
        cost = evaluate_cost(traj, gait, cfg.objective)
        if traj.fell:
            return cost, 0.5, True
        stats = converged_stats(traj, cfg.objective.segment_duration)
        return cost, constraint_value(poly, stats.p_c), False

    return black_box


def reference_learn_real(table, poly, cfg, out_dir=None):
    """learn_real as a sequential loop over p_real: one optimize call per
    run, each run's log written as it finishes."""
    plant = real_config()
    root = cfg.root_seed()
    corrections = []
    for i, gait in enumerate(cfg.p_real):
        run_seed = root.derive(_STREAM_REAL, i)
        box = cfg.correction_box(lookup(table, gait))
        black_box = reference_correction_black_box(gait, table, poly, cfg, plant, run_seed)
        result = reference_run_bo("correction", gait, black_box, box, run_seed, cfg.i3,
                                  cfg.init_counts[2], first=np.zeros(6), spec=cfg.constraint)
        corrections.append((gait, correction_from_vector(from_unit(result.best_x, box))))
        _write_log(result, out_dir, "real", gait)
    corrected = apply_corrections(table, corrections)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_table(corrected, os.path.join(out_dir, "gaintable_real.json"))
    return corrected, corrections


def history_rows(history) -> list:
    """A BO history as plain values, comparable with ==."""
    return [(ev.x.tolist(), ev.cost, ev.h_value, ev.fell) for ev in history]


def tree_bytes(root) -> dict:
    return {os.path.relpath(os.path.join(d, f), root): open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(root) for f in files}


def multi_level_config():
    """Three sim-2 levels of width 4 or more: 4, 6 and 4."""
    nodes = [GaitParameter(vx, vy, 1.0) for vx in (-0.4, -0.2, 0.0, 0.2, 0.4)
             for vy in (-0.2, 0.0, 0.2)]
    return tiny_config(vx_nodes=(-0.4, -0.2, 0.0, 0.2, 0.4), vy_nodes=(-0.2, 0.0, 0.2),
                       h_nodes=(1.0,), p_sim1=(nodes[7],), p_sim2=nodes[:7] + nodes[8:],
                       i1=6, i2=6, init_counts=(2, 2, 1))


class TestLockstep:
    """Each sim-2 level runs in lockstep and gives the sequential loop's artifacts."""

    @pytest.mark.parametrize("cfg, widths", [
        (full_scale_config(), [4, 4, 6, 8, 5, 8, 13, 20, 28, 34, 38, 38, 34, 28, 20, 12,
                               6, 2]),
        (desk_scale_config(), [2, 2, 2]),
        (full_learn_sim_slice(), [1, 4, 4]),
        (multi_level_config(), [1, 4, 6, 4]),
    ], ids=["full", "desk", "full_learn_sim", "multi_level"])
    def test_level_widths(self, cfg, widths):
        schedule = _sim_schedule(cfg)
        levels = _sim_levels(schedule)
        assert [len(level) for level in levels] == widths
        assert sorted(p for level in levels for p in level) == list(range(len(schedule)))
        assert all(schedule[p][3] is None for p in levels[0])
        for depth, level in enumerate(levels[1:], start=1):
            assert all(schedule[p][0] == "sim2" and schedule[p][3] in levels[depth - 1]
                       for p in level)

    @pytest.mark.parametrize("make_cfg", [desk_scale_config, multi_level_config],
                             ids=["desk", "multi_level"])
    def test_same_logs_and_table_as_sequential_loop(self, make_cfg, tmp_path):
        cfg = make_cfg()
        learn_sim(cfg, out_dir=str(tmp_path / "lockstep"))
        reference_learn_sim(cfg, out_dir=str(tmp_path / "sequential"))
        got = tree_bytes(tmp_path / "lockstep")
        assert len(got) == len(cfg.p_sim1) + len(cfg.p_sim2) + 1
        assert got == tree_bytes(tmp_path / "sequential")

    @pytest.mark.parametrize("make_cfg, depth, slot", [
        (desk_scale_config, 1, 1),  # the second episode of a level-of-2 batch
        (multi_level_config, 1, 3),
        (multi_level_config, 2, 0),
        (multi_level_config, 3, 2),
    ], ids=["desk-1-1", "multi_level-1-3", "multi_level-2-0", "multi_level-3-2"])
    def test_failing_episode_names_its_own_run(self, make_cfg, depth, slot, tmp_path,
                                               monkeypatch):
        cfg = make_cfg()
        schedule = _sim_schedule(cfg)
        levels = _sim_levels(schedule)
        target = learning_profile(schedule[levels[depth][slot]][2])
        failure = "plant state became non-finite at step 7"

        rollout = plant_module._rollout

        # the sequential loop, its one-episode rollout failing at the first
        # episode of that run
        def failing_single(plant, tables, profiles, initials, seeds):
            if profiles[0] == target:
                raise SimulationError(failure, step_index=7)
            return rollout(plant, tables, profiles, initials, seeds)

        monkeypatch.setattr(plant_module, "_rollout", failing_single)
        with pytest.raises(BlackBoxError) as sequential:
            reference_learn_sim(cfg)
        monkeypatch.setattr(plant_module, "_rollout", rollout)
        reference_learn_sim(cfg, out_dir=str(tmp_path / "sequential"))

        # lockstep, the level's first rollout failing at that run's episode
        def failing_batch(plant, tables, profiles, initials, seeds):
            if target in profiles:
                assert len(tables) == len(levels[depth])
                raise SimulationError(failure, step_index=7,
                                      episode_index=profiles.index(target))
            return rollout(plant, tables, profiles, initials, seeds)

        monkeypatch.setattr(objective, "_rollout", failing_batch)
        with pytest.raises(BlackBoxError) as lockstep:
            learn_sim(cfg, out_dir=str(tmp_path / "lockstep"))
        assert str(lockstep.value) == str(sequential.value)
        gait = schedule[levels[depth][slot]][2]
        assert str(lockstep.value).startswith(
            f"gain learning failed at gait ({gait.vx}, {gait.vy}, {gait.h}): "
            "black box failed at x=")
        assert str(lockstep.value).endswith(failure)
        assert lockstep.value.history == sequential.value.history == ()
        # every run of the earlier levels has its log; the failing level has none
        finished = {os.path.join("runs", phase, gait_run_name(gait), "log.json")
                    for level in levels[:depth] for phase, _, gait, _, _ in
                    (schedule[p] for p in level)}
        want = {path: data for path, data in tree_bytes(tmp_path / "sequential").items()
                if path in finished}
        assert len(want) == len(finished)
        assert tree_bytes(tmp_path / "lockstep") == want


def three_real_runs_config(seed: int = 0):
    """Desk with a third real gait, off the stepping line, and i3=12."""
    return dataclasses.replace(
        desk_scale_config(seed), i3=12,
        p_real=(GaitParameter(0.0, 0.0, 1.0), GaitParameter(0.0, 0.0, 0.8),
                GaitParameter(0.4, 0.0, 1.0)))


class TestRealLockstep:
    """The p_real runs form one constrained lockstep level and give the
    sequential loop's artifacts."""

    @staticmethod
    def inputs(desk_run):
        return (load_table(desk_run["paths"]["gaintable_sim"]),
                load_polyhedron(desk_run["paths"]["safeset"]))

    @staticmethod
    def assert_same_as_sequential(table, poly, cfg, tmp_path) -> list:
        """Check that learn_real writes reference_learn_real's bytes and
        returns its corrections; return the run logs it wrote."""
        got_table, got = learn_real(table, poly, cfg, out_dir=str(tmp_path / "lockstep"))
        want_table, want = reference_learn_real(table, poly, cfg,
                                                out_dir=str(tmp_path / "sequential"))
        lockstep = tree_bytes(tmp_path / "lockstep")
        assert len(lockstep) == len(cfg.p_real) + 1
        assert lockstep == tree_bytes(tmp_path / "sequential")
        np.testing.assert_array_equal(got_table.values, want_table.values)
        assert [gait for gait, _ in got] == list(cfg.p_real) == [gait for gait, _ in want]
        for (_, a), (_, b) in zip(got, want):
            np.testing.assert_array_equal(a.deltaK, b.deltaK)
            np.testing.assert_array_equal(a.deltaP, b.deltaP)
        return [json.loads(data) for path, data in sorted(lockstep.items())
                if path.startswith("runs")]

    @pytest.mark.parametrize("cfg", [desk_scale_config(), three_real_runs_config(0),
                                     three_real_runs_config(5)],
                             ids=["desk", "three_runs-0", "three_runs-5"])
    def test_same_logs_table_and_corrections_as_sequential_loop(self, cfg, desk_run,
                                                                tmp_path):
        table, poly = self.inputs(desk_run)
        self.assert_same_as_sequential(table, poly, cfg, tmp_path)

    def test_falls_match_sequential_loop(self, desk_cfg, desk_run, tmp_path):
        # at 0.22 times the tuned gains, 8 of the second run's 10 episodes fall
        table, poly = self.inputs(desk_run)
        weak = GainTable(table.vx_nodes, table.vy_nodes, table.h_nodes,
                         table.values * np.r_[[0.22] * 6, [1.0] * 3])
        logs = self.assert_same_as_sequential(weak, poly, desk_cfg, tmp_path)
        entries = [entry for log in logs for entry in log]
        assert any(e["fell"] for e in entries) and not all(e["fell"] for e in entries)
        assert all(e["h"] == 0.5 for e in entries if e["fell"])

    @pytest.mark.parametrize("run, step", [(0, 0), (1, 6)],
                             ids=["first_run-first_episode", "second_run-step_6"])
    def test_failing_episode_names_its_own_run(self, run, step, desk_cfg, desk_run,
                                               tmp_path, monkeypatch):
        table, poly = self.inputs(desk_run)
        target = desk_cfg.root_seed().derive(_STREAM_REAL, run).derive(_EPISODE_KEY, step)
        failure = "plant state became non-finite at step 7"

        rollout = plant_module._rollout

        # the sequential loop, its one-episode rollout failing at that run's episode
        def failing_single(plant, tables, profiles, initials, seeds):
            if seeds[0] == target:
                raise SimulationError(failure, step_index=7)
            return rollout(plant, tables, profiles, initials, seeds)

        monkeypatch.setattr(plant_module, "_rollout", failing_single)
        with pytest.raises(BlackBoxError) as sequential:
            reference_learn_real(table, poly, desk_cfg)

        # lockstep, the level's rollout failing at that run's episode
        def failing_batch(plant, tables, profiles, initials, seeds):
            if target in seeds:
                assert len(seeds) == len(desk_cfg.p_real)
                raise SimulationError(failure, step_index=7,
                                      episode_index=list(seeds).index(target))
            return rollout(plant, tables, profiles, initials, seeds)

        monkeypatch.setattr(objective, "_rollout", failing_batch)
        with pytest.raises(BlackBoxError) as lockstep:
            learn_real(table, poly, desk_cfg, out_dir=str(tmp_path / "lockstep"))
        assert str(lockstep.value) == str(sequential.value)
        gait = desk_cfg.p_real[run]
        assert str(lockstep.value).startswith(
            f"correction learning failed at gait ({gait.vx}, {gait.vy}, {gait.h}): "
            "black box failed at x=[")
        assert str(lockstep.value).endswith(failure)
        assert len(lockstep.value.history) == step
        assert history_rows(lockstep.value.history) == history_rows(sequential.value.history)
        # a failed level writes no run log, not even for the runs that did not fail
        assert not (tmp_path / "lockstep").exists()

    def test_only_sim1_runs_call_optimize(self, desk_cfg, desk_run, monkeypatch):
        """learn_sim calls optimize once per sim-1 gait; learn_real calls
        no optimize and runs no episode on its own, only rollouts of the
        whole level.

        The benchmark's tracer reads the first bo.optimize span of a traced
        run as the sim-1 run (runs[0] in bench/run.py), so sim-1 stays on
        optimize until the tracer times levels instead.
        """
        table, poly = self.inputs(desk_run)
        calls = []
        real_optimize = pipeline.optimize

        def counting(*args, **kwargs):
            calls.append(kwargs["seed"])
            return real_optimize(*args, **kwargs)

        monkeypatch.setattr(pipeline, "optimize", counting)
        learn_sim(desk_cfg)
        assert calls == [desk_cfg.root_seed().derive(_STREAM_SIM1, i)
                         for i in range(len(desk_cfg.p_sim1))]

        rollout = objective._rollout
        widths = []

        def level_wide(plant, tables, *args):
            widths.append(len(tables))
            return rollout(plant, tables, *args)

        calls.clear()
        monkeypatch.setattr(objective, "_rollout", level_wide)
        learn_real(table, poly, desk_cfg)
        assert calls == []
        assert widths == [len(desk_cfg.p_real)] * desk_cfg.i3


class TestBudgetConsumption:
    """The episodes a phase actually runs, counted at the plant, match its budget."""

    @staticmethod
    def count_episodes(monkeypatch):
        """One entry per episode of every rollout, through the learning-episode
        reader or run_episode(s): the plant it ran on."""
        plants = []
        rollout = plant_module._rollout

        def counting(plant, tables, *args):
            plants.extend([plant] * len(tables))
            return rollout(plant, tables, *args)

        monkeypatch.setattr(objective, "_rollout", counting)
        monkeypatch.setattr(plant_module, "_rollout", counting)
        return plants

    def test_desk_learn_sim_runs_sim_budget_episodes(self, desk_cfg, monkeypatch):
        plant = sim_config()
        plants = self.count_episodes(monkeypatch)
        learn_sim(desk_cfg, plant=plant)
        assert len(plants) == sim_budget(desk_cfg) == 140
        assert all(p is plant for p in plants)

    def test_desk_learn_real_runs_real_budget_episodes(self, desk_cfg, desk_run,
                                                       monkeypatch):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        poly = load_polyhedron(desk_run["paths"]["safeset"])
        plant = real_config()
        plants = self.count_episodes(monkeypatch)
        learn_real(table, poly, desk_cfg, plant=plant)
        assert len(plants) == real_budget(desk_cfg) == 20
        assert all(p is plant for p in plants)


class TestLearningObserver:
    """Every BO episode's observation: float costs whatever the type of the
    fall penalty, profiles built once per run, and a black box with no budget
    of its own."""

    GAITS = [GaitParameter(0.0, 0.0, 1.0), GaitParameter(0.4, 0.0, 1.0)]
    # one gain row per command: the stepping gait has one, the walking gait two
    GAINS = [np.array([[1.0] * 3 + [0.5] * 3 + [0.0] * 3]), np.zeros((2, 9))]

    def test_integer_fall_penalty_gives_the_float_costs(self):
        seeds = [SeedSpec(0).derive(1), SeedSpec(0).derive(2)]
        got, want = (
            _learning_observer(tiny_config(objective=ObjectiveConfig(fall_penalty=penalty)),
                               sim_config(), self.GAITS)[1](self.GAINS, seeds)
            for penalty in (100, 100.0))
        assert got == want
        (cost, _, fell), (penalty, _, down) = got
        assert not fell and 0.0 < cost < 1.0
        assert down and type(penalty) is float and penalty == 100.0

    def test_integer_fall_penalty_learns_the_float_runs(self, desk_run, tmp_path):
        table, poly = TestRealLockstep.inputs(desk_run)
        for penalty in (100, 100.0):
            cfg = tiny_config(objective=ObjectiveConfig(fall_penalty=penalty))
            learn_sim(cfg, out_dir=str(tmp_path / repr(penalty)))
            learn_real(table, poly, cfg, out_dir=str(tmp_path / repr(penalty)))
        got = tree_bytes(tmp_path / "100")
        assert len(got) == 5
        assert got == tree_bytes(tmp_path / "100.0")

    def test_each_run_builds_its_learning_profile_once(self, desk_cfg, monkeypatch):
        built = []
        profile = objective.learning_profile
        monkeypatch.setattr(objective, "learning_profile",
                            lambda gait: built.append(gait) or profile(gait))
        learn_sim(desk_cfg)
        assert (sorted(built, key=gait_run_name)
                == sorted(desk_cfg.p_sim1 + desk_cfg.p_sim2, key=gait_run_name))

    def test_desk_learn_sim_builds_no_table_per_episode(self, desk_cfg, monkeypatch):
        # every BO episode runs on its gain rows; the one table built is the result
        built = []
        init = GainTable.__post_init__
        monkeypatch.setattr(GainTable, "__post_init__",
                            lambda table: built.append(table) or init(table))
        table = learn_sim(desk_cfg)
        assert len(built) == 1 and built[0] is table

    def test_gain_black_box_seeds_every_call_past_the_budget(self):
        cfg = tiny_config()
        gait = cfg.p_sim1[0]
        run_seed = cfg.root_seed().derive(_STREAM_SIM1, 0)
        got = _gain_black_box(gait, cfg, sim_config(), run_seed)
        want = reference_gain_black_box(gait, cfg, sim_config(), run_seed)
        x = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
        calls = cfg.i1 + 2
        observations = [got(x) for _ in range(calls)]
        assert observations == [want(x) for _ in range(calls)]
        assert len({cost for cost, _, _ in observations}) == calls


GAIN_BOX = desk_scale_config().gain_box


class TestSimGains:
    """A sim episode's gain rows, [x, 0, 0, 0] at each command, equal those
    the one-node table of x resolves to, bit for bit, signs of zero included."""

    COMMANDS = [GaitParameter(0.0, 0.0, 1.0), GaitParameter(0.4, -0.2, 0.8),
                GaitParameter(-5.0, 5.0, 0.01)]

    def assert_table_rows(self, x):
        table = GainTable.constant(ControlParams(x[:3], x[3:6], np.zeros(3)))
        want = _interpolate(table, [(c.vx, c.vy, c.h) for c in self.COMMANDS])
        assert _sim_gains(self.COMMANDS, x).tobytes() == want.tobytes()

    def test_every_corner_of_the_gain_box(self):
        corners = list(itertools.product(*zip(GAIN_BOX.lower, GAIN_BOX.upper)))
        assert len(corners) == 64
        for corner in corners:
            self.assert_table_rows(np.array(corner))

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*(st.floats(lo, hi) for lo, hi in zip(GAIN_BOX.lower, GAIN_BOX.upper))))
    def test_points_of_the_gain_box(self, x):
        self.assert_table_rows(np.array(x))


class TestExtractSafeSet:
    def test_desk_safe_set_contains_stepping_commands(self, desk_cfg, desk_run):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        sweep, poly = extract_safe_set(table, desk_cfg)
        assert GaitParameter(0.0, 0.0, 1.0) in sweep.feasible_commands
        assert GaitParameter(0.0, 0.0, 0.8) in sweep.feasible_commands
        assert poly.gamma == desk_cfg.shrink_factor
        assert poly.vertices.shape[0] >= 4

    def test_zero_gain_table_has_no_safe_set(self, desk_cfg):
        zero = GainTable.filled(desk_cfg.vx_nodes, desk_cfg.vy_nodes, desk_cfg.h_nodes,
                                ControlParams(np.zeros(3), np.zeros(3), np.zeros(3)))
        with pytest.raises(SafeSetError):
            extract_safe_set(zero, desk_cfg)

    def test_sliver_hull_is_a_safe_set_error(self, desk_cfg, monkeypatch):
        # Converged means that Qhull hulls into a sliver whose face planes
        # miss one of its own vertices.
        sliver = np.array([(0, 0, 1), (0, 0, -1), (1e-9, 5.96e-8, 1), (0, 5.96e-8, 1),
                           (1, 0, 0)])
        grid = desk_cfg.sweep_grid()[:len(sliver)]
        monkeypatch.setattr(pipeline, "sweep_commands",
                            lambda *args, **kwargs: SweepResult(grid, grid, sliver, sliver, sliver))
        zero = GainTable.constant(ControlParams(np.zeros(3), np.zeros(3), np.zeros(3)))
        with pytest.raises(SafeSetError, match="violates the face planes"):
            extract_safe_set(zero, desk_cfg)


class TestLearnReal:
    def test_corrections_respect_fixed_zero_structure(self, desk_cfg, desk_run):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        poly = load_polyhedron(desk_run["paths"]["safeset"])
        corrected, corrections = learn_real(table, poly, desk_cfg)
        assert len(corrections) == len(desk_cfg.p_real)
        for gait, corr in corrections:
            assert corr.deltaK[4] == 0.0 and corr.deltaK[5] == 0.0
            assert corr.deltaP[2] == 0.0
        saved = load_table(desk_run["paths"]["gaintable_real"])
        np.testing.assert_array_equal(corrected.values, saved.values)

    def test_only_real_nodes_change(self, desk_cfg, desk_run):
        before = load_table(desk_run["paths"]["gaintable_sim"])
        after = load_table(desk_run["paths"]["gaintable_real"])
        real_nodes = {(g.vx, g.vy, g.h) for g in desk_cfg.p_real}
        for i, vx in enumerate(before.vx_nodes):
            for j, vy in enumerate(before.vy_nodes):
                for k, h in enumerate(before.h_nodes):
                    a = before.values[i, j, k]
                    b = after.values[i, j, k]
                    if (vx, vy, h) in real_nodes:
                        assert not np.array_equal(a, b)
                    else:
                        np.testing.assert_array_equal(a, b)

    def test_incumbent_never_worse_in_logs(self, desk_cfg, desk_run):
        for gait in desk_cfg.p_real:
            path = os.path.join(desk_run["out"], "runs", "real",
                                gait_run_name(gait), "log.json")
            entries = json.loads(open(path).read())
            assert len(entries) == desk_cfg.i3
            zero_cost = entries[0]["cost"]
            best = min(e["cost"] for e in entries)
            assert best <= zero_cost
            # every real evaluation carries a recorded constraint observation
            assert all(e["h"] is not None for e in entries)


def constrained_steps(hull, cfg, table, monkeypatch, caplog) -> tuple[int, int]:
    """Run desk learn_real inside hull and check every constrained proposal.

    A step whose candidates include one clearing pf >= 1 - tolerance under
    its own model proposes such a candidate; a step with none falls back to
    the most feasible candidate and logs a warning. Returns the number of
    fallbacks and of proposal steps.
    """
    steps = []
    propose_level = bo._propose_level

    def recording(problems, work):
        # the same draws the level makes, from copies of its generators
        candidates = [copy.deepcopy(rng).random((bo.N_CANDIDATES, obj_model.X.shape[1]))
                      for obj_model, *_, rng in problems]
        points = propose_level(problems, work)
        for (_, h_model, spec, _, _), cand, x in zip(problems, candidates, points):
            steps.append((h_model, spec, cand, x))
        return points

    monkeypatch.setattr(bo, "_propose_level", recording)
    with caplog.at_level(logging.WARNING, logger="gaitbo.bo"):
        learn_real(table, hull, cfg)
    proposals = cfg.i3 - cfg.init_counts[2]
    assert len(steps) == len(cfg.p_real) * proposals
    fallbacks = 0
    for h_model, spec, candidates, x in steps:
        assert h_model is not None and spec == cfg.constraint
        pf = bo._feasibility_values(*posterior_batch(h_model, candidates))
        (row,) = np.flatnonzero(np.all(candidates == x, axis=1))
        if np.any(pf >= 1.0 - spec.tolerance):
            assert pf[row] >= 1.0 - spec.tolerance
        else:
            fallbacks += 1
            assert pf[row] == pf.max()
    assert fallbacks == sum("no candidate clears" in r.getMessage() for r in caplog.records)
    return fallbacks, len(steps)


def check_zero_correction_first_and_never_beaten(hull, cfg, table, out_dir):
    _, corrections = learn_real(table, hull, cfg, out_dir=str(out_dir))
    for gait, corr in corrections:
        box = cfg.correction_box(lookup(table, gait))
        entries = json.loads((out_dir / "runs" / "real" / gait_run_name(gait)
                              / "log.json").read_text())
        assert np.array_equal(from_unit(np.array(entries[0]["x"]), box), np.zeros(6))
        best = min(entries, key=lambda e: e["cost"])
        assert best["cost"] <= entries[0]["cost"]
        want = correction_from_vector(from_unit(np.array(best["x"]), box))
        np.testing.assert_array_equal(corr.deltaK, want.deltaK)
        np.testing.assert_array_equal(corr.deltaP, want.deltaP)


class TestSafetyConstraint:
    """Desk learn_real inside a hull tighter than the desk one: the hull of the
    full-scale sweep over a table of gains drawn uniformly over the gain box,
    seeded as the benchmark's full_sweep workload seeds it."""

    @pytest.fixture(scope="class")
    def tight_hull(self):
        cfg = full_scale_config(0)
        box = cfg.gain_box
        shape = (len(cfg.vx_nodes), len(cfg.vy_nodes), len(cfg.h_nodes))
        values = np.zeros(shape + (9,))
        values[..., :6] = box.lower + box.widths * np.random.default_rng(0).random(shape + (6,))
        sweep, poly = extract_safe_set(
            GainTable(cfg.vx_nodes, cfg.vy_nodes, cfg.h_nodes, values), cfg)
        assert len(sweep.feasible_commands) / len(sweep.grid) == pytest.approx(0.883, abs=5e-4)
        return poly

    def test_constrained_proposals_clear_the_feasibility_threshold(
            self, tight_hull, desk_cfg, desk_run, monkeypatch, caplog):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        fallbacks, steps = constrained_steps(tight_hull, desk_cfg, table, monkeypatch, caplog)
        assert fallbacks < steps

    def test_zero_correction_first_and_never_beaten(self, tight_hull, desk_cfg, desk_run,
                                                    tmp_path):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        check_zero_correction_first_and_never_beaten(tight_hull, desk_cfg, table, tmp_path)


class TestBindingSafetyConstraint:
    """The same checks inside the desk sweep's hull shrunk to 0.7 about its
    centroid, where the constraint binds: some proposal steps find no
    candidate that clears the feasibility threshold, and others do."""

    @pytest.fixture(scope="class")
    def binding_hull(self, desk_cfg, desk_run):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        sweep, _ = extract_safe_set(table, desk_cfg)
        return convex_hull(sweep.safe_points, 0.7)

    def test_some_but_not_all_proposals_fall_back(self, binding_hull, desk_cfg, desk_run,
                                                  monkeypatch, caplog):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        fallbacks, steps = constrained_steps(binding_hull, desk_cfg, table, monkeypatch,
                                             caplog)
        assert 0 < fallbacks < steps

    def test_zero_correction_first_and_never_beaten(self, binding_hull, desk_cfg, desk_run,
                                                    tmp_path):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        check_zero_correction_first_and_never_beaten(binding_hull, desk_cfg, table, tmp_path)


def reference_table_stats(label: str, sweep) -> TableBenchmark:
    """_table_stats as a loop over the feasible commands, one row at a time."""
    if not sweep.feasible_commands:
        return TableBenchmark(label, 0, None, None)
    errs = []
    oscs = []
    for cmd, mean, low, high in zip(sweep.feasible_commands, sweep.p_c, sweep.p_c_min,
                                    sweep.p_c_max):
        errs.append(np.abs(GaitParameter(*mean).as_array() - cmd.as_array()))
        oscs.append(GaitParameter(*high).as_array() - GaitParameter(*low).as_array())
    return TableBenchmark(label, len(sweep.feasible_commands),
                          tuple(np.mean(errs, axis=0)), tuple(np.mean(oscs, axis=0)))


class TestBenchmark:
    def test_table_against_itself_ties(self, desk_cfg, desk_run):
        table = load_table(desk_run["paths"]["gaintable_sim"])
        report = benchmark(table, table, desk_cfg, sim_config())
        assert report.feasible_winner == "tie"
        assert report.tracking_winner == "tie"
        assert report.table_a.feasible_count == report.table_b.feasible_count
        np.testing.assert_array_equal(report.table_a.mean_abs_error,
                                      report.table_b.mean_abs_error)

    def test_tuned_beats_zero_table(self, desk_cfg, desk_run):
        tuned = load_table(desk_run["paths"]["gaintable_real"])
        zero = GainTable.filled(desk_cfg.vx_nodes, desk_cfg.vy_nodes, desk_cfg.h_nodes,
                                ControlParams(np.zeros(3), np.zeros(3), np.zeros(3)))
        report = benchmark(tuned, zero, desk_cfg, real_config())
        assert report.table_a.feasible_count > report.table_b.feasible_count
        assert report.table_b.feasible_count == 0
        assert report.table_b.mean_abs_error is None
        assert report.feasible_winner == "tuned"
        assert report.tracking_winner == "tuned"

    @pytest.mark.parametrize("labels", [("tuned", "tie"), ("tie", "baseline"),
                                        ("tuned", "tuned")])
    def test_labels_must_name_distinct_winners(self, labels):
        table = GainTable.constant(ControlParams([2.0] * 3, [0.5] * 3, np.zeros(3)))
        with pytest.raises(ConfigurationError, match="labels must differ"):
            benchmark(table, table, tiny_config(), sim_config(), labels=labels)

    def test_table_stats_equal_the_per_command_loop(self):
        # A sweep where some commands fall and others complete.
        values = np.zeros((3, 2, 2, 9))
        values[..., :6] = np.random.default_rng(3).uniform(0.0, [3.0] * 3 + [1.5] * 3,
                                                           size=(3, 2, 2, 6))
        values[2, :, :, :6] = [20.0] * 3 + [0.0] * 3
        table = GainTable((-0.8, 0.0, 0.8), (-0.3, 0.3), (0.8, 1.0), values)
        grid = tuple(GaitParameter(vx, vy, h) for vx in np.linspace(-0.8, 0.8, 5)
                     for vy in (-0.3, 0.3) for h in (0.8, 1.0))
        sweep = sweep_commands(table, sim_config(), grid, SeedSpec(8))
        assert 0 < len(sweep.feasible_commands) < len(grid)
        got = pipeline._table_stats("a", sweep)
        want = reference_table_stats("a", sweep)
        assert got.feasible_count == want.feasible_count
        for name in ("mean_abs_error", "mean_oscillation"):
            assert (np.array(getattr(got, name)).tobytes()
                    == np.array(getattr(want, name)).tobytes())

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            TableBenchmark("x", -1, None, None)
        with pytest.raises(ValueError):
            TableBenchmark("x", 0, (0.1, 0.1, 0.1), (0.0, 0.0, 0.0))
        good = TableBenchmark("x", 1, (0.1, 0.1, 0.1), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            BenchmarkReport(0, good, good, "tie", "tie")

    def test_json_dict_shape(self, desk_run):
        doc = json.loads(open(desk_run["paths"]["benchmark"]).read())
        assert set(doc) == {"grid_size", "table_a", "table_b", "summary"}
        assert set(doc["summary"]) == {"feasible_winner", "tracking_winner"}
        for key in ("table_a", "table_b"):
            assert set(doc[key]) == {"label", "feasible_count", "mean_abs_error",
                                     "mean_oscillation"}


class TestFullPipeline:
    def test_artifacts_exist(self, desk_cfg, desk_run):
        for path in desk_run["paths"].values():
            assert os.path.exists(path)
        phases = {"sim1": desk_cfg.p_sim1, "sim2": desk_cfg.p_sim2,
                  "real": desk_cfg.p_real}
        for phase, gaits in phases.items():
            for gait in gaits:
                log = os.path.join(desk_run["out"], "runs", phase,
                                   gait_run_name(gait), "log.json")
                assert os.path.exists(log)

    def test_saved_tables_load(self, desk_run):
        sim = load_table(desk_run["paths"]["gaintable_sim"])
        real = load_table(desk_run["paths"]["gaintable_real"])
        assert sim.axes == real.axes
        load_polyhedron(desk_run["paths"]["safeset"])

    def test_tiny_pipeline_end_to_end(self, tmp_path, pipeline_run):
        cfg = tiny_config(i1=6, i2=4, i3=3, init_counts=(3, 2, 2))
        paths = pipeline_run(cfg, str(tmp_path / "out"))
        report = json.loads(open(paths["benchmark"]).read())
        assert report["grid_size"] == len(cfg.sweep_grid())
