"""Acceptance gate: eight end-to-end criteria with hard tolerances.

Each test prints one ``ACCEPTANCE n (<name>): PASS`` or ``... FAIL`` line
(visible with ``pytest -rA`` or ``-s``). Oracles here are written
independently of the library code they check.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from gaitbo.bo import ConstraintSpec, expected_improvement, feasibility_from_moments, optimize
from gaitbo.domain import GaitParameter, SeedSpec, Box, from_unit
from gaitbo.gp import Hyperparams, fit, posterior_batch
from gaitbo.objective import ObjectiveConfig, evaluate_cost
from gaitbo.pipeline import (
    baseline_table,
    desk_scale_config,
    gait_run_name,
    full_scale_config,
    real_budget,
    sim_budget,
)
from gaitbo.plant import Trajectory, learning_profile, real_config, run_episode, sim_config, stepping_start
from gaitbo.safeset import contains, convex_hull
from gaitbo.scheduler import load_table


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


# ---------------------------------------------------------------- criterion 1

def dense_gp_oracle(X, y, hyper, jitter):
    """Direct dense posterior: standardize, solve, de-standardize."""
    y_mean = float(np.mean(y))
    sd = float(np.std(y))
    y_scale = sd if sd >= 1e-12 else 1.0
    z = (y - y_mean) / y_scale

    def k(a, b):
        d = (a - b) / hyper.lengthscales
        return hyper.signal_std**2 * math.exp(-0.5 * float(d @ d))

    m = X.shape[0]
    K = np.array([[k(X[i], X[j]) for j in range(m)] for i in range(m)])
    K += (hyper.noise_std**2 + jitter) * np.eye(m)

    def predict(x):
        ks = np.array([k(X[i], x) for i in range(m)])
        sol = np.linalg.solve(K, z)
        mean = float(ks @ sol)
        var = k(x, x) - float(ks @ np.linalg.solve(K, ks))
        std = math.sqrt(max(var, 0.0))
        return mean * y_scale + y_mean, std * y_scale

    return predict


def test_criterion_1_gp_oracle_equivalence():
    with criterion(1, "GP oracle equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(100)
        for _ in range(50):
            m = rng.integers(2, 11)
            d = rng.integers(1, 4)
            X = rng.random((m, d))
            y = rng.normal(0.0, 2.0, m)
            hyper = Hyperparams(
                signal_std=float(rng.uniform(0.5, 2.0)),
                lengthscales=rng.uniform(0.2, 1.0, d),
                noise_std=float(rng.uniform(1e-3, 0.1)),
            )
            model = fit(X, y, hyper)
            oracle = dense_gp_oracle(X, y, hyper, model.jitter)
            queries = rng.random((5, d))
            means, stds = posterior_batch(model, queries)
            for q, mean, std in zip(queries, means, stds):
                o_mean, o_std = oracle(q)
                assert abs(mean - o_mean) <= 1e-8, f"mean gap {abs(mean - o_mean)}"
                assert abs(std - o_std) <= 1e-8, f"std gap {abs(std - o_std)}"
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


# ---------------------------------------------------------------- criterion 2

def reference_ei(mean, std, best):
    if std == 0.0:
        return max(best - mean, 0.0)
    z = (best - mean) / std
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return (best - mean) * cdf + std * pdf


def test_criterion_2_expected_improvement_closed_form():
    with criterion(2, "EI closed form"):
        rng = np.random.default_rng(200)
        for _ in range(1000):
            mean = float(rng.normal(0.0, 2.0))
            std = float(rng.uniform(0.0, 3.0))
            best = float(rng.normal(0.0, 2.0))
            got = expected_improvement(mean, std, best)
            want = reference_ei(mean, std, best)
            assert abs(got - want) <= 1e-10, f"EI gap {abs(got - want)}"

        at_best = expected_improvement(1.0, 1.0, 1.0)
        assert abs(at_best - 0.3989422804014327) <= 1e-9

        step = 1e-5
        for _ in range(100):
            mean = float(rng.normal(0.0, 1.0))
            std = float(rng.uniform(0.1, 2.0))
            best = float(rng.normal(0.0, 1.0))
            lo = expected_improvement(mean, std - step, best)
            hi = expected_improvement(mean, std + step, best)
            slope = (hi - lo) / (2.0 * step)
            assert slope >= -1e-6, f"EI decreasing in std: slope {slope}"


# ---------------------------------------------------------------- criterion 3

def multimodal_2d(x):
    """Three-basin valley test function on [-5, 10] x [0, 15]."""
    a = 1.0
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * math.pi)
    return float(a * (x[1] - b * x[0]**2 + c * x[0] - r)**2
                 + s * (1.0 - t) * math.cos(x[0]) + s)


def test_criterion_3_synthetic_convergence():
    with criterion(3, "synthetic BO convergence"):
        start = time.monotonic()

        box_1d = Box([0.0], [1.0])
        for seed in range(10):
            res = optimize(lambda x: float((x[0] - 0.3)**2), box_1d,
                           iterations=30, init_count=6, seed=SeedSpec(seed))
            best = from_unit(res.best_x, box_1d)
            assert abs(best[0] - 0.3) <= 0.05, f"seed {seed}: bestX {best[0]}"

        g = np.linspace(0.0, 1.0, 1000)
        X1, X2 = np.meshgrid(-5.0 + 15.0 * g, 15.0 * g, indexing="ij")
        b = 5.1 / (4.0 * np.pi**2)
        c = 5.0 / np.pi
        t = 1.0 / (8.0 * np.pi)
        F = (X2 - b * X1**2 + c * X1 - 6.0)**2 + 10.0 * (1.0 - t) * np.cos(X1) + 10.0
        oracle_min = float(F.min())

        box_2d = Box([-5.0, 0.0], [10.0, 15.0])
        hits = 0
        for seed in range(10):
            res = optimize(multimodal_2d, box_2d, iterations=60, init_count=10,
                           seed=SeedSpec(seed))
            if res.best_cost <= oracle_min * 1.05:
                hits += 1
        assert hits >= 9, f"only {hits}/10 seeds within 5% of {oracle_min:.6f}"

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------- criterion 4

def lp_membership(points, x):
    m = points.shape[0]
    A_eq = np.vstack([points.T, np.ones(m)])
    b_eq = np.append(x, 1.0)
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, 1)] * m,
                  method="highs")
    return res.status == 0


def disc_h(x):
    return float(np.linalg.norm(x - np.array([0.3, 0.3])) - 0.25)


def test_criterion_4_constraint_machinery():
    with criterion(4, "constraint machinery"):
        rng = np.random.default_rng(400)
        # eight random directions: points on a sphere are all hull vertices
        raw = rng.normal(0.0, 1.0, (8, 3))
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        poly = convex_hull(pts)
        assert poly.vertices.shape[0] == 8
        disagreements = 0
        for _ in range(1000):
            q = rng.uniform(-1.2, 1.2, 3)
            if contains(poly, q) != lp_membership(poly.vertices, q):
                disagreements += 1
        assert disagreements == 0, f"{disagreements} containment disagreements"

        assert abs(feasibility_from_moments(0.0, 1.0) - 0.5) <= 1e-9

        box = Box([0.0, 0.0], [1.0, 1.0])
        design = [np.array(p) for p in ([0.3, 0.3], [0.5, 0.3], [0.3, 0.5],
                                        [0.15, 0.3], [0.3, 0.15], [0.45, 0.45])]
        assert all(disc_h(p) <= 0.0 for p in design)

        def black_box(x):
            return float(np.sum((x - np.array([0.8, 0.8]))**2)), disc_h(x), False

        res = optimize(black_box, box, iterations=24, init_count=len(design),
                       spec=ConstraintSpec(tolerance=0.05),
                       initial_design=design, seed=SeedSpec(0))
        proposals = res.history[len(design):]
        feasible = sum(1 for ev in proposals if disc_h(from_unit(ev.x, box)) <= 0.0)
        frac = feasible / len(proposals)
        assert frac >= 0.9, f"only {frac:.0%} of proposals truly feasible"


# ---------------------------------------------------------------- criterion 5

def constant_offset_trajectory(command, offset, n_steps=50, dt=0.4):
    times = np.arange(n_steps + 1) * dt
    p_des = np.tile(command.as_array(), (n_steps + 1, 1))
    return Trajectory(
        dt=dt,
        times=times,
        p_desired=p_des,
        p_hat=p_des + np.asarray(offset, dtype=float),
        delta_g=np.zeros((n_steps + 1, 3)),
        fell=False,
        fall_time=None,
    )


def naive_cost(traj, command, cfg):
    k = math.floor(cfg.segment_duration / traj.dt + 1e-9)
    tail = traj.p_hat[-k:]
    mean = [sum(tail[:, i]) / k for i in range(3)]
    lo = [min(tail[:, i]) for i in range(3)]
    hi = [max(tail[:, i]) for i in range(3)]
    err = [mean[i] - command.as_array()[i] for i in range(3)]
    osc = [hi[i] - lo[i] for i in range(3)]
    w1 = np.diag(cfg.w1)
    w2 = np.diag(cfg.w2)
    return sum(w1[i] * err[i]**2 for i in range(3)) + sum(
        w2[i] * osc[i]**2 for i in range(3))


def test_criterion_5_objective():
    with criterion(5, "objective cost"):
        cfg = ObjectiveConfig()
        command = GaitParameter(0.0, 0.0, 1.0)
        perfect = constant_offset_trajectory(command, [0.0, 0.0, 0.0])
        assert evaluate_cost(perfect, command, cfg) == 0.0

        offset = constant_offset_trajectory(command, [0.05, 0.0, 0.02])
        got = evaluate_cost(offset, command, cfg)
        assert abs(got - 0.0029) <= 1e-15, f"documented case gave {got!r}"

        rng = np.random.default_rng(500)
        for _ in range(200):
            n = int(rng.integers(15, 60))
            base = GaitParameter(float(rng.uniform(-1, 1)),
                                 float(rng.uniform(-0.4, 0.4)),
                                 float(rng.uniform(0.7, 1.1)))
            times = np.arange(n + 1) * 0.4
            p_des = np.tile(base.as_array(), (n + 1, 1))
            p_hat = p_des + rng.normal(0.0, 0.05, (n + 1, 3))
            traj = Trajectory(dt=0.4, times=times, p_desired=p_des, p_hat=p_hat,
                              delta_g=np.zeros((n + 1, 3)), fell=False,
                              fall_time=None)
            got = evaluate_cost(traj, base, cfg)
            want = naive_cost(traj, base, cfg)
            assert abs(got - want) <= 1e-12, f"cost gap {abs(got - want)}"


# ---------------------------------------------------------------- criterion 6

def episode_cost(table, gait, plant, cfg, seed):
    traj = run_episode(plant, table, learning_profile(gait),
                       stepping_start(gait), seed)
    return evaluate_cost(traj, gait, cfg.objective)


def tracking_error(table, gaits, plant, cfg, seed_root):
    from gaitbo.objective import converged_stats

    errs = []
    for idx, gait in enumerate(gaits):
        traj = run_episode(plant, table, learning_profile(gait),
                           stepping_start(gait), seed_root.derive(idx))
        assert not traj.fell, f"evaluation episode fell at {gait}"
        st = converged_stats(traj, cfg.objective.segment_duration)
        errs.append(np.abs(st.p_c.as_array() - gait.as_array()))
    return float(np.mean(errs))


def test_criterion_6_desk_pipeline_regression(desk_cfg, desk_run):
    with criterion(6, "desk-scale pipeline regression"):
        tuned_sim = load_table(desk_run["paths"]["gaintable_sim"])
        tuned_real = load_table(desk_run["paths"]["gaintable_real"])
        baseline = baseline_table(desk_cfg)
        nodes = desk_cfg.p_sim1 + desk_cfg.p_sim2
        plant = sim_config()
        eval_seed = SeedSpec(12345)

        tuned_costs = [episode_cost(tuned_sim, g, plant, desk_cfg,
                                    eval_seed.derive(i))
                       for i, g in enumerate(nodes)]
        base_costs = [episode_cost(baseline, g, plant, desk_cfg,
                                   eval_seed.derive(i))
                      for i, g in enumerate(nodes)]
        tuned_median = float(np.median(tuned_costs))
        base_median = float(np.median(base_costs))
        assert tuned_median <= 0.7 * base_median, (
            f"median node cost {tuned_median:.6f} vs baseline "
            f"{base_median:.6f}: less than 30% below")

        real_plant = real_config()
        pre = np.mean([tracking_error(tuned_sim, desk_cfg.p_real, real_plant,
                                      desk_cfg, SeedSpec(s)) for s in range(5)])
        post = np.mean([tracking_error(tuned_real, desk_cfg.p_real, real_plant,
                                       desk_cfg, SeedSpec(s)) for s in range(5)])
        reduction = 1.0 - post / pre
        assert reduction >= 0.30, (
            f"tracking error {pre:.5f} -> {post:.5f}, only {reduction:.1%} better")

        h_positive = 0
        h_total = 0
        for gait in desk_cfg.p_real:
            log = Path(desk_run["out"]) / "runs" / "real" / gait_run_name(gait) / "log.json"
            entries = json.loads(log.read_text())
            costs = [e["cost"] for e in entries]
            assert min(costs) <= costs[0], "correction worse than incumbent"
            h_positive += sum(1 for e in entries if e["h"] is not None and e["h"] > 0)
            h_total += len(entries)
        assert h_positive / h_total <= 0.2, (
            f"{h_positive}/{h_total} real evaluations violated the safe region")

        report = json.loads(Path(desk_run["paths"]["benchmark"]).read_text())
        assert (report["table_a"]["feasible_count"]
                >= report["table_b"]["feasible_count"])


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_budget_accounting():
    with criterion(7, "budget accounting"):
        cfg = full_scale_config()
        assert len(cfg.p_sim1) == 4
        assert len(cfg.p_sim2) == 304
        assert len(cfg.p_real) == 3
        assert (cfg.i1, cfg.i2, cfg.i3) == (100, 25, 10)
        assert sim_budget(cfg) == 4 * 100 + 304 * 25 == 8000
        assert real_budget(cfg) == 3 * 10 == 30


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_determinism(desk_cfg, desk_run, pipeline_run, tmp_path):
    with criterion(8, "byte-identical reruns"):
        start = time.monotonic()
        second = tmp_path / "second_run"
        pipeline_run(desk_cfg, str(second))
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s, budget 10 min"

        first = Path(desk_run["out"])
        first_files = sorted(p.relative_to(first) for p in first.rglob("*")
                             if p.is_file())
        second_files = sorted(p.relative_to(second) for p in second.rglob("*")
                              if p.is_file())
        assert first_files == second_files, "artifact trees differ"
        assert len(first_files) > 0
        for rel in first_files:
            a = (first / rel).read_bytes()
            b = (second / rel).read_bytes()
            assert a == b, f"{rel} differs between runs"
