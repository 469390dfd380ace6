"""The benchmark's workloads: inputs made from a seed, one iteration, output checks.

A workload drives gaitbo through its public entry points only. ``build``
turns a seed into the config and input table (the part ``setup_s`` times in a
fresh interpreter), ``run`` is one iteration (the part ``total_s`` times), and
``check`` reads the outputs back and returns the episodes run, the quality
figures and every failed check.

``size="full"`` is what the benchmark measures; ``size="min"`` is the smallest
run of the same code paths, for the smoke tests and the warm-up.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import numpy as np

import gaitbo


def _timed(phases: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    phases[name] = time.perf_counter() - start
    return result


def run_logs(out_dir, phase: str) -> list:
    """The per-evaluation records of every runs/<phase>/<gait>/log.json."""
    phase_dir = os.path.join(out_dir, "runs", phase)
    if not os.path.isdir(phase_dir):
        return []
    logs = []
    for gait in sorted(os.listdir(phase_dir)):
        with open(os.path.join(phase_dir, gait, "log.json")) as fh:
            logs.append(json.load(fh))
    return logs


def _check_budget(failures: list, label: str, logs: list, budget: int) -> int:
    evaluations = sum(len(log) for log in logs)
    if evaluations != budget:
        failures.append(f"{label} ran {evaluations} evaluations, budget is {budget}")
    return evaluations


def _sim_best_cost_mean(logs: list) -> float:
    return float(np.mean([log[-1]["best"] for log in logs]))


class Desk:
    """The default desk pipeline: all four phases in order, artifacts written.

    It is what users run day to day, and the only workload with the
    constrained proposal branch, learn-real, constraint_value and artifact
    writes.
    """

    def build(self, seed: int, size: str = "full"):
        cfg = gaitbo.desk_scale_config(seed)
        if size == "min":
            cfg = dataclasses.replace(
                cfg, i1=16, i2=8, i3=4, sweep_vx=(-0.8, -0.4, 0.0, 0.4, 0.8),
                sweep_vy=(-0.2, 0.0, 0.2), sweep_h=(0.8, 0.9, 1.0))
        return cfg

    def run(self, cfg, out_dir, phases: dict) -> dict:
        table_sim = _timed(phases, "learn_sim_s", gaitbo.learn_sim, cfg, out_dir=out_dir)
        sweep, poly = _timed(phases, "extract_safeset_s", gaitbo.extract_safe_set,
                             table_sim, cfg, out_dir=out_dir)
        table_real, _ = _timed(phases, "learn_real_s", gaitbo.learn_real,
                               table_sim, poly, cfg, out_dir=out_dir)
        report = _timed(phases, "benchmark_s", lambda: gaitbo.benchmark(
            table_real, gaitbo.baseline_table(cfg), cfg, gaitbo.real_config(),
            out_dir=out_dir))
        return {"sweep": sweep, "report": report}

    def check(self, cfg, out_dir, outputs: dict):
        failures: list = []
        sim_logs = run_logs(out_dir, "sim1") + run_logs(out_dir, "sim2")
        real_logs = run_logs(out_dir, "real")
        sim = _check_budget(failures, "learn-sim", sim_logs, gaitbo.sim_budget(cfg))
        real = _check_budget(failures, "learn-real", real_logs, gaitbo.real_budget(cfg))
        with open(os.path.join(out_dir, "benchmark.json")) as fh:
            bench = json.load(fh)
        tuned, baseline = (bench[t]["mean_abs_error"] for t in ("table_a", "table_b"))
        tuned = float(np.mean(tuned)) if tuned is not None else float("inf")
        baseline = float(np.mean(baseline)) if baseline is not None else float("inf")
        if not tuned < baseline:
            failures.append(f"tuned tracking error {tuned} is not below the "
                            f"baseline's {baseline}")
        real_h = [entry["h"] for log in real_logs for entry in log]
        sweep = outputs["sweep"]
        quality = {
            "sim_best_cost_mean": _sim_best_cost_mean(sim_logs),
            "tuned_track_err": tuned,
            "real_violation_frac": sum(h is not None and h > 0.0 for h in real_h) / len(real_h),
            "safe_frac": len(sweep.feasible_commands) / len(sweep.grid),
        }
        episodes = sim + real + len(sweep.grid) + 2 * outputs["report"].grid_size
        return episodes, quality, failures


class FullSweep:
    """Full-scale extract-safeset: the 1,053-command sweep and the shrunken hull.

    The input table has per-node gains drawn uniformly over the whole gain
    box, so some episodes fall and early termination stays in the traffic. It
    does rollouts and lookups only, no GP or BO work: a batched-rollout change
    shows here, and a proposal or GP change should not.
    """

    def build(self, seed: int, size: str = "full"):
        cfg = gaitbo.full_scale_config(seed)
        if size == "min":
            cfg = dataclasses.replace(cfg, sweep_vx=(-0.8, -0.4, 0.0, 0.4, 0.8),
                                      sweep_vy=(-0.2, 0.0, 0.2), sweep_h=(0.8, 0.9, 1.0))
        box = cfg.gain_box
        shape = (len(cfg.vx_nodes), len(cfg.vy_nodes), len(cfg.h_nodes))
        values = np.zeros(shape + (9,))
        values[..., :6] = box.lower + box.widths * np.random.default_rng(seed).random(shape + (6,))
        return cfg, gaitbo.GainTable(cfg.vx_nodes, cfg.vy_nodes, cfg.h_nodes, values)

    def run(self, inputs, out_dir, phases: dict) -> dict:
        cfg, table = inputs
        sweep, poly = _timed(phases, "extract_safeset_s", gaitbo.extract_safe_set,
                             table, cfg, out_dir=out_dir)
        return {"sweep": sweep, "poly": poly}

    # Commands of each verdict (converged, fell) that check() re-runs alone.
    SPOT_CHECKS = 8

    def check(self, inputs, out_dir, outputs: dict):
        """Re-run a seeded sample of commands one episode at a time and compare.

        extract_safe_set itself raises unless there are at least 4 safe
        points and the hull centroid lies inside the hull, so those show as
        raised iterations. This check catches a sweep whose verdicts or safe
        points differ from single episodes of the plant.
        """
        cfg, table = inputs
        sweep = outputs["sweep"]
        # The stream extract_safe_set draws its sweep noise from.
        sweep_seed = cfg.root_seed().derive(gaitbo.pipeline._STREAM_SWEEP)
        safe = dict(zip(sweep.feasible_commands, sweep.safe_points))
        rng = np.random.default_rng([cfg.seed, 1])
        converged = [i for i, cmd in enumerate(sweep.grid) if cmd in safe]
        fell = [i for i, cmd in enumerate(sweep.grid) if cmd not in safe]
        failures: list = []
        for group in (converged, fell):
            picked = rng.choice(group, min(self.SPOT_CHECKS, len(group)), replace=False)
            for index in sorted(picked):
                cmd = sweep.grid[index]
                traj = gaitbo.run_episode(
                    gaitbo.sim_config(), table, gaitbo.plant.learning_profile(cmd),
                    gaitbo.plant.stepping_start(cmd), sweep_seed.derive(index))
                point = None if traj.fell else gaitbo.converged_stats(
                    traj, cfg.objective.segment_duration).p_c
                if point != safe.get(cmd):
                    failures.append(f"command {index} {cmd}: sweep gave {safe.get(cmd)}, "
                                    f"a single episode {point}")
        quality = {"safe_frac": len(sweep.feasible_commands) / len(sweep.grid)}
        return len(sweep.grid), quality, failures


class FullLearnSim:
    """Full-scale learn-sim on a slice: one sim-1 gait at i1=100, then the
    eight nearest sim-2 gaits at i2=25, warm-started.

    Sim-2 runs take most of the time, as they do at full scale (304 of 308
    runs): 59% of the traced optimizer time at seed 0, against about 93% at
    full scale, which would need some 70 sim-2 gaits and over a minute per
    iteration. GP histories reach 100 points. Rollouts run one at a time
    inside the optimizer loop, so a batch kernel's per-call overhead shows
    here, and so do GP and proposal changes.
    """

    SIM2_GAITS = {"full": 8, "min": 1}

    def build(self, seed: int, size: str = "full"):
        full = gaitbo.full_scale_config(seed)
        start = full.p_sim1[0]
        nearest = sorted(range(len(full.p_sim2)), key=lambda i: (
            float(np.linalg.norm(full.p_sim2[i].as_array() - start.as_array())), i))
        cfg = dataclasses.replace(
            full, p_sim1=(start,),
            p_sim2=tuple(full.p_sim2[i] for i in nearest[:self.SIM2_GAITS[size]]))
        if size == "min":
            cfg = dataclasses.replace(cfg, i1=14, i2=7)
        return cfg

    def run(self, cfg, out_dir, phases: dict) -> dict:
        _timed(phases, "learn_sim_s", gaitbo.learn_sim, cfg, out_dir=out_dir)
        return {}

    def check(self, cfg, out_dir, outputs: dict):
        failures: list = []
        logs = run_logs(out_dir, "sim1") + run_logs(out_dir, "sim2")
        episodes = _check_budget(failures, "learn-sim", logs, gaitbo.sim_budget(cfg))
        return episodes, {"sim_best_cost_mean": _sim_best_cost_mean(logs)}, failures


WORKLOADS = {
    # what users run day to day; the only workload with learn-real, the
    # constrained proposal branch and artifact writes
    "desk": Desk(),
    # rollouts and lookups only, no GP or BO work: moves for a rollout change,
    # not for a proposal or GP change
    "full_sweep": FullSweep(),
    # sequential rollouts inside BO with 100-point GP histories: per-rollout
    # overhead, GP and proposal changes show here
    "full_learn_sim": FullLearnSim(),
}
