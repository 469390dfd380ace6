"""Three-phase learning schedule over the gain table.

Phase one tunes PD gains per gait in simulation, warm-starting later gaits
from their nearest finished neighbor. Phase two sweeps the tuned controller
over a command grid and hulls the converged points into a convex safe
region. Phase three learns small gain and offset corrections on the real
plant, constrained to keep the converged gait inside that region. A
benchmark compares any two tables on identical sweeps.

All randomness descends from one integer seed through named substreams, so
a whole run is reproducible artifact-for-artifact. Every episode of the
sweep and of BO runs on gain rows through the rollout's arrays, building no
Trajectory. A sim episode's rows are its 6 gains and a zero offset, with no
table; the sweep and each learn-real episode resolve their table's rows.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bo import BOResult, ConstraintSpec, _BORun, _drive_level, optimize, write_run_log
from .domain import (
    Box,
    ControlParams,
    GaitParameter,
    SeedSpec,
    _array,
    _items,
    _real,
    _whole_number,
    correction_from_vector,
    from_unit,
)
from .errors import BlackBoxError, ConfigurationError, GridNodeError, SafeSetError
from .errors import DegenerateGeometryError
from .objective import (ObjectiveConfig, _learning_episodes, _learning_segments, _segment_costs,
                        _segment_moments, _segment_samples)
from .plant import EPISODE_DURATION, PlantConfig, real_config, sim_config
from .safeset import (SafePolyhedron, SweepResult, _constraint_values, convex_hull,
                      save_polyhedron, sweep_commands)
from .scheduler import (GainTable, _axis_nodes, _interpolate, _node_indices, _resolve_gains,
                        apply_corrections, lookup, save_table)

__all__ = [
    "PipelineConfig",
    "TableBenchmark",
    "BenchmarkReport",
    "desk_scale_config",
    "full_scale_config",
    "sim_budget",
    "real_budget",
    "gait_run_name",
    "baseline_table",
    "learn_sim",
    "extract_safe_set",
    "learn_real",
    "benchmark",
    "benchmark_to_json_dict",
    "save_benchmark",
]

logger = logging.getLogger(__name__)

# seed substreams of the pipeline root
_STREAM_SIM1 = 1
_STREAM_SIM2 = 2
_STREAM_REAL = 3
_STREAM_SWEEP = 4
_STREAM_BENCH = 5
_STREAM_BASELINE = 6
# within one BO run's SeedSpec, episode noise lives on substream 9,
# keyed by evaluation index; streams 0 and 1 belong to the optimizer
_EPISODE_KEY = 9


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full run needs: gait sets, budgets, boxes, and seeds.

    The three gait sets must all sit on the gain-table grid spanned by the
    node axes. Sweep axes are independent of the table grid; lookups clamp,
    so the sweep may range wider than the trained nodes.
    """

    vx_nodes: tuple
    vy_nodes: tuple
    h_nodes: tuple
    p_sim1: tuple
    p_sim2: tuple
    p_real: tuple
    i1: int
    i2: int
    i3: int
    init_counts: tuple
    kp_bounds: tuple = (0.0, 3.0)
    kd_bounds: tuple = (0.0, 1.5)
    delta_k_fraction: float = 0.5
    delta_k_floor: float = 0.2
    delta_p_bound: float = 0.2
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    constraint: ConstraintSpec = field(default_factory=ConstraintSpec)
    sweep_vx: tuple = ()
    sweep_vy: tuple = ()
    sweep_h: tuple = ()
    shrink_factor: float = 0.9
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vx_nodes", _axis_nodes(self.vx_nodes, "vx_nodes"))
        object.__setattr__(self, "vy_nodes", _axis_nodes(self.vy_nodes, "vy_nodes"))
        object.__setattr__(self, "h_nodes", _axis_nodes(self.h_nodes, "h_nodes", 0.0))
        object.__setattr__(self, "sweep_vx", _axis_nodes(self.sweep_vx, "sweep_vx"))
        object.__setattr__(self, "sweep_vy", _axis_nodes(self.sweep_vy, "sweep_vy"))
        object.__setattr__(self, "sweep_h", _axis_nodes(self.sweep_h, "sweep_h", 0.0))

        for name in ("p_sim1", "p_sim2", "p_real"):
            gaits = _items(getattr(self, name), name, "a list of gaits")
            object.__setattr__(self, name, gaits)
            for g in gaits:
                if not isinstance(g, GaitParameter):
                    raise ConfigurationError(
                        f"{name} entries must be GaitParameter, got {g!r}")
                try:
                    _node_indices(self.node_axes, (g.vx, g.vy, g.h))
                except GridNodeError as exc:
                    raise ConfigurationError(
                        f"{name} gait ({g.vx}, {g.vy}, {g.h}) is not a grid node") from exc
        if not self.p_sim1:
            raise ConfigurationError("p_sim1 must contain at least one gait")
        # A learned gait owns one table node and one run directory.
        for gaits, where in ((self.p_sim1 + self.p_sim2, "across p_sim1/p_sim2"),
                             (self.p_real, "in p_real")):
            seen = set()
            for g in gaits:
                key = (g.vx, g.vy, g.h)
                if key in seen:
                    raise ConfigurationError(f"gait {key} appears twice {where}")
                seen.add(key)

        counts = tuple(_whole_number(c, "init_counts", 1.0)
                       for c in _items(self.init_counts, "init_counts",
                                       "three positive integers", 3))
        object.__setattr__(self, "init_counts", counts)
        for budget, count, name in ((self.i1, counts[0], "i1"),
                                    (self.i2, counts[1], "i2"),
                                    (self.i3, counts[2], "i3")):
            budget = _whole_number(budget, name, 0.0)
            if budget < count:
                raise ConfigurationError(
                    f"{name}={budget} cannot cover its initial design of {count}")
            object.__setattr__(self, name, budget)

        for name in ("kp_bounds", "kd_bounds"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{name} must be a [low, high] pair: {exc}") from None
            lo = _real(lo, f"{name} low", 0.0, ends="[)")
            object.__setattr__(self, name, (lo, _real(hi, f"{name} high", lo)))
        object.__setattr__(self, "delta_k_fraction",
                           _real(self.delta_k_fraction, "delta_k_fraction", 0.0, ends="[)"))
        for name in ("delta_k_floor", "delta_p_bound"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0))
        object.__setattr__(self, "shrink_factor",
                           _real(self.shrink_factor, "shrink_factor", 0.0, 1.0, "(]"))
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed", 0.0))

    @property
    def node_axes(self) -> tuple[tuple, tuple, tuple]:
        """The gain-table grid axes (vx, vy, h)."""
        return (self.vx_nodes, self.vy_nodes, self.h_nodes)

    @property
    def gain_box(self) -> Box:
        """The 6-D search box: kP on the first three axes, kD on the rest."""
        kp_lo, kp_hi = self.kp_bounds
        kd_lo, kd_hi = self.kd_bounds
        return Box([kp_lo] * 3 + [kd_lo] * 3, [kp_hi] * 3 + [kd_hi] * 3)

    def correction_box(self, incumbent: ControlParams) -> Box:
        """Correction bounds around an incumbent: a fraction of each gain
        with a fixed floor, and a flat band for the command offsets."""
        spans = [
            max(self.delta_k_fraction * incumbent.kP[0], self.delta_k_floor),
            max(self.delta_k_fraction * incumbent.kD[0], self.delta_k_floor),
            max(self.delta_k_fraction * incumbent.kP[1], self.delta_k_floor),
            max(self.delta_k_fraction * incumbent.kD[1], self.delta_k_floor),
            self.delta_p_bound,
            self.delta_p_bound,
        ]
        spans = np.array(spans)
        return Box(-spans, spans)

    def sweep_grid(self) -> tuple:
        return tuple(
            GaitParameter(vx, vy, h)
            for vx in self.sweep_vx for vy in self.sweep_vy for h in self.sweep_h
        )

    def root_seed(self) -> SeedSpec:
        return SeedSpec(self.seed)


def desk_scale_config(seed: int = 0) -> PipelineConfig:
    """A configuration small enough to run end to end in minutes."""
    step = [GaitParameter(0.0, 0.0, 1.0), GaitParameter(0.0, 0.0, 0.8)]
    walk = [GaitParameter(0.4, 0.0, 1.0), GaitParameter(-0.4, 0.0, 1.0),
            GaitParameter(0.4, 0.0, 0.8), GaitParameter(-0.4, 0.0, 0.8)]
    return PipelineConfig(
        vx_nodes=(-0.4, 0.0, 0.4),
        vy_nodes=(0.0,),
        h_nodes=(0.8, 1.0),
        p_sim1=tuple(step),
        p_sim2=tuple(walk),
        p_real=tuple(step),
        i1=40, i2=15, i3=10,
        init_counts=(8, 5, 3),
        sweep_vx=tuple(np.round(np.arange(-1.2, 1.2 + 1e-9, 0.4), 10)),
        sweep_vy=tuple(np.round(np.arange(-0.4, 0.4 + 1e-9, 0.2), 10)),
        sweep_h=(0.7, 0.8, 0.9, 1.0),
        seed=seed,
    )


def full_scale_config(seed: int = 0) -> PipelineConfig:
    """The full-size schedule: 308 grid nodes, 8000 simulated episodes."""
    vx = tuple(np.round(np.arange(-1.0, 1.0 + 1e-9, 0.2), 10))
    vy = tuple(np.round(np.arange(-0.3, 0.3 + 1e-9, 0.1), 10))
    h = (0.7, 0.8, 0.9, 1.0)
    p_sim1 = tuple(GaitParameter(0.0, 0.0, hh) for hh in (1.0, 0.9, 0.8, 0.7))
    nominal = {(g.vx, g.vy, g.h) for g in p_sim1}
    p_sim2 = tuple(
        GaitParameter(a, b, c)
        for a in vx for b in vy for c in h
        if (a, b, c) not in nominal
    )
    p_real = (GaitParameter(0.0, 0.0, 1.0), GaitParameter(0.0, 0.0, 0.9),
              GaitParameter(0.0, 0.0, 0.8))
    return PipelineConfig(
        vx_nodes=vx, vy_nodes=vy, h_nodes=h,
        p_sim1=p_sim1, p_sim2=p_sim2, p_real=p_real,
        i1=100, i2=25, i3=10,
        init_counts=(10, 5, 3),
        sweep_vx=tuple(np.round(np.arange(-1.2, 1.2 + 1e-9, 0.2), 10)),
        sweep_vy=tuple(np.round(np.arange(-0.4, 0.4 + 1e-9, 0.1), 10)),
        sweep_h=tuple(np.round(np.arange(0.65, 1.05 + 1e-9, 0.05), 10)),
        seed=seed,
    )


def sim_budget(cfg: PipelineConfig) -> int:
    """Total simulated episodes the two simulation phases will consume."""
    return len(cfg.p_sim1) * cfg.i1 + len(cfg.p_sim2) * cfg.i2


def real_budget(cfg: PipelineConfig) -> int:
    """Total real-plant episodes the correction phase will consume."""
    return len(cfg.p_real) * cfg.i3


def gait_run_name(gait: GaitParameter) -> str:
    """Directory name of one gait's run log, stable across runs."""
    return f"vx{gait.vx:g}_vy{gait.vy:g}_h{gait.h:g}"


def _check_segment(cfg: PipelineConfig, plant: PlantConfig) -> None:
    """Raise ConfigurationError unless an episode on plant, one sample per dt
    over EPISODE_DURATION, holds the objective's trailing segment."""
    _segment_samples(cfg.objective.segment_duration, plant.dt,
                     round(EPISODE_DURATION / plant.dt) + 1)


def _write_log(result: BOResult, out_dir, phase: str, gait: GaitParameter) -> None:
    if out_dir is None:
        return
    run_dir = os.path.join(out_dir, "runs", phase, gait_run_name(gait))
    os.makedirs(run_dir, exist_ok=True)
    write_run_log(result, os.path.join(run_dir, "log.json"))


def _sim_gains(commands, x: np.ndarray) -> np.ndarray:
    """The gain rows of a 6-vector of gains at each of an episode's commands:
    kP then kD, no command offset."""
    return np.tile(np.concatenate([x, np.zeros(3)]), (len(commands), 1))


def _learning_observer(cfg: PipelineConfig, plant: PlantConfig, gaits,
                       poly: SafePolyhedron | None = None) -> tuple:
    """(commands, observe): commands[k] lists the commands of gaits[k]'s
    learning profile, and observe(gains, seeds) runs each gait's learning
    episode on gains[k], one gain row per command, all in one rollout, as a
    BO run's (cost, h_value, fell). h_value is None without a safe set poly;
    with one it is constraint_value of the converged gait, or 0.5 for a
    fall. The episodes' profiles and starts are built once.
    """
    profiles, commands, starts = _learning_episodes(gaits)
    targets = np.array([gait.as_array() for gait in gaits])

    def observe(gains, seeds) -> list:
        fell, segments = _learning_segments(plant, gains, profiles, starts, seeds,
                                            cfg.objective.segment_duration)
        completed = ~fell
        moments = _segment_moments(segments)
        costs = np.full(len(gaits), cfg.objective.fall_penalty)
        costs[completed] = _segment_costs(moments, targets[completed], cfg.objective)
        if poly is None:
            return [(cost, None, down) for cost, down in zip(costs.tolist(), fell.tolist())]
        h_values = np.full(len(gaits), 0.5)
        h_values[completed] = _constraint_values(poly, moments[0])
        return list(zip(costs.tolist(), h_values.tolist(), fell.tolist()))
    return commands, observe


def _gain_black_box(gait: GaitParameter, cfg: PipelineConfig, plant: PlantConfig,
                    run_seed: SeedSpec):
    """Evaluate one 6-vector of gains by running a learning episode, the
    i-th seeded from the run seed's episode substream at i."""
    (commands,), observe = _learning_observer(cfg, plant, [gait])
    calls = 0

    def evaluate(x):
        nonlocal calls
        seed, calls = run_seed.derive(_EPISODE_KEY, calls), calls + 1
        return observe([_sim_gains(commands, x)], [seed])[0]
    return evaluate


@contextlib.contextmanager
def _failure_names_gait(what: str, gait: GaitParameter):
    """Re-raise a BlackBoxError naming the phase's quantity and the gait."""
    try:
        yield
    except BlackBoxError as exc:
        raise BlackBoxError(
            f"{what} learning failed at gait ({gait.vx}, {gait.vy}, {gait.h}): {exc}",
            exc.history) from exc


def _warm_design(first, run_seed: SeedSpec, box: Box, init_count: int) -> list:
    """An initial design starting at first, the rest drawn from the run seed's
    stream 0."""
    rng = run_seed.generator(0)
    return [first] + [from_unit(rng.random(box.n_dims), box) for _ in range(init_count - 1)]


def _sim_schedule(cfg: PipelineConfig) -> list:
    """Every learn-sim run in run order, as (phase, index, gait, parent, dist).

    The p_sim1 gaits come first, with no parent. Each p_sim2 gait then runs
    once it is the one nearest the finished set, the lowest index winning
    ties. Its parent is the schedule position of its nearest finished gait,
    the earliest finisher winning ties, at distance dist. The order depends
    only on gait positions, so it is fixed before any episode runs.
    """
    schedule = [("sim1", i, gait, None, None) for i, gait in enumerate(cfg.p_sim1)]
    waiting = {i: (math.inf, None) for i in range(len(cfg.p_sim2))}  # (dist, parent)

    def finish(position: int, gait: GaitParameter) -> None:
        for i, (best, _) in waiting.items():
            d = float(np.linalg.norm(cfg.p_sim2[i].as_array() - gait.as_array()))
            if d < best:
                waiting[i] = (d, position)

    for position, run in enumerate(schedule):
        finish(position, run[2])
    while waiting:
        i = min(waiting, key=lambda k: (waiting[k][0], k))
        dist, parent = waiting.pop(i)
        schedule.append(("sim2", i, cfg.p_sim2[i], parent, dist))
        finish(len(schedule) - 1, cfg.p_sim2[i])
    return schedule


def _fill_table(cfg: PipelineConfig, visited: dict) -> GainTable:
    """Assemble the full grid from per-gait optima, 9-vectors keyed by (vx, vy, h).

    Nodes never visited are interpolated from the visited ones, in one
    _interpolate call, when those form a complete sub-grid; otherwise each
    copies its nearest visited node.
    """
    sub = [sorted({key[axis] for key in visited}) for axis in range(3)]
    corners = list(itertools.product(*sub))  # the visited keys are among them
    nodes = np.stack(np.meshgrid(*cfg.node_axes, indexing="ij"), axis=-1)
    values = np.zeros(nodes.shape[:3] + (9,))
    unvisited = np.ones(nodes.shape[:3], dtype=bool)
    for key in reversed(visited):  # so the first key on a node wins
        index = _node_indices(cfg.node_axes, key)
        values[index], unvisited[index] = visited[key], False
    if len(visited) == len(corners) and unvisited.any():
        aux = GainTable(*sub, np.reshape([visited[key] for key in corners],
                                         tuple(map(len, sub)) + (9,)))
        values[unvisited] = _interpolate(aux, nodes[unvisited])
    else:
        for index in zip(*np.nonzero(unvisited)):
            nearest = min(visited, key=lambda k: float(np.linalg.norm(np.array(k) - nodes[index])))
            values[index] = visited[nearest]
    return GainTable(cfg.vx_nodes, cfg.vy_nodes, cfg.h_nodes, values)


def _sim_levels(schedule: list) -> list:
    """Schedule positions by level, each level in schedule order.

    A run's level is 0 without a parent, and its parent's level plus 1
    otherwise. The runs of one level do not depend on each other.
    """
    depth: list = []
    levels: list = []
    for position, (_, _, _, parent, _) in enumerate(schedule):
        depth.append(0 if parent is None else depth[parent] + 1)
        if depth[-1] == len(levels):
            levels.append([])
        levels[depth[-1]].append(position)
    return levels


def _run_level(what: str, runs: list, iterations: int, init_count: int,
               cfg: PipelineConfig, plant: PlantConfig, episode_gains,
               poly: SafePolyhedron | None = None) -> list:
    """The BO runs of one level in lockstep; runs lists each run's
    (gait, run seed, box, first design point), and the runs share the budget,
    the init count and the safe set poly, constrained by cfg.constraint if given.

    Each step of bo._drive_level reads every run's episode from one call of
    the level's _learning_observer, each seeded by its run's evaluation index;
    an episode at x runs on the gain rows episode_gains(gait, commands, x) of
    its learning profile's commands. Each run's results
    equal those of its own optimize call; a failure names the phase's
    quantity (what) and the run's gait.
    """
    gaits = [gait for gait, _, _, _ in runs]
    spec = None if poly is None else cfg.constraint
    bo_runs = [_BORun(box, iterations, init_count, spec, seed=run_seed,
                      initial_design=_warm_design(first, run_seed, box, init_count))
               for _, run_seed, box, first in runs]
    commands, observe = _learning_observer(cfg, plant, gaits, poly)

    def episodes(xs) -> list:
        gains = [episode_gains(*episode) for episode in zip(gaits, commands, xs)]
        seeds = [run.seed.derive(_EPISODE_KEY, len(run.history)) for run in bo_runs]
        return [lambda obs=obs: obs for obs in observe(gains, seeds)]

    return _drive_level(bo_runs, episodes, lambda i: _failure_names_gait(what, gaits[i]))


def learn_sim(cfg: PipelineConfig, out_dir=None, plant: PlantConfig | None = None,
              ) -> GainTable:
    """Tune gains for every listed gait in simulation and build the table.

    Nominal gaits run first with full budgets and random starts; the rest
    run in order of distance to the nearest finished gait, reusing its
    optimum as the first design point. That order and each gait's parent
    depend only on gait positions, so _sim_schedule fixes them up front.
    The nominal runs go one after another; then each level of the rest runs
    in lockstep, since a run needs only its parent's optimum.
    """
    plant = sim_config() if plant is None else plant
    _check_segment(cfg, plant)
    root = cfg.root_seed()
    box = cfg.gain_box
    schedule = _sim_schedule(cfg)
    levels = _sim_levels(schedule)
    results: list = [None] * len(schedule)  # by schedule position

    for position in levels[0]:
        _, index, gait, _, _ = schedule[position]
        run_seed = root.derive(_STREAM_SIM1, index)
        # sim-1 stays on optimize while the benchmark tracer reads its span (ROADMAP item 1)
        with _failure_names_gait("gain", gait):
            results[position] = optimize(_gain_black_box(gait, cfg, plant, run_seed), box,
                                         cfg.i1, cfg.init_counts[0], seed=run_seed)
        _write_log(results[position], out_dir, "sim1", gait)
    for level in levels[1:]:
        runs = []
        for position in level:
            _, index, gait, parent, _ = schedule[position]
            runs.append((gait, root.derive(_STREAM_SIM2, index), box,
                         from_unit(results[parent].best_x, box)))
        level_results = _run_level("gain", runs, cfg.i2, cfg.init_counts[1], cfg, plant,
                                   lambda gait, commands, x: _sim_gains(commands, x))
        for position, result in zip(level, level_results):
            results[position] = result
            _write_log(result, out_dir, "sim2", schedule[position][2])

    visited: dict = {}  # each run's optimum, as a 9-vector
    for (phase, _, gait, _, dist), result in zip(schedule, results):
        visited[(gait.vx, gait.vy, gait.h)] = _sim_gains((gait,), from_unit(result.best_x, box))[0]
        where = "" if dist is None else f" (dist {dist:.3g})"
        logger.info("%s %s%s: best cost %.6g", phase, gait_run_name(gait), where,
                    result.best_cost)

    table = _fill_table(cfg, visited)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_table(table, os.path.join(out_dir, "gaintable_sim.json"))
    return table


def extract_safe_set(table: GainTable, cfg: PipelineConfig,
                     out_dir=None) -> tuple[SweepResult, SafePolyhedron]:
    """Sweep the command grid through the tuned table and hull the survivors."""
    grid = cfg.sweep_grid()
    plant = sim_config()
    _check_segment(cfg, plant)
    sweep = sweep_commands(table, plant, grid, cfg.root_seed().derive(_STREAM_SWEEP),
                           segment_duration=cfg.objective.segment_duration)
    try:
        poly = convex_hull(sweep.p_c, cfg.shrink_factor)
    except DegenerateGeometryError as exc:
        raise SafeSetError(f"safe points do not span a volume: {exc}") from exc
    logger.info("safe set: %d/%d commands feasible, %d hull vertices",
                len(sweep.feasible_commands), len(grid), poly.vertices.shape[0])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_polyhedron(poly, os.path.join(out_dir, "safeset.json"))
    return sweep, poly


def learn_real(table: GainTable, poly: SafePolyhedron, cfg: PipelineConfig,
               out_dir=None, plant: PlantConfig | None = None,
               ) -> tuple[GainTable, list]:
    """Learn per-gait corrections on the real plant inside the safe region.

    The zero correction is always evaluated first, so the returned table can
    never do worse than the uncorrected one under the same evaluation
    stream. The p_real runs form one constrained level, run in lockstep.
    Returns the corrected table and the (gait, correction) pairs.
    """
    plant = real_config() if plant is None else plant
    _check_segment(cfg, plant)
    root = cfg.root_seed()
    runs = [(gait, root.derive(_STREAM_REAL, i), cfg.correction_box(lookup(table, gait)),
             np.zeros(6)) for i, gait in enumerate(cfg.p_real)]
    results = _run_level(
        "correction", runs, cfg.i3, cfg.init_counts[2], cfg, plant,
        lambda gait, commands, c: _resolve_gains(
            [apply_corrections(table, [(gait, correction_from_vector(c))])], [commands])[0], poly)
    corrections = []
    for (gait, _, box, _), result in zip(runs, results):
        corrections.append((gait, correction_from_vector(from_unit(result.best_x, box))))
        _write_log(result, out_dir, "real", gait)
        logger.info("real %s: best cost %.6g (incumbent %.6g)",
                    gait_run_name(gait), result.best_cost, result.history[0].cost)

    h_values = [ev.h_value for result in results for ev in result.history]
    if h_values:
        h_positive = sum(1 for h in h_values if h is not None and h > 0.0)
        logger.info("real phase safety: %d/%d evaluations violated the safe region (%.1f%%)",
                    h_positive, len(h_values), 100.0 * h_positive / len(h_values))
    corrected = apply_corrections(table, corrections)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_table(corrected, os.path.join(out_dir, "gaintable_real.json"))
    return corrected, corrections


def baseline_table(cfg: PipelineConfig) -> GainTable:
    """A comparison table of random gains from the central half of the box.

    Seeded from the pipeline root, so the baseline is as reproducible as the
    learned tables.
    """
    box = cfg.gain_box
    rng = cfg.root_seed().derive(_STREAM_BASELINE).generator()
    lo = box.lower + 0.25 * box.widths
    shape = (len(cfg.vx_nodes), len(cfg.vy_nodes), len(cfg.h_nodes))
    values = np.zeros(shape + (9,))
    values[..., :6] = lo + 0.5 * box.widths * rng.random(shape + (6,))
    return GainTable(cfg.vx_nodes, cfg.vy_nodes, cfg.h_nodes, values)


@dataclass(frozen=True)
class TableBenchmark:
    """One table's sweep outcome: counts and componentwise error means."""

    label: str
    feasible_count: int
    mean_abs_error: tuple | None
    mean_oscillation: tuple | None

    def __post_init__(self):
        object.__setattr__(self, "feasible_count",
                           _whole_number(self.feasible_count, "feasible_count", 0.0))
        for name in ("mean_abs_error", "mean_oscillation"):
            v = getattr(self, name)
            if v is not None:
                v = _array(v, name, (3,))
                if np.any(v < 0.0):
                    raise ValueError(f"{name} must be three nonnegative values")
                object.__setattr__(self, name, tuple(v.tolist()))
        if (self.mean_abs_error is None) != (self.feasible_count == 0):
            raise ValueError("error means must be present exactly when runs succeeded")


@dataclass(frozen=True)
class BenchmarkReport:
    """Two tables swept over the same commands with the same noise streams."""

    grid_size: int
    table_a: TableBenchmark
    table_b: TableBenchmark
    feasible_winner: str
    tracking_winner: str

    def __post_init__(self):
        object.__setattr__(self, "grid_size", _whole_number(self.grid_size, "grid_size", 0.0))
        if self.table_a.feasible_count > self.grid_size:
            raise ValueError("table_a feasible count exceeds the grid")
        if self.table_b.feasible_count > self.grid_size:
            raise ValueError("table_b feasible count exceeds the grid")


def _table_stats(label: str, sweep: SweepResult) -> TableBenchmark:
    if not sweep.feasible_commands:
        return TableBenchmark(label, 0, None, None)
    commands = np.array([cmd.as_array() for cmd in sweep.feasible_commands])
    err = np.mean(np.abs(sweep.p_c - commands), axis=0)
    osc = np.mean(sweep.p_c_max - sweep.p_c_min, axis=0)
    return TableBenchmark(label, len(commands), tuple(err), tuple(osc))


def _winner(a: TableBenchmark, b: TableBenchmark, key) -> str:
    va, vb = key(a), key(b)
    if va == vb:
        return "tie"
    return a.label if va > vb else b.label


def benchmark(table_a: GainTable, table_b: GainTable, cfg: PipelineConfig,
              plant: PlantConfig, out_dir=None,
              labels: tuple = ("tuned", "baseline")) -> BenchmarkReport:
    """Sweep both tables over the command grid with identical noise streams.

    The report names each winner by its label, so ConfigurationError unless
    the two labels differ and neither is "tie"."""
    if labels[0] == labels[1] or "tie" in labels:
        raise ConfigurationError(f"benchmark labels must differ and not be 'tie', got {labels!r}")
    _check_segment(cfg, plant)
    grid = cfg.sweep_grid()
    seed = cfg.root_seed().derive(_STREAM_BENCH)
    sweep_a = sweep_commands(table_a, plant, grid, seed,
                             segment_duration=cfg.objective.segment_duration)
    sweep_b = sweep_commands(table_b, plant, grid, seed,
                             segment_duration=cfg.objective.segment_duration)
    stats_a = _table_stats(labels[0], sweep_a)
    stats_b = _table_stats(labels[1], sweep_b)

    def tracking_score(t: TableBenchmark) -> float:
        # lower mean error wins; an empty sweep always loses
        if t.mean_abs_error is None:
            return -np.inf
        return -float(np.mean(t.mean_abs_error))

    report = BenchmarkReport(
        grid_size=len(grid),
        table_a=stats_a,
        table_b=stats_b,
        feasible_winner=_winner(stats_a, stats_b, lambda t: t.feasible_count),
        tracking_winner=_winner(stats_a, stats_b, tracking_score),
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_benchmark(report, os.path.join(out_dir, "benchmark.json"))
    return report


def _table_to_dict(t: TableBenchmark) -> dict:
    return {
        "label": t.label,
        "feasible_count": t.feasible_count,
        "mean_abs_error": None if t.mean_abs_error is None else list(t.mean_abs_error),
        "mean_oscillation": (None if t.mean_oscillation is None
                             else list(t.mean_oscillation)),
    }


def benchmark_to_json_dict(report: BenchmarkReport) -> dict:
    return {
        "grid_size": report.grid_size,
        "table_a": _table_to_dict(report.table_a),
        "table_b": _table_to_dict(report.table_b),
        "summary": {
            "feasible_winner": report.feasible_winner,
            "tracking_winner": report.tracking_winner,
        },
    }


def save_benchmark(report: BenchmarkReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(benchmark_to_json_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
