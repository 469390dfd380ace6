"""Constrained Bayesian optimization for gain-scheduled gait controllers."""

from .domain import (
    Box,
    ControlParams,
    Correction,
    GaitParameter,
    SeedSpec,
    apply_correction,
    correction_from_vector,
    from_unit,
    to_unit,
)
from .plant import (
    CommandProfile,
    PlantConfig,
    PlantState,
    Trajectory,
    disturbance_free,
    real_config,
    run_episode,
    run_episodes,
    sim_config,
)
from .scheduler import GainTable, apply_corrections, load_table, lookup, save_table, upsert
from .objective import ConvergedStats, ObjectiveConfig, converged_stats, evaluate_cost
from .gp import GPModel, Hyperparams, fit, fit_hyper, posterior_batch
from .bo import BOResult, ConstraintSpec, Evaluation, expected_improvement, optimize, propose
from .safeset import (
    SafePolyhedron,
    SweepResult,
    constraint_value,
    contains,
    convex_hull,
    load_polyhedron,
    save_polyhedron,
    sweep_commands,
)
from .pipeline import (
    BenchmarkReport,
    PipelineConfig,
    TableBenchmark,
    baseline_table,
    benchmark,
    desk_scale_config,
    extract_safe_set,
    learn_real,
    learn_sim,
    full_scale_config,
    real_budget,
    sim_budget,
)

__version__ = "0.1.0"
