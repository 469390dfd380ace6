"""Bayesian optimization with expected improvement and a latent feasibility GP.

All internal search happens on the unit cube; callers supply a Box and the
black box is evaluated in original units. A level of runs proposes in one
array pass: each run draws its seeded candidates into one (runs, 1024, d)
block, one stacked posterior call scores it, and each run's std scale, EI and
pick are array expressions over its row. A constrained run picks among its
candidates by EI times feasibility, scored in one more stacked call over the
constrained runs' h models; the other runs refine their best candidates
together in a fixed number of best-improvement rounds, each scoring every
run's 2d axis moves as one (runs, 2d, d) block, written in place into one
array held across rounds. All of a level's scoring calls share one posterior
workspace, allocated once per level. A run's point does not depend on the
other runs of its level. EI and feasibility each have one elementwise
kernel, which the scalar functions read on one element. An observation's
fields are checked by one rule, for a black box's result and an Evaluation
alike. scipy.special loads at the first EI or feasibility value, not on
import.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .domain import Box, SeedSpec, _number, _real, _whole_number, from_unit, to_unit
from .errors import BlackBoxError, ConfigurationError, SimulationError
from .gp import (GPModel, _fit_best, _ModelStack, _real_array, _stack_models,
                 _stacked_moments, _std_ratio, _workspace, default_hyper_grid, fit)

__all__ = [
    "Evaluation",
    "ConstraintSpec",
    "BOResult",
    "expected_improvement",
    "feasibility_from_moments",
    "propose",
    "optimize",
    "result_to_log_entries",
    "write_run_log",
]

logger = logging.getLogger(__name__)

N_CANDIDATES = 1024
REFINE_STEPS = 20
REFINE_STEP_SIZE = 0.05
HYPER_REFIT_PERIOD = 5

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@functools.cache
def _ndtr():
    from scipy.special import ndtr
    return ndtr


@dataclass(frozen=True)
class Evaluation:
    """One black-box observation, with the query point in unit-cube coordinates."""

    x: np.ndarray
    cost: float
    h_value: float | None
    fell: bool

    def __post_init__(self):
        x = np.array(_real_array(self.x, "evaluation point"))
        if x.ndim != 1:
            raise ValueError(f"evaluation point must be 1-D, got shape {x.shape}")
        cost, h_value, fell = _observation_fields(self.cost, self.h_value, self.fell)
        if not np.isfinite(cost):
            raise ValueError(f"evaluation cost must be finite, got {cost}")
        if h_value is not None and not np.isfinite(h_value):
            raise ValueError(f"constraint observation must be finite, got {h_value}")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "h_value", h_value)
        object.__setattr__(self, "fell", fell)


def _observation_fields(cost, h_value, fell) -> tuple[float, float | None, bool]:
    """An observation's (cost, h_value, fell) as a float, None or a float, and
    a bool: the numbers through _number, fell a Python or numpy bool;
    ConfigurationError (a ValueError) for anything else."""
    if not isinstance(fell, (bool, np.bool_)):
        raise ConfigurationError(f"fell must be a bool, got {fell!r}")
    return (_number(cost, "cost"),
            None if h_value is None else _number(h_value, "constraint observation"),
            bool(fell))


@dataclass(frozen=True)
class ConstraintSpec:
    """How to treat the latent constraint: tolerance on infeasibility risk."""

    tolerance: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "tolerance", _real(self.tolerance, "tolerance", 0.0, 1.0))


@dataclass(frozen=True)
class BOResult:
    """Outcome of a run: best observed point plus the full history."""

    best_x: np.ndarray
    best_cost: float
    history: tuple
    best_cost_trace: np.ndarray

    def __post_init__(self):
        best_x = np.array(self.best_x, dtype=float)
        best_x.setflags(write=False)
        trace = np.array(self.best_cost_trace, dtype=float)
        trace.setflags(write=False)
        object.__setattr__(self, "best_x", best_x)
        object.__setattr__(self, "best_cost_trace", trace)
        object.__setattr__(self, "history", tuple(self.history))
        if len(self.history) != trace.shape[0]:
            raise ValueError("trace length must match history length")
        if np.any(np.diff(trace) > 0.0):
            raise ValueError("best-cost trace must be nonincreasing")


def _ei_positive(improve, std):
    """Expected improvement for a positive std, given improve = best - mean."""
    z = improve / std
    return improve * _ndtr()(z) + std * (np.exp(-0.5 * np.square(z)) / _SQRT_2PI)


def _ei_values(means: np.ndarray, stds: np.ndarray, best) -> np.ndarray:
    """Elementwise expected improvement below best, minimization convention;
    a zero std gives the clipped improvement max(best - mean, 0)."""
    improve = best - means
    if stds.min() > 0.0:
        return _ei_positive(improve, stds)
    out = np.maximum(improve, 0.0)
    positive = stds > 0.0
    out[positive] = _ei_positive(improve[positive], stds[positive])
    return out


def _feasibility_values(means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Elementwise probability that a Gaussian constraint belief lands at or
    below zero; a zero std gives the indicator of mean <= 0."""
    out = np.where(means <= 0.0, 1.0, 0.0)
    positive = stds > 0.0
    out[positive] = _ndtr()((0.0 - means[positive]) / stds[positive])
    return out


def _check_moments(**values) -> None:
    """ValueError for a value that is not a number (see _number), NaN or
    infinite, or a negative std."""
    for name, value in values.items():
        if not math.isfinite(_number(value, name)):
            raise ValueError(f"{name} must be finite, not NaN or infinite, got {value}")
    if values.get("std", 0.0) < 0.0:
        raise ValueError(f"std must be nonnegative, got {values['std']}")


def expected_improvement(mean: float, std: float, best: float) -> float:
    """Expected improvement of a Gaussian belief over the incumbent best.

    With zero predictive std this degenerates to max(best - mean, 0).
    """
    _check_moments(mean=mean, std=std, best=best)
    return float(_ei_values(np.array([mean], dtype=float), np.array([std], dtype=float),
                            best)[0])


def feasibility_from_moments(mean: float, std: float) -> float:
    """Probability that a Gaussian constraint belief lands at or below zero."""
    _check_moments(mean=mean, std=std)
    return float(_feasibility_values(np.array([mean], dtype=float),
                                     np.array([std], dtype=float))[0])


def _refine_level(stack: _ModelStack, starts, ratios, bests, work: np.ndarray) -> np.ndarray:
    """Best-improvement ascent of EI from each start inside the unit cube, the
    runs advanced together; returns each run's final point, one row per run.

    Run j climbs model j's EI below bests[j], its stds scaled by ratios[j].
    Each of REFINE_STEPS rounds scores, in one stacked posterior call, all
    2d moves point ± step along each axis, clipped to the cube, of every run.
    A run takes its best move (the first, on a tie) if it beats its best
    score so far, and halves its step otherwise. The moves are written into
    one block held across rounds, and every call scores in the workspace
    work (see _stacked_moments).
    """
    points = np.array(starts, dtype=float)
    runs, n_dims = points.shape
    # move m shifts coordinate m // 2, up for even m
    shifts = np.repeat(np.eye(n_dims), 2, axis=0) * np.tile([1.0, -1.0], n_dims)[:, None]
    ratios, bests = np.asarray(ratios)[:, None], np.asarray(bests)[:, None]

    def scores(X):
        means, stds = _stacked_moments(stack, X, work)
        return _ei_values(means, stds * ratios, bests)

    top = scores(points[:, None, :])[:, 0]
    steps = np.full(runs, REFINE_STEP_SIZE)
    run = np.arange(runs)
    moves = np.empty((runs, 2 * n_dims, n_dims))
    for _ in range(REFINE_STEPS):
        np.multiply(steps[:, None, None], shifts, out=moves)
        np.add(points[:, None, :], moves, out=moves)
        np.maximum(moves, 0.0, out=moves)
        np.minimum(moves, 1.0, out=moves)
        move_scores = scores(moves)
        pick = np.argmax(move_scores, axis=1)
        gain = move_scores[run, pick]
        better = gain > top
        np.copyto(points, moves[run, pick], where=better[:, None])
        np.copyto(top, gain, where=better)
        np.copyto(steps, 0.5 * steps, where=~better)
    return points


def propose(obj_model: GPModel, h_model: GPModel | None, spec: ConstraintSpec | None,
            best: float, rng: np.random.Generator) -> np.ndarray:
    """Pick the next unit-cube query point.

    N_CANDIDATES candidates are drawn from rng and their posterior computed
    once; it gives both their EI and the adaptive std scale. Unconstrained:
    take the best-EI candidate and refine it in REFINE_STEPS rounds, each
    scoring all 2d axis moves from the point in one posterior call and
    taking the best if it improves, else halving the step. Constrained:
    among candidates whose feasibility probability clears 1 - tolerance,
    maximize EI times that probability; if none clears it, fall back to the
    most likely feasible candidate. A non-finite best, or an h model whose
    dimension is not the objective model's, raises ValueError.
    """
    n_points = max(m.n_points for m in (obj_model, h_model) if m is not None)
    return _propose_level([(obj_model, h_model, spec, best, rng)],
                          _workspace(1, n_points, N_CANDIDATES))[0]


def _propose_level(problems, work: np.ndarray) -> list:
    """propose on each (obj_model, h_model, spec, best, rng) tuple, in one
    array pass over the level; each point is the one its run gets alone,
    bit for bit.

    The level's objective models share a point count and a dimension, and
    so do the h models of its constrained runs (those given both an h model
    and a spec). Each run draws its candidates from its own generator into
    one (runs, N_CANDIDATES, d) block, which one stacked posterior call
    scores; one more scores the constrained runs' rows under their h models.
    The other runs' best-EI candidates go through one _refine_level. Every
    scoring call works in the workspace work, which must hold
    _workspace(runs, n, N_CANDIDATES) for the largest point count n of the
    level's models.
    """
    if not problems:
        return []
    for obj_model, h_model, _, best, _ in problems:
        _check_moments(best=best)
        if h_model is not None and h_model.X.shape[1] != obj_model.X.shape[1]:
            raise ValueError(f"h model has {h_model.X.shape[1]} dims, objective model "
                             f"has {obj_model.X.shape[1]}")
    obj_models, h_models, specs, bests, rngs = zip(*problems)
    cand = np.stack([rng.random((N_CANDIDATES, m.X.shape[1]))
                     for m, rng in zip(obj_models, rngs)])
    means, stds = _stacked_moments(_stack_models(obj_models), cand, work)
    ratios = _std_ratio(np.array([m.prior_std for m in obj_models]), stds)
    bests = np.array(bests, dtype=float)
    ei = _ei_values(means, stds * ratios[:, None], bests[:, None])
    points = cand[np.arange(len(cand)), np.argmax(ei, axis=1)]

    constrained = np.array([h is not None and spec is not None
                            for h, spec in zip(h_models, specs)])
    bound, free = np.flatnonzero(constrained), np.flatnonzero(~constrained)
    if bound.size:
        pf = _feasibility_values(*_stacked_moments(_stack_models(h_models[j] for j in bound),
                                                   cand[bound], work))
        qualifies = pf >= 1.0 - np.array([[specs[j].tolerance] for j in bound])
        fallback = ~np.any(qualifies, axis=1)
        for _ in range(np.count_nonzero(fallback)):
            logger.warning("no candidate clears the feasibility threshold; "
                           "falling back to the most plausibly feasible point")
        score = np.where(qualifies, ei[bound] * pf, -np.inf)
        points[bound] = cand[bound, np.where(fallback, np.argmax(pf, axis=1),
                                             np.argmax(score, axis=1))]
    if free.size:
        points[free] = _refine_level(_stack_models(obj_models[j] for j in free),
                                     points[free], ratios[free], bests[free], work)
    return list(points)


def _parse_observation(raw) -> tuple[float, float | None, bool]:
    """A black box's observation as _observation_fields' (cost, h_value,
    fell); a bare number is a cost, and a pair (cost, h_value) did not fall.
    ValueError for anything else."""
    if isinstance(raw, (tuple, list)):
        if len(raw) == 3:
            cost, h, fell = raw
        elif len(raw) == 2:
            cost, h = raw
            fell = False
        else:
            raise ValueError(f"black box returned a {len(raw)}-tuple; expected "
                             "(cost, h_value, fell)")
    else:
        cost, h, fell = raw, None, False
    return _observation_fields(cost, h, fell)


class _BORun:
    """One BO run, advanced one evaluation at a time.

    It holds the run's initial design, its history, the hyperparameter-refit
    state and its seed. The design points come first; after them each point
    comes from propose on proposal_inputs(). evaluate records an observation.
    """

    def __init__(self, box: Box, iterations: int, init_count: int,
                 spec: ConstraintSpec | None = None, initial_design=None,
                 seed: SeedSpec = SeedSpec(0)):
        init_count = _whole_number(init_count, "init_count", 1.0)
        iterations = _whole_number(iterations, "iterations", 1.0)
        if iterations < init_count:
            raise ConfigurationError(
                f"iterations ({iterations}) must cover the initial design ({init_count})"
            )
        if initial_design is not None:
            design = [np.asarray(x, dtype=float) for x in initial_design]
            if not design:
                raise ConfigurationError("initial design must not be empty when given")
            if len(design) > iterations:
                raise ConfigurationError(
                    f"initial design has {len(design)} points, more than {iterations} "
                    "iterations"
                )
            for x in design:
                to_unit(x, box)  # raises RangeError before anything is evaluated
        else:
            rng_init = seed.generator(0)
            design = [from_unit(rng_init.random(box.n_dims), box) for _ in range(init_count)]
        self.box = box
        self.iterations = iterations
        self.spec = spec
        self.seed = seed
        self.design = design
        self.history: list[Evaluation] = []
        self._grid = default_hyper_grid(box.n_dims)
        self._hyper: dict = {}  # the last searched hyperparameters, by modelled quantity

    def proposal_inputs(self) -> tuple:
        """propose's arguments for the next point: the models fitted to the
        history, the constraint spec, the best cost and the step's generator."""
        k = len(self.history)
        refit = (k - len(self.design)) % HYPER_REFIT_PERIOD == 0

        def model(name: str, U, y) -> GPModel:
            if refit or name not in self._hyper:
                found = _fit_best(U, y, self._grid)
                self._hyper[name] = found.hyper
                return found
            return fit(U, y, self._hyper[name])

        costs = np.array([ev.cost for ev in self.history])
        obj_model = model("cost", np.array([ev.x for ev in self.history]), costs)
        h_model = None
        if self.spec is not None:
            observed = [ev for ev in self.history if ev.h_value is not None]
            if observed:
                h_model = model("h", np.array([ev.x for ev in observed]),
                                np.array([ev.h_value for ev in observed]))
        return obj_model, h_model, self.spec, float(costs.min()), self.seed.generator(1, k)

    def failure(self, message: str) -> BlackBoxError:
        """A BlackBoxError carrying the history so far."""
        return BlackBoxError(message, tuple(self.history))

    def evaluate(self, x_orig: np.ndarray, observe) -> None:
        """Record the observation observe() gives at the original-units x_orig.

        A failure of observe other than BlackBoxError, an observation of the
        wrong shape or type, and a non-finite cost or constraint observation
        raise BlackBoxError carrying the history so far.
        """
        try:
            cost, h_value, fell = _parse_observation(observe())
        except BlackBoxError:
            raise
        except Exception as exc:
            raise self.failure(f"black box failed at x={x_orig}: {exc}") from exc
        if not np.isfinite(cost):
            raise self.failure(f"black box returned non-finite cost at x={x_orig}")
        if h_value is not None and not np.isfinite(h_value):
            raise self.failure(
                f"black box returned non-finite constraint observation at x={x_orig}")
        self.history.append(Evaluation(to_unit(x_orig, self.box), cost, h_value, fell))

    def result(self) -> BOResult:
        costs = np.array([ev.cost for ev in self.history])
        best_idx = int(np.argmin(costs))
        return BOResult(
            best_x=self.history[best_idx].x,
            best_cost=float(costs[best_idx]),
            history=tuple(self.history),
            best_cost_trace=np.minimum.accumulate(costs),
        )


def _drive_level(runs: list, evaluate_batch, names_failure=contextlib.nullcontext) -> list:
    """The ask/tell loop of BO runs that share one budget, advanced together.

    Each step asks every run for its next original-units point: its design
    point, or, for the runs past their design, one _propose_level call.
    evaluate_batch(xs) returns one zero-argument observer per run, and each
    run is told its observation in run order. A SimulationError of the batch
    is that of the run its episode_index names. Every failure of run i is
    raised inside names_failure(i). Returns each run's result, which equals
    that of its own optimize call; an empty level returns []. The level's
    proposals share one posterior workspace, sized for its last step.
    """
    iterations = runs[0].iterations if runs else 0
    work = _workspace(len(runs), iterations, N_CANDIDATES)
    for k in range(iterations):
        proposed = iter(_propose_level([run.proposal_inputs() for run in runs
                                        if k >= len(run.design)], work))
        xs = [run.design[k] if k < len(run.design) else from_unit(next(proposed), run.box)
              for run in runs]
        try:
            observers = evaluate_batch(xs)
        except SimulationError as exc:
            i = exc.episode_index
            with names_failure(i):
                raise runs[i].failure(f"black box failed at x={xs[i]}: {exc}") from exc
        for i, (run, x, observe) in enumerate(zip(runs, xs, observers)):
            with names_failure(i):
                run.evaluate(x, observe)
    return [run.result() for run in runs]


def optimize(black_box, box: Box, iterations: int, init_count: int,
             spec: ConstraintSpec | None = None, initial_design=None,
             seed: SeedSpec = SeedSpec(0)) -> BOResult:
    """Run the full loop: initial design, then model-guided proposals.

    black_box maps an original-units point to (cost, h_value, fell), two
    numbers (h_value may be None) and a bool; a bare cost is also accepted.
    iterations is the total evaluation budget including the initial design.
    The returned best is the best observed evaluation, never a model
    prediction.
    """
    run = _BORun(box, iterations, init_count, spec, initial_design, seed)
    return _drive_level([run], lambda xs: [lambda: black_box(np.array(xs[0]))])[0]


def result_to_log_entries(result: BOResult) -> list[dict]:
    """The run history as JSON-ready records."""
    entries = []
    for i, ev in enumerate(result.history):
        entries.append({
            "iter": i,
            "x": [float(v) for v in ev.x],
            "cost": float(ev.cost),
            "h": None if ev.h_value is None else float(ev.h_value),
            "fell": bool(ev.fell),
            "best": float(result.best_cost_trace[i]),
        })
    return entries


def write_run_log(result: BOResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_log_entries(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
