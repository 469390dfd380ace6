"""Bayesian optimization with expected improvement and a latent feasibility GP.

All internal search happens on the unit cube; callers supply a Box and the
black box is evaluated in original units. Proposals come from a seeded
candidate sweep followed by coordinate-descent refinement. Each proposal
computes the candidates' posterior once. The runs of a level refine together
in one loop: each round builds the rows every run still refining has left in
its sweep, scores them all in one stacked posterior call, each row rounded as
if scored on its own, and reads every run's decision from that one result.
"""

from __future__ import annotations

import contextlib
import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .domain import Box, SeedSpec, from_unit, to_unit
from .errors import BlackBoxError, ConfigurationError, SimulationError
from .gp import (GPModel, _fit_best, _ModelStack, _posterior_moments, _stack_models,
                 _stacked_moments, _std_ratio, default_hyper_grid, fit)

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


@dataclass(frozen=True)
class Evaluation:
    """One black-box observation, with the query point in unit-cube coordinates."""

    x: np.ndarray
    cost: float
    h_value: float | None
    fell: bool

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"evaluation point must be 1-D, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("evaluation point must be finite")
        if not np.isfinite(self.cost):
            raise ValueError(f"evaluation cost must be finite, got {self.cost}")
        if self.h_value is not None and not np.isfinite(self.h_value):
            raise ValueError(f"constraint observation must be finite, got {self.h_value}")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cost", float(self.cost))
        if self.h_value is not None:
            object.__setattr__(self, "h_value", float(self.h_value))
        object.__setattr__(self, "fell", bool(self.fell))


@dataclass(frozen=True)
class ConstraintSpec:
    """How to treat the latent constraint: tolerance on infeasibility risk."""

    tolerance: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")


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
    return improve * ndtr(z) + std * (np.exp(-0.5 * np.square(z)) / _SQRT_2PI)


def _ei_values(means: np.ndarray, stds: np.ndarray, best) -> np.ndarray:
    """Vectorized expected improvement below best, minimization convention."""
    improve = best - means
    if stds.min() > 0.0:
        return _ei_positive(improve, stds)
    out = np.maximum(improve, 0.0)
    positive = stds > 0.0
    out[positive] = _ei_positive(improve[positive], stds[positive])
    return out


def _check_moments(**values) -> None:
    """ValueError for a NaN or infinite value, or a negative std."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, not NaN or infinite, got {value}")
    if values["std"] < 0.0:
        raise ValueError(f"std must be nonnegative, got {values['std']}")


def expected_improvement(mean: float, std: float, best: float) -> float:
    """Expected improvement of a Gaussian belief over the incumbent best.

    With zero predictive std this degenerates to max(best - mean, 0).
    """
    _check_moments(mean=mean, std=std, best=best)
    improve = best - mean
    if std > 0.0:
        return float(_ei_positive(improve, std))
    return max(float(improve), 0.0)


def feasibility_from_moments(mean: float, std: float) -> float:
    """Probability that a Gaussian constraint belief lands at or below zero."""
    _check_moments(mean=mean, std=std)
    if std == 0.0:
        return 1.0 if mean <= 0.0 else 0.0
    return float(ndtr((0.0 - mean) / std))


def _feasibility_values(h_model: GPModel, X: np.ndarray) -> np.ndarray:
    means, stds = _posterior_moments(h_model, X)
    out = np.where(means <= 0.0, 1.0, 0.0)
    positive = stds > 0.0
    out[positive] = ndtr((0.0 - means[positive]) / stds[positive])
    return out


def _refine_level(stack: _ModelStack, starts, ratios, bests) -> list:
    """Coordinate-descent ascent of EI from each start inside the unit cube,
    the runs advanced together; returns each run's final point.

    Run j climbs model j's EI below bests[j], its stds scaled by ratios[j].
    Each sweep tries each coordinate up, then down, keeping each move that
    beats the best score so far; a sweep without improvement halves the step.
    Each round scores, in one stacked posterior call, the moves every run has
    left in its sweep from its current point (its start with the first
    round), so each run is the one-move-at-a-time search.
    """
    ratios, bests = np.asarray(ratios), np.asarray(bests)
    n_moves = 2 * len(starts[0])  # move m shifts coordinate m // 2, up for even m
    # each run's search: point, step, best score (None until the start point is
    # scored), sweeps done, first move the sweep has left, whether it improved
    states = {j: [x.tolist(), REFINE_STEP_SIZE, None, 0, 0, False]
              for j, x in enumerate(starts)}
    points = [None] * len(starts)
    while states:
        rows, owner, blocks = [], [], []
        for j, state in list(states.items()):
            point, step, top, sweep, first, improved = state
            head, moves = len(rows), []
            if top is None:
                rows.append(point)
            while sweep < REFINE_STEPS:
                for m in range(first, n_moves):
                    d = m >> 1
                    moved = min(max(point[d] + (-step if m & 1 else step), 0.0), 1.0)
                    if moved != point[d]:
                        row = point.copy()
                        row[d] = moved
                        moves.append(m)
                        rows.append(row)
                if moves or top is None:
                    break
                if not improved:  # the sweep is over
                    step *= 0.5
                sweep, first, improved = sweep + 1, 0, False
            if sweep == REFINE_STEPS:
                points[j] = np.array(states.pop(j)[0])
                continue
            state[1:] = step, top, sweep, first, improved
            owner += [j] * (len(rows) - head)
            blocks.append((state, head, moves))
        if not blocks:
            break
        # one run's model selected by a slice broadcasts instead of being gathered
        owner = slice(owner[0], owner[0] + 1) if len(blocks) == 1 else np.array(owner)
        means, stds = _stacked_moments(stack, owner, np.array(rows))
        scores = _ei_values(means, stds * ratios[owner], bests[owner]).tolist()
        for state, k, moves in blocks:
            point, step, top, sweep, first, improved = state
            if top is None:
                top, k = scores[k], k + 1
            first = n_moves
            for k, m in enumerate(moves, k):
                if scores[k] > top:
                    point, top, first, improved = rows[k], scores[k], m + 1, True
                    break
            state[:] = point, step, top, sweep, first, improved
    return points


def _candidate_step(obj_model: GPModel, h_model: GPModel | None,
                    spec: ConstraintSpec | None, best: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, float | None]:
    """propose up to refinement: the point, and the std ratio to refine it
    with, or None when the point is final (the constrained branch)."""
    n = obj_model.X.shape[1]
    cand = rng.random((N_CANDIDATES, n))
    means, stds = _posterior_moments(obj_model, cand)
    ratio = _std_ratio(obj_model, stds)
    ei = _ei_values(means, stds * ratio, best)

    if h_model is None or spec is None:
        return cand[int(np.argmax(ei))], ratio

    pf = _feasibility_values(h_model, cand)
    qualifies = pf >= 1.0 - spec.tolerance
    if not np.any(qualifies):
        logger.warning("no candidate clears the feasibility threshold; "
                       "falling back to the most plausibly feasible point")
        return np.array(cand[int(np.argmax(pf))]), None
    score = np.where(qualifies, ei * pf, -np.inf)
    return np.array(cand[int(np.argmax(score))]), None


def propose(obj_model: GPModel, h_model: GPModel | None, spec: ConstraintSpec | None,
            best: float, rng: np.random.Generator) -> np.ndarray:
    """Pick the next unit-cube query point.

    The candidates' posterior is computed once; it gives both their EI and
    the adaptive std scale. Unconstrained: maximize expected improvement over
    a seeded candidate set, then refine by coordinate descent, scoring the
    moves a sweep has left in one posterior call. Constrained: among
    candidates whose feasibility probability clears 1 - tolerance, maximize
    EI times that probability; if none clears it, fall back to the most
    likely feasible candidate.
    """
    return _propose_level([(obj_model, h_model, spec, best, rng)])[0]


def _propose_level(problems) -> list:
    """propose on each tuple of its arguments, the runs refining together.

    Each run takes its own candidate step; the runs left to refine go through
    one _refine_level, so each point is the one the run would get alone, bit
    for bit.
    """
    points, refining = [], []
    for obj_model, h_model, spec, best, rng in problems:
        x, ratio = _candidate_step(obj_model, h_model, spec, best, rng)
        if ratio is not None:
            refining.append((len(points), x, obj_model, ratio, best))
        points.append(x)
    if refining:
        index, starts, models, ratios, bests = zip(*refining)
        for i, x in zip(index, _refine_level(_stack_models(models), starts, ratios, bests)):
            points[i] = x
    return points


def _parse_observation(raw) -> tuple[float, float | None, bool]:
    if isinstance(raw, (tuple, list)):
        if len(raw) == 3:
            cost, h, fell = raw
        elif len(raw) == 2:
            cost, h = raw
            fell = False
        else:
            raise ValueError(f"black box returned a {len(raw)}-tuple; expected "
                             "(cost, h_value, fell)")
        return float(cost), (None if h is None else float(h)), bool(fell)
    return float(raw), None, False


class _BORun:
    """One BO run, advanced one evaluation at a time.

    It holds the run's initial design, its history, the hyperparameter-refit
    state and its seed. The design points come first; after them each point
    comes from propose on proposal_inputs(). evaluate records an observation.
    """

    def __init__(self, box: Box, iterations: int, init_count: int,
                 spec: ConstraintSpec | None = None, initial_design=None,
                 seed: SeedSpec = SeedSpec(0)):
        if init_count < 1:
            raise ConfigurationError(f"init_count must be at least 1, got {init_count}")
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
        wrong shape, and a non-finite cost or constraint observation raise
        BlackBoxError carrying the history so far.
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
    that of its own optimize call; an empty level returns [].
    """
    for k in range(runs[0].iterations if runs else 0):
        proposed = iter(_propose_level([run.proposal_inputs() for run in runs
                                        if k >= len(run.design)]))
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

    black_box maps an original-units point to (cost, h_value, fell); a bare
    cost is also accepted. iterations is the total evaluation budget
    including the initial design. The returned best is the best observed
    evaluation, never a model prediction.
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
