"""Episode cost: converged tracking error plus oscillation, or a fall penalty.

Statistics are taken over the trailing segment of a trajectory, long enough
for transients to settle: the last floor(segment_duration / dt) samples.
The sweep and every BO evaluation read the rollout's arrays through
_learning_segments, and _segment_moments is the one reduction of the stacked
segments: each segment's mean, min and max, row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor

import numpy as np

from .domain import GaitParameter, _readonly_array, _real
from .errors import ConfigurationError
from .plant import PlantConfig, Trajectory, _rollout, learning_profile, stepping_start

__all__ = ["ObjectiveConfig", "ConvergedStats", "converged_stats", "evaluate_cost"]


def _diagonal_weight(values, name: str) -> np.ndarray:
    """A diagonal 3-vector or a diagonal 3x3 matrix of nonnegative numbers, as the matrix."""
    cells = np.array(values, dtype=object)
    arr = np.array([_real(v, name, 0.0, ends="[)") for v in cells.ravel()]).reshape(cells.shape)
    arr = _readonly_array(np.diag(arr) if arr.shape == (3,) else arr, (3, 3), name)
    if np.any(arr != np.diag(np.diag(arr))):
        raise ValueError(f"{name} must be diagonal")
    return arr


@dataclass(frozen=True)
class ObjectiveConfig:
    """Weights and segment length for the episode cost."""

    w1: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 1.0]))
    w2: np.ndarray = field(default_factory=lambda: np.diag([0.5, 0.5, 0.5]))
    segment_duration: float = 5.0
    fall_penalty: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "w1", _diagonal_weight(self.w1, "w1"))
        object.__setattr__(self, "w2", _diagonal_weight(self.w2, "w2"))
        # As floats, so an integer penalty cannot make cost arrays integral.
        for name in ("segment_duration", "fall_penalty"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0))


@dataclass(frozen=True)
class ConvergedStats:
    """Mean, componentwise min, and componentwise max of the converged gait."""

    p_c: GaitParameter
    p_c_min: GaitParameter
    p_c_max: GaitParameter


def _segment_samples(segment_duration: float, dt: float, n_samples: int) -> int:
    """The trailing segment's length in samples of dt, checked to fit in n_samples.

    Raises ConfigurationError unless segment_duration is a positive finite
    number spanning one step up to the whole trajectory.
    """
    segment_duration = _real(segment_duration, "segment_duration", 0.0)
    # The tiny epsilon keeps exact ratios (5/0.1 and friends) from flooring
    # one sample short due to binary rounding.
    k = floor(segment_duration / dt + 1e-9)
    if k < 1:
        raise ConfigurationError(
            f"segment_duration {segment_duration} is shorter than one step of dt={dt}")
    if k > n_samples:
        raise ConfigurationError(
            f"segment_duration {segment_duration} needs {k} samples of dt={dt}, "
            f"but a trajectory has {n_samples}")
    return k


def _learning_episodes(gaits) -> tuple:
    """Each gait's learning profile and stepping start, as two lists. A start
    depends on the height alone, so gaits of one height share one."""
    by_height = {gait.h: gait for gait in gaits}
    starts = {h: stepping_start(gait) for h, gait in by_height.items()}
    return [learning_profile(gait) for gait in gaits], [starts[gait.h] for gait in gaits]


def _learning_segments(plant: PlantConfig, tables, profiles, starts, seeds,
                       segment_duration: float) -> tuple:
    """Learning episodes from _learning_episodes' (profiles, starts), all in
    one rollout: episode k under tables[k] with noise from seeds[k].

    Returns (fell, segments): whether each episode fell, and the trailing
    segments of the completed ones in order, stacked as (samples, completed,
    3). With no episode completed there is no segment to fit, so none is
    checked.
    """
    times, _, p_hat, _, _, fell = _rollout(plant, tables, profiles, starts, seeds)
    completed = ~fell
    k = (_segment_samples(segment_duration, plant.dt, len(times)) if completed.any()
         else len(times))
    return fell, p_hat[-k:, completed]


def _segment_moments(segments: np.ndarray) -> tuple:
    """The mean, componentwise min and componentwise max of each of m stacked
    trailing segments, (k, m, 3), as three (m, 3) arrays.

    Each reduction runs over axis 0 in sample order, so every row equals that
    of its own (k, 3) segment bit for bit.
    """
    return segments.mean(axis=0), segments.min(axis=0), segments.max(axis=0)


def converged_stats(traj: Trajectory, segment_duration: float = 5.0) -> ConvergedStats:
    """Statistics of the observed gait over the trailing segment.

    Only meaningful for completed runs; fallen trajectories are rejected.
    """
    if traj.fell:
        raise ConfigurationError("fallen trajectory has no converged segment")
    k = _segment_samples(segment_duration, traj.dt, len(traj))
    return ConvergedStats(*(GaitParameter(*rows[0].tolist())
                            for rows in _segment_moments(traj.p_hat[-k:, None])))


def _quadratic_form(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Stacked products over trailing unit axes round like v @ w @ v on each row.
    return np.matmul(np.matmul(v[:, None, :], w), v[:, :, None])[:, 0, 0]


def _segment_costs(moments, targets, cfg: ObjectiveConfig) -> np.ndarray:
    """The cost of each of m completed episodes from its segment's _segment_moments
    and its commanded gait in targets, (m, 3): on each row err @ w1 @ err +
    osc @ w2 @ osc, rounded as that row alone would be."""
    mean, low, high = moments
    err = mean - targets
    osc = high - low
    return _quadratic_form(err, cfg.w1) + _quadratic_form(osc, cfg.w2)


def evaluate_cost(traj: Trajectory, p_desired: GaitParameter, cfg: ObjectiveConfig) -> float:
    """Weighted squared tracking error plus weighted squared oscillation span.

    The tracking error compares the converged mean against the commanded gait
    itself; any offset the controller adds to the command is not the target.
    Fallen episodes short-circuit to the fall penalty.
    """
    if traj.fell:
        return cfg.fall_penalty
    k = _segment_samples(cfg.segment_duration, traj.dt, len(traj))
    moments = _segment_moments(traj.p_hat[-k:, None])
    return float(_segment_costs(moments, p_desired.as_array()[None], cfg)[0])
