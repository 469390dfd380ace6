"""Episode cost: converged tracking error plus oscillation, or a fall penalty.

Statistics are taken over the trailing segment of a trajectory, long enough
for transients to settle: the last floor(segment_duration / dt) samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, inf

import numpy as np

from .domain import GaitParameter, _matrix3
from .errors import ConfigurationError
from .plant import Trajectory

__all__ = ["ObjectiveConfig", "ConvergedStats", "converged_stats", "evaluate_cost"]


def _diagonal_weight(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr = _matrix3(np.diag(arr) if arr.shape == (3,) else arr, name)
    if np.any(arr != np.diag(np.diag(arr))):
        raise ValueError(f"{name} must be diagonal")
    if np.any(np.diag(arr) < 0.0):
        raise ValueError(f"{name} must have nonnegative diagonal entries")
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
        if not 0.0 < self.segment_duration < inf:
            raise ValueError("segment_duration must be positive and finite")
        if not 0.0 < self.fall_penalty < inf:
            raise ValueError("fall_penalty must be positive and finite")


@dataclass(frozen=True)
class ConvergedStats:
    """Mean, componentwise min, and componentwise max of the converged gait."""

    p_c: GaitParameter
    p_c_min: GaitParameter
    p_c_max: GaitParameter


def _segment_samples(segment_duration: float, dt: float, n_samples: int) -> int:
    """The trailing segment's length in samples of dt, checked to fit in n_samples.

    Raises ConfigurationError when the segment is shorter than one step or
    longer than the trajectory.
    """
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


def _segment_stats(segments: np.ndarray) -> list:
    """The ConvergedStats of each of m stacked trailing segments, (k, m, 3).

    Each reduction runs over axis 0 in sample order, so every episode's
    statistics equal those of its own (k, 3) segment bit for bit.
    """
    return [
        ConvergedStats(GaitParameter(*mean), GaitParameter(*low), GaitParameter(*high))
        for mean, low, high in zip(segments.mean(axis=0).tolist(),
                                   segments.min(axis=0).tolist(),
                                   segments.max(axis=0).tolist())
    ]


def converged_stats(traj: Trajectory, segment_duration: float = 5.0) -> ConvergedStats:
    """Statistics of the observed gait over the trailing segment.

    Only meaningful for completed runs; fallen trajectories are rejected.
    """
    if traj.fell:
        raise ConfigurationError("fallen trajectory has no converged segment")
    k = _segment_samples(segment_duration, traj.dt, len(traj))
    return _segment_stats(traj.p_hat[-k:, None])[0]


def evaluate_cost(traj: Trajectory, p_desired: GaitParameter, cfg: ObjectiveConfig) -> float:
    """Weighted squared tracking error plus weighted squared oscillation span.

    The tracking error compares the converged mean against the commanded gait
    itself; any offset the controller adds to the command is not the target.
    Fallen episodes short-circuit to the fall penalty.
    """
    if traj.fell:
        return float(cfg.fall_penalty)
    stats = converged_stats(traj, cfg.segment_duration)
    err = stats.p_c.as_array() - p_desired.as_array()
    osc = stats.p_c_max.as_array() - stats.p_c_min.as_array()
    return float(err @ cfg.w1 @ err + osc @ cfg.w2 @ osc)
