"""Converged statistics and the tracking-plus-oscillation episode cost."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbo.domain import GaitParameter
from gaitbo.errors import ConfigurationError
from gaitbo.objective import (
    ConvergedStats,
    ObjectiveConfig,
    _segment_costs,
    _segment_samples,
    _segment_stats,
    converged_stats,
    evaluate_cost,
)
from gaitbo.plant import Trajectory

DT = 0.4


def make_traj(p_hat_rows, fell=False, fall_time=None, dt=DT):
    p_hat = np.asarray(p_hat_rows, dtype=float)
    n = p_hat.shape[0]
    times = np.arange(n) * dt
    return Trajectory(
        dt=dt,
        times=times,
        p_desired=np.tile([0.0, 0.0, 1.0], (n, 1)),
        p_hat=p_hat,
        delta_g=np.zeros((n, 3)),
        fell=fell,
        fall_time=fall_time,
    )


def constant_traj(point, n=51):
    return make_traj(np.tile(np.asarray(point, dtype=float), (n, 1)))


class TestConvergedStats:
    def test_uses_last_twelve_samples_at_default_dt(self):
        # 5 s segment at dt=0.4 -> floor(12.5) = 12 samples
        rows = np.tile([0.0, 0.0, 1.0], (51, 1))
        rows[-12:, 0] = 0.5
        rows[:-12, 0] = 99.0  # anything earlier must be ignored
        stats = converged_stats(make_traj(rows), 5.0)
        assert stats.p_c.vx == pytest.approx(0.5)

    def test_mean_min_max(self):
        rows = np.tile([0.0, 0.0, 1.0], (20, 1))
        rows[-2, 0] = 0.1
        rows[-1, 0] = 0.3
        rows[-12:-2, 0] = 0.2
        stats = converged_stats(make_traj(rows), 5.0)
        assert stats.p_c.vx == pytest.approx((0.1 + 0.3 + 10 * 0.2) / 12)
        assert stats.p_c_min.vx == pytest.approx(0.1)
        assert stats.p_c_max.vx == pytest.approx(0.3)

    def test_rejects_fallen_trajectory(self):
        traj = make_traj(np.tile([0.0, 0.0, 1.0], (20, 1)), fell=True, fall_time=7.6)
        with pytest.raises(ConfigurationError):
            converged_stats(traj, 5.0)

    def test_rejects_too_short_trajectory(self):
        traj = constant_traj([0.0, 0.0, 1.0], n=5)
        with pytest.raises(ConfigurationError):
            converged_stats(traj, 5.0)

    def test_exact_ratio_segment_lengths(self):
        # 2 s at dt=0.5 -> 4 samples; binary rounding must not lose one
        traj = constant_traj([0.1, 0.0, 1.0], n=10)
        traj = make_traj(np.tile([0.1, 0.0, 1.0], (10, 1)), dt=0.5)
        stats = converged_stats(traj, 2.0)
        assert stats.p_c.vx == pytest.approx(0.1)


def reference_converged_stats(traj: Trajectory, segment_duration: float = 5.0) -> ConvergedStats:
    """converged_stats as one trajectory's own mean, min and max."""
    if traj.fell:
        raise ConfigurationError("fallen trajectory has no converged segment")
    segment = traj.p_hat[-_segment_samples(segment_duration, traj.dt, len(traj)):]
    return ConvergedStats(
        p_c=GaitParameter.from_array(segment.mean(axis=0)),
        p_c_min=GaitParameter.from_array(segment.min(axis=0)),
        p_c_max=GaitParameter.from_array(segment.max(axis=0)),
    )


def stats_bytes(stats: ConvergedStats) -> tuple:
    return tuple(p.as_array().tobytes() for p in (stats.p_c, stats.p_c_min, stats.p_c_max))


def random_samples(rng, shape, scale):
    """Gait samples of mixed magnitude with positive heights."""
    rows = rng.normal(size=shape) * scale * rng.choice([1e-3, 1.0, 1e3], size=shape[:-1] + (1,))
    rows[..., 2] = np.abs(rows[..., 2]) + scale
    return rows


class TestStatisticsKernel:
    """The stacked kernel gives each segment's statistics bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 60), extra=st.integers(0, 20),
           scale=st.sampled_from([1e-200, 1e-3, 1.0, 1e3, 1e150]))
    def test_converged_stats_equals_reference(self, seed, k, extra, scale):
        rng = np.random.default_rng(seed)
        traj = make_traj(random_samples(rng, (k + extra, 3), scale), dt=1.0)
        got = converged_stats(traj, float(k))
        assert stats_bytes(got) == stats_bytes(reference_converged_stats(traj, float(k)))
        assert got == reference_converged_stats(traj, float(k))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 60), extra=st.integers(0, 20),
           width=st.integers(1, 140), scale=st.sampled_from([1e-200, 1e-3, 1.0, 1e3, 1e150]))
    def test_stacked_segments_equal_each_alone(self, seed, k, extra, width, scale):
        # Stacked as the sweep stacks them: the trailing samples of a subset
        # of a time-major batch.
        rng = np.random.default_rng(seed)
        batch = random_samples(rng, (k + extra, width, 3), scale)
        kept = np.flatnonzero(rng.random(width) < 0.7)
        stacked = _segment_stats(batch[-k:, kept])
        assert len(stacked) == kept.size
        for stats, j in zip(stacked, kept.tolist()):
            alone = reference_converged_stats(make_traj(batch[:, j], dt=1.0), float(k))
            assert stats_bytes(stats) == stats_bytes(alone)
            assert stats == alone


class TestCostKernel:
    """The stacked cost kernel gives each row the literal formula's bits."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 60), width=st.integers(1, 140),
           scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e100]),
           w1=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3),
           w2=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3))
    def test_rows_equal_the_literal_formula(self, seed, k, width, scale, w1, w2):
        rng = np.random.default_rng(seed)
        segments = random_samples(rng, (k, width, 3), scale)
        targets = random_samples(rng, (width, 3), scale)
        cfg = ObjectiveConfig(w1=w1, w2=w2)
        got = _segment_costs(segments, targets, cfg)
        assert got.shape == (width,)
        for j in range(width):
            segment = np.array(segments[:, j])
            err = segment.mean(axis=0) - targets[j]
            osc = segment.max(axis=0) - segment.min(axis=0)
            want = err @ cfg.w1 @ err + osc @ cfg.w2 @ osc
            assert got[j].tobytes() == np.float64(want).tobytes()

    def test_evaluate_cost_is_the_one_row_case(self):
        rng = np.random.default_rng(7)
        cfg = ObjectiveConfig(w1=[1.0, 0.7, 1.3], w2=[0.5, 0.4, 0.6])
        segments = random_samples(rng, (12, 30, 3), 1.0)
        targets = random_samples(rng, (30, 3), 1.0)
        got = _segment_costs(segments, targets, cfg)
        for j in range(30):
            cost = evaluate_cost(make_traj(segments[:, j]), GaitParameter(*targets[j]), cfg)
            assert np.float64(cost).tobytes() == got[j].tobytes()

    def test_no_rows(self):
        # what the reader hands on when every episode fell; no warning either
        costs = _segment_costs(np.empty((51, 0, 3)), np.empty((0, 3)), ObjectiveConfig())
        assert costs.shape == (0,)


class TestEvaluateCost:
    def test_perfect_tracking_costs_zero(self):
        cfg = ObjectiveConfig()
        traj = constant_traj([0.0, 0.0, 1.0])
        assert evaluate_cost(traj, GaitParameter(0.0, 0.0, 1.0), cfg) == 0.0

    def test_documented_offset_example(self):
        # Constant offsets (0.05, 0, 0.02), unit tracking weights, zero
        # oscillation: cost = 0.05^2 + 0.02^2 = 0.0029.
        cfg = ObjectiveConfig()
        traj = constant_traj([0.05, 0.0, 1.02])
        cost = evaluate_cost(traj, GaitParameter(0.0, 0.0, 1.0), cfg)
        assert cost == pytest.approx(0.0029, abs=1e-15)

    def test_oscillation_term(self):
        # Alternate vx between -a and +a with zero mean: cost is only the
        # span term, w2_x * (2a)^2.
        rows = np.tile([0.0, 0.0, 1.0], (24, 1))
        rows[::2, 0] = 0.1
        rows[1::2, 0] = -0.1
        cfg = ObjectiveConfig()
        cost = evaluate_cost(make_traj(rows), GaitParameter(0.0, 0.0, 1.0), cfg)
        assert cost == pytest.approx(0.5 * 0.2**2)

    def test_fall_returns_penalty(self):
        cfg = ObjectiveConfig()
        traj = make_traj(np.tile([0.0, 0.0, 1.0], (4, 1)), fell=True, fall_time=1.2)
        assert evaluate_cost(traj, GaitParameter(0, 0, 1.0), cfg) == 100.0

    def test_cost_nonnegative(self):
        rng = np.random.default_rng(0)
        cfg = ObjectiveConfig()
        for _ in range(100):
            rows = np.concatenate([
                rng.uniform(-1, 1, (30, 2)),
                rng.uniform(0.5, 1.5, (30, 1)),
            ], axis=1)
            cost = evaluate_cost(make_traj(rows), GaitParameter(0.2, -0.1, 1.0), cfg)
            assert cost >= 0.0

    def test_cost_monotone_in_weights(self):
        rng = np.random.default_rng(1)
        light = ObjectiveConfig(w1=[1.0, 1.0, 1.0], w2=[0.5, 0.5, 0.5])
        heavy = ObjectiveConfig(w1=[2.0, 2.0, 2.0], w2=[1.0, 1.0, 1.0])
        for _ in range(50):
            rows = np.concatenate([
                rng.uniform(-1, 1, (20, 2)),
                rng.uniform(0.5, 1.5, (20, 1)),
            ], axis=1)
            traj = make_traj(rows)
            p = GaitParameter(0.1, 0.0, 1.0)
            assert evaluate_cost(traj, p, heavy) >= evaluate_cost(traj, p, light)

    def test_matches_naive_recomputation(self):
        # Independent oracle straight from the samples: slice the last
        # floor(5/dt) rows, average, and form both quadratic terms.
        rng = np.random.default_rng(2)
        cfg = ObjectiveConfig(w1=[1.0, 0.7, 1.3], w2=[0.5, 0.4, 0.6])
        for _ in range(200):
            n = rng.integers(13, 60)
            rows = np.concatenate([
                rng.uniform(-1, 1, (n, 2)),
                rng.uniform(0.5, 1.5, (n, 1)),
            ], axis=1)
            traj = make_traj(rows)
            p = GaitParameter(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3),
                              rng.uniform(0.7, 1.2))
            got = evaluate_cost(traj, p, cfg)
            seg = rows[-12:]
            err = seg.mean(axis=0) - p.as_array()
            osc = seg.max(axis=0) - seg.min(axis=0)
            w1 = np.array([1.0, 0.7, 1.3])
            w2 = np.array([0.5, 0.4, 0.6])
            want = float(np.sum(w1 * err**2) + np.sum(w2 * osc**2))
            assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_non_diagonal_weights(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(w1=np.full((3, 3), 1.0))

    @pytest.mark.parametrize("field", ["w1", "w2"])
    @pytest.mark.parametrize("entry", [True, "1", None, 10**400, -1.0, float("nan")],
                             ids=["true", "str", "none", "huge", "negative", "nan"])
    def test_weight_entries_must_be_nonnegative_numbers(self, field, entry):
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            ObjectiveConfig(**{field: [1.0, entry, 1.0]})

    @pytest.mark.parametrize("field", ["segment_duration", "fall_penalty"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_non_positive_or_non_finite_scalars(self, field, value):
        with pytest.raises(ValueError, match=field):
            ObjectiveConfig(**{field: value})

    def test_integer_scalars_become_floats(self):
        cfg = ObjectiveConfig(segment_duration=5, fall_penalty=100)
        assert type(cfg.segment_duration) is float and cfg.segment_duration == 5.0
        assert type(cfg.fall_penalty) is float and cfg.fall_penalty == 100.0
