"""Plant dynamics, regulator law, fall detection, and episode determinism."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbo.domain import ControlParams, GaitParameter, SeedSpec
from gaitbo.errors import ConfigurationError, SimulationError
from gaitbo.plant import (
    CommandProfile,
    PlantState,
    Trajectory,
    _noise,
    _rowwise,
    disturbance_free,
    learning_profile,
    real_config,
    regulator_output,
    run_episode,
    run_episodes,
    sim_config,
    step,
    stepping_start,
)
from gaitbo.safeset import _SWEEP_CHUNK
from gaitbo.scheduler import GainTable, lookup
from test_scheduler import reference_lookup


def constant_table(kP, kD, deltaP=(0.0, 0.0, 0.0)):
    return GainTable.constant(ControlParams(kP, kD, deltaP))


def rest_state(p_hat):
    return PlantState(np.asarray(p_hat, dtype=float), np.zeros(3), np.zeros(3))


def recorded_commands(profile):
    """The commanded gait run_episode records at each sample, keyed by time."""
    table = constant_table([1.0, 1.0, 1.0], [0.3, 0.3, 0.3])
    start = rest_state(profile.entries[0][1].as_array())
    traj = run_episode(disturbance_free(sim_config()), table, profile, start, SeedSpec(0))
    assert not traj.fell
    return {round(float(t), 9): GaitParameter(*p) for t, p in zip(traj.times, traj.p_desired)}


class TestCanonicalConfigs:
    def test_sim_constants(self):
        cfg = sim_config()
        assert cfg.dt == 0.4
        np.testing.assert_array_equal(cfg.a, [0.6, 0.6, 0.5])
        np.testing.assert_array_equal(cfg.B, [[0.30, 0.03, 0.01],
                                              [0.03, 0.25, 0.01],
                                              [0.00, 0.00, 0.35]])
        assert cfg.beta == 1.0
        np.testing.assert_array_equal(cfg.D, np.diag([-0.05, -0.05, -0.02]))
        np.testing.assert_array_equal(cfg.d0, [0.0, 0.0, -0.03])
        np.testing.assert_array_equal(cfg.noise_std, [0.002] * 3)
        assert cfg.fall_band_width == 2.0
        assert cfg.min_height == 0.3

    def test_real_constants(self):
        cfg = real_config()
        sim = sim_config()
        expected_B = 0.75 * sim.B + np.array([[0, 0.05, 0], [0.05, 0, 0], [0, 0, 0]])
        np.testing.assert_allclose(cfg.B, expected_B)
        assert cfg.beta == 0.6
        np.testing.assert_allclose(cfg.D, 1.5 * sim.D)
        np.testing.assert_array_equal(cfg.d0, [0.02, -0.01, -0.05])
        np.testing.assert_array_equal(cfg.noise_std, [0.01] * 3)
        assert cfg.dt == 0.4

    def test_disturbance_free_zeroes_only_disturbances(self):
        cfg = disturbance_free(sim_config())
        np.testing.assert_array_equal(cfg.D, np.zeros((3, 3)))
        np.testing.assert_array_equal(cfg.d0, np.zeros(3))
        np.testing.assert_array_equal(cfg.noise_std, np.zeros(3))
        np.testing.assert_array_equal(cfg.B, sim_config().B)


def gains(kP, kD, deltaP=(0.0, 0.0, 0.0)):
    return ControlParams(kP, kD, deltaP)


def regulate(params, p_desired, p_hat, v_hat, dt):
    """regulator_output under ControlParams, at the command p_desired."""
    return regulator_output(params.kP, params.kD, p_desired + params.deltaP, p_hat, v_hat, dt)


def drive(cfg, p_desired):
    """step's command term for the commands p_desired."""
    return _rowwise(cfg.D, np.asarray(p_desired, dtype=float))


class TestRegulator:
    def test_proportional_term(self):
        dg = regulate(gains([0.5] * 3, np.zeros(3)), np.array([0.4, 0.0, 1.0]),
                      np.array([0.0, 0.0, 1.0]), np.zeros(3), 0.4)
        np.testing.assert_allclose(dg, [0.2, 0.0, 0.0])

    def test_offset_shifts_the_target(self):
        dg = regulate(gains([1.0] * 3, np.zeros(3), [0.1, 0.0, 0.0]),
                      np.array([0.4, 0.0, 1.0]), np.array([0.4, 0.0, 1.0]), np.zeros(3), 0.4)
        np.testing.assert_allclose(dg, [0.1, 0.0, 0.0])

    def test_derivative_term_uses_per_second_rate(self):
        dg = regulate(gains(np.zeros(3), [1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                      np.array([0.0, 0.0, 1.0]), np.array([0.2, 0.0, 0.0]), 0.4)
        # v_hat = 0.2 per step of 0.4 s -> 0.5 per second
        np.testing.assert_allclose(dg, [-0.5, 0.0, 0.0])


def step_from_rest(cfg, p_hat, dg, p_desired, w=np.zeros(3)):
    return step(np.asarray(p_hat, dtype=float), np.zeros(3), np.zeros(3),
                np.asarray(dg, dtype=float), cfg, drive(cfg, p_desired), w)


class TestStep:
    def test_hand_computed_example(self):
        cfg = disturbance_free(sim_config())
        p_hat, v_hat, u = step_from_rest(cfg, [0.0, 0.0, 1.0], [0.2, 0.0, 0.0], [0, 0, 1.0])
        np.testing.assert_allclose(u, [0.2, 0.0, 0.0])
        np.testing.assert_allclose(v_hat, [0.06, 0.006, 0.0], atol=1e-15)
        np.testing.assert_allclose(p_hat, [0.06, 0.006, 1.0], atol=1e-15)

    def test_command_lag_two_steps(self):
        cfg = sim_config()
        cfg = disturbance_free(cfg)
        cfg_half = type(cfg)(B=cfg.B, a=cfg.a, beta=0.5, D=cfg.D, d0=cfg.d0,
                             noise_std=cfg.noise_std, dt=cfg.dt,
                             fall_band_width=cfg.fall_band_width, min_height=cfg.min_height)
        dg = np.array([0.3, -0.2, 0.1])
        target = np.array([0.0, 0.0, 1.0])
        state = (target, np.zeros(3), np.zeros(3))
        state = step(*state, dg, cfg_half, drive(cfg_half, target), np.zeros(3))
        np.testing.assert_allclose(state[2], 0.5 * dg)
        state = step(*state, dg, cfg_half, drive(cfg_half, target), np.zeros(3))
        np.testing.assert_allclose(state[2], 0.75 * dg)

    def test_noise_comes_from_the_generator(self):
        cfg = sim_config()

        def draw(stream):
            return np.random.default_rng(stream).normal(0.0, cfg.noise_std)

        a = step_from_rest(cfg, [0.0, 0.0, 1.0], np.zeros(3), [0, 0, 1.0], draw(5))[0]
        b = step_from_rest(cfg, [0.0, 0.0, 1.0], np.zeros(3), [0, 0, 1.0], draw(5))[0]
        c = step_from_rest(cfg, [0.0, 0.0, 1.0], np.zeros(3), [0, 0, 1.0], draw(6))[0]
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_matrix_products_round_like_one_row_at_a_time(self):
        # Each row must round exactly as B @ u alone does, or batched
        # episodes would drift from single ones in the last digits.
        rng = np.random.default_rng(11)
        for cfg in (sim_config(), real_config()):
            p_hat, v_hat, u, dg, target, w = (
                rng.normal(size=(200, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(200, 1))
                for _ in range(6))
            driven = drive(cfg, target)
            rows = step(p_hat, v_hat, u, dg, cfg, driven, w)
            for k in range(200):
                assert driven[k].tobytes() == (cfg.D @ target[k]).tobytes()
                u_new = (1.0 - cfg.beta) * u[k] + cfg.beta * dg[k]
                v_new = cfg.a * v_hat[k] + cfg.B @ u_new + cfg.D @ target[k] + cfg.d0 + w[k]
                assert rows[2][k].tobytes() == u_new.tobytes()
                assert rows[1][k].tobytes() == v_new.tobytes()
                assert rows[0][k].tobytes() == (p_hat[k] + v_new).tobytes()


class TestPlantConfigChecks:
    @pytest.mark.parametrize("field, message", [
        ("dt", "dt must be positive"),
        ("fall_band_width", "fall_band_width must be positive"),
        ("min_height", "min_height must be positive"),
    ])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -1.0])
    def test_rejects_nan_and_non_positive_scalars(self, field, message, value):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(sim_config(), **{field: value})


class TestNoise:
    @settings(max_examples=300, deadline=None)
    @given(entropy=st.integers(0, 2**32), streams=st.lists(st.integers(0, 2**20), min_size=1,
                                                           max_size=3),
           n_steps=st.integers(1, 80),
           std=st.lists(st.sampled_from([0.0, 1e-300, 0.002, 0.01, 1.0, 1e300]),
                        min_size=3, max_size=3))
    def test_draw_equals_generator_normal_bit_for_bit(self, entropy, streams, n_steps, std):
        # A zero std turns a negative draw into -0.0 before the 0.0 is added,
        # and normal gives +0.0 there; tiny and huge stds test the extremes.
        std = np.array(std)
        seeds = [SeedSpec(entropy, stream) for stream in streams]
        noise = _noise(seeds, n_steps, std)
        assert noise.shape == (n_steps, len(seeds), 3)
        for k, seed in enumerate(seeds):
            want = seed.generator().normal(0.0, std, size=(n_steps, 3))
            assert np.ascontiguousarray(noise[:, k]).tobytes() == want.tobytes()


class TestCommandProfile:
    def test_command_switching(self):
        p0 = GaitParameter(0, 0, 1.0)
        p1 = GaitParameter(0.4, 0, 1.0)
        commands = recorded_commands(CommandProfile(((0.0, p0), (8.0, p1)), 20.0))
        assert commands[0.0] == p0
        assert commands[7.6] == p0  # the last sample before the switch
        assert commands[8.0] == p1
        assert commands[20.0] == p1

    def test_rejects_bad_profiles(self):
        p = GaitParameter(0, 0, 1.0)
        with pytest.raises(ConfigurationError):
            CommandProfile(((1.0, p),), 20.0)
        with pytest.raises(ConfigurationError):
            CommandProfile(((0.0, p), (8.0, p), (8.0, p)), 20.0)
        with pytest.raises(ConfigurationError):
            CommandProfile(((0.0, p), (30.0, p)), 20.0)
        with pytest.raises(ConfigurationError):
            CommandProfile((), 20.0)

    @pytest.mark.parametrize("entries, duration", [
        (((0.0, 1.0), (np.nan, 0.9)), 20.0),
        (((0.0, 1.0),), np.nan),
        (((0.0, 1.0), (np.inf, 0.9)), np.inf),
        (((0.0, 1.0),), np.inf),
        (((0.0, 1.0), (-np.inf, 0.9)), 20.0),
    ])
    def test_rejects_non_finite_times(self, entries, duration):
        entries = tuple((t, GaitParameter(0.0, 0.0, h)) for t, h in entries)
        with pytest.raises(ConfigurationError, match="must be finite"):
            CommandProfile(entries, duration)

    def test_learning_profile_shape(self):
        cmd = GaitParameter(0.4, -0.1, 0.9)
        profile = learning_profile(cmd)
        assert profile.total_duration == 20.0
        commands = recorded_commands(profile)
        assert commands[0.0] == GaitParameter(0.0, 0.0, 0.9)
        assert commands[8.0] == cmd
        stepping = learning_profile(GaitParameter(0.0, 0.0, 1.0))
        assert stepping.entries == ((0.0, GaitParameter(0.0, 0.0, 1.0)),)


class TestTrajectory:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), dt=st.sampled_from([0.4, 0.1, 1.0, np.nan]),
           shifts=st.lists(st.sampled_from([0.0, 0.0, 5e-10, -5e-10, 1e-9, 2e-9, -3e-9,
                                            0.4, np.nan, np.inf]), min_size=6, max_size=6))
    def test_gap_check_matches_allclose(self, n, dt, shifts):
        times = np.arange(n) * (0.4 if np.isnan(dt) else dt) + np.array(shifts[:n])
        samples = np.zeros((n, 3))
        # a non-finite sample time fails as such, before the spacing is checked
        finite = np.isfinite(times).all()
        try:
            with np.errstate(invalid="ignore"):  # inf - inf
                uniform = n == 1 or np.allclose(np.diff(times), dt, rtol=0.0, atol=1e-9)
                traj = Trajectory(dt, times, samples, samples, samples, False, None)
        except ValueError as exc:
            assert ("must be finite" in str(exc) if not finite
                    else not uniform and "uniformly spaced" in str(exc))
        else:
            assert finite and uniform and len(traj) == n

    def test_rejects_empty_and_misshapen_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Trajectory(0.4, [], np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)),
                       False, None)
        with pytest.raises(ValueError, match="p_hat must have shape"):
            Trajectory(0.4, [0.0, 0.4], np.zeros((2, 3)), np.zeros((2, 2)),
                       np.zeros((2, 3)), False, None)


class TestRunEpisode:
    def test_sample_count_and_spacing(self):
        cfg = sim_config()
        table = constant_table([1.0, 1.0, 1.0], [0.3, 0.3, 0.3])
        traj = run_episode(cfg, table, learning_profile(GaitParameter(0, 0, 1.0)),
                           stepping_start(GaitParameter(0, 0, 1.0)), SeedSpec(0))
        assert len(traj) == 51  # 50 steps -> 51 recorded states
        np.testing.assert_allclose(np.diff(traj.times), 0.4)
        assert not traj.fell

    def test_determinism(self):
        cfg = sim_config()
        table = constant_table([1.5, 1.5, 1.5], [0.5, 0.5, 0.5])
        profile = learning_profile(GaitParameter(0.4, 0, 1.0))
        a = run_episode(cfg, table, profile, stepping_start(GaitParameter(0.4, 0, 1.0)),
                        SeedSpec(123, 4))
        b = run_episode(cfg, table, profile, stepping_start(GaitParameter(0.4, 0, 1.0)),
                        SeedSpec(123, 4))
        np.testing.assert_array_equal(a.p_hat, b.p_hat)
        np.testing.assert_array_equal(a.delta_g, b.delta_g)

    def test_equilibrium_is_a_fixed_point(self):
        # No disturbances, no noise, start exactly on the command: nothing moves.
        cfg = disturbance_free(sim_config())
        table = constant_table([2.0, 2.0, 2.0], [0.5, 0.5, 0.5])
        cmd = GaitParameter(0.0, 0.0, 1.0)
        traj = run_episode(cfg, table, CommandProfile(((0.0, cmd),), 20.0),
                           rest_state([0.0, 0.0, 1.0]), SeedSpec(0))
        assert not traj.fell
        np.testing.assert_array_equal(traj.p_hat, np.tile([0.0, 0.0, 1.0], (51, 1)))
        np.testing.assert_array_equal(traj.delta_g, np.zeros((51, 3)))

    def test_huge_gains_fall(self):
        cfg = sim_config()
        table = constant_table([50.0, 50.0, 50.0], np.zeros(3))
        cmd = GaitParameter(0.4, 0.0, 1.0)
        traj = run_episode(cfg, table, learning_profile(cmd), stepping_start(cmd), SeedSpec(0))
        assert traj.fell
        assert traj.fall_time is not None
        assert traj.fall_time <= 20.0
        assert len(traj) < 51

    def test_profile_duration_must_match_dt(self):
        cfg = sim_config()
        table = constant_table([1.0, 1.0, 1.0], np.zeros(3))
        cmd = GaitParameter(0, 0, 1.0)
        profile = CommandProfile(((0.0, cmd),), 20.1)
        with pytest.raises(ConfigurationError):
            run_episode(cfg, table, profile, rest_state([0, 0, 1.0]), SeedSpec(0))

    def test_tracks_step_command_with_firm_gains(self):
        cfg = sim_config()
        table = constant_table([3.0, 3.0, 3.0], [0.5, 0.5, 0.5])
        cmd = GaitParameter(0.4, 0.0, 1.0)
        traj = run_episode(cfg, table, learning_profile(cmd), stepping_start(cmd), SeedSpec(1))
        assert not traj.fell
        tail = traj.p_hat[-12:]
        assert abs(tail[:, 0].mean() - 0.4) < 0.1


def linearized_map(cfg, kP, kD):
    """9x9 one-step matrix of (error, rate, command) for constant gains.

    Independent derivation of the closed loop used to cross-check episode
    divergence: e' = e + v', v' = a v + B u', u' = (1-b) u + b (-KP e - KD v/dt).
    """
    KP = np.diag(kP)
    KD = np.diag(kD) / cfg.dt
    A = np.diag(cfg.a)
    b = cfg.beta
    B = cfg.B
    I3 = np.eye(3)
    Z = np.zeros((3, 3))
    u_row = np.hstack([-b * KP, -b * KD, (1 - b) * I3])
    v_row = np.hstack([Z, A, Z]) + B @ u_row
    e_row = np.hstack([I3, Z, Z]) + v_row
    return np.vstack([e_row, v_row, u_row])


class TestStabilityOracle:
    def test_divergence_matches_spectral_radius(self):
        # Zero-noise, disturbance-free plant, small initial offset, long run:
        # an episode falls exactly when the linearized one-step map is
        # expanding. Near-marginal draws are skipped to keep the oracle sharp.
        cfg = disturbance_free(sim_config())
        cmd = GaitParameter(0.0, 0.0, 1.0)
        profile = CommandProfile(((0.0, cmd),), 120.0)
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 50:
            kP = rng.uniform(0.0, 8.0, 3)
            kD = rng.uniform(0.0, 2.0, 3)
            rho = np.max(np.abs(np.linalg.eigvals(linearized_map(cfg, kP, kD))))
            if abs(rho - 1.0) < 0.05:
                continue
            table = constant_table(kP, kD)
            start = rest_state([0.1, 0.1, 0.95])
            traj = run_episode(cfg, table, profile, start, SeedSpec(0))
            assert traj.fell == (rho > 1.0), f"kP={kP} kD={kD} rho={rho}"
            checked += 1


class TestFallPredicate:
    def test_fall_monotone_in_band_width(self):
        # Widening the band can only delay or remove the fall (zero noise).
        base = disturbance_free(sim_config())
        cmd = GaitParameter(0.4, 0.0, 1.0)
        table = constant_table([7.0, 7.0, 7.0], np.zeros(3))
        profile = learning_profile(cmd)
        times = []
        for band in (1.0, 2.0, 4.0, 8.0):
            cfg = type(base)(B=base.B, a=base.a, beta=base.beta, D=base.D, d0=base.d0,
                             noise_std=base.noise_std, dt=base.dt,
                             fall_band_width=band, min_height=base.min_height)
            traj = run_episode(cfg, table, profile, stepping_start(cmd), SeedSpec(0))
            times.append(traj.fall_time if traj.fell else np.inf)
        assert all(t1 >= t0 for t0, t1 in zip(times, times[1:])), times

    def test_min_height_triggers_fall(self):
        cfg = disturbance_free(sim_config())
        # Weak height gain with a strong downward pull: height sinks until
        # the minimum-height predicate fires well before the error band does.
        cfg = type(cfg)(B=cfg.B, a=cfg.a, beta=cfg.beta, D=np.zeros((3, 3)),
                        d0=[0.0, 0.0, -0.05], noise_std=np.zeros(3), dt=cfg.dt,
                        fall_band_width=cfg.fall_band_width, min_height=cfg.min_height)
        table = constant_table(np.zeros(3), np.zeros(3))
        cmd = GaitParameter(0.0, 0.0, 1.0)
        traj = run_episode(cfg, table, CommandProfile(((0.0, cmd),), 20.0),
                           rest_state([0, 0, 1.0]), SeedSpec(0))
        assert traj.fell
        assert traj.p_hat[-1, 2] < 0.3
        assert abs(traj.p_hat[-1, 2] - 1.0) < 2.0  # the band never fired


def reference_command_at(profile, t):
    """The command active at time t (the latest entry not after t)."""
    current = profile.entries[0][1]
    for start, cmd in profile.entries:
        if start <= t:
            current = cmd
        else:
            break
    return current


def reference_episode(cfg, table, profile, initial, seed):
    """The per-step loop the batched rollout replaced, kept as its reference.

    One episode, one step at a time: the command and its gains looked up at
    each sample, noise drawn step by step, B @ u on the single row.
    """
    n_steps = int(round(profile.total_duration / cfg.dt))
    rng = seed.generator()
    p, v, u = initial.p_hat, initial.v_hat, initial.u
    times, p_des, p_hat, dg_all = [], [], [], []
    consecutive = 0
    for i in range(n_steps + 1):
        t = i * cfg.dt
        cmd = reference_command_at(profile, t)
        params = reference_lookup(table, cmd)
        target = cmd.as_array()
        dg = params.kP * (target + params.deltaP - p) + params.kD * (np.zeros(3) - v / cfg.dt)
        times.append(t)
        p_des.append(target)
        p_hat.append(p)
        dg_all.append(dg)
        if i > 0:
            consecutive = consecutive + 1 if np.any(np.abs(p - target) > cfg.fall_band_width) else 0
            if p[2] < cfg.min_height or consecutive >= 3:
                return Trajectory(cfg.dt, times, p_des, p_hat, dg_all, True, t)
        if i < n_steps:
            u = (1.0 - cfg.beta) * u + cfg.beta * dg
            v = cfg.a * v + cfg.B @ u + cfg.D @ target + cfg.d0 + rng.normal(0.0, cfg.noise_std)
            p = p + v
            if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v)) and np.all(np.isfinite(u))):
                raise SimulationError(f"non-finite at step {i}", step_index=i)
    return Trajectory(cfg.dt, times, p_des, p_hat, dg_all, False, None)


def assert_same_trajectory(a, b):
    """Equal bit for bit, signs of zero included."""
    assert (a.fell, a.fall_time, a.dt) == (b.fell, b.fall_time, b.dt)
    for name in ("times", "p_desired", "p_hat", "delta_g"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def mixed_table():
    """Gains varying across the grid, too stiff to stay up near vx = 0.8."""
    values = np.concatenate([
        np.random.default_rng(3).uniform(0.0, [3.0] * 3 + [1.5] * 3, size=(3, 2, 2, 6)),
        np.random.default_rng(4).uniform(-0.05, 0.05, size=(3, 2, 2, 3)),
    ], axis=-1)
    values[2, :, :, :6] = [20.0] * 3 + [0.0] * 3
    return GainTable((-0.8, 0.0, 0.8), (-0.3, 0.3), (0.8, 1.0), values)


# Some pool commands converge under it, some fall, at various times.
MIXED_TABLE = mixed_table()
POOL = tuple(GaitParameter(vx, vy, h) for vx in (-0.8, -0.3, 0.0, 0.5, 0.8)
             for vy in (-0.3, 0.0, 0.2) for h in (0.8, 0.95))
SEED = SeedSpec(17, 2)
# Tables a batch may mix, one per episode.
TABLES = (MIXED_TABLE, constant_table([1.0] * 3, [0.3] * 3),
          constant_table([20.0] * 3, np.zeros(3)),
          constant_table([2.0, 1.5, 2.5], [0.5, 0.2, 0.4], [0.02, -0.01, 0.0]))


def pool_episode(cmd, cfg):
    return (learning_profile(cmd), stepping_start(cmd), SEED.derive(POOL.index(cmd)))


class TestBatchedRollout:
    @pytest.mark.parametrize("plant", [sim_config, real_config])
    def test_batch_matches_reference_loop_and_batches_of_one(self, plant):
        cfg = plant()
        episodes = [pool_episode(cmd, cfg) for cmd in POOL]
        batch = run_episodes(cfg, (MIXED_TABLE,) * len(episodes), *zip(*episodes))
        fell = [traj.fell for traj in batch]
        assert any(fell) and not all(fell), "the pool must mix converged and fallen runs"
        for traj, episode in zip(batch, episodes):
            assert_same_trajectory(traj, reference_episode(cfg, MIXED_TABLE, *episode))
            assert_same_trajectory(traj, run_episode(cfg, MIXED_TABLE, *episode))

    @pytest.mark.parametrize("plant", [sim_config, real_config])
    def test_a_sweep_chunk_matches_the_reference_loop(self, plant):
        # One rollout of a full sweep chunk: the pool's commands over and
        # over, each episode with its own seed.
        cfg = plant()
        episodes = [(learning_profile(cmd), stepping_start(cmd), SEED.derive(100 + k))
                    for k, cmd in enumerate(POOL[k % len(POOL)] for k in range(_SWEEP_CHUNK))]
        batch = run_episodes(cfg, (MIXED_TABLE,) * _SWEEP_CHUNK, *zip(*episodes))
        fell = [traj.fell for traj in batch]
        assert len(batch) == 128 and any(fell) and not all(fell)
        for traj, episode in zip(batch, episodes):
            assert_same_trajectory(traj, reference_episode(cfg, MIXED_TABLE, *episode))

    @pytest.mark.parametrize("plant", [sim_config, real_config])
    def test_zero_speed_single_segment_profile(self, plant):
        cfg = plant()
        cmd = GaitParameter(0.0, 0.0, 0.95)
        profile = learning_profile(cmd)
        assert len(profile.entries) == 1
        other = GaitParameter(0.5, 0.2, 0.8)
        batch = run_episodes(cfg, (MIXED_TABLE,) * 2, (profile, learning_profile(other)),
                             (stepping_start(cmd), stepping_start(other)),
                             (SeedSpec(5), SeedSpec(6)))
        assert_same_trajectory(batch[0], reference_episode(
            cfg, MIXED_TABLE, profile, stepping_start(cmd), SeedSpec(5)))
        assert_same_trajectory(batch[1], reference_episode(
            cfg, MIXED_TABLE, learning_profile(other), stepping_start(other), SeedSpec(6)))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([sim_config, real_config]),
           st.lists(st.sampled_from(POOL), min_size=1, max_size=12))
    def test_any_subset_and_order_equals_single_episodes(self, plant, commands):
        cfg = plant()
        batch = run_episodes(cfg, (MIXED_TABLE,) * len(commands),
                             *zip(*(pool_episode(cmd, cfg) for cmd in commands)))
        for traj, cmd in zip(batch, commands):
            assert_same_trajectory(traj, single_pool_episode(plant, cmd))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([sim_config, real_config]),
           st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(range(len(TABLES)))),
                    min_size=1, max_size=12))
    def test_a_table_per_episode_equals_single_episodes(self, plant, episodes):
        cfg = plant()
        batch = run_episodes(cfg, [TABLES[t] for _, t in episodes],
                             *zip(*(pool_episode(cmd, cfg) for cmd, _ in episodes)))
        for traj, (cmd, t) in zip(batch, episodes):
            assert_same_trajectory(traj, reference_episode(cfg, TABLES[t],
                                                           *pool_episode(cmd, cfg)))

    def test_gains_are_looked_up_once_per_table_and_command(self, monkeypatch):
        import gaitbo.scheduler as scheduler

        calls = []
        batches = []
        original = scheduler._interpolate

        def counting(table, points):
            batches.append(id(table))
            calls.extend((id(table), GaitParameter(*point)) for point in points)
            return original(table, points)

        monkeypatch.setattr(scheduler, "_interpolate", counting)
        cfg = sim_config()
        commands = POOL[:4] * 2
        tables = [TABLES[k % 2] for k in range(len(commands))]
        run_episodes(cfg, tables, *zip(*(pool_episode(cmd, cfg) for cmd in commands)))
        assert len(calls) == len(set(calls))
        assert set(calls) == {(id(table), cmd)
                              for table, c in zip(tables, commands)
                              for _, cmd in learning_profile(c).entries}
        assert sorted(batches) == sorted({id(table) for table in tables})

    def test_each_episode_records_its_own_commands(self):
        # (-0.0, 0, 1) equals the walking episode's stepping command (0, 0, 1)
        # under the same table; the batch still records its own zero's sign.
        cfg = sim_config()
        commands = (GaitParameter(0.4, 0.0, 1.0), GaitParameter(-0.0, 0.0, 1.0))
        episodes = [(learning_profile(cmd), stepping_start(cmd), SeedSpec(k))
                    for k, cmd in enumerate(commands)]
        batch = run_episodes(cfg, (MIXED_TABLE,) * 2, *zip(*episodes))
        for traj, episode in zip(batch, episodes):
            assert_same_trajectory(traj, run_episode(cfg, MIXED_TABLE, *episode))
        assert np.signbit(batch[1].p_desired[:, 0]).all()

    @pytest.mark.parametrize("node, bad", [(0, -1.0), (3, np.inf), (8, np.nan)])
    def test_resolved_gains_are_checked(self, node, bad):
        cfg = sim_config()
        table = constant_table([1.0] * 3, [0.3] * 3)
        values = np.array(table.values)
        values[..., node] = bad
        object.__setattr__(table, "values", values)  # past GainTable's own checks
        cmd = GaitParameter(0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="finite with nonnegative kP and kD"):
            run_episodes(cfg, (table, constant_table([1.0] * 3, [0.3] * 3)),
                         (learning_profile(cmd),) * 2, (stepping_start(cmd),) * 2,
                         (SeedSpec(0), SeedSpec(1)))

    def test_non_finite_state_raises_for_first_episode_in_input_order(self):
        cfg = disturbance_free(sim_config())
        table = constant_table([1e200] * 3, np.zeros(3))
        # Starts on its stepping command and blows up after the switch at 8 s.
        late_cmd = GaitParameter(0.4, 0.0, 1.0)
        late = (learning_profile(late_cmd), stepping_start(late_cmd), SeedSpec(0))
        # Starts off its command and blows up at once.
        early_cmd = GaitParameter(0.0, 0.0, 1.0)
        early = (learning_profile(early_cmd), rest_state([0.3, 0.0, 1.0]), SeedSpec(0))
        with np.errstate(over="ignore", invalid="ignore"):
            steps = {}
            for name, episode in (("late", late), ("early", early)):
                with pytest.raises(SimulationError) as info:
                    reference_episode(cfg, table, *episode)
                steps[name] = info.value.step_index
            assert steps["early"] < steps["late"]
            for order in (("late", "early"), ("early", "late")):
                batch = [dict(late=late, early=early)[name] for name in order]
                with pytest.raises(SimulationError, match=f"at step {steps[order[0]]}$") as info:
                    run_episodes(cfg, (table,) * 2, *zip(*batch))
                assert info.value.step_index == steps[order[0]]
                assert info.value.episode_index == 0

    def test_rejects_mismatched_batches(self):
        cfg = sim_config()
        cmd = GaitParameter(0.0, 0.0, 1.0)
        table = constant_table([1.0] * 3, np.zeros(3))
        with pytest.raises(ConfigurationError):
            run_episodes(cfg, (), (), (), ())
        with pytest.raises(ConfigurationError):
            run_episodes(cfg, (table,), (learning_profile(cmd),), (), (SeedSpec(0),))
        with pytest.raises(ConfigurationError, match="one table"):
            run_episodes(cfg, (table,) * 2, (learning_profile(cmd),), (stepping_start(cmd),),
                         (SeedSpec(0),))
        with pytest.raises(ConfigurationError, match="one table"):
            run_episodes(cfg, (table,), (learning_profile(cmd),) * 2,
                         (stepping_start(cmd),) * 2, (SeedSpec(0), SeedSpec(1)))
        with pytest.raises(ConfigurationError, match="share a profile duration"):
            run_episodes(cfg, (table,) * 2,
                         (learning_profile(cmd), CommandProfile(((0.0, cmd),), 8.0)),
                         (stepping_start(cmd),) * 2, (SeedSpec(0), SeedSpec(1)))


# With zero gains on the disturbance-free plant a resting state never moves,
# so the command alone decides which samples are out of the fall band.
HOLD = GaitParameter(0.0, 0.0, 1.0)
OFF = GaitParameter(3.0, 0.0, 1.0)  # 3 units from HOLD: outside the band of 2
STILL = disturbance_free(sim_config())
ZERO_GAINS = constant_table(np.zeros(3), np.zeros(3))


# Firm gains at vx = 0; at vx = 1, gains that grow the state some 1e19-fold a step.
RUNAWAY = GaitParameter(1.0, 0.0, 1.0)
RUNAWAY_TABLE = GainTable((0.0, 1.0), (0.0,), (1.0,), np.array(
    [[[[3.0] * 3 + [0.5] * 3 + [0.0] * 3]], [[[1e20] * 3 + [0.0] * 6]]]))


def switching_profile(*entries):
    """A 20 s profile from (sample index, command) pairs."""
    return CommandProfile(tuple((i * STILL.dt, cmd) for i, cmd in entries), 20.0)


def stepped_to_end(cfg, table, cmd, initial, n_steps):
    """The state after n_steps steps of one noise-free episode, falls ignored."""
    params, target = lookup(table, cmd), cmd.as_array()[None]
    p, v, u = (x[None] for x in (initial.p_hat, initial.v_hat, initial.u))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            dg = regulate(params, target, p, v, cfg.dt)
            p, v, u = step(p, v, u, dg, cfg, drive(cfg, target), np.zeros((1, 3)))
    return p[0], v[0], u[0]


class TestFallDetection:
    """Falls are found from the recorded samples, as the per-step loop found them."""

    def run_alone_and_batched(self, cfg, table, episode):
        reference = reference_episode(cfg, table, *episode)
        normal = (learning_profile(HOLD), stepping_start(HOLD), SeedSpec(9))
        alone, = run_episodes(cfg, (table,), *zip(episode))
        first, batched = run_episodes(cfg, (table,) * 2, *zip(normal, episode))
        for traj in (alone, batched):
            assert_same_trajectory(traj, reference)
        assert_same_trajectory(first, reference_episode(cfg, table, *normal))
        return alone

    def test_band_counter_resets_when_back_in_band(self):
        # Out of band at samples 1-2, in at 3, out at 4-6: the fall is at 6.
        profile = switching_profile((0, HOLD), (1, OFF), (3, HOLD), (4, OFF), (7, HOLD))
        traj = self.run_alone_and_batched(
            STILL, ZERO_GAINS, (profile, rest_state([0.0, 0.0, 1.0]), SeedSpec(0)))
        assert traj.fell and len(traj) == 7
        assert traj.fall_time == traj.times[6]

    def test_fall_below_min_height_at_sample_1(self):
        start = PlantState([0.0, 0.0, 0.35], [0.0, 0.0, -0.2], np.zeros(3))
        traj = self.run_alone_and_batched(
            STILL, ZERO_GAINS, (switching_profile((0, HOLD)), start, SeedSpec(0)))
        assert traj.fell and len(traj) == 2
        assert traj.p_hat[1, 2] < STILL.min_height

    def test_fall_on_the_final_sample(self):
        profile = switching_profile((0, HOLD), (48, OFF))
        traj = self.run_alone_and_batched(
            STILL, ZERO_GAINS, (profile, rest_state([0.0, 0.0, 1.0]), SeedSpec(0)))
        assert traj.fell and len(traj) == 51
        assert traj.fall_time == traj.times[50]

    def test_sample_0_is_not_judged(self):
        # Off its command at samples 0-2 and below the minimum height at 0:
        # counting sample 0 would make either a fall.
        start = PlantState([0.0, 0.0, 0.2], [0.0, 0.0, 0.4], np.zeros(3))
        profile = switching_profile((0, OFF), (3, HOLD))
        traj = self.run_alone_and_batched(STILL, ZERO_GAINS, (profile, start, SeedSpec(0)))
        assert not traj.fell and len(traj) == 51

    @pytest.mark.parametrize("cfg,table,cmd,start,overflow_at", [
        # Runaway gains: out of band from sample 1, a fall at sample 3, and
        # an overflow about a dozen steps later.
        (sim_config(), RUNAWAY_TABLE, RUNAWAY, rest_state([1.3, 0.0, 1.0]), 50),
        # Coasting near the largest float: below the minimum height at
        # sample 1, with every recorded value finite, and an overflow at 2.
        (STILL, ZERO_GAINS, HOLD,
         PlantState([1.71e308, 0.0, 0.35], [1e307, 0.0, -0.2], np.zeros(3)), 2),
    ])
    def test_overflow_after_a_fall_is_silent(self, cfg, table, cmd, start, overflow_at):
        end = stepped_to_end(cfg, table, cmd, start, overflow_at)
        assert not all(np.isfinite(x).all() for x in end)
        episode = (CommandProfile(((0.0, cmd),), 20.0), start, SeedSpec(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = self.run_alone_and_batched(cfg, table, episode)
        assert traj.fell and len(traj) <= overflow_at


_SINGLE = {}


def single_pool_episode(plant, cmd):
    """One pool command run alone, computed once per plant and command."""
    key = (plant.__name__, cmd)
    if key not in _SINGLE:
        _SINGLE[key] = run_episode(plant(), MIXED_TABLE, *pool_episode(cmd, plant()))
    return _SINGLE[key]
