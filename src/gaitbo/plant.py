"""Surrogate gait-parameter plant: PD regulator, first-order dynamics, episodes.

The plant state is the observed gait parameter (forward speed, lateral speed,
walking height), its per-step rate, and a lagged internal command. One step:

    u'    = (1 - beta) * u + beta * dg
    v'    = a * v + B @ u' + D @ p_desired + d0 + w,   w ~ N(0, diag(noise_std^2))
    p'    = p + v'

A run falls when any tracking-error component exceeds fall_band_width for
three consecutive steps, or the height drops below min_height.

Episodes run on resolved gains: _rollout takes each episode's [kP, kD,
deltaP] rows, one per command of its profile. run_episode(s) take gain
tables and resolve them first, one interpolation per distinct table. Before
its time loop, _rollout computes every step input that does not depend on
the state once per command of the batch: kP, kD, the shifted command
p_desired + deltaP and the drive D @ p_desired. Each step then calls
regulator_output and step on those inputs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .domain import GaitParameter, SeedSpec, _array, _real
from .errors import ConfigurationError, SimulationError
from .scheduler import _resolve_gains

__all__ = [
    "PlantConfig",
    "PlantState",
    "CommandProfile",
    "Trajectory",
    "sim_config",
    "real_config",
    "disturbance_free",
    "regulator_output",
    "step",
    "run_episode",
    "run_episodes",
    "learning_profile",
    "stepping_start",
    "write_csv",
    "EPISODE_DURATION",
    "COMMAND_SWITCH_TIME",
]

# Canonical timing of a learning or sweep episode: hold a matched command for
# 8 s, switch to the evaluated command, and run to 20 s total (50 steps).
EPISODE_DURATION = 20.0
COMMAND_SWITCH_TIME = 8.0


@dataclass(frozen=True)
class PlantConfig:
    """Dynamics constants for one plant variant."""

    B: np.ndarray
    a: np.ndarray
    beta: float
    D: np.ndarray
    d0: np.ndarray
    noise_std: np.ndarray
    dt: float = 0.4
    fall_band_width: float = 2.0
    min_height: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "B", _array(self.B, "B", (3, 3)))
        object.__setattr__(self, "a", _array(self.a, "a", (3,)))
        object.__setattr__(self, "D", _array(self.D, "D", (3, 3)))
        object.__setattr__(self, "d0", _array(self.d0, "d0", (3,)))
        object.__setattr__(self, "noise_std", _array(self.noise_std, "noise_std", (3,)))
        if np.any(np.diag(self.B) <= 0.0):
            raise ValueError("B must have positive diagonal entries")
        if np.any(np.abs(self.a) >= 1.0):
            raise ValueError("rate decay a must satisfy |a_i| < 1")
        if np.any(self.noise_std < 0.0):
            raise ValueError("noise_std must be nonnegative")
        object.__setattr__(self, "beta", _real(self.beta, "beta", 0.0, 1.0, "(]"))
        for name in ("dt", "fall_band_width", "min_height"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0))


_B_SIM = np.array([
    [0.30, 0.03, 0.01],
    [0.03, 0.25, 0.01],
    [0.00, 0.00, 0.35],
])


def sim_config() -> PlantConfig:
    """The simulation-domain plant."""
    return PlantConfig(
        B=_B_SIM,
        a=(0.6, 0.6, 0.5),
        beta=1.0,
        D=np.diag([-0.05, -0.05, -0.02]),
        d0=(0.0, 0.0, -0.03),
        noise_std=(0.002, 0.002, 0.002),
    )


def real_config() -> PlantConfig:
    """The real-domain plant: weaker lagged actuation, stronger disturbances."""
    return PlantConfig(
        B=0.75 * _B_SIM + np.array([
            [0.00, 0.05, 0.00],
            [0.05, 0.00, 0.00],
            [0.00, 0.00, 0.00],
        ]),
        a=(0.6, 0.6, 0.5),
        beta=0.6,
        D=1.5 * np.diag([-0.05, -0.05, -0.02]),
        d0=(0.02, -0.01, -0.05),
        noise_std=(0.01, 0.01, 0.01),
    )


def disturbance_free(cfg: PlantConfig) -> PlantConfig:
    """The same plant with disturbances and noise removed."""
    return PlantConfig(
        B=cfg.B,
        a=cfg.a,
        beta=cfg.beta,
        D=np.zeros((3, 3)),
        d0=np.zeros(3),
        noise_std=np.zeros(3),
        dt=cfg.dt,
        fall_band_width=cfg.fall_band_width,
        min_height=cfg.min_height,
    )


@dataclass(frozen=True)
class PlantState:
    """Observed gait parameter, its per-step rate, and the lagged command."""

    p_hat: np.ndarray
    v_hat: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_hat", _array(self.p_hat, "p_hat", (3,)))
        object.__setattr__(self, "v_hat", _array(self.v_hat, "v_hat", (3,)))
        object.__setattr__(self, "u", _array(self.u, "u", (3,)))


@dataclass(frozen=True)
class CommandProfile:
    """A piecewise-constant command schedule.

    entries is a sequence of (start_time, command); start times must begin at
    0 and increase strictly. The last command holds until total_duration.
    """

    entries: tuple
    total_duration: float

    def __post_init__(self):
        entries = tuple((_real(t, "command start time"), cmd) for t, cmd in self.entries)
        if not entries:
            raise ConfigurationError("command profile needs at least one entry")
        duration = _real(self.total_duration, "command profile total_duration")
        if entries[0][0] != 0.0:
            raise ConfigurationError(
                f"first command must start at t=0, got t={entries[0][0]}"
            )
        for (t0, _), (t1, _) in zip(entries, entries[1:]):
            if t1 <= t0:
                raise ConfigurationError(
                    f"command start times must increase strictly ({t0} then {t1})"
                )
        for _, cmd in entries:
            if not isinstance(cmd, GaitParameter):
                raise ConfigurationError(f"commands must be GaitParameter, got {cmd!r}")
        if duration < entries[-1][0]:
            raise ConfigurationError(
                f"total_duration {duration} ends before the last command at {entries[-1][0]}"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total_duration", duration)


@dataclass(frozen=True)
class Trajectory:
    """A recorded episode: per-sample command, observed state, regulator output.

    Samples are uniformly spaced by dt. The regulator output stored with the
    final sample is computed at that state but never applied.
    """

    dt: float
    times: np.ndarray
    p_desired: np.ndarray
    p_hat: np.ndarray
    delta_g: np.ndarray
    fell: bool
    fall_time: float | None

    def __post_init__(self):
        times = _array(self.times, "sample times", (None,))
        if times.shape[0] == 0:
            raise ValueError("trajectory must hold at least one sample")
        for name in ("p_desired", "p_hat", "delta_g"):
            object.__setattr__(self, name, _array(getattr(self, name), name, (len(times), 3)))
        # A NaN dt fails the comparison too.
        if not (abs(times[1:] - times[:-1] - self.dt) <= 1e-9).all():
            raise ValueError("sample times must be uniformly spaced by dt")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.times.shape[0]


def regulator_output(
    kP: np.ndarray,
    kD: np.ndarray,
    target: np.ndarray,
    p_hat: np.ndarray,
    v_hat: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Componentwise PD law on the gait-parameter error, one row per episode.

    kP and kD are the gains and target the shifted command p_desired +
    deltaP, gait 3-vectors along the last axis of each array. Commands are
    piecewise constant, so the desired rate is 0:

    dg = kP * (p_desired + deltaP - p_hat) + kD * (0 - v_hat / dt)

    v_hat is a per-step rate, so it is divided by dt to compare against the
    desired rate in units per second.
    """
    return kP * (target - p_hat) + kD * (0.0 - v_hat / dt)


def _rowwise(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # A stacked product over a trailing unit axis rounds exactly like
    # matrix @ row on each row alone; multiply-adds and rows @ matrix.T do not.
    return np.matmul(matrix, rows[..., None])[..., 0]


def step(
    p_hat: np.ndarray,
    v_hat: np.ndarray,
    u: np.ndarray,
    delta_g: np.ndarray,
    cfg: PlantConfig,
    drive: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance each row of the plant one step; returns (p_hat, v_hat, u).

    delta_g is the regulator output, drive the command's term D @ p_desired
    (_rowwise(cfg.D, p_desired)) and w the step's noise draw, one row per
    episode.
    """
    u_new = (1.0 - cfg.beta) * u + cfg.beta * delta_g
    v_new = cfg.a * v_hat + _rowwise(cfg.B, u_new) + drive + cfg.d0 + w
    return p_hat + v_new, v_new, u_new


def _noise(seeds, n_steps: int, noise_std: np.ndarray) -> np.ndarray:
    """Each episode's whole noise block from its own stream, (n_steps, n, 3).

    Episode k's block equals the (n_steps, 3) Generator.normal draw with loc
    0.0 and scale noise_std from seeds[k].generator(), bit for bit: that
    draws loc + scale * z per sample in C order from the same stream, and
    the leading 0.0 + keeps its +0.0 where noise_std * z is -0.0.
    """
    z = np.empty((len(seeds), n_steps, 3))
    for k, seed in enumerate(seeds):
        seed.generator().standard_normal(out=z[k])
    return (0.0 + noise_std * z).transpose(1, 0, 2)


def _rollout(cfg: PlantConfig, gains, profiles, initials, seeds) -> tuple:
    """The arrays of a batch of episodes, before any Trajectory is built.

    Episode k follows profiles[k] from initials[k] with noise from seeds[k],
    under gains[k]: the (len(profiles[k].entries), 9) [kP, kD, deltaP] rows
    of its profile's commands. Returns (times, p_desired, p_hat, delta_g,
    length, fell): the n_steps + 1 sample times, the per-sample commands,
    recorded states and regulator outputs, each (n_steps + 1, n, 3), and per
    episode its trajectory's length in samples and whether it fell. Samples
    past an episode's length are those of a fallen episode stepped on.
    """
    gains, profiles = tuple(gains), tuple(profiles)
    initials, seeds = tuple(initials), tuple(seeds)
    n = len(profiles)
    if n == 0 or not len(gains) == len(initials) == len(seeds) == n:
        raise ConfigurationError(
            f"a batch needs gain rows, a profile, an initial state and a seed per episode, "
            f"got {len(gains)}, {n}, {len(initials)} and {len(seeds)}"
        )
    n_float = profiles[0].total_duration / cfg.dt
    n_steps = int(round(n_float))
    if abs(n_float - n_steps) > 1e-9 or n_steps < 1:
        raise ConfigurationError(
            f"profile duration {profiles[0].total_duration} is not a positive multiple "
            f"of dt={cfg.dt}"
        )
    if any(p.total_duration != profiles[0].total_duration for p in profiles):
        raise ConfigurationError("episodes in one batch must share a profile duration")

    # Every episode's commands and gain rows, stacked in episode order.
    points = np.array([(cmd.vx, cmd.vy, cmd.h) for p in profiles for _, cmd in p.entries])
    resolved = np.concatenate(gains)
    if not np.all(np.isfinite(resolved)) or np.any(resolved[:, 0:6] < 0.0):
        raise ValueError("resolved gains must be finite with nonnegative kP and kD")
    first_row = np.cumsum([0] + [len(g) for g in gains[:-1]])
    # The step inputs that do not depend on the state, once per command row:
    # kP, kD, the shifted command p + deltaP and the drive D @ p.
    inputs = np.concatenate([resolved[:, 0:6], points + resolved[:, 6:9],
                             _rowwise(cfg.D, points)], axis=1)

    # Per sample and episode: the active command and its step inputs, filled
    # once per distinct tuple of profile start times; per step: noise.
    times = np.arange(n_steps + 1) * cfg.dt
    p_des = np.empty((n_steps + 1, n, 3))
    active = np.empty((n_steps + 1, n, 12))
    starts = {}
    for k, profile in enumerate(profiles):
        starts.setdefault(tuple(start for start, _ in profile.entries), []).append(k)
    for start_times, members in starts.items():
        segment = np.searchsorted(start_times, times, side="right") - 1
        at = first_row[members][None, :] + segment[:, None]
        p_des[:, members] = points[at]
        active[:, members] = inputs[at]
    kP, kD, target, drive = (active[..., c:c + 3] for c in (0, 3, 6, 9))
    noise = _noise(seeds, n_steps, cfg.noise_std)

    p_hat = np.array([s.p_hat for s in initials])
    v_hat = np.array([s.v_hat for s in initials])
    u = np.array([s.u for s in initials])
    rec_p_hat = np.empty((n_steps + 1, n, 3))
    rec_dg = np.empty((n_steps + 1, n, 3))
    # A fallen episode steps on and may overflow; its samples past the fall
    # are thrown away below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            dg = regulator_output(kP[i], kD[i], target[i], p_hat, v_hat, cfg.dt)
            rec_p_hat[i] = p_hat
            rec_dg[i] = dg
            if i == n_steps:
                break
            p_hat, v_hat, u = step(p_hat, v_hat, u, dg, cfg, drive[i], noise[i])

        # Falls are judged from sample 1 on: out of band for three samples in
        # a row, or below the minimum height.
        oob = np.any(np.abs(rec_p_hat - p_des) > cfg.fall_band_width, axis=2)
        oob[0] = False
        down = rec_p_hat[:, :, 2] < cfg.min_height
        down[2:] |= oob[2:] & oob[1:-1] & oob[:-2]
        down[0] = False
    fell = down.any(axis=0)
    length = np.where(fell, down.argmax(axis=0) + 1, n_steps + 1)

    # A step leaves (p_hat, v_hat, u) non-finite exactly when the p_hat it
    # records is: p_hat' = p_hat + v_hat', and B's positive diagonal carries
    # a non-finite u' into v_hat'.
    broken = ~np.isfinite(rec_p_hat).all(axis=2) & (np.arange(n_steps + 1)[:, None] < length)
    failed = np.flatnonzero(broken.any(axis=0))
    if failed.size:
        step_index = int(broken[:, failed[0]].argmax()) - 1
        raise SimulationError(
            f"plant state became non-finite at step {step_index}", step_index=step_index,
            episode_index=int(failed[0]),
        )
    return times, p_des, rec_p_hat, rec_dg, length, fell


def run_episodes(cfg: PlantConfig, tables, profiles, initials, seeds) -> tuple:
    """Run a batch of closed-loop episodes in one array pass.

    Episode k runs under tables[k], following profiles[k] from initials[k]
    with noise from seeds[k]; all profiles must share one duration. Every
    distinct table and command is resolved once, in one interpolation per
    distinct table, and the episodes then run on those gain rows. Each
    episode draws its whole noise block up front from its own stream, so
    every Trajectory equals the one its episode gives alone, bit for bit.
    Resolved gains must be finite with nonnegative kP and kD, as
    ControlParams requires; ValueError otherwise. Every
    episode is stepped to the end; falls and non-finite states are then
    found from the recorded samples, and each trajectory is cut at its fall.
    If a state turned non-finite before its episode fell, SimulationError is
    raised for the first such episode in input order, with its index and the
    step it failed at.
    """
    profiles = tuple(profiles)
    gains = _resolve_gains(tables, [[cmd for _, cmd in p.entries] for p in profiles])
    times, p_des, p_hat, dg, length, fell = _rollout(cfg, gains, profiles, initials, seeds)
    return tuple(
        Trajectory(
            dt=cfg.dt,
            times=times[:end],
            p_desired=p_des[:end, k],
            p_hat=p_hat[:end, k],
            delta_g=dg[:end, k],
            fell=fell_k,
            fall_time=float(times[end - 1]) if fell_k else None,
        )
        for k, (end, fell_k) in enumerate(zip(length.tolist(), fell.tolist()))
    )


def run_episode(
    cfg: PlantConfig,
    table,
    profile: CommandProfile,
    initial: PlantState,
    seed: SeedSpec,
) -> Trajectory:
    """Run the closed loop over the profile, recording every sample.

    The gain table is queried at each command of the profile. Episodes
    terminate early with fell=True when the fall predicate fires. This is
    run_episodes on a batch of one.
    """
    return run_episodes(cfg, (table,), (profile,), (initial,), (seed,))[0]


def stepping_start(command: GaitParameter) -> PlantState:
    """Rest state stepping in place at the command's height."""
    return PlantState(np.array([0.0, 0.0, command.h]), np.zeros(3), np.zeros(3))


def learning_profile(command: GaitParameter) -> CommandProfile:
    """The canonical evaluation profile for one command.

    Stepping in place at the command's height for the first 8 s, then the
    command itself until 20 s.
    """
    if command.vx == 0.0 and command.vy == 0.0:
        entries = ((0.0, command),)
    else:
        start = GaitParameter(0.0, 0.0, command.h)
        entries = ((0.0, start), (COMMAND_SWITCH_TIME, command))
    return CommandProfile(entries, EPISODE_DURATION)


def write_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV: time, commanded gait, observed gait, output."""
    buf = io.StringIO()
    buf.write("t,vx_d,vy_d,h_d,vx,vy,h,dg1,dg2,dg3\n")
    for i in range(len(traj)):
        row = [traj.times[i], *traj.p_desired[i], *traj.p_hat[i], *traj.delta_g[i]]
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())
