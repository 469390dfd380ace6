"""Core value types: gait parameters, controller gains, corrections, boxes, seeds.

Everything downstream (plant, scheduler, optimization) works in terms of these
types. They are frozen; arrays they carry are defensive copies marked read-only.
Every module checks a configured number with _real (a document's arrays with
_numbers), a fixed-shape array with _readonly_array, and reads an input
document with _read_json.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError, RangeError

__all__ = [
    "GaitParameter",
    "ControlParams",
    "Correction",
    "Box",
    "SeedSpec",
    "apply_correction",
    "correction_from_vector",
    "from_unit",
    "to_unit",
]


def _number(value, name: str) -> float:
    """value as a float; ConfigurationError for a bool, a non-number, or an int too big."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} is an integer too large for a float") from None


def _items(values, name: str, what: str, count: int | None = None) -> tuple:
    """values as a tuple, if it is iterable (and holds count items, when given)."""
    try:
        items = tuple(values)
    except TypeError:
        items = None
    if items is None or (count is not None and len(items) != count):
        raise ConfigurationError(f"{name} must be {what}, got {values!r}")
    return items


def _numbers(values, name: str):
    """values, a list of numbers or of such lists, with each number through _number."""
    if isinstance(values, (list, tuple)):
        return [_numbers(v, name) for v in values]
    return _number(values, name)


def _real(value, name: str, low: float = -math.inf, high: float = math.inf,
          ends: str = "()") -> float:
    """_number(value, name), if it lies between low and high.

    ends marks each end open or closed as interval notation does: "(]" admits
    high but not low. An infinite end is left open, so it admits finite
    numbers only: the default admits any finite number. NaN is never admitted.
    """
    number = _number(value, name)
    if ((low < number or (ends[0] == "[" and number == low))
            and (number < high or (ends[1] == "]" and number == high))):
        return number
    if (low, high) == (-math.inf, math.inf):
        rule = "finite"
    elif (low, high) == (0.0, math.inf):
        rule = ("nonnegative" if ends[0] == "[" else "positive") + " and finite"
    else:
        rule = f"in {ends[0]}{low:g}, {high:g}{ends[1]}"
    raise ConfigurationError(f"{name} must be {rule}, got {value!r}")


def _whole_number(value, name: str, low: float) -> int:
    """value as an int, if it is a whole number that _real admits from low up."""
    number = _real(value, name, low, ends="[)")
    if number != int(number):
        raise ConfigurationError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _readonly_array(values, shape: tuple, name: str) -> np.ndarray:
    """values as a finite float array of the given shape, marked read-only."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.setflags(write=False)
    return arr


def _read_json(path, what: str):
    """The JSON document at path; any failure to read or parse it is a ConfigurationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"{what} not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what} {path} cannot be read: {exc}") from exc


@dataclass(frozen=True)
class GaitParameter:
    """A commanded or observed gait point: forward speed, lateral speed, height."""

    vx: float
    vy: float
    h: float

    def __post_init__(self):
        for name in ("vx", "vy", "h"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"gait parameter {name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.h <= 0.0:
            raise ValueError(f"walking height must be positive, got {self.h}")

    def as_array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.h])

    @classmethod
    def from_array(cls, arr) -> "GaitParameter":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3,):
            raise ValueError(f"gait parameter array must have shape (3,), got {arr.shape}")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class ControlParams:
    """Componentwise PD gains and a gait-command offset, one set per gait point.

    kP and kD act diagonally on the three gait components; deltaP shifts the
    commanded gait before the proportional error is formed.
    """

    kP: np.ndarray
    kD: np.ndarray
    deltaP: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kP", _readonly_array(self.kP, (3,), "kP"))
        object.__setattr__(self, "kD", _readonly_array(self.kD, (3,), "kD"))
        object.__setattr__(self, "deltaP", _readonly_array(self.deltaP, (3,), "deltaP"))
        if np.any(self.kP < 0.0):
            raise ValueError(f"kP must be nonnegative, got {self.kP}")
        if np.any(self.kD < 0.0):
            raise ValueError(f"kD must be nonnegative, got {self.kD}")

    def as_vector(self) -> np.ndarray:
        """Pack as the 9-vector [kP, kD, deltaP]."""
        return np.concatenate([self.kP, self.kD, self.deltaP])

    @classmethod
    def from_vector(cls, vec) -> "ControlParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (9,):
            raise ValueError(f"control vector must have shape (9,), got {vec.shape}")
        return cls(vec[0:3], vec[3:6], vec[6:9])

    @classmethod
    def zero(cls) -> "ControlParams":
        return cls(np.zeros(3), np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class Correction:
    """A learned adjustment to one gait point's controller.

    deltaK holds [dkP_vx, dkD_vx, dkP_vy, dkD_vy, 0, 0]: only the speed
    channels' gains may move, the height gains stay fixed. deltaP holds
    [dp_vx, dp_vy, 0]: the height offset likewise stays fixed.
    """

    deltaK: np.ndarray
    deltaP: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "deltaK", _readonly_array(self.deltaK, (6,), "deltaK"))
        object.__setattr__(self, "deltaP", _readonly_array(self.deltaP, (3,), "deltaP"))
        if self.deltaK[4] != 0.0 or self.deltaK[5] != 0.0:
            raise ValueError("height-channel gain corrections must be zero")
        if self.deltaP[2] != 0.0:
            raise ValueError("height offset correction must be zero")

    @classmethod
    def zero(cls) -> "Correction":
        return cls(np.zeros(6), np.zeros(3))


def correction_from_vector(free: np.ndarray) -> Correction:
    """Build a Correction from its 6 free components.

    Layout: [dkP_vx, dkD_vx, dkP_vy, dkD_vy, dp_vx, dp_vy].
    """
    free = np.asarray(free, dtype=float)
    if free.shape != (6,):
        raise ValueError(f"free correction vector must have shape (6,), got {free.shape}")
    delta_k = np.array([free[0], free[1], free[2], free[3], 0.0, 0.0])
    delta_p = np.array([free[4], free[5], 0.0])
    return Correction(delta_k, delta_p)


def apply_correction(params: ControlParams, corr: Correction) -> ControlParams:
    """Shift the speed-channel gains and offsets; clamp gains at zero.

    Height-channel entries are copied through untouched.
    """
    kp = np.array(params.kP)
    kd = np.array(params.kD)
    dp = np.array(params.deltaP)
    kp[0] = max(kp[0] + corr.deltaK[0], 0.0)
    kp[1] = max(kp[1] + corr.deltaK[2], 0.0)
    kd[0] = max(kd[0] + corr.deltaK[1], 0.0)
    kd[1] = max(kd[1] + corr.deltaK[3], 0.0)
    dp[0] = dp[0] + corr.deltaP[0]
    dp[1] = dp[1] + corr.deltaP[1]
    return ControlParams(kp, kd, dp)


@dataclass(frozen=True)
class Box:
    """An axis-aligned search box with an affine map to and from the unit cube."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError(
                f"box bounds must be 1-D with equal shapes, got {lower.shape} and {upper.shape}"
            )
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite")
        if not np.all(lower < upper):
            bad = int(np.argmin(upper - lower))
            raise ValueError(
                f"box lower bound must be strictly below upper bound, "
                f"component {bad}: [{lower[bad]}, {upper[bad]}]"
            )
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_dims(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


def to_unit(x: np.ndarray, box: Box) -> np.ndarray:
    """Map a point inside the box onto the unit cube."""
    x = np.asarray(x, dtype=float)
    if x.shape != box.lower.shape:
        raise ValueError(f"point has shape {x.shape}, box is {box.n_dims}-dimensional")
    for i in range(box.n_dims):
        if not (box.lower[i] <= x[i] <= box.upper[i]):
            raise RangeError(
                f"component {i} = {x[i]} outside box [{box.lower[i]}, {box.upper[i]}]"
            )
    return (x - box.lower) / box.widths


def from_unit(u: np.ndarray, box: Box) -> np.ndarray:
    """Map a unit-cube point back into the box."""
    u = np.asarray(u, dtype=float)
    if u.shape != box.lower.shape:
        raise ValueError(f"point has shape {u.shape}, box is {box.n_dims}-dimensional")
    for i in range(box.n_dims):
        if not (0.0 <= u[i] <= 1.0):
            raise RangeError(f"component {i} = {u[i]} outside the unit interval")
    return box.lower + u * box.widths


# numpy's SeedSequence with its default pool of four 32-bit words, as fixed
# integer hashing: each entropy word is hashmixed with the next hash constant
# (INIT_A times powers of MULT_A) and mixed into every pool word, and
# generate_state hashes the pool with INIT_B times powers of MULT_B.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32 for k in range(9)]


def _seed_words(value) -> list:
    """A nonnegative integer as little-endian 32-bit words, as SeedSequence reads it."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"seed keys must be integers, got {value!r}")
    value = int(value)
    if value < 0:
        raise ValueError(f"seed keys must be nonnegative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _absorb(pool: tuple, words) -> tuple:
    """pool (four words and the next hash constant) after mixing in each word.

    Unrolled over the four pool words: the hot path of every derive and
    generator call, and about a fifth faster than a loop over them.
    """
    p0, p1, p2, p3, h = pool
    for w in words:
        g = h * _MULT_A & _MASK32
        v = (w ^ h) * g & _MASK32
        p0 = (_MIX_L * p0 - _MIX_R * (v ^ v >> 16)) & _MASK32
        p0 ^= p0 >> 16
        h = g * _MULT_A & _MASK32
        v = (w ^ g) * h & _MASK32
        p1 = (_MIX_L * p1 - _MIX_R * (v ^ v >> 16)) & _MASK32
        p1 ^= p1 >> 16
        g = h * _MULT_A & _MASK32
        v = (w ^ h) * g & _MASK32
        p2 = (_MIX_L * p2 - _MIX_R * (v ^ v >> 16)) & _MASK32
        p2 ^= p2 >> 16
        h = g * _MULT_A & _MASK32
        v = (w ^ g) * h & _MASK32
        p3 = (_MIX_L * p3 - _MIX_R * (v ^ v >> 16)) & _MASK32
        p3 ^= p3 >> 16
    return p0, p1, p2, p3, h


@functools.lru_cache(maxsize=256)
def _root_pool(seed: int) -> tuple:
    """The pool after a root seed's words, which a spawn key pads to four."""
    words = _seed_words(seed)
    words += [0] * (4 - len(words))
    pool, h = [], _INIT_A
    for w in words[:4]:
        g = h * _MULT_A & _MASK32
        v = (w ^ h) * g & _MASK32
        pool.append(v ^ v >> 16)
        h = g
    for src in range(4):
        for dst in range(4):
            if src != dst:
                g = h * _MULT_A & _MASK32
                v = (pool[src] ^ h) * g & _MASK32
                mixed = (_MIX_L * pool[dst] - _MIX_R * (v ^ v >> 16)) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
                h = g
    return _absorb((*pool, h), words[4:])


def _generate_state(pool: tuple, n: int) -> list:
    """The first n uint64 words SeedSequence.generate_state draws from pool."""
    words = []
    for i in range(0, 2 * n, 2):
        lo = (pool[i & 3] ^ _HASH_B[i]) * _HASH_B[i + 1] & _MASK32
        hi = (pool[i + 1 & 3] ^ _HASH_B[i + 1]) * _HASH_B[i + 2] & _MASK32
        words.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
    return words


class _PCG64Seed(ISeedSequence):
    """The four uint64 words PCG64 seeds itself from, already drawn."""

    def __init__(self, words: list):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("this seed holds only PCG64's four uint64 words")
        return np.array(self.words, dtype=np.uint64)


@dataclass(frozen=True)
class SeedSpec:
    """A reproducible randomness source: a root seed plus a stream id.

    Stream (seed, stream, *keys) is numpy's SeedSequence(seed,
    spawn_key=(stream, *keys)) fed to PCG64, so any episode's noise can be
    rebuilt with numpy alone: generator(*keys) draws exactly what
    np.random.default_rng of that SeedSequence draws, and derive(*keys) takes
    its first uint64 state word as the child's stream. The hashing is done
    here, with the pool cached once per root seed and once per instance, so a
    call mixes in only its keys. The cache is not part of equality, hash,
    repr, copy or pickle. A generator's bit_generator.seed_seq holds only the
    drawn PCG64 words, so it cannot be spawned.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.stream, (int, np.integer)) or isinstance(self.stream, bool):
            raise ValueError(f"stream must be an integer, got {self.stream!r}")
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream", int(self.stream))

    def __getstate__(self):
        # leave the cached pool out, so a used spec pickles as a fresh one
        return {"seed": self.seed, "stream": self.stream}

    def _pool(self, keys: tuple) -> tuple:
        pool = self.__dict__.get("_stream_pool")
        if pool is None:
            pool = _absorb(_root_pool(self.seed), _seed_words(self.stream))
            object.__setattr__(self, "_stream_pool", pool)
        return _absorb(pool, [w for key in keys for w in _seed_words(key)])

    def generator(self, *keys: int) -> np.random.Generator:
        """A fresh generator for this stream, optionally sub-keyed."""
        words = _generate_state(self._pool(keys), 4)
        return np.random.Generator(np.random.PCG64(_PCG64Seed(words)))

    def derive(self, *keys: int) -> "SeedSpec":
        """A child SeedSpec whose stream id is derived from the given keys."""
        return SeedSpec(self.seed, _generate_state(self._pool(keys), 1)[0])
