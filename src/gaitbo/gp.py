"""Gaussian-process regression with a squared-exponential ARD kernel.

Targets are standardized before fitting; posteriors are mapped back to the
original scale. Factorization calls LAPACK potrf and potrs directly, in a
jittered Cholesky that retries with doubled jitter before giving up; fit and
the hyperparameter search share it, and the search builds one kernel per
distinct lengthscale setting. A fitted model keeps its scaled training
inputs, so a posterior at new points costs one cross-kernel, one product and
one LAPACK triangular solve. Models sharing a point count and dimension can be
stacked and scored in one call, on a block of rows per model; each block gets
the bits of its model's own posterior, since a single model's posterior is
that call on a stack of one. The stacked call writes its kernel block, cross
product and solves into a flat workspace its caller holds, so a caller
scoring many blocks reuses one buffer. Every array a caller passes in is
checked by one rule: integers or floats only, finite, of the kernel's
dimension. scipy.linalg loads at the first factorization, not on import.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .domain import _real
from .errors import NumericalError

__all__ = [
    "Hyperparams",
    "GPModel",
    "kernel_matrix",
    "fit",
    "posterior_batch",
    "log_marginal_likelihood",
    "fit_hyper",
    "default_hyper_grid",
]

_JITTER_START = 1e-10
_JITTER_CAP = 1e-4
_STD_FLOOR = 1e-12

DEFAULT_LENGTHSCALES = (0.1, 0.2, 0.3, 0.5, 1.0)
DEFAULT_NOISE_STDS = (1e-3, 1e-2, 1e-1)


@functools.cache
def _lapack() -> tuple:
    """LAPACK potrf, potrs and trtrs for float64, looked up once: what scipy.linalg's
    cholesky, cho_solve and solve_triangular end in, without their per-call checks."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64)


# The error text of scipy's checked wrappers for a non-finite array; a raw
# potrf would factorize one without complaint, so the checks are made here.
_NONFINITE = "array must not contain infs or NaNs"


@dataclass(frozen=True)
class Hyperparams:
    """Kernel amplitude, per-dimension lengthscales, observation noise."""

    signal_std: float
    lengthscales: np.ndarray
    noise_std: float

    def __post_init__(self):
        ls = np.array(self.lengthscales, dtype=float)
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a nonempty 1-D array")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ValueError(f"lengthscales must be positive, got {ls}")
        signal_std = _real(self.signal_std, "signal_std", 0.0)
        if signal_std < 1.0 and not _JITTER_START * signal_std**2 > 0.0:
            # fit's jitter would start at 0 and never grow
            raise ValueError(f"signal_std {signal_std} is too small: its jitter "
                             "start underflows to 0")
        ls.setflags(write=False)
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_std", signal_std)
        object.__setattr__(self, "noise_std", _real(self.noise_std, "noise_std", 0.0, ends="[)"))

    @property
    def n_dims(self) -> int:
        return self.lengthscales.shape[0]


def _scaled_factors(X: np.ndarray, hyper: Hyperparams) -> tuple[np.ndarray, np.ndarray]:
    """The left-hand kernel factors of X: 2 X / ls and the squared row norms of X / ls."""
    A = X / hyper.lengthscales
    return 2.0 * A, np.sum(A**2, axis=1)[:, None]


def _cross_kernel(twice_scaled: np.ndarray, sq_norms: np.ndarray, X2: np.ndarray,
                  hyper: Hyperparams) -> np.ndarray:
    """Covariance between the points behind _scaled_factors and the rows of X2."""
    B = X2 / hyper.lengthscales
    # np.add.reduce is what np.sum calls, minus its per-call dispatch
    sq = sq_norms + np.add.reduce(B**2, axis=1) - twice_scaled @ B.T
    np.maximum(sq, 0.0, out=sq)
    return hyper.signal_std**2 * np.exp(-0.5 * sq)


def _check_dims(name: str, X: np.ndarray, n_dims: int) -> None:
    if X.shape[1] != n_dims:
        raise ValueError(f"{name} have {X.shape[1]} dims, lengthscales have {n_dims}")


def _real_array(value, name: str, lengthscales: np.ndarray | None = None) -> np.ndarray:
    """value as a float array, checked: ValueError unless its dtype is an
    integer or float one (not bool, string or object) and every entry is finite.

    Given lengthscales, value is a set of points of their dimension, one per
    row (a 1-D array is a column), that must stay finite divided by them.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be integers or floats, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    scaled = arr
    if lengthscales is not None:
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
        _check_dims(name, arr, lengthscales.shape[0])
        scaled = arr / lengthscales  # a coordinate may overflow over its lengthscale
    if not np.all(np.isfinite(scaled)):
        raise ValueError(f"{name} must be finite")
    return arr


def kernel_matrix(X1, X2, hyper: Hyperparams) -> np.ndarray:
    """Covariance matrix between two point sets, shape (len(X1), len(X2))."""
    X1 = _real_array(X1, "first points", hyper.lengthscales)
    X2 = _real_array(X2, "second points", hyper.lengthscales)
    return _cross_kernel(*_scaled_factors(X1, hyper), X2, hyper)


@dataclass(frozen=True)
class GPModel:
    """A fitted GP: training data, factorization, and the target rescaling."""

    X: np.ndarray
    y: np.ndarray  # standardized targets
    hyper: Hyperparams
    L: np.ndarray  # lower Cholesky factor of K + (noise^2 + jitter) I
    alpha: np.ndarray
    y_mean: float
    y_scale: float
    jitter: float
    # _scaled_factors(X, hyper), kept for posterior queries
    twice_scaled_X: np.ndarray = field(repr=False)
    scaled_sq_norms: np.ndarray = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def prior_std(self) -> float:
        """Prior standard deviation in original target units."""
        return self.hyper.signal_std * self.y_scale


def _training_data(X, y, lengthscales: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Validated inputs and standardized targets: (X, ys, y_mean, y_scale)."""
    X = _real_array(X, "training inputs", lengthscales)
    if X.shape[0] == 0:
        raise ValueError("training inputs must not be empty")
    y = _real_array(y, "targets").reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"got {X.shape[0]} inputs but {y.shape[0]} targets")

    y_mean = float(y.mean())
    sd = float(y.std())
    y_scale = sd if sd >= _STD_FLOOR else 1.0
    return X, (y - y_mean) / y_scale, y_mean, y_scale


def _training_kernel(X: np.ndarray,
                     hyper: Hyperparams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_scaled_factors(X, hyper) and the kernel of X with itself, checked finite.

    An input overflowing X / ls makes the kernel NaN.
    """
    twice_scaled, sq_norms = _scaled_factors(X, hyper)
    K = _cross_kernel(twice_scaled, sq_norms, X, hyper)
    if not np.all(np.isfinite(K)):
        raise ValueError(_NONFINITE)
    return twice_scaled, sq_norms, K


def _factorize(K: np.ndarray, noise_var: float, signal_var: float,
               ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Jittered Cholesky of K + (noise_var + jitter) I and its solve against ys.

    Returns (L, alpha, jitter): L lower and Fortran-ordered with a zeroed
    upper triangle, as trtrs needs. The jitter starts small and doubles
    after each failed factorization until it passes a cap.
    """
    potrf, potrs, _ = _lapack()
    jitter = _JITTER_START * signal_var
    cap = _JITTER_CAP * signal_var
    while True:
        diagonal = np.diagonal(K) + (noise_var + jitter)
        if not np.all(np.isfinite(diagonal)):
            raise ValueError(_NONFINITE)
        A = np.array(K, order="F")
        np.fill_diagonal(A, diagonal)
        L, info = potrf(A, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            break
        jitter *= 2.0
        if jitter > cap:
            raise NumericalError(
                f"covariance factorization failed even with jitter {jitter:.3e}"
            )
    if not np.all(np.isfinite(ys)):  # standardizing can overflow
        raise ValueError(_NONFINITE)
    alpha, info = potrs(L, ys, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return L, alpha, jitter


def fit(X, y, hyper: Hyperparams) -> GPModel:
    """Fit a GP to (X, y) under fixed hyperparameters.

    Targets are shifted to zero mean and, unless nearly constant, scaled to
    unit standard deviation; hyperparameters refer to the standardized scale.
    """
    X, ys, y_mean, y_scale = _training_data(X, y, hyper.lengthscales)
    kernel = _training_kernel(X, hyper)
    factors = _factorize(kernel[2], hyper.noise_std**2, hyper.signal_std**2, ys)
    return _fitted(X, ys, y_mean, y_scale, hyper, kernel, factors)


def _fitted(X, ys, y_mean, y_scale, hyper, kernel, factors) -> GPModel:
    """The GPModel of _training_data's, _training_kernel's and _factorize's
    results, over a copy of X and with every array marked read-only."""
    X = np.array(X)
    (twice_scaled, sq_norms, _), (L, alpha, jitter) = kernel, factors
    for arr in (X, ys, L, alpha, twice_scaled, sq_norms):
        arr.setflags(write=False)
    return GPModel(X=X, y=ys, hyper=hyper, L=L, alpha=alpha,
                   y_mean=y_mean, y_scale=y_scale, jitter=jitter,
                   twice_scaled_X=twice_scaled, scaled_sq_norms=sq_norms)


@dataclass(frozen=True)
class _ModelStack:
    """Fitted models sharing a point count and dimension, their posterior
    factors stacked along a leading model axis."""

    twice_scaled_X: np.ndarray  # (models, n, d)
    scaled_sq_norms: np.ndarray  # (models, n, 1)
    alpha: np.ndarray  # (models, n, 1)
    lengthscales: np.ndarray  # (models, d)
    signal_var: np.ndarray  # (models,)
    y_scale: np.ndarray  # (models,)
    y_mean: np.ndarray  # (models,)
    L: tuple


def _stack_models(models) -> _ModelStack:
    models = tuple(models)
    return _ModelStack(
        twice_scaled_X=np.stack([m.twice_scaled_X for m in models]),
        scaled_sq_norms=np.stack([m.scaled_sq_norms for m in models]),
        alpha=np.stack([m.alpha for m in models])[:, :, None],
        lengthscales=np.stack([m.hyper.lengthscales for m in models]),
        signal_var=np.array([m.hyper.signal_std**2 for m in models]),
        y_scale=np.array([m.y_scale for m in models]),
        y_mean=np.array([m.y_mean for m in models]),
        L=tuple(m.L for m in models),
    )


def _workspace(models: int, points: int, rows: int) -> np.ndarray:
    """A flat workspace for _stacked_moments on up to models models of up to
    points training points, each scored at up to rows rows."""
    return np.empty(2 * models * points * rows)


def _stacked_moments(stack: _ModelStack, Xq: np.ndarray,
                     work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and stds, each (models, m), at a finite (models, m, d)
    float block, unvalidated: model j of the stack at the rows Xq[j].

    The (models, n, m) kernel block and the cross product are written into
    the flat float64 workspace work, of at least 2 models n m elements (see
    _workspace), whose contents on entry do not matter; a caller scoring
    many blocks hands each call the same one, so no call allocates its
    full-size temporaries anew. The returned arrays never view it. The
    cross-kernel and mean products are stacked matmuls, which round as each
    model's own 2-D products do, and the triangular solve is one
    multi-column LAPACK call per model, in place on a Fortran-ordered copy
    of its block, so block j does not depend on the other models.
    """
    models, n, _ = stack.twice_scaled_X.shape
    m = Xq.shape[1]
    size = models * n * m
    sq = work[:size].reshape(models, n, m)
    cross = work[size:2 * size].reshape(models, n, m)
    B = Xq / stack.lengthscales[:, None, :]
    np.add(stack.scaled_sq_norms, np.add.reduce(B**2, axis=2)[:, None, :], out=sq)
    np.subtract(sq, np.matmul(stack.twice_scaled_X, B.transpose(0, 2, 1), out=cross),
                out=sq)
    np.maximum(sq, 0.0, out=sq)
    np.multiply(sq, -0.5, out=sq)
    np.exp(sq, out=sq)
    Ks = np.multiply(sq, stack.signal_var[:, None, None], out=sq)  # (models, n, m)
    mean_s = np.matmul(Ks.transpose(0, 2, 1), stack.alpha)[:, :, 0]
    trtrs = _lapack()[2]
    explained = np.empty(mean_s.shape)
    # Fortran-ordered (n, m), over the cross product, which is spent by now
    V = work[size:size + n * m].reshape(m, n).T
    for j, L in enumerate(stack.L):
        V[...] = Ks[j]
        solved, info = trtrs(L, V, 1, overwrite_b=1)  # lower; solved is V
        if info != 0:
            raise NumericalError(f"triangular solve failed (LAPACK info {info})")
        explained[j] = np.add.reduce(np.square(solved, out=solved), axis=0)
    var = stack.signal_var[:, None] - explained
    np.maximum(var, 0.0, out=var)
    mean = mean_s * stack.y_scale[:, None] + stack.y_mean[:, None]
    std = np.sqrt(var) * stack.y_scale[:, None]
    return mean, std


def posterior_batch(model: GPModel, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and standard deviations at query points, original scale."""
    Xq = _real_array(Xq, "query points", model.hyper.lengthscales)
    (mean,), (std,) = _stacked_moments(_stack_models((model,)), Xq[None],
                                       _workspace(1, model.n_points, Xq.shape[0]))
    if not np.all(np.isfinite(mean)):  # a coordinate near the float limit
        raise ValueError("query points overflow the kernel")
    return mean, std


def _log_evidence(ys: np.ndarray, alpha: np.ndarray, L: np.ndarray) -> float:
    return float(
        -0.5 * ys @ alpha
        - np.sum(np.log(np.diag(L)))
        - 0.5 * ys.shape[0] * np.log(2.0 * np.pi)
    )


def log_marginal_likelihood(model: GPModel) -> float:
    """Log evidence of the standardized targets under the fitted model."""
    return _log_evidence(model.y, model.alpha, model.L)


def default_hyper_grid(n_dims: int) -> list[Hyperparams]:
    """The search grid: one shared lengthscale per candidate, fixed amplitude.

    Targets are standardized at fit time, so a unit signal_std matches their
    scale and only the lengthscale and noise level need searching.
    """
    grid = []
    for ls in DEFAULT_LENGTHSCALES:
        for ns in DEFAULT_NOISE_STDS:
            grid.append(Hyperparams(1.0, np.full(n_dims, ls), ns))
    return grid


def fit_hyper(X, y, grid) -> Hyperparams:
    """Pick the grid hyperparameters with the highest log marginal likelihood.

    Exact ties go to the smallest lengthscale product so the choice is
    deterministic even for constant targets. Each entry scores as
    log_marginal_likelihood(fit(X, y, hyper)) would, bit for bit; the data
    are validated and standardized once, and entries differing only in
    noise_std share one kernel.
    """
    return _fit_best(X, y, grid).hyper


def _fit_best(X, y, grid) -> GPModel:
    """fit_hyper's search, returning fit(X, y, fit_hyper(X, y, grid)) bit for bit.

    The chosen entry's model is assembled from the kernel and factorization
    the search already made, so nothing is refitted.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("hyperparameter grid must be nonempty")
    X, ys, y_mean, y_scale = _training_data(X, y, grid[0].lengthscales)
    kernels = {}
    best = None  # the chosen entry and its factorization
    best_lml = -np.inf
    best_prod = np.inf
    failures = 0
    for hyper in grid:
        _check_dims("training inputs", X, hyper.n_dims)
        key = (hyper.lengthscales.tobytes(), hyper.signal_std)
        if key not in kernels:
            kernels[key] = _training_kernel(X, hyper)
        try:
            factors = _factorize(kernels[key][2], hyper.noise_std**2,
                                 hyper.signal_std**2, ys)
        except NumericalError:
            failures += 1
            continue
        lml = _log_evidence(ys, factors[1], factors[0])
        prod = float(np.prod(hyper.lengthscales))
        if lml > best_lml or (lml == best_lml and prod < best_prod):
            best, best_lml, best_prod = (hyper, factors), lml, prod
    if best is None:
        raise NumericalError(
            f"every hyperparameter candidate failed to factorize ({failures} failures)"
        )
    hyper, factors = best
    kernel = kernels[(hyper.lengthscales.tobytes(), hyper.signal_std)]
    return _fitted(X, ys, y_mean, y_scale, hyper, kernel, factors)


def _std_ratio(prior_stds, stds: np.ndarray) -> np.ndarray:
    """Inflation factors keeping the acquisition exploratory late in a run,
    one per row of stds.

    A row holds one model's posterior stds over its candidate set, and
    prior_stds the models' prior stds. When a row's largest std has collapsed
    below a tenth of its prior std, its factor rescales it back up to that
    floor; otherwise the factor is 1.
    """
    floor = 0.1 * prior_stds
    s_max = np.maximum(stds.max(axis=-1), 1e-9 * floor)
    return np.where(s_max < floor, floor / s_max, 1.0)
