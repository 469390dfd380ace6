"""Gaussian-process regression with a squared-exponential ARD kernel.

Targets are standardized before fitting; posteriors are mapped back to the
original scale. Factorization calls LAPACK potrf and potrs directly, in a
jittered Cholesky that retries with doubled jitter before giving up; fit and
the hyperparameter search share it, and the search builds one kernel per
distinct lengthscale setting. A fitted model keeps its scaled training
inputs, so a posterior at new points costs one cross-kernel, one product and
one LAPACK triangular solve. Rows can also be scored one by one in a single
call, each against its own model of a stack and rounded as a one-point
posterior is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

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

# The LAPACK routines scipy.linalg.cholesky, cho_solve and solve_triangular
# end in for float64 arrays, without those wrappers' per-call checks.
_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64)

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
        if not np.isfinite(self.signal_std) or self.signal_std <= 0.0:
            raise ValueError(f"signal_std must be positive, got {self.signal_std}")
        if self.signal_std < 1.0 and not _JITTER_START * float(self.signal_std)**2 > 0.0:
            # fit's jitter would start at 0 and never grow
            raise ValueError(f"signal_std {self.signal_std} is too small: its jitter "
                             "start underflows to 0")
        if not np.isfinite(self.noise_std) or self.noise_std < 0.0:
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")
        ls.setflags(write=False)
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_std", float(self.signal_std))
        object.__setattr__(self, "noise_std", float(self.noise_std))

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


def kernel_matrix(X1: np.ndarray, X2: np.ndarray, hyper: Hyperparams) -> np.ndarray:
    """Covariance matrix between two point sets, shape (len(X1), len(X2))."""
    twice_scaled, sq_norms = _scaled_factors(np.asarray(X1, dtype=float), hyper)
    return _cross_kernel(twice_scaled, sq_norms, np.asarray(X2, dtype=float), hyper)


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


def _check_dims(X: np.ndarray, n_dims: int) -> None:
    if X.shape[1] != n_dims:
        raise ValueError(
            f"training inputs have {X.shape[1]} dims, lengthscales have {n_dims}"
        )


def _training_data(X, y, n_dims: int,
                   standardize: bool) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Validated inputs and standardized targets: (X, ys, y_mean, y_scale)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"training inputs must be a nonempty 2-D array, got shape {X.shape}")
    _check_dims(X, n_dims)
    if not np.all(np.isfinite(X)):
        raise ValueError("training inputs must be finite")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"got {X.shape[0]} inputs but {y.shape[0]} targets")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")

    if standardize:
        y_mean = float(y.mean())
        sd = float(y.std())
        y_scale = sd if sd >= _STD_FLOOR else 1.0
    else:
        y_mean, y_scale = 0.0, 1.0
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
    upper triangle, as _trtrs needs. The jitter starts small and doubles
    after each failed factorization until it passes a cap.
    """
    jitter = _JITTER_START * signal_var
    cap = _JITTER_CAP * signal_var
    while True:
        diagonal = np.diagonal(K) + (noise_var + jitter)
        if not np.all(np.isfinite(diagonal)):
            raise ValueError(_NONFINITE)
        A = np.array(K, order="F")
        np.fill_diagonal(A, diagonal)
        L, info = _potrf(A, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            break
        jitter *= 2.0
        if jitter > cap:
            raise NumericalError(
                f"covariance factorization failed even with jitter {jitter:.3e}"
            )
    if not np.all(np.isfinite(ys)):  # standardizing can overflow
        raise ValueError(_NONFINITE)
    alpha, info = _potrs(L, ys, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return L, alpha, jitter


def fit(X, y, hyper: Hyperparams, standardize: bool = True) -> GPModel:
    """Fit a GP to (X, y) under fixed hyperparameters.

    With standardize=True (the default) targets are shifted to zero mean and,
    unless nearly constant, scaled to unit standard deviation; hyperparameters
    then refer to the standardized scale.
    """
    X, ys, y_mean, y_scale = _training_data(X, y, hyper.n_dims, standardize)
    twice_scaled, sq_norms, K = _training_kernel(X, hyper)
    L, alpha, jitter = _factorize(K, hyper.noise_std**2, hyper.signal_std**2, ys)
    X = np.array(X)
    X.setflags(write=False)
    for arr in (ys, L, alpha, twice_scaled, sq_norms):
        arr.setflags(write=False)
    return GPModel(X=X, y=ys, hyper=hyper, L=L, alpha=alpha,
                   y_mean=y_mean, y_scale=y_scale, jitter=jitter,
                   twice_scaled_X=twice_scaled, scaled_sq_norms=sq_norms)


def _posterior_moments(model: GPModel, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and stds at the rows of a finite 2-D float array, unvalidated.

    posterior_batch validates its input and calls this; the proposal step
    calls it directly. _stacked_moments gives the bits of one call per row.
    """
    Ks = _cross_kernel(model.twice_scaled_X, model.scaled_sq_norms, Xq, model.hyper)
    mean_s = Ks.T @ model.alpha
    V, info = _trtrs(model.L, Ks, lower=True)
    if info != 0:
        raise NumericalError(f"triangular solve failed (LAPACK info {info})")
    var = model.hyper.signal_std**2 - np.add.reduce(V**2, axis=0)
    np.maximum(var, 0.0, out=var)
    mean = mean_s * model.y_scale + model.y_mean
    std = np.sqrt(var) * model.y_scale
    return mean, std


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


def _stacked_moments(stack: _ModelStack, owner: np.ndarray,
                     Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_posterior_moments at each row of Xq on its own, bit for bit, in one call.

    Row r is scored against model owner[r] of the stack, whose arrays are
    gathered per row. The cross-kernel and mean products are stacked,
    one (n, d) @ (d, 1) and one (1, n) @ (n, 1) per row, which round like the
    one-row products; plain 2-D products do not. The triangular solve takes
    one LAPACK call per row, against that row's own factor, because a
    multi-column solve rounds differently.
    """
    B = Xq / stack.lengthscales[owner]
    sq = np.add(stack.scaled_sq_norms[owner], np.add.reduce(B**2, axis=1)[:, None, None])
    np.subtract(sq, np.matmul(stack.twice_scaled_X[owner], B[:, :, None]), out=sq)
    np.maximum(sq, 0.0, out=sq)
    np.multiply(sq, -0.5, out=sq)
    np.exp(sq, out=sq)
    signal_var = stack.signal_var[owner]
    Ks = np.multiply(sq, signal_var[:, None, None], out=sq)  # (rows, n, 1)
    mean_s = np.matmul(Ks.transpose(0, 2, 1), stack.alpha[owner])[:, 0, 0]
    columns = []
    for k, m in zip(Ks, owner.tolist()):
        v, info = _trtrs(stack.L[m], k, 1)  # lower
        if info != 0:
            raise NumericalError(f"triangular solve failed (LAPACK info {info})")
        columns.append(v)
    # each row's solution contiguous, so its squared sum pairs up as in the one-row call
    V = np.concatenate(columns).reshape(len(columns), -1)
    var = signal_var - np.add.reduce(V**2, axis=1)
    np.maximum(var, 0.0, out=var)
    y_scale = stack.y_scale[owner]
    mean = mean_s * y_scale + stack.y_mean[owner]
    std = np.sqrt(var) * y_scale
    return mean, std


def posterior_batch(model: GPModel, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and standard deviations at query points, original scale."""
    Xq = np.asarray(Xq, dtype=float)
    if Xq.ndim == 1:
        Xq = Xq[:, None]
    if Xq.shape[1] != model.hyper.n_dims:
        raise ValueError(
            f"query points have {Xq.shape[1]} dims, model has {model.hyper.n_dims}"
        )
    mean, std = _posterior_moments(model, Xq)
    # a NaN or +inf coordinate makes its cross-kernel column NaN
    if not np.all(np.isfinite(mean)):
        raise ValueError("query points must be finite")
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
            grid.append(Hyperparams(1.0, np.full(n_dims, float(ls)), float(ns)))
    return grid


def fit_hyper(X, y, grid) -> Hyperparams:
    """Pick the grid hyperparameters with the highest log marginal likelihood.

    Exact ties go to the smallest lengthscale product so the choice is
    deterministic even for constant targets. Each entry scores as
    log_marginal_likelihood(fit(X, y, hyper)) would, bit for bit; the data
    are validated and standardized once, and entries differing only in
    noise_std share one kernel.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("hyperparameter grid must be nonempty")
    X, ys, _, _ = _training_data(X, y, grid[0].n_dims, standardize=True)
    kernels = {}
    best: Hyperparams | None = None
    best_lml = -np.inf
    best_prod = np.inf
    failures = 0
    for hyper in grid:
        _check_dims(X, hyper.n_dims)
        key = (hyper.lengthscales.tobytes(), hyper.signal_std)
        if key not in kernels:
            kernels[key] = _training_kernel(X, hyper)[2]
        try:
            L, alpha, _ = _factorize(kernels[key], hyper.noise_std**2,
                                     hyper.signal_std**2, ys)
        except NumericalError:
            failures += 1
            continue
        lml = _log_evidence(ys, alpha, L)
        prod = float(np.prod(hyper.lengthscales))
        if lml > best_lml or (lml == best_lml and prod < best_prod):
            best, best_lml, best_prod = hyper, lml, prod
    if best is None:
        raise NumericalError(
            f"every hyperparameter candidate failed to factorize ({failures} failures)"
        )
    return best


def _std_ratio(model: GPModel, stds: np.ndarray) -> float:
    """Inflation factor keeping the acquisition exploratory late in a run.

    stds are the posterior stds over the candidate set. When their largest
    has collapsed below a tenth of the prior std, rescale it back up to that
    floor; otherwise leave the stds untouched.
    """
    if stds.size == 0:
        raise ValueError("candidate set must be nonempty")
    s_max = float(stds.max())
    floor = 0.1 * model.prior_std
    s_max = max(s_max, 1e-9 * floor)
    if s_max < floor:
        return floor / s_max
    return 1.0
