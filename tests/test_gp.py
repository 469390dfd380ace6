"""GP regression against direct dense-solve oracles and textbook limits."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dtrtri

import gaitbo
from gaitbo.errors import NumericalError
from gaitbo.gp import (
    _fit_best,
    _fitted,
    _inverse_factor,
    _stack_models,
    _stacked_moments,
    _std_ratio,
    _workspace,
    GPModel,
    Hyperparams,
    default_hyper_grid,
    fit,
    fit_hyper,
    kernel_matrix,
    log_marginal_likelihood,
    posterior_batch,
)


def reference_kernel(x1, x2, hyper):
    """Squared-exponential covariance between two points, one pair at a time."""
    z = (np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)) / hyper.lengthscales
    return float(hyper.signal_std**2 * np.exp(-0.5 * np.dot(z, z)))


def kernel_at(x1, x2, hyper):
    """kernel_matrix's entry for one pair of points."""
    return float(kernel_matrix(np.atleast_2d(x1), np.atleast_2d(x2), hyper)[0, 0])


def posterior_at(model, x):
    """posterior_batch's mean and std at one point, as floats."""
    mean, std = posterior_batch(model, np.atleast_1d(np.asarray(x, dtype=float))[None, :])
    return float(mean[0]), float(std[0])


def dense_posterior(X, y, hyper, xq, jitter):
    """Textbook GP posterior via plain dense solves (no Cholesky reuse).

    Replicates the standardization convention, then inverts K directly.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != len(y):
        X = X.T
    y = np.asarray(y, dtype=float)
    y_mean = y.mean()
    sd = y.std()
    scale = sd if sd >= 1e-12 else 1.0
    ys = (y - y_mean) / scale

    def k(a, b):
        z = (a - b) / hyper.lengthscales
        return hyper.signal_std**2 * np.exp(-0.5 * np.dot(z, z))

    m = X.shape[0]
    K = np.array([[k(X[i], X[j]) for j in range(m)] for i in range(m)])
    Kn = K + (hyper.noise_std**2 + jitter) * np.eye(m)
    ks = np.array([k(X[i], xq) for i in range(m)])
    mean_s = ks @ np.linalg.solve(Kn, ys)
    var = hyper.signal_std**2 - ks @ np.linalg.solve(Kn, ks)
    return mean_s * scale + y_mean, np.sqrt(max(var, 0.0)) * scale


def reference_inverse(L):
    """LAPACK trtri's inverse of the lower factor L, row-major: a product's
    rounding depends on its operands' layout, and the model keeps this one."""
    L_inv, info = dtrtri(L, lower=1)
    assert info == 0
    return np.ascontiguousarray(L_inv)


def reference_posterior_batch(model, Xq):
    """The posterior by GPML Alg. 2.1 in plain 2-D code: the cross-kernel
    rebuilt from the raw training inputs, then var = k** - |L^-1 k|^2 with
    L^-1 inverted afresh from the model's L."""
    A = model.X / model.hyper.lengthscales
    B = Xq / model.hyper.lengthscales
    sq = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2.0 * A @ B.T
    np.maximum(sq, 0.0, out=sq)
    Ks = model.hyper.signal_std**2 * np.exp(-0.5 * sq)
    mean_s = Ks.T @ model.alpha
    V = reference_inverse(model.L) @ Ks
    var = model.hyper.signal_std**2 - np.sum(V**2, axis=0)
    np.maximum(var, 0.0, out=var)
    return mean_s * model.y_scale + model.y_mean, np.sqrt(var) * model.y_scale


def stacked_moments(models, Xq):
    """_stacked_moments of the models at the (models, m, d) block Xq, in a
    fresh workspace."""
    return _stacked_moments(_stack_models(models), Xq,
                            _workspace(len(models), models[0].n_points, Xq.shape[1]))


def reference_fit(X, y, hyper):
    """fit as first written: scipy's checked cholesky and cho_solve, with the
    kernel built and the data validated on every call."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"training inputs must be a nonempty 2-D array, got shape {X.shape}")
    if X.shape[1] != hyper.n_dims:
        raise ValueError(
            f"training inputs have {X.shape[1]} dims, lengthscales have {hyper.n_dims}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("training inputs must be finite")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"got {X.shape[0]} inputs but {y.shape[0]} targets")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")

    y_mean = float(y.mean())
    sd = float(y.std())
    y_scale = sd if sd >= 1e-12 else 1.0
    ys = (y - y_mean) / y_scale

    A = X / hyper.lengthscales
    twice_scaled, sq_norms = 2.0 * A, np.sum(A**2, axis=1)[:, None]
    sq = sq_norms + np.sum(A**2, axis=1) - twice_scaled @ A.T
    np.maximum(sq, 0.0, out=sq)
    K = hyper.signal_std**2 * np.exp(-0.5 * sq)
    sig2 = hyper.signal_std**2
    jitter = 1e-10 * sig2
    cap = 1e-4 * sig2
    while True:
        try:
            L = cholesky(K + (hyper.noise_std**2 + jitter) * np.eye(X.shape[0]), lower=True)
            break
        except LinAlgError:
            jitter *= 2.0
            if jitter > cap:
                raise NumericalError(
                    f"covariance factorization failed even with jitter {jitter:.3e}"
                ) from None
    alpha = cho_solve((L, True), ys)
    return GPModel(X=np.array(X), y=ys, hyper=hyper, L=L, L_inv=reference_inverse(L), alpha=alpha,
                   y_mean=y_mean, y_scale=y_scale, jitter=jitter,
                   twice_scaled_X=twice_scaled, scaled_sq_norms=sq_norms)


def reference_fit_hyper(X, y, grid):
    """fit_hyper as first written: one reference_fit per grid entry."""
    grid = list(grid)
    if not grid:
        raise ValueError("hyperparameter grid must be nonempty")
    best, best_lml, best_prod = None, -np.inf, np.inf
    failures = []
    for hyper in grid:
        try:
            lml = log_marginal_likelihood(reference_fit(X, y, hyper))
        except NumericalError as exc:
            failures.append(exc)
            continue
        prod = float(np.prod(hyper.lengthscales))
        if lml > best_lml or (lml == best_lml and prod < best_prod):
            best, best_lml, best_prod = hyper, lml, prod
    if best is None:
        raise NumericalError(
            f"every hyperparameter candidate failed to factorize ({len(failures)} failures)"
        )
    return best


def outcome(fn, *args):
    """fn's result, or the type and text of the ValueError or NumericalError it raised."""
    try:
        return fn(*args)
    except (ValueError, NumericalError) as exc:
        return type(exc), str(exc)


def custom_grid(n_dims):
    """A grid whose amplitudes differ from 1 and whose lengthscales repeat,
    across amplitudes and within one, with zero-noise entries."""
    ard = np.linspace(0.2, 0.8, n_dims)
    return [
        Hyperparams(2.0, np.full(n_dims, 0.3), 0.0),
        Hyperparams(0.5, np.full(n_dims, 0.3), 0.0),
        Hyperparams(2.0, ard, 1e-2),
        Hyperparams(2.0, np.full(n_dims, 0.3), 1e-2),
        Hyperparams(0.5, np.full(n_dims, 1.0), 1e-3),
        Hyperparams(2.0, ard.copy(), 0.0),
        Hyperparams(2.0, np.full(n_dims, 0.3), 1e-1),
    ]


class TestKernel:
    def test_unit_distance_value(self):
        hyper = Hyperparams(1.0, np.array([1.0]), 0.0)
        assert kernel_at([0.0], [1.0], hyper) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_amplitude_at_zero_distance(self):
        hyper = Hyperparams(2.0, np.array([0.3, 0.7]), 0.0)
        assert kernel_at([0.4, 0.1], [0.4, 0.1], hyper) == pytest.approx(4.0, abs=1e-12)

    def test_ard_weights_each_dimension(self):
        hyper = Hyperparams(1.0, np.array([0.5, 2.0]), 0.0)
        got = kernel_at([0.0, 0.0], [0.5, 1.0], hyper)
        want = np.exp(-0.5 * ((0.5 / 0.5) ** 2 + (1.0 / 2.0) ** 2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        hyper = Hyperparams(1.0, np.array([1.0, 1.0]), 0.0)
        model = fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]), hyper)
        with pytest.raises(ValueError, match="dims"):
            posterior_batch(model, np.array([[0.0]]))

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        hyper = Hyperparams(1.3, np.array([0.4, 0.9, 1.7]), 0.0)
        A = rng.random((5, 3))
        B = rng.random((4, 3))
        M = kernel_matrix(A, B, hyper)
        for i in range(5):
            for j in range(4):
                assert M[i, j] == pytest.approx(reference_kernel(A[i], B[j], hyper),
                                                abs=1e-12)


class TestFit:
    def test_alpha_solves_the_linear_system(self):
        rng = np.random.default_rng(1)
        X = rng.random((10, 2))
        y = rng.normal(0.0, 2.0, 10)
        hyper = Hyperparams(1.0, np.array([0.3, 0.3]), 0.1)
        model = fit(X, y, hyper)
        K = kernel_matrix(model.X, model.X, hyper)
        Kn = K + (hyper.noise_std**2 + model.jitter) * np.eye(10)
        np.testing.assert_allclose(Kn @ model.alpha, model.y, atol=1e-8)

    def test_standardized_targets(self):
        rng = np.random.default_rng(2)
        y = rng.normal(5.0, 3.0, 12)
        model = fit(rng.random((12, 1)), y, Hyperparams(1.0, np.array([0.3]), 0.1))
        assert abs(model.y.mean()) < 1e-12
        assert model.y.std() == pytest.approx(1.0, abs=1e-12)
        assert model.y_mean == pytest.approx(y.mean())
        assert model.y_scale == pytest.approx(y.std())

    def test_constant_targets_skip_scaling(self):
        X = np.linspace(0, 1, 5)[:, None]
        model = fit(X, np.full(5, 4.2), Hyperparams(1.0, np.array([0.3]), 0.1))
        assert model.y_scale == 1.0
        np.testing.assert_allclose(model.y, 0.0, atol=1e-15)

    def test_near_duplicate_points_need_jitter_growth(self):
        # Two nearly identical inputs with zero noise force the retry path.
        X = np.array([[0.5], [0.5 + 1e-13], [0.9]])
        y = np.array([1.0, 1.0, -1.0])
        model = fit(X, y, Hyperparams(1.0, np.array([0.5]), 0.0))
        assert model.jitter >= 1e-10
        mean, std = posterior_at(model, [0.5])
        assert np.isfinite(mean) and np.isfinite(std)


class TestFitBitIdentity:
    """fit and fit_hyper give the reference's arrays, choices and errors, bit for bit."""

    FIELDS = ("L", "L_inv", "alpha", "jitter", "y", "y_mean", "y_scale", "twice_scaled_X",
              "scaled_sq_norms")

    def assert_same_fit(self, got, want):
        if isinstance(want, tuple):
            assert got == want
            return
        for name in self.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.hyper is want.hyper

    @settings(max_examples=60, deadline=None)
    @given(n_points=st.integers(1, 100), n_dims=st.integers(1, 6),
           n_duplicates=st.integers(0, 100),
           shift=st.sampled_from([0.0, 0.0, 1e2, 1e3, 1e5, 1e7]),
           constant=st.booleans(), data_seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, n_points, n_dims, n_duplicates, shift, constant,
                               data_seed):
        # Duplicated rows under zero noise make the factorization retry with
        # more jitter; inputs far from the origin make the kernel lose its
        # positive definiteness to rounding and can exhaust the jitter.
        rng = np.random.default_rng(data_seed)
        X = shift + rng.random((n_points, n_dims))
        copies = rng.integers(0, n_points, min(n_duplicates, n_points - 1))
        X[rng.permutation(n_points)[:len(copies)]] = X[copies]
        y = np.full(n_points, 2.5) if constant else rng.normal(0.0, 3.0, n_points)
        for grid in (default_hyper_grid(n_dims), custom_grid(n_dims)):
            for hyper in grid:
                self.assert_same_fit(outcome(fit, X, y, hyper),
                                     outcome(reference_fit, X, y, hyper))
            got = outcome(fit_hyper, X, y, grid)
            want = outcome(reference_fit_hyper, X, y, grid)
            assert got is want if isinstance(want, Hyperparams) else got == want

    def test_duplicated_rows_retry_with_more_jitter(self):
        X = 100.0 + np.repeat(np.linspace(0.0, 1.0, 40)[:, None], 3, axis=0)
        y = np.sin(6.0 * X[:, 0])
        hyper = Hyperparams(1.0, np.array([0.3]), 0.0)
        model = fit(X, y, hyper)
        assert model.jitter > 1e-10
        self.assert_same_fit(model, reference_fit(X, y, hyper))

    def test_exhausted_jitter_raises_the_reference_errors(self):
        rng = np.random.default_rng(3)
        X = 1e7 + rng.random((20, 2))
        y = rng.normal(0.0, 1.0, 20)
        grid = default_hyper_grid(2)
        for hyper in grid:
            got = outcome(fit, X, y, hyper)
            assert got[0] is NumericalError
            assert got == outcome(reference_fit, X, y, hyper)
        got = outcome(fit_hyper, X, y, grid)
        assert got == (NumericalError,
                       "every hyperparameter candidate failed to factorize (15 failures)")
        assert got == outcome(reference_fit_hyper, X, y, grid)


class TestFitBestModel:
    """The search's model equals fit under the chosen hyperparameters, in every field."""

    FIELDS = ("X",) + TestFitBitIdentity.FIELDS

    def assert_same_model(self, got, want):
        if isinstance(want, tuple):
            assert got == want
            return
        for name in self.FIELDS:
            value = getattr(got, name)
            assert np.array_equal(value, getattr(want, name)), name
            assert type(value) is type(getattr(want, name)), name
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
        assert got.hyper is want.hyper

    @settings(max_examples=60, deadline=None)
    @given(n_points=st.integers(1, 100), n_dims=st.integers(1, 6),
           n_duplicates=st.integers(0, 100),
           shift=st.sampled_from([0.0, 0.0, 1e2, 1e3, 1e5, 1e7]),
           constant=st.booleans(), data_seed=st.integers(0, 2**32 - 1))
    def test_matches_fit_of_the_choice(self, n_points, n_dims, n_duplicates, shift,
                                       constant, data_seed):
        rng = np.random.default_rng(data_seed)
        X = shift + rng.random((n_points, n_dims))
        copies = rng.integers(0, n_points, min(n_duplicates, n_points - 1))
        X[rng.permutation(n_points)[:len(copies)]] = X[copies]
        y = np.full(n_points, 2.5) if constant else rng.normal(0.0, 3.0, n_points)
        for grid in (default_hyper_grid(n_dims), custom_grid(n_dims)):
            got = outcome(_fit_best, X, y, grid)
            chosen = outcome(fit_hyper, X, y, grid)
            want = chosen if isinstance(chosen, tuple) else fit(X, y, chosen)
            self.assert_same_model(got, want)

    def test_model_does_not_alias_the_callers_inputs(self):
        X = np.random.default_rng(8).random((12, 2))
        y = np.sin(3.0 * X[:, 0])
        model = _fit_best(X, y, default_hyper_grid(2))
        X[0, 0] = 7.0
        assert model.X[0, 0] != 7.0


class TestNonFiniteKernel:
    """A kernel made NaN by overflowing inputs is rejected, not factorized."""

    X = np.array([[1e308], [0.0]])
    HYPER = Hyperparams(1.0, np.array([0.1]), 1e-2)

    def test_fit_raises(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                fit(self.X, np.array([0.0, 1.0]), self.HYPER)

    def test_fit_hyper_raises(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                fit_hyper(self.X, np.array([0.0, 1.0]), [self.HYPER])

    def test_overflowing_standardization_raises(self):
        # (y - mean) / std overflows to NaN although every target is finite
        y = np.array([1.7e308, -1.7e308, -1.7e308])
        X = np.array([[0.1], [0.5], [0.9]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert outcome(fit, X, y, self.HYPER)[0] is ValueError
            assert outcome(fit, X, y, self.HYPER) == outcome(reference_fit, X, y, self.HYPER)
            assert outcome(fit_hyper, X, y, [self.HYPER])[0] is ValueError

    def test_overflowing_diagonal_raises(self):
        # the kernel and the noise variance are finite, their sum on the diagonal is not
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([0.0, 1.0, 0.5])
        hyper = Hyperparams(1.3e154, np.array([0.3]), 1.3e154)
        with np.errstate(over="ignore", invalid="ignore"):
            assert outcome(fit, X, y, hyper)[0] is ValueError
            assert outcome(fit, X, y, hyper) == outcome(reference_fit, X, y, hyper)
            assert outcome(fit_hyper, X, y, [hyper]) == outcome(reference_fit_hyper, X, y,
                                                                 [hyper])

    @pytest.mark.parametrize("signal_std", [1e-170, 1e-160])
    def test_underflowing_jitter_start_rejected_at_construction(self, signal_std):
        # signal_std**2 is 0 or subnormal, so the jitter start 1e-10 * signal_std**2
        # and its cap are both 0; fit would retry forever
        with pytest.raises(ValueError, match="jitter start"):
            Hyperparams(signal_std, np.array([0.3]), 0.0)

    def test_wrong_dimension_entry_after_a_valid_one_raises(self):
        # one lengthscale would broadcast over both dims if not checked per entry
        X = np.array([[0.1, 0.2], [0.5, 0.4], [0.9, 0.7]])
        grid = [Hyperparams(1.0, np.array([0.3, 0.3]), 1e-2),
                Hyperparams(1.0, np.array([0.3]), 1e-2)]
        with pytest.raises(ValueError, match="1 dims|lengthscales have 1"):
            fit_hyper(X, np.array([0.0, 1.0, 0.5]), grid)


class TestPosterior:
    def test_three_point_oracle(self):
        X = np.array([[0.1], [0.5], [0.9]])
        y = np.array([1.0, -2.0, 0.5])
        hyper = Hyperparams(1.0, np.array([0.2]), 1e-2)
        model = fit(X, y, hyper)
        for xq in (0.05, 0.3, 0.5, 0.77, 1.2):
            want_mean, want_std = dense_posterior(X, y, hyper, np.array([xq]), model.jitter)
            got_mean, got_std = posterior_at(model, [xq])
            assert got_mean == pytest.approx(want_mean, abs=1e-10)
            assert got_std == pytest.approx(want_std, abs=1e-10)

    def test_interpolates_noise_free_data(self):
        rng = np.random.default_rng(3)
        X = np.array([[0.1, 0.1], [0.4, 0.7], [0.8, 0.2], [0.6, 0.9]])
        y = rng.normal(0, 1, 4)
        hyper = Hyperparams(1.0, np.array([0.4, 0.4]), 0.0)
        model = fit(X, y, hyper)
        for i in range(4):
            mean, std = posterior_at(model, X[i])
            assert mean == pytest.approx(y[i], abs=1e-6)
            assert std <= 1e-4 * model.prior_std

    def test_reverts_to_prior_far_away(self):
        rng = np.random.default_rng(4)
        X = rng.random((6, 1))
        y = rng.normal(3.0, 0.8, 6)
        hyper = Hyperparams(1.0, np.array([0.1]), 1e-2)
        model = fit(X, y, hyper)
        mean, std = posterior_at(model, [50.0])
        assert mean == pytest.approx(y.mean(), abs=1e-3 * max(1.0, abs(y.mean())))
        assert std == pytest.approx(model.prior_std, rel=1e-3)

    def test_posterior_std_never_exceeds_prior(self):
        rng = np.random.default_rng(5)
        X = rng.random((15, 3))
        y = rng.normal(0, 2, 15)
        model = fit(X, y, Hyperparams(1.0, np.array([0.3, 0.3, 0.3]), 1e-2))
        _, stds = posterior_batch(model, rng.random((100, 3)))
        assert np.all(stds <= model.prior_std + 1e-9)

    def test_more_data_never_raises_uncertainty(self):
        # With fixed hyperparameters conditioning on one more point cannot
        # increase the posterior std anywhere, on the standardized scale.
        rng = np.random.default_rng(6)
        hyper = Hyperparams(1.0, np.array([0.3, 0.3]), 0.1)
        X = rng.random((12, 2))
        y = rng.normal(0, 1, 12)
        probes = rng.random((100, 2))
        small = fit(X[:-1], y[:-1], hyper)
        big = fit(X, y, hyper)
        _, std_small = posterior_batch(small, probes)
        _, std_big = posterior_batch(big, probes)
        assert np.all(std_big / big.y_scale <= std_small / small.y_scale + 1e-8)

    def test_standardization_is_transparent(self):
        # Fitting 5y + 3 must shift and scale the posterior the same way.
        rng = np.random.default_rng(7)
        X = rng.random((9, 1))
        y = rng.normal(0, 1, 9)
        hyper = Hyperparams(1.0, np.array([0.25]), 1e-2)
        a = fit(X, y, hyper)
        b = fit(X, 5.0 * y + 3.0, hyper)
        probes = rng.random((40, 1))
        mean_a, std_a = posterior_batch(a, probes)
        mean_b, std_b = posterior_batch(b, probes)
        np.testing.assert_allclose(mean_b, 5.0 * mean_a + 3.0, atol=1e-8)
        np.testing.assert_allclose(std_b, 5.0 * std_a, atol=1e-8)


class TestPosteriorBitIdentity:
    """posterior_batch reproduces the reference computation bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_query", [1, 1024])
    def test_matches_reference(self, seed, n_query):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 10))
        m = int(rng.integers(1, 101))
        grid = default_hyper_grid(d)
        hyper = grid[seed * 7 % len(grid)]
        model = fit(rng.random((m, d)), rng.normal(0.0, 2.0, m), hyper)
        Xq = rng.random((n_query, d))
        got_mean, got_std = posterior_batch(model, Xq)
        want_mean, want_std = reference_posterior_batch(model, Xq)
        np.testing.assert_array_equal(got_mean, want_mean)
        np.testing.assert_array_equal(got_std, want_std)

    def test_single_points_match_reference_one_at_a_time(self):
        rng = np.random.default_rng(7)
        model = fit(rng.random((60, 6)), rng.normal(0.0, 1.0, 60),
                    Hyperparams(1.0, np.full(6, 0.3), 1e-2))
        for xq in rng.random((50, 6)):
            got = posterior_batch(model, xq[None, :])
            want = reference_posterior_batch(model, xq[None, :])
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_cached_factors_are_the_kernel_factors(self):
        rng = np.random.default_rng(8)
        hyper = Hyperparams(1.0, np.array([0.2, 0.5, 0.9]), 1e-2)
        model = fit(rng.random((12, 3)), rng.normal(0.0, 1.0, 12), hyper)
        scaled = model.X / hyper.lengthscales
        np.testing.assert_array_equal(model.twice_scaled_X, 2.0 * scaled)
        np.testing.assert_array_equal(model.scaled_sq_norms,
                                      np.sum(scaled**2, axis=1)[:, None])
        assert not model.twice_scaled_X.flags.writeable
        assert model.L.flags.f_contiguous

    def test_non_finite_query_raises(self):
        model = fit(np.array([[0.2], [0.7]]), np.array([0.0, 1.0]),
                    Hyperparams(1.0, np.array([0.3]), 1e-2))
        # -inf and -1e308 (which overflows over the lengthscale) lie below
        # every training input, where the kernel gives the prior, not NaN
        for bad in (np.nan, np.inf, -np.inf, -1e308):
            with np.errstate(invalid="ignore", over="ignore"), \
                    pytest.raises(ValueError, match="finite"):
                posterior_batch(model, np.array([[0.5], [bad]]))
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(ValueError, match="finite"):
            posterior_batch(fit(np.array([[0.2, 0.3], [0.7, 0.6]]), np.array([0.0, 1.0]),
                                Hyperparams(1.0, np.array([0.3, 0.3]), 1e-2)),
                            np.array([[-np.inf, 0.5]]))

    def test_singular_factor_fails_to_invert(self):
        model = fit(np.array([[0.2], [0.7]]), np.array([0.0, 1.0]),
                    Hyperparams(1.0, np.array([0.3]), 1e-2))
        L = np.array(model.L, order="F")
        L[1, 1] = 0.0
        with pytest.raises(NumericalError, match=r"inverting the covariance factor failed "
                                                 r"\(LAPACK info 2\)"):
            _inverse_factor(L)


class TestPointwiseMoments:
    """_stacked_moments gives each model's block of rows the bits of that
    model's own posterior at those rows."""

    @pytest.mark.parametrize("grid_index", range(len(default_hyper_grid(1))))
    @settings(max_examples=8, deadline=None)
    @given(n_models=st.integers(1, 5), n_points=st.integers(1, 100),
           n_dims=st.integers(1, 6), data_seed=st.integers(0, 2**32 - 1))
    def test_rows_match_one_row_calls(self, grid_index, n_models, n_points, n_dims,
                                      data_seed):
        # One row per model, as a level scores its runs' start points.
        rng = np.random.default_rng(data_seed)
        models = [fit(rng.random((n_points, n_dims)), rng.normal(0.0, 1.0, n_points),
                      default_hyper_grid(n_dims)[grid_index]) for _ in range(n_models)]
        Xq = rng.random((n_models, 1, n_dims))
        means, stds = stacked_moments(models, Xq)
        assert means.shape == stds.shape == (n_models, 1)
        for model, x, mean, std in zip(models, Xq, means, stds):
            want_mean, want_std = reference_posterior_batch(model, x)
            assert (mean[0], std[0]) == (want_mean[0], want_std[0])

    @settings(max_examples=60, deadline=None)
    @given(n_models=st.integers(1, 4), n_points=st.integers(1, 100),
           n_dims=st.integers(1, 6), n_rows=st.sampled_from([1, 2, 5, 12, 1024]),
           noise_free=st.booleans(), data_seed=st.integers(0, 2**32 - 1))
    def test_blocks_match_each_models_own_posterior(self, n_models, n_points, n_dims,
                                                    n_rows, noise_free, data_seed):
        # Rows at training inputs of a noise-free model included.
        rng = np.random.default_rng(data_seed)
        grid = default_hyper_grid(n_dims)
        models = []
        for _ in range(n_models):
            hyper = grid[int(rng.integers(len(grid)))]
            if noise_free:
                hyper = Hyperparams(hyper.signal_std, hyper.lengthscales, 0.0)
            models.append(fit(rng.random((n_points, n_dims)),
                              rng.normal(0.0, 1.0, n_points), hyper))
        Xq = rng.random((n_models, n_rows, n_dims))
        k = min(n_rows, n_points, 3)
        Xq[:, :k] = [model.X[:k] for model in models]
        means, stds = stacked_moments(models, Xq)
        assert means.shape == stds.shape == (n_models, n_rows)
        for model, x, mean, std in zip(models, Xq, means, stds):
            for want, got in zip(posterior_batch(model, x), (mean, std)):
                np.testing.assert_array_equal(got, want)
            for want, got in zip(reference_posterior_batch(model, x), (mean, std)):
                np.testing.assert_array_equal(got, want)

    def test_block_row_with_zero_std(self):
        # An unjittered one-point model has a std of exactly 0 at its input,
        # whose coordinates and lengthscales make the kernel there exactly 1.
        model = fit(np.array([[0.25, 0.5]]), np.array([2.0]), Hyperparams(1.0, [0.5, 0.5], 0.0))
        exact = dataclasses.replace(model, L=np.ones((1, 1), order="F"), L_inv=np.ones((1, 1)))
        Xq = np.array([[[0.25, 0.5], [0.5, 0.5]]])
        means, stds = stacked_moments((exact,), Xq)
        assert stds[0, 0] == 0.0 and stds[0, 1] > 0.0
        assert means[0, 0] == 2.0
        want_mean, want_std = reference_posterior_batch(exact, Xq[0])
        assert (means[0].tolist(), stds[0].tolist()) == (want_mean.tolist(), want_std.tolist())

    def test_a_singular_factor_makes_no_model(self):
        model = fit(np.array([[0.2], [0.7]]), np.array([0.0, 1.0]),
                    Hyperparams(1.0, np.array([0.3]), 1e-2))
        L = np.array(model.L, order="F")
        L[0, 0] = 0.0
        kernel = (model.twice_scaled_X, model.scaled_sq_norms, None)
        with pytest.raises(NumericalError, match="inverting the covariance factor failed"):
            _fitted(model.X, model.y, model.y_mean, model.y_scale, model.hyper, kernel,
                    (L, model.alpha, model.jitter))


class TestArrayChecks:
    """fit, fit_hyper, posterior_batch and kernel_matrix take finite arrays of
    integers or floats only, of the kernel's dimension, and say which is wrong."""

    HYPER = Hyperparams(1.0, np.array([0.3, 0.5]), 1e-2)
    X = [[0.1, 0.2], [0.6, 0.4], [0.9, 0.8]]
    Y = [0.5, -1.0, 2.0]

    @pytest.mark.parametrize("X, y, match", [
        ([["0.1", "0.2"], ["0.6", "0.4"], ["0.9", "0.8"]], Y,
         "training inputs must be integers or floats"),
        (X, ["1", "2", "3"], "targets must be integers or floats"),
        ([[True, False], [False, True], [True, True]], Y, "training inputs must be integers"),
        (X, [True, False, True], "targets must be integers or floats"),
        ([[0.1, None], [0.6, 0.4], [0.9, 0.8]], Y, "training inputs must be integers"),
        (X, [0.5, None, 2.0], "targets must be integers or floats"),
        (X, [0.5, 1j, 2.0], "targets must be integers or floats"),
        ([[0.1, np.nan], [0.6, 0.4], [0.9, 0.8]], Y, "training inputs must be finite"),
        (X, [0.5, np.inf, 2.0], "targets must be finite"),
        (np.zeros((3, 2, 1)), Y, "training inputs must be a 2-D array"),
        ([[0.1], [0.6], [0.9]], Y, "training inputs have 1 dims, lengthscales have 2"),
        (np.zeros((0, 2)), [], "training inputs must not be empty"),
    ], ids=["str_inputs", "str_targets", "bool_inputs", "bool_targets", "object_inputs",
            "object_targets", "complex_targets", "nan_input", "inf_target", "3d_inputs",
            "wrong_dims", "empty"])
    def test_fit_and_fit_hyper_reject(self, X, y, match):
        with pytest.raises(ValueError, match=match):
            fit(X, y, self.HYPER)
        with pytest.raises(ValueError, match=match):
            fit_hyper(X, y, [self.HYPER])

    @pytest.mark.parametrize("Xq, match", [
        ([["1", "2"]], "query points must be integers or floats"),
        ([[True, False]], "query points must be integers or floats"),
        (np.array([[0.5, None]]), "query points must be integers or floats"),
        ([[0.5, np.nan]], "query points must be finite"),
        ([[0.5]], "query points have 1 dims, lengthscales have 2"),
        (np.zeros((1, 1, 2)), "query points must be a 2-D array"),
    ], ids=["str", "bool", "object", "nan", "wrong_dims", "3d"])
    def test_posterior_batch_rejects(self, Xq, match):
        model = fit(self.X, self.Y, self.HYPER)
        with pytest.raises(ValueError, match=match):
            posterior_batch(model, Xq)

    @pytest.mark.parametrize("X1, X2, match", [
        (X, [[0.5], [0.2]], "second points have 1 dims, lengthscales have 2"),
        ([[0.5, 0.2, 0.1]], X, "first points have 3 dims, lengthscales have 2"),
        ([["0.1", "0.2"]], X, "first points must be integers or floats"),
        (X, [[False, True]], "second points must be integers or floats"),
        (X, [[np.inf, 0.0]], "second points must be finite"),
    ], ids=["second_dims", "first_dims", "str", "bool", "inf"])
    def test_kernel_matrix_rejects(self, X1, X2, match):
        with pytest.raises(ValueError, match=match):
            kernel_matrix(X1, X2, self.HYPER)

    def test_integer_arrays_are_real_numbers(self):
        X = np.array([[0, 1], [1, 0], [1, 1]])
        model = fit(X, np.array([1, 2, 4]), self.HYPER)
        want = fit(X.astype(float), [1.0, 2.0, 4.0], self.HYPER)
        assert model.alpha.tobytes() == want.alpha.tobytes()
        assert kernel_matrix(X, X, self.HYPER).tobytes() == \
            kernel_matrix(model.X, model.X, self.HYPER).tobytes()


class TestWorkspace:
    """_stacked_moments gives the same bits whatever its workspace held
    before, and returns arrays that do not view it."""

    @staticmethod
    def level(rng, n_models, n_points, n_rows, n_dims=3):
        grid = default_hyper_grid(n_dims)
        models = [fit(rng.random((n_points, n_dims)), rng.normal(0.0, 1.0, n_points),
                      grid[int(rng.integers(len(grid)))]) for _ in range(n_models)]
        return _stack_models(models), rng.random((n_models, n_rows, n_dims))

    def test_a_used_or_nan_filled_workspace_gives_a_fresh_ones_bits(self):
        rng = np.random.default_rng(21)
        large, small = self.level(rng, 4, 40, 1024), self.level(rng, 2, 25, 12)
        work = _workspace(4, 40, 1024)
        want = _stacked_moments(*small, _workspace(2, 25, 12))
        _stacked_moments(*large, work)
        after_large = _stacked_moments(*small, work)
        work.fill(np.nan)
        after_nan = _stacked_moments(*small, work)
        for got in (after_large, after_nan):
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_results_do_not_view_the_workspace(self):
        rng = np.random.default_rng(22)
        work = _workspace(3, 30, 1024)
        first = _stacked_moments(*self.level(rng, 3, 30, 1024), work)
        kept = [a.copy() for a in first]
        assert not any(np.shares_memory(a, work) for a in first)
        _stacked_moments(*self.level(rng, 3, 30, 1024), work)
        for a, b in zip(first, kept):
            assert a.tobytes() == b.tobytes()


def near_duplicate_fits(rng, sizes, hyper_of, shift=0.0):
    """A fit per point count n in sizes, on random inputs in up to 3 dims,
    offset by shift, whose second half nearly repeats the first;
    hyper_of(n_dims) picks the hyperparameters."""
    models = []
    for n in sizes:
        n_dims = int(rng.integers(1, 4))
        X = shift + rng.random((n, n_dims))
        half = n // 2
        X[half:2 * half] = X[:half] + 1e-13 * rng.random((half, n_dims))
        models.append(fit(X, rng.normal(0.0, 1.0, n), hyper_of(n_dims)))
    return models


def oracle_variances(model, Xq):
    """Posterior variances, standardized scale, by scipy's checked
    solve_triangular on the model's own L."""
    hyper = model.hyper
    Ks = kernel_matrix(model.X, Xq, hyper)
    V = solve_triangular(model.L, Ks, lower=True)
    return np.maximum(hyper.signal_std**2 - np.sum(V**2, axis=0), 0.0)


class TestInverseFactor:
    """Each fitted model keeps L^-1, lower-triangular, read-only and
    row-major, which inverts L and gives the variances a triangular solve
    gives."""

    def test_is_a_read_only_row_major_lower_triangle(self):
        rng = np.random.default_rng(30)
        models = near_duplicate_fits(rng, (1, 2, 17, 64, 100),
                                     lambda d: default_hyper_grid(d)[3])
        models.append(_fit_best(rng.random((40, 2)), rng.random(40), default_hyper_grid(2)))
        for model in models:
            assert model.L_inv.shape == model.L.shape
            assert model.L_inv.flags.c_contiguous
            assert not model.L_inv.flags.writeable
            assert not np.any(np.triu(model.L_inv, 1))

    def test_inverts_the_factor(self):
        # Within 1e-12 of I, relative to |L^-1| |L| where that passes 1: the
        # zero-noise fits on near-duplicate inputs far from the origin grow
        # their jitter, and their factors are too ill-conditioned for an
        # absolute bound.
        rng = np.random.default_rng(31)
        sizes = range(1, 101)
        noisy = near_duplicate_fits(rng, sizes, lambda d: default_hyper_grid(d)[0])
        exact = near_duplicate_fits(rng, sizes, lambda d: Hyperparams(1.0, np.full(d, 0.5), 0.0),
                                    shift=100.0)
        assert sum(model.jitter > 1e-10 for model in exact) > 10
        for model in noisy + exact:
            residual = np.abs(model.L_inv @ model.L - np.eye(model.n_points))
            scale = np.maximum(np.abs(model.L_inv) @ np.abs(model.L), 1.0)
            assert np.all(residual <= 1e-12 * scale), model.n_points
        for model in noisy:
            assert np.max(np.abs(model.L_inv @ model.L - np.eye(model.n_points))) <= 1e-12

    def test_matches_a_triangular_solve(self):
        # Stds within 1e-10 over the search grid; a zero-noise fit's std can
        # sit near sqrt(jitter), where the square root magnifies rounding, so
        # there the variances are compared.
        rng = np.random.default_rng(32)

        def any_entry(n_dims):
            grid = default_hyper_grid(n_dims)
            return grid[int(rng.integers(len(grid)))]

        sizes = rng.integers(1, 101, 60)
        noisy = near_duplicate_fits(rng, sizes, any_entry)
        exact = near_duplicate_fits(rng, sizes, lambda d: Hyperparams(1.0, np.full(d, 0.5), 0.0))
        for model in noisy + exact:
            Xq = np.concatenate([rng.random((200, model.X.shape[1])), model.X[:5]])
            _, std = posterior_batch(model, Xq)
            want = oracle_variances(model, Xq)
            if model.hyper.noise_std > 0.0:
                np.testing.assert_allclose(std, np.sqrt(want) * model.y_scale, rtol=0, atol=1e-10)
            else:
                np.testing.assert_allclose((std / model.y_scale)**2, want, rtol=0, atol=1e-10)


BLAS_THREAD_RUN = """
import hashlib
import numpy as np
from gaitbo.gp import _stack_models, _stacked_moments, _workspace, default_hyper_grid, fit
rng = np.random.default_rng(33)
grid = default_hyper_grid(3)
models = [fit(rng.random((100, 3)), rng.normal(0.0, 1.0, 100), grid[j]) for j in (0, 4, 8, 12)]
moments = _stacked_moments(_stack_models(models), rng.random((4, 1024, 3)),
                           _workspace(4, 100, 1024))
digest = hashlib.sha256()
for arr in [m.L_inv for m in models] + list(moments):
    digest.update(arr.tobytes())
print(digest.hexdigest())
"""


class TestBlasThreads:
    def test_a_stacked_posterior_does_not_depend_on_the_thread_count(self):
        # 100 points: the largest history a full-scale run fits
        src = str(Path(gaitbo.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", BLAS_THREAD_RUN], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]


class TestLogMarginalLikelihood:
    def test_matches_dense_formula(self):
        rng = np.random.default_rng(8)
        X = rng.random((8, 2))
        y = rng.normal(0, 1.5, 8)
        hyper = Hyperparams(1.0, np.array([0.4, 0.6]), 0.05)
        model = fit(X, y, hyper)
        K = kernel_matrix(model.X, model.X, hyper)
        Kn = K + (hyper.noise_std**2 + model.jitter) * np.eye(8)
        sign, logdet = np.linalg.slogdet(Kn)
        assert sign > 0
        want = (-0.5 * model.y @ np.linalg.solve(Kn, model.y)
                - 0.5 * logdet - 0.5 * 8 * np.log(2 * np.pi))
        assert log_marginal_likelihood(model) == pytest.approx(want, abs=1e-8)


class TestFitHyper:
    def test_single_candidate_grid(self):
        hyper = Hyperparams(1.0, np.array([0.7]), 0.01)
        X = np.linspace(0, 1, 6)[:, None]
        y = np.sin(3 * X[:, 0])
        assert fit_hyper(X, y, [hyper]) is hyper

    def test_recovers_generating_lengthscale(self):
        # Sample from a GP with lengthscale 0.2; the grid choice should land
        # within one grid step ({0.1, 0.2, 0.3}) in at least 8 of 10 seeds.
        grid = default_hyper_grid(1)
        gen_hyper = Hyperparams(1.0, np.array([0.2]), 0.0)
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = np.sort(rng.random(30))[:, None]
            K = kernel_matrix(X, X, gen_hyper) + 1e-10 * np.eye(30)
            y = rng.multivariate_normal(np.zeros(30), K) + rng.normal(0, 0.01, 30)
            chosen = fit_hyper(X, y, grid)
            if chosen.lengthscales[0] in (0.1, 0.2, 0.3):
                hits += 1
        assert hits >= 8

    def test_constant_targets_deterministic(self):
        X = np.linspace(0, 1, 7)[:, None]
        y = np.zeros(7)
        grid = default_hyper_grid(1)
        a = fit_hyper(X, y, grid)
        b = fit_hyper(X, y, grid)
        assert a is b


class TestAdaptiveStdScale:
    def test_no_scaling_when_uncertainty_remains(self):
        rng = np.random.default_rng(9)
        X = rng.random((5, 2))
        y = rng.normal(0, 1, 5)
        model = fit(X, y, Hyperparams(1.0, np.array([0.2, 0.2]), 1e-2))
        # candidates far from data keep posterior std near the prior
        _, stds = posterior_batch(model, np.array([[5.0, 5.0], [6.0, 6.0]]))
        ratio = _std_ratio(model.prior_std, stds)
        assert ratio == 1.0

    def test_scales_up_collapsed_uncertainty(self):
        # A long lengthscale and dense data collapse the posterior std over
        # the whole cube; the ratio must lift the max back to the floor.
        rng = np.random.default_rng(10)
        X = rng.random((40, 1))
        y = 0.3 * X[:, 0]
        model = fit(X, y, Hyperparams(1.0, np.array([3.0]), 1e-3))
        cand = rng.random((64, 1))
        _, stds = posterior_batch(model, cand)
        s_max = stds.max()
        assert s_max < 0.1 * model.prior_std
        ratio = _std_ratio(model.prior_std, stds)
        assert ratio == pytest.approx(0.1 * model.prior_std / s_max, rel=1e-12)
        assert ratio * s_max >= 0.1 * model.prior_std - 1e-12

    def test_documented_ratio_example(self):
        # s_max at exactly 1% of the prior std must scale by 10.
        rng = np.random.default_rng(11)
        X = rng.random((30, 1))
        model = fit(X, 0.1 * X[:, 0], Hyperparams(1.0, np.array([5.0]), 1e-3))
        cand = rng.random((32, 1))
        _, stds = posterior_batch(model, cand)
        s_max = float(stds.max())
        ratio = _std_ratio(model.prior_std, stds)
        assert ratio * s_max == pytest.approx(0.1 * model.prior_std, rel=1e-9)

    def test_each_row_takes_its_own_factor(self):
        # Rows under the floor, above it and all zero (clamped at 1e-9 of
        # the floor), each against the rule written out for one row.
        prior_stds = np.array([1.0, 2.0, 0.5, 3.0])
        stds = np.random.default_rng(12).uniform(0.0, 1.0, (4, 16)) * prior_stds[:, None]
        stds[0] *= 0.05
        stds[2] = 0.0
        got = _std_ratio(prior_stds, stds)
        assert got.shape == (4,)
        for prior_std, row, ratio in zip(prior_stds, stds, got):
            floor = 0.1 * prior_std
            s_max = max(float(row.max()), 1e-9 * floor)
            assert ratio == (floor / s_max if s_max < floor else 1.0)
        assert got[0] > 1.0 and got[1] == got[3] == 1.0 and got[2] == pytest.approx(1e9)


class TestOracleEquivalence:
    def test_random_models_match_dense_solve(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(1, 11))
            d = int(rng.integers(1, 4))
            X = rng.random((m, d))
            y = rng.normal(0, rng.uniform(0.5, 3.0), m)
            hyper = Hyperparams(
                float(rng.uniform(0.5, 2.0)),
                rng.uniform(0.1, 1.0, d),
                float(rng.uniform(1e-3, 0.3)),
            )
            model = fit(X, y, hyper)
            for _ in range(3):
                xq = rng.random(d)
                want_mean, want_std = dense_posterior(X, y, hyper, xq, model.jitter)
                got_mean, got_std = posterior_at(model, xq)
                assert got_mean == pytest.approx(want_mean, abs=1e-8)
                assert got_std == pytest.approx(want_std, abs=1e-8)
