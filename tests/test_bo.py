"""Acquisition functions and the optimization loop on synthetic problems."""

import contextlib
import dataclasses
import functools
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gaitbo.bo import (
    N_CANDIDATES,
    REFINE_STEP_SIZE,
    REFINE_STEPS,
    ConstraintSpec,
    Evaluation,
    expected_improvement,
    feasibility_from_moments,
    optimize,
    propose,
    result_to_log_entries,
    write_run_log,
    _BORun,
    _drive_level,
    _ei_values,
    _propose_level,
    _refine_level,
)
from gaitbo.domain import Box, SeedSpec, from_unit
from gaitbo.errors import BlackBoxError, ConfigurationError, SimulationError
from gaitbo.gp import (Hyperparams, _stack_models, _stacked_moments, _std_ratio, _workspace,
                       default_hyper_grid, fit, posterior_batch)
from test_gp import stacked_moments


def reference_ei(mean, std, best):
    """Independent closed form: improvement times normal CDF plus std times pdf."""
    if std == 0.0:
        return max(best - mean, 0.0)
    z = (best - mean) / std
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return (best - mean) * cdf + std * pdf


def reference_ei_values(means, stds, best):
    improve = best - means
    out = np.maximum(improve, 0.0)
    positive = stds > 0.0
    if np.any(positive):
        z = improve[positive] / stds[positive]
        phi = np.exp(-0.5 * np.square(z)) / np.sqrt(2.0 * np.pi)
        out[positive] = improve[positive] * ndtr(z) + stds[positive] * phi
    return out


def reference_refine(x0, model, ratio, best):
    """Best-improvement refinement as specified, one run at a time.

    REFINE_STEPS rounds, each scoring the 2d moves x ± step along each axis,
    clipped to the cube, in one posterior_batch call: the best move (the
    first, on a tie) is taken if it beats the best score so far, and the
    step halves otherwise. Returns the final point and its score.
    """
    def score(X):
        means, stds = posterior_batch(model, X)
        return reference_ei_values(means, stds * ratio, best)

    x = np.array(x0, dtype=float)
    top = score(x[None, :])[0]
    step = REFINE_STEP_SIZE
    for _ in range(REFINE_STEPS):
        moves = []
        for d in range(x.shape[0]):
            for direction in (step, -step):
                c = x.copy()
                c[d] = min(max(c[d] + direction, 0.0), 1.0)
                moves.append(c)
        vals = score(np.array(moves))
        k = int(np.argmax(vals))
        if vals[k] > top:
            x, top = moves[k], vals[k]
        else:
            step *= 0.5
    return x, top


def _refinement_scores(models, X, ratios, bests):
    """The refinement score of a (runs, m, d) block: EI of run j's rows under
    models[j] below bests[j], the posterior stds scaled by ratios[j]."""
    means, stds = stacked_moments(models, X)
    return _ei_values(means, stds * np.asarray(ratios)[:, None], np.asarray(bests)[:, None])


def _refine_alone(x0, model, ratio, best):
    """_refine_level from x0 alone on model."""
    return _refine_level(_stack_models((model,)), [np.asarray(x0, dtype=float)],
                         [ratio], [best], _workspace(1, model.n_points, N_CANDIDATES))[0]


def reference_propose(obj_model, h_model, spec, best, rng):
    """The proposal step as first written: the candidate posterior computed
    twice (once for the std ratio), then reference_refine."""
    cand = rng.random((N_CANDIDATES, obj_model.X.shape[1]))
    ratio = _std_ratio(obj_model.prior_std, posterior_batch(obj_model, cand)[1])
    means, stds = posterior_batch(obj_model, cand)
    ei = reference_ei_values(means, stds * ratio, best)
    if h_model is None or spec is None:
        x = np.array(cand[int(np.argmax(ei))], dtype=float)
        return reference_refine(x, obj_model, ratio, best)[0]
    h_means, h_stds = posterior_batch(h_model, cand)
    pf = np.where(h_means <= 0.0, 1.0, 0.0)
    positive = h_stds > 0.0
    pf[positive] = ndtr((0.0 - h_means[positive]) / h_stds[positive])
    qualifies = pf >= 1.0 - spec.tolerance
    if not np.any(qualifies):
        return np.array(cand[int(np.argmax(pf))])
    return np.array(cand[int(np.argmax(np.where(qualifies, ei * pf, -np.inf)))])


class TestExpectedImprovement:
    def test_zero_std_degenerates_to_clipped_improvement(self):
        assert expected_improvement(0.3, 0.0, 0.5) == pytest.approx(0.2)
        assert expected_improvement(0.7, 0.0, 0.5) == 0.0

    def test_at_the_incumbent_mean(self):
        # mean == best, std = 1: EI is the standard normal density at zero
        assert expected_improvement(1.0, 1.0, 1.0) == pytest.approx(
            0.3989422804014327, abs=1e-12)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            mean = rng.normal(0, 2)
            std = rng.uniform(0, 3)
            best = rng.normal(0, 2)
            got = expected_improvement(mean, std, best)
            assert got == pytest.approx(reference_ei(mean, std, best), abs=1e-10)

    def test_nondecreasing_in_std(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            mean = rng.normal(0, 1)
            best = rng.normal(0, 1)
            std = rng.uniform(0.05, 2.0)
            eps = 1e-5
            lo = expected_improvement(mean, std - eps, best)
            hi = expected_improvement(mean, std + eps, best)
            assert (hi - lo) / (2 * eps) >= -1e-6

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            expected_improvement(0.0, -0.1, 0.0)

    @pytest.mark.parametrize("args", [(0.3, math.nan, 0.5), (math.nan, 1.0, 0.5),
                                      (0.3, 1.0, math.nan), (0.3, 0.0, math.nan)])
    def test_rejects_nan(self, args):
        with pytest.raises(ValueError, match="NaN"):
            expected_improvement(*args)

    @pytest.mark.parametrize("args", [(math.inf, 1.0, 0.5), (-math.inf, 1.0, 0.5),
                                      (0.3, math.inf, 0.5), (0.3, 1.0, math.inf),
                                      (0.3, 1.0, -math.inf), (math.inf, math.inf, 0.5),
                                      (0.3, 0.0, math.inf)])
    def test_rejects_infinity(self, args):
        # inf - inf and inf * ndtr(-inf) would make the result NaN
        with pytest.raises(ValueError, match="finite"):
            expected_improvement(*args)


@pytest.mark.parametrize("fn, args, name", [
    (expected_improvement, (True, 1.0, 0.0), "mean"),
    (expected_improvement, (0.0, np.bool_(True), 0.0), "std"),
    (expected_improvement, (0.0, 1.0, False), "best"),
    (expected_improvement, ("0.1", 1.0, 0.0), "mean"),
    (expected_improvement, (0.0, None, 0.0), "std"),
    (feasibility_from_moments, (True, 1.0), "mean"),
    (feasibility_from_moments, (0.0, "1"), "std"),
], ids=["ei_bool_mean", "ei_numpy_bool_std", "ei_bool_best", "ei_str_mean", "ei_none_std",
        "pf_bool_mean", "pf_str_std"])
def test_scalar_moments_must_be_numbers(fn, args, name):
    with pytest.raises(ConfigurationError, match=f"{name} must be a number, got"):
        fn(*args)


class TestEvaluation:
    """An Evaluation checks its fields as a black box's observation is checked."""

    @pytest.mark.parametrize("fields, match", [
        (([0.1], 1.0, None, "no"), "fell must be a bool, got 'no'"),
        (([0.1], 1.0, None, 1), "fell must be a bool, got 1"),
        (([0.1], True, None, False), "cost must be a number, got True"),
        (([0.1], "1.0", None, False), "cost must be a number"),
        (([0.1], 1.0, np.bool_(False), False), "constraint observation must be a number"),
        (([0.1], 1.0, "0.5", False), "constraint observation must be a number"),
        (([True], 1.0, None, False), "evaluation point must be integers or floats"),
        ((["0.1"], 1.0, None, False), "evaluation point must be integers or floats"),
        (([0.1], math.nan, None, False), "evaluation cost must be finite"),
        (([0.1], 1.0, math.inf, False), "constraint observation must be finite"),
        (([[0.1]], 1.0, None, False), "evaluation point must be 1-D"),
    ], ids=["str_fell", "int_fell", "bool_cost", "str_cost", "bool_h", "str_h", "bool_x",
            "str_x", "nan_cost", "inf_h", "2d_x"])
    def test_rejects(self, fields, match):
        with pytest.raises(ValueError, match=match):
            Evaluation(*fields)

    def test_numpy_and_integer_fields_are_recorded_as_python_types(self):
        ev = Evaluation(np.array([0, 1]), np.float64(0.5), 2, np.bool_(True))
        assert (type(ev.cost), type(ev.h_value), type(ev.fell)) == (float, float, bool)
        assert (ev.cost, ev.h_value, ev.fell) == (0.5, 2.0, True)
        assert ev.x.dtype == float and not ev.x.flags.writeable


class TestFeasibility:
    def test_zero_mean_is_a_coin_flip(self):
        assert feasibility_from_moments(0.0, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_deeply_feasible_mean(self):
        assert feasibility_from_moments(-3.0, 1e-12) == pytest.approx(1.0)

    def test_zero_std_is_an_indicator(self):
        assert feasibility_from_moments(-0.01, 0.0) == 1.0
        assert feasibility_from_moments(0.0, 0.0) == 1.0
        assert feasibility_from_moments(0.01, 0.0) == 0.0

    @pytest.mark.parametrize("args", [(0.3, math.nan), (math.nan, 1.0), (math.nan, 0.0)])
    def test_rejects_nan(self, args):
        with pytest.raises(ValueError, match="NaN"):
            feasibility_from_moments(*args)

    @pytest.mark.parametrize("args", [(math.inf, math.inf), (math.inf, 1.0),
                                      (-math.inf, 1.0), (0.0, math.inf)])
    def test_rejects_infinity(self, args):
        with pytest.raises(ValueError, match="finite"):
            feasibility_from_moments(*args)

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError, match="nonnegative"):
            feasibility_from_moments(0.0, -0.1)

    def test_symmetric_model_gives_half(self):
        # h observations symmetric about zero, query at the symmetry point
        X = np.array([[0.3], [0.7]])
        h = np.array([-1.0, 1.0])
        model = fit(X, h, Hyperparams(1.0, np.array([0.3]), 1e-3))
        mean, std = posterior_batch(model, np.array([[0.5]]))
        assert feasibility_from_moments(float(mean[0]), float(std[0])) == pytest.approx(
            0.5, abs=1e-9)


class TestPropose:
    def test_deterministic_given_seed(self):
        rng_data = np.random.default_rng(2)
        X = rng_data.random((8, 2))
        y = rng_data.normal(0, 1, 8)
        model = fit(X, y, Hyperparams(1.0, np.array([0.3, 0.3]), 1e-2))
        a = propose(model, None, None, float(y.min()), SeedSpec(5).generator())
        b = propose(model, None, None, float(y.min()), SeedSpec(5).generator())
        np.testing.assert_array_equal(a, b)

    def test_stays_in_unit_cube(self):
        rng_data = np.random.default_rng(3)
        X = rng_data.random((6, 3))
        y = rng_data.normal(0, 1, 6)
        model = fit(X, y, Hyperparams(1.0, np.array([0.2, 0.2, 0.2]), 1e-2))
        for s in range(5):
            u = propose(model, None, None, float(y.min()), SeedSpec(s).generator())
            assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_refinement_beats_the_center_point(self):
        # One observation in the middle: EI grows away from it, so the
        # proposal must score at least as well as the incumbent location.
        from gaitbo.bo import _ei_values

        model = fit(np.array([[0.5, 0.5]]), np.array([1.0]),
                    Hyperparams(1.0, np.array([0.3, 0.3]), 1e-2))
        rng = SeedSpec(7).generator()
        u = propose(model, None, None, 1.0, rng)
        cand = SeedSpec(7).generator().random((1024, 2))
        ratio = _std_ratio(model.prior_std, posterior_batch(model, cand)[1])

        def ei_at(pt):
            m, s = posterior_batch(model, np.asarray(pt)[None, :])
            return _ei_values(m, s * ratio, 1.0)[0]

        assert ei_at(u) >= ei_at([0.5, 0.5])

    @staticmethod
    def problem(h_dims=2):
        """An objective model on two dimensions and an h model on h_dims."""
        rng = np.random.default_rng(4)
        X = rng.random((12, 2))
        obj = fit(X, np.sum((X - 0.5) ** 2, axis=1), Hyperparams(1.0, np.full(2, 0.3), 1e-2))
        Xh = rng.random((12, h_dims))
        return obj, fit(Xh, Xh[:, 0] - 0.5, Hyperparams(1.0, np.full(h_dims, 0.3), 1e-3))

    @pytest.mark.parametrize("constrained", [False, True], ids=["free", "constrained"])
    @pytest.mark.parametrize("best", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_best(self, best, constrained):
        obj, con = self.problem()
        args = (con, ConstraintSpec()) if constrained else (None, None)
        with pytest.raises(ValueError, match="best must be finite"):
            propose(obj, *args, best, SeedSpec(0).generator())
        with pytest.raises(ValueError, match="best must be finite"):
            _propose_level([(obj, None, None, 0.0, SeedSpec(1).generator()),
                            (obj, *args, best, SeedSpec(0).generator())],
                           _workspace(2, 12, N_CANDIDATES))

    @pytest.mark.parametrize("h_dims", [1, 3])
    def test_rejects_an_h_model_of_another_dimension(self, h_dims):
        obj, con = self.problem(h_dims)
        with pytest.raises(ValueError, match=f"h model has {h_dims} dims, objective model has 2"):
            propose(obj, con, ConstraintSpec(), 0.0, SeedSpec(0).generator())

    def test_constrained_branch_prefers_feasible_region(self):
        rng_data = np.random.default_rng(4)
        X = rng_data.random((30, 2))
        y = np.sum((X - 0.5) ** 2, axis=1)
        h = X[:, 0] - 0.5  # left half feasible
        obj = fit(X, y, Hyperparams(1.0, np.array([0.3, 0.3]), 1e-2))
        con = fit(X, h, Hyperparams(1.0, np.array([0.3, 0.3]), 1e-3))
        spec = ConstraintSpec(tolerance=0.05)
        for s in range(5):
            u = propose(obj, con, spec, float(y.min()), SeedSpec(s).generator())
            assert u[0] < 0.5


class TestProposeBitIdentity:
    """propose returns the reference proposal bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_refinement_score_matches_reference(self, seed):
        # A last-bit difference in a score rarely changes the proposal, so the
        # score of a round's block of 2d moves is compared as well.
        rng = np.random.default_rng(seed)
        n_dims = int(rng.integers(2, 7))
        n_points = int(rng.integers(1, 101))
        grid = default_hyper_grid(n_dims)
        model = fit(rng.random((n_points, n_dims)), rng.normal(0.0, 1.0, n_points),
                    grid[int(rng.integers(len(grid)))])
        best = float(model.y_mean - model.y_scale)
        for ratio in (1.0, float(rng.uniform(1.0, 50.0))):
            for n_rows in (1, 2 * n_dims, int(rng.integers(1, 14))):
                X = rng.random((n_rows, n_dims))
                means, stds = posterior_batch(model, X)
                want = reference_ei_values(means, stds * ratio, best)
                got = _refinement_scores([model], X[None], [ratio], [best])[0]
                assert got.tolist() == want.tolist()

    @settings(max_examples=30, deadline=None)
    @given(n_points=st.integers(1, 60), n_dims=st.integers(1, 6),
           data_seed=st.integers(0, 2**32 - 1),
           start=st.lists(st.sampled_from([0.0, 1.0, 0.01, 0.97, 0.5]),
                          min_size=6, max_size=6))
    def test_refinement_from_a_face_or_corner_matches_reference(
            self, n_points, n_dims, data_seed, start):
        # Starts on or near the cube's faces make moves clamp to a face or
        # stay put, and both must match the one-run reference.
        rng = np.random.default_rng(data_seed)
        grid = default_hyper_grid(n_dims)
        model = fit(rng.random((n_points, n_dims)), rng.normal(0.0, 1.0, n_points),
                    grid[int(rng.integers(len(grid)))])
        best = float(model.y_mean - rng.uniform(0.0, 2.0) * model.y_scale)
        ratio = float(rng.uniform(1.0, 5.0))
        x0 = np.array(start[:n_dims])
        got = _refine_alone(x0, model, ratio, best)
        want, _ = reference_refine(x0, model, ratio, best)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("grid_index", range(len(default_hyper_grid(1))))
    @settings(max_examples=6, deadline=None)
    @given(n_points=st.integers(1, 100), n_dims=st.integers(2, 6),
           data_seed=st.integers(0, 2**32 - 1), propose_seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, constrained, grid_index, n_points, n_dims,
                               data_seed, propose_seed):
        rng = np.random.default_rng(data_seed)
        hyper = default_hyper_grid(n_dims)[grid_index]
        X = rng.random((n_points, n_dims))
        y = rng.normal(0.0, 1.0, n_points)
        obj = fit(X, y, hyper)
        con, spec = None, None
        if constrained:
            con = fit(X, X[:, 0] - rng.random(), hyper)
            spec = ConstraintSpec(tolerance=0.05)
        best = float(y.min())
        got = propose(obj, con, spec, best, SeedSpec(propose_seed).generator())
        want = reference_propose(obj, con, spec, best, SeedSpec(propose_seed).generator())
        np.testing.assert_array_equal(got, want)


def random_models(rng, n_models, n_points, n_dims):
    """Models on one point count and dimension, each with grid hyperparameters."""
    grid = default_hyper_grid(n_dims)
    return [fit(rng.random((n_points, n_dims)), rng.normal(0.0, 1.0, n_points),
                grid[int(rng.integers(len(grid)))]) for _ in range(n_models)]


def mixed_level(rng, kinds, n_points, n_dims) -> list:
    """A level's propose arguments, with a generator seed in place of each
    generator: a "free" run has no constraint, a "constrained" run an h model
    feasible over part of the cube and a "fallback" run one feasible nowhere."""
    models = random_models(rng, len(kinds), n_points, n_dims)
    spec = ConstraintSpec(tolerance=0.05)
    problems = []
    for model, kind in zip(models, kinds):
        h_model = None
        if kind != "free":
            # a constraint far above zero leaves no candidate feasible
            shift = 100.0 if kind == "fallback" else rng.random()
            h_model = fit(model.X, model.X[:, 0] - 0.5 + shift, model.hyper)
        best = float(model.y_mean - rng.uniform(0.0, 2.0) * model.y_scale)
        problems.append((model, h_model, None if kind == "free" else spec, best,
                         int(rng.integers(2**32))))
    return problems


def with_generators(problems) -> list:
    return [(*args, SeedSpec(seed).generator()) for *args, seed in problems]


def level_workspace(problems):
    """A fresh workspace for _propose_level on the problems."""
    return _workspace(len(problems), problems[0][0].n_points, N_CANDIDATES)


class TestLevelScoring:
    """Runs scored together give each run's own scores and proposals, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(n_models=st.integers(2, 6), n_points=st.integers(1, 100),
           n_dims=st.integers(1, 6), n_rows=st.sampled_from([1, 2, 12, 1024]),
           data_seed=st.integers(0, 2**32 - 1))
    def test_stacked_scores_match_each_models_own(self, n_models, n_points, n_dims,
                                                  n_rows, data_seed):
        rng = np.random.default_rng(data_seed)
        models = random_models(rng, n_models, n_points, n_dims)
        ratios = [float(r) for r in rng.uniform(1.0, 50.0, n_models)]
        bests = [float(m.y_mean - rng.uniform(0.0, 2.0) * m.y_scale) for m in models]
        X = rng.random((n_models, n_rows, n_dims))
        got = _refinement_scores(models, X, ratios, bests)
        assert got.shape == (n_models, n_rows)
        for block, model, x, ratio, best in zip(got, models, X, ratios, bests):
            want = _refinement_scores([model], x[None], [ratio], [best])[0]
            assert block.tolist() == want.tolist()

    @settings(max_examples=25, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["free", "constrained", "fallback"]),
                          min_size=1, max_size=6),
           n_points=st.integers(1, 60), n_dims=st.integers(2, 6),
           data_seed=st.integers(0, 2**32 - 1))
    def test_propose_level_matches_propose_per_run(self, kinds, n_points, n_dims,
                                                   data_seed):
        problems = mixed_level(np.random.default_rng(data_seed), kinds, n_points, n_dims)
        got = _propose_level(with_generators(problems), level_workspace(problems))
        alone = [propose(*args) for args in with_generators(problems)]
        want = [reference_propose(*args) for args in with_generators(problems)]
        assert len(got) == len(alone) == len(want)
        for g, a, w in zip(got, alone, want):
            np.testing.assert_array_equal(g, a)
            np.testing.assert_array_equal(g, w)

    def test_a_reused_workspace_gives_a_fresh_ones_points(self):
        # a level after a larger one, and after its workspace is filled with NaN
        rng = np.random.default_rng(31)
        large = mixed_level(rng, ["free", "constrained", "free", "fallback"], 50, 4)
        small = mixed_level(rng, ["constrained", "free"], 20, 4)
        want = _propose_level(with_generators(small), level_workspace(small))
        work = level_workspace(large)
        _propose_level(with_generators(large), work)
        after_large = _propose_level(with_generators(small), work)
        work.fill(np.nan)
        after_nan = _propose_level(with_generators(small), work)
        for got in (after_large, after_nan):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("kinds", [
        ["free"], ["constrained"], ["fallback", "fallback"],
        ["free", "fallback", "constrained", "free", "free"],
        ["constrained", "free", "fallback"],
    ])
    def test_one_scoring_call_per_block(self, kinds, caplog):
        # One call scores every run's candidates, one the constrained runs'
        # candidates under their h models, and REFINE_STEPS + 1 refine the
        # free runs together.
        n_dims = 3
        problems = mixed_level(np.random.default_rng(len(kinds)), kinds, 20, n_dims)
        calls = []

        def counted(stack, X, work):
            calls.append(X.shape)
            return _stacked_moments(stack, X, work)

        with pytest.MonkeyPatch.context() as patch, caplog.at_level(logging.WARNING):
            patch.setattr("gaitbo.bo._stacked_moments", counted)
            got = _propose_level(with_generators(problems), level_workspace(problems))
        width, free = len(kinds), kinds.count("free")
        want = [(width, N_CANDIDATES, n_dims)]
        if free < width:
            want.append((width - free, N_CANDIDATES, n_dims))
        if free:
            want += [(free, 1, n_dims)] + [(free, 2 * n_dims, n_dims)] * REFINE_STEPS
        assert calls == want
        # one fallback warning per run that warns alone
        warnings = len(caplog.records)
        assert warnings >= kinds.count("fallback")
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            for point, args in zip(got, with_generators(problems)):
                np.testing.assert_array_equal(point, propose(*args))
        assert len(caplog.records) == warnings


class TestRefineLevel:
    """_refine_level gives each run the reference search's point, bit for bit,
    in REFINE_STEPS + 1 scoring calls whatever the level's size."""

    CUBE_COORDS = [0.0, 1.0, 0.01, 0.97, 0.5, 1.0 - 2.0**-40]

    @staticmethod
    def level(models, starts, ratios, bests):
        """The level's points and the block shape of each of its scoring calls."""
        calls = []

        def counted(stack, X, work):
            calls.append(X.shape)
            return _stacked_moments(stack, X, work)

        work = _workspace(len(models), models[0].n_points, N_CANDIDATES)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("gaitbo.bo._stacked_moments", counted)
            got = _refine_level(_stack_models(models), starts, ratios, bests, work)
        return got, calls

    @settings(max_examples=40, deadline=None)
    @given(n_runs=st.integers(1, 5), n_points=st.integers(1, 40), n_dims=st.integers(1, 6),
           data_seed=st.integers(0, 2**32 - 1),
           coords=st.lists(st.sampled_from(CUBE_COORDS), min_size=30, max_size=30),
           random_starts=st.booleans())
    def test_matches_per_run_oracle_searches(self, n_runs, n_points, n_dims, data_seed,
                                             coords, random_starts):
        # Starts on faces and corners make moves clamp or stay put; incumbents
        # from far below to above the model's mean make runs accept different
        # numbers of moves, so their steps differ within a round.
        rng = np.random.default_rng(data_seed)
        models = random_models(rng, n_runs, n_points, n_dims)
        ratios = [float(r) for r in rng.uniform(1.0, 20.0, n_runs)]
        bests = [float(m.y_mean + rng.uniform(-4.0, 1.0) * m.y_scale) for m in models]
        starts = [rng.random(n_dims) if random_starts else np.array(coords[6 * j:][:n_dims])
                  for j in range(n_runs)]
        got, calls = self.level(models, starts, ratios, bests)
        assert got.shape == (n_runs, n_dims)
        assert calls == ([(n_runs, 1, n_dims)]
                         + [(n_runs, 2 * n_dims, n_dims)] * REFINE_STEPS)
        for point, model, x0, ratio, best in zip(got, models, starts, ratios, bests):
            np.testing.assert_array_equal(point, _refine_alone(x0, model, ratio, best))
            np.testing.assert_array_equal(point, reference_refine(x0, model, ratio, best)[0])

    @settings(max_examples=40, deadline=None)
    @given(n_points=st.integers(1, 40), n_dims=st.integers(1, 6),
           data_seed=st.integers(0, 2**32 - 1),
           coords=st.lists(st.sampled_from(CUBE_COORDS), min_size=6, max_size=6),
           random_start=st.booleans())
    def test_refined_point_stays_in_the_cube_and_scores_no_worse(
            self, n_points, n_dims, data_seed, coords, random_start):
        rng = np.random.default_rng(data_seed)
        (model,) = random_models(rng, 1, n_points, n_dims)
        ratio = float(rng.uniform(1.0, 20.0))
        best = float(model.y_mean + rng.uniform(-4.0, 1.0) * model.y_scale)
        x0 = rng.random(n_dims) if random_start else np.array(coords[:n_dims])
        got = _refine_alone(x0, model, ratio, best)
        assert np.all((got >= 0.0) & (got <= 1.0))
        # the search's own record of the score, which only a strict gain moves
        point, top = reference_refine(x0, model, ratio, best)
        np.testing.assert_array_equal(got, point)
        assert top >= _refinement_scores([model], x0[None, None], [ratio], [best])[0, 0]

    def test_zero_std_row_takes_the_clipped_improvement(self):
        # An unjittered one-point model has std exactly 0 at its training
        # input, so the start's EI there is max(best - mean, 0).
        model = fit(np.array([[0.25, 0.5]]), np.array([0.5]), Hyperparams(1.0, [0.5, 0.5], 0.0))
        exact = dataclasses.replace(model, L=np.ones((1, 1), order="F"), L_inv=np.ones((1, 1)))
        X = np.array([[[0.25, 0.5], [0.3, 0.5]]])
        means, stds = stacked_moments((exact,), X)
        assert stds[0, 0] == 0.0 and stds[0, 1] > 0.0
        assert _refinement_scores([exact], X, [1.0], [0.9])[0, 0] == max(0.9 - means[0, 0], 0.0)
        got = _refine_alone(X[0, 0], exact, 1.0, 0.9)
        want, _ = reference_refine(X[0, 0], exact, 1.0, 0.9)
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, X[0, 0])


class TestOptimize:
    def quadratic(self, x):
        return float((x[0] - 0.3) ** 2)

    def test_converges_on_1d_quadratic_all_seeds(self):
        box = Box([0.0], [1.0])
        for seed in range(10):
            res = optimize(self.quadratic, box, iterations=30, init_count=6,
                           seed=SeedSpec(seed))
            best = from_unit(res.best_x, box)
            assert abs(best[0] - 0.3) <= 0.05, f"seed {seed}: {best}"

    def test_trace_nonincreasing_and_best_observed(self):
        box = Box([0.0], [1.0])
        res = optimize(self.quadratic, box, iterations=20, init_count=5,
                       seed=SeedSpec(0))
        assert len(res.history) == 20
        assert np.all(np.diff(res.best_cost_trace) <= 0.0)
        costs = [ev.cost for ev in res.history]
        assert res.best_cost == min(costs)
        best = from_unit(res.best_x, box)
        assert self.quadratic(best) == pytest.approx(res.best_cost)

    def test_constant_function_survives(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        res = optimize(lambda x: 1.5, box, iterations=12, init_count=4,
                       seed=SeedSpec(1))
        assert res.best_cost == 1.5
        assert len(res.history) == 12

    def test_incumbent_in_design_never_worsens(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])

        def f(x):
            return float(np.sum(x**2))

        center = np.zeros(2)
        res = optimize(f, box, iterations=15, init_count=4,
                       initial_design=[center, np.array([0.5, 0.5]),
                                       np.array([-0.5, 0.25])],
                       seed=SeedSpec(2))
        assert res.best_cost <= f(center)

    def test_initial_design_is_evaluated_first(self):
        box = Box([0.0], [1.0])
        seen = []

        def f(x):
            seen.append(float(x[0]))
            return float(x[0])

        design = [np.array([0.25]), np.array([0.75])]
        optimize(f, box, iterations=5, init_count=2, initial_design=design,
                 seed=SeedSpec(3))
        assert seen[:2] == [0.25, 0.75]

    def test_rejects_bad_budgets(self):
        box = Box([0.0], [1.0])
        with pytest.raises(ConfigurationError):
            optimize(self.quadratic, box, iterations=3, init_count=5)
        with pytest.raises(ConfigurationError):
            optimize(self.quadratic, box, iterations=3, init_count=0)

    @pytest.mark.parametrize("iterations, init_count, name", [
        (2.5, 1, "iterations"), (3, 1.5, "init_count"), ("3", 1, "iterations"),
        (None, 1, "iterations"), (True, 1, "iterations"), (3, True, "init_count"),
        (3, None, "init_count"), (math.inf, 1, "iterations"), (math.nan, 1, "iterations"),
    ])
    def test_rejects_malformed_budgets(self, iterations, init_count, name):
        calls = []
        with pytest.raises(ConfigurationError, match=name):
            optimize(lambda x: calls.append(x) or 0.0, Box([0.0], [1.0]),
                     iterations=iterations, init_count=init_count)
        assert calls == []

    def test_whole_float_budgets_are_counts(self):
        result = optimize(self.quadratic, Box([0.0], [1.0]), iterations=4.0, init_count=2.0)
        assert len(result.history) == 4

    def test_black_box_failure_carries_history(self):
        box = Box([0.0], [1.0])
        calls = []

        def flaky(x):
            calls.append(x)
            if len(calls) == 4:
                raise RuntimeError("sensor dropout")
            return float(x[0])

        with pytest.raises(BlackBoxError) as info:
            optimize(flaky, box, iterations=10, init_count=6, seed=SeedSpec(4))
        assert len(info.value.history) == 3

    @pytest.mark.parametrize("at", [2, 5], ids=["design_step", "proposal_step"])
    def test_wrongly_sized_observation_carries_history(self, at):
        box = Box([0.0], [1.0])

        def f(x):
            return float(x[0]), float(x[0]) - 0.5, False

        calls = []

        def oversized(x):
            calls.append(x)
            return f(x) + ((0.0,) if len(calls) == at + 1 else ())

        with pytest.raises(BlackBoxError, match="returned a 4-tuple") as info:
            optimize(oversized, box, iterations=8, init_count=3, spec=ConstraintSpec(),
                     seed=SeedSpec(8))
        clean = optimize(f, box, iterations=8, init_count=3, spec=ConstraintSpec(),
                         seed=SeedSpec(8))
        assert len(calls) == at + 1
        assert history_rows(info.value.history) == history_rows(clean.history[:at])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("at", [1, 5], ids=["design_step", "proposal_step"])
    def test_non_finite_constraint_observation_carries_history(self, bad, at):
        box = Box([0.0], [1.0])

        def f(x):
            return float(x[0]), float(x[0]) - 0.5, False

        calls = []

        def spoiled(x):
            calls.append(x)
            cost, h, fell = f(x)
            return cost, (bad if len(calls) == at + 1 else h), fell

        with pytest.raises(BlackBoxError, match="non-finite constraint observation") as info:
            optimize(spoiled, box, iterations=8, init_count=3, spec=ConstraintSpec(),
                     seed=SeedSpec(8))
        clean = optimize(f, box, iterations=8, init_count=3, spec=ConstraintSpec(),
                         seed=SeedSpec(8))
        assert len(calls) == at + 1
        assert history_rows(info.value.history) == history_rows(clean.history[:at])

    @pytest.mark.parametrize("bad", [
        "0.5", True, np.bool_(False), ("0.1", -0.5, False), (0.1, True, False),
        (0.1, None, "no"), (0.1, -0.5, 1), (0.1, -0.5, None),
    ], ids=["str_cost", "bool_cost", "numpy_bool_cost", "str_cost_in_tuple", "bool_h",
            "str_fell", "int_fell", "none_fell"])
    @pytest.mark.parametrize("at", [1, 5], ids=["design_step", "proposal_step"])
    def test_mistyped_observation_carries_history(self, bad, at):
        box = Box([0.0], [1.0])

        def f(x):
            return float(x[0]), float(x[0]) - 0.5, False

        calls = []

        def mistyped(x):
            calls.append(x)
            return bad if len(calls) == at + 1 else f(x)

        with pytest.raises(BlackBoxError, match="must be a (number|bool), got") as info:
            optimize(mistyped, box, iterations=8, init_count=3, spec=ConstraintSpec(),
                     seed=SeedSpec(8))
        clean = optimize(f, box, iterations=8, init_count=3, spec=ConstraintSpec(),
                         seed=SeedSpec(8))
        assert len(calls) == at + 1
        assert history_rows(info.value.history) == history_rows(clean.history[:at])

    def test_numpy_and_integer_observations_are_recorded(self):
        def f(x):
            return np.float64(x[0]), int(x[0] > 0.5), np.bool_(x[0] > 0.9)

        res = optimize(f, Box([0.0], [1.0]), iterations=6, init_count=3,
                       spec=ConstraintSpec(), seed=SeedSpec(9))
        for ev in res.history:
            assert (type(ev.cost), type(ev.h_value), type(ev.fell)) == (float, float, bool)
            assert (ev.cost, ev.h_value, ev.fell) == (ev.x[0], float(ev.x[0] > 0.5),
                                                      bool(ev.x[0] > 0.9))

    def test_fell_and_h_are_recorded(self):
        box = Box([0.0], [1.0])

        def f(x):
            fell = x[0] > 0.8
            return (100.0 if fell else float(x[0]), 0.5 if fell else -0.1, fell)

        res = optimize(f, box, iterations=8, init_count=4,
                       spec=ConstraintSpec(), seed=SeedSpec(5))
        for ev in res.history:
            assert ev.h_value is not None
            orig = from_unit(ev.x, box)
            assert ev.fell == (orig[0] > 0.8)

    def test_same_seed_same_history(self):
        box = Box([0.0, 0.0], [1.0, 1.0])

        def f(x):
            return float((x[0] - 0.6) ** 2 + (x[1] - 0.2) ** 2)

        a = optimize(f, box, iterations=18, init_count=5, seed=SeedSpec(6))
        b = optimize(f, box, iterations=18, init_count=5, seed=SeedSpec(6))
        np.testing.assert_array_equal(
            np.array([ev.x for ev in a.history]),
            np.array([ev.x for ev in b.history]),
        )


def history_rows(history) -> list:
    return [(ev.x.tolist(), ev.cost, ev.h_value, ev.fell) for ev in history]


class TestDriveLevel:
    """Runs that _drive_level advances together each give their own
    optimize result."""

    BOX = Box([-1.0, 0.0], [1.0, 2.0])
    ITERATIONS, INIT_COUNT = 10, 3

    @staticmethod
    def bowl(x):
        return float((x[0] - 0.2) ** 2 + (x[1] - 1.1) ** 2)

    @staticmethod
    def ridge(x):
        return float(abs(x[0] + 0.4) + (x[1] - 0.5) ** 2)

    @staticmethod
    def capped(x):
        return float(-x[0] - x[1]), float(x[0] + x[1] - 1.5), False

    def cases(self) -> list:
        """(black box, optimize keywords) of a warm-design, a drawn-design
        and a constrained run."""
        return [
            (self.bowl, dict(initial_design=[np.array([0.0, 1.0]), np.array([0.5, 0.5])],
                             seed=SeedSpec(11))),
            (self.ridge, dict(seed=SeedSpec(12))),
            (self.capped, dict(spec=ConstraintSpec(), seed=SeedSpec(13))),
        ]

    def level(self) -> list:
        return [_BORun(self.BOX, self.ITERATIONS, self.INIT_COUNT, **kw)
                for _, kw in self.cases()]

    def alone(self) -> list:
        return [optimize(f, self.BOX, self.ITERATIONS, self.INIT_COUNT, **kw)
                for f, kw in self.cases()]

    def observers(self, xs) -> list:
        return [functools.partial(f, np.array(x)) for (f, _), x in zip(self.cases(), xs)]

    def test_each_run_gets_its_own_optimize_result(self):
        got = _drive_level(self.level(), self.observers)
        for result, want in zip(got, self.alone()):
            assert history_rows(result.history) == history_rows(want.history)
            np.testing.assert_array_equal(result.best_x, want.best_x)
            np.testing.assert_array_equal(result.best_cost_trace, want.best_cost_trace)
        assert any(ev.h_value is not None for ev in got[2].history)

    def test_empty_level_returns_no_results(self):
        def evaluate_batch(xs):
            raise AssertionError("an empty level runs no batch")

        assert _drive_level([], evaluate_batch) == []

    def test_batch_failure_raises_the_named_runs_error(self):
        runs = self.level()
        failure = "plant state became non-finite at step 7"

        def evaluate_batch(xs):
            if len(runs[0].history) == 6:
                raise SimulationError(failure, step_index=7, episode_index=1)
            return self.observers(xs)

        @contextlib.contextmanager
        def names_run(i):
            try:
                yield
            except BlackBoxError as exc:
                raise BlackBoxError(f"run {i}: {exc}", exc.history) from exc

        with pytest.raises(BlackBoxError) as info:
            _drive_level(runs, evaluate_batch, names_run)
        assert str(info.value).startswith("run 1: black box failed at x=[")
        assert str(info.value).endswith(failure)
        assert isinstance(info.value.__cause__.__cause__, SimulationError)
        assert history_rows(info.value.history) == history_rows(self.alone()[1].history[:6])


class TestConstrainedOptimize:
    """A known constraint: disc of radius 0.25 around (0.3, 0.3) is feasible;
    the unconstrained optimum at (0.8, 0.8) is not."""

    @staticmethod
    def h_true(x):
        return float(np.linalg.norm(x - np.array([0.3, 0.3])) - 0.25)

    def black_box(self, x):
        cost = float(np.sum((x - np.array([0.8, 0.8])) ** 2))
        return cost, self.h_true(x), False

    # Feasible design points bracketing the disc boundary in every direction,
    # so the constraint surrogate sees the h gradient from the start.
    DESIGN = ([0.3, 0.3], [0.5, 0.3], [0.3, 0.5],
              [0.15, 0.3], [0.3, 0.15], [0.45, 0.45])

    def test_mostly_proposes_feasible_points(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        design = [np.array(p) for p in self.DESIGN]
        assert all(self.h_true(p) <= 0.0 for p in design)
        res = optimize(self.black_box, box, iterations=24, init_count=len(design),
                       spec=ConstraintSpec(tolerance=0.05),
                       initial_design=design, seed=SeedSpec(0))
        proposals = res.history[len(design):]
        feasible = sum(1 for ev in proposals
                       if self.h_true(from_unit(ev.x, box)) <= 0.0)
        assert feasible / len(proposals) >= 0.9

    def test_converges_toward_constrained_optimum(self):
        # closest boundary point to the unconstrained optimum: cost ~0.2089
        box = Box([0.0, 0.0], [1.0, 1.0])
        design = [np.array(p) for p in self.DESIGN]
        res = optimize(self.black_box, box, iterations=24, init_count=len(design),
                       spec=ConstraintSpec(tolerance=0.05),
                       initial_design=design, seed=SeedSpec(0))
        truth = 2.0 * (0.8 - (0.3 + 0.25 / math.sqrt(2.0))) ** 2
        assert res.best_cost <= truth * 1.05


class TestRunLog:
    def test_log_schema_and_round_trip(self, tmp_path):
        box = Box([0.0], [1.0])

        def f(x):
            return float(x[0]), float(x[0]) - 0.5, False

        res = optimize(f, box, iterations=6, init_count=3,
                       spec=ConstraintSpec(), seed=SeedSpec(7))
        entries = result_to_log_entries(res)
        assert [e["iter"] for e in entries] == list(range(6))
        for e in entries:
            assert set(e) == {"iter", "x", "cost", "h", "fell", "best"}
        bests = [e["best"] for e in entries]
        assert bests == sorted(bests, reverse=True) or all(
            b1 <= b0 for b0, b1 in zip(bests, bests[1:]))

        path = tmp_path / "log.json"
        write_run_log(res, path)
        loaded = json.loads(path.read_text())
        assert loaded == entries
