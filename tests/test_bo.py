"""Acquisition functions and the optimization loop on synthetic problems."""

import contextlib
import dataclasses
import functools
import json
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
    BOResult,
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
from gaitbo.gp import (Hyperparams, _stack_models, _stacked_moments, _std_ratio,
                       default_hyper_grid, fit, posterior_batch)


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


def reference_refine(x, score):
    """Coordinate refinement as first written: one score call per move."""
    top = float(score(x))
    step = REFINE_STEP_SIZE
    for _ in range(REFINE_STEPS):
        improved = False
        for d in range(x.shape[0]):
            for direction in (step, -step):
                c = np.array(x)
                c[d] = min(max(c[d] + direction, 0.0), 1.0)
                if c[d] == x[d]:
                    continue
                val = float(score(c))
                if val > top:
                    x, top = c, val
                    improved = True
        if not improved:
            step *= 0.5
    return x


def one_point_score(model, ratio, best):
    """The refinement score through its own one-point posterior_batch call."""
    def score(x):
        m, s = posterior_batch(model, x[None, :])
        return reference_ei_values(m, s * ratio, best)[0]

    return score


def _refinement_scores(model, X, ratio, best):
    """EI at unit-cube rows, posterior stds scaled by ratio: the refinement score.

    Each row scores bit for bit as it would on its own.
    """
    means, stds = _stacked_moments(_stack_models((model,)), slice(0, 1), X)
    return _ei_values(means, stds * ratio, best)


def _refinement_search(x0):
    """Greedy coordinate-descent ascent of a score inside the unit cube, the
    oracle of bo._refine_level.

    A generator: it yields 2-D blocks of rows, is sent back their scores, and
    returns the final point. Each step sweeps every coordinate in both
    directions, keeping each move that beats the best score so far; a sweep
    without improvement halves the step size. The moves a sweep has left are
    yielded as one block from the current point; after an accepted move the
    rest are yielded again from the new point, so the search is the
    one-move-at-a-time search, with a block per accepted move.
    """
    point = np.array(x0, dtype=float).tolist()
    n_moves = 2 * len(point)  # move m shifts coordinate m // 2, up for even m
    step = REFINE_STEP_SIZE
    best = None
    for _ in range(REFINE_STEPS):
        improved = False
        first = 0
        while first < n_moves:
            moves, rows = [], []
            for m in range(first, n_moves):
                d = m >> 1
                moved = min(max(point[d] + (-step if m & 1 else step), 0.0), 1.0)
                if moved != point[d]:
                    row = point.copy()
                    row[d] = moved
                    moves.append(m)
                    rows.append(row)
            if best is None:  # the start point is scored with the first sweep
                best, *scores = (yield np.array([point] + rows)).tolist()
            elif rows:
                scores = (yield np.array(rows)).tolist()
            else:
                break
            first = n_moves
            for m, row, val in zip(moves, rows, scores):
                if val > best:
                    point, best = row, val
                    improved = True
                    first = m + 1
                    break
        if not improved:
            step *= 0.5
    return np.array(point)


def oracle_refine(x0, score_rows):
    """_refinement_search from x0, each block scored by score_rows; returns
    the final point and the sizes of the blocks scored."""
    search = _refinement_search(x0)
    sizes = []
    try:
        rows = next(search)
        while True:
            sizes.append(len(rows))
            rows = search.send(score_rows(rows))
    except StopIteration as stop:
        return stop.value, sizes


def _coordinate_refine(x0, model, ratio, best):
    """_refine_level from x0 alone on model."""
    return _refine_level(_stack_models((model,)), [np.asarray(x0, dtype=float)],
                         [ratio], [best])[0]


def reference_propose(obj_model, h_model, spec, best, rng):
    """The proposal step as first written: the candidate posterior computed
    twice (once for the std ratio), and refinement scoring each point
    through its own posterior_batch call."""
    cand = rng.random((N_CANDIDATES, obj_model.X.shape[1]))
    ratio = _std_ratio(obj_model, posterior_batch(obj_model, cand)[1])
    means, stds = posterior_batch(obj_model, cand)
    ei = reference_ei_values(means, stds * ratio, best)
    if h_model is None or spec is None:
        x = np.array(cand[int(np.argmax(ei))], dtype=float)
        return reference_refine(x, one_point_score(obj_model, ratio, best))
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
        ratio = _std_ratio(model, posterior_batch(model, cand)[1])

        def ei_at(pt):
            m, s = posterior_batch(model, np.asarray(pt)[None, :])
            return _ei_values(m, s * ratio, 1.0)[0]

        assert ei_at(u) >= ei_at([0.5, 0.5])

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
        # score itself is compared as well.
        rng = np.random.default_rng(seed)
        n_dims = int(rng.integers(2, 7))
        n_points = int(rng.integers(1, 101))
        grid = default_hyper_grid(n_dims)
        model = fit(rng.random((n_points, n_dims)), rng.normal(0.0, 1.0, n_points),
                    grid[int(rng.integers(len(grid)))])
        best = float(model.y_mean - model.y_scale)
        for ratio in (1.0, float(rng.uniform(1.0, 50.0))):
            score = one_point_score(model, ratio, best)
            for _ in range(10):
                X = rng.random((int(rng.integers(1, 14)), n_dims))
                for x, got in zip(X, _refinement_scores(model, X, ratio, best)):
                    assert got == score(x)

    @settings(max_examples=30, deadline=None)
    @given(n_points=st.integers(1, 60), n_dims=st.integers(1, 6),
           data_seed=st.integers(0, 2**32 - 1),
           start=st.lists(st.sampled_from([0.0, 1.0, 0.01, 0.97, 0.5]),
                          min_size=6, max_size=6))
    def test_refinement_from_a_face_or_corner_matches_reference(
            self, n_points, n_dims, data_seed, start):
        # Starts on or near the cube's faces make moves clamp to a face or
        # fall away as no-ops, and both must match the one-move-at-a-time loop.
        rng = np.random.default_rng(data_seed)
        grid = default_hyper_grid(n_dims)
        model = fit(rng.random((n_points, n_dims)), rng.normal(0.0, 1.0, n_points),
                    grid[int(rng.integers(len(grid)))])
        best = float(model.y_mean - rng.uniform(0.0, 2.0) * model.y_scale)
        ratio = float(rng.uniform(1.0, 5.0))
        x0 = np.array(start[:n_dims])
        got = _coordinate_refine(x0, model, ratio, best)
        want = reference_refine(np.array(x0), one_point_score(model, ratio, best))
        np.testing.assert_array_equal(got, want)
        oracle, _ = oracle_refine(x0, lambda X: _refinement_scores(model, X, ratio, best))
        np.testing.assert_array_equal(oracle, want)

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


class TestLevelScoring:
    """Runs scored together give each run's own scores and proposals, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(n_models=st.integers(2, 6), n_points=st.integers(1, 100),
           n_dims=st.integers(1, 6), data_seed=st.integers(0, 2**32 - 1))
    def test_stacked_scores_match_each_models_own(self, n_models, n_points, n_dims,
                                                  data_seed):
        rng = np.random.default_rng(data_seed)
        models = random_models(rng, n_models, n_points, n_dims)
        ratios = [float(r) for r in rng.uniform(1.0, 50.0, n_models)]
        bests = [float(m.y_mean - rng.uniform(0.0, 2.0) * m.y_scale) for m in models]
        blocks = [rng.random((int(rng.integers(1, 14)), n_dims)) for _ in models]
        owner = np.concatenate([np.full(len(b), i) for i, b in enumerate(blocks)])
        X = np.concatenate(blocks)
        order = rng.permutation(len(X))  # rows of the models interleaved
        got = np.empty(len(X))
        means, stds = _stacked_moments(_stack_models(models), owner[order], X[order])
        got[order] = _ei_values(means, stds * np.array(ratios)[owner[order]],
                                np.array(bests)[owner[order]])
        start = 0
        for model, ratio, best, block in zip(models, ratios, bests, blocks):
            want = _refinement_scores(model, block, ratio, best)
            assert got[start:start + len(block)].tolist() == want.tolist()
            start += len(block)

    @settings(max_examples=25, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["free", "constrained", "fallback"]),
                          min_size=1, max_size=6),
           n_points=st.integers(1, 60), n_dims=st.integers(2, 6),
           data_seed=st.integers(0, 2**32 - 1))
    def test_propose_level_matches_propose_per_run(self, kinds, n_points, n_dims,
                                                   data_seed):
        rng = np.random.default_rng(data_seed)
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

        def with_generators():
            return [(*args, SeedSpec(seed).generator()) for *args, seed in problems]

        got = _propose_level(with_generators())
        alone = [propose(*args) for args in with_generators()]
        want = [reference_propose(*args) for args in with_generators()]
        assert len(got) == len(alone) == len(want)
        for g, a, w in zip(got, alone, want):
            np.testing.assert_array_equal(g, a)
            np.testing.assert_array_equal(g, w)


class TestRefineLevel:
    """_refine_level gives each run the oracle search's point, bit for bit,
    and scores its rows in the rounds the oracle searches take together."""

    CUBE_COORDS = [0.0, 1.0, 0.01, 0.97, 0.5, 1.0 - 2.0**-40]

    @staticmethod
    def level_and_oracles(models, starts, ratios, bests):
        """The level's points and the row count of each of its scoring calls,
        and each run's oracle search: its point and block sizes."""
        calls = []

        def counted(stack, owner, X):
            calls.append(len(X))
            return _stacked_moments(stack, owner, X)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("gaitbo.bo._stacked_moments", counted)
            got = _refine_level(_stack_models(models), starts, ratios, bests)
        oracles = [oracle_refine(x0, lambda X, m=m, r=r, b=b: _refinement_scores(m, X, r, b))
                   for m, x0, r, b in zip(models, starts, ratios, bests)]
        return got, calls, oracles

    @settings(max_examples=40, deadline=None)
    @given(n_runs=st.integers(1, 5), n_points=st.integers(1, 40), n_dims=st.integers(1, 6),
           data_seed=st.integers(0, 2**32 - 1),
           coords=st.lists(st.sampled_from(CUBE_COORDS), min_size=30, max_size=30),
           random_starts=st.booleans())
    def test_matches_per_run_oracle_searches(self, n_runs, n_points, n_dims, data_seed,
                                             coords, random_starts):
        # Starts on faces and corners make moves clamp or fall away as no-ops;
        # incumbents from far below to above the model's mean make runs accept
        # different numbers of moves, so they leave the level in different rounds.
        rng = np.random.default_rng(data_seed)
        models = random_models(rng, n_runs, n_points, n_dims)
        ratios = [float(r) for r in rng.uniform(1.0, 20.0, n_runs)]
        bests = [float(m.y_mean + rng.uniform(-4.0, 1.0) * m.y_scale) for m in models]
        starts = [rng.random(n_dims) if random_starts else np.array(coords[6 * j:][:n_dims])
                  for j in range(n_runs)]
        got, calls, oracles = self.level_and_oracles(models, starts, ratios, bests)
        assert len(got) == n_runs
        for point, (want, _) in zip(got, oracles):
            np.testing.assert_array_equal(point, want)
        sizes = [sizes for _, sizes in oracles]
        assert len(calls) == max(len(s) for s in sizes)
        assert calls == [sum(s[k] for s in sizes if k < len(s)) for k in range(len(calls))]

    def test_runs_leave_the_level_in_different_rounds(self):
        rng = np.random.default_rng(5)
        models = random_models(rng, 3, 20, 3)
        bests = [float(m.y_mean + shift * m.y_scale) for m, shift in zip(models, (-3, 0, 1))]
        starts = [np.zeros(3), np.ones(3), np.full(3, 0.5)]
        got, calls, oracles = self.level_and_oracles(models, starts, [1.0, 2.0, 5.0], bests)
        assert len({len(sizes) for _, sizes in oracles}) == 3
        for point, (want, _) in zip(got, oracles):
            np.testing.assert_array_equal(point, want)

    def test_zero_std_row_takes_the_clipped_improvement(self):
        # An unjittered one-point model has std exactly 0 at its training
        # input, so the start's EI there is max(best - mean, 0).
        model = fit(np.array([[0.25, 0.5]]), np.array([0.5]), Hyperparams(1.0, [0.5, 0.5], 0.0))
        exact = dataclasses.replace(model, L=np.ones((1, 1), order="F"))
        X = np.array([[0.25, 0.5], [0.3, 0.5]])
        means, stds = _stacked_moments(_stack_models((exact,)), slice(0, 1), X)
        assert stds[0] == 0.0 and stds[1] > 0.0
        assert _refinement_scores(exact, X, 1.0, 0.9)[0] == max(0.9 - means[0], 0.0)
        got = _coordinate_refine(X[0], exact, 1.0, 0.9)
        want, _ = oracle_refine(X[0], lambda rows: _refinement_scores(exact, rows, 1.0, 0.9))
        np.testing.assert_array_equal(got, want)


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
