"""Value types, box normalization, corrections, seeded streams, and the number checker."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitbo.domain import (
    Box,
    ControlParams,
    Correction,
    GaitParameter,
    SeedSpec,
    apply_correction,
    correction_from_vector,
    from_unit,
    _real,
    to_unit,
)
from gaitbo.bo import ConstraintSpec
from gaitbo.errors import ConfigurationError, RangeError
from gaitbo.gp import Hyperparams
from gaitbo.objective import ObjectiveConfig
from gaitbo.plant import sim_config
from gaitbo.safeset import convex_hull


class TestGaitParameter:
    def test_fields_and_array_round_trip(self):
        p = GaitParameter(0.4, -0.1, 0.9)
        np.testing.assert_allclose(p.as_array(), [0.4, -0.1, 0.9])
        assert GaitParameter.from_array(p.as_array()) == p

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            GaitParameter(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GaitParameter(0.0, 0.0, -0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GaitParameter(np.nan, 0.0, 1.0)
        with pytest.raises(ValueError):
            GaitParameter(0.0, np.inf, 1.0)


class TestControlParams:
    def test_rejects_negative_gains(self):
        with pytest.raises(ValueError):
            ControlParams([-0.1, 0, 0], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            ControlParams([0, 0, 0], [0, -1e-9, 0], [0, 0, 0])

    def test_vector_round_trip(self):
        params = ControlParams([1, 2, 3], [0.1, 0.2, 0.3], [-0.05, 0.05, 0.0])
        again = ControlParams.from_vector(params.as_vector())
        np.testing.assert_array_equal(again.kP, params.kP)
        np.testing.assert_array_equal(again.kD, params.kD)
        np.testing.assert_array_equal(again.deltaP, params.deltaP)

    def test_arrays_are_read_only(self):
        params = ControlParams([1, 2, 3], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            params.kP[0] = 5.0


class TestCorrection:
    def test_rejects_height_channel_entries(self):
        with pytest.raises(ValueError):
            Correction([0, 0, 0, 0, 0.1, 0], np.zeros(3))
        with pytest.raises(ValueError):
            Correction([0, 0, 0, 0, 0, 0.1], np.zeros(3))
        with pytest.raises(ValueError):
            Correction(np.zeros(6), [0, 0, 0.1])

    def test_from_free_vector(self):
        corr = correction_from_vector([0.1, -0.2, 0.3, -0.4, 0.05, -0.06])
        np.testing.assert_allclose(corr.deltaK, [0.1, -0.2, 0.3, -0.4, 0.0, 0.0])
        np.testing.assert_allclose(corr.deltaP, [0.05, -0.06, 0.0])

    def test_apply_shifts_speed_channels(self):
        params = ControlParams([1.0, 2.0, 3.0], [0.5, 0.6, 0.7], [0.0, 0.0, 0.0])
        corr = correction_from_vector([0.25, -0.1, -0.5, 0.2, 0.05, -0.03])
        out = apply_correction(params, corr)
        np.testing.assert_allclose(out.kP, [1.25, 1.5, 3.0])
        np.testing.assert_allclose(out.kD, [0.4, 0.8, 0.7])
        np.testing.assert_allclose(out.deltaP, [0.05, -0.03, 0.0])

    def test_apply_clamps_gains_at_zero(self):
        params = ControlParams([0.1, 0.1, 1.0], [0.05, 0.05, 0.5], np.zeros(3))
        corr = correction_from_vector([-1.0, -1.0, -1.0, -1.0, 0.0, 0.0])
        out = apply_correction(params, corr)
        np.testing.assert_array_equal(out.kP, [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(out.kD, [0.0, 0.0, 0.5])

    def test_untouched_channels_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = ControlParams(rng.uniform(0, 3, 3), rng.uniform(0, 1.5, 3),
                                   rng.uniform(-0.2, 0.2, 3))
            corr = correction_from_vector(rng.uniform(-0.5, 0.5, 6))
            out = apply_correction(params, corr)
            assert out.kP[2] == params.kP[2]
            assert out.kD[2] == params.kD[2]
            assert out.deltaP[2] == params.deltaP[2]

    def test_zero_correction_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params = ControlParams(rng.uniform(0, 3, 3), rng.uniform(0, 1.5, 3),
                                   rng.uniform(-0.2, 0.2, 3))
            out = apply_correction(params, Correction.zero())
            np.testing.assert_array_equal(out.kP, params.kP)
            np.testing.assert_array_equal(out.kD, params.kD)
            np.testing.assert_array_equal(out.deltaP, params.deltaP)


class TestBox:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Box([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            Box([0.0], [np.inf])

    def test_endpoints_map_exactly(self):
        box = Box([-2.0, 0.5], [4.0, 1.5])
        np.testing.assert_array_equal(to_unit(box.lower, box), [0.0, 0.0])
        np.testing.assert_array_equal(to_unit(box.upper, box), [1.0, 1.0])
        np.testing.assert_array_equal(from_unit(np.zeros(2), box), box.lower)
        np.testing.assert_array_equal(from_unit(np.ones(2), box), box.upper)

    def test_round_trip_within_tolerance(self):
        rng = np.random.default_rng(11)
        box = Box([-3.0, 0.0, 10.0, -1e-3], [7.5, 0.25, 1000.0, 1e-3])
        for _ in range(1000):
            x = box.lower + rng.random(4) * box.widths
            back = from_unit(to_unit(x, box), box)
            assert np.all(np.abs(back - x) <= 1e-12 * box.widths)

    def test_out_of_box_names_component(self):
        box = Box([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(RangeError, match="component 1"):
            to_unit(np.array([0.5, 2.5]), box)
        with pytest.raises(RangeError, match="component 0"):
            from_unit(np.array([-0.01, 0.5]), box)


class TestSeedSpec:
    def test_same_spec_same_sequence(self):
        a = SeedSpec(42, 3).generator().random(16)
        b = SeedSpec(42, 3).generator().random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        a = SeedSpec(42, 0).generator().random(16)
        b = SeedSpec(42, 1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_derive_is_stable(self):
        a = SeedSpec(7, 0).derive(2, 5)
        b = SeedSpec(7, 0).derive(2, 5)
        assert a == b
        np.testing.assert_array_equal(a.generator().random(8), b.generator().random(8))

    def test_derived_streams_are_independent(self):
        root = SeedSpec(7, 0)
        a = root.derive(1).generator().random(8)
        b = root.derive(2).generator().random(8)
        assert not np.array_equal(a, b)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(1.5)


# Keys as the pipeline passes them (small ints, 64-bit streams, numpy ints) and
# the word-count edges of SeedSequence's integer coding.
_SEED_KEYS = st.one_of(
    st.just(0), st.integers(1, 1000), st.just(2**32), st.just(2**64 - 1),
    st.integers(0, 2**32 - 1).map(np.uint32), st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64), st.integers(2**64, 2**200))
_ROOT_SEEDS = st.one_of(st.integers(0, 2**200), st.sampled_from([2**128 - 1, 2**128]))
_STREAMS = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))


def numpy_sequence(seed, stream, keys):
    return np.random.SeedSequence(seed, spawn_key=(stream, *keys))


class TestSeedKernel:
    """SeedSpec's streams are numpy's SeedSequence(seed, spawn_key=(stream, *keys))."""

    @settings(max_examples=400, deadline=None)
    @given(seed=_ROOT_SEEDS, stream=_STREAMS, keys=st.lists(_SEED_KEYS, max_size=3))
    def test_derive_is_numpys_first_state_word(self, seed, stream, keys):
        expected = numpy_sequence(seed, stream, keys).generate_state(1, np.uint64)[0]
        assert SeedSpec(seed, stream).derive(*keys).stream == int(expected)

    @settings(max_examples=150, deadline=None)
    @given(seed=_ROOT_SEEDS, stream=_STREAMS, keys=st.lists(_SEED_KEYS, max_size=3))
    def test_generator_draws_what_numpy_draws(self, seed, stream, keys):
        ours = SeedSpec(seed, stream).generator(*keys)
        theirs = np.random.default_rng(numpy_sequence(seed, stream, keys))
        for draw in (lambda g: g.random(5), lambda g: g.standard_normal(5),
                     lambda g: g.integers(0, 2**40, 5)):
            np.testing.assert_array_equal(draw(ours), draw(theirs))

    def test_repeated_calls_reuse_the_cached_pool_exactly(self):
        spec = SeedSpec(11, 2**40 + 3)
        for keys in [(), (4,), (4, 2**33), (), (4,)]:
            expected = numpy_sequence(11, 2**40 + 3, keys).generate_state(1, np.uint64)[0]
            assert spec.derive(*keys).stream == int(expected)

    @pytest.mark.parametrize("key, error", [
        (-1, ValueError), (np.int64(-5), ValueError),
        (1.5, TypeError), (np.float64(2.0), TypeError),
    ])
    def test_bad_key_rejected_as_numpy_does(self, key, error):
        with pytest.raises(error):
            numpy_sequence(1, 0, (key,))
        with pytest.raises(error):
            SeedSpec(1).derive(key)
        with pytest.raises(error):
            SeedSpec(1).generator(3, key)

    def test_cached_pool_is_invisible(self):
        fresh, used = SeedSpec(5, 9), SeedSpec(5, 9)
        used.derive(1)
        used.generator(2)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert [f.name for f in dataclasses.fields(used)] == ["seed", "stream"]
        assert copy.copy(used) == fresh and copy.deepcopy(used) == fresh
        assert pickle.dumps(used) == pickle.dumps(fresh)
        for clone in (pickle.loads(pickle.dumps(used)), copy.copy(used),
                      dataclasses.replace(used, stream=10)):
            stream = clone.stream
            assert clone.derive(3) == SeedSpec(5, stream).derive(3)
            theirs = np.random.default_rng(numpy_sequence(5, stream, (2,)))
            np.testing.assert_array_equal(clone.generator(2).random(4), theirs.random(4))

    def test_generator_seed_is_not_spawnable(self):
        with pytest.raises(TypeError):
            SeedSpec(0).generator().spawn(1)


class TestReal:
    @pytest.mark.parametrize("value, low, high, ends", [
        (0.0, 0.0, 1.0, "[]"),
        (1.0, 0.0, 1.0, "(]"),
        (np.float32(0.5), 0.0, 1.0, "()"),
        (np.int64(3), 0.0, np.inf, "()"),
        (-1e308, -np.inf, np.inf, "()"),
    ])
    def test_admits_numbers_inside_the_interval_as_floats(self, value, low, high, ends):
        got = _real(value, "x", low, high, ends)
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value, low, high, ends", [
        (0.0, 0.0, 1.0, "(]"),
        (1.0, 0.0, 1.0, "[)"),
        (np.inf, 0.0, np.inf, "[)"),
        (-np.inf, -np.inf, np.inf, "()"),
        (np.nan, -np.inf, np.inf, "()"),
        (True, -np.inf, np.inf, "()"),
        (np.bool_(False), -np.inf, np.inf, "()"),
        ("0.5", -np.inf, np.inf, "()"),
        (None, -np.inf, np.inf, "()"),
        (10**400, -np.inf, np.inf, "()"),
        (-(10**400), -np.inf, np.inf, "()"),
    ], ids=["open-low", "open-high", "inf-high", "-inf", "nan", "true", "numpy-false", "str",
            "none", "huge", "-huge"])
    def test_rejects_anything_else_naming_it(self, value, low, high, ends):
        with pytest.raises(ConfigurationError, match="^x "):
            _real(value, "x", low, high, ends)


def _scalar_fields():
    """(constructor of a valid object with one field replaced, field) per configured scalar."""
    poly = convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def polyhedron(**kw):
        return dataclasses.replace(poly, **kw)

    def hyperparams(**kw):
        return Hyperparams(**{"signal_std": 1.0, "lengthscales": [0.3], "noise_std": 0.01,
                              **kw})

    def plant(**kw):
        return dataclasses.replace(sim_config(), **kw)

    return ([(plant, f) for f in ("beta", "dt", "fall_band_width", "min_height")]
            + [(ObjectiveConfig, f) for f in ("segment_duration", "fall_penalty")]
            + [(ConstraintSpec, "tolerance"), (polyhedron, "gamma")]
            + [(hyperparams, f) for f in ("signal_std", "noise_std")])


SCALAR_FIELDS = _scalar_fields()


class TestConfiguredScalars:
    @pytest.mark.parametrize("make, field", SCALAR_FIELDS, ids=[f for _, f in SCALAR_FIELDS])
    @pytest.mark.parametrize("value", [True, 10**400, "0.5"], ids=["true", "huge", "str"])
    def test_rejects_a_non_number(self, make, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            make(**{field: value})
