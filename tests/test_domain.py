"""Value types, box normalization, corrections, seeded streams, and the number checker."""

import dataclasses

import numpy as np
import pytest

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
