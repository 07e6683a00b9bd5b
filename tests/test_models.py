"""Model definitions, coefficient jets, basepoint rules, and JSON loading."""

import dataclasses
import json
import re

import numpy as np
import pytest

from lvkernel import (
    BasepointRule,
    BSMModel,
    CEVModel,
    CoefficientJet,
    CustomModel,
    DegenerateCoefficient,
    DomainError,
    TimeDependentBSMModel,
    basepoint,
    model_from_dict,
    model_from_file,
    model_from_json,
    price_call_closed,
)
from lvkernel.errors import _spots


# scalar and array spots down to a subnormal one, and two times
FAMILY_SPOTS = [15.0, 1e-310, np.array([2.0, 10.0, 37.5]), np.array([1e-310, 1.0, 80.0])]
FAMILY_TIMES = (0.0, 0.37)


class TestJetValues:
    def test_lognormal_jet(self):
        jet = BSMModel(sigma=0.3, r=0.1).jet(15.0)
        assert jet.a == pytest.approx(4.5)
        assert jet.da_dx == pytest.approx(0.3)
        assert jet.d2a_dx2 == 0.0
        assert jet.da_dt == 0.0
        assert jet.b == pytest.approx(1.5)
        assert jet.db_dx == pytest.approx(0.1)
        assert jet.c == pytest.approx(-0.1)

    def test_time_dependent_jet_adds_volatility_slope(self):
        model = TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1)
        base = BSMModel(sigma=0.3, r=0.1)
        flat = TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.0, r=0.1)
        for z in FAMILY_SPOTS:
            jet = model.jet(z)
            np.testing.assert_array_equal(jet.da_dt, 0.2 * np.asarray(z))
            for name in ("a", "da_dx", "d2a_dx2", "b", "db_dx", "c"):
                np.testing.assert_array_equal(getattr(jet, name), getattr(base.jet(z), name))
            # a + t da_dt = (sigma + sigma_dot0 t) x: the lognormal a at the
            # volatility of time t, to rounding (absolutely at the subnormal spot)
            for t in FAMILY_TIMES:
                moved = BSMModel(sigma=0.3 + 0.2 * t, r=0.1).jet(z).a
                np.testing.assert_allclose(jet.a + t * jet.da_dt, moved, rtol=1e-15, atol=1e-320)
                flat_jet = flat.jet(z)
                np.testing.assert_array_equal(flat_jet.a + t * flat_jet.da_dt, base.jet(z).a)
        assert model.is_time_dependent
        assert not flat.is_time_dependent and not base.is_time_dependent

    def test_power_law_jet(self):
        sigma, alpha, z = 0.3, 2.0 / 3.0, 15.0
        jet = CEVModel(sigma=sigma, alpha=alpha, r=0.1).jet(z)
        assert jet.a == pytest.approx(sigma * z**alpha)
        assert jet.da_dx == pytest.approx(alpha * sigma * z ** (alpha - 1.0))
        assert jet.d2a_dx2 == pytest.approx(
            alpha * (alpha - 1.0) * sigma * z ** (alpha - 2.0)
        )
        assert jet.b == pytest.approx(0.1 * z)

    def test_power_law_with_unit_exponent_equals_lognormal(self):
        cev = CEVModel(sigma=0.4, alpha=1.0, r=0.07)
        bsm = BSMModel(sigma=0.4, r=0.07)
        for z in FAMILY_SPOTS:
            for name in ("a", "da_dx", "d2a_dx2", "da_dt", "b", "db_dx", "c"):
                got, want = getattr(cev.jet(z), name), getattr(bsm.jet(z), name)
                assert type(got) is type(want)
                np.testing.assert_array_equal(got, want)
        assert not cev.is_time_dependent and not bsm.is_time_dependent

    def test_jet_accepts_arrays(self):
        z = np.array([1.0, 2.0, 4.0])
        jet = BSMModel(sigma=0.5).jet(z)
        np.testing.assert_allclose(jet.a, 0.5 * z)

    def test_jet_rejects_nonpositive_z(self):
        with pytest.raises(DomainError):
            BSMModel(sigma=0.3).jet(0.0)
        with pytest.raises(DomainError):
            BSMModel(sigma=0.3).jet(np.array([1.0, -2.0]))


class TestJetDerivativesAgainstFiniteDifferences:
    """The analytic jet's derivatives must agree with finite differences of
    its values."""

    MODELS = [
        BSMModel(sigma=0.3, r=0.1),
        TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1),
        CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1),
        CEVModel(sigma=0.45, alpha=0.5, r=0.0),
    ]
    MODEL_IDS = ["bsm", "tdbsm", "cev-two-thirds", "cev-half"]

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("z", [2.0, 15.0, 80.0])
    def test_first_derivatives(self, model, z):
        jet = model.jet(z)
        h = 1e-5 * z
        up, down = model.jet(z + h), model.jet(z - h)
        a_p = (up.a - down.a) / (2 * h)
        b_p = (up.b - down.b) / (2 * h)
        assert a_p == pytest.approx(jet.da_dx, rel=1e-6)
        assert b_p == pytest.approx(jet.db_dx, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("z", [2.0, 15.0, 80.0])
    def test_second_derivative(self, model, z):
        jet = model.jet(z)
        h = 1e-4 * z
        app = (model.jet(z + h).a + model.jet(z - h).a - 2.0 * jet.a) / h**2
        assert app == pytest.approx(jet.d2a_dx2, rel=1e-5, abs=1e-10)

    def test_time_slope(self):
        # a(t) = (0.3 + 0.2 t) z is the lognormal a at volatility 0.3 + 0.2 t
        model = TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1)
        z = 15.0
        h = 1e-6
        adot = (BSMModel(0.3 + 0.2 * h, 0.1).jet(z).a - BSMModel(0.3, 0.1).jet(z).a) / h
        assert adot == pytest.approx(model.jet(z).da_dt, rel=1e-9)


class TestBasepoint:
    @pytest.mark.parametrize("rule", list(BasepointRule))
    def test_diagonal_identity(self, rule):
        assert basepoint(rule, 7.5, 7.5) == 7.5
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.asarray(basepoint(rule, x, x)), x)

    def test_rules(self):
        assert basepoint(BasepointRule.AT_X, 4.0, 6.0) == 4.0
        assert basepoint(BasepointRule.AT_Y, 4.0, 6.0) == 6.0
        assert basepoint(BasepointRule.MIDPOINT, 4.0, 6.0) == pytest.approx(5.0)

    def test_parse(self):
        assert BasepointRule.parse("atx") is BasepointRule.AT_X
        assert BasepointRule.parse(" MID ") is BasepointRule.MIDPOINT
        with pytest.raises(DomainError):
            BasepointRule.parse("center")

    def test_rejects_nonpositive_points(self):
        with pytest.raises(DomainError):
            basepoint(BasepointRule.AT_X, -1.0, 2.0)
        with pytest.raises(DomainError):
            basepoint(BasepointRule.MIDPOINT, 1.0, 0.0)

    @pytest.mark.parametrize("rule", list(BasepointRule))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_points(self, rule, bad):
        # the point the rule does not read must be finite too
        ys = np.array([14.0, 15.0, 16.0])
        message = f"^x must be positive and finite, got {bad}$"
        with pytest.raises(DomainError, match=message):
            basepoint(rule, bad, ys)
        with pytest.raises(DomainError, match=message):
            basepoint(rule, np.array([[15.0], [bad]]), ys[None, :])


class TestValidation:
    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            BSMModel(sigma=0.0)
        with pytest.raises(DomainError):
            BSMModel(sigma=-0.1)

    def test_nonfinite_rate_rejected(self):
        with pytest.raises(DomainError):
            BSMModel(sigma=0.3, r=np.inf)

    def test_exponent_out_of_range_rejected(self):
        for alpha in (0.0, -0.5, 1.5, np.nan):
            with pytest.raises(DomainError):
                CEVModel(sigma=0.3, alpha=alpha)

    def test_unit_exponent_allowed(self):
        assert CEVModel(sigma=0.3, alpha=1.0).alpha == 1.0

    def test_nonfinite_volatility_slope_rejected(self):
        with pytest.raises(DomainError):
            TimeDependentBSMModel(sigma=0.3, sigma_dot0=np.nan)

    def test_jet_validate_rejects_nonpositive_a(self):
        jet = CoefficientJet(a=0.0, da_dx=0.0, d2a_dx2=0.0, da_dt=0.0,
                             b=0.0, db_dx=0.0, c=0.0)
        with pytest.raises(DegenerateCoefficient):
            jet.validate()

    def test_jet_validate_rejects_nonfinite_field(self):
        jet = CoefficientJet(a=1.0, da_dx=np.nan, d2a_dx2=0.0, da_dt=0.0,
                             b=0.0, db_dx=0.0, c=0.0)
        with pytest.raises(DegenerateCoefficient):
            jet.validate()

    @pytest.mark.parametrize("build, shown", [
        (lambda: BSMModel("0.3"), "sigma must be a number, got '0.3'"),
        (lambda: TimeDependentBSMModel(0.3, "0.2"), "sigma_dot0 must be a number, got '0.2'"),
        (lambda: BSMModel(True), "sigma must be a number, got True"),
        (lambda: BSMModel(0.3, True), "r must be a number, got True"),
        (lambda: CEVModel(0.3, np.True_), "alpha must be a number, got np.True_"),
        (lambda: BSMModel(None), "sigma must be a number, got None"),
        (lambda: BSMModel([0.3]), r"sigma must be a number, got \[0\.3\]"),
        (lambda: TimeDependentBSMModel(0.3, None), "sigma_dot0 must be a number, got None"),
    ], ids=["str-sigma", "str-sigma_dot0", "bool-sigma", "bool-r", "numpy-bool-alpha",
            "none-sigma", "list-sigma", "none-sigma_dot0"])
    def test_non_numeric_parameter_rejected(self, build, shown):
        # float() and isfinite() take neither as a fault: True is 1
        with pytest.raises(DomainError, match=f"^{shown}$"):
            build()

    def test_ints_and_numpy_reals_pass(self):
        want = price_call_closed(2, BSMModel(0.3, 1.0), 0.1, 15.0, 15.0)
        for model in (BSMModel(np.float64(0.3), 1), BSMModel(0.3, np.int64(1))):
            assert price_call_closed(2, model, 0.1, 15.0, 15.0) == want

    def test_models_are_frozen(self):
        model = BSMModel(sigma=0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.sigma = 0.4


JET_FIELDS = ("a", "da_dx", "d2a_dx2", "da_dt", "b", "db_dx", "c")


def _jet_with(name, value, size=None):
    """A valid jet (a = 1, the rest 0) with one entry of one field replaced;
    with size, every field is an array of that length and entry 17 is replaced."""
    fields = {f: (1.0 if f == "a" else 0.0) for f in JET_FIELDS}
    if size is not None:
        fields = {f: np.full(size, v) for f, v in fields.items()}
        fields[name][17] = value
    else:
        fields[name] = value
    return CoefficientJet(**fields)


class TestJetChecks:
    @pytest.mark.parametrize("name", JET_FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    # validate checks up to 1,024 elements in one pass and longer arrays a field at a time
    @pytest.mark.parametrize("size", [None, 64, 2000], ids=["scalar", "array64", "array2000"])
    def test_nonfinite_field_is_named(self, name, bad, size):
        with pytest.raises(DegenerateCoefficient, match=f"jet field {name} is not finite"):
            _jet_with(name, bad, size).validate()

    @pytest.mark.parametrize("bad", [0.0, -1e-300, -2.0])
    @pytest.mark.parametrize("size", [None, 64], ids=["scalar", "array64"])
    def test_nonpositive_a_rejected(self, bad, size):
        with pytest.raises(DegenerateCoefficient, match="diffusion coefficient a must be positive"):
            _jet_with("a", bad, size).validate()

    @pytest.mark.parametrize("size", [None, 64, 2000], ids=["scalar", "array64", "array2000"])
    def test_valid_jet_passes(self, size):
        jet = _jet_with("a", 2.0, size)
        assert jet.validate() is jet

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -3.0])
    def test_spots_rejects_a_scalar(self, bad):
        message = rf"^z must be positive and finite, got {re.escape(str(bad))}$"
        with pytest.raises(DomainError, match=message):
            _spots("z", bad)
        with pytest.raises(DomainError, match=message):
            CEVModel(sigma=0.3, alpha=0.5).jet(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -3.0])
    def test_spots_rejects_one_array_entry(self, bad):
        z = np.linspace(1.0, 40.0, 64)
        z[41] = bad
        message = rf"^z must be positive and finite, got {re.escape(str(bad))}$"
        with pytest.raises(DomainError, match=message):
            _spots("z", z)
        with pytest.raises(DomainError, match=message):
            BSMModel(sigma=0.3).jet(z)

    @pytest.mark.parametrize("z", [1e-250, np.array([1e-250, 15.0])], ids=["scalar", "array"])
    def test_overflowing_power_is_degenerate(self, z):
        # z**(alpha - 2) overflows a double at this spot, for a float as for an array
        with pytest.raises(DegenerateCoefficient, match="jet field d2a_dx2 is not finite"):
            with np.errstate(over="ignore"):
                CEVModel(sigma=0.3, alpha=0.5).jet(z)

    @pytest.mark.parametrize("z", [True, np.True_, np.array([True, False])],
                             ids=["bool", "numpy-bool", "bool-array"])
    def test_spots_rejects_a_bool(self, z):
        # float() and np.asarray(dtype=float) read True as a basepoint of 1
        message = rf"^z must be a number, got {re.escape(repr(z))}$"
        with pytest.raises(DomainError, match=message):
            _spots("z", z)
        with pytest.raises(DomainError, match=message):
            BSMModel(sigma=0.3).jet(z)

    def test_spots_keeps_the_input_kind(self):
        assert type(_spots("z", 3)) is float
        assert type(_spots("z", np.float64(3.0))) is float
        assert type(_spots("z", np.array(3.0))) is float
        z = _spots("z", np.array([1, 2, 3]))
        assert z.dtype == float and z.shape == (3,)


class TestCustomModel:
    def test_custom_jet_round_trip(self):
        def jet_fn(z):
            zero = np.zeros_like(np.asarray(z, dtype=float))
            return CoefficientJet(a=2.0 + zero, da_dx=zero, d2a_dx2=zero,
                                  da_dt=zero, b=1.0 + zero, db_dx=zero,
                                  c=-0.05 + zero)

        model = CustomModel(jet_fn=jet_fn)
        jet = model.jet(10.0)
        assert np.asarray(jet.a).item() == 2.0
        assert np.asarray(jet.b).item() == 1.0
        assert np.asarray(jet.c).item() == -0.05
        assert model.is_time_dependent

    def test_custom_jet_must_return_jet_type(self):
        model = CustomModel(jet_fn=lambda z: (1.0, 0.0))
        with pytest.raises(DomainError):
            model.jet(1.0)

    def test_custom_jet_is_validated(self):
        def jet_fn(z):
            zero = np.zeros_like(np.asarray(z, dtype=float))
            return CoefficientJet(a=-1.0 + zero, da_dx=zero, d2a_dx2=zero,
                                  da_dt=zero, b=zero, db_dx=zero, c=zero)

        with pytest.raises(DegenerateCoefficient):
            CustomModel(jet_fn=jet_fn).jet(1.0)


class TestJsonLoading:
    def test_lognormal_round_trip(self):
        model = model_from_dict({"kind": "bsm", "sigma": 0.3, "r": 0.1})
        assert model == BSMModel(sigma=0.3, r=0.1)

    def test_rate_defaults_to_zero(self):
        assert model_from_dict({"kind": "bsm", "sigma": 0.3}).r == 0.0

    def test_time_dependent_round_trip(self):
        model = model_from_dict(
            {"kind": "tdbsm", "sigma": 0.3, "sigma_dot0": -0.2, "r": 0.05}
        )
        assert model == TimeDependentBSMModel(sigma=0.3, sigma_dot0=-0.2, r=0.05)

    def test_power_law_round_trip(self):
        model = model_from_dict(
            {"kind": "cev", "sigma": 0.3, "alpha": 0.6667, "r": 0.1}
        )
        assert model == CEVModel(sigma=0.3, alpha=0.6667, r=0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            model_from_dict({"kind": "heston", "sigma": 0.3})

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError):
            model_from_dict({"kind": "bsm", "sigma": 0.3, "vol_of_vol": 1.0})

    def test_missing_keys_rejected(self):
        with pytest.raises(DomainError):
            model_from_dict({"kind": "cev", "sigma": 0.3})

    def test_custom_kind_rejected(self):
        with pytest.raises(DomainError):
            model_from_dict({"kind": "custom"})

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_too_large_for_a_float_rejected(self, digits):
        text = '{"kind": "bsm", "sigma": 1' + "0" * (digits - 1) + "}"
        with pytest.raises(DomainError) as info:
            model_from_json(text)
        assert "\n" not in str(info.value)
        if digits == 400:
            assert str(info.value) == "model key 'sigma' is too large for a float"

    def test_non_object_rejected(self):
        with pytest.raises(DomainError):
            model_from_dict(["bsm", 0.3])

    def test_bad_json_text_rejected(self):
        with pytest.raises(DomainError):
            model_from_json("{not json")

    def test_model_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "bsm", "sigma": 0.25, "r": 0.02}))
        assert model_from_file(str(path)) == BSMModel(sigma=0.25, r=0.02)
