"""Kernel building blocks: the Hermite-to-power conversion, the order-0/1/2
kernels, their analytic reductions at the diagonal basepoint, mass
identities, convergence of every basepoint rule off the diagonal, and the one
Gaussian-times-polynomial form against the Hermite-series formula."""

import numpy as np
import pytest
from numpy.polynomial.hermite_e import herme2poly, hermeval
from scipy.integrate import simpson

from conftest import (
    SQRT_2PI,
    cev_order1_reference,
    constant_coefficient_model,
    lognormal_order1_reference,
    lognormal_order2_reference_correction,
)
from lvkernel import (
    BasepointRule,
    BSMModel,
    CallPayoff,
    CEVModel,
    DegenerateCoefficient,
    DomainError,
    KernelSpec,
    SpatialGrid,
    TimeDependentBSMModel,
    basepoint,
    bs_exact,
    kernel_eval,
    price_quadrature,
)
from lvkernel.kernel import EXP_ARG_MAX, _he_to_power, _p_polynomials


class TestHeToPower:
    """_he_to_power against NumPy's conversion of a probabilists' Hermite
    series to powers, which shares no table with it."""

    @pytest.mark.parametrize("length", range(1, 8))
    def test_matches_numpy_herme2poly(self, length):
        rng = np.random.default_rng(length)
        for _ in range(20):
            h = rng.uniform(-2.0, 2.0, length)
            want = herme2poly(h)
            got = np.array(_he_to_power(list(h)))
            assert got.shape == want.shape
            # the largest gap measured is 3.2e-16 of the largest coefficient
            tol = 2e-15 * max(1.0, np.max(np.abs(want)))
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def _kernel(model, order, t, x, y):
    """The order-n kernel at the default basepoint z = x."""
    return kernel_eval(KernelSpec(model, order), t, x, y)


class TestOrderZero:
    # a constant-coefficient model does not change under translation, so
    # these evaluate at x = y = 1 (the basepoint must be positive)
    def test_peak_value_unit_coefficients(self):
        model = constant_coefficient_model(a=1.0)
        assert _kernel(model, 0, 1.0, 1.0, 1.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)

    def test_pointwise_value(self):
        # a=2, t=0.25: scale a*sqrt(t)=1, so the kernel at x-y=1 is the
        # standard normal density at 1
        model = constant_coefficient_model(a=2.0)
        assert _kernel(model, 0, 0.25, 2.0, 1.0) == pytest.approx(
            0.24197072451914337, rel=1e-14
        )

    def test_mass_is_one(self):
        sigma, r, t, x = 0.3, 0.1, 0.1, 15.0
        model = BSMModel(sigma=sigma, r=r)
        half = 10.0 * model.jet(x).a * np.sqrt(t)
        ys = np.linspace(x - half, x + half, 2001)
        mass = simpson(_kernel(model, 0, t, x, ys), x=ys)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t", [0.0, -0.5, np.nan, np.inf])
    def test_invalid_time_rejected(self, t):
        with pytest.raises(DomainError):
            _kernel(constant_coefficient_model(), 0, t, 1.0, 1.0)


class TestOrderOne:
    def test_reduces_to_order_zero_on_diagonal(self):
        model = BSMModel(sigma=0.3, r=0.1)
        assert _kernel(model, 1, 0.2, 15.0, 15.0) == pytest.approx(
            _kernel(model, 0, 0.2, 15.0, 15.0), rel=1e-15
        )

    def test_matches_lognormal_display_at_diagonal_basepoint(self):
        sigma, r, t, x = 0.3, 0.1, 0.1, 15.0
        ys = np.array([11.0, 14.0, 15.0, 16.5, 19.0])
        got = _kernel(BSMModel(sigma=sigma, r=r), 1, t, x, ys)
        want = lognormal_order1_reference(t, x, ys, sigma, r)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_mass_is_one(self):
        sigma, r, t, x = 0.3, 0.1, 0.1, 15.0
        model = BSMModel(sigma=sigma, r=r)
        half = 10.0 * model.jet(x).a * np.sqrt(t)
        ys = np.linspace(x - half, x + half, 2001)
        mass = simpson(_kernel(model, 1, t, x, ys), x=ys)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_first_moment_is_drifted_start(self):
        # integrating y against the order-1 kernel recovers x + b*t exactly
        sigma, r, t, x = 0.3, 0.1, 0.1, 15.0
        model = BSMModel(sigma=sigma, r=r)
        jet = model.jet(x)
        half = 10.0 * jet.a * np.sqrt(t)
        ys = np.linspace(x - half, x + half, 2001)
        moment = simpson(ys * _kernel(model, 1, t, x, ys), x=ys)
        assert moment == pytest.approx(x + jet.b * t, abs=1e-8)


class TestOrderTwo:
    def test_odd_coefficient_polynomials_vanish_on_diagonal(self):
        jet = BSMModel(sigma=0.3, r=0.1).jet(15.0)
        p = _p_polynomials(jet, 0.0)
        assert p[1] == 0.0
        assert p[3] == 0.0
        assert p[5] == 0.0

    def test_correction_matches_lognormal_display(self):
        sigma, r, t, x = 0.3, 0.1, 0.1, 15.0
        model = BSMModel(sigma=sigma, r=r)
        ys = np.array([11.0, 14.0, 15.0, 16.5, 19.0])
        got = _kernel(model, 2, t, x, ys) - _kernel(model, 1, t, x, ys)
        want = lognormal_order2_reference_correction(t, x, ys, sigma, r)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_correction_matches_display_with_volatility_slope(self):
        sigma, sdot, r, t, x = 0.3, 0.2, 0.1, 0.1, 15.0
        model = TimeDependentBSMModel(sigma=sigma, sigma_dot0=sdot, r=r)
        ys = np.array([12.0, 14.0, 15.0, 17.0])
        got = _kernel(model, 2, t, x, ys) - _kernel(model, 1, t, x, ys)
        want = lognormal_order2_reference_correction(t, x, ys, sigma, r, sigma_dot=sdot)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_mass_picks_up_killing_rate(self):
        # order-2 mass is 1 + c*t; for the lognormal model c = -r
        sigma, r, t, x = 0.3, 0.1, 0.1, 15.0
        model = BSMModel(sigma=sigma, r=r)
        half = 10.0 * model.jet(x).a * np.sqrt(t)
        ys = np.linspace(x - half, x + half, 2001)
        mass = simpson(_kernel(model, 2, t, x, ys), x=ys)
        assert mass == pytest.approx(1.0 - r * t, abs=1e-8)


class TestPowerLawDisplay:
    def test_order_one_matches_power_law_display(self):
        sigma, alpha, r, t, x = 0.3, 2.0 / 3.0, 0.1, 0.1, 15.0
        ys = np.array([12.0, 14.0, 15.0, 16.5, 18.0])
        got = _kernel(CEVModel(sigma=sigma, alpha=alpha, r=r), 1, t, x, ys)
        want = cev_order1_reference(t, x, ys, sigma, alpha, r)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestKernelEval:
    def test_order_zero_is_the_dilated_gaussian(self):
        sigma, t, x = 0.3, 0.1, 15.0
        spec = KernelSpec(BSMModel(sigma=sigma, r=0.1), order=0)
        ys = np.array([14.0, 15.0, 16.0])
        got = kernel_eval(spec, t, x, ys)
        s2 = (sigma * x) ** 2 * t
        want = np.exp(-(x - ys) ** 2 / (2.0 * s2)) / np.sqrt(2.0 * np.pi * s2)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_unit_exponent_power_law_equals_lognormal(self, order):
        bsm = KernelSpec(BSMModel(sigma=0.4, r=0.07), order=order)
        cev = KernelSpec(CEVModel(sigma=0.4, alpha=1.0, r=0.07), order=order)
        ys = np.linspace(8.0, 30.0, 23)
        np.testing.assert_allclose(
            kernel_eval(cev, 0.2, 16.0, ys),
            kernel_eval(bsm, 0.2, 16.0, ys),
            rtol=1e-14,
        )

    def test_basepoint_rules_agree_on_diagonal(self):
        model = CEVModel(sigma=0.3, alpha=0.6, r=0.05)
        t, x = 0.15, 12.0
        for order in (1, 2):
            at_x = kernel_eval(KernelSpec(model, order, BasepointRule.AT_X), t, x, x)
            mid = kernel_eval(KernelSpec(model, order, BasepointRule.MIDPOINT), t, x, x)
            at_y = kernel_eval(KernelSpec(model, order, BasepointRule.AT_Y), t, x, x)
            assert mid == pytest.approx(at_x, rel=1e-15)
            assert at_y == pytest.approx(at_x, rel=1e-15)

    def test_order_three_rejected(self):
        with pytest.raises(DomainError):
            KernelSpec(BSMModel(sigma=0.3), order=3)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_underflow_region_is_exactly_zero(self, order):
        # q = (x-y)^2 / (2 t a^2) ~ 988 here, past the exp underflow cutoff
        model = BSMModel(sigma=0.3, r=0.0)
        t, x, y = 1e-4, 15.0, 13.0
        a = 0.3 * x
        q = (x - y) ** 2 / (2.0 * t * a * a)
        assert q > EXP_ARG_MAX
        spec = KernelSpec(model, order=order)
        assert kernel_eval(spec, t, x, y) == 0.0

    @pytest.mark.parametrize("x", [1e-100, 1e-200, np.array([1e-200, 1.0])],
                             ids=["C_k-overflow", "s2-underflows", "array"])
    def test_width_too_small_for_its_coefficients_is_degenerate(self, x):
        # a sqrt(t) < 1e-100: the C_k overflow, and at 1e-200 t a^2 underflows
        with pytest.raises(DegenerateCoefficient):
            kernel_eval(KernelSpec(BSMModel(sigma=0.3, r=0.1), 2), 0.1, x, 15.0)


class TestOffDiagonalBasepoints:
    """Call prices by quadrature of each rule's kernel converge to the exact
    lognormal price at the expansion's order, off the diagonal x = y.

    BSM sigma=0.3, r=0, K=20: the worst error on spots in [18, 22] at
    t = 0.05, 0.025, 0.0125.  An order-n kernel's price error is O(t^((n+1)/2)).
    Two checks: the observed order over the two halvings is at least that
    order less 0.25, and the error stays below t^((n+1)/2) (the largest
    measured constant is 0.40, at-y order 1).  A basepoint-shift term that
    lacks the factor a'(z) makes at-y and midpoint converge only like t at
    either order, with constants of 4 to 90.
    """

    TIMES = (0.05, 0.025, 0.0125)

    @pytest.mark.parametrize("rule", list(BasepointRule))
    @pytest.mark.parametrize("order", [1, 2])
    def test_converges_at_expansion_order(self, rule, order):
        sigma, strike = 0.3, 20.0
        grid = SpatialGrid(1.0, 40.0, 0.005)
        xs = np.linspace(18.0, 22.0, 41)
        spec = KernelSpec(BSMModel(sigma=sigma, r=0.0), order, rule)
        errs = np.array([
            np.max(np.abs(price_quadrature(spec, t, CallPayoff(strike), xs, grid)
                          - bs_exact(t, strike, xs, sigma)))
            for t in self.TIMES
        ])
        power = (order + 1) / 2.0
        observed = np.log2(errs[0] / errs[-1]) / 2.0
        assert observed >= power - 0.25, f"errors {errs}, observed order {observed:.2f}"
        constants = errs / np.array(self.TIMES) ** power
        assert np.all(constants <= 1.0), f"errors {errs}, constants {constants}"


def _hermite_series_kernel(model, order, rule, t, x, y):
    """The kernel as a Gaussian times the order-1 bracket plus t times the
    Hermite series sum_k P_k(xi) H_k(Theta), with a'(z) in the basepoint-shift
    term; 0 where exp(-q) underflows."""
    z = basepoint(rule, x, y)
    jet = model.jet(z)
    a, ap, b = jet.a, jet.da_dx, jet.b
    d = x - y
    q = d * d / (2.0 * t * a * a)
    gauss = np.where(q > EXP_ARG_MAX, 0.0, np.exp(-np.minimum(q, EXP_ARG_MAX)))
    gauss = gauss / np.sqrt(2.0 * np.pi * t * a * a)
    if order == 0:
        return gauss
    bracket = (1.0 + (3.0 * a * ap - 2.0 * b) / (2.0 * a * a) * d
               - ap / (2.0 * t * a**3) * d**3
               + ap * (x - z) * (d * d - t * a * a) / (t * a**3))
    if order == 2:
        # sum_k P_k(xi) H_k(Theta) with H_k(Theta) = (-1/a)^k He_k(a Theta) and
        # a Theta = d/(a sqrt(t)), summed by NumPy's Hermite_e evaluation
        p = _p_polynomials(jet, (x - z) / np.sqrt(t))
        u, a, *p = np.broadcast_arrays(d / (a * np.sqrt(t)), a, *p)
        series = hermeval(u, np.stack([pk * (-1.0 / a) ** k for k, pk in enumerate(p)]),
                          tensor=False)
        bracket = bracket + t * series
    return gauss * bracket


class TestOneKernelForm:
    """kernel_eval (one Gaussian times a polynomial in x - y) against the
    Hermite-series formula written out above."""

    MODELS = {
        "bsm": BSMModel(sigma=0.3, r=0.1),
        "cev": CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1),
        "tdbsm": TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1),
        "const": constant_coefficient_model(a=2.0, b=0.3, c=-0.1),
    }

    @pytest.mark.parametrize("rule", list(BasepointRule))
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_hermite_series_off_diagonal(self, name, order, rule):
        model = self.MODELS[name]
        rng = np.random.default_rng(7)
        for t in (0.005, 0.05, 0.5):
            x = rng.uniform(5.0, 40.0, 2000)
            y = x + model.jet(x).a * np.sqrt(t) * rng.uniform(-8.0, 8.0, x.size)
            y = np.abs(y) + 0.1
            got = kernel_eval(KernelSpec(model, order, rule), t, x, y)
            want = _hermite_series_kernel(model, order, rule, t, x, y)
            peak = 1.0 / np.sqrt(2.0 * np.pi * t * model.jet(basepoint(rule, x, y)).a ** 2)
            assert np.all(np.abs(got - want) <= 1e-14 * peak)

    @pytest.mark.parametrize("rule", list(BasepointRule))
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_cev_near_zero_is_finite_and_exactly_zero_where_dead(self, order, rule):
        model = CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1)
        tau = 1e-3
        # the kernel is 0.002 wide here: resolve it, then run out to y = 200
        y = np.concatenate([np.linspace(0.08, 0.12, 401), SpatialGrid.regular(200.0, 0.1).nodes])
        got = kernel_eval(KernelSpec(model, order, rule), tau, 0.1, y)
        a = model.jet(basepoint(rule, 0.1, y)).a
        dead = (0.1 - y) ** 2 / (2.0 * tau * a * a) > EXP_ARG_MAX
        assert np.all(np.isfinite(got))
        assert np.any(dead) and np.all(got[dead] == 0.0)
        want = _hermite_series_kernel(model, order, rule, tau, 0.1, y)
        peak = 1.0 / np.sqrt(2.0 * np.pi * tau * a * a)
        assert np.all(np.abs(got - want) <= 1e-14 * peak)
