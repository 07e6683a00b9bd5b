"""Kernel building blocks: the Hermite-to-power conversion, the order-0/1/2
kernels, their analytic reductions at the diagonal basepoint, mass
identities, convergence of every basepoint rule off the diagonal, and the one
Gaussian-times-polynomial form against the Hermite-series formula."""

import functools
import math
import re
import tracemalloc

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
    CustomModel,
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
from lvkernel import kernel
from lvkernel.kernel import _KAPPA, Q_MAX, _he_to_power, _hermite_coefficients, _kernel_rows


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
        # at z = x the order-2 correction adds nothing to the odd h_k
        jet = BSMModel(sigma=0.3, r=0.1).jet(15.0)
        h1 = _hermite_coefficients(jet, 0.1, 0.0, 1)
        h2 = _hermite_coefficients(jet, 0.1, 0.0, 2)
        assert h2[1] == h1[1]
        assert h2[3] == h1[3]
        assert h2[5] == 0.0

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

    @pytest.mark.parametrize("order, shown", [(True, "True"), (2.0, "2.0"), ("2", "'2'"),
                                              (np.float64(1.0), "np.float64(1.0)")])
    def test_order_must_be_an_integer(self, order, shown):
        # a bool or a float used to pass the range test (True == 1, 2.0 == 2)
        message = f"kernel order must be 0, 1 or 2, got {shown}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            KernelSpec(BSMModel(sigma=0.3, r=0.1), order)

    def test_numpy_integer_order_is_its_int(self):
        model, x, y = BSMModel(sigma=0.3, r=0.1), 15.0, np.linspace(12.0, 18.0, 25)
        got = kernel_eval(KernelSpec(model, np.int64(2)), 0.1, x, y)
        assert np.array_equal(got, kernel_eval(KernelSpec(model, 2), 0.1, x, y))

    @pytest.mark.parametrize("rule", ["atx", "aty", "mid", None, 0])
    def test_basepoint_must_be_a_rule(self, rule):
        # "atx" used to construct, then fail later with a bare KeyError
        with pytest.raises(DomainError, match=f"^basepoint must be a BasepointRule, got {rule!r}$"):
            KernelSpec(BSMModel(sigma=0.3, r=0.1), 2, rule)

    @pytest.mark.parametrize("model", ["bsm", None, BSMModel])
    def test_model_must_be_a_model(self, model):
        # "bsm" used to construct, then fail in kernel_eval with a bare AttributeError
        with pytest.raises(DomainError, match=f"^model must be a Model, got {re.escape(repr(model))}$"):
            KernelSpec(model)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_underflow_region_is_exactly_zero(self, order):
        # q = (x-y)^2 / (2 t a^2) ~ 988 here, past the exp underflow too
        model = BSMModel(sigma=0.3, r=0.0)
        t, x, y = 1e-4, 15.0, 13.0
        a = 0.3 * x
        q = (x - y) ** 2 / (2.0 * t * a * a)
        assert q > Q_MAX
        spec = KernelSpec(model, order=order)
        assert kernel_eval(spec, t, x, y) == 0.0

    @pytest.mark.parametrize("rule", list(BasepointRule))
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_exactly_zero_past_q_max_before_exp_underflows(self, order, rule):
        # 14 widths from x: q is 100, 162 and 303 at z = x, mid and y, where
        # exp(-q) is a normal double; the kernel is +0.0 all the same
        model = BSMModel(sigma=0.3, r=0.1)
        t, x, y = 0.01, 20.0, 11.5
        q = (x - y) ** 2 / (2.0 * t * model.jet(basepoint(rule, x, y)).a ** 2)
        assert Q_MAX == 50.0 and 50.0 < q < 745.0
        got = kernel_eval(KernelSpec(model, order, rule), t, x, y)
        assert got == 0.0 and not np.signbit(got)

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


def _p_polynomials(jet, xi):
    """P_0..P_6 of the order-2 correction at the basepoint offset
    xi = (x - z)/sqrt(t), written out as polynomials in xi."""
    a, ap, app, adot = jet.a, jet.da_dx, jet.d2a_dx2, jet.da_dt
    b, bp, c = jet.b, jet.db_dx, jet.c
    ap2, a2, xi2 = ap * ap, a * a, xi * xi
    a3 = a2 * a
    p1 = bp * xi
    p2 = (0.5 * (0.5 * a3 * app + a2 * bp + a2 * ap2 / 2.0 + b * b + a * (b * ap + adot))
          + 0.5 * xi2 * (ap2 + a * app))
    p3 = a * xi * (ap * b + 0.5 * a2 * app + 1.5 * a * ap2)
    p4 = (a2 / 3.0) * (0.5 * a3 * app + 2.0 * a2 * ap2 + 1.5 * a * ap * b) + 0.5 * a2 * ap2 * xi2
    p5 = 0.5 * a2 * a2 * ap2 * xi
    p6 = a3 * a3 * ap2 / 8.0
    return c, p1, p2, p3, p4, p5, p6


def _hermite_series_kernel(model, order, rule, t, x, y):
    """The kernel as a Gaussian times the order-1 bracket plus t times the
    Hermite series sum_k P_k(xi) H_k(Theta), with a'(z) in the basepoint-shift
    term; 0 past q = Q_MAX."""
    z = basepoint(rule, x, y)
    jet = model.jet(z)
    a, ap, b = jet.a, jet.da_dx, jet.b
    d = x - y
    q = d * d / (2.0 * t * a * a)
    gauss = np.where(q > Q_MAX, 0.0, np.exp(-np.minimum(q, Q_MAX)))
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
        dead = (0.1 - y) ** 2 / (2.0 * tau * a * a) > Q_MAX
        assert np.all(np.isfinite(got))
        assert np.any(dead) and np.all(got[dead] == 0.0)
        want = _hermite_series_kernel(model, order, rule, tau, 0.1, y)
        peak = 1.0 / np.sqrt(2.0 * np.pi * tau * a * a)
        assert np.all(np.abs(got - want) <= 1e-14 * peak)

    @pytest.mark.parametrize("rule", list(BasepointRule))
    def test_each_rule_is_its_kappa(self, rule):
        # the fold writes xi = (x - z)/sqrt(t) as kappa (x - y)/sqrt(t): a
        # rule without its kappa, or off the line through x and y, fails here
        x = np.array([[0.5], [7.5], [30.0]])
        y = np.array([[0.25, 7.5, 9.0, 40.0]])
        got = x - basepoint(rule, x, y)
        assert np.all(np.abs(got - _KAPPA[rule] * (x - y)) <= np.spacing(np.maximum(x, y)))

    def test_at_y_block_builds_no_block_sized_xi(self):
        # with xi built as a block the z = y peak was 12.2 blocks of 64 rows;
        # its h_k per column leave d, -q, the mask and the output: 3.4
        xs = SpatialGrid(1.0, 40.0, 0.01).nodes
        x = np.linspace(18.0, 22.0, 64)[:, None]
        spec = KernelSpec(CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1), 2, BasepointRule.AT_Y)
        tracemalloc.start()
        try:
            kernel_eval(spec, 0.05, x, xs[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (64 * xs.size * 8)

    def test_midpoint_block_frees_order_two_temporaries_before_the_fold(self):
        # a^2, a^3, P_2, P_4, P_6 and (-1/a)^k are block-sized at the
        # midpoint; alive through the kappa fold, they held the peak at 28
        # blocks of 64 rows, 25 without them, and 24 once the block-sized
        # basepoint z no longer outlives the jet
        xs = SpatialGrid(1.0, 40.0, 0.01).nodes
        x = np.linspace(18.0, 22.0, 64)[:, None]
        spec = KernelSpec(CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1), 2, BasepointRule.MIDPOINT)
        tracemalloc.start()
        try:
            kernel_eval(spec, 0.05, x, xs[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24.5 * (64 * xs.size * 8)


@functools.lru_cache(maxsize=None)
def _generator_taylor_terms(x, exponent, sigma_dot="0"):
    """Rows j = 0..4 of u_i(x), i = 0..8, the i-th t-derivative at t = 0 of
    the moment of f_j(y) = (y - x)^j, for the power-law model
    a = (0.3 + sigma_dot t) y^exponent, b = 0.1 y, c = -0.1, by sympy.

    The series is time-ordered: u_0 = f_j and
    u_{i+1} = sum_{k <= min(i, 2)} C(i, k) L_k u_{i-k}, where L_k is the k-th
    t-derivative at t = 0 of L(t) = a(t)^2/2 d^2 + b d + c (quadratic in t).
    At sigma_dot = 0 it is u_i = L^i f_j.
    """
    sp = pytest.importorskip("sympy")
    y, x = sp.Symbol("y", positive=True), sp.Integer(x)
    sigma, s_dot, r = sp.Rational("3/10"), sp.Rational(sigma_dot), sp.Rational("1/10")
    p2 = y ** (2 * sp.Rational(exponent))
    # the t-derivatives at t = 0 of a(t)^2 / 2 = (sigma + s_dot t)^2 p2 / 2
    half_a2 = (sigma * sigma * p2 / 2, sigma * s_dot * p2, s_dot * s_dot * p2)

    def generator(k, g):
        lg = half_a2[k] * sp.diff(g, y, 2)
        return lg + r * y * sp.diff(g, y) - r * g if k == 0 else lg

    terms = np.empty((5, 9))
    for j in range(5):
        u = [(y - x) ** j]
        for i in range(8):
            u.append(sp.expand(sum(sp.binomial(i, k) * generator(k, u[i - k])
                                   for k in range(min(i, 2) + 1))))
        terms[j] = [float(g.subs(y, x)) for g in u]
    return terms


class TestMidpointBlocks:
    """The midpoint's jet and coefficients are per entry, about 24 block-sized
    temporaries, so _kernel_rows sizes its blocks by entries, _MID_ENTRIES, and
    z = x and z = y keep _CHUNK_ROWS rows."""

    SPEC = KernelSpec(CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1), 2, BasepointRule.MIDPOINT)
    GRID = SpatialGrid(1.0, 40.0, 0.01)  # 3,901 nodes
    SPOTS = np.linspace(12.0, 18.0, 21)

    @pytest.mark.parametrize("n, rows", [(10, 21), (2001, 16), (3901, 8), (40_000, 1)])
    def test_no_block_exceeds_the_budget(self, n, rows):
        # 2**15 entries: 8 rows of 3,901 nodes, 16 of 2,001; one row at least
        y = np.linspace(1.0, 40.0, n)
        blocks = [(r, k.shape) for r, k in _kernel_rows(self.SPEC, 0.1, self.SPOTS, y)]
        assert blocks[0][1][0] == rows
        assert np.concatenate([np.arange(21)[r] for r, _ in blocks]).tolist() == list(range(21))
        for r, shape in blocks:
            assert shape == (r.stop - r.start, n)
            assert shape[0] * n <= kernel._MID_ENTRIES or shape[0] == 1

    @pytest.mark.parametrize("rule", [BasepointRule.AT_X, BasepointRule.AT_Y])
    def test_other_rules_keep_chunk_rows(self, rule):
        spec = KernelSpec(self.SPEC.model, 2, rule)
        x = np.linspace(12.0, 18.0, 100)
        sizes = [k.shape[0] for _, k in _kernel_rows(spec, 0.1, x, self.GRID.nodes)]
        assert sizes == [kernel._CHUNK_ROWS, 100 - kernel._CHUNK_ROWS]

    @pytest.mark.parametrize("rows", [1, 7])
    def test_budget_does_not_change_an_entry(self, monkeypatch, rows):
        # every entry keeps its bytes; a quadrature value can move by a few
        # ulps, as the BLAS product sums a row in another order by block size
        def run():
            block = np.concatenate([k for _, k in _kernel_rows(
                self.SPEC, 0.1, self.SPOTS, self.GRID.nodes)])
            return block, price_quadrature(self.SPEC, 0.1, CallPayoff(15.0), self.SPOTS, self.GRID)

        block, values = run()
        monkeypatch.setattr("lvkernel.kernel._MID_ENTRIES", rows * self.GRID.n_nodes)
        assert {k.shape[0] for _, k in _kernel_rows(self.SPEC, 0.1, self.SPOTS,
                                                    self.GRID.nodes)} == {rows}
        chunked, chunked_values = run()
        assert chunked.tobytes() == block.tobytes()
        np.testing.assert_allclose(chunked_values, values, rtol=1e-14, atol=1e-15)

    def test_quadrature_peak_is_set_by_the_budget(self):
        # 21 spots on 3,901 nodes: the whole block peaked at 24 block-sized
        # temporaries, 15.8 MB; 8 rows at a time it peaks at 24 of the
        # budget's, 6.3 MB
        for t in (0.01, 0.5):
            tracemalloc.start()
            try:
                price_quadrature(self.SPEC, t, CallPayoff(15.0), self.SPOTS, self.GRID)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 28 * kernel._MID_ENTRIES * 8, t


class TestMomentCertificate:
    """The kernel's moments at every basepoint rule against the semigroup's
    Taylor series.

    For f_j(y) = (y - x)^j the true moment is sum_{i <= 8} t^i/i! u_i(x),
    with u_i = L^i f_j, L = a^2/2 d^2 + b d + c, for a time-independent model
    and the time-ordered terms of _generator_taylor_terms for TD-BSM (which
    is what checks the a da_dt term of p_2), applied exactly by sympy once
    per model; the kernel's moment is a fine Simpson sum in y.  As t halves from 0.02 to
    0.0025 the log2 slope of each gap is at least ROADMAP item 7's value less
    0.15: floor(j/2) + 1 at order 0, ceil(j/2) + 1 at order 1 and
    floor(j/2) + 2 at order 2 (measured to within 0.01 at z = x, and within
    0.1 at z = y and the midpoint).
    """

    X = 20
    TIMES = (0.02, 0.01, 0.005, 0.0025)
    SLOPES = {0: (1, 1, 2, 2, 3), 1: (1, 2, 2, 3, 3), 2: (2, 2, 3, 3, 4)}
    # name: (model, the exponent of a and its sigma_dot as sympy reads them)
    MODELS = {
        "bsm": (BSMModel(sigma=0.3, r=0.1), "1", "0"),
        "cev": (CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1), "2/3", "0"),
        "tdbsm": (TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1), "1", "1/5"),
        "custom": (CustomModel(TimeDependentBSMModel(0.3, 0.2, 0.1).jet), "1", "1/5"),
    }

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("rule", list(BasepointRule), ids=lambda r: r.value)
    def test_moment_errors_fall_at_the_expansion_order(self, rule, name, order):
        model, exponent, sigma_dot = self.MODELS[name]
        terms = _generator_taylor_terms(self.X, exponent, sigma_dot)
        spec, x, j = KernelSpec(model, order, rule), float(self.X), np.arange(5)
        gaps = []
        for t in self.TIMES:
            s = model.jet(x).a * np.sqrt(t)
            ys = np.linspace(x - 16.0 * s, x + 16.0 * s, 2001)
            moments = simpson(kernel_eval(spec, t, x, ys) * (ys - x) ** j[:, None], x=ys)
            true = terms @ (t ** np.arange(9) / [math.factorial(i) for i in range(9)])
            gaps.append(np.abs(moments - true))
        slopes = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
        assert np.all(slopes >= np.array(self.SLOPES[order]) - 0.15), f"slopes (t, j) {slopes}"
