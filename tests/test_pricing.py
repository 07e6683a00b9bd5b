"""Closed-form prices, quadrature pricing, parity and Greeks."""

import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import SQRT_2PI, OnePayoff
from lvkernel import (
    BasepointRule,
    BSMModel,
    ButterflyPayoff,
    CallPayoff,
    CEVModel,
    DomainError,
    GridTooCoarseWarning,
    KernelSpec,
    PutPayoff,
    SampledPayoff,
    SpatialGrid,
    TimeDependentBSMModel,
    bs_delta,
    curve_greeks,
    greeks,
    kernel_eval,
    price_butterfly_closed,
    price_call_closed,
    price_curve,
    price_put,
    price_quadrature,
)
from lvkernel.pricing import _calls, _closed


class TestPayoffs:
    def test_call_put(self):
        y = np.array([10.0, 15.0, 22.5])
        np.testing.assert_allclose(CallPayoff(15.0)(y), [0.0, 0.0, 7.5])
        np.testing.assert_allclose(PutPayoff(15.0)(y), [5.0, 0.0, 0.0])

    def test_nonpositive_strike_rejected(self):
        with pytest.raises(DomainError):
            CallPayoff(0.0)
        with pytest.raises(DomainError):
            PutPayoff(-3.0)

    def test_symmetric_butterfly_is_call_combination(self):
        hat = ButterflyPayoff(15.0, 20.0, 25.0)
        y = np.linspace(10.0, 30.0, 81)
        direct = (np.maximum(y - 15.0, 0.0) - 2.0 * np.maximum(y - 20.0, 0.0)
                  + np.maximum(y - 25.0, 0.0))
        np.testing.assert_allclose(hat(y), direct, rtol=0, atol=1e-14)
        assert hat.call_weights == (1.0, 2.0, 1.0)

    def test_asymmetric_butterfly_hat_shape(self):
        hat = ButterflyPayoff(15.0, 18.0, 25.0)
        assert hat(14.0) == 0.0
        assert hat(16.0) == pytest.approx(1.0)
        assert hat(18.0) == pytest.approx(3.0)
        assert hat(21.0) == pytest.approx(12.0 / 7.0)
        assert hat(25.0) == pytest.approx(0.0, abs=1e-14)
        assert hat(30.0) == pytest.approx(0.0, abs=1e-14)

    def test_butterfly_strike_ordering_enforced(self):
        with pytest.raises(DomainError):
            ButterflyPayoff(20.0, 15.0, 25.0)
        with pytest.raises(DomainError):
            ButterflyPayoff(0.0, 1.0, 2.0)

    def test_butterfly_rejects_infinite_strike(self):
        with pytest.raises(DomainError, match="strike must be positive"):
            ButterflyPayoff(10.0, 15.0, np.inf)

    def test_sampled_payoff_interpolates(self):
        payoff = SampledPayoff(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
        assert payoff(0.5) == pytest.approx(1.0)
        assert payoff(5.0) == pytest.approx(0.0)  # constant extrapolation

    def test_sampled_payoff_validation(self):
        with pytest.raises(DomainError):
            SampledPayoff(np.array([1.0]), np.array([1.0]))
        with pytest.raises(DomainError):
            SampledPayoff(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            SampledPayoff(np.array([1.0, 2.0]), np.array([0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_sampled_payoff_rejects_non_finite_samples(self, bad):
        with pytest.raises(DomainError, match="finite"):
            SampledPayoff(np.array([1.0, 2.0]), np.array([0.0, bad]))
        with pytest.raises(DomainError):
            SampledPayoff(np.array([1.0, bad]), np.array([0.0, 1.0]))


class TestClosedFormCall:
    @pytest.mark.parametrize("order", [1, 2])
    def test_intrinsic_limit_in_the_money(self, order):
        model = BSMModel(sigma=0.3, r=0.0)
        assert price_call_closed(order, model, 1e-8, 15.0, 20.0) == pytest.approx(
            5.0, abs=1e-5
        )

    def test_at_the_money_value(self):
        # at x = K the order-1 price collapses to a*sqrt(t/(2 pi)) + b*t/2
        sigma, r, t, K = 0.3, 0.1, 0.1, 15.0
        model = BSMModel(sigma=sigma, r=r)
        a, b = sigma * K, r * K
        want = a * np.sqrt(t) / SQRT_2PI + 0.5 * b * t
        assert price_call_closed(1, model, t, K, K) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("x,intrinsic", [(20.0, 5.0), (14.0, 0.0)])
    def test_short_time_monotone_approach_to_intrinsic(self, x, intrinsic):
        model = BSMModel(sigma=0.3, r=0.0)
        ts = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
        gaps = [abs(price_call_closed(2, model, t, 15.0, x) - intrinsic) for t in ts]
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + 1e-15

    def test_order_three_rejected(self):
        with pytest.raises(DomainError):
            price_call_closed(3, BSMModel(sigma=0.3), 0.1, 15.0, 15.0)
        with pytest.raises(DomainError):
            price_put(0, BSMModel(sigma=0.3), 0.1, 15.0, 15.0)

    def test_invalid_time_and_strike_rejected(self):
        model = BSMModel(sigma=0.3)
        with pytest.raises(DomainError):
            price_call_closed(1, model, 0.0, 15.0, 15.0)
        with pytest.raises(DomainError):
            price_call_closed(1, model, 0.1, -15.0, 15.0)

    @pytest.mark.parametrize("order, shown", [(True, "True"), (2.0, "2.0"), ("2", "'2'")])
    def test_order_must_be_an_integer(self, order, shown):
        # True == 1 and 2.0 == 2 used to price orders 1 and 2
        model, fly = BSMModel(sigma=0.3, r=0.1), ButterflyPayoff(14.0, 15.0, 16.0)
        for price in (lambda: price_call_closed(order, model, 0.1, 15.0, 16.0),
                      lambda: price_put(order, model, 0.1, 15.0, 16.0),
                      lambda: price_butterfly_closed(order, model, 0.1, fly, 16.0)):
            with pytest.raises(DomainError, match=f"^price order must be 1 or 2, got {shown}$"):
                price()

    def test_numpy_integer_order_is_its_int(self):
        model = BSMModel(sigma=0.3, r=0.1)
        for x in (16.0, np.array([14.0, 15.0, 16.0])):
            got = price_call_closed(np.int64(2), model, 0.1, 15.0, x)
            assert np.array_equal(got, price_call_closed(2, model, 0.1, 15.0, x))

    def test_each_fault_keeps_its_message_and_the_strike_comes_first(self):
        # a call or put invalid in two ways names its strike first, as the
        # CLI, which builds the payoff before it prices, always has
        model = BSMModel(sigma=0.3)
        for price in (price_call_closed, price_put):
            for order, t, K, message in ((3, 0.1, 15.0, "price order must be 1 or 2, got 3"),
                                         (1, 0.0, 15.0, "time must be positive and finite, got 0.0"),
                                         (1, 0.1, -15.0, "strike must be positive and finite, got -15.0"),
                                         (3, 0.0, -15.0, "strike must be positive and finite, got -15.0")):
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    price(order, model, t, K, 15.0)
        # a butterfly's strikes are checked when it is built, and order before time
        with pytest.raises(DomainError, match="^price order must be 1 or 2, got 3$"):
            price_butterfly_closed(3, model, 0.0, ButterflyPayoff(14.0, 15.0, 16.0), 15.0)

    def test_scalar_in_float_out(self):
        v = price_call_closed(2, BSMModel(sigma=0.3, r=0.1), 0.1, 15.0, 16.0)
        assert isinstance(v, float)

    def test_array_in_array_out(self):
        xs = np.array([14.0, 15.0, 16.0])
        v = price_call_closed(2, BSMModel(sigma=0.3, r=0.1), 0.1, 15.0, xs)
        assert isinstance(v, np.ndarray) and v.shape == xs.shape

    def test_positive_on_a_box(self):
        model = BSMModel(sigma=0.3, r=0.1)
        xs = np.linspace(5.0, 40.0, 141)
        for t in (0.01, 0.05, 0.1, 0.2, 0.5):
            vals = price_call_closed(1, model, t, 15.0, xs)
            assert np.min(vals) >= -1e-9


class TestPowerLawClosedForm:
    def test_unit_exponent_reduces_to_lognormal(self):
        t, K, sigma, r = 0.1, 15.0, 0.3, 0.1
        xs = np.array([10.0, 14.0, 15.0, 16.0, 25.0])
        got = price_call_closed(1, CEVModel(sigma=sigma, alpha=1.0, r=r), t, K, xs)
        want = price_call_closed(1, BSMModel(sigma=sigma, r=r), t, K, xs)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_at_the_money_driftless_value(self):
        t, K, sigma, alpha = 0.1, 15.0, 0.3, 2.0 / 3.0
        want = sigma * K**alpha * np.sqrt(t / (2.0 * np.pi))
        got = price_call_closed(1, CEVModel(sigma=sigma, alpha=alpha), t, K, K)
        assert got == pytest.approx(want, rel=1e-14)


class TestPutParity:
    def test_order_one_forward_is_exact(self):
        model = BSMModel(sigma=0.3, r=0.1)
        t, K = 0.2, 15.0
        xs = np.array([10.0, 14.0, 15.0, 17.0, 25.0])
        call = price_call_closed(1, model, t, K, xs)
        put = price_put(1, model, t, K, xs)
        forward = (xs - K) + model.jet(xs).b * t
        np.testing.assert_allclose(call - put, forward, rtol=0, atol=1e-13)

    def test_order_two_forward_includes_killing_term(self):
        model = BSMModel(sigma=0.3, r=0.1)
        t, K = 0.2, 15.0
        xs = np.array([10.0, 14.0, 15.0, 17.0, 25.0])
        call = price_call_closed(2, model, t, K, xs)
        put = price_put(2, model, t, K, xs)
        jet = model.jet(xs)
        m = xs - K
        forward = m + jet.b * t + jet.c * t * m
        np.testing.assert_allclose(call - put, forward, rtol=0, atol=1e-13)

    def test_deep_in_the_money_put(self):
        model = BSMModel(sigma=0.3, r=0.1)
        t, K, x = 0.1, 15.0, 2.0
        b = 0.1 * x
        assert price_put(1, model, t, K, x) == pytest.approx(K - x - b * t, abs=1e-9)

    def test_at_the_money_driftless_put_equals_call(self):
        model = BSMModel(sigma=0.3, r=0.0)
        for order in (1, 2):
            call = price_call_closed(order, model, 0.1, 15.0, 15.0)
            put = price_put(order, model, 0.1, 15.0, 15.0)
            assert put == pytest.approx(call, rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_put_matches_quadrature(self, order):
        model = BSMModel(sigma=0.3, r=0.1)
        t, K, x = 0.1, 15.0, 14.0
        spec = KernelSpec(model, order=order)
        grid = SpatialGrid.regular(60.0, 0.005)
        quad = price_quadrature(spec, t, PutPayoff(K), x, grid)
        assert price_put(order, model, t, K, x) == pytest.approx(quad, abs=1e-5)


class TestButterflyPricing:
    def test_closed_form_is_call_combination(self):
        model = BSMModel(sigma=0.3, r=0.1)
        payoff = ButterflyPayoff(15.0, 18.0, 25.0)
        t = 0.2
        xs = np.array([14.0, 18.0, 22.0])
        w1, w2, w3 = payoff.call_weights
        want = (w1 * price_call_closed(2, model, t, 15.0, xs)
                - w2 * price_call_closed(2, model, t, 18.0, xs)
                + w3 * price_call_closed(2, model, t, 25.0, xs))
        np.testing.assert_allclose(
            price_butterfly_closed(2, model, t, payoff, xs), want, rtol=1e-14
        )

    def test_closed_form_matches_quadrature(self):
        model = BSMModel(sigma=0.3, r=0.1)
        payoff = ButterflyPayoff(15.0, 20.0, 25.0)
        t, x = 0.1, 20.0
        spec = KernelSpec(model, order=2)
        grid = SpatialGrid.regular(80.0, 0.005)
        quad = price_quadrature(spec, t, payoff, x, grid)
        closed = price_butterfly_closed(2, model, t, payoff, x)
        assert closed == pytest.approx(quad, abs=1e-5)

    def test_a_payoff_without_a_closed_form_is_named(self):
        # the gate, not the payoff branch, rejects it: that branch prices
        # any payoff but a put or a butterfly as a call
        payoff = SampledPayoff(np.array([10.0, 20.0]), np.array([0.0, 1.0]))
        with pytest.raises(DomainError,
                           match="^closed-form pricing supports call, put and butterfly payoffs$"):
            price_butterfly_closed(2, BSMModel(sigma=0.3, r=0.1), 0.1, payoff, 15.0)


CLOSED_FORM_MODELS = [
    BSMModel(sigma=0.3, r=0.1),
    CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1),
    TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1),
]


class TestClosedFormIdentities:
    """Put and butterfly are exactly their parity and call combinations,
    whatever the shared jet and strike loop inside them."""

    SPOTS = [16.25, np.linspace(8.0, 30.0, 67)]

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("x", SPOTS, ids=["scalar", "array"])
    def test_put_is_call_minus_forward(self, model, order, x):
        t, K = 0.2, 17.5
        call = price_call_closed(order, model, t, K, x)
        jet = model.jet(x)
        m = x - K
        forward = m + jet.b * t
        if order == 2:
            forward = forward + jet.c * t * m
        assert np.array_equal(price_put(order, model, t, K, x), call - forward)

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("x", SPOTS, ids=["scalar", "array"])
    def test_butterfly_is_weighted_calls(self, model, order, x):
        t, payoff = 0.2, ButterflyPayoff(15.0, 18.0, 25.0)
        w1, w2, w3 = payoff.call_weights
        want = (w1 * price_call_closed(order, model, t, 15.0, x)
                - w2 * price_call_closed(order, model, t, 18.0, x)
                + w3 * price_call_closed(order, model, t, 25.0, x))
        assert np.array_equal(price_butterfly_closed(order, model, t, payoff, x), want)

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("order", [1, 2])
    def test_scalar_spot_gives_python_float(self, model, order):
        payoff = ButterflyPayoff(15.0, 18.0, 25.0)
        for value in (price_call_closed(order, model, 0.2, 17.5, 16.25),
                      price_put(order, model, 0.2, 17.5, 16.25),
                      price_butterfly_closed(order, model, 0.2, payoff, 16.25)):
            assert type(value) is float

    @pytest.mark.parametrize("rule, payoff, order, message", [
        (BasepointRule.AT_Y, "sampled", 0, "closed-form prices exist only for the z=x basepoint"),
        (BasepointRule.AT_X, "sampled", 0,
         "closed-form pricing supports call, put and butterfly payoffs"),
        (BasepointRule.AT_X, "call", 0, "price order must be 1 or 2, got 0"),
    ], ids=["rule", "payoff", "order"])
    def test_one_gate_names_the_first_fault_before_the_maturity(self, rule, payoff, order,
                                                                  message):
        payoff = {"sampled": SampledPayoff(np.array([10.0, 20.0]), np.array([0.0, 1.0])),
                  "call": CallPayoff(15.0)}[payoff]
        spec, grid = KernelSpec(BSMModel(sigma=0.3), order, rule), SpatialGrid(10.0, 20.0, 1.0)
        for price in (lambda: price_curve(spec, 0.0, payoff, grid, method="closed"),
                      lambda: _closed(order, spec.model, 0.0, payoff, 15.0, rule)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                price()

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("payoff", [CallPayoff(17.5), PutPayoff(17.5),
                                        ButterflyPayoff(15.0, 18.0, 25.0)],
                             ids=["call", "put", "butterfly"])
    def test_every_path_gives_the_same_bits_and_type(self, model, order, payoff):
        t, spec, grid = 0.2, KernelSpec(model, order), SpatialGrid(8.0, 30.0, 0.25)

        def public(x):
            if isinstance(payoff, ButterflyPayoff):
                return price_butterfly_closed(order, model, t, payoff, x)
            price = price_call_closed if isinstance(payoff, CallPayoff) else price_put
            return price(order, model, t, payoff.strike, x)

        for x, kind in ((16.25, float), (np.array(16.25), np.ndarray), (grid.nodes, np.ndarray)):
            want, got = public(x), _closed(spec.order, spec.model, t, payoff, x, spec.basepoint)
            assert type(want) is kind and type(got) is kind
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        values = price_curve(spec, t, payoff, grid, method="closed").values
        assert values.tobytes() == public(grid.nodes).tobytes()

    def test_gaussian_factor_is_zero_past_underflow(self):
        # x far from K at a tiny t: exp(-m^2/(2 a^2 t)) underflows, and the
        # price is exactly its intrinsic part
        model = BSMModel(sigma=0.3, r=0.0)
        for order in (1, 2):
            assert price_call_closed(order, model, 1e-6, 15.0, 30.0) == 15.0
            assert price_call_closed(order, model, 1e-6, 15.0, 3.0) == 0.0

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("spot", [1e-100, 1e-200])
    def test_tiny_spot_is_its_intrinsic_part(self, model, order, spot):
        # the width a sqrt(t) is below 1e-50: the Gaussian term is exactly 0,
        # though at order 2 its bracket overflows or is nan, and at 1e-200
        # s^2 underflows to 0 on BSM and TD-BSM
        t, K, payoff = 0.1, 15.0, ButterflyPayoff(14.0, 15.0, 16.0)
        for x in (spot, np.array([spot, 16.0])):
            call = price_call_closed(order, model, t, K, x)
            put = price_put(order, model, t, K, x)
            fly = price_butterfly_closed(order, model, t, payoff, x)
            assert np.all(np.isfinite([call, put, fly]))
            jet, m = model.jet(spot), spot - K
            forward = m + jet.b * t + (jet.c * t * m if order == 2 else 0.0)
            assert (np.atleast_1d(call)[0], np.atleast_1d(fly)[0]) == (0.0, 0.0)
            assert np.atleast_1d(put)[0] == -forward


class TestClosedFormJetLifetime:
    """A closed form's jet dies with _calls, before its calls combine; only a
    put keeps it, for the forward.  Which temporaries outlive a 10k-spot
    quote decides whether glibc trims and re-faults the heap after it."""

    @staticmethod
    def _memory_after_calls(price) -> int:
        """The most traced memory at any line of pricing run after _calls returns."""
        seen, returned = [0], []

        def trace(frame, event, arg):
            code = frame.f_code
            if event == "return" and code is _calls.__code__:
                returned.append(True)
            elif event == "line" and returned and code.co_filename == _calls.__code__.co_filename:
                seen.append(tracemalloc.get_traced_memory()[0])
            return trace

        previous = sys.gettrace()
        tracemalloc.start()
        sys.settrace(trace)
        try:
            price()
        finally:
            sys.settrace(previous)
            tracemalloc.stop()
        return max(seen)

    @pytest.mark.parametrize("kind, arrays", [("call", 1.5), ("butterfly", 4.5)])
    def test_jet_dies_with_calls(self, kind, arrays):
        # past _calls a call holds its value (1.1 spot arrays) and a butterfly
        # its three calls and their sum (4.0); a CEV jet alive there adds 7
        model, x = CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1), np.linspace(5.0, 30.0, 10_000)
        fly = ButterflyPayoff(14.0, 15.0, 16.0)
        price = {"call": lambda: price_call_closed(2, model, 0.25, 15.0, x),
                 "butterfly": lambda: price_butterfly_closed(2, model, 0.25, fly, x)}[kind]
        price()  # 10k spots load scipy.special here, outside the trace
        assert self._memory_after_calls(price) <= arrays * x.size * 8


class TestClosedFormIsKernelMoment:
    """The closed-form call is the kernel's Gaussian moment: adaptive
    quadrature of kernel_eval(y) (y - K) over [K, x + 40 s], s = a(x) sqrt(t),
    agrees to 1e-12, so a slip in the moment identity (the He_{k-2} shift, a
    bracket term, the forward) cannot hide behind the 1e-5 of the
    grid-quadrature checks."""

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("t", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("x", [12.0, 15.0, 17.5, 22.0])
    def test_call_is_kernel_moment(self, model, order, t, x):
        K = 15.0
        spec = KernelSpec(model, order=order)
        s = model.jet(x).a * math.sqrt(t)
        upper = x + 40.0 * s
        points = [p for p in (x - s, x, x + s) if K < p < upper]
        moment, _ = quad(lambda y: kernel_eval(spec, t, x, y) * (y - K), K, upper,
                         points=points, epsabs=1e-14, limit=200)
        assert abs(moment - price_call_closed(order, model, t, K, x)) <= 1e-12


class TestQuadrature:
    def test_spot_kinds_follow_the_closed_forms(self):
        # an ndarray in, an ndarray out, empty, 0-d or not; a number in, a float out
        model = BSMModel(sigma=0.3, r=0.1)
        spec, grid = KernelSpec(model, order=2), SpatialGrid(1.0, 40.0, 0.05)
        quadrature = lambda t, x: price_quadrature(spec, t, CallPayoff(15.0), x, grid)
        for price in (quadrature, lambda t, x: price_call_closed(2, model, t, 15.0, x)):
            with pytest.raises(DomainError, match=r"^x must be a number, got \[15\.0, 16\.0\]$"):
                price(0.1, [15.0, 16.0])
            assert type(price(0.1, 15.0)) is float
            empty, zero_d = price(0.1, np.array([])), price(0.1, np.array(15.0))
            assert type(empty) is np.ndarray and empty.shape == (0,)
            assert type(zero_d) is np.ndarray and zero_d.shape == ()
            assert zero_d.tobytes() == np.float64(price(0.1, 15.0)).tobytes()
            assert all(type(g) is float for g in greeks(price, 0.1, 15.0, 0.01))
            assert all(g.shape == () for g in greeks(price, 0.1, np.array(15.0), 0.01))
        with pytest.raises(DomainError, match=r"^x must be a number, got \[15\.0, 16\.0\]$"):
            greeks(quadrature, 0.1, [15.0, 16.0], 0.01)
        _, gamma = greeks(quadrature, 0.1, np.array([15.0, 16.0]), 0.01)
        each = [greeks(quadrature, 0.1, x, 0.01)[1] for x in (15.0, 16.0)]
        np.testing.assert_allclose(gamma, each, rtol=1e-9)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), ()], ids=["1x2", "2x3", "0-d"])
    def test_nd_spots_are_the_flat_spots_reshaped(self, shape):
        model = BSMModel(sigma=0.3, r=0.1)
        spec, grid = KernelSpec(model, order=2), SpatialGrid(1.0, 40.0, 0.05)
        x = np.linspace(14.0, 16.0, math.prod(shape)).reshape(shape)
        values = price_quadrature(spec, 0.1, CallPayoff(15.0), x, grid)
        flat = price_quadrature(spec, 0.1, CallPayoff(15.0), x.ravel(), grid)
        assert type(values) is np.ndarray and values.shape == shape
        assert np.shape(price_call_closed(2, model, 0.1, 15.0, x)) == shape
        assert values.tobytes() == flat.tobytes()

    @pytest.mark.parametrize("spot", [True, np.True_, np.array([True, False])],
                             ids=["bool", "numpy-bool", "bool-array"])
    def test_a_bool_spot_is_rejected(self, spot):
        # float() reads True as a spot of 1
        spec, grid = KernelSpec(BSMModel(sigma=0.3)), SpatialGrid(1.0, 40.0, 0.05)
        for price in (lambda: price_quadrature(spec, 0.1, CallPayoff(15.0), spot, grid),
                      lambda: price_call_closed(2, spec.model, 0.1, 15.0, spot),
                      lambda: price_put(2, spec.model, 0.1, 15.0, spot)):
            with pytest.raises(DomainError, match=rf"^x must be a number, got {re.escape(repr(spot))}$"):
                price()

    def test_order_zero_mass_through_flat_payoff(self):
        model = BSMModel(sigma=0.3, r=0.1)
        spec = KernelSpec(model, order=0)
        grid = SpatialGrid.regular(40.0, 0.01)
        flat = SampledPayoff(np.array([0.005, 40.0]), np.array([1.0, 1.0]))
        assert price_quadrature(spec, 0.1, flat, 15.0, grid) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_matches_closed_form(self):
        # x_min = 0.02 puts the payoff kink at K = 15 on a Simpson panel
        # boundary, so the quadrature error is pure truncation; on the half
        # grid of the self-check the kink falls inside a panel, which reads a
        # defect of 1.7e-05 and warns
        model = BSMModel(sigma=0.3, r=0.1)
        t, K, x = 0.1, 15.0, 15.0
        spec = KernelSpec(model, order=1)
        grid = SpatialGrid(0.02, 200.0, 0.01)
        with pytest.warns(GridTooCoarseWarning, match="coarse-grid defect"):
            quad = price_quadrature(spec, t, CallPayoff(K), x, grid)
        assert quad == pytest.approx(price_call_closed(1, model, t, K, x), abs=1e-6)

    def test_coarse_grid_warns(self):
        model = BSMModel(sigma=0.3, r=0.1)
        spec = KernelSpec(model, order=1)
        grid = SpatialGrid.regular(42.0, 2.0)
        with pytest.warns(GridTooCoarseWarning):
            price_quadrature(spec, 0.1, CallPayoff(15.0), 15.0, grid)

    def test_fine_grid_does_not_warn(self):
        model = BSMModel(sigma=0.3, r=0.1)
        spec = KernelSpec(model, order=1)
        grid = SpatialGrid.regular(40.0, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridTooCoarseWarning)
            price_quadrature(spec, 0.1, CallPayoff(15.0), 15.0, grid)

    @pytest.mark.parametrize("price", [
        lambda spec, grid: price_curve(spec, 0.1, CallPayoff(15.0), grid, method="quadrature"),
        lambda spec, grid: price_quadrature(spec, 0.1, CallPayoff(15.0), grid.nodes, grid),
    ], ids=["price_curve", "price_quadrature"])
    def test_coarse_grid_warning_names_the_caller(self, price):
        spec = KernelSpec(BSMModel(sigma=0.3), order=0)
        with pytest.warns(GridTooCoarseWarning) as record:
            price(spec, SpatialGrid(10.0, 20.0, 0.1))
        # the coarse-grid defect, and the call's payoff dropped past x = 20
        assert [w.filename for w in record] == [__file__, __file__]

    def test_warns_when_the_payoff_past_the_grid_is_dropped(self):
        # the call's payoff past x = 20 is dropped: 2.29 and 1.70 at x = 18
        # and 20, where the closed form gives 3.16 and 5.15
        spec, x = KernelSpec(BSMModel(sigma=0.3, r=0.1), order=2), np.array([18.0, 20.0])
        with pytest.warns(GridTooCoarseWarning, match="drops the payoff") as record:
            price_quadrature(spec, 0.1, CallPayoff(15.0), x, SpatialGrid(10.0, 20.0, 0.05))
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridTooCoarseWarning)
            price_quadrature(spec, 0.1, CallPayoff(15.0), x, SpatialGrid(1.0, 40.0, 0.05))

    @pytest.mark.parametrize("rule, dropped", [
        pytest.param(BasepointRule.AT_X, 1.30e-7, marks=pytest.mark.xfail(strict=True, reason=(
            "six widths bound the Gaussian's mass, not the order-2 series' fatter tail times "
            "the payoff: z = x drops 1.3e-7 past 40 unwarned"))),
        (BasepointRule.AT_Y, 3.32e-6), (BasepointRule.MIDPOINT, 2.76e-7)])
    def test_past_the_grid_is_measured_at_the_basepoint(self, rule, dropped):
        # next to x = 40 the kernel at spot 33.8 is frozen at z(33.8, 40), wider
        # at z = y and the midpoint than the a(33.8) sqrt(t) of z = x: six of
        # a(33.8) stop short of 40, six of a(z) reach past it
        spec = KernelSpec(BSMModel(sigma=0.3, r=0.1), 2, rule)
        price = lambda x_max: price_quadrature(spec, 0.01, CallPayoff(15.0), 33.8,
                                               SpatialGrid(1.0, x_max, 0.01))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always", GridTooCoarseWarning)
            short = price(40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridTooCoarseWarning)
            assert price(45.0) - short == pytest.approx(dropped, rel=0.01)
        assert [str(w.message) for w in record] == [
            "a kernel reaches past the grid [1, 40], where the payoff is not 0: quadrature "
            "drops the payoff beyond"]

    def test_block_is_evaluated_in_row_chunks(self):
        # evaluated whole, the midpoint rule's block-sized temporaries peak at
        # 27 blocks; 64 rows at a time at 2.0, the budget's 40 rows at 1.3,
        # and kernel_matrix, which keeps its block, at 3.2
        grid = SpatialGrid.regular(40.0, 0.05)
        spec = KernelSpec(CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1), 2, BasepointRule.MIDPOINT)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            tracemalloc.start()
            try:
                price_curve(spec, 0.1, CallPayoff(15.0), grid, method="quadrature")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 6 * grid.n_nodes**2 * 8

    def test_scalar_and_array_returns(self):
        model = BSMModel(sigma=0.3, r=0.1)
        spec = KernelSpec(model, order=1)
        grid = SpatialGrid.regular(40.0, 0.05)
        scalar = price_quadrature(spec, 0.1, CallPayoff(15.0), 15.0, grid)
        assert type(scalar) is float
        arr = price_quadrature(spec, 0.1, CallPayoff(15.0), np.array([14.0, 15.0]), grid)
        assert isinstance(arr, np.ndarray) and arr.shape == (2,)

    def test_closed_matches_quadrature_randomized(self):
        # strikes are snapped to odd multiples of dx so the payoff kink sits
        # on a Simpson panel boundary and the quadrature stays fourth order
        rng = np.random.default_rng(514229)
        for k in range(100):
            sigma = rng.uniform(0.15, 0.5)
            r = rng.uniform(0.0, 0.15)
            t = rng.uniform(0.02, 0.5)
            K = 0.01 * int(round(rng.uniform(8.0, 25.0) * 100)) + 0.005
            x = rng.uniform(0.6 * K, 1.7 * K)
            if k % 2 == 0:
                model = BSMModel(sigma=sigma, r=r)
            else:
                model = CEVModel(sigma=sigma, alpha=rng.uniform(0.5, 1.0), r=r)
            order = 1 + k % 2
            grid = SpatialGrid.regular(float(math.ceil(20.0 * K)), 0.005)
            spec = KernelSpec(model, order=order)
            closed = price_call_closed(order, model, t, K, x)
            quad = price_quadrature(spec, t, CallPayoff(K), x, grid)
            assert closed == pytest.approx(quad, abs=1e-5 * (1.0 + abs(closed))), (
                f"draw {k}: model={model}, order={order}, t={t}, K={K}, x={x}"
            )


class TestPriceCurve:
    def test_closed_and_quadrature_methods_agree(self):
        model = BSMModel(sigma=0.3, r=0.1)
        spec = KernelSpec(model, order=2)
        grid = SpatialGrid.regular(60.0, 0.05)
        closed = price_curve(spec, 0.1, CallPayoff(15.0), grid, method="closed")
        mask = (grid.nodes > 5.0) & (grid.nodes < 30.0)
        quad = price_curve(spec, 0.1, CallPayoff(15.0), grid)
        assert np.max(np.abs(closed.values[mask] - quad.values[mask])) < 5e-4

    def test_unknown_method_rejected(self):
        spec = KernelSpec(BSMModel(sigma=0.3), order=1)
        grid = SpatialGrid.regular(10.0, 0.5)
        with pytest.raises(DomainError):
            price_curve(spec, 0.1, CallPayoff(5.0), grid, method="magic")

    def test_closed_requires_diagonal_basepoint(self):
        spec = KernelSpec(BSMModel(sigma=0.3), order=1, basepoint=BasepointRule.AT_Y)
        grid = SpatialGrid.regular(10.0, 0.5)
        with pytest.raises(DomainError):
            price_curve(spec, 0.1, CallPayoff(5.0), grid, method="closed")

    def test_closed_requires_vanilla_payoff(self):
        spec = KernelSpec(BSMModel(sigma=0.3), order=1)
        grid = SpatialGrid.regular(10.0, 0.5)
        with pytest.raises(DomainError):
            price_curve(spec, 0.1, OnePayoff(), grid, method="closed")


class TestGreeks:
    def test_linear_function(self):
        delta, gamma = greeks(lambda t, x: 3.0 * np.asarray(x) + 1.0, 0.1, 5.0, 0.25)
        assert delta == pytest.approx(3.0, abs=1e-12)
        assert gamma == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_function(self):
        delta, gamma = greeks(lambda t, x: np.asarray(x) ** 2, 0.1, 5.0, 0.1)
        assert delta == pytest.approx(10.0, abs=1e-10)
        assert gamma == pytest.approx(2.0, abs=1e-9)

    def test_validation(self):
        fn = lambda t, x: np.asarray(x)
        with pytest.raises(DomainError):
            greeks(fn, 0.1, 5.0, 0.0)
        with pytest.raises(DomainError):
            greeks(fn, 0.1, 15.0, float("nan"))
        with pytest.raises(DomainError):
            greeks(fn, 0.1, 0.05, 0.1)

    def test_call_delta_close_to_lognormal_delta(self):
        sigma, r, t, K = 0.5, 0.1, 0.5, 20.0
        model = BSMModel(sigma=sigma, r=r)
        xs = np.arange(5.0, 35.0 + 1e-9, 0.5)
        fn = lambda tt, xx: price_call_closed(2, model, tt, K, xx)
        delta, _ = greeks(fn, t, xs, 0.1)
        exact = bs_delta(t, K, xs, sigma, r)
        assert np.max(np.abs(delta - exact)) <= 2e-2

    def test_curve_greeks_match_pointwise_greeks(self):
        model = BSMModel(sigma=0.3, r=0.1)
        t, K = 0.2, 15.0
        grid = SpatialGrid.regular(30.0, 0.1)
        curve = price_curve(KernelSpec(model, order=2), t, CallPayoff(K), grid,
                            method="closed")
        x_in, delta, gamma = curve_greeks(curve)
        fn = lambda tt, xx: price_call_closed(2, model, tt, K, xx)
        d_ref, g_ref = greeks(fn, t, x_in, grid.dx)
        np.testing.assert_allclose(delta, d_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(gamma, g_ref, rtol=0, atol=1e-8)
        assert len(x_in) == grid.n_nodes - 2

    def test_curve_greeks_need_three_samples(self):
        from lvkernel import PriceCurve

        curve = PriceCurve(np.array([1.0, 2.0]), np.array([0.5, 0.7]))
        with pytest.raises(DomainError):
            curve_greeks(curve)

    def test_curve_greeks_need_even_spacing(self):
        # differenced at x[1] - x[0], u = x^2 on these nodes would read delta
        # [7.5, 30] and gamma [9, 36], where the true values are [4, 8] and 2
        from lvkernel import PriceCurve

        x = np.array([1.0, 2.0, 4.0, 8.0])
        with pytest.raises(DomainError, match="^curve Greeks need evenly spaced samples$"):
            curve_greeks(PriceCurve(x, x * x))
