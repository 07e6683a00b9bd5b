"""Reference pricers: exact lognormal formulas, the Hagan-Woodward equivalent
volatility, and the Crank-Nicolson finite-difference solver."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import erf, ndtr

from conftest import GaussianPayoff, OnePayoff, ZeroPayoff, constant_coefficient_model
from lvkernel import (
    BSMModel,
    CallPayoff,
    CEVModel,
    CNConfig,
    CoefficientJet,
    CustomModel,
    DomainError,
    PutPayoff,
    SingularMatrix,
    SpatialGrid,
    TimeDependentBSMModel,
    bs_delta,
    bs_exact,
    bs_gamma,
    bs_kernel,
    cn_solve,
    hagan_woodward_price,
    hagan_woodward_vol,
)
import lvkernel
from lvkernel.oracles import _norm_cdf, _norm_pdf, _reference


def _cdf_probes() -> np.ndarray:
    """Phi's probe points: both sides of each branch edge of the scalar Cephes
    transcription, |x|/sqrt(2) = 1/sqrt(2), 1 and 8, and x^2/2 = MAXLOG, a dense
    line over [-40, 40], signed zeros, infinities, NaN and subnormals."""
    edges = [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 7.09782712893383996843e2)]
    near = [e + k * np.spacing(e) for e in edges for k in range(-50, 51)]
    near += [e * (1.0 + f) for e in edges for f in np.linspace(-1e-3, 1e-3, 2001)]
    return np.concatenate([np.linspace(-40.0, 40.0, 160001), near, np.negative(near),
                           [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310]])


def _fresh(code: str, *args) -> str:
    """The stdout of `python -c code *args` in a fresh process that imports this lvkernel."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lvkernel.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestNormalFunctions:
    def test_cdf_against_erf(self):
        xs = np.linspace(-8.0, 8.0, 161)
        want = 0.5 * (1.0 + erf(xs / np.sqrt(2.0)))
        np.testing.assert_allclose(_norm_cdf(xs), want, rtol=0, atol=1e-15)

    def test_scalar_cdf_is_ndtr_bit_for_bit(self):
        xs = _cdf_probes()
        want = ndtr(xs)
        as_float = np.array([_norm_cdf(float(x)) for x in xs])
        as_float64 = np.array([_norm_cdf(x) for x in xs])  # iterating yields np.float64
        assert np.array_equal(as_float, want, equal_nan=True)
        assert np.array_equal(as_float64, want, equal_nan=True)

    def test_short_array_loop_is_ndtr_bit_for_bit(self, tmp_path):
        # this module loads scipy.special, so the loop runs in a fresh process
        grid = np.linspace(-9.0, 9.0, 1025)
        cases = {"probes": _cdf_probes(), "zero_d": np.array(0.3), "empty": np.empty((0, 4)),
                 "two_d": grid[:1024].reshape(32, 32), "strided": grid[::3],
                 "view_2d": grid[:1000].reshape(20, 50)[::2, 1::3].T, "n1024": grid[:1024]}
        np.savez(tmp_path / "in.npz", **cases)
        code = (
            "import sys; import numpy as np; from lvkernel import pricing\n"
            "cases = dict(np.load(sys.argv[1]))\n"
            "xs = cases.pop('probes')\n"
            "out = {k: pricing._norm_cdf(v) for k, v in cases.items()}\n"
            "out['probes'] = np.concatenate([pricing._norm_cdf(xs[i:i + 1024])\n"
            "                                for i in range(0, xs.size, 1024)])\n"
            "print(type(out['zero_d']).__name__, 'scipy.special' in sys.modules)\n"
            "out['n1025'] = pricing._norm_cdf(np.linspace(-9.0, 9.0, 1025))\n"
            "import scipy.special\n"
            "print(pricing._ndtr is scipy.special.ndtr)\n"
            "np.savez(sys.argv[2], **out)\n")
        assert _fresh(code, tmp_path / "in.npz", tmp_path / "out.npz") == "float64 False\nTrue\n"
        got = np.load(tmp_path / "out.npz")
        for name, x in dict(cases, n1025=grid).items():
            assert got[name].shape == x.shape and got[name].dtype == np.float64, name
            assert np.array_equal(got[name], ndtr(x), equal_nan=True), name

    @pytest.mark.parametrize("setup", [
        "import scipy.special; x = np.linspace(-3.0, 3.0, 64)",
        "x = np.linspace(-3.0, 3.0, 64, dtype=np.float32)",
        "x = np.arange(-32, 32)",
    ], ids=["scipy-loaded", "float32", "int64"])
    def test_array_goes_to_ndtr(self, setup):
        # once scipy.special is loaded, or for any array but float64, Phi binds ndtr
        code = (f"import sys; import numpy as np; from lvkernel import pricing; {setup}; "
                "out = pricing._norm_cdf(x); from scipy.special import ndtr; "
                "print(pricing._ndtr is ndtr, np.array_equal(out, ndtr(x)))")
        assert _fresh(code) == "True True\n"

    def test_pdf_values(self):
        assert _norm_pdf(0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-15)
        assert _norm_pdf(1.0) == pytest.approx(0.24197072451914337, rel=1e-14)


class TestExactLognormal:
    def test_tiny_strike_gives_spot(self):
        assert bs_exact(0.5, 1e-10, 15.0, 0.3, 0.0) == pytest.approx(15.0, rel=1e-9)

    def test_small_vol_at_the_money_expansion(self):
        # ATM price ~ x sigma sqrt(t) / sqrt(2 pi) for small total volatility
        t, K, sigma = 0.01, 15.0, 0.01
        want = K * sigma * np.sqrt(t) / np.sqrt(2.0 * np.pi)
        assert bs_exact(t, K, K, sigma, 0.0) == pytest.approx(want, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bs_exact(0.0, 15.0, 15.0, 0.3)
        with pytest.raises(DomainError):
            bs_exact(0.1, -1.0, 15.0, 0.3)
        with pytest.raises(DomainError):
            bs_exact(0.1, 15.0, 15.0, 0.0)
        with pytest.raises(DomainError):
            bs_exact(0.1, 15.0, -15.0, 0.3)

    def test_delta_and_gamma_match_finite_differences(self):
        t, K, sigma, r = 0.5, 20.0, 0.4, 0.07
        xs = np.array([12.0, 18.0, 20.0, 23.0, 30.0])
        h = 1e-4 * xs
        fd_delta = (bs_exact(t, K, xs + h, sigma, r) - bs_exact(t, K, xs - h, sigma, r)) / (2 * h)
        fd_gamma = (
            bs_exact(t, K, xs + h, sigma, r)
            + bs_exact(t, K, xs - h, sigma, r)
            - 2.0 * bs_exact(t, K, xs, sigma, r)
        ) / h**2
        np.testing.assert_allclose(bs_delta(t, K, xs, sigma, r), fd_delta, rtol=1e-6)
        np.testing.assert_allclose(bs_gamma(t, K, xs, sigma, r), fd_gamma, rtol=1e-4)

    def test_scalar_and_array_returns(self):
        for oracle in (bs_exact, bs_delta, bs_gamma):
            assert type(oracle(0.1, 15.0, 15.0, 0.3)) is float
            out = oracle(0.1, 15.0, np.array([14.0, 16.0]), 0.3)
            assert isinstance(out, np.ndarray) and out.shape == (2,)
            zero_d = oracle(0.1, 15.0, np.array(15.0), 0.3)
            assert type(zero_d) is np.ndarray and zero_d.shape == ()
            assert zero_d.tobytes() == np.float64(oracle(0.1, 15.0, 15.0, 0.3)).tobytes()

    @pytest.mark.parametrize("oracle", [bs_exact, bs_delta, bs_gamma])
    @pytest.mark.parametrize("sigma", [np.array([True]), np.array(["0.3"])], ids=["bool", "str"])
    def test_an_array_sigma_takes_the_spot_rule(self, oracle, sigma):
        # a bool array priced at sigma = 1, and a str array raised a bare UFuncTypeError
        with pytest.raises(DomainError, match=r"^sigma must be a number, got array\(\["):
            oracle(0.1, 15.0, np.array([15.0]), sigma)

    @pytest.mark.parametrize("oracle", [bs_exact, bs_delta, bs_gamma])
    def test_an_array_sigma_at_one_spot_is_an_ndarray(self, oracle):
        # the result rule reads sigma as well as x: this raised a bare TypeError
        out = oracle(0.1, 15.0, 15.0, np.array([0.3, 0.4]))
        assert type(out) is np.ndarray
        assert out.tobytes() == np.array([oracle(0.1, 15.0, 15.0, s) for s in (0.3, 0.4)]).tobytes()


class TestLognormalKernel:
    def test_mass_is_discount_factor(self):
        t, x, sigma, r = 0.2, 15.0, 0.3, 0.1
        ys = np.linspace(2.0, 80.0, 8001)
        mass = simpson(bs_kernel(t, x, ys, sigma, r), x=ys)
        assert mass == pytest.approx(np.exp(-r * t), abs=1e-7)

    def test_prices_calls_exactly(self):
        t, x, K, sigma, r = 0.2, 15.0, 14.0, 0.3, 0.1
        # dy = 0.01 keeps the payoff kink at K on a Simpson panel boundary
        ys = np.linspace(2.0, 80.0, 7801)
        price = simpson(bs_kernel(t, x, ys, sigma, r) * np.maximum(ys - K, 0.0), x=ys)
        assert price == pytest.approx(bs_exact(t, K, x, sigma, r), abs=1e-7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bs_kernel(0.0, 15.0, 14.0, 0.3)
        with pytest.raises(DomainError):
            bs_kernel(0.1, 15.0, -1.0, 0.3)


class TestHaganWoodward:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5])
    def test_beta_outside_open_interval_rejected(self, beta):
        with pytest.raises(DomainError):
            hagan_woodward_vol(0.3, 20.0, 20.0, 0.3, beta, 0.1)

    def test_zero_rate_limit_is_removable(self):
        args = (0.3, 20.0, 21.0, 0.3, 2.0 / 3.0)
        assert hagan_woodward_vol(*args, 1e-10) == pytest.approx(
            hagan_woodward_vol(*args, 0.0), rel=1e-8
        )

    def test_beta_near_one_recovers_lognormal_vol(self):
        vol = hagan_woodward_vol(0.3, 20.0, 20.0, 0.3, 1.0 - 1e-9, 0.0)
        assert vol == pytest.approx(0.3, rel=1e-6)

    def test_forward_at_the_money_drops_middle_term(self):
        t, s0, sigma, beta, r = 0.4, 20.0, 0.35, 0.7, 0.08
        K = np.exp(r * t) * s0
        u = 2.0 * r * (1.0 - beta) * t
        a = sigma * np.sqrt(np.expm1(u) / u)
        f = (np.exp(r * t) * s0 + K) / 2.0
        omb = 1.0 - beta
        want = a / f**omb * (1.0 + omb**2 * a * a * t / (24.0 * f ** (2.0 * omb)))
        assert hagan_woodward_vol(t, K, s0, sigma, beta, r) == pytest.approx(
            want, rel=1e-14
        )

    def test_full_formula_transcription(self):
        t, K, s0, sigma, beta, r = 0.5, 18.0, 21.0, 0.35, 0.7, 0.08
        u = 2.0 * r * (1.0 - beta) * t
        a = sigma * np.sqrt(np.expm1(u) / u)
        fwd = np.exp(r * t) * s0
        f = (fwd + K) / 2.0
        omb = 1.0 - beta
        want = a / f**omb * (
            1.0
            + omb * (2.0 + beta) / 24.0 * ((fwd - K) / f) ** 2
            + omb * omb * a * a * t / (24.0 * f ** (2.0 * omb))
        )
        assert hagan_woodward_vol(t, K, s0, sigma, beta, r) == pytest.approx(
            want, rel=1e-14
        )

    def test_pinned_value(self):
        vol = hagan_woodward_vol(0.3, 20.0, 20.0, 0.3, 2.0 / 3.0, 0.1)
        assert vol == pytest.approx(0.1105232798, abs=1e-8)

    def test_price_is_lognormal_at_equivalent_vol(self):
        t, K, s0, sigma, beta, r = 0.3, 15.0, 16.0, 0.3, 2.0 / 3.0, 0.1
        vol = hagan_woodward_vol(t, K, s0, sigma, beta, r)
        assert hagan_woodward_price(t, K, s0, sigma, beta, r) == pytest.approx(
            bs_exact(t, K, s0, vol, r), rel=1e-14
        )

    def test_array_handling(self):
        s0 = np.array([14.0, 15.0, 16.0])
        vol = hagan_woodward_vol(0.3, 15.0, s0, 0.3, 2.0 / 3.0, 0.1)
        price = hagan_woodward_price(0.3, 15.0, s0, 0.3, 2.0 / 3.0, 0.1)
        assert isinstance(vol, np.ndarray) and vol.shape == (3,)
        assert isinstance(price, np.ndarray) and price.shape == (3,)
        for i, s in enumerate(s0):
            assert price[i] == pytest.approx(
                hagan_woodward_price(0.3, 15.0, float(s), 0.3, 2.0 / 3.0, 0.1),
                rel=1e-14,
            )

    def test_array_equals_per_spot_bs_exact(self):
        # the scalar loop the vectorized price replaced, kept as its reference;
        # the volatilities come from one array call, since NumPy's vector pow
        # can differ from the scalar one in the last bit
        s0 = np.linspace(12.0, 18.0, 200)
        for t in (0.05, 0.3):
            vol = hagan_woodward_vol(t, 15.0, s0, 0.3, 2.0 / 3.0, 0.1)
            loop = [bs_exact(t, 15.0, float(s), float(v), 0.1) for s, v in zip(s0, vol)]
            assert np.array_equal(hagan_woodward_price(t, 15.0, s0, 0.3, 2.0 / 3.0, 0.1), loop)

    def test_agrees_with_pde_solver_near_strike(self):
        sigma, alpha, r, t, K = 0.3, 2.0 / 3.0, 0.1, 0.3, 15.0
        grid = SpatialGrid.regular(30.0, 0.1)
        curve = cn_solve(
            CEVModel(sigma=sigma, alpha=alpha, r=r),
            CNConfig(grid, dt=5e-4, t_total=t),
            CallPayoff(K),
        )
        xs = grid.nodes
        w = (xs >= 13.0) & (xs <= 17.0)
        hw = hagan_woodward_price(t, K, xs[w], sigma, alpha, r)
        assert np.max(np.abs(hw - curve.values[w])) < 1e-2


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInputs:
    """A NaN or infinite input raises instead of pricing to NaN or to a
    limit (an infinite rate made bs_exact return the spot)."""

    CASES = {
        "bs_exact-inf-r": lambda: bs_exact(0.1, 15.0, 16.0, 0.3, INF),
        "bs_exact-nan-t": lambda: bs_exact(NAN, 15.0, 16.0, 0.3, 0.1),
        "bs_exact-nan-K": lambda: bs_exact(0.1, NAN, 16.0, 0.3, 0.1),
        "bs_exact-nan-sigma": lambda: bs_exact(0.1, 15.0, 16.0, NAN, 0.1),
        "bs_exact-inf-sigma-array": lambda: bs_exact(0.1, 15.0, np.array([16.0, 17.0]),
                                                     np.array([0.3, INF])),
        "bs_delta-nan-t": lambda: bs_delta(NAN, 15.0, 16.0, 0.3, 0.1),
        "bs_gamma-nan-sigma": lambda: bs_gamma(0.1, 15.0, 16.0, NAN, 0.1),
        "bs_kernel-nan-t": lambda: bs_kernel(NAN, 15.0, 14.0, 0.3, 0.1),
        "bs_kernel-nan-sigma": lambda: bs_kernel(0.1, 15.0, 14.0, NAN, 0.1),
        "bs_kernel-inf-x": lambda: bs_kernel(0.1, INF, 14.0, 0.3, 0.1),
        "hagan_woodward-nan-t": lambda: hagan_woodward_price(NAN, 15.0, 16.0, 0.3, 0.5),
        "hagan_woodward-inf-r": lambda: hagan_woodward_price(0.1, 15.0, 16.0, 0.3, 0.5, INF),
        # a NaN spot or node passes a "<= 0" positivity check
        "bs_exact-nan-x": lambda: bs_exact(0.1, 15.0, NAN, 0.3),
        "bs_delta-nan-x-array": lambda: bs_delta(0.1, 15.0, np.array([16.0, NAN]), 0.3),
        "bs_gamma-nan-x": lambda: bs_gamma(0.1, 15.0, NAN, 0.3),
        "bs_kernel-nan-y": lambda: bs_kernel(0.1, 15.0, NAN, 0.3),
        "hagan_woodward_vol-nan-s0": lambda: hagan_woodward_vol(0.1, 15.0, NAN, 0.3, 0.667),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_domain_error(self, case):
        with pytest.raises(DomainError):
            self.CASES[case]()


class TestReference:
    """oracles._reference, the one oracle resolver of the CLI and the error
    tables: every misfit raises before anything is solved."""

    GRID = SpatialGrid.regular(30.0, 0.5)
    CEV = CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1)

    BSM = BSMModel(sigma=0.3, r=0.1)

    @pytest.mark.parametrize("name, model, payoff, grid, message", [
        ("hagan-woodward", CEV, PutPayoff(15.0), GRID,
         "the hagan-woodward oracle compares call payoffs only"),
        ("hagan-woodward", BSM, CallPayoff(15.0), GRID,
         "the hagan-woodward oracle needs a 'cev' model"),
        # hagan_woodward_vol needs beta < 1
        ("hagan-woodward", CEVModel(sigma=0.3, alpha=1.0, r=0.1), CallPayoff(15.0), GRID,
         "the hagan-woodward oracle needs a 'cev' alpha below 1"),
        ("bs-exact", CEV, CallPayoff(15.0), GRID,
         "the bs-exact oracle needs a 'bsm' or 'tdbsm' model"),
        ("bs-exact", BSM, PutPayoff(15.0), GRID, "the bs-exact oracle compares call payoffs only"),
        # cn_solve needs 4 nodes
        ("cn", BSM, CallPayoff(15.0), SpatialGrid(12.0, 14.0, 1.0),
         "the cn oracle needs a grid of at least 4 nodes"),
        ("monte-carlo", CEV, CallPayoff(15.0), GRID, "unknown oracle 'monte-carlo'"),
    ], ids=["hagan-woodward-put", "hagan-woodward-bsm", "hagan-woodward-alpha-one",
            "bs-exact-cev", "bs-exact-put", "cn-three-nodes", "unknown"])
    def test_misfit_raises(self, name, model, payoff, grid, message):
        with pytest.raises(DomainError) as info:
            _reference(name, model, payoff, grid)
        assert str(info.value) == message

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_cn_converges_onto_bs_exact_for_tdbsm(self, t):
        # TD-BSM is lognormal with a deterministic volatility: bs-exact prices
        # it at the mean variance, and Crank-Nicolson reaches it at O(dx^2)
        # (gaps 2.5e-5, 1.4e-5 and 6.6e-6 at dx = 0.05, a quarter at 0.025)
        model = TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1)
        gaps = []
        for dx in (0.05, 0.025):
            grid = SpatialGrid.regular(200.0, dx)
            window = grid.nodes <= 40.0
            cn = _reference("cn", model, CallPayoff(20.0), grid)(t)
            exact = _reference("bs-exact", model, CallPayoff(20.0), grid)(t)
            gaps.append(np.max(np.abs(cn - exact)[window]))
        assert gaps[0] < 3e-5 and gaps[0] / gaps[1] >= 3.5, f"gaps {gaps}"

    def test_cn_is_cn_solve_with_the_step_rule(self):
        oracle = _reference("cn", self.CEV, PutPayoff(15.0), self.GRID)
        want = cn_solve(self.CEV, CNConfig(self.GRID, dt=1e-3, t_total=0.5),
                        PutPayoff(15.0))
        np.testing.assert_array_equal(oracle(0.5), want.values)


class TestCNConfig:
    def test_validation(self):
        grid = SpatialGrid.regular(10.0, 0.5)
        with pytest.raises(DomainError):
            CNConfig(grid, dt=0.0, t_total=1.0)
        with pytest.raises(DomainError):
            CNConfig(grid, dt=-0.1, t_total=1.0)
        with pytest.raises(DomainError):
            CNConfig(grid, dt=0.2, t_total=0.1)
        for t_total in (NAN, INF):  # n_steps then raised ValueError or OverflowError
            with pytest.raises(DomainError):
                CNConfig(grid, dt=0.01, t_total=t_total)

    def test_step_count_rounds(self):
        grid = SpatialGrid.regular(10.0, 0.5)
        assert CNConfig(grid, dt=0.03, t_total=0.1).n_steps == 3
        assert CNConfig(grid, dt=0.1, t_total=1.0).n_steps == 10


class TestCrankNicolson:
    def test_needs_four_nodes(self):
        grid = SpatialGrid(1.0, 2.0, 0.5)
        assert grid.n_nodes == 3
        with pytest.raises(DomainError):
            cn_solve(BSMModel(sigma=0.3), CNConfig(grid, dt=0.01, t_total=0.1),
                     CallPayoff(1.5))

    def test_zero_payoff_stays_zero(self):
        grid = SpatialGrid.regular(10.0, 0.1)
        curve = cn_solve(BSMModel(sigma=0.3, r=0.1),
                         CNConfig(grid, dt=0.01, t_total=0.1), ZeroPayoff())
        assert np.all(curve.values == 0.0)

    def test_pure_discounting_of_flat_payoff(self):
        # with b = 0 and c = -r a flat initial condition evolves as exp(-r t)
        model = constant_coefficient_model(a=1.0, b=0.0, c=-0.1)
        grid = SpatialGrid.regular(10.0, 0.1)
        t = 0.2
        curve = cn_solve(model, CNConfig(grid, dt=1e-3, t_total=t), OnePayoff())
        np.testing.assert_allclose(curve.values, np.exp(-0.1 * t), rtol=0, atol=1e-6)

    def test_matches_exact_lognormal_price(self):
        t, K, sigma = 0.1, 15.0, 0.3
        grid = SpatialGrid.regular(40.0, 0.005)
        curve = cn_solve(BSMModel(sigma=sigma, r=0.0),
                         CNConfig(grid, dt=1e-4, t_total=t), CallPayoff(K))
        got = curve.value_at(15.0)
        assert got == pytest.approx(bs_exact(t, K, 15.0, sigma, 0.0), abs=1e-5)

    def test_second_order_in_time(self):
        model = BSMModel(sigma=0.3, r=0.1)
        grid = SpatialGrid.regular(30.0, 0.02)
        payoff = GaussianPayoff(15.0, 1.0)
        window = (grid.nodes > 10.0) & (grid.nodes < 20.0)
        ref = cn_solve(model, CNConfig(grid, dt=5e-5, t_total=0.1), payoff)
        errs = []
        for dt in (8e-3, 4e-3, 2e-3):
            c = cn_solve(model, CNConfig(grid, dt=dt, t_total=0.1), payoff)
            errs.append(np.max(np.abs(c.values[window] - ref.values[window])))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for s in slopes:
            assert 1.7 <= s <= 2.3, f"dt slopes {slopes}"

    def test_second_order_in_space(self):
        model = BSMModel(sigma=0.3, r=0.1)
        payoff = GaussianPayoff(15.0, 1.0)
        xq = 12.0 + 0.08 * np.arange(76)
        ref_curve = cn_solve(
            model, CNConfig(SpatialGrid(0.08, 30.0, 0.005), dt=1e-4, t_total=0.1),
            payoff)
        ref = np.interp(xq, ref_curve.x, ref_curve.values)
        errs = []
        for dx in (0.08, 0.04, 0.02):
            c = cn_solve(model, CNConfig(SpatialGrid(0.08, 30.0, dx), dt=1e-4,
                                         t_total=0.1), payoff)
            errs.append(np.max(np.abs(np.interp(xq, c.x, c.values) - ref)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for s in slopes:
            assert 1.7 <= s <= 2.3, f"dx slopes {slopes}"

    def test_steps_from_the_jet_alone(self):
        # cn_solve reads the jet alone: a custom model that returns a model's
        # jet steps as that model, bit for bit
        config = CNConfig(SpatialGrid.regular(60.0, 0.01), dt=2.5e-3, t_total=0.5)
        for model in (BSMModel(0.3, r=0.1), CEVModel(0.3, 2.0 / 3.0, r=0.1),
                      TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1)):
            for payoff in (CallPayoff(15.0), PutPayoff(15.0)):
                np.testing.assert_array_equal(
                    cn_solve(CustomModel(model.jet), config, payoff).values,
                    cn_solve(model, config, payoff).values)

    @pytest.mark.parametrize("da_dt", [0.0, 1e-200], ids=["factored-once", "per-step"])
    def test_a_zero_pivot_is_a_singular_matrix(self, da_dt):
        # every interior diagonal of I - dt/2 A is 1 - 0.5 * 0.5 * 4 = 0
        model = CustomModel(lambda z: CoefficientJet(np.full_like(z, 1e-200), 0.0, 0.0,
                                                     da_dt, 0.0, 0.0, 4.0))
        config = CNConfig(SpatialGrid(1.0, 3.0, 0.5), dt=0.5, t_total=0.5)
        with pytest.raises(SingularMatrix, match="tridiagonal solve failed"):
            cn_solve(model, config, CallPayoff(2.0))

    def test_time_dependent_path_runs(self):
        from lvkernel import TimeDependentBSMModel

        model = TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1)
        grid = SpatialGrid.regular(30.0, 0.05)
        curve = cn_solve(model, CNConfig(grid, dt=1e-3, t_total=0.1), CallPayoff(15.0))
        assert np.all(np.isfinite(curve.values))
        # a rising volatility must price above the frozen-volatility solve
        frozen = cn_solve(BSMModel(sigma=0.3, r=0.1),
                          CNConfig(grid, dt=1e-3, t_total=0.1), CallPayoff(15.0))
        assert curve.value_at(15.0) > frozen.value_at(15.0)


def test_import_leaves_sparse_and_linalg_unloaded():
    # cn_solve imports scipy.linalg when it runs, and Phi of an array past
    # 1,024 elements scipy.special; importing the package or its CLI loads no
    # SciPy, and no run loads scipy.sparse.  The package's own modules load in
    # a fixed order: one moved import once cost a fresh process about 3,400
    # more minor page faults and 50 ms of set-up.
    scipy_modules = "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
    code = ("import sys, lvkernel; " + scipy_modules +
            "print([m for m in sys.modules if m.startswith('lvkernel')]); "
            "import lvkernel.cli; " + scipy_modules +
            "lvkernel.cn_solve(lvkernel.BSMModel(0.3), lvkernel.CNConfig("
            "lvkernel.SpatialGrid.regular(30.0, 0.5), 0.1, 0.5), lvkernel.CallPayoff(15.0)); "
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lvkernel.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    scipy_modules, own_modules, cli_scipy_modules, sparse_modules = proc.stdout.splitlines()
    assert scipy_modules == cli_scipy_modules == sparse_modules == "[]"
    assert own_modules == str([f"lvkernel.{m}" for m in (
        "errors", "grid", "models", "kernel", "pricing", "bootstrap", "oracles")] + ["lvkernel"])
