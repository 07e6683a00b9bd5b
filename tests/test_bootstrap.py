"""Sub-step composition of the approximate kernel: the dense propagation
matrix, the composed solve, and its long-maturity error behavior."""

import errno
import os
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import CONVERGED_X_MAX, constant_coefficient_model
from lvkernel import (
    BasepointRule,
    BootstrapConfig,
    BSMModel,
    ButterflyPayoff,
    CallPayoff,
    CEVModel,
    CoefficientJet,
    CustomModel,
    DegenerateCoefficient,
    DomainError,
    GridTooCoarseWarning,
    KernelSpec,
    PutPayoff,
    SampledPayoff,
    SpatialGrid,
    TimeDependentBSMModel,
    bootstrap_error_table,
    bootstrap_solve,
    bs_exact,
    kernel_eval,
    kernel_matrix,
    price_curve,
)
from lvkernel.kernel import _coefficients, _weighted_block

# reference sup-norm errors of the 10-step order-2 composition for the
# lognormal model with K=20, sigma=0.5, r=0.1, measured over (0, 40]
REFERENCE_SUP_ERRORS = {
    3.0: 0.0268,
    2.0: 0.0379,
    1.0: 0.0177,
    0.5: 0.0038,
    0.2: 4.37e-4,
    0.1: 3.57e-5,
}

MODEL = BSMModel(sigma=0.5, r=0.1)
STRIKE = 20.0
MASS_DEFECT = ("kernel mass defect {} exceeds 1e-04: either the grid spacing is too coarse for "
               "the sub-step width or the kernel's series terms reach past the grid")


def _sloped_model(da_dx, b=0.0):
    """a = 1 with the slope a' = da_dx, drift b and no discounting."""

    def jet_fn(z):
        zero = np.zeros_like(np.asarray(z, dtype=float))
        return CoefficientJet(a=1.0 + zero, da_dx=da_dx + zero, d2a_dx2=zero, da_dt=zero,
                              b=b + zero, db_dx=zero, c=zero)

    return CustomModel(jet_fn)


def _call_error_curve(curve, t, window=(0.0, 40.0)):
    xs = curve.x
    mask = (xs > window[0]) & (xs <= window[1])
    exact = bs_exact(t, STRIKE, xs[mask], 0.5, 0.1)
    return float(np.max(np.abs(curve.values[mask] - exact)))


class TestBootstrapConfig:
    def test_validation(self):
        spec = KernelSpec(MODEL, order=2)
        grid = SpatialGrid.regular(10.0, 0.5)
        with pytest.raises(DomainError):
            BootstrapConfig(spec, t_total=0.0, n_steps=10, grid=grid)
        with pytest.raises(DomainError):
            BootstrapConfig(spec, t_total=-1.0, n_steps=10, grid=grid)
        with pytest.raises(DomainError):
            BootstrapConfig(spec, t_total=1.0, n_steps=0, grid=grid)
        # a step count must be an integer: a float cannot count the hops, and
        # a bool is not a count
        for n_steps in (2.5, 10.0, True, np.float64(3.0), "10", np.int64(0)):
            with pytest.raises(DomainError, match="^n_steps must be an integer at least 1"):
                BootstrapConfig(spec, t_total=1.0, n_steps=n_steps, grid=grid)
        assert BootstrapConfig(spec, 1.0, np.int64(4), grid).tau == 0.25

    def test_substep_length(self):
        spec = KernelSpec(MODEL, order=2)
        grid = SpatialGrid.regular(10.0, 0.5)
        config = BootstrapConfig(spec, t_total=1.0, n_steps=8, grid=grid)
        assert config.tau == pytest.approx(0.125)


class TestKernelMatrix:
    def test_rows_are_weighted_kernel_values(self):
        spec = KernelSpec(MODEL, order=2)
        grid = SpatialGrid.regular(10.0, 0.5)
        mat, mass = kernel_matrix(spec, 0.05, grid)
        xs, w = grid.nodes, grid.weights
        for i in (0, 7, len(xs) - 1):
            row = kernel_eval(spec, 0.05, xs[i], xs) * w
            np.testing.assert_allclose(mat[i], row, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mass, mat.sum(axis=1), rtol=0, atol=0)

    def test_chunking_does_not_change_result(self, monkeypatch):
        spec = KernelSpec(MODEL, order=2)
        grid = SpatialGrid.regular(10.0, 0.5)
        full, _ = kernel_matrix(spec, 0.05, grid)
        curve = price_curve(spec, 0.05, CallPayoff(STRIKE), grid).values
        monkeypatch.setattr("lvkernel.kernel._CHUNK_ROWS", 7)
        chunked, _ = kernel_matrix(spec, 0.05, grid)
        np.testing.assert_array_equal(full, chunked)
        np.testing.assert_array_equal(curve, price_curve(spec, 0.05, CallPayoff(STRIKE), grid).values)

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("model", [MODEL, CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1)],
                             ids=["bsm", "cev"])
    def test_midpoint_budget_does_not_change_the_matrix(self, monkeypatch, model, rows):
        # the midpoint is built _MID_ENTRIES entries at a time: 40 rows here
        spec = KernelSpec(model, order=2, basepoint=BasepointRule.MIDPOINT)
        grid = SpatialGrid.regular(40.0, 0.05)
        full, mass = kernel_matrix(spec, 0.1, grid)
        monkeypatch.setattr("lvkernel.kernel._MID_ENTRIES", rows * grid.n_nodes)
        chunked, chunked_mass = kernel_matrix(spec, 0.1, grid)
        assert chunked.tobytes() == full.tobytes() and chunked_mass.tobytes() == mass.tobytes()

    @pytest.mark.parametrize("rule", list(BasepointRule))
    def test_a_matrix_the_memory_cannot_hold_is_a_memory_error(self, rule, monkeypatch):
        # the mapping's ENOMEM was a bare OSError; np.zeros raised MemoryError
        def mapping(code):
            def refuse(*args, **kwargs):
                raise OSError(code, os.strerror(code))
            return refuse
        spec, grid = KernelSpec(MODEL, 2, rule), SpatialGrid.regular(10.0, 0.5)
        monkeypatch.setattr("lvkernel.kernel.mmap.mmap", mapping(errno.ENOMEM))
        with pytest.raises(MemoryError, match=r"^Unable to allocate 2\.91e-09 TiB for a kernel "
                                              r"matrix of shape \(20, 20\)$"):
            kernel_matrix(spec, 0.05, grid)
        monkeypatch.setattr("lvkernel.kernel.mmap.mmap", mapping(errno.EINVAL))
        with pytest.raises(OSError) as info:  # any other failure is the mapping's own
            kernel_matrix(spec, 0.05, grid)
        assert info.value.errno == errno.EINVAL

    @pytest.mark.parametrize("rule", list(BasepointRule))
    def test_matrix_is_c_contiguous(self, rule):
        # a Fortran-ordered matrix changes the bits of mat @ u
        mat, _ = kernel_matrix(KernelSpec(MODEL, 2, rule), 0.05, SpatialGrid.regular(10.0, 0.5))
        assert mat.flags.c_contiguous and mat.flags.writeable

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS")
    def test_matrix_pages_leave_with_it(self):
        # a matrix on the heap stayed resident after it was freed, and one
        # whose chunk a small allocation had split sent the next to fresh pages
        def rss_bytes():
            with open("/proc/self/status", encoding="utf-8") as fh:
                return 1024 * int(re.search(r"VmRSS:\s*(\d+)", fh.read()).group(1))

        grid = SpatialGrid.regular(200.0, 0.1)
        spec = KernelSpec(BSMModel(sigma=0.5, r=0.1), order=2)
        kernel_matrix(spec, 0.1, grid)
        mat, _ = kernel_matrix(spec, 0.1, grid)
        held = rss_bytes()
        del mat
        assert held - rss_bytes() > 0.5 * grid.n_nodes ** 2 * 8


BAND_MODELS = {
    "bsm": BSMModel(sigma=0.5, r=0.1),
    "cev": CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1),
    "tdbsm": TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1),
    "constant": constant_coefficient_model(a=0.4, b=0.05, c=-0.1),
}
BAND_GRIDS = {
    "regular": SpatialGrid.regular(200.0, 0.1),
    "from_one": SpatialGrid(1.0, 41.0, 0.05),
}
BAND_TAUS = (0.0125, 0.025, 0.05, 0.1, 0.2)
BAND_RULES = (BasepointRule.AT_X, BasepointRule.AT_Y)


def _assert_dense_bytes(spec, tau, xs, w):
    """At z = x and at z = y, the block on increasing nodes xs with weights w,
    and its row sums, carry the bytes of kernel_eval * w, evaluated dense 64
    rows at a time: an out-of-band -0.0 or a stray subnormal fails."""
    for rule in BAND_RULES:
        spec = replace(spec, basepoint=rule)
        mat = _weighted_block(spec, tau, xs, w)
        mass = mat.sum(axis=1)
        for start in range(0, xs.size, 64):
            rows = slice(start, start + 64)
            want = kernel_eval(spec, tau, xs[rows, None], xs[None, :]) * w
            assert want.tobytes() == mat[rows].tobytes(), f"{rule}: rows {start}+ at tau={tau}"
            assert want.sum(axis=1).tobytes() == mass[rows].tobytes(), f"{rule}: row sums {start}+"


class TestKernelMatrixBand:
    """At z = x (z = y) the matrix evaluates only the live band of each chunk
    of rows (columns); every entry and row sum must keep the bytes of the
    dense evaluation."""

    @pytest.mark.parametrize("grid", sorted(BAND_GRIDS))
    @pytest.mark.parametrize("model", sorted(BAND_MODELS))
    def test_bit_for_bit_with_dense_evaluation(self, model, grid):
        for order in (0, 1, 2):
            for tau in BAND_TAUS:
                _assert_dense_bytes(KernelSpec(BAND_MODELS[model], order), tau,
                                    BAND_GRIDS[grid].nodes, BAND_GRIDS[grid].weights)

    @pytest.mark.parametrize("model", ["bsm", "cev"])
    def test_bit_for_bit_on_uneven_nodes(self, model):
        # the band is found from the nodes alone: no spacing enters the build
        xs = np.geomspace(1e-3, 1200.0, 1001)
        w = np.random.default_rng(3).uniform(0.5, 2.0, xs.size) * np.gradient(xs)
        for order in (0, 1, 2):
            for tau in (0.0125, 0.1):
                _assert_dense_bytes(KernelSpec(BAND_MODELS[model], order), tau, xs, w)

    def test_band_edges_across_chunk_edges(self, monkeypatch):
        # 7-node chunks: the union of the live partners changes inside what
        # would be one 64-node chunk
        monkeypatch.setattr("lvkernel.kernel._CHUNK_ROWS", 7)
        for order in (0, 1, 2):
            for tau in BAND_TAUS:
                _assert_dense_bytes(KernelSpec(BAND_MODELS["cev"], order), tau,
                                    BAND_GRIDS["regular"].nodes, BAND_GRIDS["regular"].weights)

    @pytest.mark.parametrize("order", [1, 2])
    def test_dead_entries_are_plus_zero_whatever_the_sum(self, order):
        # CEV from spot 1e-6: at order 2 the first row's C_0 is negative, and
        # at order 1 the sum is negative at large x - y; every dead entry is
        # still the kernel's +0.0, in the band as outside it
        spec = KernelSpec(BAND_MODELS["cev"], order)
        grid = SpatialGrid(1e-6, 3.0, 0.01)
        for rule in BAND_RULES:
            mat, _ = kernel_matrix(replace(spec, basepoint=rule), 0.0125, grid)
            assert mat[0, -1] == 0.0 and not np.signbit(mat[0, -1])
            assert not np.any(np.signbit(mat[mat == 0.0]))
        _assert_dense_bytes(spec, 0.0125, grid.nodes, grid.weights)

    @pytest.mark.parametrize("rule", list(BasepointRule))
    def test_errors_keep_their_type_and_message(self, rule):
        spec = KernelSpec(BSMModel(sigma=0.3), order=2, basepoint=rule)
        with pytest.raises(DegenerateCoefficient,
                           match=r"^the kernel is not finite at t=0\.1: a\*sqrt\(t\) is out of range$"):
            kernel_matrix(spec, 0.1, SpatialGrid(1e-45, 2.0, 0.01))
        grid = SpatialGrid.regular(10.0, 0.5)
        for tau in (0.0, -0.1, float("nan")):
            with pytest.raises(DomainError, match="^time must be positive and finite"):
                kernel_matrix(spec, tau, grid)

    def test_peak_memory_is_the_matrix_and_reused_chunk_buffers(self):
        # allocating each chunk's temporaries afresh, the build peaked at
        # n^2*8 plus 5.3 blocks of 64 rows; with two float buffers and one
        # mask reused across chunks it peaks at 2.6, at either rule (z = y
        # built dense, 64 rows at a time, peaked at 4.4); the matrix's own
        # mapping is not traced
        grid = SpatialGrid.regular(200.0, 0.1)
        n = grid.n_nodes
        for rule in BAND_RULES:
            spec = KernelSpec(BSMModel(sigma=0.5, r=0.1), order=2, basepoint=rule)
            tracemalloc.start()
            try:
                kernel_matrix(spec, 0.1, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * (64 * n * 8), rule


def _uncut_rows(spec, tau, xs, w, rows):
    """Rows of the z = x block kernel_eval * w with the kernel cut only where
    exp underflows, at q > 745 instead of Q_MAX: the same coefficients and
    operations as the build, evaluated on every column."""
    x = xs[rows]
    jet = spec.model.jet(x)
    c = [np.broadcast_to(ck, x.shape)[:, None] for ck in _coefficients(jet, tau, 0.0, spec.order)]
    d = x[:, None] - xs[None, :]
    neg_q = d * d * np.divide(-0.5, tau * jet.a * jet.a)[:, None]
    poly = c[-1] + 0.0 * d
    for ck in reversed(c[:-1]):
        poly = poly * d + ck
    return np.where(neg_q < -745.0, 0.0, np.exp(neg_q) * poly) * w


class TestCutOff:
    """The kernel is +0.0 past q = Q_MAX = 50, ten widths out, not only past
    the exp underflow at q = 745: the matrix loses less than one ulp of a row's
    mass and holds no subnormal entry."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("model", ["bsm", "cev", "tdbsm"])
    def test_rows_lose_less_than_an_ulp_of_their_mass(self, model, order):
        grid = SpatialGrid.regular(200.0, 0.1)
        xs, w = grid.nodes, grid.weights
        spec = KernelSpec(BAND_MODELS[model], order)
        for tau in (0.0125, 0.025, 0.05, 0.1, 0.2, 0.5, 1.0):
            mat, mass = kernel_matrix(spec, tau, grid)
            for start in range(0, xs.size, 250):
                rows = slice(start, start + 250)
                lost = np.abs(_uncut_rows(spec, tau, xs, w, rows) - mat[rows]).sum(axis=1)
                bound = 2.0**-52 * np.abs(mass[rows])
                assert np.all(lost <= bound), (
                    f"tau={tau}: worst lost/mass {np.max(lost / np.abs(mass[rows])):.3g}")

    @pytest.mark.parametrize("model,order,tau", [
        ("bsm", 2, 0.1), ("bsm", 1, 0.05), ("bsm", 2, 0.025), ("cev", 2, 0.05),
        ("cev", 1, 0.2), ("cev", 1, 0.025), ("tdbsm", 1, 0.1), ("tdbsm", 2, 0.0125),
        ("tdbsm", 1, 0.0125), ("tdbsm", 2, 0.2)])
    def test_compose_matrices_hold_no_subnormal(self, model, order, tau):
        # the sub-steps of the benchmark's compose solves on regular(200, 0.1);
        # cut at the exp underflow, a CEV matrix held up to 38,622 subnormals
        mat, _ = kernel_matrix(KernelSpec(BAND_MODELS[model], order), tau,
                               SpatialGrid.regular(200.0, 0.1))
        assert not np.any((mat != 0.0) & (np.abs(mat) < np.finfo(float).tiny))


class TestBootstrapSolve:
    def test_one_step_call_is_the_closed_form_accuracy(self):
        # one sub-step prices the kink in closed form, 1.2e-5 off here;
        # Simpson quadrature of the kinked payoff on this grid is 1.48e-3 off
        spec = KernelSpec(BSMModel(sigma=0.3, r=0.1), order=2)
        grid = SpatialGrid.regular(200.0, 0.1)
        config = BootstrapConfig(spec, t_total=0.01, n_steps=1, grid=grid)
        curve = bootstrap_solve(config, CallPayoff(15.0))
        mask = (grid.nodes > 5.0) & (grid.nodes <= 30.0)
        exact = bs_exact(0.01, 15.0, grid.nodes[mask], 0.3, 0.1)
        err = np.max(np.abs(curve.values[mask] - exact))
        assert err < 2e-5, f"one-step error {err:.3e} on (5, 30]"

    def test_order_zero_composition_is_a_semigroup(self):
        # with a constant jet the order-0 kernel is an exact Gaussian
        # semigroup, so composing five sub-steps must reproduce the single
        # step to quadrature accuracy; this validates the convolution engine
        # independently of the expansion terms
        model = constant_coefficient_model(a=1.0, b=0.0, c=0.0)
        spec = KernelSpec(model, order=0)
        grid = SpatialGrid.regular(40.0, 0.05)
        payoff = CallPayoff(20.0)
        one = bootstrap_solve(
            BootstrapConfig(spec, t_total=0.25, n_steps=1, grid=grid),
            payoff)
        five = bootstrap_solve(
            BootstrapConfig(spec, t_total=0.25, n_steps=5, grid=grid),
            payoff)
        mask = (grid.nodes >= 15.0) & (grid.nodes <= 25.0)
        diff = np.max(np.abs(one.values[mask] - five.values[mask]))
        assert diff < 1e-6

    @pytest.mark.parametrize("order", [0, 1])
    def test_low_order_composition_with_drift_warns(self, order):
        # BSM sigma 0.3, r 0.1, K 20, T 1: order 1 is 2.27 off on (0, 40] at
        # 10 steps and 2.29 at 40, order 0 1.87 and 1.88; order 2 converges
        spec = KernelSpec(BSMModel(sigma=0.3, r=0.1), order=order)
        config = BootstrapConfig(spec, t_total=0.2, n_steps=2, grid=SpatialGrid.regular(40.0, 0.1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bootstrap_solve(config, CallPayoff(20.0))
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, (
            f"an order-{order} composition does not converge in the step count when the "
            "model has drift (b or c not 0): use order 2"))]

    @pytest.mark.parametrize("mass", ["defect", "no-row"])
    def test_drift_warning_follows_a_mass_warning(self, mass):
        # the drift test runs with the matrix check, after the build; both
        # warnings keep their text and name the caller
        if mass == "defect":  # a' = 100 at order 1 misses 1.9e-4 of a row's mass
            spec = KernelSpec(_sloped_model(100.0, b=0.1), order=1)
            config = BootstrapConfig(spec, 0.02, 2, SpatialGrid(1.0, 9.0, 0.05))
            first = MASS_DEFECT.format("1.927e-04")
        else:  # BSM sigma 0.5: every kernel of tau 0.25 reaches 4 widths past x = 0
            spec = KernelSpec(BSMModel(sigma=0.5, r=0.1), order=1)
            config = BootstrapConfig(spec, 0.5, 2, SpatialGrid.regular(40.0, 0.1))
            first = ("no grid row resolves the sub-step kernel (dx too large or grid too short "
                     "for this tau)")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bootstrap_solve(config, CallPayoff(5.0))
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (GridTooCoarseWarning, first, __file__),
            (UserWarning, "an order-1 composition does not converge in the step count when the "
             "model has drift (b or c not 0): use order 2", __file__)]

    def test_driftless_low_order_composition_does_not_warn(self):
        # at r = 0 order 1 converges: 5.0e-3 at 10 steps, 1.3e-3 at 40
        spec = KernelSpec(BSMModel(sigma=0.3), order=1)
        grid = SpatialGrid.regular(200.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            for n_steps in (10, 40):
                bootstrap_solve(BootstrapConfig(spec, 1.0, n_steps, grid), CallPayoff(20.0))


class TestFirstHop:
    """For every step count the first hop is the closed-form price exactly
    when price_curve(method="closed") has one; otherwise the sampled payoff
    takes one more matrix hop.  The other n - 1 hops are matrix hops."""

    PAYOFFS = {
        "call": CallPayoff(15.0),
        "put": PutPayoff(15.0),
        "butterfly": ButterflyPayoff(12.0, 15.0, 18.0),
        "sampled": SampledPayoff(np.linspace(1.0, 30.0, 30),
                                 np.maximum(np.linspace(1.0, 30.0, 30) - 15.0, 0.0)),
    }

    @pytest.mark.parametrize("n_steps", [1, 2])
    @pytest.mark.parametrize("rule", [BasepointRule.AT_X, BasepointRule.AT_Y], ids=["atx", "aty"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("payoff", sorted(PAYOFFS))
    def test_closed_form_first_hop_exactly_when_one_exists(self, payoff, order, rule, n_steps):
        payoff = self.PAYOFFS[payoff]
        spec = KernelSpec(BSMModel(sigma=0.3, r=0.1), order=order, basepoint=rule)
        grid = SpatialGrid.regular(30.0, 0.25)
        config = BootstrapConfig(spec, t_total=0.1 * n_steps, n_steps=n_steps, grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarseWarning)
            boot = bootstrap_solve(config, payoff)
        mat, _ = kernel_matrix(spec, 0.1, grid)
        try:
            want = price_curve(spec, 0.1, payoff, grid, method="closed").values
        except DomainError:
            want = mat @ payoff(grid.nodes)
        for _ in range(n_steps - 1):
            want = mat @ want
        assert np.array_equal(boot.values, want)


class TestMassDiagnostic:
    def test_unresolvable_grid_warns(self):
        spec = KernelSpec(MODEL, order=2)
        grid = SpatialGrid.regular(40.0, 1.0)
        config = BootstrapConfig(spec, t_total=0.1, n_steps=10, grid=grid)
        with pytest.warns(GridTooCoarseWarning, match="no grid row resolves"):
            bootstrap_solve(config, CallPayoff(STRIKE))

    def test_wide_bsm_sub_step_checks_its_rows(self):
        # sigma sqrt(tau) = 0.204: every kernel reaches 4.9 widths past x = 0,
        # so six-width gating checked no row and blamed dx; the rows' Gaussian
        # mass past the ends is 4.8e-7, and their masses match 1 + c tau
        grid = SpatialGrid.regular(200.0, 0.1)
        config = BootstrapConfig(KernelSpec(MODEL, order=2), t_total=0.5, n_steps=3, grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridTooCoarseWarning)
            bootstrap_solve(config, CallPayoff(STRIKE))

    def test_bsm_kernel_past_zero_on_every_row_warns(self):
        # sigma sqrt(tau) = 0.25: each row drops 7.6e-4 of its mass below
        # x_min (Gaussian estimate 3.2e-5), so no row is fit to check
        grid = SpatialGrid.regular(200.0, 0.1)
        config = BootstrapConfig(KernelSpec(MODEL, order=2), t_total=0.5, n_steps=2, grid=grid)
        with pytest.warns(GridTooCoarseWarning, match="grid too short for this tau"):
            bootstrap_solve(config, CallPayoff(STRIKE))

    @pytest.mark.parametrize("dx", [0.1, 0.05, 0.025])
    @pytest.mark.parametrize("rule", [BasepointRule.AT_Y, BasepointRule.MIDPOINT], ids=["aty", "mid"])
    def test_off_diagonal_rules_are_held_to_their_own_mass(self, rule, dx):
        # held to the z = x mass 1 the rows' defects read 8.34e-3 at z = y and
        # 6.34e-4 at the midpoint on every grid; z = y columns match their h_0
        # to 1.5e-8 and the midpoint has no exact mass to hold its rows to
        spec = KernelSpec(MODEL, order=1, basepoint=rule)
        config = BootstrapConfig(spec, t_total=0.05, n_steps=1, grid=SpatialGrid.regular(50.0, dx))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridTooCoarseWarning)
            bootstrap_solve(config, CallPayoff(STRIKE))

    @pytest.mark.parametrize("dx, warns", [(0.05, True), (0.04, False)])
    def test_under_resolved_at_y_columns_warn(self, dx, warns):
        # a' = 60 puts h_6 = tau a'^2/8 = 4.5 on He_6, which Simpson at two
        # nodes per width misses by 2.4e-4 of a column's mass, and at 2.5 by
        # 1.3e-8; off |z - 5| < 1 the width is below two steps and unchecked
        def jet_fn(z):
            zero = np.zeros_like(np.asarray(z, dtype=float))
            return CoefficientJet(a=np.where(np.abs(z - 5.0) < 1.0, 1.01, 0.25), da_dx=60.0 + zero,
                                  d2a_dx2=zero, da_dt=zero, b=zero, db_dx=zero, c=zero)

        spec = KernelSpec(CustomModel(jet_fn), order=2, basepoint=BasepointRule.AT_Y)
        config = BootstrapConfig(spec, t_total=0.01, n_steps=1, grid=SpatialGrid(1.0, 9.0, dx))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GridTooCoarseWarning)
            bootstrap_solve(config, CallPayoff(5.0))
        assert [str(w.message)[:19] for w in caught] == ["kernel mass defect "] * warns

    @pytest.mark.parametrize("dx, defect", [(0.05, "4.993e-04"), (0.02, "1.054e-03"),
                                            (0.01, "1.053e-03")])
    def test_a_defect_no_spacing_removes_names_both_causes(self, dx, defect):
        # a' = 10, tau = 0.01, order 2: the defect does not fall with dx, as
        # series terms reach past the gate; the warning no longer blames dx alone
        config = BootstrapConfig(KernelSpec(_sloped_model(10.0), order=2), 0.02, 2,
                                 SpatialGrid(1.0, 9.0, dx))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bootstrap_solve(config, CallPayoff(5.0))
        assert [(w.category, str(w.message)) for w in caught] == [
            (GridTooCoarseWarning, MASS_DEFECT.format(defect))]

    def test_resolved_grid_does_not_warn(self):
        spec = KernelSpec(MODEL, order=2)
        grid = SpatialGrid.regular(40.0, 0.05)
        config = BootstrapConfig(spec, t_total=0.1, n_steps=10, grid=grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridTooCoarseWarning)
            bootstrap_solve(config, CallPayoff(STRIKE))


class TestKnownLimitsWarn:
    """Until ROADMAP items 1 and 2 land, a composition of two or more matrix
    hops says when it hits them: a jet whose da_dt is not 0 is frozen at
    t = 0, and payoff mass on rows narrower than two grid steps, a put's near
    the left cutoff, can grow without bound (1.89e5 for this BSM put)."""

    MODELS = {"bsm": BSMModel(0.3, 0.1), "cev": CEVModel(0.3, 2.0 / 3.0, 0.1),
              "tdbsm": TimeDependentBSMModel(0.3, 0.2, 0.1)}
    PAYOFFS = {"call": CallPayoff(20.0), "put": PutPayoff(20.0),
               "butterfly": ButterflyPayoff(18.0, 20.0, 22.0)}
    FROZEN = (UserWarning, "the composition freezes a(t, x) at t = 0: its prices miss the "
              "model's time dependence")
    UNRESOLVED = (GridTooCoarseWarning, "the payoff has mass on rows narrower than two grid "
                  "steps, near the left cutoff: composed prices there can grow without bound")

    @pytest.mark.parametrize("model, payoff, n_steps, want", [
        ("tdbsm", "call", 10, [FROZEN]),
        ("bsm", "put", 10, [UNRESOLVED]),
        ("cev", "put", 10, [UNRESOLVED]),
        ("tdbsm", "put", 10, [UNRESOLVED, FROZEN]),
        ("bsm", "call", 10, []),
        ("cev", "call", 10, []),
        ("bsm", "butterfly", 10, []),
        # one matrix hop after the closed-form first one: neither limit compounds
        ("tdbsm", "call", 2, []),
        ("bsm", "put", 2, []),
    ])
    def test_warnings(self, model, payoff, n_steps, want):
        config = BootstrapConfig(KernelSpec(self.MODELS[model]), 0.1 * n_steps, n_steps,
                                 SpatialGrid.regular(200.0, 0.1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bootstrap_solve(config, self.PAYOFFS[payoff])
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (*w, __file__) for w in want]


class TestLongMaturityBehavior:
    def test_order_two_composition_beats_direct_at_t_one(self):
        grid = SpatialGrid.regular(200.0, 0.1)
        spec = KernelSpec(MODEL, order=2)
        config = BootstrapConfig(spec, t_total=1.0, n_steps=10, grid=grid)
        boot_err = _call_error_curve(bootstrap_solve(config, CallPayoff(STRIKE)), 1.0)
        direct_err = _call_error_curve(
            price_curve(spec, 1.0, CallPayoff(STRIKE), grid, method="closed"), 1.0)
        assert boot_err <= direct_err, (
            f"composition error {boot_err:.4e} above direct error {direct_err:.4e}"
        )

    def test_order_one_composition_does_not_improve(self):
        grid = SpatialGrid.regular(200.0, 0.1)
        spec = KernelSpec(MODEL, order=1)
        config = BootstrapConfig(spec, t_total=1.0, n_steps=10, grid=grid)
        boot_err = _call_error_curve(bootstrap_solve(config, CallPayoff(STRIKE)), 1.0)
        direct_err = _call_error_curve(
            price_curve(spec, 1.0, CallPayoff(STRIKE), grid, method="closed"), 1.0)
        assert not boot_err < direct_err / 2.0, (
            f"order-1 composition reduced the error from {direct_err:.4e} to "
            f"{boot_err:.4e}, more than a factor 2"
        )

    def test_butterfly_oscillations_are_damped(self):
        grid = SpatialGrid.regular(200.0, 0.1)
        spec = KernelSpec(MODEL, order=2)
        payoff = ButterflyPayoff(15.0, 20.0, 25.0)
        t = 1.0

        def exact(xs):
            w1, w2, w3 = payoff.call_weights
            return (w1 * bs_exact(t, 15.0, xs, 0.5, 0.1)
                    - w2 * bs_exact(t, 20.0, xs, 0.5, 0.1)
                    + w3 * bs_exact(t, 25.0, xs, 0.5, 0.1))

        xs = grid.nodes
        mask = (xs > 0.0) & (xs <= 40.0)
        direct = price_curve(spec, t, payoff, grid, method="closed")
        direct_err = np.max(np.abs(direct.values[mask] - exact(xs[mask])))
        config = BootstrapConfig(spec, t_total=t, n_steps=10, grid=grid)
        boot = bootstrap_solve(config, payoff)
        boot_err = np.max(np.abs(boot.values[mask] - exact(xs[mask])))
        assert direct_err > 1e-2, f"direct butterfly error {direct_err:.4e}"
        assert boot_err < 5e-3, f"composed butterfly error {boot_err:.4e}"

    def test_window_edge_error_shrinks_on_larger_domain(self):
        # the error at x ~ 39 inside the (0, 40] window is truncation
        # leakage from the domain edge; doubling x_max must reduce it
        spec = KernelSpec(MODEL, order=2)
        payoff = CallPayoff(STRIKE)
        errs = {}
        for x_max in (200.0, 400.0):
            grid = SpatialGrid.regular(x_max, 0.1)
            config = BootstrapConfig(spec, t_total=1.0, n_steps=10, grid=grid)
            curve = bootstrap_solve(config, payoff)
            i = int(round((39.0 - grid.x_min) / grid.dx))
            errs[x_max] = abs(curve.values[i] - bs_exact(1.0, STRIKE, 39.0, 0.5, 0.1))
        assert errs[400.0] < errs[200.0], f"edge errors {errs}"

    def test_step_count_scaling_factor(self):
        # sup error over (0, 40] at t=1 for n=10 versus n=40.  The error model
        # t^{3/2}/sqrt(n) is an upper bound, so four times the steps must cut
        # the error at least by its factor 2, 1.6 with slack; a bound caps
        # nothing from above.  The measured factor is about 8: what is left
        # at n=40 is mostly the deep in-the-money discount term
        # K |e^{-rt} - (1 - r t/n)^n| that the order-2 kernel mass 1 + c tau
        # gives.  x_max=400 keeps domain-edge leakage out of the window.
        spec = KernelSpec(MODEL, order=2)
        payoff = CallPayoff(STRIKE)
        grid = SpatialGrid.regular(400.0, 0.1)
        errs = {}
        for n in (10, 40):
            config = BootstrapConfig(spec, t_total=1.0, n_steps=n, grid=grid)
            errs[n] = _call_error_curve(bootstrap_solve(config, payoff), 1.0)
        factor = errs[10] / errs[40]
        assert factor >= 1.6, (
            f"error reduction factor for n_steps 10 -> 40 is {factor:.3f} "
            f"(errors {errs[10]:.4e} -> {errs[40]:.4e}) on the "
            f"x_max={grid.x_max:g} domain, below the factor 2 of the "
            "t^{3/2}/sqrt(n) bound"
        )

    def test_error_table_against_reference_values(self):
        # each maturity runs on a domain where its window error has converged
        # in x_max (CONVERGED_X_MAX); beyond t=1 the sub-step kernel spans
        # more than the dx=0.2 grid can certify, which is warned, not fatal
        rows = []
        for t in (3.0, 2.0):
            with pytest.warns(GridTooCoarseWarning):
                rows += bootstrap_error_table(
                    MODEL, STRIKE, [t], 10,
                    SpatialGrid.regular(CONVERGED_X_MAX[t], 0.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridTooCoarseWarning)
            for t in (1.0, 0.5, 0.2, 0.1):
                rows += bootstrap_error_table(
                    MODEL, STRIKE, [t], 10,
                    SpatialGrid.regular(CONVERGED_X_MAX[t], 0.1))
        failures = []
        for t, err in rows:
            ref = REFERENCE_SUP_ERRORS[t]
            ratio = err / ref
            if not (1.0 / 3.0 <= ratio <= 3.0):
                failures.append(
                    f"t={t}: sup error {err:.4e} on x_max={CONVERGED_X_MAX[t]:g} "
                    f"vs reference {ref} (ratio {ratio:.3f})"
                )
        assert not failures, "outside factor 3 of the reference: " + "; ".join(failures)

    def test_error_decreases_toward_short_maturities(self):
        rows = dict(bootstrap_error_table(
            MODEL, STRIKE, [1.0, 0.1], 10,
            SpatialGrid.regular(200.0, 0.1)))
        assert rows[0.1] < rows[1.0]


class TestErrorTableOracles:
    def test_pde_oracle_smoke(self):
        model = CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1)
        grid = SpatialGrid.regular(30.0, 0.1)
        rows = bootstrap_error_table(model, 15.0, [0.2], 4, grid,
                                     oracle="cn", window=(10.0, 20.0))
        (t, err), = rows
        assert t == 0.2
        assert 0.0 <= err < 1e-2

    def test_hagan_woodward_oracle(self):
        model = CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1)
        grid = SpatialGrid.regular(30.0, 0.1)
        (t, err), = bootstrap_error_table(model, 15.0, [0.2], 4, grid,
                                          oracle="hagan-woodward", window=(10.0, 20.0))
        assert t == 0.2
        assert 0.0 <= err < 1e-2

    def test_default_oracle_must_fit_the_model(self, monkeypatch):
        # bs-exact reads sigma and r from the model, so it prices only the
        # lognormal models, and a CEV model is rejected before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the oracle was checked")

        monkeypatch.setattr("lvkernel.oracles.bootstrap_solve", no_solve)
        model = CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1)
        with pytest.raises(DomainError,
                           match="the bs-exact oracle needs a 'bsm' or 'tdbsm' model"):
            bootstrap_error_table(model, 15.0, [0.2], 4, SpatialGrid.regular(30.0, 0.1))

    def test_window_past_the_grid_rejected(self):
        # past x_max the composition has lost the kernel mass, so the sup
        # error would land on the grid's edge
        model = CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1)
        with pytest.raises(DomainError, match="past the grid's x_max 30"):
            bootstrap_error_table(model, 15.0, [0.2], 4, SpatialGrid.regular(30.0, 0.1),
                                  oracle="hagan-woodward")

    @pytest.mark.parametrize("window", [(40.0, 10.0), (10.0, 10.05), (float("nan"), 20.0),
                                        (10.0, float("nan"))],
                             ids=["reversed", "between-nodes", "nan-start", "nan-end"])
    def test_window_without_a_node_rejected_before_any_solve(self, window, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the window was checked")

        monkeypatch.setattr("lvkernel.oracles.bootstrap_solve", no_solve)
        with pytest.raises(DomainError, match=r"error window \(.*\] holds no grid node"):
            bootstrap_error_table(BSMModel(0.5, 0.1), 20.0, [0.2], 2,
                                  SpatialGrid.regular(50.0, 0.1), window=window)

    @pytest.mark.parametrize("bound", [True, np.True_, "0", None],
                             ids=["bool", "numpy-bool", "str", "none"])
    @pytest.mark.parametrize("end", [0, 1], ids=["start", "end"])
    def test_window_bound_not_a_number_rejected_before_any_solve(self, bound, end, monkeypatch):
        # True ran as the window (1, 10]; "0" and None raised a bare TypeError
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the window was checked")

        monkeypatch.setattr("lvkernel.oracles.bootstrap_solve", no_solve)
        window = [1.0, 10.0]
        window[end] = bound
        message = rf"^window must be a number, got {re.escape(repr(bound))}$"
        with pytest.raises(DomainError, match=message):
            bootstrap_error_table(BSMModel(0.5, 0.1), 20.0, [0.2], 2,
                                  SpatialGrid.regular(50.0, 0.1), window=tuple(window))

    def test_unknown_oracle_rejected(self):
        grid = SpatialGrid.regular(40.0, 0.1)
        with pytest.raises(DomainError):
            bootstrap_error_table(MODEL, STRIKE, [0.2], 4, grid,
                                  oracle="monte-carlo")
