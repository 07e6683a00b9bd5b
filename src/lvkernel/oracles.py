"""Independent reference prices: exact Black-Scholes, Hagan-Woodward implied
volatility for CEV, and a Crank-Nicolson finite-difference solver; and the
error of an approximation against them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bootstrap import BootstrapConfig, bootstrap_solve
from .errors import DomainError, SingularMatrix, _finite, _float, _is_real, _positive, _result, _spots
from .grid import PriceCurve, SpatialGrid
from .kernel import KernelSpec
from .models import ArrayLike, BSMModel, CEVModel, CoefficientJet, Model, TimeDependentBSMModel
from .pricing import CallPayoff, Payoff, _closed, _norm_cdf

__all__ = [
    "bs_exact",
    "bs_delta",
    "bs_gamma",
    "bs_kernel",
    "hagan_woodward_vol",
    "hagan_woodward_price",
    "CNConfig",
    "cn_solve",
    "bootstrap_error_table",
]


def _norm_pdf(x: ArrayLike) -> ArrayLike:
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _bs_d1_d2(t: float, K: float, x: ArrayLike, sigma: ArrayLike, r: float):
    t, K, r = _positive("t", t), _positive("K", K), _finite("r", r)
    sigma, xa = _spots("sigma", sigma), _spots("x", x)  # an ndarray sigma: hagan_woodward_price
    st = sigma * np.sqrt(t)
    d1 = (np.log(xa / K) + (r + 0.5 * sigma * sigma) * t) / st
    return d1, d1 - st


def bs_exact(t: float, K: float, x: ArrayLike, sigma: float, r: float = 0.0) -> ArrayLike:
    """Exact Black-Scholes call price x N(d1) - K e^(-rt) N(d2)."""
    d1, d2 = _bs_d1_d2(t, K, x, sigma, r)
    v = np.asarray(x, dtype=float) * _norm_cdf(d1) - K * np.exp(-r * t) * _norm_cdf(d2)
    return _result(v, x, sigma)


def bs_delta(t: float, K: float, x: ArrayLike, sigma: float, r: float = 0.0) -> ArrayLike:
    d1, _ = _bs_d1_d2(t, K, x, sigma, r)
    return _result(_norm_cdf(d1), x, sigma)


def bs_gamma(t: float, K: float, x: ArrayLike, sigma: float, r: float = 0.0) -> ArrayLike:
    d1, _ = _bs_d1_d2(t, K, x, sigma, r)
    return _result(_norm_pdf(d1) / (np.asarray(x, dtype=float) * sigma * np.sqrt(t)), x, sigma)


def bs_kernel(t: float, x: float, y: ArrayLike, sigma: float, r: float = 0.0) -> ArrayLike:
    """Discounted lognormal transition density of the lognormal model.

    exp(-rt) / (y sqrt(2 pi sigma^2 t)) * exp(-(ln(x/y) + (r - sigma^2/2) t)^2
                                              / (2 sigma^2 t))
    """
    t, x, sigma, r = _positive("t", t), _positive("x", x), _positive("sigma", sigma), _finite("r", r)
    ya = _spots("y", y)
    s2t = sigma * sigma * t
    arg = (np.log(x / ya) + (r - 0.5 * sigma * sigma) * t) ** 2 / (2.0 * s2t)
    return _result(np.exp(-r * t) / (ya * np.sqrt(2.0 * np.pi * s2t)) * np.exp(-arg), y)


def hagan_woodward_vol(t: float, K: float, s0: ArrayLike, sigma: float, beta: float,
                       r: float = 0.0) -> ArrayLike:
    """Hagan-Woodward equivalent lognormal volatility for the CEV model.

    sigma_B = a/f^(1-beta) * (1 + (1-beta)(2+beta)/24 * ((e^{rT} S0 - K)/f)^2
                                + (1-beta)^2 a^2 T / (24 f^(2(1-beta))))
    with a = sigma * sqrt((e^{2r(1-beta)T} - 1)/(2r(1-beta)T)) and
    f = (e^{rT} S0 + K)/2.  The r -> 0 singularity is removable (a -> sigma).
    """
    if not (_is_real(beta) and 0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    t, K, sigma, r = _positive("t", t), _positive("K", K), _positive("sigma", sigma), _finite("r", r)
    s0a = _spots("s0", s0)
    u = 2.0 * r * (1.0 - beta) * t
    growth = np.expm1(u) / u if u != 0.0 else 1.0
    a = sigma * np.sqrt(growth)
    fwd = np.exp(r * t) * s0a
    f = (fwd + K) / 2.0
    omb = 1.0 - beta
    vol = a / f**omb * (
        1.0
        + omb * (2.0 + beta) / 24.0 * ((fwd - K) / f) ** 2
        + omb * omb * a * a * t / (24.0 * f ** (2.0 * omb))
    )
    return _result(vol, s0)


def hagan_woodward_price(t: float, K: float, s0: ArrayLike, sigma: float, beta: float,
                         r: float = 0.0) -> ArrayLike:
    """CEV call price: Black-Scholes evaluated at the Hagan-Woodward volatility."""
    return bs_exact(t, K, s0, hagan_woodward_vol(t, K, s0, sigma, beta, r), r)


@dataclass(frozen=True)
class CNConfig:
    """Grid and time-step configuration for the Crank-Nicolson solver."""

    grid: SpatialGrid
    dt: float
    t_total: float

    def __post_init__(self) -> None:
        if _positive("dt", self.dt) > _positive("t_total", self.t_total):
            raise DomainError("t_total must be at least dt")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_total / self.dt)))


def _operator_bands(jet: CoefficientJet, t: float, dx: float, m: int):
    """Tridiagonal bands (sub, diag, super) of the spatial operator
    1/2 a^2 u'' + b u' + c u at time t, from the jet of the m interior
    nodes: a = jet.a + t jet.da_dt, b and c as they are."""
    # in place where the result is new: this runs once per time step
    a = np.add(jet.a, t * jet.da_dt, out=np.empty(m))
    diff = np.multiply(0.5, a, out=np.empty(m))
    diff *= a
    diff /= dx**2
    adv = np.divide(jet.b, 2.0 * dx, out=np.empty(m))
    lo = diff - adv          # coefficient of u_{i-1}
    mid = diff * -2.0        # coefficient of u_i
    mid += jet.c
    hi = diff                # coefficient of u_{i+1}
    hi += adv
    return lo, mid, hi


def cn_solve(model: Model, config: CNConfig, payoff: Payoff) -> PriceCurve:
    """Crank-Nicolson time stepping of du/dt = 1/2 a^2 u'' + b u' + c u.

    The coefficients are one jet of the interior nodes, a(t) = a + t da_dt.
    Initial data is the payoff sampled on the grid.  Lower boundary: Dirichlet
    u(t, x_min) = h(x_min) exp(c(x_min) t) (zero for calls and butterflies).
    Upper boundary: zero second derivative, folded into the last interior row
    so the system stays tridiagonal for LAPACK's LU: factored once (dgttrf,
    then dgttrs each step) where da_dt is 0 on every interior node, else
    factored and solved each step (dgtsv, the two fused: the same bytes).
    """
    # imported here: it would add about 0.2 s to every import of the package
    from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

    xs = config.grid.nodes
    dx = config.grid.dx
    n = xs.size
    if n < 4:
        raise DomainError("Crank-Nicolson grid needs at least 4 nodes")
    n_steps = config.n_steps
    dt = config.t_total / n_steps

    u = np.asarray(payoff(xs), dtype=float).copy()
    h0 = u[0]
    c_left = float(model.jet(xs[0]).c)
    jet = model.jet(xs[1:-1])

    def implicit(bands):
        """Sub-, main and super-diagonal of I - dt/2 * A over unknowns
        u_0..u_{n-2}; row 0 is the Dirichlet row."""
        lo, mid, hi = bands
        sub = np.empty(n - 2)
        diag = np.ones(n - 1)
        sup = np.zeros(n - 2)
        np.multiply(-0.5 * dt, lo[:-1], out=sub[:-1])
        np.multiply(0.5 * dt, mid[:-1], out=diag[1:-1])
        np.subtract(1.0, diag[1:-1], out=diag[1:-1])
        np.multiply(-0.5 * dt, hi[:-1], out=sup[1:])
        # row n-2: u_{n-1} = 2 u_{n-2} - u_{n-3} folds into the row
        sub[-1] = -0.5 * dt * (lo[-1] - hi[-1])
        diag[-1] = 1.0 - 0.5 * dt * (mid[-1] + 2.0 * hi[-1])
        return sub, diag, sup

    # the bands at t_new of one step are the explicit bands of the next
    bands = _operator_bands(jet, 0.0, dx, n - 2)
    fixed = not np.any(jet.da_dt != 0.0)
    if fixed:
        *lu, info = dgttrf(*implicit(bands))

    for k in range(n_steps):
        t_new = (k + 1) * dt
        lo, mid, hi = bands
        rhs = u[: n - 1].copy()
        step = lo * u[0:n - 2]
        step += mid * u[1:n - 1]
        step += hi * u[2:n]
        step *= 0.5 * dt
        rhs[1:] += step
        rhs[0] = h0 * np.exp(c_left * t_new)
        if fixed:  # info stays dgttrf's: a zero pivot is what it reports
            sol, _ = dgttrs(*lu, rhs, overwrite_b=True)
        else:
            bands = _operator_bands(jet, t_new, dx, n - 2)
            *_, sol, info = dgtsv(*implicit(bands), rhs, True, True, True, True)
        if info != 0:
            raise SingularMatrix(f"tridiagonal solve failed (info {info})")
        u[: n - 1] = sol
        u[n - 1] = 2.0 * u[n - 2] - u[n - 3]

    return PriceCurve(xs, u)


_ORACLES = ("bs-exact", "hagan-woodward", "cn")  # _reference's names, as the CLI lists them


def _reference(name: str, model: Model, payoff: Payoff,
               grid: SpatialGrid) -> Callable[[float], np.ndarray]:
    """The named oracle's prices at the grid nodes, as a function of maturity.

    Raises DomainError, before anything is solved, for a name outside
    _ORACLES or an oracle that does not fit the model or the payoff; every
    caller of _scored resolves its oracle here first.  cn runs cn_solve on
    `grid` itself with dt = min(1e-3, t/200), so the grid's span and spacing
    set its error: on 12:18:1 a BSM call (sigma=0.3, r=0.1, K=15, t=0.5)
    reads 0 at x=12 and 3.06 at x=18, where bs_exact gives 0.323 and 3.97.
    bs-exact is exact for BSM and TD-BSM alike: a TD-BSM call is bs_exact at
    the mean variance sigma^2 + sigma sigma_dot0 t + sigma_dot0^2 t^2 / 3.
    """
    if name not in _ORACLES:
        raise DomainError(f"unknown oracle {name!r}")
    xs = grid.nodes
    if name == "bs-exact":
        if not isinstance(model, (BSMModel, TimeDependentBSMModel)):
            raise DomainError("the bs-exact oracle needs a 'bsm' or 'tdbsm' model")
        if not isinstance(payoff, CallPayoff):
            raise DomainError("the bs-exact oracle compares call payoffs only")
        s, s_dot = model.sigma, getattr(model, "sigma_dot0", 0.0)
        # the mean of (s + s_dot u)^2 over [0, t]; at s_dot = 0, sqrt(s * s) is s
        return lambda t: bs_exact(t, payoff.strike, xs, math.sqrt(
            s * s + s * s_dot * t + (s_dot * t) ** 2 / 3.0), model.r)
    if name == "hagan-woodward":
        if not isinstance(model, CEVModel):
            raise DomainError("the hagan-woodward oracle needs a 'cev' model")
        if model.alpha >= 1.0:
            raise DomainError("the hagan-woodward oracle needs a 'cev' alpha below 1")
        if not isinstance(payoff, CallPayoff):
            raise DomainError("the hagan-woodward oracle compares call payoffs only")
        return lambda t: hagan_woodward_price(t, payoff.strike, xs, model.sigma,
                                              model.alpha, model.r)
    if grid.n_nodes < 4:
        raise DomainError("the cn oracle needs a grid of at least 4 nodes")
    return lambda t: cn_solve(model, CNConfig(grid, min(1e-3, t / 200.0), t), payoff).values


def _scored(spec: KernelSpec, payoff: Payoff, grid: SpatialGrid, times: Sequence[float],
            n_steps: Optional[int], oracle_at: Callable[[float], np.ndarray]) -> List[tuple]:
    """For each maturity t, (t, the approximation at the grid nodes, the
    oracle's prices there): bootstrap_solve over n_steps sub-steps, or the
    closed form when n_steps is None, then oracle_at(t) from _reference."""
    out = []
    for t in times:
        approx = (_closed(spec.order, spec.model, t, payoff, grid.nodes, spec.basepoint)
                  if n_steps is None
                  else bootstrap_solve(BootstrapConfig(spec, t, n_steps, grid), payoff).values)
        out.append((t, approx, oracle_at(t)))
    return out


def bootstrap_error_table(model: Model, strike: float, times: Sequence[float],
                          n_steps: int, grid: SpatialGrid, oracle: str = "bs-exact",
                          window: Tuple[float, float] = (0.0, 40.0),
                          ) -> List[Tuple[float, float]]:
    """Sup-norm call-price error of the composed scheme against an oracle.

    For each maturity in `times`, the largest absolute deviation of _scored's
    approximation (KernelSpec(model), order 2 at z = x, a call struck at
    `strike`, n_steps sub-steps) from the named oracle's prices over the grid
    nodes x with window[0] < x <= window[1].  Before any solve, the window's
    bounds must be real numbers, the oracle must fit the model (see
    _reference), and the window must hold a grid node and end inside the
    grid, where the composition keeps its mass.
    """
    lo, hi = (_float("window", w) for w in window)  # a nan bound holds no node: said below
    payoff = CallPayoff(strike)
    oracle_at = _reference(oracle, model, payoff, grid)
    if hi > grid.x_max:
        raise DomainError(f"error window ends at {hi:g}, past the grid's x_max {grid.x_max:g}")
    mask = (grid.nodes > lo) & (grid.nodes <= hi)
    if not np.any(mask):
        raise DomainError(f"error window ({lo:g}, {hi:g}] holds no grid node")
    times = [_positive("time", t) for t in times]
    scored = _scored(KernelSpec(model), payoff, grid, times, n_steps, oracle_at)
    return [(t, float(np.max(np.abs(approx[mask] - ref[mask])))) for t, approx, ref in scored]
