"""Option valuation: closed forms at basepoint z=x (Gaussian moments of the
kernel's Hermite series), quadrature pricing for general basepoints and
payoffs, puts via parity, finite-difference Greeks."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, GridTooCoarseWarning
from .grid import PriceCurve, SpatialGrid, simpson_weights
from .kernel import EXP_ARG_MAX, KernelSpec, _he_to_power, _hermite_coefficients, _kernel_rows
from .models import BasepointRule, CoefficientJet, Model

__all__ = [
    "Payoff",
    "CallPayoff",
    "PutPayoff",
    "ButterflyPayoff",
    "SampledPayoff",
    "price_call_closed",
    "price_put",
    "price_butterfly_closed",
    "price_quadrature",
    "price_curve",
    "greeks",
    "curve_greeks",
]

ArrayLike = Union[float, np.ndarray]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _check_strike(K: float) -> None:
    if not math.isfinite(K) or K <= 0.0:
        raise DomainError("strike must be positive")


class Payoff:
    """Terminal condition h(y).  Subclasses are callable on scalars or arrays."""

    def __call__(self, y: ArrayLike) -> ArrayLike:
        raise NotImplementedError


@dataclass(frozen=True)
class CallPayoff(Payoff):
    strike: float

    def __post_init__(self) -> None:
        _check_strike(self.strike)

    def __call__(self, y: ArrayLike) -> ArrayLike:
        return np.maximum(np.asarray(y, dtype=float) - self.strike, 0.0)


@dataclass(frozen=True)
class PutPayoff(Payoff):
    strike: float

    def __post_init__(self) -> None:
        _check_strike(self.strike)

    def __call__(self, y: ArrayLike) -> ArrayLike:
        return np.maximum(self.strike - np.asarray(y, dtype=float), 0.0)


@dataclass(frozen=True)
class ButterflyPayoff(Payoff):
    """Hat function vanishing outside [k1, k2] and peaking at k."""

    k1: float
    k: float
    k2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.k1 < self.k < self.k2):
            raise DomainError("butterfly strikes must satisfy 0 < k1 < k < k2")
        _check_strike(self.k2)  # the ordering already bounds k1 and k

    @property
    def call_weights(self) -> tuple[float, float, float]:
        """Weights (w1, w2, w3) so that the hat equals
        w1*call(k1) - w2*call(k) + w3*call(k2)."""
        w2 = (self.k2 - self.k1) / (self.k2 - self.k)
        w3 = (self.k - self.k1) / (self.k2 - self.k)
        return 1.0, w2, w3

    def __call__(self, y: ArrayLike) -> ArrayLike:
        y = np.asarray(y, dtype=float)
        w1, w2, w3 = self.call_weights
        return (
            w1 * np.maximum(y - self.k1, 0.0)
            - w2 * np.maximum(y - self.k, 0.0)
            + w3 * np.maximum(y - self.k2, 0.0)
        )


@dataclass(frozen=True)
class SampledPayoff(Payoff):
    """Payoff specified by samples on a grid; evaluated by linear interpolation."""

    y: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if y.ndim != 1 or v.shape != y.shape or y.size < 2:
            raise DomainError("sampled payoff needs matching 1-D arrays of length >= 2")
        if not np.all(np.diff(y) > 0.0):
            raise DomainError("sample points must be strictly increasing")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "values", v)

    def __call__(self, yq: ArrayLike) -> ArrayLike:
        return np.interp(yq, self.y, self.values)


def _order_fault(order: int) -> Optional[str]:
    """Why no closed form of this expansion order exists, or None (1 and 2)."""
    return None if order in (1, 2) else f"price order must be 1 or 2, got {order}"


def _check_quote(order: int, t: float, K: float) -> None:
    if (fault := _order_fault(order)) is not None:
        raise DomainError(fault)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"time must be positive and finite, got {t}")
    _check_strike(K)


def _spot(x: ArrayLike) -> ArrayLike:
    return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)


def _as_input_kind(value: ArrayLike, x: ArrayLike) -> ArrayLike:
    """A Python float for a scalar spot x, else the array as it is."""
    return value if isinstance(x, np.ndarray) else float(value)


def _forward(order: int, jet: CoefficientJet, t: float, m: ArrayLike) -> ArrayLike:
    """The kernel's full-line moment int K(x, y) (y - K) dy = h_0 m - h_1 s at
    z = x: m + b t, plus c t m at order 2."""
    forward = m + jet.b * t
    if order == 2:
        forward = forward + jet.c * t * m
    return forward


def _calls(order: int, jet: CoefficientJet, t: float, strikes, x: ArrayLike) -> list:
    """The calls of price_call_closed at each strike, from the jet at z = x.
    The bracket's powers of mu depend on the jet alone and are computed once."""
    h = _hermite_coefficients(jet, t, x, x, order)
    # h_0 + sum_{k>=2} h_k He_{k-2}(mu) by powers of mu
    bracket = _he_to_power([h[0] + h[2]] + h[3:])
    s = jet.a * np.sqrt(t)  # a NumPy scalar: a width s^2 that underflows divides to inf
    s2 = s * s
    calls = []
    for K in strikes:
        # the Gaussian factor comes before mu: in long runs of 10k-spot quotes
        # the other order made glibc trim and re-fault the heap on every call,
        # as did an np.where on the Gaussian term in place of poly[dead] = 0
        m = x - K
        q = m * m / (2.0 * s2)
        expq = np.exp(-q) * (q <= EXP_ARG_MAX)
        mu = m / s
        E = ndtr(mu)
        poly = bracket[-1]
        for e in reversed(bracket[:-1]):
            poly = poly * mu + e
        dead = q > EXP_ARG_MAX  # as in the kernel, the Gaussian term is exactly 0 there
        if isinstance(poly, np.ndarray):
            poly[dead] = 0.0
        elif dead:
            poly = 0.0
        calls.append(E * _forward(order, jet, t, m) + s / _SQRT_2PI * expq * poly)
    return calls


def price_call_closed(order: int, model: Model, t: float, K: float, x: ArrayLike) -> ArrayLike:
    """Closed-form call price of order 1 or 2 at basepoint z = x.

    The price is the Gaussian moment int K(x, y) (y - K)+ dy of the kernel
    K = G_0(d) sum_k h_k He_k(d/s), s = a sqrt(t), d = x - y.  With m = x - K
    and mu = m/s it is

        Phi(mu) (h_0 m - h_1 s) + s phi(mu) (h_0 + sum_{k>=2} h_k He_{k-2}(mu)),

    because int_{u<mu} phi(u) He_k(u) (m - s u) du = s phi(mu) He_{k-2}(mu)
    for k >= 2; h_0 m - h_1 s = m + b t (+ c t m at order 2) is the forward.
    """
    _check_quote(order, t, K)
    xs = _spot(x)
    return _as_input_kind(_calls(order, model.jet(xs), t, (K,), xs)[0], x)


def price_put(order: int, model: Model, t: float, K: float, x: ArrayLike) -> ArrayLike:
    """Put price via parity: put = call - forward, the forward being the
    kernel's full-line moment m + b t (+ c t m at order 2), m = x - K.

    The order-1 kernel has a negative lobe, so an order-1 put far out of the
    money can be negative: price_put(1, BSMModel(0.3, 0.1), 0.1, 15.0, 20.0)
    is -1.30e-3.  The order-2 price there is +8.9e-4.
    """
    _check_quote(order, t, K)
    xs = _spot(x)
    jet = model.jet(xs)
    return _as_input_kind(_calls(order, jet, t, (K,), xs)[0] - _forward(order, jet, t, xs - K), x)


def price_butterfly_closed(order: int, model: Model, t: float, payoff: ButterflyPayoff,
                           x: ArrayLike) -> ArrayLike:
    """Closed-form butterfly price as a linear combination of three calls."""
    _check_quote(order, t, payoff.k1)
    xs = _spot(x)
    w1, w2, w3 = payoff.call_weights
    c1, c2, c3 = _calls(order, model.jet(xs), t, (payoff.k1, payoff.k, payoff.k2), xs)
    return _as_input_kind(w1 * c1 - w2 * c2 + w3 * c3, x)


def price_quadrature(spec: KernelSpec, t: float, payoff: Payoff, x: ArrayLike,
                     grid: SpatialGrid) -> ArrayLike:
    """Composite-Simpson approximation of int kernel(x, y) h(y) dy over the grid.

    On an even interval count of at least 4 the value is recomputed on every
    second grid node; a difference beyond 1e-6*(1+|value|) emits
    GridTooCoarseWarning (the coarse comparison bounds the fine-grid
    quadrature error conservatively).  Silence it with the warnings module.
    """
    y = grid.nodes
    hy = payoff(y)
    wh = grid.weights * hy
    wh2 = (simpson_weights(grid.n_nodes // 2 + 1, 2.0 * grid.dx) * hy[::2]
           if grid.n_intervals % 2 == 0 and grid.n_intervals >= 4 else None)
    scalar = not isinstance(x, np.ndarray)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    vals, coarse = np.empty(xa.size), np.empty(xa.size)
    for rows, k in _kernel_rows(spec, t, xa, y):
        vals[rows] = k @ wh
        if wh2 is not None:
            coarse[rows] = k[:, ::2] @ wh2
    if wh2 is not None:
        defect = np.max(np.abs(vals - coarse) - 1e-6 * (1.0 + np.abs(vals)))
        if defect > 0.0:
            warnings.warn(
                f"quadrature grid dx={grid.dx} looks too coarse "
                f"(coarse-grid defect {defect:.3g})",
                GridTooCoarseWarning,
                stacklevel=2,
            )
    return float(vals[0]) if scalar else vals


def price_curve(spec: KernelSpec, t: float, payoff: Payoff, grid: SpatialGrid,
                method: str = "quadrature") -> PriceCurve:
    """Price at every grid node, as a curve."""
    xs = grid.nodes
    if method == "closed":
        vals = _price_closed_dispatch(spec, t, payoff, xs)
    elif method == "quadrature":
        vals = price_quadrature(spec, t, payoff, xs, grid)
    else:
        raise DomainError(f"unknown pricing method {method!r}")
    return PriceCurve(xs, np.asarray(vals, dtype=float))


def _why_no_closed_form(spec: KernelSpec, payoff: Payoff) -> Optional[str]:
    """Why (spec, payoff) has no closed-form price, or None when it has one."""
    if spec.basepoint is not BasepointRule.AT_X:
        return "closed-form prices exist only for the z=x basepoint"
    if not isinstance(payoff, (CallPayoff, PutPayoff, ButterflyPayoff)):
        return "closed-form pricing supports call, put and butterfly payoffs"
    return _order_fault(spec.order)


def _price_closed_dispatch(spec: KernelSpec, t: float, payoff: Payoff, x: ArrayLike) -> ArrayLike:
    reason = _why_no_closed_form(spec, payoff)
    if reason is not None:
        raise DomainError(reason)
    order = spec.order
    if isinstance(payoff, CallPayoff):
        return price_call_closed(order, spec.model, t, payoff.strike, x)
    if isinstance(payoff, PutPayoff):
        return price_put(order, spec.model, t, payoff.strike, x)
    return price_butterfly_closed(order, spec.model, t, payoff, x)


def greeks(price_fn: Callable[[float, ArrayLike], ArrayLike], t: float, x: ArrayLike,
           dx: float) -> tuple[ArrayLike, ArrayLike]:
    """Central-difference delta and gamma of an arbitrary pricing function.

    delta = (u(t, x+dx) - u(t, x-dx)) / (2 dx)
    gamma = (u(t, x+dx) + u(t, x-dx) - 2 u(t, x)) / dx^2
    """
    if not (math.isfinite(dx) and dx > 0.0):
        raise DomainError("dx must be positive and finite")
    if np.any(np.asarray(x) - dx <= 0.0):
        raise DomainError("greeks need x - dx > 0")
    up = price_fn(t, np.asarray(x) + dx)
    dn = price_fn(t, np.asarray(x) - dx)
    mid = price_fn(t, x)
    delta = (np.asarray(up) - np.asarray(dn)) / (2.0 * dx)
    gamma = (np.asarray(up) + np.asarray(dn) - 2.0 * np.asarray(mid)) / dx**2
    return delta, gamma


def curve_greeks(curve: PriceCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference delta and gamma on a curve's own nodes.

    Returns (x_inner, delta, gamma) on the interior nodes; the step is the
    curve's grid spacing.
    """
    x = curve.x
    if len(x) < 3:
        raise DomainError("need at least 3 samples for curve Greeks")
    dx = x[1] - x[0]
    u = curve.values
    delta = (u[2:] - u[:-2]) / (2.0 * dx)
    gamma = (u[2:] + u[:-2] - 2.0 * u[1:-1]) / dx**2
    return x[1:-1], delta, gamma
