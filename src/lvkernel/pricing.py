"""Option valuation: closed forms at basepoint z=x (Gaussian moments of the
kernel's Hermite series), quadrature pricing for general basepoints and
payoffs, puts via parity, finite-difference Greeks."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, GridTooCoarseWarning, _is_int, _positive, _real_array, _result, _spots
from .grid import PriceCurve, SpatialGrid, simpson_weights
from .kernel import KernelSpec, _he_to_power, _hermite_coefficients, _kernel_rows
from .models import ArrayLike, BasepointRule, CoefficientJet, Model

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

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2  # exp(-z^2) underflows past z^2 = MAXLOG
# exp(-q) underflows past this.  The closed forms are full-line moments: cut at kernel.Q_MAX,
# their s phi(mu) term would leave Phi(mu) times the forward uncancelled far out of the money
_EXP_UNDERFLOW = 745.0
_LOOP_MAX = 1024  # Phi of ~1 us an element: at most ~1 ms, against ~0.3 s to load ndtr


def _norm_cdf(x: ArrayLike) -> ArrayLike:
    """Standard normal CDF Phi, the package's one copy.

    A short run loads no SciPy, as scipy.special costs a fresh process about
    0.3 s.  A Python or NumPy float takes the Cephes formulas that
    scipy.special.ndtr runs (S. L. Moshier, Methods and Programs for
    Mathematical Functions, 1989) in the same order of operations, so it
    returns ndtr's bits: erf(z) = z T(z^2) / U(z^2) for z < 1, and erfc(z) =
    (exp(-z^2) P(z)) / Q(z) below 8 and (exp(-z^2) R(z)) / S(z) from 8, at
    z = |x| / sqrt(2).  U, Q and S are monic; the Horner sums are written
    out because a loop costs twice as much.  NaN falls through to NaN.
    """
    if not isinstance(x, float):
        return _ndtr(x)
    u = float(x) * _SQRT1_2
    z = abs(u)
    if z < 1.0:
        w = z * z
        erf = (z * ((((9.60497373987051638749e0 * w + 9.00260197203842689217e1) * w
                      + 2.23200534594684319226e3) * w + 7.00332514112805075473e3) * w
                    + 5.55923013010394962768e4)
               / (((((w + 3.35617141647503099647e1) * w + 5.21357949780152679795e2) * w
                    + 4.59432382970980127987e3) * w + 2.26290000613890934246e4) * w
                  + 4.92673942608635921086e4))
        if z < _SQRT1_2:
            return 0.5 + 0.5 * erf if u >= 0.0 else 0.5 - 0.5 * erf
        half_erfc = 0.5 * (1.0 - erf)
    elif z * z > _MAXLOG:
        half_erfc = 0.0
    elif z < 8.0:
        half_erfc = 0.5 * ((math.exp(-z * z)
                            * ((((((((2.46196981473530512524e-10 * z + 5.64189564831068821977e-1)
                                     * z + 7.46321056442269912687e0) * z
                                    + 4.86371970985681366614e1) * z + 1.96520832956077098242e2)
                                  * z + 5.26445194995477358631e2) * z + 9.34528527171957607540e2)
                                * z + 1.02755188689515710272e3) * z + 5.57535335369399327526e2))
                           / ((((((((z + 1.32281951154744992508e1) * z + 8.67072140885989742329e1)
                                   * z + 3.54937778887819891062e2) * z + 9.75708501743205489753e2)
                                 * z + 1.82390916687909736289e3) * z + 2.24633760818710981792e3)
                               * z + 1.65666309194161350182e3) * z + 5.57535340817727675546e2))
    else:
        half_erfc = 0.5 * ((math.exp(-z * z)
                            * (((((5.64189583547755073984e-1 * z + 1.27536670759978104416e0) * z
                                  + 5.01905042251180477414e0) * z + 6.16021097993053585195e0) * z
                                + 7.40974269950448939160e0) * z + 2.97886665372100240670e0))
                           / ((((((z + 2.26052863220117276590e0) * z + 9.39603524938001434673e0)
                                 * z + 1.20489539808096656605e1) * z + 1.70814450747565897222e1)
                               * z + 9.60896809063285878198e0) * z + 3.36907645100081516050e0))
    return 1.0 - half_erfc if u > 0.0 else half_erfc


def _ndtr(x) -> ArrayLike:
    """Phi of all but floats until it binds scipy.special.ndtr in its own place: while that is
    not loaded, a float64 ndarray of at most _LOOP_MAX elements loops the float branch."""
    global _ndtr
    if (type(x) is np.ndarray and x.dtype == np.float64 and x.size <= _LOOP_MAX
            and "scipy.special" not in sys.modules):  # [()] makes a 0-d result np.float64
        return np.reshape([_norm_cdf(v) for v in x.ravel().tolist()], x.shape)[()]
    from scipy.special import ndtr as _ndtr
    return _ndtr(x)


class Payoff:
    """Terminal condition h(y).  Subclasses are callable on scalars or arrays."""

    def __call__(self, y: ArrayLike) -> ArrayLike:
        raise NotImplementedError


@dataclass(frozen=True)
class CallPayoff(Payoff):
    strike: float

    def __post_init__(self) -> None:
        _positive("strike", self.strike)

    def __call__(self, y: ArrayLike) -> ArrayLike:
        return _result(np.maximum(_real_array("y", y) - self.strike, 0.0), y)


@dataclass(frozen=True)
class PutPayoff(Payoff):
    strike: float

    def __post_init__(self) -> None:
        _positive("strike", self.strike)

    def __call__(self, y: ArrayLike) -> ArrayLike:
        return _result(np.maximum(self.strike - _real_array("y", y), 0.0), y)


@dataclass(frozen=True)
class ButterflyPayoff(Payoff):
    """Hat function vanishing outside [k1, k2] and peaking at k."""

    k1: float
    k: float
    k2: float

    def __post_init__(self) -> None:
        k1, k, k2 = (_positive("strike", v) for v in (self.k1, self.k, self.k2))
        if not k1 < k < k2:
            raise DomainError("butterfly strikes must satisfy 0 < k1 < k < k2")

    @property
    def call_weights(self) -> tuple[float, float, float]:
        """Weights (w1, w2, w3) so that the hat equals
        w1*call(k1) - w2*call(k) + w3*call(k2)."""
        w2 = (self.k2 - self.k1) / (self.k2 - self.k)
        w3 = (self.k - self.k1) / (self.k2 - self.k)
        return 1.0, w2, w3

    def __call__(self, y: ArrayLike) -> ArrayLike:
        ya = _real_array("y", y)
        w1, w2, w3 = self.call_weights
        hat = (w1 * np.maximum(ya - self.k1, 0.0) - w2 * np.maximum(ya - self.k, 0.0)
               + w3 * np.maximum(ya - self.k2, 0.0))
        return _result(hat, y)


class SampledPayoff(PriceCurve, Payoff):
    """Payoff given by at least 2 finite samples at increasing points x,
    evaluated by linear interpolation (constant past the end samples)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self) < 2:
            raise DomainError("sampled payoff needs at least 2 samples")

    __call__ = PriceCurve.value_at


def _why_no_closed_form(order: int, payoff: Payoff, rule: BasepointRule) -> Optional[str]:
    """Why (order, payoff, rule) has no closed-form price, or None when it has one."""
    if rule is not BasepointRule.AT_X:
        return "closed-form prices exist only for the z=x basepoint"
    if not isinstance(payoff, (CallPayoff, PutPayoff, ButterflyPayoff)):
        return "closed-form pricing supports call, put and butterfly payoffs"
    ok = _is_int(order) and order in (1, 2)
    return None if ok else f"price order must be 1 or 2, got {order!r}"


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
    h = _hermite_coefficients(jet, t, 0.0, order)
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
        expq = np.exp(-q) * (q <= _EXP_UNDERFLOW)
        mu = m / s
        E = _norm_cdf(mu)
        poly = bracket[-1]
        for e in reversed(bracket[:-1]):
            poly = poly * mu + e
        dead = q > _EXP_UNDERFLOW  # the Gaussian term is exactly 0 there
        if isinstance(poly, np.ndarray):
            poly[dead] = 0.0
        elif dead:
            poly = 0.0
        calls.append(E * _forward(order, jet, t, m) + s / _SQRT_2PI * expq * poly)
    return calls


def _closed(order: int, model: Model, t: float, payoff: Payoff, x: ArrayLike,
            rule: BasepointRule = BasepointRule.AT_X) -> ArrayLike:
    """The one body of every closed form, past _why_no_closed_form: the payoff's
    calls from one jet at z = x, less the forward for a put, three weighted calls
    for a butterfly; errors._result's float or ndarray.  The jet dies with _calls,
    before the butterfly's calls combine; only the put keeps it, for the forward."""
    if (reason := _why_no_closed_form(order, payoff, rule)) is not None:
        raise DomainError(reason)
    t = _positive("time", t)
    xs = _spots("x", x)
    if isinstance(payoff, ButterflyPayoff):
        w1, w2, w3 = payoff.call_weights
        c1, c2, c3 = _calls(order, model.jet(xs), t, (payoff.k1, payoff.k, payoff.k2), xs)
        value = w1 * c1 - w2 * c2 + w3 * c3
    elif isinstance(payoff, PutPayoff):
        jet, K = model.jet(xs), payoff.strike
        value = _calls(order, jet, t, (K,), xs)[0] - _forward(order, jet, t, xs - K)
    else:
        value = _calls(order, model.jet(xs), t, (payoff.strike,), xs)[0]
    return _result(value, x)


def price_call_closed(order: int, model: Model, t: float, K: float, x: ArrayLike) -> ArrayLike:
    """Closed-form call price of order 1 or 2 at basepoint z = x.

    The price is the Gaussian moment int K(x, y) (y - K)+ dy of the kernel
    K = G_0(d) sum_k h_k He_k(d/s), s = a sqrt(t), d = x - y.  With m = x - K
    and mu = m/s it is

        Phi(mu) (h_0 m - h_1 s) + s phi(mu) (h_0 + sum_{k>=2} h_k He_{k-2}(mu)),

    because int_{u<mu} phi(u) He_k(u) (m - s u) du = s phi(mu) He_{k-2}(mu)
    for k >= 2; h_0 m - h_1 s = m + b t (+ c t m at order 2) is the forward.
    """
    return _closed(order, model, t, CallPayoff(K), x)


def price_put(order: int, model: Model, t: float, K: float, x: ArrayLike) -> ArrayLike:
    """Put price via parity: put = call - forward, the forward being the
    kernel's full-line moment m + b t (+ c t m at order 2), m = x - K.

    The order-1 kernel has a negative lobe, so an order-1 put far out of the
    money can be negative: price_put(1, BSMModel(0.3, 0.1), 0.1, 15.0, 20.0)
    is -1.30e-3.  The order-2 price there is +8.9e-4.
    """
    return _closed(order, model, t, PutPayoff(K), x)


def price_butterfly_closed(order: int, model: Model, t: float, payoff: ButterflyPayoff,
                           x: ArrayLike) -> ArrayLike:
    """Closed-form butterfly price as a linear combination of three calls."""
    return _closed(order, model, t, payoff, x)


def price_quadrature(spec: KernelSpec, t: float, payoff: Payoff, x: ArrayLike,
                     grid: SpatialGrid) -> ArrayLike:
    """Composite-Simpson approximation of int kernel(x, y) h(y) dy over the grid.

    On an even interval count of at least 4 the value is recomputed on every
    second grid node; a difference beyond 1e-6*(1+|value|) emits
    GridTooCoarseWarning (the coarse comparison bounds the fine-grid
    quadrature error conservatively), as does, once per call, a kernel that
    reaches past an end node where the payoff, dropped beyond, is not 0.
    Silence it with the warnings module.
    """
    return _quadrature(spec, t, payoff, x, grid)


def _quadrature(spec: KernelSpec, t: float, payoff: Payoff, x: ArrayLike,
                grid: SpatialGrid) -> ArrayLike:
    """The body of price_quadrature.  price_quadrature and price_curve both
    call it directly, so its warning's stacklevel=3 names their caller."""
    y = grid.nodes
    hy = payoff(y)
    wh = grid.weights * hy
    wh2 = (simpson_weights(grid.n_nodes // 2 + 1, 2.0 * grid.dx) * hy[::2]
           if grid.n_intervals % 2 == 0 and grid.n_intervals >= 4 else None)
    xa = np.ravel(_spots("x", x))
    vals, coarse = np.empty(xa.size), np.empty(xa.size)
    for rows, k in _kernel_rows(spec, t, xa, y):
        vals[rows] = k @ wh
        if wh2 is not None:
            coarse[rows] = k[:, ::2] @ wh2
    if wh2 is not None and xa.size:
        defect = np.max(np.abs(vals - coarse) - 1e-6 * (1.0 + np.abs(vals)))
        if defect > 0.0:
            warnings.warn(
                f"quadrature grid dx={grid.dx} looks too coarse "
                f"(coarse-grid defect {defect:.3g})",
                GridTooCoarseWarning,
                stacklevel=3,
            )
    left, right = _past_ends(grid, xa, spec.model.jet(xa).a * np.sqrt(t))
    if (hy[0] != 0.0 and left.any()) or (hy[-1] != 0.0 and right.any()):
        warnings.warn(f"a kernel reaches past the grid [{grid.x_min:g}, {grid.x_max:g}], where "
                      "the payoff is not 0: quadrature drops the payoff beyond",
                      GridTooCoarseWarning, stacklevel=3)
    return _result(vals.reshape(np.shape(x)), x)


def _past_ends(grid: SpatialGrid, x: np.ndarray, width: np.ndarray):
    """Whether the kernel at x, of width a(x) sqrt(t), reaches past the grid's
    first and last node: six widths, past which the Gaussian tail is < 1e-9."""
    return x - 6.0 * width < grid.x_min, x + 6.0 * width > grid.x_max


def price_curve(spec: KernelSpec, t: float, payoff: Payoff, grid: SpatialGrid,
                method: str = "quadrature") -> PriceCurve:
    """Price at every grid node, as a curve."""
    xs = grid.nodes
    if method == "closed":
        vals = _closed(spec.order, spec.model, t, payoff, xs, spec.basepoint)
    elif method == "quadrature":
        vals = _quadrature(spec, t, payoff, xs, grid)
    else:
        raise DomainError(f"unknown pricing method {method!r}")
    return PriceCurve(xs, np.asarray(vals, dtype=float))


def greeks(price_fn: Callable[[float, ArrayLike], ArrayLike], t: float, x: ArrayLike,
           dx: float) -> tuple[ArrayLike, ArrayLike]:
    """Central-difference delta and gamma of an arbitrary pricing function.

    delta = (u(t, x+dx) - u(t, x-dx)) / (2 dx)
    gamma = (u(t, x+dx) + u(t, x-dx) - 2 u(t, x)) / dx^2
    """
    dx, xs = _positive("dx", dx), _spots("x", x)
    if np.any(xs - dx <= 0.0):
        raise DomainError("greeks need x - dx > 0")
    # each price by the result rule: a scalar spot differences Python floats
    up = _result(price_fn(t, xs + dx), x)
    dn = _result(price_fn(t, xs - dx), x)
    mid = _result(price_fn(t, xs), x)
    return _result((up - dn) / (2.0 * dx), x), _result((up + dn - 2.0 * mid) / dx**2, x)


def curve_greeks(curve: PriceCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference delta and gamma on a curve's own nodes.

    Returns (x_inner, delta, gamma) on the interior nodes; the step is the
    curve's grid spacing, which must be uniform to a relative 1e-9.
    """
    x = curve.x
    if len(x) < 3:
        raise DomainError("need at least 3 samples for curve Greeks")
    dx = x[1] - x[0]
    if np.any(np.abs(np.diff(x) - dx) > 1e-9 * dx):
        raise DomainError("curve Greeks need evenly spaced samples")
    u = curve.values
    delta = (u[2:] - u[:-2]) / (2.0 * dx)
    gamma = (u[2:] + u[:-2] - 2.0 * u[1:-1]) / dx**2
    return x[1:-1], delta, gamma
