"""Short-time approximate transition kernels of orders 0, 1, and 2.

Every kernel, at every order and basepoint rule z(x, y), is one Hermite
series G_0(d) * sum_{k <= 3n} h_k He_k(d/s), d = x - y, s = a sqrt(t), G_0 the
Gaussian of the jet frozen at z; _hermite_coefficients is the one copy of the
h_k.  Evaluation sums the series in powers of d (one exp per entry and a
Horner sum; at z = x one set of powers per row of an (x, y) block), and the
closed-form prices in pricing are its Gaussian moments.  All operations are
pure functions and vectorize over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite, pi, sqrt
from typing import Union

import numpy as np

from .errors import DegenerateCoefficient, DomainError
from .models import BasepointRule, CoefficientJet, Model, basepoint

__all__ = ["KernelSpec", "kernel_eval"]

ArrayLike = Union[float, np.ndarray]

# exp(-q) underflows double precision past this; the kernel is defined to be
# exactly zero there rather than subnormal noise
EXP_ARG_MAX = 745.0
# rows of an (x, y) block evaluated at once: bounds the block-sized temporaries
_CHUNK_ROWS = 64

# the probabilists' Hermite polynomials He_k(u) = sum_j _HERMITE[k][j] * u**(k - 2j)
_HERMITE = tuple(tuple((-1) ** j * factorial(k) // (factorial(j) * factorial(k - 2 * j) * 2**j)
                       for j in range(k // 2 + 1)) for k in range(7))
# their lower terms (m, k, coefficient of u**m in He_k), m < k, by increasing k
_HE_LOWER = tuple((k - 2 * j, k, c) for k, r in enumerate(_HERMITE) for j, c in enumerate(r) if j)


@dataclass(frozen=True)
class KernelSpec:
    """Identifies one approximate kernel: model, expansion order, basepoint rule."""

    model: Model
    order: int = 2
    basepoint: BasepointRule = BasepointRule.AT_X

    def __post_init__(self) -> None:
        if self.order not in (0, 1, 2):
            raise DomainError(f"kernel order must be 0, 1 or 2, got {self.order}")


def _p_polynomials(jet: CoefficientJet, xi):
    """Coefficient polynomials P_0..P_6 of the order-2 correction.

    xi is the rescaled basepoint offset (x - z)/sqrt(t), or None at z = x,
    where P_1, P_3, P_5 and the xi-dependent parts of P_2, P_4 vanish and are
    not computed.
    """
    a, ap, app, adot = jet.a, jet.da_dx, jet.d2a_dx2, jet.da_dt
    b, bp, c = jet.b, jet.db_dx, jet.c
    ap2 = ap * ap
    a2 = a * a
    a3 = a2 * a
    p2 = 0.5 * (0.5 * a3 * app + a2 * bp + a2 * ap2 / 2.0 + b * b + a * (b * ap + adot))
    p4 = (a2 / 3.0) * (0.5 * a3 * app + 2.0 * a2 * ap2 + 1.5 * a * ap * b)
    p6 = a3 * a3 * ap2 / 8.0
    if xi is None:
        return c, 0.0, p2, 0.0, p4, 0.0, p6
    xi2 = xi * xi
    p1 = bp * xi
    p2 = p2 + 0.5 * xi2 * (ap2 + a * app)
    p3 = a * xi * (ap * b + 0.5 * a2 * app + 1.5 * a * ap2)
    p4 = p4 + 0.5 * a2 * ap2 * xi2
    p5 = 0.5 * a2 * a2 * ap2 * xi
    return c, p1, p2, p3, p4, p5, p6


def _hermite_coefficients(jet: CoefficientJet, t: float, x: ArrayLike, z: ArrayLike,
                          order: int) -> list:
    """h_0..h_{3 order} of the order-n kernel G_0(d) sum_k h_k He_k(d/s) at z.

    Order 1 is 1, -b sqrt(t)/a, a' xi sqrt(t)/a, -a' sqrt(t)/2, xi = (x - z)/sqrt(t);
    order 2 adds t P_k(xi) (-1/a)^k to h_k, as H_k(Theta) = (-1/a)^k He_k(d/s).
    The rule z = x passes x itself as z; then xi = 0 and its terms are skipped.
    """
    if order == 0:
        return [1.0]
    a, ap = jet.a, jet.da_dx
    sqrt_t = sqrt(t)
    xi = None if z is x else (np.asarray(x) - np.asarray(z)) / sqrt_t
    h = [1.0, jet.b * -sqrt_t / a, 0.0 if xi is None else ap * xi * sqrt_t / a, -0.5 * sqrt_t * ap]
    if order == 2:
        p = _p_polynomials(jet, xi)
        f, step, ks = t, -1.0 / a, range(7)  # f = t (-1/a)^k
        if xi is None:
            step, ks = step * step, range(0, 7, 2)
        h += [0.0, 0.0, 0.0]
        for k in ks:
            h[k] = h[k] + f * p[k]
            f = f * step
    return h


def _he_to_power(h) -> list:
    """e_0..e_n with sum_k h_k He_k(u) = sum_m e_m u^m."""
    e = list(h)  # every He_k is monic
    for m, k, coef in _HE_LOWER:
        if k >= len(h):
            break
        e[m] = e[m] + coef * h[k]
    return e


def _coefficients(jet: CoefficientJet, t: float, x: ArrayLike, z: ArrayLike, order: int) -> list:
    """C_0..C_{3 order} of the order-n kernel G_0(d) sum_m C_m d^m, with the
    Gaussian's prefactor folded in: C_m = e_m s^-m / (s sqrt(2 pi)) for the
    powers e_m of the Hermite series."""
    s = jet.a * np.sqrt(t)  # a NumPy scalar: a width that underflows divides to inf
    c, scale = [], 1.0 / (s * sqrt(2.0 * pi))
    for em in _he_to_power(_hermite_coefficients(jet, t, x, z, order)):
        c.append(scale * em)
        scale = scale / s
    return c


def _kernel(jet: CoefficientJet, t: float, x: ArrayLike, y: ArrayLike, z: ArrayLike,
            order: int) -> ArrayLike:
    """G_0(d) sum_k C_k d^k, exactly 0 wherever q = d^2/(2 t a^2) > EXP_ARG_MAX.

    The polynomial is summed at d = 0 on those dead entries, so one that would
    overflow there cannot leave 0*inf = nan behind.  A width a sqrt(t) so small
    that a C_k or 0.5/(t a^2) overflows (BSM sigma = 0.3, t = 0.1: spots below
    1e-43 at order 2, 5e-154 at any order) raises DegenerateCoefficient.
    """
    if not isfinite(t) or t <= 0.0:
        raise DomainError(f"time must be positive and finite, got {t}")
    with np.errstate(all="ignore"):  # a kernel that is not finite raises below
        c = _coefficients(jet, t, x, z, order)
        d = np.subtract(x, y, dtype=float)
        inv_var = np.divide(-0.5, t * jet.a * jet.a)
        neg_q = np.multiply(d * d, inv_var)
        alive = neg_q >= -EXP_ARG_MAX
        shape = np.broadcast(neg_q, *c).shape
        out = np.exp(neg_q, out=np.zeros(shape), where=alive)
        poly = c[0]
        if len(c) > 1:
            d = np.where(alive, d, 0.0)
            poly = np.multiply(c[-1], d, out=np.empty(shape))
            for ck in reversed(c[1:-1]):
                poly += ck
                poly *= d
            poly += c[0]
        out *= poly
    if not (np.isfinite(inv_var).all() and np.isfinite(out).all()):
        raise DegenerateCoefficient(f"the kernel is not finite at t={t}: a*sqrt(t) is out of range")
    return out[()] if out.ndim == 0 else out


def kernel_eval(spec: KernelSpec, t: float, x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Evaluate the order-n kernel with the basepoint rule of ``spec``."""
    z = basepoint(spec.basepoint, x, y)
    return _kernel(spec.model.jet(z), t, x, y, z, spec.order)


def _kernel_rows(spec: KernelSpec, t: float, x: np.ndarray, y: np.ndarray):
    """The block kernel_eval(spec, t, x[:, None], y[None, :]) for 1-D x and y,
    as (row slice, rows) pairs of _CHUNK_ROWS rows each."""
    for start in range(0, x.size, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, x.size))
        yield rows, kernel_eval(spec, t, x[rows, None], y[None, :])
