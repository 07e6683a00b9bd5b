"""Short-time approximate transition kernels of orders 0, 1, and 2.

Every kernel, at every order and basepoint rule z(x, y), is one form:
G_0(d) * sum_{k <= 6} C_k d^k with d = x - y, G_0 the Gaussian of the jet
frozen at z, and C_k from the jet, t and x - z (degree 0, 3, 6 for orders
0, 1, 2).  Evaluation costs one exp per entry and a Horner sum; at z = x an
(x, y) block with x as a column has one set of C_k per row.  All operations
are pure functions and vectorize over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite, sqrt
from typing import Union

import numpy as np

from .errors import DomainError
from .models import BasepointRule, CoefficientJet, Model, basepoint

__all__ = ["EXP_ARG_MAX", "KernelSpec", "hermite", "g0", "g1_general", "g2_general",
           "kernel_eval"]

ArrayLike = Union[float, np.ndarray]

# exp(-q) underflows double precision past this; the kernel is defined to be
# exactly zero there rather than subnormal noise
EXP_ARG_MAX = 745.0

# H_k(Theta) = sum_j _HERMITE[k][j] * Theta**(k - 2j) / a**(2j): (-1)**k times
# the probabilists' Hermite polynomial He_k, rescaled by a
_HERMITE = tuple(tuple((-1) ** (k + j) * factorial(k) // (factorial(j) * factorial(k - 2 * j) * 2**j)
                       for j in range(k // 2 + 1)) for k in range(7))


@dataclass(frozen=True)
class KernelSpec:
    """Identifies one approximate kernel: model, expansion order, basepoint rule."""

    model: Model
    order: int = 2
    basepoint: BasepointRule = BasepointRule.AT_X

    def __post_init__(self) -> None:
        if self.order not in (0, 1, 2):
            raise DomainError(f"kernel order must be 0, 1 or 2, got {self.order}")


def hermite(theta: ArrayLike, a: ArrayLike) -> tuple:
    """The rescaled Hermite polynomials H_0..H_6 at Theta and scale a.

    They satisfy H_0 = 1 and H_{k+1} = -Theta*H_k + H_k'(Theta)/a**2.
    """
    if np.any(np.asarray(a) <= 0.0):
        raise DomainError("hermite scale a must be positive")
    th = np.asarray(theta, dtype=float)
    ia2 = 1.0 / np.asarray(a, dtype=float) ** 2
    return tuple(sum(h * th ** (k - 2 * j) * ia2**j for j, h in enumerate(row))
                 for k, row in enumerate(_HERMITE))


def _p_polynomials(jet: CoefficientJet, xi: ArrayLike):
    """Coefficient polynomials P_0..P_6 of the order-2 correction.

    xi is the rescaled basepoint offset (x - z)/sqrt(t); P_1, P_3, P_5 and the
    xi-dependent parts of P_2, P_4 vanish at z = x.
    """
    a, ap, app, adot = jet.a, jet.da_dx, jet.d2a_dx2, jet.da_dt
    b, bp, c = jet.b, jet.db_dx, jet.c
    xi2 = xi * xi
    ap2 = ap * ap
    a2 = a * a
    a3 = a2 * a
    p0 = c
    p1 = bp * xi
    p2 = 0.5 * (0.5 * a3 * app + a2 * bp + a2 * ap2 / 2.0 + b * b + ap2 * xi2
                + a * (b * ap + adot + app * xi2))
    p3 = a * xi * (ap * b + 0.5 * a2 * app + 1.5 * a * ap2)
    p4 = (a2 / 3.0) * (0.5 * a3 * app + 2.0 * a2 * ap2 + 1.5 * a * ap * b + 1.5 * ap2 * xi2)
    p5 = 0.5 * a2 * a2 * ap2 * xi
    p6 = a3 * a3 * ap2 / 8.0
    return p0, p1, p2, p3, p4, p5, p6


def _coefficients(jet: CoefficientJet, t: float, xi: ArrayLike, order: int) -> list:
    """C_0..C_{3 order} of the order-n kernel G_0(d) sum_k C_k d^k, with the
    Gaussian's prefactor (2 pi t a^2)^(-1/2) folded in; xi = (x - z)/sqrt(t)."""
    a, ap = jet.a, jet.da_dx
    a2 = a * a
    pref = 1.0 / np.sqrt(2.0 * np.pi * t * a2)
    if order == 0:
        return [pref]
    sqrt_t = sqrt(t)
    ta3 = t * a2 * a
    # the order-1 bracket of g1_general, by powers of d
    shift = ap * xi * sqrt_t
    c = [pref * ck for ck in (1.0 - shift / a, (3.0 * a * ap - 2.0 * jet.b) / (2.0 * a2),
                              shift / ta3, -ap / (2.0 * ta3))]
    if order == 2:
        # t (P_0 + sum_k P_k H_k(Theta)), Theta = s d, collected by powers of d
        series = [0.0] * 7
        ia = 1.0 / a2
        ia2j = [1.0, ia, ia * ia, ia * ia * ia]  # a^(-2j)
        for k, pk in enumerate(_p_polynomials(jet, xi)):
            for j, h in enumerate(_HERMITE[k]):
                series[k - 2 * j] = series[k - 2 * j] + (h * ia2j[j]) * pk
        c += [0.0, 0.0, 0.0]
        scale, s = t * pref, ia / sqrt_t  # t s^m pref, with Theta = s d
        for m in range(7):
            c[m] = c[m] + scale * series[m]
            scale = scale * s
    return c


def _kernel(jet: CoefficientJet, t: float, x: ArrayLike, y: ArrayLike, z: ArrayLike,
            order: int) -> ArrayLike:
    """G_0(d) sum_k C_k d^k, exactly 0 wherever q = d^2/(2 t a^2) > EXP_ARG_MAX.

    The polynomial is summed at d = 0 on those dead entries, so one that would
    overflow there cannot leave 0*inf = nan behind.
    """
    if not isfinite(t) or t <= 0.0:
        raise DomainError(f"time must be positive and finite, got {t}")
    c = _coefficients(jet, t, (np.asarray(x) - np.asarray(z)) / sqrt(t), order)
    d = np.subtract(x, y, dtype=float)
    neg_q = np.multiply(d * d, -0.5 / (t * jet.a * jet.a))
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
    return out[()] if out.ndim == 0 else out


def g0(jet: CoefficientJet, t: float, x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Order-0 kernel: the dilated Gaussian with scale a(0,z)*sqrt(t)."""
    return _kernel(jet, t, x, y, x, 0)


def g1_general(jet: CoefficientJet, t: float, x: ArrayLike, y: ArrayLike, z: ArrayLike) -> ArrayLike:
    """Order-1 kernel at an arbitrary basepoint z.

    Gaussian prefactor times the bracket
        1 + (3 a a' - 2 b)/(2 a^2) * (x-y) - a'/(2 t a^3) * (x-y)^3
          + a' * (x-z) * ((x-y)^2 - t a^2) / (t a^3),
    whose last term is a'(z) (x-z) dG_0/da, the first Taylor term of a about z.
    """
    return _kernel(jet, t, x, y, z, 1)


def g2_general(jet: CoefficientJet, t: float, x: ArrayLike, y: ArrayLike, z: ArrayLike) -> ArrayLike:
    """Order-2 kernel at an arbitrary basepoint z.

    Adds t * (P_0 + sum_k P_k(xi) H_k(Theta_t)) * G_0 to the order-1 kernel,
    with Theta_t = (x-y)/(a^2 sqrt(t)) and xi = (x-z)/sqrt(t).
    """
    return _kernel(jet, t, x, y, z, 2)


def kernel_eval(spec: KernelSpec, t: float, x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Evaluate the order-n kernel with the basepoint rule of ``spec``."""
    z = basepoint(spec.basepoint, x, y)
    return _kernel(spec.model.jet(z), t, x, y, z, spec.order)
