"""Short-time approximate transition kernels of orders 0, 1, and 2.

Every kernel, at every order and basepoint rule z(x, y), is one Hermite
series G_0(d) * sum_{k <= 3n} h_k He_k(d/s), d = x - y, s = a sqrt(t), G_0 the
Gaussian of the jet frozen at z; _hermite_coefficients is the one copy of the
h_k.  A rule is one number kappa = (x - z)/(x - y), 0 at z = x, 1 at z = y and
1/2 at the midpoint, folded into the h_k, so the h_k are those of the jet at
z: one per row at z = x, one per column at z = y, one per entry at the
midpoint.  Evaluation sums the series in powers of d: one exp per entry and a
Horner sum, in _gauss_poly, the one body of every evaluation.  The kernel is
exactly +0.0 wherever q = d^2/(2 t a^2) > Q_MAX = 50, ten widths out, where
exp(-q) < 2e-22 is below double precision of the peak.  A kernel matrix at
z = x (z = y) computes the powers once per row (column), evaluates only each
row's (column's) live band, q <= Q_MAX widened by one node on each side, and
leaves the +0.0 outside it unevaluated; the midpoint's is evaluated dense,
_MID_ENTRIES entries at a time.  The closed-form prices in pricing are the
series' Gaussian moments.  All operations are pure functions and vectorize
over numpy arrays.
"""

from __future__ import annotations

import errno
import mmap
from dataclasses import dataclass
from math import factorial, pi, sqrt

import numpy as np

from .errors import DegenerateCoefficient, DomainError, _is_int, _positive, _result
from .models import ArrayLike, BasepointRule, CoefficientJet, Model, basepoint

__all__ = ["KernelSpec", "kernel_eval"]

# the kernel is exactly zero past q = Q_MAX, ten widths out, where exp(-q) = 1.9e-22
# is below double precision of the peak: a live band a quarter as wide as exp's 745
Q_MAX = 50.0
# rows (columns of a z = y matrix) evaluated at once: bounds the block-sized temporaries
_CHUNK_ROWS = 64
# entries of a midpoint block, whose jet and coefficients are per entry: its
# 24 block-sized temporaries re-fault the heap at 64 rows of 3,901 nodes
_MID_ENTRIES = 2**15

# the probabilists' Hermite polynomials He_k(u) = sum_j _HERMITE[k][j] * u**(k - 2j)
_HERMITE = tuple(tuple((-1) ** j * factorial(k) // (factorial(j) * factorial(k - 2 * j) * 2**j)
                       for j in range(k // 2 + 1)) for k in range(7))
# their lower terms (m, k, coefficient of u**m in He_k), m < k, by increasing k
_HE_LOWER = tuple((k - 2 * j, k, c) for k, r in enumerate(_HERMITE) for j, c in enumerate(r) if j)
# each rule's kappa = (x - z)/(x - y): where z(x, y) sits between x and y
_KAPPA = {BasepointRule.AT_X: 0.0, BasepointRule.AT_Y: 1.0, BasepointRule.MIDPOINT: 0.5}


@dataclass(frozen=True)
class KernelSpec:
    """Identifies one approximate kernel: model, expansion order, basepoint rule."""

    model: Model
    order: int = 2
    basepoint: BasepointRule = BasepointRule.AT_X

    def __post_init__(self) -> None:
        if not isinstance(self.model, Model):
            raise DomainError(f"model must be a Model, got {self.model!r}")
        if not _is_int(self.order) or self.order not in (0, 1, 2):
            raise DomainError(f"kernel order must be 0, 1 or 2, got {self.order!r}")
        if not isinstance(self.basepoint, BasepointRule):
            raise DomainError(f"basepoint must be a BasepointRule, got {self.basepoint!r}")


def _hermite_coefficients(jet: CoefficientJet, t: float, kappa: float, order: int) -> list:
    """h_0..h_{3 order} of the order-n kernel G_0(d) sum_k h_k He_k(u), u = d/s, at z.

    Order 1 is 1, -b sqrt(t)/a, 0, -a' sqrt(t)/2; order 2 adds t P_k (-1/a)^k
    to h_k, as H_k(Theta) = (-1/a)^k He_k(u), for the even P_k of z = x.  Off
    it, xi = (x - z)/sqrt(t) = kappa a u, and each xi-term folds into the
    series through u He_k = He_{k+1} + k He_{k-1}; at kappa = 0 none is added.
    """
    if order == 0:
        return [1.0]
    a, ap, app, b, bp = jet.a, jet.da_dx, jet.d2a_dx2, jet.b, jet.db_dx
    sqrt_t = sqrt(t)
    h = [1.0, b * -sqrt_t / a, 0.0, -0.5 * sqrt_t * ap]
    if kappa:
        h[1] = h[1] + 2.0 * kappa * sqrt_t * ap
        h[3] = h[3] + kappa * sqrt_t * ap
    if order == 2:
        ap2 = ap * ap
        a2 = a * a
        a3 = a2 * a
        p2 = 0.5 * (0.5 * a3 * app + a2 * bp + a2 * ap2 / 2.0 + b * b + a * (b * ap + jet.da_dt))
        p4 = (a2 / 3.0) * (0.5 * a3 * app + 2.0 * a2 * ap2 + 1.5 * a * ap * b)
        p6 = a3 * a3 * ap2 / 8.0
        f, step = t, -1.0 / a  # f = t (-1/a)^k
        step = step * step
        h += [0.0, 0.0, 0.0]
        for k, pk in zip(range(0, 7, 2), (jet.c, p2, p4, p6)):
            h[k] = h[k] + f * pk
            f = f * step
        if kappa:  # with A = a'^2, B = A + a a'' and C = a' b/a + a a''/2 + 3A/2
            del a2, a3, p2, p4, p6, f, step  # block-sized at the midpoint
            tk, big_b = t * kappa, ap2 + a * app
            big_c = ap * b / a + 0.5 * big_b + ap2
            h[0] = h[0] + tk * (kappa * big_b - bp)
            h[2] = h[2] + tk * (kappa * (2.5 * big_b + 6.0 * ap2) - bp - 3.0 * big_c)
            h[4] = h[4] + tk * (kappa * (0.5 * big_b + 4.5 * ap2) - big_c - 2.5 * ap2)
            h[6] = h[6] + 0.5 * tk * (kappa - 1.0) * ap2
    return h


def _he_to_power(h) -> list:
    """e_0..e_n with sum_k h_k He_k(u) = sum_m e_m u^m."""
    e = list(h)  # every He_k is monic
    for m, k, coef in _HE_LOWER:
        if k >= len(h):
            break
        e[m] = e[m] + coef * h[k]
    return e


def _coefficients(jet: CoefficientJet, t: float, kappa: float, order: int) -> list:
    """C_0..C_{3 order} of the order-n kernel G_0(d) sum_m C_m d^m, with the
    Gaussian's prefactor folded in: C_m = e_m s^-m / (s sqrt(2 pi)) for the
    powers e_m of the Hermite series."""
    t = _positive("time", t)
    s = jet.a * np.sqrt(t)  # a NumPy scalar: a width that underflows divides to inf
    c, scale = [], 1.0 / (s * sqrt(2.0 * pi))
    for em in _he_to_power(_hermite_coefficients(jet, t, kappa, order)):
        c.append(scale * em)
        scale = scale / s
    return c


def _check_finite(t: float, *arrays) -> None:
    if not all(np.isfinite(v).all() for v in arrays):
        raise DegenerateCoefficient(f"the kernel is not finite at t={t}: a*sqrt(t) is out of range")


def _gauss_poly(c: list, inv_var, d, neg_q, dead, out):
    """exp(-q) sum_k C_k d^k into out where q = -d^2 inv_var <= Q_MAX, +0.0
    elsewhere whatever the sum is.  neg_q and dead, of out's shape, are
    scratch: neg_q for -q and then the sum, dead for the mask q > Q_MAX."""
    np.multiply(d, d, out=neg_q)
    neg_q *= inv_var
    np.less(neg_q, -Q_MAX, out=dead)
    np.exp(neg_q, out=out)
    poly = neg_q
    poly[...] = c[-1]
    for ck in reversed(c[:-1]):
        poly *= d
        poly += ck
    np.copyto(poly, 0.0, where=dead)
    return np.multiply(out, poly, out=out)


def kernel_eval(spec: KernelSpec, t: float, x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Evaluate the order-n kernel with the basepoint rule of ``spec``:
    G_0(d) sum_k C_k d^k with the jet at z(x, y), exactly +0.0 wherever
    q = d^2/(2 t a^2) > Q_MAX.

    A width a sqrt(t) so small that a C_k or 0.5/(t a^2) overflows (BSM
    sigma = 0.3, t = 0.1: spots below 1e-43 at order 2, 5e-154 at any order)
    raises DegenerateCoefficient.
    """
    jet = spec.model.jet(basepoint(spec.basepoint, x, y))
    with np.errstate(all="ignore"):  # a kernel that is not finite raises below
        c = _coefficients(jet, t, _KAPPA[spec.basepoint], spec.order)
        d = np.subtract(x, y, dtype=float)
        inv_var = np.divide(-0.5, t * jet.a * jet.a)
        shape = np.broadcast(d, inv_var, *c).shape
        out = _gauss_poly(c, inv_var, d, np.empty(shape), np.empty(shape, bool), np.empty(shape))
    _check_finite(t, inv_var, out, *c)
    return _result(out, x, y)


def _kernel_rows(spec: KernelSpec, t: float, x: np.ndarray, y: np.ndarray):
    """The block kernel_eval(spec, t, x[:, None], y[None, :]) for 1-D x and y,
    as (row slice, rows) pairs of _CHUNK_ROWS rows each, or at the midpoint of
    as many rows as _MID_ENTRIES entries hold (at least one)."""
    step = (max(_MID_ENTRIES // y.size, 1) if spec.basepoint is BasepointRule.MIDPOINT
            else _CHUNK_ROWS)
    for start in range(0, x.size, step):
        rows = slice(start, min(start + step, x.size))
        yield rows, kernel_eval(spec, t, x[rows, None], y[None, :])


def _weighted_block(spec: KernelSpec, t: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """kernel_eval(spec, t, x[:, None], x[None, :]) * w bit for bit, for
    increasing nodes x.  At z = x (z = y) one jet and one set of coefficients
    serve the block, one per row (column), and each chunk of those nodes
    evaluates, in reused buffers, only the union of their live partners
    |x - y| <= sqrt(2 Q_MAX t) a (widened by 1e-9 of itself and by one node on
    each side); the rest keep the mapping's +0.0, the kernel's value there."""
    # a mapping of its own, unmapped with the array: freed on the heap, a matrix
    # stayed resident, and a small allocation in its chunk sent the next to fresh pages
    try:
        buf = mmap.mmap(-1, 8 * x.size**2 or 1, flags=mmap.MAP_PRIVATE)
    except OSError as exc:  # a MemoryError, as NumPy raises for an array it cannot allocate
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"Unable to allocate {8 * x.size**2 / 2**40:.3g} TiB for a kernel "
                          f"matrix of shape ({x.size}, {x.size})") from None
    buf.madvise(getattr(mmap, "MADV_HUGEPAGE", mmap.MADV_NORMAL))  # as NumPy does
    mat = np.frombuffer(buf, float, x.size**2).reshape(x.size, x.size)
    if spec.basepoint is BasepointRule.MIDPOINT:  # z moves along both axes: no band
        for rows, k in _kernel_rows(spec, t, x, x):
            np.multiply(k, w, out=mat[rows])
        return mat
    kappa = _KAPPA[spec.basepoint]  # 0 at z = x, 1 at z = y
    jet = spec.model.jet(x)
    with np.errstate(all="ignore"):  # a kernel that is not finite raises below
        c = [np.broadcast_to(ck, x.shape) for ck in _coefficients(jet, t, kappa, spec.order)]
        inv_var = np.broadcast_to(np.divide(-0.5, t * jet.a * jet.a), x.shape)
        _check_finite(t, inv_var, *c)
        half = sqrt(2.0 * Q_MAX * t) * (1.0 + 1e-9) * jet.a
        lo, hi = np.searchsorted(x, x - half), np.searchsorted(x, x + half, side="right")
        floats = np.empty((2, _CHUNK_ROWS * x.size))
        mask = np.empty(floats.shape[1], bool)
        for start in range(0, x.size, _CHUNK_ROWS):
            own = slice(start, min(start + _CHUNK_ROWS, x.size))
            live = slice(max(lo[own].min() - 1, 0), min(hi[own].max() + 1, x.size))
            rows, cols, idx = (live, own, (None, own)) if kappa else (own, live, (own, None))
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            d, neg_q, dead = (b[:shape[0] * shape[1]].reshape(shape) for b in (*floats, mask))
            np.subtract(x[rows, None], x[None, cols], out=d)
            out = _gauss_poly([ck[idx] for ck in c], inv_var[idx], d, neg_q, dead, mat[rows, cols])
            _check_finite(t, out)
            out *= w[cols]
    return mat
