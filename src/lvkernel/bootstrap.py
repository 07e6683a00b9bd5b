"""Long-maturity pricing by composing the short-time kernel over sub-steps.

The solution operator over t factors as the n-fold composition of the
operator over t/n.  The first step is the closed-form price where one
exists; every other step is a dense Simpson-quadrature convolution of the
approximate kernel with the previous step's curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, GridTooCoarseWarning, _is_int, _positive
from .grid import PriceCurve, SpatialGrid
from .kernel import _KAPPA, KernelSpec, _hermite_coefficients, _weighted_block
from .models import BasepointRule
from .pricing import Payoff, _norm_cdf, _why_no_closed_form, price_curve

__all__ = ["BootstrapConfig", "kernel_matrix", "bootstrap_solve"]

_MASS_TOL = 1e-4


@dataclass(frozen=True)
class BootstrapConfig:
    """Composition setup: kernel, horizon, number of sub-steps, grid."""

    spec: KernelSpec
    t_total: float
    n_steps: int
    grid: SpatialGrid

    def __post_init__(self) -> None:
        _positive("t_total", self.t_total)
        if not _is_int(self.n_steps) or self.n_steps < 1:
            raise DomainError(f"n_steps must be an integer at least 1, got {self.n_steps!r}")

    @property
    def tau(self) -> float:
        """Sub-step length t_total / n_steps."""
        return self.t_total / self.n_steps


def kernel_matrix(spec: KernelSpec, tau: float,
                  grid: SpatialGrid) -> Tuple[np.ndarray, np.ndarray]:
    """Dense propagation matrix M[i, j] = G_tau(x_i, y_j) w_j and its row sums.

    The row sums approximate the kernel's mass over y, its h_0 at z = x, and
    the coarseness diagnostic holds them to it; at z = y it holds the
    columns' masses to theirs instead (_mass_check).  At z = x (z = y) the
    coefficients are computed once per row (column), and the live band
    |x_i - y_j| <= sqrt(2 * 50 tau) a(z), ten widths (kernel.Q_MAX), widened
    by one node on each side, is the only part of the row (column)
    evaluated: the entries outside it are +0.0 by definition.  The midpoint
    is evaluated dense.  The matrix is C-ordered, as the bits of mat @ u
    depend on the order.
    """
    mat = _weighted_block(spec, tau, grid.nodes, grid.weights)
    return mat, mat.sum(axis=1)


def _mass_check(config: BootstrapConfig, mat: np.ndarray, mass: np.ndarray, u: np.ndarray,
                hops: int) -> None:
    """Warn when quadrature fails to resolve the kernel on usable nodes, and
    run the drift test of bootstrap_solve on the same jet of the nodes, last.

    The kernel's exact mass is h_0 of the jet at z: over y at z = x, held
    against the row sums, and over x at z = y, held against the column masses
    w @ mat / w.  The midpoint's z moves along rows and columns alike, so it
    has no exact mass and only the "no grid row resolves" gate is checked.
    Only nodes whose kernel both fits inside the grid and is resolvable
    (width w at least two grid steps) are held to the mass tolerance.  A
    kernel fits when its Gaussian mass past the ends, Phi((x_min - x)/w) +
    Phi((x - x_max)/w), is below _MASS_TOL/100, as its order-2 terms fatten
    that tail up to 40-fold; a defect comes from the spacing or from series
    terms whose tail still reaches past the grid, which no spacing removes.
    Unresolvable rows near the left cutoff are expected for vanishing-at-zero
    diffusions and go unchecked; a curve u not negligible on one (a put's) warns
    over two or more matrix hops when some row resolves (ROADMAP.md item 2),
    and so does a jet whose da_dt is not 0, frozen at t = 0 here (item 1).
    """
    spec, tau, grid = config.spec, config.tau, config.grid
    xs = grid.nodes
    jet = spec.model.jet(xs)
    width = jet.a * np.sqrt(tau)
    tail = _norm_cdf((grid.x_min - xs) / width) + _norm_cdf((xs - grid.x_max) / width)
    gated = (tail < _MASS_TOL / 100.0) & (width >= 2.0 * grid.dx)
    if not np.any(gated):
        warnings.warn(
            "no grid row resolves the sub-step kernel (dx too large or grid "
            "too short for this tau)",
            GridTooCoarseWarning,
            stacklevel=3,
        )
    elif spec.basepoint is not BasepointRule.MIDPOINT:
        if spec.basepoint is BasepointRule.AT_Y:
            mass = grid.weights @ mat / grid.weights
        h0 = _hermite_coefficients(jet, tau, _KAPPA[spec.basepoint], spec.order)[0]
        defect = np.max(np.abs(mass - h0)[gated])
        if defect > _MASS_TOL:
            warnings.warn(
                f"kernel mass defect {defect:.3e} exceeds {_MASS_TOL:.0e}: either the grid "
                "spacing is too coarse for the sub-step width or the kernel's series terms "
                "reach past the grid",
                GridTooCoarseWarning,
                stacklevel=3,
            )
    mass_in = np.abs(u) > 1e-6 * (1.0 + np.max(np.abs(u)))
    if hops >= 2 and np.any(gated) and np.any(mass_in & (width < 2.0 * grid.dx)):
        warnings.warn("the payoff has mass on rows narrower than two grid steps, near the left "
                      "cutoff: composed prices there can grow without bound",
                      GridTooCoarseWarning, stacklevel=3)
    if hops >= 2 and np.any(jet.da_dt != 0.0):
        warnings.warn("the composition freezes a(t, x) at t = 0: its prices miss the model's "
                      "time dependence", stacklevel=3)
    if config.n_steps >= 2 and spec.order < 2 and (np.any(jet.b != 0.0) or np.any(jet.c != 0.0)):
        warnings.warn(f"an order-{spec.order} composition does not converge in the step "
                      "count when the model has drift (b or c not 0): use order 2",
                      stacklevel=3)


def bootstrap_solve(config: BootstrapConfig, payoff: Payoff) -> PriceCurve:
    """Compose the approximate solution operator n_steps times.

    One rule starts every step count: the first hop is the closed-form price
    over one sub-step when one exists (call, put or butterfly, the at-x
    basepoint, order 1 or 2), which treats the payoff kink exactly, and
    otherwise a matrix hop of the payoff sampled at the nodes.  A matrix hop
    is a quadrature convolution with the sub-step matrix, which is built only
    when a hop needs it, so one closed-form step builds none, and checked after
    the first hop, against the curve that enters the matrix hops.
    Orders 0 and 1 miss the drift's O(tau) terms, which n steps add up to an
    error that does not fall with n: composing them over two or more steps of
    a model whose b or c is not 0 on the grid warns, after the matrix check.
    Compose at z = x: z = y and the midpoint converge at first order in tau, even without drift.
    """
    spec, grid = config.spec, config.grid
    closed = _why_no_closed_form(spec.order, payoff, spec.basepoint) is None
    hops = config.n_steps - 1 if closed else config.n_steps
    if hops:
        mat, mass = kernel_matrix(spec, config.tau, grid)
    if closed:
        u = price_curve(spec, config.tau, payoff, grid, method="closed").values
    else:
        u = np.asarray(payoff(grid.nodes), dtype=float)
    if hops:
        _mass_check(config, mat, mass, u, hops)
    for _ in range(hops):
        u = mat @ u
    return PriceCurve(grid.nodes, u)

