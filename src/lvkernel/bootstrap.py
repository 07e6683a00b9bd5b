"""Long-maturity pricing by composing the short-time kernel over sub-steps.

The solution operator over t factors as the n-fold composition of the
operator over t/n.  Each composition step is a dense Simpson-quadrature
convolution of the approximate kernel with the previous step's curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError, GridTooCoarseWarning
from .grid import PriceCurve, SpatialGrid
from .kernel import KernelSpec, _hermite_coefficients, _kernel_rows
from .models import Model
from .pricing import CallPayoff, Payoff, _why_no_closed_form, price_curve

__all__ = [
    "BootstrapConfig",
    "kernel_matrix",
    "bootstrap_solve",
    "bootstrap_error_table",
]

_MASS_TOL = 1e-4


@dataclass(frozen=True)
class BootstrapConfig:
    """Composition setup: kernel, horizon, number of sub-steps, grid."""

    spec: KernelSpec
    t_total: float
    n_steps: int
    grid: SpatialGrid

    def __post_init__(self) -> None:
        if not np.isfinite(self.t_total) or self.t_total <= 0.0:
            raise DomainError("t_total must be positive and finite")
        if self.n_steps < 1:
            raise DomainError("n_steps must be at least 1")

    @property
    def tau(self) -> float:
        """Sub-step length t_total / n_steps."""
        return self.t_total / self.n_steps


def kernel_matrix(spec: KernelSpec, tau: float,
                  grid: SpatialGrid) -> Tuple[np.ndarray, np.ndarray]:
    """Dense propagation matrix M[i, j] = G_tau(x_i, y_j) w_j and its row sums.

    The row sums approximate the kernel mass integral and feed the coarseness
    diagnostic.
    """
    mat = np.empty((grid.n_nodes, grid.n_nodes))
    for rows, k in _kernel_rows(spec, tau, grid.nodes, grid.nodes):
        np.multiply(k, grid.weights, out=mat[rows])
    return mat, mat.sum(axis=1)


def _mass_check(spec: KernelSpec, tau: float, grid: SpatialGrid,
                mass: np.ndarray) -> None:
    """Warn when quadrature fails to resolve the kernel on usable rows.

    Only rows whose kernel both fits inside the grid (support within six
    standard deviations, beyond which the Gaussian tail is under 1e-9) and
    is resolvable (width at least two grid steps) are held to the mass
    tolerance.  Unresolvable rows near the left cutoff are expected for
    vanishing-at-zero diffusions and go unchecked, although a put carries
    payoff mass there and its composed price can blow up unreported
    (ROADMAP.md item 2: integrate those rows exactly).
    """
    xs = grid.nodes
    jet = spec.model.jet(xs)
    width = jet.a * np.sqrt(tau)
    inside = (xs - 6.0 * width >= grid.x_min) & (xs + 6.0 * width <= grid.x_max)
    resolved = width >= 2.0 * grid.dx
    gated = inside & resolved
    if not np.any(gated):
        warnings.warn(
            "no grid row resolves the sub-step kernel (dx too large or grid "
            "too short for this tau)",
            GridTooCoarseWarning,
            stacklevel=3,
        )
        return
    # the kernel's mass is its h_0: 1, plus c tau at order 2
    expected = np.broadcast_to(_hermite_coefficients(jet, tau, xs, xs, spec.order)[0], xs.shape)
    defect = np.max(np.abs(mass[gated] - expected[gated]))
    if defect > _MASS_TOL:
        warnings.warn(
            f"kernel mass defect {defect:.3e} exceeds {_MASS_TOL:.0e}; "
            "grid spacing is too coarse for the sub-step width",
            GridTooCoarseWarning,
            stacklevel=3,
        )


def bootstrap_solve(config: BootstrapConfig, payoff: Payoff) -> PriceCurve:
    """Compose the approximate solution operator n_steps times.

    One sub-step is plain quadrature pricing.  With two or more, the first
    sub-step propagates the payoff by its closed-form price when one exists
    (call, put or butterfly, the at-x basepoint, order 1 or 2), which treats
    the payoff kink exactly; otherwise the sampled payoff is convolved.  All
    later steps are quadrature convolutions with the same sub-step matrix.
    """
    spec = config.spec
    tau = config.tau
    grid = config.grid
    if config.n_steps == 1:
        return price_curve(spec, tau, payoff, grid, method="quadrature")

    mat, mass = kernel_matrix(spec, tau, grid)
    _mass_check(spec, tau, grid, mass)

    if _why_no_closed_form(spec, payoff) is None:
        u = price_curve(spec, tau, payoff, grid, method="closed").values.copy()
        hops = config.n_steps - 1
    else:
        u = np.asarray(payoff(grid.nodes), dtype=float)
        hops = config.n_steps
    for _ in range(hops):
        u = mat @ u
    return PriceCurve(grid.nodes, u)


def bootstrap_error_table(model: Model, strike: float, times: Sequence[float],
                          n_steps: int, grid: SpatialGrid, oracle: str = "bs-exact",
                          window: Tuple[float, float] = (0.0, 40.0),
                          ) -> List[Tuple[float, float]]:
    """Sup-norm call-price error of the composed scheme against an oracle.

    For each maturity in `times`, runs bootstrap_solve with KernelSpec(model),
    order 2 at z = x, for a call struck at `strike` and reports the largest
    absolute deviation from the named oracle (see oracles._reference, which
    checks that it fits the model before any solve) over the grid nodes x
    with window[0] < x <= window[1].  The window must end inside the grid,
    where the composition keeps its mass.
    """
    # imported here: at module level it reorders the package import, which cost
    # a fresh process about 3,400 more minor page faults and 50 ms of set-up
    from .oracles import _reference

    payoff = CallPayoff(strike)
    oracle_at = _reference(oracle, model, payoff, grid)
    if window[1] > grid.x_max:
        raise DomainError(f"error window ends at {window[1]:g}, past the grid's "
                          f"x_max {grid.x_max:g}")
    spec = KernelSpec(model)
    xs = grid.nodes
    mask = (xs > window[0]) & (xs <= window[1])
    out: List[Tuple[float, float]] = []
    for t in times:
        config = BootstrapConfig(spec=spec, t_total=float(t), n_steps=n_steps,
                                 grid=grid)
        curve = bootstrap_solve(config, payoff)
        err = float(np.max(np.abs(curve.values[mask] - oracle_at(float(t))[mask])))
        out.append((float(t), err))
    return out
