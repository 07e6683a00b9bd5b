"""Uniform spatial grids, Simpson quadrature weights, and price curves."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, _finite, _is_int, _positive, _real_array, _result

__all__ = ["SpatialGrid", "PriceCurve", "simpson_weights"]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on [x_min, x_max] with spacing dx.

    The left endpoint x_min plays the role of the cutoff of the half line
    (0, infinity); it must be strictly positive.  (x_max - x_min)/dx must be
    an integer number of intervals, at least 2.
    """

    x_min: float
    x_max: float
    dx: float

    def __post_init__(self) -> None:
        if _positive("x_min", self.x_min) >= _finite("x_max", self.x_max):
            raise DomainError("x_max must exceed x_min")
        _positive("dx", self.dx)
        ratio = (self.x_max - self.x_min) / self.dx
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
            raise DomainError(
                f"(x_max - x_min)/dx = {ratio} is not an integer number of intervals"
            )
        if round(ratio) < 2:
            raise DomainError("grid must contain at least 2 intervals")

    @classmethod
    def regular(cls, x_max: float, dx: float) -> "SpatialGrid":
        """Grid on (0, x_max] with the left cutoff set to one spacing above 0."""
        _positive("dx", dx)  # before x_min, which is dx too: a bad dx is named dx
        return cls(dx, x_max, dx)

    @property
    def n_intervals(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx))

    @property
    def n_nodes(self) -> int:
        return self.n_intervals + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_nodes)

    @cached_property
    def weights(self) -> np.ndarray:
        """Simpson quadrature weights matching ``nodes``."""
        return simpson_weights(self.n_nodes, self.dx)


def simpson_weights(n_nodes: int, dx: float) -> np.ndarray:
    """Composite Simpson weights for a uniform grid.

    For an even interval count this is plain composite Simpson.  For an odd
    count the last three intervals are handled with the 3/8 rule so the whole
    rule stays fourth-order accurate.
    """
    if not (_is_int(n_nodes) and n_nodes >= 3):
        raise DomainError(f"n_nodes must be an integer at least 3, got {n_nodes!r}")
    dx = _positive("dx", dx)
    n_int = n_nodes - 1
    head = n_int - 3 * (n_int % 2)  # Simpson's intervals: all of an even count, all but 3 of an odd
    w = np.zeros(n_nodes)
    if head:
        w[0] = w[head] = 1.0
        w[1:head:2] = 4.0
        w[2:head:2] = 2.0
        w *= dx / 3.0
    if head < n_int:
        w[head:] += dx * 3.0 / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return w


@dataclass(frozen=True)
class PriceCurve:
    """Ordered (x, value) samples of a price as a function of spot."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        x = _real_array("x", self.x)
        v = _real_array("values", self.values)
        if x.ndim != 1 or v.shape != x.shape:
            raise DomainError("x and values must be 1-D arrays of equal length")
        if x.size < 1:
            raise DomainError("curve must contain at least one sample")
        if x.size > 1 and not np.all(np.diff(x) > 0.0):
            raise DomainError("x must be strictly increasing")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(v)):
            raise DomainError("curve samples must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.x.size

    def value_at(self, x: float | np.ndarray) -> float | np.ndarray:
        """Linear interpolation between samples."""
        return _result(np.interp(_real_array("x", x), self.x, self.values), x)
