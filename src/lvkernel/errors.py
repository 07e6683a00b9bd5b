"""Exception and warning types shared across the package, and the one rule for
a scalar argument: a real number, not a bool, finite or positive as asked; a
spot is a positive, finite real number or a real ndarray of them; a result is
a float when every spot or point was given as a real number, else an ndarray."""

import math

import numpy as np

__all__ = [
    "LVKernelError",
    "DomainError",
    "DegenerateCoefficient",
    "SingularMatrix",
    "GridTooCoarseWarning",
]


class LVKernelError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LVKernelError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateCoefficient(LVKernelError, ValueError):
    """The diffusion coefficient is non-positive or non-finite at an evaluation point."""


class SingularMatrix(LVKernelError, RuntimeError):
    """A linear system arising in a PDE solve could not be factorized."""


class GridTooCoarseWarning(UserWarning):
    """A quadrature grid is too coarse to resolve the kernel at the requested step."""


def _is_real(value) -> bool:
    """Whether value is a Python or NumPy real number; a bool is not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """Whether value is a Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _float(name: str, value) -> float:
    if not _is_real(value):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past 2**1024
        raise DomainError(f"{name} is too large for a float") from None


def _finite(name: str, value) -> float:
    """value as a float, or DomainError naming it unless it is a finite real number."""
    if not math.isfinite(v := _float(name, value)):
        raise DomainError(f"{name} must be finite, got {v}")
    return v


def _positive(name: str, value) -> float:
    """value as a float, or DomainError naming it unless it is a positive, finite real."""
    if not 0.0 < (v := _float(name, value)) < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {v}")
    return v


def _spots(name: str, value):
    """A spot or spots: a real number or 0-d array as a float, any other real
    ndarray as a float64 array of its shape, or DomainError naming it unless
    every entry lies in (0, inf).  min() and max() allocate no array-sized mask."""
    if isinstance(value, float) and 0.0 < value < math.inf:  # a scalar quote's spot: first
        return float(value)
    if not isinstance(value, np.ndarray):
        return _positive(name, value)
    a = _real_array(name, value)
    if a.size and not 0.0 < (lo := a.min()) <= (hi := a.max()) < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {hi if lo > 0.0 else lo}")
    return a if a.ndim else float(a)


def _result(value, *given):
    """value as a float if every spot or point, as given, is a real number; else as an ndarray."""
    return float(value) if all(map(_is_real, given)) else np.asarray(value, dtype=float)


def _real_array(name: str, value) -> np.ndarray:
    """value as a float64 ndarray, or DomainError naming it unless its dtype is real (not bool)."""
    if (a := np.asarray(value)).dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a number, got {value!r}")
    return np.asarray(a, dtype=float)
