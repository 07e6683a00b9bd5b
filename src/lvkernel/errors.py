"""Exception and warning types shared across the package, and the test of
what counts as a number for the DomainErrors that reject a non-number."""

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
