"""Exception and warning types shared across the package."""

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
