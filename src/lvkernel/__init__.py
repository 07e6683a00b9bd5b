"""Short-time asymptotic pricing kernels for 1-D local-volatility models.

Closed-form option prices and Greeks accurate to second order in the square
root of maturity, a quadrature engine for general basepoints and payoffs, a
sub-step composition scheme for long maturities, and independent oracles
(exact lognormal pricing, Hagan-Woodward volatility, Crank-Nicolson finite
differences) for error analysis.
"""

from .bootstrap import *
from .errors import *
from .grid import *
from .kernel import *
from .models import *
from .oracles import *
from .pricing import *
from . import bootstrap, errors, grid, kernel, models, oracles, pricing

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for module in (bootstrap, errors, grid, kernel, models, oracles, pricing)
                             for name in module.__all__]
