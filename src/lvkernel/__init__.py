"""Short-time asymptotic pricing kernels for 1-D local-volatility models.

Closed-form option prices and Greeks accurate to second order in the square
root of maturity, a quadrature engine for general basepoints and payoffs, a
sub-step composition scheme for long maturities, and independent oracles
(exact lognormal pricing, Hagan-Woodward volatility, Crank-Nicolson finite
differences) for error analysis.
"""

from .bootstrap import (
    BootstrapConfig,
    bootstrap_error_table,
    bootstrap_solve,
    kernel_matrix,
)
from .errors import (
    DegenerateCoefficient,
    DomainError,
    GridTooCoarseWarning,
    LVKernelError,
    SingularMatrix,
)
from .grid import PriceCurve, SpatialGrid, simpson_weights
from .kernel import KernelSpec, kernel_eval
from .models import (
    BasepointRule,
    BSMModel,
    CEVModel,
    CoefficientJet,
    CustomModel,
    Model,
    TimeDependentBSMModel,
    basepoint,
    model_from_dict,
    model_from_file,
    model_from_json,
)
from .oracles import (
    CNConfig,
    bs_delta,
    bs_exact,
    bs_gamma,
    bs_kernel,
    cn_solve,
    hagan_woodward_price,
    hagan_woodward_vol,
)
from .pricing import (
    ButterflyPayoff,
    CallPayoff,
    Payoff,
    PutPayoff,
    SampledPayoff,
    curve_greeks,
    greeks,
    price_butterfly_closed,
    price_call_closed,
    price_curve,
    price_put,
    price_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BasepointRule",
    "BootstrapConfig",
    "BSMModel",
    "ButterflyPayoff",
    "CallPayoff",
    "CEVModel",
    "CNConfig",
    "CoefficientJet",
    "CustomModel",
    "DegenerateCoefficient",
    "DomainError",
    "GridTooCoarseWarning",
    "KernelSpec",
    "LVKernelError",
    "Model",
    "Payoff",
    "PriceCurve",
    "PutPayoff",
    "SampledPayoff",
    "SingularMatrix",
    "SpatialGrid",
    "TimeDependentBSMModel",
    "basepoint",
    "bootstrap_error_table",
    "bootstrap_solve",
    "bs_delta",
    "bs_exact",
    "bs_gamma",
    "bs_kernel",
    "cn_solve",
    "curve_greeks",
    "greeks",
    "hagan_woodward_price",
    "hagan_woodward_vol",
    "kernel_eval",
    "kernel_matrix",
    "model_from_dict",
    "model_from_file",
    "model_from_json",
    "price_butterfly_closed",
    "price_call_closed",
    "price_curve",
    "price_put",
    "price_quadrature",
    "simpson_weights",
]
