"""The package's public surface: every module's star import and every name
in lvkernel.__all__ resolve, so a deletion cannot leave a stale entry."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lvkernel

MODULES = sorted(m.name for m in pkgutil.iter_modules(lvkernel.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from lvkernel.{module} import *", namespace)
    exported = importlib.import_module(f"lvkernel.{module}").__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= set(namespace)


def test_public_names_are_pinned():
    # a name added to or dropped from the package's surface shows here
    assert sorted(lvkernel.__all__) == [
        "BSMModel", "BasepointRule", "BootstrapConfig", "ButterflyPayoff", "CEVModel",
        "CNConfig", "CallPayoff", "CoefficientJet", "CustomModel", "DegenerateCoefficient",
        "DomainError", "GridTooCoarseWarning", "KernelSpec", "LVKernelError", "Model",
        "Payoff", "PriceCurve", "PutPayoff", "SampledPayoff", "SingularMatrix",
        "SpatialGrid", "TimeDependentBSMModel", "__version__", "basepoint",
        "bootstrap_error_table", "bootstrap_solve", "bs_delta", "bs_exact", "bs_gamma",
        "bs_kernel", "cn_solve", "curve_greeks", "greeks", "hagan_woodward_price",
        "hagan_woodward_vol", "kernel_eval", "kernel_matrix", "model_from_dict",
        "model_from_file", "model_from_json", "price_butterfly_closed", "price_call_closed",
        "price_curve", "price_put", "price_quadrature", "simpson_weights"]


def test_package_names_resolve_once():
    names = lvkernel.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(lvkernel, name)]
    assert missing == []


def test_import_order_is_pinned():
    # the order in which `import lvkernel` loads its modules sets what a fresh
    # process pays: moving one import has cost about 3,400 minor page faults
    # and 50 ms of set-up
    src = str(Path(lvkernel.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, lvkernel; print(*(m for m in sys.modules if m.startswith('lvkernel.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == [f"lvkernel.{m}" for m in
                           ("errors", "grid", "models", "kernel", "pricing", "bootstrap", "oracles")]
