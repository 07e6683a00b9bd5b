"""The package's public surface: every module's star import and every name
in lvkernel.__all__ resolve, so a deletion cannot leave a stale entry, and so
does every name the benchmark in perfbench/ reads from the package."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lvkernel
import lvkernel.cli  # the benchmark imports it: lvkernel.cli.main resolves

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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _chain(node):
    """The dotted name of an attribute chain, or None unless it ends in a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _benchmark_names():
    """Every attribute chain rooted at lv or lvkernel in perfbench/*.py, outermost only."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {chain for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and id(n) not in inner and (chain := _chain(n))
                  and chain.split(".")[0] in ("lv", "lvkernel")}
    return sorted(names)


def _resolves(name):
    obj = lvkernel
    for attr in name.split(".")[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_the_names_the_benchmark_reads_resolve():
    # the benchmark calls the package by these names (BasepointRule.parse has no
    # caller in the package), so deleting or renaming one fails its ops
    names = _benchmark_names()
    assert len(names) >= 27  # the parse reached the benchmark's calls: 29 chains when written
    missing = [name for name in names if not _resolves(name)]
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    traced, = [ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
               and any(getattr(t, "id", None) == "TRACED" for t in n.targets)]
    missing += [f"lvkernel.{module}.{fn}" for module, fns in traced.items() for fn in fns
                if not _resolves(f"lvkernel.{module}.{fn}")]
    assert missing == []
