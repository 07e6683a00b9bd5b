"""The package's public surface: every module's star import and every name
in lvkernel.__all__ resolve, so a deletion cannot leave a stale entry, and so
does every name the benchmark in perfbench/ reads from the package."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_the_tracer_reads_every_traced_call(monkeypatch, capsys):
    # the tracer reads attributes off each traced call's arguments (_attrs:
    # model.is_time_dependent, config.n_steps, grid.n_nodes, spec.basepoint.value,
    # model.kind) and the compose replay unpacks kernel_matrix's (mat, mass):
    # one small call of each traced name, and of each model's jet, must leave
    # a span that did not fail
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    lv = lvkernel
    bsm, tdbsm = lv.BSMModel(sigma=0.3, r=0.1), lv.TimeDependentBSMModel(0.3, 0.2, 0.1)
    grid, call = lv.SpatialGrid(10.0, 20.0, 0.5), lv.CallPayoff(15.0)
    spec = lv.KernelSpec(bsm, 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op("probe"):
            for model in (bsm, lv.CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1), tdbsm):
                model.jet(15.0)
            lv.kernel_eval(spec, 0.1, 15.0, 15.5)
            lv.kernel_matrix(spec, 0.1, grid)
            lv.bootstrap_solve(lv.BootstrapConfig(spec, 0.2, 2, grid), call)
            lv.price_call_closed(2, bsm, 0.1, 15.0, 15.0)
            lv.price_put(2, bsm, 0.1, 15.0, 15.0)
            lv.price_butterfly_closed(2, bsm, 0.1, lv.ButterflyPayoff(14.0, 15.0, 16.0), 15.0)
            lv.price_quadrature(spec, 0.1, call, 15.0, grid)
            lv.curve_greeks(lv.price_curve(spec, 0.1, call, grid))
            lv.greeks(lambda t, x: lv.price_call_closed(2, bsm, t, 15.0, x), 0.1, 15.0, 0.01)
            lv.bs_exact(0.1, 15.0, 15.0, 0.3, 0.1)
            lv.hagan_woodward_price(0.1, 15.0, 15.0, 0.3, 2.0 / 3.0, 0.1)
            for model in (bsm, tdbsm):
                lv.cn_solve(model, lv.CNConfig(grid, 0.01, 0.02), call)
            assert lvkernel.cli.main(["price", "--model", '{"kind": "bsm", "sigma": 0.3}', "--order",
                                      "2", "--t", "0.1", "--payoff", "call", "--strike", "15",
                                      "--spot", "15"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = tracer.spans
    assert {s[0] for s in spans} == {"models.jet"} | {
        f"{module}.{fn}" for module, fns in tracing.TRACED.items() for fn in fns}
    assert [s[0] for s in spans if s[6]] == []
    assert {s[5]["model"] for s in spans if s[0] == "models.jet"} >= {"bsm", "cev", "tdbsm"}
    assert {s[5]["timedep"] for s in spans if s[0] == "oracles.cn_solve"} == {False, True}
    mat, mass = tracer.last["bootstrap.kernel_matrix"]
    assert mat.shape == (grid.n_nodes, grid.n_nodes) and mass.shape == (grid.n_nodes,)


@pytest.mark.filterwarnings("ignore:an order-1 composition:UserWarning")
def test_a_traced_run_reads_every_layer_metric(monkeypatch, tmp_path):
    # a traced run takes its per-layer metrics from the spans the workloads'
    # calls leave (tracing._layer_metrics): a basepoint rule whose quadrature
    # left no kernel_eval span would divide 0 by 0.  One cycle, cut to the ops
    # those metrics read, with the CLI run in process and no fresh interpreter
    # timed, must give every per-layer metric BENCHMARK.json declares
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing, workloads = (importlib.import_module(m) for m in ("tracing", "workloads"))
    first = workloads.MATURITIES[0]
    keep = {workloads.Compose: lambda op: op["steps"] == 10 and op["model"] != "tdbsm",
            workloads.Quote: lambda op: op["t"] == first,
            workloads.Validate: lambda op: op["t"] == first}
    for cls, wanted in keep.items():
        monkeypatch.setattr(cls, "cycle", lambda self, seed, cycle=cls.cycle, wanted=wanted:
                            [op for op in cycle(self, seed) if wanted(op)])
    monkeypatch.setattr(workloads.Cli, "run", lambda self, op: {"code": 0, "out": self.in_process(op)})
    monkeypatch.setattr(tracing, "_fresh_import_s", lambda *args, **kwargs: 0.0)
    result = tracing.run_traced(SimpleNamespace(workload="validate", seed=1), tmp_path,
                                Path(lvkernel.__file__).resolve().parent.parent)
    assert result["failures"] == []
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    assert all(value == value for value, _ in result["metrics"].values())  # none is NaN
