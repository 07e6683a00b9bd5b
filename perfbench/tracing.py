"""Traced run: spans around calls into lvkernel's public functions.

The tracer wraps each traced function wherever a module of the package holds
a reference to it (and the models' `jet` methods on their classes), so calls
between modules are seen too; no file of the package changes.  A span is
(name, start, end, parent, op id) plus the sizes the per-layer rates need.
Spans stay in memory and are written out when the run ends.

Every op is run untraced first, then traced; compose ops are also replayed as
their sequence of public calls (closed-form first hop, then matvecs with the
traced kernel matrix).  The traced result and the replay must equal the
untraced result bit for bit.  One fixed cycle of every workload is traced, so
the counts repeat exactly from run to run with the same seed.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List

import numpy as np

import lvkernel as lv
import workloads

MODULES = ("models", "kernel", "pricing", "bootstrap", "oracles", "cli")
TRACED = {
    "kernel": ("kernel_eval",),
    "bootstrap": ("bootstrap_solve", "kernel_matrix"),
    "pricing": ("price_call_closed", "price_put", "price_butterfly_closed",
                "price_quadrature", "price_curve", "greeks", "curve_greeks"),
    "oracles": ("bs_exact", "hagan_woodward_price", "cn_solve"),
    "cli": ("main",),
}
MODEL_CLASSES = (lv.BSMModel, lv.CEVModel, lv.TimeDependentBSMModel)
# Counts that must repeat exactly between two traced runs with one seed.
EXACT_COUNTS = ("bootstrap.kernel_matrix_zero_share.bsm", "bootstrap.kernel_matrix_zero_share.cev",
                "bootstrap.matvecs", "bootstrap.matrix_bytes_computed", "oracles.cn_steps",
                "pricing.quadrature_pairs", "cli.output_bytes",
                *(f"{m}.{c}" for m in MODULES for c in ("calls", "failed", "grid_warnings")))


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _attrs(name: str, a: Dict[str, Any]) -> Dict[str, Any]:
    """Sizes and kinds a span records, from the call's bound arguments."""
    if name == "jet":
        return {"model": a["self"].kind, "n": int(np.size(a["z"]))}
    if name == "kernel_eval":
        return {"rule": a["spec"].basepoint.value, "n": _size(a["x"], a["y"])}
    if name == "kernel_matrix":
        return {"model": a["spec"].model.kind, "order": a["spec"].order,
                "n": a["grid"].n_nodes ** 2}
    if name in ("price_call_closed", "price_put", "price_butterfly_closed"):
        return {"order": a["order"], "n": int(np.size(a["x"])),
                "scalar": not isinstance(a["x"], np.ndarray)}
    if name == "price_quadrature":
        return {"n": int(np.size(a["x"])) * a["grid"].n_nodes}
    if name in ("bs_exact", "greeks"):
        return {"n": int(np.size(a["x"]))}
    if name == "hagan_woodward_price":
        return {"n": int(np.size(a["s0"]))}
    if name == "cn_solve":
        return {"steps": a["config"].n_steps, "timedep": a["model"].is_time_dependent}
    if name == "main":
        return {"cmd": a["argv"][0]}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []   # [name, start, end, parent, op_id, attrs, failed]
        self.stack: List[int] = []
        self.op_id = None
        self.warnings: Counter = Counter()
        self.last: Dict[str, Any] = {}   # latest return value per span name
        self._restore: List[Callable[[], None]] = []

    def _wrap(self, module: str, fn: Callable) -> Callable:
        name = f"{module}.{fn.__name__}"
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            attrs = _attrs(fn.__name__, signature.bind(*args, **kwargs).arguments)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id, attrs, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.last[name] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for cls in MODEL_CLASSES:
            original = cls.jet
            cls.jet = self._wrap("models", original)
            self._restore.append(lambda cls=cls, original=original: setattr(cls, "jet", original))
        holders = [m for n, m in sys.modules.items() if n == "lvkernel" or n.startswith("lvkernel.")]
        for module, names in TRACED.items():
            for fname in names:
                original = getattr(sys.modules[f"lvkernel.{module}"], fname)
                wrapper = self._wrap(module, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._restore.append(
                                lambda h=holder, a=attr, o=original: setattr(h, a, o))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def _on_warning(self, message, category, *rest) -> None:
        module = self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "outside"
        self.warnings[module] += 1

    @contextlib.contextmanager
    def op(self, op_id: str):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.simplefilter("always", lv.GridTooCoarseWarning)
            warnings.showwarning = self._on_warning
            self.op_id = op_id
            try:
                yield
            finally:
                self.op_id = None


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _fresh_import_s(src: str, setup: str, target: str, repeats: int = 3) -> float:
    """Median time to import `target` in a fresh interpreter, after `setup`."""
    code = (f"import time\n{setup}\nt = time.perf_counter()\nimport {target}\n"
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=src)
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True, timeout=120).stdout)
             for _ in range(repeats)]
    return statistics.median(times)


def run_traced(args, root, src) -> dict:
    tracer = Tracer()
    order = [args.workload] + [w for w in workloads.NAMES if w != args.workload]
    reasons: List[str] = []
    attempted = 0
    untraced_s = traced_s = 0.0
    compose: Dict[str, list] = defaultdict(list)
    matvec_total: Dict[str, float] = {}
    cli: Dict[str, list] = defaultdict(list)
    digests = {}

    tracer.install()
    try:
        for name in order:
            wl = workloads.make(name, str(src))
            ops = wl.cycle(args.seed)
            digests[name] = workloads.inputs_digest(ops)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", lv.GridTooCoarseWarning)
                wl.run(ops[0])   # warm-up, untraced
            for i, op in enumerate(ops):
                attempted += 1
                op_id = f"{name}:{i}"
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", lv.GridTooCoarseWarning)
                    if name == "cli":
                        spawned, wall = _timed(wl.run, op)
                        plain, t_plain = _timed(wl.in_process, op)
                    else:
                        plain, t_plain = _timed(wl.run, op)
                with tracer.op(op_id):
                    traced, t_traced = _timed(wl.in_process if name == "cli" else wl.run, op)
                untraced_s += t_plain
                traced_s += t_traced
                if not workloads.same(plain, traced):
                    reasons.append(f"{op_id}: traced result differs from untraced")
                failure = wl.check(op, spawned if name == "cli" else plain)
                if failure is not None:
                    reasons.append(f"{op_id}: {failure}")
                if name == "compose":
                    mat = tracer.last["bootstrap.kernel_matrix"][0]
                    replay, matvec_times = _replay_compose(wl, op, mat)
                    if not workloads.same(plain, replay):
                        reasons.append(f"{op_id}: replay differs from bootstrap_solve")
                    compose["matvec_s"] += matvec_times
                    compose[op["model"] + ".zeros"].append(int(mat.size - np.count_nonzero(mat)))
                    compose[op["model"] + ".elems"].append(int(mat.size))
                    compose["matrix_bytes"].append(int(mat.nbytes))
                    matvec_total[op_id] = sum(matvec_times)
                if name == "cli":
                    if spawned["out"] != plain:
                        reasons.append(f"{op_id}: cli output differs from in-process main()")
                    cli["overhead"].append(wall - t_plain)
                    cli["main_s." + op["argv"][0]].append(t_plain)
                    cli["bytes"].append(len(spawned["out"]))
                tracer.last.clear()
    finally:
        tracer.uninstall()

    metrics = _layer_metrics(tracer, compose, matvec_total, cli)
    metrics["cli.import_s"] = (_fresh_import_s(str(src), "", "lvkernel"), "s")
    metrics["cli.scipy_special_import_s"] = (
        _fresh_import_s(str(src), "import numpy", "scipy.special"), "s")
    metrics.update(_kernel_matrix_probes())
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")

    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    span_path = out / f"spans-{args.workload}-seed{args.seed}.json"
    with open(span_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op_id", "attrs", "failed"],
                   "spans": tracer.spans}, fh)
    return {
        "attempted": attempted,
        "failed": len(reasons),
        "failures": reasons,
        "inputs_sha256": digests[args.workload],
        "inputs_sha256_all": digests,
        "spans_file": str(span_path.relative_to(root)),
        "span_count": len(tracer.spans),
        "exact_counts": list(EXACT_COUNTS),
        "metrics": dict(sorted(metrics.items())),
    }


def _replay_compose(wl, op, mat):
    """bootstrap_solve as its public calls: closed-form first hop, then matvecs."""
    cfg, payoff = wl.config(op)
    u = lv.price_curve(cfg.spec, cfg.tau, payoff, cfg.grid, method="closed").values.copy()
    times = []
    for _ in range(cfg.n_steps - 1):
        start = time.perf_counter()
        u = mat @ u
        times.append(time.perf_counter() - start)
    return u, times


def _kernel_matrix_probes() -> dict:
    """One direct kernel_matrix call per order and model at tau = 0.1 on the
    compose grid, so the orders compare on identical inputs."""
    grid = workloads.Compose.GRID
    metrics = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lv.GridTooCoarseWarning)
        for kind in ("bsm", "cev"):
            for order in (0, 1, 2):
                spec = lv.KernelSpec(model=workloads.COMPOSE_MODELS[kind], order=order)
                (mat, _), elapsed = _timed(lv.kernel_matrix, spec, 0.1, grid)
                metrics[f"bootstrap.kernel_matrix_ns_per_elem.o{order}.{kind}"] = (
                    elapsed / mat.size * 1e9, "ns")
    return metrics


def _layer_metrics(tracer: Tracer, compose, matvec_total, cli) -> dict:
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def select(name, workload=None, pred=lambda s: True):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (workload is None or s[4].startswith(workload + ":")) and pred(s)]

    def rate(idx, per, scale):
        return sum(dur[i] for i in idx) / sum(spans[i][5][per] for i in idx) * scale

    def parent_is(name):
        return lambda s: s[3] >= 0 and spans[s[3]][0] == name

    top = lambda s: s[3] < 0   # noqa: E731
    m: Dict[str, tuple] = {}
    for kind in ("bsm", "cev", "tdbsm"):
        idx = select("models.jet", "quote", lambda s: s[5]["model"] == kind)
        m[f"models.jet_ns_per_point.{kind}"] = (rate(idx, "n", 1e9), "ns")
    for rule in workloads.BASEPOINTS:
        idx = select("kernel.kernel_eval", "validate",
                     lambda s: s[5]["rule"] == rule and parent_is("pricing.price_quadrature")(s))
        m[f"kernel.eval_ns_per_pair.{rule}"] = (rate(idx, "n", 1e9), "ns")

    solves = select("bootstrap.bootstrap_solve", "compose", top)
    build, hop, residual = [], [], []
    for i in solves:
        kids = [j for j, s in enumerate(spans) if s[3] == i]
        km = sum(dur[j] for j in kids if spans[j][0] == "bootstrap.kernel_matrix")
        fh = sum(dur[j] for j in kids if spans[j][0] == "pricing.price_curve")
        build.append(km)
        hop.append(fh)
        residual.append(dur[i] - km - fh - matvec_total[spans[i][4]])
    n = workloads.Compose.GRID.n_nodes
    matvec = statistics.median(compose["matvec_s"])
    m["bootstrap.kernel_matrix_s"] = (statistics.median(build), "s")
    m["bootstrap.kernel_matrix_share"] = (sum(build) / sum(dur[i] for i in solves), "ratio")
    m["bootstrap.first_hop_s"] = (statistics.median(hop), "s")
    m["bootstrap.residual_s"] = (statistics.median(residual), "s")
    m["bootstrap.matvec_s"] = (matvec, "s")
    m["bootstrap.matvecs"] = (len(compose["matvec_s"]), "count")
    m["bootstrap.matvec_gbps_computed"] = ((n * n + 2 * n) * 8 / matvec / 1e9, "GB/s")
    m["bootstrap.matrix_bytes_computed"] = (max(compose["matrix_bytes"]), "B")
    for kind in ("bsm", "cev"):
        m[f"bootstrap.kernel_matrix_zero_share.{kind}"] = (
            sum(compose[kind + ".zeros"]) / sum(compose[kind + ".elems"]), "ratio")

    long_vector = lambda s: top(s) and s[5]["n"] == max(workloads.Quote.SIZES)   # noqa: E731
    for order in (1, 2):
        idx = select("pricing.price_call_closed", "quote",
                     lambda s: long_vector(s) and s[5]["order"] == order)
        m[f"pricing.closed_ns_per_spot.o{order}"] = (rate(idx, "n", 1e9), "ns")
    m["pricing.put_ns_per_spot"] = (rate(select("pricing.price_put", "quote", long_vector), "n", 1e9), "ns")
    m["pricing.butterfly_ns_per_spot"] = (
        rate(select("pricing.price_butterfly_closed", "quote", long_vector), "n", 1e9), "ns")
    scalar = select("pricing.price_call_closed", "quote", lambda s: top(s) and s[5]["scalar"])
    m["pricing.closed_scalar_us_per_call"] = (statistics.median(dur[i] for i in scalar) * 1e6, "us")
    m["pricing.greeks_s"] = (statistics.median(dur[i] for i in select("pricing.greeks", "quote")), "s")
    quad = select("pricing.price_quadrature", "validate")
    m["pricing.quadrature_s"] = (statistics.median(dur[i] for i in quad), "s")
    m["pricing.quadrature_pairs"] = (sum(spans[i][5]["n"] for i in quad), "count")

    bs = select("oracles.bs_exact", "validate", lambda s: not parent_is("oracles.hagan_woodward_price")(s))
    m["oracles.bs_exact_ns_per_spot"] = (rate(bs, "n", 1e9), "ns")
    m["oracles.hagan_woodward_us_per_spot"] = (
        rate(select("oracles.hagan_woodward_price", "validate"), "n", 1e6), "us")
    for label, timedep in (("const", False), ("timedep", True)):
        idx = select("oracles.cn_solve", "validate", lambda s: s[5]["timedep"] == timedep)
        m[f"oracles.cn_us_per_step.{label}"] = (rate(idx, "steps", 1e6), "us")
    m["oracles.cn_steps"] = (sum(spans[i][5]["steps"] for i in select("oracles.cn_solve")), "count")

    for key, values in sorted(cli.items()):
        if key.startswith("main_s."):
            m["cli." + key] = (statistics.median(values), "s")
    m["cli.process_overhead_s"] = (statistics.median(cli["overhead"]), "s")
    m["cli.output_bytes"] = (sum(cli["bytes"]), "count")

    for module in MODULES:
        own = [i for i, s in enumerate(spans) if s[0].split(".")[0] == module]
        m[f"{module}.calls"] = (len(own), "count")
        m[f"{module}.failed"] = (sum(spans[i][6] for i in own), "count")
        m[f"{module}.grid_warnings"] = (tracer.warnings[module], "count")
        m[f"{module}.self_s"] = (sum(dur[i] - child_time[i] for i in own), "s")
    return m
