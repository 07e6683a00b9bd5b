"""The four benchmark workloads: compose, quote, validate and cli.

Each workload turns a seed into one fixed *cycle* of operations.  The timed
loop replays the cycle from its start, so every run of a workload executes
the same mix of models, orders and sizes in the same order; the seed only
draws strikes, spots and butterfly wings inside narrow bands.  That keeps the
figures steady from seed to seed while the inputs still come from the seed.

A workload object knows how to run one op (the timed part), how much work an
op is, how to check an op's output on the spot, and how to verify the
distinct ops of a run afterwards against an oracle (untimed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import lvkernel as lv
import lvkernel.cli

# Model parameters follow the README examples.
COMPOSE_MODELS = {
    "bsm": lv.BSMModel(sigma=0.5, r=0.1),
    "cev": lv.CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1),
    "tdbsm": lv.TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1),
}
SHORT_MODELS = {
    "bsm": lv.BSMModel(sigma=0.3, r=0.1),
    "cev": lv.CEVModel(sigma=0.3, alpha=2.0 / 3.0, r=0.1),
    "tdbsm": lv.TimeDependentBSMModel(sigma=0.3, sigma_dot0=0.2, r=0.1),
}
# The paper's error-table maturities.
MATURITIES = (0.01, 0.05, 0.1, 0.2, 0.5)
BASEPOINTS = ("atx", "aty", "mid")


def same(a: Any, b: Any) -> bool:
    """Bit-for-bit equality of op results (floats, arrays, tuples, dicts, bytes)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return isinstance(b, (tuple, list)) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, (bytes, str, int)):
        return type(a) is type(b) and a == b
    x, y = np.asarray(a), np.asarray(b)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def inputs_digest(ops: List[Dict[str, Any]]) -> str:
    """SHA-256 of a cycle's inputs: equal seeds must give equal digests."""
    h = hashlib.sha256()
    for op in ops:
        for key in sorted(op):
            value = op[key]
            h.update(key.encode())
            h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()


def all_finite(result: Any) -> bool:
    if isinstance(result, dict):
        return all(all_finite(v) for v in result.values())
    if isinstance(result, (tuple, list)):
        return all(all_finite(v) for v in result)
    return bool(np.all(np.isfinite(np.asarray(result, dtype=float))))


def _payoff(kind: str, strike: float, wing: float) -> lv.Payoff:
    if kind == "call":
        return lv.CallPayoff(strike)
    if kind == "put":
        return lv.PutPayoff(strike)
    return lv.ButterflyPayoff(strike - wing, strike, strike + wing)


def _bsm_exact(kind: str, model: lv.BSMModel, t: float, strike: float, wing: float,
               x: np.ndarray) -> np.ndarray:
    """Exact lognormal price of a call, put or butterfly (puts by exact parity)."""
    def call(k: float) -> np.ndarray:
        return lv.bs_exact(t, k, x, model.sigma, model.r)
    if kind == "call":
        return call(strike)
    if kind == "put":
        return call(strike) - x + strike * np.exp(-model.r * t)
    return call(strike - wing) - 2.0 * call(strike) + call(strike + wing)


def _cn_reference(model: lv.Model, grid: lv.SpatialGrid, t: float, payoff: lv.Payoff) -> np.ndarray:
    cfg = lv.CNConfig(grid=grid, dt=min(1e-3, t / 200.0), t_total=t)
    return lv.cn_solve(model, cfg, payoff).values


def _on_grid(rng: np.random.Generator, grid: lv.SpatialGrid, lo: float, hi: float,
             size: int) -> np.ndarray:
    """Sorted indices of `size` grid nodes drawn from [lo, hi], with replacement."""
    idx = np.flatnonzero((grid.nodes >= lo) & (grid.nodes <= hi))
    return np.sort(rng.choice(idx, size=size, replace=True))


class Workload:
    work_unit = ""

    def cycle(self, seed: int) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def run(self, op: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def work(self, op: Dict[str, Any]) -> int:
        return 1

    def check(self, op: Dict[str, Any], result: Any) -> Optional[str]:
        """Cheap check made after every op; returns a failure reason or None."""
        return None if all_finite(result) else "non-finite output"

    def verify(self, ops: List[Dict[str, Any]], results: List[Any]) -> Tuple[List[Optional[str]], float]:
        """Check the distinct ops of a run against oracles.

        Returns a failure reason (or None) per op and the worst absolute error.
        Accuracy defects are reported in the error, never counted as failures.
        """
        raise NotImplementedError


class Compose(Workload):
    """One bootstrap_solve per op on regular(200, 0.1): 2000 nodes."""

    work_unit = "solves"
    GRID = lv.SpatialGrid.regular(200.0, 0.1)
    REF_GRID = lv.SpatialGrid.regular(200.0, 0.05)
    WINDOW = 40.0
    # (model, order, steps, t, payoff).  The first six rows cover every
    # model/order pair, so a run cut short of one cycle still sees all of
    # them.  ("bsm", 2, 40, 1.0) is the x_max-leak case (sup error ~1.2e-1).
    ROWS = (
        ("bsm", 2, 10, 1.0, "call"),
        ("cev", 2, 40, 2.0, "call"),
        ("tdbsm", 1, 10, 1.0, "call"),
        ("bsm", 1, 40, 2.0, "butterfly"),
        ("cev", 1, 10, 2.0, "butterfly"),
        ("tdbsm", 2, 40, 0.5, "put"),
        ("bsm", 2, 40, 1.0, "call"),
        ("cev", 2, 10, 0.5, "put"),
        ("tdbsm", 1, 40, 0.5, "butterfly"),
        ("bsm", 1, 10, 0.5, "put"),
        ("cev", 1, 40, 1.0, "put"),
        ("tdbsm", 2, 10, 2.0, "butterfly"),
    )

    def cycle(self, seed: int) -> List[Dict[str, Any]]:
        rng = np.random.default_rng([seed, 1])
        ops = []
        for model, order, steps, t, payoff in self.ROWS:
            strike = round(20.0 + 0.1 * int(rng.integers(-5, 6)), 1)
            wing = round(0.1 * int(rng.integers(20, 41)), 1)
            ops.append(dict(model=model, order=order, steps=steps, t=t, payoff=payoff,
                            strike=strike, wing=wing))
        return ops

    def config(self, op: Dict[str, Any]) -> Tuple[lv.BootstrapConfig, lv.Payoff]:
        spec = lv.KernelSpec(model=COMPOSE_MODELS[op["model"]], order=op["order"])
        cfg = lv.BootstrapConfig(spec=spec, t_total=op["t"], n_steps=op["steps"], grid=self.GRID)
        return cfg, _payoff(op["payoff"], op["strike"], op["wing"])

    def run(self, op):
        cfg, payoff = self.config(op)
        return lv.bootstrap_solve(cfg, payoff).values

    def verify(self, ops, results):
        xs = self.GRID.nodes
        window = xs <= self.WINDOW
        # node i of the 0.1 grid is node 2i+1 of the 0.05 reference grid
        ref_idx = 2 * np.arange(xs.size)[window] + 1
        worst = 0.0
        for op, values in zip(ops, results):
            model = COMPOSE_MODELS[op["model"]]
            if op["model"] == "bsm":
                ref = _bsm_exact(op["payoff"], model, op["t"], op["strike"], op["wing"], xs[window])
            else:
                payoff = _payoff(op["payoff"], op["strike"], op["wing"])
                ref = _cn_reference(model, self.REF_GRID, op["t"], payoff)[ref_idx]
            worst = max(worst, float(np.max(np.abs(values[window] - ref))))
        return [None] * len(ops), worst


class Quote(Workload):
    """One closed-form pricing request per op: scalar, 64 or 10k spots."""

    work_unit = "option prices"
    GRID = lv.SpatialGrid.regular(60.0, 0.01)   # spots are nodes of the CN reference grid
    SIZES = (1, 64, 10_000)
    FNS = ("call", "put", "butterfly", "greeks")

    def cycle(self, seed: int) -> List[Dict[str, Any]]:
        rng = np.random.default_rng([seed, 2])
        strike = round(20.0 + 0.01 * int(rng.integers(-50, 51)), 2)
        wing = round(0.01 * int(rng.integers(150, 301)), 2)
        ops = []
        # every combination comes in every size, so the worst error of a
        # combination is always taken over a 10k-spot sweep of the range
        for fn in self.FNS:
            for model in SHORT_MODELS:
                for order in (1, 2):
                    for t in MATURITIES:
                        for size in self.SIZES:
                            idx = _on_grid(rng, self.GRID, 0.8 * strike, 1.2 * strike, size)
                            ops.append(dict(fn=fn, model=model, order=order, t=t, strike=strike,
                                            wing=wing, idx=idx, scalar=size == 1))
        return ops

    def spots(self, op):
        x = self.GRID.nodes[op["idx"]]
        return float(x[0]) if op["scalar"] else x

    def run(self, op):
        model = SHORT_MODELS[op["model"]]
        order, t, strike = op["order"], op["t"], op["strike"]
        x = self.spots(op)
        fn = op["fn"]
        if fn == "call":
            return lv.price_call_closed(order, model, t, strike, x)
        if fn == "put":
            return lv.price_put(order, model, t, strike, x)
        if fn == "butterfly":
            payoff = lv.ButterflyPayoff(strike - op["wing"], strike, strike + op["wing"])
            return lv.price_butterfly_closed(order, model, t, payoff, x)

        def price(tt, xx):
            return lv.price_call_closed(order, model, tt, strike, xx)
        return lv.greeks(price, t, x, 0.01)

    def work(self, op):
        return op["idx"].size

    def verify(self, ops, results):
        reasons: List[Optional[str]] = []
        worst = 0.0
        cn_cache: Dict[Tuple, np.ndarray] = {}
        for op, value in zip(ops, results):
            reasons.append(self._parity(op, value) if op["fn"] == "put" else None)
            if op["fn"] == "greeks":
                continue   # delta/gamma are checked for finiteness only
            model = SHORT_MODELS[op["model"]]
            x = self.GRID.nodes[op["idx"]]
            if op["model"] == "bsm":
                ref = _bsm_exact(op["fn"], model, op["t"], op["strike"], op["wing"], x)
            else:
                key = (op["model"], op["t"], op["fn"], op["strike"], op["wing"])
                if key not in cn_cache:
                    payoff = _payoff(op["fn"], op["strike"], op["wing"])
                    cn_cache[key] = _cn_reference(model, self.GRID, op["t"], payoff)
                ref = cn_cache[key][op["idx"]]
            worst = max(worst, float(np.max(np.abs(np.asarray(value) - ref))))
        return reasons, worst

    def _parity(self, op, put) -> Optional[str]:
        """put = call - forward, with the forward price_put documents:
        (x - K) + b t, plus c t (x - K) at order 2."""
        model = SHORT_MODELS[op["model"]]
        x = self.spots(op)
        call = lv.price_call_closed(op["order"], model, op["t"], op["strike"], x)
        jet = model.jet(x)
        m = np.asarray(x) - op["strike"]
        forward = m + jet.b * op["t"]
        if op["order"] == 2:
            forward = forward + jet.c * op["t"] * m
        gap = np.abs(np.asarray(put) - (np.asarray(call) - forward))
        tol = 1e-12 * (1.0 + np.abs(call) + np.abs(forward))
        return None if np.all(gap <= tol) else f"put-call parity off by {float(np.max(gap)):.3g}"


class Validate(Workload):
    """One (model, maturity) block of an error table per op."""

    work_unit = "error-table rows"
    CN_GRID = lv.SpatialGrid.regular(60.0, 0.01)
    QUAD_GRID = lv.SpatialGrid(1.0, 40.0, 0.01)   # 3901 nodes
    N_CLOSED = 200
    N_QUAD = 21

    def cycle(self, seed: int) -> List[Dict[str, Any]]:
        rng = np.random.default_rng([seed, 3])
        ops = []
        for t in MATURITIES:
            for model in SHORT_MODELS:
                strike = round(15.0 + 0.01 * int(rng.integers(-50, 51)), 2)
                lo, hi = 0.8 * strike, 1.2 * strike
                ops.append(dict(model=model, t=t, strike=strike,
                                closed_idx=_on_grid(rng, self.CN_GRID, lo, hi, self.N_CLOSED),
                                quad_idx=_on_grid(rng, self.CN_GRID, lo, hi, self.N_QUAD)))
        return ops

    def run(self, op):
        """Approximations and oracle values at the block's spots.

        Oracles: bs_exact for BSM; Crank-Nicolson on regular(60, 0.01) for
        CEV and TD-BSM, with Hagan-Woodward as a second CEV approximation
        checked against the same CN solve.
        """
        kind, t, strike = op["model"], op["t"], op["strike"]
        model = SHORT_MODELS[kind]
        xc = self.CN_GRID.nodes[op["closed_idx"]]
        xq = self.CN_GRID.nodes[op["quad_idx"]]
        payoff = lv.CallPayoff(strike)
        approx = {
            "order1": (xc, lv.price_call_closed(1, model, t, strike, xc)),
            "order2": (xc, lv.price_call_closed(2, model, t, strike, xc)),
        }
        for rule in BASEPOINTS:
            spec = lv.KernelSpec(model=model, order=2, basepoint=lv.BasepointRule.parse(rule))
            approx["quad-" + rule] = (xq, lv.price_quadrature(spec, t, payoff, xq, self.QUAD_GRID))
        if kind == "bsm":
            ref = {"c": lv.bs_exact(t, strike, xc, model.sigma, model.r),
                   "q": lv.bs_exact(t, strike, xq, model.sigma, model.r)}
        else:
            cn = _cn_reference(model, self.CN_GRID, t, payoff)
            ref = {"c": cn[op["closed_idx"]], "q": cn[op["quad_idx"]]}
            if kind == "cev":
                approx["hagan-woodward"] = (xc, lv.hagan_woodward_price(
                    t, strike, xc, model.sigma, model.alpha, model.r))
        table = {}
        for method, (x, values) in approx.items():
            oracle = ref["c"] if x is xc else ref["q"]
            table[method] = np.stack([x, values, oracle, np.abs(values - oracle)])
        return table

    def work(self, op):
        rows = 2 * self.N_CLOSED + len(BASEPOINTS) * self.N_QUAD
        return rows + (self.N_CLOSED if op["model"] == "cev" else 0)

    def check(self, op, result):
        if sum(tab.shape[1] for tab in result.values()) != self.work(op):
            return "wrong number of error-table rows"
        return super().check(op, result)

    def verify(self, ops, results):
        worst = max(float(np.max(tab[3])) for table in results for tab in table.values())
        return [None] * len(ops), worst


class Cli(Workload):
    """One fresh `python -m lvkernel.cli` process per op."""

    work_unit = "invocations"

    def __init__(self, src_dir: str) -> None:
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.peak_rss_mb = 0.0   # largest CLI child, which is what a user's process uses

    def cycle(self, seed: int) -> List[Dict[str, Any]]:
        rng = np.random.default_rng([seed, 4])

        def jitter(center: float, step: float, half: int) -> str:
            return format(round(center + step * int(rng.integers(-half, half + 1)), 2), "g")

        bsm = '{"kind": "bsm", "sigma": 0.3, "r": 0.1}'
        argvs = [
            ["price", "--model", bsm, "--order", "2", "--t", "0.25", "--payoff", "call",
             "--strike", jitter(15, 0.01, 50), "--spot", jitter(16, 0.01, 50)],
            ["kernel", "--model", '{"kind": "cev", "sigma": 0.3, "alpha": 0.667}',
             "--order", "2", "--t", "0.1", "--x", jitter(15, 0.1, 5), "--grid", "12:18:0.1"],
            ["greeks", "--model", bsm, "--order", "2", "--t", "0.5", "--payoff", "call",
             "--strike", jitter(20, 0.5, 2), "--grid", "10:30:0.5"],
            # --xmax 50 instead of the README's 200 keeps this op near the others' cost
            ["bootstrap", "--model", '{"kind": "bsm", "sigma": 0.5, "r": 0.1}', "--order", "2",
             "--t", "1.0", "--steps", "10", "--xmax", "50", "--dx", "0.1", "--payoff", "call",
             "--strike", jitter(20, 0.1, 5), "--compare-oracle", "bs-exact"],
            ["compare", "--model", bsm, "--oracle", "bs-exact", "--method", "order1",
             "--grid", "12:18:1", "--times", "0.01,0.05,0.1,0.2,0.5", "--strike",
             jitter(15, 0.1, 5)],
        ]
        return [dict(argv=a) for a in argvs]

    def spawn(self, op) -> Tuple[int, bytes]:
        """Run one CLI process; returns (exit code, stdout)."""
        proc = subprocess.Popen([sys.executable, "-m", "lvkernel.cli", *op["argv"]],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env)
        out = proc.stdout.read()
        proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, out

    def run(self, op):
        code, out = self.spawn(op)
        return {"code": code, "out": out}

    def in_process(self, op) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lvkernel.cli.main(op["argv"])
        if code != 0:
            raise RuntimeError(f"in-process cli exited {code}")
        return buf.getvalue().encode("utf-8")

    def check(self, op, result):
        return None if result["code"] == 0 else f"exit code {result['code']}"

    def verify(self, ops, results):
        reasons = []
        worst = 0.0
        for op, res in zip(ops, results):
            reasons.append(None if res["out"] == self.in_process(op)
                           else "output differs from in-process main()")
            worst = max(worst, self.reported_error(res["out"]))
        return reasons, worst

    @staticmethod
    def reported_error(out: bytes) -> float:
        """Largest value of the abs_error column, when the output has one."""
        lines = out.decode("utf-8").splitlines()
        if not lines or "abs_error" not in lines[0].split(","):
            return 0.0
        col = lines[0].split(",").index("abs_error")
        return max(float(line.split(",")[col]) for line in lines[1:])


def make(name: str, src_dir: str) -> Workload:
    if name == "cli":
        return Cli(src_dir)
    return {"compose": Compose, "quote": Quote, "validate": Validate}[name]()


NAMES = ("compose", "quote", "validate", "cli")
