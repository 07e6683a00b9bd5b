"""Command-line front end: prices, kernel values, Greeks, bootstrap runs,
and oracle comparison tables, written as deterministic CSV/JSON artifacts."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .bootstrap import BootstrapConfig, bootstrap_solve
from .errors import DegenerateCoefficient, DomainError
from .grid import PriceCurve, SpatialGrid
from .kernel import KernelSpec, kernel_eval
from .models import (
    BasepointRule,
    BSMModel,
    CEVModel,
    Model,
    model_from_dict,
    model_from_file,
)
from .pricing import (
    ButterflyPayoff,
    CallPayoff,
    Payoff,
    PutPayoff,
    _price_closed_dispatch,
    curve_greeks,
    greeks,
    price_curve,
)

__all__ = ["RunConfig", "run", "main"]


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _fmt(v: float) -> str:
    """17 significant digits: lossless text round-trip for doubles."""
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one CLI invocation byte-for-byte.

    The model is stored as its resolved JSON object, so a config round-trips
    through to_json/from_json without the original --model-file present.
    """

    command: str
    model: dict
    params: dict = field(default_factory=dict)
    out: Optional[str] = None

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "model": self.model,
            "params": self.params,
            "out": self.out,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad run-config JSON: {exc}") from exc
        if not isinstance(payload, dict) or "command" not in payload:
            raise UsageError("run-config JSON must be an object with a 'command' key")
        return cls(
            command=payload["command"],
            model=payload.get("model") or {},
            params=payload.get("params") or {},
            out=payload.get("out"),
        )


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvkernel",
        description="Short-time kernel option pricing: closed forms, "
                    "quadrature, bootstrap composition, and oracle tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--model-file", help="path to a model JSON file")
        g.add_argument("--model", help="inline model JSON object")
        p.add_argument("--out", help="artifact path (.csv or .json); default stdout")

    p = sub.add_parser("price", help="option prices, single spot or curve")
    common(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--payoff", choices=["call", "put", "butterfly"], required=True)
    p.add_argument("--strike", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--spot", type=float)
    p.add_argument("--grid", help="xmin:xmax:dx evaluation grid")
    p.add_argument("--basepoint", choices=["atx", "aty", "mid"], default="atx")
    p.add_argument("--method", choices=["closed", "quadrature"], default="closed")

    p = sub.add_parser("kernel", help="kernel values over a y grid at fixed x, t")
    common(p)
    p.add_argument("--order", type=int, choices=[0, 1, 2], required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--grid", required=True, help="ymin:ymax:dy grid")
    p.add_argument("--basepoint", choices=["atx", "aty", "mid"], default="atx")

    p = sub.add_parser("greeks", help="delta and gamma by central differences")
    common(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--payoff", choices=["call", "put", "butterfly"], required=True)
    p.add_argument("--strike", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--spot", type=float)
    p.add_argument("--grid", help="xmin:xmax:dx curve grid")
    p.add_argument("--dx", type=float, help="difference step (default: grid dx)")
    p.add_argument("--basepoint", choices=["atx", "aty", "mid"], default="atx")
    p.add_argument("--method", choices=["closed", "quadrature"], default="closed")

    p = sub.add_parser("bootstrap", help="compose the kernel over sub-steps")
    common(p)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--dx", type=float, required=True)
    p.add_argument("--payoff", choices=["call", "put", "butterfly"], required=True)
    p.add_argument("--strike", type=float)
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--basepoint", choices=["atx", "aty", "mid"], default="atx")
    p.add_argument("--compare-oracle", choices=["bs-exact", "cn"], required=True)

    p = sub.add_parser("compare", help="approximation-vs-oracle error table")
    common(p)
    p.add_argument("--oracle", choices=["bs-exact", "hagan-woodward", "cn"],
                   required=True)
    p.add_argument("--method", choices=["order1", "order2", "bootstrap"],
                   required=True)
    p.add_argument("--grid", required=True, help="xmin:xmax:dx evaluation grid")
    p.add_argument("--times", required=True, help="comma-separated maturities")
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--steps", type=int, default=10,
                   help="bootstrap sub-steps (method=bootstrap)")
    p.add_argument("--basepoint", choices=["atx", "aty", "mid"], default="atx")

    return parser


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    if ns.model_file is not None:
        with open(ns.model_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = ns.model
    try:
        model_obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad model JSON: {exc}") from exc
    if not isinstance(model_obj, dict):
        raise UsageError("model JSON must be an object")
    # a subcommand's namespace is the shared flags plus its own params
    params = {k: v for k, v in vars(ns).items()
              if k not in ("command", "model", "model_file", "out")}
    return RunConfig(command=ns.command, model=model_obj, params=params, out=ns.out)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> SpatialGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be xmin:xmax:dx, got {text!r}")
    try:
        lo, hi, dx = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"grid must be numeric xmin:xmax:dx, got {text!r}") from exc
    try:
        return SpatialGrid(x_min=lo, x_max=hi, dx=dx)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _parse_times(text: str) -> List[float]:
    try:
        times = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --times list {text!r}") from exc
    if not times:
        raise UsageError("--times must list at least one maturity")
    return times


def _check_price_order(order: int) -> int:
    if order not in (1, 2):
        raise UsageError("order must be 1 or 2")
    return order


def _payoff_from_params(params: dict) -> Payoff:
    kind = params["payoff"]
    strike = params.get("strike")
    if kind == "call":
        if strike is None:
            raise UsageError("--payoff call needs --strike")
        return CallPayoff(strike)
    if kind == "put":
        if strike is None:
            raise UsageError("--payoff put needs --strike")
        return PutPayoff(strike)
    k1, k2 = params.get("k1"), params.get("k2")
    if strike is None or k1 is None or k2 is None:
        raise UsageError("--payoff butterfly needs --k1, --strike, --k2")
    return ButterflyPayoff(k1, strike, k2)


def _bsm_params(model: Model, what: str) -> tuple:
    if not isinstance(model, BSMModel):
        raise UsageError(f"{what} needs a 'bsm' model")
    return model.sigma, model.r


def _cn_curve(model: Model, grid: SpatialGrid, t: float, payoff: Payoff) -> PriceCurve:
    from .oracles import CNConfig, cn_solve

    dt = min(1e-3, t / 200.0)
    return cn_solve(model, CNConfig(grid=grid, dt=dt, t_total=t), payoff)


def _write_artifact(text: str, out: Optional[str]) -> None:
    """Write to stdout, or atomically to a file (write then rename)."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    tmp = os.path.join(directory, "." + os.path.basename(out) + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, out)


def _csv(header: str, rows: Sequence[Sequence[float]]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _run_price(model: Model, params: dict) -> str:
    order = _check_price_order(params["order"])
    t = params["t"]
    payoff = _payoff_from_params(params)
    basepoint = BasepointRule.parse(params["basepoint"])
    spec = KernelSpec(model=model, order=order, basepoint=basepoint)
    spot, grid_text = params.get("spot"), params.get("grid")
    if (spot is None) == (grid_text is None):
        raise UsageError("price needs exactly one of --spot or --grid")
    if spot is not None:
        if params["method"] != "closed":
            raise UsageError("quadrature pricing needs --grid")
        value = _price_closed_dispatch(spec, t, payoff, spot)
        return _fmt(value) + "\n"
    grid = _parse_grid(grid_text)
    curve = price_curve(spec, t, payoff, grid, method=params["method"])
    return _csv("x,price", zip(curve.x, curve.values))


def _run_kernel(model: Model, params: dict) -> str:
    basepoint = BasepointRule.parse(params["basepoint"])
    spec = KernelSpec(model=model, order=params["order"], basepoint=basepoint)
    t, x = params["t"], params["x"]
    grid = _parse_grid(params["grid"])
    ys = grid.nodes
    vals = kernel_eval(spec, t, x, ys)
    rows = [(x, y, t, params["order"], v) for y, v in zip(ys, vals)]
    return _csv("x,y,t,order,value", rows)


def _run_greeks(model: Model, params: dict) -> str:
    order = _check_price_order(params["order"])
    t = params["t"]
    payoff = _payoff_from_params(params)
    basepoint = BasepointRule.parse(params["basepoint"])
    spec = KernelSpec(model=model, order=order, basepoint=basepoint)
    spot, grid_text = params.get("spot"), params.get("grid")
    if (spot is None) == (grid_text is None):
        raise UsageError("greeks needs exactly one of --spot or --grid")
    if spot is not None:
        dx = params.get("dx")
        if dx is None:
            raise UsageError("greeks at a single --spot needs --dx")
        if params["method"] != "closed":
            raise UsageError("quadrature greeks need --grid")

        def price_fn(tt: float, xx):
            return _price_closed_dispatch(spec, tt, payoff, xx)

        delta, gamma = greeks(price_fn, t, spot, dx)
        return _csv("x,delta,gamma", [(spot, delta, gamma)])
    grid = _parse_grid(grid_text)
    curve = price_curve(spec, t, payoff, grid, method=params["method"])
    xs, delta, gamma = curve_greeks(curve)
    return _csv("x,delta,gamma", zip(xs, delta, gamma))


def _run_bootstrap(model: Model, params: dict) -> str:
    order = _check_price_order(params["order"])
    t = params["t"]
    payoff = _payoff_from_params(params)
    basepoint = BasepointRule.parse(params["basepoint"])
    grid = SpatialGrid.regular(params["xmax"], params["dx"])
    spec = KernelSpec(model=model, order=order, basepoint=basepoint)
    config = BootstrapConfig(spec=spec, t_total=t, n_steps=params["steps"],
                             grid=grid)
    curve = bootstrap_solve(config, payoff)
    oracle = params["compare_oracle"]
    if oracle == "bs-exact":
        from .oracles import bs_exact

        sigma, r = _bsm_params(model, "the bs-exact oracle")
        if not isinstance(payoff, CallPayoff):
            raise UsageError("the bs-exact oracle compares call payoffs only")
        ref = bs_exact(t, payoff.strike, curve.x, sigma, r)
    else:
        ref = _cn_curve(model, grid, t, payoff).values
    err = np.abs(curve.values - ref)
    return _csv("x,value,oracle,abs_error",
                zip(curve.x, curve.values, ref, err))


def _run_compare(model: Model, params: dict) -> str:
    method = params["method"]
    oracle = params["oracle"]
    strike = params["strike"]
    grid = _parse_grid(params["grid"])
    times = _parse_times(params["times"])
    basepoint = BasepointRule.parse(params["basepoint"])
    payoff = CallPayoff(strike)
    order = 1 if method == "order1" else 2
    spec = KernelSpec(model=model, order=order, basepoint=basepoint)

    rows = []
    for t in times:
        if method == "bootstrap":
            config = BootstrapConfig(spec=spec, t_total=t,
                                     n_steps=params["steps"], grid=grid)
            approx = bootstrap_solve(config, payoff).values
        else:
            approx = _price_closed_dispatch(spec, t, payoff, grid.nodes)
        if oracle == "bs-exact":
            from .oracles import bs_exact

            sigma, r = _bsm_params(model, "the bs-exact oracle")
            ref = bs_exact(t, strike, grid.nodes, sigma, r)
        elif oracle == "hagan-woodward":
            from .oracles import hagan_woodward_price

            if not isinstance(model, CEVModel):
                raise UsageError("the hagan-woodward oracle needs a 'cev' model")
            ref = hagan_woodward_price(t, strike, grid.nodes, model.sigma,
                                       model.alpha, model.r)
        else:
            ref = _cn_curve(model, grid, t, payoff).values
        approx = np.broadcast_to(np.asarray(approx, dtype=float), grid.nodes.shape)
        for x, a, o in zip(grid.nodes, approx, np.asarray(ref, dtype=float)):
            rows.append((t, x, a, o, abs(a - o)))
    return _csv("t,x,approx,oracle,abs_error", rows)


_RUNNERS = {
    "price": _run_price,
    "kernel": _run_kernel,
    "greeks": _run_greeks,
    "bootstrap": _run_bootstrap,
    "compare": _run_compare,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(config: RunConfig) -> int:
    """Execute a parsed configuration. Returns the process exit code."""
    if config.command not in _RUNNERS:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        model = model_from_dict(config.model)
    except (DomainError, DegenerateCoefficient) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        artifact = _RUNNERS[config.command](model, config.params)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (DomainError, DegenerateCoefficient) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _write_artifact(artifact, config.out)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        config = _config_from_namespace(ns)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
