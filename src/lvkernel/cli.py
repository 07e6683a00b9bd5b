"""Command-line front end: prices, kernel values, Greeks, bootstrap runs,
and oracle comparison tables, written as deterministic CSV (a single-spot
price is one bare number)."""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import DegenerateCoefficient, DomainError
from .grid import SpatialGrid
from .kernel import KernelSpec, kernel_eval
from .models import BasepointRule, Model, model_from_file, model_from_json
from .oracles import _ORACLES, _reference, _scored
from .pricing import (
    ButterflyPayoff,
    CallPayoff,
    Payoff,
    PutPayoff,
    _closed,
    curve_greeks,
    greeks,
    price_curve,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flag combination or unwritable --out; maps to exit code 2."""


def _fmt(v: float) -> str:
    """17 significant digits: lossless text round-trip for doubles."""
    if not math.isfinite(v):
        raise DomainError(f"the result is not finite: {float(v)}")
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

# Every flag, declared once.  Where a subcommand declares a flag differently
# (type, choices, default, required status or help), its own entry is keyed
# "command --flag".  bootstrap's --compare-oracle is compare's --oracle.
_ORACLE = dict(choices=_ORACLES, required=True)
_FLAGS = {
    "--order": dict(type=int, required=True),
    "bootstrap --order": dict(type=int, default=2),
    "--t": dict(type=float, required=True),
    "--payoff": dict(choices=["call", "put", "butterfly"], required=True),
    "--strike": dict(type=float, required=True),
    "--k1": dict(type=float),
    "--k2": dict(type=float),
    "--spot": dict(type=float),
    "--x": dict(type=float, required=True),
    "--grid": dict(help="xmin:xmax:dx evaluation grid"),
    "greeks --grid": dict(help="xmin:xmax:dx curve grid"),
    "kernel --grid": dict(required=True, help="ymin:ymax:dy grid"),
    "compare --grid": dict(required=True, help="xmin:xmax:dx evaluation grid"),
    "--dx": dict(type=float, help="difference step with --spot (--grid uses its own dx)"),
    "bootstrap --dx": dict(type=float, required=True),
    "--xmax": dict(type=float, required=True),
    "--steps": dict(type=int, required=True),
    "compare --steps": dict(type=int, default=10, help="bootstrap sub-steps (method=bootstrap)"),
    "--times": dict(required=True, help="comma-separated maturities"),
    "--basepoint": dict(choices=[rule.value for rule in BasepointRule], default="atx"),
    "--method": dict(choices=["closed", "quadrature"], default="closed"),
    "compare --method": dict(choices=["order1", "order2", "bootstrap"], required=True),
    "--compare-oracle": _ORACLE,
    "--oracle": _ORACLE,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lvkernel",
        description="Short-time kernel option pricing: closed forms, "
                    "quadrature, bootstrap composition, and oracle tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--model-file", help="path to a model JSON file")
        g.add_argument("--model", help="inline model JSON object")
        p.add_argument("--out", help="artifact path (CSV, or one number for price --spot); default stdout")
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS.get(f"{command} {flag}", _FLAGS[flag]))
    return parser


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _usage(build: Callable, *args):
    """build(*args) on values from flags, its DomainError a usage error."""
    try:
        return build(*args)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _parse_grid(text: str) -> SpatialGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be xmin:xmax:dx, got {text!r}")
    try:
        lo, hi, dx = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"grid must be numeric xmin:xmax:dx, got {text!r}") from exc
    return _usage(SpatialGrid, lo, hi, dx)


def _parse_times(text: str) -> List[float]:
    try:
        times = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --times list {text!r}") from exc
    if not times:
        raise UsageError("--times must list at least one maturity")
    return times


def _payoff_from_params(params: dict) -> Payoff:
    kind, strike = params["payoff"], params["strike"]
    if kind == "call":
        return CallPayoff(strike)
    if kind == "put":
        return PutPayoff(strike)
    k1, k2 = params["k1"], params["k2"]
    if k1 is None or k2 is None:
        raise UsageError("--payoff butterfly needs --k1, --strike, --k2")
    return ButterflyPayoff(k1, strike, k2)


def _write_artifact(text: str, out: Optional[str]) -> None:
    """Write to stdout, or atomically to a file (write then rename, no temp file left)."""
    if out is None:
        sys.stdout.write(text)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(out)), f".{os.path.basename(out)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        if os.path.isfile(tmp):  # absent when open failed
            os.remove(tmp)
        raise UsageError(f"cannot write {out}: {exc.strerror}") from exc


def _csv(header: str, rows: Sequence[Sequence[float]]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _quote_prelude(model: Model, params: dict, command: str) -> tuple:
    """The kernel spec and payoff of price and greeks, their --spot (None
    with --grid) and their price curve on --grid (None with --spot).  A
    single spot is priced in closed form only."""
    spec = _usage(KernelSpec, model, params["order"], BasepointRule(params["basepoint"]))
    payoff = _payoff_from_params(params)
    spot, grid_text = params.get("spot"), params.get("grid")
    if (spot is None) == (grid_text is None):
        raise UsageError(f"{command} needs exactly one of --spot or --grid")
    if spot is not None:
        if params["method"] != "closed":
            raise UsageError("quadrature pricing needs --grid" if command == "price"
                             else "quadrature greeks need --grid")
        return spec, payoff, spot, None
    if params.get("dx") is not None:
        raise UsageError(f"{command} --grid differences at the grid's dx; "
                         "--dx goes with --spot only")
    grid = _parse_grid(grid_text)
    return spec, payoff, None, price_curve(spec, params["t"], payoff, grid,
                                           method=params["method"])


def _run_price(model: Model, params: dict) -> str:
    spec, payoff, spot, curve = _quote_prelude(model, params, "price")
    if curve is not None:
        return _csv("x,price", zip(curve.x, curve.values))
    return _fmt(_closed(spec.order, spec.model, params["t"], payoff, spot, spec.basepoint)) + "\n"


def _run_kernel(model: Model, params: dict) -> str:
    spec = _usage(KernelSpec, model, params["order"], BasepointRule(params["basepoint"]))
    t, x = params["t"], params["x"]
    ys = _parse_grid(params["grid"]).nodes
    vals = kernel_eval(spec, t, x, ys)
    rows = [(x, y, t, params["order"], v) for y, v in zip(ys, vals)]
    return _csv("x,y,t,order,value", rows)


def _run_greeks(model: Model, params: dict) -> str:
    spec, payoff, spot, curve = _quote_prelude(model, params, "greeks")
    if curve is not None:
        return _csv("x,delta,gamma", zip(*curve_greeks(curve)))
    dx = params.get("dx")
    if dx is None:
        raise UsageError("greeks at a single --spot needs --dx")
    delta, gamma = greeks(
        lambda tt, xx: _closed(spec.order, spec.model, tt, payoff, xx, spec.basepoint),
        params["t"], spot, dx)
    return _csv("x,delta,gamma", [(spot, delta, gamma)])


def _scored_rows(spec: KernelSpec, payoff: Payoff, grid: SpatialGrid, times: List[float],
                 n_steps: Optional[int], oracle: str) -> list:
    """(t, x, approximation, oracle, abs error) at every node and maturity;
    an oracle that does not fit is a usage error, raised before any solve."""
    oracle_at = _usage(_reference, oracle, spec.model, payoff, grid)
    return [(t, x, a, o, abs(a - o))
            for t, approx, ref in _scored(spec, payoff, grid, times, n_steps, oracle_at)
            for x, a, o in zip(grid.nodes, approx, ref)]


def _run_bootstrap(model: Model, params: dict) -> str:
    spec = _usage(KernelSpec, model, params["order"], BasepointRule(params["basepoint"]))
    payoff = _payoff_from_params(params)
    grid = _usage(SpatialGrid.regular, params["xmax"], params["dx"])
    rows = _scored_rows(spec, payoff, grid, [params["t"]], params["steps"],
                        params["compare_oracle"])
    return _csv("x,value,oracle,abs_error", [row[1:] for row in rows])


def _run_compare(model: Model, params: dict) -> str:
    method = params["method"]
    grid = _parse_grid(params["grid"])
    times = _parse_times(params["times"])
    spec = _usage(KernelSpec, model, 1 if method == "order1" else 2,
                  BasepointRule(params["basepoint"]))
    rows = _scored_rows(spec, CallPayoff(params["strike"]), grid, times,
                        params["steps"] if method == "bootstrap" else None, params["oracle"])
    return _csv("t,x,approx,oracle,abs_error", rows)


_PAYOFF_FLAGS = "--payoff --strike --k1 --k2"
# subcommand: (runner of the model and the parsed flags, help, its flags in
# the order --help lists them)
_COMMANDS = {
    "price": (_run_price, "option prices, single spot or curve",
              f"--order --t {_PAYOFF_FLAGS} --spot --grid --basepoint --method"),
    "kernel": (_run_kernel, "kernel values over a y grid at fixed x, t",
               "--order --t --x --grid --basepoint"),
    "greeks": (_run_greeks, "delta and gamma by central differences",
               f"--order --t {_PAYOFF_FLAGS} --spot --grid --dx --basepoint --method"),
    "bootstrap": (_run_bootstrap, "compose the kernel over sub-steps",
                  f"--order --t --steps --xmax --dx {_PAYOFF_FLAGS} --basepoint --compare-oracle"),
    "compare": (_run_compare, "approximation-vs-oracle error table",
                "--oracle --method --grid --times --strike --steps --basepoint"),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv, load the model, run the subcommand and write its artifact.
    Returns 2 on a usage, --out or model-loading error, 1 on a domain error
    or a result that does not fit in memory, each one line on stderr."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        model = (model_from_file(ns.model_file) if ns.model_file is not None
                 else model_from_json(ns.model))
    except (OSError, DomainError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        # _fmt rejects a non-finite result, which NumPy's warnings would only repeat
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            artifact = _COMMANDS[ns.command][0](model, vars(ns))
        _write_artifact(artifact, ns.out)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (DomainError, DegenerateCoefficient, MemoryError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
