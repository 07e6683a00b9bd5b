"""Local-volatility model definitions and their coefficient jets.

A model is its jet: the values and derivatives of the operator coefficients

    L = 1/2 a(t,x)^2 d^2/dx^2 + b(x) d/dx + c(x)

at (t=0, z).  The jet is all that anything reads, the kernel formulas and
the Crank-Nicolson reference solver alike, and time enters only as
a(t, z) = a + t da_dt.  The built-in models are one power-law family,
a(t,x) = (sigma + sigma_dot0 t) x^alpha, b = r x, c = -r, 0 < alpha <= 1, of
which BSMModel fixes alpha = 1 and sigma_dot0 = 0, TimeDependentBSMModel
alpha = 1 and CEVModel sigma_dot0 = 0; CustomModel takes any jet.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DegenerateCoefficient, DomainError, _finite, _float, _positive, _result, _spots

__all__ = [
    "CoefficientJet",
    "BasepointRule",
    "basepoint",
    "Model",
    "BSMModel",
    "TimeDependentBSMModel",
    "CEVModel",
    "CustomModel",
    "model_from_dict",
    "model_from_json",
    "model_from_file",
]

ArrayLike = Union[float, np.ndarray]

@dataclass(frozen=True)
class CoefficientJet:
    """Values of a, a', a'', da/dt, b, b', c at (t=0, z).

    Fields may be scalars or arrays (for a vector of basepoints); they must
    broadcast against each other.
    """

    a: ArrayLike
    da_dx: ArrayLike
    d2a_dx2: ArrayLike
    da_dt: ArrayLike
    b: ArrayLike
    db_dx: ArrayLike
    c: ArrayLike

    def validate(self) -> "CoefficientJet":
        arr = [v for v in vars(self).values() if not isinstance(v, (float, int))]
        # one pass over all fields while short; a long array is cheaper a field at a time
        ok = not arr or np.size(arr[0]) <= 1024 and np.isfinite(np.concatenate(arr, None)).all()
        for name, v in vars(self).items():
            if not (math.isfinite(v) if isinstance(v, (float, int)) else ok or np.isfinite(v).all()):
                raise DegenerateCoefficient(f"jet field {name} is not finite")
        a = self.a
        if not (a > 0.0 if isinstance(a, (float, int)) else (np.asarray(a) > 0.0).all()):
            raise DegenerateCoefficient("diffusion coefficient a must be positive")
        return self


class BasepointRule(Enum):
    """Where the coefficients are frozen when evaluating the kernel at (x, y)."""

    AT_X = "atx"
    AT_Y = "aty"
    MIDPOINT = "mid"

    @classmethod
    def parse(cls, text: str) -> "BasepointRule":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(r.value for r in cls)
            raise DomainError(f"unknown basepoint rule {text!r} (valid: {valid})") from None


def basepoint(rule: BasepointRule, x: ArrayLike, y: ArrayLike) -> ArrayLike:
    """Basepoint z(x, y) for the given rule.  Every rule satisfies z(x,x)=x.

    x and y are spots (errors._spots): each a positive, finite real number or
    a real ndarray of them, tested apart so that no block is built for it."""
    _spots("x", x)
    _spots("y", y)
    if rule is BasepointRule.AT_X:
        return _result(x, x, y)
    if rule is BasepointRule.AT_Y:
        return _result(y, x, y)
    if rule is BasepointRule.MIDPOINT:
        return _result((np.asarray(x) + np.asarray(y)) / 2.0, x, y)
    raise DomainError(f"unknown basepoint rule {rule!r}")


class Model(ABC):
    """A local-volatility model: immutable, pure, safe to share across threads."""

    kind: str = "abstract"

    @abstractmethod
    def jet(self, z: ArrayLike) -> CoefficientJet:
        """Exact analytic coefficient jet at (t=0, z).  z is a spot
        (errors._spots): a positive, finite real number, or a real ndarray of
        them, which gives array fields (a 0-d array reads as a float)."""

    @property
    def is_time_dependent(self) -> bool:
        """Whether the model declares da_dt nonzero somewhere.  No package code
        reads it: cn_solve reads da_dt from the jet.  CustomModel always
        answers True, whatever its jet's da_dt."""
        return False


def _pow(z: ArrayLike, e: float) -> ArrayLike:
    """z**e, inf where that overflows: a float raises there, an array gives inf."""
    try:
        return z**e
    except OverflowError:
        return math.inf


class _PowerLaw(Model):
    """The power-law family.  A subclass declares its parameters as dataclass
    fields; one it lacks keeps its lognormal value, alpha = 1 or sigma_dot0 = 0."""

    @cached_property
    def _params(self) -> tuple[float, float, float, float]:  # sigma, sigma_dot0, alpha, r
        p = vars(self)
        return p["sigma"], p.get("sigma_dot0", 0.0), p.get("alpha", 1.0), p["r"]

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self)):
            (_positive if name == "sigma" else _finite)(name, getattr(self, name))
        if not 0.0 < (alpha := self._params[2]) <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {alpha}")

    def jet(self, z: ArrayLike) -> CoefficientJet:
        z = _spots("z", z)
        sigma, sigma_dot0, alpha, r = self._params
        zero = np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0
        if alpha == 1.0:  # no z**(alpha - 2) = 1/z here: it overflows for tiny z
            z_alpha, da_dx, d2a_dx2 = z, sigma + zero, zero
        else:
            z_alpha = z**alpha
            da_dx = alpha * sigma * _pow(z, alpha - 1.0)
            d2a_dx2 = alpha * (alpha - 1.0) * sigma * _pow(z, alpha - 2.0)
        # da_dt = 0 shares zero: one more block-sized array re-faults the heap
        return CoefficientJet(a=sigma * z_alpha, da_dx=da_dx, d2a_dx2=d2a_dx2,
                              da_dt=sigma_dot0 * z_alpha if sigma_dot0 else zero,
                              b=r * z, db_dx=r + zero, c=-r + zero).validate()

    @property
    def is_time_dependent(self) -> bool:
        return self._params[1] != 0.0


@dataclass(frozen=True)
class BSMModel(_PowerLaw):
    """Lognormal model: a = sigma*x, risk-neutral drift b = r*x, c = -r."""

    sigma: float
    r: float = 0.0
    kind = "bsm"


@dataclass(frozen=True)
class TimeDependentBSMModel(_PowerLaw):
    """Lognormal model with sigma(t); only sigma(0) and sigma'(0) enter the jet."""

    sigma: float
    sigma_dot0: float
    r: float = 0.0
    kind = "tdbsm"


@dataclass(frozen=True)
class CEVModel(_PowerLaw):
    """Constant-elasticity-of-variance model: a = sigma*x**alpha, 0 < alpha <= 1."""

    sigma: float
    alpha: float
    r: float = 0.0
    kind = "cev"


@dataclass(frozen=True)
class CustomModel(Model):
    """Model defined by a user-supplied analytic jet function z -> CoefficientJet."""

    jet_fn: Callable[[ArrayLike], CoefficientJet]
    kind = "custom"

    def jet(self, z: ArrayLike) -> CoefficientJet:
        z = _spots("z", z)
        jet = self.jet_fn(z)
        if not isinstance(jet, CoefficientJet):
            raise DomainError("custom jet function must return a CoefficientJet")
        return jet.validate()

    @property
    def is_time_dependent(self) -> bool:
        return True  # da_dt is data; assume it matters


def model_from_dict(obj: dict) -> Model:
    """Build a model from a plain dict such as parsed JSON.

    Expected shape: {"kind": "cev", "sigma": 0.3, "alpha": 0.6667, "r": 0.1}.
    Keys are lowercase: a model's dataclass fields, required unless they
    have a default, and their values JSON numbers.  Unknown keys are rejected.
    """
    if not isinstance(obj, dict):
        raise DomainError("model definition must be a JSON object")
    kind = obj.get("kind")
    if kind == "custom":
        raise DomainError("custom models cannot be loaded from JSON; construct CustomModel in code")
    classes = {cls.kind: cls for cls in (BSMModel, TimeDependentBSMModel, CEVModel)}
    if kind not in classes:
        raise DomainError(
            f"unknown model kind {kind!r} (valid: {', '.join(sorted(classes))})"
        )
    declared = fields(classes[kind])
    required = {f.name for f in declared if f.default is MISSING}
    keys = set(obj) - {"kind"}
    unknown = keys - {f.name for f in declared}
    if unknown:
        raise DomainError(f"unknown model keys for {kind!r}: {', '.join(sorted(unknown))}")
    missing = required - keys
    if missing:
        raise DomainError(f"missing model keys for {kind!r}: {', '.join(sorted(missing))}")
    values = {}
    for k in sorted(keys):
        if isinstance(obj[k], bool) or not isinstance(obj[k], (int, float)):
            raise DomainError(f"model key {k!r} must be a number, got {json.dumps(obj[k])}")
        values[k] = _float(f"model key {k!r}", obj[k])
    return classes[kind](**values)


def model_from_json(text: str) -> Model:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise DomainError(f"model JSON is not valid JSON: {exc}") from None
    return model_from_dict(obj)


def model_from_file(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"model file {path} is not UTF-8 text: {exc}") from None
    return model_from_json(text)
