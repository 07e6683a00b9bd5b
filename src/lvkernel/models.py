"""Local-volatility model definitions and their coefficient jets.

A model is a provider of the jet of the operator coefficients

    L = 1/2 a(t,x)^2 d^2/dx^2 + b(t,x) d/dx + c(t,x)

evaluated at (t=0, z).  The jet is the only thing the kernel formulas ever
see; the full coefficient functions are additionally exposed for the PDE
reference solver.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import DegenerateCoefficient, DomainError

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

_JET_FIELDS = ("a", "da_dx", "d2a_dx2", "da_dt", "b", "db_dx", "c")


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
        for name in _JET_FIELDS:
            v = getattr(self, name)
            if not (math.isfinite(v) if isinstance(v, (float, int)) else np.isfinite(v).all()):
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
    """Basepoint z(x, y) for the given rule.  Every rule satisfies z(x,x)=x."""
    # x and y apart: testing them broadcast together would build the block
    for v in (np.asarray(x), np.asarray(y)):
        if not ((v > 0.0) & (v < np.inf)).all():
            raise DomainError("basepoint requires finite x > 0 and y > 0")
    if rule is BasepointRule.AT_X:
        return x
    if rule is BasepointRule.AT_Y:
        return y
    if rule is BasepointRule.MIDPOINT:
        return (np.asarray(x) + np.asarray(y)) / 2.0
    raise DomainError(f"unknown basepoint rule {rule!r}")


def _check_z(z: ArrayLike) -> ArrayLike:
    if isinstance(z, (float, int)):
        z = float(z)
        if 0.0 < z < math.inf:
            return z
    else:
        z = np.asarray(z, dtype=float)
        if ((z > 0.0) & (z < np.inf)).all():
            return z if z.ndim else float(z)
    raise DomainError("basepoint z must be positive and finite")


class Model(ABC):
    """A local-volatility model: immutable, pure, safe to share across threads."""

    kind: str = "abstract"

    @abstractmethod
    def jet(self, z: ArrayLike) -> CoefficientJet:
        """Exact analytic coefficient jet at (t=0, z).  z may be an array."""

    @abstractmethod
    def coefficients(self, t: float, x: ArrayLike) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
        """Raw coefficient functions (a, b, c) at (t, x), for PDE reference solves."""

    @property
    def is_time_dependent(self) -> bool:
        return False


def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    return sigma


def _check_rate(r: float) -> float:
    r = float(r)
    if not np.isfinite(r):
        raise DomainError("interest rate must be finite")
    return r


@dataclass(frozen=True)
class BSMModel(Model):
    """Lognormal model: a = sigma*x, risk-neutral drift b = r*x, c = -r."""

    sigma: float
    r: float = 0.0
    kind = "bsm"

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)
        _check_rate(self.r)

    def jet(self, z: ArrayLike) -> CoefficientJet:
        z = _check_z(z)
        zero = np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0
        return CoefficientJet(
            a=self.sigma * z,
            da_dx=self.sigma + zero,
            d2a_dx2=zero,
            da_dt=zero,
            b=self.r * z,
            db_dx=self.r + zero,
            c=-self.r + zero,
        ).validate()

    def coefficients(self, t: float, x: ArrayLike):
        return self.sigma * np.asarray(x, dtype=float), self.r * np.asarray(x, dtype=float), -self.r


@dataclass(frozen=True)
class TimeDependentBSMModel(Model):
    """Lognormal model with sigma(t); only sigma(0) and sigma'(0) enter the jet."""

    sigma: float
    sigma_dot0: float
    r: float = 0.0
    kind = "tdbsm"

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)
        _check_rate(self.r)
        if not np.isfinite(self.sigma_dot0):
            raise DomainError("sigma_dot0 must be finite")

    def jet(self, z: ArrayLike) -> CoefficientJet:
        z = _check_z(z)
        zero = np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0
        return CoefficientJet(
            a=self.sigma * z,
            da_dx=self.sigma + zero,
            d2a_dx2=zero,
            da_dt=self.sigma_dot0 * z,
            b=self.r * z,
            db_dx=self.r + zero,
            c=-self.r + zero,
        ).validate()

    def coefficients(self, t: float, x: ArrayLike):
        x = np.asarray(x, dtype=float)
        # linear-in-t volatility: all the model knows is sigma(0) and sigma'(0)
        return (self.sigma + self.sigma_dot0 * t) * x, self.r * x, -self.r

    @property
    def is_time_dependent(self) -> bool:
        return self.sigma_dot0 != 0.0


@dataclass(frozen=True)
class CEVModel(Model):
    """Constant-elasticity-of-variance model: a = sigma*x**alpha, 0 < alpha <= 1."""

    sigma: float
    alpha: float
    r: float = 0.0
    kind = "cev"

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)
        _check_rate(self.r)
        if not np.isfinite(self.alpha) or not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")

    def jet(self, z: ArrayLike) -> CoefficientJet:
        z = _check_z(z)
        s, al = self.sigma, self.alpha
        zero = np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0
        return CoefficientJet(
            a=s * z**al,
            da_dx=al * s * z ** (al - 1.0),
            d2a_dx2=al * (al - 1.0) * s * z ** (al - 2.0),
            da_dt=zero,
            b=self.r * z,
            db_dx=self.r + zero,
            c=-self.r + zero,
        ).validate()

    def coefficients(self, t: float, x: ArrayLike):
        x = np.asarray(x, dtype=float)
        return self.sigma * x**self.alpha, self.r * x, -self.r


@dataclass(frozen=True)
class CustomModel(Model):
    """Model defined by a user-supplied analytic jet function z -> CoefficientJet."""

    jet_fn: Callable[[ArrayLike], CoefficientJet]
    kind = "custom"

    def jet(self, z: ArrayLike) -> CoefficientJet:
        z = _check_z(z)
        jet = self.jet_fn(z)
        if not isinstance(jet, CoefficientJet):
            raise DomainError("custom jet function must return a CoefficientJet")
        return jet.validate()

    def coefficients(self, t: float, x: ArrayLike):
        jet = self.jet(x)
        return jet.a + t * jet.da_dt, jet.b, jet.c

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
    for k in sorted(keys):
        if isinstance(obj[k], bool) or not isinstance(obj[k], (int, float)):
            raise DomainError(f"model key {k!r} must be a number, got {json.dumps(obj[k])}")
    return classes[kind](**{k: float(obj[k]) for k in keys})


def model_from_json(text: str) -> Model:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"model JSON is not valid JSON: {exc}") from None
    return model_from_dict(obj)


def model_from_file(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"model file {path} is not UTF-8 text: {exc}") from None
    return model_from_json(text)
