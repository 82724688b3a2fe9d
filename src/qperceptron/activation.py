"""Activation families of the perceptron and their derived gate quantities.

Every response this package produces flows through one of four scalar maps
f: R -> [0, 1].  The gate itself is parametrized by the rotation angle
chi(x) = arcsin(sqrt(f(x))), and measurement statistics by the observable
coefficients C(x) = 1 - 2 f(x) and S(x) = 2 sqrt(f (1 - f)), which satisfy
C^2 + S^2 = 1.

Variants:

* ``algebraic``: f(x) = (1 + x / sqrt(1 + x^2)) / 2, the excitation
  probability of the Ising ground state.  This is the response the
  adiabatic hardware protocol realizes.
* ``logistic``:  f(x) = 1 / (1 + exp(-x)), the conventional neural-network
  sigmoid, kept for side-by-side comparisons.
* ``step``:      McCulloch-Pitts threshold, f = 0/1 with f(0) = 1/2.
* ``cao_arctan(k)``: f(x) = sin^2(arctan(tan^(2^k) x)), the repeat-until-
  success response, defined only on [-pi/4, pi/4]; outside that interval
  the underlying construction phase-wraps, which we surface as an error.

All functions are pure and take a scalar (giving a float) or a numpy array;
a scalar gets the bits it gets in an array, as powers use ``np.power``, not ``**``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import as_index, float_if_scalar, require_finite

__all__ = [
    "ActivationKind",
    "ALGEBRAIC",
    "LOGISTIC",
    "STEP",
    "cao_arctan",
    "eval_f",
    "df_dx",
    "eval_CS",
    "chi",
    "dchi_dx",
]

_CAO_BOUND = math.pi / 4


@dataclass(frozen=True)
class ActivationKind:
    """One member of the response family.

    ``variant`` is one of ``algebraic``, ``logistic``, ``step``, ``cao``;
    ``k`` is the iteration count of the ``cao`` construction, and 0 for
    every other variant.
    """

    variant: str
    k: int = 0

    def __post_init__(self):
        if self.variant not in ("algebraic", "logistic", "step", "cao"):
            raise ValueError(f"unknown activation variant {self.variant!r}")
        if self.variant == "cao":  # a plain int k: 2**np.int64(64) wraps to 0
            object.__setattr__(self, "k", as_index(self.k, "cao iteration count k"))
            if not 1 <= self.k <= 1023:  # 2**k must be a finite float
                raise ValueError(f"cao activation needs k in [1, 1023], got {self.k}")
        elif self.k != 0:  # else equal kinds would compare unequal
            raise ValueError(f"k must be 0 for the {self.variant} activation, got {self.k!r}")


ALGEBRAIC = ActivationKind("algebraic")
LOGISTIC = ActivationKind("logistic")
STEP = ActivationKind("step")


def cao_arctan(k: int) -> ActivationKind:
    """Repeat-until-success response with 2^k tangent squarings."""
    return ActivationKind("cao", k)


def _check_kind(kind, name: str) -> None:
    """A ValueError naming the argument unless ``kind`` is an ActivationKind."""
    if not isinstance(kind, ActivationKind):
        raise ValueError(f"{name} must be an ActivationKind, got {kind!r}")


def _checked(kind: ActivationKind, x):
    _check_kind(kind, "kind")
    x = require_finite(**{"activation input": x})
    if kind.variant == "cao":
        # allow the closed endpoints; beyond them the tangent wraps
        if np.any(np.abs(x) > _CAO_BOUND * (1 + 1e-12)):
            raise ValueError(
                "cao activation is only defined on [-pi/4, pi/4]; "
                f"got |x| up to {np.max(np.abs(x)):g}"
            )
    return x


def _expit(x):
    """1 / (1 + e^-x), within 3 ulp of scipy.special.expit; e^-x overflows to inf below -709.78,
    where the result is the 0.0 expit gives."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def eval_f(kind: ActivationKind, x):
    """Activation probability f(x) in [0, 1]."""
    xa = _checked(kind, x)
    if kind.variant == "algebraic":
        f = 0.5 + 0.5 * (xa / np.hypot(1.0, xa))
    elif kind.variant == "logistic":
        f = _expit(xa)
    elif kind.variant == "step":
        f = np.where(xa < 0, 0.0, np.where(xa > 0, 1.0, 0.5))
    else:
        t = np.power(np.tan(xa), 2**kind.k)  # even exponent, t >= 0
        f = (t * t) / (1.0 + t * t)
    return float_if_scalar(f)


def df_dx(kind: ActivationKind, x):
    """Analytic derivative f'(x).

    Equal to S(x) * chi'(x); the step variant rejects x = 0 where the
    derivative does not exist.
    """
    xa = _checked(kind, x)
    if kind.variant == "algebraic":
        h = np.hypot(1.0, xa)
        d = 0.5 / (h * h * h)
    elif kind.variant == "logistic":
        f = _expit(xa)
        d = f * (1.0 - f)
    elif kind.variant == "step":
        if np.any(xa == 0):
            raise ValueError("step activation is not differentiable at x = 0")
        d = np.zeros_like(xa)
    else:
        m = 2**kind.k
        u = np.tan(xa)
        t = np.power(u, m)
        d = 2.0 * t * m * np.power(u, m - 1) * (1.0 + u * u) / np.square(1.0 + t * t)
    return float_if_scalar(d)


def eval_CS(kind: ActivationKind, x):
    """Observable coefficients (C, S) = (1 - 2f, 2 sqrt(f(1-f))).

    Computed from closed forms per variant so that C^2 + S^2 = 1 holds to
    machine precision even where f(1-f) would cancel.
    """
    xa = _checked(kind, x)
    if kind.variant == "algebraic":
        h = np.hypot(1.0, xa)
        C, S = -xa / h, 1.0 / h
    elif kind.variant == "logistic":
        C = -np.tanh(xa / 2.0)
        # sech(x/2) without overflow
        e = np.exp(-np.abs(xa / 2.0))
        S = 2.0 * e / (1.0 + e * e)
    elif kind.variant == "step":
        C = np.where(xa < 0, 1.0, np.where(xa > 0, -1.0, 0.0))
        S = np.where(xa == 0, 1.0, 0.0)
    else:
        t = np.power(np.tan(xa), 2**kind.k)
        C = (1.0 - t * t) / (1.0 + t * t)
        S = 2.0 * t / (1.0 + t * t)
    return float_if_scalar(C), float_if_scalar(S)


def chi(kind: ActivationKind, x):
    """Rotation angle chi(x) = arcsin(sqrt(f(x))) in [0, pi/2]."""
    xa = _checked(kind, x)
    if kind.variant == "algebraic":
        # arcsin(sqrt(g)) simplifies to pi/4 + arctan(x)/2
        c = np.pi / 4 + 0.5 * np.arctan(xa)
    elif kind.variant == "logistic":
        c = np.arcsin(np.sqrt(_expit(xa)))
    elif kind.variant == "step":
        c = np.where(xa < 0, 0.0, np.where(xa > 0, np.pi / 2, np.pi / 4))
    else:
        c = np.arctan(np.power(np.tan(xa), 2**kind.k))
    return float_if_scalar(c)


def dchi_dx(kind: ActivationKind, x):
    """Analytic derivative of the rotation angle.

    Finite everywhere in each variant's domain; the removable singularity
    of f'/(2 sqrt(f(1-f))) at f in {0, 1} is absorbed by the closed forms.
    The step variant rejects x = 0.
    """
    xa = _checked(kind, x)
    if kind.variant == "algebraic":
        d = 0.5 / (1.0 + xa * xa)
    elif kind.variant == "logistic":
        # 1 / (4 cosh(x/2)), written to avoid overflow at large |x|
        e = np.exp(-np.abs(xa / 2.0))
        d = 0.5 * e / (1.0 + e * e)
    elif kind.variant == "step":
        if np.any(xa == 0):
            raise ValueError("step activation is not differentiable at x = 0")
        d = np.zeros_like(xa)
    else:
        m = 2**kind.k
        u = np.tan(xa)
        t = np.power(u, m)
        d = m * np.power(u, m - 1) * (1.0 + u * u) / (1.0 + t * t)
    return float_if_scalar(d)
