"""Conditional multiqubit gates from stacked perceptron rotations.

Several perceptron cycles on one target rotate it about the same axis, so
their angles add: angle(x) = sum_n orientation_n * chi(w_n x - theta_n).
An orientation of -1 stands for a passage run with reversed drive fields,
which undoes rather than adds rotation.  Fitting the summed angle to a
target profile (rectangle, peak, or sampled curve) turns the stack into a
range-conditioned bit flip.

Fits run on angles, not excitation probabilities: sin^2 plateaus at 0 and
pi/2 would otherwise flatten the gradient exactly where rectangles need it.

When a composition is applied to a register, the conditioning variable is
the weighted count of excited sources, x = sum_k w_k s_k with s_k in {0, 1}.
A flip window (M1, M2) therefore reads directly as "flip when the excited
count lies between M1 and M2"; per-cycle thresholds absorb any offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple, Union

import numpy as np

from ._io import as_index, float_if_scalar, require_finite, require_type, write_rows
from .activation import ActivationKind, ALGEBRAIC, _check_kind, chi, dchi_dx
from .register import QuantumRegister, _check_qubit, _in_place, _rotation, _sector_field

__all__ = [
    "Rectangle",
    "Peak",
    "Sampled",
    "TargetResponse",
    "target_angle",
    "CompositionSpec",
    "composition_angle",
    "analytic_rectangle",
    "SynthesisResult",
    "synthesize",
    "apply_composition",
    "composition_to_csv",
]

_HALF_PI = math.pi / 2.0
_CONVERGED_RMS = 0.15
_RESTARTS = 6  # random starts per orientation pattern
_MAX_CYCLES = 6  # 63 patterns of 6 fits each, about a minute


@dataclass(frozen=True)
class Rectangle:
    """Flip window: angle pi/2 strictly inside (m1, m2), zero elsewhere."""

    m1: float
    m2: float

    def __post_init__(self):
        require_finite(**{"rectangle m1": self.m1, "rectangle m2": self.m2})
        if not (self.m1 < self.m2):
            raise ValueError("rectangle needs m1 < m2")


@dataclass(frozen=True)
class Peak:
    """Gaussian bump of height pi/2 centered at `center`."""

    center: float
    width: float

    def __post_init__(self):
        _, width = require_finite(**{"peak center": self.center, "peak width": self.width})
        if not (width > 0):
            raise ValueError("peak width must be positive")
        spread = 2 * (width * width)  # target_angle's denominator; a float product never raises
        if not (0 < spread < math.inf):  # 0/0 or inf/inf there
            raise ValueError(f"peak width {self.width!r} leaves 2 width^2 = {spread!r}, "
                             "not positive and finite")


@dataclass(frozen=True)
class Sampled:
    """Explicit (x, angle) samples, linearly interpolated between points."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if not all(hasattr(p, "__len__") and len(p) == 2 for p in pts):
            raise ValueError(f"points must be (x, angle) pairs, got {pts!r}")
        xs, angles = require_finite(**{"sampled point x": [x for x, _ in pts],
                                       "sampled angles": [a for _, a in pts]})
        if not pts:
            raise ValueError("sampled target needs at least one point")
        if not np.all((0.0 <= angles) & (angles <= _HALF_PI + 1e-12)):
            raise ValueError("sampled angles must lie in [0, pi/2]")
        object.__setattr__(self, "points", tuple(sorted(zip(xs.tolist(), angles.tolist()))))


TargetResponse = Union[Rectangle, Peak, Sampled]


def target_angle(target: TargetResponse, x):
    """Target rotation angle profile evaluated on x (scalar or array)."""
    x = require_finite(x=x)
    if isinstance(target, Rectangle):
        return float_if_scalar(np.where((x > target.m1) & (x < target.m2), _HALF_PI, 0.0))
    if isinstance(target, Peak):
        return float_if_scalar(_HALF_PI * np.exp(-((x - target.center) ** 2) / (2 * target.width**2)))
    if isinstance(target, Sampled):
        xs = np.array([p[0] for p in target.points])
        ys = np.array([p[1] for p in target.points])
        return float_if_scalar(np.interp(x, xs, ys))
    raise TypeError(f"unknown target response {target!r}")


@dataclass(frozen=True)
class CompositionSpec:
    """Stack of perceptron cycles: (weight, threshold, orientation) each."""

    cycles: Tuple[Tuple[float, float, int], ...]
    activation: ActivationKind = ALGEBRAIC

    def __post_init__(self):
        rows = tuple(self.cycles)
        if not all(hasattr(r, "__len__") and len(r) == 3 for r in rows):
            raise ValueError(f"cycles must be (weight, threshold, orientation) rows, got {rows!r}")
        orients = [as_index(o, "orientation") for _, _, o in rows]
        if not rows:
            raise ValueError("composition needs at least one cycle")
        if any(o not in (-1, 1) for o in orients):
            raise ValueError("orientation must be +1 or -1")
        w_th = require_finite(cycles=[(w, th) for w, th, _ in rows]).tolist()
        cycles = tuple((w, th, o) for (w, th), o in zip(w_th, orients))
        _check_kind(self.activation, "activation")
        object.__setattr__(self, "cycles", cycles)


def composition_angle(spec: CompositionSpec, x):
    """Total y-rotation angle at conditioning value x (scalar or array)."""
    x = require_finite(x=x)
    return float_if_scalar(_angle(spec.activation, spec.cycles, x))


def _cycle_terms(f, kind, cycles, x):
    """o_n f(kind, w_n x - th_n) per (w, th, o) row of ``cycles``: shape (cycles, *x.shape)."""
    w, th, o = np.moveaxis(np.reshape(cycles, (-1, 3) + (1,) * np.ndim(x)), 1, 0)
    return o * f(kind, w * x - th)


def _angle(kind, cycles, x):
    """sum_n o_n chi(w_n x - th_n) over (w, th, o) cycles, added in order from 0.0."""
    # cumsum adds in cycle order; + 0.0 makes an all -0.0 sum 0.0, as a sum from 0.0 is
    return np.cumsum(_cycle_terms(chi, kind, cycles, x), axis=0)[-1] + 0.0


def analytic_rectangle(rect: Rectangle, steepness: float) -> CompositionSpec:
    """Closed-form two-cycle window: raise at m1, undo past m2.

    The forward cycle saturates to pi/2 once x clears m1; the reversed
    cycle cancels it again past m2.  Larger steepness sharpens both walls.
    """
    # nan is not read but refused below, as not positive
    w = require_finite(steepness=steepness) if steepness == steepness else steepness
    if not (w > 0):
        raise ValueError("steepness must be positive")
    return CompositionSpec(((w, w * rect.m1, 1), (w, w * rect.m2, -1)))


@dataclass(frozen=True)
class SynthesisResult:
    spec: CompositionSpec
    residual: float  # RMS angle error over the fit grid
    converged: bool


def _fit_once(tgt, x, orients, w0, th0):
    from scipy.optimize import least_squares

    def resid(p):
        return _angle(ALGEBRAIC, np.column_stack([*p.reshape(2, -1), orients]), x) - tgt

    def jac(p):  # columns d/dw_n, then d/dth_n
        d = _cycle_terms(dchi_dx, ALGEBRAIC, np.column_stack([*p.reshape(2, -1), orients]), x)
        return np.hstack([(d * x).T, -d.T])

    sol = least_squares(resid, np.concatenate([w0, th0]), jac=jac, max_nfev=400)
    rms = float(np.sqrt(np.mean(sol.fun**2)))
    return rms, tuple(zip(*sol.x.reshape(2, -1), orients))


def _orientation_patterns(n):
    # pattern j reverses cycle i at bit i of j; the last, all reversed, cannot reach angle > 0
    return [tuple(1 - 2 * (j >> i & 1) for i in range(n)) for j in range(2**n - 1)]


def synthesize(target: TargetResponse, cycles: int, x_grid) -> SynthesisResult:
    """Least-squares fit of a stack of algebraic cycles to the target angle profile.

    Fits 1 to 6 cycles: every orientation pattern from 6 seeded random starts,
    plus closed-form starts for window targets, keeping the lowest RMS angle
    error.  A result with converged=False reports that the residual stayed
    above the acceptance threshold; it never raises for a poor fit.
    """
    if as_index(cycles, "cycles") < 1:
        raise ValueError("need at least one cycle")
    if cycles > _MAX_CYCLES:
        raise ValueError(f"cycles={cycles} needs {_RESTARTS} x (2^{cycles} - 1) fits; "
                         f"at most {_MAX_CYCLES} cycles are allowed")
    x = np.ravel(require_finite(x_grid=x_grid))
    if x.size == 0:
        raise ValueError("x_grid must be nonempty")
    tgt = target_angle(target, x)
    span = max(float(x.max() - x.min()), 1e-6)
    rng = np.random.default_rng(0)
    windows = []  # closed-form starts: (rectangle, steepness)
    if cycles == 2 and isinstance(target, Rectangle):
        windows = [(target, s / (target.m2 - target.m1)) for s in (4.0, 12.0, 40.0)]
    if cycles == 2 and isinstance(target, Peak):
        c, h = target.center, target.width  # c - h == c + h when h is below c's resolution
        windows = [(Rectangle(c - h, c + h), 1.5 / h)] if c - h < c + h else []
    starts = []
    for rect, steepness in windows:
        w0, th0, pat = zip(*analytic_rectangle(rect, steepness).cycles)
        starts.append((pat, np.array(w0), np.array(th0)))
    for pat in _orientation_patterns(cycles):
        for _ in range(_RESTARTS):
            w0 = rng.uniform(0.3, 8.0 / span * 4.0, cycles)
            th0 = w0 * rng.uniform(x.min(), x.max(), cycles)
            starts.append((pat, w0, th0))
    # the first of equal residuals wins
    rms, cyc = min((_fit_once(tgt, x, *start) for start in starts), key=lambda r: r[0])
    spec = CompositionSpec(cyc)
    return SynthesisResult(spec, rms, rms <= _CONVERGED_RMS)


def apply_composition(
    reg: QuantumRegister,
    spec: CompositionSpec,
    target_qubit: int,
    source_weights: Mapping[int, float],
) -> QuantumRegister:
    """Rotate the target by the composed angle, conditioned per sector.

    The conditioning value in each computational sector is the weighted
    count of excited sources, x = sum_k w_k s_k with s_k in {0, 1}.
    """
    n = require_type(reg, QuantumRegister, "reg").n_qubits
    require_type(spec, CompositionSpec, "spec")
    target_qubit = _check_qubit(n, target_qubit, "target qubit")
    if not isinstance(source_weights, Mapping):
        raise ValueError(f"source weights must map source qubits to weights, got {source_weights!r}")
    weights = require_finite(**{"source weights": list(source_weights.values())})
    if weights.ndim != 1:
        raise ValueError("source weights must be numbers, one per source")
    srcs = {_check_qubit(n, k, "source qubit"): v for k, v in zip(source_weights, weights.tolist())}
    if target_qubit in srcs:
        raise ValueError("target cannot be its own source")
    # no name holds the field or the angle: each is freed once used, before the copy is made
    step = target_qubit, _rotation(composition_angle(spec, _sector_field(n, srcs, 0.0, (0.0, 1.0))))
    return _in_place(n, reg.amplitudes.copy(), [step])


def composition_to_csv(
    result: SynthesisResult, target: TargetResponse, x_grid, path_or_buf
) -> None:
    """CSV columns: x, target_angle, fitted_angle, fitted_excitation.

    Write-only: the package has no public reader for it.
    """
    x = np.ravel(require_finite(x_grid=x_grid))
    tgt = target_angle(target, x)
    ang = composition_angle(result.spec, x)
    exc = np.sin(ang) ** 2
    rows = zip(x, tgt, ang, exc)
    write_rows(path_or_buf, "x,target_angle,fitted_angle,fitted_excitation", rows)
