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

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import least_squares

from ._io import write_rows
from .activation import ActivationKind, ALGEBRAIC, chi, dchi_dx
from .register import QuantumRegister, _rotate_pairs, _sector_field

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


@dataclass(frozen=True)
class Rectangle:
    """Flip window: angle pi/2 strictly inside (m1, m2), zero elsewhere."""

    m1: float
    m2: float

    def __post_init__(self):
        if not (np.isfinite(self.m1) and np.isfinite(self.m2)):
            raise ValueError("rectangle edges must be finite")
        if not (self.m1 < self.m2):
            raise ValueError("rectangle needs m1 < m2")


@dataclass(frozen=True)
class Peak:
    """Gaussian bump of height pi/2 centered at `center`."""

    center: float
    width: float

    def __post_init__(self):
        if not (self.width > 0):
            raise ValueError("peak width must be positive")


@dataclass(frozen=True)
class Sampled:
    """Explicit (x, angle) samples, linearly interpolated between points."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple(sorted((float(x), float(a)) for x, a in self.points))
        if not pts:
            raise ValueError("sampled target needs at least one point")
        for _, a in pts:
            if not (0.0 <= a <= _HALF_PI + 1e-12):
                raise ValueError("sampled angles must lie in [0, pi/2]")
        object.__setattr__(self, "points", pts)


TargetResponse = Union[Rectangle, Peak, Sampled]


def target_angle(target: TargetResponse, x):
    """Target rotation angle profile evaluated on x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if isinstance(target, Rectangle):
        return np.where((x > target.m1) & (x < target.m2), _HALF_PI, 0.0)
    if isinstance(target, Peak):
        return _HALF_PI * np.exp(-((x - target.center) ** 2) / (2 * target.width**2))
    if isinstance(target, Sampled):
        xs = np.array([p[0] for p in target.points])
        ys = np.array([p[1] for p in target.points])
        return np.interp(x, xs, ys)
    raise TypeError(f"unknown target response {target!r}")


@dataclass(frozen=True)
class CompositionSpec:
    """Stack of perceptron cycles: (weight, threshold, orientation) each."""

    cycles: Tuple[Tuple[float, float, int], ...]
    activation: ActivationKind = ALGEBRAIC

    def __post_init__(self):
        cycles = tuple(
            (float(w), float(th), int(o)) for w, th, o in self.cycles
        )
        if not cycles:
            raise ValueError("composition needs at least one cycle")
        for w, th, o in cycles:
            if o not in (-1, 1):
                raise ValueError("orientation must be +1 or -1")
            if not (np.isfinite(w) and np.isfinite(th)):
                raise ValueError("cycle parameters must be finite")
        object.__setattr__(self, "cycles", cycles)


def composition_angle(spec: CompositionSpec, x):
    """Total y-rotation angle at conditioning value x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    total = np.zeros_like(x)
    for w, th, o in spec.cycles:
        total = total + o * chi(spec.activation, w * x - th)
    return float(total) if total.ndim == 0 else total


def analytic_rectangle(
    rect: Rectangle, steepness: float, activation: ActivationKind = ALGEBRAIC
) -> CompositionSpec:
    """Closed-form two-cycle window: raise at m1, undo past m2.

    The forward cycle saturates to pi/2 once x clears m1; the reversed
    cycle cancels it again past m2.  Larger steepness sharpens both walls.
    """
    if not (steepness > 0):
        raise ValueError("steepness must be positive")
    w = float(steepness)
    return CompositionSpec(
        ((w, w * rect.m1, 1), (w, w * rect.m2, -1)), activation
    )


@dataclass(frozen=True)
class SynthesisResult:
    spec: CompositionSpec
    residual: float  # RMS angle error over the fit grid
    converged: bool


def _fit_once(kind, tgt, x, orients, w0, th0):
    m = len(orients)
    sgn = np.array(orients, dtype=float)

    def split(p):
        return p[:m], p[m:]

    def resid(p):
        w, th = split(p)
        ang = np.zeros_like(x)
        for i in range(m):
            ang += sgn[i] * chi(kind, w[i] * x - th[i])
        return ang - tgt

    def jac(p):
        w, th = split(p)
        J = np.empty((x.size, 2 * m))
        for i in range(m):
            d = sgn[i] * dchi_dx(kind, w[i] * x - th[i])
            J[:, i] = d * x
            J[:, m + i] = -d
        return J

    sol = least_squares(resid, np.concatenate([w0, th0]), jac=jac, max_nfev=400)
    rms = float(np.sqrt(np.mean(sol.fun**2)))
    w, th = split(sol.x)
    return rms, tuple((w[i], th[i], int(orients[i])) for i in range(m))


def _orientation_patterns(n):
    # pattern j reverses cycle i where bit i of j is set
    pats = (p[::-1] for p in itertools.product((1, -1), repeat=n))
    return [p for p in pats if 1 in p]  # all-reversed stacks cannot reach angle > 0


def synthesize(
    target: TargetResponse,
    cycles: int,
    x_grid,
    activation: ActivationKind = ALGEBRAIC,
) -> SynthesisResult:
    """Least-squares fit of a cycle stack to the target angle profile.

    Runs every orientation pattern from 6 random starts of a fixed seed (plus
    closed-form starts for window targets) and keeps the lowest RMS angle
    error.  A result with converged=False reports that the residual stayed
    above the acceptance threshold; it never raises for a poor fit.
    """
    if cycles < 1:
        raise ValueError("need at least one cycle")
    x = np.asarray(x_grid, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("x_grid must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("x_grid must be finite")
    tgt = target_angle(target, x)
    span = max(float(x.max() - x.min()), 1e-6)
    rng = np.random.default_rng(0)
    starts = []
    if cycles == 2:
        if isinstance(target, Rectangle):
            for s in (4.0, 12.0, 40.0):
                w = s / (target.m2 - target.m1)
                starts.append(
                    ((1, -1), np.array([w, w]), np.array([w * target.m1, w * target.m2]))
                )
        if isinstance(target, Peak):
            w = 1.5 / target.width
            lo, hi = target.center - target.width, target.center + target.width
            starts.append(((1, -1), np.array([w, w]), np.array([w * lo, w * hi])))
    for pat in _orientation_patterns(cycles):
        for _ in range(_RESTARTS):
            w0 = rng.uniform(0.3, 8.0 / span * 4.0, cycles)
            th0 = w0 * rng.uniform(x.min(), x.max(), cycles)
            starts.append((pat, w0, th0))
    best = None
    for pat, w0, th0 in starts:
        rms, cyc = _fit_once(activation, tgt, x, pat, w0, th0)
        if best is None or rms < best[0]:
            best = (rms, cyc)
    rms, cyc = best
    spec = CompositionSpec(cyc, activation)
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
    n = reg.n_qubits
    if not (0 <= target_qubit < n):
        raise ValueError("target qubit out of range")
    srcs = {int(k): float(v) for k, v in source_weights.items()}
    for k in srcs:
        if not (0 <= k < n):
            raise ValueError(f"source qubit {k} out of range")
        if k == target_qubit:
            raise ValueError("target cannot be its own source")
    x = _sector_field(n, srcs, 0.0, (0.0, 1.0))
    return _rotate_pairs(reg, target_qubit, composition_angle(spec, x))


def composition_to_csv(
    result: SynthesisResult, target: TargetResponse, x_grid, path_or_buf
) -> None:
    """CSV columns: x, target_angle, fitted_angle, fitted_excitation.

    Write-only: the package has no public reader for it.
    """
    x = np.asarray(x_grid, dtype=float).ravel()
    tgt = target_angle(target, x)
    ang = composition_angle(result.spec, x)
    exc = np.sin(ang) ** 2
    rows = zip(x, tgt, ang, exc)
    write_rows(path_or_buf, "x,target_angle,fitted_angle,fitted_excitation", rows)
