"""Transverse-field control design for the two-level Ising passage.

The hardware protocol drives H(t) = -1/2 [Omega(t) sx + x sz] from a large
transverse field Omega(0) = omega0 down to omegaf, dragging the ground
state from |+> to the sigmoid superposition.  This module builds the two
ramp families studied here (linear and constant-adiabaticity "faquad"),
their perturbed variants, tabulated waveforms and the time-reversed,
sign-flipped drive that undoes a passage, all as the one schedule type
``ControlSchedule``; plus the instantaneous eigensystem and the
adiabatic-parameter diagnostics used to compare the ramps.

Units: omegaf is the frequency unit (set it to 1), times are in 1/omegaf,
fields in omegaf.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from ._io import read_rows, write_rows

__all__ = [
    "ControlSchedule",
    "EigenSystem",
    "AdiabaticDiagnostics",
    "linear_schedule",
    "faquad_schedule",
    "perturbed_schedule",
    "tabulated_schedule",
    "reversed_negated",
    "eigensystem",
    "adiabatic_mu",
    "adiabatic_diagnostics",
    "faquad_constant_mu",
    "optimal_design_field",
    "schedule_to_csv",
    "schedule_from_csv",
]


def _w_of_omega(omega, x_ref):
    # w = 1 - Omega/hypot(Omega, x) written without cancellation at
    # Omega >> |x|:  w = x^2 / (h (h + Omega))
    h = np.hypot(omega, x_ref)
    return x_ref * x_ref / (h * (h + omega))


@dataclass(frozen=True, eq=False)
class ControlSchedule:
    """A transverse-field waveform Omega(t) on [0, tf].

    Built by the factories below, which close ``field`` and ``slope`` (the
    vectorised Omega(t) and dOmega/dt) over their parameters.  ``kind`` is
    a label only: ``linear``, ``faquad``, ``perturbed``, ``tabulated`` or
    ``reversed``.  ``omega0``/``omegaf`` are the design endpoints; for the
    perturbed kind they keep the *base* schedule's values and evaluation
    intentionally overshoots them by the degradation term.  ``samples``
    holds the (t, Omega) knots of a tabulated drive (mirrored for a reversed
    one), each a step edge of the integrator, and is None otherwise.
    Equality and hashing are by identity.
    """

    kind: str
    omega0: float
    omegaf: float
    tf: float
    field: Callable = dataclasses.field(repr=False)
    slope: Callable = dataclasses.field(repr=False)
    samples: tuple = None

    def omega(self, t):
        """Field value(s) at time t (scalar or array)."""
        out = self.field(np.asarray(t, dtype=float))
        return out if np.ndim(out) else float(out)

    def domega(self, t):
        """Time derivative of the field (scalar or array)."""
        out = self.slope(np.asarray(t, dtype=float))
        return out if np.ndim(out) else float(out)


def _require_finite(**params) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def linear_schedule(omega0: float, omegaf: float, tf: float) -> ControlSchedule:
    """Affine ramp Omega(t) = omega0 (1 - t/tf) + omegaf t/tf.

    omega0 == omegaf is allowed and gives a constant drive (used for Rabi
    and free-evolution checks); increasing ramps are rejected.
    """
    _require_finite(omega0=omega0, omegaf=omegaf, tf=tf)
    if tf <= 0:
        raise ValueError("tf must be positive")
    if omega0 < omegaf or omegaf < 0:
        raise ValueError("need omega0 >= omegaf >= 0")
    omega0, omegaf, tf = float(omega0), float(omegaf), float(tf)
    return ControlSchedule(
        "linear", omega0, omegaf, tf,
        field=lambda t: omega0 + (omegaf - omega0) * (t / tf),
        slope=lambda t: np.full(t.shape, (omegaf - omega0) / tf),
    )


def faquad_schedule(omega0: float, omegaf: float, tf: float, x_ref: float) -> ControlSchedule:
    """Constant-adiabaticity ramp designed at reference field x_ref.

    With v(Omega) = Omega / sqrt(Omega^2 + x_ref^2), the constant-mu
    trajectory is v linear in t between v(omega0) and v(omegaf); the
    waveform is evaluated through the complement w = 1 - v for numerical
    stability at omega0 >> |x_ref|.  The resulting adiabatic parameter is
    mu = |v(omega0) - v(omegaf)| / (2 |x_ref| tf) at x = x_ref for all t.
    """
    _require_finite(omega0=omega0, omegaf=omegaf, tf=tf, x_ref=x_ref)
    if tf <= 0:
        raise ValueError("tf must be positive")
    if not omega0 > omegaf > 0:
        raise ValueError("need omega0 > omegaf > 0")
    if x_ref == 0:
        raise ValueError("x_ref = 0 has no avoided crossing; mu is undefined")
    omega0, omegaf, tf, x_ref = float(omega0), float(omegaf), float(tf), float(x_ref)
    w0 = _w_of_omega(omega0, x_ref)
    wf = _w_of_omega(omegaf, x_ref)

    def field(t):
        w = w0 + (t / tf) * (wf - w0)
        return abs(x_ref) * (1.0 - w) / np.sqrt(w * (2.0 - w))

    def slope(t):
        w = w0 + (t / tf) * (wf - w0)
        # dOmega/dw = -|x|/(w(2-w))^{3/2}; dw/dt = (wf-w0)/tf
        return abs(x_ref) * (w * (2.0 - w)) ** -1.5 * (w0 - wf) / tf

    return ControlSchedule("faquad", omega0, omegaf, tf, field, slope)


def perturbed_schedule(base: ControlSchedule, epsilon_ctrl: float) -> ControlSchedule:
    """Degraded control: the base faquad waveform plus epsilon times a
    linear ramp between the base endpoints.

    Evaluation gives Omega'(0) = (1 + eps) omega0 and Omega'(tf) =
    (1 + eps) omegaf, deliberately missing the stored design endpoints.
    """
    if base.kind != "faquad":
        raise ValueError("perturbation is defined relative to a faquad base")
    _require_finite(epsilon_ctrl=epsilon_ctrl)
    if epsilon_ctrl < 0:
        raise ValueError("epsilon_ctrl must be >= 0")
    eps = float(epsilon_ctrl)
    omega0, omegaf, tf = base.omega0, base.omegaf, base.tf
    drift = eps * ((omegaf - omega0) / tf)
    return ControlSchedule(
        "perturbed", omega0, omegaf, tf,
        field=lambda t: base.field(t) + eps * (omega0 + (omegaf - omega0) * (t / tf)),
        slope=lambda t: base.slope(t) + drift,
    )


def tabulated_schedule(ts, omegas) -> ControlSchedule:
    """Schedule defined by an ordered (t, Omega) table; linear interpolation.

    The slope interpolates central differences on the stored grid.  Non-
    finite samples, and knots so close that the slope overflows, raise
    ValueError.
    """
    ts = np.array(ts, dtype=float)
    omegas = np.array(omegas, dtype=float)
    if ts.ndim != 1 or ts.shape != omegas.shape or ts.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(omegas))):
        raise ValueError("sample times and Omega values must be finite")
    if not np.all(np.diff(ts) > 0) or ts[0] != 0:
        raise ValueError("sample times must start at 0 and increase strictly")
    ts.flags.writeable = omegas.flags.writeable = False
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        grad = np.gradient(omegas, ts)
    if not np.all(np.isfinite(grad)):
        raise ValueError("table slope is not finite: two sample times are too close")
    return ControlSchedule(
        "tabulated", float(omegas[0]), float(omegas[-1]), float(ts[-1]),
        field=lambda t: np.interp(t, ts, omegas),
        slope=lambda t: np.interp(t, ts, grad),
        samples=(ts, omegas),
    )


def reversed_negated(schedule) -> ControlSchedule:
    """Time-reversed, sign-flipped drive Omega'(t) = -Omega(tf - t).

    Evolving with this schedule and the longitudinal field negated undoes
    the original evolution exactly: both fields must flip so that H'(t) =
    -H(tf - t), which turns the time-ordered product into its inverse.

    Knots closer than an ulp of tf - t mirror onto one time; the mirrored
    table keeps the last knot of each such run, so its times increase
    strictly (t = 0 cannot collide, and the knot at tf is kept).
    """
    tf = schedule.tf
    samples = schedule.samples
    if samples is not None:
        ts, oms = tf - samples[0][::-1], -samples[1][::-1]
        keep = np.append(np.diff(ts) > 0, True)
        samples = (ts[keep], oms[keep])
    return ControlSchedule(
        "reversed", -schedule.omegaf, -schedule.omega0, tf,
        field=lambda t: -schedule.omega(tf - t),
        slope=lambda t: schedule.domega(tf - t),
        samples=samples,
    )


@dataclass(frozen=True)
class EigenSystem:
    """Instantaneous eigensystem of H = -1/2 (Omega sx + x sz).

    ``phi0``/``phi1`` are real two-component vectors in the {|1>, |0>}
    ordering (coefficient of the active state first).  theta_bloch =
    arccos(-x / E) so the ground state tends to |1> as x -> +inf.
    """

    theta_bloch: float
    e0: float
    e1: float
    phi0: np.ndarray
    phi1: np.ndarray

    @property
    def gap(self) -> float:
        return self.e1 - self.e0


def eigensystem(omega: float, x: float) -> EigenSystem:
    """Diagonalize the two-level Hamiltonian at fixed (Omega, x)."""
    E = float(np.hypot(omega, x))
    if E == 0:
        raise ValueError("omega = x = 0 is degenerate; the gap closes")
    theta = float(np.arccos(np.clip(-x / E, -1.0, 1.0)))
    half = theta / 2.0
    phi0 = np.array([np.sin(half), np.cos(half)])
    phi1 = np.array([np.cos(half), -np.sin(half)])
    return EigenSystem(theta, -E / 2.0, E / 2.0, phi0, phi1)


def adiabatic_mu(schedule: ControlSchedule, x: float, t) -> float:
    """Adiabatic parameter mu(t) = |x dOmega/dt| / (2 (Omega^2 + x^2)^(3/2)).

    The ratio of the eigenstate rotation rate to the gap; small mu means
    adiabatic.  Vectorized over t.
    """
    om = schedule.omega(t)
    dom = schedule.domega(t)
    E = np.hypot(om, x)
    out = np.abs(x * dom) / (2.0 * E**3)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class AdiabaticDiagnostics:
    """Sampled adiabaticity trace and its rescaled constant c~ = c tf."""

    mu_trace: np.ndarray  # shape (n, 2): columns (t, mu)
    c_tilde: float


def adiabatic_diagnostics(schedule: ControlSchedule, x: float, n: int = 1000) -> AdiabaticDiagnostics:
    """Sample mu(t) on a uniform n-point grid.

    c_tilde is the trace mean times tf; for a faquad schedule evaluated at
    its design field the trace is constant and c_tilde is exact.
    """
    ts = np.linspace(0.0, schedule.tf, n)
    mus = adiabatic_mu(schedule, x, ts)
    return AdiabaticDiagnostics(np.column_stack([ts, mus]), float(np.mean(mus) * schedule.tf))


def faquad_constant_mu(omega0: float, omegaf: float, tf: float, x_ref: float) -> float:
    """Closed-form constant mu of the faquad ramp at its design field."""
    v0 = 1.0 / np.hypot(1.0, x_ref / omega0)
    vf = 1.0 / np.hypot(1.0, x_ref / omegaf)
    return float(abs(v0 - vf) / (2.0 * abs(x_ref) * tf))


def optimal_design_field(omegaf: float) -> float:
    """Design field maximizing the faquad adiabaticity constant.

    Maximizes mu(x) = |v(omega0) - v(omegaf)| / (2 |x|) over x > 0 at fixed
    endpoints omega0 = 1e4 omegaf, by bounded scalar search.  In the
    omega0 -> inf limit the maximum sits at sqrt((1 + sqrt 5)/2) times
    omegaf, about 1.272 omegaf: the input field the passage handles worst,
    hence the reference a single shared control is designed for.
    """
    if omegaf <= 0:
        raise ValueError("omegaf must be positive")
    om0 = 1e4 * omegaf

    def neg_mu(x):
        return -faquad_constant_mu(om0, omegaf, 1.0, x)

    res = minimize_scalar(
        neg_mu,
        bounds=(1e-3 * omegaf, 10.0 * omegaf),
        method="bounded",
        options={"xatol": 1e-12 * omegaf},
    )
    return float(res.x)


def schedule_to_csv(schedule: ControlSchedule, path_or_buf) -> None:
    """Write the waveform as CSV with header ``t,omega``, increasing t.

    A tabulated schedule writes its knots; any other samples 1001 uniform
    times on [0, tf].
    """
    if schedule.samples is not None:
        ts, oms = schedule.samples
    else:
        ts = np.linspace(0.0, schedule.tf, 1001)
        oms = schedule.omega(ts)
    write_rows(path_or_buf, "t,omega", zip(ts, oms))


def schedule_from_csv(path_or_buf) -> ControlSchedule:
    """Read a waveform written by schedule_to_csv as a tabulated schedule."""
    rows = read_rows(path_or_buf, "t,omega", float, float)
    return tabulated_schedule(*np.reshape(rows, (-1, 2)).T)
