"""Transverse-field control design for the two-level Ising passage.

The hardware protocol drives H(t) = -1/2 [Omega(t) sx + x sz] from a large
transverse field Omega(0) = omega0 down to omegaf, dragging the ground
state from |+> to the sigmoid superposition.  This module builds the two
ramp families studied here (linear and constant-adiabaticity "faquad"),
their perturbed variants and tabulated waveforms, all as the one schedule
type ``ControlSchedule``; plus the instantaneous eigensystem and the
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

from ._io import as_index, float_if_scalar, read_rows, require_finite, require_type, write_rows

__all__ = [
    "ControlSchedule",
    "EigenSystem",
    "AdiabaticDiagnostics",
    "linear_schedule",
    "faquad_schedule",
    "perturbed_schedule",
    "tabulated_schedule",
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
    a label only: ``linear``, ``faquad``, ``perturbed`` or ``tabulated``.
    ``omega0``/``omegaf`` are the design endpoints; for the perturbed kind
    they keep the *base* schedule's values and evaluation intentionally
    overshoots them by the degradation term.  ``samples`` holds the
    (t, Omega) knots of a tabulated drive, each a step edge of the
    integrator, and is None otherwise.
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
        return float_if_scalar(self.field(np.asarray(require_finite(t=t))))

    def domega(self, t):
        """Time derivative of the field (scalar or array)."""
        return float_if_scalar(self.slope(np.asarray(require_finite(t=t))))


def linear_schedule(omega0: float, omegaf: float, tf: float) -> ControlSchedule:
    """Affine ramp Omega(t) = omega0 (1 - t/tf) + omegaf t/tf.

    omega0 == omegaf is allowed and gives a constant drive (used for Rabi
    and free-evolution checks); increasing ramps are rejected.
    """
    omega0, omegaf, tf = require_finite(omega0=omega0, omegaf=omegaf, tf=tf)
    if tf <= 0:
        raise ValueError("tf must be positive")
    if omega0 < omegaf or omegaf < 0:
        raise ValueError("need omega0 >= omegaf >= 0")
    return ControlSchedule(
        "linear", omega0, omegaf, tf,
        field=lambda t: omega0 + (omegaf - omega0) * (t / tf),
        slope=lambda t: np.full(t.shape, (omegaf - omega0) / tf),
    )


def _faquad_parameters(omega0, omegaf, tf, x_ref):
    """The four as floats, checked once for faquad_schedule and faquad_constant_mu."""
    omega0, omegaf, tf, x_ref = require_finite(omega0=omega0, omegaf=omegaf, tf=tf, x_ref=x_ref)
    if tf <= 0:
        raise ValueError("tf must be positive")
    if not omega0 > omegaf > 0:
        raise ValueError("need omega0 > omegaf > 0")
    if x_ref == 0:
        raise ValueError("x_ref = 0 has no avoided crossing; mu is undefined")
    return omega0, omegaf, tf, x_ref


def faquad_schedule(omega0: float, omegaf: float, tf: float, x_ref: float) -> ControlSchedule:
    """Constant-adiabaticity ramp designed at reference field x_ref.

    With v(Omega) = Omega / sqrt(Omega^2 + x_ref^2), the constant-mu
    trajectory is v linear in t between v(omega0) and v(omegaf); the
    waveform is evaluated through the complement w = 1 - v for numerical
    stability at omega0 >> |x_ref|.  The resulting adiabatic parameter is
    mu = |v(omega0) - v(omegaf)| / (2 |x_ref| tf) at x = x_ref for all t.
    """
    omega0, omegaf, tf, x_ref = _faquad_parameters(omega0, omegaf, tf, x_ref)

    def field(t):
        w = w0 + (t / tf) * (wf - w0)
        return abs(x_ref) * (1.0 - w) / np.sqrt(w * (2.0 - w))

    def slope(t):
        w = w0 + (t / tf) * (wf - w0)
        # dOmega/dw = -|x|/(w(2-w))^{3/2}; dw/dt = (wf-w0)/tf
        return abs(x_ref) * (w * (2.0 - w)) ** -1.5 * (w0 - wf) / tf

    # |Omega| and |dOmega/dt| peak at t = 0: probe them there, quietly, and refuse
    # a drive that overflows before any grid reads it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w0, wf = _w_of_omega(omega0, x_ref), _w_of_omega(omegaf, x_ref)
        start = (field(0.0), slope(0.0))
    if not np.all(np.isfinite(start)):
        raise ValueError(f"omega0 = {omega0!r} makes the faquad drive or its slope overflow "
                         f"at t = 0 (tf = {tf!r})")
    return ControlSchedule("faquad", omega0, omegaf, tf, field, slope)


def perturbed_schedule(base: ControlSchedule, epsilon_ctrl: float) -> ControlSchedule:
    """Degraded control: the base faquad waveform plus epsilon times a
    linear ramp between the base endpoints.

    Evaluation gives Omega'(0) = (1 + eps) omega0 and Omega'(tf) =
    (1 + eps) omegaf, deliberately missing the stored design endpoints.
    """
    if require_type(base, ControlSchedule, "base").kind != "faquad":
        raise ValueError("perturbation is defined relative to a faquad base")
    if (eps := require_finite(epsilon_ctrl=epsilon_ctrl)) < 0:
        raise ValueError("epsilon_ctrl must be >= 0")
    ramp = linear_schedule(base.omega0, base.omegaf, base.tf)
    sched = ControlSchedule(
        "perturbed", base.omega0, base.omegaf, base.tf,
        field=lambda t: base.field(t) + eps * ramp.field(t),
        slope=lambda t: base.slope(t) + eps * ramp.slope(t),
    )
    # the base peaks at t = 0 and the added ramp is linear: probe both ends, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        ends = (sched.omega([0.0, base.tf]), sched.domega([0.0, base.tf]))
    if not np.all(np.isfinite(ends)):
        raise ValueError(f"epsilon_ctrl = {eps!r} makes the perturbed drive or its slope overflow")
    return sched


def tabulated_schedule(ts, omegas) -> ControlSchedule:
    """Schedule defined by an ordered (t, Omega) table; linear interpolation.

    The slope interpolates central differences on the stored grid.  Non-
    finite samples, and knots so close that the slope overflows, raise
    ValueError.
    """
    ts, omegas = map(np.array, require_finite(ts=ts, omegas=omegas))  # copies, frozen below
    if ts.ndim != 1 or ts.shape != omegas.shape or ts.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
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


@dataclass(frozen=True)
class EigenSystem:
    """Instantaneous eigensystem of H = -1/2 (Omega sx + x sz).

    ``phi0``/``phi1`` are the ground and excited states in (amp0, amp1) order:
    phi0[k] is the |k> amplitude, shaped like x, and so are the other fields
    (floats for a scalar x).  theta_bloch = arccos(-x / E), so the ground
    state tends to |1> as x -> +inf.
    """

    theta_bloch: float
    e0: float
    e1: float
    phi0: np.ndarray
    phi1: np.ndarray

    @property
    def gap(self) -> float:
        return self.e1 - self.e0


def eigensystem(omega: float, x) -> EigenSystem:
    """Diagonalize the two-level Hamiltonian at fixed Omega and x (scalar or array)."""
    omega, x = require_finite(omega=omega, x=x)
    E = np.hypot(omega, x)
    if np.any(E == 0):
        raise ValueError("omega = x = 0 is degenerate; the gap closes")
    theta = np.arccos(np.clip(-x / E, -1.0, 1.0))
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return EigenSystem(*map(float_if_scalar, (theta, -E / 2.0, E / 2.0)),
                       np.array([c, s]), np.array([-s, c]))


def adiabatic_mu(schedule: ControlSchedule, x: float, t) -> float:
    """Adiabatic parameter mu(t) = |x dOmega/dt| / (2 (Omega^2 + x^2)^(3/2)).

    The ratio of the eigenstate rotation rate to the gap; small mu means
    adiabatic.  Vectorized over t.  A non-finite x or t, or a point where
    Omega(t) = x = 0, is refused.
    """
    x = require_finite(x=x)
    om = schedule.omega(t)
    dom = schedule.domega(t)
    E = np.hypot(om, x)
    if np.any(E == 0):
        raise ValueError("Omega(t) = x = 0 is degenerate; the gap closes")
    return float_if_scalar(np.abs(x * dom) / (2.0 * E**3))


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
    if (n := as_index(n, "n")) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ts = np.linspace(0.0, schedule.tf, n)
    mus = adiabatic_mu(schedule, x, ts)
    return AdiabaticDiagnostics(np.column_stack([ts, mus]), float(np.mean(mus) * schedule.tf))


def faquad_constant_mu(omega0: float, omegaf: float, tf: float, x_ref: float) -> float:
    """Closed-form constant mu of the faquad ramp at its design field."""
    omega0, omegaf, tf, x_ref = _faquad_parameters(omega0, omegaf, tf, x_ref)
    v0 = 1.0 / np.hypot(1.0, x_ref / omega0)
    vf = 1.0 / np.hypot(1.0, x_ref / omegaf)
    return float(abs(v0 - vf) / (2.0 * abs(x_ref) * tf))


def optimal_design_field(omegaf: float) -> float:
    """Design field maximizing the faquad adiabaticity constant.

    The maximizer of mu(x) = |v(omega0) - v(omegaf)| / (2 |x|) over x > 0 at
    omega0 = 1e4 omegaf is omegaf x*(1), as mu(omegaf y) scales as 1/omegaf;
    x*(1) is a bounded Brent search's maximizer at omegaf = 1.  Near the
    omega0 -> inf limit sqrt((1 + sqrt 5)/2), it is the input field the
    passage handles worst, the reference a shared control is designed for.
    """
    if (omegaf := require_finite(omegaf=omegaf)) <= 0:
        raise ValueError("omegaf must be positive")
    if math.isinf(x_ref := omegaf * 1.2720196363352636):
        raise ValueError(f"omegaf = {omegaf!r} overflows the design field")
    return x_ref


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
