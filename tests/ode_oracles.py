"""Reference evolutions shared by the tests.

Each result of ``qperceptron.dynamics`` and ``qperceptron.register`` is
checked against one of these references, which share no code with the
package or with each other: ``dop853_two_level`` for the single-qubit ramp,
``landau_zener_propagator``, the exact solution of a linear ramp, and
``dop853_ising_passage`` for a dense Ising passage on a whole register.
Qubit 0 is the leftmost factor, and the active |1> has sz = +1.

Two test devices built on the package sit here too, as no package caller
needs them: ``reversed_negated``, the drive that undoes a passage, and
``apply_hadamard``, a Hadamard through the register's in-place runner.
"""
import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from qperceptron.control import ControlSchedule
from qperceptron.dynamics import _HADAMARD
from qperceptron.register import _check_qubit, _in_place

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])  # active |1> has sz = +1
H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
PLUS = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)


def kron_on(n, qubit, op):
    """Dense n-qubit operator with op on one qubit (qubit 0 leftmost)."""
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == qubit else np.eye(2))
    return out


def dop853_two_level(schedule, xs, starts, span=None, rtol=1e-12):
    """Final (amp0, amp1) of each start state under
    H(t) = -1/2 [Omega(t) sx + x sz], for every x, in one DOP853 solve.

    starts is one 2-vector or a stack of them; span is (t0, t1), by
    default (0, tf).  Returns shape (len(xs), len(starts), 2), so
    U(x) = out[i].T when starts are |0> and |1>.
    """
    xs = np.asarray(xs, dtype=float)
    starts = np.asarray(starts, dtype=complex).reshape(-1, 2)
    k, s = xs.size, len(starts)
    x = np.tile(xs, s)  # start-major columns

    def rhs(t, y):
        om = float(schedule.omega(t))
        a0, a1 = y[: k * s], y[k * s :]
        return 0.5j * np.concatenate([om * a1 - x * a0, om * a0 + x * a1])

    y0 = np.concatenate([np.repeat(starts[:, 0], k), np.repeat(starts[:, 1], k)])
    span = (0.0, schedule.tf) if span is None else span
    sol = solve_ivp(rhs, span, y0, method="DOP853", rtol=rtol, atol=rtol / 10)
    return sol.y[:, -1].reshape(2, s, k).transpose(2, 1, 0)


def landau_zener_propagator(omega0, omegaf, tf, x):
    """Exact U(tf, 0) of H(t) = -1/2 [Omega(t) sx + x sz] on the linear ramp
    Omega(t) = omega0 + (omegaf - omega0) t / tf, for omega0 != omegaf and
    x != 0: the finite-time Landau-Zener problem (Vitanov & Garraway,
    PRA 53, 4288 (1996)), in parabolic-cylinder functions at 30 digits.

    The Hadamard maps H onto [[-Omega/2, x/2], [x/2, Omega/2]].  With
    k = dOmega/dt and tau = Omega / k, the first amplitude obeys
    a'' + (x^2/4 + Omega^2/4 - i k/2) a = 0, solved by D_nu(+-s tau) with
    s^2 = -i k and nu = i x^2 / (4 k); the second is b = (2/x)(i a' + Omega a / 2).
    U = H Phi(omegaf) Phi(omega0)^-1 H for the fundamental matrix Phi.
    Returns a (2, 2) complex array acting on (amp0, amp1).
    """
    with mpmath.workdps(30):
        k = (mpmath.mpf(omegaf) - omega0) / tf
        x = mpmath.mpf(x)
        s = mpmath.sqrt(-1j * k)
        nu = 1j * x * x / (4 * k)

        def fundamental(omega):
            phi = mpmath.matrix(2, 2)
            for j, sign in enumerate((1, -1)):
                z = sign * s * omega / k
                d = mpmath.pcfd(nu, z)
                # D_nu'(z) = z D_nu(z) / 2 - D_{nu+1}(z)
                da = sign * s * (z * d / 2 - mpmath.pcfd(nu + 1, z))
                phi[0, j] = d
                phi[1, j] = (2 / x) * (1j * da + omega * d / 2)
            return phi

        h = mpmath.matrix([[1, 1], [1, -1]]) / mpmath.sqrt(2)
        u = h * fundamental(mpmath.mpf(omegaf)) * mpmath.inverse(fundamental(mpmath.mpf(omega0))) * h
        return np.array(u.tolist(), dtype=complex)


def dop853_ising_passage(psi, targets, fields, schedule):
    """A Hadamard on each target, then one DOP853 solve of all 2^n
    amplitudes under H(t) = -1/2 sum_j [Omega(t) sx_j + field_j sz_j].

    fields[i] is the diagonal, over the basis states, of target i's
    longitudinal field (an operator of the other qubits' sz).
    """
    dim = psi.size
    n = dim.bit_length() - 1
    drive = sum(kron_on(n, j, SX) for j in targets)
    ising = sum(f * np.diag(kron_on(n, j, SZ)).real for j, f in zip(targets, fields))
    for j in targets:
        psi = kron_on(n, j, H2) @ psi

    def rhs(t, y):
        v = y[:dim] + 1j * y[dim:]
        d = 0.5j * (float(schedule.omega(t)) * (drive @ v) + ising * v)
        return np.concatenate([d.real, d.imag])

    sol = solve_ivp(rhs, (0.0, schedule.tf), np.concatenate([psi.real, psi.imag]),
                    method="DOP853", rtol=1e-11, atol=1e-11)
    return sol.y[:dim, -1] + 1j * sol.y[dim:, -1]


def reversed_negated(schedule):
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


def apply_hadamard(reg, target):
    """H on one target qubit of a register: a one-step pass on a copy of it."""
    step = _check_qubit(reg.n_qubits, target, "target"), _HADAMARD
    return _in_place(reg.n_qubits, reg.amplitudes.copy(), [step])
