"""DOP853 reference evolutions shared by the tests.

Each result of ``qperceptron.dynamics`` and ``qperceptron.register`` is
checked against one of these two solves, which share no code with the
package: ``dop853_two_level`` for the single-qubit ramp and
``dop853_ising_passage`` for a dense Ising passage on a whole register.
Qubit 0 is the leftmost factor, and the active |1> has sz = +1.
"""
import math

import numpy as np
from scipy.integrate import solve_ivp

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
