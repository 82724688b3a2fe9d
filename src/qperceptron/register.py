"""n-qubit statevector register and the perceptron gates acting on it.

Conventions, fixed once for the whole package:

- Bitstrings read left to right: qubit 0 is the leftmost character and the
  most significant bit of the amplitude index, so ``init_basis(2, "10")``
  puts the amplitude at index 0b10 = 2.
- The active state is |1> with sz|1> = +|1>, sz|0> = -|0>; the excitation
  probability of a qubit is P = (1 + <sz>) / 2.
- The activation field of a gate is x = sum_k w_k z_k - bias with z_k = +/-1
  the sz eigenvalue of source qubit k.
- The ideal gate rotates the target by chi(x) about y with the sign fixed so
  |0> maps to sqrt(1-f)|0> + sqrt(f)|1> (matrix [[c, -s], [s, c]] on the
  (amp0, amp1) pair).

Gates act in O(2^n) on the amplitudes viewed as a (2,)*n tensor with qubit
k on axis k: the target's two halves are slices of its axis, and the field,
angle or propagator is computed once per source configuration and broadcast
over the other axes; no 2^n x 2^n matrix is ever materialized.  A hardware
gate integrates the ramp only for the occupied source configurations, those
holding any nonzero amplitude: an unoccupied one has only exact zeros, which
every propagator leaves exactly zero.  Registers are values: every operation
returns a new register and amplitude arrays are frozen read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ._io import write_rows
from .activation import ActivationKind, chi
from .control import ControlSchedule
from .dynamics import schedule_propagators

__all__ = [
    "MAX_QUBITS",
    "QuantumRegister",
    "PerceptronGateSpec",
    "ZeroProbabilityError",
    "init_basis",
    "apply_hadamard",
    "apply_ideal_perceptron",
    "apply_hardware_perceptron",
    "z_expectation",
    "excitation_probability",
    "conditional_probability",
    "register_to_csv",
]

MAX_QUBITS = 24


class ZeroProbabilityError(ValueError):
    """Conditioning event has zero probability; the conditional is undefined."""


def _frozen(amps: np.ndarray) -> np.ndarray:
    amps = np.ascontiguousarray(amps, dtype=complex)
    amps.flags.writeable = False
    return amps


@dataclass(frozen=True)
class QuantumRegister:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not (1 <= self.n_qubits <= MAX_QUBITS):
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude count must be 2**n_qubits")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if not abs(norm - 1.0) <= 1e-10:  # a nan norm fails too
            if not np.all(np.isfinite(self.amplitudes)):
                raise ValueError("register amplitudes must be finite")
            raise ValueError(f"register norm-squared {norm} is not 1")
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes))


@dataclass(frozen=True)
class PerceptronGateSpec:
    """One perceptron gate: target qubit, weighted sources, bias, activation.

    ``schedule is None`` selects the ideal (exact rotation) mode; a control
    schedule selects the hardware mode, which runs the full adiabatic
    protocol per occupied source sector.
    """

    target: int
    weights: Mapping[int, float] = field(default_factory=dict)
    bias: float = 0.0
    activation: ActivationKind = ActivationKind("algebraic")
    schedule: Optional[ControlSchedule] = None

    def __post_init__(self):
        if self.target in self.weights:
            raise ValueError("target cannot be one of its own sources")
        for k in self.weights:
            if not isinstance(k, (int, np.integer)) or k < 0:
                raise ValueError("source indices must be nonnegative integers")
        object.__setattr__(self, "weights", dict(self.weights))


def init_basis(n: int, bits: str) -> QuantumRegister:
    """Computational basis state |bits>."""
    if len(bits) != n:
        raise ValueError("bitstring length must equal qubit count")
    if set(bits) - {"0", "1"}:
        raise ValueError("bitstring must be over {0, 1}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return QuantumRegister(n, amps)


def _check_qubit(reg: QuantumRegister, q: int):
    if not (0 <= q < reg.n_qubits):
        raise IndexError(f"qubit {q} out of range for {reg.n_qubits}-qubit register")


def _view(amps: np.ndarray, n: int, qubits, bits) -> np.ndarray:
    """Flat amplitudes as a (2,)*n tensor view, qubit k on axis k, keeping
    each listed qubit at its bit.

    This reshape is the one place that knows the bit order (qubit 0 is the
    most significant bit).  A kept bit is a length-1 slice, so every axis
    keeps its place; a qubit asked for both bits keeps nothing.
    """
    sel = [slice(None)] * n
    for q, b in zip(qubits, bits):
        keep = slice(b, b + 1)
        sel[q] = keep if sel[q] in (slice(None), keep) else slice(0)
    return amps.reshape((2,) * n)[tuple(sel)]


def _sector_field(n: int, weights, offset: float, levels) -> np.ndarray:
    """offset + sum_k w_k levels[s_k] for every source configuration.

    Source k's axis has length 2 and every other axis length 1, so the
    field broadcasts against the target halves.  The terms are added in
    the order of ``weights``.
    """
    x = np.full((1,) * n, offset)
    for k, w in weights.items():
        shape = [1] * n
        shape[k] = 2
        x = x + w * np.reshape(levels, shape)
    return x


def _update_pairs(reg: QuantumRegister, target: int, update) -> QuantumRegister:
    """Replace each target pair (amp0, amp1) by update(amp0, amp1), where
    amp0 and amp1 are the two halves of the target axis."""
    n, a = reg.n_qubits, reg.amplitudes
    out = np.empty_like(a)
    new0, new1 = update(_view(a, n, [target], [0]), _view(a, n, [target], [1]))
    _view(out, n, [target], [0])[...] = new0
    _view(out, n, [target], [1])[...] = new1
    return QuantumRegister(n, out)


def _rotate_pairs(reg: QuantumRegister, target: int, ang) -> QuantumRegister:
    """Rotate each target pair by [[c, -s], [s, c]] at its sector's angle."""
    c, s = np.cos(ang), np.sin(ang)
    return _update_pairs(reg, target, lambda a0, a1: (c * a0 - s * a1, s * a0 + c * a1))


def _gate_field(reg, gate) -> np.ndarray:
    """Activation field x = sum w_k z_k - bias of each source sector."""
    _check_qubit(reg, gate.target)
    for k in gate.weights:
        _check_qubit(reg, int(k))
    return _sector_field(reg.n_qubits, gate.weights, -float(gate.bias), (-1.0, 1.0))


def apply_hadamard(reg: QuantumRegister, target: int) -> QuantumRegister:
    _check_qubit(reg, target)
    r = 1.0 / math.sqrt(2.0)
    return _update_pairs(reg, target, lambda a0, a1: (r * (a0 + a1), r * (a0 - a1)))


def apply_ideal_perceptron(reg: QuantumRegister, gate: PerceptronGateSpec) -> QuantumRegister:
    """Exact conditional rotation by chi(x) on the target (O(2^n))."""
    if gate.schedule is not None:
        raise ValueError("gate is in hardware mode; use apply_hardware_perceptron")
    return _rotate_pairs(reg, gate.target, chi(gate.activation, _gate_field(reg, gate)))


def apply_hardware_perceptron(reg: QuantumRegister, gate: PerceptronGateSpec) -> QuantumRegister:
    """Adiabatic protocol on the target: Hadamard, then the driven ramp per
    occupied source sector with x fixed by that sector's configuration.

    A source sector is occupied when any of its amplitudes is nonzero.  An
    unoccupied sector's amplitudes are exactly zero, so any unitary leaves
    them exactly zero and no observable can tell which one acted: only the
    occupied sectors' fields are integrated, and the time grid is sized by
    their largest |x|.  From a basis input every first-layer gate has one
    occupied sector.

    The physical evolution keeps each sector's dynamical phase.  For z-basis
    feed-forward circuits those phases are unobservable.
    """
    if gate.schedule is None:
        raise ValueError("gate is in ideal mode; use apply_ideal_perceptron")
    x = _gate_field(reg, gate)
    n = reg.n_qubits
    # the target is not a source, so the Hadamard leaves occupancy alone
    free = tuple(k for k in range(n) if k not in gate.weights)
    occ = np.any(reg.amplitudes.reshape((2,) * n) != 0, axis=free, keepdims=True)
    x = np.where(occ, x, x[occ][0])  # any field keeps an unoccupied sector's zeros
    reg = apply_hadamard(reg, gate.target)
    xu, inv = np.unique(x, return_inverse=True)
    U = schedule_propagators(gate.schedule, xu)
    u = U.transpose(1, 2, 0)[:, :, inv.reshape(x.shape)]  # entry u[i, j] per sector
    return _update_pairs(reg, gate.target, lambda a0, a1: (
        u[0, 0] * a0 + u[0, 1] * a1, u[1, 0] * a0 + u[1, 1] * a1))


def _norm2(psi: np.ndarray) -> float:
    return float(np.sum(np.abs(psi) ** 2))


def excitation_probability(reg: QuantumRegister, qubit: int) -> float:
    """P(qubit = 1) = (1 + <sz>) / 2."""
    _check_qubit(reg, qubit)
    return _norm2(_view(reg.amplitudes, reg.n_qubits, [qubit], [1]))


def z_expectation(reg: QuantumRegister, qubit: int) -> float:
    return 2.0 * excitation_probability(reg, qubit) - 1.0


def conditional_probability(reg, condition_qubits, condition_bits, query_qubit) -> float:
    """P(query = 1 | condition qubits carry the given bits).

    Raises ZeroProbabilityError when the conditioning event has zero
    probability (squared norm below 1e-30).
    """
    conds = [int(q) for q in condition_qubits]
    bits = [int(b) for b in condition_bits]
    if len(conds) != len(bits) or any(b not in (0, 1) for b in bits):
        raise ValueError("condition bits must pair 0/1 values with the qubits")
    for q in conds:
        _check_qubit(reg, q)
    _check_qubit(reg, query_qubit)
    a, n = reg.amplitudes, reg.n_qubits
    p_cond = _norm2(_view(a, n, conds, bits))
    if p_cond < 1e-30:
        raise ZeroProbabilityError("conditioning event has zero probability")
    return _norm2(_view(a, n, conds + [int(query_qubit)], bits + [1])) / p_cond


def register_to_csv(reg: QuantumRegister, path_or_buf) -> None:
    """Debug dump: one row per basis state, ``index,bitstring,re,im``.

    Write-only: the package has no public reader for it.
    """
    n = reg.n_qubits
    rows = ((str(i), format(i, f"0{n}b"), a.real, a.imag) for i, a in enumerate(reg.amplitudes))
    write_rows(path_or_buf, "index,bitstring,re,im", rows)
