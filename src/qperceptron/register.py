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

Gates act in O(2^n) by iterating over target amplitude pairs grouped by
source configuration; no 2^n x 2^n matrix is ever materialized.  Registers
are values: every operation returns a new register and amplitude arrays are
frozen read-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from ._io import open_text
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
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"register norm-squared {norm} is not 1")
        object.__setattr__(self, "amplitudes", _frozen(self.amplitudes))

    def bit(self, index: int, qubit: int) -> int:
        return (index >> (self.n_qubits - 1 - qubit)) & 1


@dataclass(frozen=True)
class PerceptronGateSpec:
    """One perceptron gate: target qubit, weighted sources, bias, activation.

    ``schedule is None`` selects the ideal (exact rotation) mode; a control
    schedule selects the hardware mode, which runs the full adiabatic
    protocol per source sector.
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

    @property
    def mode(self) -> str:
        return "ideal" if self.schedule is None else "hardware"


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


def _pair_indices(n: int, target: int):
    """Indices (i0, i1) of all amplitude pairs split by the target bit."""
    shift = n - 1 - target
    stride = 1 << shift
    idx = np.arange(1 << (n - 1))
    low = idx & (stride - 1)
    high = (idx >> shift) << (shift + 1)
    i0 = high | low
    return i0, i0 | stride


def _pair_fields(reg, gate, i0):
    """Activation field x = sum w_k z_k - bias for each pair's source bits."""
    x = np.full(i0.shape, -float(gate.bias))
    n = reg.n_qubits
    for k, w in gate.weights.items():
        z = 2.0 * ((i0 >> (n - 1 - k)) & 1) - 1.0
        x = x + w * z
    return x


def _validate_gate(reg, gate):
    _check_qubit(reg, gate.target)
    for k in gate.weights:
        _check_qubit(reg, int(k))


def apply_hadamard(reg: QuantumRegister, target: int) -> QuantumRegister:
    _check_qubit(reg, target)
    i0, i1 = _pair_indices(reg.n_qubits, target)
    a = reg.amplitudes
    r = 1.0 / math.sqrt(2.0)
    out = np.empty_like(a)
    out[i0] = r * (a[i0] + a[i1])
    out[i1] = r * (a[i0] - a[i1])
    return QuantumRegister(reg.n_qubits, out)


def apply_ideal_perceptron(reg: QuantumRegister, gate: PerceptronGateSpec) -> QuantumRegister:
    """Exact conditional rotation by chi(x) on the target (O(2^n))."""
    if gate.mode != "ideal":
        raise ValueError("gate is in hardware mode; use apply_hardware_perceptron")
    _validate_gate(reg, gate)
    i0, i1 = _pair_indices(reg.n_qubits, gate.target)
    return _rotate_pairs(reg, i0, i1, chi(gate.activation, _pair_fields(reg, gate, i0)))


def _rotate_pairs(reg: QuantumRegister, i0, i1, ang) -> QuantumRegister:
    """Rotate each (i0, i1) amplitude pair by [[c, -s], [s, c]] at its angle."""
    c, s = np.cos(ang), np.sin(ang)
    a = reg.amplitudes
    out = np.empty_like(a)
    out[i0] = c * a[i0] - s * a[i1]
    out[i1] = s * a[i0] + c * a[i1]
    return QuantumRegister(reg.n_qubits, out)


def _gauge_fix(U: np.ndarray) -> np.ndarray:
    """Remove each sector's global phase (diagnostic gauge, not physics)."""
    out = U.copy()
    for i in range(U.shape[0]):
        ref = U[i, 0, 0] if abs(U[i, 0, 0]) > 1e-12 else U[i, 1, 0]
        out[i] *= np.exp(-1j * np.angle(ref))
    return out


def apply_hardware_perceptron(
    reg: QuantumRegister,
    gate: PerceptronGateSpec,
    strip_sector_phases: bool = False,
    tol: float = 1e-9,
) -> QuantumRegister:
    """Adiabatic protocol on the target: Hadamard, then the driven ramp per
    source sector with x fixed by that sector's configuration.

    The physical evolution keeps each sector's dynamical phase.  For z-basis
    feed-forward circuits those phases are unobservable;
    ``strip_sector_phases`` exists to assert exactly that equivalence in
    tests and is not part of the protocol.
    """
    if gate.mode != "hardware":
        raise ValueError("gate is in ideal mode; use apply_ideal_perceptron")
    _validate_gate(reg, gate)
    reg = apply_hadamard(reg, gate.target)
    i0, i1 = _pair_indices(reg.n_qubits, gate.target)
    x = _pair_fields(reg, gate, i0)
    xu, inv = np.unique(x, return_inverse=True)
    U = schedule_propagators(gate.schedule, xu, tol=tol)
    if strip_sector_phases:
        U = _gauge_fix(U)
    u = U[inv]
    a = reg.amplitudes
    out = np.empty_like(a)
    out[i0] = u[:, 0, 0] * a[i0] + u[:, 0, 1] * a[i1]
    out[i1] = u[:, 1, 0] * a[i0] + u[:, 1, 1] * a[i1]
    return QuantumRegister(reg.n_qubits, out)


def excitation_probability(reg: QuantumRegister, qubit: int) -> float:
    """P(qubit = 1) = (1 + <sz>) / 2."""
    _check_qubit(reg, qubit)
    bits = (np.arange(reg.amplitudes.size) >> (reg.n_qubits - 1 - qubit)) & 1
    return float(np.sum(np.abs(reg.amplitudes[bits == 1]) ** 2))


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
    n = reg.n_qubits
    idx = np.arange(reg.amplitudes.size)
    mask = np.ones(idx.size, dtype=bool)
    for q, b in zip(conds, bits):
        mask &= ((idx >> (n - 1 - q)) & 1) == b
    p2 = np.abs(reg.amplitudes) ** 2
    p_cond = float(np.sum(p2[mask]))
    if p_cond < 1e-30:
        raise ZeroProbabilityError("conditioning event has zero probability")
    hit = mask & (((idx >> (n - 1 - query_qubit)) & 1) == 1)
    return float(np.sum(p2[hit])) / p_cond


def register_to_csv(reg: QuantumRegister, path_or_buf) -> None:
    """Debug dump: one row per basis state, ``index,bitstring,re,im``."""
    with open_text(path_or_buf, "w") as fh:
        fh.write("index,bitstring,re,im\n")
        for i, amp in enumerate(reg.amplitudes):
            bits = format(i, f"0{reg.n_qubits}b")
            fh.write(f"{i},{bits},{float(amp.real)!r},{float(amp.imag)!r}\n")
