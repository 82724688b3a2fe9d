"""n-qubit statevector register and the perceptron gates acting on it.

Conventions, fixed once for the whole package:

- Bitstrings read left to right: qubit 0 is the leftmost character and the
  most significant bit of the amplitude index, so ``init_basis(2, "10")``
  puts the amplitude at index 0b10 = 2.  _view alone maps qubits to amplitude
  positions.
- The active state is |1> with sz|1> = +|1>, sz|0> = -|0>; the excitation
  probability of a qubit is P = (1 + <sz>) / 2.  Two-level vectors are
  (amp0, amp1) pairs everywhere, and a scalar input gives a Python float.
- The activation field of a gate is x = sum_k w_k z_k - bias with z_k = +/-1
  the sz eigenvalue of source qubit k.
- The ideal gate rotates the target by chi(x) about y with the sign fixed so
  |0> maps to sqrt(1-f)|0> + sqrt(f)|1> (matrix [[c, -s], [s, c]] on the pair).

Gates act in O(2^n) on the amplitudes viewed as a (2,)*n tensor with qubit
k on axis k: every gate is one 2x2 matrix per source configuration (a
rotation, or U(x) H of a hardware gate) on the target's two halves, slices
of its axis, broadcast over the other axes by one kernel in slabs of at most
_SLAB amplitudes; no 2^n x 2^n matrix is ever materialized.  Hardware gates
integrate, in one sweep, only the fields of occupied source configurations:
an unoccupied one holds exact zeros, which every propagator keeps.
Registers are values: every operation returns a new register, whose
amplitude array is frozen read-only and reachable through no other name.
Every gate or pass checks, builds its steps (_ideal_step, _hardware_steps or a
rotation) and runs them in place in _in_place, checked around each step, on
a buffer it owns: a network pass in its one state, an apply_* entry in a copy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._io import as_index, check_bits, require_finite, require_type
from .activation import ActivationKind, _check_kind, chi
from .dynamics import _HADAMARD, schedule_propagators

__all__ = [
    "MAX_QUBITS",
    "QuantumRegister",
    "PerceptronGateSpec",
    "ZeroProbabilityError",
    "init_basis",
    "apply_ideal_perceptron",
    "apply_hardware_perceptron",
    "excitation_probability",
    "conditional_probability",
]

MAX_QUBITS = 24
_SLAB = 1 << 16  # amplitudes, both halves together, that the pair kernel takes at a time


class ZeroProbabilityError(ValueError):
    """Conditioning event has zero probability; the conditional is undefined."""


def _dimension(n: int) -> int:
    """2^n for an integer n in [1, MAX_QUBITS]; any other n raises before any allocation."""
    if not (1 <= as_index(n, "n_qubits") <= MAX_QUBITS):
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
    return 1 << n


@dataclass(frozen=True, eq=False)
class QuantumRegister:
    """2^n amplitudes of norm-squared 1, held as a frozen copy of the array given, so that
    no view of the caller's can write into the register; equal only to itself."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _adopt(as_index(self.n_qubits, "n_qubits"), np.array(self.amplitudes, dtype=complex), self)


def _check(n: int, amps: np.ndarray) -> None:
    """Refuse amps unless it is 2^n finite amplitudes of norm-squared 1 (by vdot, no temporary)."""
    if amps.shape != (_dimension(n),):
        raise ValueError("amplitude count must be 2**n_qubits")
    norm = float(np.vdot(amps, amps).real)
    if not abs(norm - 1.0) <= 1e-10:  # a nan norm fails too
        if not np.all(np.isfinite(amps)):
            raise ValueError("register amplitudes must be finite")
        raise ValueError(f"register norm-squared {norm} is not 1")


def _adopt(n: int, amps: np.ndarray, reg: QuantumRegister = None) -> QuantumRegister:
    """``reg``, or a new register, taking over (checked and frozen) the fresh ``amps``."""
    _check(n, amps)
    amps.flags.writeable = False
    reg = object.__new__(QuantumRegister) if reg is None else reg
    object.__setattr__(reg, "n_qubits", n)
    object.__setattr__(reg, "amplitudes", amps)
    return reg


@dataclass(frozen=True)
class PerceptronGateSpec:
    """One perceptron gate: target qubit, weighted sources, bias, activation.

    It carries no mode: the call picks it, apply_ideal_perceptron for the
    exact rotation or apply_hardware_perceptron with a schedule.
    """

    target: int
    weights: Mapping[int, float] = field(default_factory=dict)
    bias: float = 0.0
    activation: ActivationKind = ActivationKind("algebraic")

    def __post_init__(self):
        object.__setattr__(self, "target", as_index(self.target, "target"))
        if not isinstance(self.weights, Mapping):
            raise ValueError(f"weights must map source qubits to weights, got {self.weights!r}")
        weights = {as_index(k, "source"): w for k, w in self.weights.items()}
        require_finite(weights=list(weights.values()), bias=self.bias)
        if any(np.ndim(w) for w in weights.values()):
            raise ValueError("weights must be numbers, one per source")
        if np.ndim(self.bias):
            raise ValueError("bias must be a number")
        if self.target in weights:
            raise ValueError("target cannot be one of its own sources")
        if any(k < 0 for k in weights):
            raise ValueError("source indices must be nonnegative integers")
        _check_kind(self.activation, "activation")
        object.__setattr__(self, "weights", weights)


def init_basis(n: int, bits: str) -> QuantumRegister:
    """Computational basis state |bits>."""
    amps = np.zeros(_dimension(n), dtype=complex)  # n checked first: 2.0 is no qubit count
    check_bits(bits, n, "bits")
    _view(amps, n, range(n), map(int, bits))[...] = 1.0
    return _adopt(n, amps)


def _check_qubit(n: int, q: int, name: str = "qubit") -> int:
    """q as an int, or a ValueError (not an integer) or IndexError naming it, n qubits given."""
    q = as_index(q, name)
    if not (0 <= q < n):
        raise IndexError(f"{name} {q} out of range for {n}-qubit register")
    return q


def _view(amps: np.ndarray, n: int, qubits, bits) -> np.ndarray:
    """Flat amplitudes as a (2,)*n tensor view, qubit k on axis k, keeping
    each listed qubit at its bit.

    Every gate and probability reads the bit order (qubit 0 is the most
    significant bit) from this reshape.  A kept bit is a length-1 slice, so
    every axis keeps its place; a qubit asked for both bits keeps nothing.
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


def _pair_kernel(a: np.ndarray, n: int, target: int, u) -> None:
    """Map each target pair (a0, a1) of ``a`` in place to (u00 a0 + u01 a1, u10 a0 + u11 a1);
    u's entries are scalars or arrays per source sector.  Slab by slab along the leading
    non-target axes, each product goes to scratch, u first: numpy rounds a complex product
    written over an input's memory range in another loop."""
    a0, a1 = (_view(a, n, [target], [b]) for b in (0, 1))
    k = max(0, n + 1 - _SLAB.bit_length())  # leading non-target axes to slab along
    m = k + (target < k)  # the axes they span, the target's one length-1 axis included
    u00, u01, u10, u11 = (np.broadcast_to(e, a0.shape) if m else e for row in u for e in row)
    s0, s1, s2 = (np.empty((1,) * m + a0.shape[m:], complex) for _ in range(3))
    for idx in np.ndindex(a0.shape[:m]):
        sel = tuple(slice(i, i + 1) for i in idx)
        np.multiply(u00[sel], a0[sel], out=s0)
        np.multiply(u10[sel], a0[sel], out=s1)
        np.multiply(u01[sel], a1[sel], out=s2)
        np.add(s0, s2, out=a0[sel])  # a0 is not read again
        np.multiply(u11[sel], a1[sel], out=s0)
        np.add(s1, s0, out=a1[sel])


def _in_place(n: int, amps: np.ndarray, steps) -> QuantumRegister:
    """Register of the fresh ``amps`` after each (target, u) step in place, checked around each."""
    for target, u in steps:
        _check(n, amps)
        _pair_kernel(amps, n, target, u)
    return _adopt(n, amps)


def _rotation(ang):
    """[[c, -s], [s, c]] at each sector's angle."""
    c, s = np.cos(ang), np.sin(ang)
    return (c, -s), (s, c)


def _gate_field(n: int, gate) -> np.ndarray:
    """Activation field x = sum w_k z_k - bias of each source sector of an n-qubit register."""
    _check_qubit(n, gate.target, "target")
    for k in gate.weights:
        _check_qubit(n, k, "source")
    return _sector_field(n, gate.weights, -float(gate.bias), (-1.0, 1.0))


def _ideal_step(n: int, gate):
    """(target, rotation by chi(x) per source sector) of an ideal gate on n qubits."""
    return gate.target, _rotation(chi(gate.activation, _gate_field(n, gate)))


def apply_ideal_perceptron(reg: QuantumRegister, gate: PerceptronGateSpec) -> QuantumRegister:
    """Exact conditional rotation by chi(x) on the target (O(2^n)), in place in a copy of reg."""
    n = require_type(reg, QuantumRegister, "reg").n_qubits
    step = _ideal_step(n, require_type(gate, PerceptronGateSpec, "gate"))
    return _in_place(n, reg.amplitudes.copy(), [step])


def apply_hardware_perceptron(reg: QuantumRegister, schedule, *gates) -> QuantumRegister:
    """Adiabatic protocol on each target of one gate or a pass's gates, in
    order: a Hadamard, then the driven ramp U(x) at each source sector's
    field x, applied as the one matrix U(x) H per occupied sector.  All are
    checked, then their occupied fields integrated in one sweep of the one
    ``schedule`` (the paper runs each layer as one Ising passage), on a grid
    sized by the largest |x|, before any acts.  Occupancy is read from
    ``reg``: exact, as a gate keeps each target pair's norm, but on a source
    an earlier gate targets, where both its values count.  The physical
    evolution keeps each sector's dynamical phase, unobservable in z-basis
    feed-forward circuits.
    """
    n = require_type(reg, QuantumRegister, "reg").n_qubits
    if not gates or not all(isinstance(gate, PerceptronGateSpec) for gate in gates):
        raise ValueError("gates must be one or more PerceptronGateSpec arguments, got "
                         f"{[type(gate).__name__ for gate in gates]}")
    steps = _hardware_steps(n, reg.amplitudes, schedule, gates)
    return _in_place(n, reg.amplitudes.copy(), steps)


def _hardware_steps(n: int, amps: np.ndarray, schedule, gates):
    """Lazy (target, U(x) H per sector) steps; gates checked and occupied fields integrated now."""
    nonzero = _view(amps, n, [], []) != 0
    fields, targeted = [], set()
    for gate in gates:
        x = _gate_field(n, gate)
        free = tuple(k for k in range(n) if k not in gate.weights.keys() - targeted)
        occ = np.broadcast_to(np.any(nonzero, axis=free, keepdims=True), x.shape)
        fields.append(np.where(occ, x, x[occ][0]))  # any field keeps an unoccupied sector's zeros
        targeted.add(gate.target)
    del nonzero  # a pass holds one state and the slab scratch
    xu, inv = np.unique(np.concatenate([x.ravel() for x in fields]), return_inverse=True)
    u = (schedule_propagators(schedule, xu) @ _HADAMARD).transpose(1, 2, 0)  # u[i, j] per x
    parts = np.split(inv, np.cumsum([x.size for x in fields])[:-1])
    return ((g.target, u[:, :, i.reshape(x.shape)]) for g, x, i in zip(gates, fields, parts))


def _norm2(psi: np.ndarray) -> float:
    return float(np.sum(np.abs(psi) ** 2))


def excitation_probability(reg: QuantumRegister, qubit: int) -> float:
    """P(qubit = 1) = (1 + <sz>) / 2."""
    n = reg.n_qubits
    return _norm2(_view(reg.amplitudes, n, [_check_qubit(n, qubit)], [1]))


def conditional_probability(reg, condition_qubits, condition_bits, query_qubit) -> float:
    """P(query = 1 | condition qubits carry the given bits).

    Raises ZeroProbabilityError when the conditioning event has zero
    probability (squared norm below 1e-30).
    """
    n = reg.n_qubits
    conds = [_check_qubit(n, q, "condition qubit") for q in condition_qubits]
    bits = [int(b) if isinstance(b, bool) else as_index(b, "condition bit")  # True is a bit
            for b in condition_bits]
    if len(conds) != len(bits) or any(b not in (0, 1) for b in bits):
        raise ValueError("condition bits must pair 0/1 values with the qubits")
    query = _check_qubit(n, query_qubit, "query qubit")
    p_cond = _norm2(_view(reg.amplitudes, n, conds, bits))
    if p_cond < 1e-30:
        raise ZeroProbabilityError("conditioning event has zero probability")
    return _norm2(_view(reg.amplitudes, n, conds + [query], bits + [1])) / p_cond
