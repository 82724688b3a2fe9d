"""Property tests of the register gates, observables and compositions.

The oracles work on flat basis indices with their own bit arithmetic
(``format(i, "0nb")``, qubit 0 leftmost), sharing nothing with the
register's axis view.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperceptron import register
from qperceptron.activation import ALGEBRAIC, LOGISTIC, chi, eval_f
from qperceptron.control import faquad_schedule
from qperceptron.dynamics import schedule_propagators
from qperceptron.register import (
    PerceptronGateSpec,
    QuantumRegister,
    ZeroProbabilityError,
    apply_hardware_perceptron,
    apply_ideal_perceptron,
    conditional_probability,
    excitation_probability,
)
from qperceptron.synthesis import CompositionSpec, apply_composition, composition_angle

finite = dict(allow_nan=False, allow_infinity=False)
weight = st.floats(-3.0, 3.0, **finite)


def bits_of(i, n):
    return [int(c) for c in format(i, f"0{n}b")]


def random_register(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return QuantumRegister(n, v / np.linalg.norm(v))


@st.composite
def registers(draw, min_qubits=1):
    n = draw(st.integers(min_qubits, 6))
    return random_register(n, draw(st.integers(0, 2**32 - 1)))


@st.composite
def source_sets(draw, others):
    """A possibly empty, non-contiguous subset of others, in random order."""
    perm = draw(st.permutations(others))
    return perm[: draw(st.integers(0, len(perm)))]


@st.composite
def gates(draw, n):
    """Ideal gate on any target of an n-qubit register."""
    target = draw(st.integers(0, n - 1))
    others = [k for k in range(n) if k != target]
    weights = {k: draw(weight) for k in draw(source_sets(others))}
    return PerceptronGateSpec(
        target=target,
        weights=weights,
        bias=draw(weight),
        activation=draw(st.sampled_from([ALGEBRAIC, LOGISTIC])),
    )


def dense_rotation(n, target, angle):
    """2^n x 2^n matrix rotating the target by angle(bits) in each basis state."""
    M = np.zeros((1 << n, 1 << n))
    for i in range(1 << n):
        b = bits_of(i, n)
        ang = angle(b)
        flipped = list(b)
        flipped[target] ^= 1
        j = int("".join(map(str, flipped)), 2)
        M[i, i] = math.cos(ang)
        M[j, i] = math.sin(ang) if b[target] == 0 else -math.sin(ang)
    return M


def dense_gate(n, gate):
    def angle(b):
        x = -gate.bias + sum(w * (2 * b[k] - 1) for k, w in gate.weights.items())
        return math.asin(math.sqrt(eval_f(gate.activation, x)))

    return dense_rotation(n, gate.target, angle)


def hardware_reference(reg, schedule, gate):
    """Hadamard, then each sector's ramp, with the propagators of the fields
    of all 2^n basis states from one schedule_propagators call."""
    n, t, a = reg.n_qubits, gate.target, reg.amplitudes

    def field(b):
        return -gate.bias + sum(w * (2 * b[k] - 1) for k, w in gate.weights.items())

    xs = sorted({field(bits_of(i, n)) for i in range(1 << n)})
    U = schedule_propagators(schedule, xs)
    r = 1.0 / math.sqrt(2.0)
    out = np.zeros(1 << n, dtype=complex)
    for i in range(1 << n):
        b = bits_of(i, n)
        if b[t]:
            continue
        j = i + (1 << (n - 1 - t))
        h0, h1 = r * (a[i] + a[j]), r * (a[i] - a[j])
        u = U[xs.index(field(b))]
        out[i] = u[0, 0] * h0 + u[0, 1] * h1
        out[j] = u[1, 0] * h0 + u[1, 1] * h1
    return out


def brute_probability(reg, fixed):
    """Total probability of the basis states carrying every (qubit, bit) in fixed."""
    n = reg.n_qubits
    return sum(
        abs(a) ** 2
        for i, a in enumerate(reg.amplitudes)
        if all(bits_of(i, n)[q] == b for q, b in fixed)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ideal_gate_equals_dense_oracle(data):
    reg = data.draw(registers())
    gate = data.draw(gates(reg.n_qubits))
    got = apply_ideal_perceptron(reg, gate).amplitudes
    want = dense_gate(reg.n_qubits, gate) @ reg.amplitudes
    assert np.max(np.abs(got - want)) < 1e-12


def assert_rotation_formula(data):
    reg = data.draw(registers())
    gate = data.draw(gates(reg.n_qubits))
    n, t = reg.n_qubits, gate.target
    ang = chi(gate.activation, register._gate_field(n, gate))
    c, s = np.cos(ang), np.sin(ang)
    a = reg.amplitudes.reshape((2,) * n)
    a0, a1 = np.take(a, [0], axis=t), np.take(a, [1], axis=t)
    want = np.concatenate([c * a0 - s * a1, s * a0 + c * a1], axis=t).ravel()
    got = apply_ideal_perceptron(reg, gate).amplitudes
    assert np.array_equal(got, want)
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()  # + 0.0 turns -0.0 into +0.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ideal_gate_is_bitwise_the_rotation_formula(data):
    # the gate must compute c a0 - s a1 and s a0 + c a1 with exactly these
    # products and sums: a reassociated or fused update changes some bits
    assert_rotation_formula(data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rotation_formula_holds_across_slab_edges(data):
    # a 2-amplitude slab puts each target pair of the drawn registers in a
    # slab of its own
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(register, "_SLAB", 2)
        assert_rotation_formula(data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_excitation_probability_equals_brute_force(data):
    reg = data.draw(registers())
    q = data.draw(st.integers(0, reg.n_qubits - 1))
    assert abs(excitation_probability(reg, q) - brute_probability(reg, [(q, 1)])) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_conditional_probability_equals_brute_force(data):
    # conditions may repeat a qubit, with equal or conflicting bits, and the
    # query qubit may be one of them
    reg = data.draw(registers())
    n = reg.n_qubits
    conds = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 1))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(conds), max_size=len(conds)))
    query = data.draw(st.sampled_from(conds) if conds and data.draw(st.booleans())
                      else st.integers(0, n - 1))
    fixed = list(zip(conds, bits))
    p_cond = brute_probability(reg, fixed)
    if p_cond == 0.0:
        with pytest.raises(ZeroProbabilityError):
            conditional_probability(reg, conds, bits, query)
        return
    want = brute_probability(reg, fixed + [(query, 1)]) / p_cond
    assert abs(conditional_probability(reg, conds, bits, query) - want) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_conflicting_repeated_condition_has_zero_probability(data):
    reg = data.draw(registers())
    n = reg.n_qubits
    q = data.draw(st.integers(0, n - 1))
    others = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    conds = others + [q, q]
    bits = [data.draw(st.integers(0, 1)) for _ in others] + [0, 1]
    with pytest.raises(ZeroProbabilityError):
        conditional_probability(reg, conds, bits, data.draw(st.integers(0, n - 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composition_equals_its_cycles_in_sequence(data):
    # cycles on one target rotate it about the same axis within each
    # sector, so the stacked angle is the cycles applied one after another
    reg = data.draw(registers(min_qubits=2))
    n = reg.n_qubits
    target = data.draw(st.integers(0, n - 1))
    others = [k for k in range(n) if k != target]
    weights = {k: data.draw(weight) for k in data.draw(source_sets(others))}
    cycles = data.draw(st.lists(
        st.tuples(st.floats(0.2, 6.0, **finite), st.floats(-8.0, 8.0, **finite),
                  st.sampled_from([1, -1])),
        min_size=1, max_size=4,
    ))
    activation = data.draw(st.sampled_from([ALGEBRAIC, LOGISTIC]))
    spec = CompositionSpec(tuple(cycles), activation)
    got = apply_composition(reg, spec, target, weights)
    seq = reg
    for cycle in cycles:
        seq = apply_composition(seq, CompositionSpec((cycle,), activation), target, weights)
    assert np.max(np.abs(got.amplitudes - seq.amplitudes)) < 1e-12
    # and the conditioning value is the weighted count of excited sources
    M = dense_rotation(n, target, lambda b: composition_angle(
        spec, sum(w * b[k] for k, w in weights.items())))
    assert np.max(np.abs(got.amplitudes - M @ reg.amplitudes)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hardware_pass_is_the_same_bytes_across_slab_edges(data):
    # a pass writes its gates in place in one buffer, slab by slab: a
    # 2-amplitude slab must not move a bit
    reg = data.draw(registers(min_qubits=2))
    run = data.draw(st.lists(gates(reg.n_qubits), min_size=2, max_size=3))
    sched = faquad_schedule(20.0, 1.0, 2.0, 1.272)
    want = apply_hardware_perceptron(reg, sched, *run).amplitudes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(register, "_SLAB", 2)
        got = apply_hardware_perceptron(reg, sched, *run).amplitudes
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, reg.amplitudes)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hardware_gate_skips_only_unobservable_sectors(data):
    # zero a random set of source sectors, keeping at least one: the gate
    # integrates only the occupied sectors' fields, on a grid sized by
    # them, and must still match the all-sector reference
    reg = data.draw(registers(min_qubits=2))
    n = reg.n_qubits
    target = data.draw(st.integers(0, n - 1))
    others = [k for k in range(n) if k != target]
    gate = PerceptronGateSpec(
        target=target,
        weights={k: data.draw(weight) for k in data.draw(source_sets(others))},
        bias=data.draw(weight),
    )
    sched = faquad_schedule(20.0, 1.0, 2.0, 1.272)
    srcs = list(gate.weights)
    zeroed = set(data.draw(st.lists(st.integers(0, (1 << len(srcs)) - 1), unique=True)))
    zeroed.discard(data.draw(st.integers(0, (1 << len(srcs)) - 1)))

    def sector(i):
        b = bits_of(i, n)
        return sum(b[k] << m for m, k in enumerate(srcs))

    dead = np.array([sector(i) in zeroed for i in range(1 << n)])
    a = np.where(dead, 0.0, reg.amplitudes)
    reg = QuantumRegister(n, a / np.linalg.norm(a))
    got = apply_hardware_perceptron(reg, sched, gate).amplitudes
    assert np.max(np.abs(got - hardware_reference(reg, sched, gate))) < 1e-9
    assert np.all(got[dead] == 0)
