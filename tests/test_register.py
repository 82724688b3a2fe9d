"""Register and gate tests against dense-matrix and closed-form oracles."""
import io
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qperceptron import register
from qperceptron.activation import ALGEBRAIC, STEP, cao_arctan, eval_CS, eval_f
from qperceptron.control import faquad_schedule
from qperceptron.dynamics import perceptron_protocol
from qperceptron.register import (
    PerceptronGateSpec,
    QuantumRegister,
    ZeroProbabilityError,
    apply_hadamard,
    apply_hardware_perceptron,
    apply_ideal_perceptron,
    conditional_probability,
    excitation_probability,
    init_basis,
    register_to_csv,
    z_expectation,
)

X_REF = 1.2720196495140690
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])  # active |1> has sz = +1
H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def random_state(n, rng):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return QuantumRegister(n, v / np.linalg.norm(v))


def kron_on(n, qubit, op):
    """Dense n-qubit operator with op on one qubit (qubit 0 leftmost)."""
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == qubit else np.eye(2))
    return out


def dense_ideal_gate(n, gate):
    """Column-by-column dense oracle for the ideal perceptron gate."""
    dim = 1 << n
    M = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        x = -gate.bias + sum(w * (2 * bits[k] - 1) for k, w in gate.weights.items())
        ang = float(np.arcsin(np.sqrt(eval_f(gate.activation, x))))
        j = i ^ (1 << (n - 1 - gate.target))
        if bits[gate.target] == 0:
            M[i, i] += math.cos(ang)
            M[j, i] += math.sin(ang)
        else:
            M[i, i] += math.cos(ang)
            M[j, i] += -math.sin(ang)
    return M


def dense_hardware_gate(reg, gate):
    """Hadamard, then the ramp on the whole register as one 2^n-dimensional
    DOP853 solve of H(t) = -1/2 [Omega(t) sx_t + x sz_t], with x the
    diagonal operator -bias + sum_k w_k sz_k."""
    n, t, sched = reg.n_qubits, gate.target, gate.schedule
    xt = kron_on(n, t, SX)
    field = -gate.bias * np.eye(1 << n)
    for k, wk in gate.weights.items():
        field = field + wk * kron_on(n, k, SZ)
    h_field = field @ kron_on(n, t, SZ)
    psi0 = kron_on(n, t, H2) @ reg.amplitudes

    def rhs(tt, y):
        psi = y[: 1 << n] + 1j * y[1 << n :]
        d = -1j * ((-0.5 * float(sched.omega(tt)) * xt - 0.5 * h_field) @ psi)
        return np.concatenate([d.real, d.imag])

    y0 = np.concatenate([psi0.real, psi0.imag])
    sol = solve_ivp(rhs, (0.0, sched.tf), y0, method="DOP853", rtol=1e-11, atol=1e-11)
    return sol.y[: 1 << n, -1] + 1j * sol.y[1 << n :, -1]


class TestBasics:
    def test_init_basis(self):
        reg = init_basis(1, "0")
        assert np.allclose(reg.amplitudes, [1.0, 0.0])
        reg = init_basis(2, "10")
        assert reg.amplitudes[2] == 1.0
        assert np.sum(np.abs(reg.amplitudes) ** 2) == pytest.approx(1.0)

    def test_init_basis_validation(self):
        with pytest.raises(ValueError):
            init_basis(2, "0")
        with pytest.raises(ValueError):
            init_basis(2, "0x")

    def test_register_validation(self):
        with pytest.raises(ValueError):
            QuantumRegister(2, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            QuantumRegister(1, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            QuantumRegister(25, np.zeros(2**25, dtype=complex))

    @pytest.mark.parametrize("amps", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0],
                                      [complex(0.0, np.nan), 1.0]])
    def test_nonfinite_amplitudes_are_named(self, amps):
        # a nan norm compares False against any tolerance, so it must be caught apart
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            QuantumRegister(1, np.array(amps, dtype=complex))

    def test_amplitudes_read_only(self):
        reg = init_basis(1, "0")
        with pytest.raises(ValueError):
            reg.amplitudes[0] = 0.0

    def test_hadamard(self):
        reg = apply_hadamard(init_basis(1, "0"), 0)
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(reg.amplitudes, [r, r])
        back = apply_hadamard(reg, 0)
        assert np.allclose(back.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_hadamard_dense_oracle_middle_qubit(self):
        rng = np.random.default_rng(7)
        reg = random_state(3, rng)
        got = apply_hadamard(reg, 1)
        want = kron_on(3, 1, H2) @ reg.amplitudes
        assert np.max(np.abs(got.amplitudes - want)) < 1e-12

    def test_hadamard_index_error(self):
        with pytest.raises(IndexError):
            apply_hadamard(init_basis(1, "0"), 1)


class TestIdealGate:
    def test_no_sources_zero_bias(self):
        gate = PerceptronGateSpec(target=0)
        reg = apply_ideal_perceptron(init_basis(1, "0"), gate)
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(reg.amplitudes, [r, r], atol=1e-12)

    def test_single_source_excitation(self):
        # source |1> contributes z = +1: x = 5 and P = f(5)
        gate = PerceptronGateSpec(target=1, weights={0: 5.0})
        reg = apply_ideal_perceptron(init_basis(2, "10"), gate)
        assert excitation_probability(reg, 1) == pytest.approx(eval_f(ALGEBRAIC, 5.0), abs=1e-12)
        # source |0> contributes z = -1
        reg = apply_ideal_perceptron(init_basis(2, "00"), gate)
        assert excitation_probability(reg, 1) == pytest.approx(eval_f(ALGEBRAIC, -5.0), abs=1e-12)

    def test_dense_oracle_random_states(self):
        rng = np.random.default_rng(11)
        gate = PerceptronGateSpec(
            target=1, weights={0: 1.3, 2: -0.7}, bias=0.4, activation=ALGEBRAIC
        )
        M = dense_ideal_gate(3, gate)
        for _ in range(20):
            reg = random_state(3, rng)
            got = apply_ideal_perceptron(reg, gate)
            want = M @ reg.amplitudes
            assert np.max(np.abs(got.amplitudes - want)) < 1e-12

    def test_step_activation_sectors(self):
        gate = PerceptronGateSpec(target=1, weights={0: 2.0}, bias=0.0, activation=STEP)
        up = apply_ideal_perceptron(init_basis(2, "10"), gate)
        down = apply_ideal_perceptron(init_basis(2, "00"), gate)
        assert excitation_probability(up, 1) == pytest.approx(1.0, abs=1e-12)
        assert excitation_probability(down, 1) == pytest.approx(0.0, abs=1e-12)

    def test_cao_domain_error_propagates(self):
        gate = PerceptronGateSpec(target=1, weights={0: 2.0}, activation=cao_arctan(1))
        with pytest.raises(ValueError):
            apply_ideal_perceptron(init_basis(2, "10"), gate)

    def test_heisenberg_identities(self):
        # U+ sz U = C(x) sz + S(x) sx and U+ sx U = C(x) sx - S(x) sz
        rng = np.random.default_rng(23)
        gate = PerceptronGateSpec(
            target=2, weights={0: 0.8, 1: -1.1}, bias=0.25, activation=ALGEBRAIC
        )
        n = 3
        idx = np.arange(1 << n)
        flip = idx ^ (1 << (n - 1 - gate.target))
        zt = 2.0 * ((idx >> (n - 1 - gate.target)) & 1) - 1.0
        x = np.full(idx.shape, -gate.bias)
        for k, w in gate.weights.items():
            x += w * (2.0 * ((idx >> (n - 1 - k)) & 1) - 1.0)
        C, S = eval_CS(ALGEBRAIC, x)
        for _ in range(200):
            reg = random_state(n, rng)
            a = reg.amplitudes
            out = apply_ideal_perceptron(reg, gate).amplitudes
            lhs_z = float(np.sum(np.abs(out) ** 2 * zt))
            lhs_x = float(np.real(np.sum(np.conj(out) * out[flip])))
            rhs_z = float(np.sum(np.abs(a) ** 2 * C * zt)) + float(
                np.real(np.sum(np.conj(a) * S * a[flip]))
            )
            rhs_x = float(np.real(np.sum(np.conj(a) * C * a[flip]))) - float(
                np.sum(np.abs(a) ** 2 * S * zt)
            )
            assert abs(lhs_z - rhs_z) < 1e-10
            assert abs(lhs_x - rhs_x) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        gate = PerceptronGateSpec(target=0, weights={1: 2.0, 2: 1.0}, bias=-0.3)
        for _ in range(10):
            out = apply_ideal_perceptron(random_state(3, rng), gate)
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-10

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            PerceptronGateSpec(target=0, weights={0: 1.0})
        gate = PerceptronGateSpec(target=0, weights={5: 1.0})
        with pytest.raises(IndexError):
            apply_ideal_perceptron(init_basis(2, "00"), gate)
        hw = PerceptronGateSpec(target=0, schedule=faquad_schedule(100, 1, 1, X_REF))
        with pytest.raises(ValueError):
            apply_ideal_perceptron(init_basis(1, "0"), hw)


class TestHardwareGate:
    def test_single_qubit_matches_protocol(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        gate = PerceptronGateSpec(target=0, bias=-1.0, schedule=sched)
        reg = apply_hardware_perceptron(init_basis(1, "0"), gate)
        ref = perceptron_protocol(sched, 1.0)  # x = -bias
        assert abs(reg.amplitudes[0] - ref.amp0) < 1e-8
        assert abs(reg.amplitudes[1] - ref.amp1) < 1e-8

    def test_three_qubit_distribution_near_ideal(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        w = {0: 1.4, 1: -2.2}
        reg = init_basis(3, "000")
        reg = apply_hadamard(reg, 0)
        reg = apply_hadamard(reg, 1)
        hard = apply_hardware_perceptron(
            reg, PerceptronGateSpec(target=2, weights=w, bias=0.6, schedule=sched)
        )
        ideal = apply_ideal_perceptron(
            reg, PerceptronGateSpec(target=2, weights=w, bias=0.6)
        )
        tv = 0.5 * float(
            np.sum(np.abs(np.abs(hard.amplitudes) ** 2 - np.abs(ideal.amplitudes) ** 2))
        )
        assert tv <= 0.02

    def test_dense_four_qubit_oracle(self):
        # full 16x16 time-dependent integration vs the sector decomposition
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        rng = np.random.default_rng(31)
        gate = PerceptronGateSpec(target=3, weights={0: 1.1, 1: -0.8, 2: 1.9},
                                  bias=0.35, schedule=sched)
        reg = random_state(4, rng)
        got = apply_hardware_perceptron(reg, gate)
        assert np.max(np.abs(got.amplitudes - dense_hardware_gate(reg, gate))) < 1e-8

    def test_unoccupied_sectors_dense_oracle(self):
        # sources 0 and 1 sit in |1>|0>, source 2 and the target in a random
        # superposition: 2 of the 8 source sectors hold amplitude, and only
        # their fields are integrated
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        rng = np.random.default_rng(37)
        gate = PerceptronGateSpec(target=3, weights={0: 1.1, 1: -0.8, 2: 1.9},
                                  bias=0.35, schedule=sched)
        amps = np.kron([0.0, 0.0, 1.0, 0.0], random_state(2, rng).amplitudes)
        reg = QuantumRegister(4, amps)
        got = apply_hardware_perceptron(reg, gate).amplitudes
        assert np.max(np.abs(got - dense_hardware_gate(reg, gate))) < 1e-8
        assert np.all(got[amps == 0] == 0)

    def test_sector_phases_invisible_in_z_basis(self, monkeypatch):
        # feed-forward circuit: per-sector global phases cannot move any
        # z-basis probability
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        reg = init_basis(4, "0000")
        for q in (0, 1):
            reg = apply_hadamard(reg, q)
        g1 = PerceptronGateSpec(target=2, weights={0: 1.2, 1: -0.9}, bias=0.3, schedule=sched)
        g2 = PerceptronGateSpec(target=3, weights={0: 0.7, 2: 1.5}, bias=-0.4, schedule=sched)
        phys = apply_hardware_perceptron(apply_hardware_perceptron(reg, g1), g2)
        propagators = register.schedule_propagators

        def phase_stripped(schedule, xs):
            # divide each matrix by the phase of its first entry above 1e-12
            U = propagators(schedule, xs)
            ref = np.where(np.abs(U[:, 0, 0]) > 1e-12, U[:, 0, 0], U[:, 1, 0])
            return U * np.exp(-1j * np.angle(ref))[:, None, None]

        monkeypatch.setattr(register, "schedule_propagators", phase_stripped)
        bare = apply_hardware_perceptron(apply_hardware_perceptron(reg, g1), g2)
        p_phys = np.abs(phys.amplitudes) ** 2
        p_bare = np.abs(bare.amplitudes) ** 2
        assert np.max(np.abs(p_phys - p_bare)) < 1e-10

    def test_mode_mismatch(self):
        gate = PerceptronGateSpec(target=0)
        with pytest.raises(ValueError):
            apply_hardware_perceptron(init_basis(1, "0"), gate)


class TestObservables:
    def test_basis_and_plus(self):
        assert z_expectation(init_basis(1, "1"), 0) == pytest.approx(1.0)
        assert excitation_probability(init_basis(1, "1"), 0) == pytest.approx(1.0)
        plus = apply_hadamard(init_basis(1, "0"), 0)
        assert excitation_probability(plus, 0) == pytest.approx(0.5)

    def test_gate_then_probability(self):
        gate = PerceptronGateSpec(target=0, bias=-1.0)
        reg = apply_ideal_perceptron(init_basis(1, "0"), gate)
        assert excitation_probability(reg, 0) == pytest.approx(
            eval_f(ALGEBRAIC, 1.0), abs=1e-12
        )

    def test_conditional_product_state(self):
        reg = init_basis(2, "00")
        reg = apply_hadamard(reg, 0)
        gate = PerceptronGateSpec(target=1, bias=-0.5)
        reg = apply_ideal_perceptron(reg, gate)
        p_cond = conditional_probability(reg, [0], [1], 1)
        assert p_cond == pytest.approx(excitation_probability(reg, 1), abs=1e-12)

    def test_conditional_entangled(self):
        # 1/sqrt2 (|00> + |11>): P(q1=1 | q0=1) = 1, P(q1=1 | q0=0) = 0
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1.0 / math.sqrt(2.0)
        reg = QuantumRegister(2, amps)
        assert conditional_probability(reg, [0], [1], 1) == pytest.approx(1.0)
        assert conditional_probability(reg, [0], [0], 1) == pytest.approx(0.0)

    def test_conditional_zero_probability(self):
        reg = init_basis(2, "00")
        with pytest.raises(ZeroProbabilityError):
            conditional_probability(reg, [0], [1], 1)

    def test_index_errors(self):
        reg = init_basis(2, "00")
        with pytest.raises(IndexError):
            excitation_probability(reg, 2)
        with pytest.raises(IndexError):
            conditional_probability(reg, [5], [1], 0)


class TestCsvDump:
    def test_dump_format(self):
        reg = apply_hadamard(init_basis(2, "00"), 0)
        buf = io.StringIO()
        register_to_csv(reg, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "index,bitstring,re,im"
        assert len(lines) == 5
        i, bits, re, im = lines[1].split(",")
        assert (i, bits) == ("0", "00")
        assert float(re) == pytest.approx(1.0 / math.sqrt(2.0))
        assert float(im) == 0.0
