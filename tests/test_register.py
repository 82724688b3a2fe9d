"""Register and gate tests against dense-matrix and closed-form oracles."""
import ast
import inspect
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from qperceptron import dynamics, register
from qperceptron.activation import ALGEBRAIC, STEP, cao_arctan, eval_CS, eval_f
from qperceptron.control import faquad_schedule
from qperceptron.register import (
    PerceptronGateSpec,
    QuantumRegister,
    ZeroProbabilityError,
    apply_hardware_perceptron,
    apply_ideal_perceptron,
    conditional_probability,
    excitation_probability,
    init_basis,
)
from qperceptron.network import NetworkSpec, layered_network
from qperceptron.synthesis import CompositionSpec, apply_composition
from qperceptron.training import batch_state_forward, cross_entropy_cost, prime_dataset
from ode_oracles import H2, SZ, apply_hadamard, dop853_ising_passage, kron_on
from test_register_properties import dense_gate

X_REF = 1.2720196495140690


def random_state(n, rng):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return QuantumRegister(n, v / np.linalg.norm(v))


def dense_hardware_gate(reg, schedule, gate):
    """The gate as one dense Ising passage on its target under ``schedule``,
    with the field the diagonal operator -bias + sum_k w_k sz_k."""
    n = reg.n_qubits
    field = -gate.bias + sum(wk * np.diag(kron_on(n, k, SZ)).real
                             for k, wk in gate.weights.items())
    return dop853_ising_passage(reg.amplitudes, [gate.target], [field], schedule)


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

    def test_oversized_register_is_refused_before_allocating(self):
        # 2^40 amplitudes would take 16 TiB; the qubit count is checked first
        with pytest.raises(ValueError, match=r"^n_qubits must be in \[1, 24\]$"):
            init_basis(40, "0" * 40)

    def test_register_validation(self):
        with pytest.raises(ValueError):
            QuantumRegister(2, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            QuantumRegister(1, np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match=r"^n_qubits must be in \[1, 24\]$"):
            QuantumRegister(25, np.zeros(2, dtype=complex))

    def test_list_amplitudes(self):
        amps = [0.6, 0.8j]
        reg = QuantumRegister(1, amps)
        assert np.array_equal(reg.amplitudes, QuantumRegister(1, np.array(amps)).amplitudes)
        assert reg.amplitudes.dtype == complex and not reg.amplitudes.flags.writeable
        with pytest.raises(ValueError, match=r"amplitude count must be 2\*\*n_qubits"):
            QuantumRegister(2, amps)

    @pytest.mark.parametrize("amps", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0],
                                      [complex(0.0, np.nan), 1.0]])
    def test_nonfinite_amplitudes_are_named(self, amps):
        # a nan norm compares False against any tolerance, so it must be caught apart
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            QuantumRegister(1, np.array(amps, dtype=complex))

    def test_registers_compare_and_hash_by_identity(self):
        # equal-field comparison compared the amplitude arrays and raised
        a, b = init_basis(2, "00"), init_basis(2, "00")
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_amplitudes_read_only(self):
        reg = init_basis(1, "0")
        with pytest.raises(ValueError):
            reg.amplitudes[0] = 0.0

    def test_callers_array_stays_its_own(self):
        # a writable array is copied: the caller may still write it, and the
        # write does not reach the register; a refused one is left writable
        a = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        reg = QuantumRegister(2, a)
        a[:2] = 0.0, 1.0
        assert a.flags.writeable and reg.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]
        b = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="amplitude count"):
            QuantumRegister(2, b)
        assert b.flags.writeable

    def test_view_taken_before_freezing_cannot_write(self):
        # a frozen array is copied too: numpy cannot see a writable view of
        # it taken before it was frozen
        a = np.zeros(4, complex)
        v = a[:]
        a[0] = 1
        a.flags.writeable = False
        reg = QuantumRegister(2, a)
        v[3] = 5
        assert reg.amplitudes.tolist() == [1, 0, 0, 0]
        assert excitation_probability(reg, 1) == 0.0

    @pytest.mark.parametrize("owner, make", [
        (register.init_basis, lambda reg: init_basis(reg.n_qubits, "1" * reg.n_qubits)),
        (apply_ideal_perceptron, lambda reg: apply_ideal_perceptron(
            reg, PerceptronGateSpec(reg.n_qubits - 1, {0: 1.0}, 0.3))),
        (apply_composition, lambda reg: apply_composition(
            reg, CompositionSpec(((1.0, 0.5, 1),)), reg.n_qubits - 1, {0: 1.0})),
    ], ids=["init_basis", "gate", "composition"])
    def test_new_state_is_not_copied(self, owner, make):
        # the one state-sized block allocated is the buffer that ``owner``
        # made: the runner fills it in place and the register takes it over
        reg = apply_hadamard(init_basis(14, "0" * 14), 0)
        tracemalloc.start()
        try:
            out = make(reg)
            blocks = [t.traceback[0] for t in tracemalloc.take_snapshot().traces
                      if t.size == out.amplitudes.nbytes]
        finally:
            tracemalloc.stop()
        lines, first = inspect.getsourcelines(owner)
        assert [(f.filename, first <= f.lineno < first + len(lines)) for f in blocks] == [
            (owner.__code__.co_filename, True)]

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

    @pytest.mark.parametrize("make, message", [
        (lambda: PerceptronGateSpec(target=0, weights={-1: 1.0}),
         "source indices must be nonnegative integers"),
        (lambda: PerceptronGateSpec(target=0, weights={1.5: 1.0}),
         r"source must be an integer, got 1\.5"),
        (lambda: conditional_probability(init_basis(2, "00"), [0], [0, 1], 1),
         "condition bits must pair 0/1 values with the qubits"),
        (lambda: conditional_probability(init_basis(2, "00"), [0], [2], 1),
         "condition bits must pair 0/1 values with the qubits"),
    ], ids=["negative_source", "float_source", "bit_count", "bit_value"])
    def test_malformed_argument_is_named(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: conditional_probability(init_basis(2, "10"), [0.5], [1], 1),
         r"condition qubit must be an integer, got 0\.5"),
        (lambda: conditional_probability(init_basis(2, "10"), [0], [1.0], 1),
         r"condition bit must be an integer, got 1\.0"),
        (lambda: conditional_probability(init_basis(2, "10"), [0], [1], 1.0),
         r"query qubit must be an integer, got 1\.0"),
        (lambda: excitation_probability(init_basis(2, "10"), 0.5),
         r"qubit must be an integer, got 0\.5"),
        (lambda: apply_hadamard(init_basis(2, "10"), 1.0), r"target must be an integer, got 1\.0"),
        (lambda: PerceptronGateSpec(target=1.5), r"target must be an integer, got 1\.5"),
        (lambda: PerceptronGateSpec(target="1"), "target must be an integer, got '1'"),
    ], ids=["condition_qubit", "condition_bit", "query_qubit", "excitation_qubit",
            "hadamard_target", "gate_target", "gate_target_str"])
    def test_non_integer_index_is_named(self, make, message):
        # int() truncated 0.5 to qubit 0; a float index reached _view's list
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_integer_like_indices_are_accepted(self):
        reg = init_basis(2, "10")
        p = conditional_probability(reg, [np.int64(0)], [True], np.int64(1))
        assert p == conditional_probability(reg, [0], [1], 1) == 0.0
        gate = PerceptronGateSpec(target=np.int64(1), weights={np.int64(0): 1.0})
        assert type(gate.target) is int
        assert excitation_probability(apply_ideal_perceptron(reg, gate), np.int64(1)) == \
            pytest.approx(eval_f(ALGEBRAIC, 1.0), abs=1e-12)


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
        M = dense_gate(3, gate)
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
        with pytest.raises(TypeError, match="schedule"):  # the call picks the mode, not the gate
            PerceptronGateSpec(target=0, schedule=faquad_schedule(100, 1, 1, X_REF))


class TestHardwareGate:
    def test_single_qubit_matches_protocol(self):
        # the oracle is one DOP853 solve from |+> at x = -bias, sharing no
        # code with the gate's propagators
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        gate = PerceptronGateSpec(target=0, bias=-1.0)
        start = init_basis(1, "0")
        reg = apply_hardware_perceptron(start, sched, gate)
        ref = dense_hardware_gate(start, sched, gate)
        assert abs(reg.amplitudes[0] - ref[0]) < 1e-8
        assert abs(reg.amplitudes[1] - ref[1]) < 1e-8

    def test_three_qubit_distribution_near_ideal(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        w = {0: 1.4, 1: -2.2}
        reg = init_basis(3, "000")
        reg = apply_hadamard(reg, 0)
        reg = apply_hadamard(reg, 1)
        hard = apply_hardware_perceptron(
            reg, sched, PerceptronGateSpec(target=2, weights=w, bias=0.6)
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
        gate = PerceptronGateSpec(target=3, weights={0: 1.1, 1: -0.8, 2: 1.9}, bias=0.35)
        reg = random_state(4, rng)
        got = apply_hardware_perceptron(reg, sched, gate)
        assert np.max(np.abs(got.amplitudes - dense_hardware_gate(reg, sched, gate))) < 1e-8

    def test_unoccupied_sectors_dense_oracle(self):
        # sources 0 and 1 sit in |1>|0>, source 2 and the target in a random
        # superposition: 2 of the 8 source sectors hold amplitude, and only
        # their fields are integrated
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        rng = np.random.default_rng(37)
        gate = PerceptronGateSpec(target=3, weights={0: 1.1, 1: -0.8, 2: 1.9}, bias=0.35)
        amps = np.kron([0.0, 0.0, 1.0, 0.0], random_state(2, rng).amplitudes)
        reg = QuantumRegister(4, amps)
        got = apply_hardware_perceptron(reg, sched, gate).amplitudes
        assert np.max(np.abs(got - dense_hardware_gate(reg, sched, gate))) < 1e-8
        assert np.all(got[amps == 0] == 0)

    def test_sector_phases_invisible_in_z_basis(self, monkeypatch):
        # feed-forward circuit: per-sector global phases cannot move any
        # z-basis probability
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        reg = init_basis(4, "0000")
        for q in (0, 1):
            reg = apply_hadamard(reg, q)
        g1 = PerceptronGateSpec(target=2, weights={0: 1.2, 1: -0.9}, bias=0.3)
        g2 = PerceptronGateSpec(target=3, weights={0: 0.7, 2: 1.5}, bias=-0.4)
        phys = apply_hardware_perceptron(apply_hardware_perceptron(reg, sched, g1), sched, g2)
        propagators = register.schedule_propagators

        def phase_stripped(schedule, xs):
            # divide each matrix by the phase of its first entry above 1e-12
            U = propagators(schedule, xs)
            ref = np.where(np.abs(U[:, 0, 0]) > 1e-12, U[:, 0, 0], U[:, 1, 0])
            return U * np.exp(-1j * np.angle(ref))[:, None, None]

        monkeypatch.setattr(register, "schedule_propagators", phase_stripped)
        bare = apply_hardware_perceptron(apply_hardware_perceptron(reg, sched, g1), sched, g2)
        p_phys = np.abs(phys.amplitudes) ** 2
        p_bare = np.abs(bare.amplitudes) ** 2
        assert np.max(np.abs(p_phys - p_bare)) < 1e-10

    def test_gate_in_the_schedules_place_is_refused(self, monkeypatch):
        # the schedule is the second argument: the old call form, with no
        # schedule, leaves no gate; a gate in its place is no schedule
        calls = []
        monkeypatch.setattr(dynamics, "_propagate", lambda *args: calls.append(args))
        g1 = PerceptronGateSpec(target=1, weights={0: 1.0})
        g2 = PerceptronGateSpec(target=2, weights={0: 0.5})
        with pytest.raises(ValueError, match="^gates must be one or more PerceptronGateSpec"):
            apply_hardware_perceptron(init_basis(3, "100"), g1)
        with pytest.raises(ValueError, match="^invalid schedule"):
            apply_hardware_perceptron(init_basis(3, "100"), g1, g2)
        assert calls == []

    def test_run_is_checked_before_its_sweep(self, monkeypatch):
        # the last gate of a run sources a qubit the register lacks: nothing
        # is integrated, not even the valid gates before it
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        calls = []
        monkeypatch.setattr(register, "schedule_propagators", lambda *a: calls.append(a))
        run = [PerceptronGateSpec(target=1, weights={0: 1.0}),
               PerceptronGateSpec(target=2, weights={0: 0.5}),
               PerceptronGateSpec(target=3, weights={0: 2.0, 7: 1.0})]
        with pytest.raises(IndexError, match="source 7 out of range"):
            apply_hardware_perceptron(init_basis(4, "1000"), sched, *run)
        assert calls == []

    def test_no_gate_or_a_list_is_refused_before_any_sweep(self, monkeypatch):
        # the gates of a pass are arguments: a list passed as one is refused
        # by name, like a call with no gate, and nothing is integrated
        calls = []
        monkeypatch.setattr(register, "schedule_propagators", lambda *a: calls.append(a))
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        run = [PerceptronGateSpec(target=1, weights={0: 1.0})]
        for gates in ((), (run,)):
            with pytest.raises(ValueError, match="^gates must be one or more PerceptronGateSpec"):
                apply_hardware_perceptron(init_basis(2, "10"), sched, *gates)
        assert calls == []


N_MEM = 19
STATE = 16 << N_MEM  # bytes of one 19-qubit state
ALLOWANCE = 2 << 20  # 2 MiB: the pair kernel's slab scratch (1.5 MiB) and arrays of a few sectors


def peak_bytes(call):
    """tracemalloc's peak over call(), its result included: what the call
    allocated beyond the arrays that already existed."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneBuffer:
    """A pass holds one state plus slab scratch; a gate, its new state too."""

    def test_ideal_pass_holds_one_state(self):
        rng = np.random.default_rng(5)
        base = layered_network(3, (N_MEM - 4,))
        n = base.n_total
        b = np.concatenate([np.zeros(3), rng.uniform(-1.0, 1.0, n - 3)])
        net = NetworkSpec(3, base.layer_sizes, base.mask, base.mask * rng.uniform(-2, 2, (n, n)), b)
        assert n == N_MEM
        assert peak_bytes(lambda: batch_state_forward(net, prime_dataset(3))) <= \
            1.25 * STATE + ALLOWANCE

    def test_hardware_pass_holds_one_state(self):
        # the hardware pass writes its gates in its one state, as the ideal one does
        rng = np.random.default_rng(7)
        base = layered_network(3, (N_MEM - 4,))
        n = base.n_total
        b = np.concatenate([np.zeros(3), rng.choice([-0.5, 0.5], n - 3)])
        net = NetworkSpec(3, base.layer_sizes, base.mask, base.mask * rng.choice([-1.0, 1.0], (n, n)), b)
        sched = faquad_schedule(20.0, 1.0, 2.0, X_REF)
        assert n == N_MEM
        assert peak_bytes(lambda: cross_entropy_cost(net, prime_dataset(3), sched)) <= \
            1.35 * STATE + ALLOWANCE

    @pytest.mark.parametrize("call", [
        lambda reg, every: apply_ideal_perceptron(
            reg, PerceptronGateSpec(N_MEM - 1, every, 0.3)),
        lambda reg, every: apply_composition(
            reg, CompositionSpec(((1.0, 0.5, 1), (2.0, -0.5, -1))), N_MEM - 1, every),
        lambda reg, every: apply_hardware_perceptron(
            reg, faquad_schedule(20.0, 1.0, 2.0, X_REF),
            PerceptronGateSpec(N_MEM - 1, {0: 1.0, 1: -0.5}, 0.2),
            PerceptronGateSpec(N_MEM - 2, {0: 0.7}, -0.1),
            PerceptronGateSpec(N_MEM - 3, {2: 0.4})),
    ], ids=["ideal_every_source", "composition_every_source", "hardware_pass"])
    def test_gate_holds_two_states(self, call):
        # the new state, the gate's matrices (0.75 states with every other
        # qubit a source) and the slab scratch; the input is not counted
        reg = random_state(N_MEM, np.random.default_rng(6))
        every = {k: 0.1 * (k + 1) for k in range(N_MEM - 1)}
        assert peak_bytes(lambda: call(reg, every)) <= 2.25 * STATE + ALLOWANCE


def names_in(path, names):
    """(name, enclosing function) of each def, import, name or attribute in a module
    spelled as one of ``names``; "<module>" outside any function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            name = (child.name if is_def or isinstance(child, ast.alias) else
                    child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name in names:
                found.append((name, scope))
            visit(child, child.name if is_def else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def names_by_module(names):
    """names_in of every module of the package, tests, demos and perfbench that names any."""
    root = pathlib.Path(__file__).parents[1]
    paths = [p for d in ("src/qperceptron", "tests", "demos", "perfbench")
             for p in sorted((root / d).glob("*.py"))]
    found = {p.relative_to(root).as_posix(): names_in(p, names) for p in paths}
    return {k: v for k, v in found.items() if v}


class TestOneRunner:
    """Every gate runs through register._in_place, the pair kernel's one caller:
    a single gate is a one-step pass on a copy, so no second runner is kept.
    Hardware steps are built by _hardware_steps for the public entry and the
    network's pass alone, and only register makes a register of an array."""

    def test_pair_kernel_is_called_from_in_place_only(self):
        assert names_by_module(("_pair_kernel", "_update_pairs")) == {
            "src/qperceptron/register.py": [("_pair_kernel", "<module>"),
                                            ("_pair_kernel", "_in_place")]}

    def test_hardware_steps_have_two_callers_and_registers_one_maker(self):
        assert set(names_by_module(("_adopt",))) == {"src/qperceptron/register.py"}
        assert names_by_module(("_hardware_steps",)) == {
            "src/qperceptron/register.py": [("_hardware_steps", "apply_hardware_perceptron"),
                                            ("_hardware_steps", "<module>")],
            "src/qperceptron/network.py": [("_hardware_steps", "<module>"),
                                           ("_hardware_steps", "_pass")]}
        network_py = pathlib.Path(__file__).parents[1] / "src/qperceptron/network.py"
        assert names_in(network_py, ("apply_hardware_perceptron",)) == []

    def test_guard_sees_a_second_runner(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text("from r import _update_pairs\n"
                        "def run(r):\n    r._pair_kernel(a, n, t, u)\n", encoding="utf-8")
        assert names_in(path, ("_pair_kernel", "_update_pairs")) == [
            ("_update_pairs", "<module>"), ("_pair_kernel", "run")]

    def test_guard_sees_a_detour_through_the_public_entry(self, tmp_path):
        # the network's old hardware pass: the input adopted, then handed to the public entry
        path = tmp_path / "m.py"
        path.write_text("from .register import _adopt, apply_hardware_perceptron\n"
                        "def _pass(net, amps, s):\n"
                        "    return apply_hardware_perceptron(_adopt(n, amps), s, *net.gates())\n",
                        encoding="utf-8")
        assert names_in(path, ("_adopt", "_hardware_steps", "apply_hardware_perceptron")) == [
            ("_adopt", "<module>"), ("apply_hardware_perceptron", "<module>"),
            ("apply_hardware_perceptron", "_pass"), ("_adopt", "_pass")]


class TestObservables:
    def test_basis_and_plus(self):
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
