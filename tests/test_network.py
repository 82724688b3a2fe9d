"""Network forward passes vs the classical-mixture oracle and constructions."""
import json
import math
from itertools import product

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qperceptron import network, register
from qperceptron.activation import ALGEBRAIC, LOGISTIC, STEP, cao_arctan, df_dx, eval_f
from qperceptron.control import faquad_schedule
from qperceptron.dynamics import schedule_propagators
from qperceptron.network import (
    NetworkSpec,
    _cross_entropy,
    _MixtureEngine,
    approximator_readout,
    build_universal_approximator,
    classical_mixture_oracle,
    forward,
    layered_network,
    network_from_json,
    network_to_json,
    protocol_duration,
)
from qperceptron.register import (
    PerceptronGateSpec,
    QuantumRegister,
    apply_hardware_perceptron,
    apply_ideal_perceptron,
    conditional_probability,
    excitation_probability,
    init_basis,
)
from qperceptron.training import Dataset, batch_state_forward, cross_entropy_cost, prime_dataset
from ode_oracles import PLUS, SZ, apply_hadamard, dop853_ising_passage, dop853_two_level, kron_on

X_REF = 1.2720196495140690


def layered_net(n_inputs, hidden, rng=None, activation=ALGEBRAIC, scale=1.5):
    """Random net with hidden layer(s) wired to the previous layer only."""
    sizes = list(hidden) + [1]
    n = n_inputs + sum(sizes)
    mask = np.zeros((n, n))
    J = np.zeros((n, n))
    b = np.zeros(n)
    start = 0
    prev = list(range(n_inputs))
    pos = n_inputs
    for m in sizes:
        cur = list(range(pos, pos + m))
        for j in cur:
            mask[j, prev] = 1.0
        prev = cur
        pos += m
    if rng is not None:
        pick = mask == 1.0
        J[pick] = rng.uniform(-scale, scale, int(pick.sum()))
        b[n_inputs:] = rng.uniform(-scale, scale, n - n_inputs)
    return NetworkSpec(n_inputs, sizes, mask, J, b, activation)


def all_bits(n):
    return ["".join(p) for p in product("01", repeat=n)]


def dense_layer_forward(net, bits, sched):
    """Final amplitudes of the layered protocol, one dense Ising passage per
    layer, with field_j = sum_k w_jk sz_k - b_j on each of its targets.
    Shares no code with register or the mixture engine."""
    n = net.n_total
    W = net.effective_weights()
    sz = np.array([np.diag(kron_on(n, k, SZ)).real for k in range(n)])
    psi = np.zeros(1 << n, dtype=complex)
    psi[int(bits + "0" * (n - net.n_inputs), 2)] = 1.0
    lo = net.n_inputs
    for m in net.layer_sizes:
        targets = range(lo, lo + m)
        lo += m
        psi = dop853_ising_passage(psi, targets, [W[j] @ sz - net.b[j] for j in targets], sched)
    return psi


def layered_hardware_mixture(net, bits, p_hw):
    """Output excitation of a strictly layered net, layer by layer: given the
    previous layer's sz values, each perceptron of a layer is an independent
    coin with probability p_hw(field)."""
    W = net.mask * net.J
    prev = list(range(net.n_inputs))
    dist = {tuple(2 * int(c) - 1 for c in bits): 1.0}
    for m in net.layer_sizes:
        cur = list(range(prev[-1] + 1, prev[-1] + 1 + m))
        nxt = {}
        for z, weight in dist.items():
            ps = [p_hw(-net.b[j] + sum(W[j, k] * zk for k, zk in zip(prev, z))) for j in cur]
            for cfg in product((-1, 1), repeat=m):
                pr = weight * math.prod(p if c > 0 else 1.0 - p for p, c in zip(ps, cfg))
                nxt[cfg] = nxt.get(cfg, 0.0) + pr
        dist, prev = nxt, cur
    return dist[(1,)]


class DenseMixtureEngine:
    """The mixture engine as it was before it shared hidden activations
    between configurations: every activation on the full (samples,
    configurations, qubits) field tensor.  The bitwise reference of
    _MixtureEngine, with its interface, so that ``train`` can run on it."""

    def __init__(self, net, inputs, labels=()):
        self.net = net
        N, M, n = net.n_inputs, net.n_hidden, net.n_total
        S, C = len(inputs), 1 << M
        cfg = np.arange(C)
        self.Z = 2.0 * ((cfg[:, None] >> np.arange(M)[None, :]) & 1) - 1.0
        V = np.empty((S, C, n))
        for i, x in enumerate(inputs):
            V[i, :, :N] = 2.0 * np.array([int(c) for c in x]) - 1.0
        V[:, :, N : N + M] = self.Z[None, :, :]
        V[:, :, n - 1] = 0.0
        self.V = V
        self.Y = np.array(labels, dtype=float)
        self.N, self.M, self.n, self.S, self.C = N, M, n, S, C

    def probabilities(self, J, b):
        net = self.net
        W = net.mask * J
        X = self.V @ W.T - b
        kind = net.activation
        N, M = self.N, self.M
        f_hid = eval_f(kind, X[:, :, N : N + M])
        bern = np.where(self.Z[None] > 0, f_hid, 1.0 - f_hid)
        P = np.prod(bern, axis=2) if M else np.ones((self.S, self.C))
        f_out = eval_f(kind, X[:, :, -1])
        p = np.einsum("sc,sc->s", P, f_out)
        return p, (X, bern, P, f_out)

    def cost(self, J, b, want_grad=False):
        p, (X, bern, P, f_out) = self.probabilities(J, b)
        cost, pc = _cross_entropy(p, self.Y)
        if not want_grad:
            return cost, p, None, None
        Y = self.Y
        kind = self.net.activation
        N, M, n = self.N, self.M, self.n
        wvec = (pc - Y) / (pc * (1.0 - pc)) / self.S
        dfo = df_dx(kind, X[:, :, -1])
        dJ = np.zeros((n, n))
        db = np.zeros(n)
        out_fac = P * dfo
        dJ[n - 1] = np.einsum("s,sc,sck->k", wvec, out_fac, self.V)
        db[n - 1] = -float(np.einsum("s,sc->", wvec, out_fac))
        if M:
            dfh = df_dx(kind, X[:, :, N : N + M])
            with np.errstate(divide="ignore", invalid="ignore"):
                G = np.where(bern > 0, self.Z[None] * dfh / bern, 0.0)
            T = G * (P * f_out)[:, :, None]
            dJ[N : N + M] = np.einsum("s,scm,sck->mk", wvec, T, self.V)
            db[N : N + M] = -np.einsum("s,scm->m", wvec, T)
        dJ *= self.net.mask
        return cost, p, dJ, db


def assert_same_bits(got, want):
    """Equal cost(...) tuples, bit for bit: signed zeros count."""
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestNetworkSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            layered_net(2, [2]).__class__(
                2, (2,), np.zeros((5, 5)), np.zeros((5, 5)), np.zeros(5)
            )  # output layer size must be 1
        net = layered_net(2, [2])
        bad_mask = net.mask.copy()
        bad_mask[2, 3] = 1.0  # sources a later qubit
        with pytest.raises(ValueError):
            NetworkSpec(2, (2, 1), bad_mask, net.J, net.b)
        bad_mask = net.mask.copy()
        bad_mask[2, 0] = 0.5
        with pytest.raises(ValueError):
            NetworkSpec(2, (2, 1), bad_mask, net.J, net.b)
        bad_b = net.b.copy()
        bad_b[0] = 1.0
        with pytest.raises(ValueError):
            NetworkSpec(2, (2, 1), net.mask, net.J, bad_b)

    def test_keeps_copies_of_the_callers_arrays(self):
        mask = np.array([[0.0, 0.0], [1.0, 0.0]])
        J, b = 0.5 * mask, np.array([0.0, 0.25])
        net = NetworkSpec(1, (1,), mask, J, b)
        assert net.mask is not mask and net.J is not J and net.b is not b
        mask[1, 0], J[1, 0], b[1] = 0.0, 1.0, 1.0  # the caller's arrays stay writable
        assert net.mask[1, 0] == 1.0 and net.J[1, 0] == 0.5 and net.b[1] == 0.25
        with pytest.raises(ValueError, match="read-only"):
            net.J[1, 0] = 1.0

    @pytest.mark.parametrize("n_inputs, hidden", [(2, [2]), (3, [4]), (5, [10, 4]), (2, [])])
    def test_layered_network_wires_each_layer_to_the_previous(self, n_inputs, hidden):
        net = layered_network(n_inputs, hidden)
        assert net.mask.tobytes() == layered_net(n_inputs, hidden).mask.tobytes()
        assert not net.J.any() and not net.b.any()

    @pytest.mark.parametrize("n_inputs, hidden, message", [
        (0, [2], "need at least one input"), (-1, [2], "need at least one input"),
        (2, [0], "layer sizes must be positive"), (2, [2, -1], "layer sizes must be positive"),
    ])
    def test_layered_network_names_a_bad_size(self, n_inputs, hidden, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            layered_network(n_inputs, hidden)

    @pytest.mark.parametrize("n_inputs, sizes, shapes, message", [
        (0, (1,), (1, 1, 1), "need at least one input"),
        (-1, (2,), (1, 1, 1), "need at least one input"),
        (2, (1,), (2, 3, 3), r"mask/J must be \(n_total, n_total\) and b \(n_total,\)"),
        (2, (1,), (3, 2, 3), r"mask/J must be \(n_total, n_total\) and b \(n_total,\)"),
        (2, (1,), (3, 3, 2), r"mask/J must be \(n_total, n_total\) and b \(n_total,\)"),
    ], ids=["no_inputs", "negative_inputs", "mask_shape", "J_shape", "b_shape"])
    def test_spec_names_a_bad_size_or_shape(self, n_inputs, sizes, shapes, message):
        m, j, b = shapes
        with pytest.raises(ValueError, match=f"^{message}$"):
            NetworkSpec(n_inputs, sizes, np.zeros((m, m)), np.zeros((j, j)), np.zeros(b))

    @pytest.mark.parametrize("make, message", [
        (lambda: layered_network(2, (2.5,)), r"layer size must be an integer, got 2\.5"),
        (lambda: layered_network(2.0, (2,)), r"n_inputs must be an integer, got 2\.0"),
        (lambda: NetworkSpec(2, (1.0,), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3)),
         r"layer size must be an integer, got 1\.0"),
        (lambda: NetworkSpec(2.5, (1,), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3)),
         r"n_inputs must be an integer, got 2\.5"),
        (lambda: NetworkSpec(2, (1,), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3),
                             cao_arctan(1.5)),
         r"cao iteration count k must be an integer, got 1\.5"),
    ], ids=["layered_size", "layered_inputs", "spec_size", "spec_inputs", "cao_k"])
    def test_non_integer_size_is_named(self, make, message):
        # int() made (2.5,) a 2-wide layer, and cao_arctan:1.5 did not round-trip
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_integer_like_sizes_are_stored_as_int(self):
        # a numpy n_inputs was kept as is, and json could not dump it
        net = layered_network(np.int64(2), (np.int64(3),))
        assert type(net.n_inputs) is int and net.layer_sizes == (3, 1)
        assert all(type(m) is int for m in net.layer_sizes)
        assert network_from_json(network_to_json(net)).n_inputs == 2
        net = layered_net(2, [3], activation=cao_arctan(np.int64(2)))
        assert network_from_json(network_to_json(net)).activation == cao_arctan(2)

    @pytest.mark.parametrize("name, index, value", [
        ("J", (4, 2), np.nan), ("J", (0, 1), np.nan), ("J", (2, 0), np.inf),
        ("b", 4, np.nan), ("b", 3, -np.inf),
    ], ids=["J_sourced_nan", "J_masked_nan", "J_inf", "b_nan", "b_inf"])
    def test_nonfinite_parameter_is_named(self, name, index, value):
        # a masked-out J entry counts too: mask * nan is nan
        net = layered_net(2, [2])
        params = {"J": net.J.copy(), "b": net.b.copy()}
        params[name][index] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            NetworkSpec(2, (2, 1), net.mask, params["J"], params["b"])

    def test_masked_weights_inactive(self):
        rng = np.random.default_rng(0)
        net = layered_net(2, [2], rng)
        J2 = net.J.copy()
        J2[~(net.mask == 1.0)] = 999.0  # junk outside the mask
        net2 = NetworkSpec(2, (2, 1), net.mask, J2, net.b)
        for bits in all_bits(2):
            assert forward(net, bits)[1] == pytest.approx(
                forward(net2, bits)[1], abs=1e-14
            )

    def test_json_round_trip(self):
        import json

        for kind in (ALGEBRAIC, LOGISTIC, STEP, cao_arctan(1), cao_arctan(3)):
            rng = np.random.default_rng(1)
            net = layered_net(3, [2], rng, activation=kind)
            doc = network_to_json(net)
            back = network_from_json(doc)
            assert back.n_inputs == net.n_inputs
            assert back.layer_sizes == net.layer_sizes
            assert np.array_equal(back.mask, net.mask)
            assert np.array_equal(back.J, net.J)
            assert np.array_equal(back.b, net.b)
            assert back.activation == net.activation
            keys = set(json.loads(doc))
            assert keys == {"n_inputs", "layer_sizes", "mask", "J", "b", "activation"}


class TestForwardAndOracle:
    def test_unweighted_perceptron_is_half(self):
        net = layered_net(1, [])
        for bits in all_bits(1):
            _, p = forward(net, bits)
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_all_zero_network_uniform(self):
        net = layered_net(2, [2])
        reg, p = forward(net, "10")
        assert p == pytest.approx(0.5, abs=1e-12)
        for q in range(2, 5):
            assert excitation_probability(reg, q) == pytest.approx(0.5, abs=1e-12)

    def test_forward_equals_mixture_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            net = layered_net(2, [2], rng)
            for bits in all_bits(2):
                _, p = forward(net, bits)
                assert abs(p - classical_mixture_oracle(net, bits)) < 1e-10

    def test_oracle_on_deep_and_skip_topologies(self):
        rng = np.random.default_rng(42)
        deep = layered_net(2, [2, 2], rng)
        for bits in all_bits(2):
            _, p = forward(deep, bits)
            assert abs(p - classical_mixture_oracle(deep, bits)) < 1e-10
        # skip connections: output reads the inputs directly as well
        net = layered_net(2, [2], rng)
        mask = net.mask.copy()
        J = net.J.copy()
        mask[4, 0] = mask[4, 1] = 1.0
        J[4, 0], J[4, 1] = 0.7, -1.1
        skip = NetworkSpec(2, (2, 1), mask, J, net.b)
        for bits in all_bits(2):
            _, p = forward(skip, bits)
            assert abs(p - classical_mixture_oracle(skip, bits)) < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_oracle_equals_forward_on_random_feed_forward_masks(self, data):
        kind = data.draw(st.sampled_from([ALGEBRAIC, LOGISTIC, STEP, cao_arctan(2)]))
        N = data.draw(st.integers(2, 3))
        H = data.draw(st.integers(0, 3))
        n = N + H + 1
        # dyadic weights: every field is exact in any summation order, so
        # both paths put the step threshold on the same side; cao fields
        # stay inside its [-pi/4, pi/4] domain (at most 6 sources + bias)
        unit = 1.0 / 64.0 if kind.variant == "cao" else 0.25
        level = st.integers(-6, 6) if kind.variant == "cao" else st.integers(-12, 12)
        mask = np.zeros((n, n))
        J = np.zeros((n, n))
        b = np.zeros(n)
        for j in range(N, n):
            b[j] = unit * data.draw(level)
            for k in range(j):
                mask[j, k] = data.draw(st.integers(0, 1))
                J[j, k] = unit * data.draw(level)
        net = NetworkSpec(N, (H, 1) if H else (1,), mask, J, b, kind)
        for bits in all_bits(N):
            _, p = forward(net, bits)
            assert abs(p - classical_mixture_oracle(net, bits)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_passes_are_the_gate_chain_bitwise(self, data):
        # the ideal pass runs every gate in place in one buffer, slab by
        # slab: at the default slab and at a 2-amplitude slab, which puts
        # each target pair in a slab of its own, forward and the batched
        # pass must give the bytes of the gate-by-gate chain of new registers
        N = data.draw(st.integers(1, 3))
        hidden = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        kind = data.draw(st.sampled_from([ALGEBRAIC, LOGISTIC]))
        net = layered_net(N, hidden, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                          kind)
        n = net.n_total
        inputs = data.draw(st.lists(st.sampled_from(all_bits(N)), min_size=1, unique=True))

        def chain(bits):
            amps = np.zeros(1 << n, dtype=complex)
            for x in bits:
                amps[int(x.ljust(n, "0"), 2)] = 1.0 / np.sqrt(len(bits))
            reg = QuantumRegister(n, amps)
            for gate in net.gates():
                reg = apply_ideal_perceptron(reg, gate)
            return reg

        one, many = chain(inputs[:1]), chain(inputs)
        want = [conditional_probability(many, range(N), [int(c) for c in x], n - 1)
                for x in inputs]
        dataset = Dataset(N, tuple((x, 0.0) for x in inputs))
        for slab in (register._SLAB, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(register, "_SLAB", slab)
                reg, p = forward(net, inputs[0])
                batch = batch_state_forward(net, dataset)
            assert reg.amplitudes.tobytes() == one.amplitudes.tobytes()
            assert p == excitation_probability(one, n - 1)
            assert np.array(batch).tobytes() == np.array(want).tobytes()

    def test_no_hidden_layer_closed_form(self):
        # output reads the inputs directly: p = f(sum w s - theta) exactly
        n = 3
        mask = np.zeros((n, n))
        J = np.zeros((n, n))
        b = np.zeros(n)
        mask[2, 0] = mask[2, 1] = 1.0
        J[2, 0], J[2, 1] = 1.2, -0.5
        b[2] = 0.3
        net = NetworkSpec(2, (1,), mask, J, b)
        for bits in all_bits(2):
            s = 2.0 * np.array([int(c) for c in bits]) - 1.0
            want = eval_f(ALGEBRAIC, 1.2 * s[0] - 0.5 * s[1] - 0.3)
            assert classical_mixture_oracle(net, bits) == pytest.approx(want, abs=1e-14)
            assert forward(net, bits)[1] == pytest.approx(want, abs=1e-12)

    def test_saturated_hidden_deterministic(self):
        rng = np.random.default_rng(2)
        net = layered_net(2, [2], rng)
        b = net.b.copy()
        b[2], b[3] = -500.0, 500.0  # hidden 0 locked on, hidden 1 locked off
        sat = NetworkSpec(2, (2, 1), net.mask, net.J, b)
        W = sat.effective_weights()
        for bits in all_bits(2):
            x_out = W[4, 2] * (+1.0) + W[4, 3] * (-1.0) - sat.b[4]
            want = eval_f(ALGEBRAIC, x_out)
            # algebraic tails leave O(1/bias^2) leakage in each hidden coin
            assert classical_mixture_oracle(sat, bits) == pytest.approx(want, abs=1e-5)

    def test_input_validation(self):
        net = layered_net(2, [2])
        with pytest.raises(ValueError):
            forward(net, "0")
        with pytest.raises(ValueError):
            forward(net, "0x")


class TestUniversalApproximator:
    def test_constraint_enforced(self):
        # the output bias is lambda * theta_out with 1 + theta_out + sum(alpha) = 0
        alpha, w, theta = np.array([0.5, -0.2]), np.zeros((2, 2)), np.zeros(2)
        net = build_universal_approximator((alpha, w, theta), 0.1)
        assert net.b[-1] == pytest.approx(0.1 * -1.3)
        assert net.J[-1, 2:4].tolist() == pytest.approx([0.05, -0.02])
        for lam in (0.0, -0.01, np.nan):
            with pytest.raises(ValueError, match="lambda_lin must be positive"):
                build_universal_approximator((alpha, w, theta), lam)
            # the readout inverts such a net only: 0 divided by zero
            with pytest.raises(ValueError, match="^lambda_lin must be positive$"):
                approximator_readout(0.5, lam)
        with pytest.raises(ValueError, match="theta"):
            build_universal_approximator((alpha, w, np.zeros(3)), 0.01)
        with pytest.raises(ValueError, match="nonempty"):
            build_universal_approximator((np.array([]), np.zeros((0, 2)), np.zeros(0)), 0.01)

    def test_zero_alpha_reads_half(self):
        net = build_universal_approximator(
            (np.zeros(2), np.zeros((2, 1)), np.zeros(2)), 0.01
        )
        _, p = forward(net, "0")
        # alpha = 0 makes G = 0; the readout offset absorbs theta_out
        assert approximator_readout(p, 0.01) == pytest.approx(0.0, abs=1e-4)

    def test_single_neuron_readout(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(-1.5, 1.5, (1, 2))
        theta = rng.uniform(-1, 1, 1)
        net = build_universal_approximator((np.array([1.0]), w, theta), 0.01)
        for bits in all_bits(2):
            s = 2.0 * np.array([int(c) for c in bits]) - 1.0
            target = float(eval_f(ALGEBRAIC, w[0] @ s - theta[0]))
            _, p = forward(net, bits)
            got = approximator_readout(p, 0.01)
            assert abs(got - target) <= 0.01

    def test_lambda_convergence_at_least_linear(self):
        rng = np.random.default_rng(5)
        alpha = np.array([0.8, -0.5, 0.3])
        w = rng.uniform(-1.5, 1.5, (3, 2))
        theta = rng.uniform(-1, 1, 3)

        def max_err(lam):
            net = build_universal_approximator((alpha, w, theta), lam)
            errs = []
            for bits in all_bits(2):
                s = 2.0 * np.array([int(c) for c in bits]) - 1.0
                target = float(alpha @ eval_f(ALGEBRAIC, w @ s - theta))
                errs.append(abs(approximator_readout(forward(net, bits)[1], lam) - target))
            return max(errs)

        e = {lam: max_err(lam) for lam in (0.04, 0.02, 0.01)}
        assert e[0.02] / e[0.04] <= 0.625
        assert e[0.01] / e[0.02] <= 0.625

    def test_xor_construction(self):
        # steep pair of ridges: h1 - h2 is 1 iff exactly one input is set
        W = 20.0
        alpha = np.array([1.0, -1.0, 0.0, 0.0])
        w = np.array([[W, W], [W, W], [0.0, 0.0], [0.0, 0.0]])
        theta = np.array([-W, W, 0.0, 0.0])
        lam = 0.01
        net = build_universal_approximator((alpha, w, theta), lam)
        for bits in all_bits(2):
            target = float(int(bits[0]) ^ int(bits[1]))
            got = approximator_readout(forward(net, bits)[1], lam)
            assert abs(got - target) <= 0.05


class TestLayerHamiltonian:
    def test_gate_order_within_layer_commutes(self):
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        rng = np.random.default_rng(3)
        net = layered_net(2, [2], rng)
        gates = net.gates()[:2]  # the two hidden-layer gates
        reg0 = init_basis(5, "10000")
        ab = apply_hardware_perceptron(apply_hardware_perceptron(reg0, sched, gates[0]),
                                       sched, gates[1])
        ba = apply_hardware_perceptron(apply_hardware_perceptron(reg0, sched, gates[1]),
                                       sched, gates[0])
        assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-10

    def test_adiabatic_matches_ideal(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        rng = np.random.default_rng(6)
        net = layered_net(2, [2], rng)
        _, p_hw = forward(net, "11", sched)
        _, p_id = forward(net, "11")
        assert abs(p_hw - p_id) <= 0.02

    @staticmethod
    def rewired(net, target, source, weight):
        mask, J = net.mask.copy(), net.J.copy()
        mask[target, source], J[target, source] = 1.0, weight
        return NetworkSpec(net.n_inputs, net.layer_sizes, mask, J, net.b)

    def test_layer_evolution_equals_forward(self):
        # the paper's claim: same-layer gates commute, so each layer runs as
        # one Ising passage; a skip connection (output <- input 0) keeps that
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        net = layered_net(2, [2, 2], np.random.default_rng(9))
        for wired in (net, self.rewired(net, 6, 0, 0.7)):
            assert protocol_duration(wired, sched) == pytest.approx(3 * 5.0)
            for bits in all_bits(2):
                want = forward(wired, bits, sched)[0].amplitudes
                assert np.max(np.abs(dense_layer_forward(wired, bits, sched) - want)) < 1e-8

    def test_same_layer_source_breaks_the_layer_passage(self):
        # qubit 3 sources qubit 2 of its own layer: the layer's terms no
        # longer commute, so one passage is not the gate-by-gate forward
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        net = self.rewired(layered_net(2, [2, 2], np.random.default_rng(9)), 3, 2, 1.0)
        gap = max(np.max(np.abs(dense_layer_forward(net, bits, sched)
                                - forward(net, bits, sched)[0].amplitudes))
                  for bits in all_bits(2))
        assert gap > 0.1
        with pytest.raises(ValueError, match="qubit 3 sources qubit 2 of its own layer 1"):
            protocol_duration(net, sched)

    def test_hardware_forward_equals_dop853_mixture(self):
        # an oracle sharing no code with register or the mixture engine
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        net = layered_net(2, [2, 2], np.random.default_rng(9))
        for bits in all_bits(2):
            fields = []
            layered_hardware_mixture(net, bits, lambda x: fields.append(x) or 0.5)
            p_hw = dict(zip(fields, np.abs(dop853_two_level(sched, fields, PLUS)[:, 0, 1]) ** 2))
            want = layered_hardware_mixture(net, bits, p_hw.__getitem__)
            assert abs(forward(net, bits, sched)[1] - want) < 1e-8

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The x values of every schedule_propagators call of the register."""
        asked = []

        def recording(schedule, xs, *args, **kwargs):
            asked.append(np.asarray(xs))
            return schedule_propagators(schedule, xs, *args, **kwargs)

        monkeypatch.setattr(register, "schedule_propagators", recording)
        return asked

    def test_basis_input_integrates_occupied_fields_only(self, sweeps):
        # one sweep per pass: from a basis input each hidden gate has one
        # occupied source sector; the output gate sees all 16 hidden
        # configurations
        net = layered_net(3, [4], np.random.default_rng(8))
        forward(net, "101", faquad_schedule(100.0, 1.0, 5.0, X_REF))
        assert [xs.size for xs in sweeps] == [20]

    def test_same_layer_source_runs_in_the_one_sweep(self, sweeps):
        # qubit 3 sources qubit 2, and qubit 4 sources qubit 3: still one
        # sweep, of 1 + 2 + 4 + 4 + 4 fields, equal to the gates one by one
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        net = self.rewired(layered_net(2, [2, 2], np.random.default_rng(9)), 3, 2, 1.0)
        got = forward(net, "10", sched)[0].amplitudes
        assert [xs.size for xs in sweeps] == [15]
        want = init_basis(7, "1000000")
        for gate in net.gates():
            want = apply_hardware_perceptron(want, sched, gate)
        assert np.max(np.abs(got - want.amplitudes)) < 1e-9

    def test_source_targeted_earlier_counts_as_occupied(self, sweeps):
        # B sources A's target, which is exactly |0> before the call: B's
        # fields must cover both of its values, as A excites it first
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        a = PerceptronGateSpec(1, {0: 2.0}, 0.5)
        b = PerceptronGateSpec(2, {0: 0.7, 1: 3.0}, -0.5)
        start = apply_hadamard(init_basis(3, "000"), 0)
        got = apply_hardware_perceptron(start, sched, a, b)
        want = apply_hardware_perceptron(apply_hardware_perceptron(start, sched, a), sched, b)
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-9
        assert sweeps[0].size == 2 + 4

    def test_pass_is_one_sweep_equal_to_the_public_entry(self, sweeps, monkeypatch):
        # forward and the hardware cost each integrate the occupied fields of
        # every gate in one sweep, and each pass's state is, byte for byte,
        # the public entry's on the same input register with the same gates
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        net = layered_net(3, [4], np.random.default_rng(8))
        runs = []

        def recording(n, amps, steps):
            start = QuantumRegister(n, amps)  # a copy, taken after the sweep, before any step
            runs.append((start, register._in_place(n, amps, steps)))
            return runs[-1][1]

        monkeypatch.setattr(network, "_in_place", recording)
        forward(net, "101", sched)
        assert [xs.size for xs in sweeps] == [4 + 16]
        cross_entropy_cost(net, prime_dataset(3), sched)
        assert len(sweeps) == 2 and len(runs) == 2
        for (start, got), pass_sweep in zip(runs, list(sweeps)):
            want = apply_hardware_perceptron(start, sched, *net.gates())
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert sweeps[-1].tobytes() == pass_sweep.tobytes()  # the entry's one sweep

    def test_shared_field_of_a_layer_is_integrated_once(self, sweeps):
        # two hidden gates with equal weights and bias see one field
        net = layered_net(2, [2], np.random.default_rng(4))
        J, b = net.J.copy(), net.b.copy()
        J[3], b[3] = J[2], b[2]
        net = NetworkSpec(2, net.layer_sizes, net.mask, J, b)
        forward(net, "01", faquad_schedule(100.0, 1.0, 5.0, X_REF))
        assert [xs.size for xs in sweeps] == [5]

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_runs_equal_gate_by_gate_and_dop853_mixture(self, data):
        # forward sweeps once over all its gates, with a skip connection or
        # a same-layer source too
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        N = data.draw(st.integers(2, 3))
        hidden = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        layered = layered_net(N, hidden)
        n = layered.n_total
        mask = layered.mask.copy()
        extra = data.draw(st.sampled_from([None, "skip", "same"]))
        if extra == "skip":
            mask[n - 1, data.draw(st.integers(0, N - 1))] = 1.0
        if extra == "same" and max(hidden) > 1:
            lo = N + sum(hidden[: hidden.index(max(hidden))])
            mask[lo + 1, lo] = 1.0
        weight = st.floats(-6.0, 6.0)
        J = mask * np.reshape(data.draw(st.lists(weight, min_size=n * n, max_size=n * n)), (n, n))
        b = np.array([0.0] * N + data.draw(st.lists(weight, min_size=n - N, max_size=n - N)))
        net = NetworkSpec(N, layered.layer_sizes, mask, J, b)
        bits = data.draw(st.sampled_from(all_bits(N)))
        reg, p = forward(net, bits, sched)
        want = init_basis(n, bits + "0" * (n - N))
        for gate in net.gates():
            want = apply_hardware_perceptron(want, sched, gate)
        assert np.max(np.abs(reg.amplitudes - want.amplitudes)) < 1e-9
        if np.array_equal(mask, layered.mask):
            fields = []
            layered_hardware_mixture(net, bits, lambda x: fields.append(x) or 0.5)
            p_hw = dict(zip(fields, np.abs(dop853_two_level(sched, fields, PLUS)[:, 0, 1]) ** 2))
            assert abs(p - layered_hardware_mixture(net, bits, p_hw.__getitem__)) < 1e-8

    def test_protocol_duration(self):
        net = layered_net(2, [2, 3])
        sched = faquad_schedule(100.0, 1.0, 7.5, X_REF)
        assert protocol_duration(net, sched) == pytest.approx(3 * 7.5)


class TestNetworkJsonErrors:
    """network_from_json names what a document lacks."""

    def doc(self):
        # 3 inputs, one hidden qubit and the output: n_total = 5
        return json.loads(network_to_json(layered_net(3, [1], np.random.default_rng(4))))

    def test_empty_object_names_first_key(self):
        with pytest.raises(ValueError, match="no 'n_inputs' key"):
            network_from_json("{}")

    @pytest.mark.parametrize("doc, kind", [
        ("3", "int"), ("null", "NoneType"), ('"s"', "str"), ("[]", "list"),
    ])
    def test_non_object_document_names_its_type(self, doc, kind):
        with pytest.raises(ValueError, match=f"must be an object, got {kind}$"):
            network_from_json(doc)

    @pytest.mark.parametrize("key", ["layer_sizes", "mask", "J", "b", "activation"])
    def test_missing_key_is_named(self, key):
        d = self.doc()
        del d[key]
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            network_from_json(json.dumps(d))

    @pytest.mark.parametrize("key, value", [
        ("layer_sizes", 3), ("n_inputs", None), ("activation", 5), ("layer_sizes", [None]),
        ("n_inputs", [3]), ("n_inputs", 2.5), ("n_inputs", "3"), ("layer_sizes", [1.5, 1]),
        ("J", "junk"), ("activation", "cao_arctan:x"), ("activation", "tanh"),
        ("n_inputs", True), ("layer_sizes", [1, True]),
        # a bool where the 3-(1)-1 net takes a number, in a document float() would load
        ("mask", [0] * 15 + [1, 1, True] + [0] * 5 + [1, 0]), ("J", [False] + [0.0] * 24),
        ("b", [0.0] * 4 + [True]),
    ])
    def test_wrongly_typed_value_is_named(self, key, value):
        d = self.doc()
        d[key] = value
        with pytest.raises(ValueError, match=f"^network JSON '{key}' is malformed: "):
            network_from_json(json.dumps(d))

    @pytest.mark.parametrize("key, count", [("mask", 25), ("J", 25), ("b", 5)])
    def test_short_list_names_field_and_count(self, key, count):
        d = self.doc()
        d[key] = d[key][:-1]
        with pytest.raises(ValueError, match=f"'{key}' needs {count} entries, got {count - 1}"):
            network_from_json(json.dumps(d))


class TestMixtureEngineBitwise:
    """_MixtureEngine against the dense reference, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_feed_forward_masks(self, data):
        kind = data.draw(st.sampled_from([ALGEBRAIC, LOGISTIC, cao_arctan(1)]))
        N = data.draw(st.integers(1, 3))
        H = data.draw(st.integers(0, 4))
        n = N + H + 1
        # any strictly lower triangular mask: hidden qubits sourcing hidden
        # qubits, skip connections to the output.  cao fields stay inside
        # [-pi/4, pi/4]: at most 7 sources and a bias, each below 0.09
        weight = st.floats(-0.09, 0.09) if kind.variant == "cao" else st.floats(-3.0, 3.0)
        mask = np.zeros((n, n))
        J = np.zeros((n, n))
        b = np.zeros(n)
        for j in range(N, n):
            b[j] = data.draw(weight)
            for k in range(j):
                mask[j, k] = data.draw(st.integers(0, 1))
                J[j, k] = data.draw(weight)
        net = NetworkSpec(N, (H, 1) if H else (1,), mask, J, b, kind)
        inputs = data.draw(st.lists(st.sampled_from(all_bits(N)), min_size=1, unique=True))
        labels = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(inputs), max_size=len(inputs)))
        eng = _MixtureEngine(net, inputs, labels)
        ref = DenseMixtureEngine(net, inputs, labels)
        # cost only, then cost and gradient, then the same again
        for want_grad in (False, True, True):
            assert_same_bits(eng.cost(net.J, net.b, want_grad), ref.cost(net.J, net.b, want_grad))

    @pytest.mark.parametrize("kind, weights, bias, inputs", [
        # drawn by the property above: p[1], about 1.5e-28, differed
        (cao_arctan(1), (0.0625, 1.114937012080431e-07, 0.0625), 0.0, ["000", "001"]),
        (ALGEBRAIC, (-2.1722, 1.7282, 1.0222), 0.0743, ["010"]),
    ], ids=["drawn", "one_sample"])
    def test_single_gate_row_examples(self, kind, weights, bias, inputs):
        # no hidden qubit, so one gate row: a field product that BLAS runs as
        # one dot per sample (stacked), or as a single dot (2-D, one sample),
        # sums in another order than the dense vector-matrix product
        mask, J, b = np.zeros((4, 4)), np.zeros((4, 4)), np.zeros(4)
        mask[3, :3] = 1.0
        J[3, :3], b[3] = weights, bias
        net = NetworkSpec(3, (1,), mask, J, b, kind)
        labels = [0.0] * len(inputs)
        eng, ref = _MixtureEngine(net, inputs, labels), DenseMixtureEngine(net, inputs, labels)
        for want_grad in (False, True):
            assert_same_bits(eng.cost(net.J, net.b, want_grad), ref.cost(net.J, net.b, want_grad))

    # shapes the property above cannot draw, on all inputs: the benchmark's
    # 5-8-1 (8,192 rows), 6-9-1 (32,768 rows), two hidden layers and the
    # logistic kind; all above numpy's 8,192-element einsum buffer
    @pytest.mark.parametrize("n_inputs, hidden, kind", [
        (5, [8], ALGEBRAIC), (6, [9], ALGEBRAIC), (5, [6, 3], ALGEBRAIC), (7, [9], LOGISTIC),
    ], ids=["5-8-1", "6-9-1", "5-6-3-1", "logistic-7-9-1"])
    def test_large_shapes(self, n_inputs, hidden, kind):
        inputs = all_bits(n_inputs)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            net = layered_net(n_inputs, hidden, rng, kind)
            labels = rng.uniform(0.0, 1.0, len(inputs))
            got = _MixtureEngine(net, inputs, labels).cost(net.J, net.b, want_grad=True)
            assert_same_bits(got, DenseMixtureEngine(net, inputs, labels).cost(net.J, net.b, want_grad=True))

    def test_cost_leaves_the_engine_unchanged(self):
        net = layered_net(3, [2, 2], np.random.default_rng(3))
        eng = _MixtureEngine(net, all_bits(3), [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0])

        def state():
            return {k: (id(v), v.tobytes() if isinstance(v, np.ndarray) else None)
                    for k, v in vars(eng).items()}

        before = state()
        eng.cost(net.J, net.b)
        eng.cost(net.J + 0.25, net.b, want_grad=True)
        assert state() == before

    def test_engine_too_large_is_refused_before_allocating(self):
        net = layered_net(3, [30])  # 34 qubits: an (8, 2^30, 34) tensor
        with pytest.raises(ValueError, match=r"^30 hidden qubits need a 8 x 2\^30 x 34 mixture tensor"):
            _MixtureEngine(net, all_bits(3))

    def test_engine_limit_is_exactly_2_to_the_26_doubles(self, monkeypatch):
        # 3-4-1: 8 qubits and 2^4 configurations, so 2^19 samples make a
        # tensor of exactly 2^26 doubles.  It passes the size check, and the
        # first allocation after the check fails on purpose; one sample more
        # is refused.
        class Allocated(Exception):
            pass

        def no_allocation(*args, **kwargs):
            raise Allocated

        net = layered_net(3, [4])
        monkeypatch.setattr(np, "arange", no_allocation)
        with pytest.raises(Allocated):
            _MixtureEngine(net, ["000"] * (1 << 19))
        with pytest.raises(ValueError, match=r"^4 hidden qubits need a 524289 x 2\^4 x 8 "):
            _MixtureEngine(net, ["000"] * ((1 << 19) + 1))
