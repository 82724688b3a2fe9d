"""Feed-forward networks of perceptron gates on one register.

A network is a register of N input qubits, hidden perceptron qubits and one
output perceptron, wired by a binary mask over a global qubit ordering
(inputs first, hidden layers in order, output last).  The mask is strictly
lower triangular: a perceptron may source only strictly earlier qubits, so
the circuit is feed-forward and every qubit is targeted at most once.
Effective weights are mask * J.

Because all gate controls are diagonal and no qubit is ever re-targeted,
measuring the hidden qubits is never needed: the output excitation of the
quantum circuit equals a classical mixture over hidden configurations.
That mixture is computed in one place, this module's _MixtureEngine, which
serves classical_mixture_oracle here and the cross entropy, its analytic
gradient and the optimizer in the training module.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .activation import ALGEBRAIC, ActivationKind, cao_arctan, df_dx, eval_f
from .register import (
    PerceptronGateSpec,
    apply_hardware_perceptron,
    apply_ideal_perceptron,
    excitation_probability,
    init_basis,
)

__all__ = [
    "NetworkSpec",
    "ApproximatorSpec",
    "forward",
    "classical_mixture_oracle",
    "build_universal_approximator",
    "approximator_readout",
    "layered_network",
    "layer_hamiltonian_forward",
    "protocol_duration",
    "network_to_json",
    "network_from_json",
]


@dataclass(frozen=True)
class NetworkSpec:
    """Topology, weights and activation of one feed-forward network."""

    n_inputs: int
    layer_sizes: Sequence[int]
    mask: np.ndarray
    J: np.ndarray
    b: np.ndarray
    activation: ActivationKind = ALGEBRAIC

    def __post_init__(self):
        n = self.n_total
        if self.n_inputs < 1:
            raise ValueError("need at least one input")
        sizes = list(self.layer_sizes)
        if not sizes or any(int(m) < 1 for m in sizes) or int(sizes[-1]) != 1:
            raise ValueError("layer_sizes must be nonempty, positive, ending in 1 output")
        mask = np.asarray(self.mask, dtype=float)
        J = np.asarray(self.J, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if mask.shape != (n, n) or J.shape != (n, n) or b.shape != (n,):
            raise ValueError("mask/J must be (n_total, n_total) and b (n_total,)")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask must be binary")
        if np.any(np.triu(mask) != 0):
            raise ValueError("mask must be strictly lower triangular (feed-forward)")
        if np.any(mask[: self.n_inputs]) or np.any(b[: self.n_inputs] != 0):
            raise ValueError("input qubits carry no gate: their mask rows and biases must be 0")
        for arr in (mask, J, b):
            arr.flags.writeable = False
        object.__setattr__(self, "layer_sizes", tuple(int(m) for m in sizes))
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "b", b)

    @property
    def n_total(self) -> int:
        return self.n_inputs + sum(int(m) for m in self.layer_sizes)

    @property
    def n_hidden(self) -> int:
        return self.n_total - self.n_inputs - 1

    def effective_weights(self) -> np.ndarray:
        return self.mask * self.J

    def gates(self, schedule=None):
        """Perceptron gates in global qubit order."""
        W = self.effective_weights()
        out = []
        for j in range(self.n_inputs, self.n_total):
            srcs = {int(k): float(W[j, k]) for k in np.nonzero(self.mask[j])[0]}
            out.append(
                PerceptronGateSpec(
                    target=j, weights=srcs, bias=float(self.b[j]),
                    activation=self.activation, schedule=schedule,
                )
            )
        return out

    def layer_of(self, qubit: int) -> int:
        """Layer index: 0 for inputs, then 1..L."""
        if qubit < self.n_inputs:
            return 0
        edge = self.n_inputs
        for ell, m in enumerate(self.layer_sizes, start=1):
            edge += m
            if qubit < edge:
                return ell
        raise IndexError(f"qubit {qubit} out of range")


def _check_bits(net: NetworkSpec, input_bits: str):
    if len(input_bits) != net.n_inputs or set(input_bits) - {"0", "1"}:
        raise ValueError("input_bits must be a 0/1 string of length n_inputs")


def layered_network(
    n_inputs: int,
    hidden_sizes: Sequence[int],
    activation: ActivationKind = ALGEBRAIC,
) -> NetworkSpec:
    """Fully connected layer-to-layer topology with zero weights and biases.

    Each layer sources every qubit of the previous layer only; a final
    single-perceptron output layer is appended.
    """
    sizes = tuple(int(m) for m in hidden_sizes) + (1,)
    if any(m < 1 for m in sizes):
        raise ValueError("layer sizes must be positive")
    n = n_inputs + sum(sizes)
    mask = np.zeros((n, n))
    prev = list(range(n_inputs))
    q = n_inputs
    for width in sizes:
        cur = list(range(q, q + width))
        for t in cur:
            for s in prev:
                mask[t, s] = 1.0
        prev = cur
        q += width
    return NetworkSpec(n_inputs, sizes, mask, np.zeros((n, n)), np.zeros(n), activation)


def forward(net: NetworkSpec, input_bits: str, schedule=None):
    """Run the circuit on |input_bits, 0...0>.

    Ideal gates when ``schedule`` is None, hardware gates otherwise.
    Returns (final register, output excitation probability).
    """
    _check_bits(net, input_bits)
    reg = init_basis(net.n_total, input_bits + "0" * (net.n_total - net.n_inputs))
    for gate in net.gates(schedule):
        if schedule is None:
            reg = apply_ideal_perceptron(reg, gate)
        else:
            reg = apply_hardware_perceptron(reg, gate)
    return reg, excitation_probability(reg, net.n_total - 1)


_CLAMP = 1e-12


def _cross_entropy(p: np.ndarray, Y: np.ndarray):
    """Mean binary cross entropy, p clamped to [1e-12, 1 - 1e-12] inside the
    logs.  Returns (cost, clamped p)."""
    pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return float(-np.mean(Y * np.log(pc) + (1.0 - Y) * np.log(1.0 - pc))), pc


class _MixtureEngine:
    """Mixture sums of one topology over a list of input bitstrings.

    Precomputes the (samples, configurations, qubits) source tensor once;
    each probability, cost or gradient evaluation is then a handful of dense
    array ops.  Source values enter as sz eigenvalues: inputs fixed at +/-1
    by the bits, hidden qubits at +/-1 by the configuration, the output
    column zeroed (nothing sources the output).  ``labels`` are the targets
    the cross-entropy ``cost`` compares against.
    """

    def __init__(self, net: NetworkSpec, inputs: Sequence[str], labels=()):
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

    def probabilities(self, J: np.ndarray, b: np.ndarray):
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
        wvec = (pc - Y) / (pc * (1.0 - pc)) / self.S  # dC/dp per sample
        dfo = df_dx(kind, X[:, :, -1])
        dJ = np.zeros((n, n))
        db = np.zeros(n)
        out_fac = P * dfo  # (S, C)
        dJ[n - 1] = np.einsum("s,sc,sck->k", wvec, out_fac, self.V)
        db[n - 1] = -float(np.einsum("s,sc->", wvec, out_fac))
        if M:
            dfh = df_dx(kind, X[:, :, N : N + M])
            with np.errstate(divide="ignore", invalid="ignore"):
                G = np.where(bern > 0, self.Z[None] * dfh / bern, 0.0)
            T = G * (P * f_out)[:, :, None]  # (S, C, M)
            dJ[N : N + M] = np.einsum("s,scm,sck->mk", wvec, T, self.V)
            db[N : N + M] = -np.einsum("s,scm->m", wvec, T)
        dJ *= self.net.mask
        return cost, p, dJ, db


def classical_mixture_oracle(net: NetworkSpec, input_bits: str) -> float:
    """Brute-force output probability by summing over hidden configurations.

    Exact for these circuits: diagonal controls and single-targeting make
    the hidden qubits behave as independent classical coins per branch.
    """
    _check_bits(net, input_bits)
    p, _ = _MixtureEngine(net, [input_bits]).probabilities(net.J, net.b)
    return float(p[0])


@dataclass(frozen=True)
class ApproximatorSpec:
    """Classical one-hidden-layer sum Sum_j alpha_j f(w_j . s - theta_j).

    theta_out is pinned by the constraint 1 + theta_out + Sum alpha = 0
    (it can be passed for documentation but must then satisfy it).
    """

    alpha: np.ndarray
    w: np.ndarray
    theta: np.ndarray
    lambda_lin: float = 0.01
    theta_out: Optional[float] = None

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if alpha.ndim != 1 or alpha.size == 0:
            raise ValueError("alpha must be a nonempty vector")
        if w.shape[0] != alpha.size or theta.shape != alpha.shape:
            raise ValueError("w must be (M, N) and theta (M,) matching alpha")
        if not (self.lambda_lin > 0):
            raise ValueError("lambda_lin must be positive")
        forced = -1.0 - float(np.sum(alpha))
        if self.theta_out is not None and abs(self.theta_out - forced) > 1e-12:
            raise ValueError("theta_out must satisfy 1 + theta_out + sum(alpha) = 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_out", forced)


def build_universal_approximator(classical, lambda_lin: float = None) -> NetworkSpec:
    """Three-layer network whose output reads the classical sum linearly.

    ``classical`` is an ApproximatorSpec or an (alpha, w, theta) triple.
    The output gate gets weights lambda * alpha and bias lambda * theta_out;
    for small lambda the output probability is affine in the classical sum
    G = Sum_j alpha_j <f_j>, recoverable via approximator_readout.
    """
    if not isinstance(classical, ApproximatorSpec):
        alpha, w, theta = classical
        classical = ApproximatorSpec(alpha, w, theta,
                                     lambda_lin if lambda_lin is not None else 0.01)
    lam = float(lambda_lin) if lambda_lin is not None else classical.lambda_lin
    if lam <= 0:
        raise ValueError("lambda_lin must be positive")
    M, N = classical.w.shape
    n = N + M + 1
    J = np.zeros((n, n))
    b = np.zeros(n)
    J[N : N + M, :N] = classical.w
    b[N : N + M] = classical.theta
    J[-1, N : N + M] = lam * classical.alpha
    b[-1] = lam * classical.theta_out
    return NetworkSpec(N, (M, 1), layered_network(N, (M,)).mask, J, b, ALGEBRAIC)


def approximator_readout(p_out: float, lambda_lin: float,
                         kind: ActivationKind = ALGEBRAIC) -> float:
    """Invert the affine readout: estimate of G = Sum alpha_j <f_j>.

    With z = 2f - 1 and the theta_out constraint, the linearized output is
    p = 1/2 + f'(0) lambda (2G + 1), so G = ((p - 1/2)/(f'(0) lambda) - 1)/2.
    """
    slope = float(df_dx(kind, 0.0))
    return (((p_out - 0.5) / (slope * lambda_lin)) - 1.0) / 2.0


def _require_strictly_layered(net: NetworkSpec):
    for j in range(net.n_inputs, net.n_total):
        ell = net.layer_of(j)
        for k in np.nonzero(net.mask[j])[0]:
            if net.layer_of(int(k)) != ell - 1:
                raise ValueError(
                    "layer Hamiltonian needs a strictly layered mask: "
                    f"qubit {j} (layer {ell}) sources qubit {int(k)}"
                )


def layer_hamiltonian_forward(net: NetworkSpec, input_bits: str, schedule):
    """Evolve whole layers simultaneously under the shared control ramp.

    Same-layer perceptrons commute (disjoint targets, diagonal controls on
    the previous layer), so the simultaneous layer evolution equals applying
    the layer's hardware gates one after another; total protocol time is
    len(layer_sizes) * schedule.tf.
    """
    _require_strictly_layered(net)
    return forward(net, input_bits, schedule)


def protocol_duration(net: NetworkSpec, schedule) -> float:
    """Physical duration of the layered protocol: one ramp per layer."""
    return len(net.layer_sizes) * schedule.tf


def _activation_tag(kind: ActivationKind) -> str:
    if kind.variant == "cao":
        return f"cao_arctan:{kind.k}"
    return kind.variant


def _activation_from_tag(tag: str) -> ActivationKind:
    if tag.startswith("cao_arctan:"):
        return cao_arctan(int(tag.split(":", 1)[1]))
    return ActivationKind(tag)


def network_to_json(net: NetworkSpec) -> str:
    n = net.n_total
    return json.dumps(
        {
            "n_inputs": net.n_inputs,
            "layer_sizes": list(net.layer_sizes),
            "mask": [int(v) for v in net.mask.reshape(n * n)],
            "J": [float(v) for v in net.J.reshape(n * n)],
            "b": [float(v) for v in net.b],
            "activation": _activation_tag(net.activation),
        }
    )


def network_from_json(doc: str) -> NetworkSpec:
    d = json.loads(doc)
    n_inputs = int(d["n_inputs"])
    sizes = [int(m) for m in d["layer_sizes"]]
    n = n_inputs + sum(sizes)
    mask = np.array(d["mask"], dtype=float).reshape(n, n)
    J = np.array(d["J"], dtype=float).reshape(n, n)
    b = np.array(d["b"], dtype=float)
    return NetworkSpec(n_inputs, sizes, mask, J, b, _activation_from_tag(d["activation"]))
