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
gradient and the optimizer in the training module, bit for bit as if it
recomputed every activation and every forward it shares or reuses.

Gates of one layer have disjoint targets and diagonal controls on earlier
layers, so they commute: a whole layer can run as one quasi-adiabatic Ising
passage under the shared ramp, with the final state of forward's
gate-by-gate pass.  protocol_duration counts one ramp per layer, and rejects
a net in which a gate sources a qubit of its own layer.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Sequence

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
    "forward",
    "classical_mixture_oracle",
    "build_universal_approximator",
    "approximator_readout",
    "layered_network",
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
        for name, arr in (("J", J), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
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

    A hidden activation, its factors f and 1 - f and its derivative are
    evaluated once per distinct configuration of that qubit's hidden sources
    (once per sample in a layered net).  ``cost`` keeps its last forward,
    keyed on the bytes of J and b, for a gradient asked at the same point;
    ``calls`` counts cost calls and ``memo_hits`` the reuses.
    """

    def __init__(self, net: NetworkSpec, inputs: Sequence[str], labels=()):
        self.net = net
        N, M, n = net.n_inputs, net.n_hidden, net.n_total
        S, C = len(inputs), 1 << M
        if S * C * n > 1 << 26:
            raise ValueError(f"{M} hidden qubits need a {S} x 2^{M} x {n} mixture tensor "
                             f"({S * C * n} doubles), above the limit of 2^26 (512 MiB)")
        cfg = np.arange(C)
        self.Z = 2.0 * ((cfg[:, None] >> np.arange(M)[None, :]) & 1) - 1.0
        V = np.empty((S, C, n))
        for i, x in enumerate(inputs):
            V[i, :, :N] = 2.0 * np.array([int(c) for c in x]) - 1.0
        V[:, :, N : N + M] = self.Z[None, :, :]
        V[:, :, n - 1] = 0.0
        self.V = V
        self.Y = np.array(labels, dtype=float)
        self.N, self.M, self.n, self.S = N, M, n, S
        # hidden qubit m reads configuration c as c & its hidden-source bits:
        # _cols are the columns of X.reshape(S, C * n) with a distinct hidden
        # field, _pick[c, m] the column of [f, 1 - f] with (c, m)'s factor
        src = net.mask[N : N + M, N : N + M].astype(int) @ (1 << np.arange(M))
        cols, inv = np.unique((cfg[:, None] & src) * n + np.arange(N, N + M), return_inverse=True)
        self._cols, self._pick = cols, inv.reshape(C, M) + cols.size * (self.Z < 0)
        self._memo, self.calls, self.memo_hits = None, 0, 0

    def probabilities(self, J: np.ndarray, b: np.ndarray):
        """(p, (X, [f, 1 - f], P, f_out)).  np.take gathers in C order; a
        fancy index B[:, pick] would not, and prod would then multiply in
        another order, moving p by an ulp."""
        net = self.net
        X = self.V @ (net.mask * J).T - b
        f = eval_f(net.activation, X.reshape(self.S, -1)[:, self._cols])
        B = np.hstack([f, 1.0 - f])
        P = np.prod(np.take(B, self._pick, axis=1), axis=2)
        f_out = eval_f(net.activation, X[:, :, -1])
        p = np.einsum("sc,sc->s", P, f_out)
        return p, (X, B, P, f_out)

    def cost(self, J, b, want_grad=False):
        self.calls += 1
        key = (J.tobytes(), b.tobytes())
        if self._memo is not None and self._memo[0] == key:
            self.memo_hits += 1
        else:
            self._memo = None  # free the last forward before building this one
            self._memo = (key, *self.probabilities(J, b))
        p, (X, B, P, f_out) = self._memo[1].copy(), self._memo[2]
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
        d = df_dx(kind, X.reshape(self.S, -1)[:, self._cols])
        with np.errstate(divide="ignore", invalid="ignore"):
            G = np.where(B > 0, np.hstack([d, -d]) / B, 0.0)  # sz f' / factor
        T = np.take(G, self._pick, axis=1) * (P * f_out)[:, :, None]  # (S, C, M)
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


def build_universal_approximator(classical, lambda_lin: float) -> NetworkSpec:
    """Three-layer network whose output reads the classical sum linearly.

    ``classical`` is the triple (alpha, w, theta) of the one-hidden-layer sum
    Sum_j alpha_j f(w_j . s - theta_j), with w of shape (M, N).  The output
    gate gets weights lambda * alpha and bias lambda * theta_out, where the
    readout constraint 1 + theta_out + Sum alpha = 0 fixes theta_out; for
    small lambda the output probability is affine in the classical sum
    G = Sum_j alpha_j <f_j>, recoverable via approximator_readout.
    """
    alpha, w, theta = classical
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if alpha.ndim != 1 or alpha.size == 0:
        raise ValueError("alpha must be a nonempty vector")
    if w.shape[0] != alpha.size or theta.shape != alpha.shape:
        raise ValueError("w must be (M, N) and theta (M,) matching alpha")
    lam = float(lambda_lin)
    if not (lam > 0):
        raise ValueError("lambda_lin must be positive")
    M, N = w.shape
    n = N + M + 1
    J = np.zeros((n, n))
    b = np.zeros(n)
    J[N : N + M, :N] = w
    b[N : N + M] = theta
    J[-1, N : N + M] = lam * alpha
    b[-1] = lam * (-1.0 - float(np.sum(alpha)))
    return NetworkSpec(N, (M, 1), layered_network(N, (M,)).mask, J, b, ALGEBRAIC)


def approximator_readout(p_out: float, lambda_lin: float) -> float:
    """Invert the affine readout: estimate of G = Sum alpha_j <f_j>.

    With z = 2f - 1 and the theta_out constraint, the linearized output is
    p = 1/2 + f'(0) lambda (2G + 1), so G = ((p - 1/2)/(f'(0) lambda) - 1)/2,
    f the algebraic sigmoid every approximator network uses.
    """
    slope = float(df_dx(ALGEBRAIC, 0.0))
    return (((p_out - 0.5) / (slope * lambda_lin)) - 1.0) / 2.0


def protocol_duration(net: NetworkSpec, schedule) -> float:
    """Physical duration of the layered protocol: one ramp per layer.

    A layer runs as one Ising passage only if no gate of it sources a qubit
    of the same layer; such a net raises ValueError naming the target, the
    source and their layer.  Sources in any earlier layer are allowed.
    """
    layer = np.repeat(np.arange(len(net.layer_sizes) + 1), (net.n_inputs,) + net.layer_sizes)
    target, source = np.nonzero(net.mask)
    same = layer[target] == layer[source]
    if np.any(same):
        j, k = int(target[same][0]), int(source[same][0])
        raise ValueError(
            f"qubit {j} sources qubit {k} of its own layer {layer[j]}: "
            "the layer cannot run as one ramp"
        )
    return len(net.layer_sizes) * schedule.tf


def _activation_tag(kind: ActivationKind) -> str:
    if kind.variant == "cao":
        return f"cao_arctan:{kind.k}"
    return kind.variant


def _activation_from_tag(tag: str) -> ActivationKind:
    if tag.startswith("cao_arctan:"):
        return cao_arctan(int(tag.split(":", 1)[1]))
    return ActivationKind(tag)


def _network_dict(net: NetworkSpec) -> dict:
    """The JSON object of network_to_json, before it is dumped."""
    n = net.n_total
    return {
        "n_inputs": net.n_inputs,
        "layer_sizes": list(net.layer_sizes),
        "mask": [int(v) for v in net.mask.reshape(n * n)],
        "J": [float(v) for v in net.J.reshape(n * n)],
        "b": [float(v) for v in net.b],
        "activation": _activation_tag(net.activation),
    }


def network_to_json(net: NetworkSpec) -> str:
    return json.dumps(_network_dict(net))


def network_from_json(doc: str) -> NetworkSpec:
    """Read a network written by network_to_json.

    A document that is not a JSON object, a missing key, a value of the
    wrong type, or a ``mask``, ``J`` or ``b`` list of the wrong length raises
    ValueError naming it.
    """
    d = json.loads(doc)
    if not isinstance(d, dict):
        raise ValueError(f"network JSON must be an object, got {type(d).__name__}")
    for key in ("n_inputs", "layer_sizes", "mask", "J", "b", "activation"):
        if key not in d:
            raise ValueError(f"network JSON has no {key!r} key")

    def read(key, convert):
        try:
            return convert(d[key])
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"network JSON {key!r} is malformed: {exc}") from None

    n_inputs = read("n_inputs", operator.index)  # an int: 2.5 or "2" is malformed
    sizes = read("layer_sizes", lambda v: [operator.index(m) for m in v])
    n = n_inputs + sum(sizes)

    def entries(key, count):
        arr = read(key, lambda v: np.array(v, dtype=float))
        if arr.size != count:
            raise ValueError(f"network JSON {key!r} needs {count} entries, got {arr.size}")
        return arr

    mask = entries("mask", n * n).reshape(n, n)
    J = entries("J", n * n).reshape(n, n)
    b = entries("b", n)
    return NetworkSpec(n_inputs, sizes, mask, J, b, read("activation", _activation_from_tag))
