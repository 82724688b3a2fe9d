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
recomputed every activation it shares.

Gates of one layer have disjoint targets and diagonal controls on earlier
layers, so they commute: a whole layer can run as one quasi-adiabatic Ising
passage under the shared ramp.  protocol_duration counts one ramp per layer,
and rejects a net in which a gate sources a qubit of its own layer.  The one
statevector pass, _pass, runs either mode's gates in place in one state.
"""
from __future__ import annotations

import json
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._io import as_index, check_bits, require_finite, require_rows, require_type
from .activation import ALGEBRAIC, ActivationKind, _check_kind, cao_arctan, df_dx, eval_f
from .dynamics import _validate_schedule
from .register import (
    PerceptronGateSpec, QuantumRegister, _dimension, _hardware_steps, _ideal_step, _in_place,
    _view, excitation_probability)

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
        object.__setattr__(self, "n_inputs", as_index(self.n_inputs, "n_inputs"))
        sizes = tuple(as_index(m, "layer size") for m in self.layer_sizes)
        if self.n_inputs < 1:
            raise ValueError("need at least one input")
        if not sizes or any(m < 1 for m in sizes) or sizes[-1] != 1:
            raise ValueError("layer_sizes must be nonempty, positive, ending in 1 output")
        object.__setattr__(self, "layer_sizes", sizes)
        _check_kind(self.activation, "activation")
        n = self.n_total
        # copies, frozen below: the caller's arrays stay writable and out of reach
        J, b, mask = map(np.array, require_finite(J=self.J, b=self.b, mask=self.mask))
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
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "b", b)

    @property
    def n_total(self) -> int:
        return self.n_inputs + sum(self.layer_sizes)

    @property
    def n_hidden(self) -> int:
        return self.n_total - self.n_inputs - 1

    def effective_weights(self) -> np.ndarray:
        return self.mask * self.J

    def gates(self):
        """Perceptron gates in global qubit order."""
        W = self.effective_weights()
        out = []
        for j in range(self.n_inputs, self.n_total):
            srcs = {int(k): float(W[j, k]) for k in np.nonzero(self.mask[j])[0]}
            out.append(PerceptronGateSpec(j, srcs, float(self.b[j]), self.activation))
        return out


def layered_network(
    n_inputs: int,
    hidden_sizes: Sequence[int],
    activation: ActivationKind = ALGEBRAIC,
) -> NetworkSpec:
    """Fully connected layer-to-layer topology with zero weights and biases.

    Each layer sources every qubit of the previous layer only; a final
    single-perceptron output layer is appended.
    """
    n_inputs = as_index(n_inputs, "n_inputs")
    if n_inputs < 1:
        raise ValueError("need at least one input")
    if np.ndim(hidden_sizes) != 1:
        raise ValueError(f"hidden_sizes must be a 1-D sequence of sizes, got {hidden_sizes!r}")
    sizes = tuple(as_index(m, "layer size") for m in hidden_sizes) + (1,)
    if any(m < 1 for m in sizes):
        raise ValueError("layer sizes must be positive")
    layer = _layer_index(n_inputs, sizes)
    mask = (layer[:, None] == layer[None, :] + 1).astype(float)
    return NetworkSpec(n_inputs, sizes, mask, np.zeros_like(mask), np.zeros(len(mask)), activation)


def _layer_index(n_inputs: int, sizes) -> np.ndarray:
    """Layer of each qubit in global order: 0 for the inputs, then 1, 2, ..."""
    return np.repeat(np.arange(len(sizes) + 1), (n_inputs, *sizes))


def _pass(net: NetworkSpec, inputs, schedule=None) -> QuantumRegister:
    """The one statevector pass: the circuit on S^(-1/2) sum_i |x_i, 0...0> over
    the S checked input bitstrings, its ideal gates (``schedule`` None) or
    hardware ones, integrated in one sweep, run in place in its one state.
    No gate rotates an input qubit."""
    n = require_type(net, NetworkSpec, "net").n_total
    amps = np.zeros(_dimension(n), dtype=complex)
    r = 1.0 / np.sqrt(len(inputs))
    for x in inputs:
        check_bits(x, net.n_inputs, "input_bits")
        _view(amps, n, range(n), map(int, x.ljust(n, "0")))[...] = r
    steps = ((_ideal_step(n, gate) for gate in net.gates()) if schedule is None
             else _hardware_steps(n, amps, schedule, net.gates()))
    return _in_place(n, amps, steps)


def forward(net: NetworkSpec, input_bits: str, schedule=None):
    """Run the circuit on |input_bits, 0...0>, the shared pass on one input:
    ideal gates when ``schedule`` is None, hardware gates otherwise.
    Returns (final register, output excitation probability)."""
    reg = _pass(net, [input_bits], schedule)
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
    (once per sample in a layered net).  ``cost`` is a pure function of
    (J, b).  The field matmul covers the gate rows only, as one 2-D product
    over all (sample, configuration) rows, except in a net with no hidden
    qubit: there a one-row product sums in another order than the dense
    one, which it therefore uses.  Each configuration's product runs in m
    order, and the gradient contractions are two-operand einsums over
    factors pre-scaled by dC/dp.  Every result equals the dense full-tensor
    form bit for bit; the tests guarantee that, not numpy's
    documentation (checked on numpy 2.4.6 only).
    """

    def __init__(self, net: NetworkSpec, inputs: Sequence[str], labels=()):
        self.net = require_type(net, NetworkSpec, "net")
        N, M, n = net.n_inputs, net.n_hidden, net.n_total
        S, C = len(inputs), 1 << M
        if S * C * n > 1 << 26:
            raise ValueError(f"{M} hidden qubits need a {S} x 2^{M} x {n} mixture tensor "
                             f"({S * C * n} doubles), above the limit of 2^26 doubles "
                             "(512 MiB; a cost-and-gradient call peaks at 2.3-3.2x the "
                             "tensor, up to 1.6 GiB)")
        cfg = np.arange(C)
        self.Z = 2.0 * ((cfg[:, None] >> np.arange(M)[None, :]) & 1) - 1.0
        V = np.empty((S, C, n))
        for i, x in enumerate(inputs):
            check_bits(x, N, "input_bits")
            V[i, :, :N] = 2.0 * np.array([int(c) for c in x]) - 1.0
        V[:, :, N : N + M] = self.Z[None, :, :]
        V[:, :, n - 1] = 0.0
        self.V = V
        self.Y = np.array(labels, dtype=float)
        self.N, self.M, self.n, self.S = N, M, n, S
        # hidden qubit m reads configuration c as c & its hidden-source bits:
        # _cols are the columns of X.reshape(S, C * (n - N)) with a distinct
        # hidden field, _pick[c, m] the column of [f, 1 - f] with (c, m)'s factor
        src = net.mask[N : N + M, N : N + M].astype(int) @ (1 << np.arange(M))
        cols, inv = np.unique((cfg[:, None] & src) * (n - N) + np.arange(M), return_inverse=True)
        self._cols, self._pick = cols, inv.reshape(C, M) + cols.size * (self.Z < 0)

    def probabilities(self, J: np.ndarray, b: np.ndarray):
        """(p, (X, [f, 1 - f], P, f_out)), X the gate rows' fields.  P takes
        its factors in m order: any other order can move p by an ulp."""
        net, N, n = self.net, self.N, self.n
        W = net.mask * J
        if self.M:
            X = (self.V.reshape(-1, n) @ W[N:].T).reshape(self.S, -1, n - N)
        else:  # the dense product itself: BLAS would take one sample's one row as a dot
            X = (self.V @ W.T)[:, :, N:]
        X -= b[N:]
        f = eval_f(net.activation, X.reshape(self.S, -1)[:, self._cols])
        B = np.hstack([f, 1.0 - f])
        P = np.ones(X.shape[:2])
        for m in range(self.M):
            P *= np.take(B, self._pick[:, m], axis=1)
        f_out = eval_f(net.activation, X[:, :, -1])
        p = np.einsum("sc,sc->s", P, f_out)
        return p, (X, B, P, f_out)

    def cost(self, J, b, want_grad=False):
        p, (X, B, P, f_out) = self.probabilities(J, b)
        cost, pc = _cross_entropy(p, self.Y)
        if not want_grad:
            return cost, p, None, None
        kind = self.net.activation
        N, M, n = self.N, self.M, self.n
        wvec = (pc - self.Y) / (pc * (1.0 - pc)) / self.S  # dC/dp per sample
        dJ = np.zeros((n, n))
        db = np.zeros(n)
        out_fac = P * df_dx(kind, X[:, :, -1])  # (S, C)
        dJ[n - 1] = np.einsum("sc,sck->k", wvec[:, None] * out_fac, self.V)
        db[n - 1] = -float(np.einsum("s,sc->", wvec, out_fac))
        d = df_dx(kind, X.reshape(self.S, -1)[:, self._cols])
        with np.errstate(divide="ignore", invalid="ignore"):
            G = np.where(B > 0, np.hstack([d, -d]) / B, 0.0)  # sz f' / factor
        T = np.take(G, self._pick, axis=1)  # (S, C, M)
        T *= (P * f_out)[:, :, None]
        db[N : N + M] = -np.einsum("s,scm->m", wvec, T)
        T *= wvec[:, None, None]
        dJ[N : N + M] = np.einsum("scm,sck->mk", T, self.V)
        dJ *= self.net.mask
        return cost, p, dJ, db


def classical_mixture_oracle(net: NetworkSpec, input_bits: str) -> float:
    """Brute-force output probability by summing over hidden configurations.

    Exact for these circuits: diagonal controls and single-targeting make
    the hidden qubits behave as independent classical coins per branch.
    """
    p, _ = _MixtureEngine(net, [input_bits]).probabilities(net.J, net.b)
    return float(p[0])


def _lambda_lin(lam) -> float:
    """lambda_lin as a float; a ValueError naming it unless real, positive and finite."""
    if not isinstance(lam, numbers.Real):
        raise ValueError(f"lambda_lin must be a real number, got {lam!r}")
    if not (lam > 0):
        raise ValueError("lambda_lin must be positive")
    return require_finite(lambda_lin=lam)


def build_universal_approximator(classical, lambda_lin: float) -> NetworkSpec:
    """Three-layer network whose output reads the classical sum linearly.

    ``classical`` is the triple (alpha, w, theta) of the one-hidden-layer sum
    Sum_j alpha_j f(w_j . s - theta_j), with w of shape (M, N).  The output
    gate gets weights lambda * alpha and bias lambda * theta_out, where the
    readout constraint 1 + theta_out + Sum alpha = 0 fixes theta_out; for
    small lambda the output probability is affine in the classical sum
    G = Sum_j alpha_j <f_j>, recoverable via approximator_readout.
    """
    alpha, w, theta = require_rows([classical], 3, "classical")[0]
    alpha, w, theta = require_finite(alpha=alpha, w=w, theta=theta)
    alpha, w, theta = np.atleast_1d(alpha), np.atleast_2d(w), np.atleast_1d(theta)
    if alpha.ndim != 1 or alpha.size == 0:
        raise ValueError("alpha must be a nonempty vector")
    if w.shape[0] != alpha.size or theta.shape != alpha.shape:
        raise ValueError("w must be (M, N) and theta (M,) matching alpha")
    lam = _lambda_lin(lambda_lin)
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
    lam = _lambda_lin(lambda_lin)  # the readout of build_universal_approximator's nets
    require_finite(p_out=p_out)
    slope = float(df_dx(ALGEBRAIC, 0.0))
    return (((p_out - 0.5) / (slope * lam)) - 1.0) / 2.0


def protocol_duration(net: NetworkSpec, schedule) -> float:
    """Physical duration of the layered protocol: one ramp per layer.

    A layer runs as one Ising passage only if no gate of it sources a qubit
    of the same layer; such a net raises ValueError naming the target, the
    source and their layer.  Sources in any earlier layer are allowed.
    """
    layer = _layer_index(require_type(net, NetworkSpec, "net").n_inputs, net.layer_sizes)
    target, source = np.nonzero(net.mask)
    same = layer[target] == layer[source]
    if np.any(same):
        j, k = int(target[same][0]), int(source[same][0])
        raise ValueError(
            f"qubit {j} sources qubit {k} of its own layer {layer[j]}: "
            "the layer cannot run as one ramp"
        )
    _validate_schedule(schedule)
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
    n = require_type(net, NetworkSpec, "net").n_total
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
        try:  # true or false, which int() and float() would read as 1 or 0, is malformed
            if any(isinstance(v, bool) for v in np.ravel(np.array(d[key], dtype=object))):
                raise TypeError("a JSON true or false is not a number")
            return convert(d[key])
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"network JSON {key!r} is malformed: {exc}") from None

    n_inputs = read("n_inputs", operator.index)  # 2.5 or "2" is malformed
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
