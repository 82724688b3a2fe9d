"""Classical training of perceptron networks.

Training never simulates the statevector: because forward(Ideal) equals the
classical mixture over hidden configurations exactly, the cost and its
analytic gradient are computed from that sum directly, vectorized over
(samples x configurations), by the network module's _MixtureEngine.  The
gradient differentiates each gate through the activation derivative per
configuration; entries masked out by the topology get an exactly-zero
gradient.

The optimizer is plain gradient descent with a backtracking line search
(halve the step until the cost strictly decreases), restarted from seeded
random initializations; the best restart by final cost wins.  Each
line-search trial runs one forward, which the gradient at the accepted
trial reuses.  All sums are fixed-order, so a fixed seed gives a
bit-identical report.  At DEBUG, train logs one record per restart.
"""
from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ._io import read_rows, write_rows
from .network import NetworkSpec, _cross_entropy, _MixtureEngine, _network_dict, forward
from .register import QuantumRegister, apply_ideal_perceptron, conditional_probability

__all__ = [
    "Dataset",
    "TrainConfig",
    "TrainReport",
    "prime_dataset",
    "cross_entropy_cost",
    "cost_gradient",
    "train",
    "batch_state_forward",
    "dataset_to_csv",
    "dataset_from_csv",
    "report_to_json",
]

_GRAD_TOL = 1e-8
_COST_TOL = 1e-12
_LEARNING_RATE = 2.0  # first line-search step
_INIT_SCALE = 0.5  # restarts draw weights and biases from [-0.5, 0.5]
_TARGET_COST = 0.02  # a restart at or below it that classifies every sample stops the search

_log = logging.getLogger("qperceptron")


@dataclass(frozen=True)
class Dataset:
    """Labeled bitstrings; labels are target probabilities in [0, 1]."""

    n_bits: int
    pairs: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        pairs = tuple((str(x), float(y)) for x, y in self.pairs)
        if not pairs:
            raise ValueError("dataset must hold at least one pair")
        seen = set()
        for x, y in pairs:
            if len(x) != self.n_bits or set(x) - {"0", "1"}:
                raise ValueError(f"input {x!r} is not a {self.n_bits}-bit string")
            if x in seen:
                raise ValueError(f"duplicate input {x!r}")
            if not (0.0 <= y <= 1.0):
                raise ValueError("labels must lie in [0, 1]")
            seen.add(x)
        object.__setattr__(self, "pairs", pairs)

    @property
    def size(self) -> int:
        return len(self.pairs)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def prime_dataset(n_bits: int) -> Dataset:
    """Every n-bit integer labeled 1 iff prime (deliberately overfit toy)."""
    if not (2 <= n_bits <= 8):
        raise ValueError("n_bits must be in [2, 8]")
    pairs = [
        (format(m, f"0{n_bits}b"), 1.0 if _is_prime(m) else 0.0)
        for m in range(1 << n_bits)
    ]
    return Dataset(n_bits, tuple(pairs))


def _engine(net: NetworkSpec, dataset: Dataset) -> _MixtureEngine:
    """Mixture engine over the dataset, for the differentiable entry points."""
    if net.activation.variant == "step":
        raise ValueError("step activation is not differentiable; cannot train")
    if dataset.n_bits != net.n_inputs:
        raise ValueError("dataset width must match the network inputs")
    return _MixtureEngine(net, [x for x, _ in dataset.pairs], [y for _, y in dataset.pairs])


def cross_entropy_cost(net: NetworkSpec, dataset: Dataset, schedule=None) -> float:
    """Mean binary cross entropy of the network on the dataset.

    Probabilities are clamped to [1e-12, 1 - 1e-12] inside the logs.  With
    a schedule the forward passes run in hardware mode, one statevector pass
    per sample and no gradients: about 0.5 s for the 8 three-bit primes on
    a 3-4-1 network (FAQUAD t_f = 10, on a 2-core x86-64 Xeon).
    """
    if schedule is None:
        return _engine(net, dataset).cost(net.J, net.b)[0]
    ps = np.array([forward(net, x, schedule)[1] for x, _ in dataset.pairs])
    return _cross_entropy(ps, np.array([y for _, y in dataset.pairs]))[0]


def cost_gradient(net: NetworkSpec, dataset: Dataset):
    """Analytic (dJ, db) of the cross entropy; masked entries are exactly 0."""
    _, _, dJ, db = _engine(net, dataset).cost(net.J, net.b, want_grad=True)
    return dJ, db


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 2000
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if self.max_iters < 0 or self.restarts < 0:
            raise ValueError("max_iters and restarts must be nonnegative")


@dataclass(frozen=True)
class TrainReport:
    cost_trace: Tuple[float, ...]
    final_params: NetworkSpec
    accuracy: float


def _accuracy(p: np.ndarray, Y: np.ndarray) -> float:
    return float(np.mean((p >= 0.5) == (Y >= 0.5)))


def _descend(eng: _MixtureEngine, J, b, config: TrainConfig):
    cost, p, dJ, db = eng.cost(J, b, want_grad=True)
    trace = [cost]
    for _ in range(config.max_iters):
        if not np.isfinite(cost):
            break
        if cost <= _COST_TOL:
            break
        gmax = max(float(np.max(np.abs(dJ))), float(np.max(np.abs(db))))
        if gmax <= _GRAD_TOL:
            break
        step = _LEARNING_RATE
        for _halving in range(30):
            J2 = J - step * dJ
            b2 = b - step * db
            c2 = eng.cost(J2, b2)[0]
            if np.isfinite(c2) and c2 < cost:
                break
            step *= 0.5
        else:
            break  # no descent direction at any feasible step
        J, b = J2, b2
        cost, p, dJ, db = eng.cost(J, b, want_grad=True)
        trace.append(cost)
    return J, b, trace, p


def train(net0: NetworkSpec, dataset: Dataset, config: TrainConfig) -> TrainReport:
    """Best-of-restarts gradient descent from seeded random initializations.

    Restart 0 starts from net0's own parameters; later restarts draw J and b
    uniformly from [-0.5, 0.5] on the masked-in entries, and set the masked-out
    entries of J to +0.0.  Stops early once a restart classifies every sample
    correctly with cost at or below 0.02.
    """
    eng = _engine(net0, dataset)
    mask = net0.mask
    n = net0.n_total
    best = None
    for r in range(config.restarts + 1):
        if r == 0:
            J0, b0 = np.array(net0.J), np.array(net0.b)
        else:
            rng = np.random.default_rng(config.seed + r)
            J0 = np.where(mask == 1, rng.uniform(-_INIT_SCALE, _INIT_SCALE, (n, n)), 0.0)
            b0 = np.zeros(n)
            b0[net0.n_inputs :] = rng.uniform(-_INIT_SCALE, _INIT_SCALE, n - net0.n_inputs)
        t0, calls, hits = time.perf_counter(), eng.calls, eng.memo_hits
        J, b, trace, p = _descend(eng, J0, b0, config)
        acc = _accuracy(p, eng.Y) if np.isfinite(trace[-1]) else float("nan")
        if _log.isEnabledFor(logging.DEBUG):  # a trace entry per gradient call, the rest trials
            _log.debug("train restart %d: %d iterations, %d line-search trials, %d memo hits, "
                       "final cost %r, accuracy %r, %.3g s", r, len(trace) - 1,
                       eng.calls - calls - len(trace), eng.memo_hits - hits, trace[-1], acc,
                       time.perf_counter() - t0)
        if not np.isfinite(trace[-1]):
            continue
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], trace, J, b, acc)
        if acc == 1.0 and trace[-1] <= _TARGET_COST:
            break
    if best is None:
        raise RuntimeError("every restart diverged to a non-finite cost")
    _, trace, J, b, acc = best
    net = NetworkSpec(
        net0.n_inputs, net0.layer_sizes, net0.mask, J, b, net0.activation
    )
    return TrainReport(tuple(float(c) for c in trace), net, acc)


def batch_state_forward(net: NetworkSpec, dataset: Dataset) -> List[float]:
    """One pass over the equal-weight superposition of all dataset inputs.

    Builds |xi> = S^(-1/2) sum_i |X_i, 0...0>, applies the whole circuit
    once, and reads each p(X_i) back as a conditional probability on the
    input qubits.  Equals per-input forward passes because the gates never
    rotate input qubits.
    """
    if dataset.n_bits != net.n_inputs:
        raise ValueError("dataset width must match the network inputs")
    if dataset.size > (1 << net.n_inputs):
        raise ValueError("more samples than distinct input states")
    pad = net.n_total - net.n_inputs
    amps = np.zeros(1 << net.n_total, dtype=complex)
    r = 1.0 / np.sqrt(dataset.size)
    for x, _ in dataset.pairs:
        amps[int(x + "0" * pad, 2)] = r
    reg = QuantumRegister(net.n_total, amps)
    for gate in net.gates():
        reg = apply_ideal_perceptron(reg, gate)
    inputs = list(range(net.n_inputs))
    out = net.n_total - 1
    return [
        conditional_probability(reg, inputs, [int(c) for c in x], out)
        for x, _ in dataset.pairs
    ]


def dataset_to_csv(dataset: Dataset, path_or_buf) -> None:
    """CSV with header ``x_bits,y``; bitstrings kept as text."""
    write_rows(path_or_buf, "x_bits,y", dataset.pairs)


def dataset_from_csv(path_or_buf) -> Dataset:
    pairs = read_rows(path_or_buf, "x_bits,y", str, float)
    if not pairs:
        raise ValueError("empty dataset file")
    return Dataset(len(pairs[0][0]), tuple(pairs))


def report_to_json(report: TrainReport) -> str:
    """The report as JSON: cost trace, accuracy and the network under ``params``.

    Write-only: the package has no public reader for it; ``network_from_json``
    reads the ``params`` object alone.
    """
    return json.dumps(
        {
            "cost_trace": list(report.cost_trace),
            "accuracy": report.accuracy,
            "params": _network_dict(report.final_params),
        }
    )
