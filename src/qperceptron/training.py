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
line-search trial returns its cost and gradient from one engine call, and
the accepted trial is the next iterate.  All sums are fixed-order, so a
fixed seed gives a bit-identical report.  At DEBUG, train logs one record
per restart.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ._io import as_index, check_bits, read_rows, require_finite, write_rows
from .network import NetworkSpec, _cross_entropy, _MixtureEngine, _network_dict, _pass
from .register import conditional_probability

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
        object.__setattr__(self, "n_bits", as_index(self.n_bits, "n_bits"))
        pairs = tuple(self.pairs)
        labels = require_finite(labels=[y for _, y in pairs]).tolist()
        pairs = tuple(zip((str(x) for x, _ in pairs), labels))
        if not pairs:
            raise ValueError("dataset must hold at least one pair")
        seen = set()
        for x, y in pairs:
            check_bits(x, self.n_bits, "input")
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
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def prime_dataset(n_bits: int) -> Dataset:
    """Every n-bit integer labeled 1 iff prime (deliberately overfit toy)."""
    n_bits = as_index(n_bits, "n_bits")
    if not (2 <= n_bits <= 8):
        raise ValueError("n_bits must be in [2, 8]")
    pairs = ((format(m, f"0{n_bits}b"), float(_is_prime(m))) for m in range(1 << n_bits))
    return Dataset(n_bits, tuple(pairs))


def _engine(net: NetworkSpec, dataset: Dataset) -> _MixtureEngine:
    """Mixture engine over the dataset, for the ideal cost and the gradient."""
    return _MixtureEngine(net, [x for x, _ in dataset.pairs], [y for _, y in dataset.pairs])


def cross_entropy_cost(net: NetworkSpec, dataset: Dataset, schedule=None) -> float:
    """Mean binary cross entropy of the network on the dataset.

    Probabilities are clamped to [1e-12, 1 - 1e-12] inside the logs.  With
    a schedule the gates run in hardware mode: one statevector pass over the
    superposition of all inputs, all its fields in one sweep, no gradient.
    """
    if schedule is None:
        return _engine(net, dataset).cost(net.J, net.b)[0]
    ps = np.array(_pass_probabilities(net, dataset, schedule))
    return _cross_entropy(ps, np.array([y for _, y in dataset.pairs]))[0]


def _refuse_step(net: NetworkSpec) -> None:
    if net.activation.variant == "step":
        raise ValueError("step activation is not differentiable; cannot train")


def cost_gradient(net: NetworkSpec, dataset: Dataset):
    """Analytic (dJ, db) of the cross entropy; masked entries are exactly 0."""
    _refuse_step(net)
    _, _, dJ, db = _engine(net, dataset).cost(net.J, net.b, want_grad=True)
    return dJ, db


@dataclass(frozen=True)
class TrainConfig:
    max_iters: int = 2000
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        for name in ("max_iters", "seed", "restarts"):
            if (value := as_index(getattr(self, name), name)) < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TrainReport:
    cost_trace: Tuple[float, ...]
    final_params: NetworkSpec
    accuracy: float


def _accuracy(p: np.ndarray, Y: np.ndarray) -> float:
    return float(np.mean((p >= 0.5) == (Y >= 0.5)))


def _descend(eng: _MixtureEngine, J, b, config: TrainConfig):
    """(J, b, cost trace, p, line-search trials) of one descent."""
    cost, p, dJ, db = eng.cost(J, b, want_grad=True)
    trace, trials = [cost], 0
    for _ in range(config.max_iters):
        gmax = max(float(np.max(np.abs(dJ))), float(np.max(np.abs(db))))
        if gmax <= _GRAD_TOL:
            break
        step = _LEARNING_RATE
        for _halving in range(30):
            J2 = J - step * dJ
            b2 = b - step * db
            trial = eng.cost(J2, b2, want_grad=True)
            trials += 1
            if trial[0] < cost:
                break
            step *= 0.5
        else:
            break  # no descent direction at any feasible step
        J, b = J2, b2
        cost, p, dJ, db = trial
        trace.append(cost)
    return J, b, trace, p, trials


def train(net0: NetworkSpec, dataset: Dataset, config: TrainConfig) -> TrainReport:
    """Best-of-restarts gradient descent from seeded random initializations.

    Restart 0 starts from net0's own parameters; later restarts draw J and b
    uniformly from [-0.5, 0.5] on the masked-in entries, and set the masked-out
    entries of J to +0.0.  Stops early once a restart classifies every sample
    correctly with cost at or below 0.02.
    """
    if net0.activation.variant == "cao":  # restarts and line search leave its domain
        raise ValueError("cao activation is only defined on [-pi/4, pi/4]; cannot train")
    _refuse_step(net0)
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
        t0 = time.perf_counter()
        J, b, trace, p, trials = _descend(eng, J0, b0, config)
        acc = _accuracy(p, eng.Y)
        _log.debug("train restart %d: %d iterations, %d line-search trials, final cost %r, "
                   "accuracy %r, %.3g s", r, len(trace) - 1, trials, trace[-1], acc,
                   time.perf_counter() - t0)
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], trace, J, b, acc)
        if acc == 1.0 and trace[-1] <= _TARGET_COST:
            break
    _, trace, J, b, acc = best
    return TrainReport(tuple(float(c) for c in trace), dataclasses.replace(net0, J=J, b=b), acc)


def _pass_probabilities(net: NetworkSpec, dataset: Dataset, schedule=None) -> List[float]:
    """p(X_i) of every dataset input from one network pass over all of them."""
    reg = _pass(net, [x for x, _ in dataset.pairs], schedule)
    return [conditional_probability(reg, range(net.n_inputs), [int(c) for c in x], net.n_total - 1)
            for x, _ in dataset.pairs]


def batch_state_forward(net: NetworkSpec, dataset: Dataset) -> List[float]:
    """One ideal pass over the equal-weight superposition of all dataset inputs:
    the network's shared pass on S^(-1/2) sum_i |X_i, 0...0>, each p(X_i) read
    back as a conditional probability on the input qubits.  Equals per-input
    forward passes because the gates never rotate input qubits."""
    return _pass_probabilities(net, dataset)


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
