"""The three benchmark workloads: set-up, timed operations and checks.

Each workload is built from a seed.  Set-up (``__init__``) builds every
input before timing starts; ``ops`` lists the timed operations of one pass
in order; ``checks`` lists, per operation, the check of its output against
the stored reference (``reference.json``) or an oracle from ``oracles``.
A check returns None when the output is within tolerance, else a message.

Why these three (see README.md for the full rationale):

* ``ramp_sweep`` - the CLI ``response`` and ``benchmark`` subcommands at
  their defaults: two-level integration in wide vectorized sweeps, linear
  and FAQUAD ramps.  Exercises a faster integrator; bypasses the hardware
  mixture rewrite and the mixture-engine merge.
* ``hardware_net`` - hardware-mode forward passes of a trained 3-4-1
  network: full unitaries to 1e-9 through ``schedule_propagators`` with few
  x columns, the same sector fields requested for every input.  Exercises a
  faster integrator and hardware-through-mixture.
* ``classical`` - training, synthesis, batched ideal forward passes and a
  generalized-XOR composition: no ramp at all.  Exercises the mixture
  engine; bypasses every integrator change.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import oracles

PROB_TOL = 1e-8  # documented probability tolerance of the package
AMP_TOL = 1e-9  # documented amplitude tolerance
REL_TOL = 1e-6  # optimizer outputs (final cost, fit residual) vs the seed commit
# decay-fit constants: infidelity changes within PROB_TOL move them by up to
# 1.4e-4 (relative, 200 random perturbations at the seed commit)
FIT_REL_TOL = 1e-3
TRAIN_SEED = 0  # the CLI default ``--seed``


def _cli(q, argv):
    """Run ``qperceptron.cli.main`` in-process, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = q.cli.main(argv)
    return rc, buf.getvalue()


def _close(got, want, tol, what):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != reference {want.shape}"
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return None if err <= tol else f"{what}: max deviation {err:.3g} > {tol:g}"


def _rel(got, want, what, tol=REL_TOL):
    err = abs(got - want) / max(abs(want), 1e-300)
    return None if err <= tol else f"{what}: {got!r} vs reference {want!r} (rel {err:.3g})"


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _comment(path, key):
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith("#") and f"{key}=" in ln:
                for tok in ln[1:].split():
                    k, _, v = tok.partition("=")
                    if k == key:
                        return v
    raise ValueError(f"no {key}= comment in {path}")


class RampSweep:
    name = "ramp_sweep"
    PROBES = 2  # x values checked per ramp of the benchmark subcommand

    def __init__(self, q, seed, ref, workdir):
        self.q = q
        self.ref = ref["ramp_sweep"]
        self.out_response = os.path.join(workdir, "response.csv")
        self.out_bench = os.path.join(workdir, "bench.csv")
        bench = self.ref["benchmark"]
        xs = np.asarray(bench["x"])
        x_ref = q.optimal_design_field(1.0)
        rng = np.random.default_rng(seed)
        # the seed picks which reference x values the probes check
        self.probes = []
        for i, tf in enumerate(bench["tf"]):
            for kind, sched in (("linear", q.linear_schedule(100.0, 1.0, tf)),
                                ("faquad", q.faquad_schedule(100.0, 1.0, tf, x_ref))):
                pick = np.sort(rng.choice(xs.size, self.PROBES, replace=False))
                self.probes.append((f"probe_{kind}_tf{tf:.3g}", sched, xs[pick],
                                    np.asarray(bench[kind][i])[pick]))

    def ops(self, tracer=None):
        q = self.q
        return [
            ("cli_response", lambda: _cli(q, ["response", "--out", self.out_response])),
            ("cli_benchmark", lambda: _cli(q, ["benchmark", "--out", self.out_bench])),
        ]

    def output_bytes(self):
        return os.path.getsize(self.out_response) + os.path.getsize(self.out_bench)

    def check(self, op, out):
        rc, text = out
        if rc != 0:
            return f"{op}: exit code {rc}"
        if op == "cli_response":
            rows = _csv_rows(self.out_response)
            want = self.ref["response"]
            return (_close(rows[:, 0], want["x"], 0.0, "response x grid")
                    or _close(rows[:, 1], want["p"], PROB_TOL, "response p vs DOP853")
                    or _close(rows[:, 2], oracles.algebraic_f(rows[:, 0]), 1e-12, "g_ideal"))
        bench = self.ref["benchmark"]
        rows = _csv_rows(self.out_bench)
        fit = json.loads(text.strip().splitlines()[-1])
        return (_close(rows[:, 0], bench["tf"], 1e-12, "tf grid")
                or _close(rows[:, 1], bench["infid_linear"], PROB_TOL, "linear infidelity")
                or _close(rows[:, 2], bench["infid_faquad"], PROB_TOL, "faquad infidelity")
                or next(filter(None, (_rel(fit[k], bench["fit"][k], f"fit {k}", FIT_REL_TOL)
                                      for k in ("c0", "c1", "c2"))), None))

    def extra_checks(self):
        """Dynamics probed at seed-chosen x per ramp, against DOP853."""
        q = self.q
        out = []
        for name, sched, xs, want in self.probes:
            def probe(sched=sched, xs=xs, want=want, name=name):
                got = [p for _, p in q.response_curve(sched, xs)]
                return _close(got, want, PROB_TOL, name)
            out.append((name, probe))
        return out


class HardwareNet:
    name = "hardware_net"

    def __init__(self, q, seed, ref, workdir):
        self.q = q
        self.ref = ref["hardware_net"]
        self.schedule = q.faquad_schedule(100.0, 1.0, 10.0, q.optimal_design_field(1.0))
        # The trained weights set each gate's field range and so its step grid:
        # across training seeds 1-5 the pass time spread by 16% (IQR/median).
        # The network is therefore trained with the CLI default seed for every
        # workload seed, and the workload seed picks the two inputs; a pass
        # costs the same for every input, since a gate integrates the fields
        # of all its source configurations.
        report = q.train(q.layered_network(3, (4,)), q.prime_dataset(3),
                         q.TrainConfig(seed=TRAIN_SEED))
        self.net = report.final_params
        rng = np.random.default_rng(seed)
        self.inputs = [format(int(i), "03b") for i in rng.choice(8, 2, replace=False)]

    def ops(self, tracer=None):
        q = self.q
        sched = tracer.count_schedule(self.schedule) if tracer else self.schedule
        return [(f"forward_{bits}", lambda bits=bits: q.forward(self.net, bits, sched)[1])
                for bits in self.inputs]

    def output_bytes(self):
        return 0

    def check(self, op, p):
        bits = op.split("_")[1]
        want = oracles.layered_mixture(
            self.net, bits, lambda xs: oracles.dop853_excitation(self.schedule, xs))
        return (_close(p, want, PROB_TOL, f"p_out({bits}) vs DOP853 mixture")
                or _close(p, self.ref["statevector"][bits], PROB_TOL, f"p_out({bits}) vs seed commit"))

    def extra_checks(self):
        return []


class Classical:
    name = "classical"
    N_REG = 20

    def __init__(self, q, seed, ref, workdir):
        self.q = q
        self.ref = ref["classical"]
        self.out = {k: os.path.join(workdir, f"{k}.out")
                    for k in ("cli_train", "cli_synth_rect", "cli_synth_peak3")}
        rng = np.random.default_rng(seed)
        self.primes5 = q.prime_dataset(5)
        self.net5 = q.layered_network(5, (8,))
        base = q.layered_network(5, (10, 4))
        n = base.n_total
        J = base.mask * rng.uniform(-2.0, 2.0, (n, n))
        b = np.zeros(n)
        b[5:] = rng.uniform(-1.0, 1.0, n - 5)
        self.batch_net = q.NetworkSpec(5, base.layer_sizes, base.mask, J, b)
        n = self.N_REG
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        self.reg = q.QuantumRegister(n, amps / np.linalg.norm(amps))
        m1 = float(rng.integers(0, n - 3)) + 0.5
        self.window = q.analytic_rectangle(q.Rectangle(m1, m1 + 2.0), 12.0)
        self.sources = {k: 1.0 for k in range(n - 1)}

    def ops(self, tracer=None):
        q, out = self.q, self.out
        return [
            ("cli_train", lambda: _cli(q, ["train", "--out", out["cli_train"]])),
            ("cli_synth_rect", lambda: _cli(q, ["synthesize", "--out", out["cli_synth_rect"]])),
            ("cli_synth_peak3", lambda: _cli(q, ["synthesize", "--target", "peak", "--cycles", "3",
                                                 "--out", out["cli_synth_peak3"]])),
            ("train_primes5_h8", lambda: q.train(self.net5, self.primes5, q.TrainConfig())),
            ("batch_forward_20q", lambda: q.batch_state_forward(self.batch_net, self.primes5)),
            ("xor_window_20q", lambda: q.apply_composition(
                self.reg, self.window, self.N_REG - 1, self.sources)),
        ]

    def output_bytes(self):
        return sum(os.path.getsize(p) for p in self.out.values())

    def check(self, op, out):
        want = self.ref.get(op)
        if op.startswith("cli_"):
            rc, _ = out
            if rc != 0:
                return f"{op}: exit code {rc}"
        if op == "cli_train":
            with open(self.out[op], encoding="utf-8") as fh:
                doc = json.load(fh)
            return self._train_check(op, doc["accuracy"], doc["cost_trace"][-1], want)
        if op.startswith("cli_synth"):
            path = self.out[op]
            conv = _comment(path, "converged") == "True"
            if conv != want["converged"]:
                return f"{op}: converged={conv}, reference {want['converged']}"
            return _rel(float(_comment(path, "residual")), want["residual"], f"{op} residual")
        if op == "train_primes5_h8":
            return self._train_check(op, out.accuracy, out.cost_trace[-1], want)
        if op == "batch_forward_20q":
            want = [oracles.layered_mixture(self.batch_net, x, oracles.algebraic_f)
                    for x, _ in self.primes5.pairs]
            return _close(out, want, PROB_TOL, "batch p vs mixture oracle")
        want = oracles.rotate_window(self.reg.amplitudes, self.N_REG, self.N_REG - 1,
                                     self.sources, self.window.cycles)
        return _close(out.amplitudes, want, AMP_TOL, "amplitudes vs direct rotation")

    @staticmethod
    def _train_check(op, accuracy, cost, want):
        if accuracy != want["accuracy"]:
            return f"{op}: accuracy {accuracy!r}, reference {want['accuracy']!r}"
        return _rel(cost, want["final_cost"], f"{op} final cost")

    def extra_checks(self):
        return []


WORKLOADS = {w.name: w for w in (RampSweep, HardwareNet, Classical)}
