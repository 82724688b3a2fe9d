"""Write perfbench/reference.json: the values the benchmark checks against.

Two kinds of value are stored:

* DOP853 references (``oracles.dop853_excitation``), which share no code
  with ``dynamics``: the default ``response`` curve and every ramp of the
  default ``benchmark`` subcommand at its 21 x values.
* Values the package produced when the benchmark was defined (the seed
  commit): benchmark infidelities and fit constants, training accuracy and
  final cost, synthesis residuals, and the hardware-mode outputs of the
  3-4-1 network on all eight inputs.  A later commit is checked against these, so they are
  regenerated only on purpose, never to make a failing check pass.

Run from the repository root:  python3 perfbench/make_reference.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import threads

threads.pin()

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qperceptron as q  # noqa: E402

import oracles  # noqa: E402
from workloads import TRAIN_SEED, Classical, _comment  # noqa: E402

def ramp_sweep():
    x_ref = q.optimal_design_field(1.0)
    grid = np.linspace(-10.0, 10.0, 201)
    response = {"x": grid.tolist(),
                "p": oracles.dop853_excitation(q.faquad_schedule(100.0, 1.0, 10.0, x_ref), grid).tolist()}
    tf = np.geomspace(1.0, 30.0, 13)
    xs = np.linspace(-10.0, 10.0, 21)
    lin = [oracles.dop853_excitation(q.linear_schedule(100.0, 1.0, t), xs).tolist() for t in tf]
    faq = [oracles.dop853_excitation(q.faquad_schedule(100.0, 1.0, t, x_ref), xs).tolist() for t in tf]
    rep = q.benchmark_ramps(tf, n_points=21)
    bench = {"tf": tf.tolist(), "x": xs.tolist(), "linear": lin, "faquad": faq,
             "infid_linear": rep.infidelity_linear.tolist(),
             "infid_faquad": rep.infidelity_faquad.tolist(),
             "fit": {"c0": rep.fit_c0, "c1": rep.fit_c1, "c2": rep.fit_c2}}
    return {"response": response, "benchmark": bench}


def hardware_net():
    sched = q.faquad_schedule(100.0, 1.0, 10.0, q.optimal_design_field(1.0))
    net = q.train(q.layered_network(3, (4,)), q.prime_dataset(3),
                  q.TrainConfig(seed=TRAIN_SEED)).final_params
    out = {format(i, "03b"): q.forward(net, format(i, "03b"), sched)[1] for i in range(8)}
    return {"statevector": out}


def classical(workdir):
    import qperceptron.cli  # noqa: F401
    wl = Classical(q, 0, {"classical": {}}, workdir)
    out = {}
    for op, fn in wl.ops():
        with contextlib.redirect_stdout(io.StringIO()):
            res = fn()
        if op == "cli_train":
            with open(wl.out[op], encoding="utf-8") as fh:
                doc = json.load(fh)
            out[op] = {"accuracy": doc["accuracy"], "final_cost": doc["cost_trace"][-1]}
        elif op.startswith("cli_synth"):
            out[op] = {"residual": float(_comment(wl.out[op], "residual")),
                       "converged": _comment(wl.out[op], "converged") == "True"}
        elif op == "train_primes5_h8":
            out[op] = {"accuracy": res.accuracy, "final_cost": res.cost_trace[-1]}
    return out


def main():
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_out", "reference")
    os.makedirs(workdir, exist_ok=True)
    ref = {"classical": classical(workdir), "ramp_sweep": ramp_sweep(),
           "hardware_net": hardware_net()}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
