"""Spans and counters recorded from outside the package.

``Tracer.install()`` replaces each public function of the layer modules by
a timing wrapper, everywhere the package holds a reference to it: the
defining module, every module that imported the name (``register``'s
``schedule_propagators``, ``cli``'s ``response_curve`` ...) and the package
namespace.  ``uninstall()`` puts the originals back, so untimed and timed
runs execute the unmodified code.

A span is (name, start, end, parent index); spans stay in memory and are
written out by the caller when the run ends.  A span's self time is its
duration minus the time covered by its child spans.

Counters, also from outside:

* schedules built while tracing (and the one a workload passes in through
  ``count_schedule``) are wrapped in ``CountingSchedule``, which counts the
  drive samples the integrator requests;
* the fields ``register`` hands to ``schedule_propagators`` are recorded to
  count requested and distinct field integrations.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "activation", "control", "dynamics", "register",
    "network", "training", "synthesis", "cli",
)
_SCHEDULE_FACTORIES = {
    "linear_schedule", "faquad_schedule", "perturbed_schedule",
    "tabulated_schedule", "schedule_from_csv",
}
_CONTROL_BUILD = _SCHEDULE_FACTORIES | {"optimal_design_field", "faquad_constant_mu"}
_SWEEPS = {  # dynamics entry points that integrate, and their x-column count
    "response_curve": lambda a, k: np.size(a[1] if len(a) > 1 else k["x_grid"]),
    "average_fidelity": lambda a, k: int(a[2] if len(a) > 2 else k.get("n_points", 201)),
    "schedule_propagators": lambda a, k: np.size(a[1] if len(a) > 1 else k["x_values"]),
    "evolve_two_level": lambda a, k: 1,
}


class CountingSchedule:
    """Schedule proxy counting the drive samples asked of ``omega``."""

    def __init__(self, base, tracer):
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_tracer", tracer)

    def omega(self, t):
        self._tracer.omega_evals += int(np.size(t))
        return self._base.omega(t)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _unwrap(v):
    return v._base if isinstance(v, CountingSchedule) else v


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.child_time = []
        self.stack = []
        self.omega_evals = 0
        self.column_steps = 0
        self.x_columns = 0
        self.fields_requested = 0
        self.fields_distinct = 0  # summed over passes
        self._pass_fields = set()  # (schedule id, field) seen in this pass
        self.ideal_amps = 0
        self.grad_evals = 0
        self.names = {}  # wrapped name -> layer
        self._saved = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.child_time.append(0.0)
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.child_time[span[3]] += end - span[1]

    def _wrap(self, layer, name, fn):
        tracer = self
        qual = f"{layer}.{name}"
        sweep = _SWEEPS.get(name) if layer == "dynamics" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(qual)
            evals0 = tracer.omega_evals
            try:
                if layer == "control" and name in _SCHEDULE_FACTORIES:
                    args = tuple(_unwrap(a) for a in args)
                    return CountingSchedule(_unwrap(fn(*args, **kwargs)), tracer)
                if qual == "register.apply_ideal_perceptron":
                    tracer.ideal_amps += 1 << int(args[0].n_qubits)
                if qual == "dynamics.schedule_propagators":
                    xs = np.asarray(args[1] if len(args) > 1 else kwargs["x_values"], dtype=float)
                    tracer._record_fields(id(_unwrap(args[0])), xs)
                return fn(*args, **kwargs)
            finally:
                if sweep is not None:
                    cols = int(sweep(args, kwargs))
                    tracer.x_columns += cols
                    tracer.column_steps += (tracer.omega_evals - evals0) * cols
                tracer._exit(idx)

        return wrapper

    def _record_fields(self, sid, xs):
        self.fields_requested += xs.size
        for x in xs.ravel():
            key = (sid, float(x))
            if key not in self._pass_fields:
                self._pass_fields.add(key)
                self.fields_distinct += 1

    def new_pass(self):
        """Start a pass: field repeats are counted within one pass."""
        self._pass_fields = set()

    def count_schedule(self, schedule):
        return CountingSchedule(schedule, self)

    # -- install / uninstall -------------------------------------------
    def install(self, package):
        mods = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        targets = {}
        for layer, mod in mods.items():
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names += [n for n in vars(mod) if n.startswith("cmd_")]
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (fn, self._wrap(layer, name, fn))
                    self.names[f"{layer}.{name}"] = layer
        engine = getattr(mods["training"], "_MixtureEngine", None)
        if engine is not None and inspect.isfunction(getattr(engine, "cost", None)):
            self._patch(engine, "cost", self._engine_cost(engine.cost))
        for mod in list(mods.values()) + [package]:
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])

    def _engine_cost(self, fn):
        tracer = self

        @functools.wraps(fn)
        def cost(eng, J, b, want_grad=False):
            idx = tracer._enter("training.cost_grad")
            try:
                if want_grad:
                    tracer.grad_evals += 1
                return fn(eng, J, b, want_grad)
            finally:
                tracer._exit(idx)

        self.names["training.cost_grad"] = "training"
        return cost

    def _patch(self, obj, attr, new):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        for obj, attr, old in reversed(self._saved):
            setattr(obj, attr, old)
        self._saved.clear()

    # -- aggregation ---------------------------------------------------
    def summary(self, passes: int) -> dict:
        """Per-layer metrics, each per traced pass."""
        total = {}
        self_t = {}
        calls = {}
        hw_prop = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - self.child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if (name == "dynamics.schedule_propagators" and parent >= 0
                    and self.spans[parent][0] == "register.apply_hardware_perceptron"):
                hw_prop += dur

        def t(*names):
            return sum(total.get(n, 0.0) for n in names) / passes

        def c(*names):
            return sum(calls.get(n, 0) for n in names) / passes

        m = {}
        for layer in LAYERS:
            names = [n for n, ly in self.names.items() if ly == layer]
            key = "eval_s" if layer == "activation" else "self_s"
            m[f"{layer}.{key}"] = sum(self_t.get(n, 0.0) for n in names) / passes
            m[f"{layer}.calls"] = c(*names)
        m["cli.response_s"] = t("cli.cmd_response")
        m["cli.benchmark_s"] = t("cli.cmd_benchmark")
        m["cli.train_s"] = t("cli.cmd_train")
        m["cli.synthesize_s"] = t("cli.cmd_synthesize")
        m["control.build_s"] = sum(self_t.get(f"control.{n}", 0.0) for n in _CONTROL_BUILD) / passes
        m["control.omega_evals"] = self.omega_evals / passes
        m["dynamics.response_s"] = t("dynamics.response_curve")
        m["dynamics.fidelity_s"] = t("dynamics.average_fidelity")
        m["dynamics.fit_s"] = t("dynamics.fit_infidelity_decay")
        m["dynamics.propagators_s"] = t("dynamics.schedule_propagators")
        m["dynamics.propagator_calls"] = c("dynamics.schedule_propagators")
        sweep_self = sum(self_t.get(f"dynamics.{n}", 0.0) for n in _SWEEPS)
        m["dynamics.x_columns"] = self.x_columns / passes
        m["dynamics.column_steps_per_s"] = self.column_steps / sweep_self if sweep_self > 0 else 0.0
        m["register.ideal_gate_s"] = t("register.apply_ideal_perceptron")
        m["register.ideal_amps"] = self.ideal_amps / passes
        m["register.hardware_gate_s"] = t("register.apply_hardware_perceptron") - hw_prop / passes
        m["register.hardware_gates"] = c("register.apply_hardware_perceptron")
        requested = self.fields_requested / passes
        distinct = self.fields_distinct / passes
        m["register.fields_requested"] = requested
        m["register.fields_distinct"] = distinct
        m["register.distinct_field_ratio"] = distinct / requested if requested else 0.0
        m["network.forward_s"] = t("network.forward")
        m["network.forwards"] = c("network.forward")
        m["network.mixture_s"] = t("network.classical_mixture_oracle")
        m["training.train_s"] = t("training.train")
        m["training.iters"] = self.grad_evals / passes
        m["training.cost_grad_s"] = t("training.cost_grad")
        m["training.batch_forward_s"] = t("training.batch_state_forward")
        m["synthesis.fit_s"] = t("synthesis.synthesize")
        m["synthesis.apply_s"] = t("synthesis.apply_composition")
        return m
