"""qperceptron benchmark: one workload, timed and checked, one JSON line out.

Usage (from the repository root):

    python3 perfbench/run.py --workload ramp_sweep --seed 0 --seconds 10 --trace 0

Workloads: ramp_sweep, hardware_net, classical (see workloads.py and
README.md).  A run:

1. pins BLAS/OpenMP pools to one thread (threads.py) and imports the
   package from ./src, failing if that source tree is absent;
2. measures set-up time as the median of SETUP_SAMPLES fresh interpreters
   that import the package and build the workload's inputs (setup_s);
3. builds the inputs once more in this process and runs whole passes until
   --seconds have elapsed (at least one); wall_s is the median pass time;
4. checks every operation's output after each pass, outside the timing;
5. with --trace 1, skips the set-up samples, runs an untraced warm-up pass
   and an untraced reference pass, then traced passes, and reports per-layer
   metrics (tracer.py) plus the tracing overhead against the reference pass.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it give every metric with its unit, per-operation timings,
fail_frac and the environment.  Spans and the full record go to
.perfbench_out/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import threads

THREAD_PINS = threads.pin()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
INIT = os.path.join(SRC, "qperceptron", "__init__.py")


def _import_package():
    sys.path.insert(0, SRC)
    import qperceptron
    import qperceptron.cli  # noqa: F401  (the CLI is not imported by the package)
    if os.path.realpath(qperceptron.__file__) != os.path.realpath(INIT):
        raise SystemExit(f"perfbench: imported {qperceptron.__file__}, not {INIT}")
    return qperceptron


def _units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _build(args, workdir):
    q = _import_package()
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](q, args.seed, _load_reference(), workdir)


def _setup_samples(args):
    """Wall time of fresh interpreters doing import plus workload set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up run failed: " + proc.stderr.decode(errors="replace")[-2000:])
    return out


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.op_times = {}
        self.attempted = 0
        self.failed = []
        self.peak_rss_mb = None  # after set-up and the first pass, before any check

    def one_pass(self, tracer=None):
        outs = []
        t0 = time.perf_counter()
        for name, fn in self.workload.ops(tracer):
            t = time.perf_counter()
            try:
                outs.append((name, fn(), None))
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
                outs.append((name, None, f"{name} raised {type(exc).__name__}: {exc}"))
            self.op_times.setdefault(name, []).append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return wall, outs

    def check(self, outs):
        checks = [(name, lambda name=name, out=out, err=err: err or self.workload.check(name, out))
                  for name, out, err in outs]
        for name, fn in checks + self.workload.extra_checks():
            self.attempted += 1
            try:
                err = fn()
            except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
                err = f"{name}: check raised {type(exc).__name__}: {exc}"
            if err:
                self.failed.append(err)

    def checked_pass(self, tracer=None):
        """One pass, then its checks; its outputs are freed on return."""
        if tracer is None:
            wall, outs = self.one_pass()
        else:
            tracer.new_pass()
            tracer.install(self.workload.q)
            try:
                wall, outs = self.one_pass(tracer)
            finally:
                tracer.uninstall()
        self.check(outs)
        return wall

    def passes(self, seconds, tracer=None):
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            walls.append(self.checked_pass(tracer))
        return walls


def _environment():
    import numpy
    import scipy
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:  # a checkout without .git of its own has no commit; the src digest still identifies it
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        commit = out[1] if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT) else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "thread_pins": THREAD_PINS,
        "machine": platform.machine(),
    }


def main(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(INIT):
        raise SystemExit(f"perfbench: no package source at {INIT}; run from a checkout")

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            _build(args, workdir)
            return 0
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir):
    import compileall
    compileall.compile_dir(SRC, quiet=1)  # users run with cached bytecode
    units = _units()
    setup = [] if args.trace else _setup_samples(args)
    workload = _build(args, workdir)
    run = Run(workload)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(), "setup_samples": setup}
    lines = []
    if args.trace:
        from tracer import Tracer
        run.checked_pass()  # warm-up: the first pass pays for first allocations and calls
        untraced = run.checked_pass()
        tracer = Tracer()
        walls = run.passes(args.seconds, tracer)
        traced = statistics.median(walls)
        metrics = tracer.summary(len(walls))
        metrics["cli.bytes_written"] = float(workload.output_bytes())
        metrics["trace.wall_s"] = traced
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        metrics["trace.spans"] = len(tracer.spans) / len(walls)
        lines.append(f"tracing overhead: traced pass {traced:.4f} s vs untraced "
                     f"{untraced:.4f} s = {100 * metrics['trace.overhead_frac']:+.2f}%")
        req = metrics["register.fields_requested"]
        if req:
            share = 1.0 - metrics["register.distinct_field_ratio"]
            lines.append(f"repeated field integrations: {share:.4f} of {req:g} requested per pass "
                         f"({metrics['register.fields_distinct']:g} distinct)")
        record["spans"] = tracer.spans
    else:
        walls = run.passes(args.seconds)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": run.peak_rss_mb,
        }

    fail_frac = len(run.failed) / run.attempted
    record.update(metrics=metrics, pass_walls=walls, op_times=run.op_times,
                  attempted=run.attempted, failures=run.failed)
    env = record["environment"]
    print(f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['commit']} src_sha256={env['src_sha256'][:16]} "
          f"threads={threads.THREADS}")
    tail = _tail(walls)
    print(f"passes: {len(walls)}, wall median {statistics.median(walls):.4f} s"
          + (f", p{tail[0]:.0f} {tail[1]:.4f} s" if tail else ", tail percentile needs >= 11 passes"))
    for name, ts in run.op_times.items():
        tail = _tail(ts)
        print(f"op {name}: n={len(ts)} median {statistics.median(ts):.4f} s"
              + (f" p{tail[0]:.0f} {tail[1]:.4f} s" if tail else ""))
    for line in lines:
        print(line)
    for err in run.failed:
        print(f"FAILED {err}")
    print(f"fail_frac {fail_frac:.6g} ratio ({len(run.failed)} of {run.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    result = {
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
