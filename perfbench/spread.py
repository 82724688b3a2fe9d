"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 0-9 [--workload W ...] [--trace 1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one after another.  With two or
more seeds it prints, per metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median.
``--out`` writes the per-seed values and the summary as JSON;
``baseline.json`` holds two such reports, untraced and traced.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ramp_sweep", "hardware_net", "classical")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    report = {}
    for wl in args.workload or WORKLOADS:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"{wl} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            res["elapsed_s"] = time.perf_counter() - t0
            runs.append(res)
            print(wl, seed, f"{res['elapsed_s']:.1f}s", res["correct"], res["attempted"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        summary = {}
        for name in runs[0]["metrics"] if len(runs) > 1 else ():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": spread}
            print(f"  {wl} {name}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {spread:.4f}", flush=True)
        record = os.path.join(ROOT, ".perfbench_out",
                              f"{wl}-seed{args.seeds[0]}-trace{args.trace}.json")
        with open(record, encoding="utf-8") as fh:
            report["environment"] = json.load(fh)["environment"]
        report[wl] = {"runs": runs, "summary": summary,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs)}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
