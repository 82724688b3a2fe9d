"""Command-line interface emitting CSV/JSON artifacts from the toolkit.

Units: frequencies are quoted with the final drive omega_f = 1, times in
1/omega_f.  Every CSV carries `#` comment lines restating this.  Exit codes:
0 success, 2 flag validation failure, 1 runtime failure.  Subcommands are
pure functions of their flags (and seed), so outputs are reproducible.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from ._io import open_text
from .control import (
    faquad_schedule,
    linear_schedule,
    optimal_design_field,
    perturbed_schedule,
)
from .dynamics import (
    _StepBudgetError,
    benchmark_ramps,
    fit_constants_json,
    report_to_csv,
    response_curve,
    response_to_csv,
)
from .network import layered_network
from .synthesis import _MAX_CYCLES, Peak, Rectangle, composition_to_csv, synthesize
from .training import TrainConfig, prime_dataset, report_to_json, train

__all__ = ["main"]

_UNITS_COMMENT = "# units: frequencies in omega_f = 1, times in 1/omega_f\n"
_MAX_POINTS = 1_000_000
_MAX_TF_POINTS = 1000
_MAX_HIDDEN = 64


def _finite(text: str) -> float:
    """argparse type of every float flag: anything but a finite number is a flag error."""
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qperceptron",
        description="perceptron-gate simulation, control benchmarks, "
        "training, and gate synthesis",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("response", help="excitation response curve CSV")
    p.add_argument("--schedule", choices=["linear", "faquad"], default="faquad")
    p.add_argument("--tf", type=_finite, default=10.0)
    p.add_argument("--omega0", type=_finite, default=100.0)
    p.add_argument("--xmax", type=_finite, default=10.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--epsilon-ctrl", type=_finite, default=0.0)
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_response)

    p = sub.add_parser("benchmark", help="linear vs faquad infidelity CSV + fit JSON")
    p.add_argument("--tf-min", type=_finite, default=1.0)
    p.add_argument("--tf-max", type=_finite, default=30.0)
    p.add_argument("--tf-points", type=int, default=13)
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("train", help="train a prime classifier, write JSON report")
    p.add_argument("--bits", type=int, default=3)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synthesize", help="fit a conditional-gate response, write CSV")
    p.add_argument("--target", choices=["rect", "peak"], default="rect")
    p.add_argument("--m1", type=_finite, default=0.0,
                   help="rect: lower edge; peak: center")
    p.add_argument("--m2", type=_finite, default=2.0,
                   help="rect: upper edge; peak: width (> 0)")
    p.add_argument("--cycles", type=int, default=2)
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_synthesize)

    return parser


def _check(parser, ok: bool, message: str) -> None:
    if not ok:
        parser.error(message)  # exits 2


def _x_grid(parser, lo: float, hi: float, n: int, flags: str) -> np.ndarray:
    """np.linspace(lo, hi, n), or exit 2 naming ``flags`` if it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo, hi, n)
    _check(parser, bool(np.all(np.isfinite(grid))), f"{flags} must keep the x grid finite")
    return grid


def cmd_response(parser, args) -> int:
    _check(parser, args.tf > 0, "--tf must be positive")
    _check(parser, args.omega0 > 1 or (args.omega0 == 1 and args.schedule == "linear"),
           "--omega0 must exceed the final drive omega_f = 1 (linear may equal it)")
    _check(parser, args.xmax > 0, "--xmax must be positive")
    _check(parser, 1 <= args.points <= _MAX_POINTS, f"--points must be in [1, {_MAX_POINTS}]")
    _check(parser, args.epsilon_ctrl >= 0, "--epsilon-ctrl must be >= 0")
    _check(parser, args.epsilon_ctrl == 0 or args.schedule == "faquad",
           "--epsilon-ctrl applies to --schedule faquad only")
    if args.schedule == "linear":
        sched = linear_schedule(args.omega0, 1.0, args.tf)
    else:
        try:
            sched = faquad_schedule(args.omega0, 1.0, args.tf, optimal_design_field(1.0))
        except ValueError as exc:
            parser.error(f"{exc}; lower --omega0")
    if args.epsilon_ctrl > 0:
        try:
            sched = perturbed_schedule(sched, args.epsilon_ctrl)
        except ValueError as exc:
            parser.error(f"{exc}; lower --epsilon-ctrl")
    grid = _x_grid(parser, -args.xmax, args.xmax, args.points, "--xmax")
    try:
        curve = response_curve(sched, grid)
    except _StepBudgetError as exc:
        flags = ("--xmax, --tf, --omega0 or --epsilon-ctrl" if args.epsilon_ctrl
                 else "--xmax, --tf or --omega0")
        parser.error(f"{exc}; lower {flags}")
    with open_text(args.out, "w") as fh:
        fh.write(_UNITS_COMMENT)
        fh.write(
            f"# schedule={args.schedule} tf={args.tf!r} omega0={args.omega0!r} "
            f"epsilon_ctrl={args.epsilon_ctrl!r}\n"
        )
        response_to_csv(curve, fh)
    return 0


def cmd_benchmark(parser, args) -> int:
    _check(parser, 4 <= args.tf_points <= _MAX_TF_POINTS,
           f"--tf-points must be in [4, {_MAX_TF_POINTS}] (the fit needs 4)")
    _check(parser, args.tf_min > 0, "--tf-min must be positive")
    _check(parser, args.tf_max > args.tf_min, "--tf-max must exceed --tf-min")
    tf_grid = np.geomspace(args.tf_min, args.tf_max, args.tf_points)
    try:
        report = benchmark_ramps(tf_grid, n_points=21)
    except _StepBudgetError as exc:
        parser.error(f"{exc}; lower --tf-max")
    with open_text(args.out, "w") as fh:
        fh.write(_UNITS_COMMENT)
        report_to_csv(report, fh)
    print(fit_constants_json(report))
    return 0


def cmd_train(parser, args) -> int:
    _check(parser, 2 <= args.bits <= 8, "--bits must be in [2, 8]")
    _check(parser, 1 <= args.hidden <= _MAX_HIDDEN, f"--hidden must be in [1, {_MAX_HIDDEN}]")
    _check(parser, args.iters >= 1, "--iters must be >= 1")
    _check(parser, args.restarts >= 0, "--restarts must be >= 0")
    _check(parser, args.seed >= 0, "--seed must be >= 0")
    net0 = layered_network(args.bits, (args.hidden,))
    config = TrainConfig(
        max_iters=args.iters, seed=args.seed, restarts=args.restarts
    )
    report = train(net0, prime_dataset(args.bits), config)
    with open_text(args.out, "w") as fh:
        fh.write(report_to_json(report))
        fh.write("\n")
    print(f"accuracy={report.accuracy!r} final_cost={report.cost_trace[-1]!r}")
    return 0


def cmd_synthesize(parser, args) -> int:
    _check(parser, 1 <= args.cycles <= _MAX_CYCLES, f"--cycles must be in [1, {_MAX_CYCLES}]")
    if args.target == "rect":
        _check(parser, args.m1 < args.m2, "--m1 must be below --m2")
        target = Rectangle(args.m1, args.m2)
        span = args.m2 - args.m1
        lo, hi = args.m1 - span, args.m2 + span
    else:
        _check(parser, args.m2 > 0, "peak width (--m2) must be positive")
        try:
            target = Peak(args.m1, args.m2)
        except ValueError as exc:
            parser.error(f"{exc}; change --m2")
        lo, hi = args.m1 - 4 * args.m2, args.m1 + 4 * args.m2
    grid = _x_grid(parser, lo, hi, 161, "--m1 and --m2")
    result = synthesize(target, args.cycles, grid)
    with open_text(args.out, "w") as fh:
        fh.write(_UNITS_COMMENT)
        fh.write(f"# residual={result.residual!r} converged={result.converged}\n")
        composition_to_csv(result, target, grid, fh)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
