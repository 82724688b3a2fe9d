import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qperceptron import cli, dynamics, synthesis
from qperceptron.control import faquad_schedule, optimal_design_field, perturbed_schedule
from qperceptron.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def read_csv(path):
    """Rows of a CLI CSV, skipping # comments; returns (header, rows)."""
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return header, rows


def comments(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [l for l in fh if l.startswith("#")]


class TestResponse:
    def test_writes_annotated_csv(self, tmp_path, capsys):
        out = tmp_path / "resp.csv"
        rc = main(
            [
                "response", "--schedule", "faquad", "--tf", "5",
                "--omega0", "50", "--xmax", "4", "--points", "9",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert any("omega_f = 1" in c for c in comments(out))
        header, rows = read_csv(out)
        assert header == ["x", "p_excite", "g_ideal"]
        assert len(rows) == 9
        assert rows[0][0] == -4.0 and rows[-1][0] == 4.0
        for x, p, g in rows:
            assert 0.0 <= p <= 1.0
            assert g == pytest.approx(0.5 * (1 + x / math.sqrt(1 + x * x)))

    @pytest.mark.parametrize("flags, eps", [([], 0.0), (["--epsilon-ctrl", "0.5"], 0.5)],
                             ids=["defaults", "epsilon_ctrl_0.5"])
    def test_rows_are_response_to_csv_bytes(self, tmp_path, flags, eps):
        out = tmp_path / "resp.csv"
        assert main(["response", *flags, "--out", str(out)]) == 0
        sched = faquad_schedule(100.0, 1.0, 10.0, optimal_design_field(1.0))
        if eps:
            sched = perturbed_schedule(sched, eps)
        buf = io.StringIO()
        dynamics.response_to_csv(dynamics.response_curve(sched, np.linspace(-10.0, 10.0, 201)), buf)
        first, second, rows = out.read_bytes().split(b"\n", 2)
        assert first.startswith(b"# units") and second.startswith(b"# schedule=faquad")
        assert rows == buf.getvalue().encode("utf-8")

    def test_perturbation_flattens_central_slope(self, tmp_path):
        ranges = {}
        for eps in ("0.0", "0.5"):
            out = tmp_path / f"resp{eps}.csv"
            rc = main(
                [
                    "response", "--tf", "10", "--omega0", "100",
                    "--xmax", "2", "--points", "5",
                    "--epsilon-ctrl", eps, "--out", str(out),
                ]
            )
            assert rc == 0
            _, rows = read_csv(out)
            ps = [r[1] for r in rows]
            assert all(b >= a - 1e-6 for a, b in zip(ps, ps[1:]))  # monotone
            ranges[eps] = ps[-1] - ps[0]
        assert ranges["0.5"] < ranges["0.0"] - 0.1

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["response", "--tf", "3", "--omega0", "30", "--xmax", "2",
                "--points", "5"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--points", "0"],
            ["--tf", "0"],
            ["--tf", "-3"],
            ["--omega0", "0"],
            ["--xmax", "-1"],
            ["--epsilon-ctrl", "-0.1"],
            ["--schedule", "cubic"],
            ["--xmax", "inf"],
            ["--tf", "inf"],
            ["--omega0", "inf"],
            ["--epsilon-ctrl", "inf"],
            ["--tf", "nan"],
            ["--omega0", "0.5"],
            ["--omega0", "0.5", "--schedule", "linear"],
            ["--omega0", "1", "--schedule", "faquad"],
            ["--schedule", "linear", "--epsilon-ctrl", "0.2"],
        ],
    )
    def test_flag_validation_exits_2(self, tmp_path, flags, capsys):
        rc = main(["response", *flags, "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_constant_linear_drive_is_allowed(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["response", "--omega0", "1", "--schedule", "linear", "--tf", "1",
                     "--points", "3", "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 3

    def test_huge_points_fail_before_allocating(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["response", "--points", "1000001", "--out", str(out)]) == 2
        assert "--points must be in [1, 1000000]" in capsys.readouterr().err
        assert not out.exists()


class TestBenchmark:
    def test_csv_and_fit_json(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["benchmark", "--tf-min", "1", "--tf-max", "6",
                   "--tf-points", "4", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["tf", "infid_linear", "infid_faquad"]
        assert len(rows) == 4
        for tf, lin, fa in rows:
            assert fa <= lin + 1e-12
        fit = json.loads(capsys.readouterr().out)
        assert set(fit) == {"c0", "c1", "c2"}
        assert fit["c2"] > 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tf-points", "0"],
            ["--tf-points", "3"],
            ["--tf-min", "0", "--tf-max", "5"],
            ["--tf-min", "5", "--tf-max", "5"],
            ["--tf-max", "inf"],
            ["--tf-min", "-inf"],
        ],
    )
    def test_flag_validation_exits_2(self, tmp_path, flags, capsys):
        rc = main(["benchmark", *flags, "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_huge_tf_points_fail_before_allocating(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["benchmark", "--tf-points", str(10**12), "--out", str(out)]) == 2
        assert "--tf-points must be in [4, 1000]" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_two_bit_classifier_perfect(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        argv = ["train", "--bits", "2", "--hidden", "2", "--iters", "400",
                "--restarts", "2", "--seed", "0", "--out", str(out)]
        rc = main(argv)
        assert rc == 0
        assert "accuracy=" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert set(doc) == {"cost_trace", "accuracy", "params"}
        assert doc["accuracy"] == 1.0
        # byte-identical rerun
        out2 = tmp_path / "model2.json"
        assert main(argv[:-1] + [str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--bits", "1"],
            ["--bits", "9"],
            ["--hidden", "0"],
            ["--iters", "0"],
            ["--restarts", "-1"],
        ],
    )
    def test_flag_validation_exits_2(self, tmp_path, flags, capsys):
        rc = main(["train", *flags, "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_too_many_hidden_fails_before_allocating(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["train", "--hidden", "30", "--out", str(out)]) == 1
        assert "30 hidden qubits need a 8 x 2^30 x 34 mixture tensor" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_hidden_fails_before_building_the_net(self, tmp_path, capsys, monkeypatch):
        def no_net(*args):
            raise AssertionError("a network was built")

        monkeypatch.setattr(cli, "layered_network", no_net)
        out = tmp_path / "x.json"
        assert main(["train", "--hidden", str(10**9), "--out", str(out)]) == 2
        assert "--hidden must be in [1, 64]" in capsys.readouterr().err
        assert not out.exists()


class TestSynthesize:
    def test_rectangle_margins(self, tmp_path):
        out = tmp_path / "rect.csv"
        rc = main(["synthesize", "--target", "rect", "--m1", "0", "--m2", "2",
                   "--cycles", "2", "--out", str(out)])
        assert rc == 0
        assert any("converged=True" in c for c in comments(out))
        header, rows = read_csv(out)
        assert header == ["x", "target_angle", "fitted_angle", "fitted_excitation"]
        def nearest(x):
            return min(rows, key=lambda r: abs(r[0] - x))

        assert nearest(1.0)[3] >= 0.95
        assert nearest(-1.0)[3] <= 0.05
        assert nearest(3.0)[3] <= 0.05

    def test_peak_unimodal(self, tmp_path):
        out = tmp_path / "peak.csv"
        rc = main(["synthesize", "--target", "peak", "--m1", "1", "--m2", "0.5",
                   "--cycles", "2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        ang = [r[2] for r in rows]
        k = max(range(len(ang)), key=lambda i: ang[i])
        assert all(b >= a - 1e-6 for a, b in zip(ang[: k + 1], ang[1 : k + 1]))
        assert all(b <= a + 1e-6 for a, b in zip(ang[k:], ang[k + 1 :]))

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["synthesize", "--target", "rect", "--m1", "0", "--m2", "2"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--target", "rect", "--m1", "2", "--m2", "1"],
            ["--target", "rect", "--m1", "1", "--m2", "1"],
            ["--target", "peak", "--m1", "0", "--m2", "0"],
            ["--cycles", "0"],
            ["--target", "sawtooth"],
            ["--m2", "inf"],
            ["--target", "peak", "--m1", "nan"],
        ],
    )
    def test_flag_validation_exits_2(self, tmp_path, flags, capsys):
        rc = main(["synthesize", *flags, "--out", str(tmp_path / "x.csv")])
        assert rc == 2


    def test_cycle_bound_exits_2_before_fitting(self, tmp_path, monkeypatch, capsys):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(synthesis, "_fit_once", no_fit)
        assert main(["synthesize", "--cycles", "7", "--out", str(tmp_path / "x.csv")]) == 2
        assert "--cycles must be in [1, 6]" in capsys.readouterr().err


class TestGridOverflow:
    @pytest.mark.parametrize("argv, flag", [
        (["response", "--xmax", "1e308", "--points", "3"], "--xmax"),
        (["synthesize", "--target", "peak", "--m2", "1e308"], "--m2"),
        (["synthesize", "--m1", "0", "--m2", "1e308"], "--m2"),
    ])
    def test_overflowing_x_grid_exits_2_naming_flag(self, tmp_path, capsys, argv, flag):
        # each flag is finite, but the x grid built from it is not
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestNamedErrors:
    @pytest.mark.parametrize("argv, rc, message", [
        (["response", "--tf", "abc"], 2, "argument --tf: expected a finite number, got 'abc'"),
        (["synthesize", "--m1", "1,5"], 2, "argument --m1: expected a finite number, got '1,5'"),
        # exited 1 without naming a flag; the budget refuses the grid
        # before any edge is allocated
        (["response", "--xmax", "1e300", "--points", "3"], 2,
         "error: step grid needs about 3.33e+300 base steps, over the budget of 16777216; "
         "the phase rule dt <= 3.0 / sqrt(Omega^2 + x^2) dominates, peaking at t = 0; "
         "lower --xmax, --tf or --omega0"),
        (["response", "--tf", "1e9", "--points", "3"], 2,
         "error: step grid needs about 3.52e+09 base steps, over the budget of 16777216; "
         "the phase rule dt <= 3.0 / sqrt(Omega^2 + x^2) dominates, peaking at t = 0; "
         "lower --xmax, --tf or --omega0"),
        # exited 1 after numpy overflow warnings (a warning fails the suite):
        # the drive, then only its slope, overflows at t = 0
        (["response", "--omega0", "1e300"], 2,
         "error: omega0 = 1e+300 makes the faquad drive or its slope overflow at t = 0 "
         "(tf = 10.0); lower --omega0"),
        (["response", "--omega0", "1e120"], 2,
         "error: omega0 = 1e+120 makes the faquad drive or its slope overflow at t = 0 "
         "(tf = 10.0); lower --omega0"),
        (["train", "--seed", "-5"], 2, "--seed must be >= 0"),
        # exited 1: the perturbation is defined relative to a faquad base only
        (["response", "--schedule", "linear", "--epsilon-ctrl", "0.2"], 2,
         "--epsilon-ctrl applies to --schedule faquad only"),
        # exited 1 after a numpy overflow warning, naming no flag
        (["response", "--epsilon-ctrl", "1e307"], 2,
         "error: epsilon_ctrl = 1e+307 makes the perturbed drive or its slope overflow; "
         "lower --epsilon-ctrl"),
        # named --xmax, --tf or --omega0, never the flag that made the grid
        (["response", "--epsilon-ctrl", "1e10"], 2,
         "error: step grid needs about 1.68e+12 base steps, over the budget of 16777216; "
         "the phase rule dt <= 3.0 / sqrt(Omega^2 + x^2) dominates, peaking at t = 0; "
         "lower --xmax, --tf, --omega0 or --epsilon-ctrl"),
        # exited 1 after a numpy overflow warning in the step-count integral,
        # saying the drive was not finite.  At dt E <= 3 that integral stays
        # just finite here; the --xmax row below still overflows it
        (["response", "--epsilon-ctrl", "1e306"], 2,
         "error: step grid needs about 1.68e+308 base steps, over the budget of 16777216; "
         "the phase rule dt <= 3.0 / sqrt(Omega^2 + x^2) dominates, peaking at t = 0; "
         "lower --xmax, --tf, --omega0 or --epsilon-ctrl"),
        (["response", "--xmax", "8e307", "--points", "3"], 2,
         "error: step grid needs more than 1.8e+308 base steps, over the budget of 16777216; "
         "the phase rule dt <= 3.0 / sqrt(Omega^2 + x^2) dominates, peaking at t = 0; "
         "lower --xmax, --tf or --omega0"),
        # exited 1 after scipy found the fit's residuals not finite: the
        # width squares to 0, so the profile was 0/0 at the centre
        (["synthesize", "--target", "peak", "--m2", "1e-200"], 2,
         "error: peak width 1e-200 leaves 2 width^2 = 0.0, not positive and finite; change --m2"),
    ], ids=["tf_text", "m1_comma", "step_budget", "step_budget_tf", "omega0_drive",
            "omega0_slope", "negative_seed", "perturbed_linear", "epsilon_overflow",
            "step_budget_epsilon", "step_count_overflow_epsilon", "step_count_overflow_xmax",
            "peak_width_squares_to_0"])
    def test_message_names_the_cause(self, tmp_path, capsys, monkeypatch, argv, rc, message):
        calls = []
        monkeypatch.setattr(dynamics, "_propagate", lambda *args: calls.append(args))
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == rc
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_benchmark_over_the_step_budget_integrates_nothing(self, tmp_path, capsys,
                                                               monkeypatch):
        # exited 1 after integrating every shorter tf, naming no flag: the
        # longest tf now runs first, and its grid is refused before any step
        calls = []
        monkeypatch.setattr(dynamics, "_propagate", lambda *args: calls.append(args))
        out = tmp_path / "bench.csv"
        assert main(["benchmark", "--tf-max", "1e9", "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            "error: step grid needs about 1.74e+10 base steps, over the budget of 16777216; "
            "the phase rule dt <= 3.0 / sqrt(Omega^2 + x^2) dominates, peaking at t = 0; "
            "lower --tf-max\n")
        assert calls == []
        assert not out.exists()


def run_child(argv):
    """``python argv`` in a fresh interpreter; pyproject's pythonpath does not reach it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_console_script_usage_error(self, tmp_path):
        proc = run_child(["-m", "qperceptron.cli", "response",
                          "--points", "0", "--out", str(tmp_path / "x.csv")])
        assert proc.returncode == 2
        assert "points" in proc.stderr

    def test_import_response_and_train_load_no_scipy(self, tmp_path):
        # scipy loads only inside the solver that needs it (synthesis): the
        # logistic activation is numpy-only too
        code = (
            "import sys\n"
            "import qperceptron, qperceptron.cli\n"
            f"assert qperceptron.cli.main(['response', '--out', {str(tmp_path / 'r.csv')!r}]) == 0\n"
            "assert qperceptron.cli.main(['train', '--iters', '1', "
            f"'--out', {str(tmp_path / 't.json')!r}]) == 0\n"
            "assert qperceptron.eval_f(qperceptron.LOGISTIC, -800.0) == 0.0\n"
            "net = qperceptron.layered_network(2, (1,), qperceptron.LOGISTIC)\n"
            "assert abs(qperceptron.forward(net, '01')[1] - 0.5) < 1e-12\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_child(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_benchmark_loads_no_scipy(self, tmp_path):
        # the decay fit is numpy-only, so the whole ramp path runs without scipy
        code = (
            "import sys\n"
            "import qperceptron.cli\n"
            "assert qperceptron.cli.main(['benchmark', '--tf-points', '4', '--tf-max', '3', "
            f"'--out', {str(tmp_path / 'b.csv')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_child(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
