import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

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
        ],
    )
    def test_flag_validation_exits_2(self, tmp_path, flags, capsys):
        rc = main(["response", *flags, "--out", str(tmp_path / "x.csv")])
        assert rc == 2


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


class TestEntryPoint:
    def test_console_script_usage_error(self, tmp_path):
        # pyproject's pythonpath does not reach child processes
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qperceptron.cli", "response",
             "--points", "0", "--out", str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "points" in proc.stderr

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
