import io
import math

import numpy as np
import pytest

from qperceptron import synthesis
from qperceptron.activation import ALGEBRAIC, chi
from qperceptron.register import (
    QuantumRegister,
    excitation_probability,
    init_basis,
)
from qperceptron.synthesis import (
    CompositionSpec,
    Peak,
    Rectangle,
    Sampled,
    analytic_rectangle,
    apply_composition,
    composition_angle,
    composition_to_csv,
    synthesize,
    target_angle,
)

HALF_PI = math.pi / 2


class TestTargets:
    def test_rectangle_profile(self):
        r = Rectangle(0.0, 2.0)
        x = np.array([-1.0, 0.0, 1e-9, 1.0, 2.0 - 1e-9, 2.0, 3.0])
        a = target_angle(r, x)
        assert list(a) == [0.0, 0.0, HALF_PI, HALF_PI, HALF_PI, 0.0, 0.0]

    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Rectangle(2.0, 1.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, 1.0)
        with pytest.raises(ValueError):
            Rectangle(np.nan, 1.0)

    def test_peak_profile(self):
        p = Peak(1.0, 0.5)
        assert target_angle(p, 1.0) == pytest.approx(HALF_PI)
        assert target_angle(p, 1.5) == pytest.approx(HALF_PI * math.exp(-0.5))
        assert target_angle(p, 100.0) < 1e-10

    def test_peak_validation(self):
        with pytest.raises(ValueError):
            Peak(0.0, 0.0)
        with pytest.raises(ValueError):
            Peak(0.0, -1.0)

    def test_sampled_interpolates(self):
        s = Sampled(((0.0, 0.0), (1.0, 1.0)))
        assert target_angle(s, 0.25) == pytest.approx(0.25)

    def test_sampled_validation(self):
        with pytest.raises(ValueError):
            Sampled(())
        with pytest.raises(ValueError):
            Sampled(((0.0, 2.0),))  # angle above pi/2
        with pytest.raises(ValueError):
            Sampled(((0.0, -0.1),))


class TestCompositionAngle:
    def test_single_cycle_at_origin(self):
        spec = CompositionSpec(((1.0, 0.0, 1),))
        assert composition_angle(spec, 0.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_opposite_cycles_cancel(self):
        spec = CompositionSpec(((1.3, 0.4, 1), (1.3, 0.4, -1)))
        x = np.linspace(-5, 5, 41)
        assert np.all(composition_angle(spec, x) == 0.0)

    def test_rectangle_mechanism(self):
        spec = analytic_rectangle(Rectangle(0.0, 2.0), steepness=40.0)
        assert composition_angle(spec, 1.0) > 1.45
        assert composition_angle(spec, -1.0) < 0.1
        assert composition_angle(spec, 3.0) < 0.1

    def test_additivity_exact(self):
        a = CompositionSpec(((1.5, 0.2, 1),))
        b = CompositionSpec(((0.7, -1.1, -1), (2.0, 0.5, 1)))
        both = CompositionSpec(a.cycles + b.cycles)
        x = np.linspace(-3, 3, 31)
        total = composition_angle(a, x) + composition_angle(b, x)
        # regrouped float sums differ only in the last bit
        assert np.max(np.abs(composition_angle(both, x) - total)) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            CompositionSpec(())
        with pytest.raises(ValueError):
            CompositionSpec(((1.0, 0.0, 2),))
        with pytest.raises(ValueError):
            CompositionSpec(((np.inf, 0.0, 1),))
        spec = CompositionSpec(((1.0, 0.0, 1),))
        with pytest.raises(ValueError):
            composition_angle(spec, np.nan)

    def test_steeper_walls_fit_better(self):
        rect = Rectangle(0.0, 2.0)
        grid = np.linspace(-1.97, 3.97, 80)
        tgt = target_angle(rect, grid)
        rms = []
        for w in (5.0, 10.0, 20.0, 40.0):
            ang = composition_angle(analytic_rectangle(rect, w), grid)
            rms.append(float(np.sqrt(np.mean((ang - tgt) ** 2))))
        assert all(b < a for a, b in zip(rms, rms[1:]))


class TestSynthesize:
    def test_recovers_single_cycle(self):
        grid = np.linspace(-4, 4, 81)
        pts = tuple((float(x), float(chi(ALGEBRAIC, 1.7 * x - 0.6))) for x in grid)
        res = synthesize(Sampled(pts), 1, grid)
        assert res.converged
        assert res.residual < 1e-6
        (w, th, o), = res.spec.cycles
        assert o == 1
        assert w == pytest.approx(1.7, abs=1e-3)
        assert th == pytest.approx(0.6, abs=1e-3)

    def test_rectangle_margins(self):
        res = synthesize(Rectangle(0.0, 2.0), 2, np.linspace(-1, 3, 41))
        assert res.converged
        exc = np.sin(composition_angle(res.spec, np.array([-1.0, 1.0, 3.0]))) ** 2
        assert exc[1] >= 0.95
        assert exc[0] <= 0.05
        assert exc[2] <= 0.05

    def test_peak_unimodal(self):
        grid = np.linspace(-2, 4, 61)
        res = synthesize(Peak(1.0, 0.5), 2, grid)
        assert res.converged
        ang = composition_angle(res.spec, grid)
        k = int(np.argmax(ang))
        assert 0 < k < len(grid) - 1
        d = np.diff(ang)
        assert np.all(d[:k] > -1e-6)
        assert np.all(d[k:] < 1e-6)

    def test_impossible_fit_reports_nonconvergence(self):
        # a window needs two walls; one cycle only has one
        res = synthesize(Rectangle(0.0, 2.0), 1, np.linspace(-1, 3, 41))
        assert not res.converged
        assert res.residual > 0.3

    def test_deterministic(self):
        grid = np.linspace(-1, 3, 21)
        a = synthesize(Rectangle(0.0, 2.0), 2, grid)
        b = synthesize(Rectangle(0.0, 2.0), 2, grid)
        assert a.spec == b.spec
        assert a.residual == b.residual

    def test_closed_form_start_alone(self, monkeypatch):
        monkeypatch.setattr(synthesis, "_RESTARTS", 0)
        res = synthesize(Rectangle(0.0, 2.0), 2, np.linspace(-1, 3, 41))
        assert res.converged
        assert res.residual < 2e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize(Rectangle(0.0, 2.0), 0, np.linspace(-1, 3, 11))
        with pytest.raises(ValueError):
            synthesize(Rectangle(0.0, 2.0), 2, [])
        with pytest.raises(ValueError):
            synthesize(Rectangle(0.0, 2.0), 2, [0.0, np.inf])


class TestApplyComposition:
    def test_cancelling_spec_is_identity(self):
        spec = CompositionSpec(((2.0, 0.3, 1), (2.0, 0.3, -1)))
        rng = np.random.default_rng(4)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        reg = QuantumRegister(3, v)
        out = apply_composition(reg, spec, 2, {0: 1.0, 1: -0.5})
        assert np.array_equal(out.amplitudes, reg.amplitudes)

    def test_norm_preserved(self):
        res = synthesize(Rectangle(0.5, 2.5), 2, np.linspace(-0.5, 3.5, 33))
        rng = np.random.default_rng(7)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        out = apply_composition(
            QuantumRegister(4, v), res.spec, 3, {0: 1.0, 1: 2.0, 2: 0.5}
        )
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_cnot_truth_table(self):
        res = synthesize(Rectangle(0.0, 2.0), 2, np.linspace(-1, 3, 41))
        reg = init_basis(2, "10")
        out = apply_composition(reg, res.spec, 1, {0: 1.0})
        assert excitation_probability(out, 1) >= 0.95
        reg = init_basis(2, "00")
        out = apply_composition(reg, res.spec, 1, {0: 1.0})
        assert excitation_probability(out, 1) <= 0.05

    def test_three_control_window_truth_table(self):
        res = synthesize(Rectangle(0.5, 2.5), 2, np.linspace(-0.5, 3.5, 33))
        weights = {0: 1.0, 1: 1.0, 2: 1.0}
        for bits in range(8):
            s = format(bits, "03b")
            reg = init_basis(4, s + "0")
            out = apply_composition(reg, res.spec, 3, weights)
            p = excitation_probability(out, 3)
            if 1 <= s.count("1") <= 2:
                assert p >= 0.95, s
            else:
                assert p <= 0.05, s

    def test_entangles_superposed_control(self):
        from qperceptron.register import apply_hadamard

        res = synthesize(Rectangle(0.0, 2.0), 2, np.linspace(-1, 3, 41))
        reg = apply_hadamard(init_basis(2, "00"), 0)
        out = apply_composition(reg, res.spec, 1, {0: 1.0})
        probs = np.abs(out.amplitudes) ** 2
        # weight should sit on |00> and |11> only
        assert probs[0b00] == pytest.approx(0.5, abs=0.03)
        assert probs[0b11] == pytest.approx(0.5, abs=0.03)
        assert probs[0b01] + probs[0b10] < 0.05

    def test_validation(self):
        spec = CompositionSpec(((1.0, 0.0, 1),))
        reg = init_basis(2, "00")
        with pytest.raises(ValueError):
            apply_composition(reg, spec, 2, {0: 1.0})
        with pytest.raises(ValueError):
            apply_composition(reg, spec, 1, {1: 1.0})
        with pytest.raises(ValueError):
            apply_composition(reg, spec, 1, {5: 1.0})


class TestCsv:
    def test_columns_and_rows(self):
        grid = np.linspace(-1, 3, 9)
        res = synthesize(Rectangle(0.0, 2.0), 2, grid)
        buf = io.StringIO()
        composition_to_csv(res, Rectangle(0.0, 2.0), grid, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "x,target_angle,fitted_angle,fitted_excitation"
        assert len(lines) == 10
        row = [float(v) for v in lines[5].split(",")]
        assert row[0] == pytest.approx(1.0)
        assert row[1] == pytest.approx(HALF_PI)
        assert row[3] == pytest.approx(math.sin(row[2]) ** 2, abs=1e-12)
