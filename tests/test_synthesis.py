import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperceptron import synthesis
from qperceptron.activation import ALGEBRAIC, LOGISTIC, STEP, cao_arctan, chi
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
from ode_oracles import apply_hadamard

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make, field", [
        (lambda v: Peak(v, 1.0), "peak center"),
        (lambda v: Peak(0.0, v), "peak width"),
        (lambda v: Sampled(((v, 0.5), (1.0, 0.2))), "sampled point x"),
    ], ids=["peak_center", "peak_width", "sampled_x"])
    def test_nonfinite_value_is_named(self, make, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make(value)

    @pytest.mark.parametrize("make, error, message", [
        (lambda: target_angle((0.0, 2.0), 1.0), TypeError, r"^unknown target response \(0\.0, 2\.0\)$"),
        (lambda: analytic_rectangle(Rectangle(0.0, 2.0), 0.0), ValueError, "^steepness must be positive$"),
        (lambda: analytic_rectangle(Rectangle(0.0, 2.0), -4.0), ValueError, "^steepness must be positive$"),
        (lambda: analytic_rectangle(Rectangle(0.0, 2.0), math.nan), ValueError,
         "^steepness must be positive$"),
    ], ids=["tuple_target", "steepness_0", "steepness_neg", "steepness_nan"])
    def test_refusal_is_named(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

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


def loop_angle(kind, cycles, x):
    """The cycle sum as a loop from 0.0, one cycle at a time."""
    total = np.zeros_like(x)
    for w, th, o in cycles:
        total = total + o * chi(kind, w * x - th)
    return total


@st.composite
def kernel_cases(draw):
    """A kind, 1 to 6 cycles and x values keeping every w x - th in the kind's
    domain: |w x - th| <= 0.7 < pi/4 for the cao kinds."""
    kind = draw(st.sampled_from([ALGEBRAIC, LOGISTIC, STEP, cao_arctan(1), cao_arctan(3)]))
    lim = (1.0, 0.35, 0.35) if kind.variant == "cao" else (20.0, 20.0, 10.0)
    num = lambda b: st.floats(-b, b) | st.sampled_from([0.0, -0.0])
    cycles = draw(st.lists(st.tuples(num(lim[0]), num(lim[1]), st.sampled_from([1, -1])),
                           min_size=1, max_size=6))
    xs = lambda n: st.lists(num(lim[2]), min_size=n, max_size=n)
    scalar, grid, reg = draw(num(lim[2])), draw(xs(draw(st.integers(1, 40)))), draw(xs(4))
    return kind, cycles, [np.asarray(scalar), np.array(grid), np.reshape(reg, (1, 2, 1, 2))]


class TestCycleKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    @example((STEP, [(1.0, 1.0, -1)], [np.asarray(0.0), np.zeros(3), np.zeros((1, 2, 1, 2))]))
    def test_angle_is_the_in_order_loop_bitwise(self, case):
        # the example's every term is -0.0: the loop's sum from 0.0 is +0.0
        kind, cycles, xs = case
        for x in xs:
            got, want = synthesis._angle(kind, cycles, x), loop_angle(kind, cycles, x)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (x, got, want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orientation_patterns_match_product_order(self, n):
        # pattern j reverses cycle i where bit i of j is set; all-reversed is dropped
        want = [p[::-1] for p in itertools.product((1, -1), repeat=n) if 1 in p]
        assert synthesis._orientation_patterns(n) == want


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

    def test_cycle_count_is_bounded_before_fitting(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(synthesis, "_fit_once", no_fit)
        grid = np.linspace(-1, 3, 11)
        with pytest.raises(ValueError, match=r"^cycles=7 needs 6 x \(2\^7 - 1\) fits; at most 6"):
            synthesize(Rectangle(0.0, 2.0), 7, grid)
        with pytest.raises(AssertionError, match="a fit ran"):  # 6 cycles still fit
            synthesize(Rectangle(0.0, 2.0), 6, grid)

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
        with pytest.raises(IndexError):
            apply_composition(reg, spec, 2, {0: 1.0})
        with pytest.raises(ValueError):
            apply_composition(reg, spec, 1, {1: 1.0})
        with pytest.raises(IndexError):
            apply_composition(reg, spec, 1, {5: 1.0})

    @pytest.mark.parametrize("make, message", [
        (lambda: CompositionSpec(((1.0, 0.0, -1.9),)),
         r"orientation must be an integer, got -1\.9"),
        (lambda: CompositionSpec(((1.0, 0.0, 1.0),)),
         r"orientation must be an integer, got 1\.0"),
        (lambda: apply_composition(init_basis(2, "10"), CompositionSpec(((1.0, 0.0, 1),)), 1.5,
                                   {0: 1.0}), r"target qubit must be an integer, got 1\.5"),
        (lambda: apply_composition(init_basis(2, "10"), CompositionSpec(((1.0, 0.0, 1),)), 0,
                                   {1.7: 1.0}), r"source qubit must be an integer, got 1\.7"),
        (lambda: synthesize(Rectangle(0.0, 2.0), 2.0, [0.0, 1.0]),
         r"cycles must be an integer, got 2\.0"),
    ], ids=["orientation", "integral_orientation", "target", "source", "cycles"])
    def test_non_integer_argument_is_named(self, make, message):
        # int() turned orientation -1.9 into -1 and source 1.7 into qubit 1
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


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
