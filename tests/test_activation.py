"""Activation families: frozen oracle values and structural properties.

Reference numbers were computed independently with sympy at 30 significant
digits (exact symbolic expressions evaluated with mpmath) and frozen here.
"""
import math

import numpy as np
import pytest
from scipy.special import expit

from qperceptron.activation import (
    ALGEBRAIC,
    LOGISTIC,
    STEP,
    ActivationKind,
    cao_arctan,
    chi,
    dchi_dx,
    df_dx,
    eval_CS,
    eval_f,
)

ALL_KINDS = [ALGEBRAIC, LOGISTIC, STEP, cao_arctan(1), cao_arctan(3)]


class TestAlgebraic:
    def test_midpoint(self):
        assert eval_f(ALGEBRAIC, 0.0) == 0.5

    def test_frozen_values(self):
        assert eval_f(ALGEBRAIC, 1.0) == pytest.approx(0.853553390593273762, abs=1e-15)
        assert eval_f(ALGEBRAIC, 5.0) == pytest.approx(0.990290337845460080, abs=1e-15)
        assert eval_f(ALGEBRAIC, 10.0) == pytest.approx(0.997518595104994568, abs=1e-15)
        assert eval_f(ALGEBRAIC, -3.0) == pytest.approx(0.025658350974743100, abs=1e-15)

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for x in rng.uniform(-50, 50, size=200):
            assert eval_f(ALGEBRAIC, -x) == pytest.approx(1 - eval_f(ALGEBRAIC, x), abs=1e-15)

    def test_chi_values(self):
        assert chi(ALGEBRAIC, 0.0) == pytest.approx(math.pi / 4, abs=1e-15)
        assert chi(ALGEBRAIC, 1.0) == pytest.approx(1.178097245096172464, abs=1e-15)
        assert chi(ALGEBRAIC, -2.0) == pytest.approx(0.231823804500403058, abs=1e-15)

    def test_dchi_frozen(self):
        # chi'(x) = 1 / (2 (1 + x^2))
        for x, want in [(-2, 0.1), (-1, 0.25), (0, 0.5), (1, 0.25), (2, 0.1)]:
            assert dchi_dx(ALGEBRAIC, x) == pytest.approx(want, abs=1e-15)


class TestLogistic:
    def test_frozen_values(self):
        assert eval_f(LOGISTIC, 0.0) == 0.5
        assert eval_f(LOGISTIC, 1.0) == pytest.approx(0.731058578630004879, abs=1e-15)
        assert eval_f(LOGISTIC, -1.0) == pytest.approx(0.268941421369995121, abs=1e-15)
        assert eval_f(LOGISTIC, 3.0) == pytest.approx(0.952574126822433219, abs=1e-15)

    def test_chi_and_dchi(self):
        assert chi(LOGISTIC, 1.0) == pytest.approx(1.025588702964313034, abs=1e-14)
        assert dchi_dx(LOGISTIC, -1.0) == pytest.approx(0.221704720992518477, abs=1e-15)
        assert dchi_dx(LOGISTIC, 0.0) == pytest.approx(0.25, abs=1e-15)
        assert dchi_dx(LOGISTIC, 2.0) == pytest.approx(0.162013568415971350, abs=1e-15)

    def test_within_3_ulp_of_scipy_expit(self):
        # scipy's expit as an oracle sharing no code with the package's numpy form,
        # past both ends of float range for e^-x, with no warning escaping
        x = np.linspace(-760.0, 745.0, 100_001)
        want = expit(x)
        got = eval_f(LOGISTIC, x)
        assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 3  # f >= 0: ulps apart

    def test_extreme_arguments_stay_bounded(self):
        assert eval_f(LOGISTIC, 800.0) == 1.0
        assert eval_f(LOGISTIC, -800.0) == pytest.approx(0.0, abs=1e-300)
        assert dchi_dx(LOGISTIC, 800.0) == pytest.approx(0.0, abs=1e-150)
        C, S = eval_CS(LOGISTIC, -900.0)
        assert C == pytest.approx(1.0, abs=1e-15)
        assert S == pytest.approx(0.0, abs=1e-150)


class TestStep:
    def test_values(self):
        assert eval_f(STEP, -3.0) == 0.0
        assert eval_f(STEP, 2.0) == 1.0
        assert eval_f(STEP, 0.0) == 0.5

    def test_chi(self):
        assert chi(STEP, 5.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert chi(STEP, -5.0) == 0.0
        assert chi(STEP, 0.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_dchi_rejects_origin(self):
        assert dchi_dx(STEP, 1.0) == 0.0
        assert df_dx(STEP, 1.0) == 0.0
        assert np.array_equal(df_dx(STEP, np.array([-2.0, 3.0])), [0.0, 0.0])
        with pytest.raises(ValueError):
            dchi_dx(STEP, 0.0)
        with pytest.raises(ValueError):
            df_dx(STEP, 0.0)


class TestCaoArctan:
    def test_frozen_values_k1(self):
        k1 = cao_arctan(1)
        assert eval_f(k1, 0.5) == pytest.approx(0.081785595628721934, abs=1e-15)
        assert eval_f(k1, -0.5) == pytest.approx(0.081785595628721934, abs=1e-15)
        assert eval_f(k1, 0.2) == pytest.approx(0.001685653517509642, abs=1e-15)
        assert eval_f(k1, math.pi / 4) == pytest.approx(0.5, abs=1e-14)
        assert chi(k1, 0.5) == pytest.approx(0.290030874178774978, abs=1e-15)
        assert dchi_dx(k1, 0.5) == pytest.approx(1.302660687859554741, abs=1e-14)

    def test_frozen_values_k2(self):
        k2 = cao_arctan(2)
        assert eval_f(k2, 0.5) == pytest.approx(0.007871066005934209, abs=1e-15)
        assert chi(k2, 0.5) == pytest.approx(0.088835828163952921, abs=1e-15)

    def test_sharpens_with_k(self):
        # larger k pushes the response toward the discriminating limit
        x = 0.3
        fs = [eval_f(cao_arctan(k), x) for k in (1, 2, 3, 4)]
        assert all(a > b for a, b in zip(fs, fs[1:]))

    def test_domain_error_signals_phase_wrap(self):
        with pytest.raises(ValueError):
            eval_f(cao_arctan(1), 1.0)
        with pytest.raises(ValueError):
            chi(cao_arctan(2), -0.9)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            cao_arctan(0)

    @pytest.mark.parametrize("k, message", [
        (1.5, r"cao iteration count k must be an integer, got 1\.5"),
        (2.0, r"cao iteration count k must be an integer, got 2\.0"),
        ("2", "cao iteration count k must be an integer, got '2'"),
        (0, r"cao activation needs k in \[1, 1023\], got 0"),
        (1024, r"cao activation needs k in \[1, 1023\], got 1024"),
        (2000, r"cao activation needs k in \[1, 1023\], got 2000"),
    ], ids=["float", "integral_float", "str", "zero", "2**k_overflows", "far_overflow"])
    def test_non_integer_or_overflowing_k_is_named(self, k, message):
        # 1.5 gave nan, 2000 a bare OverflowError at the first evaluation
        with pytest.raises(ValueError, match=f"^{message}$"):
            cao_arctan(k)

    def test_largest_k_is_a_plain_int_and_evaluates(self):
        kind = cao_arctan(np.int64(1023))  # 2**1023 is the largest power of two a float holds
        assert type(kind.k) is int and kind == cao_arctan(1023)
        assert eval_f(kind, -0.5) == 0.0 and eval_f(kind, math.pi / 4) <= 0.5


@pytest.mark.parametrize("variant", ["algebraic", "logistic", "step"])
@pytest.mark.parametrize("k", [3, -1, 1.5, "0"])
def test_k_of_a_variant_without_iterations_is_refused(variant, k):
    # ActivationKind("algebraic", 3) evaluated like ALGEBRAIC but compared unequal to it,
    # and a network using it came back from JSON with k = 0
    with pytest.raises(ValueError, match=f"^k must be 0 for the {variant} activation, got "):
        ActivationKind(variant, k)
    assert ActivationKind(variant, 0) == ActivationKind(variant)


class TestSharedProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_range_and_unit_circle(self, kind):
        rng = np.random.default_rng(11)
        lim = math.pi / 4 if kind.variant == "cao" else 40.0
        xs = rng.uniform(-lim, lim, size=500)
        f = eval_f(kind, xs)
        assert np.all(f >= 0) and np.all(f <= 1)
        C, S = eval_CS(kind, xs)
        assert np.max(np.abs(C**2 + S**2 - 1)) < 1e-12

    @pytest.mark.parametrize("kind", [ALGEBRAIC, LOGISTIC], ids=str)
    def test_monotone(self, kind):
        rng = np.random.default_rng(13)
        a = rng.uniform(-30, 30, size=300)
        b = rng.uniform(-30, 30, size=300)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.all(eval_f(kind, lo) <= eval_f(kind, hi))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_chi_roundtrip(self, kind):
        rng = np.random.default_rng(17)
        lim = math.pi / 4 if kind.variant == "cao" else 20.0
        xs = rng.uniform(-lim, lim, size=300)
        f = eval_f(kind, xs)
        assert np.max(np.abs(np.sin(chi(kind, xs)) ** 2 - f)) < 1e-12

    @pytest.mark.parametrize("kind", [ALGEBRAIC, LOGISTIC, cao_arctan(1), cao_arctan(3)], ids=str)
    def test_dchi_matches_finite_difference(self, kind):
        pts = [-0.6, -0.3, 0.3, 0.6] if kind.variant == "cao" else [-2.0, -1.0, 0.0, 1.0, 2.0]
        h = 1e-5
        for x in pts:
            fd = (chi(kind, x + h) - chi(kind, x - h)) / (2 * h)
            assert dchi_dx(kind, x) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("kind", [ALGEBRAIC, LOGISTIC, cao_arctan(1), cao_arctan(2)], ids=str)
    def test_df_identity(self, kind):
        # f' = S * chi'
        rng = np.random.default_rng(19)
        lim = math.pi / 4 * 0.999 if kind.variant == "cao" else 10.0
        xs = rng.uniform(-lim, lim, size=200)
        C, S = eval_CS(kind, xs)
        assert np.max(np.abs(df_dx(kind, xs) - S * dchi_dx(kind, xs))) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
    def test_scalar_gets_its_bits_inside_an_array(self, kind):
        # a numpy scalar's ** once rounded differently from an array's
        rng = np.random.default_rng(23)
        lim = math.pi / 4 if kind.variant == "cao" else 40.0
        xs = rng.uniform(-lim, lim, size=400)
        maps = [eval_f, chi, lambda k, x: eval_CS(k, x)[0], lambda k, x: eval_CS(k, x)[1]]
        if kind != STEP:
            maps += [df_dx, dchi_dx]
        for f in maps:
            scalars = np.array([f(kind, x) for x in xs])
            assert scalars.tobytes() == np.asarray(f(kind, xs)).tobytes()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eval_f(ALGEBRAIC, float("nan"))
        with pytest.raises(ValueError):
            eval_f(LOGISTIC, float("inf"))

    def test_vector_matches_scalar(self):
        xs = np.array([-2.0, 0.0, 0.7])
        vec = eval_f(ALGEBRAIC, xs)
        for i, x in enumerate(xs):
            assert vec[i] == eval_f(ALGEBRAIC, float(x))
