"""Control schedules: boundary conditions, constant-mu design, diagnostics.

Closed-form reference numbers were computed independently with sympy at 30
digits.  The faquad waveform is cross-checked against direct numerical
integration of its defining ODE with scipy's DOP853, which shares no code
with the closed form under test.
"""
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from qperceptron.control import (
    adiabatic_diagnostics,
    adiabatic_mu,
    eigensystem,
    faquad_constant_mu,
    faquad_schedule,
    linear_schedule,
    optimal_design_field,
    perturbed_schedule,
    schedule_from_csv,
    schedule_to_csv,
    tabulated_schedule,
)
from ode_oracles import reversed_negated

X_STAR = 1.2720196495140690  # sqrt((1 + sqrt 5)/2)


def bits(values):
    """The IEEE-754 bytes of each value, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


class TestLinear:
    def test_boundaries_and_midpoint(self):
        s = linear_schedule(100, 1, 10)
        assert s.omega(0.0) == 100
        assert s.omega(5.0) == 50.5
        assert s.omega(10.0) == 1
        assert s.domega(3.3) == pytest.approx(-9.9, abs=1e-12)

    def test_constant_drive_allowed(self):
        s = linear_schedule(2.0, 2.0, 7.0)
        ts = np.linspace(0, 7, 11)
        assert np.all(s.omega(ts) == 2.0)
        assert np.all(s.domega(ts) == 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            linear_schedule(1, 2, 10)
        with pytest.raises(ValueError):
            linear_schedule(100, 1, 0)
        with pytest.raises(ValueError):
            linear_schedule(1, -1, 10)


class TestFaquad:
    def test_boundary_reproduction(self):
        for om0, omf in [(100, 1), (1000, 1), (10, 2)]:
            s = faquad_schedule(om0, omf, 10, X_STAR)
            assert s.omega(0.0) == pytest.approx(om0, abs=1e-10)
            assert s.omega(s.tf) == pytest.approx(omf, abs=1e-10)

    def test_monotone_decreasing(self):
        s = faquad_schedule(100, 1, 10, X_STAR)
        om = s.omega(np.linspace(0, 10, 2001))
        assert np.all(np.diff(om) < 0)

    def test_constant_mu_trace(self):
        s = faquad_schedule(100, 1, 10, X_STAR)
        mus = adiabatic_mu(s, X_STAR, np.linspace(0, 10, 1000))
        spread = (mus.max() - mus.min()) / mus.mean()
        assert spread <= 1e-8

    def test_mu_matches_closed_form(self):
        # frozen: |v(100) - v(1)| / (2 * 1.272 * 10) at x_ref = 1.272
        s = faquad_schedule(100, 1, 10, 1.272)
        mu = adiabatic_mu(s, 1.272, 4.0)
        assert mu == pytest.approx(0.015010975684345998, rel=1e-10)
        assert faquad_constant_mu(100, 1, 10, 1.272) == pytest.approx(
            0.015010975684345998, rel=1e-12
        )

    def test_closed_form_vs_ode_integration(self):
        # Independent route: integrate dOmega/ds = -c~ * 2 E^3 / x, the
        # constant-mu condition written through the eigensystem, and
        # compare with the closed form on a 1000-point grid.
        om0, omf, tf, xr = 100.0, 1.0, 10.0, X_STAR
        s = faquad_schedule(om0, omf, tf, xr)
        c_tilde = faquad_constant_mu(om0, omf, tf, xr) * tf

        def rhs(t, y):
            E = math.hypot(y[0], xr)
            return [-c_tilde * 2.0 * E**3 / xr]

        grid = np.linspace(0, 1, 1000)
        sol = solve_ivp(
            rhs, (0, 1), [om0], t_eval=grid, method="DOP853", rtol=1e-12, atol=1e-12
        )
        assert sol.success
        closed = s.omega(grid * tf)
        assert np.max(np.abs(sol.y[0] - closed)) <= 1e-6

    def test_scale_invariance(self):
        lam = 3.7
        a = faquad_schedule(100, 1, 10, X_STAR)
        b = faquad_schedule(lam * 100, lam * 1, 10 / lam, lam * X_STAR)
        ts = np.linspace(0, 10, 17)
        assert np.allclose(b.omega(ts / lam), lam * a.omega(ts), rtol=1e-12)

    def test_rejects_zero_x_ref(self):
        with pytest.raises(ValueError):
            faquad_schedule(100, 1, 10, 0.0)
        with pytest.raises(ValueError):
            faquad_schedule(1, 100, 10, 1.0)


@pytest.mark.parametrize("make, name", [
    (lambda v: linear_schedule(v, 1.0, 1.0), "omega0"),
    (lambda v: linear_schedule(2.0, v, 1.0), "omegaf"),
    (lambda v: linear_schedule(2.0, 1.0, v), "tf"),
    (lambda v: faquad_schedule(v, 1.0, 1.0, X_STAR), "omega0"),
    (lambda v: faquad_schedule(100.0, v, 1.0, X_STAR), "omegaf"),
    (lambda v: faquad_schedule(100.0, 1.0, v, X_STAR), "tf"),
    (lambda v: faquad_schedule(100.0, 1.0, 1.0, v), "x_ref"),
    (lambda v: perturbed_schedule(faquad_schedule(100.0, 1.0, 1.0, X_STAR), v), "epsilon_ctrl"),
    (optimal_design_field, "omegaf"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_factories_reject_nonfinite_parameters(make, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make(value)


@pytest.mark.parametrize("make, message", [
    (lambda: faquad_schedule(100.0, 1.0, 0.0, X_STAR), "tf must be positive"),
    (lambda: faquad_schedule(100.0, 1.0, -1.0, X_STAR), "tf must be positive"),
    (lambda: perturbed_schedule(faquad_schedule(100.0, 1.0, 1.0, X_STAR), -0.1),
     "epsilon_ctrl must be >= 0"),
    (lambda: tabulated_schedule([0.0, 1.0], [1.0, 2.0, 3.0]),
     "need matching 1-d arrays with at least two samples"),
    (lambda: tabulated_schedule([[0.0, 1.0]], [[1.0, 2.0]]),
     "need matching 1-d arrays with at least two samples"),
    (lambda: tabulated_schedule([0.0], [1.0]), "need matching 1-d arrays with at least two samples"),
    (lambda: optimal_design_field(0.0), "omegaf must be positive"),
    (lambda: optimal_design_field(-1.0), "omegaf must be positive"),
    (lambda: faquad_constant_mu(100.0, 1.0, 10.0, 0.0),  # was nan and a RuntimeWarning
     "x_ref = 0 has no avoided crossing; mu is undefined"),
    # mu refuses what the schedule refuses; these gave inf, -0.150, 0.0150 and a ZeroDivisionError
    (lambda: faquad_constant_mu(100.0, 1.0, 0.0, X_STAR), "tf must be positive"),
    (lambda: faquad_constant_mu(100.0, 1.0, -1.0, X_STAR), "tf must be positive"),
    (lambda: faquad_constant_mu(1.0, 100.0, 10.0, X_STAR), "need omega0 > omegaf > 0"),
    (lambda: faquad_constant_mu(100.0, 0.0, 10.0, X_STAR), "need omega0 > omegaf > 0"),
], ids=["faquad_tf_0", "faquad_tf_neg", "perturbed_eps_neg", "table_lengths", "table_2d",
        "table_one_sample", "design_omegaf_0", "design_omegaf_neg", "constant_mu_x_ref_0",
        "constant_mu_tf_0", "constant_mu_tf_neg", "constant_mu_increasing", "constant_mu_omegaf_0"])
def test_out_of_range_parameter_is_named(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


class TestOptimalDesignField:
    def test_near_limit_value(self):
        x = optimal_design_field(1.0)
        assert x == pytest.approx(1.272, abs=1e-3)
        assert x == pytest.approx(X_STAR, abs=1e-6)

    def test_scales_with_omegaf(self):
        assert optimal_design_field(2.0) == pytest.approx(2.544, abs=2e-3)

    def test_equals_bounded_search_bit_for_bit(self):
        # the bounded Brent search that defines x*(1), at omegaf = 1
        res = minimize_scalar(lambda x: -faquad_constant_mu(1e4, 1.0, 1.0, x),
                              bounds=(1e-3, 10.0), method="bounded", options={"xatol": 1e-12})
        assert optimal_design_field(1.0) == float(res.x)

    @pytest.mark.parametrize("k", [-20, -3, -1, 1, 5, 40])
    def test_exact_scaling_at_powers_of_two(self, k):
        # mu(w y; 1e4 w, w) = mu(y; 1e4, 1) / w, so the maximizer is w x*(1)
        w = 2.0**k
        assert optimal_design_field(w) == w * optimal_design_field(1.0)

    def test_overflowing_design_field_is_named(self):
        with pytest.raises(ValueError, match=r"^omegaf = 1\.5e\+308 overflows the design field$"):
            optimal_design_field(1.5e308)

    def test_cubic_root_oracle(self):
        # the limit maximizer solves u^3 - 2u^2 + 1 = 0 with u = sqrt(1+y^2),
        # whose relevant root is the golden ratio
        roots = np.roots([1.0, -2.0, 0.0, 1.0])
        u = max(r.real for r in roots if abs(r.imag) < 1e-12)
        assert u == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        y = math.sqrt(u * u - 1)
        assert optimal_design_field(1.0) == pytest.approx(y, abs=1e-6)

    def test_is_a_maximum(self):
        x = optimal_design_field(1.0)
        f = lambda z: faquad_constant_mu(1e4, 1.0, 1.0, z)
        assert f(x) > f(x * 1.01) and f(x) > f(x * 0.99)


class TestAdiabaticMu:
    def test_zero_at_zero_field(self):
        s = faquad_schedule(100, 1, 10, X_STAR)
        assert adiabatic_mu(s, 0.0, 5.0) == 0.0

    def test_linear_peaks_at_end(self):
        s = linear_schedule(100, 1, 10)
        ts = np.linspace(0, 10, 1001)
        mus = adiabatic_mu(s, X_STAR, ts)
        assert ts[np.argmax(mus)] >= 0.95 * s.tf

    def test_diagnostics_c_tilde(self):
        s = faquad_schedule(100, 1, 10, X_STAR)
        d = adiabatic_diagnostics(s, X_STAR)
        assert d.mu_trace.shape == (1000, 2)
        assert np.all(d.mu_trace[:, 1] >= 0)
        assert d.c_tilde == pytest.approx(
            faquad_constant_mu(100, 1, 10, X_STAR) * 10, rel=1e-9
        )


class TestPerturbed:
    def test_zero_epsilon_matches_base(self):
        base = faquad_schedule(100, 1, 10, X_STAR)
        p = perturbed_schedule(base, 0.0)
        ts = np.linspace(0, 10, 23)
        assert np.allclose(p.omega(ts), base.omega(ts), rtol=0, atol=0)

    def test_endpoint_overshoot(self):
        base = faquad_schedule(100, 1, 10, X_STAR)
        p = perturbed_schedule(base, 0.1)
        assert p.omega(0.0) == pytest.approx(110.0, rel=1e-12)
        assert p.omega(10.0) == pytest.approx(1.1, rel=1e-12)
        assert p.kind == "perturbed"

    def test_requires_faquad_base(self):
        with pytest.raises(ValueError):
            perturbed_schedule(linear_schedule(100, 1, 10), 0.1)

    @settings(max_examples=200, deadline=None)
    @given(omega0=st.floats(2.0, 1e4), tf=st.floats(0.1, 100.0), eps=st.floats(0.0, 5.0),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_adds_eps_times_the_linear_ramp_bitwise(self, omega0, tf, eps, fractions):
        base = faquad_schedule(omega0, 1.0, tf, X_STAR)
        ramp = linear_schedule(omega0, 1.0, tf)
        p = perturbed_schedule(base, eps)
        t = np.array(fractions) * tf
        for got, want in [(p.omega(t), base.omega(t) + eps * ramp.omega(t)),
                          (p.domega(t), base.domega(t) + eps * ramp.domega(t)),
                          (p.omega(t[0]), base.omega(t[0]) + eps * ramp.omega(t[0])),
                          (p.domega(t[0]), base.domega(t[0]) + eps * ramp.domega(t[0]))]:
            assert bits(got) == bits(want)


class TestEigensystem:
    def test_pure_transverse(self):
        es = eigensystem(1.0, 0.0)
        assert es.gap == pytest.approx(1.0, abs=1e-15)
        assert es.theta_bloch == pytest.approx(math.pi / 2, abs=1e-15)
        # ground state (|0>+|1>)/sqrt2 up to sign; phi ordering is (amp0, amp1)
        assert np.allclose(np.abs(es.phi0), [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_pure_longitudinal(self):
        es = eigensystem(0.0, 5.0)
        assert es.gap == pytest.approx(5.0, abs=1e-15)
        assert np.allclose(es.phi0, [0.0, 1.0], atol=1e-15)  # active state
        es = eigensystem(0.0, -5.0)
        assert np.allclose(np.abs(es.phi0), [1.0, 0.0], atol=1e-15)  # resting

    def test_balanced_point(self):
        # frozen: theta = arccos(-1/sqrt2), excitation = g(1)
        es = eigensystem(1.0, 1.0)
        assert es.gap == pytest.approx(math.sqrt(2), rel=1e-15)
        assert es.theta_bloch == pytest.approx(2.356194490192344929, abs=1e-14)
        assert es.phi0[1] ** 2 == pytest.approx(0.853553390593273762, abs=1e-14)

    def test_orthonormal_and_ordered(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            om, x = rng.uniform(0, 10), rng.uniform(-10, 10)
            if om == 0 and x == 0:
                continue
            es = eigensystem(om, x)
            assert es.e0 <= es.e1
            assert abs(es.phi0 @ es.phi1) < 1e-14
            assert es.phi0 @ es.phi0 == pytest.approx(1.0, abs=1e-14)
            assert es.gap == pytest.approx(math.hypot(om, x), rel=1e-14)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            eigensystem(0.0, 0.0)
        with pytest.raises(ValueError):
            eigensystem(0.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("omega", [1.0, 0.0, 2.5])
    def test_array_equals_scalar_calls_bit_for_bit(self, omega):
        xs = np.concatenate([np.linspace(-10.0, 10.0, 201), [-0.0, 1e-300, -3e7]])
        xs = xs[xs != 0] if omega == 0 else xs
        es = eigensystem(omega, xs)
        assert es.phi0.shape == es.phi1.shape == (2, xs.size)
        assert bits(eigensystem(omega, list(xs)).phi0) == bits(es.phi0)
        for i, x in enumerate(xs):
            one = eigensystem(omega, float(x))
            assert all(type(v) is float for v in (one.theta_bloch, one.e0, one.e1))
            for name in ("theta_bloch", "e0", "e1"):
                assert bits(getattr(es, name)[i]) == bits(getattr(one, name)), (name, x)
            for name in ("phi0", "phi1"):
                assert bits(getattr(es, name)[:, i]) == bits(getattr(one, name)), (name, x)


class TestCsvRoundTrip:
    def test_round_trip(self):
        s = faquad_schedule(100, 1, 10, X_STAR)
        buf = io.StringIO()
        schedule_to_csv(s, buf)
        buf.seek(0)
        back = schedule_from_csv(buf)
        assert back.kind == "tabulated"
        assert back.tf == 10.0
        ts = np.linspace(0, 10, 101)
        assert np.max(np.abs(back.omega(ts) - s.omega(ts))) < 1e-4

    def test_header_and_order(self):
        s = linear_schedule(10, 1, 2)
        buf = io.StringIO()
        schedule_to_csv(s, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,omega"
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert ts == sorted(ts)
        # '.' decimal separator
        assert "." in lines[1].split(",")[1]

    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            schedule_from_csv(io.StringIO("time,field\n0,1\n"))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="expected header 't,omega'"):
            schedule_from_csv(io.StringIO(""))

    @pytest.mark.parametrize("text, line", [
        ("t,omega\n0,1\n0.5,2,7\n1,1\n", 3),
        ("t,omega\n0,1\n1\n", 3),
        ("t,omega\n0,1,2\n1,1\n", 2),
    ], ids=["three_fields", "one_field", "first_row"])
    def test_row_field_count_names_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: expected 2 fields"):
            schedule_from_csv(io.StringIO(text))

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            tabulated_schedule([0.0, 0.0, 1.0], [1, 2, 3])
        with pytest.raises(ValueError):
            tabulated_schedule([0.5, 1.0], [1, 2])

    @pytest.mark.parametrize("ts, omegas", [
        ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0]),
        ([0.0, 1.0, np.inf], [1.0, 2.0, 1.0]),
        ([0.0, 1.0, 2.0], [1.0, -np.inf, 1.0]),
    ], ids=["nan_omega", "inf_time", "inf_omega"])
    def test_tabulated_rejects_nonfinite_samples(self, ts, omegas):
        with pytest.raises(ValueError, match="must be finite"):
            tabulated_schedule(ts, omegas)

    def test_tabulated_rejects_overflowing_slope(self):
        # knots a subnormal apart: the central difference overflows, and no
        # RuntimeWarning may escape on the way to the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="slope is not finite"):
                tabulated_schedule([0.0, 5e-324, 1.0, 2.0], [1.0, 2.0, 3.0, 1.0])

    def test_line_ends_are_lf(self, tmp_path):
        # every kind, to a stream and to a path: rows end in "\n" only
        table = tabulated_schedule([0.0, 0.5, 2.0], [9.0, 3.0, 1.0])
        for s in (linear_schedule(10, 1, 2), table):
            buf = io.StringIO()
            schedule_to_csv(s, buf)
            path = tmp_path / f"{s.kind}.csv"
            schedule_to_csv(s, path)
            assert "\r" not in buf.getvalue()
            assert path.read_bytes() == buf.getvalue().encode("ascii")


def every_kind():
    """One schedule of each kind the factories build, and the oracles' time-reversed one."""
    faq = faquad_schedule(100, 1, 10, X_STAR)
    return [
        linear_schedule(100, 1, 10),
        faq,
        perturbed_schedule(faq, 0.2),
        tabulated_schedule([0.0, 0.5, 2.0, 4.0], [40.0, 9.0, 3.0, 1.0]),
        reversed_negated(faq),
    ]


class TestScheduleType:
    def test_scalar_equals_array_element(self):
        for s in every_kind():
            ts = np.linspace(0.0, s.tf, 9)
            for f in (s.omega, s.domega):
                arr = f(ts)
                assert isinstance(arr, np.ndarray) and arr.shape == ts.shape
                for t, want in zip(ts, arr):
                    got = f(float(t))
                    assert type(got) is float, (s.kind, f.__name__)
                    assert got == want, (s.kind, f.__name__, t)

    def test_adiabatic_mu_scalar_on_perturbed(self):
        p = perturbed_schedule(faquad_schedule(100, 1, 10, X_STAR), 0.1)
        mu = adiabatic_mu(p, X_STAR, 2.5)
        assert type(mu) is float
        assert mu == adiabatic_mu(p, X_STAR, np.array([2.5]))[0]

    def test_reversed_endpoints(self):
        for s in every_kind()[:4]:
            r = reversed_negated(s)
            assert r.kind == "reversed" and r.tf == s.tf
            assert r.omega0 == -s.omegaf and r.omegaf == -s.omega0
            assert r.omega(0.0) == -s.omega(s.tf)
            assert r.omega(s.tf) == -s.omega(0.0)
            assert r.domega(1.0) == s.domega(s.tf - 1.0)

    def test_equality_is_identity(self):
        for s in every_kind():
            twin = type(s)(s.kind, s.omega0, s.omegaf, s.tf, s.field, s.slope, s.samples)
            assert s == s and s != twin
            assert len({s, twin}) == 2


class TestScheduleCsvReader:
    """The schedule reader goes through the shared row reader."""

    def test_bad_field_names_line(self):
        with pytest.raises(ValueError, match="^line 3: could not convert string to float: 'abc'"):
            schedule_from_csv(io.StringIO("t,omega\n0,1\n1,abc\n"))

    def test_blank_line_is_skipped(self):
        s = schedule_from_csv(io.StringIO("t,omega\n0,1\n\n1,2\n"))
        assert s.samples[0].tolist() == [0.0, 1.0]
        assert s.samples[1].tolist() == [1.0, 2.0]

    def test_quoted_field_names_line(self):
        # schedule_to_csv never quotes, so a quote is not part of a number
        with pytest.raises(ValueError, match="^line 3: .*'\"1\"'"):
            schedule_from_csv(io.StringIO('t,omega\n0,1\n"1",2\n'))

    def test_spaced_header_and_crlf_are_read(self):
        # files written before schedule_to_csv switched to LF end in CRLF
        s = schedule_from_csv(io.StringIO("t , omega\r\n0,1\r\n1, 2\r\n"))
        assert s.samples[1].tolist() == [1.0, 2.0]

    def test_table_writes_its_knots_whatever_n_samples(self):
        # a table writes its 3 knots, not the 1001 samples of any other drive
        s = tabulated_schedule([0.0, 0.5, 2.0], [3.0, 1.0, 2.0])
        buf = io.StringIO()
        schedule_to_csv(s, buf)
        buf.seek(0)
        assert schedule_from_csv(buf).samples[0].tolist() == [0.0, 0.5, 2.0]
