"""Integrator and benchmark tests against closed forms and an ODE oracle."""
import io
import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qperceptron import dynamics
from qperceptron.activation import ALGEBRAIC, eval_CS, eval_f
from qperceptron.control import (faquad_schedule, linear_schedule, perturbed_schedule,
                                 tabulated_schedule)
from qperceptron.dynamics import (
    FidelityReport,
    TwoLevelState,
    average_fidelity,
    benchmark_ramps,
    evolve_two_level,
    fit_constants_json,
    fit_infidelity_decay,
    perceptron_protocol,
    report_to_csv,
    response_curve,
    response_to_csv,
    reversed_negated,
    schedule_propagators,
)

X_REF = 1.2720196495140690


def ode_oracle(schedule, x, psi0, rtol=1e-11):
    """Independent reference: generic complex ODE solver on the same system."""

    def rhs(t, y):
        om = float(schedule.omega(t))
        a0, a1 = y[0] + 1j * y[1], y[2] + 1j * y[3]
        # H = -1/2 (om sx + x sz), sz = diag(-1, +1)
        d0 = -1j * (-0.5 * (om * a1 - x * a0))
        d1 = -1j * (-0.5 * (om * a0 + x * a1))
        return [d0.real, d0.imag, d1.real, d1.imag]

    y0 = [psi0.amp0.real, psi0.amp0.imag, psi0.amp1.real, psi0.amp1.imag]
    sol = solve_ivp(rhs, (0.0, schedule.tf), y0, method="DOP853", rtol=rtol, atol=rtol)
    y = sol.y[:, -1]
    return complex(y[0], y[1]), complex(y[2], y[3])


class TestEvolveClosedForms:
    def test_rabi_flopping_constant_drive(self):
        # H = -Omega sx / 2 from |0>: P_excite = sin^2(Omega t / 2)
        for om, tf in [(1.0, 2.0), (3.0, 1.3), (0.5, 9.0)]:
            sched = linear_schedule(om, om, tf)
            fin = evolve_two_level(sched, 0.0, TwoLevelState.ground())
            assert fin.p_excite == pytest.approx(math.sin(om * tf / 2.0) ** 2, abs=1e-9)

    def test_pure_longitudinal_phase(self):
        # Omega = 0: amplitudes only acquire the relative phase exp(i x t)
        sched = linear_schedule(0.0, 0.0, 0.7)
        x = 2.3
        fin = evolve_two_level(sched, x, TwoLevelState.plus())
        assert fin.p_excite == pytest.approx(0.5, abs=1e-10)
        rel = fin.amp1 / fin.amp0
        assert np.angle(rel) == pytest.approx(x * 0.7, abs=1e-9)

    def test_norm_conserved(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        for x in (0.3, -4.0, 9.0):
            fin = evolve_two_level(sched, x, TwoLevelState.plus())
            assert abs(fin.norm() - 1.0) < 1e-10

    def test_matches_ode_solver_faquad(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        for x in (1.0, -3.3):
            fin = evolve_two_level(sched, x, TwoLevelState.plus())
            a0, a1 = ode_oracle(sched, x, TwoLevelState.plus())
            assert abs(fin.amp0 - a0) < 1e-8
            assert abs(fin.amp1 - a1) < 1e-8

    def test_matches_ode_solver_linear(self):
        sched = linear_schedule(30.0, 1.0, 5.0)
        fin = evolve_two_level(sched, 2.0, TwoLevelState.ground())
        a0, a1 = ode_oracle(sched, 2.0, TwoLevelState.ground())
        assert abs(fin.amp0 - a0) < 1e-8
        assert abs(fin.amp1 - a1) < 1e-8

    def test_self_convergence_tightening_tol(self):
        sched = faquad_schedule(50.0, 1.0, 8.0, X_REF)
        loose = evolve_two_level(sched, 1.7, TwoLevelState.plus(), tol=1e-7)
        tight = evolve_two_level(sched, 1.7, TwoLevelState.plus(), tol=1e-11)
        assert abs(loose.amp0 - tight.amp0) < 1e-7
        assert abs(loose.amp1 - tight.amp1) < 1e-7

    def test_time_reversal_returns_start(self):
        sched = faquad_schedule(100.0, 1.0, 6.0, X_REF)
        x = 2.2
        mid = evolve_two_level(sched, x, TwoLevelState.plus())
        back = evolve_two_level(reversed_negated(sched), -x, mid)
        r = 1.0 / math.sqrt(2.0)
        # global phase cancels exactly for the inverse evolution
        assert abs(back.amp0 - r) < 1e-8
        assert abs(back.amp1 - r) < 1e-8

    def test_field_sign_symmetry(self):
        # conjugation by sx maps x -> -x and swaps amplitudes of |+> runs
        sched = faquad_schedule(80.0, 1.0, 7.0, X_REF)
        for x in (0.9, 5.5):
            p = evolve_two_level(sched, x, TwoLevelState.plus()).p_excite
            q = evolve_two_level(sched, -x, TwoLevelState.plus()).p_excite
            assert p + q == pytest.approx(1.0, abs=1e-8)

    def test_rejects_unnormalized_state(self):
        sched = linear_schedule(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            evolve_two_level(sched, 0.0, TwoLevelState(1.0, 1.0))

    def test_rejects_broken_schedule(self):
        class Junk:
            tf = -1.0

        with pytest.raises(ValueError):
            evolve_two_level(Junk(), 0.0, TwoLevelState.ground())


class TestIntegratorRobustness:
    def test_zero_field_is_identity(self):
        # Omega = x = 0 everywhere: H = 0, so |+> comes back unchanged, and
        # neither the step nor the step-rate rules divide by the zero energy
        sched = linear_schedule(0.0, 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fin = evolve_two_level(sched, 0.0, TwoLevelState.plus())
        r = 1.0 / math.sqrt(2.0)
        assert abs(fin.amp0 - r) < 1e-12
        assert abs(fin.amp1 - r) < 1e-12

    def test_nan_drive_fails_fast(self):
        class NanDrive:
            tf = 1.0

            def omega(self, t):
                return np.full(np.shape(t), np.nan)

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="not finite"):
            evolve_two_level(NanDrive(), 0.5, TwoLevelState.plus())
        assert time.perf_counter() - t0 < 1.0

    def test_nan_between_grid_points_names_level(self):
        # finite on the probe grid and the step edges, NaN at the first
        # Gauss node of the base grid: the level-0 sweep must stop there
        base = linear_schedule(2.0, 1.0, 1.0)
        lo, hi = dynamics._grid_spec(base, 1.0).edge_block(0, 0, 1)
        node = (lo + hi) / 2.0 - (math.sqrt(3.0) / 6.0) * (hi - lo)

        class HoledDrive:
            tf = base.tf
            domega = base.domega

            def omega(self, t):
                t = np.asarray(t, dtype=float)
                return np.where(np.abs(t - node) < 1e-12, np.nan, base.omega(t))

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="level 0"):
            evolve_two_level(HoledDrive(), 1.0, TwoLevelState.plus())
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("call", [
        lambda s: evolve_two_level(s, np.nan, TwoLevelState.plus()),
        lambda s: perceptron_protocol(s, np.inf),
        lambda s: schedule_propagators(s, [0.0, -np.inf]),
    ], ids=["evolve_nan", "protocol_inf", "propagators_inf"])
    def test_nonfinite_x_is_named(self, call):
        with pytest.raises(ValueError, match="x values must be finite"):
            call(linear_schedule(2.0, 1.0, 1.0))

    def test_nonfinite_x_max_is_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite x_max"):
                average_fidelity(linear_schedule(2.0, 1.0, 1.0), x_max=np.inf)

    @pytest.mark.parametrize("omega_end", [5.3e-59, 1e-12])
    def test_vanishing_drive_exceeds_step_budget(self, omega_end):
        # the slope rule dt <= 0.032 |Omega / dOmega| shrinks without bound
        # as Omega -> 0 at t = 1: 3.8e9 base steps for 1e-12, more than a
        # C long for 5.3e-59; both must fail at once and name the rule
        sched = tabulated_schedule([0.0, 1.0], [1.0, omega_end])
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="over the budget") as err:
            schedule_propagators(sched, [0.0])
        assert time.perf_counter() - t0 < 1.0
        msg = str(err.value)
        assert f"{dynamics._MAX_BASE_STEPS}" in msg
        assert "slope rule" in msg and "t = 1" in msg

    def test_nonconvergence_reports_delta_history(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_HALVINGS", 2)
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        with pytest.raises(RuntimeError, match="did not converge") as err:
            evolve_two_level(sched, 1.0, TwoLevelState.plus(), tol=0.0)
        history = str(err.value).split("max change per halving:")[1]
        deltas = [float(v) for v in history.split(",")]
        assert len(deltas) == 2
        assert deltas[0] > deltas[1] > 0.0


class TestConvergenceOrder:
    def test_fourth_order_per_halving(self):
        # Magnus-4: each halving cuts the error 16-fold.  A wrong sign on
        # the commutator (sy) term still converges, but only 4-fold.
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        xs = np.array([-3.0, 0.5, 2.0])
        spec = dynamics._grid_spec(sched, 3.0)
        ref = np.stack(dynamics._propagate(sched, xs, spec, 9))
        err = [np.abs(np.stack(dynamics._propagate(sched, xs, spec, level)) - ref).max()
               for level in range(3)]
        for coarse, fine in zip(err, err[1:]):
            assert 14.0 <= coarse / fine <= 18.0


def piecewise_oracle(schedule, x, psi0, rtol=1e-12):
    """DOP853 restarted at every knot of a tabulated drive, so that no
    solver step straddles a kink; returns the final (amp0, amp1)."""
    y = np.array([psi0.amp0, psi0.amp1], dtype=complex)

    def rhs(t, y):
        om = float(schedule.omega(t))
        return 0.5j * np.array([om * y[1] - x * y[0], om * y[0] + x * y[1]])

    ts = schedule.samples[0]
    for a, b in zip(ts[:-1], ts[1:]):
        y = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol, atol=rtol / 10).y[:, -1]
    return y


class TestKinkedDrives:
    # piecewise-linear tables: every interior knot is a base-grid edge, so
    # each Magnus step sees a smooth drive and keeps its fourth order
    def test_kink_table_at_zero_field(self):
        sched = tabulated_schedule([0, 1, 2, 4, 5, 6, 7, 8, 9, 10],
                                   [1, 1, 4, 1, 1, 1, 1, 1, 1, 1])
        psi0 = TwoLevelState.ground()
        fin = evolve_two_level(sched, 0.0, psi0)
        want = piecewise_oracle(sched, 0.0, psi0)
        assert abs(fin.amp0 - want[0]) < 1e-9
        assert abs(fin.amp1 - want[1]) < 1e-9

    def test_kink_table_response_meets_tolerance(self):
        sched = tabulated_schedule([0.0, 0.7, 2.5], [21.2, 4.6, 46.4])
        [(_, p)] = response_curve(sched, [1.2])
        want = piecewise_oracle(sched, 1.2, TwoLevelState.plus())
        assert abs(p - abs(want[1]) ** 2) < 1e-8

    @pytest.mark.parametrize("x", [0.0, 0.7])
    def test_kink_table_propagator_is_unitary(self, x):
        sched = tabulated_schedule([0.0, 0.25, 1.25, 1.375, 1.5, 2.5],
                                   [0.5, 1.0, 1.0, 2.0, 0.5, 0.5])
        U = schedule_propagators(sched, [x])[0]
        assert np.max(np.abs(U @ U.conj().T - np.eye(2))) < 1e-13

    def test_knots_are_base_edges(self):
        table = tabulated_schedule([0.0, 0.3, 1.1, 1.7, 2.5], [40.0, 3.0, 9.0, 0.5, 2.0])
        for sched in (table, reversed_negated(table)):
            spec = dynamics._grid_spec(sched, 2.0)
            edges = spec.edge_block(0, 0, spec.n)
            knots = sched.samples[0][1:-1]
            assert np.all(np.isin(knots, edges))


class TestResponseCurve:
    def test_adiabatic_response_tracks_sigmoid(self):
        # design-duration ramp: residual diabatic ripple caps accuracy at
        # ~0.032 (worst at |x| in [8, 10]); the shape is right everywhere
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        xs = np.linspace(-10.0, 10.0, 101)
        pts = response_curve(sched, xs)
        P = np.array([p for _, p in pts])
        err = np.abs(P - eval_f(ALGEBRAIC, xs))
        assert err.max() <= 0.04
        assert np.sqrt(np.mean(err**2)) <= 0.02
        assert abs(P[-1] - P[0]) > 0.95

    def test_protocol_spot_value(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        fin = perceptron_protocol(sched, 1.0)
        assert fin.p_excite == pytest.approx(eval_f(ALGEBRAIC, 1.0), abs=0.01)

    def test_fast_ramp_flatter(self):
        xs = np.array([-10.0, 10.0])
        slow = response_curve(faquad_schedule(100.0, 1.0, 10.0, X_REF), xs)
        fast = response_curve(faquad_schedule(100.0, 1.0, 0.25, X_REF), xs)
        slow_range = slow[1][1] - slow[0][1]
        fast_range = fast[1][1] - fast[0][1]
        assert 0.0 < fast_range < slow_range

    def test_perturbation_does_not_worsen_rippling(self):
        # residual diabatic ripples shrink, not grow, under the linear tilt
        xs = np.linspace(-10.0, 10.0, 81)
        base = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        n_bad = {}
        for eps in (0.0, 0.1, 0.5):
            sched = base if eps == 0.0 else perturbed_schedule(base, eps)
            P = np.array([p for _, p in response_curve(sched, xs)])
            dP = np.diff(P)
            assert dP.min() > -0.03
            assert P[-1] - P[0] > 0.95
            n_bad[eps] = int((dP < 0).sum())
        assert n_bad[0.1] <= n_bad[0.0]
        assert n_bad[0.5] <= n_bad[0.0]

    def test_empty_grid(self):
        sched = linear_schedule(2.0, 1.0, 1.0)
        assert response_curve(sched, []) == []

    def test_rejects_nonfinite_grid(self):
        sched = linear_schedule(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            response_curve(sched, [0.0, np.nan])


class TestAverageFidelity:
    def test_sudden_limit_closed_form(self):
        # tf -> 0: F is the mean overlap of |+> with the target, (1 + S)/2
        sched = faquad_schedule(100.0, 1.0, 1e-6, X_REF)
        xs = np.linspace(-10.0, 10.0, 41)
        _, S = eval_CS(ALGEBRAIC, xs)
        ov = 0.5 * (1.0 + S)
        expect = (float(np.sum(ov)) - 0.5 * (ov[0] + ov[-1])) / (len(xs) - 1)
        got = average_fidelity(sched, x_max=10.0, n_points=41)
        assert got == pytest.approx(expect, abs=1e-3)

    def test_adiabatic_limit(self):
        # the start-state mismatch floor is mean x^2/(4 Omega0^2), so the
        # 0.9999 bar needs Omega0 well above x_max * 100^(1/2)
        sched = faquad_schedule(1000.0, 1.0, 200.0, X_REF)
        assert average_fidelity(sched, x_max=10.0, n_points=51) >= 0.9999

    def test_start_state_mismatch_floor(self):
        # at modest Omega0 the infidelity saturates at the |+> admixture,
        # mean of (1 - Omega0/E(x))/2 over the grid, instead of reaching 0
        xs = np.linspace(-10.0, 10.0, 51)
        ov = 0.5 * (1.0 + 100.0 / np.hypot(100.0, xs))
        floor = 1.0 - ((np.sum(ov) - 0.5 * (ov[0] + ov[-1])) / (len(xs) - 1))
        sched = faquad_schedule(100.0, 1.0, 200.0, X_REF)
        got = 1.0 - average_fidelity(sched, x_max=10.0, n_points=51)
        assert got == pytest.approx(floor, rel=0.05)

    def test_faquad_beats_linear(self):
        for tf in (1.0, 3.0, 10.0, 30.0):
            fa = average_fidelity(faquad_schedule(100.0, 1.0, tf, X_REF), 10.0, 21)
            li = average_fidelity(linear_schedule(100.0, 1.0, tf), 10.0, 21)
            assert fa > li

    def test_bounds_and_validation(self):
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        f = average_fidelity(sched, x_max=4.0, n_points=21)
        assert 0.0 <= f <= 1.0
        with pytest.raises(ValueError):
            average_fidelity(sched, x_max=-1.0, n_points=21)
        with pytest.raises(ValueError):
            average_fidelity(sched, x_max=4.0, n_points=1)


class TestFitAndBenchmark:
    def test_fit_recovers_exact_decay(self):
        tf = np.geomspace(0.1, 50.0, 12)
        c0, c1, c2 = 5.0, 2.0, 0.2
        infid = c0 * np.exp(-c1 * tf**c2)
        f0, f1, f2 = fit_infidelity_decay(tf, infid)
        assert f0 == pytest.approx(c0, rel=1e-6)
        assert f1 == pytest.approx(c1, rel=1e-6)
        assert f2 == pytest.approx(c2, rel=1e-6)

    def test_fit_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_infidelity_decay([1.0, 2.0, 3.0, 4.0], [1e-13] * 4)
        with pytest.raises(ValueError):
            fit_infidelity_decay([1.0, 2.0, 3.0], [0.1, 0.05, 0.02])

    def test_benchmark_report(self):
        tf = np.geomspace(0.5, 20.0, 6)
        rep = benchmark_ramps(tf, x_max=10.0, n_points=21)
        assert isinstance(rep, FidelityReport)
        assert np.all(rep.infidelity_linear > 0) and np.all(rep.infidelity_linear < 1)
        assert np.all(rep.infidelity_faquad > 0) and np.all(rep.infidelity_faquad < 1)
        # faquad no worse for tf >= 1 (in the sudden regime tf < 1 the two
        # families are equally bad and the sign can flip), trending down
        cmp = rep.tf_grid >= 1.0
        assert np.all(rep.infidelity_faquad[cmp] <= rep.infidelity_linear[cmp] + 1e-12)
        assert np.all(np.diff(rep.infidelity_faquad) <= 1e-12)
        assert rep.fit_c1 > 0 and rep.fit_c2 > 0

    def test_benchmark_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            benchmark_ramps([], x_max=10.0, n_points=21)
        with pytest.raises(ValueError):
            benchmark_ramps([2.0, 1.0], x_max=10.0, n_points=21)

    def test_csv_and_json_outputs(self):
        pairs = [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.75)]
        buf = io.StringIO()
        response_to_csv(pairs, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x,p_excite"
        assert len(lines) == 4
        assert [float(v) for v in lines[2].split(",")] == [0.0, 0.5]

        rep = FidelityReport(
            np.array([1.0, 2.0]), np.array([0.5, 0.2]), np.array([0.1, 0.01]),
            3.0, 1.5, 0.2,
        )
        buf = io.StringIO()
        report_to_csv(rep, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "tf,infid_linear,infid_faquad"
        assert [float(v) for v in lines[1].split(",")] == [1.0, 0.5, 0.1]

        fit = json.loads(fit_constants_json(rep))
        assert set(fit) == {"c0", "c1", "c2"}
        assert fit["c0"] == 3.0


class TestScheduleInterface:
    def test_reversed_drive_average_fidelity(self):
        sched = faquad_schedule(100.0, 1.0, 6.0, X_REF)
        rev = reversed_negated(sched)
        assert rev.omegaf == -sched.omega0
        f = average_fidelity(rev, x_max=3.0, n_points=5)
        assert 0.0 <= f <= 1.0

    def test_raising_domega_propagates(self):
        base = linear_schedule(2.0, 1.0, 1.0)

        class BadSlope:
            tf = base.tf
            omega = base.omega

            def domega(self, t):
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            evolve_two_level(BadSlope(), 1.0, TwoLevelState.plus())

    def test_missing_domega_uses_finite_differences(self):
        base = faquad_schedule(100.0, 1.0, 5.0, X_REF)

        class FieldOnly:
            tf = base.tf
            omega = base.omega

        got = evolve_two_level(FieldOnly(), 1.0, TwoLevelState.plus())
        want = evolve_two_level(base, 1.0, TwoLevelState.plus())
        assert abs(got.amp0 - want.amp0) < 1e-8
        assert abs(got.amp1 - want.amp1) < 1e-8
