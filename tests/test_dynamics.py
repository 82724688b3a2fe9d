"""Integrator and benchmark tests against closed forms and an ODE oracle."""
import io
import json
import logging
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from qperceptron import cli, dynamics
from qperceptron.activation import ALGEBRAIC, eval_CS, eval_f
from qperceptron.control import (faquad_schedule, linear_schedule, perturbed_schedule,
                                 reversed_negated, tabulated_schedule)
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
    schedule_propagators,
)

X_REF = 1.2720196495140690
FINITE = dict(allow_nan=False, allow_infinity=False)


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


def parse_history(err):
    """(max changes, [(moving, total)]) from a "did not converge" error."""
    history = str(err).split("max change per halving:")[1]
    found = re.findall(r"(\S+) \((\d+) of (\d+) columns\)", history)
    return [float(d) for d, _, _ in found], [(int(m), int(t)) for _, m, t in found]


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
            samples = None

            def omega(self, t):
                return np.full(np.shape(t), np.nan)

            domega = omega

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="not finite"):
            evolve_two_level(NanDrive(), 0.5, TwoLevelState.plus())
        assert time.perf_counter() - t0 < 1.0

    def test_nan_between_grid_points_names_level(self):
        # finite on the probe grid and the step edges, NaN at the first
        # Gauss node of the base grid: the level-0 sweep must stop there
        base = linear_schedule(2.0, 1.0, 1.0)
        lo, hi = dynamics._grid_spec(base, 1.0)[:2]
        node = (lo + hi) / 2.0 - (math.sqrt(3.0) / 6.0) * (hi - lo)

        class HoledDrive:
            tf = base.tf
            domega = base.domega
            samples = None

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

    def test_long_ramp_exceeds_step_budget(self):
        # a 4000:1 linear ramp over tf = 4e4 needs about 4.2e7 base steps at
        # x_max 5, between the budget of 2^24 and the grid's old 2^27
        sched = linear_schedule(4000.0, 1.0, 4e4)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="over the budget") as err:
            average_fidelity(sched, x_max=5.0, n_points=3)
        assert time.perf_counter() - t0 < 1.0
        assert "phase rule" in str(err.value)

    def test_nonconvergence_reports_delta_history(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_HALVINGS", 2)
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        with pytest.raises(RuntimeError, match="did not converge") as err:
            evolve_two_level(sched, 1.0, TwoLevelState.plus(), tol=0.0)
        deltas, moving = parse_history(err.value)
        assert len(deltas) == 2
        assert deltas[0] > deltas[1] > 0.0
        assert moving == [(1, 1), (1, 1)]
        # x = 0 on a linear ramp is exact at every level, so it settles at
        # the first halving and only the other two columns are reported
        with pytest.raises(RuntimeError, match="did not converge") as err:
            schedule_propagators(linear_schedule(100.0, 1.0, 10.0), [0.0, 1.0, -5.0], tol=1e-12)
        deltas, moving = parse_history(err.value)
        assert deltas[0] > deltas[1] > 1e-12
        assert moving == [(2, 3), (2, 3)]


class TestConvergenceOrder:
    def test_fourth_order_per_halving(self):
        # Magnus-4: each halving cuts the error 16-fold.  A wrong sign on
        # the commutator (sy) term still converges, but only 4-fold.
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        xs = np.array([-3.0, 0.5, 2.0])
        base = dynamics._grid_spec(sched, 3.0)
        ref = np.stack(dynamics._propagate(sched, xs, base, 9))
        err = [np.abs(np.stack(dynamics._propagate(sched, xs, base, level)) - ref).max()
               for level in range(3)]
        for coarse, fine in zip(err, err[1:]):
            assert 14.0 <= coarse / fine <= 18.0


def dop853_response(schedule, xs, rtol=1e-12):
    """P_excite from |+> for every x in one DOP853 solve, no shared code."""
    xs = np.asarray(xs, dtype=float)
    k = xs.size

    def rhs(t, y):
        om = float(schedule.omega(t))
        a0, a1 = y[:k], y[k:]
        return 0.5j * np.concatenate([om * a1 - xs * a0, om * a0 + xs * a1])

    y0 = np.full(2 * k, 1.0 / math.sqrt(2.0), dtype=complex)
    sol = solve_ivp(rhs, (0.0, schedule.tf), y0, method="DOP853", rtol=rtol, atol=rtol / 10)
    return np.abs(sol.y[k:, -1]) ** 2


@st.composite
def mixed_field_grids(draw):
    """Fields near 0, which converge early, among fields of |x| in [3, 10]."""
    small = draw(st.lists(st.floats(-0.5, 0.5, **FINITE), min_size=1, max_size=3))
    large = draw(st.lists(st.floats(3.0, 10.0, **FINITE), min_size=1, max_size=3))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(large), max_size=len(large)))
    xs = small + [s * v for s, v in zip(signs, large)]
    return np.array(draw(st.permutations(xs)))


@pytest.fixture
def propagate_calls(monkeypatch):
    """Record (level, grid steps, x columns) of every ``_propagate`` call."""
    calls = []
    propagate = dynamics._propagate

    def recording(schedule, xs, base, level):
        calls.append((level, (base.size - 1) << level, xs.copy()))
        return propagate(schedule, xs, base, level)

    monkeypatch.setattr(dynamics, "_propagate", recording)
    return calls


def column_steps(calls):
    return sum(steps * cols.size for _, steps, cols in calls)


class TestPerColumnConvergence:
    def test_live_columns_shrink_and_exact_column_stops_early(self, propagate_calls):
        xs = [-8.0, -1.0, 0.0, 0.4, 3.0, 10.0]
        schedule_propagators(linear_schedule(100.0, 1.0, 10.0), xs)
        calls = propagate_calls
        assert [level for level, _, _ in calls] == list(range(len(calls)))
        live = [cols.size for _, _, cols in calls]
        assert live[0] == len(xs) and len(live) > 2
        assert all(a >= b for a, b in zip(live, live[1:]))
        assert live[-1] < live[1]
        # x = 0 on a linear ramp: every Magnus step is exact, so the first
        # halving changes nothing beyond roundoff and the column stops there
        assert [level for level, _, cols in calls if 0.0 in cols] == [0, 1]

    @settings(max_examples=25, deadline=None)
    @given(ramp_kind=st.sampled_from(["linear", "faquad"]),
           omega0=st.floats(5.0, 40.0, **FINITE), tf=st.floats(1.0, 5.0, **FINITE),
           x_ref=st.floats(0.3, 3.0, **FINITE), xs=mixed_field_grids())
    def test_every_column_matches_dop853(self, ramp_kind, omega0, tf, x_ref, xs):
        if ramp_kind == "linear":
            sched = linear_schedule(omega0, 1.0, tf)
        else:
            sched = faquad_schedule(omega0, 1.0, tf, x_ref)
        got = np.array([p for _, p in response_curve(sched, xs)])
        assert np.max(np.abs(got - dop853_response(sched, xs))) < 1e-8


class TestColumnBlocks:
    @pytest.mark.parametrize("cols", [1, 5, 201])
    def test_blocking_is_bitwise(self, monkeypatch, cols):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        xs = np.linspace(-10.0, 10.0, cols) if cols > 1 else np.array([0.7])
        base = dynamics._grid_spec(sched, 10.0)
        for level in range(3):
            monkeypatch.setattr(dynamics, "_BLOCK", 1 << 62)
            whole = np.stack(dynamics._propagate(sched, xs, base, level))
            # one column per block, and ragged blocks of a few columns
            for block in (1, 5000):
                monkeypatch.setattr(dynamics, "_BLOCK", block)
                got = np.stack(dynamics._propagate(sched, xs, base, level))
                assert np.array_equal(got, whole)

    def test_wide_pass_memory_is_bounded(self):
        # 2001 columns on a 1584-step grid: an unblocked chunk of 2048 rows
        # peaks near 280 MiB of temporaries, blocks of 2^20 near 72 MiB
        sched = linear_schedule(100.0, 100.0, 30.0)
        xs = np.linspace(-10.0, 10.0, 2001)
        base = dynamics._grid_spec(sched, 10.0)
        tracemalloc.start()
        try:
            dynamics._propagate(sched, xs, base, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20


class TestBaseGridMemory:
    def test_base_edges_peak_is_bounded(self):
        # 4.41e6 base steps: the edges and their quantiles are two 34 MiB
        # arrays, and no third array of that size may exist alongside them
        sched = linear_schedule(4000.0, 1.0, 4200.0)
        tracemalloc.start()
        try:
            base = dynamics._grid_spec(sched, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert base.size > 4_000_000
        assert peak < 96 * 2**20


def dop853_propagators(schedule, xs, rtol=1e-12):
    """U(x) for every x in one DOP853 solve from |0> and |1>, no shared code."""
    xs = np.asarray(xs, dtype=float)
    k = xs.size
    x2 = np.concatenate([xs, xs])

    def rhs(t, y):
        om = float(schedule.omega(t))
        a0, a1 = y[:2 * k], y[2 * k:]
        return 0.5j * np.concatenate([om * a1 - x2 * a0, om * a0 + x2 * a1])

    # amp0 of the |0> and |1> runs, then amp1 of both
    y0 = np.concatenate([np.ones(k), np.zeros(k), np.zeros(k), np.ones(k)]).astype(complex)
    sol = solve_ivp(rhs, (0.0, schedule.tf), y0, method="DOP853", rtol=rtol, atol=rtol / 10)
    return sol.y[:, -1].reshape(2, 2, k).transpose(2, 0, 1)


class TestErrorEstimateStop:
    """A column may stop on change / 15 once the 16-fold Magnus-4 regime has
    been seen: the result must still be within the tolerance itself."""

    @settings(max_examples=50, deadline=None)
    @given(ramp_kind=st.sampled_from(["linear", "faquad"]),
           omega0=st.floats(5.0, 100.0, **FINITE), tf=st.floats(1.0, 10.0, **FINITE),
           x_ref=st.floats(0.3, 3.0, **FINITE), xs=mixed_field_grids())
    def test_sweeps_meet_tolerance_against_dop853(self, ramp_kind, omega0, tf, x_ref, xs):
        # a uniform grid as well, as in the CLI sweeps: each column is one
        # more chance to stop with its change near 7.5 tol
        xs = np.concatenate([xs, np.linspace(-10.0, 10.0, 21)])
        if ramp_kind == "linear":
            sched = linear_schedule(omega0, 1.0, tf)
        else:
            sched = faquad_schedule(omega0, 1.0, tf, x_ref)
        want = dop853_propagators(sched, xs)
        assert np.max(np.abs(schedule_propagators(sched, xs) - want)) < 1e-9
        got = np.array([p for _, p in response_curve(sched, xs)])
        p_want = np.abs(want[:, 1, 0] + want[:, 1, 1]) ** 2 / 2.0
        assert np.max(np.abs(got - p_want)) < 1e-8

    def test_debug_record_of_cli_response(self, propagate_calls, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="qperceptron"):
            response_curve(linear_schedule(10.0, 1.0, 1.0), [0.5, 2.0])
        assert not caplog.records
        propagate_calls.clear()
        with caplog.at_level(logging.DEBUG, logger="qperceptron"):
            assert cli.main(["response", "--out", str(tmp_path / "response.csv")]) == 0
        [record] = caplog.records
        msg = record.getMessage()
        assert msg.startswith(f"sweep: {propagate_calls[0][1]} base steps; ")
        assert msg.endswith(f"; {column_steps(propagate_calls)} column-steps")
        levels = re.findall(
            r"level (\d+): (\d+) columns(?:, max change (\S+), (\d+) stopped on the estimate)?",
            msg)
        assert [(int(lv), int(n)) for lv, n, _, _ in levels] == [
            (level, cols.size) for level, _, cols in propagate_calls]
        # the first halving has no ratio to show the 16-fold regime; a later
        # one stops columns whose change is still above ptol = 1e-8
        assert levels[1][3] == "0"
        assert any(int(early) > 0 and float(d) >= 1e-8 for _, _, d, early in levels[2:])


class TestWorkGuard:
    """Column-steps (grid steps x x columns, summed over ``_propagate``
    calls) of two fixed sweeps, with 25% headroom over the counts measured
    with the phase rule dt E <= 2, per-column convergence and the
    error-estimate stop.  A change that inflates the grid or the halving
    levels again fails here, without timing.
    """

    def test_cli_response_default_sweep(self, propagate_calls, tmp_path):
        assert cli.main(["response", "--out", str(tmp_path / "response.csv")]) == 0
        assert column_steps(propagate_calls) <= 1.25 * 233_070

    def test_criterion_4_linear_ramp(self, propagate_calls):
        average_fidelity(linear_schedule(4000.0, 1.0, 350.0), x_max=5.0, n_points=11)
        assert column_steps(propagate_calls) <= 1.25 * 26_841_370


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
            edges = dynamics._grid_spec(sched, 2.0)
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
        rep = benchmark_ramps(tf, n_points=21)
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
            benchmark_ramps([], n_points=21)
        with pytest.raises(ValueError):
            benchmark_ramps([2.0, 1.0], n_points=21)

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
            samples = None

            def domega(self, t):
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            evolve_two_level(BadSlope(), 1.0, TwoLevelState.plus())

    @pytest.mark.parametrize("missing, message", [
        ("domega", r"needs domega\(t\)"), ("samples", "needs samples"),
    ])
    def test_missing_attribute_is_named(self, missing, message):
        base = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        attrs = {"tf": base.tf, "omega": base.omega, "domega": base.domega, "samples": None}
        del attrs[missing]
        drive = type("Drive", (), attrs)()
        with pytest.raises(ValueError, match=message):
            evolve_two_level(drive, 1.0, TwoLevelState.plus())


class TestFitPolish:
    """The curve_fit polish may fail to converge, and only that is forgiven."""

    TF = np.geomspace(0.1, 50.0, 12)
    INFID = 5.0 * np.exp(-2.0 * TF**0.2)

    def test_nonconvergence_keeps_scan_optimum(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise RuntimeError("Optimal parameters not found")

        monkeypatch.setattr(dynamics, "curve_fit", no_convergence)
        c0, c1, c2 = fit_infidelity_decay(self.TF, self.INFID)
        assert c2 in np.linspace(0.02, 0.8, 157)  # a scan point, not polished
        assert c2 == pytest.approx(0.2, rel=1e-12)
        assert (c0, c1) == pytest.approx((5.0, 2.0), rel=1e-6)

    def test_other_errors_propagate(self, monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("a bug in the polish")

        monkeypatch.setattr(dynamics, "curve_fit", bug)
        with pytest.raises(TypeError, match="a bug in the polish"):
            fit_infidelity_decay(self.TF, self.INFID)
