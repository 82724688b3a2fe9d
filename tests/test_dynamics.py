"""Integrator and benchmark tests against closed forms and an ODE oracle."""
import io
import itertools
import json
import logging
import math
import re
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import least_squares, minimize_scalar

from qperceptron import cli, dynamics
from qperceptron.activation import ALGEBRAIC, eval_CS, eval_f
from qperceptron.control import (faquad_schedule, linear_schedule, perturbed_schedule,
                                 tabulated_schedule)
from qperceptron.dynamics import (
    FidelityReport,
    average_fidelity,
    benchmark_ramps,
    fit_constants_json,
    fit_infidelity_decay,
    report_to_csv,
    response_curve,
    response_to_csv,
    schedule_propagators,
)
from qperceptron.network import forward
from qperceptron.training import cross_entropy_cost, prime_dataset
from ode_oracles import PLUS, dop853_two_level, landau_zener_propagator, reversed_negated
from test_network import layered_net

X_REF = 1.2720196495140690
FINITE = dict(allow_nan=False, allow_infinity=False)
GROUND = np.array([1.0, 0.0], dtype=complex)
# entries of U within tol give the amplitudes of a normalized state within
# sqrt(2) tol, so this tol holds each amplitude to 1e-9
AMP_TOL = 1e-9 / math.sqrt(2.0)


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
            fin = schedule_propagators(sched, [0.0], AMP_TOL)[0] @ GROUND
            assert abs(fin[1]) ** 2 == pytest.approx(math.sin(om * tf / 2.0) ** 2, abs=1e-9)

    def test_pure_longitudinal_phase(self):
        # Omega = 0: amplitudes only acquire the relative phase exp(i x t)
        sched = linear_schedule(0.0, 0.0, 0.7)
        x = 2.3
        fin = schedule_propagators(sched, [x], AMP_TOL)[0] @ PLUS
        assert abs(fin[1]) ** 2 == pytest.approx(0.5, abs=1e-10)
        rel = fin[1] / fin[0]
        assert np.angle(rel) == pytest.approx(x * 0.7, abs=1e-9)

    def test_norm_conserved(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        for x in (0.3, -4.0, 9.0):
            fin = schedule_propagators(sched, [x], AMP_TOL)[0] @ PLUS
            assert abs(np.linalg.norm(fin) - 1.0) < 1e-10

    def test_matches_ode_solver_faquad(self):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        for x in (1.0, -3.3):
            fin = schedule_propagators(sched, [x], AMP_TOL)[0] @ PLUS
            want = dop853_two_level(sched, [x], PLUS)[0, 0]
            assert np.max(np.abs(fin - want)) < 1e-8

    def test_matches_ode_solver_linear(self):
        sched = linear_schedule(30.0, 1.0, 5.0)
        fin = schedule_propagators(sched, [2.0], AMP_TOL)[0] @ GROUND
        want = dop853_two_level(sched, [2.0], GROUND)[0, 0]
        assert np.max(np.abs(fin - want)) < 1e-8

    def test_self_convergence_tightening_tol(self):
        sched = faquad_schedule(50.0, 1.0, 8.0, X_REF)
        loose = schedule_propagators(sched, [1.7], 1e-7 / math.sqrt(2.0))[0] @ PLUS
        tight = schedule_propagators(sched, [1.7], 1e-11 / math.sqrt(2.0))[0] @ PLUS
        assert np.max(np.abs(loose - tight)) < 1e-7

    def test_time_reversal_returns_start(self):
        sched = faquad_schedule(100.0, 1.0, 6.0, X_REF)
        x = 2.2
        U = schedule_propagators(sched, [x])[0]
        U_rev = schedule_propagators(reversed_negated(sched), [-x])[0]
        # global phase cancels exactly for the inverse evolution, so the
        # product is the identity and every start state comes back
        assert np.max(np.abs(U_rev @ U - np.eye(2))) < 1e-8

    def test_field_sign_symmetry(self):
        # conjugation by sx maps x -> -x and swaps amplitudes of |+> runs
        sched = faquad_schedule(80.0, 1.0, 7.0, X_REF)
        for x in (0.9, 5.5):
            p, q = np.abs((schedule_propagators(sched, [x, -x], AMP_TOL) @ PLUS)[:, 1]) ** 2
            assert p + q == pytest.approx(1.0, abs=1e-8)

    def test_rejects_broken_schedule(self):
        class Junk:
            tf = -1.0

        with pytest.raises(ValueError):
            schedule_propagators(Junk(), [0.0])


class TestIntegratorRobustness:
    def test_zero_field_is_identity(self):
        # Omega = x = 0 everywhere: H = 0, so |+> comes back unchanged, and
        # neither the step nor the step-rate rules divide by the zero energy
        sched = linear_schedule(0.0, 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fin = schedule_propagators(sched, [0.0], AMP_TOL)[0] @ PLUS
        assert np.max(np.abs(fin - PLUS)) < 1e-12

    def test_nan_drive_fails_fast(self):
        class NanDrive:
            tf = 1.0
            samples = None

            def omega(self, t):
                return np.full(np.shape(t), np.nan)

            domega = omega

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="not finite"):
            schedule_propagators(NanDrive(), [0.5])
        assert time.perf_counter() - t0 < 1.0

    def test_nan_between_grid_points_names_level(self):
        # finite on the probe grid and the step edges, NaN at the first
        # Magnus-6 node of the base grid: the level-0 sweep must stop there
        base = linear_schedule(2.0, 1.0, 1.0)
        lo, hi = dynamics._grid_spec(base, 1.0)[:2]
        node = (lo + hi) / 2.0 - (math.sqrt(15.0) / 10.0) * (hi - lo)

        class HoledDrive:
            tf = base.tf
            domega = base.domega
            samples = None

            def omega(self, t):
                t = np.asarray(t, dtype=float)
                return np.where(np.abs(t - node) < 1e-12, np.nan, base.omega(t))

        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="level 0"):
            schedule_propagators(HoledDrive(), [1.0])
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("call, message", [
        (lambda s: schedule_propagators(s, [np.nan]), "x values must be finite"),
        (lambda s: response_curve(s, [np.inf]), "x values must be finite"),
        (lambda s: schedule_propagators(s, [0.0, -np.inf]), "x values must be finite"),
        (lambda s: schedule_propagators(s, 0.5), r"x must be a 1-D .*shape \(\)"),
        (lambda s: schedule_propagators(s, [[0.0, 1.0], [2.0, 3.0]]),
         r"x must be a 1-D .*shape \(2, 2\)"),
        (lambda s: response_curve(s, [[0.0, 1.0], [2.0, 3.0]]),
         r"x must be a 1-D .*shape \(2, 2\)"),
        (lambda s: schedule_propagators(s, np.empty((0, 3))),
         r"x must be a 1-D .*shape \(0, 3\)"),
    ], ids=["propagators_nan", "response_inf", "propagators_inf",
            "propagators_scalar", "propagators_2d", "response_2d", "propagators_empty_2d"])
    def test_nonfinite_x_is_named(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(linear_schedule(2.0, 1.0, 1.0))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
    def test_meaningless_tol_is_rejected(self, monkeypatch, tol):
        # nan and inf stopped after one halving, and a negative tol ran all
        # of them: each must fail before any step is integrated
        def no_steps(*args):
            raise AssertionError("steps were integrated")

        monkeypatch.setattr(dynamics, "_propagate", no_steps)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            schedule_propagators(faquad_schedule(100.0, 1.0, 10.0, X_REF), [9.6], tol=tol)

    def test_empty_x_returns_before_any_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(dynamics, "_grid_spec", no_grid)
        U = schedule_propagators(linear_schedule(2.0, 1.0, 1.0), [])
        assert U.shape == (0, 2, 2) and U.dtype == complex

    @pytest.mark.parametrize("call", [schedule_propagators, response_curve],
                             ids=["propagators", "response"])
    def test_schedule_is_checked_before_empty_x(self, call):
        with pytest.raises(ValueError, match="invalid schedule"):
            call(object(), [])

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
            schedule_propagators(sched, [1.0], tol=0.0)
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


class TestMagnusStep:
    def test_one_step_is_the_magnus6_exponential(self):
        # one step over [0, 1] of a curved drive against expm of the
        # Blanes-Casas-Ros exponent, built from matrix commutators of
        # A(t) = -i H(t) at the three Gauss-Legendre nodes
        def omega(t):
            return 3.0 + 20.0 * t - 15.0 * t * t

        xs = np.array([-2.0, 0.0, 0.7, 2.5])
        curved = types.SimpleNamespace(omega=omega)
        got = dynamics._unitaries(dynamics._propagate(curved, xs, np.array([0.0, 1.0]), (0,))[:, 0])
        nodes = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sz = np.diag([-1.0, 1.0])

        def com(u, v):
            return u @ v - v @ u

        for x, U in zip(xs, got):
            a1, a2, a3 = (0.5j * (om * sx + x * sz) for om in omega(nodes))
            al1, al2 = a2, math.sqrt(15.0) / 3.0 * (a3 - a1)
            al3 = 10.0 / 3.0 * (a3 - 2.0 * a2 + a1)
            c1 = com(al1, al2)
            c2 = -com(al1, 2.0 * al3 + c1) / 60.0
            w = al1 + al3 / 12.0 + com(-20.0 * al1 - al3 + c1, al2 + c2) / 240.0
            assert np.max(np.abs(U - expm(w))) < 1e-13


class TestConvergenceOrder:
    def test_sixth_order_per_halving(self):
        # Magnus-6: each halving cuts the error 64-fold.  A wrong sign on
        # the commutator (sy) terms still converges, but only 4-fold.
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        xs = np.array([-3.0, 0.5, 2.0])
        base = dynamics._grid_spec(sched, 3.0)
        ref = dynamics._propagate(sched, xs, base, (6,))
        err = [np.abs(dynamics._propagate(sched, xs, base, (level,)) - ref).max()
               for level in range(3)]
        for coarse, fine in zip(err, err[1:]):
            assert 56.0 <= coarse / fine <= 72.0


class TestLandauZenerOracle:
    """Linear ramps against the exact parabolic-cylinder propagator, an
    oracle that shares no code with the Magnus step or with DOP853."""

    def test_oracle_matches_dop853(self):
        xs = [-2.5, 0.3, 9.6]
        want = dop853_two_level(linear_schedule(100.0, 1.0, 10.0), xs, np.eye(2))
        got = np.array([landau_zener_propagator(100.0, 1.0, 10.0, x) for x in xs])
        assert np.max(np.abs(got - want.transpose(0, 2, 1))) < 1e-10

    @pytest.mark.parametrize("omega0, tf, xs", [
        (100.0, 10.0, [-9.6, -2.5, -0.3, 0.7, 1.0, 5.0, 9.6]),
        (4000.0, 350.0, [-0.7, 5.0]),  # criterion 4's ramp
    ], ids=["linear_100", "criterion_4"])
    def test_propagators_match_landau_zener(self, omega0, tf, xs):
        got = schedule_propagators(linear_schedule(omega0, 1.0, tf), xs)
        want = np.array([landau_zener_propagator(omega0, 1.0, tf, x) for x in xs])
        assert np.max(np.abs(got - want)) < 1e-9


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
    """Record (level, grid steps, x columns) of every level integrated by a
    ``_propagate`` call: a two-level call counts as both levels."""
    calls = []
    propagate = dynamics._propagate

    def recording(schedule, xs, base, levels):
        calls.extend((level, (base.size - 1) << level, xs.copy()) for level in levels)
        return propagate(schedule, xs, base, levels)

    monkeypatch.setattr(dynamics, "_propagate", recording)
    return calls


def column_steps(calls):
    return sum(steps * cols.size for _, steps, cols in calls)


@pytest.fixture
def qmul_elements(monkeypatch):
    """[elements multiplied by every ``_qmul`` call], a one-item list."""
    total = [0]
    qmul = dynamics._qmul

    def counting(*q):
        total[0] += np.broadcast(q[0], q[4]).size
        return qmul(*q)

    monkeypatch.setattr(dynamics, "_qmul", counting)
    return total


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
        want = np.abs(dop853_two_level(sched, xs, PLUS)[:, 0, 1]) ** 2
        assert np.max(np.abs(got - want)) < 1e-8


class TestColumnBlocks:
    @pytest.mark.parametrize("cols", [1, 5, 201])
    def test_blocking_is_bitwise(self, monkeypatch, cols):
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        xs = np.linspace(-10.0, 10.0, cols) if cols > 1 else np.array([0.7])
        base = dynamics._grid_spec(sched, 10.0)
        for level in range(3):
            monkeypatch.setattr(dynamics, "_BLOCK", 1 << 62)
            whole = dynamics._propagate(sched, xs, base, (level,))
            # one column per block, and ragged blocks of a few columns
            for block in (1, 5000):
                monkeypatch.setattr(dynamics, "_BLOCK", block)
                got = dynamics._propagate(sched, xs, base, (level,))
                assert np.array_equal(got, whole)

    def test_wide_pass_memory_is_bounded(self):
        # 2001 columns on a 1057-step grid: an unblocked chunk of 2048 rows
        # peaks near 280 MiB of temporaries, blocks of 2^20 near 80 MiB.
        # Two levels in one call hold both levels' steps, blocked together
        sched = linear_schedule(100.0, 100.0, 30.0)
        xs = np.linspace(-10.0, 10.0, 2001)
        base = dynamics._grid_spec(sched, 10.0)
        for levels in ((0,), (0, 1)):
            tracemalloc.start()
            try:
                dynamics._propagate(sched, xs, base, levels)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 96 * 2**20, levels


class TestProductTree:
    """The pairwise product tree runs over the real steps of a chunk and
    carries an unpaired last node; it must multiply the same pairs, in the
    same order, as a tree padded with identity steps to a power of two."""

    def test_order_pairs_time_adjacent_nodes(self):
        for m in range(1, 3001):
            rows = dynamics._tree_order(m)
            assert np.array_equal(np.sort(rows), np.arange(m))
            if m & (m - 1) == 0:
                bits = m.bit_length() - 1
                reversal = [int(format(p, f"0{bits}b")[::-1], 2) for p in range(m)]
                assert rows.tolist() == reversal
            # follow each row's node index up the tree: the earlier half
            # holds nodes 2j, the later half nodes 2j + 1 in the same rows,
            # and an odd level's last row holds its last node
            nodes = rows
            while nodes.size > 1:
                n, h = nodes.size, nodes.size // 2
                assert np.all(nodes[:h] % 2 == 0)
                assert np.array_equal(nodes[h : 2 * h], nodes[:h] + 1)
                assert nodes[2 * h :].tolist() == [n - 1] * (n % 2)
                nodes = np.concatenate([nodes[:h] // 2, nodes[2 * h :] // 2])
            assert nodes.tolist() == [0]

    @pytest.mark.parametrize("m", [*range(1, 71), 129, 255, 257, (1 << 14) + 3617])
    def test_equals_the_tree_padded_with_zero_length_steps(self, m):
        # zero-length steps (edges repeated at tf) up to the next power of
        # two make every chunk's tree a full one; the values may differ
        # only in the sign of an exact zero
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        base = np.linspace(0.0, 10.0, m + 1)
        padded = np.concatenate([base, np.full((1 << (m - 1).bit_length()) - m, 10.0)])
        xs = np.array([0.0, 1.3, -7.5])
        for level in (0, 1):
            want = dynamics._propagate(sched, xs, padded, (level,))
            assert np.array_equal(dynamics._propagate(sched, xs, base, (level,)), want)


class TestFusedLevels:
    """A sweep's first call integrates levels 0 and 1 in one pass, their
    steps sharing one exponent pass and one tree; each level must be bitwise
    the call of that level alone."""

    @pytest.mark.parametrize("m", [*range(1, 71), 129, 255, 257, 883, 20_001])
    def test_each_level_equals_its_own_call(self, m):
        # up to _CHUNK >> 1 base steps both calls take one chunk; beyond it
        # level 0 alone groups its steps in longer chunks, level 1 does not
        for sched in (faquad_schedule(100.0, 1.0, 10.0, X_REF), linear_schedule(100.0, 1.0, 10.0)):
            base = np.linspace(0.0, 10.0, m + 1)
            for xs in (np.array([0.7]), np.array([-2.5, 0.0, 9.6]), np.linspace(-10.0, 10.0, 11)):
                fused = dynamics._propagate(sched, xs, base, (0, 1))
                assert fused.shape == (4, 2, xs.size)
                level1 = dynamics._propagate(sched, xs, base, (1,))
                assert np.array_equal(fused[:, 1:], level1)
                if m <= dynamics._CHUNK >> 1:
                    level0 = dynamics._propagate(sched, xs, base, (0,))
                    assert np.array_equal(fused[:, :1], level0)


KINKED = tabulated_schedule([0.0, 0.3, 1.1, 1.7, 2.5], [40.0, 3.0, 9.0, 0.5, 2.0])
MIRROR_SCHEDULES = {
    "linear": linear_schedule(100.0, 1.0, 10.0),
    "faquad": faquad_schedule(100.0, 1.0, 10.0, X_REF),
    "perturbed": perturbed_schedule(faquad_schedule(40.0, 1.0, 5.0, X_REF), 0.3),
    "tabulated": KINKED,
    "reversed": reversed_negated(KINKED),
}


class TestMirrorSymmetry:
    """U(-x) = sx U(x) sx, which the sweep driver uses to integrate each
    distinct |x| once: it must hold bit for bit in the kernel."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(sorted(MIRROR_SCHEDULES)),
           xs=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0, **FINITE)),
                       min_size=1, max_size=6))
    def test_negated_x_negates_by_and_bz(self, kind, xs):
        sched = MIRROR_SCHEDULES[kind]
        xs = np.array(xs)
        base = dynamics._grid_spec(sched, float(np.max(np.abs(xs))))
        for level in range(3):
            a, bx, by, bz = dynamics._propagate(sched, xs, base, (level,))
            mirrored = dynamics._propagate(sched, -xs, base, (level,))
            # values: the sign of an exact zero may differ
            assert np.array_equal(mirrored, np.stack([a, bx, -by, -bz]))

    def test_each_column_equals_its_sweep_without_pairs(self, propagate_calls):
        # mirror pairs, an exact duplicate, +-0.0, a lone negative and the
        # max |x| of both signs.  A column's result depends only on its x,
        # the grid's M = max |x| and tol, so a sweep of [x, M] (or [x] when
        # |x| = M), which has no pairs, must give it exactly
        xs = np.array([-3.0, 3.0, 1.5, 1.5, -0.0, 0.0, -7.25, 2.0, -2.0, 0.3, 10.0, -10.0])
        M = 10.0

        def positive_by(q):
            # a mirror pair's entries and probabilities change by equal
            # amounts; this reduction lets a column whose by < 0 stop at the
            # first halving while its mirror moves on
            return np.maximum(q[2], 0.0)

        for sched in (MIRROR_SCHEDULES["faquad"], MIRROR_SCHEDULES["reversed"]):
            U = schedule_propagators(sched, xs)
            P = [p for _, p in response_curve(sched, xs)]
            _, q, _ = dynamics._converged_sweep(sched, xs, positive_by, 1e-9)
            for j, x in enumerate(xs):
                alone = [x] if abs(x) == M else [x, M]
                assert np.array_equal(schedule_propagators(sched, alone)[0], U[j])
                assert response_curve(sched, alone)[0][1] == P[j]
                _, q_alone, _ = dynamics._converged_sweep(sched, alone, positive_by, 1e-9)
                assert np.array_equal(q_alone[:, 0], q[:, j])
        for _, _, cols in propagate_calls:
            assert not np.any(np.signbit(cols))
            assert np.unique(cols).size == cols.size


class TestBaseGridMemory:
    def test_base_edges_peak_is_bounded(self):
        # 4.41e6 base steps: the edges and their quantiles are two 34 MiB
        # arrays, and no third array of that size may exist alongside them
        sched = linear_schedule(4000.0, 1.0, 6300.0)
        tracemalloc.start()
        try:
            base = dynamics._grid_spec(sched, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert base.size > 4_000_000
        assert peak < 96 * 2**20


class TestErrorEstimateStop:
    """A column may stop on a change up to 7.5 tol once a drop of 12 or more
    has shown the 64-fold Magnus-6 regime: the result must still be within
    the tolerance itself."""

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
        want = dop853_two_level(sched, xs, np.eye(2)).transpose(0, 2, 1)
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
        # linspace(-10, 10, 201) rounds all but 33 of its 100 mirror pairs apart
        levels = check_record(record.getMessage(), propagate_calls, 201)
        assert propagate_calls[0][2].size == 168
        # the first halving has no ratio to show the 64-fold regime
        assert levels[1][3] == "0"

    def test_estimate_stop_on_gate_sweep(self, propagate_calls, caplog):
        # a later halving stops columns whose change is still above tol
        with caplog.at_level(logging.DEBUG, logger="qperceptron"):
            schedule_propagators(faquad_schedule(100.0, 1.0, 10.0, X_REF), GATE_FIELDS)
        [record] = caplog.records
        levels = check_record(record.getMessage(), propagate_calls, GATE_FIELDS.size)
        assert levels[1][3] == "0"
        assert any(int(early) > 0 and float(d) >= 1e-9 for _, _, d, early in levels[2:])


# the 8 sector fields -b + sum_k w_k s_k, s_k = -+1, of a gate with
# weights (4, -3, 2) and bias 1
GATE_FIELDS = -1.0 + np.array(list(itertools.product([-1.0, 1.0], repeat=3))) @ [4.0, -3.0, 2.0]


def check_record(msg, calls, columns):
    """The (level, |x| integrated, max change, estimate stops) of a DEBUG
    sweep record, after checking its x columns, distinct |x|, base steps,
    per-level |x| and column-steps against the ``_propagate`` calls."""
    assert msg.startswith(
        f"sweep: {columns} x columns, {calls[0][2].size} distinct |x|, "
        f"{calls[0][1]} base steps; ")
    assert msg.endswith(f"; {column_steps(calls)} column-steps")
    levels = re.findall(
        r"level (\d+): (\d+) \|x\|(?:, max change (\S+), (\d+) stopped on the estimate)?",
        msg)
    assert [(int(lv), int(n)) for lv, n, _, _ in levels] == [
        (level, cols.size) for level, _, cols in calls]
    return levels


class TestWorkGuard:
    """Column-steps (grid steps x x columns, summed over ``_propagate``
    calls) of fixed sweeps, with 25% headroom over the counts measured
    with the Magnus-6 step, the phase rule dt E <= 2, per-column
    convergence, the error-estimate stop and each distinct |x| integrated
    once; the base grid of dt E <= 3 stays below them.  A change that
    inflates the grid or the halving levels again, or integrates mirrored
    columns twice, fails here, without timing.
    """

    def test_cli_ramp_pass_work(self, propagate_calls, monkeypatch, tmp_path, capsys):
        # a ramp pass of perfbench: 27 sweeps, each with levels 0 and 1 in
        # one call, on the grid of dt E <= 3.  With a call per level and
        # dt E <= 2 it took 74 calls and 510,521 column-steps
        calls = []
        propagate = dynamics._propagate
        monkeypatch.setattr(dynamics, "_propagate",
                            lambda *args: calls.append(args[3]) or propagate(*args))
        assert cli.main(["response", "--out", str(tmp_path / "response.csv")]) == 0
        assert cli.main(["benchmark", "--out", str(tmp_path / "bench.csv")]) == 0
        assert calls.count((0, 1)) == 27
        assert len(calls) <= 1.02 * 49
        assert column_steps(propagate_calls) <= 1.02 * 388_432

    def test_cli_response_default_sweep(self, propagate_calls, tmp_path):
        # 168 distinct |x|: linspace(-10, 10, 201) has 33 exact mirror pairs
        assert cli.main(["response", "--out", str(tmp_path / "response.csv")]) == 0
        assert column_steps(propagate_calls) <= 1.25 * 109_480

    def test_cli_benchmark_default_sweeps(self, propagate_calls, tmp_path, capsys):
        # 26 sweeps of the exactly mirror-symmetric 21-point grid
        assert cli.main(["benchmark", "--out", str(tmp_path / "bench.csv")]) == 0
        assert column_steps(propagate_calls) <= 1.25 * 401_041

    def test_gate_sweep_at_amplitude_tol(self, propagate_calls):
        # the 8 fields hold two mirror pairs, +-2 and +-4
        schedule_propagators(faquad_schedule(100.0, 1.0, 10.0, X_REF), GATE_FIELDS)
        assert column_steps(propagate_calls) <= 1.25 * 6_460

    @pytest.mark.parametrize("sweep", ["response", "benchmark", "gate"])
    def test_tree_multiplies_only_the_real_steps(self, propagate_calls, qmul_elements,
                                                 tmp_path, capsys, sweep):
        # a chunk of m steps takes m - 1 products per column in its tree and
        # one more into the running product: one per column-step.  A tree
        # padded to a power of two multiplied 164,864 and 563,712 elements
        # for the CLI sweeps' 109,480 and 401,041 column-steps
        if sweep == "gate":
            schedule_propagators(faquad_schedule(100.0, 1.0, 10.0, X_REF), GATE_FIELDS)
        else:
            assert cli.main([sweep, "--out", str(tmp_path / "out.csv")]) == 0
        assert qmul_elements[0] == column_steps(propagate_calls) > 0

    def test_average_fidelity_default_grid(self, propagate_calls):
        # 101 distinct |x| on the mirror-exact 201-point grid; on
        # linspace(-10, 10, 201), with 168, it took 95,824
        average_fidelity(faquad_schedule(100.0, 1.0, 10.0, X_REF))
        assert propagate_calls[0][2].size == 101
        assert column_steps(propagate_calls) <= 1.02 * 58_647

    def test_criterion_4_linear_ramp(self, propagate_calls):
        average_fidelity(linear_schedule(4000.0, 1.0, 350.0), x_max=5.0, n_points=11)
        assert column_steps(propagate_calls) <= 1.25 * 13_972_220

    @pytest.mark.parametrize("inputs, hidden, seed, per_layer_steps", [
        (3, [4], 5, 178_160), (4, [4, 3, 2], 3, 1_133_560)], ids=["3-4-1", "4-4-3-2-1"])
    def test_hardware_forwards_sweep_once_per_pass(self, caplog, inputs, hidden, seed,
                                                   per_layer_steps):
        # one forward per input, one sweep each, and at most 2% more
        # column-steps than one grid per layer took, though all the gates
        # share one grid
        net = layered_net(inputs, hidden, np.random.default_rng(seed), scale=3.0)
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        with caplog.at_level(logging.DEBUG, logger="qperceptron"):
            for i in range(1 << inputs):
                forward(net, format(i, f"0{inputs}b"), sched)
        steps = [int(re.search(r"; (\d+) column-steps$", r.getMessage())[1])
                 for r in caplog.records]
        assert len(steps) == 1 << inputs
        assert sum(steps) <= 1.02 * per_layer_steps

    def test_hardware_cost_sweeps_once(self, caplog):
        # the same 3-4-1 net's hardware cost on all 8 inputs: one pass over
        # their superposition, so one sweep and 49,640 column-steps, where a
        # forward per input took 8 and 178,160
        sched = faquad_schedule(100.0, 1.0, 10.0, X_REF)
        net = layered_net(3, [4], np.random.default_rng(5), scale=3.0)
        with caplog.at_level(logging.DEBUG, logger="qperceptron"):
            cross_entropy_cost(net, prime_dataset(3), sched)
        steps = [int(re.search(r"; (\d+) column-steps$", r.getMessage())[1])
                 for r in caplog.records]
        assert len(steps) == 1
        assert sum(steps) <= 1.25 * 49_640


def piecewise_oracle(schedule, x, psi0):
    """DOP853 restarted at every knot of a tabulated drive, so that no
    solver step straddles a kink; returns the final (amp0, amp1)."""
    ts = schedule.samples[0]
    for span in zip(ts[:-1], ts[1:]):
        psi0 = dop853_two_level(schedule, [x], psi0, span)[0, 0]
    return psi0


class TestKinkedDrives:
    # piecewise-linear tables: every interior knot is a base-grid edge, so
    # each Magnus step sees a smooth drive and keeps its sixth order
    def test_kink_table_at_zero_field(self):
        sched = tabulated_schedule([0, 1, 2, 4, 5, 6, 7, 8, 9, 10],
                                   [1, 1, 4, 1, 1, 1, 1, 1, 1, 1])
        fin = schedule_propagators(sched, [0.0], AMP_TOL)[0] @ GROUND
        want = piecewise_oracle(sched, 0.0, GROUND)
        assert abs(fin[0] - want[0]) < 1e-9
        assert abs(fin[1] - want[1]) < 1e-9

    def test_kink_table_response_meets_tolerance(self):
        sched = tabulated_schedule([0.0, 0.7, 2.5], [21.2, 4.6, 46.4])
        [(_, p)] = response_curve(sched, [1.2])
        want = piecewise_oracle(sched, 1.2, PLUS)
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

    def test_probe_is_one_read_only_constant(self):
        # tf times the unit probe is bitwise the probe built on [0, tf], for
        # the CLI benchmark's 13 tf, criterion 4's 350 and 1,000 tf drawn
        # log-uniform in [1e-6, 1e9]; a table merges its knots into a copy,
        # so repeated grids stay bitwise equal.  A 1,025-point body and a
        # 513-point head, 1,538 points in all
        assert not dynamics._PROBE.flags.writeable
        assert dynamics._PROBE.size == 1025 + 513 - 1
        drawn = 10.0 ** np.random.default_rng(0).uniform(-6.0, 9.0, 1000)
        for tf in [*map(float, CLI_TF), 350.0, *map(float, drawn)]:
            built = np.unique(np.concatenate(
                [np.linspace(0.0, tf, 1025), tf * np.geomspace(1e-9, 1.0, 513), [0.0]]))
            assert (tf * dynamics._PROBE).tobytes() == built.tobytes(), tf
        table = tabulated_schedule([0.0, 0.3, 1.1, 1.7, 2.5], [40.0, 3.0, 9.0, 0.5, 2.0])
        for sched in (table, reversed_negated(table), linear_schedule(40.0, 1.0, 2.5)):
            first = dynamics._grid_spec(sched, 2.0)
            assert dynamics._grid_spec(sched, 2.0).tobytes() == first.tobytes()
            assert not dynamics._PROBE.flags.writeable

    def test_grid_at_a_new_tf_builds_no_probe(self, monkeypatch):
        # the probe is scaled, not rebuilt: a tf not seen before takes no geomspace
        sched = linear_schedule(40.0, 1.0, 2.718281828459045)

        def no_build(*args, **kwargs):
            raise AssertionError("the probe was rebuilt")

        monkeypatch.setattr(np, "geomspace", no_build)
        assert dynamics._grid_spec(sched, 2.0)[-1] == sched.tf


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
        fin = schedule_propagators(sched, [1.0], AMP_TOL)[0] @ PLUS
        assert abs(fin[1]) ** 2 == pytest.approx(eval_f(ALGEBRAIC, 1.0), abs=0.01)

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

    @staticmethod
    def swept_grid(x_max, n_points):
        """The x grid that average_fidelity hands to its sweep."""
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_converged_sweep",
                       lambda s, xs, f, tol: seen.append(xs.copy()) or (xs, None, np.ones(xs.size)))
            average_fidelity(faquad_schedule(100.0, 1.0, 5.0, X_REF), x_max, n_points)
        [xs] = seen
        return xs

    @settings(max_examples=60, deadline=None)
    @given(x_max=st.floats(1e-3, 1e3, **FINITE), n_points=st.integers(2, 402))
    def test_grid_is_the_exact_mirror_of_linspace(self, x_max, n_points):
        # sign-symmetric, so each |x| is one column; x moves from linspace
        # by at most 2 ulp of the span 2 x_max, the sum of linspace's own
        # rounding at x and at -x (up to 3 ulp of x_max)
        xs = self.swept_grid(x_max, n_points)
        assert np.array_equal(xs, -xs[::-1])
        ref = np.linspace(-x_max, x_max, n_points)
        assert np.all(np.abs(xs - ref) <= 2 * np.spacing(2.0 * x_max))

    def test_default_and_benchmark_grids(self):
        # linspace(-10, 10, 201) has 168 distinct |x|, its mirror 101; the
        # benchmark's 21-point grid was already symmetric and stays bitwise
        assert np.unique(np.abs(self.swept_grid(10.0, 201))).size == 101
        assert self.swept_grid(10.0, 21).tobytes() == np.linspace(-10.0, 10.0, 21).tobytes()

    def test_bounds_and_validation(self):
        sched = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        f = average_fidelity(sched, x_max=4.0, n_points=21)
        assert 0.0 <= f <= 1.0
        with pytest.raises(ValueError):
            average_fidelity(sched, x_max=-1.0, n_points=21)
        with pytest.raises(ValueError, match="finite x_max > 0"):
            average_fidelity(sched, x_max=0.0, n_points=21)
        with pytest.raises(ValueError):
            average_fidelity(sched, x_max=4.0, n_points=1)


# the faquad column of ``qperceptron benchmark`` at its default flags
CLI_TF = np.geomspace(1.0, 30.0, 13)
CLI_INFID = np.array([
    0.14956463921072882, 0.11516235318972412, 0.08747498038355528, 0.06570908210073012,
    0.0467083822178731, 0.03076514106738948, 0.01962435301961596, 0.01151362530611899,
    0.007017615599787086, 0.004085136439062831, 0.0026380580189574454,
    0.0018181846817272307, 0.0013794997362384098])


def decay_residual(tf, infid, c0, c1, c2):
    r = np.log(infid) - (math.log(c0) - c1 * tf**c2)
    return float(r @ r)


def fit_at_exponent(tf, infid, c2):
    """(c0, c1) of the linear least-squares fit of log infid at fixed c2."""
    A = np.stack([np.ones_like(tf), -tf**c2], axis=1)
    (lc0, c1), *_ = np.linalg.lstsq(A, np.log(infid), rcond=None)
    return math.exp(lc0), c1


def least_squares_residual(tf, infid):
    """Smallest residual sum of squares of log infid - (a - b tf^c) over 27
    starts of a three-parameter least_squares: an oracle for the decay fit
    that shares no code with dynamics."""
    li = np.log(infid)
    best = math.inf
    for start in itertools.product((0.0, 5.0, 10.0), (0.5, 5.0, 20.0), (0.1, 0.3, 0.6)):
        fit = least_squares(lambda p: li - (p[0] - p[1] * tf ** p[2]), start,
                            bounds=([-np.inf, -np.inf, 0.0], [np.inf, np.inf, 5.0]),
                            xtol=1e-15, ftol=1e-15, gtol=1e-15)
        best = min(best, float(fit.fun @ fit.fun))
    return best


def brent_decay_fit(tf, infid):
    """((c0, c1, c2), scan c2) of the decay fit by one lstsq per exponent: a
    157-point scan over [0.02, 0.8] and scipy's bounded Brent polish within
    +-0.005 of its best point, the lower kept.  The fit's former algorithm,
    an oracle that shares no code with dynamics."""
    use = infid > 1e-12
    lt, li = np.log(tf[use]), np.log(infid[use])

    def fit(c2):
        A = np.stack([np.ones_like(lt), -np.exp(c2 * lt)], axis=1)
        coef, *_ = np.linalg.lstsq(A, li, rcond=None)
        r = li - A @ coef
        return (float(r @ r) if coef[1] > 0 else math.inf), coef

    ss, scan = min((fit(c)[0], float(c)) for c in np.linspace(0.02, 0.8, 157))
    if ss == math.inf:
        raise ValueError("no scanned exponent gives c1 > 0")
    c2 = scan
    with np.errstate(invalid="ignore"):
        polish = minimize_scalar(lambda c: fit(c)[0], bounds=(c2 - 0.005, c2 + 0.005),
                                 method="bounded", options={"xatol": 1e-8})
    if polish.fun < ss:
        c2 = float(polish.x)
    _, (lc0, c1) = fit(c2)
    return (math.exp(lc0), float(c1), c2), scan


def keep_lower_decay_fit(tf, infid):
    """fit_infidelity_decay's choice written as a keep-lower polish: a 157-point
    scan, then 4 grids whose running best starts from math.inf and centres the
    next grid, the polish kept only if its residual is below the scan's, and a
    refit at the kept c2.  The residual at each exponent repeats the variable
    projection of dynamics op for op, so the two agree bitwise."""
    use = infid > 1e-12
    if int(np.sum(use)) < 4:
        raise ValueError("fewer than 4 usable points")
    lt = np.log(tf[use])
    if np.ptp(lt) == 0:
        raise ValueError("one tf")
    li = np.log(infid[use])
    yc = li - li.mean()

    def fit(c2):
        z = -np.exp(np.multiply.outer(c2, lt))
        zc = z - z.mean(axis=1, keepdims=True)
        c1 = (zc @ yc) / np.einsum("ij,ij->i", zc, zc)
        r = yc - c1[:, None] * zc
        ss = np.where(c1 > 0, np.einsum("ij,ij->i", r, r), math.inf)
        i = int(np.argmin(ss))
        return float(ss[i]), float(c2[i]), float(li.mean() - c1[i] * z[i].mean()), float(c1[i])

    ss, c2, _, _ = fit(np.linspace(0.02, 0.8, 157))
    if ss == math.inf:
        raise ValueError("no decreasing fit")
    pss, pc2 = math.inf, c2
    for half in (5e-3, 1e-4, 2e-6, 4e-8):
        got = fit(np.linspace(max(c2 - 5e-3, pc2 - half), min(c2 + 5e-3, pc2 + half), 101))
        pss, pc2 = min((pss, pc2), got[:2], key=lambda p: p[0])
    if pss < ss:
        c2 = pc2
    _, _, lc0, c1 = fit(np.array([c2]))
    return float(np.exp(lc0)), c1, c2


@st.composite
def noisy_decays(draw):
    """(tf, infid): 4-20 points of c0 exp(-c1 tf^c2 + sigma u), u in [-1, 1]."""
    n = draw(st.integers(4, 20))
    tf = np.array(draw(st.lists(st.floats(0.1, 100.0), min_size=n, max_size=n)))
    c0, c1, c2 = draw(st.floats(1e-3, 10.0)), draw(st.floats(0.01, 3.0)), draw(st.floats(0.02, 0.9))
    sigma = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5]))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return tf, c0 * np.exp(-c1 * tf**c2 + sigma * u)


def fit_outcome(fit, tf, infid):
    """The fit's bytes, or the class of the error that refused it."""
    try:
        return np.array(fit(tf, infid)).tobytes()
    except (ValueError, RuntimeWarning) as exc:
        return type(exc).__name__


class TestFitAndBenchmark:
    # a decay whose first polish grid does not beat the scan: a polish that
    # started from the scan's point would centre its next grid elsewhere
    @example(decay=(np.array([6.751768118122668, 7.487951767594246, 17.155865192966036,
                              17.176775647542716]),
                    np.array([0.2073303229858914, 0.20506209217283605, 0.18680798486586472,
                              0.18678110073134216])))
    @settings(max_examples=300, deadline=None)
    @given(decay=noisy_decays())
    def test_fit_is_the_keep_lower_polish_bitwise(self, decay):
        assert fit_outcome(fit_infidelity_decay, *decay) == fit_outcome(keep_lower_decay_fit, *decay)

    def test_fit_recovers_exact_decay(self):
        tf = np.geomspace(0.1, 50.0, 12)
        c0, c1, c2 = 5.0, 2.0, 0.2
        infid = c0 * np.exp(-c1 * tf**c2)
        f0, f1, f2 = fit_infidelity_decay(tf, infid)
        assert f0 == pytest.approx(c0, rel=1e-6)
        assert f1 == pytest.approx(c1, rel=1e-6)
        assert f2 == pytest.approx(c2, rel=1e-6)

    @pytest.mark.parametrize("tf, infid", [
        (np.geomspace(0.1, 50.0, 12), 5.0 * np.exp(-2.0 * np.geomspace(0.1, 50.0, 12) ** 0.2)),
        (CLI_TF, 50.0 * np.exp(-3.0 * CLI_TF**0.3
                               + 0.1 * np.random.default_rng(0).standard_normal(13))),
        (CLI_TF, CLI_INFID),
    ], ids=["exact", "noisy", "cli_default"])
    def test_fit_residual_matches_least_squares_oracle(self, tf, infid):
        got = decay_residual(tf, infid, *fit_infidelity_decay(tf, infid))
        assert got <= least_squares_residual(tf, infid) + 1e-12

    @pytest.mark.parametrize("tf, infid", [
        (np.geomspace(0.1, 50.0, 12), 5.0 * np.exp(-2.0 * np.geomspace(0.1, 50.0, 12) ** 0.2)),
        (CLI_TF, 50.0 * np.exp(-3.0 * CLI_TF**0.3
                               + 0.1 * np.random.default_rng(0).standard_normal(13))),
        (CLI_TF, CLI_INFID),
    ], ids=["exact", "noisy", "cli_default"])
    def test_fit_matches_brent_oracle(self, tf, infid):
        # the grid polish lands within the oracle's 1e-8 of the same minimum
        want, _ = brent_decay_fit(tf, infid)
        assert fit_infidelity_decay(tf, infid) == pytest.approx(want, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(5, 12), tf0=st.floats(0.5, 2.0), span=st.floats(5.0, 15.0),
           c0=st.floats(0.1, 100.0), c1=st.floats(0.2, 3.0), c2=st.floats(0.05, 0.6),
           noise=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
    def test_fit_is_no_worse_than_brent_oracle(self, n, tf0, span, c0, c1, c2, noise, seed):
        tf = np.geomspace(tf0, tf0 * span, n)
        infid = c0 * np.exp(-c1 * tf**c2 + noise * np.random.default_rng(seed).standard_normal(n))
        try:
            want, scan = brent_decay_fit(tf, infid)
        except ValueError:  # no scanned exponent gives c1 > 0
            with pytest.raises(ValueError, match="^fit failure: no decreasing"):
                fit_infidelity_decay(tf, infid)
            return
        got = fit_infidelity_decay(tf, infid)
        assert got[1] > 0 and abs(got[2] - scan) <= 0.005 + 1e-15
        assert decay_residual(tf, infid, *got) <= decay_residual(tf, infid, *want) + 1e-12

    def test_one_debug_record_per_fit(self, caplog):
        with caplog.at_level(logging.INFO, logger="qperceptron"):
            fit_infidelity_decay(CLI_TF, CLI_INFID)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="qperceptron"):
            c0, c1, c2 = fit_infidelity_decay(CLI_TF, CLI_INFID)
        [record] = caplog.records
        m = re.fullmatch(r"decay fit: scan c2 (\S+), residual (\S+); "
                         r"polish c2 (\S+), residual (\S+); kept the (scan|polish)",
                         record.getMessage())
        scan, scan_ss, polish, polish_ss = map(float, m.groups()[:4])
        assert scan == brent_decay_fit(CLI_TF, CLI_INFID)[1]
        assert m[5] == ("polish" if polish_ss < scan_ss else "scan")
        assert c2 == (polish if m[5] == "polish" else scan) and abs(polish - scan) <= 0.005
        assert decay_residual(CLI_TF, CLI_INFID, c0, c1, c2) == pytest.approx(
            min(scan_ss, polish_ss), rel=1e-5)

    def test_polish_bracket_with_no_decreasing_fit_warns_nothing(self):
        # on this noisy curve only exponents up to about 0.021 give c1 > 0,
        # so the polish bracket [0.015, 0.025] around the scan's 0.02 holds
        # infinite residuals, and Brent's parabola through them is nan
        tf = np.array([2.18, 6.89, 19.1, 31.61, 32.2, 32.37, 38.42, 40.04, 46.07, 47.17, 49.36])
        infid = np.array([0.01413, 0.0033, 0.01874, 0.00444, 0.0064, 0.0004, 0.01109, 0.01268,
                          0.03379, 0.00255, 0.03137])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c0, c1, c2 = fit_infidelity_decay(tf, infid)
        assert c1 > 0 and 0.015 <= c2 <= 0.02
        assert decay_residual(tf, infid, c0, c1, c2) <= decay_residual(
            tf, infid, *fit_at_exponent(tf, infid, 0.02), 0.02)

    def test_fit_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_infidelity_decay([1.0, 2.0, 3.0, 4.0], [1e-13] * 4)
        with pytest.raises(ValueError):
            fit_infidelity_decay([1.0, 2.0, 3.0], [0.1, 0.05, 0.02])

    @pytest.mark.parametrize("tf, infid, name", [
        ([1.0, 2.0, 3.0, 4.0, 5.0], [0.1, 0.05, 0.02, 0.01], "tf_grid and infidelity"),
        ([[1.0, 2.0, 3.0, 4.0, 5.0]], [[0.1, 0.05, 0.02, 0.01, 0.005]], "tf_grid and infidelity"),
        ([1.0, 2.0, math.inf, 4.0, 5.0], [0.1, 0.05, 0.02, 0.01, 0.005], "tf_grid"),
        ([1.0, -2.0, 3.0, 4.0, 5.0], [0.1, 0.05, 0.02, 0.01, 0.005], "tf_grid"),
        ([0.0, 2.0, 3.0, 4.0, 5.0], [0.1, 0.05, 0.02, 0.01, 0.005], "tf_grid"),
        ([1.0, 2.0, 3.0, 4.0, 5.0], [0.1, math.nan, 0.02, 0.01, 0.005], "infidelity"),
    ], ids=["lengths", "not_1d", "inf_tf", "negative_tf", "zero_tf", "nan_infidelity"])
    def test_bad_input_is_refused_before_any_fit(self, tf, infid, name, capfd):
        # refused by name before numpy or LAPACK sees it: no warning, and
        # nothing printed to stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be "):
                fit_infidelity_decay(tf, infid)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("infid", [
        1e-3 * np.geomspace(1.0, 20.0, 6),  # growing with tf
        1e-3 * np.geomspace(1.0, 20.0, 6) ** 2,
    ], ids=["linear_growth", "quadratic_growth"])
    def test_fit_refuses_a_growing_infidelity(self, infid):
        # every scanned exponent fits a growing curve with c1 <= 0
        with pytest.raises(ValueError, match="^fit failure: no decreasing-exponential fit found$"):
            fit_infidelity_decay(np.geomspace(1.0, 20.0, 6), infid)

    @pytest.mark.parametrize("tf", [[3.0] * 5, [1.0, 3.0, 3.0, 3.0, 3.0]],
                             ids=["equal_tf", "equal_usable_tf"])
    def test_fit_refuses_one_tf(self, tf):
        # one tf cannot fix c1 and c2; lstsq returned a minimum-norm answer
        with pytest.raises(ValueError, match="^fit failure: all usable points share one tf$"):
            fit_infidelity_decay(tf, [1e-13, 0.05, 0.02, 0.01, 0.005])

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
        assert lines[0] == "x,p_excite,g_ideal"
        assert len(lines) == 4
        assert [float(v) for v in lines[2].split(",")] == [0.0, 0.5, 0.5]

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
            schedule_propagators(BadSlope(), [1.0])

    @pytest.mark.parametrize("missing, message", [
        ("domega", r"needs domega\(t\)"), ("samples", "needs samples"),
        ("omegaf", "needs omegaf"),
    ])
    def test_missing_attribute_is_named(self, missing, message):
        base = faquad_schedule(100.0, 1.0, 5.0, X_REF)
        attrs = {"tf": base.tf, "omega": base.omega, "domega": base.domega, "samples": None,
                 "omegaf": base.omegaf}
        del attrs[missing]
        drive = type("Drive", (), attrs)()
        with pytest.raises(ValueError, match=message):
            average_fidelity(drive, x_max=1.0, n_points=3)
        if missing != "omegaf":  # only the fidelity target reads omegaf
            with pytest.raises(ValueError, match=message):
                schedule_propagators(drive, [1.0])
