"""Property tests for the schedule type: inversion, unitarity, CSV round-trip."""
import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qperceptron import dynamics
from qperceptron.control import (
    faquad_schedule,
    linear_schedule,
    perturbed_schedule,
    reversed_negated,
    schedule_from_csv,
    schedule_to_csv,
    tabulated_schedule,
)
from qperceptron.dynamics import TwoLevelState, evolve_two_level, schedule_propagators

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def ramps(draw):
    """A random linear, faquad or perturbed-faquad ramp."""
    kind = draw(st.sampled_from(["linear", "faquad", "perturbed"]))
    omega0 = draw(st.floats(5.0, 100.0, **finite))
    omegaf = draw(st.floats(0.5, 2.0, **finite))
    tf = draw(st.floats(1.0, 10.0, **finite))
    if kind == "linear":
        return linear_schedule(omega0, omegaf, tf)
    faq = faquad_schedule(omega0, omegaf, tf, draw(st.floats(0.3, 3.0, **finite)))
    if kind == "faquad":
        return faq
    return perturbed_schedule(faq, draw(st.floats(0.0, 0.5, **finite)))


@st.composite
def tables(draw, omega_min=-20.0):
    """A random (t, Omega) table starting at t = 0, Omega in [omega_min, 50]."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(0.05, 2.0, **finite), min_size=n - 1, max_size=n - 1))
    omegas = draw(st.lists(st.floats(omega_min, 50.0, **finite), min_size=n, max_size=n))
    return tabulated_schedule(np.concatenate([[0.0], np.cumsum(steps)]), omegas)


@st.composite
def near_coincident_tables(draw):
    """A table with knots a few ulps apart, which can mirror onto one time.

    A knot is inserted m ulps of max(t_i, tf/4) after knot i, so that tf - t
    can round onto the mirror of its neighbour, and for i = 0 onto tf itself.
    """
    ts, omegas = draw(tables()).samples
    i = draw(st.integers(0, ts.size - 2))
    t_new = ts[i] + draw(st.integers(1, 8)) * np.spacing(max(ts[i], ts[-1] / 4))
    om_new = draw(st.floats(-20.0, 50.0, **finite))
    return tabulated_schedule(np.insert(ts, i + 1, t_new), np.insert(omegas, i + 1, om_new))


@settings(max_examples=50, deadline=None)
@given(sched=ramps(), x=st.floats(-5.0, 5.0, **finite))
def test_reversed_negated_inverts_ramp(sched, x):
    mid = evolve_two_level(sched, x, TwoLevelState.plus())
    back = evolve_two_level(reversed_negated(sched), -x, mid)
    r = 1.0 / math.sqrt(2.0)
    assert abs(back.amp0 - r) < 1e-8
    assert abs(back.amp1 - r) < 1e-8


# Kinked tables are drawn too: their knots are step edges.  Tables that
# cross zero stay out, because the slope rule near a zero of Omega can
# exceed the step budget.
@settings(max_examples=50, deadline=None)
@given(sched=st.one_of(ramps(), ramps().map(reversed_negated),
                       tables(0.5), tables(0.5).map(reversed_negated)),
       xs=st.lists(st.floats(-8.0, 8.0, **finite), min_size=1, max_size=4))
def test_propagators_are_unitary(sched, xs):
    U = schedule_propagators(sched, xs)
    UU = U @ np.conj(np.swapaxes(U, 1, 2))
    assert np.max(np.abs(UU - np.eye(2))) < 1e-12


@settings(max_examples=50, deadline=None)
@given(sched=st.one_of(ramps(), tables(), ramps().map(reversed_negated),
                       tables().map(reversed_negated), near_coincident_tables(),
                       near_coincident_tables().map(reversed_negated)))
# 0.1 and 0.1 + 1.4e-17 both mirror onto 0.9
@example(sched=reversed_negated(tabulated_schedule([0, 0.1, 0.1 + 1.4e-17, 1], [1, 2, 2, 1])))
def test_csv_round_trip_keeps_knots(sched):
    buf = io.StringIO()
    schedule_to_csv(sched, buf)
    buf.seek(0)
    back = schedule_from_csv(buf)
    if sched.samples is not None:
        want_t, want_om = sched.samples
    else:
        want_t = np.linspace(0.0, sched.tf, 1001)
        want_om = sched.omega(want_t)
    assert back.kind == "tabulated"
    assert back.samples[0].tobytes() == np.asarray(want_t, dtype=float).tobytes()
    assert back.samples[1].tobytes() == np.asarray(want_om, dtype=float).tobytes()


@settings(max_examples=50, deadline=None)
@given(sched=st.one_of(ramps(), ramps().map(reversed_negated),
                       tables(0.5), tables(0.5).map(reversed_negated)),
       x_max=st.floats(0.0, 10.0, **finite))
def test_step_grid_edges_nest(sched, x_max):
    base = dynamics._grid_spec(sched, x_max)
    assert base[0] == 0.0 and base[-1] == sched.tf
    assert np.all(np.diff(base) >= 0.0)
    if sched.samples is not None:
        assert np.all(np.isin(sched.samples[0][1:-1], base))
    # the halving loop relies on every level-(L-1) edge being a level-L edge
    n = base.size - 1
    coarse = dynamics._level_edges(base, 0, 0, n)
    assert coarse.tobytes() == base.tobytes()
    for level in (1, 2, 3):
        fine = dynamics._level_edges(base, level, 0, n << level)
        assert fine[::2].tobytes() == coarse.tobytes()
        coarse = fine
