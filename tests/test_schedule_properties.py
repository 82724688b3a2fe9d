"""Property tests for the schedule type: inversion, unitarity, CSV round-trip."""
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
def tables(draw):
    """A random (t, Omega) table starting at t = 0."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(0.05, 2.0, **finite), min_size=n - 1, max_size=n - 1))
    omegas = draw(st.lists(st.floats(-20.0, 50.0, **finite), min_size=n, max_size=n))
    return tabulated_schedule(np.concatenate([[0.0], np.cumsum(steps)]), omegas)


@settings(max_examples=50, deadline=None)
@given(sched=ramps(), x=st.floats(-5.0, 5.0, **finite))
def test_reversed_negated_inverts_ramp(sched, x):
    mid = evolve_two_level(sched, x, TwoLevelState.plus())
    back = evolve_two_level(reversed_negated(sched), -x, mid)
    r = 1.0 / math.sqrt(2.0)
    assert abs(back.amp0 - r) < 1e-8
    assert abs(back.amp1 - r) < 1e-8


# Smooth ramps only: a table with a kink between grid edges can need ten
# or more halvings (the norm then drifts past 1e-12), and one that comes
# near zero overflows the step count.
@settings(max_examples=50, deadline=None)
@given(sched=st.one_of(ramps(), ramps().map(reversed_negated)),
       xs=st.lists(st.floats(-8.0, 8.0, **finite), min_size=1, max_size=4))
def test_propagators_are_unitary(sched, xs):
    U = schedule_propagators(sched, xs)
    UU = U @ np.conj(np.swapaxes(U, 1, 2))
    assert np.max(np.abs(UU - np.eye(2))) < 1e-12


@settings(max_examples=50, deadline=None)
@given(sched=st.one_of(ramps(), tables(), ramps().map(reversed_negated)),
       n=st.integers(2, 40))
def test_csv_round_trip_keeps_knots(sched, n):
    buf = io.StringIO()
    schedule_to_csv(sched, buf, n_samples=n)
    buf.seek(0)
    back = schedule_from_csv(buf)
    if sched.samples is not None:
        want_t, want_om = sched.samples
    else:
        want_t = np.linspace(0.0, sched.tf, n)
        want_om = sched.omega(want_t)
    assert back.kind == "tabulated"
    assert back.samples[0].tobytes() == np.asarray(want_t, dtype=float).tobytes()
    assert back.samples[1].tobytes() == np.asarray(want_om, dtype=float).tobytes()
