"""Time-dependent dynamics of the driven two-level perceptron.

Integrates i d(psi)/dt = -1/2 [Omega(t) sx + x sz] psi (hbar = 1, basis
(amp0, amp1), sz = diag(-1, +1)) by composing exact 2x2 step propagators.
Each step is the fourth-order Gauss-Legendre Magnus step (Blanes, Casas,
Oteo & Ros, Phys. Rep. 470 (2009)): the drive is sampled at the two nodes
t_mid -+ (sqrt(3)/6) dt, and the step exponent is

    w = (dt (Omega1 + Omega2) / 4,  sqrt(3) dt^2 x (Omega2 - Omega1) / 24,  dt x / 2),

whose sy component is the commutator of the two node Hamiltonians.  The
step propagator exp(i w.s) = cos|w| + i (sin|w| / |w|) w.s is an SU(2)
element stored as a real quaternion (a, bx, by, bz) representing
a + i (bx sx + by sy + bz sz); step products are quaternion products taken
in a fixed pairwise tree, which regroups but never reorders the time-ordered
product.  Inside the product the scalar part is held as e = a - 1, which
keeps full relative precision near the identity, where a itself rounds to
a spacing of 1e-16: a long product of small steps then does not drift off
the unit sphere.  Unitarity is exact up to roundoff, so the norm is
conserved to ~1e-12 even over 1e7 steps, and a vanishing field
(Omega = x = 0) gives the identity step.

Step-size policy: the base grid is built in one pass.  Its steps follow
the tightest of dt <= 2 / sqrt(Omega^2 + x_max^2), dt <= tf / 62.5 and a
relative-slope cap dt <= 0.032 |Omega / dOmega| (for the near-vertical
start of constant-adiabaticity ramps), and every interior knot of a
tabulated drive is a step edge, so that no step straddles a kink.  The
phase rule keeps each step inside the Magnus series' convergence region:
the series converges for ||H|| dt < pi, and ||H|| = E / 2 with
E = sqrt(Omega^2 + x^2), so dt E < 2 pi, and the rule dt E <= 2 rad sits at
a third of that radius.  Within it the rule sets no accuracy; the grid is
midpoint-halved until the requested quantity converges, and that loop, not
a re-check of the rules, is the accuracy guarantee.  It certifies an error
estimate, not a raw change: each halving cuts the error 16-fold, so once a
change is seen to be at least 12 times smaller than the one before, the
error left is about change / 15.  A column stops when its change is below
the tolerance tol, or below 7.5 tol after such a drop, which leaves about
tol / 2.  Convergence is per x column: a column that stops keeps its value,
and later halvings integrate only the columns still moving, on the one grid
sized for max |x|.
Single-state evolutions converge the final amplitudes to 1e-9; grid
sweeps (response curves, fidelity averages) converge every reported
probability to 1e-8.  The base edges are held in memory; a
halved grid's edges are generated per chunk of steps.  A non-finite x or
drive, or a drive whose base grid would exceed 2^24 steps (a drive
vanishing on [0, tf]), fails with ValueError before any allocation.

Evolutions for distinct x values are an independent vectorized map over one
shared time grid; reductions over the x grid (the fidelity trapezoid) are
fixed-order and bitwise reproducible.
"""
from __future__ import annotations

import functools
import json
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from ._io import write_rows
from .control import eigensystem, faquad_schedule, linear_schedule, optimal_design_field

__all__ = [
    "TwoLevelState",
    "FidelityReport",
    "evolve_two_level",
    "schedule_propagators",
    "perceptron_protocol",
    "response_curve",
    "average_fidelity",
    "benchmark_ramps",
    "fit_infidelity_decay",
    "response_to_csv",
    "report_to_csv",
    "fit_constants_json",
]

_MAX_HALVINGS = 16
# error-estimate stop of _converged_sweep: a change below _EARLY_FACTOR * tol
# after a drop of at least _EARLY_RATIO.  The factor is 7.5, not the full 15
# of a 16-fold halving, because 15 left errors up to 1.4e-9 from
# schedule_propagators at tol 1e-9 against DOP853
_EARLY_FACTOR = 7.5
_EARLY_RATIO = 12.0
# dt-rule constants of the base grid: phase per step, steps per ramp and
# relative drive change per step (see the module docstring)
_PHASE = 2.0
_MIN_STEPS = 62.5
_SLOPE = 0.032
# base steps a grid may need before construction gives up: the edges are
# held in memory, and 2^24 steps cost about 135 MiB and 6 s per x column
# (the criterion-4 linear ramp, the largest grid in the tests, needs 3.7e5)
_MAX_BASE_STEPS = 1 << 24
# probability tolerance of response curves and fidelity averages, and the
# drive endpoints, design field and field range of benchmark_ramps
_PTOL = 1e-8
_BENCH_OMEGA0 = 100.0
_BENCH_OMEGAF = 1.0
_BENCH_X_REF = optimal_design_field(_BENCH_OMEGAF)
_BENCH_X_MAX = 10.0


@dataclass(frozen=True)
class TwoLevelState:
    """Amplitudes on the resting state |0> and the active state |1>."""

    amp0: complex
    amp1: complex

    @staticmethod
    def ground() -> "TwoLevelState":
        return TwoLevelState(1.0 + 0j, 0.0 + 0j)

    @staticmethod
    def plus() -> "TwoLevelState":
        r = 1.0 / math.sqrt(2.0)
        return TwoLevelState(complex(r), complex(r))

    @property
    def p_excite(self) -> float:
        return abs(self.amp1) ** 2

    def norm(self) -> float:
        return math.sqrt(abs(self.amp0) ** 2 + abs(self.amp1) ** 2)


def _validate_schedule(schedule):
    tf = getattr(schedule, "tf", None)
    if tf is None or not (tf > 0) or not callable(getattr(schedule, "omega", None)):
        raise ValueError("invalid schedule: needs tf > 0 and omega(t)")
    if not callable(getattr(schedule, "domega", None)):
        raise ValueError("invalid schedule: needs domega(t), the slope of omega(t)")
    if not hasattr(schedule, "samples"):
        raise ValueError("invalid schedule: needs samples, its (t, Omega) knots or None")


def _grid_spec(schedule, x_absmax: float) -> np.ndarray:
    """Base step edges honoring the step-size policy, built in one pass.

    The step rate, the largest of the three dt-rule reciprocals, is
    integrated on a probe grid that holds every breakpoint (the interior
    knots of a ``samples`` table).  Each segment between breakpoints gets
    ceil(1.05 * its integral) + 1 base steps at equal quantiles of it and
    starts on its breakpoint; the last edge is tf.  No edge is re-checked.
    """
    tf = schedule.tf
    samples = schedule.samples
    knots = np.asarray(samples[0][1:-1] if samples is not None else [], dtype=float)
    # probe grid: uniform body plus geometric head to resolve steep starts
    probe = np.unique(np.concatenate([
        np.linspace(0.0, tf, 4097),
        tf * np.geomspace(1e-9, 1.0, 2049),
        [0.0],
        knots,
    ]))
    om = np.asarray(schedule.omega(probe), dtype=float)
    dom = np.asarray(schedule.domega(probe), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rules = {
            f"phase rule dt <= {_PHASE} / sqrt(Omega^2 + x^2)": np.hypot(om, x_absmax) / _PHASE,
            f"ramp rule dt <= tf / {_MIN_STEPS}": np.full(probe.shape, _MIN_STEPS / tf),
            f"slope rule dt <= {_SLOPE} |Omega / dOmega|":
                np.where(np.abs(om) > 0, np.abs(dom) / np.abs(om) / _SLOPE, 0.0),
        }
    rate = np.maximum.reduce(list(rules.values()))
    cum = np.concatenate([[0.0], np.cumsum(np.diff(probe) * (rate[1:] + rate[:-1]) / 2.0)])
    if not math.isfinite(cum[-1]):
        raise ValueError("drive omega(t) or its slope is not finite on [0, tf]")
    if cum[-1] > _MAX_BASE_STEPS:
        rule = max(rules, key=lambda k: np.trapezoid(rules[k], probe))
        raise ValueError(
            f"step grid needs about {cum[-1]:.3g} base steps, over the budget of "
            f"{_MAX_BASE_STEPS}; the {rule} dominates, peaking at "
            f"t = {probe[np.argmax(rules[rule])]:.6g}"
        )
    # a mirrored knot tf - t can round onto tf or onto its neighbour
    starts = np.unique(np.concatenate([[0.0], knots[knots < tf]]))
    at = np.searchsorted(probe, np.append(starts, tf))
    width = np.diff(cum[at])
    per_seg = np.ceil(width * 1.05).astype(np.int64) + 1
    first = np.cumsum(per_seg) - per_seg
    # quantile lo + k * step of edge k of each segment, built in place so
    # that at most one other edge-sized array exists at a time
    q = np.arange(per_seg.sum() + 1, dtype=float)
    q[:-1] -= np.repeat(first, per_seg)
    q[:-1] *= np.repeat(width / per_seg, per_seg)
    q[:-1] += np.repeat(cum[at[:-1]], per_seg)
    edges = np.interp(q, cum, probe)
    edges[first] = starts
    edges[-1] = tf
    return edges


def _level_edges(base: np.ndarray, level: int, lo: int, hi: int) -> np.ndarray:
    """Edges lo..hi (inclusive) of the grid that splits each base step into
    2**level equal steps; edge k * 2**level is base edge k, the last tf."""
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    j = idx >> level
    left = base[j]
    right = base[np.minimum(j + 1, base.size - 1)]
    return left + (right - left) * ((idx - (j << level)) * 0.5 ** level)


def _qmul(e1, x1, y1, z1, e2, x2, y2, z2):
    # (a1 + i b1.s)(a2 + i b2.s) = a1 a2 - b1.b2 + i (a1 b2 + a2 b1 - b1 x b2).s
    # with each scalar part held as e = a - 1 (see the module docstring)
    a1 = 1.0 + e1
    a2 = 1.0 + e2
    e = e1 + e2 + (e1 * e2 - x1 * x2 - y1 * y2 - z1 * z2)
    x = a1 * x2 + a2 * x1 - (y1 * z2 - z1 * y2)
    y = a1 * y2 + a2 * y1 - (z1 * x2 - x1 * z2)
    z = a1 * z2 + a2 * z1 - (x1 * y2 - y1 * x2)
    return e, x, y, z

_CHUNK = 1 << 14
_BLOCK = 1 << 20  # rows x columns of one block of step temporaries
_GAUSS = math.sqrt(3.0) / 6.0  # Gauss-Legendre nodes at t_mid -+ _GAUSS * dt
_COMM = math.sqrt(3.0) / 24.0  # sy coefficient of the node commutator
_TINY = np.finfo(float).tiny
_log = logging.getLogger("qperceptron")


@functools.lru_cache(maxsize=None)
def _bit_reversal(bits: int) -> np.ndarray:
    """Row order for the pairwise product tree over 2**bits steps.

    Row p holds step r[p], where r[p] is p with its `bits` bits reversed.
    Then every adjacent pair of steps (2j, 2j+1) sits in rows (p, p + half)
    and its product lands in row p, again in bit-reversed order, so each
    tree level multiplies two contiguous halves.  The pairs, and the order
    of each product, are those of the time-ordered tree.
    """
    r = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        r = np.concatenate([2 * r, 2 * r + 1])
    r.flags.writeable = False
    return r


def _propagate(schedule, xs: np.ndarray, base: np.ndarray, level: int):
    """Total propagator quaternion over the level-`level` grid for each x.

    Steps go in chunks of ``_CHUNK`` rows, whose edges are generated from
    the base edges ``base``; within a chunk the x columns go in blocks of
    at most ``_BLOCK`` rows x columns, so the temporaries stay bounded
    however many columns a sweep has.  Each column's arithmetic does not
    depend on the blocking.
    """
    n = (base.size - 1) << level
    cols = xs.shape[0]
    E = np.zeros(cols)
    BX = np.zeros(cols)
    BY = np.zeros(cols)
    BZ = np.zeros(cols)
    for start in range(0, n, _CHUNK):
        ts = _level_edges(base, level, start, min(start + _CHUNK, n))
        dts = np.diff(ts)
        tmid = (ts[1:] + ts[:-1]) / 2.0
        nodes = np.concatenate([tmid - _GAUSS * dts, tmid + _GAUSS * dts])
        om = np.broadcast_to(np.asarray(schedule.omega(nodes), dtype=float), nodes.shape)
        # pad to a power of two with identity steps, in bit-reversed row order
        m = tmid.size
        order = _bit_reversal((m - 1).bit_length())
        idle = order >= m
        rows = np.where(idle, 0, order)
        om1 = om[:m][rows][:, None]
        om2 = om[m:][rows][:, None]
        dt = dts[rows][:, None]
        # Magnus-4 exponent w = (wx, cy x, cz x): the commutator of the two
        # node Hamiltonians only adds the sy part
        wx = (dt / 4.0) * (om1 + om2)
        cy = _COMM * dt * dt * (om2 - om1)
        cz = dt / 2.0
        wq = 0.25 * (wx * wx)
        cq = 0.25 * (cy * cy + cz * cz)
        width = max(1, _BLOCK // rows.size)
        for c in range(0, cols, width):
            blk = slice(c, c + width)
            x = xs[None, blk]
            # step exp(i w.s) = 1 + e + i b.s with e = cos|w| - 1, held as
            # -2 sin^2(|w| / 2), and b = w sin|w| / |w| (b = 0 at w = 0)
            half = np.sqrt(wq + cq * (x * x))
            sn = np.sin(half)
            e = -2.0 * sn * sn
            s = sn / np.maximum(half, _TINY)
            s *= np.cos(half)
            bx = s * wx
            s *= x
            by = s * cy
            bz = s * cz
            if rows.size > m:
                e[idle] = 0.0
                bx[idle] = 0.0
                by[idle] = 0.0
                bz[idle] = 0.0
            while e.shape[0] > 1:
                # later step on the left: rows (p, p + h) hold steps (2j, 2j+1)
                h = e.shape[0] // 2
                e, bx, by, bz = _qmul(
                    e[h:], bx[h:], by[h:], bz[h:],
                    e[:h], bx[:h], by[:h], bz[:h],
                )
            E[blk], BX[blk], BY[blk], BZ[blk] = _qmul(
                e[0], bx[0], by[0], bz[0], E[blk], BX[blk], BY[blk], BZ[blk])
    return 1.0 + E, BX, BY, BZ


def _unitaries(q) -> np.ndarray:
    """(n, 2, 2) matrices of U = a + i(bx sx + by sy + bz sz) with
    sz = diag(-1, +1), sy = [[0, i], [-i, 0]] in the (|0>, |1>) ordering,
    so that (sx, sy, sz) is right-handed: sx sy = i sz."""
    a, bx, by, bz = q
    U = np.empty((a.size, 2, 2), dtype=complex)
    U[:, 0, 0] = a - 1j * bz
    U[:, 0, 1] = 1j * bx - by
    U[:, 1, 0] = 1j * bx + by
    U[:, 1, 1] = a + 1j * bz
    return U


def _apply(q, psi0: TwoLevelState) -> np.ndarray:
    """(n, 2) amplitude pairs U psi0."""
    U = _unitaries(q)
    return U[:, :, 0] * complex(psi0.amp0) + U[:, :, 1] * complex(psi0.amp1)


def _converged_sweep(schedule, xs, reduce_fn, tol):
    """Halve the grid until every x column of reduce_fn's output is within
    tol of its limit by the loop's own error estimate.

    reduce_fn maps the total quaternion, a (4, len(xs)) array of rows
    (a, bx, by, bz), to a float array with x on axis 0.  A column's change is
    the max-abs change of its entries between consecutive halvings.  It stops
    when its change is below tol, or when its change is below
    _EARLY_FACTOR * tol and its change at the halving before was at least
    _EARLY_RATIO times larger: each halving of a Magnus-4 grid cuts the error
    16-fold, so once that ratio is seen the error left is about change / 15,
    under tol / 2.  The second rule cannot fire at the first halving, which
    has no ratio, and tol = 0 never converges.  A stopped column keeps its
    quaternion, and later halvings integrate only the columns still moving.
    All columns share one grid sized for max |x|, whose base edges are built
    once and held in memory; each level's edges are generated from them per
    chunk.  Returns the quaternion and its reduction.  A non-finite x, or
    reduction (named by its level), fails at once; failing to converge
    reports, per halving, the largest change and how many columns were still
    moving.  A converged sweep logs one DEBUG record on the "qperceptron"
    logger: the base steps; per level the columns integrated, the largest
    change, how many columns stopped on the error estimate alone and the
    wall time; and the total column-steps.
    """
    if not np.all(np.isfinite(xs)):
        raise ValueError("x values must be finite")
    base = _grid_spec(schedule, float(np.max(np.abs(xs))) if xs.size else 0.0)
    q = np.empty((4, xs.size))
    live = np.arange(xs.size)
    # each live column's change at the halving before; 0 before the first,
    # so that the error-estimate stop cannot fire there
    last = np.zeros(xs.size)
    history = []
    record = [] if _log.isEnabledFor(logging.DEBUG) else None
    column_steps = 0
    for level in range(_MAX_HALVINGS + 1):
        t0 = time.perf_counter()
        cols = live.size
        q[:, live] = _propagate(schedule, xs[live], base, level)
        nxt = reduce_fn(q)
        if not np.all(np.isfinite(nxt)):
            raise ValueError(f"integration gave a non-finite result at halving level {level}")
        if level:
            change = np.abs(nxt[live] - cur[live]).reshape(live.size, -1).max(axis=1)
            moving = (change >= tol) & (
                (change >= _EARLY_FACTOR * tol) | (last < _EARLY_RATIO * change))
            live, last = live[moving], change[moving]
            history.append(f"{change.max():.3g} ({live.size} of {xs.size} columns)")
        if record is not None:
            line = f"level {level}: {cols} columns"
            if level:
                early = np.count_nonzero(~moving & (change >= tol))
                line += f", max change {change.max():.3g}, {early} stopped on the estimate"
            record.append(f"{line}, {time.perf_counter() - t0:.3g} s")
            column_steps += ((base.size - 1) << level) * cols
        if not live.size:
            if record is not None:
                _log.debug("sweep: %d base steps; %s; %d column-steps",
                           base.size - 1, "; ".join(record), column_steps)
            return q, nxt
        cur = nxt
    raise RuntimeError(
        f"integration did not converge to {tol} in {_MAX_HALVINGS} halvings; "
        f"max change per halving: {', '.join(history)}"
    )


def schedule_propagators(schedule, x_values, tol: float = 1e-9) -> np.ndarray:
    """Full 2x2 propagators of the ramp for each longitudinal field.

    Returns an (n, 2, 2) complex array of unitaries U(x) on one time grid
    sized for max |x|.  The grid is halved until every matrix entry is
    within ``tol`` by the error estimate: a change below ``tol``, or one
    below 7.5 ``tol`` after a 12-fold drop, whose error is about change / 15
    (see the module docstring).  Each U(x) stops at the first halving where
    its own entries do, so small fields cost fewer steps than large ones.
    This is the sector workhorse for register gates, where each source
    configuration pins its own x.
    """
    _validate_schedule(schedule)
    xs = np.asarray(x_values, dtype=float)
    if xs.size == 0:
        return np.empty((0, 2, 2), dtype=complex)
    q, _ = _converged_sweep(schedule, xs, lambda q: np.stack(q, axis=1), tol)
    return _unitaries(q)


def evolve_two_level(schedule, x: float, psi0: TwoLevelState, tol: float = 1e-9) -> TwoLevelState:
    """Integrate the driven qubit from t = 0 to tf.

    The step grid is halved until the final amplitudes are within ``tol``
    (default 1e-9) by the error estimate of the module docstring: a change
    below ``tol``, or one below 7.5 ``tol`` after a 12-fold drop, whose error
    is about change / 15.  Norm is conserved to ~1e-13.
    """
    _validate_schedule(schedule)
    if abs(psi0.norm() - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    xs = np.array([float(x)])
    q, _ = _converged_sweep(schedule, xs, lambda q: _apply(q, psi0).view(float), tol)
    fin = _apply(q, psi0)
    return TwoLevelState(complex(fin[0, 0]), complex(fin[0, 1]))


def perceptron_protocol(schedule, x: float) -> TwoLevelState:
    """Full gate protocol: Hadamard from |0> to |+>, then the driven ramp.

    The final state approximates the instantaneous ground state at
    (omegaf, x), whose excitation probability is the algebraic sigmoid.
    """
    return evolve_two_level(schedule, x, TwoLevelState.plus())


def response_curve(schedule, x_grid):
    """Excitation probability of the protocol across a field grid.

    Returns a list of (x, P_excite) pairs.  All x values share one time
    grid sized for max |x|, which is halved until every probability is
    within 1e-8 by the error estimate of the module docstring (a change
    below 1e-8, or one below 7.5e-8 after a 12-fold drop, whose error is
    about change / 15); each x stops halving as soon as its own probability
    does.
    """
    _validate_schedule(schedule)
    xs = np.asarray(x_grid, dtype=float)
    if xs.size == 0:
        return []
    plus = TwoLevelState.plus()
    _, P = _converged_sweep(schedule, xs, lambda q: np.abs(_apply(q, plus)[:, 1]) ** 2, _PTOL)
    return list(zip(xs.tolist(), P.tolist()))


def _ground_amplitudes(omegaf: float, xs: np.ndarray):
    """Target ground-state amplitude pairs (amp0, amp1) at the final field."""
    g0 = np.empty(xs.size)
    g1 = np.empty(xs.size)
    for i, x in enumerate(xs):
        es = eigensystem(omegaf, float(x))
        g1[i], g0[i] = es.phi0  # phi0 is ordered {|1>, |0>}
    return g0, g1


def average_fidelity(schedule, x_max: float = 10.0, n_points: int = 201) -> float:
    """Mean squared overlap with the target ground state over the field range.

    F = (1 / 2 x_max) * integral of |<target(x) | psi(tf, x)>|^2 dx,
    trapezoid on a uniform n-point grid, so F is in [0, 1].  The target at
    each x is the ground state at the schedule's design omegaf.  Each
    overlap converges to 1e-8, as in response_curve.
    """
    _validate_schedule(schedule)
    if not (0 < x_max < math.inf) or n_points < 2:
        raise ValueError("need finite x_max > 0 and n_points >= 2")
    xs = np.linspace(-x_max, x_max, n_points)
    g0, g1 = _ground_amplitudes(schedule.omegaf, xs)

    plus = TwoLevelState.plus()

    def overlaps(q):
        fin = _apply(q, plus)
        return np.abs(g0 * fin[:, 0] + g1 * fin[:, 1]) ** 2

    _, ov = _converged_sweep(schedule, xs, overlaps, _PTOL)
    # fixed-order trapezoid; uniform grid
    dx = xs[1] - xs[0]
    integral = (float(np.sum(ov)) - 0.5 * (ov[0] + ov[-1])) * dx
    return float(integral / (2.0 * x_max))


@dataclass(frozen=True)
class FidelityReport:
    """Benchmark curves for the two ramp families plus the decay fit."""

    tf_grid: np.ndarray
    infidelity_linear: np.ndarray
    infidelity_faquad: np.ndarray
    fit_c0: float
    fit_c1: float
    fit_c2: float


def fit_infidelity_decay(tf_grid, infidelity):
    """Least-squares fit of log infidelity to log(c0) - c1 * tf^c2.

    Points at or below the 1e-12 numerical floor are excluded; fewer than
    4 usable points is a fit failure (ValueError).  A scan over c2 gives the
    start of a curve_fit polish; if that does not converge, the scan optimum
    is kept.  Returns (c0, c1, c2).
    """
    tf = np.asarray(tf_grid, dtype=float)
    infid = np.asarray(infidelity, dtype=float)
    use = infid > 1e-12
    if int(np.sum(use)) < 4:
        raise ValueError("fit failure: fewer than 4 usable infidelity points")
    lt = np.log(tf[use])
    li = np.log(infid[use])

    def scan_best():
        best = None
        for c2 in np.linspace(0.02, 0.8, 157):
            A = np.stack([np.ones_like(lt), -np.exp(c2 * lt)], axis=1)
            coef, *_ = np.linalg.lstsq(A, li, rcond=None)
            if coef[1] <= 0:
                continue
            r = li - A @ coef
            ss = float(r @ r)
            if best is None or ss < best[0]:
                best = (ss, coef[0], coef[1], c2)
        if best is None:
            raise ValueError("fit failure: no decreasing-exponential fit found")
        return best

    _, lc0, c1, c2 = scan_best()
    try:
        popt, _ = curve_fit(
            lambda t, a, b, c: a - b * t**c,
            np.exp(lt), li, p0=[lc0, c1, c2], maxfev=20000,
        )
        if popt[1] > 0 and popt[2] > 0:
            lc0, c1, c2 = popt
    except RuntimeError:
        pass  # curve_fit did not converge: keep the scan optimum
    return float(np.exp(lc0)), float(c1), float(c2)


def benchmark_ramps(tf_grid, n_points: int = 201) -> FidelityReport:
    """Average infidelity of linear vs faquad ramps across durations.

    Builds both schedules at each tf, from omega0 = 100 down to omegaf = 1,
    the faquad one at the optimal design field; evaluates 1 -
    average_fidelity on n_points over |x| <= 10, and fits the faquad
    curve's stretched-exponential decay.  tf_grid must be strictly
    increasing.
    """
    tf = np.asarray(tf_grid, dtype=float)
    if tf.size == 0 or np.any(np.diff(tf) <= 0) or np.any(tf <= 0):
        raise ValueError("tf_grid must be nonempty, positive, strictly increasing")
    inf_lin = np.empty(tf.size)
    inf_faq = np.empty(tf.size)
    for i, t in enumerate(tf):
        linear = linear_schedule(_BENCH_OMEGA0, _BENCH_OMEGAF, t)
        faquad = faquad_schedule(_BENCH_OMEGA0, _BENCH_OMEGAF, t, _BENCH_X_REF)
        inf_lin[i] = 1.0 - average_fidelity(linear, _BENCH_X_MAX, n_points)
        inf_faq[i] = 1.0 - average_fidelity(faquad, _BENCH_X_MAX, n_points)
    c0, c1, c2 = fit_infidelity_decay(tf, inf_faq)
    return FidelityReport(tf, inf_lin, inf_faq, c0, c1, c2)


def response_to_csv(pairs, path_or_buf) -> None:
    """Write a response curve as CSV with header ``x,p_excite``.

    Write-only: the package has no public reader for it.
    """
    write_rows(path_or_buf, "x,p_excite", pairs)


def report_to_csv(report: FidelityReport, path_or_buf) -> None:
    """Write a benchmark report as CSV, header ``tf,infid_linear,infid_faquad``.

    Write-only: the package has no public reader for it.
    """
    rows = zip(report.tf_grid, report.infidelity_linear, report.infidelity_faquad)
    write_rows(path_or_buf, "tf,infid_linear,infid_faquad", rows)


def fit_constants_json(report: FidelityReport) -> str:
    """The report's decay-fit constants as a JSON object {c0, c1, c2}.

    Write-only: the package has no public reader for it.
    """
    return json.dumps(
        {"c0": report.fit_c0, "c1": report.fit_c1, "c2": report.fit_c2}
    )
