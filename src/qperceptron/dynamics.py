"""Time-dependent dynamics of the driven two-level perceptron.

Integrates i d(psi)/dt = -1/2 [Omega(t) sx + x sz] psi (hbar = 1, basis
(amp0, amp1), sz = diag(-1, +1)) by composing exact 2x2 step propagators.
Each step is the sixth-order Gauss-Legendre Magnus step (Blanes, Casas &
Ros, BIT 40 (2000) 434): the drive is sampled three times per step, at
t_mid + (-sqrt(15)/10, 0, +sqrt(15)/10) dt.  With a_i = dt (Omega_i / 2, 0,
x / 2) at node i and [u, v] = -2 u x v, the step exponent is

    alpha1 = a2,  alpha2 = (sqrt(15)/3) (a3 - a1),  alpha3 = (10/3) (a3 - 2 a2 + a1),
    C1 = [alpha1, alpha2],  C2 = -[alpha1, 2 alpha3 + C1] / 60,
    w = alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.

Since only the sx part of a_i varies, w is a polynomial in x with
per-step coefficients, w = (A0 + A2 x^2, x (B1 + B3 x^2), x (D1 + D3 x^2)),
and |w|^2 / 4 is a cubic in x^2 evaluated by Horner's rule; the sy part
comes from the commutators alone.  The step propagator
exp(i w.s) = cos|w| + i (sin|w| / |w|) w.s is an SU(2) element stored as a
real quaternion (a, bx, by, bz) representing a + i (bx sx + by sy + bz sz);
step products are quaternion products taken in a fixed pairwise tree,
which regroups but never reorders the time-ordered product.  The tree runs
over a chunk's real steps only: each level multiplies time-adjacent pairs
and carries an unpaired last node up unchanged, so no identity step is
built or multiplied.  Inside the product the scalar part is held as
e = a - 1, which keeps full relative precision near the identity, where a
itself rounds to a spacing of 1e-16: a long product of small steps then
does not drift off the unit sphere.
Unitarity is exact up to roundoff, so the norm is conserved to ~1e-12 even
over 1e7 steps, and a vanishing field (Omega = x = 0) gives the identity
step.

Step-size policy: the base grid is built in one pass.  Its steps follow
the tightest of dt <= 3 / sqrt(Omega^2 + x_max^2), dt <= tf / 45 and a
relative-slope cap dt <= 0.05 |Omega / dOmega| (for the near-vertical
start of constant-adiabaticity ramps), and every interior knot of a
tabulated drive is a step edge, so that no step straddles a kink.  The
phase rule keeps each step inside the Magnus series' convergence region:
the series converges for ||H|| dt < pi, and ||H|| = E / 2 with
E = sqrt(Omega^2 + x^2), so dt E < 2 pi, and the rule dt E <= 3 rad stays
under half of that radius.  The three constants are sized for the
sixth-order step: the fourth-order step's dt E <= 2, tf / 62.5 and 0.032
took 1.31x the column-steps of a CLI response and benchmark pass, for
results within 1e-9.  Within the rules no accuracy is set; the grid is
midpoint-halved until the requested quantity converges, and that loop, not
a re-check of the rules, is the accuracy guarantee.

Stop rule (the entry points refer here): the loop certifies an error
estimate, not a raw change.  Each halving cuts the error 64-fold, so once a
change is seen to be at least 12 times smaller than the one before, the
error left is about change / 63.  A column stops when its change is below
the tolerance tol, or below 7.5 tol after such a drop, which leaves about
tol / 8.  Convergence is per x column: a column that stops keeps its value,
and later halvings integrate only the columns still moving, on the one grid
sized for max |x|.  No column can stop before the first halving, so
levels 0 and 1 are integrated in one pass: their steps share the node
drives, coefficients and exponents, and level 1's products, reduced to one
per base step, join level 0's as more columns of one product tree.
The propagators converge each entry of U to tol (default 1e-9); grid
sweeps (response curves, fidelity averages) converge every reported
probability to 1e-8.  The base edges are held in memory; a
halved grid's edges are generated per chunk of base steps, 2^14 >> L for
the finest level L of the pass (at least one).  A non-finite x or
drive, or a drive whose base grid would exceed 2^24 steps (a drive
vanishing on [0, tf]), fails with ValueError before any allocation.

Evolutions for distinct x values are an independent vectorized map over one
shared time grid; reductions over the x grid (the fidelity trapezoid) are
fixed-order and bitwise reproducible.  Mirror rule: H(-x) = sx H(x) sx, so
U(-x) is U(|x|) with (by, bz) negated, and a sweep integrates each distinct
|x| once.  This is exact in floating point: x enters a step only through x^2
and one product, and IEEE rounding is sign-symmetric (up to zeros' signs).
"""
from __future__ import annotations

import functools
import json
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from ._io import as_index, require_finite, write_rows
from .activation import ALGEBRAIC, eval_f
from .control import eigensystem, faquad_schedule, linear_schedule, optimal_design_field

__all__ = [
    "FidelityReport",
    "schedule_propagators",
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
# after a drop of at least _EARLY_RATIO.  Sized for a 16-fold halving, they
# are kept for the 64-fold one: factors up to 63 after a drop of 48 kept
# every error under tol against DOP853, but changed no measured column-step
# count, so the stricter pair stays
_EARLY_FACTOR = 7.5
_EARLY_RATIO = 12.0
# dt-rule constants of the base grid: phase per step, steps per ramp and
# relative drive change per step (see the module docstring)
_PHASE = 3.0
_MIN_STEPS = 45.0
_SLOPE = 0.05
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


class _StepBudgetError(ValueError):
    """A base step grid would need more than _MAX_BASE_STEPS steps."""


def _validate_schedule(schedule):
    tf = getattr(schedule, "tf", None)
    if tf is None or not (tf > 0) or not callable(getattr(schedule, "omega", None)):
        raise ValueError("invalid schedule: needs tf > 0 and omega(t)")
    if not callable(getattr(schedule, "domega", None)):
        raise ValueError("invalid schedule: needs domega(t), the slope of omega(t)")
    if not hasattr(schedule, "samples"):
        raise ValueError("invalid schedule: needs samples, its (t, Omega) knots or None")


# knot-free probe grid of _grid_spec on [0, 1], read-only: a uniform body plus
# a geometric head that resolves steep starts.  The body's spacing is 1/1024,
# a power of two, so tf * _PROBE is bitwise the probe built on [0, tf]
_PROBE = np.unique(np.concatenate(
    [np.linspace(0.0, 1.0, 1025), np.geomspace(1e-9, 1.0, 513), [0.0]]))
_PROBE.flags.writeable = False


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
    probe = tf * _PROBE
    if knots.size:
        probe = np.union1d(probe, knots)
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
    if not np.all(np.isfinite(rate)):
        raise ValueError("drive omega(t) or its slope is not finite on [0, tf]")
    # a finite rate whose integral overflows is a grid over the budget
    with np.errstate(over="ignore"):
        cum = np.concatenate([[0.0], np.cumsum(np.diff(probe) * (rate[1:] + rate[:-1]) / 2.0)])
        if cum[-1] > _MAX_BASE_STEPS:
            rule = max(rules, key=lambda k: np.trapezoid(rules[k], probe))
            need = f"about {cum[-1]:.3g}" if cum[-1] < math.inf else "more than 1.8e+308"
            raise _StepBudgetError(
                f"step grid needs {need} base steps, over the budget of "
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
    # with each scalar part held as e = a - 1 (see the module docstring):
    # e = (e1 + e2) + (e1 e2 - b1.b2), x = (a1 x2 + a2 x1) - (y1 z2 - z1 y2)
    # and cyclically, each sum taken in place in that order
    a1 = 1.0 + e1
    a2 = 1.0 + e2
    e = e1 * e2
    e -= x1 * x2
    e -= y1 * y2
    e -= z1 * z2
    e += e1 + e2
    out = [e]
    for u1, v1, w1, u2, v2, w2 in ((x1, y1, z1, x2, y2, z2), (y1, z1, x1, y2, z2, x2),
                                   (z1, x1, y1, z2, x2, y2)):
        u = a1 * u2
        u += a2 * u1
        cross = v1 * w2
        cross -= w1 * v2
        u -= cross
        out.append(u)
    return out

_CHUNK = 1 << 14
_BLOCK = 1 << 20  # rows x columns of one block of step temporaries
_NODE = math.sqrt(15.0) / 10.0  # Gauss-Legendre nodes at t_mid + (-_NODE, 0, _NODE) dt
_Q = math.sqrt(15.0) / 3.0  # weights of the node drives' first and second differences
_R = 10.0 / 3.0
_TINY = np.finfo(float).tiny
_log = logging.getLogger("qperceptron")


@functools.lru_cache(maxsize=64)  # bounded: each distinct chunk size adds an order
def _tree_order(m: int) -> np.ndarray:
    """Row order for the pairwise product tree over m steps.

    At every tree level the rows hold the earlier members of the pairs of
    time-adjacent nodes (2j, 2j+1), then the later members in the same
    order, then the unpaired last node if the level has an odd count.  So
    each level multiplies two contiguous halves, the products land in the
    order the next level needs, and the carried node is last again.  The
    pairs, and the order of each product, are those of the time-ordered
    tree; for m a power of two the order is the bit reversal.
    """
    h = m // 2
    r = np.full(m, m - 1, dtype=np.int64)
    if h:
        up = _tree_order(m - h)[:h]
        r[:h] = 2 * up
        r[h : 2 * h] = 2 * up + 1
    r.flags.writeable = False
    return r


def _tree(q, rows: int):
    """Multiply a stack of quaternion rows in `_tree_order` up the product
    tree until `rows` rows are left; the later node is on the left of each
    product, and an unpaired last row is carried up, last again."""
    while q[0].shape[0] > rows:
        h = q[0].shape[0] // 2
        later = slice(h, 2 * h)
        prod = _qmul(*(t[later] for t in q), *(t[:h] for t in q))
        if q[0].shape[0] % 2:
            prod = [np.concatenate([p, t[-1:]]) for p, t in zip(prod, q)]
        q = prod
    return q


def _propagate(schedule, xs: np.ndarray, base: np.ndarray, levels):
    """Total propagator quaternions over the grids of the halving `levels`.

    `levels` is one level ``(L,)`` or two successive ones; a sweep's first
    call takes ``(0, 1)``, since the stop rule cannot fire before the first
    halving.  Returns a (4, len(levels), len(xs)) array of rows
    (a, bx, by, bz).  Steps go in chunks of ``_CHUNK >> levels[-1]`` base
    steps (at least one), whose edges at each level are generated from the
    base edges ``base``.  In a chunk of k base steps, each level's steps
    are gathered in the order of its product tree, and all of them share
    one pass of node drives, coefficients and exponents.  A finer level's
    first tree levels reduce its rows to k << levels[0] products in the
    order of the coarsest level's rows, so the levels then sit side by side
    as columns of one tree with one accumulate.  Within a chunk the x
    columns go in blocks of at most ``_BLOCK`` rows x columns, so the
    temporaries stay bounded however many columns a sweep has.  A column's
    arithmetic does not depend on the blocking, nor a level's on the other
    levels of the call, except through the chunk size: level 0 of a
    ``(0, 1)`` call equals a ``(0,)`` call on grids of one chunk, and
    level 1 equals a ``(1,)`` call on every grid.
    """
    n = base.size - 1
    cols = xs.shape[0]
    out = np.zeros((4, len(levels), cols))
    E, BX, BY, BZ = out
    chunk = max(1, _CHUNK >> levels[-1])
    for lo in range(0, n, chunk):
        k = min(chunk, n - lo)
        ts = [_level_edges(base, lv, lo << lv, (lo + k) << lv) for lv in levels]
        dts = np.concatenate([np.diff(t) for t in ts])
        tmid = np.concatenate([(t[1:] + t[:-1]) / 2.0 for t in ts])
        nodes = np.concatenate([tmid - _NODE * dts, tmid, tmid + _NODE * dts])
        om = np.broadcast_to(np.asarray(schedule.omega(nodes), dtype=float), nodes.shape)
        # the real steps only, each level's in the row order of its tree
        m = tmid.size
        sizes = [k << lv for lv in levels]
        offsets = [sum(sizes[:i]) for i in range(len(sizes))]
        order = np.concatenate([off + _tree_order(r) for off, r in zip(offsets, sizes)])
        steps = np.concatenate([dts, om.ravel()]).reshape(4, m)
        dt, om1, om2, om3 = steps[:, order, None]
        # Magnus-6 exponent w = (A0 + A2 y, x (B1 + B3 y), x (D1 + D3 y)),
        # y = x^2, from c = dt / 2, p = c om2 and the first and second
        # differences of the node drives, q and r (weighted, times c)
        c = dt / 2.0
        c2 = c * c
        p = c * om2
        q = (om3 - om1) * (_Q * c)
        r = ((om3 + om1) - 2.0 * om2) * (_R * c)
        qq = q * q
        u = (20.0 * p + r) / 1800.0
        cq = c * q
        A0 = p + r / 12.0
        A2 = (p * qq + 10.0 * r) * (c2 / -900.0)
        B1 = cq * (u * p + 1.0 / 6.0)
        B3 = cq * (c2 / 90.0)
        D1 = c * (u * r - qq / 60.0 + 1.0)
        D3 = qq * (c * c2 / -900.0)
        # |w|^2 / 4 = k0 + k1 y + k2 y^2 + k3 y^3, evaluated by Horner's rule
        k0 = 0.25 * (A0 * A0)
        k1 = 0.25 * (2.0 * A0 * A2 + B1 * B1 + D1 * D1)
        k2 = 0.25 * (A2 * A2 + 2.0 * (B1 * B3 + D1 * D3))
        k3 = 0.25 * (B3 * B3 + D3 * D3)
        width = max(1, _BLOCK // m)
        for col in range(0, cols, width):
            blk = slice(col, col + width)
            x = xs[None, blk]
            y = x * x
            # step exp(i w.s) = 1 + e + i b.s with e = cos|w| - 1, held as
            # -2 sin^2(|w| / 2), and b = w sin|w| / |w| (b = 0 at w = 0)
            half = k3 * y
            half += k2
            half *= y
            half += k1
            half *= y
            half += k0
            np.sqrt(half, out=half)
            sn = np.sin(half)
            s = np.cos(half)
            s /= np.maximum(half, _TINY, out=half)
            s *= sn
            e = np.multiply(sn, sn, out=sn)
            e *= -2.0
            bx = A2 * y
            bx += A0
            bx *= s
            s *= x
            by = B3 * y
            by += B1
            by *= s
            bz = D3 * y
            bz += D1
            bz *= s
            # each level's tree down to the coarsest level's rows, then the
            # levels side by side as columns of one tree
            del half, s
            prods = [_tree([t[off : off + r] for t in (e, bx, by, bz)], sizes[0])
                     for off, r in zip(offsets, sizes)]
            del e, bx, by, bz
            if len(prods) > 1:
                prods = [np.concatenate(t, axis=1) for t in zip(*prods)]
            else:
                prods = prods[0]
            acc = [t[0].reshape(len(levels), -1) for t in _tree(prods, 1)]
            E[:, blk], BX[:, blk], BY[:, blk], BZ[:, blk] = _qmul(
                *acc, E[:, blk], BX[:, blk], BY[:, blk], BZ[:, blk])
    E += 1.0
    return out


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


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)  # H |0> = |+>, the start


def _from_plus(q) -> np.ndarray:
    """(n, 2) amplitude pairs U |+> = U H |0>."""
    U = _unitaries(q)
    return U[:, :, 0] * _HADAMARD[0, 0] + U[:, :, 1] * _HADAMARD[1, 0]


def _converged_sweep(schedule, x_values, reduce_fn, tol):
    """Halve the grid until every x column of reduce_fn's output meets tol
    by the stop rule of the module docstring; the one sweep driver.

    Checks, in order: the schedule, tol (0 <= tol < inf; tol = 0 never
    converges), then that x is 1-D and finite; an empty x returns at once,
    before any grid is built.  reduce_fn maps the total quaternion, a
    (4, len(xs)) array of rows (a, bx, by, bz), to a float array with x on
    axis 0.  A column's change is the max-abs change of its entries between
    consecutive halvings; the error-estimate stop cannot fire at the first
    halving, which has no ratio.  No column can stop before the first
    halving, so levels 0 and 1 are integrated in one ``_propagate`` call,
    and level 1's quaternion is kept for the second iteration; level 0's
    recorded time covers both.  A stopped column keeps its quaternion, and
    later halvings integrate only the distinct |x| of the columns still
    moving; by the mirror rule, a column with x's sign bit set takes its
    |x|'s quaternion with (by, bz) negated.  All columns share one grid
    sized for max |x|, whose base edges are built once and held in memory;
    each level's edges are generated from them per chunk.
    Returns (xs, quaternion, reduction).  A non-finite reduction fails at
    once, naming its level.  Each level records the |x| integrated, the
    largest change, the columns left moving, those stopped on the estimate
    alone and the wall time.  Failing to converge reports the changes and
    moving columns per halving; a converged sweep logs its columns, distinct
    |x|, record and column-steps as one DEBUG line on "qperceptron".
    """
    _validate_schedule(schedule)
    if not (0 <= tol < math.inf):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    xs = require_finite(**{"x values": x_values})
    if np.ndim(xs) != 1:
        raise ValueError(f"x must be a 1-D array of field values, got shape {np.shape(xs)}")
    q = np.empty((4, xs.size))
    if not xs.size:
        return xs, q, reduce_fn(q)
    ax, rep = np.unique(np.abs(xs), return_inverse=True)
    sign = np.where(np.signbit(xs), -1.0, 1.0)
    qa = np.empty((4, ax.size))
    base = _grid_spec(schedule, float(ax[-1]))
    live = np.arange(xs.size)
    # each live column's change at the halving before; 0 before the first,
    # so that the error-estimate stop cannot fire there
    last = np.zeros(xs.size)
    record = []
    for level in range(_MAX_HALVINGS + 1):
        t0 = time.perf_counter()
        need = np.bincount(rep[live], minlength=ax.size) > 0
        cols = np.count_nonzero(need)
        if level != 1:  # level 1 came with level 0
            levels = (0, 1) if level == 0 else (level,)
            got = _propagate(schedule, ax[need], base, levels)
        qa[:, need] = got[:, level - levels[0]]
        q[:, live] = qa[:, rep[live]]
        q[2:, live] *= sign[live]
        nxt = reduce_fn(q)
        if not np.all(np.isfinite(nxt)):
            raise ValueError(f"integration gave a non-finite result at halving level {level}")
        top = early = None
        if level:
            change = np.abs(nxt[live] - cur[live]).reshape(live.size, -1).max(axis=1)
            moving = (change >= tol) & (
                (change >= _EARLY_FACTOR * tol) | (last < _EARLY_RATIO * change))
            top, early = change.max(), np.count_nonzero(~moving & (change >= tol))
            live, last = live[moving], change[moving]
        record.append((cols, top, live.size, early, time.perf_counter() - t0))
        if not live.size:
            if _log.isEnabledFor(logging.DEBUG):
                levels = "; ".join(
                    f"level {lv}: {n} |x|"
                    + (f", max change {d:.3g}, {e} stopped on the estimate" if lv else "")
                    + f", {sec:.3g} s" for lv, (n, d, _, e, sec) in enumerate(record))
                steps = sum(((base.size - 1) << lv) * n for lv, (n, *_) in enumerate(record))
                _log.debug("sweep: %d x columns, %d distinct |x|, %d base steps; levels 0 "
                           "and 1 in one pass; %s; %d column-steps",
                           xs.size, ax.size, base.size - 1, levels, steps)
            return xs, q, nxt
        cur = nxt
    history = ", ".join(f"{d:.3g} ({n} of {xs.size} columns)" for _, d, n, _, _ in record[1:])
    raise RuntimeError(
        f"integration did not converge to {tol} in {_MAX_HALVINGS} halvings; "
        f"max change per halving: {history}"
    )


def schedule_propagators(schedule, x_values, tol: float = 1e-9) -> np.ndarray:
    """Full 2x2 propagators of the ramp for each longitudinal field.

    Returns an (n, 2, 2) complex array of unitaries U(x) on one time grid
    sized for max |x|.  The grid is halved until every matrix entry meets
    ``tol`` by the stop rule of the module docstring.  Each U(x) stops at
    the first halving where its own entries do, so small fields cost fewer
    steps than large ones.  This is the sector workhorse for register gates,
    where each source configuration pins its own x, and the one
    matrix-valued entry point: a state evolution is
    ``schedule_propagators(s, [x])[0] @ psi0``.
    """
    _, q, _ = _converged_sweep(schedule, x_values, lambda q: np.stack(q, axis=1), tol)
    return _unitaries(q)


def response_curve(schedule, x_grid):
    """Excitation probability from |+> across a field grid.

    Returns a list of (x, P_excite) pairs.  All x values share one time
    grid sized for max |x|, which is halved until every probability meets
    1e-8 by the stop rule of the module docstring; each x stops halving as
    soon as its own probability does.
    """
    xs, _, P = _converged_sweep(
        schedule, x_grid, lambda q: np.abs(_from_plus(q)[:, 1]) ** 2, _PTOL)
    return list(zip(xs.tolist(), P.tolist()))


def average_fidelity(schedule, x_max: float = 10.0, n_points: int = 201) -> float:
    """Mean squared overlap with the target ground state over the field range.

    F = (1 / 2 x_max) * integral of |<target(x) | psi(tf, x)>|^2 dx,
    trapezoid on a uniform n-point grid, so F is in [0, 1].  The target at
    each x is the ground state at the schedule's design omegaf.  Each
    overlap converges to 1e-8, as in response_curve.
    """
    if not hasattr(schedule, "omegaf"):
        raise ValueError("invalid schedule: average_fidelity needs omegaf, its final drive")
    n_points = as_index(n_points, "n_points")
    if x_max != math.inf:  # inf is not read but refused below, with the range
        x_max = require_finite(x_max=x_max)
    if not (0 < x_max < math.inf) or n_points < 2:
        raise ValueError("need finite x_max > 0 and n_points >= 2")
    xs = np.linspace(-x_max, x_max, n_points)
    # the exact mirror of its upper half, 0 at an odd centre: one column per |x|
    half = n_points // 2
    xs[:half], xs[half:n_points - half] = -xs[:-half - 1:-1], 0.0
    g0, g1 = eigensystem(schedule.omegaf, xs).phi0

    def overlaps(q):
        fin = _from_plus(q)
        return np.abs(g0 * fin[:, 0] + g1 * fin[:, 1]) ** 2

    _, _, ov = _converged_sweep(schedule, xs, overlaps, _PTOL)
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
    4 usable points, or all at one tf, is a fit failure (ValueError).  At
    fixed c2 the fit is linear in (log c0, c1) (variable projection): with
    z = -tf^c2, centred 2x2 normal equations solve it for a vector of c2 at
    once; a residual is infinite unless c1 > 0.  A 157-point scan over
    [0.02, 0.8] is polished within +-0.005 of its best point by 4 rounds of
    101-point grids, each 50x narrower, to a spacing of 8e-10; the lower of
    the two is kept (one DEBUG record gives both), so no c2 outside
    [0.015, 0.805] is returned.  Returns (c0, c1, c2).  Input that is not two
    finite 1-D arrays of one length with tf > 0 is refused before any fit.
    """
    tf, infid = require_finite(tf_grid=tf_grid, infidelity=infidelity)
    if np.ndim(tf) != 1 or np.shape(infid) != np.shape(tf):
        raise ValueError(f"tf_grid and infidelity must be 1-D of one length, got shapes "
                         f"{np.shape(tf)} and {np.shape(infid)}")
    if np.any(tf <= 0):
        raise ValueError(f"tf_grid must be positive, got {float(np.min(tf))!r}")
    use = infid > 1e-12
    if int(np.sum(use)) < 4:
        raise ValueError("fit failure: fewer than 4 usable infidelity points")
    lt = np.log(tf[use])
    if np.ptp(lt) == 0:
        raise ValueError("fit failure: all usable points share one tf")
    li = np.log(infid[use])
    yc = li - li.mean()

    def fit(c2):
        """(residual sum of squares, c2, log c0, c1) at the best exponent in c2."""
        z = -np.exp(np.multiply.outer(c2, lt))
        zc = z - z.mean(axis=1, keepdims=True)
        c1 = (zc @ yc) / np.einsum("ij,ij->i", zc, zc)
        r = yc - c1[:, None] * zc
        ss = np.where(c1 > 0, np.einsum("ij,ij->i", r, r), math.inf)
        i = int(np.argmin(ss))
        return float(ss[i]), float(c2[i]), float(li.mean() - c1[i] * z[i].mean()), float(c1[i])

    scan = fit(np.linspace(0.02, 0.8, 157))
    if scan[0] == math.inf:
        raise ValueError("fit failure: no decreasing-exponential fit found")
    lo, hi = scan[1] - 5e-3, scan[1] + 5e-3
    best = fit(np.linspace(lo, hi, 101))
    for half in (1e-4, 2e-6, 4e-8):  # each grid 50x narrower, inside the bracket
        got = fit(np.linspace(max(lo, best[1] - half), min(hi, best[1] + half), 101))
        best = min(best, got, key=lambda p: p[0])
    kept = min(scan, best, key=lambda p: p[0])
    _log.debug("decay fit: scan c2 %r, residual %.6g; polish c2 %r, residual %.6g; kept the %s",
               scan[1], scan[0], best[1], best[0], "scan" if kept is scan else "polish")
    _, _, lc0, c1 = fit(np.array([kept[1]]))
    return float(np.exp(lc0)), c1, kept[1]


def benchmark_ramps(tf_grid, n_points: int = 201) -> FidelityReport:
    """Average infidelity of linear vs faquad ramps across durations.

    Builds both schedules at each tf, from omega0 = 100 down to omegaf = 1,
    the faquad one at the optimal design field; evaluates 1 -
    average_fidelity on n_points over |x| <= 10, and fits the faquad
    curve's stretched-exponential decay.  tf_grid must be a finite,
    positive, strictly increasing 1-D grid of at least 4 points, the fit's
    minimum; anything else is refused before any ramp is integrated.  The
    longest tf runs first, so a grid over the step budget fails before any
    shorter ramp is integrated.
    """
    tf = require_finite(tf_grid=tf_grid)
    if np.ndim(tf) != 1 or tf.size < 4:
        raise ValueError(f"tf_grid must be 1-D with at least 4 points (the fit's minimum), "
                         f"got shape {np.shape(tf)}")
    if np.any(np.diff(tf) <= 0) or np.any(tf <= 0):
        raise ValueError("tf_grid must be positive and strictly increasing")
    inf_lin = np.empty(tf.size)
    inf_faq = np.empty(tf.size)
    for i, t in reversed(list(enumerate(tf))):
        linear = linear_schedule(_BENCH_OMEGA0, _BENCH_OMEGAF, t)
        faquad = faquad_schedule(_BENCH_OMEGA0, _BENCH_OMEGAF, t, _BENCH_X_REF)
        inf_lin[i] = 1.0 - average_fidelity(linear, _BENCH_X_MAX, n_points)
        inf_faq[i] = 1.0 - average_fidelity(faquad, _BENCH_X_MAX, n_points)
    c0, c1, c2 = fit_infidelity_decay(tf, inf_faq)
    return FidelityReport(tf, inf_lin, inf_faq, c0, c1, c2)


def response_to_csv(pairs, path_or_buf) -> None:
    """Write (x, P_excite) pairs as CSV, header ``x,p_excite,g_ideal``: g = eval_f(ALGEBRAIC, x).

    Write-only: the package has no public reader for it.
    """
    write_rows(path_or_buf, "x,p_excite,g_ideal", ((x, p, eval_f(ALGEBRAIC, x)) for x, p in pairs))


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
