"""Reference computations that share no code with the package under test.

* ``dop853_excitation``: the two-level ramp integrated by scipy's DOP853 at
  tight tolerance, the independent oracle for everything ``dynamics``
  computes.  Only the schedule object (the input) comes from the package.
* ``algebraic_f``: the algebraic sigmoid written out again.
* ``layered_mixture``: output probability of a strictly layered network as
  a classical mixture over hidden configurations, layer by layer, with the
  per-gate excitation supplied as a function of the field.  With
  ``algebraic_f`` it is the ideal statevector result; with DOP853
  excitations it is the hardware-mode result.
* ``rotate_window``: a generalized-XOR composition applied to a register by
  direct per-sector rotation.
"""
from __future__ import annotations

import numpy as np

RTOL = 1e-13
ATOL = 1e-14


def dop853_excitation(schedule, xs, rtol: float = RTOL, atol: float = ATOL) -> np.ndarray:
    """P(|1>) after the ramp from |+>, for each longitudinal field in xs.

    Solves i d(psi)/dt = H psi with H = -1/2 [Omega(t) sx + x sz],
    sz = diag(-1, +1) on (amp0, amp1); all fields form one real system.
    """
    from scipy.integrate import solve_ivp  # keeps it out of the timed set-up

    xs = np.asarray(xs, dtype=float).ravel()
    k = xs.size
    r = 1.0 / np.sqrt(2.0)
    y0 = np.concatenate([np.full(k, r), np.zeros(k), np.full(k, r), np.zeros(k)])

    def rhs(t, y):
        om = float(schedule.omega(t))
        a0 = y[:k] + 1j * y[k : 2 * k]
        a1 = y[2 * k : 3 * k] + 1j * y[3 * k :]
        d0 = 0.5j * (om * a1 - xs * a0)  # -i H psi, first component
        d1 = 0.5j * (om * a0 + xs * a1)
        return np.concatenate([d0.real, d0.imag, d1.real, d1.imag])

    sol = solve_ivp(rhs, (0.0, schedule.tf), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    y = sol.y[:, -1]
    return y[2 * k : 3 * k] ** 2 + y[3 * k :] ** 2


def algebraic_f(x):
    x = np.asarray(x, dtype=float)
    return 0.5 + 0.5 * x / np.sqrt(1.0 + x * x)


def _layers(net):
    """Global qubit indices of each layer; raises if not strictly layered."""
    sizes = [int(m) for m in net.layer_sizes]
    mask = np.asarray(net.mask)
    bounds = np.cumsum([net.n_inputs] + sizes)
    layers = [np.arange(0, net.n_inputs)] + [
        np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    for prev, cur in zip(layers[:-1], layers[1:]):
        allowed = np.zeros(mask.shape[1], dtype=bool)
        allowed[prev] = True
        if np.any(mask[np.ix_(cur, np.nonzero(~allowed)[0])]):
            raise ValueError("oracle needs a strictly layered network")
    return layers


def _spins(m: int) -> np.ndarray:
    """(2**m, m) array of +-1 spins; row c, column j is bit j of c."""
    c = np.arange(1 << m)
    return 2.0 * ((c[:, None] >> np.arange(m)[None, :]) & 1) - 1.0


def layered_mixture(net, bits: str, excitation) -> float:
    """Output excitation of ``net`` on ``bits`` as a hidden-layer mixture.

    ``excitation`` maps an array of fields to gate excitation probabilities.
    The distribution over each layer's configurations is pushed forward
    through the next layer; no statevector is built.
    """
    W = np.asarray(net.mask) * np.asarray(net.J)
    b = np.asarray(net.b)
    layers = _layers(net)
    spins = (2.0 * np.array([int(c) for c in bits], dtype=float) - 1.0)[None, :]
    dist = np.ones(1)
    for prev, cur in zip(layers[:-1], layers[1:]):
        fields = spins @ W[np.ix_(cur, prev)].T - b[cur]  # (configs_prev, m)
        p = excitation(fields.ravel()).reshape(fields.shape)
        z = _spins(cur.size)  # (configs_cur, m)
        # P(cur config | prev config) = prod_j (p_j if z_j > 0 else 1 - p_j)
        cond = np.prod(np.where(z[None, :, :] > 0, p[:, None, :], 1.0 - p[:, None, :]), axis=2)
        dist = dist @ cond
        spins = z
    # last layer is the single output qubit: its configuration 1 is "excited"
    return float(dist[1])


def rotate_window(amps, n: int, target: int, sources, cycles) -> np.ndarray:
    """Rotate ``target`` by sum_n o_n chi(w_n x - th_n) per sector, where
    x = sum_k w_k s_k counts excited sources (algebraic chi)."""
    a = np.asarray(amps, dtype=complex).reshape(1 << target, 2, 1 << (n - 1 - target))
    idx = np.arange(1 << n).reshape(a.shape)[:, 0, :]
    x = np.zeros(idx.shape)
    for k, w in sources.items():
        x += w * ((idx >> (n - 1 - k)) & 1)
    ang = np.zeros_like(x)
    for w, th, o in cycles:
        ang += o * (np.pi / 4 + 0.5 * np.arctan(w * x - th))
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty_like(a)
    out[:, 0, :] = c * a[:, 0, :] - s * a[:, 1, :]
    out[:, 1, :] = s * a[:, 0, :] + c * a[:, 1, :]
    return out.reshape(-1)
