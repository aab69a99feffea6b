"""Built-in right-hand sides with exact potentials.

Each factory returns a Nonlinearity whose f, potential and df are numpy
expressions over arrays of nodes and arguments (the array contract
documented on Nonlinearity), and whose potential is exact: a closed form,
or for from_table the piecewise-quadratic integral of the piecewise-linear
interpolant.  None of them integrates numerically.  The is_nonnegative flag
follows the convention documented on Nonlinearity: f(k, t) >= 0 for t >= 0
and each F_k attains its maximum over [-eps, eps] at the right endpoint.
"""

from __future__ import annotations

import numpy as np

from .core import Nonlinearity, TablePotential


def zero() -> Nonlinearity:
    return Nonlinearity(f=lambda k, t: np.zeros(np.shape(t)),
                        potential=lambda k, xi: np.zeros(np.shape(xi)),
                        df=lambda k, t: np.zeros(np.shape(t)),
                        is_nonnegative=True,
                        gamma=None,
                        name="zero")


def constant(value: float = 1.0) -> Nonlinearity:
    v = float(value)
    return Nonlinearity(f=lambda k, t: np.full(np.shape(t), v),
                        potential=lambda k, xi: v * xi,
                        df=lambda k, t: np.zeros(np.shape(t)),
                        is_nonnegative=v >= 0.0,
                        gamma=None,
                        name=f"constant({v:g})")


def linear(slope: float = 1.0) -> Nonlinearity:
    s = float(slope)
    return Nonlinearity(f=lambda k, t: s * t,
                        potential=lambda k, xi: 0.5 * s * xi * xi,
                        df=lambda k, t: np.full(np.shape(t), s),
                        is_nonnegative=s >= 0.0,
                        gamma=None,
                        name=f"linear({s:g})")


def power(exponent: float, coeff: float = 1.0) -> Nonlinearity:
    """f(k, t) = coeff * sign(t) |t|^exponent, F_k(xi) = coeff |xi|^(exponent+1)/(exponent+1).

    The odd extension keeps f continuous on all of R for any exponent > 0.
    The analytic derivative is only supplied for exponent >= 1 (below that it
    blows up at 0 and the finite-difference fallback is no better; callers
    needing Newton should stick to exponent >= 1).
    """
    q = float(exponent)
    c = float(coeff)
    if q <= 0.0:
        raise ValueError("exponent must be positive")

    def f(k, t):
        return c * np.sign(t) * np.abs(t) ** q

    def potential(k, xi):
        return c * np.abs(xi) ** (q + 1.0) / (q + 1.0)

    df = None
    if q >= 1.0:
        def df(k, t):
            return c * q * np.abs(t) ** (q - 1.0)

    return Nonlinearity(f=f, potential=potential, df=df,
                        is_nonnegative=c >= 0.0,
                        gamma=None,
                        name=f"power({q:g},{c:g})")


def bounded_rational() -> Nonlinearity:
    """f(k, t) = t / (1 + t^2) with potential F_k(xi) = ln(1 + xi^2) / 2.

    Bounded, odd, nonnegative on [0, inf); F_k(xi)/xi^2 -> 1/2 as xi -> 0,
    so gamma_k = 1/2 is declared.
    """
    return Nonlinearity(f=lambda k, t: t / (1.0 + t * t),
                        potential=lambda k, xi: 0.5 * np.log1p(xi * xi),
                        df=lambda k, t: (1.0 - t * t) / (1.0 + t * t) ** 2,
                        is_nonnegative=True,
                        gamma=0.5,
                        name="bounded_rational")


def _node_index(k, n: int, what: str):
    """k - 1 for per-node data with n entries; nodes outside 1..n raise."""
    k = np.asarray(k)
    if k.size and np.min(k) < 1:
        raise ValueError(f"node indices start at 1, got {int(np.min(k))}")
    if k.size and np.max(k) > n:
        raise ValueError(f"{what} ({n}) fewer than T={int(np.max(k))}: one needed per node")
    return k - 1


def from_table(t_samples, f_samples, is_nonnegative: bool = False) -> Nonlinearity:
    """Piecewise-linear f from samples, with its exact potential.

    t_samples: strictly increasing 1-D abscissae.
    f_samples: either a 1-D array (same f for every k) or a 2-D array with one
    row per node k = 1..T.  Outside the sampled range f is held constant at
    the nearest sample (np.interp semantics, and np.interp's arithmetic).

    The potential is piecewise quadratic: the trapezoid rule is exact on
    every linear piece, so F_k(xi) is the cumulative trapezoid sum from 0 to
    the breakpoint a between 0 and xi nearest to xi, plus the trapezoid from
    that breakpoint to xi.  The sums run outward from 0 (a breakpoint is
    inserted there), so F_k stays accurate relative to its size near 0.
    """
    ts = np.asarray(t_samples, dtype=float)
    fs = np.asarray(f_samples, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0.0):
        raise ValueError("t_samples must be a strictly increasing 1-D sequence")
    if fs.ndim == 1:
        if fs.shape != ts.shape:
            raise ValueError("f_samples length must match t_samples")
        rows = fs[None, :]
    elif fs.ndim == 2:
        if fs.shape[1] != ts.size:
            raise ValueError("each f_samples row must match t_samples length")
        rows = fs
    else:
        raise ValueError("f_samples must be 1-D or 2-D")
    shared = fs.ndim == 1
    slopes = np.diff(rows, axis=1) / np.diff(ts)

    def row(k):
        return 0 if shared else _node_index(k, rows.shape[0], "f_samples rows")

    def interp(r, t):
        j = np.searchsorted(ts[1:-1], t, side="right")  # segment, clamped to 0..n-2
        inside = slopes[r, j] * (t - ts[j]) + rows[r, j]
        return np.where(t < ts[0], rows[r, 0], np.where(t >= ts[-1], rows[r, -1], inside))

    z = int(np.searchsorted(ts, 0.0))
    if z < ts.size and ts[z] == 0.0:
        knots, vals = ts, rows
    else:
        knots = np.insert(ts, z, 0.0)
        vals = np.insert(rows, z, interp(np.arange(rows.shape[0]), 0.0), axis=1)
    trap = np.diff(knots) * (vals[:, 1:] + vals[:, :-1]) / 2.0
    G = np.zeros_like(vals)  # G[r, a] = integral of row r from 0 to knots[a]
    G[:, z + 1:] = np.cumsum(trap[:, z:], axis=1)
    G[:, :z] = -np.cumsum(trap[:, :z][:, ::-1], axis=1)[:, ::-1]

    def f(k, t):
        return interp(row(k), t)

    def potential(k, xi):
        r = row(k)
        # both searches land in 0..m-1 (knots holds 0); NaN takes the second
        a = np.where(xi >= 0.0, np.searchsorted(knots, xi, side="right") - 1,
                     np.searchsorted(knots[:-1], xi, side="left"))
        return G[r, a] + (xi - knots[a]) * (vals[r, a] + interp(r, xi)) / 2.0

    return Nonlinearity(f=f, potential=TablePotential(potential), df=None,
                        is_nonnegative=is_nonnegative,
                        gamma=None,
                        name="custom_table")


def scaled_per_node(nl: Nonlinearity, scale) -> Nonlinearity:
    """Multiply f (and its potential) by a per-node factor scale[k-1]."""
    sc = np.asarray(scale, dtype=float)
    if sc.ndim != 1 or sc.size < 1:
        raise ValueError("scale must be a non-empty 1-D sequence")

    def pick(k):
        return sc[_node_index(k, sc.size, "scale entries")]

    f = lambda k, t: pick(k) * nl.f(k, t)
    potential = None
    if nl.potential is not None:
        potential = TablePotential.carry(
            nl.potential, lambda k, xi: pick(k) * nl.potential(k, xi))
    df = None
    if nl.df is not None:
        df = lambda k, t: pick(k) * nl.df(k, t)
    gamma = None
    if nl.gamma is not None:
        g = np.broadcast_to(np.asarray(nl.gamma, dtype=float), (sc.size,))
        gamma = tuple(float(s) * float(gk) for s, gk in zip(sc, g))
    keep_flag = nl.is_nonnegative and bool(np.all(sc >= 0.0))
    return Nonlinearity(f=f, potential=potential, df=df,
                        is_nonnegative=keep_flag,
                        gamma=gamma,
                        name=f"{nl.name}*per_node",)
