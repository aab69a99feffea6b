"""Built-in right-hand sides with exact potentials, and two transforms.

Each factory returns a Nonlinearity whose f, potential and df are numpy
expressions over arrays of nodes and arguments (the array contract
documented on Nonlinearity), and whose potential is exact: a closed form,
or for from_table the piecewise-quadratic integral of the piecewise-linear
interpolant.  None of them integrates numerically.  The is_nonnegative flag
(documented on Nonlinearity: f(k, t) >= 0 for t >= 0, and each F_k attains
its maximum over [-eps, eps] at eps) is computed by from_table.
scaled_per_node and truncate_nonnegative derive one from another, exact if
the base is; both pass on from_table's breakpoints, which only this module sets.
"""

from __future__ import annotations

import numpy as np

from .core import Nonlinearity, _gamma_tuple, _positive


def _finite(name: str, x) -> float:
    """float(x); a ValueError naming it unless it is finite."""
    v = float(x)
    if not np.isfinite(v):
        raise ValueError(f"{name} must be finite")
    return v


def zero() -> Nonlinearity:
    return Nonlinearity(f=lambda k, t: np.zeros(np.shape(t)),
                        potential=lambda k, xi: np.zeros(np.shape(xi)),
                        df=lambda k, t: np.zeros(np.shape(t)),
                        is_nonnegative=True,
                        name="zero")


def constant(value: float = 1.0) -> Nonlinearity:
    v = _finite("value", value)
    return Nonlinearity(f=lambda k, t: np.full(np.shape(t), v),
                        potential=lambda k, xi: v * xi,
                        df=lambda k, t: np.zeros(np.shape(t)),
                        is_nonnegative=v >= 0.0,
                        name=f"constant({v:g})")


def linear(slope: float = 1.0) -> Nonlinearity:
    s = _finite("slope", slope)
    return Nonlinearity(f=lambda k, t: s * t,
                        potential=lambda k, xi: 0.5 * s * xi * xi,
                        df=lambda k, t: np.full(np.shape(t), s),
                        is_nonnegative=s >= 0.0,
                        name=f"linear({s:g})")


def power(exponent: float, coeff: float = 1.0) -> Nonlinearity:
    """f(k, t) = coeff * sign(t) |t|^exponent, F_k(xi) = coeff |xi|^(exponent+1)/(exponent+1).

    The odd extension keeps f continuous on all of R for any exponent > 0.
    The analytic derivative is only supplied for exponent >= 1 (below that it
    blows up at 0 and the finite-difference fallback is no better; callers
    needing Newton should stick to exponent >= 1).
    """
    q = _positive("exponent", float(exponent))
    c = _finite("coeff", coeff)

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
    if isinstance(k, (int, np.integer)):  # quadrature calls f one node at a time
        lo = hi = k
    else:
        k = np.asarray(k)
        if not k.size:
            return k - 1
        lo, hi = k.min(), k.max()
    if lo < 1:
        raise ValueError(f"node indices start at 1, got {int(lo)}")
    if hi > n:
        raise ValueError(f"{what} ({n}) fewer than T={int(hi)}: one needed per node")
    return k - 1


def _value_at_root(F0, h, g0, g1, where):
    """F at the root of its derivative on pieces of length h where F' is linear
    from g0 to g1 and `where` marks a sign change: F0 + h g0^2 / (2 (g0 - g1)),
    a maximum where F' turns from positive to negative and a minimum where it
    turns from negative to positive.  F0 where `where` is false."""
    return F0 + np.divide(h * g0 * g0, 2.0 * (g0 - g1), out=np.zeros_like(g0), where=where)


def _nonnegative(f, potential, knots: np.ndarray, n_rows: int) -> bool:
    """A table's is_nonnegative: at every node f >= 0 at the knots t >= 0 (between
    them f can round below a zero sample) and F_k(-x) <= F_k(x) for x >= 0.
    H(x) = F_k(x) - F_k(-x) integrates g(s) = f(s) + f(-s), linear between the
    merged breakpoints |knots| and constant beyond: H is read at each breakpoint,
    at each root where g turns positive, and on the tail (where g must not be
    negative), allowing 1e-12 times the integral of |f(s)| + |f(-s)| for rounding."""
    k = np.arange(1, n_rows + 1)[:, None]
    if np.any(f(k, knots[knots >= 0.0]) < 0.0):
        return False
    s = np.sort(np.abs(knots))  # holds 0; a repeated |knot| only adds an empty piece
    right, left = f(k, s), f(k, -s)
    g, size, h = right + left, np.abs(right) + np.abs(left), np.diff(s)
    H = potential(k, s) - potential(k, -s)
    allow = 1e-12 * np.cumsum(h * (size[..., 1:] + size[..., :-1]) / 2.0, axis=-1)
    g0, g1 = g[..., :-1], g[..., 1:]
    low = np.minimum(H[..., 1:], _value_at_root(H[..., :-1], h, g0, g1, (g0 < 0.0) & (g1 > 0.0)))
    return not (np.any(low < -allow) or np.any(g[..., -1] < -1e-12 * size[..., -1]))


def _table_gamma(nl: Nonlinearity, T: int, p: float) -> np.ndarray:
    """A table's exact gamma_k = liminf_{xi->0+} F_k(xi)/xi^p at k = 1..T.

    Near 0+, f_k is f_k(0) + s t with s the slope to the first breakpoint
    b > 0 (s = 0 without one: f is constant beyond the last), so F_k(xi) is
    f_k(0) xi + s xi^2 / 2: the ratio tends to +-inf with f_k(0) != 0, and
    with f_k(0) = 0 to s/2 at p = 2, to 0 at p < 2, and to +-inf or 0 by
    the sign of s at p > 2.  An f_k(0) within 1e-12 of f at the breakpoints
    next to 0 counts as 0: interpolating at an inserted 0 can turn an odd
    table's exact 0 into +-1e-18."""
    z = int(np.searchsorted(nl.breakpoints, 0.0))  # the breakpoints hold 0
    x = nl.breakpoints[max(z - 1, 0):z + 2]  # 0 and its neighbours
    i = min(z, 1)  # the column of 0
    k, xs = (a.ravel() for a in np.broadcast_arrays(np.arange(1, T + 1)[:, None], x))
    f = np.asarray(nl.f(k, xs), dtype=float).reshape(T, x.size)
    f0 = np.where(np.abs(f[:, i]) <= 1e-12 * np.max(np.abs(f), axis=1), 0.0, f[:, i])
    s = (f[:, i + 1] - f0) / x[i + 1] if i + 1 < x.size else np.zeros(T)
    if p == 2.0:
        lead = s / 2.0
    elif p < 2.0:
        lead = np.zeros(T)
    else:
        lead = np.where(s > 0.0, np.inf, np.where(s < 0.0, -np.inf, 0.0))
    return np.where(f0 > 0.0, np.inf, np.where(f0 < 0.0, -np.inf, lead))


def _check_gamma(nl: Nonlinearity, gamma, T: int, p: float) -> tuple[float, ...]:
    """A declared gamma (scalar or length T) as a length-T tuple of positive
    entries.  For a table (breakpoints set), a ValueError names the first node
    whose gamma exceeds the exact one (_table_gamma), allowing 1e-12 relative
    for rounding; other nonlinearities' gamma stays a claim."""
    gam = _gamma_tuple(gamma, T)
    if not all(g > 0.0 for g in gam):
        raise ValueError("gamma entries must be positive")
    if nl.breakpoints is None:
        return gam
    exact = _table_gamma(nl, T, p)
    over = np.flatnonzero(np.asarray(gam) > np.maximum(exact, 0.0) * (1.0 + 1e-12))
    if over.size:
        k = int(over[0]) + 1
        raise ValueError(f"gamma {gam[k - 1]!r} at node k={k} exceeds the table's exact "
                         f"liminf F_k(xi)/xi^p = {float(exact[k - 1])!r}")
    return gam


def from_table(t_samples, f_samples) -> Nonlinearity:
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
    These knots, 0 included, are the result's read-only breakpoints.

    is_nonnegative is computed, not declared (_nonnegative): at every node,
    f >= 0 at the knots t >= 0 and F_k(-x) <= F_k(x) for every x >= 0.
    """
    ts = np.array(t_samples, dtype=float)  # copies: the caller's arrays may change
    fs = np.array(f_samples, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0.0):
        raise ValueError("t_samples must be a strictly increasing 1-D sequence")
    for name, arr in (("t_samples", ts), ("f_samples", fs)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
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
    knots.setflags(write=False)
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

    nl = Nonlinearity(f=f, potential=potential, name="custom_table",
                      is_nonnegative=_nonnegative(f, potential, knots, rows.shape[0]))
    nl.breakpoints = knots
    return nl


def scaled_per_node(nl: Nonlinearity, scale) -> Nonlinearity:
    """Multiply f (and its potential) by the finite per-node factor scale[k-1]."""
    sc = np.asarray(scale, dtype=float)
    if sc.ndim != 1 or sc.size < 1:
        raise ValueError("scale must be a non-empty 1-D sequence")
    if not np.isfinite(sc).all():
        raise ValueError("scale entries must be finite")

    def pick(k):
        return sc[_node_index(k, sc.size, "scale entries")]

    f = lambda k, t: pick(k) * nl.f(k, t)
    potential = None
    if nl.potential is not None:
        potential = lambda k, xi: pick(k) * nl.potential(k, xi)
    df = None
    if nl.df is not None:
        df = lambda k, t: pick(k) * nl.df(k, t)
    gamma = None
    if nl.gamma is not None:
        gamma = tuple(float(s) * gk for s, gk in zip(sc, _gamma_tuple(nl.gamma, sc.size)))
    keep_flag = nl.is_nonnegative and bool(np.all(sc >= 0.0))
    out = Nonlinearity(f=f, potential=potential, df=df,
                       is_nonnegative=keep_flag,
                       gamma=gamma,
                       name=f"{nl.name}*per_node")
    out.breakpoints = nl.breakpoints
    return out


def truncate_nonnegative(nl: Nonlinearity) -> Nonlinearity:
    """Extend f by its value at 0 for negative arguments.

    The potential of the extension is F_k(xi) for xi >= 0 and f(k,0)*xi for
    xi < 0.  Every positive solution of the truncated problem solves the
    original one, since the two right-hand sides agree on positive values.
    """
    def f(k, t):
        return nl.f(k, np.where(t >= 0.0, t, 0.0))

    def potential(k, xi):
        pos = xi >= 0.0
        return np.where(pos, nl.F_at(k, np.where(pos, xi, 0.0)),
                        nl.f(k, np.zeros(np.shape(xi))) * xi)

    df = None
    if nl.df is not None:
        def df(k, t):
            pos = t >= 0.0
            return np.where(pos, nl.df(k, np.where(pos, t, 0.0)), 0.0)

    out = Nonlinearity(f=f, potential=potential, df=df,
                       is_nonnegative=nl.is_nonnegative,
                       gamma=nl.gamma,
                       name=f"{nl.name}~trunc")
    out.breakpoints = nl.breakpoints  # 0 is a knot already
    return out
