"""Grid functions, difference operators, and the sharp embedding constants.

Everything here is a pure function of its inputs; grid functions are
immutable after construction and safe to share between tasks.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Callable, Sequence

import numpy as np

QUAD_ABS_TOL = 1e-10
# defaults shared by the library and the `dplap` parser, which reads them
# here so that building it imports no solver, spectrum or existence module
SOLVER_TOL = 1e-10  # SolverOptions.tol; `dplap solve/sweep --tol`
EIGEN_TOL = 1e-9  # first_eigenpair's tol; `dplap eigen --tol`
DEFAULT_EPS_RANGE = (1e-3, 1e3)  # find_admissible_eps; `dplap check --eps-lo/--eps-hi`
DEFAULT_EPS_GRID = 200  # find_admissible_eps; `dplap check --eps-n`
_CONSISTENCY_XI = (0.5, 1.7, 3.0, -0.5, -1.7, -3.0)  # check_consistency's comparison points
# probe of the array contract: two distinct nodes, arguments of both signs
_PROBE_K = np.array([1, 2])
_PROBE_T = np.array([0.5, -1.25])


def _scipy_extension(subpackage: str, name: str):
    """scipy's compiled module ``scipy.<subpackage>.<name>``, without its package.

    Importing a scipy subpackage costs far more than the extension dplap
    calls (scipy.integrate pulls in linalg, sparse, special and optimize:
    about 0.45 s and 40 MB), so the extension is loaded on its own: after a
    bare ``import scipy`` (its platform library set-up, no submodules), from
    scipy/<subpackage>, under its canonical name.  A later import of the
    subpackage reuses that module, and one already imported is returned as
    it is, so every caller sees the same function objects.
    """
    full = f"scipy.{subpackage}.{name}"
    mod = sys.modules.get(full)
    if mod is None:
        import scipy
        spec = PathFinder.find_spec(full, [os.path.join(scipy.__path__[0], subpackage)])
        mod = module_from_spec(spec)
        sys.modules[full] = mod
        spec.loader.exec_module(mod)
    return mod


def _lapack():
    """LAPACK's f2py wrappers, the module scipy.linalg.lapack re-exports.

    Loaded by _scipy_extension, without the scipy.linalg package (about
    0.25 s and 18 MB, most of it outside LAPACK).
    """
    return _scipy_extension("linalg", "_flapack")


def quad(func, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """scipy.integrate.quad, with QUADPACK's qagse called directly.

    Only potential-less callables and check_consistency integrate.  On a
    finite interval this is quad's own call: a == b gives (0.0, 0.0),
    reversed limits are swapped and the result negated, and qagse gets the
    arguments quad passes it, so every value is quad's to the bit.  The
    extension comes from _scipy_extension, the loader the solvers use for
    LAPACK's, so the scipy.integrate package is imported only when qagse
    reports a problem (ier != 0) or a limit is infinite.  scipy.integrate.quad
    then redoes the integral, and its IntegrationWarning, its message and
    its ValueError for invalid input are scipy's own.
    """
    if a == b:
        return 0.0, 0.0
    if not (math.isinf(a) or math.isinf(b)):
        val, err, ier = _scipy_extension("integrate", "_quadpack")._qagse(
            func, min(a, b), max(a, b), (), 0, epsabs, epsrel, limit)
        if ier == 0:
            return (-val if b < a else val), err
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)


@dataclass(frozen=True)
class GridFunction:
    """Real values on the integer grid 0..T+1 with zero Dirichlet boundary.

    The two boundary entries must be exactly zero; interior nodes are
    indices 1..T, with T >= 2.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 4:
            raise ValueError("grid function needs at least 4 nodes (T >= 2)")
        if vals[0] != 0.0 or vals[-1] != 0.0:
            raise ValueError("boundary values u(0) and u(T+1) must be zero")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_interior(cls, interior: Sequence[float]) -> "GridFunction":
        """Pad interior values u(1..T) with the zero boundary."""
        vec = np.asarray(interior, dtype=float)
        values = np.zeros(vec.size + 2)
        values[1:-1] = vec
        return cls(values)

    @classmethod
    def zero(cls, T: int) -> "GridFunction":
        return cls(np.zeros(_check_T(T) + 2))

    @property
    def T(self) -> int:
        return self.values.size - 2

    @property
    def interior(self) -> np.ndarray:
        """The values u(1), ..., u(T) (read-only view)."""
        return self.values[1:-1]

    def __call__(self, k: int) -> float:
        if not (_whole(k) and 0 <= k <= self.T + 1):
            raise ValueError(f"k must lie in 0..{self.T + 1}, got {k!r}")
        return float(self.values[int(k)])


def _broadcasts(fn) -> bool:
    """Whether fn(k, t) maps equal-length arrays elementwise: one call on the
    2-element probe must return shape (2,) and match fn's own per-element
    values to rtol 1e-12."""
    try:
        with np.errstate(all="ignore"):
            # copies: a callable that writes into its arguments must not alter the probe
            out = np.asarray(fn(_PROBE_K.copy(), _PROBE_T.copy()), dtype=float)
            ref = np.array([fn(int(k), float(t)) for k, t in zip(_PROBE_K, _PROBE_T)],
                           dtype=float)
    except Exception:  # a scalar-only callable may raise anything on arrays
        return False
    return out.shape == _PROBE_T.shape and bool(
        np.allclose(out, ref, rtol=1e-12, atol=0.0, equal_nan=True))


def _array_callable(fn):
    """fn itself when it broadcasts, else fn wrapped once in np.vectorize."""
    if fn is None or _broadcasts(fn):
        return fn
    return np.vectorize(fn, otypes=[float])


@dataclass(eq=False)
class Nonlinearity:
    """Right-hand side f(k, t) together with its node potentials F_k.

    The callables follow an array contract: ``f(k, t)``, ``potential(k, xi)``
    and ``df(k, t)`` are called with equal-length 1-D arrays of node indices
    k (1-based) and arguments, and return the values elementwise; scalar
    arguments must work too.  A callable written for scalars only
    (``math.exp``, an ``if`` on t) is adapted at construction: each callable
    is called once on a 2-element probe array, and one that raises, returns
    the wrong shape or disagrees with its own per-element values (rtol 1e-12)
    is wrapped in ``np.vectorize``.  ``f_vec``, ``F_vec`` and ``df_vec`` are
    then one call each over the interior nodes, and pass k as one shared
    read-only array per T: a callable that writes into k raises.

    ``potential``, when given, must be the closed form of
    F_k(xi) = integral of f(k, s) ds over [0, xi]; otherwise F_k is
    computed by adaptive quadrature (absolute tolerance 1e-10), one
    integral per value, with nothing cached.

    ``is_nonnegative`` declares that f(k, t) >= 0 for t >= 0 and that each
    F_k attains its maximum over [-eps, eps] at xi = eps.  That holds when
    f >= 0 on all of R, when the potential is even, and after
    ``truncate_nonnegative`` of an f >= 0 for t >= 0; the transform keeps
    its base's flag, so ``truncate_nonnegative(linear(-1.0))`` has none.
    The flag enables the fast path in the smallness checks and admits the
    positive-solution threshold.
    ``from_table`` computes it from both halves (f >= 0 at the breakpoints
    t >= 0, and F_k(-x) <= F_k(x) for every x >= 0, which together give
    the maximum at eps); for other callables the flag is the caller's
    claim.

    ``gamma`` is declared growth data of F_k(xi)/xi^p as xi -> 0+ (a
    liminf; it cannot be inferred from finitely many samples, so it is
    user-supplied metadata).  A scalar means one value for every node.

    ``breakpoints`` is not a constructor argument: from_table and its two
    transforms set it to the table's knots with 0 inserted (read-only), and
    it is None otherwise.  At every node f is linear in t between the
    breakpoints and constant outside them; a potential with breakpoints
    skips check_consistency's quadrature comparison.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    df: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    is_nonnegative: bool = False
    gamma: float | Sequence[float] | None = None
    name: str = ""
    breakpoints: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        self.f = _array_callable(self.f)
        self.potential = _array_callable(self.potential)
        self.df = _array_callable(self.df)

    def eval_F(self, k: int, xi: float) -> float:
        """Potential F_k(xi); exact 0 at xi = 0 on every path."""
        return float(self.F_at(k, xi))

    def _quad_F(self, k: int, xi: float) -> float:
        xi = float(xi)
        if xi == 0.0:
            return 0.0
        # quadrature calls f one point at a time: skip the np.vectorize adapter
        f = self.f.pyfunc if isinstance(self.f, np.vectorize) else self.f
        val, _ = quad(lambda s: f(k, s), 0.0, xi,
                      epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
        return val

    def F_at(self, k, xi) -> np.ndarray:
        """F_k(xi) elementwise over the node indices k and the arguments xi."""
        if self.potential is not None:
            return np.asarray(self.potential(k, xi), dtype=float)
        k, xi = np.broadcast_arrays(k, xi)
        vals = [self._quad_F(int(kk), x) for kk, x in zip(k.ravel(), xi.ravel())]
        return np.array(vals, dtype=float).reshape(xi.shape)

    # one kernel call over the interior nodes k = 1..T: the solvers evaluate
    # each energy, gradient and Jacobian through exactly one of these
    def f_vec(self, u_interior: np.ndarray) -> np.ndarray:
        u = np.asarray(u_interior, dtype=float)
        return np.asarray(self.f(_nodes(u.size), u), dtype=float)

    def F_vec(self, u_interior: np.ndarray) -> np.ndarray:
        u = np.asarray(u_interior, dtype=float)
        return self.F_at(_nodes(u.size), u)

    def df_vec(self, u_interior: np.ndarray) -> np.ndarray:
        """df/dt over the interior nodes, analytic when supplied, else a
        central difference."""
        u = np.asarray(u_interior, dtype=float)
        k = _nodes(u.size)
        if self.df is not None:
            return np.asarray(self.df(k, u), dtype=float)
        h = 1e-7 * (1.0 + np.abs(u))
        return (self.f(k, u + h) - self.f(k, u - h)) / (2.0 * h)

    def check_consistency(self, T: int) -> None:
        """Verify F_k(0) = 0 at every node k = 1..T and, for closed-form
        potentials without breakpoints, agreement with direct quadrature
        of f to 1e-8 relative at _CONSISTENCY_XI, on both signs whether or
        not is_nonnegative is set (the solvers evaluate F at negative
        values too); a NaN fails either test.
        A table's exact potential is not compared: quadrature of its kinked
        f is the less accurate side (2.5e-7 relative at xi = 1.7 on a
        4801-point table).

        The potential and f are evaluated at every node k = 1..T (only a
        raised error from f counts), so per-node data shorter than T (table
        rows, scale factors) fails here, by name, with a potential or without.
        """
        F0 = self.F_at(_nodes(T), np.zeros(T))
        bad = np.flatnonzero(~(np.abs(F0) <= 1e-12))
        if bad.size:
            k = int(bad[0]) + 1
            raise ValueError(f"potential must vanish at 0: F_{k}(0) = {float(F0[k - 1])!r}")
        with np.errstate(all="ignore"):
            self.f(_nodes(T), np.zeros(T))
        if self.potential is None or self.breakpoints is not None:
            return
        for k in (1, T):
            for xi in _CONSISTENCY_XI:
                closed = self.eval_F(k, xi)
                direct = self._quad_F(k, xi)
                if not abs(closed - direct) <= 1e-8 * (1.0 + abs(closed)):
                    raise ValueError(
                        f"closed-form potential disagrees with quadrature of f at "
                        f"k={k}, xi={xi}: {closed!r} vs {direct!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """One Dirichlet problem instance: grid size T, exponent p > 1, and f."""

    T: int
    p: float
    nonlinearity: Nonlinearity

    def __post_init__(self):
        object.__setattr__(self, "T", _check_T(self.T))
        _check_p(self.p)
        object.__setattr__(self, "p", float(self.p))
        self.nonlinearity.check_consistency(self.T)


@functools.lru_cache(maxsize=64)
def _nodes(T: int) -> np.ndarray:
    """The node indices 1..T as one shared read-only array."""
    k = np.arange(1, T + 1)
    k.setflags(write=False)
    return k


def _check_p(p: float) -> None:
    if not 1.0 < p < np.inf:
        raise ValueError("p must exceed 1 and be finite")


def _check_T(T: int) -> int:
    return _count("T", T, least=2)


def _whole(x) -> bool:
    """Whether x is a whole number; inf and NaN are not."""
    return x == x and x not in (math.inf, -math.inf) and int(x) == x


# the input rules of every module: each names the argument it rejects
def _positive(name: str, x) -> float:
    """float(x), unless x is not positive and finite (NaN is not)."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(x)


def _finite(name: str, x):
    """float(x), or a float array for an array x, unless an entry is not finite."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return float(arr) if arr.ndim == 0 else arr


def _count(name: str, x, least: int = 1) -> int:
    """int(x), unless x is not a whole number >= least."""
    if not _whole(x) or x < least:
        rule = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {rule}")
    return int(x)


def _sequence(name: str, values) -> np.ndarray:
    """The iterable values as a float array, unless it is empty, is not
    strictly increasing, or holds an entry that is not positive and finite."""
    arr = np.asarray(list(values), dtype=float)
    if not (arr.size and np.all((0.0 < arr) & (arr < np.inf)) and np.all(np.diff(arr) > 0.0)):
        raise ValueError(f"{name} must be a nonempty sequence (length >= 1), "
                         "strictly increasing, positive and finite")
    return arr


def _same_T(name: str, u: GridFunction, T: int) -> None:
    """Nothing, unless the grid function u is not on the problem's grid 0..T+1."""
    if u.T != T:
        raise ValueError(f"{name} has T={u.T}, problem has T={T}")


def _gamma_tuple(gamma, T: int) -> tuple[float, ...]:
    """Declared gamma as a length-T tuple; a scalar is one value per node."""
    g = (float(gamma),) * T if np.ndim(gamma) == 0 else tuple(float(x) for x in gamma)
    if len(g) != T:
        raise ValueError(f"gamma must have length T={T}, got {len(g)}")
    return g


def phi_p(s, p: float):
    """The odd power map |s|^(p-2) s driving the p-Laplacian.

    Evaluated as sign(s)|s|^(p-1): identical for s != 0, total for every
    p > 1, and exactly 0 at s = 0 (the continuous extension for p < 2).
    Accepts scalars or arrays.
    """
    _check_p(p)
    arr = np.asarray(s, dtype=float)
    out = np.sign(arr) * np.abs(arr) ** (p - 1.0)
    if arr.ndim == 0:
        return float(out)
    return out


def forward_difference(u: GridFunction) -> np.ndarray:
    """All T+1 forward differences u(j+1) - u(j), j = 0..T."""
    return np.diff(u.values)


def p_laplacian(u: GridFunction, p: float) -> np.ndarray:
    """-(phi_p(forward difference) differenced) at the interior nodes.

    Component k (k = 1..T) is -[phi_p(u(k+1)-u(k)) - phi_p(u(k)-u(k-1))];
    for p = 2 this is the negative second difference with stencil
    (-1, 2, -1).
    """
    _check_p(p)
    return _p_laplacian(u.interior, p)


def p_norm(u: GridFunction, p: float) -> float:
    """(sum over k=1..T+1 of |u(k)-u(k-1)|^p)^(1/p)."""
    _check_p(p)
    return _dirichlet(u.interior, p) ** (1.0 / p)


def _edges(vec: np.ndarray) -> np.ndarray:
    """The T+1 differences u(k)-u(k-1), k = 1..T+1, of interior values u(1..T)
    with the zero boundary, in one allocation.  The end entries are
    u(1) - 0 and 0 - u(T), so signed zeros come out as differencing the
    padded array gives them."""
    du = np.empty(vec.size + 1)
    du[0] = vec[0] - 0.0
    np.subtract(vec[1:], vec[:-1], out=du[1:-1])
    du[-1] = 0.0 - vec[-1]
    return du


# the solvers' kernels on interior arrays: p is checked by the callers, and
# du, when given, must be _edges(vec) (the descent loop computes it once)
def _dirichlet(vec: np.ndarray, p: float, du: np.ndarray | None = None) -> float:
    """sum over k=1..T+1 of |u(k)-u(k-1)|^p.  At p = 2 the sum of du * du:
    |du| ** 2 is numpy's square of |du|, the same products bit for bit."""
    du = _edges(vec) if du is None else du
    return float((du * du if p == 2.0 else np.abs(du) ** p).sum())


def _p_laplacian(vec: np.ndarray, p: float, du: np.ndarray | None = None) -> np.ndarray:
    """-(phi_p(du) differenced).  At p = 2 phi_p(du) is du + 0.0: it equals
    sign(du) |du| bit for bit, the + 0.0 turning -0.0 into +0.0 as the
    sign product does."""
    du = _edges(vec) if du is None else du
    phi = du + 0.0 if p == 2.0 else np.sign(du) * np.abs(du) ** (p - 1.0)
    return -(phi[1:] - phi[:-1])


def sup_norm(u: GridFunction) -> float:
    """max over the interior nodes of |u(k)|."""
    return float(np.max(np.abs(u.interior)))


def kappa(p: float, T: int) -> float:
    """Sharp constant of the embedding sup_norm(u) <= p_norm(u, p)/kappa.

    Even T: [(2/T)^(p-1) + (2/(T+2))^(p-1)]^(1/p).
    Odd  T: 2/(T+1)^((p-1)/p).
    """
    _check_p(p)
    T = _check_T(T)
    if T % 2 == 0:
        s = (2.0 / T) ** (p - 1.0) + (2.0 / (T + 2)) ** (p - 1.0)
        if s < sys.float_info.min:  # the sum underflows (p = 300, T = 50); its root need not
            return _decimal_constant(p, T, root=True)
        return float(s ** (1.0 / p))
    return float(2.0 / (T + 1) ** ((p - 1.0) / p))


def c_const(p: float, T: int) -> float:
    """The smallness bound c(p, T); equals kappa(p, T)^p / p for both parities.

    Even T: (1/p)[(2/T)^(p-1) + (2/(T+2))^(p-1)].
    Odd  T: 2^p / (p (T+1)^(p-1)).
    A ValueError names p and T where c(p, T) is not a normal float.
    """
    _check_p(p)
    T = _check_T(T)
    try:
        if T % 2 == 0:
            c = float(((2.0 / T) ** (p - 1.0) + (2.0 / (T + 2)) ** (p - 1.0)) / p)
        else:
            c = float(2.0 ** p / (p * (T + 1) ** (p - 1.0)))
    except OverflowError:  # (T+1)^(p-1) leaves the float range; c need not
        c = 0.0
    if c < sys.float_info.min:
        c = _decimal_constant(p, T, root=False)
        if c < sys.float_info.min:
            raise ValueError(f"c(p, T) underflows below the normal floats at "
                             f"p = {float(p)!r}, T = {T}")
    return c


def _decimal_constant(p: float, T: int, root: bool) -> float:
    """kappa(p, T) (root) or c(p, T), evaluated in 40-digit decimal arithmetic
    and rounded to a float once: the value where a double form of it leaves
    the float range, 0 or subnormal only where the exact value is."""
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 40
        p_dec = Decimal(float(p))
        q = p_dec - 1
        if T % 2 == 0:
            s = (Decimal(2) / T) ** q + (Decimal(2) / (T + 2)) ** q
        else:
            s = 2 * (Decimal(2) / (T + 1)) ** q
        return float(s ** (1 / p_dec) if root else s / p_dec)


def theta(s: float, p: float, T: int) -> float:
    """1/(T-s+1)^(p-1) + 1/s^(p-1) on (0, T+1).

    Strictly convex with minimum 2^p/(T+1)^(p-1) at s = (T+1)/2, which is
    what makes the odd-T embedding constant the smaller one.
    """
    _check_p(p)
    _check_T(T)
    if not 0.0 < s < T + 1.0:
        raise ValueError(f"s must lie in (0, {T + 1}), got {s}")
    return float(1.0 / (T - s + 1.0) ** (p - 1.0) + 1.0 / s ** (p - 1.0))
