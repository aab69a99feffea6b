"""Grid functions, difference operators, and the sharp embedding constants.

Everything here is a pure function of its inputs; grid functions are
immutable after construction and safe to share between tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

QUAD_ABS_TOL = 1e-10
# probe of the array contract: two distinct nodes, arguments of both signs
_PROBE_K = np.array([1, 2])
_PROBE_T = np.array([0.5, -1.25])


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on first use.

    Only potential-less callables and check_consistency integrate, and
    importing scipy costs more than the rest of ``import dplap`` together.
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, **kwargs)


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
        interior = np.asarray(interior, dtype=float)
        full = np.zeros(interior.size + 2)
        full[1:-1] = interior
        return cls(full)

    @classmethod
    def zero(cls, T: int) -> "GridFunction":
        return cls(np.zeros(T + 2))

    @property
    def T(self) -> int:
        return self.values.size - 2

    @property
    def interior(self) -> np.ndarray:
        """The values u(1), ..., u(T) (read-only view)."""
        return self.values[1:-1]

    def __call__(self, k: int) -> float:
        return float(self.values[k])


def _broadcasts(fn) -> bool:
    """Whether fn(k, t) maps equal-length arrays elementwise: one call on the
    2-element probe must return shape (2,) and match fn's own per-element
    values to rtol 1e-12."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(fn(_PROBE_K, _PROBE_T), dtype=float)
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


class TablePotential:
    """The exact potential of a piecewise-linear f: from_table's, or one
    derived from it by scaled_per_node or truncate_nonnegative.

    check_consistency does not compare these against quadrature: adaptive
    quadrature of the kinked f is the less accurate side (2.5e-7 relative
    at xi = 1.7 on a 4801-point table, over the check's 1e-8).
    """

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.fn = fn

    def __call__(self, k, xi):
        return self.fn(k, xi)

    @staticmethod
    def carry(base, fn):
        """fn, marked as a table potential when it derives from one (base)."""
        return TablePotential(fn) if isinstance(base, TablePotential) else fn


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
    then one call each over the interior nodes.

    ``potential``, when given, must be the closed form of
    F_k(xi) = integral of f(k, s) ds over [0, xi]; otherwise F_k is
    computed by adaptive quadrature (absolute tolerance 1e-10), one
    integral per value, with nothing cached.

    ``is_nonnegative`` declares that f(k, t) >= 0 for t >= 0 and that each
    F_k attains its maximum over [-eps, eps] at xi = eps.  That holds when
    f >= 0 on all of R, when the potential is even, and always after
    ``truncate_nonnegative``.  The flag enables the fast path in the
    smallness checks and admits the positive-solution threshold.

    ``gamma`` is declared growth data of F_k(xi)/xi^p as xi -> 0+ (a
    liminf; it cannot be inferred from finitely many samples, so it is
    user-supplied metadata).  A scalar means one value for every node.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    df: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    is_nonnegative: bool = False
    gamma: float | Sequence[float] | None = None
    name: str = ""

    def __post_init__(self):
        self.f = _array_callable(self.f)
        self.potential = _array_callable(self.potential)
        self.df = _array_callable(self.df)

    def eval_f(self, k: int, t: float) -> float:
        return float(self.f(k, t))

    def eval_F(self, k: int, xi: float) -> float:
        """Potential F_k(xi); exact 0 at xi = 0 on every path."""
        return float(self.F_at(k, xi))

    def eval_df(self, k: int, t: float) -> float:
        """df/dt, analytic when supplied, else a central difference."""
        return float(self.df_at(k, t))

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

    def df_at(self, k, t) -> np.ndarray:
        """df/dt elementwise, analytic when supplied, else a central difference."""
        if self.df is not None:
            return np.asarray(self.df(k, t), dtype=float)
        h = 1e-7 * (1.0 + np.abs(t))
        return (self.f(k, t + h) - self.f(k, t - h)) / (2.0 * h)

    # one kernel call over the interior nodes k = 1..T: the solvers evaluate
    # each energy, gradient and Jacobian through exactly one of these
    def f_vec(self, u_interior: np.ndarray) -> np.ndarray:
        u = np.asarray(u_interior, dtype=float)
        return np.asarray(self.f(np.arange(1, u.size + 1), u), dtype=float)

    def F_vec(self, u_interior: np.ndarray) -> np.ndarray:
        u = np.asarray(u_interior, dtype=float)
        return self.F_at(np.arange(1, u.size + 1), u)

    def df_vec(self, u_interior: np.ndarray) -> np.ndarray:
        u = np.asarray(u_interior, dtype=float)
        return self.df_at(np.arange(1, u.size + 1), u)

    def gamma_tuple(self, T: int) -> tuple[float, ...] | None:
        """Declared gamma as a length-T tuple (scalars broadcast)."""
        if self.gamma is None:
            return None
        if np.isscalar(self.gamma):
            return (float(self.gamma),) * T
        g = tuple(float(x) for x in self.gamma)
        if len(g) != T:
            raise ValueError(f"gamma must have length T={T}, got {len(g)}")
        return g

    def check_consistency(self, T: int, xi_samples: Sequence[float] = (0.5, 1.7, 3.0)) -> None:
        """Verify F_k(0) = 0 at every node k = 1..T and, for closed-form
        potentials other than table ones, agreement with direct quadrature
        of f to 1e-8 relative on sample points.

        Evaluating the potential over all T nodes also makes per-node data
        shorter than T (table rows, scale factors) fail here, by name.
        """
        F0 = self.F_at(np.arange(1, T + 1), np.zeros(T))
        bad = np.flatnonzero(np.abs(F0) > 1e-12)
        if bad.size:
            k = int(bad[0]) + 1
            raise ValueError(f"potential must vanish at 0: F_{k}(0) = {float(F0[k - 1])!r}")
        if self.potential is None or isinstance(self.potential, TablePotential):
            return
        samples = list(xi_samples)
        if not self.is_nonnegative:
            samples += [-x for x in xi_samples]
        for k in (1, T):
            for xi in samples:
                closed = self.eval_F(k, xi)
                direct = self._quad_F(k, xi)
                if abs(closed - direct) > 1e-8 * (1.0 + abs(closed)):
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
        if int(self.T) != self.T or self.T < 2:
            raise ValueError("T must be an integer >= 2")
        object.__setattr__(self, "T", int(self.T))
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        object.__setattr__(self, "p", float(self.p))
        self.nonlinearity.check_consistency(self.T)


def _check_pT(p: float, T: int) -> None:
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if int(T) != T or T < 2:
        raise ValueError("T must be an integer >= 2")


def phi_p(s, p: float):
    """The odd power map |s|^(p-2) s driving the p-Laplacian.

    Evaluated as sign(s)|s|^(p-1): identical for s != 0, total for every
    p > 1, and exactly 0 at s = 0 (the continuous extension for p < 2).
    Accepts scalars or arrays.
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
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
    flux = phi_p(np.diff(u.values), p)
    return -np.diff(flux)


def p_norm(u: GridFunction, p: float) -> float:
    """(sum over k=1..T+1 of |u(k)-u(k-1)|^p)^(1/p)."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    return float(np.sum(np.abs(np.diff(u.values)) ** p) ** (1.0 / p))


def sup_norm(u: GridFunction) -> float:
    """max over the interior nodes of |u(k)|."""
    return float(np.max(np.abs(u.interior)))


def kappa(p: float, T: int) -> float:
    """Sharp constant of the embedding sup_norm(u) <= p_norm(u, p)/kappa.

    Even T: [(2/T)^(p-1) + (2/(T+2))^(p-1)]^(1/p).
    Odd  T: 2/(T+1)^((p-1)/p).
    """
    _check_pT(p, T)
    if T % 2 == 0:
        return float(((2.0 / T) ** (p - 1.0) + (2.0 / (T + 2)) ** (p - 1.0)) ** (1.0 / p))
    return float(2.0 / (T + 1) ** ((p - 1.0) / p))


def c_const(p: float, T: int) -> float:
    """The smallness bound c(p, T); equals kappa(p, T)^p / p for both parities.

    Even T: (1/p)[(2/T)^(p-1) + (2/(T+2))^(p-1)].
    Odd  T: 2^p / (p (T+1)^(p-1)).
    """
    _check_pT(p, T)
    if T % 2 == 0:
        return float(((2.0 / T) ** (p - 1.0) + (2.0 / (T + 2)) ** (p - 1.0)) / p)
    return float(2.0 ** p / (p * (T + 1) ** (p - 1.0)))


def theta(s: float, p: float, T: int) -> float:
    """1/(T-s+1)^(p-1) + 1/s^(p-1) on (0, T+1).

    Strictly convex with minimum 2^p/(T+1)^(p-1) at s = (T+1)/2, which is
    what makes the odd-T embedding constant the smaller one.
    """
    _check_pT(p, T)
    if not 0.0 < s < T + 1.0:
        raise ValueError(f"s must lie in (0, {T + 1}), got {s}")
    return float(1.0 / (T - s + 1.0) ** (p - 1.0) + 1.0 / s ** (p - 1.0))
