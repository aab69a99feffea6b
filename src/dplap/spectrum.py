"""First eigenpair of the discrete p-Laplacian; full p = 2 spectrum in closed form.

The eigenvalue problem is
    -(phi_p(forward difference) differenced)(k) = lambda phi_p(u(k)),
with zero Dirichlet boundary.  The first eigenvalue is the minimum of the
Rayleigh quotient sum |du|^p / sum |u(k)|^p over non-zero grid functions;
first_eigenpair finds it with the solver's globalised Newton loop and
residual polish (solver._descend, solver._polish) on the shell
sum |u(k)|^p = 1, through a bordered Newton system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .core import (GridFunction, _check_p, _check_T, _dirichlet, _p_laplacian,
                   _pad, phi_p)
from .energy import _newton_weights

if TYPE_CHECKING:  # pragma: no cover
    from .solver import SolverOptions

EIGEN_TOL = 1e-9
EIGEN_MAX_ITERS = 100_000


@dataclass(frozen=True)
class EigenPair:
    """First eigenpair, with phi positive on the interior and normalised so
    that sum_k phi(k)^p = 1 (hence ||phi||^p = lambda_).

    The eigenvalue field carries a trailing underscore because ``lambda`` is
    reserved in Python.
    """

    lambda_: float
    phi: GridFunction
    residual: float


class EigenConvergenceError(RuntimeError):
    """Raised when the quotient minimisation stalls; carries the best iterate."""

    def __init__(self, message: str, best: EigenPair):
        super().__init__(message)
        self.best = best


def matrix_A(T: int) -> np.ndarray:
    """The T x T tridiagonal matrix with 2 on the diagonal, -1 off it."""
    _check_T(T)
    return 2.0 * np.eye(T) - np.eye(T, k=1) - np.eye(T, k=-1)


def eigenvalues_p2(T: int) -> np.ndarray:
    """All T eigenvalues of matrix_A: 4 sin^2(k pi / (2(T+1))), k = 1..T."""
    _check_T(T)
    k = np.arange(1, T + 1)
    return 4.0 * np.sin(k * np.pi / (2.0 * (T + 1))) ** 2


def lambda1_closed_form_p2(T: int) -> float:
    """4 sin^2(pi / (2(T+1))), the smallest eigenvalue for p = 2."""
    _check_T(T)
    return float(4.0 * np.sin(np.pi / (2.0 * (T + 1))) ** 2)


def rayleigh_quotient(u: GridFunction, p: float) -> float:
    """sum_{k=1}^{T+1} |du(k-1)|^p / sum_{k=1}^{T} |u(k)|^p for u != 0."""
    _check_p(p)
    denom = float(np.sum(np.abs(u.interior) ** p))
    if denom == 0.0:
        raise ValueError("Rayleigh quotient is undefined at the zero function")
    return _dirichlet(u.interior, p) / denom


def _eigen_defect(interior: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """Quotient value and eigen-equation defect at a unit-denominator point."""
    lam = _dirichlet(interior, p)
    return lam, _p_laplacian(interior, p) - lam * phi_p(interior, p)


def first_eigenpair(p: float, T: int, opts: "SolverOptions | None" = None) -> EigenPair:
    """Minimise the Rayleigh quotient R over the shell sum_k |u(k)|^p = 1.

    The solver's globalised Newton loop and residual polish run on
    J = R / p, whose gradient on the shell is exactly the eigen defect.
    Each step solves the bordered Newton system
        [H + tau I, -phi_p(u); p phi_p(u)^T, 0],
    H = L_w - lambda (p-1) diag|u|^(p-2), down the solver's tau ladder, so
    it stays tangent to the shell; every trial point is symmetrised and
    rescaled back onto the shell (R is scale invariant, so the rescaling
    never changes its value).  The start is the positive sine profile, the
    exact p = 2 eigenvector, so p = 2 converges at once.

    The stop is relative: the defect must reach tol times
    min(1, lambda max phi^(p-1)) at the start, the size of the terms it
    balances, so large p and T (where lambda_1 is tiny) cannot pass an
    unconverged start.  EigenPair.residual is the absolute defect.

    Raises EigenConvergenceError (carrying the best iterate) if the
    residual has not reached the tolerance.  Near the p -> 1 limit
    (p <= 1.1 on all but the smallest grids, p = 1.15 at T = 50 and
    p = 1.2 at T = 200) the eigenfunction approaches
    a plateau whose differences underflow the kink-sensitivity of phi_p,
    the defect cannot be represented at 1e-9 in float64, and the explicit
    failure is the honest outcome; its .best iterate is still the quotient
    minimiser to the precision the arithmetic admits.
    """
    _check_p(p)
    _check_T(T)
    from .solver import SolverOptions, _TAU_LADDER, _descend, _polish

    if opts is None:
        opts = SolverOptions(tol=EIGEN_TOL, max_iters=EIGEN_MAX_ITERS)

    def project(v: np.ndarray) -> np.ndarray:
        v = 0.5 * (v + v[::-1])  # exactly symmetric, like the eigenfunction
        return v / float(np.sum(np.abs(v) ** p)) ** (1.0 / p)

    def J(v: np.ndarray) -> float:
        return rayleigh_quotient(GridFunction.from_interior(v), p) / p

    def grad(v: np.ndarray) -> np.ndarray:
        return _eigen_defect(v, p)[1]

    def steps(v: np.ndarray, g: np.ndarray, share: float):
        w = _newton_weights(p, np.diff(_pad(v)), share)
        lam = _dirichlet(v, p)
        with np.errstate(divide="ignore"):
            diag = w[:-1] + w[1:] - lam * (p - 1.0) * np.abs(v) ** (p - 2.0)
        if not np.all(np.isfinite(diag)):
            return
        idx = np.arange(T)
        A = np.zeros((T + 1, T + 1))
        A[idx[:-1], idx[1:]] = A[idx[1:], idx[:-1]] = -w[1:-1]
        A[:T, T] = -phi_p(v, p)
        A[T, :T] = p * phi_p(v, p)
        rhs = np.append(-g, 0.0)
        for tau in _TAU_LADDER:
            A[idx, idx] = diag + tau
            try:
                s = np.linalg.solve(A, rhs)[:T]
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(s)):
                yield s

    u = project(np.sin(np.arange(1, T + 1) * np.pi / (T + 1)))
    scale = _eigen_defect(u, p)[0] * float(np.max(u)) ** (p - 1.0)
    opts = replace(opts, tol=opts.tol * min(1.0, scale))
    u, res, iters, _ = _descend(J, grad, steps, u, opts, project)
    if res > opts.tol:
        u, res = _polish(grad, steps, u, opts.tol, project)
    lam = _eigen_defect(u, p)[0]

    if u[0] < 0.0:
        u = -u
    pair = EigenPair(lambda_=lam, phi=GridFunction.from_interior(u), residual=res)
    if res > opts.tol:
        raise EigenConvergenceError(
            f"first eigenpair (p={p}, T={T}) did not reach residual {opts.tol:g} "
            f"in {iters} iterations (best {res:.3e})", pair)
    if np.min(u) <= 0.0:
        raise EigenConvergenceError(
            f"converged first eigenfunction is not positive (p={p}, T={T})", pair)
    return pair
