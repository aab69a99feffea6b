"""The variational structure: energy, gradient, Newton matrix, residuals.

The sign conventions make "gradient = 0" literally the strong form of the
difference equation, so a converged solver iterate is a solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridFunction, ProblemSpec, _dirichlet, _edges, _p_laplacian, phi_p

_EPS = np.finfo(float).eps  # floors of the p < 2 secant weights (_newton_weights)
_TINY = np.finfo(float).tiny


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")


# J_alpha and its derivatives on interior arrays: every caller goes through these
def _energy(prob: ProblemSpec, alpha: float, vec: np.ndarray) -> float:
    return (_dirichlet(vec, prob.p) / prob.p
            - alpha * float(prob.nonlinearity.F_vec(vec).sum()))


def _gradient(prob: ProblemSpec, alpha: float, vec: np.ndarray) -> np.ndarray:
    return _p_laplacian(vec, prob.p) - alpha * prob.nonlinearity.f_vec(vec)


def _newton_weights(p: float, du: np.ndarray, share: float) -> np.ndarray:
    """Edge weights of the tridiagonal Newton matrix.

    p >= 2: the tangent (p-1)|du|^(p-2) of phi_p.  Below p = 2 the tangent
    blows up at du = 0, and on |d|^p/p a tangent step maps d to
    d (p-2)/(p-1) (-d at p = 1.5): a difference that should vanish flips
    sign for thousands of iterations.  So differences below share of the
    largest take the secant |du|^(p-2), whose step lands on 0, with |du|
    floored at the largest one's float resolution so du = 0 stays finite.
    The residual polish passes share = 0 (tangent everywhere): near a
    solution it wants the true Jacobian, not a step to a plateau.
    """
    if p >= 2.0:
        return (p - 1.0) * np.abs(du) ** (p - 2.0)
    top = float(np.abs(du).max())
    a = np.maximum(np.abs(du), max(_EPS * top, _TINY))
    return np.where(a >= share * top, p - 1.0, 1.0) * a ** (p - 2.0)


def _jacobian(prob: ProblemSpec, alpha: float, vec: np.ndarray,
              share: float) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the tridiagonal Newton matrix of J_alpha:
    edge weights from _newton_weights, minus alpha f' on the diagonal."""
    w = _newton_weights(prob.p, _edges(vec), share)
    return w[:-1] + w[1:] - alpha * prob.nonlinearity.df_vec(vec), -w[1:-1]


def energy(u: GridFunction, prob: ProblemSpec, alpha: float = 1.0) -> float:
    """J_alpha(u) = (1/p) sum_{k=1}^{T+1} |u(k)-u(k-1)|^p - alpha sum_k F_k(u(k)).

    alpha = 1 recovers the unparametrised functional.
    """
    _check_alpha(alpha)
    return _energy(prob, alpha, u.interior)


def gradient(u: GridFunction, prob: ProblemSpec, alpha: float = 1.0) -> np.ndarray:
    """Coordinate gradient <J'_alpha(u), e_k> for k = 1..T.

    Component k equals -[phi_p(u(k+1)-u(k)) - phi_p(u(k)-u(k-1))]
    - alpha f(k, u(k)), the defect of the strong difference equation.
    """
    _check_alpha(alpha)
    return _gradient(prob, alpha, u.interior)


def strong_residual(u: GridFunction, prob: ProblemSpec, alpha: float = 1.0) -> float:
    """max_k of the difference-equation defect; the sup norm of the gradient."""
    return float(np.max(np.abs(gradient(u, prob, alpha))))


def weak_residual(u: GridFunction, v: GridFunction, prob: ProblemSpec,
                  alpha: float = 1.0) -> float:
    """sum phi_p(du) dv - alpha sum f(k, u(k)) v(k) for the test function v.

    Vanishing for every v is equivalent to a zero strong residual
    (summation by parts with the zero boundary).
    """
    _check_alpha(alpha)
    if v.T != u.T:
        raise ValueError(f"test function has T={v.T}, expected {u.T}")
    du = np.diff(u.values)
    dv = np.diff(v.values)
    bilinear = float(phi_p(du, prob.p) @ dv)
    load = float(prob.nonlinearity.f_vec(u.interior) @ v.interior)
    return bilinear - alpha * load


def hessian_p2(u: GridFunction, prob: ProblemSpec, alpha: float = 1.0) -> np.ndarray:
    """Jacobian of the p = 2 gradient: tridiag(-1, 2, -1) - alpha diag(df/dt).

    Only defined for p = 2 (the energy is not C^2 for p < 2); the solvers'
    Newton steps at any p > 1 use the tridiagonal _jacobian, densified here.
    """
    _check_alpha(alpha)
    if prob.p != 2.0:
        raise ValueError("hessian_p2 requires p = 2")
    diag, off = _jacobian(prob, alpha, u.interior, 0.0)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@dataclass(frozen=True)
class EnergyReport:
    """Snapshot of the functional at one grid function."""

    value: float
    grad_norm: float
    strong_residual: float
    alpha: float


def energy_report(u: GridFunction, prob: ProblemSpec, alpha: float = 1.0) -> EnergyReport:
    res = strong_residual(u, prob, alpha)
    return EnergyReport(value=energy(u, prob, alpha), grad_norm=res,
                        strong_residual=res, alpha=float(alpha))
