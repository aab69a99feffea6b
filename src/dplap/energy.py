"""The variational structure: energy, gradient, Newton matrix, residuals.

The sign conventions make "gradient = 0" literally the strong form of the
difference equation, so a converged solver iterate is a solution.
"""

from __future__ import annotations

import numpy as np

from .core import (GridFunction, ProblemSpec, _dirichlet, _edges, _p_laplacian, _positive,
                   _same_T, phi_p)

_EPS = np.finfo(float).eps  # floors of the p < 2 secant weights (_newton_weights)
_TINY = np.finfo(float).tiny


# J_alpha and its derivatives on interior arrays: every caller goes through
# these.  du, when given, is _edges(vec), computed once per iterate by the caller.
def _energy(prob: ProblemSpec, alpha: float, vec: np.ndarray,
            du: np.ndarray | None = None) -> float:
    return (_dirichlet(vec, prob.p, du) / prob.p
            - alpha * float(prob.nonlinearity.F_vec(vec).sum()))


def _gradient(prob: ProblemSpec, alpha: float, vec: np.ndarray,
              du: np.ndarray | None = None) -> np.ndarray:
    return _p_laplacian(vec, prob.p, du) - alpha * prob.nonlinearity.f_vec(vec)


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


def _jacobian(prob: ProblemSpec, alpha: float, vec: np.ndarray, share: float,
              du: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the tridiagonal Newton matrix of J_alpha:
    edge weights from _newton_weights, minus alpha f' on the diagonal.  At
    p = 2 every weight is 1.0 * |du| ** 0.0 = 1.0 exactly, so the Dirichlet
    part is tridiag(-1, 2, -1), written down without the edges."""
    if prob.p == 2.0:
        return 2.0 - alpha * prob.nonlinearity.df_vec(vec), np.full(vec.size - 1, -1.0)
    w = _newton_weights(prob.p, _edges(vec) if du is None else du, share)
    return w[:-1] + w[1:] - alpha * prob.nonlinearity.df_vec(vec), -w[1:-1]


def energy(u: GridFunction, prob: ProblemSpec, alpha: float = 1.0) -> float:
    """J_alpha(u) = (1/p) sum_{k=1}^{T+1} |u(k)-u(k-1)|^p - alpha sum_k F_k(u(k)).

    alpha = 1 recovers the unparametrised functional.
    """
    _positive("alpha", alpha)
    _same_T("u", u, prob.T)
    return _energy(prob, alpha, u.interior)


def gradient(u: GridFunction, prob: ProblemSpec, alpha: float = 1.0) -> np.ndarray:
    """Coordinate gradient <J'_alpha(u), e_k> for k = 1..T.

    Component k equals -[phi_p(u(k+1)-u(k)) - phi_p(u(k)-u(k-1))]
    - alpha f(k, u(k)), the defect of the strong difference equation.
    """
    _positive("alpha", alpha)
    _same_T("u", u, prob.T)
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
    _positive("alpha", alpha)
    _same_T("u", u, prob.T)
    _same_T("test function", v, prob.T)
    du = np.diff(u.values)
    dv = np.diff(v.values)
    bilinear = float(phi_p(du, prob.p) @ dv)
    load = float(prob.nonlinearity.f_vec(u.interior) @ v.interior)
    return bilinear - alpha * load

