"""First eigenpair of the discrete p-Laplacian; full p = 2 spectrum in closed form.

The eigenvalue problem is
    -(phi_p(forward difference) differenced)(k) = lambda phi_p(u(k)),
with zero Dirichlet boundary.  The first eigenvalue is the minimum of the
Rayleigh quotient sum |du|^p / sum |u(k)|^p over non-zero grid functions.
In one dimension the eigen equation is the three-term recurrence
    phi_p(d(k)) = phi_p(d(k-1)) - lambda phi_p(u(k)),   d(k) = u(k+1) - u(k),
so first_eigenpair shoots it from u(0) = 0, u(1) = 1 over half the grid and
finds lambda on the sign of the symmetry defect: Illinois regula falsi
narrows a bracket on [0, 2] to adjacent floats.  O(T) per shot, no linear
algebra and no solver code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EIGEN_TOL, GridFunction, _check_p, _check_T, _dirichlet, _p_laplacian,
                   _positive, phi_p)


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
    """Raised when the eigen defect misses the tolerance; carries the best pair."""

    def __init__(self, message: str, best: EigenPair):
        super().__init__(message)
        self.best = best


def matrix_A(T: int) -> np.ndarray:
    """The T x T tridiagonal matrix with 2 on the diagonal, -1 off it."""
    T = _check_T(T)
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


def _shoot(lam: float, p: float, T: int) -> tuple[float, list[float] | None]:
    """Shoot u(0) = 0, u(1) = 1 through the eigen recurrence to the middle node.

    Steps phi_p(d(k)) = phi_p(d(k-1)) - lam phi_p(u(k)), d(k) = u(k+1) - u(k),
    up to m = ceil(T/2).  Returns (-1, None) as soon as a value is <= 0
    (lam lies above lambda_1); otherwise the defect of the symmetric
    eigen equation at m, positive while lam < lambda_1, and u(1..m).
    """
    e, inv = p - 1.0, 1.0 / (p - 1.0)
    x, flux, half = 1.0, 1.0, [1.0]
    for _ in range((T - 1) // 2):
        flux -= lam * x ** e
        x += math.copysign(abs(flux) ** inv, flux)
        if x <= 0.0:
            return -1.0, None
        half.append(x)
    # odd T: the flux leaves the middle node mirrored, even T: it vanishes
    return (1 + T % 2) * flux - lam * x ** e, half


def _illinois_bracket(p: float, T: int) -> tuple[tuple[float, list[float] | None], ...]:
    """((a, half_a), (b, half_b)): adjacent floats a < b in [0, 2] with a
    shot defect > 0 at a and <= 0 at b, each with the half profile its own
    shot returned.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the secant
    point of the bracket ends, with the value kept at one end halved each
    time that end survives twice in a row, so the bracket shrinks
    superlinearly where bisection gains one bit per shot.  A secant point
    that rounds onto an end falls back to the midpoint, and the search
    stops when no float lies strictly between the ends.
    """
    a, (fa, half_a) = 0.0, _shoot(0.0, p, T)
    b, (fb, half_b) = 2.0, _shoot(2.0, p, T)
    kept = 0  # +1: a moved last, -1: b moved last
    while a < (mid := 0.5 * (a + b)) < b:
        # a defect of exactly 0 at b pins the secant point to b: probe the
        # float below it, which ends the search where the sign change is clean
        c = math.nextafter(b, 0.0) if fb == 0.0 else (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            c = mid
        fc, half = _shoot(c, p, T)
        if fc > 0.0:
            a, fa, half_a = c, fc, half
            if kept > 0:
                fb *= 0.5
            kept = 1
        else:
            b, fb, half_b = c, fc, half
            if kept < 0:
                fa *= 0.5
            kept = -1
    return (a, half_a), (b, half_b)


def first_eigenpair(p: float, T: int, tol: float = EIGEN_TOL) -> EigenPair:
    """First eigenpair by symmetric shooting and a bracketed search on lambda.

    _shoot runs the eigen recurrence over half the grid; by discrete Sturm
    theory its symmetry defect changes sign once, at lambda_1, so
    _illinois_bracket narrows [0, 2] (the one-peak quotient is 2, so
    lambda_1 < 2) until its ends are adjacent floats, shooting no lambda
    twice.  Where the sign change is clean these are the ends any search
    to adjacent floats finds, plain bisection's included; where rounding
    noise flips the sign of the defect over a few floats next to lambda_1,
    they are one of the adjacent pairs that straddle a flip.  Of the two
    ends, the one whose mirrored, normalised half profile (kept from that
    end's own shot) has the smaller defect wins: phi is positive and
    exactly symmetric by construction.
    lambda_ is the Rayleigh quotient of that phi, hence >= lambda_1 up to
    rounding: the safe side for existence.alpha_threshold.

    The stop is relative: the defect must reach tol times
    min(1, lambda max phi^(p-1)), the size of the terms it balances, so
    large p and T (where lambda_1 is tiny) are held to their own scale.
    EigenPair.residual is the absolute defect.

    Raises EigenConvergenceError (carrying the pair) if the residual has
    not reached the tolerance.  Near the p -> 1 limit (p <= 1.1 on all but
    the smallest grids, p = 1.15 at T = 50 and p = 1.2 at T = 200) the
    eigenfunction approaches a plateau whose differences underflow the
    kink-sensitivity of phi_p, the defect cannot be represented at 1e-9 in
    float64, and the explicit failure is the honest outcome; its .best
    pair is still the eigenpair to the precision the arithmetic admits.
    """
    _check_p(p)
    T = _check_T(T)
    _positive("tol", tol)
    pairs = []
    for _, half in _illinois_bracket(p, T):
        if half is not None:
            v = np.array(half + half[::-1][T % 2:])
            phi = v / float(np.sum(v ** p)) ** (1.0 / p)
            lam_phi = _dirichlet(phi, p)  # the quotient: sum phi^p = 1
            defect = _p_laplacian(phi, p) - lam_phi * phi_p(phi, p)
            pairs.append(EigenPair(lambda_=lam_phi, phi=GridFunction.from_interior(phi),
                                   residual=float(np.max(np.abs(defect)))))
    pair = min(pairs, key=lambda pr: pr.residual)
    limit = tol * min(1.0, pair.lambda_ * float(np.max(pair.phi.interior)) ** (p - 1.0))
    if pair.residual > limit:
        raise EigenConvergenceError(
            f"first eigenpair (p={p}, T={T}) did not reach residual {limit:g} "
            f"(best {pair.residual:.3e})", pair)
    return pair
