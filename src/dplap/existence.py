"""Checkable sufficient conditions for existence, positivity and multiplicity.

Everything here is a mechanical verifier: it evaluates a closed-form
inequality on a concrete problem and reports a certificate with the numbers
that went into it.  Nothing in this module solves the difference equation;
a true verdict licenses a constrained solve (see the solver module) and an
a-posteriori sup-norm bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_EPS_GRID, DEFAULT_EPS_RANGE, ProblemSpec, _count, _positive,
                   c_const, kappa)
from .nonlinearities import _check_gamma, _value_at_root
from .spectrum import first_eigenpair, lambda1_closed_form_p2

CHI_SAMPLES = 1025
# rounds after chi's dense sample, each halving the spacing around the best
# point: 32 take it from eps/512 to eps * 4.5e-13 for 64 F values per node
CHI_ZOOM_ROUNDS = 32


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of the smallness test alpha chi(eps) < kappa^p / p.

    The test is homogeneous in alpha: it holds for every alpha below
    alpha_max = bound / chi_eps (for every alpha when chi_eps <= 0), and
    margin = bound - alpha chi_eps and verdict are taken at alpha.
    sigma = kappa^p * eps^p is the sublevel radius to hand to the solver;
    a true verdict promises a solution at alpha with sup norm below eps
    inside it.  nonzero is whether f(k, 0) != 0 at some node: when it is
    false, u = 0 is already such a solution.
    """

    eps: float
    chi_eps: float
    bound: float
    margin: float
    verdict: bool
    sigma: float
    alpha: float
    alpha_max: float
    nonzero: bool


@dataclass(frozen=True)
class MultiplicityWindow:
    """Open interval of alpha values for which three solutions are guaranteed,
    empty (verdict false) when the defining inequality fails at (c, d)."""

    c: float
    d: float
    alpha_lo: float
    alpha_hi: float
    verdict: bool


def _max_potentials(prob: ProblemSpec, eps: float) -> np.ndarray:
    """max of F_k over [-eps, eps] for k = 1..T.

    With breakpoints (a table) the max is exact: f is linear between the
    points x of -eps, the breakpoints inside and eps, so F peaks at one of
    them or at the root of a piece where f turns from positive to negative.

    Otherwise one F_at call per round over all nodes: a dense sample, then
    rounds that halve the spacing around each node's best point by sampling
    the two midpoints next to it.  Only points inside [-eps, eps] are
    evaluated: next to a best point at an endpoint the outer midpoint is
    skipped, as F there is F(+-eps), which the dense sample holds.  Returns
    the largest value evaluated, a lower bound on the max."""
    nl = prob.nonlinearity
    if nl.breakpoints is not None:
        x = np.concatenate(([-eps], nl.breakpoints[np.abs(nl.breakpoints) < eps], [eps]))
        k, xs = (a.ravel() for a in np.broadcast_arrays(np.arange(1, prob.T + 1)[:, None], x))
        F = nl.F_at(k, xs).reshape(prob.T, x.size)
        f = np.asarray(nl.f(k, xs), dtype=float).reshape(prob.T, x.size)
        f0, f1 = f[:, :-1], f[:, 1:]
        peak = _value_at_root(F[:, :-1], np.diff(x), f0, f1, (f0 > 0.0) & (f1 < 0.0))
        return np.maximum(F.max(axis=1), peak.max(axis=1))
    nodes = np.arange(1, prob.T + 1)[:, None]
    rows = np.arange(prob.T)
    best_x = np.zeros(prob.T)
    best = np.full(prob.T, -np.inf)
    xs = np.broadcast_to(np.linspace(-eps, eps, CHI_SAMPLES), (prob.T, CHI_SAMPLES))
    vals = nl.F_at(np.repeat(nodes, CHI_SAMPLES), xs.ravel()).reshape(xs.shape)
    spacing = 2.0 * eps / (CHI_SAMPLES - 1)
    for zoom in range(CHI_ZOOM_ROUNDS + 1):
        i = np.argmax(vals, axis=1)
        best_x = np.where(vals[rows, i] > best, xs[rows, i], best_x)
        best = np.maximum(best, vals[rows, i])
        if zoom == CHI_ZOOM_ROUNDS:
            return best
        spacing /= 2.0
        xs = best_x[:, None] + np.array([-spacing, spacing])
        inside = np.abs(xs) <= eps
        vals = np.full(xs.shape, -np.inf)
        vals[inside] = nl.F_at(np.broadcast_to(nodes, xs.shape)[inside], xs[inside])


def _pth_power(name: str, x: float, p: float) -> float:
    """x ** p; a ValueError naming x unless x is positive and finite and
    x ** p is a finite normal float (a subnormal power has lost digits)."""
    _positive(name, x)
    try:
        xp = math.pow(x, p)
    except OverflowError:
        xp = math.inf
    if not sys.float_info.min <= xp < math.inf:
        how = ("overflows" if xp == math.inf else
               "underflows to 0" if xp == 0.0 else "underflows to a subnormal")
        raise ValueError(f"{name} ** p {how} at {name} = {float(x)!r}, p = {float(p)!r}")
    return xp


def chi(eps: float, prob: ProblemSpec) -> float:
    """sum_k max_{|xi| <= eps} F_k(xi), divided by eps^p.

    Exact when the nonlinearity is flagged nonnegative or has breakpoints;
    otherwise the max is sampled (_max_potentials), a lower bound."""
    eps_p = _pth_power("eps", eps, prob.p)
    if prob.nonlinearity.is_nonnegative:
        # F_k is nondecreasing on [0, eps] and dominates the negative side,
        # so the max sits at the right endpoint.
        return h(eps, prob)
    with np.errstate(over="ignore"):  # an F_k past the float range: inf, a false verdict
        return float(np.sum(_max_potentials(prob, eps))) / eps_p


def h(xi: float, prob: ProblemSpec) -> float:
    """sum_k F_k(xi) / xi^p for xi > 0; inf where an F_k or the sum overflows."""
    xi_p = _pth_power("xi", xi, prob.p)
    with np.errstate(over="ignore"):
        F = prob.nonlinearity.F_at(np.arange(1, prob.T + 1), np.full(prob.T, float(xi)))
        return float(np.sum(F)) / xi_p


def check_thm_esistenza(prob: ProblemSpec, eps: float,
                        alpha: float = 1.0) -> ExistenceCertificate:
    """Evaluate the smallness condition alpha chi(eps) < kappa^p / p at one eps.

    A true verdict certifies at least one solution at alpha with sup norm
    < eps, reachable as a minimizer of J_alpha on the sublevel set of
    radius sigma (see minimize_on_sublevel).  alpha must be positive and
    finite.
    """
    alpha = _positive("alpha", alpha)
    chi_eps = chi(eps, prob)
    bound = c_const(prob.p, prob.T)
    sigma = kappa(prob.p, prob.T) ** prob.p * eps ** prob.p
    f0 = prob.nonlinearity.f_vec(np.zeros(prob.T))
    return ExistenceCertificate(eps=float(eps), chi_eps=chi_eps, bound=bound,
                                margin=bound - alpha * chi_eps,
                                verdict=bool(alpha * chi_eps < bound), sigma=sigma,
                                alpha=alpha,
                                alpha_max=bound / chi_eps if chi_eps > 0.0 else math.inf,
                                nonzero=bool(np.any(f0 != 0.0)))


def find_admissible_eps(prob: ProblemSpec,
                        eps_range: tuple[float, float] = DEFAULT_EPS_RANGE,
                        n_grid: int = DEFAULT_EPS_GRID,
                        alpha: float = 1.0) -> ExistenceCertificate | None:
    """Scan a geometric eps grid; return the certificate at alpha that passes
    with the largest margin, or None when no grid point passes."""
    try:
        lo, hi = eps_range
        ok = 0.0 < lo < hi < math.inf
    except (TypeError, ValueError):  # not a pair of numbers
        ok = False
    if not ok:
        raise ValueError("eps_range must satisfy 0 < lo < hi < inf")
    _pth_power("eps_range lo", lo, prob.p)
    _pth_power("eps_range hi", hi, prob.p)
    n_grid = _count("n_grid", n_grid)
    best: ExistenceCertificate | None = None
    for eps in np.geomspace(lo, hi, n_grid):
        cert = check_thm_esistenza(prob, float(eps), alpha)
        if cert.verdict and (best is None or cert.margin > best.margin):
            best = cert
    return best


def alpha_threshold(prob: ProblemSpec, gamma=None) -> float:
    """lambda_{1,p} / (p * min_k gamma_k), the lower edge of the alpha range
    that guarantees a positive solution for nonnegative f.

    gamma may be a scalar or a length-T sequence of the declared growth
    constants gamma_k = liminf_{xi->0+} F_k(xi)/xi^p.  When omitted, the
    nonlinearity's own declared gamma is used, a sequence by its first T
    entries as for other per-node data; with neither, a ValueError names
    gamma (a liminf cannot be read off finitely many samples).
    A table's gamma is known exactly, and one above it raises a ValueError
    naming the node.  At p = 2, lambda_1 is the closed form
    4 sin^2(pi/(2(T+1))).
    """
    nl = prob.nonlinearity
    if not nl.is_nonnegative:
        raise ValueError("alpha_threshold requires a nonlinearity flagged nonnegative")
    if gamma is None:
        gamma = nl.gamma
        if np.ndim(gamma) == 1:  # nodes 1..T use a declared sequence's first T entries
            gamma = tuple(gamma)[:prob.T]
    if gamma is None:
        raise ValueError("no gamma declared; pass gamma= or declare it on the nonlinearity")
    gam = _check_gamma(nl, gamma, prob.T, prob.p)
    p, T = prob.p, prob.T
    lam1 = lambda1_closed_form_p2(T) if p == 2.0 else first_eigenpair(p, T).lambda_
    return lam1 / (p * min(gam))


def check_three_solutions_window(prob: ProblemSpec, c: float, d: float) -> MultiplicityWindow:
    """Evaluate the two-radius inequality at 0 < c < d < inf and report the
    open alpha interval it yields.

    The inequality is
        chi(c) < (2^{p-1} / (T+1)^{p-1}) * (h(d) - (c/d)^p chi(c)),
    and when it holds every alpha in
        ( 2 / (p (h(d) - (c/d)^p chi(c))),  2^p / (p chi(c) (T+1)^{p-1}) )
    yields at least three solutions.  The upper endpoint is +inf when
    chi(c) = 0; the lower is +inf when the bracket is non-positive (the
    interval is then empty and the verdict false).  A ValueError names d
    where h(d) overflows.
    """
    if not 0.0 < c < d < math.inf:
        raise ValueError("require 0 < c < d < inf")
    p, T = prob.p, prob.T
    _pth_power("c", c, p)
    _pth_power("d", d, p)
    chi_c = chi(c, prob)
    h_d = h(d, prob)
    if not math.isfinite(h_d):
        raise ValueError(f"h(d) = sum_k F_k(d) / d^p overflows at d = {float(d)!r}")
    bracket = h_d - (c / d) ** p * chi_c
    try:  # these forms, bit for bit, wherever (T+1)^(p-1) is a float
        scale = 2.0 ** (p - 1.0) / (T + 1) ** (p - 1.0)
        alpha_hi = 2.0 ** p / (p * chi_c * (T + 1) ** (p - 1.0)) if chi_c > 0.0 else math.inf
    except OverflowError:  # 2^(p-1) / (T+1)^(p-1) is one power, representable or 0
        scale, alpha_hi = (2.0 / (T + 1)) ** (p - 1.0), 0.0
    if alpha_hi == 0.0:  # (T+1)^(p-1), or p chi(c) times it, overflowed
        alpha_hi = 2.0 * scale / (p * chi_c) if chi_c > 0.0 else math.inf
    rhs = scale * bracket
    verdict = bool(chi_c < rhs)
    alpha_lo = 2.0 / (p * bracket) if bracket > 0.0 else math.inf
    return MultiplicityWindow(c=float(c), d=float(d), alpha_lo=alpha_lo,
                              alpha_hi=alpha_hi, verdict=verdict)
