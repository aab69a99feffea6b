"""Checkable sufficient conditions for existence, positivity and multiplicity.

Everything here is a mechanical verifier: it evaluates a closed-form
inequality on a concrete problem and reports a certificate with the numbers
that went into it.  Nothing in this module solves the difference equation;
a true verdict licenses a constrained solve (see the solver module) and an
a-posteriori sup-norm bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemSpec, c_const, kappa
from .spectrum import first_eigenpair, lambda1_closed_form_p2

CHI_SAMPLES = 1025
DEFAULT_EPS_RANGE = (1e-3, 1e3)
DEFAULT_EPS_GRID = 200
DEFAULT_GAMMA_SAMPLES = (1.0, 0.1, 0.01)


@dataclass(frozen=True)
class ExistenceCertificate:
    """Outcome of the smallness test chi(eps) < kappa^p / p.

    sigma = kappa^p * eps^p is the sublevel radius to hand to the solver;
    a true verdict promises a solution with sup norm below eps inside it.
    """

    eps: float
    chi_eps: float
    bound: float
    margin: float
    verdict: bool
    sigma: float


@dataclass(frozen=True)
class MultiplicityWindow:
    """Open interval of alpha values for which three solutions are guaranteed,
    empty (verdict false) when the defining inequality fails at (c, d)."""

    c: float
    d: float
    alpha_lo: float
    alpha_hi: float
    verdict: bool


@dataclass(frozen=True)
class DecayReport:
    """Sampled values of h along an increasing probe, with a heuristic verdict.

    verdict is true iff the second half of the probe is non-increasing and
    the final value sits below tol.  A finite sample cannot prove a limit;
    treat this as advisory.
    """

    xi: np.ndarray
    h_values: np.ndarray
    tol: float
    verdict: bool


def _golden_max(fun, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-12,
                iters: int = 200) -> np.ndarray:
    """Golden-section maximization of continuous functions, one per row.

    fun(rows, x) evaluates the functions of the given rows at x.  Row i
    searches [lo[i], hi[i]] and stops on its own tolerance, so it takes the
    same iterates as a search of that row alone.  Returns the row maxima.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    rows = np.arange(a.size)
    f1, f2 = fun(rows, x1), fun(rows, x2)
    for _ in range(iters):
        act = np.flatnonzero(~(b - a <= tol * (1.0 + np.abs(a) + np.abs(b))))
        if act.size == 0:
            break
        up = f1[act] < f2[act]
        a[act] = np.where(up, x1[act], a[act])
        b[act] = np.where(up, b[act], x2[act])
        aa, bb = a[act], b[act]
        new = np.where(up, aa + invphi * (bb - aa), bb - invphi * (bb - aa))
        fnew = fun(act, new)
        x1[act], x2[act] = np.where(up, x2[act], new), np.where(up, new, x1[act])
        f1[act], f2[act] = np.where(up, f2[act], fnew), np.where(up, fnew, f1[act])
    return np.where(f1 >= f2, f1, f2)


def _max_potentials(prob: ProblemSpec, eps: float) -> np.ndarray:
    """max of F_k over [-eps, eps] for k = 1..T: dense sampling plus
    golden-section polish, each evaluated over all nodes at once."""
    nl = prob.nonlinearity
    nodes = np.arange(1, prob.T + 1)
    if nl.is_nonnegative:
        # F_k is nondecreasing on [0, eps] and dominates the negative side,
        # so the max sits at the right endpoint.
        return nl.F_at(nodes, np.full(prob.T, float(eps)))
    xs = np.linspace(-eps, eps, CHI_SAMPLES)
    vals = nl.F_at(np.repeat(nodes, CHI_SAMPLES), np.tile(xs, prob.T))
    vals = vals.reshape(prob.T, CHI_SAMPLES)
    i = np.argmax(vals, axis=1)
    lo = xs[np.maximum(i - 1, 0)]
    hi = xs[np.minimum(i + 1, CHI_SAMPLES - 1)]
    polished = _golden_max(lambda rows, x: nl.F_at(nodes[rows], x), lo, hi)
    return np.maximum(vals[np.arange(prob.T), i], polished)


def chi(eps: float, prob: ProblemSpec) -> float:
    """sum_k max_{|xi| <= eps} F_k(xi), divided by eps^p."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return float(np.sum(_max_potentials(prob, eps))) / eps ** prob.p


def h(xi: float, prob: ProblemSpec) -> float:
    """sum_k F_k(xi) / xi^p for xi > 0."""
    if not xi > 0.0:
        raise ValueError("xi must be positive")
    F = prob.nonlinearity.F_at(np.arange(1, prob.T + 1), np.full(prob.T, float(xi)))
    return float(np.sum(F)) / xi ** prob.p


def check_thm_esistenza(prob: ProblemSpec, eps: float) -> ExistenceCertificate:
    """Evaluate the smallness condition chi(eps) < kappa^p / p at one eps.

    A true verdict certifies at least one solution with sup norm < eps,
    reachable as a minimizer of the energy on the sublevel set of radius
    sigma (see minimize_on_sublevel).
    """
    chi_eps = chi(eps, prob)
    bound = c_const(prob.p, prob.T)
    sigma = kappa(prob.p, prob.T) ** prob.p * eps ** prob.p
    return ExistenceCertificate(eps=float(eps), chi_eps=chi_eps, bound=bound,
                                margin=bound - chi_eps,
                                verdict=bool(chi_eps < bound), sigma=sigma)


def find_admissible_eps(prob: ProblemSpec,
                        eps_range: tuple[float, float] = DEFAULT_EPS_RANGE,
                        n_grid: int = DEFAULT_EPS_GRID) -> ExistenceCertificate | None:
    """Scan a geometric eps grid; return the passing certificate of largest
    margin, or None when no grid point passes."""
    lo, hi = eps_range
    if not (0.0 < lo < hi):
        raise ValueError("eps_range must satisfy 0 < lo < hi")
    if n_grid < 1:
        raise ValueError("n_grid must be at least 1")
    best: ExistenceCertificate | None = None
    for eps in np.geomspace(lo, hi, n_grid):
        cert = check_thm_esistenza(prob, float(eps))
        if cert.verdict and (best is None or cert.margin > best.margin):
            best = cert
    return best


def estimate_gamma(prob: ProblemSpec, k: int,
                   xi_samples=DEFAULT_GAMMA_SAMPLES) -> float:
    """HEURISTIC lower estimate of liminf_{xi -> 0+} F_k(xi)/xi^p.

    Returns the minimum of F_k(xi)/xi^p over the given samples.  A finite
    sample cannot certify a liminf; alpha_threshold only consumes this
    through an explicit opt-in flag.
    """
    xs = np.asarray(xi_samples, dtype=float)
    if xs.size == 0 or np.any(xs <= 0.0) or np.any(np.diff(xs) >= 0.0):
        raise ValueError("xi_samples must be strictly decreasing and positive")
    F = prob.nonlinearity.F_at(np.full(xs.size, k), xs)
    return float(np.min(F / xs ** prob.p))


def alpha_threshold(prob: ProblemSpec, gamma=None,
                    allow_estimated: bool = False) -> float:
    """lambda_{1,p} / (p * min_k gamma_k), the lower edge of the alpha range
    that guarantees a positive solution for nonnegative f.

    gamma may be a scalar or a length-T sequence of the declared growth
    constants gamma_k = liminf_{xi->0+} F_k(xi)/xi^p.  When omitted, the
    nonlinearity's own declared gamma is used; if that is also missing, the
    heuristic estimate_gamma is substituted only when allow_estimated=True.
    For p = 2 the closed form (2/min gamma) sin^2(pi/(2(T+1))) is computed
    as well and the two expressions are asserted to agree.
    """
    nl = prob.nonlinearity
    if not nl.is_nonnegative:
        raise ValueError("alpha_threshold requires a nonlinearity flagged nonnegative")
    if gamma is None:
        gamma = nl.gamma
    if gamma is None:
        if not allow_estimated:
            raise ValueError(
                "no gamma declared; pass gamma= or set allow_estimated=True "
                "to accept the heuristic sampled estimate")
        gamma = [estimate_gamma(prob, k) for k in range(1, prob.T + 1)]
    gam = np.broadcast_to(np.asarray(gamma, dtype=float), (prob.T,))
    if np.any(gam <= 0.0):
        raise ValueError("gamma entries must be positive")
    gmin = float(np.min(gam))
    p, T = prob.p, prob.T
    if p == 2.0:
        lam1 = lambda1_closed_form_p2(T)
        threshold = lam1 / (2.0 * gmin)
        display = (2.0 / gmin) * math.sin(math.pi / (2.0 * (T + 1))) ** 2
        if abs(threshold - display) > 1e-12 * max(1.0, abs(threshold)):
            raise AssertionError("p=2 threshold displays disagree")
        return threshold
    lam1 = first_eigenpair(p, T).lambda_
    return lam1 / (p * gmin)


def check_superlinearity_decay(prob: ProblemSpec, xi_probe=None,
                               tol: float = 1e-2) -> DecayReport:
    """Sample h along an increasing probe and judge whether it decays.

    The verdict is a heuristic limit check: true iff h is non-increasing
    over the second half of the probe and the final value is below tol.
    """
    if xi_probe is None:
        xi_probe = np.geomspace(1.0, 1e4, 9)
    xs = np.asarray(xi_probe, dtype=float)
    if xs.size < 2 or np.any(xs <= 0.0) or np.any(np.diff(xs) <= 0.0):
        raise ValueError("xi_probe must be strictly increasing and positive")
    hv = np.array([h(float(x), prob) for x in xs])
    tail = hv[xs.size // 2:]
    slack = 1e-12 * np.maximum(1.0, np.abs(tail[:-1]))
    monotone = bool(np.all(np.diff(tail) <= slack))
    verdict = monotone and bool(tail[-1] < tol)
    return DecayReport(xi=xs, h_values=hv, tol=tol, verdict=verdict)


def check_three_solutions_window(prob: ProblemSpec, c: float, d: float) -> MultiplicityWindow:
    """Evaluate the two-radius inequality at 0 < c < d and report the open
    alpha interval it yields.

    The inequality is
        chi(c) < (2^{p-1} / (T+1)^{p-1}) * (h(d) - (c/d)^p chi(c)),
    and when it holds every alpha in
        ( 2 / (p (h(d) - (c/d)^p chi(c))),  2^p / (p chi(c) (T+1)^{p-1}) )
    yields at least three solutions.  The upper endpoint is +inf when
    chi(c) = 0; the lower is +inf when the bracket is non-positive (the
    interval is then empty and the verdict false).
    """
    if not (0.0 < c < d):
        raise ValueError("require 0 < c < d")
    p, T = prob.p, prob.T
    chi_c = chi(c, prob)
    h_d = h(d, prob)
    bracket = h_d - (c / d) ** p * chi_c
    rhs = 2.0 ** (p - 1.0) / (T + 1) ** (p - 1.0) * bracket
    verdict = bool(chi_c < rhs)
    alpha_lo = 2.0 / (p * bracket) if bracket > 0.0 else math.inf
    alpha_hi = (2.0 ** p / (p * chi_c * (T + 1) ** (p - 1.0))
                if chi_c > 0.0 else math.inf)
    return MultiplicityWindow(c=float(c), d=float(d), alpha_lo=alpha_lo,
                              alpha_hi=alpha_hi, verdict=verdict)
