"""Critical-point computation for the energy J_alpha.

Routes:
  - solve_newton: globalised Newton on J (any p > 1).  Each iteration solves
    the tridiagonal Newton system once.  An LDL^T factorisation (dpttrf)
    tests the Jacobian for positive definiteness; only when it fails is
    the smallest eigenvalue computed (dstebz) and the diagonal shifted past
    it, so the step is a descent direction.  An Armijo test on the energy
    accepts it, or a gradient step takes over.  At p < 2 the small
    differences take secant weights, so a plateau (du = 0) is reached
    instead of overshot.
    multistart_solve runs every start through it; solve_newton_p2 is the
    same routine behind a p = 2 guard.
  - solve_descent: the same loop with plain gradient directions.
  - minimize_on_sublevel: gradient steps projected radially onto the closed
    ball ||u||^p <= sigma, realizing the constrained-minimum existence
    argument.
  - multistart_solve / sweep_alpha: batching, deduplication, continuation.

All three share one Armijo loop (_descend) and one residual-driven Newton
polish (_polish), both evaluating J_alpha, its gradient and its Newton
steps from (prob, alpha); the sublevel route adds its projection.  The loop
evaluates each iterate's gradient once, then stops, in this order, when the
residual reaches tol, when the step just taken left the energy unchanged in
floating point (the energy floor), when the residual stalled for
_STALL_WINDOW iterations, or at _MAX_ITERS; also when a line search fails.
Outcomes name the reason in stop_reason.  Every descent runs through one
runner, _solve, where short of tol the polish finishes the job with plain,
unshifted Newton steps: near a saddle H is indefinite by nature, and the
unshifted step is the one that converges to saddles as well as to minima.
The sublevel route hands _solve its projection and ball test: a run ending
on the boundary is not polished, and a polish leaving the ball is dropped.

The three LAPACK routines (dgtsv, dpttrf, dstebz) come from scipy's f2py
extension, which core._lapack loads on first use without importing the
scipy.linalg package.  At p = 2 the matrices they factor have the
constant Dirichlet part tridiag(-1, 2, -1) (energy._jacobian).

Positivity classification and the nontriviality certificate live here too.
truncate_nonnegative lives in nonlinearities and stays importable from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (SOLVER_TOL, GridFunction, ProblemSpec, _count, _dirichlet, _edges,
                   _finite, _lapack, _positive, _same_T, _sequence, kappa, p_laplacian,
                   sup_norm)
from .energy import _energy, _gradient, _jacobian
from .nonlinearities import truncate_nonnegative  # noqa: F401  (importable from here too)
from .spectrum import EigenConvergenceError, EigenPair, first_eigenpair

POSITIVE = "positive"
ZERO = "zero"
INDEFINITE = "indefinite"

# why the Armijo loop ended (SolveOutcome.stop_reason)
CONVERGED = "converged"
ENERGY_FLOOR = "energy_floor"
STALL_WINDOW = "stall_window"
LINE_SEARCH = "line_search"
MAX_ITERS = "max_iters"

_MIN_STEP = 1e-20
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test
_BACKTRACK = 0.5  # step factor after a rejected trial
_POLISH_STEPS = 60  # Newton steps the residual polish may take
_BOUNDARY_SLACK = 1e-8
_STALL_WINDOW = 2000  # iterations without residual progress before giving up
_MAX_ITERS = 100_000  # iterations before the Armijo loop stops (MAX_ITERS)
_DEDUP_DIST = 1e-6  # sup-norm distance below which multistart merges two solutions
_SHIFT_MARGIN = 0.1  # descent shift: H + tau I has smallest eigenvalue _SHIFT_MARGIN |lam|
_SECANT_SHARE = 1e-2  # p < 2: secant weights on |du| below this share of max|du|
_ZETA_GRID = np.geomspace(1.0, 1e-8, 60)  # nontriviality_certificate's decreasing scan


@dataclass(frozen=True)
class SolverOptions:
    """Settings shared by every solve routine: the residual tolerance and the seed.

    seed drives the counter-based multistart RNG and is recorded in each
    outcome so runs replay bit-for-bit.  The rest is fixed: the Armijo
    test's constants (_ARMIJO_C, _BACKTRACK), the iteration cap
    (_MAX_ITERS) and multistart's deduplication distance (_DEDUP_DIST).
    tol must be positive and finite and seed a non-negative integer (a
    whole float is stored as an int); otherwise construction raises a
    ValueError naming the field.
    """

    tol: float = SOLVER_TOL
    seed: int = 0

    def __post_init__(self):
        _positive("tol", self.tol)
        object.__setattr__(self, "seed", _count("seed", self.seed, least=0))


@dataclass(frozen=True)
class SolveOutcome:
    """One solve's result; converged=False flags a best-effort iterate."""

    u: GridFunction
    residual: float
    energy: float
    iterations: int
    converged: bool
    boundary_hit: bool = False
    positivity: str = INDEFINITE
    seed: int | None = None
    stop_reason: str = ""  # why the Armijo loop ended: one of the names above


def _tridiagonal_solve(lapack, diag: np.ndarray, off: np.ndarray,
                      g: np.ndarray) -> np.ndarray | None:
    """s solving H s = -g for the symmetric tridiagonal H = (diag, off), by
    the _lapack() module's dgtsv; None when the solve fails (H singular) or
    s is not finite."""
    s, info = lapack.dgtsv(off, diag, off, -g)[3:]
    return s if info == 0 and np.isfinite(s).all() else None


def _newton_step(prob: ProblemSpec, alpha: float, u: np.ndarray,
                 g: np.ndarray) -> np.ndarray | None:
    """The polish's plain Newton step: s solving H s = -g, unshifted.

    H is energy._jacobian at u with tangent weights (share 0).  None when H
    is not finite or _tridiagonal_solve finds no step.
    """
    diag, off = _jacobian(prob, alpha, u, 0.0)
    if not np.isfinite(diag).all():
        return None
    return _tridiagonal_solve(_lapack(), diag, off, g)


def _shifted_newton_step(prob: ProblemSpec, alpha: float, u: np.ndarray,
                         g: np.ndarray, du: np.ndarray | None = None) -> np.ndarray | None:
    """The descent loop's Newton direction: s solving (H + tau I) s = -g.

    H is energy._jacobian at u (secant share _SECANT_SHARE), from u's edges
    du when the caller has them.  The LDL^T factorisation dpttrf decides
    definiteness: when it succeeds H is positive definite and tau = 0.
    Only when it fails does dstebz compute the smallest eigenvalue lam, and
    tau = max(0, -(1 + _SHIFT_MARGIN) lam),
    so H + tau I is positive definite and s a descent direction (the
    eigenvalue modification of Nocedal & Wright, Numerical Optimization,
    2nd ed., section 3.4).  Either way _tridiagonal_solve solves for s.
    None when H is not finite, the eigenvalue or the solve fails, or s is
    not finite or not downhill.
    """
    lapack = _lapack()
    diag, off = _jacobian(prob, alpha, u, _SECANT_SHARE, du)
    if not np.isfinite(diag).all():
        return None
    if lapack.dpttrf(diag, off)[2] != 0:
        _, lam, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 1, 0.0, b"B")
        if info != 0:
            return None
        diag = diag + max(0.0, -(1.0 + _SHIFT_MARGIN) * float(lam[0]))
    s = _tridiagonal_solve(lapack, diag, off, g)
    return s if s is not None and float(g @ s) < 0.0 else None


def _polish(prob: ProblemSpec, alpha: float, u: np.ndarray,
            tol: float) -> tuple[np.ndarray, float]:
    """Damped Newton on grad J_alpha(u) = 0, driven by the gradient's sup norm.

    Energy line searches bottom out once per-step decreases drop below the
    float resolution of the energy (residuals around 1e-8 when it is order
    one); contracting the residual directly needs no energy comparisons and
    pushes to the tolerance.  Each iteration takes one plain Newton step
    (_newton_step: unshifted, so it can land on a saddle) and halves it
    until the residual drops; the polish stops when there is no step or no
    trial lowers the residual, returning the input if nothing improved.
    """
    g = _gradient(prob, alpha, u)
    res = float(np.abs(g).max())
    for _ in range(_POLISH_STEPS):
        if res <= 0.5 * tol:
            break
        s = _newton_step(prob, alpha, u, g)
        if s is None:
            break
        t = 1.0
        while t >= 1e-12:
            cand = u + t * s
            gc = _gradient(prob, alpha, cand)
            rc = float(np.abs(gc).max())
            if np.isfinite(rc) and rc < res:
                break
            t *= 0.5
        else:
            break  # no trial along s lowers the residual
        u, g, res = cand, gc, rc
    return u, res


def _armijo(prob: ProblemSpec, alpha: float, u: np.ndarray, Ju: float,
            direction: np.ndarray, slope: float, t: float, project):
    """The Armijo line search along direction from trial size t, halved by
    _BACKTRACK down to _MIN_STEP: (t, point, its edges, its energy) for the
    first trial (mapped by project, when given) whose finite energy passes
    the test against Ju and slope, or None.  Each trial computes its edges
    once; _descend reuses them for the gradient and the next Jacobian."""
    while t >= _MIN_STEP:
        cand = u + t * direction
        if project is not None:
            cand = project(cand)
        du = _edges(cand)
        Jc = _energy(prob, alpha, cand, du)
        if np.isfinite(Jc) and Jc <= Ju + _ARMIJO_C * t * slope:
            return t, cand, du, Jc
        t *= _BACKTRACK
    return None


def _descend(prob: ProblemSpec, alpha: float, u: np.ndarray, opts: SolverOptions,
             newton: bool, project=None) -> tuple[np.ndarray, float, float, int, str]:
    """The Armijo loop on J_alpha behind every route; returns (u, residual,
    energy, iterations, stop_reason) at its last iterate.

    With newton, each iteration first tries the spectrally shifted Newton
    step of _shifted_newton_step from t = 1 (one tridiagonal solve);
    without one, or when its line search fails, a gradient step whose trial
    size doubles after every accepted one, so flat stretches do not trap
    the iteration at a tiny step.  project, when given, maps every trial
    point (the sublevel route's radial pull-back onto its ball).  J is
    non-increasing across accepted iterates (a rise beyond float noise is a
    RuntimeError).  An accepted step that leaves J unchanged in floating
    point means Armijo can no longer see progress: the loop stops there
    (ENERGY_FLOOR) instead of idling until the stall window, and the
    residual polish in _solve takes over.  Each iterate's edge differences
    are computed once, by its trial, and its gradient once, at the top of
    the loop, where one block decides the stops in order: CONVERGED,
    ENERGY_FLOOR, STALL_WINDOW, MAX_ITERS (LINE_SEARCH comes from the step
    search).  The last iterate's energy is returned for _solve.
    """
    du = _edges(u)
    Ju = _energy(prob, alpha, u, du)
    step, iters, at_floor = 1.0, 0, False
    best_res, best_at = np.inf, 0
    while True:
        g = _gradient(prob, alpha, u, du)
        res = float(np.abs(g).max())
        if res < 0.99 * best_res:
            best_res, best_at = res, iters
        stop = (CONVERGED if res <= opts.tol else
                ENERGY_FLOOR if at_floor else
                STALL_WINDOW if iters - best_at >= _STALL_WINDOW else  # e.g. circling a saddle
                MAX_ITERS if iters >= _MAX_ITERS else None)
        if stop is not None:
            return u, res, Ju, iters, stop
        s = _shifted_newton_step(prob, alpha, u, g, du) if newton else None
        trial = None if s is None else _armijo(prob, alpha, u, Ju, s, float(g @ s), 1.0,
                                               project)
        if trial is None:
            trial = _armijo(prob, alpha, u, Ju, -g, -float(g @ g), min(2.0 * step, 1e6),
                            project)
            if trial is None:
                return u, res, Ju, iters, LINE_SEARCH
            step = trial[0]  # remember the accepted gradient step size
        _, cand, du, Jc = trial
        if not Jc <= Ju + 1e-12 * (1.0 + abs(Ju)):  # beyond float noise
            raise RuntimeError(f"accepted step raised the energy from {Ju!r} to {Jc!r}")
        at_floor = Jc >= Ju
        u, Ju = cand, Jc
        iters += 1


def _solve(prob: ProblemSpec, alpha: float, u0: GridFunction, opts: SolverOptions | None,
           newton: bool, project=None, inside=None) -> SolveOutcome:
    """The one runner behind every route: _descend from u0, then the outcome
    of its last iterate.

    Above opts.tol, _polish takes over; when it moved the point, the outcome
    reports the polished point, its residual and a fresh _energy.  project
    and inside, when given, are the sublevel route's radial pull-back and
    ball test: a descent ending outside the ball is boundary_hit and not
    polished, and a polish leaving it is dropped.
    """
    opts = opts if opts is not None else SolverOptions()
    _positive("alpha", alpha)
    _same_T("start", u0, prob.T)
    start = np.array(_finite("start", u0.interior))
    # an energy unbounded below drives iterates to overflow: _armijo rejects a
    # trial whose energy is not finite, _shifted_newton_step and _polish a step
    # that is not, so the warnings say nothing the outcome does not
    with np.errstate(over="ignore"):
        vec, res, J, iters, stop_reason = _descend(prob, alpha, start, opts, newton, project)
        boundary_hit = inside is not None and not inside(vec)
        if not boundary_hit and res > opts.tol:
            polished, pres = _polish(prob, alpha, vec, opts.tol)
            if polished is not vec and (inside is None or inside(polished)):
                vec, res, J = polished, pres, _energy(prob, alpha, polished)
        gf = GridFunction.from_interior(vec)
        converged = res <= opts.tol
        pos = check_positivity(gf, prob, alpha, opts.tol) if converged else INDEFINITE
    return SolveOutcome(u=gf, residual=float(res), energy=float(J),
                        iterations=int(iters), converged=bool(converged),
                        boundary_hit=bool(boundary_hit), positivity=pos,
                        seed=opts.seed, stop_reason=stop_reason)


def solve_newton(prob: ProblemSpec, alpha: float, u0: GridFunction,
                 opts: SolverOptions | None = None) -> SolveOutcome:
    """Globalised Newton on J_alpha for any p > 1, O(T) per iteration.

    Each step solves the tridiagonal Newton system once, its diagonal
    shifted past the smallest eigenvalue when the matrix is not positive
    definite, and is accepted through an Armijo test on the energy, falling
    back to a gradient step when the Newton step is rejected.  Near a
    nondegenerate minimum the full step passes and convergence is
    quadratic.  When Armijo stops seeing progress a residual-driven polish
    finishes (it can land on a nearby saddle: a legitimate critical point);
    only when that fails too does the outcome come back non-converged.
    """
    return _solve(prob, alpha, u0, opts, newton=True)


def solve_descent(prob: ProblemSpec, alpha: float, u0: GridFunction,
                  opts: SolverOptions | None = None) -> SolveOutcome:
    """Gradient descent on J_alpha with Armijo backtracking.

    The same loop and polish as solve_newton, with plain gradient
    directions; a cross-check of the Newton route, step for step slower.
    """
    return _solve(prob, alpha, u0, opts, newton=False)


def solve_newton_p2(prob: ProblemSpec, alpha: float, u0: GridFunction,
                    opts: SolverOptions | None = None) -> SolveOutcome:
    """solve_newton restricted to p = 2, where the Newton matrix is exact
    and constant in the Dirichlet part."""
    if prob.p != 2.0:
        raise ValueError("solve_newton_p2 requires p = 2")
    return solve_newton(prob, alpha, u0, opts)


def minimize_on_sublevel(prob: ProblemSpec, alpha: float, sigma: float,
                         opts: SolverOptions | None = None,
                         certificate=None) -> SolveOutcome:
    """Minimize J_alpha over the ball ||u||^p <= sigma by projected descent.

    Starts from 0 and from 8 random points scaled well inside the ball.
    Iterates leaving the ball are pulled back by exact radial rescaling.
    The lowest-energy run wins (ties at float resolution go to converged
    interior runs).  A minimizer with ||u||^p >= sigma (1 - 1e-8)
    is reported boundary_hit (the ball minimum, but not an unconstrained
    solution); only converged interior minimizers carry the constrained-
    minimum guarantee, and for those the embedding bound
    sup_norm(u) < (sigma/kappa^p)^(1/p) is asserted a posteriori (against
    certificate.eps too when one is given).
    """
    _positive("sigma", sigma)
    opts = opts if opts is not None else SolverOptions()
    p, T = prob.p, prob.T

    def project(vec: np.ndarray) -> np.ndarray:
        n = _dirichlet(vec, p)
        return vec * (sigma / n) ** (1.0 / p) if n > sigma else vec

    def inside(vec: np.ndarray) -> bool:
        return _dirichlet(vec, p) < sigma * (1.0 - _BOUNDARY_SLACK)

    rng = np.random.Generator(np.random.Philox(opts.seed))
    starts = [np.zeros(T)]
    for i in range(1, 9):
        direction = rng.standard_normal(T)
        n = _dirichlet(direction, p)
        frac = 0.75 ** i  # spread the starts over the ball's radial shells
        starts.append(direction * (sigma * frac / n) ** (1.0 / p))

    # lowest energy is the ball minimizer; among runs tied at float
    # resolution, a converged interior one carries the stronger guarantee
    runs = (_solve(prob, alpha, GridFunction.from_interior(project(s)), opts, False,
                   project, inside) for s in starts)
    best = _first_of_ties(sorted(runs, key=lambda o: o.energy),
                          lambda o: o.converged and not o.boundary_hit)
    if best.converged and not best.boundary_hit:
        eps_eq = (sigma / kappa(p, T) ** p) ** (1.0 / p)
        if not sup_norm(best.u) < eps_eq:
            raise RuntimeError("interior minimizer violates the embedding bound "
                               f"sup_norm {sup_norm(best.u):.6e} >= {eps_eq:.6e}")
        if certificate is not None and getattr(certificate, "verdict", False):
            if not sup_norm(best.u) < certificate.eps:
                raise RuntimeError("certificate bound sup_norm < eps violated")
    return best


def check_positivity(u: GridFunction, prob: ProblemSpec, alpha: float,
                     tol: float) -> str:
    """Classify a computed solution as positive, zero, or indefinite.

    The dichotomy (a solution with nonnegative p-Laplacian is either
    identically zero or strictly positive) only applies when the premise
    -(phi_p(du)) difference >= 0 holds; we verify it up to -tol (tol positive
    and finite) and report indefinite whenever it fails or the classification
    is ambiguous.  alpha is part of the solve context but the premise needs only u.
    """
    _positive("tol", tol)
    _same_T("u", u, prob.T)
    lap = p_laplacian(u, prob.p)
    if np.min(lap) < -tol:
        return INDEFINITE
    if sup_norm(u) <= tol:
        return ZERO
    if float(np.min(u.interior)) > tol:
        return POSITIVE
    return INDEFINITE


def nontriviality_certificate(prob: ProblemSpec, alpha: float, eigen: EigenPair):
    """Search for zeta with J_alpha(zeta * phi_1) < 0.

    Returns (zeta, energy) for the first entry of _ZETA_GRID (60 geometric
    zeta from 1 down to 1e-8) that works, or None when no entry does.  A
    hit certifies that the zero function is not the minimizer of J_alpha.
    """
    _positive("alpha", alpha)
    _same_T("eigen.phi", eigen.phi, prob.T)
    for zeta in _ZETA_GRID:
        e = _energy(prob, alpha, eigen.phi.interior * zeta)
        if e < 0.0:
            return float(zeta), float(e)
    return None


def _first_of_ties(outcomes: list[SolveOutcome], prefer) -> SolveOutcome:
    """The first of the energy-sorted outcomes that prefer accepts among those
    within 1e-12 (1 + |E_min|) of the lowest energy; the lowest one when
    prefer accepts none of them."""
    low = outcomes[0].energy
    cutoff = low + 1e-12 * (1.0 + abs(low))
    return next((o for o in outcomes if o.energy <= cutoff and prefer(o)), outcomes[0])


def _eigen_best_effort(p: float, T: int) -> EigenPair:
    try:
        return first_eigenpair(p, T)
    except EigenConvergenceError as exc:
        return exc.best  # starting shapes do not need full convergence


def multistart_solve(prob: ProblemSpec, alpha: float, n_starts: int,
                     opts: SolverOptions | None = None) -> list[SolveOutcome]:
    """Solve from 0, +/- the sup-normalized first eigenfunction and n_starts
    seeded uniform random starts; return the distinct converged solutions
    sorted by energy.

    Every start runs through solve_newton.  Distinctness is sup-norm
    distance >= _DEDUP_DIST, keeping the lowest-energy representative.
    The first solution is the one a report shows: among those tied with the
    lowest energy up to rounding, a positive one (odd nonlinearities pair u
    with -u at equal energy).
    """
    return _multistart(prob, alpha, n_starts, opts, None, _eigen_best_effort(prob.p, prob.T))


def _multistart(prob: ProblemSpec, alpha: float, n_starts: int, opts: SolverOptions | None,
                warm: np.ndarray | None, eig: EigenPair) -> list[SolveOutcome]:
    """multistart_solve with the first eigenpair given (sweep_alpha reuses
    one) and, when warm is not None, warm as one more start after the
    eigenfunction's."""
    opts = opts if opts is not None else SolverOptions()
    _positive("alpha", alpha)
    n_starts = _count("n_starts", n_starts)
    T = prob.T
    profile = eig.phi.interior / eig.phi.interior.max()  # phi > 0 on the interior
    starts = [np.zeros(T), profile, -profile]
    if warm is not None:
        starts.append(warm)
    rng = np.random.Generator(np.random.Philox(opts.seed))
    for _ in range(n_starts):
        starts.append(rng.uniform(-2.0, 2.0, T))

    outcomes = [solve_newton(prob, alpha, GridFunction.from_interior(vec), opts)
                for vec in starts]

    kept: list[SolveOutcome] = []
    for cand in sorted((o for o in outcomes if o.converged), key=lambda o: o.energy):
        if all(float(np.max(np.abs(cand.u.interior - seen.u.interior))) >= _DEDUP_DIST
               for seen in kept):
            kept.append(cand)
    if kept:
        first = _first_of_ties(kept, lambda o: o.positivity == POSITIVE)
        kept = [first] + [o for o in kept if o is not first]
    return kept


@dataclass(frozen=True)
class SweepRow:
    """One alpha's summary; None fields render blank in the CSV."""

    alpha: float
    n_solutions: int = 0
    min_energy: float | None = None
    sup_norm: float | None = None
    positivity: str | None = None
    nontriviality_zeta: float | None = None
    error: str = ""


def sweep_alpha(prob: ProblemSpec, alphas, opts: SolverOptions | None = None,
                n_starts: int = 8) -> list[SweepRow]:
    """Multistart solve per alpha, warm-started from the previous best.

    Rows come back in input order; a row that raises a ValueError or an
    ArithmeticError records the message in its error field and the sweep
    continues, while any other exception (a broken internal invariant, such
    as an accepted step that raised the energy) leaves the sweep.  Before
    the first row, alphas (any iterable) must be nonempty and strictly
    increasing with every entry positive and finite, and n_starts a
    positive integer; a ValueError names the one that is not.  When the
    lowest energy is tied (odd nonlinearities pair u with -u), the positive
    representative is reported.
    """
    arr = _sequence("alphas", alphas)
    _count("n_starts", n_starts)
    eig = _eigen_best_effort(prob.p, prob.T)
    rows: list[SweepRow] = []
    warm: np.ndarray | None = None
    for a in arr:
        a = float(a)
        try:
            sols = _multistart(prob, a, n_starts, opts, warm, eig)
            cert = nontriviality_certificate(prob, a, eig)
            zeta = cert[0] if cert is not None else None
            if sols:
                best = sols[0]
                rows.append(SweepRow(alpha=a, n_solutions=len(sols),
                                     min_energy=best.energy,
                                     sup_norm=sup_norm(best.u),
                                     positivity=best.positivity,
                                     nontriviality_zeta=zeta))
                warm = np.array(best.u.interior)
            else:
                rows.append(SweepRow(alpha=a, nontriviality_zeta=zeta))
        except (ValueError, ArithmeticError) as exc:
            rows.append(SweepRow(alpha=a, error=str(exc)))
    return rows
