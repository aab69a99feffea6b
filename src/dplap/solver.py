"""Critical-point computation for the energy J_alpha.

Routes:
  - solve_descent: Armijo-backtracked gradient descent on J (any p > 1).
  - solve_newton_p2: damped Newton on the stationarity system for p = 2,
    globalized by the same energy line search as solve_descent (with a
    regularization ladder), so it cross-validates descent step for step.
  - minimize_on_sublevel: projected descent on the closed ball ||u||^p <= sigma,
    realizing the constrained-minimum existence argument.
  - multistart_solve / sweep_alpha: batching, deduplication, continuation.

Positivity classification and the nontriviality certificate live here too.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .core import (GridFunction, Nonlinearity, ProblemSpec, TablePotential,
                   p_laplacian, sup_norm)
from .energy import energy, gradient
from .spectrum import EigenConvergenceError, EigenPair, first_eigenpair

POSITIVE = "positive"
ZERO = "zero"
INDEFINITE = "indefinite"

_MIN_STEP = 1e-20
_BOUNDARY_SLACK = 1e-8
_STALL_WINDOW = 2000  # iterations without residual progress before giving up


@dataclass(frozen=True)
class SolverOptions:
    """Shared knobs for every solve routine.

    seed drives the counter-based multistart RNG and is recorded in each
    outcome so runs replay bit-for-bit.
    """

    tol: float = 1e-10
    max_iters: int = 100_000
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    seed: int = 0
    dedup_dist: float = 1e-6

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if int(self.max_iters) != self.max_iters or self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.backtrack < 1.0:
            raise ValueError("backtrack must lie in (0, 1)")
        if int(self.seed) != self.seed:
            raise ValueError("seed must be an integer")
        if not self.dedup_dist > 0.0:
            raise ValueError("dedup_dist must be positive")


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


def _check_alpha(alpha: float) -> None:
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")


def _check_start(prob: ProblemSpec, u0: GridFunction) -> np.ndarray:
    if u0.T != prob.T:
        raise ValueError(f"start has T={u0.T}, problem has T={prob.T}")
    return np.array(u0.interior, dtype=float)


def _pad(vec: np.ndarray) -> np.ndarray:
    out = np.zeros(vec.size + 2)
    out[1:-1] = vec
    return out


def _J(prob: ProblemSpec, alpha: float, vec: np.ndarray) -> float:
    # same arithmetic as energy(), skipping GridFunction construction:
    # solvers evaluate this in inner loops
    du = np.diff(_pad(vec))
    dirichlet = float(np.sum(np.abs(du) ** prob.p)) / prob.p
    pot = float(np.sum(prob.nonlinearity.F_vec(vec)))
    return dirichlet - alpha * pot


def _grad(prob: ProblemSpec, alpha: float, vec: np.ndarray) -> np.ndarray:
    du = np.diff(_pad(vec))
    flux = np.sign(du) * np.abs(du) ** (prob.p - 1.0)
    return -np.diff(flux) - alpha * prob.nonlinearity.f_vec(vec)


def _check_descent(Ju: float, Jc: float) -> None:
    """An accepted step never raises the energy (beyond float noise)."""
    if not Jc <= Ju + 1e-12 * (1.0 + abs(Ju)):
        raise RuntimeError(f"accepted step raised the energy from {Ju!r} to {Jc!r}")


def _finish(prob: ProblemSpec, alpha: float, vec: np.ndarray, res: float,
            iters: int, opts: SolverOptions, boundary_hit: bool = False) -> SolveOutcome:
    gf = GridFunction.from_interior(vec)
    converged = res <= opts.tol
    pos = check_positivity(gf, prob, alpha, opts.tol) if converged else INDEFINITE
    return SolveOutcome(u=gf, residual=float(res), energy=float(_J(prob, alpha, vec)),
                        iterations=int(iters), converged=bool(converged),
                        boundary_hit=bool(boundary_hit), positivity=pos,
                        seed=opts.seed)


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

    return Nonlinearity(f=f, potential=TablePotential.carry(nl.potential, potential),
                        df=df,
                        is_nonnegative=nl.is_nonnegative,
                        gamma=nl.gamma,
                        name=f"{nl.name}~trunc")


def _polish_stationarity(prob: ProblemSpec, alpha: float, u: np.ndarray,
                         tol: float, max_steps: int = 60) -> tuple[np.ndarray, float]:
    """Damped Newton on the stationarity system, driven by the residual.

    Energy line searches bottom out once per-step decreases drop below the
    float resolution of J (residuals around 1e-8 when |J| is order one);
    contracting the residual directly needs no energy comparisons and
    pushes to the tolerance.  Declines (returns the input) when a Jacobian
    weight (p-1)|du|^(p-2) is infinite, i.e. at a p < 2 kink.
    """
    from scipy.linalg import solve_banded

    p = prob.p
    nl = prob.nonlinearity
    g = _grad(prob, alpha, u)
    res = float(np.max(np.abs(g)))
    for _ in range(max_steps):
        if res <= 0.5 * tol:
            break
        d = np.diff(_pad(u))
        with np.errstate(divide="ignore"):
            w = (p - 1.0) * np.abs(d) ** (p - 2.0)
        if not np.all(np.isfinite(w)):
            break
        dfv = nl.df_vec(u)
        n = u.size
        improved = False
        for tau in (0.0, 1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e4):
            ab = np.zeros((3, n))
            ab[0, 1:] = -w[1:-1]
            ab[1, :] = w[:-1] + w[1:] - alpha * dfv + tau
            ab[2, :-1] = -w[1:-1]
            try:
                s = solve_banded((1, 1), ab, -g)
            except (LinAlgError, ValueError):
                continue
            if not np.all(np.isfinite(s)):
                continue
            t = 1.0
            while t >= 1e-12:
                cand = u + t * s
                gc = _grad(prob, alpha, cand)
                rc = float(np.max(np.abs(gc)))
                if np.isfinite(rc) and rc < res:
                    u, g, res = cand, gc, rc
                    improved = True
                    break
                t *= 0.5
            if improved:
                break
        if not improved:
            break
    return u, res


def solve_descent(prob: ProblemSpec, alpha: float, u0: GridFunction,
                  opts: SolverOptions | None = None) -> SolveOutcome:
    """Gradient descent on J_alpha with Armijo backtracking.

    The trial step doubles after every accepted step, so flat stretches do
    not trap the iteration at a tiny step size.  Energy is non-increasing
    across accepted iterates by construction.  When the line search stalls
    or the residual stops improving for a long stretch (energy comparisons
    bottom out in float noise near stationary points; degenerate directions
    produce sublinear crawls), a residual-driven Newton polish finishes the
    job; if that cannot reach the tolerance either, the outcome comes back
    flagged non-converged.
    """
    opts = opts if opts is not None else SolverOptions()
    _check_alpha(alpha)
    u = _check_start(prob, u0)
    Ju = _J(prob, alpha, u)
    g = _grad(prob, alpha, u)
    res = float(np.max(np.abs(g)))
    step = 1.0
    iters = 0
    best_res, best_at = res, 0
    while res > opts.tol and iters < opts.max_iters:
        gg = float(g @ g)
        t = min(2.0 * step, 1e6)
        moved = False
        while t >= _MIN_STEP:
            cand = u - t * g
            Jc = _J(prob, alpha, cand)
            if np.isfinite(Jc) and Jc <= Ju - opts.armijo_c * t * gg:
                moved = True
                break
            t *= opts.backtrack
        if not moved:
            break  # line search stalled below the minimum step
        _check_descent(Ju, Jc)
        u, Ju, step = cand, Jc, t
        g = _grad(prob, alpha, u)
        res = float(np.max(np.abs(g)))
        iters += 1
        if res < 0.99 * best_res:
            best_res, best_at = res, iters
        elif iters - best_at >= _STALL_WINDOW:
            break
    if res > opts.tol:
        u, res = _polish_stationarity(prob, alpha, u, opts.tol)
    return _finish(prob, alpha, u, res, iters, opts)


def _newton_direction(dfv: np.ndarray, alpha: float, g: np.ndarray) -> np.ndarray | None:
    """Regularized tridiagonal Newton solve.

    Walks a ladder of diagonal shifts until the system solves AND the
    resulting step is a descent direction for J (the Hessian may be
    indefinite away from minima; shifting restores descent, degrading
    gracefully toward a scaled gradient step).
    """
    from scipy.linalg import solve_banded

    n = g.size
    base = 2.0 - alpha * dfv
    for tau in (0.0, 1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e4):
        ab = np.zeros((3, n))
        ab[0, 1:] = -1.0
        ab[1, :] = base + tau
        ab[2, :-1] = -1.0
        try:
            s = solve_banded((1, 1), ab, -g)
        except (LinAlgError, ValueError):
            continue
        if np.all(np.isfinite(s)) and float(g @ s) < 0.0:
            return s
    return None


def solve_newton_p2(prob: ProblemSpec, alpha: float, u0: GridFunction,
                    opts: SolverOptions | None = None) -> SolveOutcome:
    """Damped Newton on J_alpha for p = 2, O(T) per iteration.

    Each step solves the tridiagonal Newton system (with a regularization
    ladder when it is singular or produces an ascent direction) and is
    accepted through the same Armijo test on the energy as solve_descent,
    falling back to a plain descent step when the Newton step is rejected.
    Near a nondegenerate minimum the full step passes and convergence is
    quadratic.  A stalled line search hands over to the residual-driven
    polish (which can land on a nearby saddle: legitimate critical point);
    only when that fails too does the outcome come back non-converged.
    """
    if prob.p != 2.0:
        raise ValueError("solve_newton_p2 requires p = 2")
    opts = opts if opts is not None else SolverOptions()
    _check_alpha(alpha)
    u = _check_start(prob, u0)
    nl = prob.nonlinearity
    Ju = _J(prob, alpha, u)
    g = _grad(prob, alpha, u)
    res = float(np.max(np.abs(g)))
    step = 1.0
    iters = 0
    best_res, best_at = res, 0
    while res > opts.tol and iters < opts.max_iters:
        candidates = []
        s = _newton_direction(nl.df_vec(u), alpha, g)
        if s is not None:
            candidates.append((s, float(g @ s), 1.0))
        candidates.append((-g, -float(g @ g), min(2.0 * step, 1e6)))
        moved = False
        for direction, slope, t0 in candidates:
            t = t0
            while t >= _MIN_STEP:
                cand = u + t * direction
                Jc = _J(prob, alpha, cand)
                if np.isfinite(Jc) and Jc <= Ju + opts.armijo_c * t * slope:
                    moved = True
                    break
                t *= opts.backtrack
            if moved:
                break
        if not moved:
            break
        _check_descent(Ju, Jc)
        u, Ju = cand, Jc
        if direction is not s:
            step = t  # remember the accepted plain-descent step size
        g = _grad(prob, alpha, u)
        res = float(np.max(np.abs(g)))
        iters += 1
        if res < 0.99 * best_res:
            best_res, best_at = res, iters
        elif iters - best_at >= _STALL_WINDOW:
            break  # residual crawl (e.g. circling a saddle): stop and polish
    if res > opts.tol:
        u, res = _polish_stationarity(prob, alpha, u, opts.tol)
    return _finish(prob, alpha, u, res, iters, opts)


def _psi(vec: np.ndarray, p: float) -> float:
    """||u||^p, the p-th power of the difference seminorm."""
    padded = np.zeros(vec.size + 2)
    padded[1:-1] = vec
    return float(np.sum(np.abs(np.diff(padded)) ** p))


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
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    opts = opts if opts is not None else SolverOptions()
    _check_alpha(alpha)
    p, T = prob.p, prob.T
    from .core import kappa  # local import keeps module top uncluttered

    def run(start: np.ndarray) -> SolveOutcome:
        u = start
        n = _psi(u, p)
        if n > sigma:
            u = u * (sigma / n) ** (1.0 / p)
        Ju = _J(prob, alpha, u)
        g = _grad(prob, alpha, u)
        res = float(np.max(np.abs(g)))
        step = 1.0
        iters = 0
        best_res, best_at = res, 0
        while res > opts.tol and iters < opts.max_iters:
            gg = float(g @ g)
            t = min(2.0 * step, 1e6)
            moved = False
            while t >= _MIN_STEP:
                cand = u - t * g
                n = _psi(cand, p)
                if n > sigma:
                    cand = cand * (sigma / n) ** (1.0 / p)
                Jc = _J(prob, alpha, cand)
                if np.isfinite(Jc) and Jc <= Ju - opts.armijo_c * t * gg:
                    moved = True
                    break
                t *= opts.backtrack
            if not moved:
                break  # stalled: either stationary or pinned to the boundary
            u, Ju, step = cand, Jc, t
            g = _grad(prob, alpha, u)
            res = float(np.max(np.abs(g)))
            iters += 1
            if res < 0.99 * best_res:
                best_res, best_at = res, iters
            elif iters - best_at >= _STALL_WINDOW:
                break  # residual crawl: give up on this start
        hit = _psi(u, p) >= sigma * (1.0 - _BOUNDARY_SLACK)
        if not hit and res > opts.tol:
            # interior stall: unconstrained polish, kept only if it stays inside
            cand, cres = _polish_stationarity(prob, alpha, u, opts.tol)
            if _psi(cand, p) < sigma * (1.0 - _BOUNDARY_SLACK):
                u, res = cand, cres
        return _finish(prob, alpha, u, res, iters, opts, boundary_hit=hit)

    rng = np.random.Generator(np.random.Philox(opts.seed))
    starts = [np.zeros(T)]
    for i in range(1, 9):
        direction = rng.standard_normal(T)
        n = _psi(direction, p)
        frac = 0.75 ** i  # spread the starts over the ball's radial shells
        starts.append(direction * (sigma * frac / n) ** (1.0 / p))

    outcomes = [run(s) for s in starts]
    # lowest energy is the ball minimizer; among runs tied at float
    # resolution, a converged interior one carries the stronger guarantee
    e_min = min(o.energy for o in outcomes)
    near = [o for o in outcomes
            if o.energy <= e_min + 1e-12 * (1.0 + abs(e_min))]
    near.sort(key=lambda o: (0 if o.converged and not o.boundary_hit else 1,
                             o.energy))
    best = near[0]
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
    -(phi_p(du)) difference >= 0 holds; we verify it up to -tol and report
    indefinite whenever it fails or the classification is ambiguous.
    alpha is part of the solve context but the premise needs only u.
    """
    lap = p_laplacian(u, prob.p)
    if np.min(lap) < -tol:
        return INDEFINITE
    if sup_norm(u) <= tol:
        return ZERO
    if float(np.min(u.interior)) > tol:
        return POSITIVE
    return INDEFINITE


def nontriviality_certificate(prob: ProblemSpec, alpha: float, eigen: EigenPair,
                              zeta_grid=None):
    """Search for zeta with J_alpha(zeta * phi_1) < 0.

    Returns (zeta, energy) for the first grid entry that works, scanning the
    given decreasing grid, or None when no entry does.  A hit certifies that
    the zero function is not the minimizer of J_alpha.
    """
    _check_alpha(alpha)
    if zeta_grid is None:
        zeta_grid = np.geomspace(1.0, 1e-8, 60)
    zs = np.asarray(zeta_grid, dtype=float)
    if zs.size == 0 or np.any(zs <= 0.0) or np.any(np.diff(zs) >= 0.0):
        raise ValueError("zeta_grid must be strictly decreasing and positive")
    for zeta in zs:
        scaled = GridFunction(eigen.phi.values * float(zeta))
        e = energy(scaled, prob, alpha)
        if e < 0.0:
            return float(zeta), float(e)
    return None


def _worker_count() -> int:
    raw = os.environ.get("DPLAP_THREADS")
    if raw is None or raw.strip() == "":
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError("DPLAP_THREADS must be an integer") from exc
    return max(1, n)


def _eigen_best_effort(p: float, T: int) -> EigenPair:
    try:
        return first_eigenpair(p, T)
    except EigenConvergenceError as exc:
        return exc.best  # starting shapes do not need full convergence


def multistart_solve(prob: ProblemSpec, alpha: float, n_starts: int,
                     opts: SolverOptions | None = None,
                     extra_starts=()) -> list[SolveOutcome]:
    """Solve from 0, +/- the sup-normalized first eigenfunction, any extra
    starts, and n_starts seeded uniform random starts; return the distinct
    converged solutions sorted by energy.

    Distinctness is sup-norm distance >= opts.dedup_dist, keeping the
    lowest-energy representative.  Runs are order-stable regardless of the
    DPLAP_THREADS worker count.
    """
    opts = opts if opts is not None else SolverOptions()
    _check_alpha(alpha)
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    T = prob.T
    eig = _eigen_best_effort(prob.p, T)
    profile = eig.phi.interior / np.max(np.abs(eig.phi.interior))
    starts = [np.zeros(T), profile.copy(), -profile]
    for extra in extra_starts:
        vec = extra.interior if isinstance(extra, GridFunction) else extra
        starts.append(np.array(vec, dtype=float))
    rng = np.random.Generator(np.random.Philox(opts.seed))
    for _ in range(n_starts):
        starts.append(rng.uniform(-2.0, 2.0, T))

    if prob.p == 2.0:
        def solve_one(vec):
            return solve_newton_p2(prob, alpha, GridFunction.from_interior(vec), opts)
    else:
        def solve_one(vec):
            return solve_descent(prob, alpha, GridFunction.from_interior(vec), opts)

    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(solve_one, starts))
    else:
        outcomes = [solve_one(s) for s in starts]

    kept: list[SolveOutcome] = []
    for cand in sorted((o for o in outcomes if o.converged), key=lambda o: o.energy):
        if all(float(np.max(np.abs(cand.u.interior - seen.u.interior))) >= opts.dedup_dist
               for seen in kept):
            kept.append(cand)
    return kept


@dataclass(frozen=True)
class SweepRow:
    """One alpha's summary; None fields render blank in the CSV."""

    alpha: float
    n_solutions: int
    min_energy: float | None
    sup_norm: float | None
    positivity: str | None
    nontriviality_zeta: float | None
    error: str = ""


def sweep_alpha(prob: ProblemSpec, alphas, opts: SolverOptions | None = None,
                n_starts: int = 8) -> list[SweepRow]:
    """Multistart solve per alpha, warm-started from the previous best.

    Rows come back in input order; a row that raises records the message in
    its error field and the sweep continues.  When the lowest energy is tied
    (odd nonlinearities pair u with -u), the positive representative is
    reported.
    """
    arr = np.asarray(list(alphas), dtype=float)
    if arr.size == 0:
        raise ValueError("alphas must be nonempty")
    if np.any(arr <= 0.0):
        raise ValueError("alpha must be positive")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError("alphas must be strictly increasing")
    opts = opts if opts is not None else SolverOptions()
    eig = _eigen_best_effort(prob.p, prob.T)
    rows: list[SweepRow] = []
    warm: np.ndarray | None = None
    for a in arr:
        a = float(a)
        try:
            extra = (warm,) if warm is not None else ()
            sols = multistart_solve(prob, a, n_starts, opts, extra_starts=extra)
            cert = nontriviality_certificate(prob, a, eig)
            zeta = cert[0] if cert is not None else None
            if sols:
                best = sols[0]
                ties = [s for s in sols
                        if s.energy <= best.energy + 1e-12 * (1.0 + abs(best.energy))]
                for s in ties:
                    if s.positivity == POSITIVE:
                        best = s
                        break
                rows.append(SweepRow(alpha=a, n_solutions=len(sols),
                                     min_energy=best.energy,
                                     sup_norm=sup_norm(best.u),
                                     positivity=best.positivity,
                                     nontriviality_zeta=zeta))
                warm = np.array(best.u.interior)
            else:
                rows.append(SweepRow(alpha=a, n_solutions=0, min_energy=None,
                                     sup_norm=None, positivity=None,
                                     nontriviality_zeta=zeta))
        except Exception as exc:
            rows.append(SweepRow(alpha=a, n_solutions=0, min_energy=None,
                                 sup_norm=None, positivity=None,
                                 nontriviality_zeta=None, error=str(exc)))
    return rows
