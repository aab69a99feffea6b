"""The two benchmark workloads: fixed lists of operations built from a seed.

An operation has a timed part (``build`` makes a fresh Nonlinearity and
ProblemSpec, so no quad memo survives from one operation to the next, then
``call`` runs the library or the CLI) and an untimed ``check`` that re-derives
the result's claims instead of trusting the solver's flags.  ``check`` returns
(distinct solutions found, list of problems); any problem fails the operation.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import dplap

TOL = 1e-10        # SolverOptions / `dplap solve` default
EIGEN_TOL = 1e-9   # first_eigenpair / `dplap eigen` default
# Multistarts at p=2 on a non-convex energy (here and in check-cli's solve)
# use the solver's default seed for their random starts.  With seed-driven
# starts, 25-50% of the T=50 calls at alpha >= 0.1 (and some at T=200 and on
# the CLI's table) cross the 2000-iteration stall window, at 4-26 s each, so a
# run's crawl count is a Poisson draw that no run length averages out.
# Pinned starts keep exactly one alpha=3 crawl in every `solve` pass.
PINNED_SOLVER_SEED = 0


@dataclass
class Op:
    label: str
    build: Callable[[], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[int, list[str]]]


@dataclass
class Workload:
    name: str
    ops: list[Op]


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, *tags])


def _solver_seed(seed: int, index: int) -> int:
    return (seed % 2**32) * 100 + index


# -- independent checks ------------------------------------------------------

class Checks:
    """Re-derivations shared by the checks; eigenpairs are cached per (p, T)."""

    def __init__(self):
        self._eigen = {}

    def eigenpair(self, p: float, T: int) -> tuple[Any, list[str]]:
        if (p, T) not in self._eigen:
            try:
                pair = dplap.first_eigenpair(p, T)
            except dplap.EigenConvergenceError as exc:
                self._eigen[(p, T)] = (exc.best, [f"first_eigenpair(p={p}, T={T}): {exc}"])
            else:
                self._eigen[(p, T)] = (pair, eigen_problems(
                    pair.lambda_, pair.phi.values, p, EIGEN_TOL))
        return self._eigen[(p, T)]

    def solutions(self, prob, alpha: float, sols, tol: float = TOL) -> list[str]:
        if not sols:
            return ["no converged solution"]
        problems = []
        for s in sols:
            res = dplap.strong_residual(s.u, prob, alpha)
            if not res <= tol:
                problems.append(f"returned solution has strong residual {res:.3e} > {tol:g}")
        return problems


def eigen_problems(lam: float, values: np.ndarray, p: float, tol: float) -> list[str]:
    """Residual, positivity and normalisation of an eigenpair; closed form at p=2."""
    values = np.asarray(values, dtype=float)
    interior = values[1:-1]
    problems = []
    if values[0] != 0.0 or values[-1] != 0.0 or not np.all(interior > 0.0):
        problems.append("eigenfunction is not positive with zero boundary")
    if abs(float(np.sum(interior ** p)) - 1.0) > 1e-9:
        problems.append("eigenfunction is not normalised to sum phi^p = 1")
    gf = dplap.GridFunction(values)
    defect = dplap.p_laplacian(gf, p) - lam * dplap.phi_p(interior, p)
    res = float(np.max(np.abs(defect)))
    if not res <= tol * (1.0 + 1e-6):
        problems.append(f"eigen residual {res:.3e} > {tol:g}")
    if p == 2.0:
        closed = dplap.lambda1_closed_form_p2(interior.size)
        if abs(lam - closed) > 1e-9 * closed:
            problems.append(f"lambda_1 {lam!r} differs from closed form {closed!r}")
    return problems


def table_potential(ts: np.ndarray, fs: np.ndarray, xi: float) -> float:
    """Exact integral over [0, xi] of the piecewise-linear interpolant."""
    lo, hi = min(0.0, xi), max(0.0, xi)
    pts = np.concatenate(([lo], ts[(ts > lo) & (ts < hi)], [hi]))
    vals = np.interp(pts, ts, fs)
    area = float(np.sum((vals[1:] + vals[:-1]) * np.diff(pts))) / 2.0
    return area if xi >= 0.0 else -area


def table_max_potential(ts: np.ndarray, fs: np.ndarray, eps: float) -> float:
    """max of the table potential over [-eps, eps] on a 20001-point grid."""
    grid = np.union1d(np.linspace(-eps, eps, 20001), ts[np.abs(ts) < eps])
    vals = np.interp(grid, ts, fs)
    F = np.concatenate(([0.0], np.cumsum((vals[1:] + vals[:-1]) * np.diff(grid)) / 2.0))
    F -= np.interp(0.0, grid, F)  # potential vanishes at 0
    return float(np.max(F))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# -- in-process workloads ----------------------------------------------------

def _nonlinearity(kind: str, scales):
    nl = dplap.bounded_rational()
    return dplap.scaled_per_node(nl, scales) if kind == "scaled" else nl


def _multistart_op(checks: Checks, label: str, T: int, p: float, kind: str, scales,
                   alpha: float, n_starts: int, solver_seed: int) -> Op:
    opts = dplap.SolverOptions(seed=solver_seed)

    def build():
        return dplap.ProblemSpec(T=T, p=p, nonlinearity=_nonlinearity(kind, scales))

    def call(prob):
        return dplap.multistart_solve(prob, alpha, n_starts, opts)

    def check(prob, sols):
        _, problems = checks.eigenpair(p, T)  # the pair the starts are shaped from
        return len(sols), problems + checks.solutions(prob, alpha, sols, opts.tol)

    return Op(label, build, call, check)


def _sweep_op(checks: Checks, label: str, T: int, p: float, alphas, n_starts: int,
              solver_seed: int) -> Op:
    opts = dplap.SolverOptions(seed=solver_seed)

    def build():
        return dplap.ProblemSpec(T=T, p=p, nonlinearity=dplap.bounded_rational())

    def call(prob):
        return dplap.sweep_alpha(prob, alphas, opts, n_starts=n_starts)

    def check(prob, rows):
        pair, eig_problems = checks.eigenpair(p, T)
        problems = list(eig_problems)
        if [r.alpha for r in rows] != list(alphas):
            problems.append("sweep rows do not match the alphas")
        for r in rows:
            if r.error or r.n_solutions < 1:
                problems.append(f"alpha {r.alpha}: no solution ({r.error})")
            if r.nontriviality_zeta is not None:
                e = dplap.energy(dplap.GridFunction(pair.phi.values * r.nontriviality_zeta),
                                 prob, r.alpha)
                if not e < 0.0:
                    problems.append(f"alpha {r.alpha}: nontriviality certificate has "
                                    f"energy {e!r} >= 0")
        return sum(r.n_solutions for r in rows), problems

    return Op(label, build, call, check)


def _p2_ops(seed: int, checks: Checks) -> list[Op]:
    """p=2: the Newton path with closed-form kernel callbacks at large T."""
    scales = {T: _rng(seed, 1, T).uniform(0.5, 1.5, T) for T in (50, 200)}
    # (T, nonlinearity, alpha, seed-driven starts).  With f' <= 1 and scales
    # <= 1.5, alpha < lambda_1 / 1.5 (lambda_1 = 3.8e-3 at T=50, 2.4e-4 at
    # T=200) keeps the energy strictly convex with 0 its only critical point,
    # so seed-driven starts and scales cannot crawl there.
    plan = [
        (50, "bounded_rational", 0.002, True),
        (50, "scaled", 0.002, True),
        (200, "bounded_rational", 1e-4, True),
        (200, "bounded_rational", 0.01, False),
        (200, "bounded_rational", 0.03, False),
        (200, "bounded_rational", 0.1, False),
        (200, "bounded_rational", 0.5, False),
        (200, "bounded_rational", 1.0, False),
        (50, "bounded_rational", 3.0, False),
    ]
    ops = []
    for i, (T, kind, alpha, seeded) in enumerate(plan):
        sseed = _solver_seed(seed, i) if seeded else PINNED_SOLVER_SEED
        ops.append(_multistart_op(checks, f"multistart p=2 T={T} {kind} alpha={alpha:g}",
                                  T, 2.0, kind, scales[T], alpha, 8, sseed))
    return ops


def _pq_ops(seed: int, checks: Checks) -> list[Op]:
    """p=1.5 and p=3: the descent path, thousands of Armijo iterations per start."""
    # (p, T, n_starts), each multistart ~1.2-1.9 s: with the five T=200 p=2
    # operations (0.6-1.8 s) they make one dense cluster of operation times,
    # so op_s.p50 and op_s.tail do not sit on a gap between two sizes
    plan = [(1.5, 10, 4), (3.0, 10, 4), (1.5, 15, 1), (3.0, 20, 2)]
    base = 10  # solver seed indices apart from the p=2 operations'
    ops = [_multistart_op(checks, f"multistart p={p:g} T={T} alpha=1", T, p,
                          "bounded_rational", None, 1.0, n, _solver_seed(seed, base + i))
           for i, (p, T, n) in enumerate(plan)]
    ops.append(_sweep_op(checks, "sweep_alpha p=3 T=10 alphas=0.5,1,2", 10, 3.0,
                         (0.5, 1.0, 2.0), 1, _solver_seed(seed, base + len(plan))))
    return ops


def solve(seed: int) -> Workload:
    """In-process solves: the p=2 Newton operations, then the descent ones."""
    checks = Checks()
    return Workload("solve", _p2_ops(seed, checks) + _pq_ops(seed, checks))


# -- check-cli: `python -m dplap.cli` as a subprocess --------------------------

_HEADER = re.compile(r"^# (\w+) = (\S+)$", re.M)


def _headers(text: str) -> dict:
    return {k: v for k, v in _HEADER.findall(text)}


def _num(h: dict, key: str) -> float:
    return float(h[key])


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str


def check_cli(seed: int, workdir: str, runner: Callable[[list[str]], CliRun]) -> Workload:
    """runner(args) runs one `dplap` command line and returns its CliRun."""
    import dplap.cli
    checks = Checks()
    rng = _rng(seed, 2)
    bump = lambda n: 1.0 + 0.05 * rng.uniform(-1.0, 1.0, n)  # noqa: E731
    t_odd = np.linspace(-4.0, 4.0, 17)
    t_pos = np.linspace(0.0, 4.0, 9)
    t_small = np.linspace(-4.0, 4.0, 9)
    tables = {
        "eps": (t_odd, t_odd / (1 + t_odd ** 2) * bump(t_odd.size)),
        "scan": (t_pos, t_pos / (1 + t_pos ** 2) * bump(t_pos.size)),
        "cd": (t_pos, t_pos / (1 + t_pos ** 2) * bump(t_pos.size)),
        # unperturbed and solved from pinned starts (see PINNED_SOLVER_SEED)
        "solve": (t_small, t_small / (1 + t_small ** 2)),
    }
    configs = {
        "eps": {"T": 4, "p": 2.0},
        "scan": {"T": 6, "p": 2.0},
        "cd": {"T": 20, "p": 3.0, "gamma": 0.5},
        "solve": {"T": 5, "p": 2.0, "alpha": 1.0},
    }
    files = {}
    for key, cfg in configs.items():
        ts, fs = tables[key]
        cfg["nonlinearity"] = {"kind": "custom_table", "t": ts.tolist(), "f": fs.tolist(),
                               "is_nonnegative": key in ("scan", "cd")}
        files[key] = os.path.join(workdir, f"{key}.json")
        with open(files[key], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    result_path = os.path.join(workdir, "result.txt")

    def cli_op(label, args, expect_rc, verify):
        def check(_, run):
            problems = []
            if run.returncode != expect_rc:
                problems.append(f"exit code {run.returncode}, expected {expect_rc}: "
                                f"{run.stderr.strip()[-300:]}")
                return 0, problems
            try:
                n, more = verify(run.stdout)
            except (KeyError, ValueError, OSError) as exc:
                return 0, [f"unreadable output: {exc!r}"]
            return n, more
        return Op(label, lambda: None, lambda _: runner(args), check)

    def verify_certificate(key, exact):
        cfg = configs[key]
        ts, fs = tables[key]
        T, p = cfg["T"], cfg["p"]

        def verify(out):
            h = _headers(out)
            eps, chi_eps, bound = _num(h, "eps"), _num(h, "chi_eps"), _num(h, "bound")
            problems = []
            if not _close(bound, dplap.c_const(p, T), 1e-12):
                problems.append(f"bound {bound!r} != c_const(p, T)")
            if (h["verdict"] == "true") != (chi_eps < bound):
                problems.append(f"verdict {h['verdict']} but chi_eps {chi_eps!r} vs bound {bound!r}")
            if not _close(_num(h, "margin"), bound - chi_eps, 1e-12):
                problems.append("margin != bound - chi_eps")
            if exact:  # flagged nonnegative: chi is F(eps) summed over nodes
                ref = T * table_potential(ts, fs, eps) / eps ** p
            else:      # sampled maximum over [-eps, eps]
                ref = T * table_max_potential(ts, fs, eps) / eps ** p
            if not _close(chi_eps, ref, 1e-6):
                problems.append(f"chi_eps {chi_eps!r} differs from recomputed {ref!r}")
            return 0, problems
        return verify

    def verify_window(out):
        cfg = configs["cd"]
        ts, fs = tables["cd"]
        T, p = cfg["T"], cfg["p"]
        h = _headers(out)
        c, d = _num(h, "c"), _num(h, "d")
        chi_c = T * table_potential(ts, fs, c) / c ** p
        h_d = T * table_potential(ts, fs, d) / d ** p
        bracket = h_d - (c / d) ** p * chi_c
        verdict = chi_c < 2.0 ** (p - 1.0) / (T + 1) ** (p - 1.0) * bracket
        problems = []
        if (h["verdict"] == "true") != verdict:
            problems.append(f"window verdict {h['verdict']}, recomputed {verdict}")
        if bracket > 0.0 and not _close(_num(h, "alpha_lo"), 2.0 / (p * bracket), 1e-6):
            problems.append("alpha_lo differs from recomputed value")
        if chi_c > 0.0 and not _close(
                _num(h, "alpha_hi"), 2.0 ** p / (p * chi_c * (T + 1) ** (p - 1.0)), 1e-6):
            problems.append("alpha_hi differs from recomputed value")
        pair, eig_problems = checks.eigenpair(p, T)
        threshold = pair.lambda_ / (p * cfg["gamma"])
        if not _close(_num(h, "alpha_threshold"), threshold, 1e-9):
            problems.append(f"alpha_threshold {h['alpha_threshold']} != lambda_1/(p gamma)")
        return 0, problems + eig_problems

    def verify_solve(out):
        headers, u = dplap.cli.read_result(result_path)
        with open(files["solve"], encoding="utf-8") as fh:
            prob, _, _ = dplap.cli.build_problem(json.load(fh))
        alpha = headers["alpha"]
        res = dplap.strong_residual(u, prob, alpha)
        problems = []
        if not res <= TOL:
            problems.append(f"re-read solution has strong residual {res:.3e} > {TOL:g}")
        if abs(res - headers["residual"]) > 1e-12:
            problems.append("residual header differs from the recomputed residual")
        m = re.search(r"(\d+) distinct solution", out)
        return (int(m.group(1)) if m else 0), problems

    def verify_eigen(p):
        def verify(out):
            h = _headers(out)
            rows = [line.split() for line in out.splitlines()
                    if line and not line.startswith("#")]
            values = np.array([float(v) for _, v in rows])
            return 0, eigen_problems(_num(h, "lambda_1"), values, p, EIGEN_TOL)
        return verify

    ops = [
        cli_op("check --eps 0.5 (sampled chi, table T=4)",
               ["check", files["eps"], "--eps", "0.5"], 2, verify_certificate("eps", False)),
        cli_op("check --eps-scan (flagged table T=6)",
               ["check", files["scan"], "--eps-scan", "--eps-lo", "0.01", "--eps-hi", "10",
                "--eps-n", "40"], 0, verify_certificate("scan", True)),
        cli_op("check --cd 0.5 5 gamma p=3 T=20",
               ["check", files["cd"], "--cd", "0.5", "5"], 2, verify_window),
        cli_op("solve table T=5 alpha=1",
               ["solve", files["solve"], "--seed", str(PINNED_SOLVER_SEED),
                "--out", result_path],
               0, verify_solve),
        cli_op("eigen p=1.5 T=200", ["eigen", "--p", "1.5", "--T", "200"], 0, verify_eigen(1.5)),
        cli_op("eigen p=3 T=200", ["eigen", "--p", "3", "--T", "200"], 0, verify_eigen(3.0)),
    ]
    return Workload("check-cli", ops)


def run_cli(cmd_prefix: list[str], args: list[str], env: dict) -> CliRun:
    proc = subprocess.run(cmd_prefix + args, env=env, capture_output=True, text=True,
                          timeout=170)
    return CliRun(proc.returncode, proc.stdout, proc.stderr)


IN_PROCESS = {"solve": solve}
