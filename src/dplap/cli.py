"""Batch command-line front end.

Subcommands: solve, eigen, check, sweep, selftest.  Problem configs are JSON
files (one problem per file); results are line-oriented text with `# key =
value` headers and `k u(k)` rows; sweeps are CSV.  Numbers are printed with
17 significant digits so files round-trip doubles losslessly.

Every call is a fresh process, so only dplap.core is imported up front and
each command imports the modules it runs: `eigen` needs no solver,
existence or nonlinearities module, and `solve` and `sweep` no existence.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import core
from .core import GridFunction, Nonlinearity, ProblemSpec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_RESULT = 2
EXIT_SELFTEST_FAIL = 3

RESULT_HEADER_KEYS = ("T", "p", "alpha", "seed", "residual", "energy")
_CERTIFICATE_KEYS = ("eps", "chi_eps", "bound", "margin", "sigma", "verdict", "alpha",
                     "alpha_max", "nonzero")
_WINDOW_KEYS = ("c", "d", "alpha_lo", "alpha_hi", "verdict")


class ConfigError(ValueError):
    """Invalid config; carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{float(x):.17g}"


def _header(key: str, val) -> str:
    """One `# key = value` header line of a report or result file."""
    return f"# {key} = {_fmt(val)}"


def _print_headers(obj, keys) -> None:
    for key in keys:
        print(_header(key, getattr(obj, key)))


def load_config(path: str) -> dict:
    import json  # `eigen` and `selftest` read no config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("file", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("file", f"not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("file", "top level must be an object")
    return cfg


def _numbers(field: str, vals, what: str) -> list:
    """vals, unless it is not a list of JSON numbers in the float range (not
    booleans, strings, NaN, Infinity or a 400-digit integer): the one gate for
    config numbers; every value rule after it is the library's, via _as_field."""
    if not isinstance(vals, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max for v in vals):
        raise ConfigError(field, f"must be {what}")
    return vals


def _number(obj: dict, key: str, field: str):
    """The required number obj[key], through the gate."""
    if key not in obj:
        raise ConfigError(field, "missing")
    return _numbers(field, [obj[key]], "a number")[0]


def _as_field(field: str, build, *args):
    """build(*args), a ValueError it raises reported on the config field."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


def _custom_table(nls, nl_cfg: dict) -> Nonlinearity:
    if "t" not in nl_cfg or "f" not in nl_cfg:
        raise ConfigError("nonlinearity", "custom_table needs 't' and 'f' sample arrays")
    t, f = nl_cfg["t"], nl_cfg["f"]
    flag = nl_cfg.get("is_nonnegative", False)
    _numbers("nonlinearity.t", t, "a list of finite numbers")
    for r in f if isinstance(f, list) and f and isinstance(f[0], list) else [f]:
        _numbers("nonlinearity.f", r, "a list of finite numbers, or a list of such rows")
    if not isinstance(flag, bool):
        raise ConfigError("nonlinearity.is_nonnegative", "must be true or false")
    nl = _as_field("nonlinearity", nls.from_table, t, f)
    if flag and not nl.is_nonnegative:
        raise ConfigError("nonlinearity.is_nonnegative",
                          "true, but f < 0 at some t >= 0 or F(-x) > F(x) for some x > 0")
    return nl


# each config kind and the (least, most) params it takes: custom_table is built
# from the config's sample arrays, every other kind by the dplap.nonlinearities
# factory of its name
_KINDS = {"zero": (0, 0), "constant": (0, 1), "linear": (0, 1), "power": (1, 2),
          "bounded_rational": (0, 0), "custom_table": (0, 0)}


def build_nonlinearity(nl_cfg, T: int) -> Nonlinearity:
    from . import nonlinearities
    if not isinstance(nl_cfg, dict):
        raise ConfigError("nonlinearity", "must be an object with a 'kind'")
    kind = nl_cfg.get("kind")
    params = _numbers("nonlinearity.params", nl_cfg.get("params", []), "a list of numbers")
    if not isinstance(kind, str) or kind not in _KINDS:  # a list kind is unhashable
        raise ConfigError("nonlinearity.kind",
                          f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")
    least, most = _KINDS[kind]
    if not least <= len(params) <= most:
        raise ConfigError("nonlinearity.params",
                          f"kind {kind!r} takes {least} to {most} params, got {len(params)}")
    if kind == "custom_table":
        nl = _custom_table(nonlinearities, nl_cfg)
    else:
        nl = _as_field("nonlinearity.params", getattr(nonlinearities, kind), *params)
    scale = nl_cfg.get("per_k_scale")
    if scale is not None:
        _numbers("nonlinearity.per_k_scale",
                 scale if isinstance(scale, list) and len(scale) == T else None,
                 f"a list of length T={T} of finite numbers")
        nl = nonlinearities.scaled_per_node(nl, scale)
    return nl


def build_problem(cfg: dict):
    """Validate a config dict; return (ProblemSpec, alpha field, gamma field).
    A table's gamma must not exceed its exact value."""
    from .nonlinearities import _check_gamma
    T = _as_field("T", core._check_T, _number(cfg, "T", "T"))
    p = float(_number(cfg, "p", "p"))
    _as_field("p", core._check_p, p)
    if "nonlinearity" not in cfg:
        raise ConfigError("nonlinearity", "missing")
    nl = build_nonlinearity(cfg["nonlinearity"], T)
    prob = _as_field("nonlinearity", ProblemSpec, T, p, nl)
    gamma = cfg.get("gamma")
    if gamma is not None:
        _numbers("gamma", gamma if isinstance(gamma, list) else [gamma],
                 f"a number or a list of length T={T}")
        gamma = _as_field("gamma", _check_gamma, nl, gamma, T, p)
    return prob, cfg.get("alpha"), gamma


def expand_alphas(alpha_field) -> list[float]:
    """Turn the config alpha field (sweep object or explicit list) into a list."""
    if not isinstance(alpha_field, (dict, list)):
        raise ConfigError("alpha", "sweep requires alpha as {lo, hi, n} or a list")
    if isinstance(alpha_field, dict):
        lo, hi, n = (_number(alpha_field, key, f"alpha.{key}") for key in ("lo", "hi", "n"))
        n = _as_field("alpha.n", core._count, "alpha.n", n)
        if not (0 < lo < hi):
            raise ConfigError("alpha", "sweep needs 0 < lo < hi")
        alphas = np.geomspace(lo, hi, n)
    else:
        alphas = _numbers("alpha", alpha_field, "a list of numbers")
    return [float(a) for a in _as_field("alpha", core._sequence, "alphas", alphas)]


def scalar_alpha(alpha_field, flag_value):
    if flag_value is not None:
        return float(flag_value)
    if alpha_field is None:
        raise ConfigError("alpha", "missing; pass --alpha or set it in the config")
    if isinstance(alpha_field, (dict, list)):
        raise ConfigError("alpha",
                          "config declares a sweep; pass --alpha or use the sweep command")
    _numbers("alpha", [alpha_field], "a finite number")
    return _as_field("alpha", core._positive, "alpha", alpha_field)


def write_result(path: str, prob: ProblemSpec, alpha: float, seed: int,
                 residual: float, energy_value: float, u: GridFunction) -> None:
    values = (prob.T, prob.p, alpha, seed, residual, energy_value)
    lines = [_header(key, val) for key, val in zip(RESULT_HEADER_KEYS, values)]
    for k, v in enumerate(u.values):
        lines.append(f"{k} {_fmt(v)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_result(path: str):
    """Parse a result file back into (headers dict, GridFunction)."""
    headers: dict[str, float] = {}
    nodes: list[tuple[int, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line.lstrip("# ").partition(" = ")
                headers[key.strip()] = float(val)
            else:
                k_str, v_str = line.split()
                nodes.append((int(k_str), float(v_str)))
    nodes.sort(key=lambda kv: kv[0])
    if [k for k, _ in nodes] != list(range(len(nodes))):
        raise ValueError(f"{path}: node indices are not contiguous from 0")
    return headers, GridFunction(np.array([v for _, v in nodes]))


def cmd_solve(args) -> int:
    from .solver import SolverOptions, multistart_solve
    cfg = load_config(args.config)
    prob, alpha_field, _ = build_problem(cfg)
    alpha = scalar_alpha(alpha_field, args.alpha)
    opts = SolverOptions(tol=args.tol, seed=args.seed)
    sols = multistart_solve(prob, alpha, n_starts=args.starts, opts=opts)
    if not sols:
        print("no converged solution")
        return EXIT_NO_RESULT
    best = sols[0]
    write_result(args.out, prob, alpha, opts.seed, best.residual, best.energy, best.u)
    print(f"wrote {args.out}: {len(sols)} distinct solution(s); best energy "
          f"{_fmt(best.energy)}, residual {_fmt(best.residual)}, "
          f"positivity {best.positivity}")
    return EXIT_OK


def cmd_eigen(args) -> int:
    from .spectrum import first_eigenpair
    pair = first_eigenpair(args.p, args.T, args.tol)
    print(_header("lambda_1", pair.lambda_))
    print(_header("residual", pair.residual))
    for k, v in enumerate(pair.phi.values):
        print(f"{k} {_fmt(v)}")
    if args.p == 2.0:
        closed, deviation = _p2_spectrum_deviation(args.T)
        print("# lambda_k closed form: " + " ".join(_fmt(x) for x in closed))
        print(f"# max relative deviation from closed form = {deviation:.3e}")
    return EXIT_OK


def cmd_check(args) -> int:
    from .existence import (alpha_threshold, check_thm_esistenza,
                            check_three_solutions_window, find_admissible_eps)
    from .spectrum import EigenConvergenceError
    cfg = load_config(args.config)
    prob, alpha_field, gamma = build_problem(cfg)
    # a config without alpha, or with a sweep, is certified at alpha = 1
    alpha = (1.0 if alpha_field is None or isinstance(alpha_field, (dict, list))
             else scalar_alpha(alpha_field, None))
    verdicts: list[bool] = []
    smallness = args.eps is not None or args.eps_scan
    if smallness:
        try:  # a bound c(p, T) below the normal floats certifies no eps
            core.c_const(prob.p, prob.T)
        except ValueError as exc:
            print(f"# smallness test unavailable: {exc}")
            smallness = False
            verdicts.append(False)
    if smallness and args.eps is not None:
        cert = check_thm_esistenza(prob, args.eps, alpha)
        _print_headers(cert, _CERTIFICATE_KEYS)
        verdicts.append(cert.verdict)
    if smallness and args.eps_scan:
        cert = find_admissible_eps(prob, (args.eps_lo, args.eps_hi), args.eps_n, alpha)
        if cert is None:
            print(f"no admissible eps in [{_fmt(args.eps_lo)}, {_fmt(args.eps_hi)}]")
            verdicts.append(False)
        else:
            _print_headers(cert, _CERTIFICATE_KEYS)
            verdicts.append(True)
    if args.cd is not None:
        win = check_three_solutions_window(prob, *args.cd)
        _print_headers(win, _WINDOW_KEYS)
        verdicts.append(win.verdict)
    if gamma is not None or prob.nonlinearity.gamma is not None:
        try:
            thr = alpha_threshold(prob, gamma)
            print(_header("alpha_threshold", thr))
            print(f"# alpha in ({_fmt(thr)}, inf) guarantees a positive solution")
        except (ValueError, EigenConvergenceError) as exc:
            print(f"# alpha_threshold unavailable: {exc}")
    if verdicts and not all(verdicts):
        return EXIT_NO_RESULT
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .solver import SolverOptions, sweep_alpha
    cfg = load_config(args.config)
    prob, alpha_field, _ = build_problem(cfg)
    alphas = expand_alphas(alpha_field)
    opts = SolverOptions(tol=args.tol, seed=args.seed)
    rows = sweep_alpha(prob, alphas, opts, n_starts=args.starts)
    lines = ["alpha,n_solutions,min_energy,sup_norm,positivity,nontriviality_zeta"]
    for r in rows:
        if r.error:
            print(f"warning: alpha {_fmt(r.alpha)}: {r.error}", file=sys.stderr)
        cells = [_fmt(r.alpha), str(r.n_solutions),
                 _fmt(r.min_energy) if r.min_energy is not None else "",
                 _fmt(r.sup_norm) if r.sup_norm is not None else "",
                 r.positivity if r.positivity is not None else "",
                 _fmt(r.nontriviality_zeta) if r.nontriviality_zeta is not None else ""]
        lines.append(",".join(cells))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK if any(r.n_solutions > 0 for r in rows) else EXIT_NO_RESULT


def _selftest_constant_identity():
    worst = 0.0
    for p in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        for T in range(2, 101):
            lhs = core.c_const(p, T)
            rhs = core.kappa(p, T) ** p / p
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst <= 1e-14, f"max relative deviation {worst:.3e} (tol 1e-14)"


def _selftest_remark_inequality():
    # raw even/odd formulas on purpose: independent of the kappa helper
    worst = math.inf
    for p in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        for T in range(2, 101):
            lhs = ((2.0 / T) ** (p - 1.0) + (2.0 / (T + 2.0)) ** (p - 1.0)) ** (-1.0 / p)
            rhs = (T + 1.0) ** ((p - 1.0) / p) / 2.0
            worst = min(worst, rhs - lhs)
    return worst > 0.0, f"min margin {worst:.3e} (must be positive)"


def _p2_spectrum_deviation(T: int) -> tuple[np.ndarray, float]:
    """The closed-form p = 2 eigenvalues and the largest relative deviation from
    them of matrix_A's, by LAPACK's dsterf on its diagonals in O(T) memory."""
    from .spectrum import eigenvalues_p2
    closed = eigenvalues_p2(T)
    numeric, info = core._lapack().dsterf(np.full(T, 2.0), np.full(T - 1, -1.0))
    if info != 0:
        raise RuntimeError(f"dsterf did not converge at T={T} (info {info})")
    return closed, float(np.max(np.abs(numeric - closed) / closed))


def _selftest_p2_spectrum():
    worst = max(_p2_spectrum_deviation(T)[1] for T in range(2, 61))
    return worst <= 1e-10, f"max relative deviation {worst:.3e} (tol 1e-10)"


def _selftest_gradient_fd():
    from .energy import energy, gradient
    from .nonlinearities import bounded_rational
    rng = np.random.Generator(np.random.Philox(1234))
    nl = bounded_rational()
    alpha = 0.7
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        for T in (2, 5, 10):
            prob = ProblemSpec(T=T, p=p, nonlinearity=nl)
            for _ in range(5):
                u = rng.uniform(-2.0, 2.0, T)
                if p < 2.0:
                    while np.min(np.abs(np.diff(np.concatenate(([0.0], u, [0.0]))))) <= 1e-3:
                        u = rng.uniform(-2.0, 2.0, T)
                gf = GridFunction.from_interior(u)
                g = gradient(gf, prob, alpha)
                step = 1e-6 * (1.0 + float(np.max(np.abs(u))))
                fd = np.empty(T)
                for i in range(T):
                    up, dn = u.copy(), u.copy()
                    up[i] += step
                    dn[i] -= step
                    fd[i] = (energy(GridFunction.from_interior(up), prob, alpha)
                             - energy(GridFunction.from_interior(dn), prob, alpha)) / (2 * step)
                err = float(np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g))))
                worst = max(worst, err)
    return worst <= 1e-6, f"max relative error {worst:.3e} (tol 1e-6)"


def cmd_selftest(args) -> int:
    checks = (
        ("constant-identity", _selftest_constant_identity),
        ("remark-inequality", _selftest_remark_inequality),
        ("p2-spectrum-closed-form", _selftest_p2_spectrum),
        ("gradient-vs-fd", _selftest_gradient_fd),
    )
    all_ok = True
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_SELFTEST_FAIL


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_ERROR; argparse's own 2 means no result here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dplap",
        description="Discrete p-Laplacian two-point boundary value problems: "
                    "solve, eigenpairs, existence certificates, parameter sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="multistart solve at a single alpha")
    s.add_argument("config", help="JSON problem config")
    s.add_argument("--alpha", type=float, default=None, help="overrides the config alpha")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("eigen", help="first eigenpair; full p=2 spectrum")
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--T", type=int, required=True)
    e.add_argument("--tol", type=float, default=core.EIGEN_TOL)
    e.set_defaults(func=cmd_eigen)

    c = sub.add_parser("check", help="existence and multiplicity certificates")
    c.add_argument("config")
    c.add_argument("--eps", type=float, default=None, help="test one eps")
    c.add_argument("--eps-scan", action="store_true", help="scan for an admissible eps")
    c.add_argument("--eps-lo", type=float, default=core.DEFAULT_EPS_RANGE[0])
    c.add_argument("--eps-hi", type=float, default=core.DEFAULT_EPS_RANGE[1])
    c.add_argument("--eps-n", type=int, default=core.DEFAULT_EPS_GRID)
    c.add_argument("--cd", nargs=2, type=float, metavar=("C", "D"),
                   help="evaluate the three-solutions window at (c, d)")
    c.set_defaults(func=cmd_check)

    w = sub.add_parser("sweep", help="alpha sweep to CSV")
    w.add_argument("config", help="config whose alpha is {lo, hi, n} or a list")
    w.set_defaults(func=cmd_sweep)
    for sp, out in ((s, "result.txt"), (w, "sweep.csv")):  # the multistart options
        sp.add_argument("--tol", type=float, default=core.SOLVER_TOL)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--starts", type=int, default=8, help="number of random starts")
        sp.add_argument("--out", default=out)

    t = sub.add_parser("selftest", help="run the embedded numeric identity checks")
    t.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
