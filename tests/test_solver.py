"""Solve routines, positivity, sublevel minimization, multistart, sweep."""

import collections
import importlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dplap.core
import dplap.solver
from dplap.core import (GridFunction, Nonlinearity, ProblemSpec, _dirichlet, _edges, kappa,
                        sup_norm)
from dplap.energy import (_energy, _gradient, _jacobian, energy, gradient, strong_residual,
                          weak_residual)
from dplap.nonlinearities import (bounded_rational, constant, from_table, linear, power,
                                  scaled_per_node, zero)
from dplap.solver import (CONVERGED, ENERGY_FLOOR, INDEFINITE, LINE_SEARCH,
                          MAX_ITERS, POSITIVE, STALL_WINDOW, ZERO,
                          SolveOutcome, SolverOptions, SweepRow,
                          check_positivity, minimize_on_sublevel,
                          multistart_solve, nontriviality_certificate,
                          solve_descent, solve_newton,
                          solve_newton_p2, sweep_alpha, truncate_nonnegative)
from dplap.spectrum import EigenConvergenceError, first_eigenpair

from test_existence import clipped_cubic

energy_module = importlib.import_module("dplap.energy")  # dplap.energy is the function


def esempio0(T=5, p=2.0):
    return ProblemSpec(T=T, p=p, nonlinearity=bounded_rational())


def eigen_start(prob, scale=0.1):
    pair = first_eigenpair(prob.p, prob.T)
    return GridFunction(scale * pair.phi.values)


def multistart_starts(prob, seed, n_starts):
    """The starts multistart_solve builds: 0, +/- the sup-normalised first
    eigenfunction, then n_starts uniform draws from Philox(seed)."""
    phi = first_eigenpair(prob.p, prob.T).phi.interior
    profile = phi / np.max(np.abs(phi))
    rng = np.random.Generator(np.random.Philox(seed))
    return ([np.zeros(prob.T), profile, -profile]
            + [rng.uniform(-2.0, 2.0, prob.T) for _ in range(n_starts)])


@pytest.fixture(autouse=True)
def outcomes_name_their_stop_reason(monkeypatch):
    """Every outcome built by a test in this module says why its Armijo loop
    ended, and a non-converged one never says converged."""
    seen = []
    solve = dplap.solver._solve

    def recording_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(dplap.solver, "_solve", recording_solve)
    yield
    reasons = (CONVERGED, ENERGY_FLOOR, STALL_WINDOW, LINE_SEARCH, MAX_ITERS)
    for out in seen:
        assert out.stop_reason in reasons
        assert out.converged or out.stop_reason != CONVERGED


def test_a_residual_crawl_ends_in_the_stall_window(monkeypatch):
    # a window of one iteration: the first step that does not cut the
    # residual by 1% ends the loop, and the polish cannot finish at p = 1.5
    monkeypatch.setattr(dplap.solver, "_STALL_WINDOW", 1)
    prob = esempio0(T=4, p=1.5)
    u0 = GridFunction.from_interior(np.random.default_rng(0).uniform(-2.0, 2.0, 4))
    out = solve_descent(prob, 1.0, u0)
    assert out.stop_reason == STALL_WINDOW
    assert out.iterations == 4
    assert not out.converged


def _failing_armijo(after):
    """_armijo that fails every line search after its first `after` calls."""
    armijo, calls = dplap.solver._armijo, []

    def scripted(*args):
        calls.append(1)
        return armijo(*args) if len(calls) <= after else None
    return scripted


@pytest.mark.parametrize("reason", [CONVERGED, ENERGY_FLOOR, STALL_WINDOW, MAX_ITERS,
                                    LINE_SEARCH])
def test_descend_evaluates_each_iterate_once(monkeypatch, reason):
    # one _gradient call per iterate, the start included, whatever the stop
    calls = []

    def counted(*args):
        calls.append(1)
        return _gradient(*args)

    monkeypatch.setattr(dplap.solver, "_gradient", counted)
    opts, newton, prob = SolverOptions(), True, esempio0()
    vec = np.linspace(0.5, 1.5, 5)
    if reason == ENERGY_FLOOR:
        opts = SolverOptions(tol=1e-300)
    elif reason == STALL_WINDOW:
        monkeypatch.setattr(dplap.solver, "_STALL_WINDOW", 1)
        prob, newton = esempio0(T=4, p=1.5), False
        vec = np.random.default_rng(0).uniform(-2.0, 2.0, 4)
    elif reason == MAX_ITERS:
        monkeypatch.setattr(dplap.solver, "_MAX_ITERS", 1)
    elif reason == LINE_SEARCH:
        monkeypatch.setattr(dplap.solver, "_armijo", _failing_armijo(2))
        newton = False
    *_, iters, stop = dplap.solver._descend(prob, 1.0, vec, opts, newton)
    assert stop == reason
    assert iters >= 1 and len(calls) == iters + 1


def test_descend_raises_when_an_accepted_step_raises_the_energy(monkeypatch):
    def uphill(prob, alpha, u, Ju, direction, slope, t, project):
        cand = u + 1.0
        return 1.0, cand, _edges(cand), Ju + 1.0

    monkeypatch.setattr(dplap.solver, "_armijo", uphill)
    with pytest.raises(RuntimeError, match="accepted step raised the energy from"):
        dplap.solver._descend(esempio0(), 1.0, np.linspace(0.5, 1.5, 5), SolverOptions(),
                              newton=False)


def test_a_non_finite_jacobian_takes_no_newton_step():
    # df = inf: neither Newton step exists, so solve_newton is gradient
    # descent step for step, and the polish declines as well
    base = bounded_rational()
    nl = Nonlinearity(f=base.f, potential=base.potential,
                      df=lambda k, t: np.full(np.shape(t), np.inf))
    prob = ProblemSpec(T=6, p=2.0, nonlinearity=nl)
    u0 = GridFunction.from_interior(np.linspace(0.2, 1.0, 6))
    u = u0.interior
    g = _gradient(prob, 0.5, u)
    assert dplap.solver._newton_step(prob, 0.5, u, g) is None
    assert dplap.solver._shifted_newton_step(prob, 0.5, u, g) is None
    newton, descent = solve_newton(prob, 0.5, u0), solve_descent(prob, 0.5, u0)
    assert np.array_equal(newton.u.values, descent.u.values)
    assert (newton.residual, newton.energy, newton.iterations, newton.stop_reason) == (
        descent.residual, descent.energy, descent.iterations, descent.stop_reason)
    assert newton.iterations == 183
    assert not newton.converged


def _recorded_outcomes(monkeypatch):
    """Every SolveOutcome that _solve builds from here on, kept or not."""
    seen = []
    solve = dplap.solver._solve

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(dplap.solver, "_solve", recording)
    return seen


def test_every_outcome_energy_is_the_energy_at_its_u(monkeypatch):
    # _solve takes _descend's last energy, or a fresh one when the polish
    # moved u: either way it is J_alpha at the reported u, to the bit
    seen = _recorded_outcomes(monkeypatch)
    runs = [
        (esempio0(T=15, p=1.5), 1.0, lambda prob, a: multistart_solve(prob, a, n_starts=1)),
        (esempio0(T=5, p=3.0), 1.0, lambda prob, a: solve_descent(prob, a, eigen_start(prob))),
        (esempio0(T=5, p=3.0), 1.0, lambda prob, a: solve_newton(prob, a, eigen_start(prob))),
        (esempio0(T=5), 1.0, lambda prob, a: minimize_on_sublevel(prob, a, sigma=100.0)),
        (esempio0(T=5), 1.0, lambda prob, a: minimize_on_sublevel(prob, a, sigma=1.0)),
    ]
    checked = []
    for prob, alpha, run in runs:
        seen.clear()
        run(prob, alpha)
        assert seen
        for out in seen:
            assert out.energy == energy(out.u, prob, alpha)
        checked += seen
    # the polish moved u in some (it turned an energy floor into convergence),
    # and _descend's own energy was reported in others
    assert any(o.stop_reason == ENERGY_FLOOR and o.converged for o in checked)
    assert any(o.stop_reason == CONVERGED and o.iterations > 0 for o in checked)
    assert any(o.boundary_hit for o in checked)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_supplied_edges_change_no_bit(p):
    prob = ProblemSpec(T=7, p=p, nonlinearity=scaled_per_node(bounded_rational(),
                                                             np.linspace(0.5, 1.5, 7)))
    u = np.random.default_rng(4).uniform(-2.0, 2.0, 7)
    u[3] = u[2]  # a zero edge
    du = _edges(u)
    assert _energy(prob, 0.7, u, du) == _energy(prob, 0.7, u)
    assert _gradient(prob, 0.7, u, du).tobytes() == _gradient(prob, 0.7, u).tobytes()
    for share in (0.0, 1e-2):
        with_du = _jacobian(prob, 0.7, u, share, du)
        without = _jacobian(prob, 0.7, u, share)
        assert [a.tobytes() for a in with_du] == [a.tobytes() for a in without]


def test_every_kernel_evaluation_goes_through_the_vec_methods(monkeypatch):
    # the benchmark counts f_vec/F_vec/df_vec calls as the solver's kernel
    # work, so a solve that called nl.f, nl.potential or nl.df around them
    # would read as less work than it did
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    base = bounded_rational()
    nl = Nonlinearity(f=counted("f", base.f), potential=counted("potential", base.potential),
                      df=counted("df", base.df))
    for attr in ("f_vec", "F_vec", "df_vec"):
        monkeypatch.setattr(Nonlinearity, attr, counted(attr, getattr(Nonlinearity, attr)))
    for p, T in ((2.0, 50), (1.5, 15), (3.0, 10)):
        prob = ProblemSpec(T=T, p=p, nonlinearity=nl)
        calls.clear()
        rng = np.random.default_rng(T)
        for u0 in (eigen_start(prob), GridFunction.from_interior(rng.uniform(-2.0, 2.0, T))):
            solve_newton(prob, 1.0, u0)
        assert calls["f_vec"] > 0 and calls["F_vec"] > 0 and calls["df_vec"] > 0
        assert (calls["f"], calls["potential"], calls["df"]) == (
            calls["f_vec"], calls["F_vec"], calls["df_vec"]), (p, T)


# ------------------------------------------------------------ properties

@st.composite
def solve_cases(draw):
    """(prob, alpha, start) over p in [1.3, 4], T in [2, 12], alpha in
    [0.05, 5], with bounded_rational, a per-node scaling of it, or an odd
    17-point table, and a uniform(-2, 2) start."""
    p = draw(st.floats(1.3, 4.0))
    T = draw(st.integers(2, 12))
    alpha = draw(st.floats(0.05, 5.0))
    kind = draw(st.sampled_from(["bounded_rational", "scaled", "table"]))
    if kind == "table":
        t = np.linspace(-4.0, 4.0, 17)
        nl = from_table(t, t / (1.0 + t * t))
    else:
        nl = bounded_rational()
        if kind == "scaled":
            nl = scaled_per_node(nl, draw(st.lists(st.floats(0.5, 1.5),
                                                   min_size=T, max_size=T)))
    start = draw(st.lists(st.floats(-2.0, 2.0), min_size=T, max_size=T))
    return ProblemSpec(T=T, p=p, nonlinearity=nl), alpha, GridFunction.from_interior(start)


def _check_outcomes_report_what_they_return(prob, alpha, u0, opts):
    # the Armijo loop plus polish never raises, names why it stopped, and
    # its residual, energy and positivity describe the u it returns
    for solve in (solve_newton, solve_descent):
        out = solve(prob, alpha, u0, opts)
        assert out.stop_reason in (CONVERGED, ENERGY_FLOOR, STALL_WINDOW, LINE_SEARCH,
                                   MAX_ITERS)
        assert out.converged == (out.residual <= opts.tol)
        assert out.residual == strong_residual(out.u, prob, alpha)
        assert out.energy == energy(out.u, prob, alpha)
        if out.positivity == POSITIVE:
            assert np.min(out.u.interior) > 0.0


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(solve_cases())
def test_solve_outcomes_report_what_they_return(case):
    prob, alpha, u0 = case
    with mock.patch.object(dplap.solver, "_MAX_ITERS", 500):
        _check_outcomes_report_what_they_return(prob, alpha, u0, SolverOptions())


@st.composite
def growth_cases(draw):
    """(prob, alpha, start) over p in {1.5, 2, 2.5, 3, 4}, T in [2, 12],
    alpha in [0.1, 5], f bounded_rational, linear(1) or constant(1), and a
    uniform(-2, 2) start.  linear(1) makes the energy unbounded below at
    p < 2, and at p = 2 once alpha > lambda_1: the iterates overflow."""
    p = draw(st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]))
    T = draw(st.integers(2, 12))
    alpha = draw(st.floats(0.1, 5.0))
    nl = draw(st.sampled_from([bounded_rational, lambda: linear(1.0), lambda: constant(1.0)]))()
    start = draw(st.lists(st.floats(-2.0, 2.0), min_size=T, max_size=T))
    return ProblemSpec(T=T, p=p, nonlinearity=nl), alpha, GridFunction.from_interior(start)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(growth_cases())
def test_solve_outcomes_report_what_they_return_without_warnings(case):
    # also where the energy is unbounded below: the overflow on the way is
    # rejected inside the loop, and no RuntimeWarning reaches the caller
    prob, alpha, u0 = case
    with warnings.catch_warnings(), mock.patch.object(dplap.solver, "_MAX_ITERS", 3000):
        warnings.simplefilter("error", RuntimeWarning)
        _check_outcomes_report_what_they_return(prob, alpha, u0, SolverOptions())


def test_overflow_on_an_unbounded_energy_warns_nobody():
    # J is unbounded below for linear(1) at alpha = 1 > lambda_1 (T = 5), and
    # for the truncated cubic at T = 2: iterates overflow, each such trial is
    # rejected, and the outcome says so without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sols = multistart_solve(ProblemSpec(T=5, p=2.0, nonlinearity=linear(1.0)), 1.0, 8)
        cubic = ProblemSpec(T=2, p=2.0, nonlinearity=truncate_nonnegative(power(3.0)))
        out = solve_newton(cubic, 0.5, GridFunction.from_interior([5.0, 5.0]))
    assert [(o.energy, o.residual) for o in sols] == [(0.0, 0.0)]
    assert (out.stop_reason, out.converged) == (LINE_SEARCH, False)
    assert out.energy < -1e200 and np.isfinite(out.energy)


@st.composite
def newton_step_cases(draw):
    """(prob, alpha, u) over p in [1.3, 4], T in [2, 40], alpha in [0.05, 5],
    bounded_rational, and a uniform(-2, 2) point."""
    p = draw(st.floats(1.3, 4.0))
    T = draw(st.integers(2, 40))
    alpha = draw(st.floats(0.05, 5.0))
    u = draw(st.lists(st.floats(-2.0, 2.0), min_size=T, max_size=T))
    return ProblemSpec(T=T, p=p, nonlinearity=bounded_rational()), alpha, np.array(u)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(newton_step_cases())
def test_shifted_newton_step_is_a_positive_definite_descent_step(case):
    # whenever the loop gets a Newton step, it solves (H + tau I) s = -g for a
    # tau >= 0 that makes H + tau I positive definite, and it points downhill
    prob, alpha, u = case
    g = _gradient(prob, alpha, u)
    s = dplap.solver._shifted_newton_step(prob, alpha, u, g)
    if s is None:
        return
    diag, off = _jacobian(prob, alpha, u, dplap.solver._SECANT_SHARE)
    H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    tau = -float((H @ s + g) @ s) / float(s @ s)  # the shift s was solved with
    rounding = 1e-10 * (np.max(np.abs(np.linalg.eigvalsh(H))) + abs(tau))
    assert tau >= -rounding
    assert np.min(np.linalg.eigvalsh(H + tau * np.eye(prob.T))) > -rounding
    assert float(g @ s) < 0.0


def test_shifted_newton_step_factors_first_and_shifts_only_indefinite_jacobians(monkeypatch):
    # dpttrf decides definiteness: a positive definite H gets the plain
    # dgtsv solve and no eigenvalue call; an indefinite one gets one dstebz
    # call and the shift -1.1 lambda_min
    import scipy.linalg._flapack as lapack
    lams = []
    dstebz = lapack.dstebz

    def counting(*args, **kwargs):
        out = dstebz(*args, **kwargs)
        lams.append(float(out[1][0]))
        return out

    monkeypatch.setattr(lapack, "dstebz", counting)
    step = dplap.solver._shifted_newton_step
    share = dplap.solver._SECANT_SHARE

    # alpha max f' = 0.002 < lambda_1 = 3.8e-3 at T = 50: the energy is convex
    prob = esempio0(T=50)
    u = np.random.default_rng(3).uniform(-2.0, 2.0, 50)
    g = _gradient(prob, 0.002, u)
    s = step(prob, 0.002, u, g)
    diag, off = _jacobian(prob, 0.002, u, share)
    assert lams == []
    assert s.tobytes() == lapack.dgtsv(off, diag, off, -g)[3].tobytes()

    # alpha = 3 near 0: H = A - 3 diag(f') has two negative eigenvalues
    prob = esempio0(T=5)
    u = np.full(5, 0.1)
    g = _gradient(prob, 3.0, u)
    s = step(prob, 3.0, u, g)
    diag, off = _jacobian(prob, 3.0, u, share)
    H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lam = float(np.min(np.linalg.eigvalsh(H)))
    assert len(lams) == 1 and lams[0] == pytest.approx(lam, rel=1e-12) and lam < 0.0
    tau = -1.1 * lams[0]
    assert s.tobytes() == lapack.dgtsv(off, diag + tau, off, -g)[3].tobytes()
    assert float(g @ s) < 0.0


def test_a_failed_eigenvalue_call_falls_back_to_the_gradient_step(monkeypatch):
    # dstebz reporting info != 0 leaves no Newton direction.  With every
    # factorisation reported failed too, each iteration asks dstebz, gets no
    # step and takes the gradient step: solve_newton is solve_descent, bit for bit
    import scipy.linalg._flapack as lapack
    monkeypatch.setattr(lapack, "dpttrf", lambda d, e: (d, e, 1))
    monkeypatch.setattr(lapack, "dstebz", lambda *args: (0, np.zeros(1), None, None, 1))
    prob = esempio0(T=5)
    u = np.full(5, 0.1)
    assert dplap.solver._shifted_newton_step(prob, 3.0, u, _gradient(prob, 3.0, u)) is None
    u0 = GridFunction.from_interior(u)
    newton, descent = solve_newton(prob, 3.0, u0), solve_descent(prob, 3.0, u0)
    assert newton.converged and newton.iterations > 1
    assert newton.u.values.tobytes() == descent.u.values.tobytes()
    assert (newton.energy, newton.iterations) == (descent.energy, descent.iterations)


def _general_kernels(monkeypatch):
    """Run the p = 2 solver on the kernels of every other p: |du| ** p,
    sign(du) |du| ** (p - 1) and _newton_weights' edge weights."""
    def dirichlet(vec, p, du=None):
        du = _edges(vec) if du is None else du
        return float((np.abs(du) ** p).sum())

    def p_laplacian(vec, p, du=None):
        du = _edges(vec) if du is None else du
        phi = np.sign(du) * np.abs(du) ** (p - 1.0)
        return -(phi[1:] - phi[:-1])

    def jacobian(prob, alpha, vec, share, du=None):
        w = energy_module._newton_weights(prob.p, _edges(vec) if du is None else du, share)
        return w[:-1] + w[1:] - alpha * prob.nonlinearity.df_vec(vec), -w[1:-1]

    monkeypatch.setattr(energy_module, "_dirichlet", dirichlet)
    monkeypatch.setattr(energy_module, "_p_laplacian", p_laplacian)
    monkeypatch.setattr(dplap.core, "_p_laplacian", p_laplacian)
    monkeypatch.setattr(energy_module, "_jacobian", jacobian)
    monkeypatch.setattr(dplap.solver, "_jacobian", jacobian)


@pytest.mark.parametrize("alpha", (1.0, 2.0))  # 2.0 ends energy_floor and polishes
def test_p2_solve_needs_no_edge_weights_and_keeps_the_general_bits(monkeypatch, alpha):
    # at p = 2 the Dirichlet part of the Newton matrix is tridiag(-1, 2, -1),
    # written down: with _newton_weights raising, solve_newton and _jacobian
    # return the bytes the general kernels give
    prob = esempio0(T=50)
    u0 = GridFunction.from_interior(np.random.default_rng(1).uniform(-2.0, 2.0, 50))
    with monkeypatch.context() as m:
        _general_kernels(m)
        ref = solve_newton(prob, alpha, u0)
        ref_h = energy_module._jacobian(prob, alpha, u0.interior, 0.0)

    def unused(*args):
        raise AssertionError("the p = 2 kernel computed edge weights")

    monkeypatch.setattr(energy_module, "_newton_weights", unused)
    got, got_h = solve_newton(prob, alpha, u0), _jacobian(prob, alpha, u0.interior, 0.0)
    assert got.u.values.tobytes() == ref.u.values.tobytes()
    assert (got.residual, got.energy, got.iterations, got.stop_reason, got.positivity) == (
        ref.residual, ref.energy, ref.iterations, ref.stop_reason, ref.positivity)
    assert [a.tobytes() for a in got_h] == [a.tobytes() for a in ref_h]


# --------------------------------------------------------------- options

def test_solver_options_validation():
    with pytest.raises(ValueError, match="tol"):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        SolverOptions(tol=np.inf)


def test_solver_options_seed_is_a_non_negative_int():
    # a bad seed fails at construction, not inside numpy's seeding
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SolverOptions(seed=bad)
    opts = SolverOptions(seed=1.0)
    assert type(opts.seed) is int and opts.seed == 1
    sols = multistart_solve(esempio0(), 1.0, n_starts=2, opts=opts)
    assert sols and all(type(s.seed) is int for s in sols)


@pytest.mark.parametrize("field", ["seed"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_solver_options_name_a_non_finite_count(field, bad):
    # int(inf) raises OverflowError and int(nan) a bare ValueError
    with pytest.raises(ValueError, match=f"{field} must be a"):
        SolverOptions(**{field: bad})


def test_non_converged_outcome_names_stop_reason(monkeypatch):
    prob = esempio0()
    unreachable = solve_newton(prob, 1.0, eigen_start(prob), SolverOptions(tol=1e-300))
    assert not unreachable.converged
    assert unreachable.stop_reason in (ENERGY_FLOOR, LINE_SEARCH, STALL_WINDOW)
    with monkeypatch.context() as m:
        m.setattr(dplap.solver, "_MAX_ITERS", 1)
        capped = solve_descent(prob, 1.0, eigen_start(prob), SolverOptions(tol=1e-300))
    assert not capped.converged
    assert capped.iterations == 1 and capped.stop_reason == MAX_ITERS
    done = solve_newton(prob, 1.0, eigen_start(prob))
    assert done.converged and done.stop_reason in (CONVERGED, ENERGY_FLOOR)


def test_solve_outcome_is_frozen():
    out = solve_descent(esempio0(), 1.0, GridFunction.zero(5))
    assert isinstance(out, SolveOutcome)
    with pytest.raises(AttributeError):
        out.energy = 0.0


# ------------------------------------------------------------ truncation

def test_truncate_bounded_rational():
    nl = truncate_nonnegative(bounded_rational())
    assert nl.f(1, 2.0) == 2.0 / 5.0
    assert nl.f(1, -3.0) == 0.0  # f(0) = 0 extends by zero
    assert nl.eval_F(1, -5.0) == 0.0
    assert nl.eval_F(1, 2.0) == pytest.approx(0.5 * np.log(5.0), rel=1e-15)
    assert nl.df(1, -1.0) == 0.0
    assert nl.is_nonnegative
    assert nl.name.endswith("~trunc")


def test_truncate_constant():
    nl = truncate_nonnegative(constant(2.0))
    assert nl.f(1, -7.0) == 2.0  # extends by f(0) = 2
    assert nl.eval_F(1, -3.0) == -6.0  # f(0) * xi
    assert nl.eval_F(1, 3.0) == 6.0


def test_truncated_problem_keeps_positive_solutions():
    # positive solutions of the truncated problem solve the original one:
    # the residual under either right-hand side is the same number
    prob = esempio0()
    trunc = ProblemSpec(T=5, p=2.0, nonlinearity=truncate_nonnegative(bounded_rational()))
    out = solve_newton_p2(trunc, 1.0, eigen_start(trunc))
    assert out.converged and out.positivity == POSITIVE
    assert strong_residual(out.u, prob, 1.0) == out.residual
    assert energy(out.u, prob, 1.0) == out.energy


# ---------------------------------------------------------- solve_descent

def test_descent_zero_f_stays_at_zero():
    prob = ProblemSpec(T=4, p=2.0, nonlinearity=zero())
    out = solve_descent(prob, 1.0, GridFunction.zero(4))
    assert out.converged
    assert out.residual == 0.0
    assert out.positivity == ZERO
    assert out.energy == 0.0
    assert out.iterations == 0


def test_descent_constant_f_small_grid():
    # A u = (1, 1) has the solution (1, 1)
    prob = ProblemSpec(T=2, p=2.0, nonlinearity=constant(1.0))
    out = solve_descent(prob, 1.0, GridFunction.from_interior([0.3, -0.2]))
    assert out.converged
    assert np.allclose(out.u.interior, [1.0, 1.0], atol=1e-9)
    assert out.positivity == POSITIVE
    assert out.energy == pytest.approx(-1.0, abs=1e-12)


def test_descent_decreases_energy_and_solves():
    prob = esempio0()
    start = eigen_start(prob)
    out = solve_descent(prob, 1.0, start)
    assert out.converged
    assert out.residual <= 1e-10
    assert out.energy < energy(start, prob, 1.0)
    assert out.positivity == POSITIVE
    # anchor values for the positive branch at alpha = 1
    assert sup_norm(out.u) == pytest.approx(1.962256585023781, rel=1e-8)
    assert out.energy == pytest.approx(-1.3080511229489105, rel=1e-10)


def test_descent_p3_converges():
    prob = ProblemSpec(T=4, p=3.0, nonlinearity=constant(1.0))
    out = solve_descent(prob, 1.0, GridFunction.zero(4))
    assert out.converged
    assert out.residual <= 1e-10
    assert out.positivity == POSITIVE


def test_descent_rejects_bad_inputs():
    prob = esempio0()
    with pytest.raises(ValueError, match="alpha must be positive"):
        solve_descent(prob, 0.0, GridFunction.zero(5))
    with pytest.raises(ValueError, match="start has T=3"):
        solve_descent(prob, 1.0, GridFunction.zero(3))


def test_converged_outcome_passes_weak_form_check():
    prob = esempio0()
    out = solve_descent(prob, 1.0, eigen_start(prob))
    rng = np.random.Generator(np.random.Philox(31))
    T = prob.T
    for _ in range(100):
        v = GridFunction.from_interior(rng.uniform(-1.0, 1.0, T))
        bound = out.residual * T * (1.0 + sup_norm(v))
        assert abs(weak_residual(out.u, v, prob, 1.0)) <= bound


# --------------------------------------------------------- solve_newton_p2

def test_newton_matches_descent_from_same_start():
    prob = esempio0()
    start = eigen_start(prob)
    newton = solve_newton_p2(prob, 1.0, start)
    descent = solve_descent(prob, 1.0, start)
    assert newton.converged and descent.converged
    assert np.max(np.abs(newton.u.interior - descent.u.interior)) < 1e-8
    assert newton.iterations < descent.iterations


def test_newton_is_fast_near_solution():
    prob = esempio0()
    out = solve_newton_p2(prob, 1.0, eigen_start(prob))
    assert out.converged
    assert out.iterations <= 25
    assert out.residual <= 1e-10


def test_newton_requires_p2():
    prob = ProblemSpec(T=3, p=3.0, nonlinearity=zero())
    with pytest.raises(ValueError, match="requires p = 2"):
        solve_newton_p2(prob, 1.0, GridFunction.zero(3))


def test_newton_zero_f_immediate():
    prob = ProblemSpec(T=6, p=2.0, nonlinearity=zero())
    out = solve_newton_p2(prob, 1.0, GridFunction.from_interior(np.ones(6)))
    assert out.converged
    assert out.positivity == ZERO
    assert out.iterations <= 2


def test_newton_constant_f_exact_in_one_step():
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=constant(1.0))
    out = solve_newton_p2(prob, 1.0, GridFunction.zero(3))
    assert out.converged
    assert np.allclose(out.u.interior, [1.5, 2.0, 1.5], atol=1e-12)
    assert out.iterations <= 2


# ------------------------------------------------------------ solve_newton

def test_newton_hands_over_at_the_energy_floor():
    # this alpha = 3 start reaches residual ~1e-10 at |J| ~ 127 after 12
    # iterations; from there no Armijo step changes J in floating point, so
    # the loop must hand over to the residual polish instead of idling to
    # the stall window
    prob = esempio0(T=50)
    vec = multistart_starts(prob, 0, 8)[3 + 1]
    out = solve_newton(prob, 3.0, GridFunction.from_interior(vec))
    assert out.converged and out.stop_reason == ENERGY_FLOOR
    assert out.iterations < 300
    assert strong_residual(out.u, prob, 3.0) <= 1e-10


def test_newton_t200_multistart_converges_every_start_quickly():
    # on this indefinite energy the step shifted by H's smallest eigenvalue
    # reaches every solution within 50 iterations; the blind shift ladder
    # settled on shifts ~40 lambda_1 and crawled for up to 427
    prob = esempio0(T=200)
    for vec in multistart_starts(prob, 0, 8):
        out = solve_newton(prob, 0.1, GridFunction.from_interior(vec))
        assert out.converged and out.iterations <= 50


def test_newton_p15_even_T_plateau_converges_from_every_start():
    # even T: the solution's middle difference vanishes, where the tangent
    # weight (p-1)|du|^(p-2) is infinite
    prob = esempio0(T=10, p=1.5)
    for vec in multistart_starts(prob, 1010, 4):
        out = solve_newton(prob, 1.0, GridFunction.from_interior(vec))
        assert out.converged
        assert strong_residual(out.u, prob, 1.0) <= 1e-10


def test_newton_p105_small_T_converges_through_the_tangent_polish():
    # the loop stops at the energy floor with residual ~1e-6; the polish
    # needs tangent weights on every difference to finish
    prob = ProblemSpec(T=4, p=1.05, nonlinearity=constant())
    rng = np.random.Generator(np.random.Philox(0))
    for vec in [np.zeros(4)] + [rng.uniform(-2.0, 2.0, 4) for _ in range(3)]:
        out = solve_newton(prob, 1.0, GridFunction.from_interior(vec))
        assert out.converged
        assert strong_residual(out.u, prob, 1.0) <= 1e-10


def test_polish_stops_after_one_solve_when_the_step_cannot_help(monkeypatch):
    # at residual 1.1e-16 the plain Newton step cannot lower the residual:
    # the polish gives up after that one tridiagonal solve
    import scipy.linalg._flapack as lapack
    prob = esempio0()
    out = solve_newton(prob, 1.0, GridFunction.from_interior(np.linspace(0.5, 1.5, 5)),
                       SolverOptions(tol=1e-300))
    assert out.stop_reason == ENERGY_FLOOR and 0.0 < out.residual < 1e-15
    calls = []
    dgtsv = lapack.dgtsv

    def counting(*args, **kwargs):
        calls.append(1)
        return dgtsv(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgtsv", counting)
    u, res = dplap.solver._polish(prob, 1.0, out.u.interior, 1e-300)
    assert len(calls) == 1
    assert np.array_equal(u, out.u.interior) and res == out.residual


def test_newton_p3_converges_fast_and_matches_descent():
    prob = esempio0(T=20, p=3.0)
    for vec in multistart_starts(prob, 0, 8):
        out = solve_newton(prob, 1.0, GridFunction.from_interior(vec))
        assert out.converged and out.iterations <= 100
        assert strong_residual(out.u, prob, 1.0) <= 1e-10
    start = eigen_start(prob)
    newton = solve_newton(prob, 1.0, start)
    descent = solve_descent(prob, 1.0, start)
    assert newton.converged and descent.converged
    assert np.max(np.abs(newton.u.interior - descent.u.interior)) < 1e-8


def test_newton_rejects_bad_inputs():
    prob = esempio0(p=3.0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        solve_newton(prob, 0.0, GridFunction.zero(5))
    with pytest.raises(ValueError, match="alpha must be positive"):
        solve_newton(prob, -1.0, GridFunction.zero(5))
    with pytest.raises(ValueError, match="start has T=3"):
        solve_newton(prob, 1.0, GridFunction.zero(3))


# ------------------------------------------------------- check_positivity

def test_positivity_zero():
    prob = esempio0()
    assert check_positivity(GridFunction.zero(5), prob, 1.0, 1e-10) == ZERO


def test_positivity_positive_solution():
    prob = esempio0()
    out = solve_newton_p2(prob, 1.0, eigen_start(prob))
    assert check_positivity(out.u, prob, 1.0, 1e-10) == POSITIVE


def test_positivity_negative_solution_premise_fails():
    prob = esempio0()
    out = solve_newton_p2(prob, 1.0, eigen_start(prob))
    neg = GridFunction(-out.u.values)
    assert check_positivity(neg, prob, 1.0, 1e-10) == INDEFINITE


def test_positivity_sign_changing_premise_fails():
    u = GridFunction.from_interior([0.5, -0.5, 0.5])
    assert check_positivity(u, esempio0(3), 1.0, 1e-10) == INDEFINITE


def test_positivity_tiny_tent_is_zero():
    tent = GridFunction.from_interior(np.array([0.5, 1.0, 0.5]) * 1e-12)
    assert check_positivity(tent, esempio0(3), 1.0, 1e-10) == ZERO


def test_positivity_ambiguous_scale_is_indefinite():
    # superharmonic tent with sup above tol but min at tol: not classifiable
    tent = GridFunction.from_interior(np.array([0.5, 1.0, 0.5]) * 2e-10)
    assert check_positivity(tent, esempio0(3), 1.0, 1e-10) == INDEFINITE


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_positivity_rejects_a_bad_tol(tol):
    # a NaN or negative tol classified u = 0 as indefinite
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        check_positivity(GridFunction.zero(5), esempio0(), 1.0, tol)


# ---------------------------------------------- nontriviality certificate

def test_nontriviality_found_at_alpha_1():
    prob = esempio0()
    pair = first_eigenpair(2.0, 5)
    cert = nontriviality_certificate(prob, 1.0, pair)
    assert cert is not None
    zeta, e = cert
    assert zeta == 1.0
    assert e == pytest.approx(-0.3130526989980753, rel=1e-10)
    scaled = GridFunction(pair.phi.values * zeta)
    assert energy(scaled, prob, 1.0) == pytest.approx(e, rel=1e-15)


def test_nontriviality_absent_below_lambda1():
    # for alpha < lambda_1 the quadratic part dominates: J >= 0 on the ray
    prob = esempio0()
    pair = first_eigenpair(2.0, 5)
    assert nontriviality_certificate(prob, 0.1, pair) is None


def test_nontriviality_exact_for_linear_f():
    # J_alpha(z phi) = z^2/2 (lambda_1 - alpha) |phi|^2: negative iff
    # alpha > lambda_1, for every z
    prob = ProblemSpec(T=5, p=2.0, nonlinearity=linear())
    pair = first_eigenpair(2.0, 5)
    lam1 = pair.lambda_
    assert nontriviality_certificate(prob, 0.9 * lam1, pair) is None
    hit = nontriviality_certificate(prob, 1.1 * lam1, pair)
    assert hit is not None and hit[1] < 0.0


# ------------------------------------------------- minimize_on_sublevel

def test_sublevel_zero_f_returns_zero():
    prob = ProblemSpec(T=4, p=2.0, nonlinearity=zero())
    out = minimize_on_sublevel(prob, 1.0, sigma=1.0)
    assert out.converged
    assert not out.boundary_hit
    assert sup_norm(out.u) <= 1e-10
    assert out.energy == pytest.approx(0.0, abs=1e-20)


def test_sublevel_esempio0_certificate_route():
    from dplap.existence import find_admissible_eps
    prob = esempio0()
    cert = find_admissible_eps(prob)
    assert cert is not None
    out = minimize_on_sublevel(prob, 1.0, cert.sigma, certificate=cert)
    assert out.converged
    assert not out.boundary_hit
    assert sup_norm(out.u) < cert.eps
    # the ball is huge, so the constrained minimizer is the global one
    assert out.energy == pytest.approx(-1.3080511229489105, rel=1e-9)


def test_sublevel_boundary_case_is_flagged():
    # linear f at alpha > lambda_1: inf over the ball sits on the boundary
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=linear())
    out = minimize_on_sublevel(prob, 3.0, sigma=1.0)
    assert out.boundary_hit
    assert not out.converged
    assert out.energy < 0.0


def test_sublevel_respects_sigma_scale():
    # same problem, two ball sizes: the smaller ball cannot do better
    prob = esempio0()
    small = minimize_on_sublevel(prob, 1.0, sigma=0.01)
    large = minimize_on_sublevel(prob, 1.0, sigma=100.0)
    assert small.energy >= large.energy - 1e-12


def test_sublevel_validates_sigma():
    with pytest.raises(ValueError, match="sigma"):
        minimize_on_sublevel(esempio0(), 1.0, sigma=0.0)


def test_sublevel_rejects_an_infinite_sigma():
    with pytest.raises(ValueError, match="sigma"):
        minimize_on_sublevel(esempio0(), 1.0, sigma=np.inf)


def _far_polish(calls):
    """A stand-in for solver._polish that records each point it is handed
    and returns a point far outside any test ball, with residual 0."""
    def polish(prob, alpha, u, tol):
        calls.append(u.copy())
        return u + 10.0, 0.0
    return polish


def test_finish_drops_a_polish_that_leaves_the_ball(monkeypatch):
    calls, runs = [], []
    monkeypatch.setattr(dplap.solver, "_polish", _far_polish(calls))
    ties = dplap.solver._first_of_ties

    def every_run(outcomes, prefer):
        runs.extend(outcomes)
        return ties(outcomes, prefer)

    monkeypatch.setattr(dplap.solver, "_first_of_ties", every_run)
    monkeypatch.setattr(dplap.solver, "_MAX_ITERS", 1)
    prob, sigma = esempio0(), 1.0
    minimize_on_sublevel(prob, 1.0, sigma)
    assert calls  # one-iteration descents end above tol and are polished
    assert len(runs) == 9
    for u in (o.u.interior for o in runs):
        assert not any(np.array_equal(u, c + 10.0) for c in calls)
        assert _dirichlet(u, prob.p) < sigma


def test_finish_keeps_a_free_polish_with_a_fresh_energy(monkeypatch):
    calls = []
    monkeypatch.setattr(dplap.solver, "_polish", _far_polish(calls))
    monkeypatch.setattr(dplap.solver, "_MAX_ITERS", 1)
    prob = esempio0()
    out = solve_newton(prob, 1.0, eigen_start(prob))
    assert len(calls) == 1
    assert np.array_equal(out.u.interior, calls[0] + 10.0)
    assert out.converged and out.residual == 0.0
    assert out.energy == energy(out.u, prob, 1.0)


def test_finish_never_polishes_a_descent_ending_on_the_boundary(monkeypatch):
    calls = []
    polish = dplap.solver._polish

    def counted(prob, alpha, u, tol):
        calls.append(u.copy())
        return polish(prob, alpha, u, tol)

    monkeypatch.setattr(dplap.solver, "_polish", counted)
    # linear f at alpha > lambda_1: the ball minimum sits on its boundary
    prob, sigma = ProblemSpec(T=3, p=2.0, nonlinearity=linear()), 1.0
    out = minimize_on_sublevel(prob, 3.0, sigma)
    assert out.boundary_hit and not out.converged
    assert all(_dirichlet(u, prob.p) < sigma * (1.0 - 1e-8) for u in calls)


# ------------------------------------------------------ multistart_solve

def test_multistart_zero_f_single_solution():
    prob = ProblemSpec(T=4, p=2.0, nonlinearity=zero())
    sols = multistart_solve(prob, 1.0, n_starts=4)
    assert len(sols) == 1
    assert sols[0].positivity == ZERO


def test_multistart_esempio0_alpha_1():
    prob = esempio0()
    sols = multistart_solve(prob, 1.0, n_starts=8)
    assert all(s.converged for s in sols)
    assert all(s.seed == 0 for s in sols)
    energies = [s.energy for s in sols]
    assert energies == sorted(energies)
    # the positive branch, its mirror, and the zero solution all appear
    pos = [s for s in sols if s.positivity == POSITIVE]
    assert pos and sup_norm(pos[0].u) == pytest.approx(1.962256585023781, rel=1e-8)
    assert any(s.positivity == ZERO for s in sols)
    assert any(np.min(s.u.interior) < -1.0 for s in sols)


def test_multistart_below_threshold_only_zero():
    # alpha < lambda_1: the zero solution is the only critical point
    sols = multistart_solve(esempio0(), 0.1, n_starts=8)
    assert len(sols) == 1
    assert sols[0].positivity == ZERO
    assert sup_norm(sols[0].u) <= 1e-10


def test_multistart_dedup_distance(monkeypatch):
    prob = esempio0()
    fine = multistart_solve(prob, 1.0, n_starts=8)
    monkeypatch.setattr(dplap.solver, "_DEDUP_DIST", 100.0)
    coarse = multistart_solve(prob, 1.0, n_starts=8)
    assert len(coarse) == 1  # everything merges into the lowest-energy one
    assert coarse[0].energy == pytest.approx(min(s.energy for s in fine), rel=1e-12)


_NON_FINITE_START_ROUTES = {
    "solve_newton": lambda prob, vec: solve_newton(prob, 1.0, GridFunction.from_interior(vec)),
    "solve_descent": lambda prob, vec: solve_descent(prob, 1.0,
                                                     GridFunction.from_interior(vec)),
}


@pytest.mark.parametrize("route", sorted(_NON_FINITE_START_ROUTES))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_start_is_named(route, bad):
    # a NaN start once came back with residual nan and no word (multistart
    # dropped it), and an infinite one warned from a division
    vec = [0.5, bad, 0.5, 0.5, 0.5]
    with pytest.raises(ValueError, match="start must be finite"):
        _NON_FINITE_START_ROUTES[route](esempio0(), vec)


def test_multistart_validates_n_starts():
    with pytest.raises(ValueError, match="n_starts"):
        multistart_solve(esempio0(), 1.0, n_starts=0)


@pytest.mark.parametrize("n_starts", [2.5, np.inf, np.nan])
def test_multistart_and_sweep_name_a_non_integer_n_starts(n_starts):
    with pytest.raises(ValueError, match="n_starts"):
        multistart_solve(esempio0(), 1.0, n_starts=n_starts)
    with pytest.raises(ValueError, match="n_starts"):
        sweep_alpha(esempio0(), [0.5, 1.0], n_starts=n_starts)


def test_multistart_takes_a_whole_float_n_starts():
    ref = multistart_solve(esempio0(), 1.0, n_starts=2)
    got = multistart_solve(esempio0(), 1.0, n_starts=2.0)
    assert [s.energy for s in got] == [s.energy for s in ref]


def test_multistart_deterministic_across_seeds():
    prob = esempio0()
    a = multistart_solve(prob, 1.0, n_starts=6)
    b = multistart_solve(prob, 1.0, n_starts=6)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.u.values, y.u.values)
        assert x.energy == y.energy
    c = multistart_solve(prob, 1.0, n_starts=6, opts=SolverOptions(seed=99))
    assert all(s.seed == 99 for s in c)


def _scripted_solve_newton(monkeypatch, outcomes):
    """Replace solve_newton by one returning outcomes in turn; returns the starts."""
    starts = []

    def scripted(prob, alpha, u0, opts=None):
        starts.append(np.array(u0.interior))
        return outcomes[len(starts) - 1]

    monkeypatch.setattr(dplap.solver, "solve_newton", scripted)
    return starts


def _outcome(u, energy_value, converged=True, positivity=INDEFINITE):
    return SolveOutcome(u=GridFunction.from_interior(u), residual=0.0, energy=energy_value,
                        iterations=0, converged=converged, positivity=positivity)


def test_multistart_lists_the_positive_solution_first_on_exact_ties(monkeypatch):
    # u and -u at one energy, the negative one found first
    v = np.array([1.0, 2.0])
    stray = _outcome(np.zeros(2), 0.0, converged=False)
    positive = _outcome(v, -3.0, positivity=POSITIVE)
    _scripted_solve_newton(monkeypatch, [_outcome(-v, -3.0), positive, stray, stray])
    sols = multistart_solve(ProblemSpec(T=2, p=2.0, nonlinearity=bounded_rational()), 1.0,
                            n_starts=1)
    assert [s.positivity for s in sols] == [POSITIVE, INDEFINITE]
    assert np.array_equal(sols[0].u.interior, v)


def test_multistart_shapes_starts_from_the_best_effort_eigenpair(monkeypatch):
    # the eigen solve does not converge at p = 1.1, T = 200; its best pair is used
    with pytest.raises(EigenConvergenceError) as exc:
        first_eigenpair(1.1, 200)
    stray = _outcome(np.zeros(200), 0.0, converged=False)
    starts = _scripted_solve_newton(monkeypatch, [stray] * 4)
    prob = ProblemSpec(T=200, p=1.1, nonlinearity=bounded_rational())
    assert multistart_solve(prob, 1.0, n_starts=1) == []
    phi = exc.value.best.phi.interior
    profile = phi / np.max(np.abs(phi))
    assert len(starts) == 4 and not starts[0].any()
    assert np.array_equal(starts[1], profile) and np.array_equal(starts[2], -profile)


def test_multistart_p3_route_uses_descent():
    prob = ProblemSpec(T=4, p=3.0, nonlinearity=constant(1.0))
    sols = multistart_solve(prob, 1.0, n_starts=2)
    assert sols
    assert sols[0].positivity == POSITIVE
    assert sols[0].residual <= 1e-10


def test_multistart_matches_grid_oracle_off_borderline():
    # T=2 the quadratic part has lambda_1 = 1, so alpha = 3 buys a genuinely
    # nontrivial minimizer; a hand-rolled dense grid on the energy surface
    # must agree with the multistart winner
    prob = esempio0(T=2)
    alpha = 3.0
    x = np.linspace(-3.0, 3.0, 1201)
    U1, U2 = np.meshgrid(x, x, indexing="ij")
    J = 0.5 * (U1 * U1 + (U2 - U1) ** 2 + U2 * U2) \
        - alpha * 0.5 * (np.log1p(U1 * U1) + np.log1p(U2 * U2))
    i, j = np.unravel_index(np.argmin(J), J.shape)
    best = multistart_solve(prob, alpha, n_starts=8)[0]
    assert best.energy < -1e-2  # not the zero branch
    assert abs(best.energy - float(J[i, j])) < 1e-4
    grid_u = np.array([x[i], x[j]])
    loc = min(float(np.max(np.abs(best.u.interior - grid_u))),
              float(np.max(np.abs(best.u.interior + grid_u))))
    assert loc < 6.0 / 1200.0


def test_multistart_multiplicity_inside_window():
    # clipped cubic, alpha inside the certified window: the zero solution,
    # the saddle pair, and remote minima pairs coexist
    from dplap.existence import check_three_solutions_window
    prob = ProblemSpec(T=2, p=2.0, nonlinearity=clipped_cubic())
    win = check_three_solutions_window(prob, 1.0, 10.0)
    assert win.verdict and win.alpha_lo < 1.0 < win.alpha_hi
    sols = multistart_solve(prob, 1.0, n_starts=8)
    nonzero = [s for s in sols if sup_norm(s.u) > 1e-8]
    assert len(nonzero) >= 2
    # deepest minima sit at the clipping plateau (1000, 1000) with
    # J = 10^6/2 * 2 / 2 - 2 (2500 + 1000*990) = -985000
    assert sols[0].energy == pytest.approx(-985000.0, rel=1e-10)
    assert sup_norm(sols[0].u) == pytest.approx(1000.0, rel=1e-10)
    # the scaled eigenfunction start lands exactly on the saddle (1, 1)
    assert any(np.max(np.abs(s.u.interior - 1.0)) < 5e-3 for s in sols)


# ------------------------------------------------------------ sweep_alpha

def test_sweep_rows_and_transition():
    prob = esempio0()
    rows = sweep_alpha(prob, [0.1, 0.5, 1.0], n_starts=4)
    assert [r.alpha for r in rows] == [0.1, 0.5, 1.0]
    assert all(isinstance(r, SweepRow) for r in rows)
    below = rows[0]
    assert below.n_solutions == 1
    assert below.positivity == ZERO
    assert below.nontriviality_zeta is None
    for above in rows[1:]:
        assert above.n_solutions >= 3
        assert above.positivity == POSITIVE
        assert above.nontriviality_zeta is not None
    # larger alpha deepens the well
    assert rows[2].min_energy < rows[1].min_energy < rows[0].min_energy + 1e-15


def test_sweep_computes_the_first_eigenpair_once(monkeypatch):
    # the sweep's pair shapes every alpha's starts; none is recomputed
    calls = []

    def counting(p, T, tol=1e-9):
        calls.append((p, T))
        return first_eigenpair(p, T, tol)

    monkeypatch.setattr(dplap.solver, "first_eigenpair", counting)
    rows = sweep_alpha(esempio0(), [0.1, 0.5, 1.0], n_starts=2)
    assert [r.error for r in rows] == ["", "", ""]
    assert calls == [(2.0, 5)]


def test_sweep_reports_positive_representative_on_ties():
    # u and -u tie in energy; the reported row must carry the positive one
    rows = sweep_alpha(esempio0(), [1.0], n_starts=8)
    assert rows[0].positivity == POSITIVE
    assert rows[0].sup_norm == pytest.approx(1.962256585023781, rel=1e-8)


def test_first_of_ties_prefers_only_within_rounding_of_the_lowest_energy():
    def outcome(e, pos):
        return SolveOutcome(u=GridFunction.zero(2), residual=0.0, energy=e,
                            iterations=0, converged=True, positivity=pos)

    def positive(o):
        return o.positivity == POSITIVE

    neg, pos = outcome(-1.0, INDEFINITE), outcome(-1.0, POSITIVE)
    assert dplap.solver._first_of_ties([neg, pos], positive) is pos
    higher = outcome(-1.0 + 1e-9, POSITIVE)
    assert dplap.solver._first_of_ties([neg, higher], positive) is neg


def test_multistart_lists_the_positive_solution_first_at_rounding_ties():
    # u and -u converge separately, their energies an ulp apart; the
    # positive one still comes first, as dplap solve and sweeps report it
    sols = multistart_solve(esempio0(T=3), 1.0, 8)
    assert sols[0].positivity == POSITIVE
    assert sols[0].energy <= min(s.energy for s in sols) + 1e-12
    rest = [s.energy for s in sols[1:]]
    assert rest == sorted(rest)


def test_sweep_validates_alphas():
    prob = esempio0()
    with pytest.raises(ValueError, match="nonempty"):
        sweep_alpha(prob, [])
    with pytest.raises(ValueError, match="positive"):
        sweep_alpha(prob, [-1.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        sweep_alpha(prob, [1.0, 1.0])


@pytest.mark.parametrize("alphas", [[1.0, np.inf], [np.nan]])
def test_sweep_names_a_non_finite_alpha_before_the_first_row(alphas, monkeypatch):
    # these used to come back as a row whose error was the per-alpha message
    monkeypatch.setattr(dplap.solver, "_multistart", None)  # no row may start
    with pytest.raises(ValueError, match="alphas must be"):
        sweep_alpha(esempio0(), alphas)


def test_sweep_lets_an_internal_error_out(monkeypatch):
    # only the errors a row can raise (ValueError, ArithmeticError) become
    # its error field; a broken invariant leaves the sweep
    def broken(prob, alpha, n_starts, opts, warm, eig):
        raise RuntimeError("accepted step raised the energy")

    monkeypatch.setattr(dplap.solver, "_multistart", broken)
    with pytest.raises(RuntimeError, match="accepted step raised the energy"):
        sweep_alpha(esempio0(), [0.5, 1.0], n_starts=2)


def test_sweep_captures_row_errors():
    # a nonlinearity whose f blows up far out: remote alphas record errors
    def f(k, t):
        if abs(t) > 1e3:
            raise FloatingPointError("blew up")
        return t / (1.0 + t * t)

    nl = Nonlinearity(f=f, potential=bounded_rational().potential)
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=nl)
    rows = sweep_alpha(prob, [0.1, 1.0], n_starts=2)
    assert len(rows) == 2  # never raises out of the sweep
    assert all(r.error == "" or r.n_solutions == 0 for r in rows)


def test_sweep_failure_rows_keep_the_last_good_warm_start(monkeypatch):
    # alpha 0.7 finds nothing and 0.8 raises; 1.0 still runs, warm-started
    # from the best solution at 0.5
    real = dplap.solver._multistart
    warm_starts, best = {}, {}

    def scripted(prob, alpha, n_starts, opts, warm, eig):
        warm_starts[alpha] = None if warm is None else np.array(warm)
        if alpha == 0.7:
            return []
        if alpha == 0.8:
            raise ValueError("scripted failure")
        sols = real(prob, alpha, n_starts, opts, warm, eig)
        best[alpha] = np.array(sols[0].u.interior)
        return sols

    monkeypatch.setattr(dplap.solver, "_multistart", scripted)
    rows = sweep_alpha(esempio0(), [0.5, 0.7, 0.8, 1.0], n_starts=2)
    assert [r.alpha for r in rows] == [0.5, 0.7, 0.8, 1.0]
    empty, raised = rows[1], rows[2]
    assert (empty.n_solutions, empty.min_energy, empty.error) == (0, None, "")
    assert (raised.n_solutions, raised.min_energy) == (0, None)
    assert raised.error == "scripted failure"
    assert rows[0].n_solutions > 0 and rows[3].n_solutions > 0
    assert rows[3].error == ""
    assert warm_starts[0.5] is None
    for a in (0.7, 0.8, 1.0):
        assert np.array_equal(warm_starts[a], best[0.5])


# ------------------------------------------------------------ determinism

def test_multistart_repeats_bit_identically():
    prob = esempio0()
    first = multistart_solve(prob, 1.0, n_starts=6)
    second = multistart_solve(prob, 1.0, n_starts=6)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.u.values, b.u.values)
        assert a.energy == b.energy and a.residual == b.residual


_ON_5, _ON_7 = GridFunction.from_interior([0.1] * 5), GridFunction.from_interior([0.1] * 7)


@pytest.mark.parametrize("name, call", [
    ("u", lambda prob: energy(_ON_7, prob)),
    ("u", lambda prob: gradient(_ON_7, prob)),
    ("u", lambda prob: weak_residual(_ON_7, _ON_5, prob)),
    ("test function", lambda prob: weak_residual(_ON_5, _ON_7, prob)),
    ("u", lambda prob: check_positivity(_ON_7, prob, 1.0, 1e-9)),
    ("eigen.phi", lambda prob: nontriviality_certificate(prob, 1.0, first_eigenpair(2.0, 7))),
    ("start", lambda prob: solve_newton(prob, 1.0, _ON_7)),
], ids=["energy", "gradient", "weak_residual-u", "weak_residual-v",
        "check_positivity", "nontriviality_certificate", "solve"])
def test_a_grid_function_off_the_problem_grid_is_named(name, call):
    with pytest.raises(ValueError, match=f"^{name} has T=7, problem has T=5$"):
        call(esempio0(T=5))
