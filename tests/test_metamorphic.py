"""Metamorphic relations: exact symmetries of the discrete problem that tie two
runs together where no closed form gives the answer.

- Node reversal k -> T+1-k, with the per-node data reversed, leaves chi, h
  and the existence certificate unchanged and maps each solve to its mirror
  image.
- alpha-homogeneity: the right-hand side s f at alpha is f at s alpha, so the
  certificate's alpha_max for s f is alpha_max for f divided by s.
- Odd symmetry: for an odd f, -u is a solution exactly when u is.
- Table refinement: a knot inserted inside a linear piece of a table, at its
  interpolated value, leaves chi, h, gamma, is_nonnegative and each solve
  unchanged.

The two runs of a relation take different rounding paths (sums in another
order, s alpha f for alpha s f), so they agree to rounding, not bit for bit.
The exception is odd symmetry: negation commutes with every rounding, so
the two solves are exact mirror images.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dplap.core import GridFunction, ProblemSpec
from dplap.existence import check_thm_esistenza, chi, h
from dplap.nonlinearities import _table_gamma, bounded_rational, from_table, scaled_per_node
from dplap.solver import solve_newton

_ULP = np.finfo(float).eps
_T, _P = 7, 2.5
# Two solves of one relation from equivalent starts end within 4.2e-10 of
# each other (relative to max(1, sup norm)) over 3000 random cases of each
# relation, converged or not.  The cases are drawn in general position, from
# a seeded generator: from a symmetric start, or at a degenerate zero (where
# the residual tolerance fixes u only to about tol^(1/(p-1))), two rounding
# paths may part and both be right.
_SOLVE_AGREEMENT = 1e-8
_SEEDS = st.integers(0, 2**32 - 1)
# The solve relations draw their cases from a seeded generator, so a shrunk
# seed is no simpler a case: they skip shrinking, which reruns two solves per
# step and held a failure back for about 90 s before it was reported.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def mirrored_tables(rng):
    """(problem, its node reversal) for a random 13-point table with one row
    per node, T = 7, p = 2.5."""
    ts = np.cumsum(rng.uniform(0.05, 1.0, 13)) - 3.0
    rows = rng.uniform(-2.0, 2.0, (_T, 13))
    return (ProblemSpec(T=_T, p=_P, nonlinearity=from_table(ts, rows)),
            ProblemSpec(T=_T, p=_P, nonlinearity=from_table(ts, rows[::-1])))


def _far(u, v):
    """Sup-norm distance of u and v relative to max(1, sup norm of u)."""
    return float(np.max(np.abs(u - v))) / max(1.0, float(np.max(np.abs(u))))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(_SEEDS, st.floats(0.1, 4.0))
def test_node_reversal_keeps_chi_and_h(seed, radius):
    # the per-node terms are the same floats, summed in the other order:
    # a sum of 7 terms moves by at most 6 ulps of the sum of their sizes
    prob, mirror = mirrored_tables(np.random.default_rng(seed))
    sizes = np.abs(prob.nonlinearity.F_vec(np.full(_T, radius))).sum() / radius ** _P
    assert abs(h(radius, mirror) - h(radius, prob)) <= 8 * _ULP * sizes
    value = chi(radius, prob)  # a sum of maxima over intervals holding 0: all >= 0
    assert abs(chi(radius, mirror) - value) <= 8 * _ULP * value


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          phases=_NO_SHRINK)
@given(_SEEDS, st.floats(0.2, 3.0))
def test_node_reversal_mirrors_each_solve(seed, alpha):
    rng = np.random.default_rng(seed)
    prob, mirror = mirrored_tables(rng)
    u0 = rng.uniform(-2.0, 2.0, _T)
    out = solve_newton(prob, alpha, GridFunction.from_interior(u0))
    back = solve_newton(mirror, alpha, GridFunction.from_interior(u0[::-1]))
    assert _far(out.u.interior, back.u.interior[::-1]) <= _SOLVE_AGREEMENT


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          phases=_NO_SHRINK)
@given(st.integers(2, 8), st.sampled_from([1.5, 2.0, 2.5, 3.0]), _SEEDS)
def test_scaling_f_is_scaling_alpha(T, p, seed):
    # s in [0.25, 4], alpha in [0.2, 3] and a uniform(-2, 2) start
    rng = np.random.default_rng(seed)
    s, alpha = rng.uniform(0.25, 4.0), rng.uniform(0.2, 3.0)
    u0 = GridFunction.from_interior(rng.uniform(-2.0, 2.0, T))
    nl = bounded_rational()
    scaled = solve_newton(ProblemSpec(T=T, p=p, nonlinearity=scaled_per_node(nl, [s] * T)),
                          alpha, u0)
    plain = solve_newton(ProblemSpec(T=T, p=p, nonlinearity=nl), s * alpha, u0)
    assert _far(plain.u.interior, scaled.u.interior) <= _SOLVE_AGREEMENT


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(_SEEDS)
def test_node_reversal_keeps_the_existence_certificate(seed):
    # eps in [0.1, 4], and alpha within a factor 1.5 of alpha_max, so that
    # about half the verdicts are true
    rng = np.random.default_rng(seed)
    prob, mirror = mirrored_tables(rng)
    eps = rng.uniform(0.1, 4.0)
    alpha = check_thm_esistenza(prob, eps).alpha_max * rng.uniform(0.5, 1.5)
    cert, back = check_thm_esistenza(prob, eps, alpha), check_thm_esistenza(mirror, eps, alpha)
    assert abs(back.chi_eps - cert.chi_eps) <= 8 * _ULP * cert.chi_eps
    assert back.verdict == cert.verdict


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(_SEEDS)
def test_scaling_f_divides_alpha_max(seed):
    # chi is a sum of 7 nonnegative maxima, each scaled by s in [0.25, 4]:
    # with the two divisions, alpha_max moves by at most 10 ulps
    rng = np.random.default_rng(seed)
    prob, _ = mirrored_tables(rng)
    eps, s = rng.uniform(0.1, 4.0), rng.uniform(0.25, 4.0)
    scaled = ProblemSpec(T=_T, p=_P, nonlinearity=scaled_per_node(prob.nonlinearity, [s] * _T))
    expect = check_thm_esistenza(prob, eps).alpha_max / s
    assert abs(check_thm_esistenza(scaled, eps).alpha_max - expect) <= 10 * _ULP * expect


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          phases=_NO_SHRINK)
@given(st.integers(2, 8), st.sampled_from([1.5, 2.0, 2.5, 3.0]), _SEEDS)
def test_odd_f_mirrors_each_solve(T, p, seed):
    # bounded_rational is odd: from -u0 the solve takes the negated path
    rng = np.random.default_rng(seed)
    alpha, u0 = rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0, T)
    prob = ProblemSpec(T=T, p=p, nonlinearity=bounded_rational())
    out = solve_newton(prob, alpha, GridFunction.from_interior(u0))
    neg = solve_newton(prob, alpha, GridFunction.from_interior(-u0))
    assert np.array_equal(neg.u.values, -out.u.values)
    assert neg.energy == out.energy


def refined_tables(rng, p):
    """(problem, the same table with one knot inserted inside a piece) for a
    random 13-point table with one row per node, T = 7.  Half the tables
    are nonnegative, and half have a knot at 0 where f is 0, so that
    is_nonnegative and a finite gamma are drawn too; half the knots go into
    the piece right of the knot nearest 0, whose slope sets gamma."""
    ts = np.cumsum(rng.uniform(0.05, 1.0, 13)) - 3.0
    rows = rng.uniform(-2.0, 2.0, (_T, 13))
    if rng.random() < 0.5:
        rows = np.abs(rows)
    z = int(np.argmin(np.abs(ts)))
    if rng.random() < 0.5:
        ts[z], rows[:, z] = 0.0, 0.0
    j = rng.integers(0, 12) if rng.random() < 0.5 else min(z, 11)
    t = ts[j] + rng.uniform(0.1, 0.9) * (ts[j + 1] - ts[j])
    col = [np.interp(t, ts, r) for r in rows]
    fine = from_table(np.insert(ts, j + 1, t), np.insert(rows, j + 1, col, axis=1))
    return (ProblemSpec(T=_T, p=p, nonlinearity=from_table(ts, rows)),
            ProblemSpec(T=_T, p=p, nonlinearity=fine))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_SEEDS, st.sampled_from([2.0, 2.5]), st.floats(0.1, 4.0))
def test_table_refinement_keeps_chi_h_and_gamma(seed, p, radius):
    # the refined potential sums one more trapezoid, and the new knot's value
    # is the line's rounded: F_k moves by an ulp or so of max |f| |xi|, |f| <= 2
    prob, fine = refined_tables(np.random.default_rng(seed), p)
    tol = 4 * _ULP * _T * 2.0 * radius / radius ** p
    assert abs(h(radius, fine) - h(radius, prob)) <= tol
    assert abs(chi(radius, fine) - chi(radius, prob)) <= tol
    assert fine.nonlinearity.is_nonnegative == prob.nonlinearity.is_nonnegative
    gamma = _table_gamma(prob.nonlinearity, _T, p)
    fine_gamma = _table_gamma(fine.nonlinearity, _T, p)
    finite = np.isfinite(gamma)
    assert np.array_equal(np.isfinite(fine_gamma), finite)
    assert np.array_equal(fine_gamma[~finite], gamma[~finite])
    assert np.allclose(fine_gamma[finite], gamma[finite], rtol=1e-14, atol=0.0)


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          phases=_NO_SHRINK)
@given(_SEEDS, st.sampled_from([2.0, 2.5]), st.floats(0.2, 3.0))
def test_table_refinement_keeps_each_solve(seed, p, alpha):
    rng = np.random.default_rng(seed)
    prob, fine = refined_tables(rng, p)
    u0 = GridFunction.from_interior(rng.uniform(-2.0, 2.0, _T))
    out, refined = solve_newton(prob, alpha, u0), solve_newton(fine, alpha, u0)
    assert _far(out.u.interior, refined.u.interior) <= _SOLVE_AGREEMENT
