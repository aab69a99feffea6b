"""Grid functions, difference operators, and the embedding constants."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import dplap.core
import dplap.existence
from dplap.core import (QUAD_ABS_TOL, GridFunction, Nonlinearity, ProblemSpec, c_const,
                        forward_difference, kappa, p_laplacian, p_norm, phi_p, quad,
                        sup_norm, theta)
from dplap.existence import check_thm_esistenza, chi, h
from dplap.nonlinearities import (_check_gamma, bounded_rational, constant, from_table,
                                  linear, power, scaled_per_node, zero)
from dplap.solver import truncate_nonnegative


# ---------------------------------------------------------------- phi_p

def test_phi_p_is_identity_for_p2():
    s = np.linspace(-3.0, 3.0, 41)
    assert np.allclose(phi_p(s, 2.0), s, rtol=0, atol=0)


def test_phi_p_scalar_values():
    assert phi_p(2.0, 3.0) == 4.0
    assert phi_p(-2.0, 3.0) == -4.0
    assert phi_p(0.0, 1.5) == 0.0
    assert phi_p(0.25, 1.5) == 0.5
    assert isinstance(phi_p(1.0, 2.0), float)


def test_phi_p_is_odd_and_monotone():
    rng = np.random.Generator(np.random.Philox(7))
    for p in (1.2, 1.5, 2.0, 3.0, 7.5):
        s = rng.uniform(-10.0, 10.0, 200)
        assert np.allclose(phi_p(-s, p), -phi_p(s, p), rtol=0, atol=0)
        t = np.sort(s)
        assert np.all(np.diff(phi_p(t, p)) >= 0.0)


def test_phi_p_rejects_p_at_most_one():
    with pytest.raises(ValueError, match="p must exceed 1"):
        phi_p(1.0, 1.0)
    with pytest.raises(ValueError, match="p must exceed 1"):
        phi_p(1.0, 0.5)


# ---------------------------------------------------------- GridFunction

def test_grid_function_shape_and_accessors():
    u = GridFunction(np.array([0.0, 1.0, -2.0, 3.0, 0.0]))
    assert u.T == 3
    assert u(0) == 0.0 and u(4) == 0.0
    assert u(2) == -2.0
    assert np.array_equal(u.interior, [1.0, -2.0, 3.0])


def test_grid_function_rejects_nonzero_boundary():
    with pytest.raises(ValueError, match="boundary"):
        GridFunction(np.array([0.1, 1.0, 2.0, 0.0]))
    with pytest.raises(ValueError, match="boundary"):
        GridFunction(np.array([0.0, 1.0, 2.0, -0.1]))


def test_grid_function_rejects_small_grids():
    # fewer than 2 interior nodes means T < 2
    with pytest.raises(ValueError, match="T >= 2"):
        GridFunction(np.array([0.0, 1.0, 0.0]))


def test_grid_function_is_immutable():
    u = GridFunction.from_interior([1.0, 2.0])
    with pytest.raises(ValueError):
        u.values[1] = 5.0


def test_from_interior_and_zero():
    u = GridFunction.from_interior([4.0, 5.0, 6.0])
    assert np.array_equal(u.values, [0.0, 4.0, 5.0, 6.0, 0.0])
    z = GridFunction.zero(4)
    assert z.T == 4
    assert np.all(z.values == 0.0)


def test_zero_takes_a_whole_float_T():
    assert GridFunction.zero(4.0).values.tobytes() == GridFunction.zero(4).values.tobytes()


@pytest.mark.parametrize("T", [1, 2.5, np.nan])
def test_zero_names_a_bad_T(T):
    with pytest.raises(ValueError, match="T must be an integer >= 2"):
        GridFunction.zero(T)


@pytest.mark.parametrize("k", [-1, -5, 5, 100])
def test_grid_function_rejects_nodes_off_the_grid(k):
    # u(-1) would otherwise read u(T+1) through negative indexing
    with pytest.raises(ValueError, match=r"k must lie in 0\.\.4"):
        GridFunction.from_interior([1.0, 2.0, 3.0])(k)


def test_grid_function_reads_a_whole_float_node_and_names_a_fractional_one():
    u = GridFunction.from_interior([1.0, 2.0, 3.0])
    assert u(1.0) == u(1) == 1.0
    assert u(np.float64(4.0)) == 0.0
    for k in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"k must lie in 0\.\.4"):
            u(k)


@pytest.mark.parametrize("make", [
    lambda T: ProblemSpec(T=T, p=2.0, nonlinearity=zero()),
    lambda T: kappa(2.0, T),
    lambda T: c_const(2.0, T),
    lambda T: theta(1.0, 2.0, T),
], ids=["ProblemSpec", "kappa", "c_const", "theta"])
@pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan, 4.5, 1])
def test_non_finite_or_fractional_T_is_named(make, T):
    with pytest.raises(ValueError, match="T must be an integer >= 2"):
        make(T)


def test_grid_function_copies_its_input():
    raw = np.array([0.0, 1.0, 2.0, 0.0])
    u = GridFunction(raw)
    raw[1] = 99.0
    assert u(1) == 1.0


# ------------------------------------------------- difference operators

def test_forward_difference_values():
    u = GridFunction(np.array([0.0, 1.0, 3.0, 2.0, 0.0]))
    assert np.array_equal(forward_difference(u), [1.0, 2.0, -1.0, -2.0])


def test_p_laplacian_p2_matches_second_difference_stencil():
    rng = np.random.Generator(np.random.Philox(11))
    for T in (2, 3, 7):
        u = GridFunction.from_interior(rng.standard_normal(T))
        v = u.values
        expect = np.array([-(v[k + 1] - 2.0 * v[k] + v[k - 1]) for k in range(1, T + 1)])
        assert np.allclose(p_laplacian(u, 2.0), expect, rtol=0, atol=1e-15)


def test_p_laplacian_hand_value_p3():
    # u = (0, 1, 0): differences (1, -1), phi_3 maps them to (1, -1),
    # so the p-Laplacian at the single peak is -((-1) - 1) = 2
    u = GridFunction(np.array([0.0, 1.0, 0.0, 0.0]))
    lap = p_laplacian(u, 3.0)
    assert lap[0] == 2.0
    assert lap[1] == -1.0


def test_p_laplacian_of_zero_is_zero():
    z = GridFunction.zero(5)
    for p in (1.5, 2.0, 4.0):
        assert np.all(p_laplacian(z, p) == 0.0)


# ----------------------------------------------------------------- norms

def test_p_norm_hand_values():
    u = GridFunction(np.array([0.0, 1.0, 1.0, 0.0]))
    assert p_norm(u, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    v = GridFunction(np.array([0.0, 2.0, 0.0, 0.0]))
    assert p_norm(v, 3.0) == pytest.approx(2.0 * 2.0 ** (1.0 / 3.0), rel=1e-15)


def test_sup_norm_ignores_boundary():
    u = GridFunction(np.array([0.0, -3.0, 2.0, 0.0]))
    assert sup_norm(u) == 3.0


def test_p_norm_rejects_bad_p():
    u = GridFunction.zero(3)
    with pytest.raises(ValueError, match="p must exceed 1"):
        p_norm(u, 1.0)


# ---------------------------------------------------- embedding constants

def test_kappa_hand_values():
    # even branch at p=2, T=2: (2/2)^1 + (2/4)^1 = 3/2, then sqrt
    assert kappa(2.0, 2) == pytest.approx(np.sqrt(1.5), rel=1e-15)
    # odd branch at p=2, T=3: 2/4^(1/2) = 1
    assert kappa(2.0, 3) == pytest.approx(1.0, rel=1e-15)


def test_c_const_hand_values():
    assert c_const(2.0, 2) == pytest.approx(0.75, rel=1e-15)
    assert c_const(2.0, 3) == pytest.approx(0.5, rel=1e-15)
    assert c_const(3.0, 5) == pytest.approx(8.0 / (3.0 * 36.0), rel=1e-15)


def test_c_const_equals_kappa_power_over_p():
    for p in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        for T in range(2, 101):
            assert c_const(p, T) == pytest.approx(kappa(p, T) ** p / p, rel=1e-14)


def test_kappa_validates_arguments():
    # every core entry point that takes p or T raises the one shared message
    u = GridFunction.zero(3)
    bad_p, bad_T = "p must exceed 1", "T must be an integer >= 2"
    cases = [
        (bad_p, lambda: kappa(1.0, 5)),
        (bad_p, lambda: c_const(0.5, 5)),
        (bad_p, lambda: theta(1.0, 1.0, 5)),
        (bad_p, lambda: phi_p(1.0, 1.0)),
        (bad_p, lambda: p_norm(u, 1.0)),
        (bad_p, lambda: p_laplacian(u, 1.0)),
        (bad_p, lambda: ProblemSpec(T=5, p=1.0, nonlinearity=zero())),
        (bad_T, lambda: kappa(2.0, 1)),
        (bad_T, lambda: c_const(2.0, 0)),
        (bad_T, lambda: theta(1.0, 2.0, 2.5)),
        (bad_T, lambda: ProblemSpec(T=1, p=2.0, nonlinearity=zero())),
    ]
    for message, call in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_embedding_inequality_random_sample():
    # sup_norm(u) * kappa <= p_norm(u) with equality achieved by tents
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(300):
        T = int(rng.integers(2, 30))
        p = float(rng.uniform(1.05, 8.0))
        u = GridFunction.from_interior(rng.standard_normal(T))
        assert sup_norm(u) * kappa(p, T) <= p_norm(u, p) + 1e-12


def test_embedding_constant_is_sharp_on_tents():
    # the extremal profile rises linearly to the midpoint and back down
    for p in (1.5, 2.0, 3.0):
        for T in (3, 5, 9):  # odd T: peak at (T+1)/2
            m = (T + 1) // 2
            vals = [min(k, T + 1 - k) / m for k in range(T + 2)]
            u = GridFunction(np.array(vals, dtype=float))
            assert sup_norm(u) * kappa(p, T) == pytest.approx(p_norm(u, p), rel=1e-12)


def test_theta_minimum_and_symmetry():
    for p in (1.5, 2.0, 4.0):
        for T in (3, 5, 7):  # odd T makes the midpoint a grid value
            mid = (T + 1) / 2.0
            tmin = theta(mid, p, T)
            assert tmin == pytest.approx(2.0 ** p / (T + 1) ** (p - 1.0), rel=1e-14)
            for s in np.linspace(0.3, T + 0.7, 17):
                assert theta(s, p, T) >= tmin - 1e-14
                assert theta(s, p, T) == pytest.approx(theta(T + 1 - s, p, T), rel=1e-12)


def test_theta_hand_value():
    assert theta(2.0, 2.0, 3) == pytest.approx(1.0, rel=1e-15)


def test_theta_rejects_out_of_domain():
    with pytest.raises(ValueError, match="must lie in"):
        theta(0.0, 2.0, 3)
    with pytest.raises(ValueError, match="must lie in"):
        theta(4.0, 2.0, 3)


def test_even_branch_kappa_exceeds_odd_formula_at_same_T():
    # theta's strict convexity: at even T the midpoint (T+1)/2 is not a grid
    # point, so the even-branch constant is strictly larger than what the
    # odd-branch formula would give at the same T
    for p in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        for T in range(2, 101, 2):
            odd_formula = 2.0 / (T + 1) ** ((p - 1.0) / p)
            assert kappa(p, T) > odd_formula


# ------------------------------------------------------------ Nonlinearity

def test_quadrature_potential_matches_closed_form():
    closed = bounded_rational()
    quaddy = Nonlinearity(f=closed.f)  # no potential: quadrature path
    for xi in (-2.5, -1.0, 0.0, 0.3, 1.0, 4.0):
        assert quaddy.eval_F(1, xi) == pytest.approx(closed.eval_F(1, xi), abs=1e-9)


def test_quadrature_potential_is_deterministic():
    nl = Nonlinearity(f=lambda k, t: t / (1.0 + t * t))
    first = nl.eval_F(2, 1.5)
    second = nl.eval_F(2, 1.5)
    assert first == second


_SQRT_F = power(0.5).f


@pytest.mark.parametrize("func, a, b", [
    (math.sin, 0.0, 1.0),
    (math.exp, 2.0, -1.0),
    (math.cos, 0.7, 0.7),
    (lambda s: _SQRT_F(1, s), 0.0, 1.7),
    (lambda s: _SQRT_F(1, s), 0.0, -3.0),
    (lambda s: s / (1.0 + s * s), 0.0, -2.5),
    (lambda s: (1.0 + abs(s)) ** -1.5, 0.0, math.inf),
], ids=["sin", "reversed", "empty", "sqrt", "sqrt-reversed", "rational-reversed",
        "infinite"])
def test_quad_is_scipy_quad_to_the_bit(func, a, b):
    kw = dict(epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
    assert quad(func, a, b, **kw) == scipy.integrate.quad(func, a, b, **kw)
    assert quad(func, a, b) == scipy.integrate.quad(func, a, b)


@pytest.mark.parametrize("func, b, kw", [
    (lambda s: abs(s - 0.3) ** 0.5, 1.0, dict(epsabs=1e-14, epsrel=1e-14, limit=3)),
    # qagse on [0, inf) reports (inf, inf) with no error; quad's qagie warns
    (lambda s: 1.0, math.inf, {}),
], ids=["unresolved", "divergent-infinite"])
def test_quad_warns_as_scipy_quad_does(func, b, kw):
    with pytest.warns(scipy.integrate.IntegrationWarning):
        quad(func, 0.0, b, **kw)


def test_quad_rejects_a_limit_below_one():
    with pytest.raises(ValueError, match="limit"):
        quad(math.sin, 0.0, 1.0, limit=0)


def test_eval_df_fd_fallback_matches_analytic():
    nl = bounded_rational()
    bare = Nonlinearity(f=nl.f)  # no df: central-difference fallback
    t = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    np.testing.assert_allclose(bare.df_vec(t), nl.df_vec(t), rtol=0.0, atol=1e-6)


TABLE_T = np.array([-3.0, -1.0, 0.0, 0.5, 2.0, 4.0])
TABLE_F = TABLE_T / (1.0 + TABLE_T ** 2)


def _exp_decay():
    # scalar-only callables: math.exp raises on arrays, so the adapter wraps them
    return Nonlinearity(f=lambda k, t: math.exp(-t),
                        potential=lambda k, xi: 1.0 - math.exp(-xi),
                        df=lambda k, t: -math.exp(-t), name="exp_decay")


VECTOR_CASES = {
    "zero": zero,
    "constant": lambda: constant(-2.5),
    "linear": lambda: linear(-1.5),
    "power(3)": lambda: power(3.0, 0.5),
    "power(0.5) fd df": lambda: power(0.5),
    "bounded_rational": bounded_rational,
    "scaled_per_node": lambda: scaled_per_node(bounded_rational(), np.linspace(0.5, 1.5, 7)),
    "truncate_nonnegative": lambda: truncate_nonnegative(bounded_rational()),
    "table 1-D": lambda: from_table(TABLE_T, TABLE_F),
    "table 2-D": lambda: from_table(TABLE_T, np.outer(np.arange(1.0, 8.0), TABLE_F)),
    "scalar-only exp": _exp_decay,
}


def _scalar_df(nl, k, t):
    """df/dt at one node and argument: nl.df, else df_vec's central difference."""
    t = float(t)
    if nl.df is not None:
        return float(nl.df(k, t))
    h = 1e-7 * (1.0 + abs(t))
    return float((nl.f(k, t + h) - nl.f(k, t - h)) / (2.0 * h))


def test_vector_helpers_match_scalar_evaluations():
    # both signs, 0, breakpoints and arguments outside the table range
    u = np.array([0.5, -1.5, 2.0, 0.0, -7.0, 9.0, -1.0])
    nodes = range(1, u.size + 1)
    for case, make in VECTOR_CASES.items():
        nl = make()
        # equal arithmetic is bit-identical; numpy's array pow may differ from
        # the scalar one in the last ulp
        rtol = 4 * np.finfo(float).eps if case.startswith("power") else 0.0
        np.testing.assert_allclose(nl.f_vec(u), [float(nl.f(k, u[k - 1])) for k in nodes],
                                   rtol=rtol, atol=0.0, err_msg=case)
        np.testing.assert_allclose(nl.F_vec(u), [nl.eval_F(k, float(u[k - 1])) for k in nodes],
                                   rtol=rtol, atol=0.0, err_msg=case)
        np.testing.assert_allclose(nl.df_vec(u), [_scalar_df(nl, k, u[k - 1]) for k in nodes],
                                   rtol=1e-12, atol=0.0, err_msg=case)
        assert isinstance(nl.f, np.vectorize) == (case == "scalar-only exp"), case


def test_vec_methods_pass_one_shared_read_only_node_array():
    seen = []

    def f(k, t):
        seen.append(k)
        return np.asarray(t, dtype=float) * 1.0

    def writes_k(k, t):
        if np.ndim(k):
            k[...] = k
        return np.asarray(t, dtype=float) * 1.0

    nl = Nonlinearity(f=f, potential=lambda k, xi: 0.5 * xi * xi)
    seen.clear()
    nl.f_vec(np.ones(5))
    nl.f_vec(np.zeros(5))
    assert seen[0] is seen[1]
    np.testing.assert_array_equal(seen[0], np.arange(1, 6))
    assert not seen[0].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        Nonlinearity(f=writes_k, potential=nl.potential).f_vec(np.ones(5))


def test_a_callable_writing_into_k_leaves_the_probe_unchanged():
    # every Nonlinearity is probed with the same two nodes: each probe call
    # gets its own copy, and the write still raises at f_vec
    def doubles_k(k, t):
        k *= 2
        return np.asarray(t, dtype=float) * 1.0

    seen = []

    def records_k(k, t):
        seen.append(np.array(k))
        return np.asarray(t, dtype=float) * 1.0

    potential = lambda k, xi: 0.5 * xi * xi  # noqa: E731
    nl = Nonlinearity(f=doubles_k, potential=potential)
    with pytest.raises(ValueError, match="read-only"):
        nl.f_vec(np.ones(5))
    Nonlinearity(f=records_k, potential=potential)
    np.testing.assert_array_equal(seen[0], [1, 2])


def test_table_f_is_np_interp_row_by_row():
    rows = np.outer([1.0, -2.0, 0.5], TABLE_F) + 0.1
    nl = from_table(TABLE_T, rows)
    t = np.concatenate((TABLE_T, np.linspace(-5.0, 5.0, 41)))
    k = np.arange(t.size) % 3 + 1
    expect = [np.interp(x, TABLE_T, rows[kk - 1]) for kk, x in zip(k, t)]
    np.testing.assert_array_equal(nl.f(k, t), expect)


def _trapezoid_potential(ts, fs, xi):
    """Integral over [0, xi] of np.interp(., ts, fs) by the trapezoid rule on
    the breakpoints inside [0, xi] (exact for a piecewise-linear integrand)."""
    lo, hi = min(0.0, xi), max(0.0, xi)
    pts = np.concatenate(([lo], ts[(ts > lo) & (ts < hi)], [hi]))
    vals = np.interp(pts, ts, fs)
    area = math.fsum((vals[1:] + vals[:-1]) * np.diff(pts) / 2.0)
    return area if xi >= 0.0 else -area


@pytest.mark.parametrize("ts", [
    TABLE_T,                                   # 0 is a breakpoint
    np.array([-3.3, -0.7, 0.45, 1.9, 4.1]),    # 0 between two breakpoints
    np.array([0.5, 1.0, 2.5, 4.0]),            # 0 left of the sampled range
    np.array([-4.0, -2.0, -0.25]),             # 0 right of the sampled range
])
def test_table_potential_matches_trapezoid_sum(ts):
    fs = np.cos(ts) + 0.3 * ts
    nl = from_table(ts, np.vstack((fs, -2.0 * fs)))
    xis = np.concatenate((ts, [-9.0, -3.5, -1e-3, 0.0, 1e-3, 0.3, 1.1, 3.7, 9.0]))
    for xi in xis:
        ref = _trapezoid_potential(ts, fs, xi)
        got = nl.F_at(np.array([1, 2]), np.array([xi, xi]))
        assert got[0] == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert got[1] == pytest.approx(-2.0 * ref, rel=1e-12, abs=1e-15)
    assert nl.eval_F(1, 0.0) == 0.0


def test_table_breakpoints_pass_through_scaling_and_truncation():
    table = from_table(TABLE_T, TABLE_F)
    assert np.array_equal(table.breakpoints, TABLE_T)
    assert scaled_per_node(table, [2.0, 3.0]).breakpoints is table.breakpoints
    assert truncate_nonnegative(table).breakpoints is table.breakpoints
    for nl in (bounded_rational(), scaled_per_node(bounded_rational(), [2.0]),
               truncate_nonnegative(bounded_rational()), _exp_decay()):
        assert nl.breakpoints is None, nl.name


BREAKPOINT_T = {
    "0 a sample": TABLE_T,
    "0 inside": np.array([-3.3, -0.7, 0.45, 1.9, 4.1]),
    "0 left": np.array([0.5, 1.0, 2.5, 4.0]),
    "0 right": np.array([-4.0, -2.0, -0.25]),
}


def _table_variants(ts, two_d):
    """A table on ts (one row for every node, or three rows) and its transforms."""
    fs = np.cos(ts) + 0.3 * ts
    table = from_table(ts, np.outer([1.0, -2.0, 0.5], fs) if two_d else fs)
    return {"table": table,
            "scaled": scaled_per_node(table, [1.5, -0.5, 2.0]),
            "truncated": truncate_nonnegative(table)}


@pytest.mark.parametrize("two_d", [False, True], ids=["1-D", "2-D"])
@pytest.mark.parametrize("case", BREAKPOINT_T)
def test_f_is_linear_between_breakpoints_and_constant_outside(case, two_d):
    ts = BREAKPOINT_T[case]
    for name, nl in _table_variants(ts, two_d).items():
        b = nl.breakpoints
        assert np.array_equal(b, np.union1d(ts, [0.0])), name
        assert not b.flags.writeable, name
        k = np.repeat(np.arange(1, 4)[:, None], b.size, axis=1)
        ends = nl.f(k, np.broadcast_to(b, k.shape))
        mid = nl.f(k[:, 1:], np.broadcast_to((b[1:] + b[:-1]) / 2.0, k[:, 1:].shape))
        np.testing.assert_allclose(mid, (ends[:, 1:] + ends[:, :-1]) / 2.0, rtol=1e-13,
                                   atol=1e-15 * np.max(np.abs(ends)), err_msg=name)
        far, kk = np.array([[1e-3, 0.7, 50.0]] * 3), k[:, :3]
        np.testing.assert_array_equal(nl.f(kk, b[0] - far), ends[:, [0, 0, 0]], err_msg=name)
        np.testing.assert_array_equal(nl.f(kk, b[-1] + far), ends[:, [-1, -1, -1]],
                                      err_msg=name)
        ProblemSpec(T=3, p=2.0, nonlinearity=nl)  # exact: no quadrature comparison


def test_table_breakpoints_are_the_callers_samples_copied():
    ts, fs = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.0, 4.0])
    nl = from_table(ts, fs)
    ts[1], fs[2] = 0.5, -9.0
    assert np.array_equal(nl.breakpoints, [-1.0, 0.0, 2.0])
    assert nl.f(1, 2.0) == 4.0
    assert ts.flags.writeable
    with pytest.raises(ValueError):
        nl.breakpoints[0] = 5.0


def test_breakpoints_are_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Nonlinearity(f=lambda k, t: t, potential=lambda k, xi: xi,
                     breakpoints=np.array([0.0]))


@pytest.mark.parametrize("transform", [lambda nl: scaled_per_node(nl, [1.0, 2.0, 3.0]),
                                       truncate_nonnegative], ids=["scaled", "truncated"])
def test_a_wrong_potential_stays_wrong_through_the_transforms(transform):
    bad = Nonlinearity(f=lambda k, t: t, potential=lambda k, xi: xi)  # should be xi^2/2
    with pytest.raises(ValueError, match="disagrees"):
        ProblemSpec(T=3, p=2.0, nonlinearity=transform(bad))


def test_dense_table_problem_skips_the_quadrature_comparison():
    # quad(limit=200) of this kinked f is off by 2.5e-7 relative at xi = 1.7,
    # past the check's 1e-8, and warns; the exact potential must not meet it
    t = np.linspace(-60.0, 60.0, 4801)
    table = from_table(t, np.clip(t ** 3, -1000.0, 1000.0))
    assert table.is_nonnegative
    for nl in (table, scaled_per_node(table, [1.0, 2.0]), truncate_nonnegative(table)):
        ProblemSpec(T=2, p=2.0, nonlinearity=nl)


def test_gamma_tuple_broadcasts_scalars():
    nl = bounded_rational()
    assert _check_gamma(nl, nl.gamma, 4, 2.0) == (0.5, 0.5, 0.5, 0.5)
    per_node = Nonlinearity(f=lambda k, t: 0.0, gamma=(1.0, 2.0))
    assert _check_gamma(per_node, per_node.gamma, 2, 2.0) == (1.0, 2.0)
    with pytest.raises(ValueError, match="length"):
        _check_gamma(per_node, per_node.gamma, 3, 2.0)


def test_from_table_checks_the_nonnegative_flag():
    # the flag is computed: a table negative at some t >= 0 must not take
    # chi = h(eps), which would pass the smallness test on a negative number
    t = [-2.0, 0.0, 2.0]
    for ts, fs in ((t, [-1.0, -1.0, -1.0]),        # constant -1
                   ([-1.0, 1.0], [-3.0, 1.0]),     # interpolated f(0) = -1
                   ([0.5, 1.0], [-0.5, 1.0]),      # f(0) held at the first sample
                   ([0.0, 1.0, 2.0], [0.0, 1.0, -0.5]),
                   ([0.0, 1.0], [[0.0, 1.0], [0.0, -1.0]])):  # one node's row
        assert from_table(ts, fs).is_nonnegative is False
    unflagged = ProblemSpec(T=4, p=2.0, nonlinearity=from_table(t, [-1.0, -1.0, -1.0]))
    assert not check_thm_esistenza(unflagged, 0.01).verdict
    # negative values left of 0 are allowed: the flag's convention covers odd f
    assert from_table(t, [-2.0, 0.0, 2.0]).is_nonnegative is True
    # the flag's second half, F(-x) <= F(x): this table would certify eps = 1
    # at T = 4, p = 2 with chi_eps 0.1 when the true value is 10
    for ts, fs in ((t, [-10.0, 0.0, 0.1]),
                   # F(x) - F(-x) is 0 at the breakpoints 2 and 3, -2 at 2.5
                   ([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [0.0, -8.0, 0.0, 0.0, 4.0, 0.0, 8.0]),
                   # fine up to |t| = 4, then f(t) + f(-t) = -1 on the tails
                   ([-4.0, -1.0, 0.0, 1.0], [-2.0, 0.0, 0.0, 1.0]),
                   (t, [[-2.0, 0.0, 2.0], [-10.0, 0.0, 0.1]])):  # one node's row
        assert from_table(ts, fs).is_nonnegative is False
    assert not check_thm_esistenza(ProblemSpec(T=4, p=2.0, nonlinearity=from_table(
        t, [-10.0, 0.0, 0.1])), 1.0).verdict


def test_from_table_takes_no_nonnegative_argument():
    with pytest.raises(TypeError):
        from_table([0.0, 1.0], [0.0, 1.0], is_nonnegative=True)


def test_table_flag_on_a_narrow_bump_and_a_dense_rational_table():
    # a narrow bump at 0.5008 and its mirror dip at 0.5012: not nonnegative,
    # so chi stays on the sampled path (its wrong verdict is a sampling matter)
    bump = from_table([-1.0, 0.0, 0.5, 0.5004, 0.5008, 0.5012, 0.5016, 1.0],
                      [0.0, 0.0, 0.0, 1000.0, 0.0, -1000.0, 0.0, 0.0])
    assert bump.is_nonnegative is False
    # t / (1 + t^2) on 201 points: odd, and >= 0 for t >= 0
    t = np.linspace(-5.0, 5.0, 201)
    rational = from_table(t, t / (1.0 + t * t))
    assert rational.is_nonnegative is True
    # its transforms keep the flag; a negative scale drops it
    assert truncate_nonnegative(rational).is_nonnegative is True
    assert scaled_per_node(rational, [1.0, 2.0]).is_nonnegative is True
    assert scaled_per_node(rational, [1.0, -2.0]).is_nonnegative is False


def test_a_nonnegative_table_takes_the_exact_chi_path(monkeypatch):
    # nonnegative on all of R, never declared so: chi is h(eps), F summed at
    # eps, and no maximum is sampled
    t = np.linspace(-3.0, 3.0, 13)
    prob = ProblemSpec(T=4, p=2.0, nonlinearity=from_table(t, t * t))
    monkeypatch.setattr(dplap.existence, "_max_potentials",
                        lambda *args: pytest.fail("chi sampled a nonnegative table"))
    for eps in (0.3, 1.0, 5.0):
        assert chi(eps, prob) == h(eps, prob)


@pytest.mark.parametrize("ts, fs, message", [
    ([0.0, 0.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing 1-D"),
    ([0.0], [1.0], "strictly increasing 1-D"),
    ([[0.0, 1.0]], [0.0, 1.0], "strictly increasing 1-D"),
    ([0.0, 1.0, 2.0], [0.0, 1.0], "f_samples length must match"),
    ([0.0, 1.0, 2.0], [[0.0, 1.0], [1.0, 2.0]], "each f_samples row must match"),
    ([0.0, 1.0], np.zeros((1, 1, 2)), "f_samples must be 1-D or 2-D"),
])
def test_from_table_rejects_bad_shapes(ts, fs, message):
    with pytest.raises(ValueError, match=message):
        from_table(ts, fs)


@pytest.mark.parametrize("ts, fs, message", [
    ([0.0, np.nan, 1.0], [0.0, 1.0, 2.0], "t_samples must be finite"),
    ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0], "t_samples must be finite"),
    ([0.0, 1.0, 2.0], [0.0, np.inf, 1.0], "f_samples must be finite"),
    ([0.0, 1.0], [[0.0, 1.0], [np.nan, 1.0]], "f_samples must be finite"),
])
def test_from_table_rejects_non_finite_samples(ts, fs, message):
    # a NaN knot passed the increasing test and gave a NaN chi
    with pytest.raises(ValueError, match=message):
        from_table(ts, fs)


@pytest.mark.parametrize("scale", [[], [[1.0, 2.0]]])
def test_scaled_per_node_rejects_an_empty_or_nested_scale(scale):
    with pytest.raises(ValueError, match="scale must be a non-empty 1-D sequence"):
        scaled_per_node(bounded_rational(), scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scaled_per_node_rejects_a_non_finite_scale_entry(bad):
    # a NaN surfaced later as "F_1(0) = nan", an inf as a RuntimeWarning
    with pytest.raises(ValueError, match="scale entries must be finite"):
        scaled_per_node(bounded_rational(), [1.0, bad, 2.0])


def test_core_finite_rule_takes_a_scalar_or_an_array():
    finite = dplap.core._finite
    assert finite("value", 2) == 2.0 and isinstance(finite("value", 2), float)
    assert np.array_equal(finite("scale entries", [1, 2]), [1.0, 2.0])
    for bad in (math.nan, -math.inf, [1.0, math.nan], [[0.0], [math.inf]]):
        with pytest.raises(ValueError, match="^x must be finite$"):
            finite("x", bad)


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5, 1.0, 2.0, 5e-324]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.sampled_from(_SPECIAL_FLOATS) | st.floats(), max_size=6))
def test_core_sequence_rule_accepts_exactly_increasing_positive_finite_lists(xs):
    # the one shape of _sequence: nonempty, strictly increasing, every entry
    # in (0, inf); repeated draws from the special floats give equal neighbours
    ok = bool(xs) and all(0.0 < x < math.inf for x in xs) and all(
        a < b for a, b in zip(xs, xs[1:]))
    if ok:
        got = dplap.core._sequence("alphas", xs)
        want = np.asarray(xs, dtype=float)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError) as info:
            dplap.core._sequence("alphas", xs)
        assert str(info.value) == ("alphas must be a nonempty sequence (length >= 1), "
                                   "strictly increasing, positive and finite")


def test_check_consistency_compares_a_flagged_potential_on_both_signs():
    # f = exp(-|t|) is nonnegative, and 1 - exp(-xi) is its potential for
    # xi >= 0 only: F(-2) = -6.39 where the integral is -0.865
    half = Nonlinearity(f=lambda k, t: np.exp(-np.abs(t)),
                        potential=lambda k, xi: 1.0 - np.exp(-xi), is_nonnegative=True)
    with pytest.raises(ValueError, match="disagrees .* xi=-0.5"):
        ProblemSpec(T=4, p=2.0, nonlinearity=half)
    whole = Nonlinearity(f=lambda k, t: np.exp(-np.abs(t)),
                         potential=lambda k, xi: np.sign(xi) * (1.0 - np.exp(-np.abs(xi))),
                         is_nonnegative=True)
    ProblemSpec(T=4, p=2.0, nonlinearity=whole)


def test_check_consistency_rejects_wrong_potential():
    bad = Nonlinearity(f=lambda k, t: t,
                       potential=lambda k, xi: xi)  # should be xi^2/2
    with pytest.raises(ValueError, match="disagrees"):
        bad.check_consistency(3)


def test_check_consistency_rejects_potential_not_vanishing_at_zero():
    bad = Nonlinearity(f=lambda k, t: t,
                       potential=lambda k, xi: 0.5 * xi * xi + 1.0)
    with pytest.raises(ValueError, match="vanish"):
        bad.check_consistency(3)


@pytest.mark.parametrize("potential, match", [
    (lambda k, xi: np.full(np.shape(xi), np.nan), "vanish"),
    (lambda k, xi: np.where(xi == 0.0, 0.0, np.nan), "disagrees"),
], ids=["nan-everywhere", "nan-off-zero"])
def test_check_consistency_rejects_a_nan_potential(potential, match):
    with pytest.raises(ValueError, match=match):
        ProblemSpec(T=3, p=2.0, nonlinearity=Nonlinearity(f=lambda k, t: t,
                                                          potential=potential))


@pytest.mark.parametrize("build, field", [
    (lambda: power(math.nan), "exponent"), (lambda: power(math.inf), "exponent"),
    (lambda: power(2.0, math.inf), "coeff"), (lambda: constant(math.nan), "value"),
    (lambda: linear(math.inf), "slope"),
], ids=["power-nan", "power-inf", "power-coeff-inf", "constant-nan", "linear-inf"])
def test_factories_reject_non_finite_parameters_by_name(build, field):
    with pytest.raises(ValueError, match=field):
        ProblemSpec(T=3, p=2.0, nonlinearity=build())


# ------------------------------------------------------------- ProblemSpec

def test_problem_spec_validates_T_and_p():
    nl = bounded_rational()
    with pytest.raises(ValueError, match="T must be an integer >= 2"):
        ProblemSpec(T=1, p=2.0, nonlinearity=nl)
    with pytest.raises(ValueError, match="p must exceed 1"):
        ProblemSpec(T=5, p=1.0, nonlinearity=nl)
    prob = ProblemSpec(T=5, p=2.0, nonlinearity=nl)
    assert prob.T == 5 and prob.p == 2.0


def test_problem_spec_rejects_table_with_fewer_rows_than_T():
    nl = from_table(TABLE_T, np.vstack((TABLE_F, TABLE_F)))
    ProblemSpec(T=2, p=2.0, nonlinearity=nl)
    with pytest.raises(ValueError, match=r"f_samples rows \(2\) fewer than T=3"):
        ProblemSpec(T=3, p=2.0, nonlinearity=nl)


def test_problem_spec_rejects_scale_shorter_than_T():
    nl = scaled_per_node(bounded_rational(), [1.0, 2.0, 3.0])
    ProblemSpec(T=3, p=2.0, nonlinearity=nl)
    with pytest.raises(ValueError, match=r"scale entries \(3\) fewer than T=5"):
        ProblemSpec(T=5, p=2.0, nonlinearity=nl)
    with pytest.raises(ValueError, match="node indices start at 1"):
        nl.f(0, 1.0)


def test_problem_spec_rejects_short_scale_for_a_nonlinearity_without_potential():
    # F_k(0) = 0 is read without calling f: only evaluating f at every node
    # finds the missing scale entries
    nl = scaled_per_node(Nonlinearity(f=lambda k, t: t * 1.0), [1.0, 2.0])
    ProblemSpec(T=2, p=2.0, nonlinearity=nl)
    with pytest.raises(ValueError, match=r"scale entries \(2\) fewer than T=4"):
        ProblemSpec(T=4, p=2.0, nonlinearity=nl)


def test_problem_spec_runs_consistency_check():
    bad = Nonlinearity(f=lambda k, t: t, potential=lambda k, xi: xi)
    with pytest.raises(ValueError, match="disagrees"):
        ProblemSpec(T=3, p=2.0, nonlinearity=bad)
