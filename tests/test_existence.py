"""Existence, positivity-threshold, and multiplicity certificates."""

import math

import numpy as np
import pytest

from dplap.core import Nonlinearity, ProblemSpec, c_const, kappa, sup_norm
from dplap.existence import (CHI_SAMPLES, CHI_ZOOM_ROUNDS, ExistenceCertificate,
                             MultiplicityWindow, alpha_threshold, check_thm_esistenza,
                             check_three_solutions_window, chi, find_admissible_eps, h,
                             _max_potentials)
from dplap.nonlinearities import (_table_gamma, bounded_rational, constant, from_table,
                                  linear, scaled_per_node, truncate_nonnegative, zero)
from dplap.solver import POSITIVE, ZERO, SolverOptions, minimize_on_sublevel, multistart_solve
from dplap.spectrum import lambda1_closed_form_p2


def _prob(T=5, p=2.0, nl=None):
    return ProblemSpec(T=T, p=p, nonlinearity=nl if nl is not None else bounded_rational())


def clipped_cubic(clip=10.0):
    """f = t^3 capped at |t| = clip; steep near 0 at large scales, then flat.

    Closed-form potential keeps chi and h exact.  Satisfies the two-radius
    inequality at (c, d) = (1, 10) for p = 2, T = 2.
    """
    c3 = clip ** 3

    def f(k, t):
        if t > clip:
            return c3
        if t < -clip:
            return -c3
        return t ** 3

    def F(k, xi):
        a = abs(xi)
        if a <= clip:
            return a ** 4 / 4.0
        return clip ** 4 / 4.0 + c3 * (a - clip)

    def df(k, t):
        return 3.0 * t * t if abs(t) <= clip else 0.0

    return Nonlinearity(f=f, potential=F, df=df, is_nonnegative=True,
                        name="clipped_cubic")


# ------------------------------------------------------------------- chi

def test_chi_zero_nonlinearity():
    prob = _prob(nl=zero())
    assert chi(1.0, prob) == 0.0
    assert chi(37.5, prob) == 0.0


def test_chi_constant_hand_value():
    # F_k(xi) = xi, max over [-eps, eps] is eps, so chi = T * eps / eps^p
    prob = ProblemSpec(T=2, p=2.0, nonlinearity=constant(1.0))
    assert chi(1.0, prob) == pytest.approx(2.0, rel=1e-12)
    assert chi(4.0, prob) == pytest.approx(2.0 * 4.0 / 16.0, rel=1e-12)


def test_chi_linear_is_T_over_2_for_p2():
    # F_k(xi) = xi^2/2 peaks at the endpoints: chi = T eps^2/2 / eps^2
    for T in (2, 3, 7):
        prob = ProblemSpec(T=T, p=2.0, nonlinearity=linear())
        for eps in (0.1, 1.0, 25.0):
            assert chi(eps, prob) == pytest.approx(T / 2.0, rel=1e-12)


def test_chi_bounded_rational_closed_form():
    # even potential, increasing on [0, inf): max at eps for every node
    T, eps = 5, 100.0
    prob = _prob(T=T)
    expect = T * 0.5 * np.log1p(eps ** 2) / eps ** 2
    assert chi(eps, prob) == pytest.approx(expect, rel=1e-12)


def test_chi_shortcut_agrees_with_dense_scan():
    # same f with and without the nonnegativity flag must give the same chi
    flagged = bounded_rational()
    brute = Nonlinearity(f=flagged.f, potential=flagged.potential,
                         is_nonnegative=False)
    for T, p in ((2, 2.0), (4, 3.0)):
        fast = ProblemSpec(T=T, p=p, nonlinearity=flagged)
        slow = ProblemSpec(T=T, p=p, nonlinearity=brute)
        for eps in (0.5, 2.0, 30.0):
            assert chi(eps, fast) == pytest.approx(chi(eps, slow), rel=1e-10)


def test_chi_finds_interior_maximum():
    # F has its max inside (-eps, eps), not at the endpoint: F' = f changes
    # sign at t = 1, so F peaks at xi = 1 and decays beyond
    nl = Nonlinearity(f=lambda k, t: t * np.exp(-t * t),
                      is_nonnegative=False)
    prob = ProblemSpec(T=2, p=2.0, nonlinearity=nl)
    # F_k(xi) = (1 - exp(-xi^2))/2, increasing in |xi|; use a genuinely
    # non-monotone potential instead: f = sin(t)
    nl2 = Nonlinearity(f=lambda k, t: np.sin(t), potential=lambda k, xi: 1.0 - np.cos(xi))
    prob2 = ProblemSpec(T=2, p=2.0, nonlinearity=nl2)
    # over [-6, 6] the max of 1-cos is 2 at xi = pi (inside), not at 6
    assert chi(6.0, prob2) == pytest.approx(2.0 * 2.0 / 6.0 ** 2, rel=1e-9)


def test_chi_zoom_finds_each_row_peak_between_knots():
    # f_k = (c_k - t) * w(t) sampled on integer knots changes sign once,
    # inside a knot interval, at a different place per row; the exact max of
    # the piecewise-quadratic F_k over [-eps, eps] sits at that root r_k
    t = np.arange(-4.0, 5.0)
    roots = np.array([-2.3, -0.6, 0.35, 1.7, 2.85])
    rows = (roots[:, None] - t) * (1.0 + 0.5 * np.abs(t))
    table = from_table(t, rows)
    prob = ProblemSpec(T=roots.size, p=2.0, nonlinearity=table)
    got = _max_potentials(prob, 3.5)  # exact: the table's breakpoints are set
    # the same f and F without breakpoints take the sampled zoom
    bare = Nonlinearity(f=table.f, potential=table.potential)
    zoomed = _max_potentials(ProblemSpec(T=roots.size, p=2.0, nonlinearity=bare), 3.5)
    for k, f in enumerate(rows):
        j = np.flatnonzero((f[:-1] > 0.0) & (f[1:] < 0.0))[0]
        r = t[j] + f[j] / (f[j] - f[j + 1])  # root of the linear piece
        inner = t[(t > min(0.0, r)) & (t < max(0.0, r))]
        pts = np.sort(np.concatenate(([0.0, r], inner)))
        if r < 0.0:
            pts = pts[::-1]  # integrate from 0 down to r
        exact = np.trapezoid(np.interp(pts, t, f), pts)
        assert exact > 0.0
        assert got[k] == pytest.approx(exact, rel=1e-12)
        assert zoomed[k] == pytest.approx(exact, rel=1e-12)


def test_chi_of_a_table_catches_a_spike_between_samples():
    # f is zero but for a spike of width 1.6e-3 inside [0.5, 0.5016]: F rises
    # to 0.4 there and comes back to 0; a sampled max missed it (chi 0, a
    # false "true"), the exact max over the breakpoints does not
    nl = from_table([-1, 0, 0.5, 0.5004, 0.5008, 0.5012, 0.5016, 1],
                    [0, 0, 0, 1000, 0, -1000, 0, 0])
    assert not nl.is_nonnegative
    prob = ProblemSpec(T=5, p=2.0, nonlinearity=nl)
    cert = check_thm_esistenza(prob, 1.0)
    assert cert.chi_eps == pytest.approx(2.0, rel=1e-12)  # 5 nodes, F max 0.4
    assert cert.verdict is False


def test_chi_of_a_table_is_the_dense_maximum():
    # on random tables, per-node rows, scaled and truncated ones, the exact
    # max is never below F on a dense grid and above it only by the grid's miss
    rng = np.random.default_rng(3)
    for trial in range(40):
        t = np.unique(rng.uniform(-3.0, 3.0, rng.integers(2, 10)))
        T = int(rng.integers(2, 5))
        nl = from_table(t, rng.normal(size=(T, t.size)))
        if trial % 3 == 1:
            nl = scaled_per_node(nl, rng.uniform(-1.0, 2.0, T))
        elif trial % 3 == 2:
            nl = truncate_nonnegative(nl)
        prob = ProblemSpec(T=T, p=2.0, nonlinearity=nl)
        eps = float(rng.uniform(0.05, 4.0))
        grid = np.union1d(np.linspace(-eps, eps, 20001),
                          nl.breakpoints[np.abs(nl.breakpoints) < eps])
        dense = nl.F_at(np.repeat(np.arange(1, T + 1), grid.size),
                        np.tile(grid, T)).reshape(T, grid.size).max(axis=1)
        got = _max_potentials(prob, eps)
        assert np.all(got >= dense - 1e-14 * (1.0 + np.abs(dense)))
        assert np.all(got <= dense + 1e-5 * (1.0 + np.abs(dense)))


def test_chi_rejects_nonpositive_eps():
    prob = _prob()
    with pytest.raises(ValueError, match="eps must be positive"):
        chi(0.0, prob)


def test_chi_rejects_infinite_eps():
    prob = _prob()
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        chi(np.inf, prob)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        check_thm_esistenza(prob, np.inf)


def test_radii_out_of_range_are_named():
    # p = 2: 1e-170 ** 2 underflows to 0 and 1e200 ** 2 overflows
    prob = _prob(nl=linear())
    window = check_three_solutions_window
    for call, match in (
            (lambda: chi(1e-170, prob), r"eps \*\* p underflows to 0"),
            (lambda: chi(1e200, prob), r"eps \*\* p overflows"),
            (lambda: h(1e200, prob), r"xi \*\* p overflows"),
            (lambda: window(prob, 1e-320, 1.0), r"c \*\* p underflows to 0"),
            (lambda: window(prob, 1.0, 1e200), r"d \*\* p overflows"),
            (lambda: window(prob, 1.0, np.inf), "0 < c < d"),
            (lambda: find_admissible_eps(prob, (1e-320, 1.0)),
             r"eps_range lo \*\* p underflows to 0"),
            (lambda: find_admissible_eps(prob, (1.0, np.inf)), "eps_range")):
        with pytest.raises(ValueError, match=match):
            call()


def test_subnormal_pth_power_is_rejected():
    # 1e-155 ** 2 = 1e-310 is subnormal: chi would lose digits (1.5000000000000742)
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=bounded_rational())
    with pytest.raises(ValueError, match=r"eps \*\* p underflows to a subnormal at eps = 1e-155"):
        chi(1e-155, prob)
    assert chi(1e-100, prob) == 1.5


def test_chi_zoom_skips_midpoints_outside_the_interval(monkeypatch):
    # f = sin with no potential: each F value is one quadrature, and every
    # node's F = 1 - cos peaks at the endpoints of [-2.5, 2.5], where one of
    # the two zoom midpoints lies outside and is not evaluated
    calls = []
    quad_F = Nonlinearity._quad_F

    def counting(self, k, xi):
        calls.append(xi)
        return quad_F(self, k, xi)

    monkeypatch.setattr(Nonlinearity, "_quad_F", counting)
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=Nonlinearity(f=lambda k, t: np.sin(t)))
    calls.clear()
    value = chi(2.5, prob)
    assert len(calls) == 3 * CHI_SAMPLES + 3 * CHI_ZOOM_ROUNDS
    assert max(abs(x) for x in calls) == 2.5
    assert value == pytest.approx(3.0 * (1.0 - np.cos(2.5)) / 2.5 ** 2, rel=1e-9)


# --------------------------------------------------------------------- h

def test_h_hand_values():
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=linear())
    assert h(2.0, prob) == pytest.approx(1.5, rel=1e-12)  # T/2
    prob2 = ProblemSpec(T=2, p=2.0, nonlinearity=bounded_rational())
    assert h(1.0, prob2) == pytest.approx(np.log(2.0), rel=1e-12)
    assert h(1.0, prob2) / 2.0 == pytest.approx(0.5 * np.log(2.0), rel=1e-12)


def test_h_equals_chi_for_nonneg_increasing_potential():
    prob = _prob(T=4)
    for xi in (0.3, 1.0, 10.0):
        assert h(xi, prob) == pytest.approx(chi(xi, prob), rel=1e-12)


def test_h_rejects_nonpositive_xi():
    with pytest.raises(ValueError, match="xi must be positive"):
        h(-1.0, _prob())


# --------------------------------------------------- existence certificate

def test_certificate_zero_f_always_passes():
    prob = _prob(nl=zero())
    cert = check_thm_esistenza(prob, 1.0)
    assert cert.verdict
    assert cert.chi_eps == 0.0
    assert cert.margin == cert.bound == c_const(2.0, 5)
    assert cert.sigma == pytest.approx(kappa(2.0, 5) ** 2, rel=1e-14)


def test_certificate_linear_never_passes_p2():
    # chi = T/2 >= bound for every T (the linear problem has no small
    # solutions except 0; the smallness test must not certify it)
    for T in range(2, 40):
        prob = ProblemSpec(T=T, p=2.0, nonlinearity=linear())
        cert = check_thm_esistenza(prob, 1.0)
        assert not cert.verdict


def test_certificate_example_large_eps():
    prob = _prob(T=5)
    cert = check_thm_esistenza(prob, 100.0)
    assert cert.verdict
    assert cert.chi_eps == pytest.approx(5 * 0.5 * np.log1p(1e4) / 1e4, rel=1e-12)
    assert cert.bound == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert cert.margin == pytest.approx(cert.bound - cert.chi_eps, rel=1e-14)
    assert cert.sigma == pytest.approx(kappa(2.0, 5) ** 2 * 1e4, rel=1e-12)


def test_certificate_small_eps_fails_for_bounded_rational():
    # near 0 the nonlinearity is essentially linear with slope 1 and
    # chi(eps) -> T/2 > 1/3: smallness fails at tiny eps
    prob = _prob(T=5)
    cert = check_thm_esistenza(prob, 1e-3)
    assert not cert.verdict


def test_certificate_holds_below_alpha_max():
    # constant f = 1 at T = 5, p = 2: chi(eps) = 5 / eps and bound = 1/3, so
    # alpha_max = eps / 15; the one solution alpha k (6 - k) / 2 has sup norm
    # 4.5 alpha, below eps for every alpha < alpha_max
    prob = _prob(nl=constant(1.0))
    for eps in (1.0, 100.0):
        cert = check_thm_esistenza(prob, eps)
        assert cert.alpha == 1.0 and cert.nonzero
        assert cert.alpha_max == pytest.approx(eps / 15.0, rel=1e-15)
        below = check_thm_esistenza(prob, eps, 0.99 * cert.alpha_max)
        assert below.verdict and below.margin > 0.0
        above = check_thm_esistenza(prob, eps, 1.01 * cert.alpha_max)
        assert not above.verdict and above.margin < 0.0
    zero_cert = check_thm_esistenza(_prob(nl=zero()), 1.0)
    assert zero_cert.alpha_max == math.inf and not zero_cert.nonzero
    assert not check_thm_esistenza(_prob(), 1.0).nonzero  # bounded_rational: f(0) = 0
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        check_thm_esistenza(prob, 1.0, math.inf)


def test_a_nan_chi_backs_no_alpha():
    # F is NaN on 3.5 < |xi| < 3.9, past the consistency check's sample
    # points: chi(4) is NaN, and an alpha_max, alpha_lo or alpha_hi of inf
    # would claim every alpha
    nl = Nonlinearity(f=lambda k, t: np.asarray(t, float),
                      potential=lambda k, xi: np.where((abs(xi) > 3.5) & (abs(xi) < 3.9),
                                                       np.nan, xi * xi / 2))
    prob = _prob(T=3, nl=nl)  # ProblemSpec runs check_consistency
    cert = check_thm_esistenza(prob, 4.0, 2.0)
    assert math.isnan(cert.chi_eps) and math.isnan(cert.alpha_max) and not cert.verdict
    window = check_three_solutions_window(prob, 4.0, 5.0)
    assert math.isnan(window.alpha_lo) and math.isnan(window.alpha_hi)
    assert not window.verdict


@pytest.mark.parametrize("eps", [0.5, 3.0])
def test_sublevel_minimizer_below_alpha_max_is_interior(eps):
    # p = 3: a certificate at alpha < alpha_max hands minimize_on_sublevel a
    # ball whose minimizer is a converged interior solution with sup norm < eps
    prob = _prob(p=3.0, nl=constant(1.0))
    for share in (0.5, 0.99):
        cert = check_thm_esistenza(prob, eps, share * check_thm_esistenza(prob, eps).alpha_max)
        out = minimize_on_sublevel(prob, cert.alpha, cert.sigma, certificate=cert)
        assert cert.verdict and out.converged and not out.boundary_hit
        assert 0.0 < sup_norm(out.u) < eps


def test_find_admissible_eps_at_alpha():
    # at alpha = 30 the constant f = 1 (T = 5, p = 2) needs eps > 450
    prob = _prob(nl=constant(1.0))
    cert = find_admissible_eps(prob, (1.0, 1e3), 31, alpha=30.0)
    assert cert.alpha == 30.0 and cert.verdict and cert.eps > 450.0
    assert find_admissible_eps(prob, (1.0, 400.0), 31, alpha=30.0) is None


def test_find_admissible_eps_picks_largest_margin():
    prob = _prob(T=5)
    cert = find_admissible_eps(prob)
    assert cert is not None
    assert cert.verdict
    # re-evaluate independently at the returned eps
    again = check_thm_esistenza(prob, cert.eps)
    assert again.verdict
    assert again.margin == pytest.approx(cert.margin, rel=1e-12)
    # chi -> 0 as eps grows, so the margin is best at the top of the range
    assert cert.eps == pytest.approx(1e3, rel=1e-12)


def test_find_admissible_eps_returns_none_for_linear():
    prob = ProblemSpec(T=4, p=2.0, nonlinearity=linear())
    assert find_admissible_eps(prob, (1e-2, 1e2), 50) is None


def test_find_admissible_eps_validates_range():
    prob = _prob()
    with pytest.raises(ValueError, match="eps_range"):
        find_admissible_eps(prob, (1.0, 0.5))
    with pytest.raises(ValueError, match="n_grid"):
        find_admissible_eps(prob, (0.5, 1.0), 0)


@pytest.mark.parametrize("eps_range", [(1e-3, 1.0, 5.0), (1e-3,), 1.0])
def test_find_admissible_eps_names_a_malformed_eps_range(eps_range):
    with pytest.raises(ValueError, match=r"^eps_range must satisfy 0 < lo < hi < inf$"):
        find_admissible_eps(_prob(), eps_range)


@pytest.mark.parametrize("n_grid", [2.5, np.inf])
def test_find_admissible_eps_names_a_non_integer_n_grid(n_grid):
    with pytest.raises(ValueError, match="n_grid"):
        find_admissible_eps(_prob(), (0.5, 1.0), n_grid)


# ------------------------------------------------------- alpha threshold

def test_alpha_threshold_esempio0():
    # gamma = 1/2 and lambda_1 = 2 - sqrt(3): threshold is exactly lambda_1
    prob = _prob(T=5)
    thr = alpha_threshold(prob)
    assert thr == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-12)
    # p = 2 display: (2/gamma_min) sin^2(pi/(2(T+1)))
    display = (2.0 / 0.5) * np.sin(np.pi / 12.0) ** 2
    assert thr == pytest.approx(display, abs=1e-12)


def test_alpha_threshold_explicit_gamma_overrides():
    prob = _prob(T=3)
    thr1 = alpha_threshold(prob, gamma=1.0)
    assert thr1 == pytest.approx((2.0 - np.sqrt(2.0)) / 2.0, rel=1e-12)
    # halving gamma doubles the threshold
    thr2 = alpha_threshold(prob, gamma=0.5)
    assert thr2 == pytest.approx(2.0 * thr1, rel=1e-12)
    # per-node gamma: the minimum entry governs
    thr3 = alpha_threshold(prob, gamma=[1.0, 0.5, 2.0])
    assert thr3 == pytest.approx(thr2, rel=1e-12)


def test_alpha_threshold_p3_uses_eigenvalue():
    nl = Nonlinearity(f=bounded_rational().f, potential=bounded_rational().potential,
                      is_nonnegative=True, gamma=0.5)
    prob = ProblemSpec(T=4, p=3.0, nonlinearity=nl)
    from dplap.spectrum import first_eigenpair
    lam1 = first_eigenpair(3.0, 4).lambda_
    assert alpha_threshold(prob) == pytest.approx(lam1 / (3.0 * 0.5), rel=1e-9)


def test_alpha_threshold_requires_nonnegative_flag():
    nl = Nonlinearity(f=lambda k, t: t, potential=lambda k, xi: 0.5 * xi * xi,
                      is_nonnegative=False, gamma=0.5)
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=nl)
    with pytest.raises(ValueError, match="nonnegative"):
        alpha_threshold(prob)


def test_alpha_threshold_refuses_silent_estimation():
    # no gamma declared or passed: a liminf cannot be read off samples
    nl = Nonlinearity(f=bounded_rational().f, potential=bounded_rational().potential,
                      is_nonnegative=True, gamma=None)
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=nl)
    with pytest.raises(ValueError, match="^no gamma declared; pass gamma="):
        alpha_threshold(prob)
    assert alpha_threshold(prob, gamma=0.5) == lambda1_closed_form_p2(3) / (2.0 * 0.5)


def test_alpha_threshold_rejects_bad_gamma():
    prob = _prob(T=3)
    with pytest.raises(ValueError, match="positive"):
        alpha_threshold(prob, gamma=0.0)
    with pytest.raises(ValueError, match="positive"):
        alpha_threshold(prob, gamma=[0.5, -1.0, 0.5])


def test_gamma_length_mismatch_names_gamma_and_T():
    with pytest.raises(ValueError, match="gamma must have length T=4, got 2"):
        alpha_threshold(_prob(T=4), gamma=[0.5, 0.5])
    with pytest.raises(ValueError, match="gamma must have length T=4, got 3"):
        scaled_per_node(scaled_per_node(bounded_rational(), [1, 2, 3]), [1, 2, 3, 4])


def test_a_declared_gamma_uses_its_first_T_entries():
    # per-node data longer than T: nodes 1..T use its first T entries
    prob = ProblemSpec(T=5, p=2.0, nonlinearity=scaled_per_node(bounded_rational(), [1.0] * 7))
    assert len(prob.nonlinearity.gamma) == 7
    assert alpha_threshold(prob) == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-14)
    short = Nonlinearity(f=bounded_rational().f, potential=bounded_rational().potential,
                         is_nonnegative=True, gamma=(0.5,) * 3)
    with pytest.raises(ValueError, match="gamma must have length T=5, got 3"):
        alpha_threshold(ProblemSpec(T=5, p=2.0, nonlinearity=short))
    # a passed gamma keeps the exact-length rule
    with pytest.raises(ValueError, match="gamma must have length T=5, got 7"):
        alpha_threshold(prob, gamma=[0.5] * 7)


@pytest.mark.parametrize("T", [10, 50])
def test_alpha_threshold_is_sharp_at_p2(T):
    # below alpha* only 0 solves; just above it a positive solution appears,
    # with sup norm growing like sqrt(alpha / alpha* - 1): from r = 1.01 to
    # r = 1.1 it grows by sqrt(10).  A 1% error in alpha* breaks either half
    prob = ProblemSpec(T=T, p=2.0, nonlinearity=bounded_rational())
    thr = alpha_threshold(prob)
    sols = {r: multistart_solve(prob, r * thr, 8, SolverOptions(seed=1))
            for r in (0.9, 0.99, 1.01, 1.1)}
    for r in (0.9, 0.99):
        assert [o.positivity for o in sols[r]] == [ZERO], r
    for r in (1.01, 1.1):
        assert sols[r][0].positivity == POSITIVE, r
    ratio = sup_norm(sols[1.1][0].u) / sup_norm(sols[1.01][0].u)
    assert ratio == pytest.approx(math.sqrt(10.0), rel=0.01)


def _rational_table(n=201, shift=0.0):
    """t/(1+t^2) (plus shift) sampled at n points over [-5, 5]."""
    t = np.linspace(-5.0, 5.0, n)
    return from_table(t, shift + t / (1.0 + t * t))


def test_table_gamma_is_exact_from_the_first_piece():
    # f(0) = 0 and the first piece has slope s = f(b)/b at b = 0.05
    nl = _rational_table()
    s = 1.0 / 1.0025
    assert _table_gamma(nl, 3, 2.0) == pytest.approx(np.full(3, s / 2.0), rel=1e-14)
    assert np.array_equal(_table_gamma(nl, 3, 1.5), np.zeros(3))
    assert np.array_equal(_table_gamma(nl, 3, 3.0), np.full(3, np.inf))
    # f(0) > 0: F(xi)/xi^p grows without bound at every p
    for p in (1.5, 2.0, 3.0):
        assert np.all(_table_gamma(_rational_table(shift=0.1), 3, p) == np.inf)
    # an even sample count leaves 0 between samples: the interpolant rounds
    # this odd table's f(0) to -3.5e-18, which must not read as f(0) < 0
    odd = _rational_table(n=202)
    assert float(odd.f(1, 0.0)) < 0.0
    assert _table_gamma(odd, 1, 2.0) == pytest.approx(0.5, rel=1e-3)
    # 0 is inserted as a breakpoint; flat to the right of 0 means s = 0
    assert np.array_equal(_table_gamma(from_table([-1.0, 2.0], [-1.0, 2.0]), 2, 2.0),
                          np.full(2, 0.5))
    assert np.array_equal(_table_gamma(from_table([-1.0, 0.0, 1.0], [-1.0, 0.0, 0.0]), 2, 3.0),
                          np.zeros(2))
    # per node: rows, a scale and a truncation are all read through f
    rows = from_table([0.0, 1.0], [[0.0, 1.0], [0.0, 3.0]])
    assert np.array_equal(_table_gamma(rows, 2, 2.0), [0.5, 1.5])
    scaled = truncate_nonnegative(scaled_per_node(nl, [1.0, 4.0]))
    assert _table_gamma(scaled, 2, 2.0) == pytest.approx([s / 2.0, 2.0 * s], rel=1e-14)


def test_alpha_threshold_rejects_a_gamma_above_a_tables_exact_one():
    # the table is t/(1+t^2), whose exact gamma at p = 2 is its first slope
    # over 2, not the 5 declared: that gave a threshold 10x too low
    prob = ProblemSpec(T=10, p=2.0, nonlinearity=_rational_table())
    assert prob.nonlinearity.is_nonnegative
    with pytest.raises(ValueError, match="gamma 5.0 at node k=1 exceeds"):
        alpha_threshold(prob, gamma=5.0)
    gam = [0.4] * 10
    gam[2] = 0.5
    with pytest.raises(ValueError, match="gamma 0.5 at node k=3 exceeds"):
        alpha_threshold(prob, gamma=gam)
    exact = 0.5 / 1.0025
    assert alpha_threshold(prob, gamma=exact) == pytest.approx(
        lambda1_closed_form_p2(10) / (2.0 * exact), rel=1e-15)
    # p < 2: the exact gamma is 0, so no positive gamma holds
    with pytest.raises(ValueError, match="gamma"):
        alpha_threshold(ProblemSpec(T=3, p=1.5, nonlinearity=_rational_table()), gamma=0.1)


# -------------------------------------------------- three-solutions window

def test_window_rejects_bad_radii():
    with pytest.raises(ValueError, match="0 < c < d"):
        check_three_solutions_window(_prob(), 2.0, 1.0)
    with pytest.raises(ValueError, match="0 < c < d"):
        check_three_solutions_window(_prob(), 0.0, 1.0)


def test_window_zero_f_is_empty():
    win = check_three_solutions_window(_prob(nl=zero()), 1.0, 2.0)
    assert not win.verdict
    assert win.alpha_lo == np.inf  # bracket h(d) - (c/d)^p chi(c) is zero
    assert win.alpha_hi == np.inf  # chi(c) = 0


def test_window_linear_f_is_empty():
    # chi(c) = h(d) = T/2: the inequality T/2 < (2/(T+1))^{p-1}(T/2)(1-(c/d)^p)
    # fails since the right side is strictly smaller
    for T in (2, 3, 8):
        prob = ProblemSpec(T=T, p=2.0, nonlinearity=linear())
        win = check_three_solutions_window(prob, 1.0, 10.0)
        assert not win.verdict


def test_window_clipped_cubic_hand_check():
    prob = ProblemSpec(T=2, p=2.0, nonlinearity=clipped_cubic())
    win = check_three_solutions_window(prob, 1.0, 10.0)
    # chi(1) = 2 * (1/4) = 1/2;  h(10) = 2 * 2500/100 = 50
    chi_c = 0.5
    h_d = 50.0
    bracket = h_d - (1.0 / 10.0) ** 2 * chi_c
    assert win.verdict
    assert win.alpha_lo == pytest.approx(2.0 / (2.0 * bracket), rel=1e-12)
    assert win.alpha_hi == pytest.approx(4.0 / (2.0 * chi_c * 3.0), rel=1e-12)
    assert win.alpha_lo < 1.0 < win.alpha_hi  # alpha = 1 sits inside


def test_window_verdict_iff_nonempty_interval():
    # the inequality defining the verdict is equivalent to alpha_lo < alpha_hi
    rng = np.random.Generator(np.random.Philox(17))
    probs = [
        _prob(T=2), _prob(T=5),
        ProblemSpec(T=3, p=2.0, nonlinearity=linear()),
        ProblemSpec(T=2, p=2.0, nonlinearity=clipped_cubic()),
        ProblemSpec(T=4, p=3.0, nonlinearity=clipped_cubic(2.0)),
    ]
    for prob in probs:
        for _ in range(20):
            c = float(rng.uniform(0.05, 5.0))
            d = c * float(rng.uniform(1.01, 20.0))
            win = check_three_solutions_window(prob, c, d)
            assert win.verdict == (win.alpha_lo < win.alpha_hi)


def test_window_fields_round_trip():
    win = check_three_solutions_window(_prob(T=2), 0.5, 2.0)
    assert isinstance(win, MultiplicityWindow)
    assert win.c == 0.5 and win.d == 2.0


# ---------------------------------------------- cross-module consistency

def test_bound_equals_lambda1_scaling_p2():
    # both the embedding bound and the threshold trace back to the same
    # constants; sanity-check their magnitudes against lambda_1
    T = 5
    lam1 = lambda1_closed_form_p2(T)
    assert 0.0 < lam1 < 4.0
    assert c_const(2.0, T) > 0.0


def test_certificate_is_frozen_dataclass():
    cert = check_thm_esistenza(_prob(nl=zero()), 1.0)
    assert isinstance(cert, ExistenceCertificate)
    with pytest.raises(AttributeError):
        cert.eps = 2.0
