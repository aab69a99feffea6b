"""Eigenvalues and eigenpairs of the difference operator."""

import numpy as np
import pytest

import dplap.spectrum
from dplap.core import GridFunction, _dirichlet, _p_laplacian, kappa, p_norm, phi_p
from dplap.spectrum import (EigenConvergenceError, EigenPair, eigenvalues_p2,
                            first_eigenpair, lambda1_closed_form_p2, matrix_A,
                            rayleigh_quotient)


def test_matrix_A_small_cases():
    assert np.array_equal(matrix_A(2), [[2.0, -1.0], [-1.0, 2.0]])
    A3 = matrix_A(3)
    assert np.array_equal(np.diag(A3), [2.0, 2.0, 2.0])
    assert np.array_equal(np.diag(A3, 1), [-1.0, -1.0])
    assert np.array_equal(np.diag(A3, -1), [-1.0, -1.0])


def test_matrix_A_is_the_p2_operator():
    from dplap.core import p_laplacian
    rng = np.random.Generator(np.random.Philox(3))
    for T in (2, 5, 8):
        u = GridFunction.from_interior(rng.standard_normal(T))
        assert np.allclose(matrix_A(T) @ u.interior, p_laplacian(u, 2.0),
                           rtol=0, atol=1e-14)


def test_eigenvalues_p2_hand_values():
    # T = 2: 4 sin^2(pi/6) = 1, 4 sin^2(pi/3) = 3
    assert np.allclose(eigenvalues_p2(2), [1.0, 3.0], rtol=1e-15)
    # T = 3: 2 - sqrt(2), 2, 2 + sqrt(2)
    assert np.allclose(eigenvalues_p2(3),
                       [2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)], rtol=1e-15)


def test_eigenvalues_p2_match_dense_solver():
    for T in range(2, 40):
        numeric = np.sort(np.linalg.eigvalsh(matrix_A(T)))
        assert np.allclose(numeric, eigenvalues_p2(T), rtol=1e-11, atol=1e-13)


def test_eigenvalues_p2_range_and_order():
    for T in (2, 7, 31):
        lam = eigenvalues_p2(T)
        assert np.all(np.diff(lam) > 0.0)
        assert lam[0] > 0.0 and lam[-1] < 4.0


def test_lambda1_closed_form_values():
    assert lambda1_closed_form_p2(5) == pytest.approx(2.0 - np.sqrt(3.0), rel=1e-14)
    assert lambda1_closed_form_p2(3) == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-14)
    assert lambda1_closed_form_p2(7) == pytest.approx(eigenvalues_p2(7)[0], rel=1e-14)


def test_rayleigh_quotient_hand_values():
    # single peak (0,1,0,0): differences (1,-1,0) -> quotient 2
    u = GridFunction(np.array([0.0, 1.0, 0.0, 0.0]))
    assert rayleigh_quotient(u, 2.0) == pytest.approx(2.0, rel=1e-15)
    # plateau (0,1,1,0): differences (1,0,-1) -> quotient 1
    v = GridFunction(np.array([0.0, 1.0, 1.0, 0.0]))
    assert rayleigh_quotient(v, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert rayleigh_quotient(v, 3.0) == pytest.approx(1.0, rel=1e-15)


def test_rayleigh_quotient_scale_invariance():
    rng = np.random.Generator(np.random.Philox(5))
    for p in (1.5, 2.0, 3.0):
        u = GridFunction.from_interior(rng.standard_normal(6))
        q = rayleigh_quotient(u, p)
        for c in (0.01, 3.0, -2.0):
            scaled = GridFunction(c * u.values)
            assert rayleigh_quotient(scaled, p) == pytest.approx(q, rel=1e-12)


def test_rayleigh_quotient_rejects_zero():
    with pytest.raises(ValueError, match="zero"):
        rayleigh_quotient(GridFunction.zero(3), 2.0)


def test_rayleigh_quotient_bounded_below_by_lambda1():
    rng = np.random.Generator(np.random.Philox(6))
    for T in (2, 5, 12):
        lam1 = lambda1_closed_form_p2(T)
        for _ in range(200):
            u = GridFunction.from_interior(rng.standard_normal(T))
            assert rayleigh_quotient(u, 2.0) >= lam1 - 1e-12


def test_first_eigenpair_p2_matches_closed_form():
    for T in range(2, 31):
        pair = first_eigenpair(2.0, T)
        assert pair.residual <= 1e-9
        assert pair.lambda_ == pytest.approx(lambda1_closed_form_p2(T), rel=1e-10)


@pytest.mark.parametrize("T", [np.inf, np.nan, 2.5])
def test_first_eigenpair_names_a_non_finite_T(T):
    with pytest.raises(ValueError, match="T must be an integer >= 2"):
        first_eigenpair(2.0, T)


def test_first_eigenpair_normalisation_and_sign():
    for p, T in ((2.0, 5), (3.0, 4), (2.5, 7)):
        pair = first_eigenpair(p, T)
        assert float(np.sum(np.abs(pair.phi.interior) ** p)) == pytest.approx(1.0, rel=1e-12)
        assert np.min(pair.phi.interior) > 0.0
        # normalisation ties the p-norm to the eigenvalue
        assert p_norm(pair.phi, p) ** p == pytest.approx(pair.lambda_, rel=1e-9)


def test_first_eigenpair_solves_eigen_equation():
    from dplap.core import p_laplacian, phi_p
    for p, T in ((2.0, 6), (3.0, 4), (4.0, 5)):
        pair = first_eigenpair(p, T)
        defect = p_laplacian(pair.phi, p) - pair.lambda_ * phi_p(pair.phi.interior, p)
        assert np.max(np.abs(defect)) <= 1e-9


def test_first_eigenpair_p2_eigenvector_is_sine():
    T = 5
    pair = first_eigenpair(2.0, T)
    nodes = np.arange(1, T + 1)
    sine = np.sin(nodes * np.pi / (T + 1))
    sine /= np.sum(np.abs(sine) ** 2.0) ** 0.5
    assert np.allclose(pair.phi.interior, sine, atol=1e-9)


def test_first_eigenpair_symmetry():
    for p, T in ((3.0, 4), (2.0, 7)):
        phi = first_eigenpair(p, T).phi.interior
        assert np.allclose(phi, phi[::-1], atol=1e-8)


def test_first_eigenpair_quotient_minimality():
    # no random direction may undercut the computed first eigenvalue
    rng = np.random.Generator(np.random.Philox(8))
    for p, T in ((2.0, 5), (3.0, 4)):
        pair = first_eigenpair(p, T)
        u = GridFunction.from_interior(np.abs(rng.standard_normal(T)) + 0.1)
        assert rayleigh_quotient(u, p) >= pair.lambda_ - 1e-8
        for _ in range(100):
            u = GridFunction.from_interior(rng.standard_normal(T))
            assert rayleigh_quotient(u, p) >= pair.lambda_ - 1e-8


def test_first_eigenpair_respects_options():
    loose = first_eigenpair(3.0, 5, tol=1e-6)
    assert loose.residual <= 1e-6


def test_first_eigenpair_p_below_2_converges():
    # the kinked quotient stalls around 1e-8, but the residual polish
    # (tangent weights, the exactly zero plateau difference of even T
    # floored) carries both parities to tolerance
    for T in (3, 4, 5, 6, 9, 12):
        pair = first_eigenpair(1.5, T)
        assert pair.residual <= 1e-9
        assert np.min(pair.phi.interior) > 0.0


@pytest.mark.parametrize("T", (3, 4, 5, 6, 9, 12, 20, 50))
@pytest.mark.parametrize("p", (1.15, 1.2, 1.5, 2.5, 3.0, 4.0, 6.0))
def test_first_eigenpair_grid_converges_positive_and_symmetric(p, T):
    if (p, T) == (1.15, 50):
        # the differences next to the plateau are ~5e-12 on values ~0.2:
        # their rounding moves the defect by ~1e-8, above the tolerance
        with pytest.raises(EigenConvergenceError):
            first_eigenpair(p, T)
        return
    pair = first_eigenpair(p, T)
    phi = pair.phi.interior
    assert pair.residual <= 1e-9
    assert np.min(phi) > 0.0
    assert np.array_equal(phi, phi[::-1])


@pytest.mark.parametrize("p, T", ((4.0, 200), (6.0, 50), (6.0, 200)))
def test_first_eigenpair_stop_is_relative_to_the_eigenvalue(p, T):
    # lambda_1 max phi^(p-1) is far below 1 here; an absolute 1e-9 stop
    # passed the sine start (6, 200) or a 1-2% high lambda as converged
    pair = first_eigenpair(p, T)
    scale = pair.lambda_ * float(np.max(pair.phi.interior)) ** (p - 1.0)
    assert pair.residual <= 1e-9 * scale


def test_first_eigenpair_near_p1_failure_carries_best():
    # approaching p -> 1 the eigenfunction flattens into a plateau whose
    # defect float64 cannot pin to 1e-9; the failure is explicit and its
    # payload is still a usable approximate pair
    with pytest.raises(EigenConvergenceError) as info:
        first_eigenpair(1.1, 9)
    best = info.value.best
    assert isinstance(best, EigenPair)
    assert best.residual <= 1e-6
    assert np.min(best.phi.interior) > 0.0
    # loosening the tolerance turns the same computation into a success
    ok = first_eigenpair(1.1, 9, tol=1e-6)
    assert ok.residual <= 1e-6
    assert ok.lambda_ == pytest.approx(best.lambda_, rel=1e-9)


@pytest.mark.parametrize("p, T", [(1.0002, 300), (1.00001, 100), (1.000001, 50),
                                  (1.0001, 5000)])
def test_first_eigenpair_near_p1_overflowing_step_is_a_shot_below_zero(p, T):
    # abs(flux) ** (1/(p-1)) once left _shoot as a bare OverflowError; flux
    # <= 1 throughout, so an overflowing step is a step down past 0
    with pytest.raises(EigenConvergenceError, match=f"p={p}, T={T}") as info:
        first_eigenpair(p, T)
    best = info.value.best
    assert np.isfinite(best.lambda_) and best.lambda_ > 0.0
    assert np.all(np.isfinite(best.phi.values)) and np.min(best.phi.interior) > 0.0


def test_shoot_counts_an_overflowing_flux_step_as_a_shot_above_lambda1():
    # p - 1 = 5e-4: the second step raises |flux| = 1.6 to the power 2000,
    # past the float range, and that step is a value <= 0
    assert dplap.spectrum._shoot(1.3, 1.0005, 9) == (-1.0, None)


@pytest.mark.parametrize("p, T", [(200, 200), (300, 50), (500, 10)])
def test_first_eigenpair_names_p_and_T_where_the_shot_overflows(p, T):
    # ceil(T/2)^(p-1) is past the float range: u(k) ** (p - 1) overflows in the
    # loop or in the final defect, which once raised a bare OverflowError
    with pytest.raises(ValueError, match=f"p={p}, T={T}"):
        first_eigenpair(p, T)


def test_first_eigenpair_validates_arguments():
    # every spectrum entry point that takes p or T raises core's message
    bad_p, bad_T = "p must exceed 1", "T must be an integer >= 2"
    cases = [
        (bad_p, lambda: first_eigenpair(1.0, 5)),
        (bad_p, lambda: rayleigh_quotient(GridFunction.zero(3), 1.0)),
        (bad_T, lambda: first_eigenpair(2.0, 1)),
        (bad_T, lambda: matrix_A(1)),
        (bad_T, lambda: eigenvalues_p2(2.5)),
        (bad_T, lambda: lambda1_closed_form_p2(0)),
        ("tol must be positive and finite", lambda: first_eigenpair(2.0, 5, tol=np.inf)),
        ("tol must be positive and finite", lambda: first_eigenpair(2.0, 5, tol=0.0)),
    ]
    for message, call in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_lambda1_decreases_with_T():
    # larger grids relax the constraint, so the bottom eigenvalue drops
    for p in (2.0, 3.0):
        values = [first_eigenpair(p, T).lambda_ for T in (2, 3, 5, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p, T", ((1.5, 1000), (3.0, 3000)))
def test_first_eigenpair_large_T_converges_positive_and_symmetric(p, T):
    pair = first_eigenpair(p, T)
    phi = pair.phi.interior
    assert pair.residual <= 1e-9 * min(1.0, pair.lambda_ * float(np.max(phi)) ** (p - 1.0))
    assert np.min(phi) > 0.0
    assert np.array_equal(phi, phi[::-1])


@pytest.mark.parametrize("T", (200, 1000, 3000))
def test_first_eigenpair_p2_large_T_matches_closed_form(T):
    pair = first_eigenpair(2.0, T)
    assert pair.lambda_ == pytest.approx(lambda1_closed_form_p2(T), rel=1e-13, abs=0)


def _bisection_pair(p, T, tol=1e-9):
    """The reference search, inlined: plain bisection on [0, 2] to adjacent
    floats, then the pair of the end with the smaller defect, each end shot
    again.  Returns (pair, error message or None)."""
    shoot = dplap.spectrum._shoot
    lo, hi = 0.0, 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if shoot(mid, p, T)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    pairs = []
    for lam in (lo, hi):
        half = shoot(lam, p, T)[1]
        if half is not None:
            v = np.array(half + half[::-1][T % 2:])
            phi = v / float(np.sum(v ** p)) ** (1.0 / p)
            lam_phi = _dirichlet(phi, p)
            defect = _p_laplacian(phi, p) - lam_phi * phi_p(phi, p)
            pairs.append(EigenPair(lambda_=lam_phi, phi=GridFunction.from_interior(phi),
                                   residual=float(np.max(np.abs(defect)))))
    pair = min(pairs, key=lambda pr: pr.residual)
    limit = tol * min(1.0, pair.lambda_ * float(np.max(pair.phi.interior)) ** (p - 1.0))
    if pair.residual > limit:
        return pair, (f"first eigenpair (p={p}, T={T}) did not reach residual {limit:g} "
                      f"(best {pair.residual:.3e})")
    return pair, None


_EIGEN_GRID = [(p, T) for p in (1.1, 1.5, 2.0, 3.0, 10.0) for T in (2, 3, 4, 9, 20, 200)]
_EIGEN_GRID += [(1.5, 2000), (2.5, 5000), (3.0, 5000)]  # raise at float resolution


def test_first_eigenpair_matches_bisection_bit_for_bit(monkeypatch):
    # one bisection to adjacent floats: it shoots the lambda values the
    # reference does, so the pair built from its ends' own shots is the
    # reference's, message and .best included, and no cell takes more shots
    shots = []
    shoot = dplap.spectrum._shoot

    def counted(lam, p, T):
        shots.append(lam)
        return shoot(lam, p, T)

    monkeypatch.setattr(dplap.spectrum, "_shoot", counted)
    raised = 0
    for p, T in _EIGEN_GRID:
        shots.clear()
        ref, ref_msg = _bisection_pair(p, T)
        n_ref = len(shots)
        shots.clear()
        try:
            got, msg = first_eigenpair(p, T), None
        except EigenConvergenceError as exc:
            got, msg = exc.best, str(exc)
            raised += 1
        assert msg == ref_msg, (p, T)
        assert got.lambda_ == ref.lambda_, (p, T)
        assert got.residual == ref.residual, (p, T)
        assert got.phi.values.tobytes() == ref.phi.values.tobytes(), (p, T)
        assert len(shots) <= n_ref, (p, T)
    assert raised >= 5  # the grid holds cells that raise


def test_first_eigenpair_shoots_no_lambda_twice(monkeypatch):
    # each bracket end keeps the half profile of its own shot
    shots = []
    shoot = dplap.spectrum._shoot

    def counted(lam, p, T):
        shots.append(lam)
        return shoot(lam, p, T)

    monkeypatch.setattr(dplap.spectrum, "_shoot", counted)
    for p, T in _EIGEN_GRID:
        shots.clear()
        try:
            first_eigenpair(p, T)
        except EigenConvergenceError:
            pass
        assert len(set(shots)) == len(shots), (p, T)


def test_bracket_ends_are_adjacent_floats():
    shoot = dplap.spectrum._shoot
    for p, T in _EIGEN_GRID:
        (a, half_a), (b, half_b) = dplap.spectrum._bracket(p, T)
        (fa, ha), (fb, hb) = shoot(a, p, T), shoot(b, p, T)
        assert np.nextafter(a, 2.0) == b, (p, T)
        assert fa > 0.0 >= fb, (p, T)
        assert (ha, hb) == (half_a, half_b), (p, T)


@pytest.mark.parametrize("p, T", [(2.0, 5), (3.0, 4), (1.5, 9)])
def test_a_whole_float_T_gives_the_int_T_result(p, T):
    ref, got = first_eigenpair(p, T), first_eigenpair(p, float(T))
    assert (got.lambda_, got.residual) == (ref.lambda_, ref.residual)
    assert got.phi.values.tobytes() == ref.phi.values.tobytes()
    assert matrix_A(float(T)).tobytes() == matrix_A(T).tobytes()
    assert matrix_A(float(T)).shape == (T, T)
