"""Energy functional, gradient, residuals, and the p = 2 Hessian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dplap.core import GridFunction, ProblemSpec, _dirichlet, _p_laplacian, phi_p
from dplap.energy import (_jacobian, _newton_weights, energy, gradient, strong_residual,
                          weak_residual)
from dplap.nonlinearities import bounded_rational, constant, linear, zero

RNG_SEED = 42


def _rand_u(rng, T):
    return GridFunction.from_interior(rng.uniform(-2.0, 2.0, T))


def _kink_free(rng, T, floor=1e-3):
    # for p < 2 keep all differences away from the phi_p kink at 0
    while True:
        u = _rand_u(rng, T)
        if np.min(np.abs(np.diff(u.values))) > floor:
            return u


def test_energy_hand_value_p2():
    # u = (0, 1, 2, 0): differences (1, 1, -2), Dirichlet part (1+1+4)/2 = 3
    prob = ProblemSpec(T=2, p=2.0, nonlinearity=linear())
    u = GridFunction(np.array([0.0, 1.0, 2.0, 0.0]))
    pot = 0.5 * (1.0 + 4.0)
    assert energy(u, prob, alpha=1.0) == pytest.approx(3.0 - pot, rel=1e-15)
    assert energy(u, prob, alpha=2.0) == pytest.approx(3.0 - 2.0 * pot, rel=1e-15)


def test_energy_hand_value_p3():
    prob = ProblemSpec(T=2, p=3.0, nonlinearity=zero())
    u = GridFunction(np.array([0.0, 1.0, 2.0, 0.0]))
    assert energy(u, prob) == pytest.approx((1.0 + 1.0 + 8.0) / 3.0, rel=1e-15)


def test_energy_of_zero_is_zero():
    for nl in (zero(), linear(), bounded_rational()):
        prob = ProblemSpec(T=4, p=2.5, nonlinearity=nl)
        assert energy(GridFunction.zero(4), prob) == 0.0


def test_energy_rejects_nonpositive_alpha():
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=zero())
    u = GridFunction.zero(3)
    with pytest.raises(ValueError, match="alpha must be positive"):
        energy(u, prob, alpha=0.0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        gradient(u, prob, alpha=-1.0)


def test_energy_rejects_infinite_alpha():
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=zero())
    u = GridFunction.zero(3)
    for call in (energy, gradient):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            call(u, prob, alpha=float("inf"))


def test_gradient_hand_value_constant_f():
    # p = 2: gradient = A u - alpha * 1
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=constant(1.0))
    u = GridFunction.from_interior([1.0, 2.0, 1.0])
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    expect = A @ u.interior - 1.5 * np.ones(3)
    assert np.allclose(gradient(u, prob, alpha=1.5), expect, rtol=0, atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(RNG_SEED))
    nl = bounded_rational()
    alpha = 0.7
    for p in (1.5, 2.0, 3.0, 4.0):
        for T in (2, 5, 10):
            prob = ProblemSpec(T=T, p=p, nonlinearity=nl)
            for _ in range(5):
                u = _kink_free(rng, T) if p < 2.0 else _rand_u(rng, T)
                g = gradient(u, prob, alpha)
                step = 1e-6 * (1.0 + np.max(np.abs(u.interior)))
                fd = np.empty(T)
                for i in range(T):
                    up = u.interior.copy()
                    dn = u.interior.copy()
                    up[i] += step
                    dn[i] -= step
                    fd[i] = (energy(GridFunction.from_interior(up), prob, alpha)
                             - energy(GridFunction.from_interior(dn), prob, alpha)) / (2 * step)
                assert np.max(np.abs(g - fd)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


def test_gradient_zero_at_linear_solve_solution():
    # p = 2, f constant: the solution of A u = alpha * 1 has zero gradient
    prob = ProblemSpec(T=6, p=2.0, nonlinearity=constant(1.0))
    A = 2.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
    u = GridFunction.from_interior(np.linalg.solve(A, 0.8 * np.ones(6)))
    assert strong_residual(u, prob, alpha=0.8) < 1e-12


def test_weak_residual_equals_gradient_pairing():
    # summation by parts: weak form against v == gradient dotted with v
    rng = np.random.Generator(np.random.Philox(RNG_SEED + 1))
    nl = bounded_rational()
    for p in (1.5, 2.0, 3.5):
        for T in (2, 4, 9):
            prob = ProblemSpec(T=T, p=p, nonlinearity=nl)
            for _ in range(10):
                u = _rand_u(rng, T)
                v = _rand_u(rng, T)
                weak = weak_residual(u, v, prob, alpha=1.3)
                pairing = float(gradient(u, prob, alpha=1.3) @ v.interior)
                assert weak == pytest.approx(pairing, abs=1e-10 * (1.0 + abs(pairing)))


def test_weak_residual_rejects_mismatched_T():
    prob = ProblemSpec(T=3, p=2.0, nonlinearity=zero())
    u = GridFunction.zero(3)
    v = GridFunction.zero(4)
    with pytest.raises(ValueError, match="test function has T=4"):
        weak_residual(u, v, prob)


def test_the_p2_off_diagonal_is_one_shared_read_only_array():
    prob = ProblemSpec(T=7, p=2.0, nonlinearity=bounded_rational())
    u = np.linspace(-1.0, 1.0, 7)
    off = _jacobian(prob, 1.0, u, 0.0)[1]
    assert off is _jacobian(prob, 2.0, -u, 0.01)[1]
    assert not off.flags.writeable and off.tolist() == [-1.0] * 6


def test_hessian_p2_structure_and_fd():
    rng = np.random.Generator(np.random.Philox(RNG_SEED + 2))
    prob = ProblemSpec(T=5, p=2.0, nonlinearity=bounded_rational())
    u = _rand_u(rng, 5)
    diag, off = _jacobian(prob, 1.2, u.interior, 0.0)
    H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.allclose(H, H.T, rtol=0, atol=0)
    step = 1e-6
    for i in range(5):
        up = u.interior.copy()
        dn = u.interior.copy()
        up[i] += step
        dn[i] -= step
        col = (gradient(GridFunction.from_interior(up), prob, 1.2)
               - gradient(GridFunction.from_interior(dn), prob, 1.2)) / (2 * step)
        assert np.max(np.abs(H[:, i] - col)) < 1e-6


def test_energy_decomposes_into_dirichlet_and_potential():
    # with f == 0 the energy is the pure Dirichlet term, scaling like c^p
    prob = ProblemSpec(T=4, p=3.0, nonlinearity=zero())
    u = GridFunction.from_interior([1.0, -1.0, 2.0, 0.5])
    e1 = energy(u, prob)
    u2 = GridFunction(2.0 * u.values)
    assert energy(u2, prob) == pytest.approx(8.0 * e1, rel=1e-14)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(vec=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-3.0, 3.0),
                    min_size=2, max_size=12),
       p=st.sampled_from([1.2, 1.5, 2.0, 3.0]), share=st.sampled_from([0.0, 1e-2]))
def test_kernels_match_the_padded_difference_formulas_to_the_bit(vec, p, share):
    # the edge differences come from one helper; each kernel must equal its
    # formula on the zero-padded array, signed zeros and repeated values included
    vec = np.array(vec)
    padded = np.zeros(vec.size + 2)
    padded[1:-1] = vec
    du = np.diff(padded)
    assert _dirichlet(vec, p) == float(np.sum(np.abs(du) ** p))
    assert _p_laplacian(vec, p).tobytes() == (-np.diff(phi_p(du, p))).tobytes()
    prob = ProblemSpec(T=vec.size, p=p, nonlinearity=bounded_rational())
    w = _newton_weights(p, du, share)
    diag, off = _jacobian(prob, 0.7, vec, share)
    ref = w[:-1] + w[1:] - 0.7 * prob.nonlinearity.df_vec(vec)
    assert diag.tobytes() == ref.tobytes()
    assert off.tobytes() == (-w[1:-1]).tobytes()
