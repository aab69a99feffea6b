"""First eigenpair of the discrete p-Laplacian across p.

For p = 2 the whole spectrum has a closed form, 4 sin^2(k pi / (2(T+1))),
which doubles as an oracle for the numeric path.  For general p the first
eigenvalue is the minimum of the Rayleigh-type quotient
    sum |Du|^p / sum |u|^p.
first_eigenpair shoots the three-term eigen recurrence from u(0) = 0,
u(1) = 1 over half the grid and bisects lambda on the sign of the symmetry
defect; the mirrored profile is the eigenfunction, positive and exactly
symmetric, and lambda_1 shrinks as the grid grows.
"""

import numpy as np

from dplap.core import GridFunction
from dplap.spectrum import (eigenvalues_p2, first_eigenpair,
                            lambda1_closed_form_p2, matrix_A,
                            rayleigh_quotient)


def main():
    T = 5
    closed = eigenvalues_p2(T)
    numeric = np.sort(np.linalg.eigvalsh(matrix_A(T)))
    print(f"p = 2, T = {T}")
    print("closed-form eigenvalues :", np.array2string(closed, precision=12))
    print("dense solver eigenvalues:", np.array2string(numeric, precision=12))
    print(f"max deviation: {np.max(np.abs(closed - numeric)):.3e}")
    print(f"lambda_1 closed form 2 - sqrt(3) = {lambda1_closed_form_p2(T):.15f}")

    print()
    print("first eigenpair across p at T = 4")
    print(f"{'p':>5} {'lambda_1':>20} {'residual':>12} {'phi(1..T)'}")
    for p in (1.5, 2.0, 3.0, 4.0):
        pair = first_eigenpair(p, 4)
        interior = np.array2string(pair.phi.interior, precision=6)
        print(f"{p:5.1f} {pair.lambda_:20.15f} {pair.residual:12.2e} {interior}")

    print()
    print("quotient minimality: random profiles never beat the eigenfunction")
    pair = first_eigenpair(3.0, 4)
    rng = np.random.Generator(np.random.Philox(1))
    worst = np.inf
    for _ in range(2000):
        v = GridFunction.from_interior(rng.standard_normal(4))
        worst = min(worst, rayleigh_quotient(v, 3.0))
    print(f"lambda_1 = {pair.lambda_:.12f}; best random quotient {worst:.12f}")

    print()
    print("lambda_1 decreases as the grid refines (p = 3)")
    for T in (2, 4, 8, 16, 32):
        print(f"  T = {T:3d}: lambda_1 = {first_eigenpair(3.0, T).lambda_:.12f}")


if __name__ == "__main__":
    main()
