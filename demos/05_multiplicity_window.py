"""A certified alpha window with at least three solutions.

The right-hand side grows like t^3 up to |t| = 10 and is clipped beyond,
so the potential is steep near the origin and nearly linear far out.  On
the window (c, d) = (1, 10) the two normalized potential maxima separate,
which certifies an open alpha interval where the zero solution, a small
saddle pair, and deep remote minima coexist.  Multistart from fifteen
starts finds them.
"""

import numpy as np

from dplap.core import Nonlinearity, ProblemSpec, sup_norm
from dplap.existence import check_three_solutions_window
from dplap.solver import SolverOptions, multistart_solve


def clipped_cubic(clip=10.0):
    c3 = clip ** 3

    def f(k, t):
        return float(np.clip(t ** 3, -c3, c3))

    def potential(k, xi):
        a = abs(xi)
        if a <= clip:
            return a ** 4 / 4.0
        return clip ** 4 / 4.0 + c3 * (a - clip)

    def df(k, t):
        return 3.0 * t * t if abs(t) <= clip else 0.0

    return Nonlinearity(f=f, potential=potential, df=df,
                        is_nonnegative=True, name="clipped_cubic")


def main():
    prob = ProblemSpec(T=2, p=2.0, nonlinearity=clipped_cubic())
    win = check_three_solutions_window(prob, 1.0, 10.0)
    print(f"window parameters c = {win.c}, d = {win.d}")
    print(f"certified alpha interval ({win.alpha_lo:.6f}, {win.alpha_hi:.6f})")
    print(f"verdict: {win.verdict}")

    alpha = 1.0
    assert win.alpha_lo < alpha < win.alpha_hi
    print(f"\nmultistart at alpha = {alpha} (inside the window)")
    sols = multistart_solve(prob, alpha, n_starts=12, opts=SolverOptions(seed=0))
    print(f"{len(sols)} distinct critical points (plus the zero solution "
          f"counts as one of them):")
    for s in sols:
        print(f"  u = {np.array2string(s.u.interior, precision=8):28s} "
              f"energy {s.energy: .6e}  sup {sup_norm(s.u):9.4f}  "
              f"{s.positivity}")
    print("\nthe deep minima sit on the clipping plateau near (1000, 1000);")
    print("the saddle pair sits near (1, 1) where the cubic still acts;")
    print("all of them are genuine critical points of the same energy.")


if __name__ == "__main__":
    main()
