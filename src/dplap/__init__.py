"""Discrete p-Laplacian Dirichlet boundary value problems on Z[1, T].

Solves -(phi_p(du)) differenced = alpha f(k, u(k)) with u(0) = u(T+1) = 0:
operators and sharp constants, the energy functional, the first eigenpair,
checkable existence/positivity/multiplicity certificates, and critical-point
solvers with a CLI on top.
"""

from .core import (GridFunction, Nonlinearity, ProblemSpec, c_const,
                   forward_difference, kappa, p_laplacian, p_norm, phi_p,
                   sup_norm, theta)
from .energy import (EnergyReport, energy, energy_report, gradient,
                     hessian_p2, strong_residual, weak_residual)
from .existence import (DecayReport, ExistenceCertificate, MultiplicityWindow,
                        alpha_threshold, check_superlinearity_decay,
                        check_three_solutions_window, check_thm_esistenza,
                        chi, estimate_gamma, find_admissible_eps, h)
from .nonlinearities import (bounded_rational, constant, from_table, linear,
                             power, scaled_per_node, truncate_nonnegative, zero)
from .solver import (INDEFINITE, POSITIVE, ZERO, SolveOutcome, SolverOptions,
                     SweepRow, check_positivity, minimize_on_sublevel,
                     multistart_solve, nontriviality_certificate,
                     solve_descent, solve_newton, solve_newton_p2, sweep_alpha)
from .spectrum import (EigenConvergenceError, EigenPair, eigenvalues_p2,
                       first_eigenpair, lambda1_closed_form_p2, matrix_A,
                       rayleigh_quotient)

__version__ = "0.1.0"

__all__ = [
    "GridFunction", "Nonlinearity", "ProblemSpec",
    "phi_p", "forward_difference", "p_laplacian", "p_norm", "sup_norm",
    "kappa", "c_const", "theta",
    "energy", "gradient", "strong_residual", "weak_residual", "hessian_p2",
    "EnergyReport", "energy_report",
    "EigenPair", "EigenConvergenceError", "matrix_A", "eigenvalues_p2",
    "lambda1_closed_form_p2", "rayleigh_quotient", "first_eigenpair",
    "ExistenceCertificate", "MultiplicityWindow", "DecayReport",
    "chi", "h", "check_thm_esistenza", "find_admissible_eps",
    "alpha_threshold", "estimate_gamma", "check_superlinearity_decay",
    "check_three_solutions_window",
    "SolverOptions", "SolveOutcome", "SweepRow",
    "POSITIVE", "ZERO", "INDEFINITE",
    "truncate_nonnegative", "solve_descent", "solve_newton", "solve_newton_p2",
    "minimize_on_sublevel", "check_positivity", "nontriviality_certificate",
    "multistart_solve", "sweep_alpha",
    "zero", "constant", "linear", "power", "bounded_rational", "from_table",
    "scaled_per_node",
    "__version__",
]
