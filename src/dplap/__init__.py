"""Discrete p-Laplacian Dirichlet boundary value problems on Z[1, T].

Solves -(phi_p(du)) differenced = alpha f(k, u(k)) with u(0) = u(T+1) = 0:
operators and sharp constants, the energy functional, the first eigenpair,
checkable existence/positivity/multiplicity certificates, and critical-point
solvers with a CLI on top.

Public names are loaded on first access (PEP 562): ``import dplap`` runs
only dplap.core and dplap.energy, and reading ``dplap.first_eigenpair``, or
``dplap.spectrum`` itself, imports dplap.spectrum then.  Every `dplap`
command is a fresh process, so each pays for the modules it uses only.
"""

import importlib

# The function shares its name with the submodule dplap.energy.  The import
# system sets a package attribute named after a submodule when it first
# loads it, so the function is bound here, after that load, where no later
# import (dplap.solver loads dplap.energy too) can replace it.
from .energy import energy

__version__ = "0.1.0"

# each public name under its home module
_HOMES = {
    "core": ("GridFunction", "Nonlinearity", "ProblemSpec",
             "phi_p", "forward_difference", "p_laplacian", "p_norm", "sup_norm",
             "kappa", "c_const", "theta"),
    "energy": ("energy", "gradient", "strong_residual", "weak_residual"),
    "spectrum": ("EigenPair", "EigenConvergenceError", "matrix_A", "eigenvalues_p2",
                 "lambda1_closed_form_p2", "rayleigh_quotient", "first_eigenpair"),
    "existence": ("ExistenceCertificate", "MultiplicityWindow",
                  "chi", "h", "check_thm_esistenza", "find_admissible_eps",
                  "alpha_threshold", "check_three_solutions_window"),
    "solver": ("SolverOptions", "SolveOutcome", "SweepRow",
               "POSITIVE", "ZERO", "INDEFINITE",
               "solve_descent", "solve_newton", "solve_newton_p2",
               "minimize_on_sublevel", "check_positivity", "nontriviality_certificate",
               "multistart_solve", "sweep_alpha"),
    "nonlinearities": ("zero", "constant", "linear", "power", "bounded_rational",
                       "from_table", "scaled_per_node", "truncate_nonnegative"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import a public name's home module (or a submodule itself) on first
    access, and cache the value as a module global."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOMES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
