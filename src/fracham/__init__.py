"""Fractional-order variational mechanics on uniform grids.

The package has three layers plus a CLI:

* :mod:`fracham.fracnum` - grids, the gamma function, and discrete
  left/right Caputo and Riemann-Liouville derivatives and fractional
  integrals for orders in (0, 1), each stored as its Toeplitz column
  plus one endpoint column, from which every dense matrix is derived;
* :mod:`fracham.variational` - action evaluation, stationarity
  residuals, endpoint (transversality) terms, canonical momenta and
  energy, and the canonical equation defects;
* :mod:`fracham.solver` - a direct Ritz solver for the model quadratic
  functional whose minimizer is t^beta, with a refinement-study harness.
"""

from .fracnum import (
    DomainError,
    FracOperator,
    FractionalOrder,
    Grid,
    GridMismatchError,
    OperatorKind,
    SampledFn,
    apply,
    as_order,
    build_operator,
    caputo_power_rule,
    gamma,
    quad_trapezoid,
    trapezoid_weights,
)
from .solver import (
    ConvergenceError,
    ConvergenceRow,
    ExampleProblem,
    SingularSystemError,
    SolveReport,
    assemble,
    convergence_study,
    example_lagrangian,
    exact_solution,
    solve,
    target_velocity,
)
from .variational import (
    ELReport,
    EquivalenceReport,
    LagrangianSpec,
    TrajectoryBundle,
    el_residual,
    energy_defect,
    equivalence_gap,
    evaluate_functional,
    hamilton_residuals,
    hamiltonian,
    momenta,
    transversality_terms,
)

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the array backend. Always ``"numpy"``, the only one there is."""
    return "numpy"


__all__ = [
    "active_backend",
    "DomainError",
    "GridMismatchError",
    "Grid",
    "FractionalOrder",
    "SampledFn",
    "OperatorKind",
    "FracOperator",
    "gamma",
    "as_order",
    "build_operator",
    "apply",
    "caputo_power_rule",
    "trapezoid_weights",
    "quad_trapezoid",
    "LagrangianSpec",
    "TrajectoryBundle",
    "ELReport",
    "EquivalenceReport",
    "evaluate_functional",
    "el_residual",
    "transversality_terms",
    "momenta",
    "hamiltonian",
    "hamilton_residuals",
    "energy_defect",
    "equivalence_gap",
    "ExampleProblem",
    "SolveReport",
    "ConvergenceRow",
    "SingularSystemError",
    "ConvergenceError",
    "example_lagrangian",
    "target_velocity",
    "exact_solution",
    "assemble",
    "solve",
    "convergence_study",
    "__version__",
]
