import fracham

# the package's public names; removing one is a public-API change
PUBLIC_NAMES = {
    "ConvergenceError", "ConvergenceRow", "DomainError", "ELReport", "EquivalenceReport",
    "ExampleProblem", "FracOperator", "FractionalOrder", "Grid", "GridMismatchError",
    "LagrangianSpec", "OperatorKind", "SampledFn", "SingularSystemError", "SolveReport",
    "TrajectoryBundle", "__version__", "active_backend", "apply", "as_order",
    "build_operator", "caputo_power_rule", "convergence_study", "el_residual",
    "equivalence_gap", "evaluate_functional", "exact_solution",
    "example_lagrangian", "gamma", "hamilton_residuals", "hamiltonian", "momenta",
    "quad_trapezoid", "solve", "target_velocity", "transversality_terms",
    "trapezoid_weights",
}


def test_public_names_are_listed_once():
    assert len(fracham.__all__) == len(set(fracham.__all__))
    assert set(fracham.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in fracham.__all__:
        getattr(fracham, name)
