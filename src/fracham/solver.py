"""Direct (Ritz) solver for the model quadratic functional.

The model problem on [0, 1] minimizes

    J[q] = 1/2 * integral of (D_left^alpha q - g)^2,
    g(t) = Gamma(1 + beta) / Gamma(1 + beta - alpha) * t^(beta - alpha),

subject to q(0) = 0 and q(1) = 1, whose minimizer is q(t) = t^beta.
Discretizing J with the left-Caputo matrix D and trapezoid weights W
gives a convex quadratic in the interior nodal values, so the solve is
one symmetric positive-definite linear system (the normal equations
D^T W D restricted to the interior). Minimality of the discrete solution
against any trial is an independent correctness signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fracnum import (
    FractionalOrder,
    Grid,
    OperatorKind,
    SampledFn,
    as_order,
    build_operator,
    gamma,
    trapezoid_weights,
)
from .variational import LagrangianSpec, _Evaluation

__all__ = [
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
]

_COND_LIMIT = 1e14


class SingularSystemError(RuntimeError):
    """The restricted normal-equation matrix is numerically singular."""


class ConvergenceError(RuntimeError):
    """l2 error failed to decrease monotonically under refinement."""

    def __init__(self, message: str, rows: list["ConvergenceRow"]):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class ExampleProblem:
    """Model problem data: order alpha, exponent beta, grid on [0, 1].

    The boundary data q(0) = 0, q(1) = 1 is fixed. Requires
    alpha < beta <= 1 so the minimizer t^beta meets both boundary values
    and the target velocity g stays bounded on [0, 1].
    """

    alpha: FractionalOrder
    beta: float
    grid: Grid

    q_left = 0.0
    q_right = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_order(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if self.grid.a != 0.0 or self.grid.b != 1.0:
            raise ValueError("the model problem lives on [0, 1] exactly")
        if not (self.alpha.value < self.beta <= 1.0):
            raise ValueError(
                f"need alpha < beta <= 1, got alpha = {self.alpha.value:g}, "
                f"beta = {self.beta:g}"
            )


@dataclass(frozen=True)
class SolveReport:
    q_numeric: SampledFn
    q_exact: SampledFn
    max_err: float
    l2_err: float
    functional_value: float
    el_max: float
    hamilton_max: float


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    max_err: float
    l2_err: float
    el_max: float
    hamilton_max: float


def target_velocity(problem: ExampleProblem) -> np.ndarray:
    """g sampled on the grid."""
    al, be = problem.alpha.value, problem.beta
    t = problem.grid.nodes
    return gamma(1.0 + be) / gamma(1.0 + be - al) * t ** (be - al)


def exact_solution(problem: ExampleProblem) -> SampledFn:
    """The minimizer t^beta sampled on the grid."""
    return SampledFn(problem.grid, problem.grid.nodes**problem.beta)


def example_lagrangian(alpha, beta: float) -> LagrangianSpec:
    """Density 1/2 * (dl - g(t))^2 of the model functional.

    There is no right-Caputo dependence; the right order slot is filled
    with alpha since it never enters the residuals. Its operators share
    the first-difference matrix of the left-Caputo one, so the slot costs
    no extra matrix.
    """
    al = as_order(alpha)
    be = float(beta)
    c = gamma(1.0 + be) / gamma(1.0 + be - al.value)
    p = be - al.value

    def g(t):
        return c * np.asarray(t, dtype=float) ** p

    return LagrangianSpec(
        eval_L=lambda t, q, dl, dr: 0.5 * (dl - g(t)) ** 2,
        dL_dq=lambda t, q, dl, dr: np.zeros_like(np.asarray(q, dtype=float)),
        dL_ddL=lambda t, q, dl, dr: dl - g(t),
        dL_ddR=lambda t, q, dl, dr: np.zeros_like(np.asarray(q, dtype=float)),
        alpha=al,
        beta=al,
    )


def assemble(problem: ExampleProblem) -> tuple[np.ndarray, np.ndarray]:
    """Normal equations restricted to the interior unknowns q_1 .. q_{n-1}.

    With B = sqrt(W) D_interior the matrix is B^T B, symmetric positive
    definite; the boundary columns of D are folded into the right-hand
    side. D is taken from the cached left-Caputo Toeplitz matrix that
    ``apply`` uses. Raises SingularSystemError when the spectral
    condition estimate exceeds 1e14.
    """
    grid = problem.grid
    t = build_operator(OperatorKind.CAPUTO_LEFT, problem.alpha, grid)._left_matrix
    # row 0 of D and g(0) vanish, so only rows 1 .. n enter; there T acts on
    # first differences, so nodal column k is T's column k - 1 minus its
    # column k, column 0 is -T[:, 0] and column n is T[:, -1]
    sqw = np.sqrt(trapezoid_weights(grid)[1:])
    g = target_velocity(problem)[1:]
    rhs_field = g - t[:, -1] * problem.q_right + t[:, 0] * problem.q_left
    b = t[:, :-1] - t[:, 1:]
    b *= sqw[:, None]
    matrix = b.T @ b
    rhs = b.T @ (sqw * rhs_field)
    del b
    ev = np.linalg.eigvalsh(matrix)
    if ev[0] <= 0.0 or ev[-1] / ev[0] > _COND_LIMIT:
        cond = np.inf if ev[0] <= 0.0 else ev[-1] / ev[0]
        raise SingularSystemError(
            f"restricted system at n = {grid.n} is numerically singular "
            f"(condition estimate {cond:.3g})"
        )
    return matrix, rhs


def solve(problem: ExampleProblem) -> SolveReport:
    """Solve the discrete problem and report errors and residuals.

    Errors are measured against the sampled t^beta minimizer; el_max and
    hamilton_max are the stationarity and canonical trajectory-equation
    defects of the numeric solution over the interior nodes, taken from
    the report ``equivalence_gap`` gives for it.
    """
    grid = problem.grid
    matrix, rhs = assemble(problem)
    x = np.linalg.solve(matrix, rhs)
    if not np.isfinite(x).all():
        raise SingularSystemError(f"solver produced non-finite values at n = {grid.n}")
    qv = np.concatenate(([problem.q_left], x, [problem.q_right]))
    q = SampledFn(grid, qv)
    qe = exact_solution(problem)

    diff = qv - qe.values
    w = trapezoid_weights(grid)
    max_err = float(np.max(np.abs(diff)))
    l2_err = float(np.sqrt(np.sum(w * diff**2)))

    ev = _Evaluation(example_lagrangian(problem.alpha, problem.beta), q)
    functional_value = ev.action()
    eq = ev.equivalence()
    return SolveReport(q, qe, max_err, l2_err, functional_value, eq.el_max, eq.hamilton_max)


def convergence_study(alpha, beta: float, n_list) -> list[ConvergenceRow]:
    """Solve across a list of grid sizes and tabulate the errors.

    n_list must be strictly increasing with every entry >= 8. A
    ConvergenceError is raised if l2_err ever increases between
    successive sizes; the exception keeps the computed rows in its
    ``rows`` attribute. A failing solve raises its own error type
    unchanged; a SingularSystemError names the grid size in its message.
    """
    ns = [int(n) for n in n_list]
    if not ns:
        raise ValueError("n_list is empty")
    if any(n < 8 for n in ns):
        raise ValueError(f"every grid size must be >= 8, got {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {ns}")

    rows: list[ConvergenceRow] = []
    for n in ns:
        rep = solve(ExampleProblem(as_order(alpha), beta, Grid(0.0, 1.0, n)))
        rows.append(ConvergenceRow(n, rep.max_err, rep.l2_err, rep.el_max, rep.hamilton_max))

    for prev, cur in zip(rows, rows[1:]):
        if cur.l2_err > prev.l2_err:
            raise ConvergenceError(
                f"l2 error increased from {prev.l2_err:.6g} (n = {prev.n}) "
                f"to {cur.l2_err:.6g} (n = {cur.n})",
                rows,
            )
    return rows
