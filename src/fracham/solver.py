"""Direct (Ritz) solver for the model quadratic functional.

The model problem on [0, 1] minimizes

    J[q] = 1/2 * integral of (D_left^alpha q - g)^2,
    g(t) = Gamma(1 + beta) / Gamma(1 + beta - alpha) * t^(beta - alpha),

subject to q(0) = 0 and q(1) = 1, whose minimizer is q(t) = t^beta.
Row 0 of the left-Caputo operator and g(0) vanish, so the discrete J is
||S (T d - r)||^2 over the first differences d of q, sum(d) = q(1) - q(0),
with T the Toeplitz matrix of the operator's kernel, S^2 the trapezoid
weights and r = g, without node 0; it is minimized in closed form by
products with T, its transpose and its inverse, all of which the
operator's Toeplitz object in fracnum supplies. Minimality against any
trial is an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fracnum import (
    FractionalOrder,
    Grid,
    OperatorKind,
    SampledFn,
    _subintervals,
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
    "solve",
    "convergence_study",
]

_COND_LIMIT = 1e14
_L2_FLOOR = 1e-12  # convergence_study's rounding floor on l2_err


class SingularSystemError(RuntimeError):
    """The restricted Ritz system is numerically singular."""


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


def _velocity(alpha: float, beta: float):
    """g as a function of t."""
    c, p = gamma(1.0 + beta) / gamma(1.0 + beta - alpha), beta - alpha
    return lambda t: c * np.asarray(t, dtype=float) ** p


def target_velocity(problem: ExampleProblem) -> np.ndarray:
    """g sampled on the grid."""
    return _velocity(problem.alpha.value, problem.beta)(problem.grid.nodes)


def exact_solution(problem: ExampleProblem) -> SampledFn:
    """The minimizer t^beta sampled on the grid."""
    return SampledFn(problem.grid, problem.grid.nodes**problem.beta)


def example_lagrangian(alpha, beta: float) -> LagrangianSpec:
    """Density 1/2 * (dl - g(t))^2 of the model functional.

    It does not depend on the right Caputo derivative, so the spec has no
    right slot (``dL_ddR`` and ``beta`` are None): no query forms a right
    velocity or momentum for it.
    """
    al = as_order(alpha)
    g = _velocity(al.value, float(beta))
    return LagrangianSpec(
        eval_L=lambda t, q, dl, dr: 0.5 * (dl - g(t)) ** 2,
        dL_dq=lambda t, q, dl, dr: np.zeros_like(np.asarray(q, dtype=float)),
        dL_ddL=lambda t, q, dl, dr: dl - g(t),
        dL_ddR=None,
        alpha=al,
        beta=None,
    )


def _rayleigh(op, x: np.ndarray) -> float:
    """Largest Ritz value of SPD ``op`` after 2 Lanczos steps from x.

    The larger eigenvalue of the 2 x 2 tridiagonal [[a1, b1], [b1, a2]],
    in closed form; like a Rayleigh quotient it lies inside the spectrum,
    so it never exceeds lambda_max (Kuczynski & Wozniakowski, SIAM J.
    Matrix Anal. Appl. 13 (1992) 1094). Two applications of ``op``.
    """
    x = x / np.linalg.norm(x)
    ax = op(x)
    a1 = float(x @ ax)
    r = ax - a1 * x
    b1 = float(np.linalg.norm(r))
    if b1 == 0.0:  # x is an eigenvector, as when op is 1 x 1
        return a1
    y = r / b1
    a2 = float(y @ op(y))
    return (a1 + a2) / 2.0 + float(np.hypot((a1 - a2) / 2.0, b1))


def solve(problem: ExampleProblem) -> SolveReport:
    """Solve the discrete problem and report errors and residuals.

    d = d0 + v (q(1) - q(0) - sum d0) / sum v, with d0 = T^-1 r and
    v = T^-1 S^-2 T^-T 1 (Golub & Van Loan, Matrix Computations, 6.2).
    SingularSystemError means a condition estimate above 1e14 (or NaN).
    The estimate is lambda_max(M) * lambda_max(M^-1), each by 2 Lanczos
    steps (``_rayleigh``), 8 products with T in all; it reads low, never
    high. Errors are against the sampled t^beta minimizer; el_max and
    hamilton_max are the interior residual maxima of the report
    ``equivalence_gap`` gives for q.
    """
    grid, n = problem.grid, problem.grid.n
    T = build_operator(OperatorKind.CAPUTO_LEFT, problem.alpha, grid)._toeplitz
    T_inv = T.inverse()
    s2 = trapezoid_weights(grid)[1:]

    def normal_inverse(y):  # (T^T S^2 T)^-1 y
        return T_inv @ (T_inv.transpose(y) / s2)

    v = normal_inverse(np.ones(n))
    d0 = T_inv @ target_velocity(problem)[1:]
    d = d0 + v * ((problem.q_right - problem.q_left - d0.sum()) / v.sum())

    # the gate estimates cond(M) of the interior system M = P^T T^T S^2 T P,
    # where P x is the first differences of [0, x, 0]
    def m(x):
        y = s2 * (T @ np.diff(x, prepend=0.0, append=0.0))
        return -np.diff(T.transpose(y))

    def m_inverse(b):  # solve P^T z = b, then (T^T S^2 T) d = z with sum(d) = 0
        u = normal_inverse(np.concatenate(([0.0], -np.cumsum(b))))
        return np.cumsum(u - v * (u.sum() / v.sum()))[:-1]

    # M starts from the top eigenvector of P^T P, the discrete Laplacian
    k = np.arange(1, n)
    cond = _rayleigh(m, (-1.0) ** k * np.sin(np.pi * k / n)) * _rayleigh(m_inverse, np.ones(n - 1))
    if not (0.0 < cond <= _COND_LIMIT and np.isfinite(d).all()):  # NaN fails too
        raise SingularSystemError(f"restricted system at n = {n} is numerically singular "
                                  f"(condition estimate {cond:.3g})")
    qv = np.concatenate(([problem.q_left], problem.q_left + np.cumsum(d)))
    qv[-1] = problem.q_right
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
    ConvergenceError, with the computed rows in its ``rows`` attribute,
    is raised if l2_err increases between successive sizes to above the
    rounding floor 1e-12 (at beta = 1 the scheme is exact and l2_err is
    noise). A failing solve raises its own error type unchanged; a
    SingularSystemError names the grid size in its message.
    """
    ns = [_subintervals(n) for n in n_list]
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
        if cur.l2_err > max(prev.l2_err, _L2_FLOOR):
            raise ConvergenceError(
                f"l2 error increased from {prev.l2_err:.6g} (n = {prev.n}) "
                f"to {cur.l2_err:.6g} (n = {cur.n})",
                rows,
            )
    return rows
