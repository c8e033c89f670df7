"""Independent numerical oracles used to freeze expected test values.

Everything here deliberately avoids the package's own operator code:
fractional integrals and derivatives are computed with scipy's adaptive
quadrature (algebraic-weight rule for the endpoint singularity) plus
central finite differences, gamma references come from the exact
recurrence seeded at Gamma(1) = 1 and Gamma(0.5) = sqrt(pi), convolution
coefficients are evaluated in mpmath's extended precision, and the dense
weight matrices are filled entry by entry with plain loops. The dense
nodal matrix of an operator is formed here from its stored generator, as
the reference for the package's Toeplitz evaluation, and from it the
dense normal equations of the model problem, as the reference for the
Ritz solve.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.linalg import toeplitz

from fracham import OperatorKind, build_operator, target_velocity, trapezoid_weights


def frac_integral_quadrature(f, x: float, a: float, mu: float) -> float:
    """I^mu f(x) = 1/Gamma(mu) * int_a^x (x - s)^(mu - 1) f(s) ds."""
    if x == a:
        return 0.0
    val, _ = quad(f, a, x, weight="alg", wvar=(0.0, mu - 1.0), epsabs=1e-13, epsrel=1e-12)
    return val / math.gamma(mu)


def frac_integral_right_quadrature(f, x: float, b: float, mu: float) -> float:
    """Right-sided integral: 1/Gamma(mu) * int_x^b (s - x)^(mu - 1) f(s) ds."""
    if x == b:
        return 0.0
    val, _ = quad(f, x, b, weight="alg", wvar=(mu - 1.0, 0.0), epsabs=1e-13, epsrel=1e-12)
    return val / math.gamma(mu)


def rl_left_quadrature(f, x: float, a: float, alpha: float, step: float = 1e-5) -> float:
    """Left Riemann-Liouville derivative: d/dx of the (1 - alpha)-integral,
    differentiated by central differences."""
    hi = frac_integral_quadrature(f, x + step, a, 1.0 - alpha)
    lo = frac_integral_quadrature(f, x - step, a, 1.0 - alpha)
    return (hi - lo) / (2.0 * step)


def caputo_left_quadrature(fprime, x: float, a: float, alpha: float) -> float:
    """Left Caputo derivative from the analytic first derivative of f."""
    if x == a:
        return 0.0
    val, _ = quad(fprime, a, x, weight="alg", wvar=(0.0, -alpha), epsabs=1e-13, epsrel=1e-12)
    return val / math.gamma(1.0 - alpha)


def gamma_recurrence_table(count: int = 20) -> list[tuple[float, float]]:
    """(x, Gamma(x)) pairs built only from Gamma(1) = 1, Gamma(0.5) = sqrt(pi)
    and the recurrence Gamma(x + 1) = x * Gamma(x). Spans [0.5, 20]."""
    table = []
    acc, x = math.sqrt(math.pi), 0.5
    while x <= 20.0:
        table.append((x, acc))
        acc *= x
        x += 1.0
    acc, x = 1.0, 1.0
    while x <= 20.0:
        table.append((x, acc))
        acc *= x
        x += 1.0
    table.sort()
    # thin to the requested count, keeping the extremes
    if len(table) > count:
        idx = [round(i * (len(table) - 1) / (count - 1)) for i in range(count)]
        table = [table[i] for i in sorted(set(idx))]
    return table


def integral_coefficient_mpmath(j: int, mu: float) -> float:
    """(j+1)^(1+mu) - j^(1+mu) at 40 significant digits, rounded to float.

    ``mu`` is taken as the exact binary value of the float, so the only
    error left is the final rounding.
    """
    with mpmath.workdps(40):
        p = 1 + mpmath.mpf(mu)
        return float((mpmath.mpf(j) + 1) ** p - mpmath.mpf(j) ** p)


def l1_coefficient_mpmath(j: int, alpha: float) -> float:
    """(j+1)^(1-alpha) - j^(1-alpha) at 50 significant digits, rounded to float.

    ``alpha`` is taken as the exact binary value of the float, so the only
    error left is the final rounding.
    """
    with mpmath.workdps(50):
        p = 1 - mpmath.mpf(alpha)
        return float((mpmath.mpf(j) + 1) ** p - mpmath.mpf(j) ** p)


def l1_weights_loops(n: int, alpha: float, h: float, riemann_liouville: bool = False):
    """Left-form nodal matrix of the L1 Caputo scheme, one entry at a time.

    With ``riemann_liouville`` the endpoint column (i h)^(-alpha) /
    Gamma(1 - alpha) is added to column 0.
    """
    scale = h ** (-alpha) / math.gamma(2.0 - alpha)
    # b_j = (j+1)^(1-alpha) - j^(1-alpha); row sums telescope to zero
    b = [(j + 1.0) ** (1.0 - alpha) - float(j) ** (1.0 - alpha) for j in range(n + 1)]
    w = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        w[i, 0] = -scale * b[i - 1]
        w[i, i] = scale * b[0]
        for j in range(1, i):
            w[i, j] = scale * (b[i - j] - b[i - j - 1])
        if riemann_liouville:
            w[i, 0] += (i * h) ** (-alpha) / math.gamma(1.0 - alpha)
    return w


def int_weights_loops(n: int, mu: float, h: float):
    """Left-form nodal matrix of the product-trapezoid order-mu integral.

    The package computes integrals as the L1 scheme at order -mu; both
    rules integrate the piecewise-linear interpolant exactly, so this
    independent fill checks that the two agree.
    """
    scale = h**mu / math.gamma(mu + 2.0)
    s = [0.0] * (n + 1)
    for d in range(1, n + 1):
        fd = float(d)
        s[d] = (fd + 1.0) ** (mu + 1.0) + (fd - 1.0) ** (mu + 1.0) - 2.0 * fd ** (mu + 1.0)
    w = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        fi = float(i)
        w[i, 0] = scale * ((fi - 1.0) ** (mu + 1.0) - (fi - mu - 1.0) * fi**mu)
        w[i, i] = scale
        for k in range(1, i):
            w[i, k] = scale * s[i - k]
    return w


def weights_loops(kind: str, order: float, a: float, b: float, n: int):
    """Dense weights of one operator kind ("caputo-left", "int-right", ...).

    Right kinds are the left matrices conjugated by index reversal
    i -> n - i.
    """
    family, side = kind.rsplit("-", 1)
    h = (b - a) / n
    if family == "int":
        w = int_weights_loops(n, order, h)
    else:
        w = l1_weights_loops(n, order, h, riemann_liouville=family == "rl")
    return w if side == "left" else w[::-1, ::-1]


def nodal_matrix(op) -> np.ndarray:
    """Dense matrix mapping nodal values to the operator's nodal output.

    Formed from the generator ``(kernel, correction)``: in left form T
    acts on f[k+1] - f[k] and fills rows 1 .. n, so nodal column k >= 1
    is T's column k - 1 minus its column k, and column 0 is minus T's
    column 0 plus ``correction``. Right kinds are the left matrix
    conjugated by index reversal.
    """
    col = np.diff(op.kernel, prepend=0.0, append=0.0)
    w = toeplitz(col, np.zeros_like(col))
    w[0, 0] = 0.0
    w[1:, 0] = -op.kernel
    if op.correction is not None:
        w[:, 0] += op.correction
    return w if op.kind.is_left else w[::-1, ::-1].copy()


def weighted_interior_system(problem):
    """(B, f) with B = sqrt(W) D[:, 1:-1] and f = sqrt(W) (g - boundary columns).

    D is the dense nodal left-Caputo matrix and W the trapezoid weights;
    the Ritz minimizer's interior values are the least-squares solution
    of B x = f.
    """
    d = nodal_matrix(build_operator(OperatorKind.CAPUTO_LEFT, problem.alpha, problem.grid))
    sqw = np.sqrt(trapezoid_weights(problem.grid))
    field = target_velocity(problem) - d[:, -1] * problem.q_right - d[:, 0] * problem.q_left
    return sqw[:, None] * d[:, 1:-1], sqw * field


def normal_equations(problem):
    """The model problem's normal equations B^T B x = B^T f over the
    interior unknowns q_1 .. q_{n-1}; returns (B^T B, B^T f)."""
    b, f = weighted_interior_system(problem)
    return b.T @ b, b.T @ f
