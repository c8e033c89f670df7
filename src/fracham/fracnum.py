"""Uniform grids and discrete fractional operators.

Six operator kinds are provided for orders in (0, 1):

* left/right Caputo derivatives, discretized with the L1 scheme
  (piecewise-linear interpolation of the inner derivative; accuracy
  order 2 - alpha for smooth data),
* left/right Riemann-Liouville derivatives, realized as the Caputo
  scheme plus the analytic endpoint correction
  f(a) * (x - a)^(-alpha) / Gamma(1 - alpha),
* left/right fractional integrals of order mu in (0, 1), computed as
  the Riemann-Liouville scheme at order -mu. Like the product-trapezoid
  rule, it integrates the piecewise-linear interpolant exactly.

So all six kinds share one formula in a signed order nu (alpha for
derivatives, -mu for integrals). In left form each is a lower-triangular
Toeplitz matrix acting on first differences of the nodal values, plus
f(a) times the column (x - a)^(-nu) / Gamma(1 - nu), which Caputo kinds
omit. ``FracOperator`` stores only that O(n) generator, the Toeplitz
column and the endpoint column, and derives the dense T from it.
Left kinds only look backward (rows are lower triangular), right kinds
only forward.
The Riemann-Liouville kinds are singular at their anchored endpoint
whenever f does not vanish there; that row is flagged unusable and
``apply`` returns NaN in it by convention.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
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
]


class DomainError(ValueError):
    """An argument fell outside the numeric domain of an operation."""


class GridMismatchError(ValueError):
    """Operator and samples live on different grids."""


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_P = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function via the nine-term Lanczos series with g = 7.

    Arguments left of 0.5 go through the reflection formula
    Gamma(x) = pi / (sin(pi x) Gamma(1 - x)). Relative accuracy is
    better than 1e-12 across [0.1, 20].

    Raises DomainError at the poles, i.e. zero and the negative integers.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma has a pole at x = {x:g}")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    series = _LANCZOS_P[0]
    for i in range(1, len(_LANCZOS_P)):
        series += _LANCZOS_P[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * series


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _subintervals(n) -> int:
    if int(n) != n:
        raise ValueError(f"need an integer number of subintervals, got n = {n}")
    return int(n)


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n subintervals (n + 1 nodes)."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "n", _subintervals(self.n))
        if not all(map(math.isfinite, (self.a, self.b, self.b - self.a))):
            raise ValueError(f"need a finite interval, got [{self.a:g}, {self.b:g}]")
        if not (self.b > self.a):
            raise ValueError(f"need b > a, got [{self.a:g}, {self.b:g}]")
        if self.n < 2:
            raise ValueError(f"need at least 2 subintervals, got n = {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        t = np.linspace(self.a, self.b, self.n + 1)
        t.setflags(write=False)
        return t


@dataclass(frozen=True)
class FractionalOrder:
    """Derivative or integral order, restricted to the open interval (0, 1)."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if not (0.0 < self.value < 1.0):
            raise ValueError(f"order must lie in (0, 1), got {self.value:g}")

    @property
    def complement(self) -> "FractionalOrder":
        """The order 1 - value, also in (0, 1)."""
        return FractionalOrder(1.0 - self.value)


def as_order(x) -> FractionalOrder:
    """Coerce a float (or pass through a FractionalOrder)."""
    if isinstance(x, FractionalOrder):
        return x
    return FractionalOrder(float(x))


@dataclass(frozen=True, eq=False)
class SampledFn:
    """Real nodal values of a function on a grid.

    Values must be finite. Operator outputs may carry NaN sentinels in
    rows flagged unusable; those are produced internally with
    ``allow_sentinels=True`` and never contain infinities.
    """

    grid: Grid
    values: np.ndarray
    allow_sentinels: InitVar[bool] = False

    def __post_init__(self, allow_sentinels: bool) -> None:
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} nodal values, got shape {v.shape}"
            )
        if allow_sentinels:
            if np.isinf(v).any():
                raise ValueError("infinite nodal value")
        elif not np.isfinite(v).all():
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValueError(f"non-finite nodal value at node {bad}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: Grid, f) -> "SampledFn":
        return cls(grid, np.asarray(f(grid.nodes), dtype=float))

    @property
    def usable(self) -> np.ndarray:
        """Boolean mask of nodes that are not NaN sentinels."""
        return np.isfinite(self.values)


class OperatorKind(enum.Enum):
    RL_LEFT = "rl-left"
    RL_RIGHT = "rl-right"
    CAPUTO_LEFT = "caputo-left"
    CAPUTO_RIGHT = "caputo-right"
    INT_LEFT = "int-left"
    INT_RIGHT = "int-right"

    @property
    def is_left(self) -> bool:
        return self in (OperatorKind.RL_LEFT, OperatorKind.CAPUTO_LEFT, OperatorKind.INT_LEFT)

    @property
    def is_integral(self) -> bool:
        return self in (OperatorKind.INT_LEFT, OperatorKind.INT_RIGHT)

    @property
    def is_riemann_liouville(self) -> bool:
        return self in (OperatorKind.RL_LEFT, OperatorKind.RL_RIGHT)


@dataclass(frozen=True, eq=False)
class FracOperator:
    """One fractional operator on a grid, stored as its Toeplitz generator.

    In left form every operator is a lower-triangular Toeplitz matrix T
    acting on first differences f[k+1] - f[k], plus one column added
    times f(a), so two arrays describe it fully. With nu the signed
    order (alpha for derivative kinds, -mu for integral kinds):

    * ``kernel``: the first column of T, the L1 column
      h^(-nu) / Gamma(2 - nu) * ((j+1)^(1-nu) - j^(1-nu)), n entries.
    * ``correction``: the column added times f(a), (x - a)^(-nu) /
      Gamma(1 - nu) with entry 0 set to 0 (n + 1 entries). For the
      Riemann-Liouville kinds it is the endpoint term, for the integral
      kinds the integral of a constant. None for the Caputo kinds.

    Right kinds are the left kinds conjugated by index reversal
    i -> n - i. ``unusable`` lists rows where the underlying operator is
    singular; only the Riemann-Liouville kinds have one (row 0 on the
    left, row n on the right).
    """

    kind: OperatorKind
    order: FractionalOrder
    grid: Grid
    kernel: np.ndarray = field(repr=False)
    correction: np.ndarray | None = field(default=None, repr=False)
    unusable: tuple[int, ...] = ()

    @cached_property
    def _left_matrix(self) -> np.ndarray:
        # the dense T that apply() multiplies. Every kind of one family has
        # the same kernel, so all share the matrix of the family's left
        # kind at their (order, grid)
        family = OperatorKind.INT_LEFT if self.kind.is_integral else OperatorKind.CAPUTO_LEFT
        if self.kind is not family:
            return _build(family, self.order, self.grid)._left_matrix
        return _freeze(_lower_toeplitz(self.kernel))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _lower_toeplitz(col: np.ndarray) -> np.ndarray:
    """C-contiguous lower-triangular Toeplitz matrix with first column ``col``."""
    m = col.size
    padded = np.concatenate((col[::-1], np.zeros(m - 1)))
    # window k is padded[k : k + m], so row i is window m - 1 - i
    return np.ascontiguousarray(sliding_window_view(padded, m)[::-1])


@lru_cache(maxsize=128)
def _build(kind: OperatorKind, order: FractionalOrder, grid: Grid) -> FracOperator:
    n, h = grid.n, grid.h
    # one signed order for all six kinds: the order-mu integral is the
    # Riemann-Liouville derivative of order -mu, and the L1 scheme at -mu
    # integrates the piecewise-linear interpolant exactly
    nu = -order.value if kind.is_integral else order.value

    # b_j = (j+1)^(1-nu) - j^(1-nu), the L1 convolution coefficients
    scale = h ** (-nu) / gamma(2.0 - nu)
    j = np.arange(n, dtype=np.float64)
    if nu < 0.8:
        b = (j + 1.0) ** (1.0 - nu) - j ** (1.0 - nu)
    else:
        # the direct difference cancels as nu -> 1; this form does not
        b = np.ones(n)
        b[1:] = j[1:] ** (1.0 - nu) * np.expm1((1.0 - nu) * np.log1p(1.0 / j[1:]))
    correction = None
    unusable: tuple[int, ...] = ()
    if kind not in (OperatorKind.CAPUTO_LEFT, OperatorKind.CAPUTO_RIGHT):
        # the operator applied to the constant f(a), which the first
        # differences do not see
        correction = np.zeros(n + 1)
        correction[1:] = (np.arange(1, n + 1) * h) ** (-nu) / gamma(1.0 - nu)
        _freeze(correction)
    if kind.is_riemann_liouville:
        # at the anchored endpoint the correction blows up; flag the row
        unusable = (0,) if kind.is_left else (n,)
    return FracOperator(kind, order, grid, _freeze(scale * b), correction, unusable)


def build_operator(kind: OperatorKind, order, grid: Grid) -> FracOperator:
    """Compute the Toeplitz generator of one operator kind.

    ``order`` is the derivative order alpha for the derivative kinds and
    the integral order mu for the INT kinds; either way it must lie in
    (0, 1). Every kind is the L1 scheme at the signed order nu, alpha for
    derivatives and -mu for integrals. Building costs O(n) time and
    memory. ``apply`` makes the dense Toeplitz matrix on its first call.
    Operators are cached, and their arrays are read-only, so repeated
    calls with equal arguments are cheap. All kinds of one family (the
    four derivative kinds, or the two integral kinds) at one (order,
    grid) share a single Toeplitz matrix.
    """
    if not isinstance(kind, OperatorKind):
        raise TypeError(f"kind must be an OperatorKind, got {kind!r}")
    if not isinstance(grid, Grid):
        raise TypeError(f"grid must be a Grid, got {grid!r}")
    return _build(kind, as_order(order), grid)


def apply(op: FracOperator, f: SampledFn) -> SampledFn:
    """Evaluate the operator on nodal samples.

    Every kind is evaluated in left form; right kinds reverse the input
    and the output around it, so they mirror the left kinds bit for bit.
    The Toeplitz matrix multiplies first differences for every kind,
    y[i] = sum_k kernel[i-1-k] (f[k+1] - f[k]), which annihilates
    constant inputs bit-exactly; f(a) times ``op.correction`` is added
    where there is one. The dense Toeplitz matrix is built on the first
    call and shared by the operator's family. Rows listed in
    ``op.unusable`` come back as NaN sentinels that downstream quadrature
    replaces (see quad_trapezoid).
    """
    if f.grid != op.grid:
        raise GridMismatchError(
            f"operator grid [{op.grid.a:g}, {op.grid.b:g}] n={op.grid.n} does not "
            f"match sample grid [{f.grid.a:g}, {f.grid.b:g}] n={f.grid.n}"
        )
    left = op.kind.is_left
    # contiguous reversal keeps the BLAS path identical to a left apply
    v = f.values if left else np.ascontiguousarray(f.values[::-1])
    y = np.zeros(op.grid.n + 1)
    y[1:] = op._left_matrix @ np.diff(v)
    if op.correction is not None:
        y = y + v[0] * op.correction
    if not left:
        y = y[::-1]
    for i in op.unusable:
        y[i] = np.nan
    return SampledFn(op.grid, y, allow_sentinels=True)


def caputo_power_rule(beta: float, alpha, t: float, a: float = 0.0) -> float:
    """Left Caputo derivative of (t - a)^beta, evaluated analytically.

    Returns Gamma(1 + beta) / Gamma(1 + beta - alpha) * (t - a)^(beta - alpha).
    This is the closed-form oracle for the CAPUTO_LEFT kind on power
    functions.
    """
    al = as_order(alpha).value
    beta = float(beta)
    if beta <= 0.0:
        raise DomainError(f"power-rule exponent must be positive, got beta = {beta:g}")
    if t < a:
        raise DomainError(f"need t >= a, got t = {t:g} < a = {a:g}")
    arg = 1.0 + beta - al
    if arg <= 0.0 and arg == math.floor(arg):
        raise DomainError(f"gamma pole at 1 + beta - alpha = {arg:g}")
    if t == a and beta < al:
        raise DomainError("derivative of (t - a)^beta is singular at t = a for beta < alpha")
    return gamma(1.0 + beta) / gamma(arg) * (t - a) ** (beta - al)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Composite trapezoid weights matched to the grid."""
    w = np.full(grid.n + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


def quad_trapezoid(f: SampledFn) -> float:
    """Trapezoid quadrature of nodal values.

    NaN sentinels at the endpoints (from unusable Riemann-Liouville
    rows) are replaced by the nearest finite value before summing, so
    the quadrature error they add is O(h). NaN at an interior node is
    an error.
    """
    v = np.array(f.values)
    finite = np.isfinite(v)
    if not finite.all():
        idx = np.flatnonzero(finite)
        if idx.size == 0:
            raise ValueError("no finite nodal values to integrate")
        for i in np.flatnonzero(~finite):
            if i < idx[0]:
                v[i] = v[idx[0]]
            elif i > idx[-1]:
                v[i] = v[idx[-1]]
            else:
                raise ValueError(f"non-finite value at interior node {i}")
    return float(np.sum(trapezoid_weights(f.grid) * v))
