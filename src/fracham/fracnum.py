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
column and the endpoint column. One private type holds T as its column
and owns the one product with T, which ``apply``, its transpose and its
inverse go through (the Ritz solver uses the last three): a direct
convolution up to n = 512, above it an FFT convolution that reuses the
kernel's FFT, which the object keeps. No n x n array is formed. All
kinds of one family at one (order, grid) share one such object.
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
    if not (abs(n) < math.inf and int(n) == n):  # inf and NaN fail before int() sees them
        raise ValueError(f"need an integer number of subintervals, got n = {n}")
    return int(n)


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n subintervals (n + 1 distinct nodes)."""

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
        if not (np.diff(self.nodes) > 0.0).all():
            raise ValueError(f"[{self.a:.17g}, {self.b:.17g}] is too narrow for "
                             f"{self.n + 1} distinct nodes")

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

    The one place that checks nodal values for NaN and infinity. Values
    must be finite. With ``allow_sentinels=True``, as operator outputs
    and residuals are made, node 0 and node n may also be NaN: the only
    rows an operator flags unusable (see ``FracOperator.unusable``).
    Infinity is rejected everywhere, and so is NaN at nodes 1 .. n - 1,
    with a ValueError naming the node and its t. Downstream code relies
    on this and does not scan again: the quadrature and the variational
    norms fill or skip rows 0 and n only, and ``apply`` checks only those
    two rows of its input.
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
        # one vectorised pass over the interior and two scalar end checks:
        # every apply makes one of these, so the check is on the hot path
        end_ok = (lambda x: not math.isinf(x)) if allow_sentinels else math.isfinite
        if not (np.isfinite(v[1:-1]).all() and end_ok(v[0]) and end_ok(v[-1])):
            bad = ~np.isfinite(v)
            bad[[0, -1]] = [not end_ok(v[0]), not end_ok(v[-1])]
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(f"value {v[i]:g} at node {i} (t = {self.grid.nodes[i]:g}) is not finite")
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
      T is held by a private Toeplitz object that every kind of one
      family (the four derivative kinds, or the two integral kinds) at
      one (order, grid) shares, so the family computes one kernel array.
    * ``correction``: the column added times f(a), (x - a)^(-nu) /
      Gamma(1 - nu) with entry 0 set to 0 (n + 1 entries). For the
      Riemann-Liouville kinds it is the endpoint term, for the integral
      kinds the integral of a constant. None for the Caputo kinds.

    Right kinds are the left kinds conjugated by index reversal
    i -> n - i. ``unusable`` lists rows where the underlying operator is
    singular; only the Riemann-Liouville kinds have one (row 0 on the
    left, row n on the right). No n x n array is held at any n.

    Make operators with ``build_operator`` only: the fourth field is the
    private Toeplitz object, not the kernel array, and ``kernel`` is a
    read-only property, so neither the constructor nor
    ``dataclasses.replace`` accepts a ``kernel`` argument.
    """

    kind: OperatorKind
    order: FractionalOrder
    grid: Grid
    _toeplitz: _Toeplitz = field(repr=False)
    correction: np.ndarray | None = field(default=None, repr=False)
    unusable: tuple[int, ...] = ()

    @property
    def kernel(self) -> np.ndarray:
        """The first column of T, read-only."""
        return self._toeplitz.col


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# longest product taken as a direct convolution; longer ones go through the
# FFT. This is not where the FFT starts to win: at n = 512 it is already the
# faster (28 us against 43 us on a 2-vCPU Xeon). It is 512 because both tests
# at the rounding floor of apply need a direct sum up to n = 512: by FFT, the
# empirical-order test's node 1 is no longer exactly linear in h
_DIRECT_MAX = 512


def _fft_size(m: int) -> int:
    return 1 << (2 * m - 2).bit_length()  # a power of two >= 2m - 1: no wrap-around


@dataclass(frozen=True, eq=False)
class _Toeplitz:
    """The n x n lower-triangular Toeplitz matrix T with first column ``col``.

    ``@`` is the one product with T: the first n terms of the convolution
    col * v, by np.convolve up to n = _DIRECT_MAX and by FFT above, where
    every product shares ``spectrum``, the FFT of ``col``, made on first use
    and kept. ``apply``, ``transpose`` and the Newton steps of ``inverse``
    all multiply through it.
    """

    col: np.ndarray

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """T v, with v zero-padded or cut to n terms."""
        m = self.col.size
        if m <= _DIRECT_MAX:
            return np.convolve(self.col, v)[:m]
        size = _fft_size(m)
        return np.fft.irfft(self.spectrum * np.fft.rfft(v[:m], size), size)[:m]

    def transpose(self, v: np.ndarray) -> np.ndarray:
        """T^T v: T^T is T conjugated by index reversal."""
        return (self @ v[::-1])[::-1]

    @cached_property
    def spectrum(self) -> np.ndarray:
        return _freeze(np.fft.rfft(self.col, _fft_size(self.col.size)))

    def inverse(self) -> "_Toeplitz":
        """T^-1, whose column is the power series 1 / col(x) to col.size
        terms, by Newton doubling c <- c (2 - col c), each step two products
        with the Toeplitz matrices of truncated columns. Not kept, since no
        caller inverts one T twice."""
        k, c = self.col, np.array([1.0 / self.col[0]])
        while c.size < k.size:
            # k c = 1 + x^c.size r, so c (2 - k c) appends the terms of -c r
            r = (_Toeplitz(k[: 2 * c.size]) @ c)[c.size :]
            c = np.concatenate((c, -(_Toeplitz(c[: r.size]) @ r)))
        return _Toeplitz(_freeze(c))


@lru_cache(maxsize=128)
def _build(kind: OperatorKind, order: FractionalOrder, grid: Grid) -> FracOperator:
    n, h = grid.n, grid.h
    # one signed order for all six kinds: the order-mu integral is the
    # Riemann-Liouville derivative of order -mu, and the L1 scheme at -mu
    # integrates the piecewise-linear interpolant exactly
    nu = -order.value if kind.is_integral else order.value
    family = OperatorKind.INT_LEFT if kind.is_integral else OperatorKind.CAPUTO_LEFT
    if kind is not family:
        # every kind of one family has the same T: share the left kind's
        toeplitz = _build(family, order, grid)._toeplitz
    else:
        # b_j = (j+1)^(1-nu) - j^(1-nu), the L1 convolution coefficients
        scale = h ** (-nu) / gamma(2.0 - nu)
        j = np.arange(n, dtype=np.float64)
        if nu < 0.8:
            b = (j + 1.0) ** (1.0 - nu) - j ** (1.0 - nu)
        else:
            # the direct difference cancels as nu -> 1; this form does not
            b = np.ones(n)
            b[1:] = j[1:] ** (1.0 - nu) * np.expm1((1.0 - nu) * np.log1p(1.0 / j[1:]))
        toeplitz = _Toeplitz(_freeze(scale * b))
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
    return FracOperator(kind, order, grid, toeplitz, correction, unusable)


def build_operator(kind: OperatorKind, order, grid: Grid) -> FracOperator:
    """Compute the Toeplitz generator of one operator kind.

    ``order`` is the derivative order alpha for the derivative kinds and
    the integral order mu for the INT kinds; either way it must lie in
    (0, 1). Every kind is the L1 scheme at the signed order nu, alpha for
    derivatives and -mu for integrals. Building costs O(n) time and
    memory. All kinds of one family (the four derivative kinds, or the
    two integral kinds) at one (order, grid) share one Toeplitz object,
    so the kernel is computed once per family. An operator holds O(n)
    memory only, the kernel's FFT included. Operators are cached, and
    their arrays are read-only, so repeated calls with equal arguments
    are cheap.
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
    where there is one. The product is that of the Toeplitz object the
    operator's family shares: a direct convolution with ``op.kernel`` up
    to n = 512, above it an FFT convolution, whose kernel transform the
    object keeps, in O(n log n) time and O(n) memory. Rows listed in
    ``op.unusable`` come back as NaN sentinels that downstream quadrature
    replaces (see quad_trapezoid). ``SampledFn`` admits NaN only at node
    0 or n, so checking those two rows is enough to keep a NaN out of the
    product, where it would spread to earlier rows: an input with NaN
    there, where such a sentinel sits, raises DomainError naming the node.
    """
    if f.grid != op.grid:
        raise GridMismatchError(
            f"operator grid [{op.grid.a:g}, {op.grid.b:g}] n={op.grid.n} does not "
            f"match sample grid [{f.grid.a:g}, {f.grid.b:g}] n={f.grid.n}"
        )
    n = op.grid.n
    for i in (0, n):  # the only rows where an operator leaves a NaN sentinel
        if math.isnan(f.values[i]):
            raise DomainError(f"input is NaN at node {i}, an operator's unusable row")
    left = op.kind.is_left
    v = f.values if left else f.values[::-1]
    y = np.zeros(n + 1)
    y[1:] = op._toeplitz @ np.diff(v)
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
    if not beta > 0.0:  # NaN fails too
        raise DomainError(f"power-rule exponent must be positive, got beta = {beta:g}")
    if not t >= a:
        raise DomainError(f"need t >= a, got t = {t:g}, a = {a:g}")
    if t == a and beta < al:
        raise DomainError("derivative of (t - a)^beta is singular at t = a for beta < alpha")
    # beta > 0 and alpha < 1, so 1 + beta - alpha > 0 is no pole of gamma
    return gamma(1.0 + beta) / gamma(1.0 + beta - al) * (t - a) ** (beta - al)


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

    NaN sentinels at node 0 or n (from unusable Riemann-Liouville
    rows) are replaced by the neighbouring value before summing, so
    the quadrature error they add is O(h). ``SampledFn`` admits NaN
    nowhere else and infinity nowhere, so every other value is finite.
    A sum past the float range raises DomainError (numpy may warn of the
    overflow first).
    """
    v = np.array(f.values)
    for end, near in ((0, 1), (-1, -2)):
        if math.isnan(v[end]):
            v[end] = v[near]
    total = float(np.sum(trapezoid_weights(f.grid) * v))
    if not math.isfinite(total):
        raise DomainError(f"trapezoid sum is {total}: the integral is past the float range")
    return total
