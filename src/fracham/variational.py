"""Variational layer over the fractional operators.

A Lagrangian density L(t, q, dl, dr) takes the trajectory value together
with its left Caputo derivative of order alpha (dl) and right Caputo
derivative of order beta (dr). The layer evaluates the action integral,
the stationarity residual

    dL/dq + D_right^alpha (dL/ddl) + D_left^beta (dL/ddr),

the endpoint (transversality) bracket built from fractional integrals of
orders 1 - alpha and 1 - beta, the canonical momenta, the canonical
energy H = p_a * dl + p_b * dr - L, and the defects of the canonical
equations of motion. Both residual routes share the same discrete
operator matrices, so their algebraic equivalence holds on the grid to
rounding, independent of discretization error.

A density without a right slot (``dL_ddR`` and ``beta`` both None) has
no order-beta terms: its callbacks get dr = 0, p_b is zero, and no
right velocity or term of p_b is computed.

Each query evaluates its trajectory once: the Caputo velocities, each
callback, and the dL/dq and Riemann-Liouville terms that both residual
routes add are computed at most once.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .fracnum import (
    FractionalOrder,
    GridMismatchError,
    OperatorKind,
    SampledFn,
    apply,
    as_order,
    build_operator,
    quad_trapezoid,
    trapezoid_weights,
)

__all__ = [
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
    "equivalence_gap",
]

# callbacks take (t, q, dl, dr), must accept numpy arrays and broadcast
Density = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

_PROBE_COUNT = 8
_PROBE_TOL = 1e-6
# LagrangianSpec's probes, one row (t, q, dl, dr) each: points 1-8 of Roberts'
# R4 sequence, frac(1/2 + i / phi^k) for k = 1..4 with phi^5 = phi + 1, a fixed
# low-discrepancy table, scaled to t in [0.05, 0.95] and q, dl, dr in [-2, 2]
_PROBES = [0.05, -2.0, -2.0, -2.0] + [0.9, 4.0, 4.0, 4.0] * np.modf(
    0.5 + np.outer(np.arange(1.0, _PROBE_COUNT + 1), 1.1673039782614187 ** -np.arange(1, 5)))[0]
_PROBES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class LagrangianSpec:
    """A density L and its partial derivatives.

    ``dL_dq``, ``dL_ddL`` and ``dL_ddR`` are the partials with respect to
    the trajectory value, the left-Caputo argument of order ``alpha`` and
    the right-Caputo argument of order ``beta``. A density that does not
    depend on dr leaves out its right slot: ``dL_ddR=None`` and
    ``beta=None``, always together. Its callbacks still take
    (t, q, dl, dr) and get dr = 0. On construction the partials given are
    cross-checked against central finite differences of ``eval_L`` at 8
    fixed probes, a low-discrepancy table with t in [0.05, 0.95] and q,
    dl, dr in [-2, 2]; a mismatch beyond 1e-6 (relative, with an
    absolute floor of 1) raises ValueError. The probes reach every
    callback as arrays, as evaluation does, so a callback that takes only
    scalars fails here. Pass ``validate=False`` to skip the gate, for
    example for a density undefined on [0.05, 0.95].
    """

    eval_L: Density
    dL_dq: Density
    dL_ddL: Density
    dL_ddR: Density | None
    alpha: FractionalOrder
    beta: FractionalOrder | None
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if (self.dL_ddR is None) != (self.beta is None):
            raise ValueError("dL_ddR and beta go together: give both for a right slot, or neither")
        object.__setattr__(self, "alpha", as_order(self.alpha))
        object.__setattr__(self, "beta", None if self.beta is None else as_order(self.beta))
        if validate:
            self._check_partials()

    def _check_partials(self) -> None:
        pts = _PROBES  # column k + 1 is the argument of partial k
        names = ("dL_dq", "dL_ddL", "dL_ddR")[: 2 if self.beta is None else 3]
        stated, fd = np.empty((2, _PROBE_COUNT, len(names)))
        for k, name in enumerate(names):
            step = 1e-6 * np.maximum(1.0, np.abs(pts[:, k + 1]))
            hi_pts, lo_pts = pts.copy(), pts.copy()
            hi_pts[:, k + 1] += step
            lo_pts[:, k + 1] -= step
            stated[:, k] = getattr(self, name)(*pts.T)
            fd[:, k] = (self.eval_L(*hi_pts.T) - self.eval_L(*lo_pts.T)) / (2.0 * step)
        scale = np.maximum(1.0, np.maximum(np.abs(stated), np.abs(fd)))
        ok = (np.abs(stated - fd) <= _PROBE_TOL * scale) & np.isfinite(scale)  # NaN or inf fails
        if not ok.all():
            i, k = np.argwhere(~ok)[0]  # probe-major: the first probe, then the first partial
            t, q, dl, dr = pts[i]
            raise ValueError(
                f"{names[k]} disagrees with finite differences of eval_L at "
                f"(t={t:.4g}, q={q:.4g}, dl={dl:.4g}, dr={dr:.4g}): "
                f"callback {stated[i, k]:.8g}, finite-difference {fd[i, k]:.8g}"
            )


@dataclass(frozen=True, eq=False)
class TrajectoryBundle:
    """Trajectory, its fractional velocities, momenta and energy, all on one grid.

    For a density without a right slot ``dR`` and ``p_beta`` are zero.
    """

    q: SampledFn
    dL: SampledFn
    dR: SampledFn
    p_alpha: SampledFn
    p_beta: SampledFn
    H: SampledFn

    def __post_init__(self) -> None:
        g = self.q.grid
        for name in ("dL", "dR", "p_alpha", "p_beta", "H"):
            if getattr(self, name).grid != g:
                raise GridMismatchError(f"bundle field {name} is on a different grid")


@dataclass(frozen=True, eq=False)
class ELReport:
    """Stationarity residual with its norms over the usable nodes."""

    residual: SampledFn
    max_abs: float
    l2: float


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Agreement between the stationarity residual and the canonical route."""

    gap: float           # max |el + r_q| over the interior nodes
    el_max: float
    hamilton_max: float  # max |r_q|
    el_l2: float
    hamilton_l2: float


def _field(values, n: int) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim == 0:
        out = np.full(n + 1, float(out))
    return out


class _Evaluation:
    """One evaluation of a trajectory on its grid.

    The Caputo velocities are applied on construction; without a right
    slot dr is zero, and so is p_beta. ``eval_L``, each partial and the
    residual terms are computed at most once, on first use, so a query
    runs only what its outputs need.
    """

    def __init__(self, spec: LagrangianSpec, q: SampledFn):
        g = q.grid
        self.spec = spec
        self.q = q
        self.dl = apply(build_operator(OperatorKind.CAPUTO_LEFT, spec.alpha, g), q)
        if spec.beta is None:  # one zero field for both, filling the cached p_beta
            self.dr = self.p_beta = SampledFn(g, np.zeros(g.n + 1))
        else:
            self.dr = apply(build_operator(OperatorKind.CAPUTO_RIGHT, spec.beta, g), q)
        self.args = (g.nodes, q.values, self.dl.values, self.dr.values)

    def _call(self, cb: Density) -> np.ndarray:
        return _field(cb(*self.args), self.q.grid.n)

    @cached_property
    def p_alpha(self) -> SampledFn:
        return SampledFn(self.q.grid, self._call(self.spec.dL_ddL))

    @cached_property
    def p_beta(self) -> SampledFn:
        return SampledFn(self.q.grid, self._call(self.spec.dL_ddR))

    @cached_property
    def lagrangian(self) -> np.ndarray:
        return self._call(self.spec.eval_L)

    def action(self) -> float:
        return quad_trapezoid(SampledFn(self.q.grid, self.lagrangian))

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _residual_terms(self.spec, self.args, self.p_alpha, self.p_beta)

    def stationarity(self) -> ELReport:
        dq, ru, rv = self.terms
        res = SampledFn(self.q.grid, dq + ru + rv, allow_sentinels=True)
        return ELReport(res, *_weighted_norms(res))

    def equivalence(self) -> EquivalenceReport:
        el = self.stationarity()
        dq, ra, rb = self.terms
        r_q = SampledFn(self.q.grid, -dq - ra - rb, allow_sentinels=True)
        rq_max, rq_l2 = _weighted_norms(r_q)
        gap = float(np.max(np.abs(el.residual.values[1:-1] + r_q.values[1:-1])))
        return EquivalenceReport(gap, el.max_abs, rq_max, el.l2, rq_l2)


def _residual_terms(spec: LagrangianSpec, args, p_alpha: SampledFn, p_beta: SampledFn):
    """dL/dq, D_right^alpha p_alpha and D_left^beta p_beta: the terms both residual routes add.

    Without a right slot the last term is 0.0, not an array.
    """
    g = p_alpha.grid
    ru = apply(build_operator(OperatorKind.RL_RIGHT, spec.alpha, g), p_alpha).values
    rv = 0.0 if spec.beta is None else apply(
        build_operator(OperatorKind.RL_LEFT, spec.beta, g), p_beta).values
    return _field(spec.dL_dq(*args), g.n), ru, rv


def _weighted_norms(res: SampledFn) -> tuple[float, float]:
    # rows 0 and n hold the Riemann-Liouville sentinels; SampledFn has
    # checked that the interior is finite
    inner = res.values[1:-1]
    w = trapezoid_weights(res.grid)[1:-1]
    max_abs = float(np.max(np.abs(inner)))
    # squares of values above about 1e154 overflow: scale them below 1 by a
    # power of two, which is exact, so where the unscaled l2 is finite this
    # one is the same bit for bit
    scale = math.ldexp(1.0, -max(math.frexp(max_abs)[1], 0))
    return max_abs, float(np.sqrt(np.sum(w * (scale * inner) ** 2))) / scale


def evaluate_functional(spec: LagrangianSpec, q: SampledFn) -> float:
    """Trapezoid quadrature of L along the trajectory q."""
    return _Evaluation(spec, q).action()


def el_residual(spec: LagrangianSpec, q: SampledFn) -> ELReport:
    """Pointwise defect of the stationarity equation along q.

    The two Riemann-Liouville terms are singular at one endpoint each,
    so the residual carries NaN sentinels at both ends and the norms run
    over the interior. Without a right slot there is no D_left^beta term,
    and node 0 is finite. Any other non-finite entry raises ValueError
    naming the node.
    """
    return _Evaluation(spec, q).stationarity()


def transversality_terms(spec: LagrangianSpec, q: SampledFn) -> tuple[float, float]:
    """Endpoint bracket of the natural boundary conditions.

    Computes I_right^(1-alpha)(dL/ddl) - I_left^(1-beta)(dL/ddr) and
    returns its values at t = a and t = b; without a right slot the
    second term is absent. With both endpoints held fixed the boundary
    conditions are satisfied regardless; the caller decides what to do
    with free endpoints.
    """
    ev = _Evaluation(spec, q)
    bracket = apply(build_operator(OperatorKind.INT_RIGHT, spec.alpha.complement, q.grid),
                    ev.p_alpha).values
    if spec.beta is not None:
        bracket = bracket - apply(
            build_operator(OperatorKind.INT_LEFT, spec.beta.complement, q.grid), ev.p_beta).values
    return float(bracket[0]), float(bracket[-1])


def momenta(spec: LagrangianSpec, q: SampledFn) -> tuple[SampledFn, SampledFn]:
    """Canonical momenta: the partials of L with respect to dl and dr."""
    ev = _Evaluation(spec, q)
    return ev.p_alpha, ev.p_beta


# 2^27 + 1: Dekker's split of a double into two halves of at most 26 bits,
# whose products with each other are exact
_SPLIT = 134217729.0


def _high(a: np.ndarray) -> np.ndarray:
    """The high half of Dekker's split of a; a minus it is the low half."""
    c = _SPLIT * a
    return c - (c - a)


def _product_error(a: np.ndarray, b: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """a * b - ab exactly, for ab the rounded product (Dekker, Numer. Math. 18 (1971) 224)."""
    a1, b1 = _high(a), _high(b)
    a2, b2 = a - a1, b - b1
    return a2 * b2 - (((ab - a1 * b1) - a2 * b1) - a1 * b2)


def _sum_error(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a + b - s exactly, for s the rounded sum (Knuth's TwoSum; s - a is b's share of s)."""
    return (a - (s - (s - a))) + (b - (s - a))


def _energy(p_alpha, dl, p_beta, dr, lagrangian) -> np.ndarray:
    """p_alpha * dl + p_beta * dr - L, rounded once.

    The plain arithmetic rounds each of its two products and two sums,
    and where H cancels it is off by hundreds of ulps. Here their exact
    rounding errors are added back in one compensated sum (Dot2 of Ogita,
    Rump & Oishi, SIAM J. Sci. Comput. 26 (2005) 1955), which leaves H
    within half an ulp of the exact value on these arrays, up to the
    rounding of that sum, of order eps^2 times the largest term. The
    plain sum is formed first, with numpy's warnings as it gives them;
    where an error term is not finite, as when the split of a factor
    past about 1.3e300 overflows, the plain sum stands.
    """
    x1, x2 = p_alpha * dl, p_beta * dr
    s1 = x1 + x2
    plain = s1 - lagrangian
    with np.errstate(all="ignore"):
        err = (_product_error(p_alpha, dl, x1) + _product_error(p_beta, dr, x2)) + (
            _sum_error(x1, x2, s1) + _sum_error(s1, -lagrangian, plain))
        h = plain + err
    return np.where(np.isfinite(h), h, plain)


def hamiltonian(spec: LagrangianSpec, q: SampledFn) -> TrajectoryBundle:
    """Assemble velocities, momenta and the canonical energy along q.

    H = p_alpha * dl + p_beta * dr - L holds pointwise, rounded once from
    the exact value on the bundle's arrays (see ``_energy``).
    """
    ev = _Evaluation(spec, q)
    h = _energy(ev.p_alpha.values, ev.dl.values, ev.p_beta.values, ev.dr.values, ev.lagrangian)
    return TrajectoryBundle(q, ev.dl, ev.dr, ev.p_alpha, ev.p_beta, SampledFn(q.grid, h))


def hamilton_residuals(
    spec: LagrangianSpec, bundle: TrajectoryBundle
) -> tuple[SampledFn, SampledFn, SampledFn]:
    """Defects of the canonical equations of motion on the grid.

    The first two returned fields are the momentum-consistency defects
    p_alpha - dL/ddl and p_beta - dL/ddr evaluated on the bundle, with
    dL/ddr = 0 for a density without a right slot (so the second is
    zero on any bundle ``hamiltonian`` made for it). They vanish
    identically when the momenta came from the gradient map, in which
    case differentiating the assembled energy with respect to each
    momentum reproduces the stored fractional velocity, so they act as
    the consistency checks of the first two canonical equations.

    The third field is the trajectory equation defect

        r_q = -dL/dq - D_right^alpha p_alpha - D_left^beta p_beta,

    using dH/dq = -dL/dq (the energy depends on q only through L once
    the momenta are held fixed); without a right slot it has no p_beta
    term. It adds the stationarity residual's terms, formed from the
    bundle's own velocities and momenta, so it equals that residual
    negated whenever the momenta are consistent. Like that residual it
    may be NaN at nodes 0 and n only; any other non-finite entry raises
    ValueError naming the node.
    """
    q = bundle.q
    args = (q.grid.nodes, q.values, bundle.dL.values, bundle.dR.values)
    r_dl = bundle.p_alpha.values - _field(spec.dL_ddL(*args), q.grid.n)
    r_dr = bundle.p_beta.values - _field(0.0 if spec.dL_ddR is None else spec.dL_ddR(*args),
                                         q.grid.n)
    dq, ra, rb = _residual_terms(spec, args, bundle.p_alpha, bundle.p_beta)
    r_q = -dq - ra - rb
    return (
        SampledFn(q.grid, r_dl),
        SampledFn(q.grid, r_dr),
        SampledFn(q.grid, r_q, allow_sentinels=True),
    )


def equivalence_gap(spec: LagrangianSpec, q: SampledFn) -> EquivalenceReport:
    """Compare the stationarity residual with the negated canonical defect.

    Both sides add the same dL/dq and Riemann-Liouville terms, computed
    once, so the gap is rounding-level for any trajectory, however far
    from stationary. The energy and the consistency defects are not formed.
    """
    return _Evaluation(spec, q).equivalence()
