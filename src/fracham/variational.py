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

_PROBE_SEED = 271828
_PROBE_COUNT = 8
_PROBE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class LagrangianSpec:
    """A density L and its three partial derivatives.

    ``dL_dq``, ``dL_ddL`` and ``dL_ddR`` are the partials with respect to
    the trajectory value, the left-Caputo argument and the right-Caputo
    argument. On construction they are cross-checked against central
    finite differences of ``eval_L`` at 8 fixed random probes, with t in
    [0.05, 0.95] and q, dl, dr in [-2, 2]; a mismatch beyond 1e-6
    (relative, with an absolute floor of 1) raises ValueError. The probes
    reach every callback as arrays, as evaluation does, so a callback that
    takes only scalars fails here. Pass ``validate=False`` to skip the
    gate, for example for a density undefined on [0.05, 0.95].
    """

    eval_L: Density
    dL_dq: Density
    dL_ddL: Density
    dL_ddR: Density
    alpha: FractionalOrder
    beta: FractionalOrder
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        object.__setattr__(self, "alpha", as_order(self.alpha))
        object.__setattr__(self, "beta", as_order(self.beta))
        if validate:
            self._check_partials()

    def _check_partials(self) -> None:
        # one row (t, q, dl, dr) per probe; column k + 1 is the argument of partial k
        rng = np.random.default_rng(_PROBE_SEED)
        pts = rng.uniform([0.05, -2.0, -2.0, -2.0], [0.95, 2.0, 2.0, 2.0], size=(_PROBE_COUNT, 4))
        names = ("dL_dq", "dL_ddL", "dL_ddR")
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
    """Trajectory, its fractional velocities, momenta and energy, all on one grid."""

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

    Both Caputo velocities are applied on construction. ``eval_L``, each
    partial and the residual terms are computed at most once, on first
    use, so a query runs only what its outputs need.
    """

    def __init__(self, spec: LagrangianSpec, q: SampledFn):
        g = q.grid
        self.spec = spec
        self.q = q
        self.dl = apply(build_operator(OperatorKind.CAPUTO_LEFT, spec.alpha, g), q)
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
    """dL/dq, D_right^alpha p_alpha and D_left^beta p_beta: the terms both residual routes add."""
    g = p_alpha.grid
    ru = apply(build_operator(OperatorKind.RL_RIGHT, spec.alpha, g), p_alpha)
    rv = apply(build_operator(OperatorKind.RL_LEFT, spec.beta, g), p_beta)
    return _field(spec.dL_dq(*args), g.n), ru.values, rv.values


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
    over the interior. Any other non-finite entry raises ValueError
    naming the node.
    """
    return _Evaluation(spec, q).stationarity()


def transversality_terms(spec: LagrangianSpec, q: SampledFn) -> tuple[float, float]:
    """Endpoint bracket of the natural boundary conditions.

    Computes I_right^(1-alpha)(dL/ddl) - I_left^(1-beta)(dL/ddr) and
    returns its values at t = a and t = b. With both endpoints held
    fixed the boundary conditions are satisfied regardless; the caller
    decides what to do with free endpoints.
    """
    ev = _Evaluation(spec, q)
    ir = apply(build_operator(OperatorKind.INT_RIGHT, spec.alpha.complement, q.grid), ev.p_alpha)
    il = apply(build_operator(OperatorKind.INT_LEFT, spec.beta.complement, q.grid), ev.p_beta)
    bracket = ir.values - il.values
    return float(bracket[0]), float(bracket[-1])


def momenta(spec: LagrangianSpec, q: SampledFn) -> tuple[SampledFn, SampledFn]:
    """Canonical momenta: the partials of L with respect to dl and dr."""
    ev = _Evaluation(spec, q)
    return ev.p_alpha, ev.p_beta


def hamiltonian(spec: LagrangianSpec, q: SampledFn) -> TrajectoryBundle:
    """Assemble velocities, momenta and the canonical energy along q.

    H = p_alpha * dl + p_beta * dr - L holds pointwise by construction.
    """
    ev = _Evaluation(spec, q)
    h = ev.p_alpha.values * ev.dl.values + ev.p_beta.values * ev.dr.values - ev.lagrangian
    return TrajectoryBundle(q, ev.dl, ev.dr, ev.p_alpha, ev.p_beta, SampledFn(q.grid, h))


def hamilton_residuals(
    spec: LagrangianSpec, bundle: TrajectoryBundle
) -> tuple[SampledFn, SampledFn, SampledFn]:
    """Defects of the canonical equations of motion on the grid.

    The first two returned fields are the momentum-consistency defects
    p_alpha - dL/ddl and p_beta - dL/ddr evaluated on the bundle. They
    vanish identically when the momenta came from the gradient map, in
    which case differentiating the assembled energy with respect to each
    momentum reproduces the stored fractional velocity, so they act as
    the consistency checks of the first two canonical equations.

    The third field is the trajectory equation defect

        r_q = -dL/dq - D_right^alpha p_alpha - D_left^beta p_beta,

    using dH/dq = -dL/dq (the energy depends on q only through L once
    the momenta are held fixed). It adds the stationarity residual's terms,
    formed from the bundle's own velocities and momenta, so it equals
    that residual negated whenever the momenta are consistent. Like that
    residual it may be NaN at nodes 0 and n only; any other non-finite
    entry raises ValueError naming the node.
    """
    q = bundle.q
    args = (q.grid.nodes, q.values, bundle.dL.values, bundle.dR.values)
    r_dl = bundle.p_alpha.values - _field(spec.dL_ddL(*args), q.grid.n)
    r_dr = bundle.p_beta.values - _field(spec.dL_ddR(*args), q.grid.n)
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
