import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from fracham import (
    Grid,
    GridMismatchError,
    LagrangianSpec,
    OperatorKind,
    SampledFn,
    TrajectoryBundle,
    apply,
    build_operator,
    el_residual,
    equivalence_gap,
    evaluate_functional,
    example_lagrangian,
    gamma,
    hamilton_residuals,
    hamiltonian,
    momenta,
    transversality_terms,
)

# frozen oracle values (stdlib gamma / scipy quadrature, see oracles.py)
P_ALPHA_TRIAL_AT_QUARTER = -0.1527936126814311   # 1/G(1.5)*0.5 - G(1.75)/G(1.25)*0.25^(1/4)
G_TERM_AT_QUARTER = 0.7169831962291874           # G(1.75)/G(1.25) * 0.25^(1/4)
J_LINEAR_TRIAL = 0.007225738965584316            # closed-form action of q = t, al=.5, be=.75
TWO_OVER_PI = 0.6366197723675814


def _zeros(t, q, dl, dr):
    return np.zeros_like(np.asarray(q, dtype=float))


def kinetic_spec(alpha):
    """L = dl^2 / 2, no q or dr dependence."""
    return LagrangianSpec(
        eval_L=lambda t, q, dl, dr: 0.5 * dl**2,
        dL_dq=_zeros,
        dL_ddL=lambda t, q, dl, dr: dl,
        dL_ddR=_zeros,
        alpha=alpha,
        beta=alpha,
    )


def coordinate_spec(alpha):
    """L = q: only the dL/dq term survives in the residual."""
    return LagrangianSpec(
        eval_L=lambda t, q, dl, dr: q,
        dL_dq=lambda t, q, dl, dr: np.ones_like(np.asarray(q, dtype=float)),
        dL_ddL=_zeros,
        dL_ddR=_zeros,
        alpha=alpha,
        beta=alpha,
    )


def two_sided_spec(alpha, beta, c=0.5, k=1.5):
    """L = dl^2/2 + c dr^2/2 - k q^2/2: depends on q and on both velocities."""
    return LagrangianSpec(
        eval_L=lambda t, q, dl, dr: 0.5 * dl**2 + 0.5 * c * dr**2 - 0.5 * k * q**2,
        dL_dq=lambda t, q, dl, dr: -k * q,
        dL_ddL=lambda t, q, dl, dr: dl,
        dL_ddR=lambda t, q, dl, dr: c * dr,
        alpha=alpha,
        beta=beta,
    )


def minimizer(grid, beta=0.75):
    return SampledFn(grid, grid.nodes**beta)


class TestProbeGate:
    def test_consistent_spec_passes(self):
        kinetic_spec(0.5)
        example_lagrangian(0.5, 0.75)

    def test_wrong_partial_is_caught_and_named(self):
        with pytest.raises(ValueError, match="dL_ddL"):
            LagrangianSpec(
                eval_L=lambda t, q, dl, dr: 0.5 * dl**2,
                dL_dq=_zeros,
                dL_ddL=lambda t, q, dl, dr: 1.01 * dl,
                dL_ddR=_zeros,
                alpha=0.5,
                beta=0.5,
            )

    def test_nan_partial_is_caught(self):
        # NaN compares False against any bound, so the gate must not read it as agreement
        with pytest.raises(ValueError, match="dL_dq"):
            LagrangianSpec(
                eval_L=lambda t, q, dl, dr: 0.5 * dl**2,
                dL_dq=lambda t, q, dl, dr: np.nan,
                dL_ddL=lambda t, q, dl, dr: dl,
                dL_ddR=_zeros,
                alpha=0.5,
                beta=0.5,
            )

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_partial_is_caught(self, value):
        # |inf - fd| <= 1e-6 * max(1, inf, |fd|) is inf <= inf, which must not count as agreement
        with pytest.raises(ValueError, match=rf"dL_ddL disagrees .* callback {value:.8g}, "
                                             r"finite-difference -?\d"):
            LagrangianSpec(
                eval_L=lambda t, q, dl, dr: 0.5 * dl**2,
                dL_dq=_zeros,
                dL_ddL=lambda t, q, dl, dr: np.full_like(dl, value),
                dL_ddR=_zeros,
                alpha=0.5,
                beta=0.5,
            )

    def test_density_undefined_on_the_probe_interval_is_caught(self):
        # sqrt(t - 1) is NaN on (0, 1), so the finite differences are NaN and
        # no stated partial, right or wrong, can agree with them
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="dL_dq"):
            LagrangianSpec(
                eval_L=lambda t, q, dl, dr: np.sqrt(t - 1.0) * dl**2,
                dL_dq=_zeros,
                dL_ddL=lambda t, q, dl, dr: dl,
                dL_ddR=_zeros,
                alpha=0.5,
                beta=0.5,
            )

    def test_first_failure_is_reported_in_probe_order(self):
        # dL_dq is wrong only at the fourth probe (t < 0.1), dL_ddL only at the
        # second (q < -1.5); the earlier probe is reported, at its exact coordinates
        msg = ("dL_ddL disagrees with finite differences of eval_L at (t=0.1316, q=-1.991, "
               "dl=1.815, dr=1.458): callback 0, finite-difference -1.9908093")
        with pytest.raises(ValueError, match=re.escape(msg)):
            LagrangianSpec(
                eval_L=lambda t, q, dl, dr: q * dl + dr**2,
                dL_dq=lambda t, q, dl, dr: np.where(t < 0.1, 0.0, dl),
                dL_ddL=lambda t, q, dl, dr: np.where(q < -1.5, 0.0, q),
                dL_ddR=lambda t, q, dl, dr: 2.0 * dr,
                alpha=0.5,
                beta=0.5,
            )

    def test_scalar_only_density_is_caught(self):
        # evaluation passes arrays, so math.sin(t) would fail at the first
        # query; the gate passes arrays too and fails it on construction
        with pytest.raises(TypeError):
            LagrangianSpec(
                eval_L=lambda t, q, dl, dr: math.sin(t) * dl**2,
                dL_dq=_zeros,
                dL_ddL=lambda t, q, dl, dr: 2.0 * math.sin(t) * dl,
                dL_ddR=_zeros,
                alpha=0.5,
                beta=0.5,
            )

    def test_gate_can_be_skipped(self):
        spec = LagrangianSpec(
            eval_L=lambda t, q, dl, dr: 0.5 * dl**2,
            dL_dq=_zeros,
            dL_ddL=lambda t, q, dl, dr: 2.0 * dl,  # deliberately wrong
            dL_ddR=_zeros,
            alpha=0.5,
            beta=0.5,
            validate=False,
        )
        assert spec.alpha.value == 0.5


class TestFunctional:
    def test_unit_density_integrates_to_interval_length(self):
        spec = LagrangianSpec(
            eval_L=lambda t, q, dl, dr: np.ones_like(np.asarray(q, dtype=float)),
            dL_dq=_zeros,
            dL_ddL=_zeros,
            dL_ddR=_zeros,
            alpha=0.5,
            beta=0.5,
        )
        g = Grid(0.0, 1.0, 64)
        q = SampledFn(g, np.sin(g.nodes))
        assert evaluate_functional(spec, q) == pytest.approx(1.0, rel=1e-14)

    def test_model_functional_vanishes_on_minimizer(self):
        g = Grid(0.0, 1.0, 512)
        spec = example_lagrangian(0.5, 0.75)
        assert abs(evaluate_functional(spec, minimizer(g))) <= 1e-3

    def test_model_functional_on_linear_trial(self):
        # strictly positive; matches dense quadrature of the analytic integrand
        g = Grid(0.0, 1.0, 512)
        spec = example_lagrangian(0.5, 0.75)
        j = evaluate_functional(spec, SampledFn(g, g.nodes))
        assert j > 0.0
        assert abs(j - J_LINEAR_TRIAL) <= 2e-5

    def test_non_finite_density_names_the_node(self):
        spec = LagrangianSpec(
            eval_L=lambda t, q, dl, dr: np.log(q),
            dL_dq=_zeros,
            dL_ddL=_zeros,
            dL_ddR=_zeros,
            alpha=0.5,
            beta=0.5,
            validate=False,
        )
        g = Grid(0.0, 1.0, 8)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="node 0"):
            evaluate_functional(spec, SampledFn(g, g.nodes))


class TestElResidual:
    def test_pure_coordinate_density_gives_unit_residual(self):
        g = Grid(0.0, 1.0, 32)
        rep = el_residual(coordinate_spec(0.5), SampledFn(g, np.sin(g.nodes)))
        vals = rep.residual.values
        assert np.isnan(vals[0]) and np.isnan(vals[-1])
        assert np.array_equal(vals[1:-1], np.ones(31))
        assert rep.max_abs == 1.0

    def test_non_finite_interior_partial_is_an_error(self):
        # only rows 0 and n may be NaN (the Riemann-Liouville sentinels);
        # a NaN the density puts at an interior node must not vanish from
        # the norms or the equivalence gap
        spec = LagrangianSpec(
            eval_L=lambda t, q, dl, dr: 0.5 * dl**2 + 0.5 * q**2,
            dL_dq=lambda t, q, dl, dr: np.where(np.asarray(t) == 0.5, np.nan, q),
            dL_ddL=lambda t, q, dl, dr: dl,
            dL_ddR=_zeros,
            alpha=0.5,
            beta=0.5,
        )
        g = Grid(0.0, 1.0, 32)
        q = SampledFn(g, np.sin(g.nodes))
        with pytest.raises(ValueError, match=r"node 16 \(t = 0.5\)"):
            el_residual(spec, q)
        with pytest.raises(ValueError, match=r"node 16 \(t = 0.5\)"):
            equivalence_gap(spec, q)
        # the canonical route's r_q carries the same NaN
        bundle = hamiltonian(spec, q)
        with pytest.raises(ValueError, match=r"node 16 \(t = 0.5\)"):
            hamilton_residuals(spec, bundle)

    def test_huge_finite_residual_has_finite_norms(self):
        # squares of residuals above about 1e154 overflow; the norms must not
        g = Grid(0.0, 1.0, 64)
        q = SampledFn(g, 1e160 * np.sin(3.0 * g.nodes))
        spec = example_lagrangian(0.5, 0.75)
        rep = el_residual(spec, q)
        assert math.isfinite(rep.max_abs) and rep.max_abs > 1e160
        assert 0.0 < rep.l2 <= rep.max_abs  # the interior weights sum to less than 1
        gap = equivalence_gap(spec, q)
        assert gap.el_l2 == rep.l2
        assert math.isfinite(gap.hamilton_l2) and gap.hamilton_l2 > 0.0

    def test_kinetic_density_on_constant_is_exactly_stationary(self):
        g = Grid(0.0, 1.0, 32)
        rep = el_residual(kinetic_spec(0.5), SampledFn(g, np.full(33, 4.0)))
        assert rep.max_abs == 0.0
        assert rep.l2 == 0.0

    def test_minimizer_l2_residual_decreases_under_refinement(self):
        spec = example_lagrangian(0.5, 0.75)
        l2s, maxes = [], []
        for n in (128, 256, 512):
            rep = el_residual(spec, minimizer(Grid(0.0, 1.0, n)))
            l2s.append(rep.l2)
            maxes.append(rep.max_abs)
        assert l2s[0] > l2s[1] > l2s[2]
        assert l2s[2] < 5e-2
        # the max norm is dominated by the first nodes next to the weak
        # singularity of t^0.75, where the forced first-interval error of
        # any constant-annihilating causal scheme is amplified by the
        # h^(-alpha) scale of the outer derivative; it grows like h^(-1/4)
        assert maxes[0] < maxes[1] < maxes[2]
        assert maxes[2] == pytest.approx(0.5005, abs=5e-3)


class TestTransversality:
    def test_vanishes_on_minimizer(self):
        spec = example_lagrangian(0.5, 0.75)
        vals = []
        for n in (256, 512):
            ta, tb = transversality_terms(spec, minimizer(Grid(0.0, 1.0, n)))
            assert tb == 0.0
            vals.append(abs(ta))
        assert vals[1] < vals[0] <= 2e-3

    def test_kinetic_density_linear_trajectory(self):
        # the bracket at a is the right 1/2-integral of G(2)/G(1.5) t^0.5,
        # which is 2/pi at t = 0 (quadrature oracle); at b it is empty
        errs = []
        for n in (512, 1024):
            g = Grid(0.0, 1.0, n)
            ta, tb = transversality_terms(kinetic_spec(0.5), SampledFn(g, g.nodes))
            assert tb == 0.0
            errs.append(abs(ta - TWO_OVER_PI))
        assert errs[0] <= 5e-4
        assert errs[1] < errs[0]

    def test_no_right_dependence_means_pure_right_integral(self):
        # with dL_ddR identically zero the second bracketed term vanishes,
        # so the bracket must coincide with the right-integral term alone
        from fracham import OperatorKind, apply, build_operator

        g = Grid(0.0, 1.0, 128)
        q = SampledFn(g, g.nodes)
        spec = kinetic_spec(0.5)
        ta, tb = transversality_terms(spec, q)
        dl = apply(build_operator(OperatorKind.CAPUTO_LEFT, 0.5, g), q)
        ir = apply(build_operator(OperatorKind.INT_RIGHT, 0.5, g), dl)
        assert ta == ir.values[0]
        assert tb == ir.values[-1]


class TestMomenta:
    def test_linear_trial_value_at_quarter(self):
        # p_alpha = D^0.5 t - g(t) at t = 0.25; the discrete derivative is
        # exact on linear data, so the value matches the gamma oracles
        g = Grid(0.0, 1.0, 64)
        spec = example_lagrangian(0.5, 0.75)
        p_a, p_b = momenta(spec, SampledFn(g, g.nodes))
        assert p_a.values[16] == pytest.approx(P_ALPHA_TRIAL_AT_QUARTER, rel=1e-9)
        assert np.array_equal(p_b.values, np.zeros(65))

    def test_gamma_term_oracle(self):
        assert gamma(1.75) / gamma(1.25) * 0.25**0.25 == pytest.approx(
            G_TERM_AT_QUARTER, rel=1e-12
        )

    def test_nearly_vanishes_on_minimizer(self):
        spec = example_lagrangian(0.5, 0.75)
        prev = None
        for n in (256, 512):
            p_a, _ = momenta(spec, minimizer(Grid(0.0, 1.0, n)))
            m = float(np.max(np.abs(p_a.values)))
            assert m <= 3e-2
            if prev is not None:
                assert m < prev
            prev = m

    def test_no_derivative_dependence_gives_zero_momenta(self):
        g = Grid(0.0, 1.0, 16)
        p_a, p_b = momenta(coordinate_spec(0.5), SampledFn(g, g.nodes))
        assert np.array_equal(p_a.values, np.zeros(17))
        assert np.array_equal(p_b.values, np.zeros(17))


class TestHamiltonian:
    def test_closed_form_for_model_density(self):
        # H = p^2/2 + p*g pointwise, to rounding, for arbitrary trajectories
        g = Grid(0.0, 1.0, 128)
        spec = example_lagrangian(0.5, 0.75)
        rng = np.random.default_rng(41)
        c = gamma(1.75) / gamma(1.25)
        gt = c * g.nodes**0.25
        for _ in range(3):
            q = SampledFn(g, rng.standard_normal(129))
            bundle = hamiltonian(spec, q)
            p = bundle.p_alpha.values
            assert np.max(np.abs(bundle.H.values - (p**2 / 2.0 + p * gt))) <= 1e-12

    def test_small_on_minimizer_and_shrinking(self):
        spec = example_lagrangian(0.5, 0.75)
        prev = None
        for n in (256, 512):
            bundle = hamiltonian(spec, minimizer(Grid(0.0, 1.0, n)))
            h_max = float(np.max(np.abs(bundle.H.values)))
            assert h_max <= 5e-2
            if prev is not None:
                assert h_max < prev
            prev = h_max

    def test_zero_density_gives_zero_energy(self):
        spec = LagrangianSpec(
            eval_L=_zeros, dL_dq=_zeros, dL_ddL=_zeros, dL_ddR=_zeros, alpha=0.5, beta=0.5
        )
        g = Grid(0.0, 1.0, 16)
        bundle = hamiltonian(spec, SampledFn(g, np.cos(g.nodes)))
        assert np.array_equal(bundle.H.values, np.zeros(17))

    def test_explicit_time_dependence_carries_over_with_sign_flip(self):
        # finite-difference dH/dt along frozen fields equals -dL/dt
        al, be = 0.5, 0.75
        spec = example_lagrangian(al, be)
        n = 256
        g = Grid(0.0, 1.0, n)
        bundle = hamiltonian(spec, minimizer(g, be))
        c = gamma(1.0 + be) / gamma(1.0 + be - al)
        p = be - al
        rng = np.random.default_rng(3)
        eps = 1e-6
        for i in rng.integers(n // 8, 7 * n // 8, size=10):
            t = g.nodes[i]
            qi = bundle.q.values[i]
            dli = bundle.dL.values[i]
            dri = bundle.dR.values[i]
            pa, pb = bundle.p_alpha.values[i], bundle.p_beta.values[i]
            h_plus = pa * dli + pb * dri - float(spec.eval_L(t + eps, qi, dli, dri))
            h_minus = pa * dli + pb * dri - float(spec.eval_L(t - eps, qi, dli, dri))
            fd = (h_plus - h_minus) / (2.0 * eps)
            minus_dl_dt = (dli - c * t**p) * (c * p * t ** (p - 1.0))
            assert abs(fd - minus_dl_dt) <= 1e-6 * max(1.0, abs(minus_dl_dt))


class TestHamiltonResiduals:
    def test_consistency_defects_vanish_for_derived_bundles(self):
        g = Grid(0.0, 1.0, 64)
        spec = example_lagrangian(0.5, 0.75)
        bundle = hamiltonian(spec, minimizer(g))
        r_dl, r_dr, _ = hamilton_residuals(spec, bundle)
        assert np.array_equal(r_dl.values, np.zeros(65))
        assert np.array_equal(r_dr.values, np.zeros(65))

    def test_doctored_momenta_show_up_in_the_defects(self):
        g = Grid(0.0, 1.0, 32)
        spec = example_lagrangian(0.5, 0.75)
        bundle = hamiltonian(spec, minimizer(g))
        doctored = TrajectoryBundle(
            q=bundle.q,
            dL=bundle.dL,
            dR=bundle.dR,
            p_alpha=SampledFn(g, bundle.p_alpha.values + 1.0),
            p_beta=bundle.p_beta,
            H=bundle.H,
        )
        r_dl, r_dr, r_q = hamilton_residuals(spec, doctored)
        assert np.allclose(r_dl.values, np.ones(33), rtol=0, atol=1e-15)
        assert np.array_equal(r_dr.values, np.zeros(33))
        # r_q reads the bundle's momenta, not momenta re-derived from the spec
        dl_dq = spec.dL_dq(g.nodes, bundle.q.values, bundle.dL.values, bundle.dR.values)
        ra = apply(build_operator(OperatorKind.RL_RIGHT, spec.alpha, g), doctored.p_alpha)
        rb = apply(build_operator(OperatorKind.RL_LEFT, spec.beta, g), bundle.p_beta)
        assert np.array_equal(r_q.values, -dl_dq - ra.values - rb.values, equal_nan=True)

    def test_zero_momenta_and_no_coordinate_dependence(self):
        g = Grid(0.0, 1.0, 32)
        spec = kinetic_spec(0.5)
        zero = SampledFn(g, np.zeros(33))
        q = SampledFn(g, np.full(33, 2.0))
        bundle = hamiltonian(spec, q)  # constant q: dl = dr = 0, p = 0
        r_dl, r_dr, r_q = hamilton_residuals(spec, bundle)
        assert np.array_equal(bundle.p_alpha.values, zero.values)
        finite = np.isfinite(r_q.values)
        assert np.array_equal(r_q.values[finite], np.zeros(finite.sum()))

    def test_trajectory_equation_negates_stationarity_residual(self):
        g = Grid(0.0, 1.0, 128)
        spec = example_lagrangian(0.5, 0.75)
        rng = np.random.default_rng(77)
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        t = g.nodes
        q = SampledFn(g, coeffs[0] + coeffs[1] * t + coeffs[2] * t**2 + coeffs[3] * t**3)
        el = el_residual(spec, q)
        _, _, r_q = hamilton_residuals(spec, hamiltonian(spec, q))
        s = el.residual.values + r_q.values
        assert np.nanmax(np.abs(s[np.isfinite(s)])) <= 1e-12

    def test_bundle_grid_consistency_enforced(self):
        g = Grid(0.0, 1.0, 16)
        other = Grid(0.0, 1.0, 32)
        spec = example_lagrangian(0.5, 0.75)
        bundle = hamiltonian(spec, SampledFn(g, g.nodes))
        with pytest.raises(GridMismatchError):
            TrajectoryBundle(
                q=bundle.q,
                dL=bundle.dL,
                dR=bundle.dR,
                p_alpha=SampledFn(other, np.zeros(33)),
                p_beta=bundle.p_beta,
                H=bundle.H,
            )


class TestEquivalence:
    @pytest.mark.parametrize("trial", ["exact", "linear", "random"])
    def test_gap_is_rounding_level(self, trial):
        g = Grid(0.0, 1.0, 256)
        if trial == "exact":
            q = minimizer(g)
        elif trial == "linear":
            q = SampledFn(g, g.nodes)
        else:
            rng = np.random.default_rng(7)
            q = SampledFn(g, rng.uniform(-1, 1, 257))
        for spec in (example_lagrangian(0.5, 0.75), two_sided_spec(0.4, 0.7)):
            rep = equivalence_gap(spec, q)
            assert rep.gap <= 1e-12
            # both routes add the same terms, so the residuals agree exactly
            el = el_residual(spec, q)
            _, _, r_q = hamilton_residuals(spec, hamiltonian(spec, q))
            assert np.array_equal(el.residual.values, -r_q.values, equal_nan=True)

    def test_linear_trial_has_large_individual_residuals(self):
        # equivalence is trajectory independent: both residuals are far from
        # zero on q = t, yet they cancel to rounding
        g = Grid(0.0, 1.0, 256)
        spec = example_lagrangian(0.5, 0.75)
        rep = equivalence_gap(spec, SampledFn(g, g.nodes))
        assert rep.gap <= 1e-12
        assert rep.el_max > 0.1
        assert rep.hamilton_max > 0.1


class TestOneEvaluationPerQuery:
    """Each query applies both velocity operators once, not once per output."""

    @pytest.fixture
    def applies(self, monkeypatch):
        import fracham.variational

        calls = []
        real = fracham.variational.apply

        def counting(op, f):
            calls.append(op.kind)
            return real(op, f)

        monkeypatch.setattr(fracham.variational, "apply", counting)
        return calls

    @pytest.mark.parametrize("spec", [example_lagrangian(0.5, 0.75), two_sided_spec(0.4, 0.7)],
                             ids=["model", "two-sided"])
    def test_equivalence_gap(self, applies, spec):
        g = Grid(0.0, 1.0, 64)
        equivalence_gap(spec, SampledFn(g, np.sin(g.nodes)))
        # two velocities, and the two Riemann-Liouville terms both residual routes add
        assert len(applies) == 4

    @pytest.mark.parametrize("spec", [example_lagrangian(0.5, 0.75), two_sided_spec(0.4, 0.7)],
                             ids=["model", "two-sided"])
    def test_equivalence_gap_runs_each_partial_once(self, spec):
        calls = []

        def counting(name):
            callback = getattr(spec, name)

            def counted(*args):
                calls.append(name)
                return callback(*args)

            return counted

        names = ("eval_L", "dL_dq", "dL_ddL", "dL_ddR")
        counted = dataclasses.replace(spec, validate=False, **{k: counting(k) for k in names})
        g = Grid(0.0, 1.0, 64)
        equivalence_gap(counted, SampledFn(g, np.sin(g.nodes)))
        # the energy is not formed, so eval_L never runs
        assert Counter(calls) == {"dL_dq": 1, "dL_ddL": 1, "dL_ddR": 1}

    def test_solve(self, applies):
        from fracham import ExampleProblem, solve

        solve(ExampleProblem(0.5, 0.75, Grid(0.0, 1.0, 64)))
        assert len(applies) == 4

    def test_solve_runs_the_lagrangian_once(self, monkeypatch):
        import fracham.solver
        from fracham import ExampleProblem, solve

        calls = []
        spec = example_lagrangian(0.5, 0.75)

        def counting(*args):
            calls.append(1)
            return spec.eval_L(*args)

        counted = dataclasses.replace(spec, eval_L=counting, validate=False)
        monkeypatch.setattr(fracham.solver, "example_lagrangian", lambda alpha, beta: counted)
        solve(ExampleProblem(0.5, 0.75, Grid(0.0, 1.0, 64)))
        assert len(calls) == 1
