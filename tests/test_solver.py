import numpy as np
import pytest

import fracham.solver
from fracham import fracnum
from fracham import (
    ConvergenceError,
    ExampleProblem,
    FractionalOrder,
    Grid,
    OperatorKind,
    SampledFn,
    SingularSystemError,
    assemble,
    build_operator,
    convergence_study,
    equivalence_gap,
    evaluate_functional,
    exact_solution,
    example_lagrangian,
    solve,
    target_velocity,
    trapezoid_weights,
)
from oracles import nodal_matrix

HALF_TO_THREE_QUARTERS = 0.5946035575013605  # 0.5 ** 0.75


def problem(n, alpha=0.5, beta=0.75):
    return ExampleProblem(FractionalOrder(alpha), beta, Grid(0.0, 1.0, n))


class TestExampleProblem:
    def test_valid_construction(self):
        p = problem(16)
        assert p.q_left == 0.0 and p.q_right == 1.0

    def test_rejects_equal_orders(self):
        # beta = alpha would make the target velocity constant; outside the contract
        with pytest.raises(ValueError):
            problem(16, alpha=0.5, beta=0.5)

    def test_rejects_beta_above_one(self):
        with pytest.raises(ValueError):
            problem(16, alpha=0.5, beta=1.25)

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError):
            ExampleProblem(FractionalOrder(0.5), 0.75, Grid(0.0, 2.0, 16))

    def test_target_velocity_endpoints(self):
        g = target_velocity(problem(16))
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(1.013967360100927, rel=1e-12)  # G(1.75)/G(1.25)


class TestAssemble:
    def test_small_system_shape_and_symmetry(self):
        matrix, rhs = assemble(problem(4))
        assert matrix.shape == (3, 3)
        assert rhs.shape == (3,)
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-14 * max(1.0, np.max(np.abs(matrix)))

    def test_positive_definite(self):
        matrix, _ = assemble(problem(64))
        ev = np.linalg.eigvalsh(matrix)
        assert ev[0] > 0.0

    @pytest.mark.parametrize("n", [4, 64, 1024])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_matches_nodal_normal_equations(self, alpha, n):
        # the same system formed from the dense nodal matrix D: B = sqrt(W) D
        # over the interior columns, boundary columns folded into the rhs
        p = problem(n, alpha=alpha, beta=(1.0 + alpha) / 2.0)
        d = nodal_matrix(build_operator(OperatorKind.CAPUTO_LEFT, alpha, p.grid))
        sqw = np.sqrt(trapezoid_weights(p.grid))
        field = target_velocity(p) - d[:, -1] * p.q_right - d[:, 0] * p.q_left
        b = sqw[:, None] * d[:, 1:-1]
        matrix, rhs = assemble(p)
        for got, ref in ((matrix, b.T @ b), (rhs, b.T @ (sqw * field))):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_solve_builds_one_dense_matrix(self, monkeypatch):
        # the Ritz system and the residual evaluation share the cached
        # left-Caputo Toeplitz matrix
        calls = []
        build = fracnum._lower_toeplitz

        def counting(col):
            calls.append(col.size)
            return build(col)

        monkeypatch.setattr(fracnum, "_lower_toeplitz", counting)
        fracnum._build.cache_clear()
        try:
            solve(problem(64))
        finally:
            fracnum._build.cache_clear()
        assert len(calls) == 1


class TestSolve:
    def test_recovers_weakly_singular_minimizer(self, report_075_n1024):
        rep = report_075_n1024
        assert rep.l2_err <= 1e-2
        i = 512  # node at t = 0.5
        assert rep.q_numeric.values[i] == pytest.approx(HALF_TO_THREE_QUARTERS, abs=2e-2)
        assert rep.q_exact.values[i] == pytest.approx(HALF_TO_THREE_QUARTERS, rel=1e-12)

    def test_boundary_values_are_exact(self, report_075_n1024):
        q = report_075_n1024.q_numeric.values
        assert q[0] == 0.0
        assert q[-1] == 1.0

    def test_linear_minimizer_is_recovered_to_rounding(self, report_beta1_n1024):
        # the scheme is exact on linear data, so only solver rounding remains
        assert report_beta1_n1024.max_err <= 1e-10

    def test_functional_value_nonnegative_and_minimal(self):
        p = problem(64)
        rep = solve(p)
        spec = example_lagrangian(0.5, 0.75)
        assert rep.functional_value >= 0.0
        j_linear = evaluate_functional(spec, SampledFn(p.grid, p.grid.nodes))
        j_exact = evaluate_functional(spec, exact_solution(p))
        assert rep.functional_value <= j_linear + 1e-10
        assert rep.functional_value <= j_exact + 1e-10

    def test_residual_consistency(self):
        # the stationarity and canonical routes agree on the numeric solution
        maxima = []
        for n in (64, 128, 256):
            rep = solve(problem(n))
            assert rep.hamilton_max == pytest.approx(rep.el_max, rel=1e-12)
            maxima.append(rep.el_max)
        assert maxima[0] > maxima[1] > maxima[2]

    @pytest.mark.parametrize("alpha,beta,n", [(0.05, 0.5, 64), (0.5, 0.75, 512),
                                              (0.9, 0.95, 1024)])
    def test_residual_maxima_are_the_equivalence_report(self, alpha, beta, n):
        # solve() reports the residual maxima of the same evaluation that
        # equivalence_gap runs, so the numbers agree exactly
        rep = solve(problem(n, alpha, beta))
        eq = equivalence_gap(example_lagrangian(alpha, beta), rep.q_numeric)
        assert rep.el_max == eq.el_max
        assert rep.hamilton_max == eq.hamilton_max


class TestConvergenceStudy:
    def test_l2_error_decreases(self):
        rows = convergence_study(0.5, 0.75, [64, 128, 256, 512])
        assert [r.n for r in rows] == [64, 128, 256, 512]
        l2 = [r.l2_err for r in rows]
        assert all(b < a for a, b in zip(l2, l2[1:]))
        assert all(np.isfinite([r.max_err, r.l2_err, r.el_max, r.hamilton_max]).all() for r in rows)

    def test_single_entry_is_allowed(self):
        rows = convergence_study(0.5, 0.75, [8])
        assert len(rows) == 1

    def test_near_boundary_orders(self):
        rows = convergence_study(0.9, 0.95, [64, 128])
        assert rows[1].l2_err <= rows[0].l2_err

    @pytest.mark.parametrize(
        "alpha,first,last", [(0.02, 1.31e-4, 1.61e-5), (0.5, 1.53e-3, 1.51e-4),
                             (0.98, 1.71e-4, 3.11e-5)],
    )
    def test_refinement_over_the_order_range(self, alpha, first, last):
        rows = convergence_study(alpha, (1.0 + alpha) / 2.0, [64, 128, 256, 512])
        l2 = [r.l2_err for r in rows]
        assert all(b < a for a, b in zip(l2, l2[1:]))
        # the values at n = 64 and n = 512, to the three digits recorded
        assert l2[0] == pytest.approx(first, rel=5e-3)
        assert l2[-1] == pytest.approx(last, rel=5e-3)

    @pytest.mark.parametrize("bad", [[], [4, 8], [64, 64], [128, 64]])
    def test_rejects_bad_lists(self, bad):
        with pytest.raises(ValueError):
            convergence_study(0.5, 0.75, bad)

    def test_monotonicity_violation_carries_rows(self):
        # solver errors are monotone here, so the check does not trip;
        # verify a healthy run returns its rows
        rows = convergence_study(0.5, 0.75, [64, 128])
        assert len(rows) == 2
        # and that the exception type exposes .rows
        err = ConvergenceError("msg", rows)
        assert err.rows is rows

    def test_singular_system_keeps_its_type(self, monkeypatch):
        # every system fails a conditioning limit of 1
        monkeypatch.setattr(fracham.solver, "_COND_LIMIT", 1.0)
        with pytest.raises(SingularSystemError, match="n = 64"):
            convergence_study(0.5, 0.75, [64, 128])
