import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

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
    convergence_study,
    equivalence_gap,
    evaluate_functional,
    exact_solution,
    example_lagrangian,
    solve,
    target_velocity,
)
from oracles import normal_equations, weighted_interior_system

HALF_TO_THREE_QUARTERS = 0.5946035575013605  # 0.5 ** 0.75
RATE_MARGIN = 0.05  # below the measured last-doubling orders of l2_err


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


class TestRitzSystem:
    """The solve against the dense normal equations of tests/oracles.py."""

    def test_small_system_shape_and_symmetry(self):
        matrix, rhs = normal_equations(problem(4))
        assert matrix.shape == (3, 3)
        assert rhs.shape == (3,)
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-14 * max(1.0, np.max(np.abs(matrix)))

    def test_positive_definite(self):
        matrix, _ = normal_equations(problem(64))
        ev = np.linalg.eigvalsh(matrix)
        assert ev[0] > 0.0

    @pytest.mark.parametrize("n", [4, 64, 1024])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_solution_satisfies_nodal_normal_equations(self, alpha, n):
        # the solve never forms the system, but its interior values solve
        # the one formed from the dense nodal matrix D
        p = problem(n, alpha=alpha, beta=(1.0 + alpha) / 2.0)
        matrix, rhs = normal_equations(p)
        x = solve(p).q_numeric.values[1:-1]
        residual = np.max(np.abs(matrix @ x - rhs))
        assert residual <= 1e-13 * np.max(np.abs(matrix)) * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_matches_least_squares(self, alpha, n):
        p = problem(n, alpha=alpha, beta=(1.0 + alpha) / 2.0)
        b, f = weighted_interior_system(p)
        ref = np.linalg.lstsq(b, f, rcond=None)[0]
        assert np.max(np.abs(solve(p).q_numeric.values[1:-1] - ref)) <= 1e-12

    @pytest.mark.parametrize("n", [8, 64, 512, 2048])
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95, 0.999])
    def test_condition_estimate_matches_eigvalsh(self, alpha, n, monkeypatch):
        # with a limit of 1 every system fails the gate, and its message
        # carries the estimate
        p = problem(n, alpha=alpha, beta=(1.0 + alpha) / 2.0)
        ev = np.linalg.eigvalsh(normal_equations(p)[0])
        monkeypatch.setattr(fracham.solver, "_COND_LIMIT", 1.0)
        with pytest.raises(SingularSystemError) as exc:
            solve(p)
        estimate = float(re.search(r"condition estimate ([^)]+)\)", str(exc.value))[1])
        assert estimate == pytest.approx(ev[-1] / ev[0], rel=0.02)

    def test_solver_leaves_toeplitz_algebra_to_fracnum(self):
        # products, transposes and the inverse belong to fracnum's Toeplitz type
        assert not hasattr(fracham.solver, "_toeplitz_product")
        assert not hasattr(fracham.solver, "_series_reciprocal")

    def test_nan_condition_estimate_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(fracham.solver, "_rayleigh", lambda op, x: np.nan)
        with pytest.raises(SingularSystemError, match="estimate nan"):
            solve(problem(64))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 64, 512, 2048])
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.5, 0.95, 0.999])
    def test_condition_estimate_at_full_precision(self, alpha, n, monkeypatch):
        # the two estimates as _rayleigh returns them, not the message's %.3g;
        # both come from below, so their product may read low but never high.
        # At n = 2 the interior system is 1 x 1 and the Lanczos step stops at
        # its exact eigenvalue, with no division by zero
        rayleigh, estimates = fracham.solver._rayleigh, []

        def recorded(op, x):
            estimates.append(rayleigh(op, x))
            return estimates[-1]

        monkeypatch.setattr(fracham.solver, "_rayleigh", recorded)
        p = problem(n, alpha=alpha, beta=(1.0 + alpha) / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(p)
        ev = np.linalg.eigvalsh(normal_equations(p)[0])
        assert len(estimates) == 2
        ratio = estimates[0] * estimates[1] / (ev[-1] / ev[0])
        assert 1.0 - 2e-3 <= ratio <= 1.0 + 1e-12

    def test_gate_makes_eight_toeplitz_products(self, monkeypatch):
        # 2 Lanczos steps on each of M and M^-1, 2 products with T per step
        matmul, rayleigh = fracnum._Toeplitz.__matmul__, fracham.solver._rayleigh
        count = {"in_gate": False, "products": 0}

        def counted(self, v):
            count["products"] += count["in_gate"]
            return matmul(self, v)

        def gate(op, x):
            count["in_gate"] = True
            try:
                return rayleigh(op, x)
            finally:
                count["in_gate"] = False

        monkeypatch.setattr(fracnum._Toeplitz, "__matmul__", counted)
        monkeypatch.setattr(fracham.solver, "_rayleigh", gate)
        solve(problem(1024))
        assert count["products"] == 8

    def test_warm_solve_makes_fourteen_full_size_products(self, monkeypatch):
        # v (2), d0 (1), the gate (8), Newton's last step (1) and the residual
        # evaluation's two applies, CAPUTO_LEFT on q and RL_RIGHT on p: the
        # model density has no right slot, so nothing applies CAPUTO_RIGHT
        # or RL_LEFT
        n, matmul = 4096, fracnum._Toeplitz.__matmul__
        solve(problem(n))  # builds the operators and kernel transforms
        count = {"products": 0}

        def counted(self, v):
            count["products"] += self.col.size == n
            return matmul(self, v)

        monkeypatch.setattr(fracnum._Toeplitz, "__matmul__", counted)
        solve(problem(n))
        assert count["products"] == 14

    # nothing is dense at any n, the residual evaluation's applies included:
    # the peak (measured 44.9 kB at n = 128, 30.5 * 8n bytes at 512 and
    # 32.6 * 8n at 2048) is O(n) plus a fixed part, below one dense T at each n
    @pytest.mark.parametrize("n", [128, 256, 512, 2048], ids=lambda n: f"n{n}")
    def test_solve_allocates_linear_memory(self, n):
        p = problem(n)
        fracnum._build.cache_clear()
        tracemalloc.start()
        try:
            solve(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fracnum._build.cache_clear()
        assert peak < 48 * 8 * n + 32_000

    def test_large_grid_in_linear_memory(self):
        # at n = 2^16 a dense T would take 34 GB; with the FFT products the
        # solve and the gap peak at 33 * 8n bytes (16 MiB) under tracemalloc
        n = 2**16
        fracnum._build.cache_clear()
        tracemalloc.start()
        try:
            rep = solve(problem(n))
            gap = equivalence_gap(example_lagrangian(0.5, 0.75), rep.q_numeric).gap
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fracnum._build.cache_clear()
        assert peak < 48 * 8 * n
        assert gap <= 1e-10
        assert rep.l2_err < solve(problem(2**12)).l2_err


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

    @pytest.mark.parametrize("sizes", [[16.9, 32.2], [math.inf], [math.nan]],
                             ids=["fractional", "inf", "nan"])
    def test_rejects_non_integral_sizes(self, sizes):
        # int() would run n = 16, 32 for the first; it raises OverflowError for
        # inf, and a message of its own for NaN
        msg = f"integer number of subintervals, got n = {sizes[0]}"
        with pytest.raises(ValueError, match=msg):
            convergence_study(0.5, 0.75, sizes)

    @staticmethod
    def _rising_solve(monkeypatch, l2_errs):
        # a stand-in solve whose l2_err at the i-th size is l2_errs[i]
        errs = iter(l2_errs)

        def fake_solve(problem):
            e = next(errs)
            return SimpleNamespace(max_err=e, l2_err=e, el_max=0.0, hamilton_max=0.0)

        monkeypatch.setattr(fracham.solver, "solve", fake_solve)

    # a rise is a violation once it ends above the 1e-12 rounding floor
    @pytest.mark.parametrize("l2_errs,message", [
        ([1e-4, 2e-4, 1e-5], "from 0.0001 (n = 64) to 0.0002 (n = 128)"),
        ([1e-13, 1e-14, 2e-12], "from 1e-14 (n = 128) to 2e-12 (n = 256)"),
    ])
    def test_monotonicity_violation_carries_rows(self, monkeypatch, l2_errs, message):
        self._rising_solve(monkeypatch, l2_errs)
        with pytest.raises(ConvergenceError, match=re.escape(message)) as exc:
            convergence_study(0.5, 0.75, [64, 128, 256])
        assert [r.n for r in exc.value.rows] == [64, 128, 256]
        assert [r.l2_err for r in exc.value.rows] == l2_errs

    def test_rise_below_the_floor_is_rounding_noise(self, monkeypatch):
        self._rising_solve(monkeypatch, [3.4e-18, 1.8e-19, 3.0e-17, 9e-13])
        rows = convergence_study(0.5, 0.75, [64, 128, 256, 512])
        assert [r.l2_err for r in rows] == [3.4e-18, 1.8e-19, 3.0e-17, 9e-13]

    # last-doubling order of l2_err for n = 2048 -> 4096, measured over the
    # ladder 256 .. 4096; beta = alpha + 0.01 is out of range at alpha = 0.999
    @pytest.mark.parametrize("alpha,beta,order", [
        (0.02, 0.03, 0.53), (0.02, 0.51, 1.01), (0.5, 0.51, 0.94), (0.5, 0.75, 1.17),
        (0.98, 0.99, 0.89), (0.999, 0.9995, 0.87),
    ])
    def test_rate_over_the_order_range(self, alpha, beta, order):
        try:
            rows = convergence_study(alpha, beta, [256, 512, 1024, 2048, 4096])
        finally:
            fracnum._build.cache_clear()  # frees the operators this study built
        measured = np.log2(rows[-2].l2_err / rows[-1].l2_err)
        assert measured >= order - RATE_MARGIN

    def test_singular_system_keeps_its_type(self, monkeypatch):
        # every system fails a conditioning limit of 1
        monkeypatch.setattr(fracham.solver, "_COND_LIMIT", 1.0)
        with pytest.raises(SingularSystemError, match="n = 64"):
            convergence_study(0.5, 0.75, [64, 128])
