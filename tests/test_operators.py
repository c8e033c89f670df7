import inspect
import math
import tracemalloc

import numpy as np
import pytest

import fracham.cli
from fracham import fracnum
from fracham import (
    DomainError,
    FracOperator,
    FractionalOrder,
    Grid,
    GridMismatchError,
    OperatorKind,
    SampledFn,
    apply,
    build_operator,
    caputo_power_rule,
    gamma,
    quad_trapezoid,
)
from oracles import (
    caputo_left_quadrature,
    frac_integral_quadrature,
    integral_coefficient_mpmath,
    l1_coefficient_mpmath,
    lower_toeplitz,
    nodal_matrix,
    rl_left_quadrature,
    weights_loops,
)

K = OperatorKind

# frozen oracle values (quadrature / recurrence, see oracles.py)
INV_GAMMA_HALF = 0.5641895835477563       # 1/Gamma(0.5)
INV_GAMMA_3_2 = 1.1283791670955126        # 1/Gamma(1.5)
GAMMA_7_4 = 0.9190625268488833            # Gamma(1.75)
RIGHT_CAPUTO_T_AT_QUARTER = -0.9772050238058397  # -(0.75)^0.5 / Gamma(1.5)

ALL_KINDS = list(OperatorKind)
DERIVATIVE_KINDS = [K.CAPUTO_LEFT, K.CAPUTO_RIGHT, K.RL_LEFT, K.RL_RIGHT]


def grid01(n):
    return Grid(0.0, 1.0, n)


def max_finite(values):
    return float(np.nanmax(np.abs(values)))


def arrays_held(op):
    """The arrays that op and its Toeplitz object hold."""
    return [v for v in (*vars(op).values(), *vars(op._toeplitz).values())
            if isinstance(v, np.ndarray)]


def build_and_apply_peak(kind, n):
    """Peak bytes traced while a fresh operator is built and applied once."""
    fracnum._build.cache_clear()
    grid = Grid(0.0, 1.0, n)
    tracemalloc.start()
    try:
        op = build_operator(kind, 0.5, grid)
        apply(op, SampledFn(grid, np.sin(grid.nodes)))
        return op, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# structure of the weight matrices
# ---------------------------------------------------------------------------

class TestMatrixStructure:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_triangularity(self, kind):
        w = nodal_matrix(build_operator(kind, 0.4, grid01(12)))
        if kind.is_left:
            assert np.array_equal(np.triu(w, 1), np.zeros_like(w))
        else:
            assert np.array_equal(np.tril(w, -1), np.zeros_like(w))

    @pytest.mark.parametrize(
        "left,right",
        [(K.CAPUTO_LEFT, K.CAPUTO_RIGHT), (K.RL_LEFT, K.RL_RIGHT), (K.INT_LEFT, K.INT_RIGHT)],
    )
    def test_mirror_conjugation_is_exact(self, left, right):
        g = grid01(15)
        wl = nodal_matrix(build_operator(left, 0.35, g))
        wr = nodal_matrix(build_operator(right, 0.35, g))
        assert np.array_equal(wr, wl[::-1, ::-1])

    @pytest.mark.parametrize(
        "n,order,a,b",
        [(2, 0.5, 0.0, 1.0), (9, 0.01, -1.3, 2.7), (40, 0.99, 0.0, 1.0), (257, 0.35, -1.3, 2.7)],
    )
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_weights_match_loop_reference(self, kind, n, order, a, b):
        # entry-by-entry fill, independent of the Toeplitz generator. Both
        # sides evaluate the same formulas, but vectorized and scalar pow may
        # differ by an ulp, and the coefficients cancel power terms as large
        # as (n + 1)^(1 + order) times the diagonal: allow a few ulps of that
        ref = weights_loops(kind.value, order, a, b, n)
        w = nodal_matrix(build_operator(kind, order, Grid(a, b, n)))
        atol = 4 * np.finfo(float).eps * (n + 1) ** (1 + order) * np.max(np.abs(ref))
        assert np.allclose(w, ref, rtol=1e-11, atol=atol)

    def test_unusable_rows(self):
        g = grid01(9)
        assert build_operator(K.RL_LEFT, 0.5, g).unusable == (0,)
        assert build_operator(K.RL_RIGHT, 0.5, g).unusable == (9,)
        for kind in (K.CAPUTO_LEFT, K.CAPUTO_RIGHT, K.INT_LEFT, K.INT_RIGHT):
            assert build_operator(kind, 0.5, g).unusable == ()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fresh_operator_holds_only_its_generator(self, kind):
        # building is O(n); a dense T would be 134 MB at this size
        fracnum._build.cache_clear()
        op = build_operator(kind, 0.5, Grid(0.0, 1.0, 4096))
        assert sum(v.nbytes for v in arrays_held(op)) < 1_000_000

    @pytest.mark.parametrize(
        "family", [DERIVATIVE_KINDS, [K.INT_LEFT, K.INT_RIGHT]], ids=["derivative", "integral"]
    )
    def test_family_shares_one_toeplitz_matrix(self, family):
        g = grid01(33)
        f = SampledFn(g, np.sin(g.nodes))
        ops = [build_operator(kind, 0.29, g) for kind in family]
        for op in reversed(ops):
            apply(op, f)
        assert all(op._toeplitz is ops[0]._toeplitz for op in ops[1:])
        assert not [v for v in arrays_held(ops[0]) if v.ndim == 2]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_used_operator_keeps_no_nodal_matrix(self, kind):
        # the nodal matrix is derived from the generator and not kept; at
        # n = 512 apply convolves directly and forms no n x n array either:
        # its peak (measured under 10 * 8n bytes) is far below one T, 8 n^2
        n = 512
        try:
            op, peak = build_and_apply_peak(kind, n)
            assert nodal_matrix(op).shape == (n + 1, n + 1)
            assert not [v for v in arrays_held(op) if v.ndim == 2]
            assert peak < 32 * 8 * n
        finally:
            fracnum._build.cache_clear()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_large_operator_builds_no_dense_matrix(self, kind):
        # above n = 512 apply convolves by FFT and never forms T, which would
        # take 134 MB here; the peak was measured under 12 * 8n bytes
        try:
            op, peak = build_and_apply_peak(kind, 4096)
            assert peak < 32 * 8 * 4096
            assert not [v for v in arrays_held(op) if v.ndim == 2]
            # the kernel's FFT is kept, O(n), once per Toeplitz object
            spectra = [v for v in arrays_held(op) if np.iscomplexobj(v)]
            assert [v.ndim for v in spectra] == [1]
        finally:
            fracnum._build.cache_clear()

    def test_kernel_is_transformed_once(self, monkeypatch):
        # above n = 512 every product with T, or with its transpose, reuses
        # the one FFT of the kernel that the Toeplitz object keeps
        T = build_operator(K.CAPUTO_LEFT, 0.37, grid01(4096))._toeplitz
        v = np.random.default_rng(0).standard_normal(4096)
        first = T @ v
        calls = []
        rfft = np.fft.rfft

        def counting(a, *args, **kwargs):
            calls.append(np.shares_memory(a, T.col))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        assert np.array_equal(T @ v, first)
        T.transpose(v)
        assert calls == [False, False]  # the two transforms of v alone

    @pytest.mark.parametrize("order", [0.01, 0.5, 0.999])
    @pytest.mark.parametrize("n", [513, 1024, 4096])
    @pytest.mark.parametrize("integral", [False, True], ids=["derivative", "integral"])
    def test_fft_product_matches_dense_product(self, integral, n, order):
        # the bound is relative to |T| |d|, the scale of the terms summed: on
        # white noise the integral kinds' output can be far smaller than it
        kind = K.INT_LEFT if integral else K.CAPUTO_LEFT
        kernel = build_operator(kind, order, grid01(n)).kernel
        d = np.random.default_rng(n).standard_normal(n)
        T = lower_toeplitz(kernel)
        err = np.abs(fracnum._Toeplitz(kernel) @ d - T @ d)
        assert np.max(err) <= 1e-14 * np.max(np.abs(T) @ np.abs(d))

    @pytest.mark.parametrize("order", [0.01, 0.5, 0.999])
    @pytest.mark.parametrize("n", [64, 512, 513, 4096])
    def test_toeplitz_type_matches_dense(self, n, order):
        # product and transpose are bounded relative to |T| |v|, the scale of
        # the terms summed; the inverse's column must solve T c = e_0
        T = build_operator(K.CAPUTO_LEFT, order, grid01(n))._toeplitz
        dense = lower_toeplitz(T.col)
        v = np.random.default_rng(n).standard_normal(n)
        assert np.max(np.abs(T @ v - dense @ v)) <= 1e-14 * np.max(np.abs(dense) @ np.abs(v))
        err = np.abs(T.transpose(v) - dense.T @ v)
        assert np.max(err) <= 1e-14 * np.max(np.abs(dense.T) @ np.abs(v))
        # a shorter v is zero-padded, as the inverse's Newton steps need
        short = v[: n // 3]
        padded = np.concatenate((short, np.zeros(n - short.size)))
        assert np.max(np.abs(T @ short - dense @ padded)) <= (
            1e-14 * np.max(np.abs(dense) @ np.abs(padded)))
        T_inv = T.inverse()
        assert isinstance(T_inv, fracnum._Toeplitz)
        assert np.max(np.abs(dense @ T_inv.col - np.eye(1, n)[0])) <= 1e-12
        assert np.linalg.norm(T_inv @ (T @ v) - v) <= 1e-12 * np.linalg.norm(v)

    def test_toeplitz_type_is_the_one_product(self):
        # every product with T, apply's included, is the Toeplitz type's: no
        # free product function, no dense T, and no convolution or FFT elsewhere
        assert not hasattr(fracnum, "_toeplitz_product")
        assert not hasattr(fracnum._Toeplitz, "dense")
        for name in ("_lower_toeplitz", "_dense_held", "_DENSE_BYTES", "weakref"):
            assert not hasattr(fracnum, name), name
        own = inspect.getsource(fracnum._Toeplitz)
        for module in (fracnum, fracham.solver, fracham.variational, fracham.cli):
            rest = inspect.getsource(module).replace(own, "")
            assert "np.convolve" not in rest and "np.fft" not in rest, module.__name__

    @pytest.mark.parametrize(
        "family", [DERIVATIVE_KINDS, [K.INT_LEFT, K.INT_RIGHT]], ids=["derivative", "integral"]
    )
    def test_family_computes_one_kernel(self, family):
        fracnum._build.cache_clear()
        try:
            ops = [build_operator(kind, 0.29, grid01(33)) for kind in family]
            assert len({id(op.kernel) for op in ops}) == 1
        finally:
            fracnum._build.cache_clear()

    def test_caputo_row_sums_vanish(self):
        # constants must be annihilated: every row of the nodal matrix sums to ~0
        w = nodal_matrix(build_operator(K.CAPUTO_LEFT, 0.5, grid01(64)))
        assert np.max(np.abs(w.sum(axis=1))) < 1e-12 * np.max(np.abs(w))

    def test_operator_holds_no_nodal_matrix_attribute(self):
        # the dense nodal matrix is a test reference, oracles.nodal_matrix
        assert not hasattr(build_operator(K.CAPUTO_LEFT, 0.5, grid01(8)), "weights")

    def test_operators_are_cached_and_frozen(self):
        g = grid01(8)
        a = build_operator(K.CAPUTO_LEFT, 0.5, g)
        b = build_operator(K.CAPUTO_LEFT, FractionalOrder(0.5), Grid(0.0, 1.0, 8))
        assert a is b
        with pytest.raises(ValueError):
            a.kernel[0] = 1.0

    def test_rejects_bad_arguments(self):
        g = grid01(8)
        with pytest.raises(ValueError):
            build_operator(K.CAPUTO_LEFT, 1.5, g)
        with pytest.raises(ValueError):
            build_operator(K.CAPUTO_LEFT, 0.0, g)
        with pytest.raises(TypeError):
            build_operator("caputo-left", 0.5, g)
        with pytest.raises(TypeError):
            build_operator(K.CAPUTO_LEFT, 0.5, "grid")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_apply_matches_matrix_product(self, kind):
        # the telescoped evaluation is the same linear map as the stored matrix
        g = grid01(40)
        rng = np.random.default_rng(11)
        op = build_operator(kind, 0.6, g)
        f = SampledFn(g, rng.standard_normal(41))
        direct = nodal_matrix(op) @ f.values
        via_apply = apply(op, f).values
        mask = np.isfinite(via_apply)
        scale = max(1.0, np.max(np.abs(direct[mask])))
        assert np.max(np.abs(via_apply[mask] - direct[mask])) < 1e-12 * scale


# ---------------------------------------------------------------------------
# pointwise correctness against analytic and quadrature oracles
# ---------------------------------------------------------------------------

class TestCaputo:
    def test_annihilates_constants_exactly(self):
        for alpha in (0.25, 0.5, 0.9):
            for c in (1.0, 5.0, -3.7):
                for kind in (K.CAPUTO_LEFT, K.CAPUTO_RIGHT):
                    g = grid01(64)
                    out = apply(build_operator(kind, alpha, g), SampledFn(g, np.full(65, c)))
                    assert np.max(np.abs(out.values)) == 0.0, (kind, alpha, c)

    def test_annihilates_constants_on_coarsest_grids(self):
        g = grid01(4)
        out = apply(build_operator(K.CAPUTO_LEFT, 0.5, g), SampledFn(g, np.ones(5)))
        assert np.array_equal(out.values, np.zeros(5))

    def test_left_caputo_of_t_at_quarter(self):
        # power rule: Gamma(2)/Gamma(1.5) * t^0.5 at t = 0.25
        g = grid01(16)
        out = apply(build_operator(K.CAPUTO_LEFT, 0.5, g), SampledFn(g, g.nodes))
        assert out.values[4] == pytest.approx(INV_GAMMA_HALF, rel=1e-12)

    def test_right_caputo_of_t_at_quarter(self):
        g = grid01(16)
        out = apply(build_operator(K.CAPUTO_RIGHT, 0.5, g), SampledFn(g, g.nodes))
        assert out.values[4] == pytest.approx(RIGHT_CAPUTO_T_AT_QUARTER, rel=1e-12)

    def test_row_zero_value_is_zero(self):
        # the defining integral is empty at the anchored endpoint
        g = grid01(8)
        out = apply(build_operator(K.CAPUTO_LEFT, 0.5, g), SampledFn(g, np.sin(g.nodes)))
        assert out.values[0] == 0.0

    def test_against_quadrature_oracle_on_sine(self):
        alpha, x = 0.6, 0.7
        n = 512
        g = grid01(n)
        out = apply(build_operator(K.CAPUTO_LEFT, alpha, g), SampledFn.from_callable(g, np.sin))
        ref = caputo_left_quadrature(math.cos, x, 0.0, alpha)
        i = round(x * n)
        assert out.values[i] == pytest.approx(ref, abs=1e-3)

    def test_classical_limit_near_order_one(self):
        # alpha -> 1 recovers the first derivative
        n = 512
        g = grid01(n)
        out = apply(build_operator(K.CAPUTO_LEFT, 0.999, g), SampledFn.from_callable(g, np.sin))
        err = np.max(np.abs(out.values[1:n] - np.cos(g.nodes[1:n])))
        assert err <= 2e-2

    def test_power_function_error_decreases_monotonically(self):
        alpha, beta = 0.5, 0.75
        errs = []
        for n in (64, 128, 256, 512, 1024):
            g = grid01(n)
            out = apply(build_operator(K.CAPUTO_LEFT, alpha, g), SampledFn(g, g.nodes**beta))
            exact = np.array(
                [caputo_power_rule(beta, alpha, t) if t > 0 else 0.0 for t in g.nodes]
            )
            errs.append(np.max(np.abs((out.values - exact)[1:n])))
        assert all(b < a for a, b in zip(errs, errs[1:])), errs
        # worst node sits next to the weak singularity; its error is analytic:
        # h^(beta-alpha) * (1/Gamma(2-alpha) - Gamma(1+beta)/Gamma(1+beta-alpha))
        predicted = (1.0 / 1024) ** 0.25 * (1.0 / gamma(1.5) - gamma(1.75) / gamma(1.25))
        assert errs[-1] == pytest.approx(predicted, rel=1e-9)

    def test_empirical_order_at_least_one_for_smooth_powers(self):
        alpha, beta = 0.5, 1.5
        errs = []
        for n in (64, 128, 256, 512):
            g = grid01(n)
            out = apply(build_operator(K.CAPUTO_LEFT, alpha, g), SampledFn(g, g.nodes**beta))
            exact = caputo_power_rule(beta, alpha, 1.0) * g.nodes  # t^(beta-alpha) with beta-alpha=1
            errs.append(np.max(np.abs((out.values - exact)[1:n])))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.0, orders

    def test_exact_on_linear_functions(self):
        # piecewise-linear interpolation reproduces f = t, so only rounding remains
        for alpha in (0.25, 0.5):
            g = grid01(1024)
            out = apply(build_operator(K.CAPUTO_LEFT, alpha, g), SampledFn(g, g.nodes))
            exact = g.nodes ** (1.0 - alpha) / gamma(2.0 - alpha)
            assert np.max(np.abs((out.values - exact)[1:1024])) < 1e-12

    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.9, 0.98, 1 - 1e-6, 1 - 1e-9])
    def test_l1_kernel_against_mpmath_at_large_lags(self, alpha):
        # the generator is scale * ((j+1)^(1-alpha) - j^(1-alpha)); the ratio
        # to kernel[0] cancels the scale. The direct difference of powers
        # loses about eps (j+1) / (1-alpha) relative, so from alpha = 0.8 on
        # the kernel is formed as j^(1-alpha) expm1((1-alpha) log1p(1/j))
        n = 10**6
        fracnum._build.cache_clear()
        try:
            kernel = build_operator(K.CAPUTO_LEFT, alpha, grid01(n)).kernel
        finally:
            fracnum._build.cache_clear()
        lags = np.unique(np.geomspace(1, n, 60).astype(int)) - 1
        ref = np.array([l1_coefficient_mpmath(int(j), alpha) for j in lags])
        rel = np.abs(kernel[lags] / kernel[0] - ref) / ref
        assert np.all(rel <= 4 * np.finfo(float).eps * (lags + 1))


class TestRiemannLiouville:
    def test_constant_survives_with_power_law(self):
        # closed form c * (x - a)^(-alpha) / Gamma(1 - alpha)
        g = grid01(64)
        out = apply(build_operator(K.RL_LEFT, 0.5, g), SampledFn(g, np.ones(65)))
        assert np.isnan(out.values[0])
        expected = g.nodes[1:] ** (-0.5) / gamma(0.5)
        assert np.allclose(out.values[1:], expected, rtol=1e-12)
        assert out.values[-1] == pytest.approx(INV_GAMMA_HALF, rel=1e-12)

    def test_constant_against_quadrature_oracle(self):
        ref = rl_left_quadrature(lambda s: 1.0, 1.0, 0.0, 0.5)
        g = grid01(64)
        out = apply(build_operator(K.RL_LEFT, 0.5, g), SampledFn(g, np.ones(65)))
        assert out.values[-1] == pytest.approx(ref, abs=1e-3)

    def test_equals_caputo_when_f_vanishes_at_anchor(self):
        g = grid01(48)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(49)
        v[0] = 0.0
        f = SampledFn(g, v)
        rl = apply(build_operator(K.RL_LEFT, 0.37, g), f)
        ca = apply(build_operator(K.CAPUTO_LEFT, 0.37, g), f)
        assert np.array_equal(rl.values[1:], ca.values[1:])

    def test_right_kind_flags_far_end(self):
        g = grid01(32)
        out = apply(build_operator(K.RL_RIGHT, 0.5, g), SampledFn(g, np.ones(33)))
        assert np.isnan(out.values[-1])
        expected = (1.0 - g.nodes[:-1]) ** (-0.5) / gamma(0.5)
        assert np.allclose(out.values[:-1], expected, rtol=1e-12)


class TestFractionalIntegral:
    def test_constant_closed_form(self):
        # I^mu c = c * (x - a)^mu / Gamma(1 + mu), exact for the product rule
        g = grid01(64)
        out = apply(build_operator(K.INT_LEFT, 0.5, g), SampledFn(g, np.ones(65)))
        assert out.values[-1] == pytest.approx(INV_GAMMA_3_2, rel=1e-12)
        assert np.allclose(out.values, g.nodes**0.5 / gamma(1.5), rtol=0, atol=1e-12)

    def test_constant_against_quadrature_oracle(self):
        ref = frac_integral_quadrature(lambda s: 1.0, 1.0, 0.0, 0.5)
        g = grid01(64)
        out = apply(build_operator(K.INT_LEFT, 0.5, g), SampledFn(g, np.ones(65)))
        assert out.values[-1] == pytest.approx(ref, rel=1e-12)

    def test_right_integral_of_constant(self):
        g = grid01(64)
        out = apply(build_operator(K.INT_RIGHT, 0.5, g), SampledFn(g, np.ones(65)))
        assert np.allclose(out.values, (1.0 - g.nodes) ** 0.5 / gamma(1.5), rtol=0, atol=1e-12)

    def test_linear_function_quadrature_oracle(self):
        # product-trapezoid integrates piecewise-linear data exactly
        mu = 0.75
        g = grid01(128)
        out = apply(build_operator(K.INT_LEFT, mu, g), SampledFn(g, g.nodes))
        ref = frac_integral_quadrature(lambda s: s, 0.5, 0.0, mu)
        assert out.values[64] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("kind", [K.INT_LEFT, K.INT_RIGHT])
    def test_linear_data_is_exact_at_large_n(self, kind, mu):
        # the scheme integrates the piecewise-linear interpolant exactly, so
        # on linear data only rounding is left, even at large n
        fracnum._build.cache_clear()
        try:
            g = grid01(4096)
            s = g.nodes if kind.is_left else 1.0 - g.nodes  # distance from the anchor
            out = apply(build_operator(kind, mu, g), SampledFn(g, 2.0 - 3.0 * s))
            exact = 2.0 * s**mu / math.gamma(1.0 + mu) - 3.0 * s ** (1.0 + mu) / math.gamma(2.0 + mu)
            assert np.max(np.abs(out.values - exact)) <= 1e-14
        finally:
            fracnum._build.cache_clear()

    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
    def test_kernel_against_mpmath_at_large_lags(self, mu):
        # the generator is scale * ((j+1)^(1+mu) - j^(1+mu)); the ratio to
        # kernel[0] cancels the scale. One ulp of (j+1)^(1+mu) is up to
        # eps (j+1) / (1+mu) of that difference, so the error may grow
        # linearly in the lag, but not like second differences (eps j^2)
        n = 10**5
        kernel = build_operator(K.INT_LEFT, mu, grid01(n)).kernel
        lags = np.unique(np.geomspace(1, n, 60).astype(int)) - 1
        ref = np.array([integral_coefficient_mpmath(int(j), mu) for j in lags])
        rel = np.abs(kernel[lags] / kernel[0] - ref) / ref
        assert np.all(rel <= 2 * np.finfo(float).eps * (lags + 1))


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------

class TestProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_linearity(self, kind):
        g = grid01(48)
        rng = np.random.default_rng(17)
        op = build_operator(kind, 0.45, g)
        for _ in range(5):
            f1 = rng.standard_normal(49)
            f2 = rng.standard_normal(49)
            c1, c2 = rng.uniform(-3, 3, 2)
            lhs = apply(op, SampledFn(g, c1 * f1 + c2 * f2)).values
            rhs = c1 * apply(op, SampledFn(g, f1)).values + c2 * apply(op, SampledFn(g, f2)).values
            mask = np.isfinite(lhs)
            scale = max(1.0, np.max(np.abs(rhs[mask])))
            assert np.max(np.abs(lhs[mask] - rhs[mask])) < 1e-12 * scale

    @pytest.mark.parametrize(
        "left,right",
        [(K.CAPUTO_LEFT, K.CAPUTO_RIGHT), (K.RL_LEFT, K.RL_RIGHT), (K.INT_LEFT, K.INT_RIGHT)],
    )
    def test_mirror_apply_identity(self, left, right):
        # right kind on f(t) equals index-reversed left kind on f(a + b - t)
        g = Grid(-1.0, 2.0, 21)
        rng = np.random.default_rng(23)
        v = rng.standard_normal(22)
        out_r = apply(build_operator(right, 0.6, g), SampledFn(g, v)).values
        out_l = apply(build_operator(left, 0.6, g), SampledFn(g, v[::-1])).values[::-1]
        assert np.array_equal(out_r, out_l, equal_nan=True)

    def test_grid_mismatch_raises(self):
        op = build_operator(K.CAPUTO_LEFT, 0.5, grid01(8))
        f = SampledFn(grid01(16), np.zeros(17))
        with pytest.raises(GridMismatchError):
            apply(op, f)

    @pytest.mark.parametrize("inner,row", [(K.RL_LEFT, 0), (K.RL_RIGHT, 8)])
    @pytest.mark.parametrize("outer", ALL_KINDS)
    def test_sentinel_input_is_rejected(self, inner, row, outer):
        # an operator's NaN sentinel must not spread through a second operator
        g = grid01(8)
        f = apply(build_operator(inner, 0.5, g), SampledFn(g, g.nodes + 1.0))
        assert np.isnan(f.values[row])
        with pytest.raises(DomainError, match=f"NaN at node {row}"):
            apply(build_operator(outer, 0.5, g), f)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_integration_by_parts_defect_shrinks(self, alpha):
        # <f, D_caputo_left g> ~ <g, D_rl_right f> for g vanishing at both ends
        defects = []
        for n in (128, 256, 512):
            g = grid01(n)
            t = g.nodes
            fv = SampledFn(g, 1.0 + t)
            gv = SampledFn(g, t * (1.0 - t))
            cg = apply(build_operator(K.CAPUTO_LEFT, alpha, g), gv)
            rf = apply(build_operator(K.RL_RIGHT, alpha, g), fv)
            lhs = quad_trapezoid(SampledFn(g, fv.values * cg.values))
            rf_repaired = np.array(rf.values)
            rf_repaired[-1] = rf_repaired[-2]  # flagged endpoint, nearest usable value
            rhs = quad_trapezoid(SampledFn(g, gv.values * rf_repaired))
            defects.append(abs(lhs - rhs))
        assert defects[0] > defects[1] > defects[2], defects


# ---------------------------------------------------------------------------
# power rule and quadrature helpers
# ---------------------------------------------------------------------------

class TestPowerRule:
    def test_linear_case(self):
        assert caputo_power_rule(1.0, 0.5, 0.25) == pytest.approx(INV_GAMMA_HALF, rel=1e-12)

    def test_matched_orders(self):
        # beta = alpha = 0.75 leaves Gamma(1.75) with no time dependence
        assert caputo_power_rule(0.75, 0.75, 0.9) == pytest.approx(GAMMA_7_4, rel=1e-12)

    def test_classical_limit(self):
        assert abs(caputo_power_rule(1.0, 0.999, 1.0) - 1.0) < 1e-3

    def test_shifted_base_point(self):
        v = caputo_power_rule(1.0, 0.5, 1.25, a=1.0)
        assert v == pytest.approx(INV_GAMMA_HALF, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            caputo_power_rule(-1.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            caputo_power_rule(1.0, 0.5, -0.1)
        with pytest.raises(DomainError):
            caputo_power_rule(0.25, 0.5, 0.0)  # singular at the base point

    @pytest.mark.parametrize(
        "beta, t, a",
        [(np.nan, 1.0, 0.0), (1.5, np.nan, 0.0), (1.5, 1.0, np.nan)],
        ids=["beta", "t", "a"],
    )
    def test_nan_argument_is_a_domain_error(self, beta, t, a):
        # a comparison with NaN is False, so the checks are written to fail on it
        with pytest.raises(DomainError):
            caputo_power_rule(beta, 0.5, t, a=a)


class TestQuadTrapezoid:
    def test_exact_on_linear(self):
        g = grid01(64)
        assert quad_trapezoid(SampledFn(g, g.nodes)) == pytest.approx(0.5, rel=1e-14)

    def test_replaces_flagged_endpoint(self):
        g = grid01(256)
        out = apply(build_operator(K.RL_LEFT, 0.5, g), SampledFn(g, np.ones(257)))
        val = quad_trapezoid(out)
        # integral of t^(-1/2)/Gamma(1/2) over [0,1]; endpoint repair costs O(h^(1/2))
        assert val == pytest.approx(2.0 / math.sqrt(math.pi), abs=0.1)

    def test_endpoint_repair_error_shrinks(self):
        exact = 2.0 / math.sqrt(math.pi)
        errs = []
        for n in (128, 256, 512):
            g = grid01(n)
            out = apply(build_operator(K.RL_LEFT, 0.5, g), SampledFn(g, np.ones(n + 1)))
            errs.append(abs(quad_trapezoid(out) - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_trailing_nans_are_not_endpoint_sentinels(self):
        # only node n can hold a right-end sentinel; NaN at nodes 1 .. n - 1
        # is interior however many follow it, so no quadrature input holds it
        g = grid01(8)
        v = np.full(9, np.nan)
        v[0] = 0.0
        with pytest.raises(ValueError, match=r"node 1 \(t = 0.125\)"):
            quad_trapezoid(SampledFn(g, v, allow_sentinels=True))

    # numpy warns of the overflow before the DomainError that reports it
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_sum_past_the_float_range_is_a_domain_error(self):
        # every value is finite, but the integral is not representable
        g = Grid(0.0, 1e12, 2)
        with pytest.raises(DomainError, match="past the float range"):
            quad_trapezoid(SampledFn(g, np.full(3, 1e300)))

    def test_interior_nan_rejected(self):
        g = grid01(4)
        v = np.ones(5)
        v[2] = np.nan
        with pytest.raises(ValueError, match=r"node 2 \(t = 0.5\)"):
            quad_trapezoid(SampledFn(g, v, allow_sentinels=True))
