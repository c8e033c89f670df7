"""Property tests of the bit-exact structural laws over random (n, order, [a, b])."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracham import Grid, OperatorKind, SampledFn, apply, build_operator

K = OperatorKind

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200, database=None)

# the whole open interval, plus draws within 1e-3 of either end
orders = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e-3, exclude_min=True),
    st.floats(1.0 - 1e-3, 1.0, exclude_max=True),
)


@st.composite
def grids(draw):
    a = draw(st.floats(-10.0, 10.0))
    width = draw(st.floats(1e-3, 20.0))
    return Grid(a, a + width, draw(st.integers(2, 300)))


seeds = st.integers(0, 2**32 - 1)


def samples(grid, seed):
    return np.random.default_rng(seed).standard_normal(grid.n + 1)


@PROPERTY
@given(grid=grids(), order=orders, c=st.floats(-1e3, 1e3))
def test_caputo_annihilates_constants(grid, order, c):
    f = SampledFn(grid, np.full(grid.n + 1, c))
    for kind in (K.CAPUTO_LEFT, K.CAPUTO_RIGHT):
        assert np.array_equal(apply(build_operator(kind, order, grid), f).values,
                              np.zeros(grid.n + 1))


@PROPERTY
@given(grid=grids(), order=orders, seed=seeds)
def test_right_kinds_mirror_left_kinds(grid, order, seed):
    v = samples(grid, seed)
    for left, right in ((K.CAPUTO_LEFT, K.CAPUTO_RIGHT), (K.RL_LEFT, K.RL_RIGHT),
                        (K.INT_LEFT, K.INT_RIGHT)):
        out_r = apply(build_operator(right, order, grid), SampledFn(grid, v)).values
        out_l = apply(build_operator(left, order, grid), SampledFn(grid, v[::-1])).values
        assert np.array_equal(out_r, out_l[::-1], equal_nan=True)


@PROPERTY
@given(grid=grids(), order=orders, seed=seeds)
def test_rl_equals_caputo_when_f_vanishes_at_the_anchor(grid, order, seed):
    v = samples(grid, seed)
    v[0] = 0.0
    f = SampledFn(grid, v)
    rl = apply(build_operator(K.RL_LEFT, order, grid), f).values
    ca = apply(build_operator(K.CAPUTO_LEFT, order, grid), f).values
    assert np.array_equal(rl[1:], ca[1:])

    f = SampledFn(grid, v[::-1])
    rl = apply(build_operator(K.RL_RIGHT, order, grid), f).values
    ca = apply(build_operator(K.CAPUTO_RIGHT, order, grid), f).values
    assert np.array_equal(rl[:-1], ca[:-1])


# the draws above stay at n <= 300, where apply convolves directly;
# above n = 512 it convolves by FFT, and the laws must hold there too
fft_path = pytest.mark.parametrize(
    "grid,order", [(Grid(-1.5, 2.0, n), order) for n in (513, 2048) for order in (0.01, 0.5, 0.999)]
)


@fft_path
def test_caputo_annihilates_constants_on_the_fft_path(grid, order):
    test_caputo_annihilates_constants.hypothesis.inner_test(grid, order, -3.7)


@fft_path
def test_right_kinds_mirror_left_kinds_on_the_fft_path(grid, order):
    test_right_kinds_mirror_left_kinds.hypothesis.inner_test(grid, order, 19)


@fft_path
def test_rl_equals_caputo_when_f_vanishes_at_the_anchor_on_the_fft_path(grid, order):
    test_rl_equals_caputo_when_f_vanishes_at_the_anchor.hypothesis.inner_test(grid, order, 19)
