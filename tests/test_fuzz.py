"""Fuzz tests of the two surfaces that take outside input: the CLI's argv
and the composition of operators.

The CLI contract: the exit code is 0, 1, 2 or 3. Codes 2 and 3 come with
exactly one ``error:`` (or ``domain error:``) line on stderr and no
traceback; codes 0 and 1 print CSV whose rows, once ``#`` lines are
skipped, all have the header's width. The library contract: any operator
applied to any operator's output, and the trapezoid quadrature of either,
gives finite values at every interior node or raises a ValueError (the
type that DomainError and GridMismatchError refine).
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracham import Grid, OperatorKind, SampledFn, apply, build_operator, quad_trapezoid
from fracham.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=150, database=None)

# orders across the open interval (0, 1) from 1e-300 to 1 - 1e-16, and values
# outside it; grid sizes at the direct/FFT switch, and sizes too small or not numbers
orders = st.one_of(
    st.floats(1e-300, 1.0 - 1e-16).map(repr),
    st.sampled_from(["1e-300", "0.5", "0.9999999999999999", "0", "1", "1.5", "-0.25", "nan",
                     "inf", "x"]),
)
sizes = st.one_of(st.sampled_from(["8", "512", "513"]),
                  st.sampled_from(["2", "0", "-3", "7", "abc"]))
intervals = st.sampled_from(["0:1", "1:2", "-5:5", "1:0", "1:1", "0:inf", "0:1e300",
                             "-1e308:1e308", "1e16:1.0000000000000002e16", "1:1.0000000000000004",
                             "0:1:2", "a:b"])
functions = st.one_of(
    st.sampled_from(["1", "t", "pow(t,0.5)", "pow(t,-1)", "pow(t,-0.5)*3 + 1", "2*sin(t) - 1",
                     "exp(t) - t", "cos(t)*1e308*10", "pow(t,400)", "t*t", "tan(t)", "", "*t",
                     "pow(t,)", "- -t", "1e999"]),
    st.text(alphabet="t0123456789.+-*() ,eEpowsinxc", max_size=24),
)


@st.composite
def model_orders(draw):
    """--alpha and --beta: half the draws a valid pair alpha < beta <= 1."""
    if draw(st.booleans()):
        return [draw(orders), draw(orders)]
    alpha = draw(st.floats(1e-300, 1.0 - 1e-16))
    return [repr(alpha), repr(draw(st.floats(alpha, 1.0, exclude_min=True)))]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["deriv", "solve-example", "check-equivalence", "converge"]))
    if command == "deriv":
        kind = draw(st.sampled_from([k.value for k in OperatorKind] + ["weyl"]))
        return [command, "--kind", kind, "--alpha", draw(orders), "--fn", draw(functions),
                "--interval", draw(intervals), "--n", draw(sizes)]
    alpha, beta = draw(model_orders())
    argv = [command, "--alpha", alpha, "--beta", beta]
    if command == "converge":
        n_list = draw(st.one_of(st.lists(sizes, max_size=3),
                                st.sampled_from(["8,64", "64,512,513", "513,512"])))
        return argv + ["--n-list", n_list if isinstance(n_list, str) else ",".join(n_list)]
    argv += ["--n", draw(sizes)]
    if command == "solve-example":
        return argv + ["--l2-threshold", draw(st.sampled_from(["1e-2", "1e-9", "1", "0", "nan"]))]
    trial = draw(st.sampled_from(["exact", "linear", "random-polynomial", "cubic"]))
    return argv + ["--trial", trial, "--seed", draw(st.sampled_from(["0", "7", "-1", "s"]))]


@FUZZ
@given(argv=argvs())
def test_cli_exit_codes_errors_and_csv_width(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert [ln for ln in err.splitlines() if "error:" in ln] == [err.splitlines()[-1]]
        return
    assert "error:" not in err
    lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("#")]
    width = lines[0].count(",")
    assert len(lines) > 1 and all(ln.count(",") == width for ln in lines)


@st.composite
def grids(draw):
    a = draw(st.sampled_from([0.0, -3.0, 1e6]))
    width = draw(st.sampled_from([1.0, 1e-3, 20.0, 1e12]))
    return Grid(a, a + width, draw(st.sampled_from([2, 3, 8, 64, 513])))


fuzz_orders = st.one_of(st.floats(1e-300, 1.0 - 1e-16), st.sampled_from([1e-300, 0.5, 0.999999]))


# values up to 1e308 overflow on the way, and numpy warns where they do. The
# contract is about the outcome, which the asserts check: a non-finite result
# that no ValueError reports fails, whatever numpy said before it
@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
@FUZZ
@given(grid=grids(), kinds=st.lists(st.sampled_from(list(OperatorKind)), min_size=2, max_size=2),
       order_pair=st.tuples(fuzz_orders, fuzz_orders), scale=st.integers(-308, 307),
       seed=st.integers(0, 2**32 - 1))
def test_composed_operators_give_finite_interiors_or_a_value_error(grid, kinds, order_pair,
                                                                    scale, seed):
    rng = np.random.default_rng(seed)
    f = SampledFn(grid, 10.0**scale * rng.uniform(-1.0, 1.0, grid.n + 1))
    for kind, order in zip(kinds, order_pair):
        try:
            f = apply(build_operator(kind, order, grid), f)
            total = quad_trapezoid(f)
        except ValueError:
            return
        assert np.isfinite(f.values[1:-1]).all()
        assert np.isfinite(total)
