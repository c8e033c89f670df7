import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import fracham.cli
import fracham.solver
from fracham import ConvergenceError, ConvergenceRow, fracnum
from fracham.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_THRESHOLD,
    EXIT_USAGE,
    _table,
    main,
    parse_function,
)
from oracles import csv_rows_per_field


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def summary_fields(text):
    for ln in text.splitlines():
        if ln.startswith("# "):
            return dict(part.split("=") for part in ln[2:].split())
    raise AssertionError(f"no summary comment in:\n{text}")


class TestFunctionGrammar:
    @pytest.mark.parametrize(
        "expr,at,expected",
        [
            ("1", 0.3, 1.0),
            ("t", 0.3, 0.3),
            ("pow(t,2)", 0.5, 0.25),
            ("pow(t,0.75)", 0.5, 0.5**0.75),
            ("sin(t)", 0.5, np.sin(0.5)),
            ("2*cos(t) + 1", 0.0, 3.0),
            ("exp(t) - t", 1.0, np.e - 1.0),
            ("-t + 0.5", 0.25, 0.25),
            ("3*pow(t,2) - 2*t + 4", 2.0, 12.0),
            ("t*2", 0.5, 1.0),
            ("t ", 0.3, 0.3),
            ("2*t\n", 0.5, 1.0),
            (" t", 0.3, 0.3),
            ("- -t", 0.3, 0.3),
            ("+t", 0.3, 0.3),
            ("sin ( t )", 0.5, np.sin(0.5)),
            ("pow ( t , - 2 )", 0.5, 4.0),
            ("pow(t,2e-5)", 0.5, 0.5**2e-5),
            ("1.e1*t", 0.5, 5.0),
            ("2*3*t", 0.5, 3.0),
        ],
    )
    def test_evaluates(self, expr, at, expected):
        fn = parse_function(expr)
        assert fn(np.array([at]))[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("expr", [
        "pow(t,", "t*t", "tan(t)", "2**t", "pow(x,2)", "",
        "2t", "t2", "t_", "sint", "(t)", "-(t)", "*t", "t+", "pow(t,t)", "sin(2*t)", "1e",
    ])
    def test_rejects_out_of_grammar(self, expr):
        from fracham.cli import CliError

        with pytest.raises(CliError) as exc:
            parse_function(expr)
        assert exc.value.code == EXIT_USAGE

    def test_rejection_quotes_the_rest_and_lists_the_forms(self):
        code, out, err = run_cli(
            "deriv", "--kind", "caputo-left", "--alpha", "0.5", "--fn", "2*t + tan(t)",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "at ...'+ tan(t)'" in err
        assert all(form in err for form in ("pow(t,c)", "sin(t)", "cos(t)", "exp(t)"))

    def test_rejection_quotes_at_most_a_short_cut(self):
        from fracham.cli import CliError

        with pytest.raises(CliError) as exc:
            parse_function(" " * 10**5 + "x")
        assert len(str(exc.value)) < 200
        assert "'... (use " in str(exc.value)

    @pytest.mark.parametrize("expr", [
        " " * 10**5 + "x",
        "t" + "+ " * 50000 + "x",
        "pow(t," + " -" * 50000 + "x",
    ], ids=["spaces", "signs", "exponent-signs"])
    def test_rejects_long_input_in_linear_time(self, expr):
        from fracham.cli import CliError

        start = time.perf_counter()
        with pytest.raises(CliError):
            parse_function(expr)
        assert time.perf_counter() - start < 1.0


class TestDeriv:
    def test_linear_function_power_rule_row(self):
        code, out, _ = run_cli(
            "deriv", "--kind", "caputo-left", "--alpha", "0.5",
            "--fn", "pow(t,1)", "--interval", "0:1", "--n", "16",
        )
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["t", "value"]
        assert len(rows) == 17
        t, value = rows[4]
        assert float(t) == 0.25
        assert float(value) == pytest.approx(0.5641895835477563, rel=1e-11)

    def test_caputo_of_constant_is_zero_column(self):
        code, out, _ = run_cli(
            "deriv", "--kind", "caputo-left", "--alpha", "0.5",
            "--fn", "1", "--interval", "0:1", "--n", "8",
        )
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert all(row[1] == "0" for row in rows)

    def test_rl_left_flags_singular_endpoint(self):
        code, out, _ = run_cli(
            "deriv", "--kind", "rl-left", "--alpha", "0.5",
            "--fn", "1", "--interval", "0:1", "--n", "8",
        )
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert rows[0][1] == ""  # empty value cell at t = 0
        assert float(rows[-1][1]) == pytest.approx(0.5641895835477563, rel=1e-11)

    def test_rl_right_flags_singular_endpoint(self):
        code, out, _ = run_cli(
            "deriv", "--kind", "rl-right", "--alpha", "0.5",
            "--fn", "1", "--interval", "0:1", "--n", "8",
        )
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert rows[-1][1] == ""  # empty value cell at t = 1, the last field of the table
        assert float(rows[0][1]) == pytest.approx(0.5641895835477563, rel=1e-11)

    def test_integral_kind(self):
        code, out, _ = run_cli(
            "deriv", "--kind", "int-left", "--alpha", "0.5",
            "--fn", "1", "--interval", "0:1", "--n", "8",
        )
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert float(rows[-1][1]) == pytest.approx(1.1283791670955126, rel=1e-11)

    def test_shifted_interval(self):
        code, out, _ = run_cli(
            "deriv", "--kind", "caputo-left", "--alpha", "0.5",
            "--fn", "t", "--interval", "1:2", "--n", "8",
        )
        assert code == EXIT_OK

    def test_parse_error_exit_code(self):
        code, _, err = run_cli(
            "deriv", "--kind", "caputo-left", "--alpha", "0.5", "--fn", "pow(t,"
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_bad_order_exit_code(self):
        code, _, _ = run_cli(
            "deriv", "--kind", "caputo-left", "--alpha", "1.5", "--fn", "t"
        )
        assert code == EXIT_USAGE

    def test_unknown_kind_exit_code(self):
        code, _, _ = run_cli("deriv", "--kind", "weyl", "--alpha", "0.5", "--fn", "t")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("interval,message", [
        ("1", "interval must look like a:b, got '1'"),
        ("a:b", "interval endpoints must be numbers, got 'a:b'"),
    ], ids=["one-part", "not-numbers"])
    def test_malformed_interval_is_usage_error(self, interval, message):
        code, out, err = run_cli("deriv", "--kind", "caputo-left", "--alpha", "0.5",
                                 "--fn", "t", "--interval", interval)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_non_finite_function_is_domain_error(self):
        code, _, err = run_cli(
            "deriv", "--kind", "caputo-left", "--alpha", "0.5",
            "--fn", "pow(t,-1)", "--interval", "0:1", "--n", "8",
        )
        assert code == EXIT_DOMAIN
        assert "not finite" in err

    def test_overflowing_derivative_is_one_domain_error_line(self):
        # every sample is finite, but the derivative is past the float range
        code, out, err = run_cli(
            "deriv", "--kind", "caputo-left", "--alpha", "0.999", "--fn", "1e307*t",
            "--interval", "0:0.000001", "--n", "600",
        )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("domain error:") and err.count("\n") == 1


class TestSolveExample:
    def test_standard_run(self):
        code, out, _ = run_cli("solve-example", "--alpha", "0.5", "--beta", "0.75", "--n", "512")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["t", "q_numeric", "q_exact", "abs_err"]
        mid = rows[256]
        assert float(mid[0]) == 0.5
        assert mid[2] == "0.594603557501"  # 0.5^0.75 printed at 12 significant digits
        fields = summary_fields(out)
        assert float(fields["l2_err"]) < 1e-2
        assert float(fields["el_max"]) == pytest.approx(float(fields["hamilton_max"]), rel=1e-9)

    def test_alpha_beta_gate(self):
        code, _, err = run_cli("solve-example", "--alpha", "0.5", "--beta", "0.5", "--n", "512")
        assert code == EXIT_USAGE
        assert "alpha < beta" in err

    def test_small_grid_gate(self):
        code, _, _ = run_cli("solve-example", "--alpha", "0.5", "--beta", "0.75", "--n", "4")
        assert code == EXIT_USAGE

    def test_smooth_minimizer_summary(self):
        code, out, _ = run_cli("solve-example", "--alpha", "0.5", "--beta", "1", "--n", "1024")
        assert code == EXIT_OK
        assert float(summary_fields(out)["max_err"]) <= 1e-3

    def test_threshold_failure_exit_code(self):
        code, out, _ = run_cli(
            "solve-example", "--alpha", "0.5", "--beta", "0.75", "--n", "64",
            "--l2-threshold", "1e-12",
        )
        assert code == EXIT_THRESHOLD
        assert summary_fields(out)  # table still emitted

    @pytest.mark.parametrize("threshold", ["nan", "0", "-1"])
    def test_threshold_must_be_positive(self, threshold):
        # no l2_err is below such a threshold, so it is a usage error
        code, out, err = run_cli("solve-example", "--alpha", "0.5", "--beta", "0.75",
                                 "--n", "64", "--l2-threshold", threshold)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --l2-threshold") and err.count("\n") == 1


class TestCheckEquivalence:
    @pytest.mark.parametrize("trial", ["exact", "linear"])
    def test_gap_below_threshold(self, trial):
        code, out, _ = run_cli(
            "check-equivalence", "--alpha", "0.5", "--beta", "0.75",
            "--n", "128", "--trial", trial,
        )
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["trial", "defect", "el_max", "hamilton_max"]
        assert float(rows[0][1]) <= 1e-12

    def test_seeded_random_polynomial(self):
        code, out, _ = run_cli(
            "check-equivalence", "--alpha", "0.5", "--beta", "0.75",
            "--n", "256", "--trial", "random-polynomial", "--seed", "7",
        )
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert float(rows[0][1]) <= 1e-12

    def test_linear_trial_residuals_individually_large(self):
        code, out, _ = run_cli(
            "check-equivalence", "--alpha", "0.5", "--beta", "0.75",
            "--n", "128", "--trial", "linear",
        )
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        assert float(rows[0][2]) > 0.1  # el_max
        assert float(rows[0][3]) > 0.1  # hamilton_max

    def test_parameter_gate(self):
        code, _, _ = run_cli(
            "check-equivalence", "--alpha", "0.9", "--beta", "0.7", "--n", "64"
        )
        assert code == EXIT_USAGE


class TestConverge:
    def test_three_sizes_decreasing(self):
        code, out, _ = run_cli("converge", "--alpha", "0.5", "--beta", "0.75",
                               "--n-list", "64,128,256")
        assert code == EXIT_OK
        header, rows = csv_rows(out)
        assert header == ["n", "max_err", "l2_err", "el_max", "hamilton_max"]
        assert [r[0] for r in rows] == ["64", "128", "256"]
        l2 = [float(r[2]) for r in rows]
        assert l2[0] > l2[1] > l2[2]

    def test_single_entry_rejected(self):
        code, _, _ = run_cli("converge", "--alpha", "0.5", "--beta", "0.75", "--n-list", "64")
        assert code == EXIT_USAGE

    def test_near_boundary_orders(self):
        code, out, _ = run_cli("converge", "--alpha", "0.9", "--beta", "0.95",
                               "--n-list", "64,128")
        assert code == EXIT_OK
        _, rows = csv_rows(out)
        vals = [float(x) for row in rows for x in row]
        assert all(np.isfinite(vals))

    def test_malformed_list(self):
        code, _, _ = run_cli("converge", "--alpha", "0.5", "--beta", "0.75",
                             "--n-list", "64,banana")
        assert code == EXIT_USAGE

    def test_rising_error_exits_1_and_prints_the_rows(self, monkeypatch):
        # the rows computed before the error are the table; the exit code, not
        # stderr, says that l2_err rose
        rows = [ConvergenceRow(64, 1e-3, 2e-4, 3e-3, 3e-3),
                ConvergenceRow(128, 2e-3, 5e-4, 4e-3, 4e-3)]

        def rising(alpha, beta, n_list):
            raise ConvergenceError("l2 error increased", rows)

        monkeypatch.setattr(fracham.cli, "convergence_study", rising)
        code, out, err = run_cli("converge", "--alpha", "0.5", "--beta", "0.75",
                                 "--n-list", "64,128")
        assert (code, err) == (EXIT_THRESHOLD, "")
        assert out.splitlines() == ["n,max_err,l2_err,el_max,hamilton_max",
                                    "64,0.001,0.0002,0.003,0.003",
                                    "128,0.002,0.0005,0.004,0.004"]

    def test_exact_minimizer_at_beta_one(self):
        # l2_err is rounding noise below 1e-12 and may rise; that is not a failure
        code, out, err = run_cli("converge", "--alpha", "0.5", "--beta", "1",
                                 "--n-list", "256,512,1024")
        assert (code, err) == (EXIT_OK, "")
        _, rows = csv_rows(out)
        assert [r[0] for r in rows] == ["256", "512", "1024"]


class TestNumericFailures:
    """A singular system is a numeric domain error: exit 3, not a usage error."""

    @pytest.fixture(autouse=True)
    def singular_systems(self, monkeypatch):
        monkeypatch.setattr(fracham.solver, "_COND_LIMIT", 1.0)

    def test_solve_example(self):
        code, out, err = run_cli("solve-example", "--alpha", "0.5", "--beta", "0.75",
                                 "--n", "64")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "numerically singular" in err

    def test_converge(self):
        code, _, err = run_cli("converge", "--alpha", "0.5", "--beta", "0.75",
                               "--n-list", "64,128")
        assert code == EXIT_DOMAIN
        assert "n = 64" in err


class TestOutOfMemory:
    def test_exits_2_with_one_error_line(self, monkeypatch):
        # a grid too large for memory is a parameter error; the product with
        # T is where an apply allocates
        def no_memory(T, v):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(fracnum._Toeplitz, "__matmul__", no_memory)
        fracnum._build.cache_clear()
        try:
            code, out, err = run_cli("deriv", "--kind", "caputo-left", "--alpha", "0.5",
                                     "--fn", "pow(t,1)", "--n", "64")
        finally:
            fracnum._build.cache_clear()
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 7.28 TiB\n"


class TestUnwritableOut:
    """An --out path that cannot be written is a usage error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["deriv", "--kind", "caputo-left", "--alpha", "0.5", "--fn", "t", "--n", "8"],
        ["solve-example", "--alpha", "0.5", "--beta", "0.75", "--n", "16"],
    ], ids=["deriv", "solve-example"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_exits_2_with_one_error_line(self, tmp_path, argv, target):
        path = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        code, out, err = run_cli(*argv, "--out", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestParameterChecks:
    """The library's checks reach the command line as usage errors."""

    @pytest.mark.parametrize("argv", [
        ["converge", "--alpha", "0.75", "--beta", "0.75", "--n-list", "64,128"],
        ["converge", "--alpha", "0.5", "--beta", "0.75", "--n-list", "128,64"],
        ["converge", "--alpha", "0.5", "--beta", "0.75", "--n-list", "4,64"],
        ["converge", "--alpha", "1.0", "--beta", "1.0", "--n-list", "64,128"],
        ["converge", "--alpha", "0", "--beta", "0.75", "--n-list", "64,128"],
        ["deriv", "--kind", "caputo-left", "--alpha", "0.5", "--fn", "t", "--interval", "1:0"],
        ["deriv", "--kind", "rl-right", "--alpha", "0.5", "--fn", "t", "--interval", "2:2"],
        ["deriv", "--kind", "int-left", "--alpha", "1.0", "--fn", "t"],
        ["deriv", "--kind", "caputo-right", "--alpha", "-0.5", "--fn", "pow(t,-1)"],
        ["deriv", "--kind", "caputo-left", "--alpha", "0.5", "--fn", "1", "--interval", "0:inf"],
        ["deriv", "--kind", "caputo-left", "--alpha", "0.5", "--fn", "1",
         "--interval=-1e308:1e308"],
        ["deriv", "--kind", "caputo-left", "--alpha", "0.5", "--fn", "t",
         "--interval", "1e16:1.0000000000000002e16", "--n", "4"],
    ], ids=["converge-alpha-ge-beta", "converge-decreasing", "converge-entry-below-8",
            "converge-alpha-one", "converge-alpha-zero", "deriv-reversed-interval",
            "deriv-empty-interval", "deriv-order-one", "deriv-negative-order",
            "deriv-infinite-interval", "deriv-overflowing-interval",
            "deriv-interval-too-narrow-for-distinct-nodes"])
    def test_exits_2_with_no_output(self, argv):
        code, out, err = run_cli(*argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")


class TestOutputContract:
    def test_byte_identical_reruns(self):
        argv = ["check-equivalence", "--alpha", "0.5", "--beta", "0.75",
                "--n", "128", "--trial", "random-polynomial", "--seed", "3"]
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second
        argv = ["deriv", "--kind", "rl-right", "--alpha", "0.25", "--fn",
                "2*sin(t) - 1", "--interval", "0:1", "--n", "32"]
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second

    def test_out_flag_matches_stdout(self, tmp_path):
        path = tmp_path / "table.csv"
        argv = ["deriv", "--kind", "caputo-left", "--alpha", "0.5",
                "--fn", "pow(t,1)", "--n", "16"]
        _, stdout_text, _ = run_cli(*argv)
        code, silent, _ = run_cli(*argv, "--out", str(path))
        assert code == EXIT_OK
        assert silent == ""
        assert path.read_text() == stdout_text

    def test_missing_subcommand_is_usage_error(self):
        code, _, _ = run_cli()
        assert code == EXIT_USAGE


class TestTableWriter:
    # the non-finite values, signed zeros, ints (converge's n column), the
    # extremes of the float range, both sides of where %g switches to an
    # exponent (below 1e-4, from 1e12) and rounding at the 12th digit
    FIELDS = (
        math.nan, math.inf, -math.inf, -0.0, 0.0, 0, 4096, 5e-324, -5e-324,
        1.7976931348623157e308, 1e-4, 1e-5, 999999999999.0, 1e12, 1e16,
        0.1 + 0.2, 0.49999999999949996, -2.5,
    )

    @pytest.mark.parametrize("width", [2, 4, 5])
    def test_matches_the_per_field_oracle(self, width):
        header = ",".join(f"c{i}" for i in range(width))
        k = len(self.FIELDS)
        # every value in every column, then rows all non-finite and all finite
        rows = [tuple(self.FIELDS[(i + j) % k] for j in range(width)) for i in range(k)]
        rows += [(math.nan,) * width, (-math.inf,) * width, (0.1,) * width]
        assert _table(header, rows) == [header, *csv_rows_per_field(rows)]

    @pytest.mark.parametrize("row", [(1.0,), (1.0, 2.0, 3.0)])
    def test_row_of_another_width_raises(self, row):
        with pytest.raises(TypeError):
            _table("a,b", [(1.0, 2.0), row])
