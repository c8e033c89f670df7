"""Command line front end.

Four subcommands emit plot-ready CSV (12 significant digits, comma
separated, an empty field for a non-finite value, comments prefixed
with '#'). Table rows go through one writer, ``_table``, which formats
each row with a single ``%``; the ``#`` summary line and
check-equivalence's one row use the same ``%.12g`` through ``_fmt``:

    deriv              tabulate one fractional operator applied to a function
    solve-example      run the model-problem solver and report errors
    check-equivalence  compare the stationarity and canonical residual routes
    converge           refinement study across a list of grid sizes

The --fn grammar of deriv is a signed sum of terms, each a product of
numbers and at most one of t, pow(t,c), sin(t), cos(t) and exp(t);
whitespace is allowed between tokens.

Exit codes: 0 success / thresholds met, 1 threshold failure, 2 usage or
parameter error (including a grid too large for memory, an --out path
that cannot be written or an --l2-threshold that is not positive), 3
numeric domain error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import astuple
from typing import Callable

import numpy as np

from .fracnum import (
    DomainError,
    Grid,
    OperatorKind,
    SampledFn,
    apply,
    build_operator,
)
from .solver import (
    ConvergenceError,
    ExampleProblem,
    SingularSystemError,
    convergence_study,
    example_lagrangian,
    solve,
)
from .variational import equivalence_gap

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_EQUIV_GAP_LIMIT = 1e-10


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return "%.12g" % x


def _table(header: str, rows) -> list[str]:
    """CSV lines: the header, then each row of numbers at 12 significant
    digits, a non-finite one printed empty. Each row is a tuple as wide as
    the header (a row of another width raises TypeError), formatted by one
    ``%`` with a format of one ``%.12g`` per column: no Python call per
    field. ``%g`` spells a non-finite value ``nan``, ``inf`` or ``-inf``,
    the only fields that can hold an ``n``, so only a line that holds one
    is split and those fields are blanked."""
    fmt = ",".join(["%.12g"] * (header.count(",") + 1))
    lines = [s if "n" not in s else ",".join("" if "n" in f else f for f in s.split(","))
             for s in map(fmt.__mod__, rows)]
    return [header, *lines]


# ---------------------------------------------------------------------------
# function grammar (see the module docstring)
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# one operator (a run of signs that starts a term, or a '*' that extends it)
# and one factor. Whitespace is matched only before the first token and after
# each token, so matching takes time linear in the length of the input
_FACTOR = re.compile(
    rf"\s*(?P<op>\*\s*|(?:[+-]\s*)*)(?:(?P<num>{_NUM})|(?P<t>t(?!\w))"
    rf"|(?P<fn>sin|cos|exp)\s*\(\s*t\s*\)"
    rf"|pow\s*\(\s*t\s*,\s*(?P<signs>(?:[+-]\s*)*)(?P<c>{_NUM})\s*\))\s*"
)
_FORMS = "numbers, t, pow(t,c), sin(t), cos(t) and exp(t), joined by +, - and *"


def _sign(run: str) -> float:
    return -1.0 if run.count("-") % 2 else 1.0


def parse_function(text: str) -> Callable[[np.ndarray], np.ndarray]:
    terms = []  # [coefficient, basis], basis None for a constant term
    pos = 0
    while pos < len(text) or not terms:
        m = _FACTOR.match(text, pos)
        op = m["op"] if m else ""
        # a '*' needs a term to extend; every term after the first needs a sign
        if m is None or (not op if terms else op.startswith("*")):
            raise CliError(EXIT_USAGE, f"cannot parse function at ...{text[pos:pos + 40]!r}"
                           f"{'...' * (len(text) > pos + 40)} (use {_FORMS})")
        pos = m.end()
        if not op.startswith("*"):
            terms.append([_sign(op), None])
        term = terms[-1]
        if m["num"]:
            term[0] *= float(m["num"])
            continue
        if term[1] is not None:
            raise CliError(EXIT_USAGE, "products of two non-constant factors are not supported")
        if m["t"]:
            term[1] = lambda t: t
        elif m["fn"]:
            term[1] = getattr(np, m["fn"])
        else:
            term[1] = lambda t, c=_sign(m["signs"]) * float(m["c"]): t**c

    def evaluate(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for coef, basis in terms:
            out = out + coef * (np.ones_like(t) if basis is None else basis(t))
        return out

    return evaluate


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(EXIT_USAGE, f"interval must look like a:b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError(EXIT_USAGE, f"interval endpoints must be numbers, got {text!r}")
    return a, b


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(EXIT_USAGE, f"cannot write {out_path}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_deriv(args) -> tuple[list[str], int]:
    kind = OperatorKind(args.kind)
    a, b = _parse_interval(args.interval)
    fn = parse_function(args.fn)

    grid = Grid(a, b, args.n)
    # building first rejects a bad order before the function is sampled
    op = build_operator(kind, args.alpha, grid)
    with np.errstate(all="ignore"):
        values = fn(grid.nodes)
    try:
        f = SampledFn(grid, values)
    except ValueError as exc:  # a value that is not finite: outside the function's domain
        raise CliError(EXIT_DOMAIN, f"function {exc}")
    result = apply(op, f)
    rows = zip(grid.nodes.tolist(), result.values.tolist())
    return _table("t,value", rows), EXIT_OK


def _example_problem(args) -> ExampleProblem:
    if args.n < 8:
        raise CliError(EXIT_USAGE, f"need n >= 8, got {args.n}")
    return ExampleProblem(args.alpha, args.beta, Grid(0.0, 1.0, args.n))


def _run_solve_example(args) -> tuple[list[str], int]:
    problem = _example_problem(args)
    if not args.l2_threshold > 0:  # rejects NaN too: no l2_err could fall below it
        raise CliError(EXIT_USAGE, f"--l2-threshold must be positive, got {args.l2_threshold:g}")
    report = solve(problem)
    q, qe = report.q_numeric.values, report.q_exact.values
    columns = (problem.grid.nodes, q, qe, np.abs(q - qe))
    lines = _table("t,q_numeric,q_exact,abs_err", zip(*(c.tolist() for c in columns)))
    lines.append(
        f"# max_err={_fmt(report.max_err)} l2_err={_fmt(report.l2_err)} "
        f"el_max={_fmt(report.el_max)} hamilton_max={_fmt(report.hamilton_max)}"
    )
    return lines, EXIT_OK if report.l2_err < args.l2_threshold else EXIT_THRESHOLD


def _trial_values(args, grid: Grid) -> np.ndarray:
    t = grid.nodes
    if args.trial == "exact":
        return t**args.beta
    if args.trial == "linear":
        return t.copy()
    rng = np.random.default_rng(args.seed)
    coeffs = rng.uniform(-1.0, 1.0, size=4)
    return coeffs[0] + coeffs[1] * t + coeffs[2] * t**2 + coeffs[3] * t**3


def _run_check_equivalence(args) -> tuple[list[str], int]:
    problem = _example_problem(args)
    trial = SampledFn(problem.grid, _trial_values(args, problem.grid))
    rep = equivalence_gap(example_lagrangian(args.alpha, args.beta), trial)
    lines = [
        "trial,defect,el_max,hamilton_max",
        f"{args.trial},{_fmt(rep.gap)},{_fmt(rep.el_max)},{_fmt(rep.hamilton_max)}",
    ]
    return lines, EXIT_OK if rep.gap < _EQUIV_GAP_LIMIT else EXIT_THRESHOLD


def _run_converge(args) -> tuple[list[str], int]:
    try:
        n_list = [int(s) for s in args.n_list.split(",") if s.strip()]
    except ValueError:
        raise CliError(EXIT_USAGE, f"--n-list must be comma-separated integers, got {args.n_list!r}")
    if len(n_list) < 2:
        raise CliError(EXIT_USAGE, "--n-list needs at least 2 entries")

    try:
        rows, code = convergence_study(args.alpha, args.beta, n_list), EXIT_OK
    except ConvergenceError as exc:
        rows, code = exc.rows, EXIT_THRESHOLD
    return _table("n,max_err,l2_err,el_max,hamilton_max", map(astuple, rows)), code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracham",
        description="Fractional operator tables, the model variational solver, "
        "and equivalence/refinement checks, with CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of the model problem, shared by the three commands that solve it
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--alpha", type=float, required=True, help="order in (0, 1)")
    model.add_argument("--beta", type=float, required=True, help="minimizer t^beta, alpha < beta <= 1")
    model.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("deriv", help="tabulate one operator applied to a function")
    p.add_argument("--kind", required=True, choices=[k.value for k in OperatorKind],
                   help="operator kind")
    p.add_argument("--alpha", type=float, required=True,
                   help="operator order in (0, 1); the integral order for int-* kinds")
    p.add_argument("--fn", required=True,
                   help='function of t, e.g. "pow(t,1)", "2*sin(t) - 1"')
    p.add_argument("--interval", default="0:1", help="a:b (default 0:1)")
    p.add_argument("--n", type=int, default=64, help="number of subintervals")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_run_deriv)

    p = sub.add_parser("solve-example", parents=[model], help="solve the model problem")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--l2-threshold", type=float, default=1e-2,
                   help="exit 0 when l2_err falls below this (default 1e-2); must be > 0")
    p.set_defaults(func=_run_solve_example)

    p = sub.add_parser("check-equivalence", parents=[model],
                       help="compare stationarity and canonical residuals on a trial")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--trial", default="exact",
                   choices=["exact", "linear", "random-polynomial"])
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random-polynomial trial")
    p.set_defaults(func=_run_check_equivalence)

    p = sub.add_parser("converge", parents=[model], help="refinement study across grid sizes")
    p.add_argument("--n-list", required=True, help="comma-separated grid sizes, e.g. 64,128,256")
    p.set_defaults(func=_run_converge)

    return parser


# built once: parsing does not change it, and building it costs about 1 ms
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        lines, code = args.func(args)
        _emit(lines, args.out)
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DomainError, SingularSystemError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # operators take O(n) memory, so this means n is far too large
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
