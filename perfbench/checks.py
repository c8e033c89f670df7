"""Correctness checks on the outputs the benchmark's operations produce.

Each check returns None when the output is correct and a one-line reason
when it is not. The checks re-derive what they can from the raw output
(the CSV text, the closed forms) instead of trusting the program's own
summary lines, and ``self_test`` proves at a tiny size that a corrupted
output is caught.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import numpy as np

from fracham import Grid, SampledFn, cli, equivalence_gap, example_lagrangian

GAP_LIMIT = 1e-10          # ROADMAP invariant: stationarity/canonical gap
_CSV_REL = 1e-10           # the CLI prints 12 significant digits
_L2_REL = 1e-6


def trap_l2(err: np.ndarray, n: int) -> float:
    """Trapezoid-weighted l2 norm of nodal values on a uniform grid of [0, 1]."""
    w = np.full(n + 1, 1.0 / n)
    w[0] = w[-1] = 0.5 / n
    return float(np.sqrt(np.sum(w * np.asarray(err, dtype=float) ** 2)))


def _comment_fields(line: str) -> dict[str, float]:
    return {k: float(v) for k, v in (kv.split("=") for kv in line[1:].split())}


def check_solve_csv(text: str, beta: float, n: int) -> tuple[float, str | None]:
    """Check `fracham solve-example` output; returns (reported l2_err, reason)."""
    lines = text.splitlines()
    if not lines or lines[0] != "t,q_numeric,q_exact,abs_err":
        return math.nan, "bad CSV header"
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    notes = [ln for ln in lines[1:] if ln.startswith("#")]
    if len(rows) != n + 1:
        return math.nan, f"expected {n + 1} CSV rows, got {len(rows)}"
    if len(notes) != 1:
        return math.nan, "expected one '#' summary line"
    try:
        table = np.array([[float(x) for x in r.split(",")] for r in rows])
        l2_err = _comment_fields(notes[0])["l2_err"]
    except (ValueError, KeyError) as exc:
        return math.nan, f"unparseable output: {exc}"
    if table.shape != (n + 1, 4) or not np.isfinite(table).all():
        return l2_err, "CSV rows are not 4 finite numbers"
    t, qn, qe, ae = table.T
    if qn[0] != 0.0 or qn[-1] != 1.0:
        return l2_err, f"boundary values q(0)={qn[0]!r}, q(1)={qn[-1]!r} are not exactly 0 and 1"
    nodes = np.arange(n + 1) / n
    if np.max(np.abs(t - nodes)) > _CSV_REL:
        return l2_err, "t column is not the uniform grid"
    if np.max(np.abs(qe - nodes**beta)) > _CSV_REL:
        return l2_err, "q_exact column is not t^beta"
    if np.max(np.abs(ae - np.abs(qn - qe))) > _CSV_REL:
        return l2_err, "abs_err column disagrees with |q_numeric - q_exact|"
    recomputed = trap_l2(ae, n)
    if abs(recomputed - l2_err) > _L2_REL * l2_err:
        return l2_err, f"reported l2_err {l2_err!r} but the rows give {recomputed!r}"
    return l2_err, None


def check_converge_csv(text: str, n_list: list[int]) -> tuple[list[float], str | None]:
    """Check `fracham converge` output; returns (l2_err per level, reason)."""
    lines = text.splitlines()
    if not lines or lines[0] != "n,max_err,l2_err,el_max,hamilton_max":
        return [], "bad CSV header"
    try:
        table = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        return [], f"unparseable output: {exc}"
    if [int(r[0]) for r in table] != n_list or any(len(r) != 5 for r in table):
        return [], f"expected one 5-column row per level {n_list}"
    l2 = [r[2] for r in table]
    for n, _, _, el_max, ham_max in table:
        # |max|el| - max|r_q|| <= gap, plus the rounding of the 12-digit format
        if not abs(el_max - ham_max) <= GAP_LIMIT + _CSV_REL * abs(el_max):
            return l2, f"el_max {el_max!r} != hamilton_max {ham_max!r} at n = {int(n)}"
    return l2, None


def check_query(gap: float, transversality, functional: float,
                deriv_err: float) -> str | None:
    """Check one trajectory query: the equivalence gap and finite outputs."""
    if not gap <= GAP_LIMIT:
        return f"equivalence gap {gap!r} exceeds {GAP_LIMIT:g}"
    if not all(math.isfinite(x) for x in (*transversality, functional)):
        return "non-finite transversality terms or functional"
    if not math.isfinite(deriv_err):
        return f"CAPUTO_LEFT error {deriv_err!r} is not finite"
    return None


def self_test() -> list[str]:
    """Feed corrupted outputs to the checks at tiny size; return what slipped through."""
    problems = []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["solve-example", "--alpha", "0.5", "--beta", "0.75", "--n", "16"])
    good = buf.getvalue()
    if rc != 0 or check_solve_csv(good, 0.75, 16)[1] is not None:
        problems.append("a correct solve-example CSV was rejected")
    rows = good.splitlines()
    corrupt = {
        "dropped row": "\n".join(rows[:5] + rows[6:]),
        "moved boundary": good.replace("\n1,1,1,0\n", "\n1,1.000001,1,1e-06\n", 1),
        "perturbed value": good.replace(rows[8], rows[8].replace(",", ",9", 1), 1),
    }
    for what, text in corrupt.items():
        if text == good or check_solve_csv(text, 0.75, 16)[1] is None:
            problems.append(f"solve-example CSV with a {what} passed")

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["converge", "--alpha", "0.5", "--beta", "0.75", "--n-list", "8,16"])
    good = buf.getvalue()
    if rc != 0 or check_converge_csv(good, [8, 16])[1] is not None:
        problems.append("a correct converge CSV was rejected")
    last = good.splitlines()[-1].split(",")
    wrong = ",".join(last[:4] + [repr(float(last[3]) + 1e-6)])
    if check_converge_csv(good.replace(",".join(last), wrong), [8, 16])[1] is None:
        problems.append("converge CSV with hamilton_max != el_max passed")

    spec = example_lagrangian(0.5, 0.75)
    grid = Grid(0.0, 1.0, 16)
    rep = equivalence_gap(spec, SampledFn(grid, np.sin(3.0 * grid.nodes)))
    if check_query(rep.gap, (0.0, 0.0), 0.0, 0.1) is not None:
        problems.append("a correct equivalence gap was rejected")
    bad = dataclasses.replace(rep, gap=rep.gap + 1e-9)
    if check_query(bad.gap, (0.0, 0.0), 0.0, 0.1) is None:
        problems.append("a perturbed equivalence gap passed")
    return problems
