"""One process of the fracham benchmark: set up a workload, run it, report.

run.py starts this script; each run of a workload gets a fresh process so
that peak memory and cache state are the workload's own. The last line
of standard output is one JSON object with the raw measurements.

    python3 perfbench/worker.py --workload NAME --seed N --part J --parts W
        --seconds S --t0 T [--trace] [--ops K]

The W processes of one run take every W-th op of one seeded input
sequence, starting at op J, so together they cover it evenly. ``--t0`` is the CLOCK_MONOTONIC time at which the
caller started the process, so the reported set-up time covers
interpreter start, imports and any warm-up. ``--ops K`` runs exactly K
operations instead of running for S seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.util
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fracham  # noqa: E402
from fracham import cli, fracnum, variational  # noqa: E402
from fracham.fracnum import Grid, OperatorKind, SampledFn  # noqa: E402

from checks import check_converge_csv, check_query, check_solve_csv, trap_l2  # noqa: E402
from tracer import Tracer  # noqa: E402

# Inputs are seeded low-discrepancy sequences (Roberts' R-sequences): every
# op still gets fresh orders, but each run covers the order range evenly,
# so geometric-mean errors repeat from seed to seed.
_R1 = 2.0 / (1.0 + math.sqrt(5.0))
_PLASTIC = 1.324717957244746


def _frac(x: float) -> float:
    return x % 1.0


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Workload:
    """inputs(i) builds op i from the seed, call(x) is the timed op, check(x, out) verifies it."""

    max_ops = math.inf

    def __init__(self, seed: int, part: int, parts: int):
        self.seed = seed
        self.part, self.parts = part, parts

    def index(self, i: int) -> int:
        """Position of this process's op i in the run's input sequence."""
        return i * self.parts + self.part

    def setup(self) -> None:
        """Untimed warm-up before the first op."""

    def describe(self, x: dict) -> dict:
        """The inputs of op x, printable."""
        return x


class RitzSweep(Workload):
    """`fracham solve-example` with fresh (alpha, beta) each op, n cycling 256/512/1024."""

    SIZES = (256, 512, 1024)

    def __init__(self, seed: int, part: int, parts: int):
        super().__init__(seed, part, parts)
        rng = np.random.default_rng(seed)
        self.u, self.v = map(float, rng.random(2))
        self.shift = int(rng.integers(len(self.SIZES)))

    def inputs(self, i: int) -> dict:
        g = self.index(i)
        alpha = 0.05 + 0.9 * _frac(self.u + g / _PLASTIC)
        beta = alpha + (1.0 - alpha) * _frac(self.v + g / _PLASTIC**2)
        return {"alpha": alpha, "beta": beta, "n": self.SIZES[(i + self.shift) % 3]}

    def call(self, x: dict):
        return _run_cli(["solve-example", "--alpha", repr(x["alpha"]),
                         "--beta", repr(x["beta"]), "--n", str(x["n"])])

    def check(self, x: dict, out) -> tuple[list[float], str | None]:
        rc, text, err = out
        if rc != 0:
            return [], f"exit code {rc}: {err.strip()}"
        l2, reason = check_solve_csv(text, x["beta"], x["n"])
        return [l2], reason


class RefineLadder(Workload):
    """One `fracham converge` study over n = 256 .. 4096 per process.

    The orders sit within 0.001 of the README example (0.5, 0.75): a
    study's cost hardly depends on them, but its l2 error changes about
    6-fold per 0.1 of beta, so a full-range draw would make a run of a few
    studies unrepeatable. ritz_sweep covers the full order range.
    """

    N_LIST = [256, 512, 1024, 2048, 4096]
    max_ops = 1

    def __init__(self, seed: int, part: int, parts: int):
        super().__init__(seed, part, parts)
        u, v = map(float, np.random.default_rng([seed, part]).random(2))
        self.alpha = 0.5 + 0.002 * (u - 0.5)
        self.beta = 0.75 + 0.002 * (v - 0.5)

    def inputs(self, i: int) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "n_list": self.N_LIST}

    def call(self, x: dict):
        return _run_cli(["converge", "--alpha", repr(x["alpha"]), "--beta", repr(x["beta"]),
                         "--n-list", ",".join(map(str, x["n_list"]))])

    def check(self, x: dict, out) -> tuple[list[float], str | None]:
        rc, text, err = out
        if rc != 0:
            return [], f"exit code {rc}: {err.strip()}"
        return check_converge_csv(text, x["n_list"])


def two_sided_lagrangian(alpha=0.3, beta=0.7, c=0.5, k=2.0) -> variational.LagrangianSpec:
    """1/2 dl^2 + 1/2 c dr^2 - 1/2 k q^2: depends on both fractional velocities."""
    return variational.LagrangianSpec(
        eval_L=lambda t, q, dl, dr: 0.5 * dl**2 + 0.5 * c * dr**2 - 0.5 * k * q**2,
        dL_dq=lambda t, q, dl, dr: -k * q,
        dL_ddL=lambda t, q, dl, dr: dl,
        dL_ddR=lambda t, q, dl, dr: c * dr,
        alpha=alpha,
        beta=beta,
    )


class TrajectoryQueries(Workload):
    """Variational queries and a six-kind operator table on a warm operator pool.

    Each op takes a seeded random trajectory q and a power t^p on one pool
    entry (grid, density). The pool is cycled through in a fixed order.
    """

    SIZES = (256, 1024, 2048)

    def __init__(self, seed: int, part: int, parts: int):
        super().__init__(seed, part, parts)
        rng = np.random.default_rng(seed)
        self.u = float(rng.random())
        self.shift = int(rng.integers(2 * len(self.SIZES)))
        self.pool = None

    def setup(self) -> None:
        specs = (fracham.example_lagrangian(0.5, 0.75), two_sided_lagrangian())
        self.pool = [(Grid(0.0, 1.0, n), spec) for n in self.SIZES for spec in specs]
        # one untimed query per entry builds every operator the ops use
        for i in range(len(self.pool)):
            self.call(self._query(i, np.random.default_rng(i), 1.5))

    def _query(self, entry: int, rng, p: float) -> dict:
        grid, spec = self.pool[entry]
        t = grid.nodes
        c = rng.uniform(-1.0, 1.0, size=8)
        q = c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3 + sum(
            c[3 + k] * np.sin(k * np.pi * t) for k in range(1, 5))
        return {"n": grid.n, "spec": spec, "p": p,
                "q": SampledFn(grid, q), "f": SampledFn(grid, t**p)}

    def inputs(self, i: int) -> dict:
        g = self.index(i)
        p = 0.75 + 2.25 * _frac(self.u + g * _R1)
        rng = np.random.default_rng([self.seed, g])
        return self._query((i + self.shift) % len(self.pool), rng, p)

    def call(self, x: dict):
        spec, q, f = x["spec"], x["q"], x["f"]
        gap = variational.equivalence_gap(spec, q).gap
        ends = variational.transversality_terms(spec, q)
        action = variational.evaluate_functional(spec, q)
        table = {kind: fracnum.apply(fracnum.build_operator(kind, spec.alpha, f.grid), f)
                 for kind in OperatorKind}
        return gap, ends, action, table[OperatorKind.CAPUTO_LEFT].values

    def check(self, x: dict, out) -> tuple[list[float], str | None]:
        gap, ends, action, d = out
        alpha, p, n = x["spec"].alpha.value, x["p"], x["n"]
        t = x["f"].grid.nodes
        exact = fracnum.caputo_power_rule(p, alpha, 1.0) * t ** (p - alpha)
        err = trap_l2(d - exact, n)
        return [err], check_query(gap, ends, action, err)

    def describe(self, x: dict) -> dict:
        return {"n": x["n"], "alpha": x["spec"].alpha.value, "beta": x["spec"].beta.value,
                "p": x["p"], "q": x["q"].values[:: max(1, x["n"] // 8)].round(6).tolist()}


WORKLOADS = {"ritz_sweep": RitzSweep, "refine_ladder": RefineLadder,
             "trajectory_queries": TrajectoryQueries}


def _blas() -> dict:
    info = {"threads_cap": os.environ.get("OPENBLAS_NUM_THREADS")}
    with contextlib.suppress(TypeError, KeyError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    # the thread count OpenBLAS actually uses, where numpy bundles OpenBLAS
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "kernel_backend": fracham.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one process of the fracham benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--ops", type=int, default=0)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(fracham.__file__).resolve().parent.parent != src:
        print(f"error: imported fracham from {fracham.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed, args.part, args.parts)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.active = True
    wl.setup()
    setup_s = time.monotonic() - args.t0

    latencies, errors, failed = [], [], 0
    nested0 = tracer.applies_in_variational if tracer else 0
    start = time.perf_counter()
    i = 0
    while (i < args.ops) if args.ops else (
            i < wl.max_ops and time.perf_counter() - start < args.seconds):
        x = wl.inputs(i)
        t = time.perf_counter()
        try:
            out = wl.call(x)
            reason = None
        except Exception:
            reason = "raised " + traceback.format_exc().strip().replace("\n", " | ")
        latencies.append(time.perf_counter() - t)
        if tracer:
            tracer.active = False
        if reason is None:
            errs, reason = wl.check(x, out)
            errors += [e for e in errs if math.isfinite(e) and e > 0.0]
        if tracer:
            tracer.active = True
        if reason is not None:
            failed += 1
            print(f"FAIL {args.workload} seed={args.seed} part={args.part} op={i} "
                  f"inputs={wl.describe(x)}: {reason}", file=sys.stderr)
        i += 1

    result = {
        "setup_s": setup_s,
        "attempted": i,
        "failed": failed,
        "latencies_s": latencies,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        tracer.active = False
        result["per_layer"] = tracer.metrics(i, tracer.applies_in_variational - nested0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
