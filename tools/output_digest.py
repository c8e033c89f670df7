"""Print one SHA-256 digest per group of fracham outputs.

    python tools/output_digest.py [SRC]    (default: src)

imports fracham from the source tree SRC and hashes the exact bytes of
what it computes on a fixed set of inputs, one digest per group:

* ``apply``: the six operator kinds on three functions;
* ``toeplitz``: T @ v, T.transpose(v) and T.inverse().col for the
  CAPUTO_LEFT and INT_LEFT kernels;
* ``solve``: every field of ``solve()``'s report, or the error it raises;
* ``variational``: the action, both residuals and their norms, the
  transversality terms, the momenta, the energy and the canonical defects,
  for the model density and a two-sided one, on trajectories scaled from
  1e-150 to 1e150;
* ``cli``: stdout, stderr and exit code of the four subcommands.

Each line gives the group, the number of outputs hashed and the digest.
Run it on two trees, say the working tree and a ``git archive`` copy of
a parent commit, and compare the lines: a change that claims to keep
every output bit for bit must print the same digests. Digests compare
only on one machine, and with one BLAS thread count: the products go
through BLAS and the FFT, whose rounding depends on the library build and
on the CPU. It reports only; it gates nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

NS = (8, 63, 64, 255, 256, 511, 512, 513, 1000, 1024, 2048, 4097, 16384, 65536)
ORDERS = (0.01, 0.3, 0.5, 0.79, 0.81, 0.999)
CLI_RUNS = (
    ["deriv", "--kind", "rl-left", "--alpha", "0.3", "--fn", "2*sin(t) - pow(t,-0.5)*3 + 1",
     "--interval", "1:2", "--n", "16"],
    ["deriv", "--kind", "int-right", "--alpha", "0.7", "--fn", "exp(t)", "--n", "600"],
    ["deriv", "--kind", "caputo-left", "--alpha", "0.5", "--fn", "tan(t)"],
    ["solve-example", "--alpha", "0.5", "--beta", "0.75", "--n", "256"],
    ["solve-example", "--alpha", "0.9", "--beta", "0.95", "--n", "1024", "--l2-threshold", "1e-9"],
    ["check-equivalence", "--alpha", "0.3", "--beta", "0.6", "--n", "512",
     "--trial", "random-polynomial", "--seed", "7"],
    ["check-equivalence", "--alpha", "0.5", "--beta", "0.75", "--n", "64"],
    ["converge", "--alpha", "0.5", "--beta", "0.75", "--n-list", "32,64,1024,4096"],
    ["converge", "--alpha", "0.5", "--beta", "1", "--n-list", "256,512,1024"],
)


def canonical(x) -> bytes:
    """Bytes that identify x exactly: arrays and floats bit for bit."""
    if isinstance(x, np.ndarray):
        return f"{x.dtype.str}{x.shape}".encode() + np.ascontiguousarray(x).tobytes()
    if isinstance(x, (float, np.floating)):
        return float(x).hex().encode()
    if isinstance(x, (tuple, list)):
        return b"(" + b",".join(map(canonical, x)) + b")"
    if isinstance(x, BaseException):
        return f"{type(x).__name__}: {x}".encode()
    if dataclasses.is_dataclass(x):
        return canonical([getattr(x, f.name) for f in dataclasses.fields(x)])
    return repr(x).encode()


class Group:
    def __init__(self, name: str):
        self.name, self.count, self.sha = name, 0, hashlib.sha256()

    def add(self, compute) -> None:
        """Hash compute()'s result, or the exception it raises."""
        try:
            out = compute()
        except Exception as exc:  # an error is an output too
            out = exc
        self.sha.update(canonical(out) + b"\n")
        self.count += 1

    def line(self) -> str:
        return f"{self.name:12s} {self.count:6d}  {self.sha.hexdigest()}"


def two_sided(fh, c: float = 2.0, k: float = 3.0):
    """L = dl^2 / 2 + c dr^2 / 2 - k q^2 / 2: all three terms live."""
    return fh.LagrangianSpec(
        eval_L=lambda t, q, dl, dr: 0.5 * dl**2 + 0.5 * c * dr**2 - 0.5 * k * q**2,
        dL_dq=lambda t, q, dl, dr: -k * q,
        dL_ddL=lambda t, q, dl, dr: dl,
        dL_ddR=lambda t, q, dl, dr: c * dr,
        alpha=0.4, beta=0.7,
    )


def digest(fh) -> list[Group]:
    K = fh.OperatorKind
    functions = (lambda t: np.sin(3.0 * t) + 1.0, lambda t: t**0.75, lambda t: np.exp(-t))

    apply = Group("apply")
    for n in NS:
        grid = fh.Grid(0.0, 1.0, n)
        samples = [fh.SampledFn.from_callable(grid, f) for f in functions]
        for kind in K:
            for order in ORDERS:
                op = fh.build_operator(kind, order, grid)
                for f in samples:
                    apply.add(lambda: fh.apply(op, f))

    toeplitz = Group("toeplitz")
    for n in NS:
        v = np.random.default_rng(n).standard_normal(n)
        for kind in (K.CAPUTO_LEFT, K.INT_LEFT):
            for order in ORDERS:
                T = fh.build_operator(kind, order, fh.Grid(0.0, 1.0, n))._toeplitz
                toeplitz.add(lambda: T @ v)
                toeplitz.add(lambda: T.transpose(v))
                toeplitz.add(lambda: T.inverse().col)

    solve = Group("solve")
    for n in NS:
        for order in ORDERS:
            problem = fh.ExampleProblem(order, (1.0 + order) / 2.0, fh.Grid(0.0, 1.0, n))
            solve.add(lambda: fh.solve(problem))

    variational = Group("variational")
    specs = (fh.example_lagrangian(0.5, 0.75), two_sided(fh))
    for n in (8, 64, 512, 513, 4096):
        grid = fh.Grid(0.0, 1.0, n)
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            q = fh.SampledFn(grid, scale * (np.sin(3.0 * grid.nodes) + grid.nodes**0.75))
            for spec in specs:
                variational.add(lambda: fh.evaluate_functional(spec, q))
                variational.add(lambda: fh.el_residual(spec, q))
                variational.add(lambda: fh.transversality_terms(spec, q))
                variational.add(lambda: fh.momenta(spec, q))
                variational.add(lambda: fh.hamiltonian(spec, q))
                variational.add(lambda: fh.hamilton_residuals(spec, fh.hamiltonian(spec, q)))
                variational.add(lambda: fh.equivalence_gap(spec, q))

    cli = Group("cli")
    for argv in CLI_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fh.cli.main(argv)
        cli.add(lambda: (out.getvalue(), err.getvalue(), code))

    return [apply, toeplitz, solve, variational, cli]


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else "src").resolve()
    sys.path.insert(0, str(src))
    import fracham
    import fracham.cli

    if src not in Path(fracham.__file__).resolve().parents:
        print(f"fracham was imported from {fracham.__file__}, not from {src}", file=sys.stderr)
        return 2
    with np.errstate(all="ignore"):  # a warning is not an output; its value is
        groups = digest(fracham)
    for group in groups:
        print(group.line())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
