import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracham

# numpy is the only runtime dependency; scipy, mpmath and hypothesis serve
# the tests alone. A fresh interpreter runs every public entry point and
# reports which of them got imported.
_PROGRAM = """
import sys
import numpy as np
import fracham.cli
from fracham import (ExampleProblem, Grid, OperatorKind, SampledFn, apply, build_operator,
                     equivalence_gap, example_lagrangian, solve)
g = Grid(0.0, 1.0, 32)
q = SampledFn(g, np.sin(g.nodes))
solve(ExampleProblem(0.5, 0.75, g))
equivalence_gap(example_lagrangian(0.5, 0.75), q)
for kind in OperatorKind:
    apply(build_operator(kind, 0.5, g), q)
print(" ".join(sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "mpmath", "hypothesis"})))
"""


# numpy.random costs a process about 15 ms and 6 MB to load. LagrangianSpec's
# probes are a fixed table, so only `check-equivalence --trial random-polynomial`,
# which draws its trial, needs it; no other subcommand may load it
_NO_RANDOM_PROGRAM = """
import contextlib, io, sys
import fracham.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fracham.cli.main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""
_NO_RANDOM_RUNS = {
    "deriv": ["deriv", "--kind", "rl-left", "--alpha", "0.5", "--fn", "1", "--n", "8"],
    "solve-example": ["solve-example", "--alpha", "0.5", "--beta", "0.75", "--n", "64"],
    "converge": ["converge", "--alpha", "0.5", "--beta", "0.75", "--n-list", "32,64"],
    "check-equivalence": ["check-equivalence", "--alpha", "0.5", "--beta", "0.75", "--n", "64",
                          "--trial", "exact"],
}


def _run(program: str, *args: str) -> str:
    src = str(Path(fracham.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", program, *args], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_library_imports_no_test_dependency():
    assert _run(_PROGRAM) == ""


@pytest.mark.parametrize("command", list(_NO_RANDOM_RUNS))
def test_subcommand_does_not_load_numpy_random(command):
    assert _run(_NO_RANDOM_PROGRAM, *_NO_RANDOM_RUNS[command]) == "0 False"
