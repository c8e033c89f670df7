import os
import subprocess
import sys
from pathlib import Path

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


def test_library_imports_no_test_dependency():
    src = str(Path(fracham.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _PROGRAM], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ""
