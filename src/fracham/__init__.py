"""Fractional-order variational mechanics on uniform grids.

The package has three layers plus a CLI:

* :mod:`fracham.fracnum` - grids, the gamma function, and discrete
  left/right Caputo and Riemann-Liouville derivatives and fractional
  integrals for orders in (0, 1), each stored as its Toeplitz column
  plus one endpoint column, from which every dense matrix is derived;
* :mod:`fracham.variational` - action evaluation, stationarity
  residuals, endpoint (transversality) terms, canonical momenta and
  energy, and the canonical equation defects;
* :mod:`fracham.solver` - a direct Ritz solver for the model quadratic
  functional whose minimizer is t^beta, with a refinement-study harness.

The public API is the union of the three modules' ``__all__``, plus
``active_backend`` and ``__version__``.
"""

from . import fracnum, solver, variational
from .fracnum import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .variational import *  # noqa: F401,F403

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the array backend. Always ``"numpy"``, the only one there is."""
    return "numpy"


__all__ = [*fracnum.__all__, *variational.__all__, *solver.__all__,
           "active_backend", "__version__"]
