"""Verification laboratory for dispersion-free hidden-variable models of a qubit.

The package has four computational layers plus a scenario runner:

* :mod:`hvlab.stepfn` -- exact piecewise-constant functions on the
  hidden-variable interval [-1/2, 1/2] and factored products over multi-level
  spaces; every integral is a finite sum, never a quadrature.
* :mod:`hvlab.qubit` -- exact 2x2 quantum mechanics in Bloch form, the ground
  truth the hidden-variable side is compared against.
* :mod:`hvlab.bell` -- the dispersion-free value assignment for qubit
  observables, the two inequivalent representations of conditional
  measurement, and explicit pointwise-conflict witnesses.
* :mod:`hvlab.branching` -- measurement histories that open a fresh
  hidden-variable level per measurement, with per-level normalization,
  order-independent integration, and idempotent repetition.
* :mod:`hvlab.scenarios` / :mod:`hvlab.cli` -- named verification scenarios,
  seeded property sweeps, JSON reports, and omega-grid CSV traces.
"""

from . import bell, branching, errors, qubit, scenarios, stepfn
from .bell import *  # noqa: F403
from .branching import *  # noqa: F403
from .errors import *  # noqa: F403
from .qubit import *  # noqa: F403
from .scenarios import *  # noqa: F403
from .stepfn import *  # noqa: F403

__version__ = "0.1.0"

# each public name is listed once, in its submodule's __all__
__all__ = [
    *errors.__all__,
    *stepfn.__all__,
    *qubit.__all__,
    *bell.__all__,
    *branching.__all__,
    *scenarios.__all__,
]
