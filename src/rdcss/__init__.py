"""Randomization defining contrast subspaces for two-level factorial designs.

Construction and analysis toolkit for multistage randomization of 2^p
experiments: finite-field and projective-geometry machinery, spread and
partial-spread constructions, collineation search against experimenter
requirements, closed-form existence results, the induced variance structure
of effect estimators, and regular fractional factorials layered on top.

The package re-exports the public names (each module's __all__) of every
module except the low-level bitlin and the cli: construction's `build`,
`Built`, `Infeasible` and `BudgetExhausted` among them.
"""

from . import (
    collineation,
    construction,
    existence,
    fractional,
    geometry,
    gf2,
    randomization,
    spreads,
)
from .collineation import *  # noqa: F401,F403
from .construction import *  # noqa: F401,F403
from .existence import *  # noqa: F401,F403
from .fractional import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .gf2 import *  # noqa: F401,F403
from .randomization import *  # noqa: F401,F403
from .spreads import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        geometry, gf2, spreads, collineation, existence, randomization, fractional, construction
    )
    for name in module.__all__
] + ["__version__"]
