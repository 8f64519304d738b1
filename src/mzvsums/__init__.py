"""Exact arithmetic for truncated multiple zeta(-star) values and the
shuffle-family sums they satisfy.

The package computes, with rational arithmetic throughout:

* truncated multiple zeta values and their star (weak-inequality) variants,
* sums of those values over two families of shuffled indices,
* bivariate generating series for the family sums via 2x2 matrix recursions,
* symbolic identities in the quasi-shuffle (harmonic) algebra, and
* closed-form evaluations as rational multiples of powers of pi.

Every identity check returns a small report object stating whether two exact
quantities agreed; nothing is compared in floating point except the final
convergence diagnostics.
"""

from . import closedform, harmonic, indices, series, zeta
from .closedform import *
from .harmonic import *
from .indices import *
from .series import *
from .zeta import *

__version__ = "0.1.0"

# Every module's public names, listed once there.
__all__ = sorted({name for module in (closedform, harmonic, indices, series, zeta) for name in module.__all__})
