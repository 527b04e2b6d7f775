"""Bound states of gated graphene wells in reduced units.

The library models quasiparticles governed by a two-component first-order
system in one effective dimension: a scalar potential well that is
translation invariant along the second axis traps states labeled by the
conserved transverse momentum.  Closed-form matching gives the square-well
spectrum and eigenfunctions; generic piecewise wells, smooth wells, and
uniform or proportional field combinations are covered by transfer
matching, shooting, and grid cross-checks.
"""

# each module's __all__ is the public API; errors holds exception classes only
from .core import *
from .errors import *
from .matching import *
from .oracle import *
from .spectrum import *
from .states import *

__version__ = "0.1.0"
