"""First-digit statistics in arbitrary base.

Significand/exponent arithmetic on [1, b), the scale-invariant significand
law, a generic engine for condensing densities on R+ onto the significand
interval, entropy bounds, and empirical conformance testing.

Each module's ``__all__`` is its public list, and the package re-exports
them all.  ``benford.cli`` is imported on its own.
"""

import sys

from .errors import *
from .significand import *
from .nb_core import *
from .wrapping import *
from .entropy import *
from .conformance import *

__version__ = "0.1.0"

# through sys.modules: the package attribute entropy is the function
__all__ = ["__version__"] + [
    name
    for module in ("errors", "significand", "nb_core", "wrapping", "entropy", "conformance")
    for name in sys.modules[f"{__name__}.{module}"].__all__
]

del sys
