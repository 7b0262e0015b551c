"""Delta-nabla calculus of variations on finite time scales.

The package covers the finite-scale delta/nabla calculus (jump operators,
derivatives, integrals, and their exact conversion identities), weighted
delta-nabla variational problems with both integral Euler-Lagrange forms
and a sampled convexity certificate, the piecewise-linear extension with
directional derivatives, direction-driven problems that unify the two
calculi, and a small expression language so Lagrangians can be written as
text.
"""

# Each module's ``__all__`` is its public API, written next to the
# definitions; the package re-exports those lists, imported in this order.
from .errors import *  # noqa: F401,F403
from .timescale import *  # noqa: F401,F403
from .extension import *  # noqa: F401,F403
from .expressions import *  # noqa: F401,F403
from .variational import *  # noqa: F401,F403
from .directional import *  # noqa: F401,F403
from .identities import *  # noqa: F401,F403
from .problemfile import *  # noqa: F401,F403
from . import directional, errors, expressions, extension, identities, problemfile, timescale, variational

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, timescale, extension, expressions, variational, directional, identities, problemfile)
    for name in module.__all__
]
