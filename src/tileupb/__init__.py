"""Tile structures on bipartite grids, the product bases they induce,
unextendibility certificates, bound entangled states, and
entanglement-assisted discrimination protocols.

The package exports each module's ``__all__``, and ``__version__``.
"""

from . import families, grid, locc, rectangles, states, verify
from .grid import *
from .rectangles import *
from .states import *
from .families import *
from .verify import *
from .locc import *

__version__ = "0.1.0"

__all__ = [*grid.__all__, *rectangles.__all__, *states.__all__, *families.__all__,
           *verify.__all__, *locc.__all__, "__version__"]
