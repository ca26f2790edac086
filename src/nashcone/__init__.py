"""Exact lattice computations on resolution dual graphs.

Decides, from the weighted dual graph of the minimal resolution of a
normal surface singularity, the two sufficient conditions for
bijectivity of the Nash map, with integer witness divisors, vanishing
criteria, and rationality classification. All arithmetic is exact.

Each public name is declared once, in the ``__all__`` of its module;
the package re-exports exactly those names.
"""

from .classify import *
from .conditions import *
from .cone import *
from .errors import *
from .graph import *
from .vanishing import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += classify.__all__
__all__ += conditions.__all__
__all__ += cone.__all__
__all__ += errors.__all__
__all__ += graph.__all__
__all__ += vanishing.__all__
