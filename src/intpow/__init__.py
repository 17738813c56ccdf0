"""Interval representations of graph powers.

Extends an interval representation of the (k-1)-th power of a graph into
one of the k-th power without disturbing the left and right endpoint
orders, converts proper representations to unit length, and searches
trapezoid realizations with prescribed endpoint orders exhaustively.
"""

from . import errors, extension, graphs, intervals, trapezoids
from .errors import *
from .extension import *
from .graphs import *
from .intervals import *
from .trapezoids import *

__version__ = "0.1.0"

__all__ = sorted(
    errors.__all__ + extension.__all__ + graphs.__all__ + intervals.__all__ + trapezoids.__all__
)
