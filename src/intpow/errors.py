"""Exception types shared across the package."""

__all__ = [
    "CoordinateOverflowError",
    "InfeasibleConstraintsError",
    "IntpowError",
    "InvalidKError",
    "InvalidVertexError",
    "NonStrictOrderError",
    "NotProperError",
    "ParseError",
    "RepresentationMismatchError",
    "VertexSetMismatchError",
]


class IntpowError(Exception):
    """Base class for the errors this package raises on its inputs.

    The value constructors raise plain ValueError for malformed
    arguments: Graph (a self-loop, a duplicate edge or n < 0),
    IntervalRepresentation (a left endpoint above its right one),
    WeakOrder and TrapezoidRepresentation.  A vertex id out of range
    raises InvalidVertexError, in Graph too.

    Messages name vertices 1-based, as the text formats do, also where
    the vertex is a position in a list given to a constructor.  Only
    vertex ids the caller passed are named as passed: InvalidVertexError
    and Graph's edge messages.
    """


class ParseError(IntpowError):
    """A text input could not be parsed.

    Carries the source name, the 1-based line number of the offending line
    and the message without them.
    """

    def __init__(self, source, line, message):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.message = message

    def __reduce__(self):
        return type(self), (self.source, self.line, self.message), self.__dict__


class InvalidVertexError(IntpowError):
    """A vertex id lies outside the graph's vertex range."""


class InvalidKError(IntpowError):
    """A power exponent lies outside the operation's valid range."""


class VertexSetMismatchError(IntpowError):
    """Two objects that must share a vertex set do not."""


class CoordinateOverflowError(IntpowError):
    """A coordinate left the signed 64-bit integer range."""


class NotProperError(IntpowError):
    """The representation is not proper.

    witness is a pair (u, v) such that the interval of u properly contains
    the interval of v.  Vertex ids are internal (0-based); the message
    renders them 1-based.
    """

    def __init__(self, witness):
        u, v = witness
        super().__init__(
            f"representation is not proper: interval of vertex {u + 1} "
            f"properly contains interval of vertex {v + 1}"
        )
        self.witness = witness

    def __reduce__(self):
        return type(self), (self.witness,), self.__dict__


class InfeasibleConstraintsError(IntpowError):
    """The difference-constraint system admits no solution."""


class RepresentationMismatchError(IntpowError):
    """A representation does not realize the required graph.

    pair is one offending vertex pair (internal ids).
    """

    def __init__(self, message, pair):
        super().__init__(message)
        self.pair = pair

    def __reduce__(self):
        return type(self), (*self.args, self.pair), self.__dict__


class NonStrictOrderError(IntpowError):
    """An endpoint order that must be strict contains ties."""
