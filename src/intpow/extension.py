"""Order-preserving extension of an interval representation of one graph
power to the next."""

from bisect import bisect_right
from collections import namedtuple

from . import _records
from .errors import (
    InvalidKError,
    ParseError,
    RepresentationMismatchError,
    VertexSetMismatchError,
)
from .graphs import _power_rows, widen_balls
from .intervals import IntervalRepresentation, _later_masks, intersection_rows, normalize

__all__ = [
    "ExtensionTrace",
    "extend_representation",
    "format_trace",
    "iterate_powers",
    "load_trace",
    "parse_trace",
    "save_trace",
]


class ExtensionTrace(namedtuple("ExtensionTrace", "k scale witness new_right")):
    """Audit record of a single extension step.

    scale is the factor applied to the normalized input coordinates.
    witness[x] is the vertex whose left endpoint received the stretched
    right endpoint of x, or None when x kept its own (scaled) right
    endpoint.  new_right[x] is the resulting right endpoint, already in
    output coordinates.
    """

    __slots__ = ()


def extend_representation(g, k, r):
    """Turn a representation of the (k-1)-th power of g into one of the k-th.

    The input is normalized so no coordinate both closes one interval and
    opens another, then scaled by n + 1, which leaves a gap of n free
    integer slots after every endpoint.  Each vertex x looks at the
    vertices exactly k away whose intervals start to the right of its own;
    if any exist, the right endpoint of x moves just past the largest such
    left endpoint, into the gap.  Vertices stretched into the same gap are
    laid out by the order of their original right endpoints, so both
    endpoint orders survive.

    The input is checked once, against rows of the (k-1)-th power, and the
    step reads only rows of the k-th; each set of rows is built from n BFS
    runs.

    Returns the new representation and an ExtensionTrace.
    """
    if k < 2:
        raise InvalidKError(f"extension requires k >= 2, got {k}")
    _check_size(g, r)
    _check_realizes(r, _power_rows(g, k - 1), k - 1)
    return _step(r, k, _power_rows(g, k))


def _check_size(g, r, name="representation"):
    """Raise VertexSetMismatchError unless r, called name in the message,
    has as many vertices as g."""
    if r.n != g.n:
        raise VertexSetMismatchError(f"graph has {g.n} vertices, {name} has {r.n}")


def _step(current, k, outer):
    """One extension step: from a representation that realizes G^(k-1),
    one of the rows outer of G^k, and its trace.

    x's witness is the vertex of outer[x] that opens after x closes with
    the largest left endpoint, the smallest id among ties.  These are the
    vertices of the sphere, exactly k away, that open right of x: a vertex
    within k - 1 meets x, so it opens at or before x closes, and a sphere
    vertex opening right of x is disjoint from x, so it opens after x
    closes.  The normalized input is scaled by n + 1, and the right end of
    every x with a witness moves into the gap after the witness's left
    end.  Vertices stretched into the same gap are laid out by the order
    of their original right endpoints, so both endpoint orders survive.

    The step reads the normalized input as two columns, lefts and rights,
    built once.  `_later_masks` over the lefts gives the vertices opening
    after x closes as one mask, found by bisection, which outer[x] is
    ANDed with before its bits are visited.  The gaps are laid out from
    one sort of (anchor, right, x) over the stretched vertices: the slot
    restarts after each new anchor and steps at each new right, so equal
    rights in one gap share a slot.
    """
    base = normalize(current)
    lefts = [left for left, _ in base.intervals]
    rights = [right for _, right in base.intervals]
    sorted_lefts, right_of = _later_masks(lefts)
    witness = []
    for x, right_x in enumerate(rights):
        best, best_left = None, right_x
        later = outer[x] & right_of[bisect_right(sorted_lefts, right_x)]
        while later:
            low = later & -later
            y = low.bit_length() - 1
            # Ids ascend, so a strict test keeps the smallest among ties.
            if lefts[y] > best_left:
                best, best_left = y, lefts[y]
            later ^= low
        witness.append(best)

    scale = len(lefts) + 1
    new_right = [scale * right for right in rights]
    anchor = last = None
    for left, right, x in sorted(
        (lefts[w], rights[x], x) for x, w in enumerate(witness) if w is not None
    ):
        if left != anchor:
            anchor, last, slot = left, None, scale * left
        if right != last:
            last, slot = right, slot + 1
        new_right[x] = slot

    extended = IntervalRepresentation(zip((scale * left for left in lefts), new_right))
    trace = ExtensionTrace(
        k=k, scale=scale, witness=tuple(witness), new_right=tuple(new_right)
    )
    return extended, trace


def _first_difference(expected, actual):
    """The smallest pair u < v set in only one of two lists of symmetric
    adjacency rows, and whether expected holds it; None when the rows
    agree.

    The first differing row is u: a differing bit v < u would have made
    row v differ first.  Its lowest differing bit is v.
    """
    for u, (a, b) in enumerate(zip(expected, actual)):
        diff = a ^ b
        if diff:
            v = (diff & -diff).bit_length() - 1
            return (u, v), bool(a >> v & 1)
    return None


def _check_realizes(r, expected, power):
    """Raise RepresentationMismatchError, naming the pair that
    `_first_difference` finds, unless the intervals of r meet exactly where
    the rows `expected` of the power-th power say."""
    found = _first_difference(expected, intersection_rows(r))
    if found is None:
        return
    (u, v), missing = found
    if missing:
        message = (
            f"representation does not realize the required power: vertices "
            f"{u + 1} and {v + 1} are within distance {power} but their "
            f"intervals are disjoint"
        )
    else:
        message = (
            f"representation does not realize the required power: intervals "
            f"of vertices {u + 1} and {v + 1} intersect but the vertices are "
            f"more than {power} apart"
        )
    raise RepresentationMismatchError(message, (u, v))


def iterate_powers(g, r, k_max):
    """Chain extensions from a representation of g up to its k_max-th power.

    Returns a list of (k, representation, trace) for k = 2..k_max; each
    step feeds the previous output back in, so every chain member keeps
    the endpoint orders of r.  The result, errors included, is that of
    one extend_representation call per k, but no BFS runs.  r is checked
    once, against B_1 = g.rows: by the theorem each step turns a
    representation of G^(k-1) into one of G^k, so no member is checked
    again.  One list of distance balls is carried along and widened by
    one hop per k, and step k reads its witnesses from B_k alone, as
    extend_representation does.  That costs n + 2m big-int ORs plus
    O(n log n) per step, k_max * (n + 2m) ORs for the chain.
    """
    return [(k, rep, trace) for k, rep, trace, _ in _chain(g, r, k_max)]


def _chain(g, r, k_max):
    """The body of iterate_powers as a stream: yields (k, representation,
    trace, balls) per step, balls being the rows of G^k that the step
    read.  The checks run at the first next(), before any element."""
    if k_max < 2:
        raise InvalidKError(f"iteration requires k_max >= 2, got {k_max}")
    _check_size(g, r)
    _check_realizes(r, g.rows, 1)
    balls = g.rows
    current = r
    for k in range(2, k_max + 1):
        balls = widen_balls(g, balls)
        current, trace = _step(current, k, balls)
        yield k, current, trace, balls


def format_trace(trace):
    """Render a trace: header "k scale", then lines "x witness new_right"
    with "-" for a missing witness.  Vertex ids are 1-based."""
    witness = ["-" if w is None else w + 1 for w in trace.witness]
    rows = zip(range(1, len(witness) + 1), witness, trace.new_right)
    return _records.render([(trace.k, trace.scale), *rows])


def parse_trace(text, source="<trace>"):
    body, (k, scale) = _records.read(text, source, 2, "header must be two integers: k scale")
    if k < 2:
        raise ParseError(source, 1, f"trace requires k >= 2, got {k}")
    n = body.size
    witness = [None] * n
    new_right = [None] * n
    usage = "trace line must be: x witness new_right"
    for i, (x, w, right) in _records.records(body, source, 3, usage, ids=n, dash=1):
        if w is not None and not 1 <= w <= n:
            raise _records.out_of_range(source, i, "witness", w, n)
        if w == x:
            raise ParseError(source, i, f"vertex {x} is its own witness")
        witness[x - 1] = None if w is None else w - 1
        new_right[x - 1] = right
    return ExtensionTrace(
        k=k, scale=scale, witness=tuple(witness), new_right=tuple(new_right)
    )


def load_trace(path):
    return _records.load(path, parse_trace)


def save_trace(trace, path):
    _records.save(path, format_trace(trace))
