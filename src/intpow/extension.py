"""Order-preserving extension of an interval representation of one graph
power to the next."""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import partial
from itertools import accumulate

from . import _records
from .errors import (
    InvalidKError,
    ParseError,
    RepresentationMismatchError,
    VertexSetMismatchError,
)
from .graphs import _power_rows
from .intervals import IntervalRepresentation, intersection_rows, normalize

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
    candidates come from one sweep of the rows of the k-th
    (`_ball_candidates`); each set of rows is built from n BFS runs.

    Returns the new representation and an ExtensionTrace.
    """
    if k < 2:
        raise InvalidKError(f"extension requires k >= 2, got {k}")
    _check_size(g, r)
    _check_realizes(r, _power_rows(g, k - 1), k - 1)
    lefts = [left for left, _ in r.intervals]
    return _step(r, k, _ball_candidates(_power_rows(g, k), lefts))


def _check_size(g, r, name="representation"):
    """Raise VertexSetMismatchError unless r, called name in the message,
    has as many vertices as g."""
    if r.n != g.n:
        raise VertexSetMismatchError(f"graph has {g.n} vertices, {name} has {r.n}")


def _step(current, k, candidates):
    """One extension step: from a representation that realizes G^(k-1),
    one of G^k, and its trace.

    candidates holds one vertex per x, in id order: the vertex of B_k(x)
    with the largest left endpoint, the smallest id among ties.
    `_ball_candidates` takes it from the rows of G^k, the chain from
    `_span_tables`.  It is x's witness when it opens after x closes, and x
    has none otherwise: a vertex within k - 1 meets x, so a vertex of
    B_k(x) that opens after x closes is exactly k away, and if the one
    opening last does not, none does.  The normalized input, read as two
    columns built once, is scaled by n + 1, and the right end of every x
    with a witness moves into the gap after the witness's left end.
    Vertices stretched into the same gap are laid out by the order of
    their original right endpoints, so both endpoint orders survive: one
    sort of (anchor, right, x) over the stretched vertices, the slot
    restarting after each new anchor and stepping at each new right, so
    equal rights in one gap share a slot.  Beyond the candidates,
    O(n log n).
    """
    base = normalize(current)
    lefts = [left for left, _ in base.intervals]
    rights = [right for _, right in base.intervals]
    witness = [c if lefts[c] > right else None for c, right in zip(candidates, rights)]

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


def _ball_candidates(outer, lefts):
    """x's candidate from the rows outer of G^k: the vertex of outer[x]
    with the largest left end, the smallest id among ties.  Only the weak
    order of lefts counts, so r's own lefts stand for the normalized ones.

    One sweep, with no bisection: the vertices are visited by descending
    left end, the smallest id first among ties (the sort is stable), and
    each becomes the candidate of the vertices of its own row that no
    earlier vertex took.  That is exact only because the rows are
    symmetric, so the row of v holds every x whose row holds v, and each
    row holds its own vertex, so every x is taken; the rows of a power of
    a graph are both.  O(n) n-bit ANDs, and one bit read per vertex."""
    candidates = [None] * len(lefts)
    untaken = (1 << len(lefts)) - 1
    for v in sorted(range(len(lefts)), key=lefts.__getitem__, reverse=True):
        taken = outer[v] & untaken
        untaken ^= taken
        while taken:
            low = taken & -taken
            candidates[low.bit_length() - 1] = v
            taken ^= low
    return candidates


def _span_tables(r):
    """(hop, cand): two vertex tables of a representation r of an interval
    graph G, in O(n log n).

    The intervals within distance j of x cover one span [L_j(x), R_j(x)]
    of r's line, and those within j + 1 are the ones that meet it.  So
    R_j = f(R_(j-1)), with R_0 the right end of x and f(c) the largest
    right end among the intervals that open at or before c.  hop[z] is a
    vertex whose right end is f(right end of z), so R_j(x) is the right
    end of hop applied j times to x.  cand[z] is the smallest id among the
    vertices whose left end is the largest one at or before z's right end.

    With z the j-th hop of x, every vertex of B_(j+1)(x) opens at or before
    R_j(x), the right end of z, and a vertex that opens between z's ends
    meets z, so it lies in B_(j+1)(x).  So cand[z] is the one of B_(j+1)(x)
    with the largest left end, the smallest id among ties, in r and in the
    chain member realizing G^j, which keeps r's endpoint orders, ties
    included: x's candidate for step j + 1, as `_step` takes it.
    """
    lefts = [left for left, _ in r.intervals]
    rights = [right for _, right in r.intervals]
    order = sorted(range(len(lefts)), key=lefts.__getitem__)
    sorted_lefts = [lefts[v] for v in order]
    # reach[i] closes last among order[:i + 1].  The sort is stable, so
    # the reversed pairs leave each left end with its smallest id.
    reach = list(accumulate(order, partial(max, key=rights.__getitem__)))
    first = dict(zip(reversed(sorted_lefts), reversed(order)))
    last = [bisect_right(sorted_lefts, right) - 1 for right in rights]
    return [reach[i] for i in last], [first[sorted_lefts[i]] for i in last]


def _realizes(g, r):
    """Whether the intervals of r meet exactly where g has edges, with no
    rows: every edge of g meets in r, and each x meets exactly deg(x) + 1
    intervals, itself included.  Those are the intervals that open at or
    before x closes, less the ones that close before x opens, two
    bisections into the sorted endpoints.  O(n log n + m)."""
    lefts = [left for left, _ in r.intervals]
    rights = [right for _, right in r.intervals]
    sorted_lefts, sorted_rights = sorted(lefts), sorted(rights)
    for x, nbrs in enumerate(g._adjacency):
        left_x, right_x = lefts[x], rights[x]
        meets = bisect_right(sorted_lefts, right_x) - bisect_left(sorted_rights, left_x)
        if meets != len(nbrs) + 1:
            return False
        for y in nbrs:
            if lefts[y] > right_x or rights[y] < left_x:
                return False
    return True


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
    one extend_representation call per k, but no BFS runs and no n-bit
    row is built while r realizes g.  r is checked once, against g, by
    `_realizes` in O(n log n + m): by the theorem each step turns a
    representation of G^(k-1) into one of G^k, so no member is checked
    again.  Each step then takes its witnesses from `_span_tables` in O(n)
    and lays out the gaps in O(n log n).
    """
    return list(_chain(g, r, k_max))


def _chain(g, r, k_max):
    """The body of iterate_powers as a stream: yields (k, representation,
    trace) per step.  The checks run at the first next(), before any
    element; only a failed `_realizes` builds rows, through
    `_check_realizes`, to name the first differing pair.

    far[x] is a vertex whose right end is R_(k-1)(x), the right end of the
    span of the intervals within k - 1 of x in r, one `hop` per step, and
    cand[far[x]] is x's candidate for step k, the one `_step` takes: two
    table reads per vertex, with no bisection and no ball.
    """
    if k_max < 2:
        raise InvalidKError(f"iteration requires k_max >= 2, got {k_max}")
    _check_size(g, r)
    if not _realizes(g, r):
        _check_realizes(r, g.rows, 1)
    hop, cand = _span_tables(r)
    far = range(r.n)
    current = r
    for k in range(2, k_max + 1):
        far = list(map(hop.__getitem__, far))
        current, trace = _step(current, k, map(cand.__getitem__, far))
        yield k, current, trace


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
