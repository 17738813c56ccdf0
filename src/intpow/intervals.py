"""Interval representations: intersection graphs, endpoint orders, and
the proper / unit transformations."""

from bisect import bisect_left, bisect_right
from math import inf
from operator import and_, or_

from . import _records
from .errors import (
    CoordinateOverflowError,
    InfeasibleConstraintsError,
    NonStrictOrderError,
    NotProperError,
    ParseError,
    VertexSetMismatchError,
)
from .graphs import Graph

__all__ = [
    "IntervalRepresentation",
    "WeakOrder",
    "endpoint_orders",
    "find_containment_pair",
    "format_representation",
    "intersection_graph",
    "intersection_rows",
    "is_proper",
    "load_representation",
    "normalize",
    "parse_representation",
    "proper_to_unit",
    "same_orders",
    "save_representation",
]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class IntervalRepresentation:
    """One closed integer interval [left, right] per vertex 0..n-1.

    Coordinates must stay within the signed 64-bit range; equal intervals
    on different vertices are allowed.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        rows = []
        for v, row in enumerate(intervals):
            try:
                left, right = row
            except ValueError:
                raise ValueError(f"vertex {v + 1}: expected 2 coordinates, got {len(row)}") from None
            if left > right:
                raise ValueError(f"vertex {v + 1}: left endpoint {left} exceeds right {right}")
            if left < INT64_MIN or right > INT64_MAX:
                raise CoordinateOverflowError(
                    f"vertex {v + 1}: interval [{left}, {right}] leaves the 64-bit range"
                )
            rows.append((left, right))
        self.intervals = tuple(rows)

    @property
    def n(self):
        return len(self.intervals)

    def left(self, v):
        return self.intervals[v][0]

    def right(self, v):
        return self.intervals[v][1]

    def __eq__(self, other):
        if not isinstance(other, IntervalRepresentation):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"IntervalRepresentation({list(self.intervals)!r})"


class WeakOrder:
    """A weak order on vertices 0..n-1 stored as dense ranks.

    Ranks are exactly 0..max with ties sharing a rank, so two weak orders
    agree on every comparison iff their rank tuples are equal.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks):
        ranks = tuple(ranks)
        used = set(ranks)
        if used and used != set(range(len(used))):
            raise ValueError("ranks must be dense naturals starting at 0")
        self.ranks = ranks

    @classmethod
    def from_keys(cls, keys):
        """Dense-rank arbitrary comparable keys, ties sharing a rank."""
        keys = list(keys)
        rank_of = {key: i for i, key in enumerate(sorted(set(keys)))}
        return cls(rank_of[key] for key in keys)

    @classmethod
    def from_sequence(cls, sequence):
        """Strict order from a permutation of 0..n-1 listed smallest first."""
        sequence = list(sequence)
        n = len(sequence)
        if sorted(sequence) != list(range(n)):
            raise ValueError("sequence must be a permutation of 0..n-1")
        ranks = [0] * n
        for position, v in enumerate(sequence):
            ranks[v] = position
        return cls(ranks)

    @property
    def n(self):
        return len(self.ranks)

    @property
    def is_strict(self):
        return len(set(self.ranks)) == len(self.ranks)

    def strict_sequence(self):
        """Vertices smallest-rank first; requires a strict order."""
        if not self.is_strict:
            raise NonStrictOrderError("order has ties, a strict order is required")
        return sorted(range(self.n), key=self.ranks.__getitem__)

    def tie_groups(self):
        """Vertices grouped by rank, groups ascending, ids ascending inside."""
        groups = [[] for _ in range(len(set(self.ranks)))]
        for v in range(self.n):
            groups[self.ranks[v]].append(v)
        return groups

    def __eq__(self, other):
        if not isinstance(other, WeakOrder):
            return NotImplemented
        return self.ranks == other.ranks

    def __hash__(self):
        return hash(self.ranks)

    def __repr__(self):
        return f"WeakOrder({list(self.ranks)!r})"


def intersection_graph(r):
    """Graph with an edge for every pair of intersecting intervals.

    Reads `intersection_rows(r)` and keeps them as the graph's rows, so a
    later `.rows` read costs nothing: O(n log n) plus n ANDs for the rows,
    then one step per edge to list the adjacency.
    """
    return Graph._from_rows(intersection_rows(r))


def intersection_rows(r):
    """Closed neighbourhoods as bitmasks: bit y of entry x is set iff the
    intervals of x and y meet, x itself included.  The one-line case of
    `_meeting_rows`."""
    return _meeting_rows([r.intervals])


def _meeting_rows(lines):
    """Closed neighbourhoods as bitmasks of vertices that hold one closed
    interval on each line: bit y of entry x is set iff x and y meet.

    lines holds one list per line of one (left, right) per vertex.  x and
    y are apart exactly when y opens after x closes on every line, or
    closes before x opens on every line.  Per line, `_later_masks` over
    the lefts and over the rights gives, by bisection, the vertices
    opening after x closes and those closing at or after x opens; the
    first are ANDed across the lines and the second ORed, and row x is
    what the second holds outside the first.  So each line costs
    O(n log n) plus a few big-int operations per vertex, with no edge list.
    """
    after = reach = None
    for line in lines:
        lefts, rights = [left for left, _ in line], [right for _, right in line]
        sorted_lefts, opens_after = _later_masks(lefts)
        sorted_rights, closes_from = _later_masks(rights)
        line_after = [opens_after[bisect_right(sorted_lefts, right)] for right in rights]
        line_reach = [closes_from[bisect_left(sorted_rights, left)] for left in lefts]
        after = line_after if after is None else list(map(and_, after, line_after))
        reach = line_reach if reach is None else list(map(or_, reach, line_reach))
    full = opens_after[0]
    return [(full ^ a) & c for a, c in zip(after, reach)]


def _later_masks(keys):
    """(sorted_keys, masks): the keys of vertices 0..n-1 in ascending
    order, and for i = 0..n, masks[i] the bitmask of the vertices whose
    key is not among the i smallest.

    masks[0] holds every vertex and masks[n] none.  Ties share their
    masks at both ends of their run, so masks[bisect_right(sorted_keys,
    t)] holds the vertices keyed after t and masks[bisect_left(sorted_keys,
    t)] those keyed at t or after.  The masks are suffix ORs over the
    sorted vertices: O(n log n) in all.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    masks = [0]
    for v in reversed(order):
        masks.append(masks[-1] | 1 << v)
    masks.reverse()
    return [keys[v] for v in order], masks


def endpoint_orders(r):
    """The weak orders induced by left and by right endpoints."""
    return _column_orders(r.intervals, 2)


def _column_orders(rows, width):
    """The weak order of each of the first `width` coordinates of rows."""
    return tuple(WeakOrder.from_keys(row[i] for row in rows) for i in range(width))


def same_orders(first, second):
    """Whether two weak orders on the same vertex set agree on every pair."""
    if first.n != second.n:
        raise VertexSetMismatchError(
            f"orders cover {first.n} and {second.n} vertices"
        )
    return first.ranks == second.ranks


def _coincident_right_values(r):
    """Values serving simultaneously as a right endpoint and a left endpoint.

    A degenerate interval's shared coordinate counts: a point interval must
    grow too, otherwise a later rightward extension anchored at its left
    endpoint would overshoot its right endpoint and break the right order.
    """
    lefts = {left for left, _ in r.intervals}
    return {right for _, right in r.intervals if right in lefts}


def normalize(r):
    """Separate every coordinate that closes one interval and opens another.

    All coordinates are doubled, then every right endpoint sitting on a
    collision value is pushed one step right into the fresh odd gap.  The
    intersection graph and both endpoint orders are unchanged, every output
    interval has positive length, and no output coordinate is both a right
    and a left endpoint.  An input already satisfying those two properties
    is returned as is.
    """
    collisions = _coincident_right_values(r)
    if not collisions:
        return r
    rows = []
    for left, right in r.intervals:
        new_right = 2 * right + 1 if right in collisions else 2 * right
        rows.append((2 * left, new_right))
    return IntervalRepresentation(rows)


def is_proper(r):
    """Whether the left and right endpoint orders coincide, that is,
    whether no interval properly contains another."""
    return find_containment_pair(r) is None


def find_containment_pair(r):
    """First pair (u, v) whose interval of u properly contains that of v.

    u is the smallest id that properly contains any interval and v the
    smallest id it contains.  Returns None when no proper containment
    exists.  The left and right endpoint orders coincide exactly then:
    two intervals ordered differently by their ends, ties included, are
    nested, and nested distinct intervals are ordered differently.
    O(n log n): u contains some v iff an interval with a greater left
    endpoint ends no later, or one with the same left endpoint ends
    earlier, so one minimum of rights per left value and their suffix
    minima find u, and one pass finds v.
    """
    nearest = {}  # left -> smallest right among the intervals opening there
    for left, right in r.intervals:
        if right < nearest.get(left, inf):
            nearest[left] = right
    beyond = {}  # left -> smallest right among the intervals opening later
    least = inf
    for left in sorted(nearest, reverse=True):
        beyond[left] = least
        least = min(least, nearest[left])
    u = next(
        (u for u, (left, right) in enumerate(r.intervals)
         if beyond[left] <= right or nearest[left] < right),
        None,
    )
    if u is None:
        return None
    lu, ru = r.intervals[u]
    v = next(
        v for v, (lv, rv) in enumerate(r.intervals)
        if lu <= lv and rv <= ru and (lv, rv) != (lu, ru)
    )
    return (u, v)


def proper_to_unit(r):
    """Rebuild a proper representation with every interval of length n*n.

    New left endpoints f(v) are the smallest naturals satisfying, for
    every pair u before v in the shared endpoint order:

      f(v) - f(u) >= 1                        (order kept strict)
      f(v) - f(u) <= n*n       if u, v adjacent
      f(v) - f(u) >= n*n + 1   otherwise

    with tied vertices forced equal.  In a proper representation the later
    neighbours of u are exactly the vertices between u and its first later
    non-neighbour in the order sorted by (left, right), so three kinds of
    constraint imply all the others and are kept, O(n) in total:

      f(next) - f(u) >= 1 for consecutive u, next (= 0 both ways for twins)
      f(last) - f(u) <= n*n for the last later neighbour of u
      f(first) - f(u) >= n*n + 1 for the first later non-neighbour of u

    The first kind makes f increase along the order, which carries each
    bound from last / first to every vertex on the near side of it.  The
    feasible set is unchanged, so the solution is too.  The system is
    solved by single-source relaxation over the constraint edges
    (Bellman-Ford with a virtual source), which also detects infeasibility
    as a negative cycle; the distances are negated and shifted so that
    min f = 0, making the output canonical.  Each pass relaxes the forward
    edges in ascending order, then the backward ones in descending order,
    so a few passes converge and the whole costs O(n log n) plus O(n) per
    pass.
    """
    witness = find_containment_pair(r)
    if witness is not None:
        raise NotProperError(witness)
    n = r.n
    unit = n * n
    order = sorted(range(n), key=r.intervals.__getitem__)
    lefts = [r.intervals[v][0] for v in order]
    # Relaxation edges (x, y, w) enforce dist[y] <= dist[x] + w; with
    # f = -dist this is f(y) >= f(x) - w, the lower-bound form above.
    forward, backward = [], []
    for i, u in enumerate(order):
        end = bisect_right(lefts, r.intervals[u][1], i + 1)
        if i + 1 < n:
            twin = lefts[i + 1] == lefts[i]
            forward.append((u, order[i + 1], 0 if twin else -1))
            if twin:
                backward.append((order[i + 1], u, 0))
        if end < n:
            forward.append((u, order[end], -(unit + 1)))
        if end > i + 1:
            backward.append((order[end - 1], u, unit))
    edges = forward + backward[::-1]
    dist = [0] * n
    for _ in range(n):
        changed = False
        for x, y, w in edges:
            if dist[x] + w < dist[y]:
                dist[y] = dist[x] + w
                changed = True
        if not changed:
            break
    else:
        for x, y, w in edges:
            if dist[x] + w < dist[y]:
                raise InfeasibleConstraintsError(
                    "difference constraints contain a negative cycle"
                )
    starts = [-d for d in dist]
    shift = min(starts, default=0)
    return IntervalRepresentation((s - shift, s - shift + unit) for s in starts)


def parse_representation(text, source="<representation>"):
    """Parse the representation format: a line "n", then n lines "v l r".

    Vertex ids are 1-based and each must appear exactly once.
    """
    body, (n,) = _records.read(text, source, 1, "header must be a single integer: n",
                               "vertex count must be nonnegative", "interval lines")
    rows = [None] * n
    usage = "interval line must be three integers: v l r"
    for i, (v, left, right) in _records.records(body, source, 3, usage, ids=n):
        if left > right:
            raise ParseError(source, i, f"left endpoint {left} exceeds right {right}")
        if left < INT64_MIN or right > INT64_MAX:
            raise ParseError(source, i, "coordinate leaves the 64-bit range")
        rows[v - 1] = (left, right)
    return IntervalRepresentation(rows)


def format_representation(r):
    """Render a representation, vertices ascending, ids 1-based."""
    return _records.render([(r.n,)] + [(v + 1, *row) for v, row in enumerate(r.intervals)])


def load_representation(path):
    return _records.load(path, parse_representation)


def save_representation(r, path):
    _records.save(path, format_representation(r))
