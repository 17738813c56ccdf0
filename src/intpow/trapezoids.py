"""Trapezoid representations on two parallel lines and the exhaustive
search over endpoint interleavings."""

import itertools
from bisect import bisect_right
from operator import le

from . import _records
from .errors import ParseError, VertexSetMismatchError
from .graphs import Graph
from .intervals import WeakOrder, _column_orders, _meeting_rows

__all__ = [
    "TrapezoidRepresentation",
    "count_interleavings",
    "count_interleavings_filter",
    "format_orders",
    "format_trapezoid",
    "load_orders",
    "load_trapezoid",
    "p5_representation",
    "parse_orders",
    "parse_trapezoid",
    "save_orders",
    "save_trapezoid",
    "search_representation",
    "trapezoid_intersection_graph",
    "trapezoid_orders",
]

class TrapezoidRepresentation:
    """Per vertex, one closed integer interval on each of two lines.

    Row v is (l0, r0, l1, r1); degenerate rows where an interval is a
    single point are allowed.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        cleaned = []
        for v, row in enumerate(rows):
            try:
                l0, r0, l1, r1 = row
            except ValueError:
                raise ValueError(f"vertex {v + 1}: expected 4 coordinates, got {len(row)}") from None
            if l0 > r0 or l1 > r1:
                raise ValueError(f"vertex {v + 1}: interval endpoints out of order")
            cleaned.append((l0, r0, l1, r1))
        self.rows = tuple(cleaned)

    @property
    def n(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, TrapezoidRepresentation):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"TrapezoidRepresentation({list(self.rows)!r})"


def trapezoid_intersection_graph(t):
    """Two trapezoids are disjoint exactly when one ends strictly before
    the other starts on both lines; every other pair is an edge.  The
    rows come from `_meeting_rows` over the two lines."""
    lines = [[row[:2] for row in t.rows], [row[2:] for row in t.rows]]
    return Graph._from_rows(_meeting_rows(lines))


def trapezoid_orders(t):
    """The four endpoint orders (L0, R0, L1, R1)."""
    return _column_orders(t.rows, 4)


def p5_representation():
    """A trapezoid representation of the path 1-2-3-4-5 whose endpoint
    orders are 1 3 2 5 4 on line 0 and 2 1 4 3 5 on line 1."""
    return TrapezoidRepresentation(
        [
            (0, 1, 4, 5),
            (6, 7, 3, 4),
            (4, 5, 8, 9),
            (10, 11, 6, 7),
            (8, 9, 12, 13),
        ]
    )


def count_interleavings(left_order, right_order):
    """Count the merges of one line's two strict orders in O(n^2).

    A merge is a lattice path from (0, 0) to (n, n) over (opens placed,
    closes placed); the step closing closes[j] at row i is allowed when
    that vertex is among the first i opens.
    """
    opens, closes = _strict_pair(left_order, right_order)
    open_position = {v: i for i, v in enumerate(opens)}
    close_rank = [open_position[v] for v in closes]
    # ways[j]: paths to (i, j); an open step keeps ways[j] for row i + 1.
    ways = [1] + [0] * len(opens)
    for i in range(1, len(opens) + 1):
        for j, rank in enumerate(close_rank):
            if rank < i:
                ways[j + 1] += ways[j]
    return ways[-1]


def count_interleavings_filter(left_order, right_order):
    """Count the merges by testing each of the C(2n, n) placements of the
    open events; a brute-force cross-check for count_interleavings that
    shares no code with it and prunes nothing.

    With the opens placed at slots o_0 < ... < o_(n-1), o_i - i closes come
    before the i-th open, so opens[i] opens before it closes exactly when
    o_i <= latest[i] = i + (the close index of opens[i]).  The count is

        sum(map(all, map(map, repeat(le), combinations(range(2n), n),
                         repeat(latest))))

    so every placement is tested, one `le` per open, inside builtins.
    """
    opens, closes = _strict_pair(left_order, right_order)
    n = len(opens)
    close_index = {v: j for j, v in enumerate(closes)}
    latest = [i + close_index[v] for i, v in enumerate(opens)]
    placements = itertools.combinations(range(2 * n), n)
    return sum(map(all, map(map, itertools.repeat(le), placements, itertools.repeat(latest))))


def _strict_pair(left_order, right_order):
    """The strict sequences of one line's open and close orders, after
    checking that both cover the same number of vertices."""
    if left_order.n != right_order.n:
        raise VertexSetMismatchError(
            f"orders cover {left_order.n} and {right_order.n} vertices"
        )
    return left_order.strict_sequence(), right_order.strict_sequence()


def search_representation(orders, target):
    """Count the pairs of line interleavings with the prescribed orders
    that realize the target graph, and find the first of them.

    orders is (L0, R0, L1, R1), all strict, on the target's vertex set.
    Returns (first_match, match_count) where first_match is a
    TrapezoidRepresentation built from event positions (or None); pairs are
    scanned in lexicographic order, line 0 outermost.

    A pair realizes the target exactly when every non-edge is disjoint on
    both lines in the same direction and no edge is.  Each line keeps only
    the interleavings on which every non-edge is disjoint (`_survivors`);
    the first of them closes every vertex as late as those non-edges allow,
    and its precedence bits are a subset of every other survivor's.  So the
    two first survivors decide: if their common bits put an edge apart, or
    leave a non-edge apart on one line only (or on neither), no pair
    matches and the search returns in O(n^2).  Otherwise they are the first
    match, and only they become coordinates.  The count then follows from
    edge bits alone: line 1 keeps, per edge bit, the bitset of its
    survivors that leave it clear, from one transpose of their masks; a
    line-0 survivor's count is the popcount of the AND of the bitsets of
    the edge bits it sets, memoized under those bits.  Pairs are counted a
    bit each, not tested one by one, so the complete graph, where every
    interleaving survives, does not cost the full product; the count is
    still that of the full product.
    """
    for order in orders:
        if order.n != target.n:
            raise VertexSetMismatchError(
                f"order covers {order.n} vertices, target graph {target.n}"
            )
    l0, r0, l1, r1 = (order.strict_sequence() for order in orders)
    n = target.n
    full = (1 << n) - 1
    apart = [full ^ row for row in target.rows]
    # Bit n*u + v of a line's mask: u closes before v opens.  `separate`
    # holds each non-edge in both directions; a mask never sets a bit n*v + v,
    # so its bits outside `separate` are edges.
    separate = 0
    for u, row in enumerate(apart):
        separate |= row << (n * u)

    line0, line1 = _survivors(l0, r0, apart), _survivors(l1, r1, apart)
    # A line has no survivors only if some non-edge exists; read as mask 0,
    # which sets no non-edge bit, it then fails the test below.
    first0, first1 = next(line0, 0), next(line1, 0)
    both = first0 & first1
    # A line's mask sets at most one direction of each non-edge.
    if both & ~separate or both.bit_count() != separate.bit_count() // 2:
        return None, 0
    c0, c1 = _coordinates(l0, r0, first0), _coordinates(l1, r1, first1)
    first = TrapezoidRepresentation(c0[v] + c1[v] for v in range(n))

    line1 = [first1, *line1]
    # reach: the edge bits some line-1 survivor sets.  Bit i of unset[b]:
    # survivor i leaves edge bit b clear; zip over the masks written in
    # binary transposes them.
    reach = 0
    for mask in line1:
        reach |= mask
    reach &= ~separate
    width = reach.bit_length()
    rows = [f"{mask & reach:0{width}b}" for mask in line1]
    unset = [~int("".join(bits)[::-1], 2) for bits in zip(*rows)][::-1]

    everyone = (1 << len(line1)) - 1
    matches = 0
    # A line-0 survivor's count depends only on its edge bits in reach.
    counts = {}
    for mask in itertools.chain((first0,), line0):
        count = counts.get(mask & reach)
        if count is None:
            free = everyone
            bits = mask & reach
            while free and bits:
                low = bits & -bits
                free &= unset[low.bit_length() - 1]
                bits ^= low
            count = counts[mask & reach] = free.bit_count()
        matches += count
    return first, matches


def _survivors(opens, closes, apart):
    """Yield the interleavings of one line, opening in the order `opens`
    and closing in the order `closes`, on which every non-edge is disjoint,
    as precedence masks in lexicographic order of their event strings, the
    open-event branch first.

    apart[v] is the mask of v's non-neighbours.  Bit n*u + v of a mask is
    set when u closes before v opens; the mask determines its interleaving.
    A non-edge is disjoint exactly when its earlier-opening end closes
    before the other opens, so the j-th close must come before open number
    bound[j]: the open position of the first later-opening non-neighbour of
    closes[j], or of any later close's, as closes keep their order (n if
    there is none).  When some bound[j] is at most the open position of
    closes[j], that close can never be placed and nothing is yielded.
    Otherwise the walk, depth first over the lattice of (opens placed,
    closes placed), the open branch first, on an explicit stack, opens
    while fewer than bound[j] opens are placed and closes once closes[j]
    has opened; every prefix it makes completes, so the first survivor,
    which closes every vertex at its bound, comes after O(n) steps.  Once
    every vertex has opened, the remaining closes are forced and set no
    mask bit.
    """
    n = len(opens)
    open_position = [0] * n
    for i, v in enumerate(opens):
        open_position[v] = i
    bound = [n] * (n + 1)
    for j in range(n - 1, -1, -1):
        v = closes[j]
        if bound[j + 1] <= open_position[v]:
            return
        # Capping the scan at bound[j + 1] takes the suffix minimum.
        i = open_position[v] + 1
        while i < bound[j + 1] and not apart[v] >> opens[i] & 1:
            i += 1
        bound[j] = i
    later = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        later[i] = later[i + 1] | (1 << opens[i])
    # Each entry: opens placed, closes placed, mask so far.  The walk
    # follows open steps in place and stacks the close branch it passes, so
    # the open branch still comes first; where no open fits before the
    # close (i has reached bound[j], which it never passes), it closes.
    stack = [(0, 0, 0)]
    while stack:
        i, j, mask = stack.pop()
        while i < n:
            v = closes[j]
            if open_position[v] < i:
                closed = (i, j + 1, mask | later[i] << (n * v))
                if i == bound[j]:
                    i, j, mask = closed
                    continue
                stack.append(closed)
            i += 1
        yield mask


def _coordinates(opens, closes, mask):
    """The (left, right) event positions per vertex of the interleaving
    of `opens` and `closes` with this precedence mask.

    Row v of the mask holds the vertices that open after v closes, so its
    complement counts the opens placed before that close.
    """
    n = len(opens)
    full = (1 << n) - 1
    close_rows = [n - (mask >> (n * v) & full).bit_count() for v in closes]
    left = [0] * n
    right = [0] * n
    for j, v in enumerate(closes):
        right[v] = close_rows[j] + j
    for i, v in enumerate(opens):
        left[v] = i + bisect_right(close_rows, i)
    return list(zip(left, right))


def parse_trapezoid(text, source="<trapezoid>"):
    """Parse the trapezoid format: a line "n", then n lines "v l0 r0 l1 r1"."""
    body, (n,) = _records.read(text, source, 1, "header must be a single integer: n",
                               "vertex count must be nonnegative", "rows")
    rows = [None] * n
    usage = "row must be five integers: v l0 r0 l1 r1"
    for i, (v, l0, r0, l1, r1) in _records.records(body, source, 5, usage, ids=n):
        if l0 > r0 or l1 > r1:
            raise ParseError(source, i, "interval endpoints out of order")
        rows[v - 1] = (l0, r0, l1, r1)
    return TrapezoidRepresentation(rows)


def format_trapezoid(t):
    return _records.render([(t.n,)] + [(v + 1, *row) for v, row in enumerate(t.rows)])


def load_trapezoid(path):
    return _records.load(path, parse_trapezoid)


def save_trapezoid(t, path):
    _records.save(path, format_trapezoid(t))


_ORDER_LABELS = ("L0", "R0", "L1", "R1")


def parse_orders(text, source="<orders>"):
    """Parse four labeled strict orders, one per line:

        L0: 1 3 2 5 4
        R0: ...
        L1: ...
        R1: ...

    Each line lists every vertex exactly once, 1-based, smallest first.
    """
    end, count = _records.content(text)
    if count != 4:
        raise ParseError(source, max(1, count), "expected exactly four order lines")
    orders = []
    n = None
    for i, (label, line) in enumerate(zip(_ORDER_LABELS, _records.lines(text, 0, end)), start=1):
        parts = line.split()
        if not parts or parts[0] != f"{label}:":
            raise ParseError(source, i, f'line must start with "{label}:"')
        try:
            sequence = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(source, i, "order entries must be integers") from None
        if n is None:
            n = len(sequence)
        if len(sequence) != n or sorted(sequence) != list(range(1, n + 1)):
            raise ParseError(
                source, i, f"order must list each vertex 1..{n} exactly once"
            )
        orders.append(WeakOrder.from_sequence([v - 1 for v in sequence]))
    return tuple(orders)


def format_orders(orders):
    # The order is one field, so an empty order still renders as "L0: ".
    return _records.render(
        (f"{label}:", " ".join(str(v + 1) for v in order.strict_sequence()))
        for label, order in zip(_ORDER_LABELS, orders)
    )


def load_orders(path):
    return _records.load(path, parse_orders)


def save_orders(orders, path):
    _records.save(path, format_orders(orders))
