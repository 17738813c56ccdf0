"""Trapezoid representations on two parallel lines and the exhaustive
search over endpoint interleavings."""

import itertools
from bisect import bisect_right

from . import _records
from .errors import ParseError, VertexSetMismatchError
from .graphs import Graph
from .intervals import WeakOrder

__all__ = [
    "Interleaving",
    "LEFT",
    "RIGHT",
    "TrapezoidRepresentation",
    "count_interleavings",
    "count_interleavings_filter",
    "enumerate_interleavings",
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

LEFT = "L"
RIGHT = "R"


class TrapezoidRepresentation:
    """Per vertex, one closed integer interval on each of two lines.

    Row v is (l0, r0, l1, r1); degenerate rows where an interval is a
    single point are allowed.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        cleaned = []
        for v, row in enumerate(rows):
            l0, r0, l1, r1 = row
            if l0 > r0 or l1 > r1:
                raise ValueError(f"vertex {v}: interval endpoints out of order")
            cleaned.append((l0, r0, l1, r1))
        self.rows = tuple(cleaned)

    @property
    def n(self):
        return len(self.rows)

    def interval(self, v, line):
        l0, r0, l1, r1 = self.rows[v]
        return (l0, r0) if line == 0 else (l1, r1)

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
    the other starts on both lines; every other pair is an edge."""
    edges = []
    for u in range(t.n):
        l0u, r0u, l1u, r1u = t.rows[u]
        for v in range(u + 1, t.n):
            l0v, r0v, l1v, r1v = t.rows[v]
            u_before_v = r0u < l0v and r1u < l1v
            v_before_u = r0v < l0u and r1v < l1u
            if not (u_before_v or v_before_u):
                edges.append((u, v))
    return Graph(t.n, edges)


def trapezoid_orders(t):
    """The four endpoint orders (L0, R0, L1, R1)."""
    return (
        WeakOrder.from_keys(row[0] for row in t.rows),
        WeakOrder.from_keys(row[1] for row in t.rows),
        WeakOrder.from_keys(row[2] for row in t.rows),
        WeakOrder.from_keys(row[3] for row in t.rows),
    )


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


class Interleaving:
    """One line's endpoint sequence: 2n tagged events, each vertex opening
    before it closes."""

    __slots__ = ("events",)

    def __init__(self, events):
        events = tuple((tag, v) for tag, v in events)
        opened = set()
        closed = set()
        for tag, v in events:
            if tag == LEFT:
                if v in opened:
                    raise ValueError(f"vertex {v} opens twice")
                opened.add(v)
            elif tag == RIGHT:
                if v not in opened:
                    raise ValueError(f"vertex {v} closes before opening")
                if v in closed:
                    raise ValueError(f"vertex {v} closes twice")
                closed.add(v)
            else:
                raise ValueError(f"unknown event tag {tag!r}")
        if opened != closed or opened != set(range(len(events) // 2)):
            raise ValueError("events must pair one open and one close per vertex 0..n-1")
        self.events = events

    @classmethod
    def _trusted(cls, events):
        # For merges the enumerator builds, which are valid by construction.
        itl = cls.__new__(cls)
        itl.events = tuple(events)
        return itl

    @property
    def n(self):
        return len(self.events) // 2

    def coordinates(self):
        """The (left, right) coordinate pair per vertex, using each event's
        position 0..2n-1 as its coordinate."""
        left = [0] * self.n
        right = [0] * self.n
        for position, (tag, v) in enumerate(self.events):
            if tag == LEFT:
                left[v] = position
            else:
                right[v] = position
        return list(zip(left, right))

    def __eq__(self, other):
        if not isinstance(other, Interleaving):
            return NotImplemented
        return self.events == other.events

    def __hash__(self):
        return hash(self.events)

    def __repr__(self):
        return "Interleaving(%s)" % "".join(f"{tag}{v}" for tag, v in self.events)


def enumerate_interleavings(left_order, right_order):
    """Return an iterator over every merge of the two endpoint sequences
    on one line.

    left_order and right_order must be strict; the merge keeps both
    subsequences intact and opens every vertex before closing it.  Results
    stream in lexicographic order, the open-event branch first.  Order
    validation happens eagerly, before the first item is requested.
    """
    if left_order.n != right_order.n:
        raise VertexSetMismatchError(
            f"orders cover {left_order.n} and {right_order.n} vertices"
        )
    opens = left_order.strict_sequence()
    closes = right_order.strict_sequence()
    n = len(opens)
    open_position = {v: i for i, v in enumerate(opens)}

    def walk():
        # Lexicographic successor: pop events until an open can become the
        # next close, place that close, then open the rest and close the rest.
        events = []
        i = j = 0
        while True:
            events += [(LEFT, v) for v in opens[i:]] + [(RIGHT, v) for v in closes[j:]]
            yield Interleaving._trusted(events)
            i = n
            while events:
                if events.pop()[0] == LEFT:
                    i -= 1
                    j = len(events) - i
                    if open_position[closes[j]] < i:
                        break
            else:
                return
            events.append((RIGHT, closes[j]))
            j += 1

    return walk()


def count_interleavings(left_order, right_order):
    """Count the merges of one line's two strict orders in O(n^2).

    A merge is a lattice path from (0, 0) to (n, n) over (opens placed,
    closes placed); the step closing closes[j] at row i is allowed when
    that vertex is among the first i opens.
    """
    if left_order.n != right_order.n:
        raise VertexSetMismatchError(
            f"orders cover {left_order.n} and {right_order.n} vertices"
        )
    opens = left_order.strict_sequence()
    closes = right_order.strict_sequence()
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
    """Count the merges by filtering all C(2n, n) placements of the open
    events.  Brute-force cross-check for enumerate_interleavings."""
    opens = left_order.strict_sequence()
    closes = right_order.strict_sequence()
    n = len(opens)
    if right_order.n != n:
        raise VertexSetMismatchError(
            f"orders cover {n} and {right_order.n} vertices"
        )
    count = 0
    for open_slots in itertools.combinations(range(2 * n), n):
        slots = [None] * (2 * n)
        for i, position in enumerate(open_slots):
            slots[position] = (LEFT, opens[i])
        fill = iter(closes)
        for position in range(2 * n):
            if slots[position] is None:
                slots[position] = (RIGHT, next(fill))
        seen_open = set()
        for tag, v in slots:
            if tag == LEFT:
                seen_open.add(v)
            elif v not in seen_open:
                break
        else:
            count += 1
    return count


def search_representation(orders, target):
    """Exhaust every pair of line interleavings with the prescribed orders
    and test which ones realize the target graph.

    orders is (L0, R0, L1, R1), all strict, on the target's vertex set.
    Returns (first_match, match_count) where first_match is a
    TrapezoidRepresentation built from event positions (or None); pairs are
    scanned in lexicographic order, line 0 outermost.

    A pair realizes the target exactly when every non-edge is disjoint on
    both lines in the same direction and no edge is.  A non-edge disjoint
    on a line lies in the order its ends open in, so no pair matches when
    L0 and L1 order the ends of some non-edge differently.  Otherwise each
    line walks its lattice of interleavings depth first and cuts a prefix
    as soon as a vertex opens while one of its non-neighbours is open, so
    it completes only the interleavings on which every non-edge is
    disjoint, and builds each one's precedence mask as it walks, one
    shifted n-bit OR per close event.  Line 1 keeps, per edge bit, the
    bitset of its interleavings that leave it clear, from one transpose of
    their masks.  A line-0 interleaving's partners are the AND of the
    bitsets of the edge bits it sets, and its count, their popcount, is
    memoized under those bits.  Pairs are counted a bit each, not tested
    one by one, so the complete graph, where every interleaving survives,
    no longer costs the full product.  The count is that of the full
    product, and the first match pairs the first line-0 interleaving that
    has a partner with its first partner; only that pair becomes
    coordinates.
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
    rank0, rank1 = orders[0].ranks, orders[2].ranks
    if any((rank0[u] < rank0[v]) != (rank1[u] < rank1[v])
           for u in range(n) for v in range(u + 1, n) if apart[u] >> v & 1):
        return None, 0
    # Bit n*u + v of a line's mask: u closes before v opens.  `edges` holds
    # each edge in both directions.
    edges = 0
    for u, row in enumerate(target.rows):
        edges |= (row ^ (1 << u)) << (n * u)

    line1 = _survivors(l1, r1, apart)
    # reach: the edge bits some line-1 survivor sets.  Bit i of unset[b]:
    # survivor i leaves edge bit b clear; zip over the masks written in
    # binary transposes them.
    reach = 0
    for mask in line1:
        reach |= mask
    reach &= edges
    width = reach.bit_length()
    rows = [f"{mask & reach:0{width}b}" for mask in line1]
    unset = [~int("".join(bits)[::-1], 2) for bits in zip(*rows)][::-1]

    everyone = (1 << len(line1)) - 1
    first = None
    matches = 0
    # A line-0 survivor's count depends only on its edge bits in reach.
    counts = {}
    for mask in _survivors(l0, r0, apart):
        count = counts.get(mask & reach)
        if count is None:
            free = everyone
            bits = mask & reach
            while free and bits:
                low = bits & -bits
                free &= unset[low.bit_length() - 1]
                bits ^= low
            count = counts[mask & reach] = free.bit_count()
            if free and first is None:
                c0 = _coordinates(l0, r0, mask)
                c1 = _coordinates(l1, r1, line1[(free & -free).bit_length() - 1])
                first = TrapezoidRepresentation(c0[v] + c1[v] for v in range(n))
        matches += count
    return first, matches


def _survivors(opens, closes, apart):
    """The interleavings of one line, opening in the order `opens` and
    closing in the order `closes`, on which every non-edge is disjoint, as
    precedence masks in the enumerator's order.

    apart[v] is the mask of v's non-neighbours.  Bit n*u + v of a mask is
    set when u closes before v opens; the mask determines its interleaving.
    The walk is depth first over the lattice of (opens placed, closes
    placed), the open branch first, on an explicit stack; a prefix is cut
    when a vertex opens while one of its non-neighbours is open.  Once
    every vertex has opened, the remaining closes are forced and set no
    mask bit.
    """
    n = len(opens)
    open_position = [0] * n
    for i, v in enumerate(opens):
        open_position[v] = i
    later = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        later[i] = later[i + 1] | (1 << opens[i])
    survivors = []
    # Each entry: opens placed, closes placed, open set, mask so far.
    # The walk follows open steps in place and stacks the close branch it
    # passes, so the open branch still comes first.
    stack = [(0, 0, 0, 0)]
    while stack:
        i, j, live, mask = stack.pop()
        while i < n:
            v = closes[j]
            if open_position[v] < i:
                stack.append((i, j + 1, live ^ (1 << v), mask | later[i] << (n * v)))
            v = opens[i]
            if live & apart[v]:
                break
            i += 1
            live |= 1 << v
        else:
            survivors.append(mask)
    return survivors


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
    lines, (n,) = _records.read(text, source, 1, "header must be a single integer: n",
                                "vertex count must be nonnegative", "rows")
    rows = [None] * n
    usage = "row must be five integers: v l0 r0 l1 r1"
    for i, (v, l0, r0, l1, r1) in _records.records(lines, source, 5, usage, ids=n):
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
    lines = _records.content_lines(text)
    if len(lines) != 4:
        raise ParseError(source, max(1, len(lines)), "expected exactly four order lines")
    orders = []
    n = None
    for i, (label, line) in enumerate(zip(_ORDER_LABELS, lines), start=1):
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
