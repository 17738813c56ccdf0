"""Trapezoid representations on two parallel lines and the exhaustive
search over endpoint interleavings."""

import itertools

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
    both lines in the same direction and no edge is.  So each line keeps
    only the interleavings on which every non-edge is disjoint; on those,
    the direction of each non-edge is a bit, and the bits form a key.  A
    pair can match only if its two keys are equal, so the search is a hash
    join on that key.  Line-1 interleavings are bucketed by key in
    enumeration order, and each line-0 interleaving tests its bucket alone
    for edges disjoint in the same direction on both lines, which keeps the
    first match and the count of the full product.  The cost is one mask
    build per interleaving of either line (one shifted n-bit OR per close
    event) plus one big-int AND per pair inside a bucket.  With few
    non-edges the buckets are few and large: the complete graph
    degenerates to the full product.
    """
    l0, r0, l1, r1 = orders
    for order in orders:
        if order.n != target.n:
            raise VertexSetMismatchError(
                f"order covers {order.n} vertices, target graph {target.n}"
            )
    n = target.n
    # Bit n*u + v of a line's mask: u closes before v opens.  `want` holds
    # each non-edge in both directions, `forward` only from u < v, and
    # `edges` each edge in both directions.
    full = (1 << n) - 1
    want = forward = edges = 0
    for u, row in enumerate(target.rows):
        adjacent = row ^ (1 << u)
        apart = full ^ row
        want |= apart << (n * u)
        forward |= (apart >> (u + 1)) << (n * u + u + 1)
        edges |= adjacent << (n * u)
    non_edges = n * (n - 1) // 2 - target.m

    def joinable(left_order, right_order):
        # Yields (key, edge mask, interleaving) for every interleaving on
        # which each non-edge is disjoint; a non-edge sets at most one of
        # its two bits.
        opens = left_order.strict_sequence()
        later = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            later[i] = later[i + 1] | (1 << opens[i])
        for itl in enumerate_interleavings(left_order, right_order):
            mask = opened = 0
            for tag, v in itl.events:
                if tag == LEFT:
                    opened += 1
                else:
                    mask |= later[opened] << (n * v)
            if (mask & want).bit_count() == non_edges:
                yield mask & forward, mask & edges, itl

    buckets = {}
    for key, edges1, itl1 in joinable(l1, r1):
        buckets.setdefault(key, []).append((edges1, itl1))
    first = None
    matches = 0
    for key, edges0, itl0 in joinable(l0, r0):
        for edges1, itl1 in buckets.get(key, ()):
            if not edges0 & edges1:
                matches += 1
                if first is None:
                    c0, c1 = itl0.coordinates(), itl1.coordinates()
                    first = TrapezoidRepresentation(c0[v] + c1[v] for v in range(n))
    return first, matches


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
