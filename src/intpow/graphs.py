"""Simple undirected graphs, hop distances, and graph powers."""

import itertools
from functools import reduce
from operator import or_

from . import _records
from .errors import InvalidKError, InvalidVertexError, ParseError, VertexSetMismatchError

__all__ = [
    "Graph",
    "UNREACHABLE",
    "bfs_distances",
    "connected_components",
    "format_graph",
    "graph_power",
    "graph_power_oracle",
    "load_graph",
    "parse_graph",
    "save_graph",
    "widen_balls",
]

# Marker for vertices not reachable from the BFS source.
UNREACHABLE = None

# Largest vertex count a graph file may declare.  Past parsing, the graph
# commands work on n rows of n-bit masks, n^2 vertex pairs or n BFS passes,
# so a larger graph cannot finish, and rejecting the header keeps
# parse_graph from allocating n neighbour lists.
MAX_VERTICES = 2**20

# bfs_distances uses adjacency bitmasks from this average degree up, and a
# list queue below it.  The bitset BFS takes n/4 table lookups, an OR per
# nonzero entry and a few O(n) passes per level, where the list BFS takes
# one step per adjacency entry.  On random interval graphs the two cross at
# average degree below 16 for n = 150, about 18 for n = 400, 23 for n = 800
# and 29 for n = 1600: the bitset BFS takes 0.7-3.1x the list BFS's time at
# degree 16, 0.21-0.89x at degree 32-33, 0.09-0.25x at degree 60 and
# 0.02-0.04x at degree 100-151 (2-core VM, Python 3.11).  A lower cut would
# gain on such graphs, but no benchmark workload draws graphs near it.
BITSET_MIN_AVERAGE_DEGREE = 32

# The bitset BFS reads each frontier as hex digits, one per block of four
# vertices, and lists the few vertices it must write one by one with
# itertools.compress, whose selectors _BIT_SELECTORS maps from the binary
# digits.
_HEX_DIGITS = "0123456789abcdef"
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    The edges are stored once, as a sorted tuple of neighbours per vertex;
    `edge_set` builds a frozenset of the pairs (u, v), u < v, on each read,
    in O(m).  `rows` holds the same adjacency as closed-neighbourhood
    bitmasks, the form in which the package compares adjacency; it is kept
    once built and ignored by equality and hashing.  Powers and the
    intersection graphs of interval and of trapezoid representations are
    computed as rows and built by `_from_rows`.  `_tables`, also ignored by
    equality and hashing, holds the bitset BFS's block tables
    (`_block_tables`) from the graph's first dense search on: about four
    times the memory of `rows`, 237 KiB against 61 KiB at n = 600.
    """

    __slots__ = ("n", "_adjacency", "_m", "_rows", "_tables")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adjacency = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adjacency[u].append(v)
            adjacency[v].append(u)
        if repeat := _sort_rows(adjacency):
            raise ValueError(f"duplicate edge {repeat}")
        self._store(adjacency, None)

    @classmethod
    def _from_rows(cls, rows):
        """The graph whose closed neighbourhoods are rows, which it keeps.

        Trusted: rows must be symmetric, with bit x set in rows[x].  Each
        set bit y > x of rows[x] is found by a lowest-set-bit step and
        appended to the lists of x and y, so the lists come out sorted and
        the cost is one step per edge, not one per bit position.
        """
        adjacency = [[] for _ in rows]
        for x, row in enumerate(rows):
            nbrs = adjacency[x]
            row >>= x + 1
            y = x
            while row:
                skip = (row & -row).bit_length()
                y += skip
                row >>= skip
                nbrs.append(y)
                adjacency[y].append(x)
        return cls.__new__(cls)._store(adjacency, tuple(rows))

    def _store(self, adjacency, rows):
        """Keep sorted, repeat-free neighbour lists (trusted); returns self.

        Each list becomes a tuple in place, so the lists and the tuples are
        never all held at once.
        """
        for x, nbrs in enumerate(adjacency):
            adjacency[x] = tuple(nbrs)
        self.n = len(adjacency)
        self._adjacency = tuple(adjacency)
        self._m = sum(map(len, adjacency)) // 2
        self._rows = rows
        self._tables = None
        return self

    @classmethod
    def path(cls, n):
        """The path on n vertices, 0 - 1 - ... - (n-1)."""
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete(cls, n):
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @property
    def m(self):
        return self._m

    @property
    def edge_set(self):
        return frozenset((u, v) for u, row in enumerate(self._adjacency) for v in row if u < v)

    @property
    def rows(self):
        """Closed neighbourhoods as bitmasks: bit y of rows[x] is set iff
        x == y or x and y are adjacent.  Unless the graph was built from its
        rows, the first read widens the radius-0 balls {x} by one hop
        (`widen_balls`, one OR per vertex and per adjacency entry), and the
        result is kept for later reads."""
        if self._rows is None:
            self._rows = tuple(widen_balls(self, [1 << x for x in range(self.n)]))
        return self._rows

    def neighbors(self, v):
        if not 0 <= v < self.n:
            raise InvalidVertexError(f"vertex {v} out of range for {self.n} vertices")
        return self._adjacency[v]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __hash__(self):
        return hash(self._adjacency)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _sort_rows(adjacency):
    """Sort each neighbour list in place; return the first repeated pair
    (u, v) in row order, which has u < v, or None if no list repeats."""
    for u, nbrs in enumerate(adjacency):
        nbrs.sort()
        if len(set(nbrs)) < len(nbrs):
            return u, next(a for a, b in zip(nbrs, nbrs[1:]) if a == b)


def bfs_distances(g, source):
    """Hop distances from source to every vertex.

    Returns a list indexed by vertex; vertices in other components get
    UNREACHABLE (None).  Graphs of average degree BITSET_MIN_AVERAGE_DEGREE
    or more are searched level by level over `g.rows`, after one n-bit OR
    per adjacency entry to build the rows once per graph.  Each next
    frontier is the union of the current one's rows less the reached
    vertices, found by one lookup per hex digit of the frontier in
    `_block_tables` and an OR of the nonzero entries, with no vertex
    listed; once every vertex is reached, the search stops.  Each level's
    vertices are recorded as that level's byte, the frontier's binary
    digits translated, in one int whose bytes become the distances at the
    end.
    Only vertices past level 255 and unreachable ones are listed and
    written one by one.  Sparser graphs are searched with a queue over
    adjacency lists, O(n + m) per call.
    """
    if not 0 <= source < g.n:
        raise InvalidVertexError(f"vertex {source} out of range for {g.n} vertices")
    if 2 * g.m >= BITSET_MIN_AVERAGE_DEGREE * g.n:
        n, rows = g.n, g.rows
        if g._tables is None:
            g._tables = _block_tables(rows)
        tables = g._tables
        unseen = ((1 << n) - 1) ^ (1 << source)
        frontier = rows[source] & unseen
        levels = 0  # byte v is the level of v, up to 255
        deep = []
        level = 0
        while frontier:
            level += 1
            unseen ^= frontier
            if level < 256:
                marks = bytes.maketrans(b"01", bytes((0, level)))
                levels |= int.from_bytes(format(frontier, f"0{n}b").encode().translate(marks), "big")
            else:
                deep.append((level, frontier))
            if not unseen:
                break
            blocks = format(frontier, f"0{len(tables)}x")
            entries = filter(None, map(dict.__getitem__, tables, blocks))
            frontier = reduce(or_, entries, 0) & unseen
        dist = list(levels.to_bytes(n, "little"))
        for level, frontier in deep:
            for v in _vertices(frontier, n):
                dist[v] = level
        if unseen:
            for v in _vertices(unseen, n):
                dist[v] = UNREACHABLE
        return dist
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    adjacency = g._adjacency
    queue = [source]
    for u in queue:
        d = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] is UNREACHABLE:
                dist[w] = d
                queue.append(w)
    return dist


def _block_tables(rows):
    """The bitset BFS's lookup tables (the Method of Four Russians): one
    dict per block of four vertices, the highest block first, mapping each
    hex digit d to the union of the rows of the block's vertices named by
    the bits of d.  The one-vertex entries are the rows themselves, so a
    block costs 11 ORs; a last, partial block has entries only for the
    digits its vertices can make."""
    tables = []
    for base in range(0, len(rows), 4):
        entries = [0]
        for row in rows[base:base + 4]:
            entries += [row] + [entry | row for entry in entries[1:]]
        tables.append(dict(zip(_HEX_DIGITS, entries)))
    tables.reverse()
    return tables


def _vertices(mask, n):
    """The vertices of an n-bit mask, from the highest down."""
    digits = format(mask, f"0{n}b").encode().translate(_BIT_SELECTORS)
    return itertools.compress(range(n - 1, -1, -1), digits)


def widen_balls(g, balls):
    """Grow distance balls by one hop.

    balls[x] is the bitmask of the vertices within distance j of x, as in
    g.rows for j = 1; the result holds those within j + 1.  One big-int OR
    per vertex and per adjacency entry, n + 2m in all.
    """
    if len(balls) != g.n:
        raise VertexSetMismatchError(f"graph has {g.n} vertices, {len(balls)} balls given")
    wider = []
    for row, nbrs in zip(balls, g._adjacency):
        for z in nbrs:
            row |= balls[z]
        wider.append(row)
    return wider


def _power_rows(g, k):
    """Closed rows of the k-th power of g: bit y of the row of x is set iff
    y is within distance k of x.  One bfs_distances call per vertex, whose
    distances are packed into an int as binary digits: as bytes translated
    by a table of 256 digits and reversed, or, for a list that holds
    UNREACHABLE or a distance past 255, joined from a table over 0..n-1.
    """
    near = b"".join(b"1" if d <= k else b"0" for d in range(256))
    # Distances never exceed n - 1, so a table over 0..n-1 serves any k.
    digit = {d: "1" if d <= k else "0" for d in range(g.n)}
    digit[UNREACHABLE] = "0"
    rows = []
    for x in range(g.n):
        dist = bfs_distances(g, x)
        try:
            digits = bytes(dist).translate(near)[::-1]
        except (TypeError, ValueError):
            digits = "".join(map(digit.__getitem__, reversed(dist)))
        rows.append(int(digits, 2))
    return rows


def graph_power(g, k):
    """The k-th power of g: an edge for every pair at distance 1..k.

    Widens the distance balls from `g.rows` k - 1 times (`widen_balls`,
    n + 2m ORs each) and stops at the first widen that changes nothing, so
    no k takes more widens than the diameter.  From k = n - 1 on, past any
    diameter, each ball is the vertex's connected component, whose masks
    are built from `connected_components` in O(n + m) steps instead.  The
    balls become the power's rows, kept by `_from_rows`; no breadth-first
    search is run.
    """
    if k < 1:
        raise InvalidKError(f"graph power requires k >= 1, got {k}")
    if k >= g.n - 1:
        balls = {}
        for component in connected_components(g):
            balls.update(dict.fromkeys(component, sum(1 << v for v in component)))
        return Graph._from_rows([balls[v] for v in range(g.n)])
    balls = list(g.rows)
    for _ in range(k - 1):
        wider = widen_balls(g, balls)
        if wider == balls:
            break
        balls = wider
    return Graph._from_rows(balls)


def graph_power_oracle(g, k):
    """Brute-force k-th power via boolean matrix multiplication.

    Takes the k-fold product of (adjacency OR identity), built from
    `edge_set`, as bitmask rows: a dense-matrix route with no code shared
    with BFS or `widen_balls`, intended for cross-checks at small n.  No
    distance exceeds n - 1, so at most n - 1 products are taken whatever k
    is, and the products stop at the first one that changes no row: every
    later one would repeat it.  The rows go to `_from_rows`, the one step
    shared with `graph_power`, so tests also compare the two routes'
    `.rows`, which that step does not touch.
    """
    if k < 1:
        raise InvalidKError(f"graph power requires k >= 1, got {k}")
    n = g.n
    base = [1 << i for i in range(n)]
    for u, v in g.edge_set:
        base[u] |= 1 << v
        base[v] |= 1 << u
    result = [1 << i for i in range(n)]
    for _ in range(min(k, n - 1)):
        product = [_row_times_matrix(row, base) for row in result]
        if product == result:
            break
        result = product
    return Graph._from_rows(result)


def _row_times_matrix(row, matrix):
    acc = 0
    while row:
        low = row & -row
        acc |= matrix[low.bit_length() - 1]
        row ^= low
    return acc


def connected_components(g):
    """Vertex lists of the connected components.

    Each component is sorted ascending; components are ordered by their
    smallest vertex.
    """
    seen = [False] * g.n
    components = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for u in component:
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        components.append(sorted(component))
    return components


def parse_graph(text, source="<graph>"):
    """Parse the graph file format: a header line "n m", then m lines "u v".

    Vertex ids in the file are 1-based with u < v.  One pass over the edge
    lines appends each edge to both neighbour lists, their entries drawn
    from one table of vertex ids; each list is then sorted and checked for
    a repeat once, with no set of pairs kept and no second validation.
    Every error names the first bad line in file order.  The pass stops at
    the first malformed line, loop or out-of-range pair; only then, or when
    a list repeats, are the lines before it read again with a set, so that
    a duplicate edge there is reported at its second occurrence instead.  A
    vertex count above MAX_VERTICES is rejected on line 1.
    """
    body, (n, _) = _records.read(text, source, 2, "header must be two integers: n m",
                                 "vertex and edge counts must be nonnegative", "edge lines")
    if n > MAX_VERTICES:
        raise ParseError(source, 1, f"vertex count {n} exceeds the limit {MAX_VERTICES}")
    # vertex[u] is u - 1: every list entry for a vertex is one shared int.
    vertex = list(range(-1, n))
    adjacency = [[] for _ in range(n)]
    try:
        for i, (u, v) in _records.records(body, source, 2, "edge line must be two integers: u v"):
            if u == v:
                raise ParseError(source, i, f"self-loop at vertex {u}")
            if not (1 <= u < v <= n):
                raise ParseError(source, i, f"edge ({u}, {v}) must satisfy 1 <= u < v <= {n}")
            adjacency[vertex[u]].append(vertex[v])
            adjacency[vertex[v]].append(vertex[u])
    except ParseError as error:
        raise _duplicate_error(body, source, error.line) or error from None
    if _sort_rows(adjacency):
        raise _duplicate_error(body, source, body.size + 2)
    return Graph.__new__(Graph)._store(adjacency, None)


def _duplicate_error(body, source, end):
    """The ParseError for the first of lines 2..end-1 that repeats an
    earlier edge, or None if none does; those lines hold valid edges.  They
    are read again from the text, and line end is not read."""
    seen = set()
    for i, (u, v) in itertools.islice(_records.records(body, source, 2, None), end - 2):
        if (u, v) in seen:
            return ParseError(source, i, f"duplicate edge ({u}, {v})")
        seen.add((u, v))


def format_graph(g):
    """Render a graph in the file format, edges sorted, vertex ids 1-based."""
    edges = [(u + 1, v + 1) for u, row in enumerate(g._adjacency) for v in row if u < v]
    return _records.render([(g.n, g.m), *edges])


def load_graph(path):
    return _records.load(path, parse_graph)


def save_graph(g, path):
    _records.save(path, format_graph(g))
