"""Shared generators and oracles for the test modules.

The random generators take a seeded random.Random so that every suite run
sees the same instances; the hypothesis strategies mirror them for the
property tests.
"""

import collections
import contextlib
import itertools

import pytest
from hypothesis import strategies as st

from intpow import (
    Graph,
    InfeasibleConstraintsError,
    IntervalRepresentation,
    InvalidKError,
    NotProperError,
    TrapezoidRepresentation,
    VertexSetMismatchError,
    WeakOrder,
    connected_components,
    endpoint_orders,
    extend_representation,
    intersection_graph,
    intersection_rows,
    iterate_powers,
    trapezoid_intersection_graph,
)
from intpow import _records
from intpow.errors import ParseError


def random_graph(rng, max_n=12, edge_prob=None):
    n = rng.randint(1, max_n)
    p = rng.uniform(0.05, 0.9) if edge_prob is None else edge_prob
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_representation(rng, max_n=25, coord_max=100):
    n = rng.randint(1, max_n)
    rows = []
    for _ in range(n):
        a = rng.randint(0, coord_max)
        b = rng.randint(0, coord_max)
        rows.append((min(a, b), max(a, b)))
    return IntervalRepresentation(rows)


def random_connected_representation(rng, max_n=25, coord_max=100):
    """Random representation whose intersection graph is connected.

    Rejection sampling with a deterministic chained fallback, so the
    function always terminates.
    """
    n = rng.randint(2, max_n)
    for _ in range(500):
        rows = []
        for _ in range(n):
            left = rng.randint(0, coord_max)
            right = min(coord_max, left + rng.randint(0, coord_max // 2))
            rows.append((left, right))
        r = IntervalRepresentation(rows)
        if len(connected_components(intersection_graph(r))) == 1:
            return r
    step = max(1, coord_max // (n + 1))
    rows = [(i * step, i * step + step + 1) for i in range(n)]
    return IntervalRepresentation(rows)


def random_strict_connected_representation(rng, max_n=40, max_reach=8):
    """Random representation on n = 2..max_n vertices with a connected
    intersection graph and strict endpoint orders.

    Lefts advance by 0..2, and an interval is lengthened to the next left
    where the union would break.  Ties are then broken at random without
    changing the graph: a coordinate c becomes c * (2n + 1), minus a
    distinct 1..n on lefts and plus one on rights, so touching intervals
    still meet and disjoint ones stay apart.
    """
    n = rng.randint(2, max_n)
    reach = rng.randint(0, max_reach)
    lefts = [0]
    for _ in range(n - 1):
        lefts.append(lefts[-1] + rng.randint(0, 2))
    rights = [left + rng.randint(0, reach) for left in lefts]
    furthest = rights[0]
    for i in range(1, n):
        if lefts[i] > furthest:
            rights[i - 1] = lefts[i]
        furthest = max(furthest, rights[i - 1], rights[i])
    left_ties, right_ties = rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n)
    scale = 2 * n + 1
    rows = [
        (left * scale - a, right * scale + b)
        for left, right, a, b in zip(lefts, rights, left_ties, right_ties)
    ]
    rng.shuffle(rows)
    return IntervalRepresentation(rows)


def random_proper_representation(rng, max_n=15, coord_max=200, twin_prob=0.2):
    """Random proper representation: 2n distinct points tagged as a valid
    open/close sequence, i-th open paired with i-th close, so both endpoint
    orders are the same strict order.  Occasionally duplicates one interval
    to cover exact ties."""
    n = rng.randint(1, max_n)
    coords = sorted(rng.sample(range(coord_max + 1), 2 * n))
    opens, closes = [], []
    for value in coords:
        can_open = len(opens) < n
        can_close = len(closes) < len(opens)
        if can_open and (not can_close or rng.random() < 0.5):
            opens.append(value)
        else:
            closes.append(value)
    rows = list(zip(opens, closes))
    if n >= 2 and rng.random() < twin_prob:
        i, j = rng.sample(range(n), 2)
        rows[i] = rows[j]
    return IntervalRepresentation(rows)


def random_proper_chain(rng, n):
    """Connected proper representation on n vertices: intervals open and
    close in the same order at 2n consecutive integers, with at most three
    open at once and never none before the last one opens (about 1.5 edges
    per vertex)."""
    left, right = [0] * n, [0] * n
    opened = closed = 0
    for position in range(2 * n):
        active = opened - closed
        if opened < n and (active <= 1 or (active == 2 and rng.random() < 0.5)):
            left[opened] = position
            opened += 1
        else:
            right[closed] = position
            closed += 1
    return IntervalRepresentation(zip(left, right))


def random_strict_trapezoid(rng, max_n=8):
    """Random trapezoid representation with all 2n endpoints distinct on
    each line, so all four endpoint orders are strict."""
    n = rng.randint(1, max_n)

    def line():
        values = rng.sample(range(4 * n), 2 * n)
        rows = []
        for i in range(n):
            a, b = values[2 * i], values[2 * i + 1]
            rows.append((min(a, b), max(a, b)))
        return rows

    first, second = line(), line()
    return TrapezoidRepresentation(
        [first[v] + second[v] for v in range(n)]
    )


def strict_representations(n):
    """Every strict interval representation on n vertices up to relabeling:
    one per perfect matching of the 2n event positions 0..2n-1, each pair
    an interval, rows by left endpoint.  There are (2n - 1)!! of them."""

    def matchings(free):
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        for i, partner in enumerate(rest):
            for tail in matchings(rest[:i] + rest[i + 1:]):
                yield ((first, partner), *tail)

    return map(IntervalRepresentation, matchings(tuple(range(2 * n))))


def ranked_representations(n):
    """Every interval representation on n vertices up to rank compression
    and relabeling: rows sorted, and the coordinates used are exactly
    0..d-1 for some d <= 2n, as ranking them densely leaves them.  There
    are 2, 14, 150 and 2,210 classes for n = 1..4; ties of every kind
    occur, a left on a left, a right on a right, and a left on a right."""
    intervals = [(left, right) for left in range(2 * n) for right in range(left, 2 * n)]
    for rows in itertools.combinations_with_replacement(intervals, n):
        used = {c for row in rows for c in row}
        if len(used) == max(used, default=-1) + 1:
            yield IntervalRepresentation(rows)


def strict_proper_representations(n):
    """Every strict proper representation on n vertices up to relabeling:
    one per ballot sequence of n opens and n closes at positions 0..2n-1,
    the i-th open paired with the i-th close.  There are Catalan(n) of
    them."""
    for opens in itertools.combinations(range(2 * n), n):
        closes = sorted(set(range(2 * n)) - set(opens))
        if all(left < right for left, right in zip(opens, closes)):
            yield IntervalRepresentation(zip(opens, closes))


def random_block_graph(rng, n, edge_prob, blocks=1, isolated=0):
    """Random graph on n vertices whose edges stay inside `blocks` random
    vertex groups, so it is disconnected when blocks > 1; the last
    `isolated` vertices get no edges at all."""
    part = [rng.randrange(blocks) for _ in range(n - isolated)]
    edges = [
        (u, v)
        for u in range(n - isolated)
        for v in range(u + 1, n - isolated)
        if part[u] == part[v] and rng.random() < edge_prob
    ]
    return Graph(n, edges)


def clique_path(cliques, size, isolated=0):
    """`cliques` cliques of `size` vertices each, in id order, the last
    vertex of each joined to the first of the next, then `isolated`
    vertices with no edges.  From vertex 0, the first vertex of clique i is
    at distance 2i and the others at 2i + 1."""
    edges = []
    for base in range(0, cliques * size, size):
        edges += itertools.combinations(range(base, base + size), 2)
        if base:
            edges.append((base - 1, base))
    return Graph(cliques * size + isolated, edges)


def intersection_graph_pairs(r):
    """Pair-test oracle for intersection_graph: every pair in O(n^2)."""
    edges = []
    for u in range(r.n):
        lu, ru = r.intervals[u]
        for v in range(u + 1, r.n):
            lv, rv = r.intervals[v]
            if max(lu, lv) <= min(ru, rv):
                edges.append((u, v))
    return Graph(r.n, edges)


def trapezoid_intersection_graph_pairs(t):
    """Pair-test oracle for trapezoid_intersection_graph: u and v are
    adjacent unless one ends strictly before the other starts on both
    lines, every pair tested in O(n^2)."""
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


def random_dense_representation(rng, n, reach=4):
    """n random intervals with left endpoints in 0..round(reach * n) and
    lengths in 0..2n; reach = 4 draws them as the extend-dense benchmark
    does."""
    rows = []
    for _ in range(n):
        left = rng.randint(0, round(reach * n))
        rows.append((left, left + rng.randint(0, 2 * n)))
    return IntervalRepresentation(rows)


def random_dense_interval_graph(rng, n):
    """The intersection graph of `random_dense_representation(rng, n)`,
    built by pair tests: about 73k edges at n = 600."""
    return intersection_graph_pairs(random_dense_representation(rng, n))


def first_difference_graphs(expected, actual):
    """Graph oracle for the rows-based first difference: the smallest edge
    in only one of two graphs, and whether expected has it."""
    u = next(u for u in range(expected.n) if expected.neighbors(u) != actual.neighbors(u))
    v = min(set(expected.neighbors(u)).symmetric_difference(actual.neighbors(u)))
    return (u, v), v in expected.neighbors(u)


def iterate_powers_chained(g, r, k_max):
    """Chain oracle for iterate_powers: one extend_representation call per
    k, each checking its input against rows of G^(k-1) and taking its
    witnesses from rows of G^k, both packed from BFS distances.
    iterate_powers checks r without rows and takes its witnesses from
    hops along the spans of r, so the two are independent witness routes
    that share only the gap layout; the witness rule itself is checked
    against Floyd-Warshall distances by
    test_witness_is_the_rightmost_then_smallest_id."""
    if k_max < 2:
        raise InvalidKError(f"iteration requires k_max >= 2, got {k_max}")
    chain = []
    current = r
    for k in range(2, k_max + 1):
        current, trace = extend_representation(g, k, current)
        chain.append((k, current, trace))
    return chain


def latest_close_extension(r, g, k):
    """One-line oracle for the theorem: an interval representation of G^k
    with r's endpoint orders, ties included, every coordinate in 0..2n-1.

    r must realize g.  Opens are grouped into blocks of equal left
    endpoints and closes into blocks of equal right endpoints; each block
    takes one coordinate, opens in r's left order and closes in r's right
    order.  Each close block is placed as late as the later-opening
    non-neighbours in G^k of its members, and of the members of every
    later close block, allow: before it go the open blocks up to (not
    including) the first that holds such a non-neighbour.  The targets come
    from floyd_warshall, so this shares no code with the extension step,
    widen_balls or the trapezoid search.
    """
    dist = floyd_warshall(g)
    lefts = sorted({left for left, _ in r.intervals})
    rights = sorted({right for _, right in r.intervals})
    opens = [lefts.index(left) for left, _ in r.intervals]
    closes = [rights.index(right) for _, right in r.intervals]
    first_far = [
        min(
            (opens[v] for v in range(r.n)
             if opens[v] > opens[u] and (dist[u][v] is None or dist[u][v] > k)),
            default=len(lefts),
        )
        for u in range(r.n)
    ]
    # By close block: the open blocks placed before it.
    opened_before = [
        min(first_far[u] for u in range(r.n) if closes[u] >= j) for j in range(len(rights))
    ]
    return IntervalRepresentation(
        (i + sum(before <= i for before in opened_before), opened_before[j] + j)
        for i, j in zip(opens, closes)
    )


def assert_chain_matches_the_latest_close_oracle(r, k_max):
    """The checks of
    test_extension.test_iterate_matches_the_latest_close_oracle on one
    start: every chain member to G^k_max has the graph and both endpoint
    orders of the latest-close oracle, which realizes the distances of
    Floyd-Warshall."""
    g = intersection_graph(r)
    dist = floyd_warshall(g)
    orders = endpoint_orders(r)
    for k, rep, _ in iterate_powers(g, r, k_max):
        oracle = latest_close_extension(r, g, k)
        within_k = {
            (u, v) for u in range(r.n) for v in range(u + 1, r.n)
            if dist[u][v] is not None and dist[u][v] <= k
        }
        assert intersection_graph_pairs(oracle).edge_set == within_k
        assert endpoint_orders(oracle) == orders
        assert intersection_rows(rep) == intersection_rows(oracle)
        assert endpoint_orders(rep) == orders


def ball_witnesses_walk(outer, lefts, rights):
    """Bit-walk oracle for extension._ball_witnesses: every bit y of
    outer[x] is visited in ascending id order, and x's witness is the first
    y with the largest left endpoint above x's right one, or None.  One
    step per set bit, with no endpoint masks and no bisection."""
    witness = []
    for x, right_x in enumerate(rights):
        best, best_left = None, right_x
        row = outer[x]
        while row:
            low = row & -row
            y = low.bit_length() - 1
            # Ids ascend, so a strict test keeps the smallest among ties.
            if lefts[y] > best_left:
                best, best_left = y, lefts[y]
            row ^= low
        witness.append(best)
    return witness


def distance_rows(dist, k):
    """Bitmask rows from an all-pairs distance table such as floyd_warshall's:
    bit y of entry x is set iff y is within distance k of x."""
    return [
        sum(1 << y for y, d in enumerate(row) if d is not None and d <= k) for row in dist
    ]


def gap_layout_by_anchor(base, witness, scale):
    """Oracle for the extension step's gap layout: the new right endpoints
    of the normalized input base, given its witnesses and the scale.

    Vertices are grouped by their witness's left endpoint, one dict entry
    per gap; in each gap the distinct original rights, sorted, take the
    slots 1, 2, ... after the scaled anchor.  A vertex without a witness
    keeps its scaled right endpoint.
    """
    new_right = [scale * base.right(x) for x in range(base.n)]
    gaps = {}
    for x, w in enumerate(witness):
        if w is not None:
            gaps.setdefault(base.left(w), []).append(x)
    for anchor, members in gaps.items():
        slot = {
            value: i + 1
            for i, value in enumerate(sorted({base.right(x) for x in members}))
        }
        for x in members:
            new_right[x] = scale * anchor + slot[base.right(x)]
    return new_right


def enumerate_interleavings(left_order, right_order):
    """Return an iterator over every merge of the two endpoint sequences
    on one line, each as the list of (left, right) event positions
    0..2n-1 per vertex.

    left_order and right_order must be strict; the merge keeps both
    subsequences intact and opens every vertex before closing it.  Results
    stream in lexicographic order of their event strings, the open-event
    branch first.  Order validation happens eagerly, before the first item
    is requested.  This is the exhaustive reference that
    count_interleavings and the search's pruned walk are checked against.
    """
    if left_order.n != right_order.n:
        raise VertexSetMismatchError(
            f"orders cover {left_order.n} and {right_order.n} vertices"
        )
    opens, closes = left_order.strict_sequence(), right_order.strict_sequence()
    n = len(opens)
    open_position = {v: i for i, v in enumerate(opens)}

    def walk():
        # Lexicographic successor: pop events until an open can become the
        # next close, place that close, then open the rest and close the rest.
        # `is_open` holds the event kinds placed so far; an event's position
        # is written when it is placed, so a popped one is rewritten before
        # the next yield.
        left = [0] * n
        right = [0] * n
        is_open = []
        i = j = 0
        while True:
            for v in opens[i:]:
                left[v] = len(is_open)
                is_open.append(True)
            for v in closes[j:]:
                right[v] = len(is_open)
                is_open.append(False)
            yield list(zip(left, right))
            i = n
            while is_open:
                if is_open.pop():
                    i -= 1
                    j = len(is_open) - i
                    if open_position[closes[j]] < i:
                        break
            else:
                return
            right[closes[j]] = len(is_open)
            is_open.append(False)
            j += 1

    return walk()


def search_representation_pairs(orders, target):
    """Brute-force oracle for search_representation: build every candidate
    trapezoid representation and compare its pair-tested intersection
    graph with the target."""
    l0, r0, l1, r1 = orders
    line1 = list(enumerate_interleavings(l1, r1))
    first = None
    matches = 0
    for c0 in enumerate_interleavings(l0, r0):
        for c1 in line1:
            candidate = TrapezoidRepresentation(c0[v] + c1[v] for v in range(target.n))
            if trapezoid_intersection_graph(candidate) == target:
                matches += 1
                if first is None:
                    first = candidate
    return first, matches


def search_representation_product(orders, target):
    """Product oracle for search_representation: every (line-0, line-1)
    pair of interleavings, tested by one big-int compare of precedence
    masks against the target's non-edge mask."""
    l0, r0, l1, r1 = orders
    n = target.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def mask(bits):
        return int("0" + "".join("1" if bit else "0" for bit in bits), 2)

    def masks(c):
        return (mask(c[u][1] < c[v][0] for u, v in pairs),
                mask(c[v][1] < c[u][0] for u, v in pairs))

    want = mask(v not in target.neighbors(u) for u, v in pairs)
    line1 = [(c1, *masks(c1)) for c1 in enumerate_interleavings(l1, r1)]
    first = None
    matches = 0
    for c0 in enumerate_interleavings(l0, r0):
        before0, after0 = masks(c0)
        for c1, before1, after1 in line1:
            if before0 & before1 | after0 & after1 == want:
                matches += 1
                if first is None:
                    first = TrapezoidRepresentation(c0[v] + c1[v] for v in range(n))
    return first, matches


def random_ballot_orders(rng, n):
    """A copy of the trapezoid-sweep benchmark generator: two random ballot
    lines whose close order swaps each adjacent pair of the open order,
    line 1 opening in line 0's order with n // 2 random adjacent swaps,
    redrawn until the trapezoid graph G is connected with n(n-1)//4 edges.
    Returns the strict orders (L0, R0, L1, R1) and G.  Sizes below 4
    raise ValueError: at n = 2 and 3 no connected graph has that few
    edges, so the redraw would never end."""
    if n < 4:
        raise ValueError(f"ballot orders need n >= 4, got {n}")

    def ballot_line(opens):
        closes = [opens[i ^ 1] if (i ^ 1) < n else opens[i] for i in range(n)]
        opened_at = {v: i for i, v in enumerate(opens)}
        left, right = [0] * n, [0] * n
        i = j = 0
        for position in range(2 * n):
            can_close = j < n and opened_at[closes[j]] < i
            if i < n and (not can_close or rng.random() < 0.5):
                left[opens[i]] = position
                i += 1
            else:
                right[closes[j]] = position
                j += 1
        return left, right, closes

    while True:
        order0 = list(range(n))
        order1 = list(order0)
        for _ in range(n // 2):
            i = rng.randrange(n - 1)
            order1[i], order1[i + 1] = order1[i + 1], order1[i]
        l0, r0, closes0 = ballot_line(order0)
        l1, r1, closes1 = ballot_line(order1)
        g = trapezoid_intersection_graph(TrapezoidRepresentation(zip(l0, r0, l1, r1)))
        if g.m == n * (n - 1) // 4 and len(connected_components(g)) == 1:
            break
    orders = tuple(WeakOrder.from_sequence(seq) for seq in (order0, closes0, order1, closes1))
    return orders, g


def find_containment_pair_pairs(r):
    """Pair-scan oracle for find_containment_pair: the first u in id order
    that properly contains any interval, and the first v it contains."""
    for u in range(r.n):
        lu, ru = r.intervals[u]
        for v in range(r.n):
            if u == v:
                continue
            lv, rv = r.intervals[v]
            if lu <= lv and rv <= ru and (lu, ru) != (lv, rv):
                return (u, v)
    return None


def proper_to_unit_pairs(r):
    """Oracle for proper_to_unit: the same difference system written out
    for every pair of vertices (about 2n^2 constraints), relaxed in plain
    Bellman-Ford order."""
    witness = find_containment_pair_pairs(r)
    if witness is not None:
        raise NotProperError(witness)
    n = r.n
    unit = n * n
    g = intersection_graph_pairs(r)
    lefts = [left for left, _ in r.intervals]
    edges = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if lefts[u] < lefts[v]:
                edges.append((u, v, -1))
                if v in g.neighbors(u):
                    edges.append((v, u, unit))
                else:
                    edges.append((u, v, -(unit + 1)))
            elif lefts[u] == lefts[v] and u < v:
                edges.append((u, v, 0))
                edges.append((v, u, 0))
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


class ReferenceGraph:
    """Reference model of Graph: the frozenset of canonical pairs (u, v),
    u < v, and everything else derived from it by brute force.  It reads
    nothing of Graph, so it can check Graph's own storage."""

    def __init__(self, n, edges):
        self.n = n
        self.edge_set = frozenset((min(u, v), max(u, v)) for u, v in edges)
        self.m = len(self.edge_set)

    def neighbors(self, v):
        return tuple(sorted(w for pair in self.edge_set if v in pair for w in pair if w != v))

    def text(self):
        """The graph file text: header "n m", then the sorted pairs, 1-based."""
        lines = [f"{self.n} {self.m}"] + [f"{u + 1} {v + 1}" for u, v in sorted(self.edge_set)]
        return "".join(line + "\n" for line in lines)


def content_lines(text):
    """The lines of text, without trailing blank ones: the whole list that
    the streaming reader in intpow._records never builds."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


class ReferenceBody(list):
    """The record lines of a text, as a list."""

    @property
    def size(self):
        return len(self)


def reference_content(text):
    """(end, count) with end unused: reference_lines ignores it."""
    return len(text), len(content_lines(text))


def reference_lines(text, start, end):
    """All content lines, as parse_orders reads them."""
    return iter(content_lines(text))


def reference_read(text, source, width, usage, negative=None, counted=None):
    """intpow._records.read on content_lines."""
    lines = content_lines(text)
    if not lines:
        raise ParseError(source, 1, "missing header line")
    parts = lines[0].split()
    if len(parts) != width:
        raise ParseError(source, 1, usage)
    try:
        values = tuple(map(int, parts))
    except ValueError:
        raise ParseError(source, 1, usage) from None
    if negative is not None and min(values) < 0:
        raise ParseError(source, 1, negative)
    if counted is not None and len(lines) - 1 != values[-1]:
        raise ParseError(source, 1, f"expected {values[-1]} {counted}, found {len(lines) - 1}")
    return ReferenceBody(lines[1:]), values


def reference_records(body, source, width, usage, ids=None, dash=None):
    """intpow._records.records on a ReferenceBody."""
    seen = set()
    for i, line in enumerate(body, start=2):
        parts = line.split()
        if len(parts) != width:
            raise ParseError(source, i, usage)
        fields = []
        for j, part in enumerate(parts):
            if j == dash and part == "-":
                fields.append(None)
                continue
            try:
                fields.append(int(part))
            except ValueError:
                raise ParseError(source, i, usage) from None
        if ids is not None:
            v = fields[0]
            if not 1 <= v <= ids:
                raise ParseError(source, i, f"vertex {v} out of range 1..{ids}")
            if v in seen:
                raise ParseError(source, i, f"vertex {v} listed twice")
            seen.add(v)
        yield i, fields


@contextlib.contextmanager
def reference_reader():
    """Within the block, the five parsers read their text through the
    list-of-lines reader above instead of the streaming one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_records, "content", reference_content)
        patch.setattr(_records, "lines", reference_lines)
        patch.setattr(_records, "read", reference_read)
        patch.setattr(_records, "records", reference_records)
        yield


def relabel_graph(g, permutation):
    """permutation[v] is the new id of v."""
    return Graph(g.n, [(permutation[u], permutation[v]) for u, v in g.edge_set])


def queue_distances(g, source):
    """Independent single-source distance oracle (None off-component): a
    queue over `neighbors`, for graphs too large for floyd_warshall."""
    dist = {source: 0}
    queue = collections.deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return [dist.get(v) for v in range(g.n)]


def floyd_warshall(g):
    """Independent all-pairs distance oracle (None off-component)."""
    inf = float("inf")
    dist = [[0 if u == v else inf for v in range(g.n)] for u in range(g.n)]
    for u, v in g.edge_set:
        dist[u][v] = dist[v][u] = 1
    for w in range(g.n):
        for u in range(g.n):
            duw = dist[u][w]
            if duw == inf:
                continue
            row_w = dist[w]
            row_u = dist[u]
            for v in range(g.n):
                alt = duw + row_w[v]
                if alt < row_u[v]:
                    row_u[v] = alt
    return [
        [None if dist[u][v] == inf else int(dist[u][v]) for v in range(g.n)]
        for u in range(g.n)
    ]


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, edges)


@st.composite
def edge_lists(draw, max_n=12):
    """(n, edges) for a simple graph on n = 0..max_n vertices, its edges
    listed in random order, each in a random orientation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]


@st.composite
def representations(draw, max_n=10, coord_max=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    endpoints = draw(
        st.lists(
            st.tuples(
                st.integers(0, coord_max), st.integers(0, coord_max)
            ),
            min_size=n,
            max_size=n,
        )
    )
    return IntervalRepresentation(
        [(min(a, b), max(a, b)) for a, b in endpoints]
    )


@st.composite
def crowded_representations(draw, max_n=12):
    """Representations on n = 0..max_n vertices packed into 0..6, so
    touching endpoints, point intervals and twins are common; some rows
    are copies of earlier ones, and the ids are shuffled."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.sampled_from(rows)))
            continue
        left = draw(st.integers(0, 6))
        rows.append((left, left + draw(st.sampled_from([0, 0, 1, 2, 4]))))
    permutation = draw(st.permutations(range(n)))
    return IntervalRepresentation([rows[i] for i in permutation])


@st.composite
def proper_representations(draw, max_n=10):
    """Proper representations in a shuffled vertex order.  Small gaps make
    twins, point intervals and touching endpoints common."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    left = draw(st.integers(-3, 3))
    right = left + draw(st.integers(0, 3))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 3)):  # 0 repeats the last interval
            left += draw(st.integers(1, 3))
            right = max(right + draw(st.integers(1, 3)), left)
        rows.append((left, right))
    permutation = draw(st.permutations(range(n)))
    return IntervalRepresentation([rows[i] for i in permutation])
