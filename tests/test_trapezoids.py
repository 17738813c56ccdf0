import itertools
import math
import random
import time

import pytest

from intpow import (
    Graph,
    IntervalRepresentation,
    NonStrictOrderError,
    ParseError,
    TrapezoidRepresentation,
    VertexSetMismatchError,
    WeakOrder,
    count_interleavings,
    count_interleavings_filter,
    endpoint_orders,
    extend_representation,
    format_orders,
    format_trapezoid,
    graph_power,
    intersection_graph,
    intersection_rows,
    iterate_powers,
    p5_representation,
    parse_orders,
    parse_trapezoid,
    search_representation,
    trapezoid_intersection_graph,
    trapezoid_orders,
)
from intpow.trapezoids import _coordinates, _survivors
from testutil import (
    enumerate_interleavings,
    random_ballot_orders,
    random_representation,
    random_strict_connected_representation,
    random_strict_trapezoid,
    search_representation_pairs,
    search_representation_product,
    trapezoid_intersection_graph_pairs,
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_representation_accessors():
    t = TrapezoidRepresentation([(0, 5, 1, 1), (2, 3, 0, 4)])
    assert t.n == 2
    assert t.rows == ((0, 5, 1, 1), (2, 3, 0, 4))


def test_representation_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        TrapezoidRepresentation([(1, 0, 2, 3)])
    with pytest.raises(ValueError):
        TrapezoidRepresentation([(0, 1, 3, 2)])


def test_representation_errors_name_vertices_one_based():
    with pytest.raises(ValueError, match="^vertex 1: interval endpoints out of order$"):
        TrapezoidRepresentation([(0, 1, 3, 2)])
    with pytest.raises(ValueError, match="^vertex 2: interval endpoints out of order$"):
        TrapezoidRepresentation([(0, 1, 2, 3), (1, 0, 2, 3)])


def test_representation_names_the_vertex_of_a_row_of_the_wrong_width():
    with pytest.raises(ValueError, match="^vertex 2: expected 4 coordinates, got 3$"):
        TrapezoidRepresentation([(0, 1, 0, 1), (0, 1, 2)])
    with pytest.raises(ValueError, match="^vertex 1: expected 4 coordinates, got 5$"):
        TrapezoidRepresentation([(0, 1, 0, 1, 2)])


def test_representation_allows_point_rows():
    t = TrapezoidRepresentation([(2, 2, 2, 2)])
    assert t.rows[0] == (2, 2, 2, 2)


def test_representation_equality():
    rows = [(0, 1, 2, 3), (4, 5, 6, 7)]
    assert TrapezoidRepresentation(rows) == TrapezoidRepresentation(rows)
    assert hash(TrapezoidRepresentation(rows)) == hash(TrapezoidRepresentation(rows))
    assert TrapezoidRepresentation(rows) != TrapezoidRepresentation(rows[:1])


def test_intersection_crossing_pair_is_adjacent():
    # First before second on line 0, after it on line 1.
    t = TrapezoidRepresentation([(0, 1, 4, 5), (2, 3, 0, 1)])
    assert trapezoid_intersection_graph(t) == Graph.complete(2)


def test_intersection_separated_pair_is_not_adjacent():
    t = TrapezoidRepresentation([(0, 1, 0, 1), (2, 3, 2, 3)])
    assert trapezoid_intersection_graph(t) == Graph(2, [])


def test_intersection_touching_endpoints_count():
    t = TrapezoidRepresentation([(0, 1, 0, 1), (1, 2, 2, 3)])
    assert trapezoid_intersection_graph(t) == Graph.complete(2)


def test_intersection_point_rows():
    far = TrapezoidRepresentation([(2, 2, 2, 2), (0, 1, 0, 1)])
    assert far.n == 2 and trapezoid_intersection_graph(far).m == 0
    inside = TrapezoidRepresentation([(2, 2, 2, 2), (0, 4, 0, 4)])
    assert trapezoid_intersection_graph(inside) == Graph.complete(2)


def test_intersection_invariant_under_monotone_line_remaps():
    rng = random.Random(2024)
    for _ in range(50):
        t = random_strict_trapezoid(rng, max_n=7)
        remapped_rows = []
        maps = []
        for line in (0, 1):
            values = sorted({c for row in t.rows for c in row[2 * line:2 * line + 2]})
            targets = sorted(rng.sample(range(-100, 100), len(values)))
            maps.append(dict(zip(values, targets)))
        for l0, r0, l1, r1 in t.rows:
            remapped_rows.append(
                (maps[0][l0], maps[0][r0], maps[1][l1], maps[1][r1])
            )
        remapped = TrapezoidRepresentation(remapped_rows)
        assert trapezoid_intersection_graph(remapped) == trapezoid_intersection_graph(t)
        assert trapezoid_orders(remapped) == trapezoid_orders(t)


def test_intersection_graph_matches_pair_oracle():
    # Coordinates in 0..12 make ties, shared endpoints and point intervals
    # common, and some rows repeat an earlier one.  `.rows` is compared
    # with the rows of the oracle's edges, as `_from_rows` keeps the rows
    # it is given.
    rng = random.Random(2106)
    for _ in range(3000):
        rows = []
        for _ in range(rng.randint(0, 9)):
            if rows and rng.random() < 0.1:
                rows.append(rng.choice(rows))
                continue
            row = ()
            for _line in range(2):
                a = rng.randint(0, 12)
                b = a if rng.random() < 0.2 else rng.randint(0, 12)
                row += (min(a, b), max(a, b))
            rows.append(row)
        t = TrapezoidRepresentation(rows)
        expected = trapezoid_intersection_graph_pairs(t)
        g = trapezoid_intersection_graph(t)
        assert g == expected
        assert g.rows == Graph(t.n, expected.edge_set).rows


def test_one_line_equals_two_equal_lines():
    # A trapezoid whose two lines both repeat an interval representation
    # has that representation's graph and orders: the two-line and the
    # one-line calls of the shared rows builder and orders routine agree.
    # Coordinates in 0..12 make ties and point intervals common.
    rng = random.Random(2601)
    for _ in range(2000):
        r = random_representation(rng, max_n=9, coord_max=12)
        t = TrapezoidRepresentation([(left, right, left, right) for left, right in r.intervals])
        assert trapezoid_intersection_graph(t) == intersection_graph(r)
        assert list(trapezoid_intersection_graph(t).rows) == intersection_rows(r)
        assert trapezoid_orders(t) == endpoint_orders(r) * 2


def test_orders_example():
    t = TrapezoidRepresentation([(0, 5, 1, 1), (2, 3, 0, 4)])
    l0, r0, l1, r1 = trapezoid_orders(t)
    assert l0 == WeakOrder([0, 1])
    assert r0 == WeakOrder([1, 0])
    assert l1 == WeakOrder([1, 0])
    assert r1 == WeakOrder([0, 1])


def test_orders_report_ties():
    t = TrapezoidRepresentation([(0, 1, 0, 1), (0, 2, 1, 1)])
    l0 = trapezoid_orders(t)[0]
    assert not l0.is_strict
    assert l0.ranks[0] == l0.ranks[1]


def test_p5_representation_rows():
    assert p5_representation().rows == (
        (0, 1, 4, 5),
        (6, 7, 3, 4),
        (4, 5, 8, 9),
        (10, 11, 6, 7),
        (8, 9, 12, 13),
    )


def test_p5_representation_realizes_the_path():
    assert trapezoid_intersection_graph(p5_representation()) == Graph.path(5)


def test_p5_representation_orders():
    l0, r0, l1, r1 = trapezoid_orders(p5_representation())
    assert l0.strict_sequence() == [0, 2, 1, 4, 3]
    assert r0.strict_sequence() == [0, 2, 1, 4, 3]
    assert l1.strict_sequence() == [1, 0, 3, 2, 4]
    assert r1.strict_sequence() == [1, 0, 3, 2, 4]


def test_enumerate_single_vertex():
    order = WeakOrder([0])
    assert list(enumerate_interleavings(order, order)) == [[(0, 1)]]


def test_enumerate_two_vertices_in_lexicographic_order():
    order = WeakOrder.from_sequence([0, 1])
    # L0 L1 R0 R1, then L0 R0 L1 R1.
    assert list(enumerate_interleavings(order, order)) == [
        [(0, 2), (1, 3)],
        [(0, 1), (2, 3)],
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_equal_orders_counts_catalan(n):
    order = WeakOrder.from_sequence(list(range(n)))
    assert sum(1 for _ in enumerate_interleavings(order, order)) == catalan(n)
    assert count_interleavings(order, order) == catalan(n)


def test_enumerate_respects_both_orders():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        opens = rng.sample(range(n), n)
        closes = rng.sample(range(n), n)
        left = WeakOrder.from_sequence(opens)
        right = WeakOrder.from_sequence(closes)
        seen = set()
        for coords in enumerate_interleavings(left, right):
            assert sorted(p for c in coords for p in c) == list(range(2 * n))
            assert all(l < r for l, r in coords)
            assert sorted(range(n), key=lambda v: coords[v][0]) == opens
            assert sorted(range(n), key=lambda v: coords[v][1]) == closes
            seen.add(tuple(coords))
        assert len(seen) == count_interleavings_filter(left, right)


def test_enumerate_streams_in_lexicographic_order():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(0, 6)
        left = WeakOrder.from_sequence(rng.sample(range(n), n))
        right = WeakOrder.from_sequence(rng.sample(range(n), n))
        # Where two event strings first differ, the one that opens there has
        # the smaller open positions, read in `opens` order.
        opens = left.strict_sequence()
        positions = [tuple(coords[v][0] for v in opens)
                     for coords in enumerate_interleavings(left, right)]
        assert positions == sorted(set(positions))


def test_enumerate_deeply_nested_orders():
    # Nested intervals admit one merge; walking it takes 2n steps, so the
    # enumerator must not recurse once per event.
    n = 600
    left = WeakOrder.from_sequence(list(range(n)))
    right = WeakOrder.from_sequence(list(range(n - 1, -1, -1)))
    only = list(enumerate_interleavings(left, right))
    assert len(only) == 1
    assert only[0] == [(v, 2 * n - 1 - v) for v in range(n)]
    assert count_interleavings(left, right) == 1


def test_enumerate_matches_filter_count_on_divergent_orders():
    left = WeakOrder.from_sequence([0, 1, 2])
    right = WeakOrder.from_sequence([2, 1, 0])
    # Closing 2 first forces 0 and 1 open, closing 1 next forces 2 open.
    assert count_interleavings_filter(left, right) == 1
    only = list(enumerate_interleavings(left, right))
    assert only == [[(0, 5), (1, 4), (2, 3)]]


def test_count_matches_enumerator_and_filter():
    rng = random.Random(29)
    for n in range(9):
        for _ in range(6):
            left = WeakOrder.from_sequence(rng.sample(range(n), n))
            right = WeakOrder.from_sequence(rng.sample(range(n), n))
            expected = count_interleavings_filter(left, right)
            assert count_interleavings(left, right) == expected
            assert sum(1 for _ in enumerate_interleavings(left, right)) == expected


def test_filter_matches_count_on_identity_orders_at_n11():
    # C(22, 11) = 705,432 placements, each tested by the filter.
    identity = WeakOrder.from_sequence(list(range(11)))
    started = time.perf_counter()
    assert count_interleavings_filter(identity, identity) == catalan(11) == 58786
    elapsed = time.perf_counter() - started
    assert count_interleavings(identity, identity) == 58786
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_filter_matches_count_on_every_small_pair():
    # n = 0 included: its one placement, with no opens, is one merge.
    empty = WeakOrder.from_sequence([])
    assert count_interleavings_filter(empty, empty) == 1
    for n in range(5):
        orders = [WeakOrder.from_sequence(list(p)) for p in itertools.permutations(range(n))]
        for left in orders:
            for right in orders:
                assert count_interleavings_filter(left, right) == count_interleavings(left, right)


def test_enumerate_rejects_tied_orders():
    tied = WeakOrder([0, 0])
    strict = WeakOrder.from_sequence([0, 1])
    with pytest.raises(NonStrictOrderError):
        enumerate_interleavings(tied, strict)
    with pytest.raises(NonStrictOrderError):
        enumerate_interleavings(strict, tied)
    with pytest.raises(NonStrictOrderError):
        count_interleavings_filter(strict, tied)
    with pytest.raises(NonStrictOrderError):
        count_interleavings(strict, tied)


def test_enumerate_rejects_mismatched_sizes():
    with pytest.raises(VertexSetMismatchError):
        enumerate_interleavings(WeakOrder([0]), WeakOrder.from_sequence([0, 1]))
    with pytest.raises(VertexSetMismatchError):
        count_interleavings_filter(WeakOrder([0]), WeakOrder.from_sequence([0, 1]))
    with pytest.raises(VertexSetMismatchError):
        count_interleavings(WeakOrder([0]), WeakOrder.from_sequence([0, 1]))


def test_enumerate_checks_sizes_before_ties():
    tied = WeakOrder([0, 0])
    single = WeakOrder([0])
    for walk in (enumerate_interleavings, count_interleavings, count_interleavings_filter):
        with pytest.raises(VertexSetMismatchError):
            walk(single, tied)
        with pytest.raises(VertexSetMismatchError):
            walk(tied, single)


def test_interleaving_oracles_run_no_search_helpers(monkeypatch):
    rng = random.Random(41)
    cases = [(n, rng.sample(range(n), n), rng.sample(range(n), n))
             for n in range(7) for _ in range(3)]

    def refuse(*args):
        raise AssertionError("an interleaving oracle ran a search helper")

    monkeypatch.setattr("intpow.trapezoids._survivors", refuse)
    monkeypatch.setattr("intpow.trapezoids._coordinates", refuse)
    for n, opens, closes in cases:
        left, right = WeakOrder.from_sequence(opens), WeakOrder.from_sequence(closes)
        expected = count_interleavings(left, right)
        assert count_interleavings_filter(left, right) == expected
        assert sum(1 for _ in enumerate_interleavings(left, right)) == expected


def test_search_two_vertex_targets():
    order = WeakOrder.from_sequence([0, 1])
    orders = (order, order, order, order)

    first, matches = search_representation(orders, Graph.complete(2))
    assert matches == 3
    assert first == TrapezoidRepresentation([(0, 2, 0, 2), (1, 3, 1, 3)])

    first, matches = search_representation(orders, Graph(2, []))
    assert matches == 1
    assert first == TrapezoidRepresentation([(0, 1, 0, 1), (2, 3, 2, 3)])


def test_search_reports_no_match():
    order = WeakOrder([0])
    first, matches = search_representation(
        (order, order, order, order), Graph(1, [])
    )
    assert matches == 1 and first is not None
    # A single vertex always intersects itself, so no orders realize "two
    # isolated vertices" from a one-vertex order.
    with pytest.raises(VertexSetMismatchError):
        search_representation((order, order, order, order), Graph(2, []))


def test_search_first_match_is_lexicographically_earliest():
    rng = random.Random(11)
    for _ in range(10):
        t = random_strict_trapezoid(rng, max_n=4)
        target = trapezoid_intersection_graph(t)
        orders = trapezoid_orders(t)
        first, matches = search_representation(orders, target)
        assert matches >= 1
        l0, r0, l1, r1 = orders
        for c0 in enumerate_interleavings(l0, r0):
            found = None
            for c1 in enumerate_interleavings(l1, r1):
                candidate = TrapezoidRepresentation(
                    [c0[v] + c1[v] for v in range(t.n)]
                )
                if trapezoid_intersection_graph(candidate) == target:
                    found = candidate
                    break
            if found is not None:
                assert first == found
                break


def test_search_matches_brute_force_oracle():
    # Random strict orders with random targets, most of them unrealizable,
    # plus the edgeless and the complete graph on every order set.
    rng = random.Random(5)
    realized = 0
    for trial in range(90):
        n = trial % 6
        orders = tuple(
            WeakOrder.from_sequence(rng.sample(range(n), n)) for _ in range(4)
        )
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.random()
        targets = [
            Graph(n, [pair for pair in pairs if rng.random() < density]),
            Graph(n, []),
            Graph.complete(n),
        ]
        for target in targets:
            expected = search_representation_pairs(orders, target)
            assert search_representation(orders, target) == expected
            realized += expected[1] > 0
    assert 0 < realized < 270


def _oracle_targets(family, n):
    # Ballot orders are the benchmark's; "random" draws each line's
    # intervals independently, as random_strict_trapezoid does.  The last
    # target's non-edges are the pairs apart on both lines of one candidate,
    # in either direction: pairs apart in opposite directions cross, so it
    # tests that the search compares the direction of every non-edge.
    rng = random.Random(f"{family}/{n}")
    if family == "ballot":
        orders, g = random_ballot_orders(rng, n)
        c0, c1 = (rng.choice(list(enumerate_interleavings(*line)))
                  for line in (orders[:2], orders[2:]))
    else:
        c0, c1 = ([tuple(sorted(values[2 * v:2 * v + 2])) for v in range(n)]
                  for values in (rng.sample(range(4 * n), 2 * n) for _ in range(2)))
        t = TrapezoidRepresentation(c0[v] + c1[v] for v in range(n))
        orders, g = trapezoid_orders(t), trapezoid_intersection_graph(t)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    apart = [(u, v) for u, v in pairs
             if all(c[u][1] < c[v][0] or c[v][1] < c[u][0] for c in (c0, c1))]
    targets = [
        g,
        graph_power(g, 2),
        Graph(n, []),
        Graph.complete(n),
        Graph(n, [pair for pair in pairs if rng.random() < 0.5]),
        Graph(n, [pair for pair in pairs if pair not in apart]),
    ]
    return orders, g, targets


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("family", ["ballot", "random"])
def test_search_matches_product_oracle(family, n):
    orders, g, targets = _oracle_targets(family, n)
    for target in targets:
        assert search_representation(orders, target) == search_representation_product(
            orders, target
        )
    assert search_representation(orders, g)[1] > 0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("family", ["ballot", "random"])
def test_pruned_walk_matches_filtered_enumerator(family, n):
    # The search's walk cuts a prefix once a non-edge overlaps; the oracle
    # enumerates every interleaving, masks its coordinates and keeps those
    # on which every non-edge sets one of its two precedence bits.
    orders, _, targets = _oracle_targets(family, n)
    full = (1 << n) - 1
    for target in targets:
        apart = [full ^ row for row in target.rows]
        want = 0
        for u, row in enumerate(apart):
            want |= row << (n * u)
        non_edges = n * (n - 1) // 2 - target.m
        for left, right in (orders[:2], orders[2:]):
            expected = []
            for c in enumerate_interleavings(left, right):
                mask = sum(1 << (n * u + v) for u in range(n) for v in range(n)
                           if c[u][1] < c[v][0])
                if (mask & want).bit_count() == non_edges:
                    expected.append((mask, c))
            opens, closes = left.strict_sequence(), right.strict_sequence()
            assert [(mask, _coordinates(opens, closes, mask))
                    for mask in _survivors(opens, closes, apart)] == expected


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("family", ["ballot", "random"])
def test_first_survivor_closes_every_vertex_latest(family, n):
    # A row counts the opens placed before one close, in close order.  The
    # oracle takes, close by close, the largest row over the enumerated
    # interleavings on which every non-edge is disjoint; the first survivor
    # has exactly those rows, so it sets the fewest precedence bits.
    orders, _, targets = _oracle_targets(family, n)
    for left, right in (orders[:2], orders[2:]):
        opens, closes = left.strict_sequence(), right.strict_sequence()

        def rows_of(c):
            return [sum(c[u][0] < c[v][1] for u in range(n)) for v in closes]

        lines = list(enumerate_interleavings(left, right))
        for target in targets:
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if v not in target.neighbors(u)]
            latest = None
            for c in lines:
                if all(c[u][1] < c[v][0] or c[v][1] < c[u][0] for u, v in non_edges):
                    rows = rows_of(c)
                    latest = rows if latest is None else list(map(max, latest, rows))
            apart = [((1 << n) - 1) ^ row for row in target.rows]
            survivors = list(_survivors(opens, closes, apart))
            if latest is None:
                assert survivors == []
                continue
            first = survivors[0]
            assert all(first & mask == first for mask in survivors)
            assert rows_of(_coordinates(opens, closes, first)) == latest


def test_search_refuses_unrealizable_orders_without_walking():
    # Under identity orders K60 minus {1, 2} leaves astronomically many
    # survivors per line, but 1 must close before 2 opens on both lines,
    # and so must 0, which closes first: the edge {0, 2} is apart.
    n = 60
    identity = WeakOrder.from_sequence(list(range(n)))
    target = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (1, 2)])
    started = time.perf_counter()
    assert search_representation((identity,) * 4, target) == (None, 0)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_random_ballot_orders_refuses_sizes_without_its_graph(n):
    # At n = 2 and 3 no connected graph has n(n-1)//4 edges, so the redraw
    # would never end; the helper refuses every size below 4.
    with pytest.raises(ValueError):
        random_ballot_orders(random.Random(n), n)


def test_search_recovers_random_strict_instances():
    rng = random.Random(99)
    for _ in range(30):
        t = random_strict_trapezoid(rng, max_n=5)
        target = trapezoid_intersection_graph(t)
        first, matches = search_representation(trapezoid_orders(t), target)
        assert matches >= 1
        assert trapezoid_intersection_graph(first) == target
        assert trapezoid_orders(first) == trapezoid_orders(t)


def test_search_p5_square_has_no_realization():
    orders = trapezoid_orders(p5_representation())
    first, matches = search_representation(orders, graph_power(Graph.path(5), 2))
    assert first is None
    assert matches == 0


def test_search_p5_control_succeeds():
    orders = trapezoid_orders(p5_representation())
    first, matches = search_representation(orders, Graph.path(5))
    assert matches == 16
    assert trapezoid_intersection_graph(first) == Graph.path(5)
    assert trapezoid_orders(first) == orders


def test_search_accepts_interval_orders_for_p5_square():
    # The square of the path is an interval graph, so duplicating the
    # endpoint orders of one of its interval representations on both lines
    # must yield at least one trapezoid realization.
    p5 = Graph.path(5)
    square_rep, _ = extend_representation(
        p5, 2, IntervalRepresentation([(0, 2), (1, 4), (3, 6), (5, 8), (7, 9)])
    )
    left, right = endpoint_orders(square_rep)
    first, matches = search_representation(
        (left, right, left, right), graph_power(p5, 2)
    )
    assert matches >= 1
    assert trapezoid_intersection_graph(first) == graph_power(p5, 2)


def test_one_line_first_survivor_is_the_extension():
    # Two production routes to the paper's positive result: on a strict
    # start r, the first one-line survivor under r's orders, against the
    # non-edges of G^k, is the chain member for G^k, event for event.  The
    # survivor comes from the lattice walk, the member from `_step`'s
    # witnesses, gaps and scale.
    rng = random.Random(2602)
    steps = 0
    for _ in range(1500):
        r = random_strict_connected_representation(rng, max_n=9)
        left, right = endpoint_orders(r)
        opens, closes = left.strict_sequence(), right.strict_sequence()
        g = intersection_graph(r)
        full = (1 << r.n) - 1
        for k, member, _ in iterate_powers(g, r, 4):
            apart = [full ^ row for row in graph_power(g, k).rows]
            survivor = _coordinates(opens, closes, next(_survivors(opens, closes, apart)))
            coordinates = [c for row in member.intervals for c in row]
            rank = {c: i for i, c in enumerate(sorted(coordinates))}
            assert len(rank) == 2 * r.n
            assert survivor == [(rank[lo], rank[hi]) for lo, hi in member.intervals]
            steps += 1
    assert steps == 4500


def test_search_candidate_space_size_for_p5_orders():
    l0, r0, l1, r1 = trapezoid_orders(p5_representation())
    per_line0 = sum(1 for _ in enumerate_interleavings(l0, r0))
    per_line1 = sum(1 for _ in enumerate_interleavings(l1, r1))
    assert per_line0 == per_line1 == catalan(5) == 42
    assert per_line0 * per_line1 == 1764


def test_trapezoid_format_golden():
    assert format_trapezoid(p5_representation()) == (
        "5\n"
        "1 0 1 4 5\n"
        "2 6 7 3 4\n"
        "3 4 5 8 9\n"
        "4 10 11 6 7\n"
        "5 8 9 12 13\n"
    )


def test_trapezoid_parse_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        t = random_strict_trapezoid(rng)
        assert parse_trapezoid(format_trapezoid(t)) == t


def test_trapezoid_parse_accepts_unsorted_rows_and_trailing_blank():
    t = parse_trapezoid("2\n2 4 5 6 7\n1 0 1 2 3\n\n")
    assert t.rows == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_trapezoid_parse_errors():
    cases = [
        ("", 1, "missing header"),
        ("x\n", 1, "header"),
        ("-1\n", 1, "nonnegative"),
        ("2\n1 0 1 2 3\n", 1, "expected 2 rows"),
        ("1\n1 0 1 2\n", 2, "five integers"),
        ("1\n1 0 1 2 x\n", 2, "five integers"),
        ("1\n2 0 1 2 3\n", 2, "out of range"),
        ("2\n1 0 1 2 3\n1 0 1 2 3\n", 3, "listed twice"),
        ("1\n1 1 0 2 3\n", 2, "out of order"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as info:
            parse_trapezoid(text, source="bad.trap")
        assert info.value.source == "bad.trap"
        assert info.value.line == line
        assert fragment in str(info.value)


def test_orders_format_golden():
    assert format_orders(trapezoid_orders(p5_representation())) == (
        "L0: 1 3 2 5 4\n"
        "R0: 1 3 2 5 4\n"
        "L1: 2 1 4 3 5\n"
        "R1: 2 1 4 3 5\n"
    )


def test_orders_parse_round_trip():
    text = "L0: 1 3 2 5 4\nR0: 1 3 2 5 4\nL1: 2 1 4 3 5\nR1: 2 1 4 3 5\n"
    orders = parse_orders(text)
    assert orders == trapezoid_orders(p5_representation())
    assert format_orders(orders) == text


def test_orders_parse_errors():
    good = "L0: 1 2\nR0: 1 2\nL1: 1 2\nR1: 1 2\n"
    cases = [
        ("L0: 1 2\nR0: 1 2\n", 2, "four order lines"),
        (good.replace("R0:", "RX:"), 2, 'start with "R0:"'),
        (good.replace("L1: 1 2", "L1: 1 x"), 3, "integers"),
        (good.replace("R1: 1 2", "R1: 1 1"), 4, "exactly once"),
        (good.replace("R1: 1 2", "R1: 1"), 4, "exactly once"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as info:
            parse_orders(text, source="bad.ord")
        assert info.value.line == line
        assert fragment in str(info.value)
