import itertools
import random

import pytest
from hypothesis import given, settings

from intpow import (
    CoordinateOverflowError,
    Graph,
    InfeasibleConstraintsError,
    IntervalRepresentation,
    NotProperError,
    ParseError,
    VertexSetMismatchError,
    WeakOrder,
    endpoint_orders,
    find_containment_pair,
    format_representation,
    intersection_graph,
    intersection_rows,
    is_proper,
    iterate_powers,
    normalize,
    parse_representation,
    proper_to_unit,
    same_orders,
)
from testutil import (
    crowded_representations,
    find_containment_pair_pairs,
    intersection_graph_pairs,
    proper_representations,
    proper_to_unit_pairs,
    random_proper_chain,
    random_proper_representation,
    random_representation,
    ranked_representations,
    representations,
    strict_proper_representations,
    strict_representations,
)

INT64_MAX = 2**63 - 1


def rep(*rows):
    return IntervalRepresentation(rows)


def test_representation_validation():
    with pytest.raises(ValueError):
        rep((3, 2))
    with pytest.raises(CoordinateOverflowError):
        rep((0, 2**63))
    with pytest.raises(CoordinateOverflowError):
        rep((-(2**63) - 1, 0))


def test_representation_errors_name_vertices_one_based():
    with pytest.raises(ValueError, match="^vertex 1: left endpoint 3 exceeds right 2$"):
        rep((3, 2))
    with pytest.raises(ValueError, match="^vertex 2: left endpoint 3 exceeds right 2$"):
        rep((0, 1), (3, 2))
    with pytest.raises(CoordinateOverflowError, match="^vertex 1: interval"):
        rep((0, 2**63))
    with pytest.raises(CoordinateOverflowError, match="^vertex 2: interval"):
        rep((0, 1), (-(2**63) - 1, 0))


def test_representation_names_the_vertex_of_a_row_of_the_wrong_width():
    with pytest.raises(ValueError, match="^vertex 2: expected 2 coordinates, got 3$"):
        rep((0, 1), (0, 1, 2))
    with pytest.raises(ValueError, match="^vertex 1: expected 2 coordinates, got 1$"):
        rep((0,))


def test_intersection_graph_path():
    r = rep((0, 2), (1, 4), (3, 6), (5, 7))
    assert intersection_graph(r) == Graph.path(4)


def test_intersection_touching_counts():
    r = rep((0, 2), (2, 4))
    assert 1 in intersection_graph(r).neighbors(0)


def test_intersection_points_and_twins():
    r = rep((1, 1), (1, 1), (2, 3))
    assert intersection_graph(r).edge_set == frozenset({(0, 1)})


@pytest.mark.parametrize(
    "rows, edges",
    [
        ([], set()),
        ([(3, 5)], set()),
        ([(4, 6), (0, 4)], {(0, 1)}),  # l_v == r_u, listed out of order
        ([(0, 2), (2, 2), (2, 2), (3, 3)], {(0, 1), (0, 2), (1, 2)}),  # points
        ([(1, 4), (1, 4), (1, 4)], {(0, 1), (0, 2), (1, 2)}),  # identical
        ([(0, 10), (2, 3), (4, 9), (5, 6), (11, 12)],  # nested
         {(0, 1), (0, 2), (0, 3), (2, 3)}),
        ([(5, 6), (0, 1), (2, 3), (-4, -2)], set()),  # disjoint
    ],
)
def test_intersection_sweep_rows(rows, edges):
    r = rep(*rows)
    assert intersection_graph(r).edge_set == frozenset(edges)
    assert intersection_graph(r) == intersection_graph_pairs(r)


@settings(max_examples=300)
@given(representations(max_n=12, coord_max=15))
def test_intersection_sweep_matches_pair_tests(r):
    assert intersection_graph(r) == intersection_graph_pairs(r)


@settings(max_examples=300)
@given(crowded_representations())
def test_intersection_rows_match_pair_tests(r):
    pairs = intersection_graph_pairs(r)
    expected = [
        (1 << x) | sum(1 << y for y in pairs.neighbors(x)) for x in range(r.n)
    ]
    assert intersection_rows(r) == expected


def test_endpoint_orders_strict():
    left, right = endpoint_orders(rep((0, 2), (1, 4), (3, 6)))
    assert left.ranks == (0, 1, 2)
    assert right.ranks == (0, 1, 2)


def test_endpoint_orders_with_ties():
    left, right = endpoint_orders(rep((0, 2), (0, 3)))
    assert left.ranks == (0, 0)
    assert right.ranks == (0, 1)


def test_endpoint_orders_reversal():
    left, right = endpoint_orders(rep((0, 5), (1, 2)))
    assert left.ranks == (0, 1)
    assert right.ranks == (1, 0)


def test_weak_order_validation_and_compare():
    with pytest.raises(ValueError):
        WeakOrder([0, 2])
    order = WeakOrder([1, 0, 1])
    assert order.ranks[1] < order.ranks[0]
    assert order.ranks[0] == order.ranks[2]
    assert order.tie_groups() == [[1], [0, 2]]


def test_weak_order_from_sequence():
    order = WeakOrder.from_sequence([2, 0, 1])
    assert order.strict_sequence() == [2, 0, 1]
    with pytest.raises(ValueError) as info:
        WeakOrder.from_sequence([0, 0])
    assert type(info.value) is ValueError


def test_same_orders_examples():
    a = WeakOrder.from_keys([0, 1, 1])
    b = WeakOrder.from_keys([10, 20, 20])
    c = WeakOrder.from_keys([0, 1, 2])
    assert same_orders(a, b)
    assert not same_orders(a, c)


def test_same_orders_vertex_set_mismatch():
    with pytest.raises(VertexSetMismatchError):
        same_orders(WeakOrder([0]), WeakOrder([0, 1]))


def test_normalize_shared_endpoint():
    assert normalize(rep((0, 2), (2, 4))).intervals == ((0, 5), (4, 8))


def test_normalize_multiway_collision():
    r = normalize(rep((0, 2), (2, 3), (2, 5)))
    assert r.intervals == ((0, 5), (4, 6), (4, 10))


def test_normalize_clean_input_returned_as_is():
    r = rep((0, 1), (3, 4))
    assert normalize(r) is r


def test_normalize_separates_point_intervals():
    """A degenerate interval shares its own left and right coordinate, so
    it must be opened up as well."""
    r = normalize(rep((1, 1), (3, 4)))
    assert r.intervals == ((2, 3), (6, 8))


def test_normalize_twin_points_collide():
    r = normalize(rep((1, 1), (1, 1)))
    assert r.intervals == ((2, 3), (2, 3))


def test_normalize_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        r = random_representation(rng, max_n=10, coord_max=20)
        once = normalize(r)
        assert normalize(once) is once


def _has_collision(r):
    lefts = {left for left, _ in r.intervals}
    return any(right in lefts for _, right in r.intervals)


@settings(max_examples=200)
@given(representations(max_n=10, coord_max=25))
def test_normalize_preserves_graph_and_orders(r):
    fixed = normalize(r)
    assert not _has_collision(fixed)
    assert intersection_graph(fixed) == intersection_graph(r)
    left_a, right_a = endpoint_orders(r)
    left_b, right_b = endpoint_orders(fixed)
    assert same_orders(left_a, left_b)
    assert same_orders(right_a, right_b)


def test_normalize_overflow():
    with pytest.raises(CoordinateOverflowError):
        normalize(rep((0, INT64_MAX // 2 + 1), (INT64_MAX // 2 + 1, INT64_MAX // 2 + 2)))


def test_is_proper_examples():
    assert is_proper(rep((0, 2), (1, 3)))
    assert not is_proper(rep((0, 5), (1, 2)))
    assert is_proper(rep((0, 2), (0, 2)))
    assert not is_proper(rep((0, 3), (0, 2)))


def _contains_properly(outer, inner):
    return outer[0] <= inner[0] and inner[1] <= outer[1] and outer != inner


@settings(max_examples=200)
@given(representations(max_n=8, coord_max=12))
def test_is_proper_iff_containment_free(r):
    containment = any(
        _contains_properly(r.intervals[u], r.intervals[v])
        for u in range(r.n)
        for v in range(r.n)
        if u != v
    )
    assert is_proper(r) == (not containment)
    witness = find_containment_pair(r)
    assert witness == find_containment_pair_pairs(r)
    assert (witness is None) == (not containment)
    if witness is not None:
        u, v = witness
        assert _contains_properly(r.intervals[u], r.intervals[v])


def test_proper_to_unit_two_vertices():
    assert proper_to_unit(rep((0, 2), (1, 3))).intervals == ((0, 4), (1, 5))


def test_proper_to_unit_three_vertices():
    out = proper_to_unit(rep((0, 2), (1, 3), (3, 5)))
    assert out.intervals == ((0, 9), (1, 10), (10, 19))


def test_proper_to_unit_canonical_solution_is_componentwise_minimal():
    """Brute-force every nonnegative assignment in a small box and check the
    produced left endpoints are the lower envelope of the feasible set."""
    r = rep((0, 2), (1, 3), (3, 5))
    unit = 9
    feasible = []
    for fa, fb, fc in itertools.product(range(25), repeat=3):
        if not (1 <= fb - fa <= unit):
            continue
        if not (1 <= fc - fb <= unit):
            continue
        if not (fc - fa >= unit + 1):
            continue
        feasible.append((fa, fb, fc))
    lower = tuple(min(point[i] for point in feasible) for i in range(3))
    out = proper_to_unit(r)
    assert tuple(left for left, _ in out.intervals) == lower


def test_proper_to_unit_twins():
    assert proper_to_unit(rep((0, 2), (0, 2))).intervals == ((0, 4), (0, 4))


def test_proper_to_unit_rejects_containment():
    with pytest.raises(NotProperError) as err:
        proper_to_unit(rep((0, 5), (1, 2)))
    assert err.value.witness == (0, 1)


def test_proper_to_unit_single_vertex():
    assert proper_to_unit(rep((7, 9))).intervals == ((0, 1),)


def _unit_outcome(convert, r):
    """The unit intervals, or the exception type and the witness."""
    try:
        return convert(r).intervals
    except NotProperError as exc:
        return type(exc), exc.witness


@settings(max_examples=150)
@given(representations(max_n=8, coord_max=20))
def test_proper_to_unit_postconditions(r):
    assert _unit_outcome(proper_to_unit, r) == _unit_outcome(proper_to_unit_pairs, r)
    if not is_proper(r):
        with pytest.raises(NotProperError):
            proper_to_unit(r)
        return
    out = proper_to_unit(r)
    unit = r.n * r.n
    assert all(right - left == unit for left, right in out.intervals)
    assert min(left for left, _ in out.intervals) == 0
    assert intersection_graph(out) == intersection_graph(r)
    left_a, right_a = endpoint_orders(r)
    left_b, right_b = endpoint_orders(out)
    assert same_orders(left_a, left_b)
    assert same_orders(right_a, right_b)


def test_proper_to_unit_never_infeasible_on_random_proper_inputs():
    rng = random.Random(23)
    for _ in range(100):
        r = random_proper_representation(rng, max_n=12)
        try:
            out = proper_to_unit(r)
        except InfeasibleConstraintsError:
            pytest.fail("feasible system reported infeasible")
        assert intersection_graph(out) == intersection_graph(r)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(3, 5)],
        [(2, 2)],
        [(0, 2), (2, 4), (4, 6)],  # touching
        [(1, 1), (1, 1), (2, 2), (0, 1)],  # twin points, touching
        [(5, 8), (0, 3), (5, 8), (3, 5), (0, 3)],  # twins out of order
        [(0, 4), (1, 5), (2, 6), (3, 7), (8, 9)],
        [(0, 5), (1, 2)],  # improper
        [(1, 3), (0, 3), (2, 2), (0, 1)],  # improper, later u wins
        [(4, 4), (0, 9), (4, 4), (4, 6)],  # improper, equal lefts
    ],
)
def test_proper_to_unit_rows_match_pair_oracle(rows):
    r = rep(*rows)
    assert _unit_outcome(proper_to_unit, r) == _unit_outcome(proper_to_unit_pairs, r)
    assert find_containment_pair(r) == find_containment_pair_pairs(r)


@settings(max_examples=300)
@given(proper_representations(max_n=10))
def test_proper_to_unit_matches_pair_oracle_on_proper_inputs(r):
    assert proper_to_unit(r).intervals == proper_to_unit_pairs(r).intervals


def _ranked(r):
    """r's class under rank compression and relabeling: its coordinates
    ranked densely, its rows sorted."""
    rank = {c: i for i, c in enumerate(sorted({c for row in r.intervals for c in row}))}
    return rep(*sorted((rank[left], rank[right]) for left, right in r.intervals))


@pytest.mark.parametrize("n, ranked, strict, proper", [
    (1, 2, 1, 1), (2, 14, 3, 2), (3, 150, 15, 5), (4, 2210, 105, 14),
])
def test_exhaustive_generators_list_every_class_once(n, ranked, strict, proper):
    classes = set(ranked_representations(n))
    assert len(classes) == ranked
    strict_starts = list(strict_representations(n))
    assert len(strict_starts) == strict
    assert set(strict_starts) == {
        r for r in classes if len({c for row in r.intervals for c in row}) == 2 * n
    }
    proper_starts = list(strict_proper_representations(n))
    assert len(proper_starts) == proper
    assert set(proper_starts) == {r for r in strict_starts if is_proper(r)}
    # Random inputs, ties included, fall into the listed classes.
    rng = random.Random(n)
    for _ in range(300):
        r = rep(*(sorted(rng.sample(range(2 * n), 2)) if rng.random() < 0.8
                  else [rng.randrange(2 * n)] * 2 for _ in range(n)))
        assert _ranked(r) in classes


def test_proper_to_unit_matches_pair_oracle_on_every_small_strict_proper_input():
    # Every strict proper representation with 1 <= n <= 8, up to relabeling.
    starts = [r for n in range(1, 9) for r in strict_proper_representations(n)]
    assert len(starts) == 2055
    for r in starts:
        assert proper_to_unit(r).intervals == proper_to_unit_pairs(r).intervals


@pytest.mark.parametrize("n", [50, 100, 200])
def test_proper_to_unit_matches_pair_oracle_on_chain_powers(n):
    r = random_proper_chain(random.Random(n), n)
    chain = iterate_powers(intersection_graph(r), r, 6)
    for _, power, _ in chain:
        assert proper_to_unit(power).intervals == proper_to_unit_pairs(power).intervals


REP_TEXT = "3\n1 0 2\n2 1 4\n3 3 6\n"


def test_parse_representation():
    r = parse_representation(REP_TEXT)
    assert r.intervals == ((0, 2), (1, 4), (3, 6))


def test_representation_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        r = random_representation(rng, max_n=12)
        assert parse_representation(format_representation(r)) == r


def test_parse_representation_errors():
    with pytest.raises(ParseError) as err:
        parse_representation("2\n1 0 2\n1 1 3\n", source="r.rep")
    assert "r.rep:3" in str(err.value)
    with pytest.raises(ParseError):
        parse_representation("2\n1 0 2\n3 1 3\n")
    with pytest.raises(ParseError):
        parse_representation("1\n1 4 2\n")
    with pytest.raises(ParseError):
        parse_representation("1\n1 0\n")
    with pytest.raises(ParseError):
        parse_representation(f"1\n1 0 {2**63}\n")


def test_parse_representation_negative_coordinates():
    r = parse_representation("1\n1 -5 -2\n")
    assert r.intervals == ((-5, -2),)
