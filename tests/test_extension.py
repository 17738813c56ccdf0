import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intpow import (
    CoordinateOverflowError,
    ExtensionTrace,
    Graph,
    IntervalRepresentation,
    InvalidKError,
    RepresentationMismatchError,
    VertexSetMismatchError,
    bfs_distances,
    connected_components,
    endpoint_orders,
    extend_representation,
    format_representation,
    format_trace,
    graph_power,
    graph_power_oracle,
    intersection_graph,
    intersection_rows,
    is_proper,
    iterate_powers,
    normalize,
    parse_trace,
    same_orders,
)
from intpow import extension
from intpow.extension import _first_difference
from intpow.graphs import _power_rows
from testutil import (
    assert_chain_matches_the_latest_close_oracle,
    ball_witnesses_walk,
    first_difference_graphs,
    floyd_warshall,
    gap_layout_by_anchor,
    intersection_graph_pairs,
    iterate_powers_chained,
    latest_close_extension,
    random_connected_representation,
    random_dense_representation,
    random_graph,
    random_proper_chain,
    random_proper_representation,
    random_representation,
    random_strict_connected_representation,
    ranked_representations,
    representations,
    strict_representations,
)

P4 = Graph.path(4)
P4_REP = IntervalRepresentation([(0, 2), (1, 4), (3, 6), (5, 7)])
P5 = Graph.path(5)
P5_REP = IntervalRepresentation([(0, 2), (1, 4), (3, 6), (5, 8), (7, 9)])


def test_p4_worked_example():
    out, trace = extend_representation(P4, 2, P4_REP)
    assert out.intervals == ((0, 16), (5, 26), (15, 30), (25, 35))
    assert trace.scale == 5
    assert trace.witness == (2, 3, None, None)
    assert trace.new_right == (16, 26, 30, 35)
    assert intersection_graph(out) == graph_power(P4, 2)


def test_p4_worked_example_formats_byte_exactly():
    out, _ = extend_representation(P4, 2, P4_REP)
    assert format_representation(out) == "4\n1 0 16\n2 5 26\n3 15 30\n4 25 35\n"


def test_k2_complete_pair():
    out, trace = extend_representation(
        Graph.complete(2), 2, IntervalRepresentation([(0, 1), (0, 1)])
    )
    assert out.intervals == ((0, 3), (0, 3))
    assert trace.witness == (None, None)


def test_rejects_k_below_two():
    for k in (1, 0, -3):
        with pytest.raises(InvalidKError):
            extend_representation(P4, k, P4_REP)


def test_rejects_vertex_count_mismatch():
    with pytest.raises(VertexSetMismatchError):
        extend_representation(P5, 2, P4_REP)


def test_rejects_representation_of_wrong_graph():
    broken = IntervalRepresentation([(0, 2), (1, 4), (3, 6), (8, 9)])
    with pytest.raises(RepresentationMismatchError) as err:
        extend_representation(P4, 2, broken)
    assert err.value.pair == (2, 3)
    assert "3" in str(err.value) and "4" in str(err.value)


def test_rejects_representation_with_extra_edge():
    crowded = IntervalRepresentation([(0, 2), (1, 4), (3, 6), (4, 7)])
    with pytest.raises(RepresentationMismatchError) as err:
        extend_representation(P4, 2, crowded)
    assert err.value.pair == (1, 3)


@settings(max_examples=200, deadline=None)
@given(representations(max_n=8), st.randoms(use_true_random=False))
def test_mismatch_names_smallest_differing_pair(r, rnd):
    """The reported pair is the smallest pair in the symmetric difference
    of the two edge sets, and the message says which side lacks it."""
    n = r.n
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.4])
    expected, actual = g.edge_set, intersection_graph(r).edge_set
    if expected == actual:
        return
    with pytest.raises(RepresentationMismatchError) as err:
        extend_representation(g, 2, r)
    pair = min(expected ^ actual)
    assert err.value.pair == pair
    assert str(err.value).endswith("disjoint") == (pair in expected)


def test_first_difference_matches_graph_oracle():
    # Random graph pairs on n = 1..30, and pairs one edge apart, each taken
    # in both directions: the rows version names the same pair and flag as
    # the Graph-based oracle.
    rng = random.Random(37)
    flags = set()
    for n in range(1, 31):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(4):
            p = rng.uniform(0.05, 0.95)
            a = {e for e in pairs if rng.random() < p}
            b = {e for e in pairs if rng.random() < p}
            cases = [(a, b)]
            if pairs:
                cases.append((a, a ^ {rng.choice(pairs)}))
            for x, y in cases:
                for expected, actual in ((Graph(n, x), Graph(n, y)), (Graph(n, y), Graph(n, x))):
                    if expected == actual:
                        continue
                    found = _first_difference(list(expected.rows), list(actual.rows))
                    assert found == first_difference_graphs(expected, actual)
                    flags.add(found[1])
    assert flags == {False, True}
    for n in range(6):
        rows = list(Graph.complete(n).rows)
        assert _first_difference(rows, list(rows)) is None


def test_left_endpoints_are_scaled_normalized_lefts():
    out, trace = extend_representation(P4, 2, P4_REP)
    base = normalize(P4_REP)
    for x in range(4):
        assert out.left(x) == trace.scale * base.left(x)


def test_output_contains_scaled_input():
    rng = random.Random(40)
    for _ in range(30):
        r = random_connected_representation(rng, max_n=12, coord_max=40)
        g = intersection_graph(r)
        out, trace = extend_representation(g, 2, r)
        base = normalize(r)
        for x in range(r.n):
            assert out.left(x) == trace.scale * base.left(x)
            assert out.right(x) >= trace.scale * base.right(x)


def test_trace_witness_distance_and_gap_placement():
    rng = random.Random(41)
    for _ in range(30):
        r = random_connected_representation(rng, max_n=12, coord_max=40)
        g = intersection_graph(r)
        k = rng.randint(2, 4)
        chain = iterate_powers(g, r, k)
        current = r
        for step_k, rep_out, trace in chain:
            base = normalize(current)
            scaled = sorted(
                {trace.scale * c for row in base.intervals for c in row}
            )
            for x in range(g.n):
                w = trace.witness[x]
                if w is None:
                    assert trace.new_right[x] == trace.scale * base.right(x)
                    continue
                dist = bfs_distances(g, x)
                assert dist[w] == step_k
                assert base.left(w) > base.left(x)
                anchor = trace.scale * base.left(w)
                assert anchor < trace.new_right[x]
                later = [c for c in scaled if c > anchor]
                if later:
                    assert trace.new_right[x] < later[0]
            current = rep_out


def test_witness_ties_pick_the_smallest_id():
    # Vertices 2 and 3 are twins, both two steps right of vertex 0.
    r = IntervalRepresentation([(0, 2), (1, 4), (3, 6), (3, 6)])
    _, trace = extend_representation(intersection_graph(r), 2, r)
    assert trace.witness == (2, None, None, None)


def _rightmost_witnesses(dist, k, previous):
    """Per x, the vertex exactly k away by dist that starts right of x in
    normalize(previous), the largest left endpoint first, then the
    smallest id."""
    base = normalize(previous)
    witness = []
    for x, row in enumerate(dist):
        candidates = [
            (-base.left(y), y) for y, d in enumerate(row)
            if d == k and base.left(y) > base.left(x)
        ]
        witness.append(min(candidates)[1] if candidates else None)
    return tuple(witness)


def test_witness_is_the_rightmost_then_smallest_id():
    """Every step of a chain to G^5, and single steps at k = 2, 3 and 4 on
    chain members, against witnesses picked from Floyd-Warshall distances."""
    rng = random.Random(43)
    for _ in range(60):
        r = random_connected_representation(rng, max_n=14, coord_max=12)
        g = intersection_graph(r)
        dist = floyd_warshall(g)
        chain = iterate_powers(g, r, 5)
        inputs = [r, *(rep for _, rep, _ in chain)]
        for previous, (k, _, trace) in zip(inputs, chain):
            assert trace.witness == _rightmost_witnesses(dist, k, previous)
        for k in (2, 3, 4):
            _, trace = extend_representation(g, k, inputs[k - 2])
            assert trace.witness == _rightmost_witnesses(dist, k, inputs[k - 2])


def test_ball_witnesses_match_the_bit_walk():
    """The witnesses `_step` keeps from _ball_candidates, which sweeps the
    rows once by descending left end, against the walk over every bit of
    outer[x]: n = 0 and 1, raw columns with tied lefts and lefts on rights
    (touching intervals) under random symmetric masks, rows of G^2 and G^3
    with normalized columns, and the extend-dense generator at n = 150.
    Both empty and non-empty later sets must occur."""
    rng = random.Random(61)
    cases = [([], [], []), ([1], [0], [0]), ([1], [0], [3])]
    for _ in range(300):
        n = rng.randint(2, 12)
        lefts = [rng.randint(0, 6) for _ in range(n)]
        rights = [left + rng.randint(0, 3) for left in lefts]
        masks = [rng.getrandbits(n) | 1 << x for x in range(n)]
        # The sweep requires symmetric rows, as every power of a graph has.
        transpose = [sum((masks[y] >> x & 1) << y for y in range(n)) for x in range(n)]
        cases.append(([a | b for a, b in zip(masks, transpose)], lefts, rights))
    for r in [random_representation(rng, max_n=16, coord_max=10) for _ in range(100)] + [
        random_dense_representation(random.Random(seed), 150) for seed in range(3)
    ]:
        base = normalize(r)
        lefts = [left for left, _ in base.intervals]
        rights = [right for _, right in base.intervals]
        for k in (2, 3):
            cases.append((_power_rows(intersection_graph(r), k), lefts, rights))
    ties = touching = found = missing = 0
    for outer, lefts, rights in cases:
        expected = ball_witnesses_walk(outer, lefts, rights)
        candidates = extension._ball_candidates(outer, lefts)
        assert [c if lefts[c] > right else None for c, right in zip(candidates, rights)] == expected
        ties += len(set(lefts)) < len(lefts)
        touching += bool(set(lefts) & set(rights))
        found += sum(w is not None for w in expected)
        missing += expected.count(None)
    assert ties > 100 and touching > 100 and found > 1000 and missing > 1000


def test_ball_candidates_match_the_chain_candidates():
    """At every step k of the chain, the candidates of one sweep of the rows
    of G^k over the lefts of member k - 1 equal the chain's cand[far[x]]
    for every vertex, those without a witness included: every strict start
    with n <= 5 and every ranked start with n <= 3, chained to G^(n-1),
    and random tied starts with n <= 40, G being r's intersection graph."""
    rng = random.Random(71)
    cases = [(r, max(2, n - 1)) for n in range(6) for r in strict_representations(n)]
    cases += [(r, max(2, n - 1)) for n in range(4) for r in ranked_representations(n)]
    for i in range(1200):
        r = random_representation(rng, max_n=40, coord_max=rng.choice([10, 30]))
        cases.append((r, 2 + i % 5))
    steps = 0
    for r, k_max in cases:
        g = intersection_graph(r)
        hop, cand = extension._span_tables(r)
        far = range(r.n)
        previous = r
        for k, rep, _ in iterate_powers(g, r, k_max):
            far = [hop[f] for f in far]
            lefts = [left for left, _ in previous.intervals]
            assert extension._ball_candidates(_power_rows(g, k), lefts) == [cand[f] for f in far]
            previous = rep
            steps += 1
    assert steps > 6000


def _per_anchor_step(dist, k, previous):
    """The output of one extension step to G^k from previous, with
    witnesses from Floyd-Warshall distances and the gap layout of
    gap_layout_by_anchor."""
    base = normalize(previous)
    scale = base.n + 1
    witness = _rightmost_witnesses(dist, k, previous)
    new_right = gap_layout_by_anchor(base, witness, scale)
    rep = IntervalRepresentation(
        (scale * left, right) for (left, _), right in zip(base.intervals, new_right)
    )
    return rep, ExtensionTrace(k, scale, witness, tuple(new_right))


def test_gap_layout_matches_the_per_anchor_layout():
    """Whole outputs of iterate_powers and extend_representation against the
    per-anchor gap layout, on coordinates in 0..4, 0..8 or 0..12, which
    put several stretched vertices into one gap, with equal and with
    distinct original rights."""
    rng = random.Random(53)
    shared_rights = distinct_rights = 0
    for trial in range(300):
        r = random_representation(rng, max_n=16, coord_max=rng.choice([4, 8, 12]))
        g = intersection_graph(r)
        dist = floyd_warshall(g)
        previous = r
        for k, rep, trace in iterate_powers(g, r, 2 + trial % 4):
            expected = _per_anchor_step(dist, k, previous)
            assert (rep, trace) == expected
            assert extend_representation(g, k, previous) == expected
            base = normalize(previous)
            gaps = {}
            for x, w in enumerate(trace.witness):
                if w is not None:
                    gaps.setdefault(base.left(w), []).append(base.right(x))
            for rights in gaps.values():
                shared_rights += len(set(rights)) < len(rights)
                distinct_rights += len(set(rights)) > 1
            previous = rep
    assert shared_rights > 50 and distinct_rights > 50


def test_iterate_powers_p5_chain():
    chain = iterate_powers(P5, P5_REP, 4)
    assert [k for k, _, _ in chain] == [2, 3, 4]
    left0, right0 = endpoint_orders(P5_REP)
    for k, rep_out, _ in chain:
        assert intersection_graph(rep_out) == graph_power_oracle(P5, k)
        left_k, right_k = endpoint_orders(rep_out)
        assert same_orders(left0, left_k)
        assert same_orders(right0, right_k)
    assert intersection_graph(chain[-1][1]) == Graph.complete(5)


def test_iterate_matches_single_step():
    chain = iterate_powers(P4, P4_REP, 2)
    single = extend_representation(P4, 2, P4_REP)
    assert chain == [(2, *single)]


def test_iterate_rejects_k_max_below_two():
    with pytest.raises(InvalidKError):
        iterate_powers(P4, P4_REP, 1)


def test_iterate_rejects_non_realizing_start():
    with pytest.raises(RepresentationMismatchError):
        iterate_powers(P4, IntervalRepresentation([(0, 9), (1, 2), (3, 4), (5, 6)]), 3)


def test_chain_overflow_names_the_vertex_one_based():
    # Scaled by n + 1 = 4 per step, P3 from 2^59 leaves the 64-bit range
    # at G^3, first at vertex 1's right endpoint.
    base = 2**59
    r = IntervalRepresentation([(base, base + 2), (base + 1, base + 4), (base + 3, base + 5)])
    g = Graph(3, [(0, 1), (1, 2)])
    assert [k for k, _, _ in iterate_powers(g, r, 2)] == [2]
    with pytest.raises(CoordinateOverflowError, match="^vertex 1: interval"):
        iterate_powers(g, r, 3)


def test_extension_output_reaches_the_64_bit_bounds_but_not_past_them():
    # One vertex, scaled by n + 1 = 2 and with no witness: the output is
    # twice the input, which reaches -2^63 and 2^63 - 2 but not 2^63 or
    # -2^63 - 2.
    g = Graph(1)
    for row, fits in [((0, 2**62 - 1), True), ((0, 2**62), False),
                      ((-(2**62), 0), True), ((-(2**62) - 1, 0), False)]:
        r = IntervalRepresentation([row])
        for extend in (lambda: extend_representation(g, 2, r)[0], lambda: iterate_powers(g, r, 2)[0][1]):
            if fits:
                assert extend() == IntervalRepresentation([(2 * row[0], 2 * row[1])])
            else:
                with pytest.raises(CoordinateOverflowError, match="^vertex 1: interval"):
                    extend()


def test_iterate_matches_chained_extensions():
    """The ball-row chain equals one extend_representation call per k, on
    connected and disconnected starts with twins and shared endpoints."""
    rng = random.Random(47)
    for trial in range(150):
        if trial % 2:
            r = random_connected_representation(rng, max_n=20, coord_max=rng.choice([12, 60]))
        else:
            r = random_representation(rng, max_n=20, coord_max=rng.choice([12, 60]))
        g = intersection_graph(r)
        k_max = 2 + trial % 5
        assert iterate_powers(g, r, k_max) == iterate_powers_chained(g, r, k_max)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_iterate_matches_chained_extensions_on_proper_chains(n):
    r = random_proper_chain(random.Random(n), n)
    g = intersection_graph(r)
    assert iterate_powers(g, r, 6) == iterate_powers_chained(g, r, 6)


def _outcome(run, *args):
    try:
        return run(*args)
    except (InvalidKError, RepresentationMismatchError, VertexSetMismatchError) as exc:
        return type(exc), str(exc), getattr(exc, "pair", None)


def test_iterate_matches_the_latest_close_oracle():
    """Every chain member to G^5 has the graph and the endpoint orders,
    ties included, of the latest-close oracle, on strict connected starts
    and on small coordinate ranges that force ties and disconnected
    graphs."""
    rng = random.Random(43)
    starts = [random_strict_connected_representation(rng, max_n=40) for _ in range(200)]
    starts += [random_representation(rng, max_n=30, coord_max=rng.choice([4, 8, 12])) for _ in range(200)]
    tied = 0
    for r in starts:
        g = intersection_graph(r)
        dist = floyd_warshall(g)
        orders = endpoint_orders(r)
        tied += not (orders[0].is_strict and orders[1].is_strict)
        for k, rep, _ in iterate_powers(g, r, 5):
            oracle = latest_close_extension(r, g, k)
            within_k = {
                (u, v) for u in range(r.n) for v in range(u + 1, r.n)
                if dist[u][v] is not None and dist[u][v] <= k
            }
            assert intersection_graph_pairs(oracle).edge_set == within_k
            assert endpoint_orders(oracle) == orders
            assert intersection_graph(rep) == intersection_graph(oracle)
            assert endpoint_orders(rep) == orders
    assert tied >= 150


@pytest.mark.parametrize("n, count", [(3, 15), (4, 105), (5, 945)])
def test_every_strict_start_matches_the_latest_close_oracle(n, count):
    """Every strict representation on n vertices, up to relabeling,
    chained to G^(n-1), where every connected start is complete."""
    starts = list(strict_representations(n))
    assert len(starts) == count
    for r in starts:
        assert_chain_matches_the_latest_close_oracle(r, n - 1)


@pytest.mark.parametrize("n, count", [(3, 150), (4, 2210)])
def test_every_ranked_start_matches_the_latest_close_oracle(n, count):
    """Every representation on n vertices up to rank compression and
    relabeling, ties and touching intervals included, chained to
    G^(n-1)."""
    starts = list(ranked_representations(n))
    assert len(starts) == count
    for r in starts:
        assert_chain_matches_the_latest_close_oracle(r, n - 1)


def test_each_entry_point_checks_its_input_once(monkeypatch):
    """iterate_powers checks r against g once, whatever k_max, with the
    row-free check, and extend_representation checks its input once
    against rows; no chain member is checked again."""
    calls = []
    check, row_free = extension._check_realizes, extension._realizes

    def counted(r, expected, power):
        calls.append(power)
        return check(r, expected, power)

    def counted_row_free(g, r):
        calls.append("row-free")
        return row_free(g, r)

    monkeypatch.setattr(extension, "_check_realizes", counted)
    monkeypatch.setattr(extension, "_realizes", counted_row_free)
    for k_max in range(2, 7):
        calls.clear()
        chain = iterate_powers(P5, P5_REP, k_max)
        assert calls == ["row-free"]
        for k, rep, _ in chain[:-1]:
            calls.clear()
            extend_representation(P5, k + 1, rep)
            assert calls == [k]


def test_iterate_powers_builds_no_rows(monkeypatch):
    """On an input that realizes g, the chain returns the chain of one
    extend_representation call per k while every route to n-bit rows
    raises where extension looks it up: no ball is widened, no rows of
    an intersection graph or a power are built, no BFS runs.  Each g is
    built from its edges, so a read of g.rows would widen."""
    rng = random.Random(59)
    starts = [IntervalRepresentation([]), P5_REP, random_proper_chain(rng, 100)]
    starts += [random_representation(rng, max_n=20, coord_max=rng.choice([8, 40])) for _ in range(40)]
    starts += [random_strict_connected_representation(rng, max_n=30) for _ in range(20)]
    cases = [(r, 2 + i % 4) for i, r in enumerate(starts)]
    expected = [iterate_powers_chained(intersection_graph(r), r, k_max) for r, k_max in cases]

    def refuse(*args):
        raise AssertionError("the chain built rows")

    for target in ("intpow.extension.intersection_rows", "intpow.extension._power_rows",
                   "intpow.extension._ball_candidates", "intpow.graphs.widen_balls",
                   "intpow.graphs.bfs_distances"):
        monkeypatch.setattr(target, refuse)
    for (r, k_max), chain in zip(cases, expected):
        g = Graph(r.n, intersection_graph_pairs(r).edge_set)
        assert iterate_powers(g, r, k_max) == chain


def _row_free_cases(rng):
    """(g, r) pairs for the row-free realization check: each start with
    its own intersection graph, with one edge added, with one removed, with
    two edges swapped so every degree stays, and with a random graph.
    Starts: n = 0, isolated vertices, twins, touching intervals and
    random representations, ties and disconnected graphs included."""
    starts = [
        IntervalRepresentation([]),
        IntervalRepresentation([(0, 0)]),
        IntervalRepresentation([(0, 1), (5, 6), (10, 10)]),
        IntervalRepresentation([(0, 3), (0, 3), (2, 5), (2, 5)]),
        IntervalRepresentation([(0, 2), (2, 4), (4, 4), (4, 6), (6, 6)]),
        P4_REP,
    ]
    starts += [random_representation(rng, max_n=12, coord_max=rng.choice([4, 10, 30]))
               for _ in range(300)]
    cases = [(Graph(4, [(0, 2), (1, 2), (1, 3)]), P4_REP)]  # P4's degrees, other edges
    for r in starts:
        edges = set(intersection_graph_pairs(r).edge_set)
        pairs = list(itertools.combinations(range(r.n), 2))
        variants = [edges, {pair for pair in pairs if rng.random() < 0.4}]
        if pairs:
            variants.append(edges | {rng.choice(pairs)})
        if edges:
            variants.append(edges - {rng.choice(sorted(edges))})
        if len(edges) >= 2:
            (a, b), (c, d) = rng.sample(sorted(edges), 2)
            swapped = {tuple(sorted(pair)) for pair in ((a, d), (c, b))}
            if len({a, b, c, d}) == 4 and not swapped & edges:
                variants.append(edges - {(a, b), (c, d)} | swapped)
        cases += [(Graph(r.n, variant), r) for variant in variants]
    return cases


def test_row_free_realization_check_matches_the_rows():
    """extension._realizes(g, r) holds exactly when intersection_rows(r)
    equals g.rows, and when the pair oracle's graph of r is g."""
    cases = _row_free_cases(random.Random(61))
    verdicts = []
    for g, r in cases:
        expected = intersection_rows(r) == list(g.rows)
        assert (intersection_graph_pairs(r) == g) == expected
        assert extension._realizes(g, r) == expected
        verdicts.append(expected)
    assert 300 < verdicts.count(True) < len(verdicts) - 600


def test_iterate_errors_match_chained_extensions():
    """Non-realizing starts, size mismatches and k_max below two raise
    the same exception, message and pair as the chained oracle."""
    rng = random.Random(53)
    cases = [(P4, P4_REP, k) for k in (-1, 0, 1)]
    cases += [(P5, P4_REP, 3), (P4, P5_REP, 2), (Graph(0), P4_REP, 4)]
    cases.append((Graph(0), IntervalRepresentation([]), 3))  # realizes: both return a chain
    for _ in range(150):
        r = random_representation(rng, max_n=10, coord_max=20)
        g = random_graph(rng, max_n=10)
        g = Graph(r.n, [(u, v) for u, v in g.edge_set if v < r.n])
        cases.append((g, r, rng.randint(2, 4)))
    mismatches = 0
    for g, r, k_max in cases:
        expected = _outcome(iterate_powers_chained, g, r, k_max)
        mismatches += isinstance(expected, tuple) and expected[0] is RepresentationMismatchError
        assert _outcome(iterate_powers, g, r, k_max) == expected
    assert mismatches >= 100


def test_fixpoint_when_power_stabilizes():
    """Once the graph power stops growing, extension keeps realizing it."""
    chain = iterate_powers(P5, P5_REP, 6)
    for k, rep_out, _ in chain[2:]:
        assert intersection_graph(rep_out) == Graph.complete(5)


def test_extension_preserves_properness():
    rng = random.Random(42)
    for _ in range(40):
        r = random_proper_representation(rng, max_n=10)
        g = intersection_graph(r)
        out, _ = extend_representation(g, 2, r)
        assert is_proper(out)


def test_disconnected_input_matches_per_component_runs():
    """The global pass restricted to one component gives the same graph and
    orders as extending that component on its own (coordinates differ by
    the two runs' scale factors)."""
    rng = random.Random(43)
    for _ in range(20):
        a = random_connected_representation(rng, max_n=6, coord_max=20)
        b = random_connected_representation(rng, max_n=6, coord_max=20)
        offset = max(right for _, right in a.intervals) + 2
        rows = list(a.intervals) + [
            (left + offset, right + offset) for left, right in b.intervals
        ]
        r = IntervalRepresentation(rows)
        g = intersection_graph(r)
        if len(connected_components(g)) != 2:
            continue
        out, _ = extend_representation(g, 2, r)
        assert intersection_graph(out) == graph_power_oracle(g, 2)
        for piece, span in ((a, range(a.n)), (b, range(a.n, a.n + b.n))):
            sub = IntervalRepresentation([out.intervals[v] for v in span])
            own, _ = extend_representation(intersection_graph(piece), 2, piece)
            assert intersection_graph(sub) == intersection_graph(own)
            sub_orders = endpoint_orders(sub)
            own_orders = endpoint_orders(own)
            assert same_orders(sub_orders[0], own_orders[0])
            assert same_orders(sub_orders[1], own_orders[1])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=4))
def test_extension_preserves_graph_and_orders(rnd, k):
    r = random_connected_representation(rnd, max_n=10, coord_max=30)
    g = intersection_graph(r)
    left0, right0 = endpoint_orders(r)
    chain = iterate_powers(g, r, k)
    for step_k, rep_out, _ in chain:
        assert intersection_graph(rep_out) == graph_power(g, step_k)
        left_k, right_k = endpoint_orders(rep_out)
        assert same_orders(left0, left_k)
        assert same_orders(right0, right_k)


def test_trace_round_trip():
    _, trace = extend_representation(P4, 2, P4_REP)
    assert parse_trace(format_trace(trace)) == trace


def test_trace_format_p4():
    _, trace = extend_representation(P4, 2, P4_REP)
    assert format_trace(trace) == "2 5\n1 3 16\n2 4 26\n3 - 30\n4 - 35\n"


def test_parse_trace_errors():
    from intpow import ParseError

    with pytest.raises(ParseError):
        parse_trace("")
    with pytest.raises(ParseError):
        parse_trace("2\n1 - 3\n")
    with pytest.raises(ParseError):
        parse_trace("2 5\n1 - 3\n1 - 4\n")
    with pytest.raises(ParseError):
        parse_trace("2 5\n1 9 3\n2 - 4\n")


def test_trace_is_frozen():
    trace = ExtensionTrace(k=2, scale=3, witness=(None,), new_right=(6,))
    with pytest.raises(AttributeError):
        trace.k = 3
    with pytest.raises(AttributeError):
        trace.extra = 3


def test_trace_construction_repr_equality_and_hash():
    _, trace = extend_representation(P5, 2, P5_REP)
    assert repr(trace) == (
        "ExtensionTrace(k=2, scale=6, witness=(2, 3, 4, None, None), "
        "new_right=(19, 31, 43, 48, 54))"
    )
    fields = (2, 6, (2, 3, 4, None, None), (19, 31, 43, 48, 54))
    assert (trace.k, trace.scale, trace.witness, trace.new_right) == fields
    positional = ExtensionTrace(*fields)
    assert positional == trace
    assert hash(positional) == hash(trace) == hash(fields)
    assert trace != ExtensionTrace(*fields[:3], (19, 31, 43, 48, 55))
