import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intpow import (
    Graph,
    InvalidKError,
    InvalidVertexError,
    ParseError,
    UNREACHABLE,
    VertexSetMismatchError,
    bfs_distances,
    connected_components,
    format_graph,
    graph_power,
    graph_power_oracle,
    parse_graph,
    widen_balls,
)
from intpow.graphs import BITSET_MIN_AVERAGE_DEGREE, _block_tables, _power_rows
from testutil import (
    ReferenceGraph,
    clique_path,
    edge_lists,
    floyd_warshall,
    graphs,
    queue_distances,
    random_block_graph,
    random_dense_interval_graph,
    random_graph,
    relabel_graph,
)

P5 = Graph.path(5)


def test_graph_basic_accessors():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert g.neighbors(1) == (0, 2)
    assert 0 in g.neighbors(1)
    assert 2 not in g.neighbors(0)
    for v in (3, -1):
        with pytest.raises(InvalidVertexError, match=f"vertex {v} out of range for 3 vertices"):
            g.neighbors(v)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidVertexError):
        Graph(3, [(0, 3)])


@pytest.mark.parametrize("n, edges, error, message", [
    pytest.param(-1, [], ValueError, "vertex count must be nonnegative", id="negative-n"),
    pytest.param(3, [(0, 1), (1, 1)], ValueError, "self-loop at vertex 1", id="self-loop"),
    pytest.param(3, [(0, 3)], InvalidVertexError, "edge (0, 3) out of range for 3 vertices",
                 id="second-endpoint-too-large"),
    pytest.param(3, [(3, 0)], InvalidVertexError, "edge (3, 0) out of range for 3 vertices",
                 id="first-endpoint-too-large"),
    pytest.param(3, [(0, -1)], InvalidVertexError, "edge (0, -1) out of range for 3 vertices",
                 id="second-endpoint-negative"),
    pytest.param(3, [(-1, 2)], InvalidVertexError, "edge (-1, 2) out of range for 3 vertices",
                 id="first-endpoint-negative"),
    pytest.param(4, [(0, 2), (0, 3), (0, 2)], ValueError, "duplicate edge (0, 2)",
                 id="duplicate-same-orientation"),
    pytest.param(4, [(0, 1), (2, 1), (1, 3), (1, 2)], ValueError, "duplicate edge (1, 2)",
                 id="duplicate-reversed"),
])
def test_graph_constructor_errors(n, edges, error, message):
    with pytest.raises(error) as info:
        Graph(n, edges)
    assert type(info.value) is error
    assert str(info.value) == message


@settings(max_examples=300, deadline=None)
@given(edge_lists(max_n=12), st.randoms(use_true_random=False))
def test_graph_matches_reference_model(case, rnd):
    n, edges = case
    g = Graph(n, edges)
    ref = ReferenceGraph(n, edges)
    assert g.edge_set == ref.edge_set
    assert g.m == ref.m
    for v in range(n):
        assert g.neighbors(v) == ref.neighbors(v)
    shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in rnd.sample(edges, len(edges))]
    twin = Graph(n, shuffled)
    assert twin == g and hash(twin) == hash(g)
    assert Graph(n + 1, edges) != g
    if edges:
        assert Graph(n, shuffled[1:]) != g
    text = format_graph(g)
    assert text.encode() == ref.text().encode()
    assert parse_graph(text) == g


def test_bfs_p5_from_end():
    assert bfs_distances(P5, 0) == [0, 1, 2, 3, 4]


def test_bfs_single_vertex():
    assert bfs_distances(Graph(1), 0) == [0]


def test_bfs_disconnected():
    g = Graph(3, [(0, 1)])
    assert bfs_distances(g, 0) == [0, 1, UNREACHABLE]


def test_bfs_source_out_of_range():
    with pytest.raises(InvalidVertexError):
        bfs_distances(P5, 5)


def test_power_p5_squared():
    expected = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}
    assert graph_power(P5, 2).edge_set == frozenset(expected)


def test_power_k1_is_identity():
    assert graph_power(P5, 1) == P5


def test_power_p5_k4_is_complete():
    assert graph_power(P5, 4) == Graph.complete(5)
    assert graph_power(P5, 9) == Graph.complete(5)


def test_power_rejects_k0():
    with pytest.raises(InvalidKError):
        graph_power(P5, 0)
    with pytest.raises(InvalidKError):
        graph_power_oracle(P5, 0)


def test_power_disconnected_stays_disconnected():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    p = graph_power(g, 3)
    assert p.edge_set == frozenset({(0, 1), (2, 3), (2, 4), (3, 4)})


def test_oracle_matches_on_named_cases():
    # k = 10**9 returns at once: the oracle stops after n - 1 products.
    cases = [(P5, 2), (P5, 3), (Graph.complete(2), 5), (Graph(3), 3), (Graph(1), 1)]
    cases.append((Graph.path(6), 10**9))
    split = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    cases += [(split, k) for k in (5, 6, 10**9)]
    for g, k in cases:
        assert graph_power(g, k) == graph_power_oracle(g, k)


def test_both_power_routes_match_floyd_warshall():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, max_n=9)
        dist = floyd_warshall(g)
        for k in (1, 2, 3, 10**9):
            expected = frozenset(
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if dist[u][v] is not None and dist[u][v] <= k
            )
            assert graph_power(g, k).edge_set == expected
            assert graph_power_oracle(g, k).edge_set == expected
            # The kept rows of both routes, compared without the shared
            # rows-to-Graph conversion.
            assert list(graph_power(g, k).rows) == list(graph_power_oracle(g, k).rows)


def test_graph_power_runs_no_bfs(monkeypatch):
    # Dense, sparse and disconnected graphs, and k past the diameter.
    rng = random.Random(31)
    cases = [Graph(0), Graph(1), Graph.path(12), Graph.complete(7)]
    cases += [random_block_graph(rng, n, p, blocks, isolated) for n, p, blocks, isolated in [
        (30, 0.9, 1, 0), (40, 0.08, 1, 0), (40, 0.5, 3, 4), (25, 0.2, 2, 3),
    ]]
    expected = {(g, k): graph_power_oracle(g, k) for g in cases for k in (1, 2, 3, 10**9)}

    def refuse(g, source):
        raise AssertionError("graph_power ran a breadth-first search")

    monkeypatch.setattr("intpow.graphs.bfs_distances", refuse)
    for (g, k), power in expected.items():
        assert graph_power(g, k) == power


def test_graph_power_past_the_diameter_widens_nothing(monkeypatch):
    # From k = n - 1 on, each ball is a component, built without widening.
    rng = random.Random(37)
    cases = [Graph(0), Graph(1), Graph(2), Graph.path(2), Graph.path(12), Graph.path(60),
             Graph.complete(7), random_dense_interval_graph(rng, 80)]
    cases += [random_block_graph(rng, n, p, blocks, isolated) for n, p, blocks, isolated in [
        (30, 0.9, 1, 0), (40, 0.08, 1, 0), (40, 0.5, 3, 4), (25, 0.2, 2, 3), (12, 0.0, 1, 12),
    ]]
    expected = {(g, k): graph_power_oracle(g, k) for g in cases for k in (max(1, g.n - 1), 10**9)}

    def refuse(g, balls):
        raise AssertionError("graph_power widened the balls past the diameter")

    monkeypatch.setattr("intpow.graphs.widen_balls", refuse)
    for (g, k), power in expected.items():
        result = graph_power(g, k)
        assert result == power and hash(result) == hash(power)
        assert result.rows == power.rows


def test_graph_power_of_long_path_is_fast():
    # n breadth-first searches and an n^2 distance scan take seconds here,
    # so the bound fails unless the power is widened from the rows.
    started = time.perf_counter()
    power = graph_power(Graph.path(6400), 2)
    elapsed = time.perf_counter() - started
    assert (power.n, power.m) == (6400, 2 * 6400 - 3)
    assert elapsed < 1.0, elapsed


def test_both_bfs_paths_match_floyd_warshall():
    # n = 20..60 with edge probabilities on both sides of the bitset cut,
    # split into blocks with isolated vertices, so both BFS paths meet
    # unreachable vertices and isolated sources.
    rng = random.Random(23)
    paths_hit = set()
    for n, p, blocks, isolated in [
        (20, 0.1, 1, 0), (20, 0.95, 1, 0), (30, 0.3, 2, 3), (30, 0.95, 2, 2),
        (40, 0.2, 1, 0), (40, 0.6, 1, 1), (50, 0.1, 3, 5), (50, 0.9, 2, 4),
        (60, 0.05, 1, 0), (60, 0.3, 1, 0), (60, 0.9, 2, 6), (60, 0.99, 1, 1),
    ]:
        g = random_block_graph(rng, n, p, blocks, isolated)
        dense = 2 * g.m >= BITSET_MIN_AVERAGE_DEGREE * g.n
        paths_hit.add(dense)
        dist = floyd_warshall(g)
        for source in range(n):
            assert bfs_distances(g, source) == dist[source]
        assert (g._rows is not None) == dense
        for k in (1, 2, 3, 4):
            assert graph_power(g, k) == graph_power_oracle(g, k)
    assert paths_hit == {False, True}


def _star_over(rng, n, edge_prob):
    """Vertex 0 joined to every other vertex, over a random graph on the
    rest: from 0 the first level reaches every vertex."""
    edges = [(0, v) for v in range(1, n)]
    edges += [(u, v) for u, v in itertools.combinations(range(1, n), 2) if rng.random() < edge_prob]
    return Graph(n, edges)


def _fan_out(frontier, late):
    """Source 0 joined to a clique on 1..frontier, so that the first
    frontier from 0 holds exactly `frontier` vertices, spread over 8 to 17
    hex blocks.  A clique on 40 vertices past it hangs off vertex frontier
    and keeps the average degree above the bitset cut.  With late, vertex
    frontier + 1 hangs off vertex 1 alone, in the lowest block, and is
    reached only through that block's entry; without it, vertex
    frontier + 1 hangs off vertex frontier too."""
    past = frontier + 1
    tail = range(past + 1, past + 41)
    edges = [(0, v) for v in range(1, frontier + 1)]
    edges += itertools.combinations(range(1, frontier + 1), 2)
    edges += itertools.combinations(tail, 2)
    edges += [(1 if late else frontier, past)] + [(frontier, v) for v in tail]
    return Graph(past + 41, edges)


# Vertex counts around the bitset cut and twice it; all but 36 and 68
# leave the last hex block partial.
_BLOCK_EDGE_SIZES = (34, 35, 36, 65, 66, 67, 68)


def _near_complete(n):
    """K_n less the edges (i, n - 1 - i) for i < r, r as large as leaves
    the average degree at the bitset cut or above."""
    r = min(n // 2, n * (n - 1 - BITSET_MIN_AVERAGE_DEGREE) // 2)
    missing = {(i, n - 1 - i) for i in range(r)}
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if e not in missing])


def _relabelled_blocks(rng, n, blocks, isolated):
    g = random_block_graph(rng, n, 0.95, blocks, isolated)
    permutation = list(range(n))
    rng.shuffle(permutation)
    return relabel_graph(g, permutation)


DENSE_BFS_CASES = {
    "star": (lambda: _star_over(random.Random(3), 50, 0.9), 49),
    "complete-33": (lambda: Graph.complete(33), 32),
    "complete-40": (lambda: Graph.complete(40), 39),
    **{
        f"frontier-{frontier}-{'late' if late else 'early'}": (
            lambda frontier=frontier, late=late: _fan_out(frontier, late), frontier
        )
        for frontier in (31, 32, 33, 64, 65) for late in (True, False)
    },
    # Two dense blocks and six isolated vertices: no search reaches every
    # vertex, so the early stop never fires.
    "blocks-and-isolated": (lambda: random_block_graph(random.Random(5), 90, 0.95, 2, 6), None),
    # Partial last hex blocks (n not a multiple of 4) and full ones; the
    # near-complete graphs lack the edges (i, n - 1 - i), so most vertices
    # have one vertex at distance 2, often in the last block.
    **{f"complete-{n}": (lambda n=n: Graph.complete(n), n - 1) for n in _BLOCK_EDGE_SIZES},
    **{f"near-complete-{n}": (lambda n=n: _near_complete(n), n - 2) for n in _BLOCK_EDGE_SIZES},
    # Three dense blocks, nine isolated vertices and n = 133, relabelled so
    # that the unreachable vertices and isolated sources fall in many blocks.
    "blocks-and-isolated-relabelled": (
        lambda: _relabelled_blocks(random.Random(7), 133, 3, 9), None
    ),
}


@pytest.mark.parametrize("build, first", DENSE_BFS_CASES.values(), ids=DENSE_BFS_CASES)
def test_dense_bfs_kernel_matches_floyd_warshall(build, first):
    # Every source of graphs built for the bitset branch's block lookups,
    # partial blocks and early stops; first is the size of the first
    # frontier from vertex 0, None where some vertices are isolated.
    g = build()
    assert 2 * g.m >= BITSET_MIN_AVERAGE_DEGREE * g.n
    dist = floyd_warshall(g)
    assert [bfs_distances(g, source) for source in range(g.n)] == dist
    assert g._rows is not None and g._tables is not None
    assert first is None or dist[0].count(1) == first
    if first is None:
        assert len(connected_components(g)) > 1
        assert not all(g.neighbors(v) for v in range(g.n))


def test_dense_bfs_passes_level_255_on_a_clique_path():
    # 262 cliques K34 in a row and 3 isolated vertices, n = 8911: levels
    # run to 523, past the 255 a byte holds, from the ends, and a search
    # from an isolated vertex reaches nothing.
    g = clique_path(262, 34, 3)
    assert 2 * g.m >= BITSET_MIN_AVERAGE_DEGREE * g.n
    for source in (0, 4500, 262 * 34 - 1, g.n - 1):
        assert bfs_distances(g, source) == queue_distances(g, source), source
    assert g._tables is not None
    first = [2 * i + (v > 0) for i in range(262) for v in range(34)] + [UNREACHABLE] * 3
    assert bfs_distances(g, 0) == first
    assert max(first[:-3]) == 523


def test_block_tables_hold_the_union_of_each_subset_of_a_block():
    # n = 1..9 random rows, not only a graph's: entry d of block b is the
    # OR of rows 4b + i over the bits i of d, and a partial block has keys
    # only for the digits its rows can make.
    rng = random.Random(41)
    for n in range(1, 10):
        for _ in range(6):
            rows = [rng.getrandbits(n + 8) for _ in range(n)]
            tables = _block_tables(rows)
            assert len(tables) == (n + 3) // 4
            for b, table in enumerate(reversed(tables)):
                block = rows[4 * b:4 * b + 4]
                assert set(table) == {format(d, "x") for d in range(1 << len(block))}
                for d in range(1 << len(block)):
                    union = 0
                    for i, row in enumerate(block):
                        if d >> i & 1:
                            union |= row
                    assert table[format(d, "x")] == union


def test_block_tables_are_built_once_per_graph(monkeypatch):
    builds = []

    def counting(rows):
        builds.append(len(rows))
        return _block_tables(rows)

    monkeypatch.setattr("intpow.graphs._block_tables", counting)
    g = random_block_graph(random.Random(43), 70, 0.95, 1, 2)
    assert [bfs_distances(g, source) for source in range(g.n)] == floyd_warshall(g)
    assert builds == [70]
    assert _power_rows(g, 2) == list(graph_power_oracle(g, 2).rows)
    assert builds == [70]


def test_block_tables_leave_equality_and_hash_alone():
    searched, fresh = Graph.complete(40), Graph.complete(40)
    bfs_distances(searched, 0)
    assert searched._tables is not None and fresh._tables is None
    assert searched == fresh and hash(searched) == hash(fresh)
    rebuilt = Graph._from_rows(fresh.rows)
    assert rebuilt._tables is None and rebuilt == searched and hash(rebuilt) == hash(searched)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_rows_pack_bytes_and_digits_alike(k):
    # A connected dense graph packs every list as bytes; a dense graph with
    # isolated vertices (UNREACHABLE) and the path on 300 vertices
    # (distances past 255) send lists to the digit join.
    connected = random_block_graph(random.Random(47), 60, 0.9, 1, 0)
    split = random_block_graph(random.Random(53), 90, 0.95, 2, 6)
    path = Graph.path(300)
    assert UNREACHABLE in bfs_distances(split, 0) and max(bfs_distances(path, 0)) == 299
    assert 2 * split.m >= BITSET_MIN_AVERAGE_DEGREE * split.n
    for g in (connected, split, path):
        assert _power_rows(g, k) == list(graph_power_oracle(g, k).rows), (g, k)


def test_the_dense_branch_starts_at_the_complete_graph_on_33_vertices():
    # Average degree 32 needs n >= 33, and at n = 33 only K_33 has it.
    almost = Graph(33, [(u, v) for u, v in itertools.combinations(range(33), 2) if (u, v) != (3, 9)])
    for g, dense in [(Graph.complete(32), False), (almost, False), (Graph.complete(33), True)]:
        assert [bfs_distances(g, source) for source in range(g.n)] == floyd_warshall(g)
        assert (g._rows is not None) == dense


def test_widen_balls_match_floyd_warshall_and_bfs():
    # Dense and sparse graphs, block graphs with isolated vertices, and
    # n = 0 and n = 1: ball j must hold exactly the vertices within
    # distance j, for every j up to one past the diameter and for 10**9,
    # both widened and packed from BFS, and ball 1 must equal g.rows.
    rng = random.Random(29)
    cases = [Graph(0), Graph(1), Graph.path(7)]
    cases += [random_graph(rng, max_n=14, edge_prob=p) for p in (0.1, 0.3, 0.9) for _ in range(4)]
    cases += [random_block_graph(rng, n, p, blocks, isolated) for n, p, blocks, isolated in [
        (20, 0.15, 3, 2), (30, 0.9, 2, 3), (40, 0.1, 4, 0), (40, 0.6, 1, 5),
    ]]
    for g in cases:
        dist = floyd_warshall(g)
        assert dist == [bfs_distances(g, source) for source in range(g.n)]
        diameter = max((d for row in dist for d in row if d is not None), default=0)
        balls = [1 << x for x in range(g.n)]
        for j in [*range(diameter + 2), 10**9]:
            expected = [
                sum(1 << y for y, d in enumerate(row) if d is not None and d <= j)
                for row in dist
            ]
            assert balls == expected, (g, j)
            assert _power_rows(g, j) == expected, (g, j)
            if j == 1:
                assert list(g.rows) == expected, g
            balls = widen_balls(g, balls)


@settings(max_examples=200)
@given(graphs(max_n=12))
@example(Graph(0))
@example(Graph(1))
def test_from_rows_round_trip(g):
    back = Graph._from_rows(g.rows)
    assert back == g and hash(back) == hash(g)
    assert back._adjacency == g._adjacency
    assert (back.n, back.m, back.edge_set) == (g.n, g.m, g.edge_set)
    assert format_graph(back) == format_graph(g)
    assert back._rows == g.rows  # kept, not rebuilt on the first read


def test_widen_balls_rejects_wrong_length():
    g = Graph.path(3)
    for balls in ([1, 2, 4, 8], [1]):
        with pytest.raises(VertexSetMismatchError, match="graph has 3 vertices"):
            widen_balls(g, balls)


def test_reading_rows_keeps_equality_and_hash():
    g, h = Graph.path(6), Graph.path(6)
    before = hash(g)
    assert g.rows is g.rows
    assert g == h and h == g
    assert hash(g) == hash(h) == before
    assert g != Graph(6, [(0, 1)]) and Graph(6, [(0, 1)]) != g
    with pytest.raises(AttributeError):
        g.rows = ()


def test_components_p5():
    assert connected_components(P5) == [[0, 1, 2, 3, 4]]


def test_components_two_parts():
    g = Graph(5, [(0, 1), (2, 4)])
    assert connected_components(g) == [[0, 1], [2, 4], [3]]


def test_components_edgeless():
    assert connected_components(Graph(3)) == [[0], [1], [2]]


@settings(max_examples=200)
@given(graphs(max_n=10), st.integers(min_value=1, max_value=5))
def test_power_equals_oracle(g, k):
    assert graph_power(g, k) == graph_power_oracle(g, k)


@settings(max_examples=100)
@given(graphs(max_n=10), st.integers(min_value=1, max_value=4))
def test_power_monotone_in_k(g, k):
    assert graph_power(g, k).edge_set <= graph_power(g, k + 1).edge_set


@settings(max_examples=100)
@given(graphs(max_n=9), st.integers(min_value=1, max_value=4), st.randoms())
def test_power_commutes_with_relabeling(g, k, rnd):
    permutation = list(range(g.n))
    rnd.shuffle(permutation)
    direct = relabel_graph(graph_power(g, k), permutation)
    relabeled_first = graph_power(relabel_graph(g, permutation), k)
    assert direct == relabeled_first


@settings(max_examples=100)
@given(graphs(max_n=10))
def test_power_diameter_reaches_component_closure(g):
    """A large enough k turns every component into a clique."""
    p = graph_power(g, max(1, g.n))
    expected = set()
    for component in connected_components(g):
        expected.update(
            (u, v) for i, u in enumerate(component) for v in component[i + 1 :]
        )
    assert p.edge_set == frozenset(expected)


P5_TEXT = "5 4\n1 2\n2 3\n3 4\n4 5\n"


def test_parse_graph_p5():
    assert parse_graph(P5_TEXT) == P5


def test_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, max_n=10)
        assert parse_graph(format_graph(g)) == g


def assert_parses_back(g):
    """parse_graph(format_graph(g)) stores what Graph() built for g."""
    back = parse_graph(format_graph(g))
    assert back._adjacency == g._adjacency and hash(back) == hash(g)
    assert (back.n, back.m, back.edge_set) == (g.n, g.m, g.edge_set)


@settings(max_examples=200)
@given(graphs(max_n=12))
@example(Graph(0))
def test_parse_graph_inverts_format_graph(g):
    assert_parses_back(g)


@pytest.mark.parametrize("seed, n", [(1, 50), (2, 200), (3, 600)])
def test_parse_graph_inverts_format_graph_on_dense_interval_graphs(seed, n):
    assert_parses_back(random_dense_interval_graph(random.Random(seed), n))


def test_parse_graph_memory_on_dense_text():
    # One pass peaks near 7.2 MB and keeps 1.2 MB here (Python 3.11).  A set
    # of every pair, an edge list and a second validation peak near 23 MB,
    # and one int object per adjacency entry keeps about 4 MB.
    text = format_graph(random_dense_interval_graph(random.Random(5), 600))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = parse_graph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m > 70_000
    assert peak - base < 12_000_000, peak - base
    assert kept - base < 2_500_000, kept - base


def test_parse_graph_streams_the_dense_text():
    # The reader holds one chunk of lines at a time: the peak is near 1.4 MB
    # here (Python 3.11), whichever line break the text uses.  A list of all
    # 72,793 lines takes 4.7 MB alone.
    lf = format_graph(random_dense_interval_graph(random.Random(5), 600))
    for separator in ("\n", "\r", "\x0c"):
        text = lf.replace("\n", separator)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m > 70_000
        assert peak - base < 3_500_000, (separator, peak - base)


def test_parse_reports_a_repeat_in_a_dense_file_at_its_second_occurrence():
    lines = format_graph(random_dense_interval_graph(random.Random(6), 600)).splitlines()
    n, m = map(int, lines[0].split())
    text = "\n".join([f"{n} {m + 1}", *lines[1:], lines[1 + m // 2]]) + "\n"
    with pytest.raises(ParseError) as err:
        parse_graph(text, source="dense.graph")
    assert err.value.line == m + 2
    u, v = lines[1 + m // 2].split()
    assert str(err.value) == f"dense.graph:{m + 2}: duplicate edge ({u}, {v})"


def test_parse_rejects_loop_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_graph("2 1\n1 1\n", source="bad.graph")
    assert "bad.graph:2" in str(err.value)
    assert "self-loop" in str(err.value)


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ParseError) as err:
        parse_graph("3 2\n1 2\n1 2\n")
    assert err.value.line == 3


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_graph("3 1\n1 4\n")
    assert err.value.line == 2


def test_parse_rejects_unordered_pair():
    with pytest.raises(ParseError):
        parse_graph("3 1\n2 1\n")


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(ParseError) as err:
        parse_graph("3 2\n1 2\n")
    assert err.value.line == 1


def test_parse_rejects_garbage_header():
    with pytest.raises(ParseError):
        parse_graph("3\n")
    with pytest.raises(ParseError):
        parse_graph("")
