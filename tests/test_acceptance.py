"""Acceptance gate: every shipped guarantee, end to end, at desk scale.

Each test covers one criterion and prints a single PASS/FAIL line;
run with `pytest -s tests/test_acceptance.py` to see them.
"""

import random
import time
from contextlib import contextmanager

from intpow import (
    Graph,
    IntervalRepresentation,
    endpoint_orders,
    extend_representation,
    find_containment_pair,
    format_representation,
    graph_power,
    graph_power_oracle,
    intersection_graph,
    is_proper,
    iterate_powers,
    normalize,
    p5_representation,
    proper_to_unit,
    same_orders,
    search_representation,
    trapezoid_intersection_graph,
    trapezoid_orders,
)
from intpow.cli import run_p5_demo
from testutil import (
    random_ballot_orders,
    random_connected_representation,
    random_graph,
    random_proper_chain,
    random_proper_representation,
    random_representation,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS", flush=True)


def test_acceptance_1_iterated_extension():
    with criterion(1, "iterated extension preserves graph and orders"):
        rng = random.Random(101)
        started = time.perf_counter()
        for _ in range(200):
            r = random_connected_representation(rng, max_n=25, coord_max=100)
            g = intersection_graph(r)
            base_left, base_right = endpoint_orders(r)
            chain = iterate_powers(g, r, 5)
            step_input = r
            for k, rep, trace in chain:
                assert intersection_graph(rep) == graph_power_oracle(g, k)
                out_left, out_right = endpoint_orders(rep)
                assert same_orders(base_left, out_left)
                assert same_orders(base_right, out_right)
                base = normalize(step_input)
                s = trace.scale
                for v in range(rep.n):
                    assert rep.left(v) == s * base.left(v)
                    assert rep.right(v) >= s * base.right(v)
                step_input = rep
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_acceptance_2_proper_chain_to_unit_lengths():
    with criterion(2, "proper extension converts to unit lengths"):
        rng = random.Random(202)
        started = time.perf_counter()
        # proper_to_unit raising InfeasibleConstraintsError anywhere in the
        # loop fails the criterion: the required count of occurrences is zero.
        for _ in range(200):
            r = random_proper_representation(rng, max_n=15)
            g = intersection_graph(r)
            extended, _ = extend_representation(g, 2, r)
            assert is_proper(extended)
            unit = proper_to_unit(extended)
            n = extended.n
            assert all(
                unit.right(v) - unit.left(v) == n * n for v in range(n)
            )
            assert intersection_graph(unit) == intersection_graph(extended)
            ext_left, ext_right = endpoint_orders(extended)
            unit_left, unit_right = endpoint_orders(unit)
            assert same_orders(ext_left, unit_left)
            assert same_orders(ext_right, unit_right)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_acceptance_3_exhaustive_interleaving_search():
    with criterion(3, "exhaustive search: no realization of the P5 square"):
        started = time.perf_counter()
        code, lines = run_p5_demo()
        report = dict(line.split(": ", 1) for line in lines)
        assert code == 0
        assert report["FILTER_CHECK"] == "OK"
        assert int(report["CANDIDATES"]) <= int(report["CANDIDATES_BOUND"]) == 63504
        assert report["TARGET"] == "P5^2"
        assert int(report["MATCHES_TARGET"]) == 0
        assert int(report["MATCHES_P5_CONTROL"]) >= 1
        assert report["RESULT"] == "OK"
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_acceptance_4_power_matches_oracle():
    with criterion(4, "power construction matches the matrix oracle"):
        rng = random.Random(404)
        for _ in range(500):
            g = random_graph(rng, max_n=12)
            k = rng.randint(1, 5)
            assert graph_power(g, k) == graph_power_oracle(g, k)


def test_acceptance_5_normalization_is_faithful():
    with criterion(5, "normalization preserves structure, removes coincidences"):
        rng = random.Random(505)
        for _ in range(200):
            r = random_representation(rng, max_n=25, coord_max=100)
            out = normalize(r)
            assert intersection_graph(out) == intersection_graph(r)
            left_in, right_in = endpoint_orders(r)
            left_out, right_out = endpoint_orders(out)
            assert same_orders(left_in, left_out)
            assert same_orders(right_in, right_out)
            lefts = {out.left(v) for v in range(out.n)}
            assert all(out.right(v) not in lefts for v in range(out.n))


def test_acceptance_6_golden_instances():
    with criterion(6, "golden instances reproduce exactly"):
        p5 = Graph.path(5)
        stock = p5_representation()
        assert trapezoid_intersection_graph(stock) == p5
        orders = [o.strict_sequence() for o in trapezoid_orders(stock)]
        assert orders == [
            [0, 2, 1, 4, 3],
            [0, 2, 1, 4, 3],
            [1, 0, 3, 2, 4],
            [1, 0, 3, 2, 4],
        ]

        assert graph_power(p5, 2).edge_set == {
            (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
        }

        out, trace = extend_representation(
            Graph.path(4), 2, IntervalRepresentation([(0, 2), (1, 4), (3, 6), (5, 7)])
        )
        assert out.intervals == ((0, 16), (5, 26), (15, 30), (25, 35))
        assert trace.scale == 5
        assert format_representation(out) == "4\n1 0 16\n2 5 26\n3 15 30\n4 25 35\n"


def test_acceptance_7_unit_conversion_scales_linearly():
    with criterion(7, "unit conversion at n=2000 stays fast"):
        r = random_proper_chain(random.Random(707), 2000)
        started = time.perf_counter()
        unit = proper_to_unit(r)
        elapsed = time.perf_counter() - started
        n = r.n
        assert all(right - left == n * n for left, right in unit.intervals)
        assert intersection_graph(unit) == intersection_graph(r)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_8_containment_check_scales_linearly():
    # n=8000, not 2000: a pair scan short-circuits fast enough to finish
    # n=2000 in about 0.3 s, so only the larger size tells the two apart.
    with criterion(8, "containment check at n=8000 stays fast"):
        r = random_proper_chain(random.Random(808), 8000)
        rows = list(r.intervals)
        rows[-2] = (rows[-2][0], rows[-1][1] + 1)  # now contains the last one
        improper = IntervalRepresentation(rows)
        started = time.perf_counter()
        assert find_containment_pair(r) is None
        assert find_containment_pair(improper) == (7998, 7999)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_9_proper_chain_iterates_fast():
    # k = 4, not 6: a chain with n = 3200 leaves the 64-bit range before G^6.
    with criterion(9, "iterated extension at n=3200 stays fast"):
        r = random_proper_chain(random.Random(909), 3200)
        g = intersection_graph(r)
        started = time.perf_counter()
        chain = iterate_powers(g, r, 4)
        elapsed = time.perf_counter() - started
        assert [k for k, _, _ in chain] == [2, 3, 4]
        base_left, base_right = endpoint_orders(r)
        for _, rep, _ in chain:
            out_left, out_right = endpoint_orders(rep)
            assert same_orders(base_left, out_left)
            assert same_orders(base_right, out_right)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_10_trapezoid_search_n10():
    # The product of both lines' interleavings is 4.0e7 candidates here;
    # 210 is the count of the exhaustive product search.
    with criterion(10, "trapezoid search at n=10 against G stays fast"):
        orders, g = random_ballot_orders(random.Random(1010), 10)
        started = time.perf_counter()
        first, matches = search_representation(orders, g)
        elapsed = time.perf_counter() - started
        assert matches == 210
        assert trapezoid_intersection_graph(first) == g
        assert trapezoid_orders(first) == orders
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_11_trapezoid_search_n10_dense_targets():
    # Against the complete graph no non-edge prunes anything, so both lines
    # keep every interleaving and all 4.0e7 pairs are candidates.  G^2 is
    # the second instance, besides P5, where the square has no trapezoid
    # realization under G's own orders; the exhaustive product search
    # gives 0 and 16820 as well.
    with criterion(11, "trapezoid search at n=10 against dense targets stays fast"):
        orders, g = random_ballot_orders(random.Random(1010), 10)
        for target, expected in ((Graph.complete(10), 16820), (graph_power(g, 2), 0)):
            started = time.perf_counter()
            first, matches = search_representation(orders, target)
            elapsed = time.perf_counter() - started
            assert matches == expected
            if expected:
                assert trapezoid_intersection_graph(first) == target
                assert trapezoid_orders(first) == orders
            else:
                assert first is None
            assert elapsed < 1.5, f"took {elapsed:.2f}s"
