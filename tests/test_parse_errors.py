"""Golden table of every ParseError the five file parsers raise.

Each row is (parser, text, line, message); the full exception text is
"<source>:<line>: <message>".  Rows with two bad lines pin that the first
one in file order is the one reported.
"""

import pytest

from intpow import (
    ParseError,
    parse_graph,
    parse_orders,
    parse_representation,
    parse_trace,
    parse_trapezoid,
)

GOOD_ORDERS = "L0: 1 2\nR0: 1 2\nL1: 1 2\nR1: 1 2\n"

GOLDEN = [
    # graph
    (parse_graph, "", 1, "missing header line"),
    (parse_graph, "\n  \n", 1, "missing header line"),
    (parse_graph, "3\n", 1, "header must be two integers: n m"),
    (parse_graph, "3 1 0\n", 1, "header must be two integers: n m"),
    (parse_graph, "3 x\n", 1, "header must be two integers: n m"),
    (parse_graph, "-1 0\n", 1, "vertex and edge counts must be nonnegative"),
    (parse_graph, "3 -1\n", 1, "vertex and edge counts must be nonnegative"),
    (parse_graph, "3 2\n1 2\n", 1, "expected 2 edge lines, found 1"),
    (parse_graph, "3 0\n1 2\n", 1, "expected 0 edge lines, found 1"),
    (parse_graph, "3 1\n1\n", 2, "edge line must be two integers: u v"),
    (parse_graph, "3 1\n1 2 3\n", 2, "edge line must be two integers: u v"),
    (parse_graph, "3 1\n1 x\n", 2, "edge line must be two integers: u v"),
    (parse_graph, "3 1\n1 -\n", 2, "edge line must be two integers: u v"),
    (parse_graph, "3 1\n2 2\n", 2, "self-loop at vertex 2"),
    (parse_graph, "3 1\n9 9\n", 2, "self-loop at vertex 9"),
    (parse_graph, "3 1\n2 1\n", 2, "edge (2, 1) must satisfy 1 <= u < v <= 3"),
    (parse_graph, "3 1\n1 4\n", 2, "edge (1, 4) must satisfy 1 <= u < v <= 3"),
    (parse_graph, "3 1\n0 1\n", 2, "edge (0, 1) must satisfy 1 <= u < v <= 3"),
    (parse_graph, "3 2\n1 2\n1 2\n", 3, "duplicate edge (1, 2)"),
    (parse_graph, "3 3\n1 2\n\n2 3\n", 3, "edge line must be two integers: u v"),
    (parse_graph, "3 2\n1 1\n1 x\n", 2, "self-loop at vertex 1"),
    (parse_graph, "3 2\n1 x\n1 1\n", 2, "edge line must be two integers: u v"),
    # representation
    (parse_representation, "", 1, "missing header line"),
    (parse_representation, "\n\n", 1, "missing header line"),
    (parse_representation, "x\n", 1, "header must be a single integer: n"),
    (parse_representation, "1 2\n", 1, "header must be a single integer: n"),
    (parse_representation, "\n1 0 2\n", 1, "header must be a single integer: n"),
    (parse_representation, "-1\n", 1, "vertex count must be nonnegative"),
    (parse_representation, "2\n1 0 2\n", 1, "expected 2 interval lines, found 1"),
    (parse_representation, "1\n1 0\n", 2, "interval line must be three integers: v l r"),
    (parse_representation, "1\n1 0 2 3\n", 2, "interval line must be three integers: v l r"),
    (parse_representation, "1\n1 0 y\n", 2, "interval line must be three integers: v l r"),
    (parse_representation, "1\n1 - 2\n", 2, "interval line must be three integers: v l r"),
    (parse_representation, "2\n1 0 2\n3 1 3\n", 3, "vertex 3 out of range 1..2"),
    (parse_representation, "1\n0 0 2\n", 2, "vertex 0 out of range 1..1"),
    (parse_representation, "2\n1 0 2\n1 1 3\n", 3, "vertex 1 listed twice"),
    (parse_representation, "1\n1 4 2\n", 2, "left endpoint 4 exceeds right 2"),
    (parse_representation, f"1\n1 0 {2**63}\n", 2, "coordinate leaves the 64-bit range"),
    (parse_representation, f"1\n1 {-2**63 - 1} 0\n", 2, "coordinate leaves the 64-bit range"),
    (parse_representation, "2\n1 4 2\n5 0 1\n", 2, "left endpoint 4 exceeds right 2"),
    (parse_representation, "2\n5 0 1\n1 4 2\n", 2, "vertex 5 out of range 1..2"),
    (parse_representation, "2\n1 0 1\n1 4 2\n", 3, "vertex 1 listed twice"),
    # trace
    (parse_trace, "", 1, "missing header line"),
    (parse_trace, "2\n1 - 3\n", 1, "header must be two integers: k scale"),
    (parse_trace, "2 x\n1 - 3\n", 1, "header must be two integers: k scale"),
    (parse_trace, "2 5\n1 -\n", 2, "trace line must be: x witness new_right"),
    (parse_trace, "2 5\n1 - 3 4\n", 2, "trace line must be: x witness new_right"),
    (parse_trace, "2 5\n- 1 3\n", 2, "trace line must be: x witness new_right"),
    (parse_trace, "2 5\n1 2 -\n", 2, "trace line must be: x witness new_right"),
    (parse_trace, "2 5\n1 w 3\n", 2, "trace line must be: x witness new_right"),
    (parse_trace, "2 5\n3 - 3\n2 - 4\n", 2, "vertex 3 out of range 1..2"),
    (parse_trace, "2 5\n1 - 3\n1 - 4\n", 3, "vertex 1 listed twice"),
    (parse_trace, "2 5\n1 9 3\n2 - 4\n", 2, "witness 9 out of range 1..2"),
    (parse_trace, "2 5\n1 0 3\n2 - 4\n", 2, "witness 0 out of range 1..2"),
    (parse_trace, "2 5\n1 9 3\n1 - 4\n", 2, "witness 9 out of range 1..2"),
    (parse_trace, "2 5\n1 - 3\n1 9 4\n", 3, "vertex 1 listed twice"),
    (parse_trace, "1 5\n1 - 3\n", 1, "trace requires k >= 2, got 1"),
    (parse_trace, "-2 5\n1 x\n", 1, "trace requires k >= 2, got -2"),
    (parse_trace, "2 5\n1 1 3\n2 - 4\n", 2, "vertex 1 is its own witness"),
    (parse_trace, "2 5\n1 - 3\n2 2 4\n2 - 5\n", 3, "vertex 2 is its own witness"),
    # trapezoid
    (parse_trapezoid, "", 1, "missing header line"),
    (parse_trapezoid, "x\n", 1, "header must be a single integer: n"),
    (parse_trapezoid, "-1\n", 1, "vertex count must be nonnegative"),
    (parse_trapezoid, "2\n1 0 1 2 3\n", 1, "expected 2 rows, found 1"),
    (parse_trapezoid, "1\n1 0 1 2\n", 2, "row must be five integers: v l0 r0 l1 r1"),
    (parse_trapezoid, "1\n1 0 1 2 x\n", 2, "row must be five integers: v l0 r0 l1 r1"),
    (parse_trapezoid, "1\n2 0 1 2 3\n", 2, "vertex 2 out of range 1..1"),
    (parse_trapezoid, "2\n1 0 1 2 3\n1 0 1 2 3\n", 3, "vertex 1 listed twice"),
    (parse_trapezoid, "1\n1 1 0 2 3\n", 2, "interval endpoints out of order"),
    (parse_trapezoid, "1\n1 0 1 3 2\n", 2, "interval endpoints out of order"),
    (parse_trapezoid, "2\n1 1 0 2 3\n3 0 1 2 3\n", 2, "interval endpoints out of order"),
    (parse_trapezoid, "2\n3 0 1 2 3\n1 1 0 2 3\n", 2, "vertex 3 out of range 1..2"),
    # orders
    (parse_orders, "", 1, "expected exactly four order lines"),
    (parse_orders, "L0: 1 2\nR0: 1 2\n", 2, "expected exactly four order lines"),
    (parse_orders, GOOD_ORDERS + "L2: 1 2\n", 5, "expected exactly four order lines"),
    (parse_orders, "R0: 1 2\nL0: 1 2\nL1: 1 2\nR1: 1 2\n", 1, 'line must start with "L0:"'),
    (parse_orders, GOOD_ORDERS.replace("L0: 1 2", ""), 1, 'line must start with "L0:"'),
    (parse_orders, GOOD_ORDERS.replace("R0:", "RX:"), 2, 'line must start with "R0:"'),
    (parse_orders, GOOD_ORDERS.replace("L1: 1 2", "L1: 1 x"), 3, "order entries must be integers"),
    (parse_orders, GOOD_ORDERS.replace("R1: 1 2", "R1: 1 1"), 4,
     "order must list each vertex 1..2 exactly once"),
    (parse_orders, GOOD_ORDERS.replace("R1: 1 2", "R1: 1"), 4,
     "order must list each vertex 1..2 exactly once"),
    (parse_orders, GOOD_ORDERS.replace("L0: 1 2", "L0: 1 3"), 1,
     "order must list each vertex 1..2 exactly once"),
    (parse_orders, "L0: 1 2\nR0: 1 x\nL1: 1\nR1: 1 2\n", 2, "order entries must be integers"),
    # Case ids carry the row index, so new rows go here at the end to keep
    # the ids of the rows above stable.
    # graph: vertex-count limit
    (parse_graph, "9223372036854775807 0\n", 1,
     "vertex count 9223372036854775807 exceeds the limit 1048576"),
    (parse_graph, "1048577 1\n1 2\n", 1, "vertex count 1048577 exceeds the limit 1048576"),
    (parse_graph, "1048577 0\n1 2\n", 1, "expected 0 edge lines, found 1"),
    # graph: a duplicate edge and a second bad line in one file
    (parse_graph, "4 4\n1 2\n1 2\n2 3\n1 x\n", 3, "duplicate edge (1, 2)"),
    (parse_graph, "4 4\n1 2\n1 x\n2 3\n1 2\n", 3, "edge line must be two integers: u v"),
    (parse_graph, "4 3\n1 2\n1 2\n3 3\n", 3, "duplicate edge (1, 2)"),
    (parse_graph, "4 3\n1 2\n1 2\n1 5\n", 3, "duplicate edge (1, 2)"),
    (parse_graph, "4 3\n1 2\n1 2\n2 1\n", 3, "duplicate edge (1, 2)"),
    (parse_graph, "4 4\n2 3\n1 2\n2 3\n1 2\n", 4, "duplicate edge (2, 3)"),
    (parse_graph, "4 3\n1 2\n3 4\n01 +2\n", 4, "duplicate edge (1, 2)"),
]


@pytest.mark.parametrize(
    "parse, text, line, message",
    GOLDEN,
    ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(GOLDEN)],
)
def test_parse_error_golden(parse, text, line, message):
    with pytest.raises(ParseError) as info:
        parse(text, source="in.txt")
    assert info.value.source == "in.txt"
    assert info.value.line == line
    assert str(info.value) == f"in.txt:{line}: {message}"
