"""Command-line front end.

Exit codes: 0 all requested checks passed, 1 a verification failed,
2 usage or input error.  Reports are line-oriented "KEY: value" pairs.
"""

import argparse
import math
import os
import sys

from .errors import (
    InfeasibleConstraintsError,
    IntpowError,
    NotProperError,
    RepresentationMismatchError,
)
from .extension import _chain, _check_size, _first_difference, extend_representation, save_trace
from .graphs import (
    Graph,
    _power_rows,
    format_graph,
    graph_power,
    graph_power_oracle,
    load_graph,
    save_graph,
    widen_balls,
)
from .intervals import (
    endpoint_orders,
    format_representation,
    intersection_rows,
    load_representation,
    proper_to_unit,
    same_orders,
    save_representation,
)
from .trapezoids import (
    count_interleavings,
    count_interleavings_filter,
    load_orders,
    p5_representation,
    save_trapezoid,
    search_representation,
    trapezoid_intersection_graph,
    trapezoid_orders,
)


def cmd_power(args):
    g = load_graph(args.graph)
    power = graph_power(g, args.k)
    if args.out:
        save_graph(power, args.out)
    else:
        sys.stdout.write(format_graph(power))
    return 0


def cmd_extend(args):
    # Both files are written per step, so one name for both would leave
    # only the trace.
    if args.out and args.trace:
        out, trace = (_step_path(path, args.k, args.iterate) for path in (args.out, args.trace))
        if os.path.realpath(out) == os.path.realpath(trace):
            print(f"error: --out and --trace name the same file: {args.out}", file=sys.stderr)
            return 2
    g = load_graph(args.graph)
    r = load_representation(args.rep)
    base_orders = endpoint_orders(r)
    # Each step is checked against rows of G^k built apart from it: with
    # --iterate, balls widened from g.rows one hop per member, as the
    # chain itself builds none; without, n more BFS runs.
    if args.iterate:
        steps, expected = _chain(g, r, args.k), _widened_balls(g)
    else:
        steps = [(args.k, *extend_representation(g, args.k, r))]
        expected = [_power_rows(g, args.k)]
    all_ok = True
    for (k, rep, trace), balls in zip(steps, expected):
        # A step's files are written before the lines that report them.
        if args.out:
            save_representation(rep, _step_path(args.out, k, args.iterate))
        if args.trace:
            save_trace(trace, _step_path(args.trace, k, args.iterate))
        graph_ok = intersection_rows(rep) == balls
        left_ok, right_ok = map(same_orders, base_orders, endpoint_orders(rep))
        all_ok = all_ok and graph_ok and left_ok and right_ok
        print(f"K: {k}")
        print(f"SCALE: {trace.scale}")
        print(f"GRAPH: {'OK' if graph_ok else 'MISMATCH'}")
        print(f"ORDER_L: {'PRESERVED' if left_ok else 'VIOLATED'}")
        print(f"ORDER_R: {'PRESERVED' if right_ok else 'VIOLATED'}")
    print(f"RESULT: {'OK' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _widened_balls(g):
    """The rows of G^2, G^3, ..., each one `widen_balls` from the last,
    starting from g.rows."""
    balls = g.rows
    while True:
        balls = widen_balls(g, balls)
        yield balls


def _step_path(path, k, iterate):
    return f"{path}.k{k}" if iterate else path


def cmd_tounit(args):
    r = load_representation(args.rep)
    try:
        unit = proper_to_unit(r)
    except NotProperError as exc:
        print("PROPER: no")
        u, v = exc.witness
        print(f"WITNESS: {u + 1} contains {v + 1}")
        return 1
    if args.out:
        save_representation(unit, args.out)
    print("PROPER: yes")
    print(f"U: {r.n * r.n}")
    if not args.out:
        sys.stdout.write(format_representation(unit))
    return 0


def cmd_verify(args):
    g = load_graph(args.graph)
    r = load_representation(args.rep)
    other = load_representation(args.against) if args.against else None
    # Both sizes are checked before any report line is printed.
    for name, rep in (("representation", r), (args.against, other)):
        if rep is not None:
            _check_size(g, rep, name)
    found = _first_difference(graph_power_oracle(g, args.k).rows, intersection_rows(r))
    ok = found is None
    print(f"GRAPH: {'OK' if ok else 'MISMATCH'}")
    if not ok:
        (u, v), missing = found
        print(f"{'MISSING_EDGE' if missing else 'EXTRA_EDGE'}: {u + 1} {v + 1}")
    if other is not None:
        left_same, right_same = map(same_orders, endpoint_orders(r), endpoint_orders(other))
        print(f"ORDER_L: {'SAME' if left_same else 'DIFFERENT'}")
        print(f"ORDER_R: {'SAME' if right_same else 'DIFFERENT'}")
        ok = ok and left_same and right_same
    return 0 if ok else 1


def cmd_orders(args):
    r = load_representation(args.rep)
    left_order, right_order = endpoint_orders(r)
    print(f"L: {_render_order(left_order)}")
    print(f"R: {_render_order(right_order)}")
    return 0


def _render_order(order):
    return " < ".join(
        "=".join(str(v + 1) for v in group) for group in order.tie_groups()
    )


def cmd_trapezoid_search(args):
    orders = load_orders(args.orders)
    target = load_graph(args.graph)
    # The search checks the vertex counts before it enumerates anything.
    first, matches = search_representation(orders, target)
    line0 = count_interleavings(orders[0], orders[1])
    line1 = count_interleavings(orders[2], orders[3])
    if first is not None and args.out:
        save_trapezoid(first, args.out)
    print(f"CANDIDATES: {line0 * line1}")
    print(f"MATCHES: {matches}")
    return 0


def run_p5_demo():
    """Exhaustive check that under the endpoint orders of the stock P5
    trapezoid representation, no interleaving pair realizes the square of
    P5 while at least one realizes P5 itself.

    Returns (exit_code, report_lines).
    """
    lines = []
    rep = p5_representation()
    p5 = Graph.path(5)
    graph_ok = trapezoid_intersection_graph(rep) == p5
    lines.append(f"P5_GRAPH: {'OK' if graph_ok else 'FAIL'}")
    orders = trapezoid_orders(rep)
    expected = [[0, 2, 1, 4, 3]] * 2 + [[1, 0, 3, 2, 4]] * 2
    orders_ok = [o.strict_sequence() for o in orders] == expected
    lines.append(f"P5_ORDERS: {'OK' if orders_ok else 'FAIL'}")
    line0 = count_interleavings(orders[0], orders[1])
    line1 = count_interleavings(orders[2], orders[3])
    filter0 = count_interleavings_filter(orders[0], orders[1])
    filter1 = count_interleavings_filter(orders[2], orders[3])
    candidates = line0 * line1
    bound = math.comb(2 * orders[0].n, orders[0].n) ** 2
    count_ok = line0 == filter0 and line1 == filter1 and candidates <= bound
    lines.append(f"CANDIDATES: {candidates}")
    lines.append(f"CANDIDATES_BOUND: {bound}")
    lines.append(f"FILTER_CHECK: {'OK' if count_ok else 'FAIL'}")
    lines.append("TARGET: P5^2")
    _, target_matches = search_representation(orders, graph_power(p5, 2))
    lines.append(f"MATCHES_TARGET: {target_matches}")
    target_ok = target_matches == 0
    _, control_matches = search_representation(orders, p5)
    lines.append(f"MATCHES_P5_CONTROL: {control_matches}")
    control_ok = control_matches >= 1
    ok = graph_ok and orders_ok and count_ok and target_ok and control_ok
    lines.append(f"RESULT: {'OK' if ok else 'FAIL'}")
    return (0 if ok else 1), lines


def cmd_p5_demo(args):
    code, lines = run_p5_demo()
    for line in lines:
        print(line)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="intpow",
        description="Interval representations of graph powers: extension, "
        "unit conversion, verification, and trapezoid-order search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", help="write the k-th power of a graph")
    p.add_argument("graph")
    p.add_argument("k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("extend", help="extend a representation to the k-th power")
    p.add_argument("graph")
    p.add_argument("rep")
    p.add_argument("k", type=int)
    p.add_argument("--iterate", action="store_true",
                   help="chain from the graph's own representation up to k")
    p.add_argument("--out", help="output representation file (suffixed .kK when iterating)")
    p.add_argument("--trace", help="output trace file (suffixed .kK when iterating)")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("tounit", help="rebuild a proper representation with unit lengths")
    p.add_argument("rep")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tounit)

    p = sub.add_parser("verify", help="check a representation against the k-th power")
    p.add_argument("graph")
    p.add_argument("k", type=int)
    p.add_argument("rep")
    p.add_argument("--against", help="second representation for order comparison")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orders", help="print both endpoint orders of a representation")
    p.add_argument("rep")
    p.set_defaults(func=cmd_orders)

    p = sub.add_parser("trapezoid-search",
                       help="search trapezoid realizations with prescribed orders")
    p.add_argument("orders")
    p.add_argument("graph")
    p.add_argument("--out", help="write the first match, if any")
    p.set_defaults(func=cmd_trapezoid_search)

    p = sub.add_parser("p5-demo",
                       help="exhaustive non-realizability check for the square of P5")
    p.set_defaults(func=cmd_p5_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RepresentationMismatchError, InfeasibleConstraintsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IntpowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
