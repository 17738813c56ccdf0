import random
import subprocess
import sys
import time

import pytest

from intpow import (
    ExtensionTrace,
    Graph,
    IntervalRepresentation,
    TrapezoidRepresentation,
    WeakOrder,
    count_interleavings,
    endpoint_orders,
    extend_representation,
    format_graph,
    graph_power,
    intersection_graph,
    iterate_powers,
    load_graph,
    load_orders,
    load_representation,
    load_trace,
    load_trapezoid,
    p5_representation,
    save_graph,
    save_orders,
    save_representation,
    save_trace,
    save_trapezoid,
    search_representation,
    trapezoid_intersection_graph,
    trapezoid_orders,
    widen_balls,
)
from intpow import graphs, trapezoids
from intpow.cli import main

P5_TEXT = "5 4\n1 2\n2 3\n3 4\n4 5\n"
P5_SQUARED_TEXT = "5 7\n1 2\n1 3\n2 3\n2 4\n3 4\n3 5\n4 5\n"
P4_TEXT = "4 3\n1 2\n2 3\n3 4\n"
P4_REP_TEXT = "4\n1 0 2\n2 1 4\n3 3 6\n4 5 7\n"
P5_REP_TEXT = "5\n1 0 2\n2 1 4\n3 3 6\n4 5 8\n5 7 9\n"
P5_ORDERS_TEXT = "L0: 1 3 2 5 4\nR0: 1 3 2 5 4\nL1: 2 1 4 3 5\nR1: 2 1 4 3 5\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def path_text(n):
    return f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n))


def identity_orders_text(n):
    identity = " ".join(str(v) for v in range(1, n + 1))
    return "".join(f"{label}: {identity}\n" for label in ("L0", "R0", "L1", "R1"))


def test_power_identity_is_byte_exact(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    out = tmp_path / "same.graph"
    code, stdout, stderr = run(capsys, "power", graph, "1", "--out", str(out))
    assert code == 0 and stdout == "" and stderr == ""
    assert out.read_text(encoding="utf-8") == P5_TEXT


def test_power_square_to_stdout(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    code, stdout, _ = run(capsys, "power", graph, "2")
    assert code == 0
    assert stdout == P5_SQUARED_TEXT


def test_power_far_past_the_diameter_is_complete(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    assert run(capsys, "power", graph, str(10**9)) == (0, format_graph(Graph.complete(5)), "")


def test_power_square_of_a_long_path(tmp_path, capsys):
    n = 5000
    graph = write(tmp_path / "path.graph", path_text(n))
    started = time.perf_counter()
    code, stdout, stderr = run(capsys, "power", graph, "2")
    elapsed = time.perf_counter() - started
    assert code == 0 and stderr == ""
    assert stdout == f"{n} {2 * n - 3}\n" + "".join(
        f"{v} {w}\n" for v in range(1, n + 1) for w in (v + 1, v + 2) if w <= n)
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@pytest.mark.parametrize("separator", ["\r\n", "\r"])
def test_power_reads_crlf_and_cr_files_with_a_blank_tail(tmp_path, capsys, separator):
    graph = tmp_path / "p5.graph"
    graph.write_bytes((P5_TEXT + "\n\n").replace("\n", separator).encode())
    assert run(capsys, "power", str(graph), "2") == (0, P5_SQUARED_TEXT, "")


def test_power_rejects_k_zero(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    code, _, stderr = run(capsys, "power", graph, "0")
    assert code == 2
    assert stderr.startswith("error:")


def test_parse_error_reports_file_and_line(tmp_path, capsys):
    graph = write(tmp_path / "bad.graph", "2 1\n2 1\n")
    code, _, stderr = run(capsys, "power", graph, "1")
    assert code == 2
    assert "bad.graph:2:" in stderr


def test_duplicate_before_malformed_line_is_reported(tmp_path, capsys):
    graph = write(tmp_path / "dup.graph", "3 3\n1 2\n1 2\nx y\n")
    code, stdout, stderr = run(capsys, "power", graph, "1")
    assert code == 2 and stdout == ""
    assert stderr == f"error: {graph}:3: duplicate edge (1, 2)\n"


def test_huge_vertex_count_is_a_parse_error(tmp_path, capsys):
    graph = write(tmp_path / "huge.graph", "9223372036854775807 0\n")
    code, stdout, stderr = run(capsys, "power", graph, "2")
    assert code == 2 and stdout == ""
    assert stderr == (
        f"error: {graph}:1: vertex count 9223372036854775807 exceeds the limit 1048576\n"
    )


@pytest.mark.parametrize("separator", ["\n", "\r\n"])
def test_edge_count_error_names_the_file_as_given(tmp_path, capsys, monkeypatch, separator):
    # The same message for LF and CRLF files, read by a relative path.
    over = tmp_path / "over.graph"
    over.write_bytes("5 5\n1 2\n2 3\n3 4\n4 5\n".replace("\n", separator).encode())
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, "power", "over.graph", "2")
    assert (code, stdout) == (2, "")
    assert stderr == "error: over.graph:1: expected 5 edge lines, found 4\n"


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "power", str(tmp_path / "absent.graph"), "1")
    assert code == 2
    assert stderr.startswith("error:")


def test_non_utf8_representation_is_a_parse_error(tmp_path, capsys):
    rep = tmp_path / "bad.rep"
    rep.write_bytes(b"2\n1 0 2\n2 \xe9 3\n")
    code, stdout, stderr = run(capsys, "orders", str(rep))
    assert code == 2 and stdout == ""
    assert stderr == f"error: {rep}:3: byte 0xe9 is not valid UTF-8\n"


def test_non_utf8_orders_is_a_parse_error(tmp_path, capsys):
    orders = tmp_path / "bad.orders"
    orders.write_bytes(b"\xff\xfe" + P5_ORDERS_TEXT.encode("utf-16-le"))
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    code, stdout, stderr = run(capsys, "trapezoid-search", str(orders), graph)
    assert code == 2 and stdout == ""
    assert stderr == f"error: {orders}:1: byte 0xff is not valid UTF-8\n"


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_extend_worked_example(tmp_path, capsys):
    graph = write(tmp_path / "p4.graph", P4_TEXT)
    rep = write(tmp_path / "p4.rep", P4_REP_TEXT)
    out = tmp_path / "p4.k2.rep"
    trace = tmp_path / "p4.k2.trace"
    code, stdout, _ = run(
        capsys, "extend", graph, rep, "2",
        "--out", str(out), "--trace", str(trace),
    )
    assert code == 0
    assert stdout == (
        "K: 2\n"
        "SCALE: 5\n"
        "GRAPH: OK\n"
        "ORDER_L: PRESERVED\n"
        "ORDER_R: PRESERVED\n"
        "RESULT: OK\n"
    )
    assert out.read_text(encoding="utf-8") == "4\n1 0 16\n2 5 26\n3 15 30\n4 25 35\n"
    assert trace.read_text(encoding="utf-8") == "2 5\n1 3 16\n2 4 26\n3 - 30\n4 - 35\n"


def test_extend_iterate_writes_suffixed_files(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    out = tmp_path / "chain.rep"
    trace = tmp_path / "chain.trace"
    code, stdout, _ = run(
        capsys, "extend", graph, rep, "4", "--iterate",
        "--out", str(out), "--trace", str(trace),
    )
    assert code == 0
    assert stdout.count("K: ") == 3
    assert "K: 2\n" in stdout and "K: 3\n" in stdout and "K: 4\n" in stdout
    assert stdout.count("ORDER_L: PRESERVED") == 3
    assert stdout.count("ORDER_R: PRESERVED") == 3
    assert stdout.count("GRAPH: OK\n") == 3
    assert stdout.endswith("RESULT: OK\n")
    p5 = load_graph(graph)
    for k in (2, 3, 4):
        chained = load_representation(f"{out}.k{k}")
        assert intersection_graph(chained) == graph_power(p5, k)
        assert load_trace(f"{trace}.k{k}").k == k
    base = load_representation(rep)
    final = load_representation(f"{out}.k4")
    assert endpoint_orders(final) == endpoint_orders(base)


@pytest.mark.parametrize("steps", [["2"], ["3", "--iterate"]])
def test_extend_rejects_out_and_trace_on_one_file(tmp_path, capsys, steps):
    graph = write(tmp_path / "p4.graph", P4_TEXT)
    rep = write(tmp_path / "p4.rep", P4_REP_TEXT)
    (tmp_path / "sub").mkdir()
    same = tmp_path / "both"
    alias = tmp_path / "sub" / ".." / "both"
    code, stdout, stderr = run(
        capsys, "extend", graph, rep, *steps, "--out", str(same), "--trace", str(alias),
    )
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: --out and --trace name the same file: {same}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["p4.graph", "p4.rep", "sub"]


def test_extend_rejects_non_realizing_representation(tmp_path, capsys):
    graph = write(tmp_path / "p4.graph", P4_TEXT)
    rep = write(tmp_path / "apart.rep", "4\n1 0 1\n2 2 3\n3 4 5\n4 6 7\n")
    code, stdout, stderr = run(capsys, "extend", graph, rep, "2")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error:") and "1" in stderr and "2" in stderr


def test_extend_recheck_reports_mismatch(tmp_path, capsys, monkeypatch):
    # A step that hands back its input realizes P5 but none of its
    # powers, so the re-check flags every step, single and chained: the
    # rows each step read catch a bad step.
    def unchanged(current, k, outer):
        rights = tuple(right for _, right in current.intervals)
        return current, ExtensionTrace(
            k=k, scale=1, witness=(None,) * current.n, new_right=rights
        )

    monkeypatch.setattr("intpow.extension._step", unchanged)
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    step = "K: {}\nSCALE: 1\nGRAPH: MISMATCH\nORDER_L: PRESERVED\nORDER_R: PRESERVED\n"
    for argv, ks in ((["2"], [2]), (["3", "--iterate"], [2, 3])):
        code, stdout, stderr = run(capsys, "extend", graph, rep, *argv)
        assert code == 1
        assert stdout == "".join(step.format(k) for k in ks) + "RESULT: FAIL\n"
        assert stderr == ""


@pytest.mark.parametrize("option", ["--out", "--trace"])
def test_extend_writes_its_files_before_reporting_them(tmp_path, capsys, option):
    graph = write(tmp_path / "p4.graph", P4_TEXT)
    rep = write(tmp_path / "p4.rep", P4_REP_TEXT)
    unwritable = tmp_path / "missing" / "p4sq"
    code, stdout, stderr = run(capsys, "extend", graph, rep, "2", option, str(unwritable))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")


def test_extend_iterate_reports_only_the_steps_it_wrote(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    (tmp_path / "chain.trace.k3").mkdir()  # a directory: the k=3 trace cannot be written
    code, stdout, stderr = run(
        capsys, "extend", graph, rep, "4", "--iterate",
        "--out", str(tmp_path / "chain.rep"), "--trace", str(tmp_path / "chain.trace"),
    )
    assert code == 2
    assert stdout == "K: 2\nSCALE: 6\nGRAPH: OK\nORDER_L: PRESERVED\nORDER_R: PRESERVED\n"
    assert stderr.startswith("error:")
    assert load_trace(tmp_path / "chain.trace.k2").k == 2


def test_extend_iterate_widens_each_power_once(tmp_path, capsys, monkeypatch):
    # The re-check compares each member with the balls its step read, so
    # a chain to G^5 widens four times in all.
    calls = []

    def counting(g, balls):
        calls.append(g)
        return widen_balls(g, balls)

    monkeypatch.setattr("intpow.extension.widen_balls", counting)
    monkeypatch.setattr("intpow.cli.widen_balls", counting, raising=False)
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    code, stdout, _ = run(capsys, "extend", graph, rep, "5", "--iterate")
    assert code == 0 and stdout.endswith("RESULT: OK\n")
    assert len(calls) == 4


@pytest.mark.parametrize("shape", ["dense", "path"])
def test_distance_work_stays_within_its_budget(tmp_path, capsys, monkeypatch, shape):
    """Ceilings on breadth-first searches: 2n for a library extend (the
    rows of G^(k-1) and of G^k), 3n for `intpow extend` (its check builds
    the rows of G^k again), none for a chain.  `_power_rows` looks
    `bfs_distances` up in intpow.graphs at call time, so wrapping it there
    counts every search."""
    n = 60
    rng = random.Random(71)
    if shape == "dense":
        lefts = [rng.randint(0, 4 * n) for _ in range(n)]
        r = IntervalRepresentation((left, left + rng.randint(0, 2 * n)) for left in lefts)
    else:
        r = IntervalRepresentation((2 * v, 2 * v + 2) for v in range(n))
    g = intersection_graph(r)
    graph, rep = str(tmp_path / "g.graph"), str(tmp_path / "g.rep")
    save_graph(g, graph)
    save_representation(r, rep)
    calls = []
    search = graphs.bfs_distances

    def counting(h, source):
        calls.append(source)
        return search(h, source)

    monkeypatch.setattr(graphs, "bfs_distances", counting)
    extend_representation(g, 2, r)
    assert len(calls) <= 2 * n
    calls.clear()
    code, stdout, _ = run(capsys, "extend", graph, rep, "2")
    assert code == 0 and stdout.endswith("RESULT: OK\n")
    assert len(calls) <= 3 * n
    calls.clear()
    iterate_powers(g, r, 4)
    code, stdout, _ = run(capsys, "extend", graph, rep, "4", "--iterate")
    assert code == 0 and stdout.endswith("RESULT: OK\n")
    assert calls == []


def test_extend_iterate_keeps_the_steps_before_a_chain_error(tmp_path, capsys):
    # Scaled by 4 per step, P3 from 2^59 leaves the 64-bit range at G^3.
    base = 2**59
    graph = write(tmp_path / "p3.graph", "3 2\n1 2\n2 3\n")
    rep = write(
        tmp_path / "p3.rep",
        f"3\n1 {base} {base + 2}\n2 {base + 1} {base + 4}\n3 {base + 3} {base + 5}\n",
    )

    def extend(name, k):
        out, trace = (str(tmp_path / f"{name}.{kind}") for kind in ("rep", "trace"))
        result = run(capsys, "extend", graph, rep, k, "--iterate", "--out", out, "--trace", trace)
        written = sorted(tmp_path.glob(f"{name}.*"))
        return result, {path.name.removeprefix(name): path.read_bytes() for path in written}

    (good_code, good_out, _), good_files = extend("good", "2")
    (code, stdout, stderr), files = extend("bad", "3")
    assert good_code == 0 and good_out.startswith("K: 2\n")
    assert code == 2
    assert stdout == good_out.removesuffix("RESULT: OK\n")
    assert stderr.startswith("error: vertex 1: interval [")
    assert stderr.endswith("] leaves the 64-bit range\n")
    assert list(files) == [".rep.k2", ".trace.k2"]
    assert files == good_files


def test_extend_iterate_refuses_a_start_that_does_not_realize_g(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    square = str(tmp_path / "p5sq.rep")
    report = "K: 2\nSCALE: 6\nGRAPH: OK\nORDER_L: PRESERVED\nORDER_R: PRESERVED\nRESULT: OK\n"
    assert run(capsys, "extend", graph, rep, "2", "--out", square) == (0, report, "")
    code, stdout, stderr = run(capsys, "extend", graph, square, "3", "--iterate")
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error:")


def test_extend_iterate_on_a_long_path_stops_at_the_64_bit_range(tmp_path, capsys):
    # Each step scales the unit-gap path with n = 1000 by 1001, so G^7
    # leaves the 64-bit range: G^2..G^6 are written and reported, then
    # the chain exits 2 without a RESULT line.
    n = 1000
    graph = write(tmp_path / "path.graph", path_text(n))
    rep = write(tmp_path / "path.rep",
                f"{n}\n" + "".join(f"{v} {v - 1} {v}\n" for v in range(1, n + 1)))
    out = str(tmp_path / "chain")
    code, stdout, stderr = run(capsys, "extend", graph, rep, "7", "--iterate", "--out", out)
    assert code == 2
    written = sorted(path.name for path in tmp_path.glob("chain.*"))
    assert written == [f"chain.k{k}" for k in range(2, 7)]
    assert stdout.count("GRAPH: OK\n") == 5
    assert "RESULT:" not in stdout
    assert stderr.startswith("error: vertex 1:")


def test_extend_rejects_k_below_two(tmp_path, capsys):
    graph = write(tmp_path / "p4.graph", P4_TEXT)
    rep = write(tmp_path / "p4.rep", P4_REP_TEXT)
    code, _, stderr = run(capsys, "extend", graph, rep, "1")
    assert code == 2
    assert stderr.startswith("error:")


def test_tounit_on_proper_representation(tmp_path, capsys):
    rep = write(tmp_path / "proper.rep", "3\n1 0 2\n2 1 3\n3 3 5\n")
    out = tmp_path / "unit.rep"
    code, stdout, _ = run(capsys, "tounit", rep, "--out", str(out))
    assert code == 0
    assert stdout == "PROPER: yes\nU: 9\n"
    assert out.read_text(encoding="utf-8") == "3\n1 0 9\n2 1 10\n3 10 19\n"


def test_tounit_stdout_when_no_out_file(tmp_path, capsys):
    rep = write(tmp_path / "single.rep", "1\n1 4 7\n")
    code, stdout, _ = run(capsys, "tounit", rep)
    assert code == 0
    assert stdout == "PROPER: yes\nU: 1\n1\n1 0 1\n"


def test_tounit_maps_twins_to_equal_intervals(tmp_path, capsys):
    rep = write(tmp_path / "twins.rep", "2\n1 0 2\n2 0 2\n")
    code, stdout, _ = run(capsys, "tounit", rep)
    assert code == 0
    assert stdout == "PROPER: yes\nU: 4\n2\n1 0 4\n2 0 4\n"


def test_tounit_reports_containment_witness(tmp_path, capsys):
    rep = write(tmp_path / "improper.rep", "2\n1 0 5\n2 1 2\n")
    out = tmp_path / "unit.rep"
    code, stdout, _ = run(capsys, "tounit", rep, "--out", str(out))
    assert code == 1
    assert stdout == "PROPER: no\nWITNESS: 1 contains 2\n"
    assert not out.exists()


def test_tounit_writes_its_file_before_reporting_it(tmp_path, capsys):
    rep = write(tmp_path / "proper.rep", "3\n1 0 2\n2 1 3\n3 3 5\n")
    code, stdout, stderr = run(capsys, "tounit", rep, "--out", str(tmp_path / "missing" / "u.rep"))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")


def test_verify_base_rep_fails_against_square(tmp_path, capsys):
    graph = write(tmp_path / "p4.graph", P4_TEXT)
    rep = write(tmp_path / "p4.rep", P4_REP_TEXT)
    code, stdout, _ = run(capsys, "verify", graph, "2", rep)
    assert code == 1
    assert stdout == "GRAPH: MISMATCH\nMISSING_EDGE: 1 3\n"


def test_verify_complete_power(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "k5.rep", "5\n1 0 1\n2 0 1\n3 0 1\n4 0 1\n5 0 1\n")
    code, stdout, _ = run(capsys, "verify", graph, "4", rep)
    assert code == 0
    assert stdout == "GRAPH: OK\n"


def test_verify_accepts_true_power(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    code, stdout, _ = run(capsys, "verify", graph, "1", rep)
    assert code == 0
    assert stdout == "GRAPH: OK\n"


def test_verify_reports_minimum_missing_edge(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "apart.rep", "5\n1 0 1\n2 2 3\n3 4 5\n4 6 7\n5 8 9\n")
    code, stdout, _ = run(capsys, "verify", graph, "1", rep)
    assert code == 1
    assert stdout == "GRAPH: MISMATCH\nMISSING_EDGE: 1 2\n"


def test_verify_reports_minimum_extra_edge(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "touch.rep", "5\n1 0 2\n2 1 4\n3 2 6\n4 5 8\n5 7 9\n")
    code, stdout, _ = run(capsys, "verify", graph, "1", rep)
    assert code == 1
    assert stdout == "GRAPH: MISMATCH\nEXTRA_EDGE: 1 3\n"


def test_verify_against_same_orders(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    doubled = write(tmp_path / "wide.rep", "5\n1 0 4\n2 2 8\n3 6 12\n4 10 16\n5 14 18\n")
    code, stdout, _ = run(capsys, "verify", graph, "1", rep, "--against", doubled)
    assert code == 0
    assert stdout == "GRAPH: OK\nORDER_L: SAME\nORDER_R: SAME\n"


def test_verify_against_different_orders_fails(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    tied = write(tmp_path / "tied.rep", "5\n1 0 2\n2 1 4\n3 3 6\n4 5 8\n5 7 8\n")
    code, stdout, _ = run(capsys, "verify", graph, "1", rep, "--against", tied)
    assert code == 1
    assert stdout == "GRAPH: OK\nORDER_L: SAME\nORDER_R: DIFFERENT\n"


def test_verify_far_past_the_diameter_on_p5(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    started = time.perf_counter()
    result = run(capsys, "verify", graph, str(10**9), rep)
    elapsed = time.perf_counter() - started
    assert result == (1, "GRAPH: MISMATCH\nMISSING_EDGE: 1 3\n", "")
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_verify_rejects_vertex_count_mismatch_with_equal_edges(tmp_path, capsys):
    graph = write(tmp_path / "three.graph", "3 0\n")
    rep = write(tmp_path / "two.rep", "2\n1 0 1\n2 2 3\n")
    code, stdout, stderr = run(capsys, "verify", graph, "1", rep)
    assert code == 2 and stdout == ""
    assert stderr == "error: graph has 3 vertices, representation has 2\n"


def test_verify_rejects_vertex_count_mismatch_with_different_edges(tmp_path, capsys):
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    rep = write(tmp_path / "two.rep", "2\n1 0 1\n2 2 3\n")
    code, stdout, stderr = run(capsys, "verify", graph, "1", rep)
    assert code == 2 and stdout == ""
    assert stderr == "error: graph has 5 vertices, representation has 2\n"


def test_verify_rejects_against_of_another_size(tmp_path, capsys):
    graph = write(tmp_path / "g3.graph", "3 2\n1 2\n2 3\n")
    rep = write(tmp_path / "r3.rep", "3\n1 0 2\n2 1 4\n3 3 5\n")
    other = write(tmp_path / "r2.rep", "2\n1 0 1\n2 1 2\n")
    code, stdout, stderr = run(capsys, "verify", graph, "1", rep, "--against", other)
    assert code == 2 and stdout == ""
    assert stderr == f"error: graph has 3 vertices, {other} has 2\n"


def test_verify_large_k_on_dense_graph_stops_at_the_diameter(tmp_path, capsys):
    # Intervals [v, v + 100] on 300 vertices: each step reaches 100 further,
    # so the diameter is 3, and every power from the 3rd on is complete.
    # All n - 1 = 299 products would take seconds, so the bound fails
    # unless the oracle stops once a product changes nothing.
    rep = IntervalRepresentation([(v, v + 100) for v in range(300)])
    graph = tmp_path / "dense.graph"
    save_graph(intersection_graph(rep), graph)
    reps = tmp_path / "dense.rep"
    save_representation(rep, reps)
    expected = run(capsys, "verify", str(graph), "3", str(reps))
    assert expected == (1, "GRAPH: MISMATCH\nMISSING_EDGE: 1 102\n", "")
    started = time.perf_counter()
    assert run(capsys, "verify", str(graph), str(10**9), str(reps)) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_orders_renders_strict_orders(tmp_path, capsys):
    rep = write(tmp_path / "p5.rep", P5_REP_TEXT)
    assert run(capsys, "orders", rep) == (0, "L: 1 < 2 < 3 < 4 < 5\nR: 1 < 2 < 3 < 4 < 5\n", "")


def test_orders_renders_tie_groups(tmp_path, capsys):
    rep = write(tmp_path / "ties.rep", "3\n1 0 2\n2 0 4\n3 3 4\n")
    code, stdout, _ = run(capsys, "orders", rep)
    assert code == 0
    assert stdout == "L: 1=2 < 3\nR: 1 < 2=3\n"


def test_trapezoid_search_finds_p5_control(tmp_path, capsys):
    orders = write(tmp_path / "p5.orders", P5_ORDERS_TEXT)
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    out = tmp_path / "found.trap"
    code, stdout, _ = run(
        capsys, "trapezoid-search", orders, graph, "--out", str(out)
    )
    assert code == 0
    assert stdout == "CANDIDATES: 1764\nMATCHES: 16\n"
    assert run(capsys, "trapezoid-search", orders, graph) == (code, stdout, "")
    assert out.read_bytes() == b"5\n1 0 1 1 3\n2 3 5 0 2\n3 2 4 5 7\n4 7 9 4 6\n5 6 8 8 9\n"
    found = load_trapezoid(out)
    assert trapezoid_intersection_graph(found) == load_graph(graph)
    assert trapezoid_orders(found) == load_orders(orders)


def test_trapezoid_search_identity_orders_realize_p5_square(tmp_path, capsys):
    orders = write(tmp_path / "id5.orders", identity_orders_text(5))
    graph = write(tmp_path / "p5sq.graph", P5_SQUARED_TEXT)
    out = tmp_path / "sq.trap"
    code, stdout, stderr = run(capsys, "trapezoid-search", orders, graph, "--out", str(out))
    assert (code, stdout, stderr) == (0, "CANDIDATES: 1764\nMATCHES: 123\n", "")
    assert out.read_bytes() == b"5\n1 0 3 0 3\n2 1 5 1 5\n3 2 7 2 7\n4 4 8 4 8\n5 6 9 6 9\n"


def test_trapezoid_search_reports_zero_for_p5_square(tmp_path, capsys):
    orders = write(tmp_path / "p5.orders", P5_ORDERS_TEXT)
    graph = write(tmp_path / "p5sq.graph", P5_SQUARED_TEXT)
    out = tmp_path / "found.trap"
    code, stdout, _ = run(
        capsys, "trapezoid-search", orders, graph, "--out", str(out)
    )
    assert code == 0
    assert stdout == "CANDIDATES: 1764\nMATCHES: 0\n"
    assert not out.exists()


def test_trapezoid_search_writes_its_match_before_reporting(tmp_path, capsys):
    orders = write(tmp_path / "p5.orders", P5_ORDERS_TEXT)
    graph = write(tmp_path / "p5.graph", P5_TEXT)
    unwritable = tmp_path / "missing" / "t.trap"
    code, stdout, stderr = run(capsys, "trapezoid-search", orders, graph, "--out", str(unwritable))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")


def test_trapezoid_search_rejects_size_mismatch(tmp_path, capsys):
    orders = write(tmp_path / "p5.orders", P5_ORDERS_TEXT)
    graph = write(tmp_path / "p4.graph", P4_TEXT)
    code, _, stderr = run(capsys, "trapezoid-search", orders, graph)
    assert code == 2
    assert stderr.startswith("error:")


def test_trapezoid_search_checks_sizes_before_counting(tmp_path, capsys, monkeypatch):
    # Identity orders on 20 vertices have Catalan(20) interleavings per
    # line; a size mismatch must be reported without enumerating them.
    orders = write(tmp_path / "big.orders", identity_orders_text(20))
    graph = write(tmp_path / "three.graph", "3 0\n")

    def refuse(*args):
        raise AssertionError("interleavings counted before the size check")

    # The search's only walk is _survivors; no enumerator is left to patch.
    assert not hasattr(trapezoids, "enumerate_interleavings")
    monkeypatch.setattr("intpow.cli.count_interleavings", refuse)
    monkeypatch.setattr("intpow.trapezoids._survivors", refuse)
    code, stdout, stderr = run(capsys, "trapezoid-search", orders, graph)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:")


def test_trapezoid_search_on_deeply_nested_orders(tmp_path, capsys):
    # Nested intervals on both lines leave one candidate; the enumerator
    # must not recurse once per event.
    n = 600
    up = " ".join(str(v) for v in range(1, n + 1))
    down = " ".join(str(v) for v in range(n, 0, -1))
    orders = write(tmp_path / "nested.orders",
                   f"L0: {up}\nR0: {down}\nL1: {up}\nR1: {down}\n")
    graph = write(tmp_path / "empty.graph", f"{n} 0\n")
    code, stdout, _ = run(capsys, "trapezoid-search", orders, graph)
    assert code == 0
    assert stdout == "CANDIDATES: 1\nMATCHES: 0\n"


def test_trapezoid_search_on_long_identity_orders(tmp_path, capsys):
    # Equal orders leave Catalan(600) interleavings per line, but an empty
    # target cuts every prefix that opens a second vertex: the one survivor
    # per line lays the intervals out one after another, 1200 events deep.
    n = 600
    identity = WeakOrder.from_sequence(list(range(n)))
    orders = write(tmp_path / "identity.orders", identity_orders_text(n))
    graph = write(tmp_path / "empty.graph", f"{n} 0\n")
    started = time.perf_counter()
    code, stdout, stderr = run(capsys, "trapezoid-search", orders, graph)
    elapsed = time.perf_counter() - started
    assert code == 0 and stderr == ""
    candidates = count_interleavings(identity, identity) ** 2
    assert stdout == f"CANDIDATES: {candidates}\nMATCHES: 1\n"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_trapezoid_search_refuses_k60_minus_an_edge(tmp_path, capsys):
    n = 60
    identity = WeakOrder.from_sequence(list(range(n)))
    orders = write(tmp_path / "id60.orders", identity_orders_text(n))
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) != (2, 3)]
    graph = write(tmp_path / "k60minus.graph",
                  f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    started = time.perf_counter()
    code, stdout, stderr = run(capsys, "trapezoid-search", orders, graph)
    elapsed = time.perf_counter() - started
    assert code == 0 and stderr == ""
    candidates = count_interleavings(identity, identity) ** 2
    assert stdout == f"CANDIDATES: {candidates}\nMATCHES: 0\n"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_p5_demo_report(capsys):
    code, stdout, _ = run(capsys, "p5-demo")
    assert code == 0
    assert stdout == (
        "P5_GRAPH: OK\n"
        "P5_ORDERS: OK\n"
        "CANDIDATES: 1764\n"
        "CANDIDATES_BOUND: 63504\n"
        "FILTER_CHECK: OK\n"
        "TARGET: P5^2\n"
        "MATCHES_TARGET: 0\n"
        "MATCHES_P5_CONTROL: 16\n"
        "RESULT: OK\n"
    )


def test_search_under_the_p5_orders_finds_16_realizations_of_p5():
    # What the demo's search finds when P5 itself is the target.
    orders = trapezoid_orders(p5_representation())
    _, matches = search_representation(orders, Graph.path(5))
    assert matches == 16


def test_square_and_p5_are_realizable_under_the_squares_interval_orders():
    # Under the orders of an interval representation of the square,
    # duplicated on both lines, the square is realizable.
    p5 = Graph.path(5)
    square_rep, _ = extend_representation(
        p5, 2, IntervalRepresentation([(0, 2), (1, 4), (3, 6), (5, 8), (7, 9)])
    )
    left, right = endpoint_orders(square_rep)
    orders = (left, right, left, right)
    _, target_matches = search_representation(orders, graph_power(p5, 2))
    _, control_matches = search_representation(orders, p5)
    assert target_matches >= 1
    assert control_matches >= 1


def test_module_entry_point(tmp_path):
    graph = tmp_path / "p5.graph"
    graph.write_text(P5_TEXT, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "intpow", "power", str(graph), "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == P5_SQUARED_TEXT


def test_file_round_trips(tmp_path):
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    save_graph(g, tmp_path / "g.graph")
    assert load_graph(tmp_path / "g.graph") == g

    r = IntervalRepresentation([(-3, 5), (0, 0), (2, 9)])
    save_representation(r, tmp_path / "r.rep")
    assert load_representation(tmp_path / "r.rep") == r

    _, trace = extend_representation(
        Graph.path(4), 2, IntervalRepresentation([(0, 2), (1, 4), (3, 6), (5, 7)])
    )
    save_trace(trace, tmp_path / "t.trace")
    assert load_trace(tmp_path / "t.trace") == trace

    t = TrapezoidRepresentation([(0, 1, 2, 3), (1, 4, 0, 0)])
    save_trapezoid(t, tmp_path / "t.trap")
    assert load_trapezoid(tmp_path / "t.trap") == t

    orders = (
        WeakOrder.from_sequence([1, 0]),
        WeakOrder.from_sequence([0, 1]),
        WeakOrder.from_sequence([0, 1]),
        WeakOrder.from_sequence([1, 0]),
    )
    save_orders(orders, tmp_path / "o.orders")
    assert load_orders(tmp_path / "o.orders") == orders
