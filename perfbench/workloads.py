"""The benchmark's workloads: seeded instance generators, the intpow CLI
calls each instance makes, the same work through the library API, and the
output checks for both.

Each workload generates its instances from the seed alone, writes them as
intpow input files, records the results the independent oracles expect for
them, and describes its work as a list of CLI calls and a list of library
operations.  Library operations look functions up through
their intpow module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from intpow import cli, extension, graphs, intervals, trapezoids

import oracle


@dataclass
class Instance:
    """Input files by role, and the facts the checks need: the generated
    structure and the results the oracles expect."""

    n: int
    tag: str
    files: dict
    facts: dict


@dataclass
class Call:
    """One intpow CLI invocation and the check of what it printed and wrote."""

    size: int | None
    argv: list
    check: Callable[[int, str], list]
    bfs_calls: int | None = None


@dataclass
class LibOp:
    """The library work behind one CLI call, on inputs parsed beforehand."""

    size: int | None
    run: Callable[[], object]
    check: Callable[[object], list]
    bfs_calls: int | None = None


def write_graph(path, n, edges):
    lines = [f"{n} {len(edges)}"] + [f"{u + 1} {v + 1}" for u, v in sorted(edges)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_intervals(path, rows):
    lines = [str(len(rows))] + [f"{v + 1} {l} {r}" for v, (l, r) in enumerate(rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_orders(path, orders):
    lines = [
        f"{label}: " + " ".join(str(v + 1) for v in sequence)
        for label, sequence in zip(("L0", "R0", "L1", "R1"), orders)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _same_intervals(rep, path):
    if list(rep.intervals) == oracle.read_intervals(path):
        return []
    return [f"differs from {Path(path).name}"]


class Workload:
    """Sizes and instance counts are parameters so the smoke check can run
    the same code at tiny sizes."""

    name = ""

    def __init__(self, sizes, per_size=1):
        self.sizes = tuple(sizes)
        self.per_size = per_size

    def setup(self, seed, directory):
        """Generate every instance from the seed, write its input files and
        record the oracles' expected results."""
        instances = []
        for n in self.sizes:
            for i in range(self.per_size):
                rng = random.Random(f"{self.name}/{seed}/{n}/{i}")
                tag = f"n{n}-{i}"
                files, facts = self.generate(rng, n, Path(directory) / tag)
                instances.append(Instance(n, tag, files, facts))
        return instances

    def generate(self, rng, n, stem):
        raise NotImplementedError

    def calls(self, instances, out):
        raise NotImplementedError

    def lib_ops(self, instances, out):
        raise NotImplementedError


class ExtendDense(Workload):
    """Random dense interval representations extended once to G^2: the
    graphs-heavy case, where BFS dominates."""

    name = "extend-dense"
    cli_bfs_per_vertex = 3  # validate input, find witnesses, CLI re-verify
    lib_bfs_per_vertex = 2

    def generate(self, rng, n, stem):
        while True:
            rows = []
            for _ in range(n):
                left = rng.randint(0, 4 * n)
                rows.append((left, left + rng.randint(0, 2 * n)))
            edges = oracle.interval_edges(rows)
            if oracle.is_connected(n, edges):
                break
        files = {"graph": f"{stem}.graph", "rep": f"{stem}.rep"}
        write_graph(files["graph"], n, edges)
        write_intervals(files["rep"], rows)
        return files, {"rows": rows, "power": oracle.power_edges(n, edges, 2)}

    def calls(self, instances, out):
        result = []
        for inst in instances:
            rep, trace = f"{out}/{inst.tag}.k2", f"{out}/{inst.tag}.trace"

            def check(code, stdout, inst=inst, rep=rep, trace=trace):
                return oracle.check_report(code, stdout, {"RESULT": "OK"}) + oracle.check_extension(
                    inst.facts["rows"], inst.facts["power"], rep, trace, 2)

            argv = ["extend", inst.files["graph"], inst.files["rep"], "2",
                    "--out", rep, "--trace", trace]
            result.append(Call(inst.n, argv, check, self.cli_bfs_per_vertex * inst.n))
        return result

    def lib_ops(self, instances, out):
        ops = []
        for inst in instances:
            g = graphs.load_graph(inst.files["graph"])
            r = intervals.load_representation(inst.files["rep"])

            def check(result, inst=inst):
                rep, trace = result
                problems = _same_intervals(rep, f"{out}/{inst.tag}.k2")
                if list(trace.new_right) != oracle.read_trace(f"{out}/{inst.tag}.trace")[1]:
                    problems.append("trace differs from the CLI's")
                return problems

            ops.append(LibOp(inst.n, lambda g=g, r=r: extension.extend_representation(g, 2, r),
                             check, self.lib_bfs_per_vertex * inst.n))
        return ops


class ProperChain(Workload):
    """Sparse proper chains iterated to G^6, then converted to unit length:
    many short BFS runs, and the n^2 steps of intervals."""

    name = "proper-chain"
    k = 6

    def generate(self, rng, n, stem):
        # Intervals open and close in the same order, at most three open at
        # once and never none before the last opens: proper and connected,
        # with about 1.5 edges per vertex.
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
        rows = list(zip(left, right))
        edges = oracle.interval_edges(rows)
        files = {"graph": f"{stem}.graph", "rep": f"{stem}.rep"}
        write_graph(files["graph"], n, edges)
        write_intervals(files["rep"], rows)
        powers = {k: oracle.power_edges(n, edges, k) for k in range(2, self.k + 1)}
        return files, {"rows": rows, "powers": powers}

    def calls(self, instances, out):
        result = []
        for inst in instances:
            prefix = f"{out}/{inst.tag}"
            trace, unit = f"{prefix}.trace", f"{prefix}.unit"

            def check_extend(code, stdout, inst=inst, prefix=prefix, trace=trace):
                problems = oracle.check_report(code, stdout, {"RESULT": "OK"})
                for k, power in inst.facts["powers"].items():
                    problems += oracle.check_extension(
                        inst.facts["rows"], power, f"{prefix}.k{k}", f"{trace}.k{k}", k)
                return problems

            def check_unit(code, stdout, inst=inst, prefix=prefix, unit=unit):
                expected = {"PROPER": "yes", "U": str(inst.n * inst.n)}
                return oracle.check_report(code, stdout, expected) + oracle.check_unit(
                    oracle.read_intervals(f"{prefix}.k{self.k}"), unit)

            argv = ["extend", inst.files["graph"], inst.files["rep"], str(self.k), "--iterate",
                    "--out", prefix, "--trace", trace]
            result.append(Call(inst.n, argv, check_extend))
            argv = ["tounit", f"{prefix}.k{self.k}", "--out", unit]
            result.append(Call(inst.n, argv, check_unit))
        return result

    def lib_ops(self, instances, out):
        ops = []
        for inst in instances:
            g = graphs.load_graph(inst.files["graph"])
            r = intervals.load_representation(inst.files["rep"])
            chain = {}

            def iterate(g=g, r=r, chain=chain):
                chain["steps"] = extension.iterate_powers(g, r, self.k)
                return chain["steps"]

            def check_iterate(steps, inst=inst):
                problems = []
                for k, rep, _ in steps:
                    problems += _same_intervals(rep, f"{out}/{inst.tag}.k{k}")
                return problems

            # tounit works on the chain's last step, already in memory.
            ops.append(LibOp(inst.n, iterate, check_iterate))
            ops.append(LibOp(
                inst.n,
                lambda chain=chain: intervals.proper_to_unit(chain["steps"][-1][1]),
                lambda unit, inst=inst: _same_intervals(unit, f"{out}/{inst.tag}.unit"),
            ))
        return ops


class TrapezoidSweep(Workload):
    """Exhaustive trapezoid searches against G and G^2, then p5-demo: only
    trapezoids works, so graph and interval changes should not move it."""

    name = "trapezoid-sweep"

    def generate(self, rng, n, stem):
        # Each line is a random ballot sequence whose close order swaps each
        # adjacent pair of its open order, so every instance of a size has
        # the same candidate count.  Vertices are numbered in line-0 open
        # order and G has exactly n(n-1)/4 edges: the search scans vertex
        # pairs in id order and stops at the first mismatch, so this keeps
        # its cost per candidate from varying several-fold between seeds.
        # Line 1 opens in line 0's order with a few adjacent swaps.
        while True:
            order0 = list(range(n))
            order1 = list(order0)
            for _ in range(n // 2):
                i = rng.randrange(n - 1)
                order1[i], order1[i + 1] = order1[i + 1], order1[i]
            l0, r0, closes0 = self._ballot_line(rng, order0)
            l1, r1, closes1 = self._ballot_line(rng, order1)
            rows = list(zip(l0, r0, l1, r1))
            edges = oracle.trapezoid_edges(rows)
            if len(edges) == n * (n - 1) // 4 and oracle.is_connected(n, edges):
                break
        orders = (tuple(order0), tuple(closes0), tuple(order1), tuple(closes1))
        files = {"orders": f"{stem}.orders", "graph": f"{stem}.graph", "square": f"{stem}.square"}
        square = oracle.square_edges(n, edges)
        write_orders(files["orders"], orders)
        write_graph(files["graph"], n, edges)
        write_graph(files["square"], n, square)
        facts = {"orders": orders, "graph": edges, "square": square}
        facts["candidates"] = (oracle.interleaving_count(orders[0], orders[1])
                               * oracle.interleaving_count(orders[2], orders[3]))
        facts["matches"] = {
            target: oracle.count_realizations(orders, n, facts[target])
            for target in ("graph", "square")
        }
        return files, facts

    @staticmethod
    def _ballot_line(rng, opens):
        n = len(opens)
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

    def calls(self, instances, out):
        result = []
        for inst in instances:
            for target in ("graph", "square"):
                match = f"{out}/{inst.tag}.{target}.trapezoid"

                def check(code, stdout, inst=inst, target=target, match=match):
                    facts = inst.facts
                    return oracle.check_report(code, stdout, {}) + oracle.check_search(
                        facts["orders"], facts[target], facts["candidates"],
                        facts["matches"][target], oracle.read_report(stdout), match)

                argv = ["trapezoid-search", inst.files["orders"], inst.files[target],
                        "--out", match]
                result.append(Call(inst.n, argv, check))
        expected = {"MATCHES_TARGET": "0", "MATCHES_P5_CONTROL": "16", "RESULT": "OK"}
        result.append(Call(None, ["p5-demo"],
                           lambda code, stdout: oracle.check_report(code, stdout, expected)))
        return result

    def lib_ops(self, instances, out):
        ops = []
        for inst in instances:
            orders = trapezoids.load_orders(inst.files["orders"])
            for target in ("graph", "square"):
                g = graphs.load_graph(inst.files[target])

                def check(result, inst=inst, target=target):
                    first, count = result
                    match = Path(f"{out}/{inst.tag}.{target}.trapezoid")
                    expected = inst.facts["matches"][target]
                    problems = [] if count == expected else [f"{count} matches, not {expected}"]
                    cli_first = oracle.read_trapezoid(match) if match.is_file() else None
                    if (first and list(first.rows)) != cli_first:
                        problems.append("first match differs from the CLI's")
                    return problems

                ops.append(LibOp(
                    inst.n, lambda o=orders, g=g: trapezoids.search_representation(o, g), check))

        def check_p5(result):
            code, lines = result
            wanted = {"MATCHES_TARGET: 0", "MATCHES_P5_CONTROL: 16", "RESULT: OK"}
            return [] if code == 0 and wanted <= set(lines) else ["p5-demo report wrong"]

        ops.append(LibOp(None, lambda: cli.run_p5_demo(), check_p5))
        return ops


WORKLOADS = {
    "extend-dense": lambda: ExtendDense((150, 300, 600)),
    "proper-chain": lambda: ProperChain((200, 400, 800)),
    "trapezoid-sweep": lambda: TrapezoidSweep((6, 7, 8), per_size=4),
}
