"""Independent readers and checks for intpow's output files.

Nothing here calls intpow's production code.  The file readers, the
intersection sweeps and the realization counter are the benchmark's own.
The two intpow functions used, graph_power_oracle and
count_interleavings_filter, are the package's brute-force test oracles,
which share no code with the BFS power and the interleaving enumerator.
Every check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from intpow.graphs import Graph, graph_power_oracle
from intpow.intervals import WeakOrder
from intpow.trapezoids import count_interleavings_filter


# --- file readers ---------------------------------------------------------

def _rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.split() for line in lines if line.strip()]


def read_intervals(path):
    """Intervals in vertex order from a "v l r" representation file."""
    rows = _rows(path)
    intervals = [None] * int(rows[0][0])
    for v, left, right in rows[1:]:
        intervals[int(v) - 1] = (int(left), int(right))
    return intervals


def read_trace(path):
    """(k, new_right list) from a trace file."""
    rows = _rows(path)
    new_right = [None] * (len(rows) - 1)
    for x, _witness, right in rows[1:]:
        new_right[int(x) - 1] = int(right)
    return int(rows[0][0]), new_right


def read_trapezoid(path):
    rows = _rows(path)
    trapezoids = [None] * int(rows[0][0])
    for v, *coords in rows[1:]:
        trapezoids[int(v) - 1] = tuple(int(c) for c in coords)
    return trapezoids


def read_report(stdout):
    """The CLI's "KEY: value" lines as a dict."""
    report = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


# --- geometry ---------------------------------------------------------------

def interval_edges(intervals):
    """Pairs of intersecting closed intervals, by a sweep over left ends."""
    order = sorted(range(len(intervals)), key=lambda v: intervals[v][0])
    edges = set()
    for a, u in enumerate(order):
        right = intervals[u][1]
        for v in order[a + 1:]:
            if intervals[v][0] > right:
                break
            edges.add((u, v) if u < v else (v, u))
    return edges


def trapezoid_edges(rows):
    """Pairs of trapezoids that are not strictly ordered on both lines."""
    n = len(rows)
    edges = set()
    for u in range(n):
        l0u, r0u, l1u, r1u = rows[u]
        for v in range(u + 1, n):
            l0v, r0v, l1v, r1v = rows[v]
            if not ((r0u < l0v and r1u < l1v) or (r0v < l0u and r1v < l1u)):
                edges.add((u, v))
    return edges


def dense_ranks(keys):
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return tuple(rank[key] for key in keys)


def order_ranks(intervals):
    """Dense ranks of the left and of the right endpoints."""
    return dense_ranks([l for l, _ in intervals]), dense_ranks([r for _, r in intervals])


def is_connected(n, edges):
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def power_edges(n, edges, k):
    """Edge set of the k-th power, by intpow's matrix-product oracle."""
    return set(graph_power_oracle(Graph(n, edges), k).edge_set)


def square_edges(n, edges):
    """Edge set of the square: adjacent or sharing a neighbour."""
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v in adjacency[u] or adjacency[u] & adjacency[v]
    }


# --- trapezoid search -------------------------------------------------------

def interleaving_count(opens, closes):
    """intpow's filter count of the merges of one line's two orders."""
    return count_interleavings_filter(
        WeakOrder.from_sequence(opens), WeakOrder.from_sequence(closes)
    )


def _line_masks(opens, closes):
    """Counter of "u closes before v opens" masks over every merge of one
    line's open and close sequences.  Bit p(u, v) holds for u < v, bit
    p(u, v) + P for v before u, with P the number of unordered pairs."""
    n = len(opens)
    pairs = n * (n - 1) // 2
    index = {}
    for p, (u, v) in enumerate((u, v) for u in range(n) for v in range(u + 1, n)):
        index[u, v] = p
        index[v, u] = p + pairs
    opened_at = {v: i for i, v in enumerate(opens)}
    masks = Counter()
    left = [0] * n
    right = [0] * n

    def walk(i, j, position):
        if i == n and j == n:
            mask = 0
            for (u, v), bit in index.items():
                if right[u] < left[v]:
                    mask |= 1 << bit
            masks[mask] += 1
            return
        if i < n:
            left[opens[i]] = position
            walk(i + 1, j, position + 1)
        if j < n and opened_at[closes[j]] < i:
            right[closes[j]] = position
            walk(i, j + 1, position + 1)

    walk(0, 0, 0)
    return masks, index, pairs


def count_realizations(orders, n, edges):
    """Number of interleaving pairs under the four strict orders (vertex
    sequences L0, R0, L1, R1) whose trapezoids realize the given graph."""
    line0, index, pairs = _line_masks(orders[0], orders[1])
    line1, _, _ = _line_masks(orders[2], orders[3])
    low = (1 << pairs) - 1
    non_edges = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges:
                non_edges |= 1 << index[u, v]
    total = 0
    for mask0, count0 in line0.items():
        for mask1, count1 in line1.items():
            both = mask0 & mask1
            if (both | both >> pairs) & low == non_edges:
                total += count0 * count1
    return total


# --- output checks ----------------------------------------------------------

def check_report(code, stdout, expected):
    """Exit code 0 and every expected KEY: value line present."""
    problems = [] if code == 0 else [f"exit code {code}"]
    report = read_report(stdout)
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"{key}: expected {value!r}, got {report.get(key)!r}")
    return problems


def check_extension(base, power, out_path, trace_path, k):
    """One extension step: the output realizes the k-th power, keeps both
    endpoint orders of the base representation, and matches its trace."""
    if not Path(out_path).is_file():
        return [f"missing {Path(out_path).name}"]
    out = read_intervals(out_path)
    problems = []
    if len(out) != len(base):
        return [f"k={k}: {len(out)} intervals for {len(base)} vertices"]
    if interval_edges(out) != power:
        problems.append(f"k={k}: intersection graph is not the power")
    if order_ranks(out) != order_ranks(base):
        problems.append(f"k={k}: endpoint orders changed")
    trace_k, new_right = read_trace(trace_path)
    if trace_k != k or new_right != [r for _, r in out]:
        problems.append(f"k={k}: trace does not match the output")
    return problems


def check_unit(source, unit_path):
    """A unit representation: every length n^2, and the same intersection
    graph and endpoint orders as the proper source."""
    if not Path(unit_path).is_file():
        return [f"missing {Path(unit_path).name}"]
    unit = read_intervals(unit_path)
    n = len(source)
    problems = []
    if len(unit) != n or any(r - l != n * n for l, r in unit):
        problems.append("lengths are not all n^2")
    if interval_edges(unit) != interval_edges(source):
        problems.append("intersection graph changed")
    if order_ranks(unit) != order_ranks(source):
        problems.append("endpoint orders changed")
    return problems


def check_search(orders, target, candidates, matches, report, out_path):
    """A trapezoid-search report and its --out file."""
    problems = []
    if report.get("CANDIDATES") != str(candidates):
        problems.append(f"CANDIDATES {report.get('CANDIDATES')} != {candidates}")
    if report.get("MATCHES") != str(matches):
        problems.append(f"MATCHES {report.get('MATCHES')} != {matches}")
    exists = Path(out_path).is_file()
    if exists != (matches > 0):
        problems.append("--out file present" if exists else "--out file missing")
    if exists:
        rows = read_trapezoid(out_path)
        for column, sequence in enumerate(orders):
            if sorted(range(len(rows)), key=lambda v: rows[v][column]) != list(sequence):
                problems.append(f"--out order {column} differs from the prescribed one")
        for line in (0, 1):
            if len({row[c] for row in rows for c in (2 * line, 2 * line + 1)}) != 2 * len(rows):
                problems.append(f"--out endpoints on line {line} are not distinct")
        if trapezoid_edges(rows) != target:
            problems.append("--out trapezoids do not realize the target")
    return problems
