"""Seeded sweep of the dense, bitset branch of bfs_distances and of single
extend_representation on dense inputs, n = 33..120.

The exhaustive small-n sets never reach average degree 32, where
bfs_distances switches to bitmask rows, so this script checks that branch
and the witness search that reads its rows on dense graphs:

- for each n, a random graph of dense blocks with isolated vertices: every
  source's distances against floyd_warshall, and `_power_rows` at
  k = 1, 2, 3 against the rows of those distances;
- for each n, dense interval representations drawn as the extend-dense
  benchmark draws them, one connected and, from n = 35, one split into
  blocks beside isolated points: the same distance check, then
  extend_representation to G^2 from r and to G^3 from that output, whose
  intersection graphs must equal graph_power_oracle, whose endpoint orders
  must be r's, and whose witnesses must be those of the bit-walk oracle
  over Floyd-Warshall rows;
- once per seed, a path of 262 dense cliques K34 with 3 isolated vertices
  (n = 8911, levels up to 523, past the 255 of a byte), searched from two
  random sources against a queue BFS.

Every graph must reach the bitset branch.  Each seed takes about 10 s,
so the script is kept out of pytest's collection.  From the repository root,
with intpow importable:

    python tests/dense_sweep.py [SEED ...]

SEED defaults to 0 1 2.  It prints one line per seed and exits 1 at the
first failed check.
"""

import random
import sys
import time

from intpow import (
    IntervalRepresentation,
    bfs_distances,
    endpoint_orders,
    extend_representation,
    graph_power_oracle,
    intersection_graph,
    normalize,
)
from intpow.graphs import BITSET_MIN_AVERAGE_DEGREE, _power_rows
from testutil import (
    ball_witnesses_walk,
    clique_path,
    distance_rows,
    floyd_warshall,
    queue_distances,
    random_block_graph,
    random_dense_representation,
)


def dense(g):
    return 2 * g.m >= BITSET_MIN_AVERAGE_DEGREE * g.n


def dense_blocks(rng, n):
    """A dense random block graph on n vertices: up to 1 + n // 40 blocks
    and up to n // 8 isolated vertices, redrawn until it is dense."""
    while True:
        edge_prob = rng.choice([1.0, rng.uniform(0.7, 1.0)])
        g = random_block_graph(rng, n, edge_prob, rng.randint(1, 1 + n // 40), rng.randint(0, n // 8))
        if dense(g):
            return g


def dense_intervals(rng, n, split):
    """Dense intervals drawn as extend-dense draws them, with left endpoints
    spread over 0..reach*n for a random reach in 0..4, redrawn until the
    graph is dense.  With split, 1..n // 8 point intervals stand alone and
    the rest fall into up to 1 + n // 40 blocks, each shifted past the one
    before, so the graph has several components."""
    while True:
        isolated = rng.randint(1, n // 8) if split else 0
        cuts = sorted(rng.sample(range(1, n - isolated), rng.randint(0, n // 40))) if split else []
        rows = []
        for a, b in zip([0, *cuts], [*cuts, n - isolated]):
            offset = max((right for _, right in rows), default=-1) + 1
            block = random_dense_representation(rng, b - a, rng.choice([0, 0.25, 0.5, 1, 2, 4]))
            rows += [(left + offset, right + offset) for left, right in block.intervals]
        offset = max(right for _, right in rows) + 1
        rows += [(offset + i, offset + i) for i in range(isolated)]
        rng.shuffle(rows)
        r = IntervalRepresentation(rows)
        g = intersection_graph(r)
        if dense(g):
            return g, r


def check_distances(g):
    dist = floyd_warshall(g)
    assert [bfs_distances(g, source) for source in range(g.n)] == dist, g
    assert g._rows is not None, g
    return dist


def check_power_rows(g, dist):
    for k in (1, 2, 3):
        assert _power_rows(g, k) == distance_rows(dist, k), (g, k)


def check_clique_path(rng, g):
    assert dense(g), g
    for source in rng.sample(range(g.n), 2):
        assert bfs_distances(g, source) == queue_distances(g, source), source


def check_extensions(g, r, dist):
    orders = endpoint_orders(r)
    current = r
    for k in (2, 3):
        base = normalize(current)
        lefts = [left for left, _ in base.intervals]
        rights = [right for _, right in base.intervals]
        current, trace = extend_representation(g, k, current)
        assert intersection_graph(current) == graph_power_oracle(g, k), (r, k)
        assert endpoint_orders(current) == orders, (r, k)
        assert list(trace.witness) == ball_witnesses_walk(distance_rows(dist, k), lefts, rights), (r, k)


def main(argv):
    path = clique_path(262, 34, 3)
    for seed in [int(arg) for arg in argv] or [0, 1, 2]:
        rng = random.Random(seed)
        started = time.perf_counter()
        graphs = 0
        for n in range(33, 121):
            g = dense_blocks(rng, n)
            check_power_rows(g, check_distances(g))
            graphs += 1
            # Below n = 35 no graph with an isolated vertex is dense.
            for split in (False, True) if n >= 35 else (False,):
                g, r = dense_intervals(rng, n, split)
                try:
                    check_extensions(g, r, check_distances(g))
                except AssertionError:
                    print(f"seed {seed}, n={n}: mismatch on {r!r}", file=sys.stderr)
                    raise
                graphs += 1
        check_clique_path(rng, path)
        print(f"seed {seed}: {graphs} dense graphs with n = 33..120 and a clique path, all match "
              f"({time.perf_counter() - started:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
