"""Metamorphic relations of the extension step: two runs of the same code on
related inputs must give related outputs, so no second implementation is
the oracle.  Each relation is checked on both routes: the row-free chain
(iterate_powers), and one extend_representation call per step, from the
chain's member before it."""

import random

from intpow import (
    IntervalRepresentation,
    extend_representation,
    intersection_graph,
    iterate_powers,
)
from testutil import (
    random_representation,
    random_strict_connected_representation,
    ranked_representations,
    relabel_graph,
    strict_representations,
)


def affine(r, a, c):
    """r under the map x -> a*x + c of its coordinates."""
    return IntervalRepresentation((a * left + c, a * right + c) for left, right in r.intervals)


def rerank(r):
    """r with each distinct coordinate replaced by its rank, 0..d-1."""
    rank = {c: i for i, c in enumerate(sorted({c for row in r.intervals for c in row}))}
    return IntervalRepresentation((rank[left], rank[right]) for left, right in r.intervals)


def relabel(r, permutation):
    """r with vertex v renamed permutation[v]."""
    rows = [None] * r.n
    for v, row in enumerate(r.intervals):
        rows[permutation[v]] = row
    return IntervalRepresentation(rows)


def _both_routes(g, r, mapped_g, mapped, k_max):
    """Pairs of steps (k, representation, trace), the first of each pair
    from g and r and the second from mapped_g and the image mapped(r): the
    chain from r against the chain from mapped(r), then per k one extend
    from the first chain's member k - 1 against one from its image."""
    chain = iterate_powers(g, r, k_max)
    pairs = list(zip(chain, iterate_powers(mapped_g, mapped(r), k_max)))
    previous = r
    for k, rep, _ in chain:
        pairs.append(((k, *extend_representation(g, k, previous)),
                      (k, *extend_representation(mapped_g, k, mapped(previous)))))
        previous = rep
    return pairs


def test_an_increasing_affine_map_keeps_witnesses_and_ranked_members():
    """x -> a*x + c with a >= 1 keeps every endpoint order, ties included,
    so both routes give the same witnesses, the same scale and the same
    members once their coordinates are re-ranked: every strict start with
    n <= 4, every ranked start with n <= 3, and random tied starts with
    n <= 9, to G^2..G^5."""
    rng = random.Random(73)
    starts = [r for n in range(5) for r in strict_representations(n)]
    starts += [r for n in range(4) for r in ranked_representations(n)]
    starts += [random_representation(rng, max_n=9, coord_max=rng.choice([6, 20])) for _ in range(1500)]
    steps = 0
    for i, r in enumerate(starts):
        a, c = rng.randint(1, 7), rng.randint(-100, 100)
        g = intersection_graph(r)
        for (k, rep, trace), (mapped_k, mapped_rep, mapped_trace) in _both_routes(
            g, r, g, lambda rep: affine(rep, a, c), 2 + i % 4
        ):
            assert mapped_k == k and mapped_trace.scale == trace.scale
            assert mapped_trace.witness == trace.witness
            assert rerank(mapped_rep) == rerank(rep)
            steps += 1
    assert steps > 8000


def test_relabeling_a_strict_start_permutes_every_member_and_witness():
    """Renaming vertex v of a strict r and of G to p[v] renames every member
    and every trace the same way, on both routes: every strict start with
    n <= 5, and random strict connected starts with n <= 20, to
    G^2..G^5.  Strict means no ties, where the smallest id would pick the
    witness."""
    rng = random.Random(79)
    starts = [r for n in range(6) for r in strict_representations(n)]
    starts += [random_strict_connected_representation(rng, max_n=20) for _ in range(150)]
    steps = 0
    for i, r in enumerate(starts):
        p = rng.sample(range(r.n), r.n)
        g = intersection_graph(r)
        for (k, rep, trace), (mapped_k, mapped_rep, mapped_trace) in _both_routes(
            g, r, relabel_graph(g, p), lambda rep: relabel(rep, p), 2 + i % 4
        ):
            assert mapped_k == k and mapped_trace.scale == trace.scale
            assert mapped_rep == relabel(rep, p)
            witness = [None] * r.n
            new_right = [None] * r.n
            for v, (w, right) in enumerate(zip(trace.witness, trace.new_right)):
                witness[p[v]] = None if w is None else p[w]
                new_right[p[v]] = right
            assert mapped_trace.witness == tuple(witness)
            assert mapped_trace.new_right == tuple(new_right)
            steps += 1
    assert steps > 6000
