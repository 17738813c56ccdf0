"""Bounded-exhaustive check of the extension chain: every strict interval
representation on n vertices, up to relabeling, chained to G^(n-1) and
compared with the latest-close oracle (graph and both endpoint orders),
and every step compared with one single extend from the member before it.

The tier-1 suite does this for n <= 5; n = 6 and 7 (10,395 and 135,135
starts) take minutes, so this script is kept out of pytest's collection.
From the repository root, with intpow importable:

    python tests/exhaustive_chain.py [N ...]

N defaults to 6 7.  It prints one line per n and exits 1 at the first
start that fails a check.
"""

import sys
import time

from intpow import extend_representation, intersection_graph, iterate_powers
from testutil import assert_chain_matches_the_latest_close_oracle, strict_representations


def assert_single_steps_match_the_chain(r, k_max):
    """extend_representation(g, k, member k - 1) is (member k, trace k) at
    every step of the chain from r to G^k_max, g being r's graph."""
    g = intersection_graph(r)
    previous = r
    for k, rep, trace in iterate_powers(g, r, k_max):
        assert extend_representation(g, k, previous) == (rep, trace), k
        previous = rep


def main(argv):
    for n in [int(arg) for arg in argv] or [6, 7]:
        started = time.perf_counter()
        count = 0
        for r in strict_representations(n):
            try:
                assert_chain_matches_the_latest_close_oracle(r, n - 1)
                assert_single_steps_match_the_chain(r, n - 1)
            except AssertionError:
                print(f"n={n}: mismatch on {r!r}", file=sys.stderr)
                raise
            count += 1
        print(f"n={n}: {count} starts chained to G^{n - 1}, all match, single steps too "
              f"({time.perf_counter() - started:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
