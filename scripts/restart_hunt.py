"""Count how often the exchange search needs a restart on random graphs.

Colors ``random_subcubic(n, m, seed, require_non_cubic=True)`` for each
n in ``--sizes``, each m in (3n/2 - 1, 3n/2 - 2) and each seed in
0 .. ``--seeds`` - 1, in that order.  It prints the histogram of core
runs by attempt count, then one SHA-256 over every run: per graph, the
bytes of ``coloring_to_json`` and then the ``repr`` of
``[(used_exact, (attempts, moves) or None)]`` over its components, where
``moves`` is the core run's tuple of move records and None marks a
component with no core run.  A change that keeps every coloring,
attempt count and move trail prints the same digest.

Usage: python scripts/restart_hunt.py [--sizes 50,100,200,300] [--seeds 1500]
"""
from __future__ import annotations

import argparse
import hashlib
from collections import Counter

from spack.colorer import color_graph
from spack.gen import random_subcubic
from spack.graphio import coloring_to_json


def hunt(sizes: list[int], seeds: int) -> tuple[Counter, str]:
    attempts: Counter = Counter()
    digest = hashlib.sha256()
    for n in sizes:
        for m in (3 * n // 2 - 1, 3 * n // 2 - 2):
            for seed in range(seeds):
                g = random_subcubic(n, m, seed=seed, require_non_cubic=True)
                result = color_graph(g)
                digest.update(coloring_to_json(result.coloring).encode())
                runs = [
                    (c.used_exact, None if c.core_run is None else (c.core_run.attempts, c.core_run.moves))
                    for c in result.components
                ]
                digest.update(repr(runs).encode())
                attempts.update(c.core_run.attempts for c in result.components if c.core_run is not None)
    return attempts, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="50,100,200,300", help="comma-separated vertex counts")
    parser.add_argument("--seeds", type=int, default=1500, help="seeds 0 .. SEEDS-1 per (n, m)")
    args = parser.parse_args()
    attempts, digest = hunt([int(s) for s in args.sizes.split(",")], args.seeds)
    print("attempts", dict(sorted(attempts.items())))
    print("sha256", digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
