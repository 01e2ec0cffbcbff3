"""Enumerate all connected subcubic graphs up to 9 vertices.

Every connected subcubic graph arises by repeatedly attaching a new
vertex to 1..3 existing vertices of degree <= 2 (remove any non-cut
vertex for the induction), so breadth-first augmentation with
isomorphism dedup per level enumerates them exhaustively.  The corpus
is written one graph6 line per graph to tests/data/, cubic graphs
included; consumers filter as needed.

Usage: python scripts/build_corpus.py [--max-n 9] [--out tests/data/connected_subcubic.g6]
"""
from __future__ import annotations

import argparse
import collections
import itertools
import sys
from pathlib import Path

import networkx as nx

from spack.graph import build_graph
from spack.graphio import encode_graph6

# Known counts of connected cubic graphs, used as an enumeration anchor.
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5}


def _dedup(n: int, edge_sets: list[tuple[tuple[int, int], ...]]) -> list[tuple[tuple[int, int], ...]]:
    buckets: dict[str, list[tuple[nx.Graph, tuple[tuple[int, int], ...]]]] = collections.defaultdict(list)
    for edges in edge_sets:
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        key = nx.weisfeiler_lehman_graph_hash(h, iterations=3)
        if any(nx.is_isomorphic(h, other) for other, _ in buckets[key]):
            continue
        buckets[key].append((h, edges))
    out = [edges for bucket in buckets.values() for _, edges in bucket]
    out.sort()
    return out


def _degrees(n: int, edges: tuple[tuple[int, int], ...]) -> list[int]:
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return degree


def enumerate_connected_subcubic(max_n: int) -> dict[int, list[tuple[tuple[int, int], ...]]]:
    levels: dict[int, list[tuple[tuple[int, int], ...]]] = {1: [()]}
    for n in range(2, max_n + 1):
        grown: list[tuple[tuple[int, int], ...]] = []
        for edges in levels[n - 1]:
            low = [v for v, d in enumerate(_degrees(n - 1, edges)) if d <= 2]
            for size in (1, 2, 3):
                for combo in itertools.combinations(low, size):
                    grown.append(tuple(sorted(edges + tuple((v, n - 1) for v in combo))))
        levels[n] = _dedup(n, grown)
    return levels


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent.parent / "tests" / "data" / "connected_subcubic.g6"
    )
    args = ap.parse_args()

    levels = enumerate_connected_subcubic(args.max_n)
    lines = []
    for n in sorted(levels):
        cubic = sum(
            1
            for edges in levels[n]
            if n >= 4 and all(d == 3 for d in _degrees(n, edges))
        )
        print(f"n={n}: {len(levels[n])} connected subcubic graphs ({cubic} cubic)")
        if n in CUBIC_COUNTS and cubic != CUBIC_COUNTS[n]:
            print(f"  ANCHOR MISMATCH: expected {CUBIC_COUNTS[n]} cubic graphs", file=sys.stderr)
            return 1
        for edges in levels[n]:
            lines.append(encode_graph6(build_graph(n, list(edges))))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} graphs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
