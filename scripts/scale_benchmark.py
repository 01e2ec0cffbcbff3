"""Throughput benchmark for the exchange colorer at increasing scale.

Colors random connected non-cubic subcubic graphs across a ladder of
sizes and densities, verifying and auditing every result, and prints a
timing table (coloring time, verification time, replay-audit time,
subdivision-lift time, committed moves, restart attempts).  The lift
column times the certification of the corollary on S(G):
``derive_subdivision_coloring``, then ``subdivide``, then ``verify`` of
the lifted coloring.  Validation stays on, as in ``color_graph``'s
defaults.

Usage: python scripts/scale_benchmark.py [--sizes 100,1000,10000] [--seed S]
"""
from __future__ import annotations

import argparse
import sys
import time

from spack.audit import audit_color_result
from spack.colorer import color_graph
from spack.gen import random_subcubic
from spack.graph import subdivide
from spack.verify import derive_subdivision_coloring, verify


def density_ladder(n: int) -> list[tuple[str, int]]:
    """Edge counts for sparse / medium / near-ceiling non-cubic graphs."""
    cap = 3 * n // 2
    if n % 2 == 0:
        cap -= 1
    cap = min(cap, n * (n - 1) // 2)
    return [
        ("sparse", max(n - 1, min(cap, n))),
        ("medium", min(cap, max(n - 1, round(1.25 * (n - 1))))),
        ("dense", cap),
    ]


def bench_one(n: int, m: int, seed: int) -> tuple[float, float, float, float, int, int]:
    g = random_subcubic(n, m, seed=seed, require_non_cubic=True)
    start = time.perf_counter()
    result = color_graph(g)
    t_color = time.perf_counter() - start
    start = time.perf_counter()
    report = verify(g, result.coloring)
    t_verify = time.perf_counter() - start
    if not report.ok:
        raise RuntimeError(f"invalid coloring at n={n} m={m} seed={seed}")
    start = time.perf_counter()
    audit_color_result(g, result)
    t_audit = time.perf_counter() - start
    start = time.perf_counter()
    lifted = derive_subdivision_coloring(g, result.coloring)
    sg, _ = subdivide(g)
    lifted_report = verify(sg, lifted)
    t_lift = time.perf_counter() - start
    if not lifted_report.ok:
        raise RuntimeError(f"invalid S(G) coloring at n={n} m={m} seed={seed}")
    moves = sum(
        len(comp.core_run.moves) for comp in result.components if comp.core_run is not None
    )
    attempts = max(
        (comp.core_run.attempts for comp in result.components if comp.core_run is not None),
        default=0,
    )
    return t_color, t_verify, t_audit, t_lift, moves, attempts


def run(sizes: list[int], seed: int) -> int:
    print(
        f"{'n':>7} {'m':>7} {'density':>8} {'color s':>9} {'verify s':>9} {'audit s':>9} "
        f"{'lift s':>9} {'moves':>8} {'attempts':>8}"
    )
    for n in sizes:
        for label, m in density_ladder(n):
            t_color, t_verify, t_audit, t_lift, moves, attempts = bench_one(n, m, seed)
            print(
                f"{n:>7} {m:>7} {label:>8} {t_color:>9.3f} {t_verify:>9.3f} {t_audit:>9.3f} "
                f"{t_lift:>9.3f} {moves:>8} {attempts:>8}"
            )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--sizes",
        type=lambda s: [int(x) for x in s.split(",")],
        default=[100, 1_000, 10_000],
        help="comma-separated vertex counts",
    )
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    return run(args.sizes, args.seed)


if __name__ == "__main__":
    sys.exit(main())
