"""Throughput benchmark for the exchange colorer at increasing scale.

Colors random connected non-cubic subcubic graphs across a ladder of
sizes and densities, verifying and auditing every result, and prints a
timing table (coloring time, verification time, replay-audit time,
subdivision-lift time, committed moves, restart attempts).  The lift
column times the certification of the corollary on S(G):
``derive_subdivision_coloring``, then ``subdivide``, then ``verify`` of
the lifted coloring.  Validation stays on, as in ``color_graph``'s
defaults.  Each stage of a cell (generate, color, verify, audit, lift)
runs at least three times and until its calls have taken ``MIN_STAGE_S``
in all, and its timing is the median time of one call: a cell at
n = 10^3 takes about a millisecond per call, and a median of three such
calls mostly measures scheduling.  Verify, audit and lift check the
first coloring.  A call whose result differs from its stage's first
raises ``RuntimeError``.  The default sizes are the n = 10^3, 10^4,
10^5 ladder (about 30 s on one core); ``--sizes`` picks others.

With ``--json PATH`` it also writes the ladder to PATH: per cell the
size, density, generation time (apart from the rest), the four timings,
the committed moves per kind, the attempts and ``ref_ms``, the machine's
speed next to the cell: the median of ``perfbench/pace.py``'s
``speed_sample()`` (a fixed pure-Python kernel that uses no spack code)
taken just before and just after the cell, in milliseconds, so that
timings in files written at different times or loads can be scaled to
one another; for the file the Python
version, ``git describe --always --dirty`` (null outside a checkout),
``source``, a sha256 over the measured package's ``*.py`` files (each
name, then its bytes, in name order) that names the code even when the
checkout is dirty, the usable CPU count and the seed.

Usage: python scripts/scale_benchmark.py [--sizes 1000,10000,100000] [--seed S] [--json PATH]
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import get_args

import spack
from spack.audit import audit_color_result
from spack.colorer import ColorResult, color_graph
from spack.exchange import Move
from spack.gen import random_subcubic
from spack.graph import Graph, subdivide
from spack.verify import derive_subdivision_coloring, verify

REPEATS = 3  # each stage runs at least this often
MIN_STAGE_S = 0.1  # and until its calls have taken this long in all


def _load_speed_sample():
    """``speed_sample`` of ``perfbench/pace.py``, loaded from its file, which stays as it is."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "pace.py"
    spec = importlib.util.spec_from_file_location("_perfbench_pace", path)
    pace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pace)
    return pace.speed_sample


speed_sample = _load_speed_sample()


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


def per_call(name: str, stage, where: str):
    """Run ``stage`` at least REPEATS times and until its calls take MIN_STAGE_S in all.

    Returns the first call's result and the median wall time of one
    call.  Raises RuntimeError when a later call returns something else,
    which no stage of this deterministic pipeline does.
    """
    first, times = None, []
    while len(times) < REPEATS or sum(times) < MIN_STAGE_S:
        start = time.perf_counter()
        out = stage()
        times.append(time.perf_counter() - start)
        if len(times) == 1:
            first = out
        elif out != first:
            raise RuntimeError(f"{name} gave a different result at {where}")
    return first, statistics.median(times)


def time_stages(g: Graph, where: str) -> tuple[ColorResult, dict[str, float]]:
    """Color, verify, audit and lift ``g``; the coloring and each stage's time per call."""
    result, t_color = per_call("color_graph", lambda: color_graph(g), where)
    report, t_verify = per_call("verify", lambda: verify(g, result.coloring), where)
    if not report.ok:
        raise RuntimeError(f"invalid coloring at {where}")
    _, t_audit = per_call("audit_color_result", lambda: audit_color_result(g, result), where)

    def lift():
        lifted = derive_subdivision_coloring(g, result.coloring)
        sg, _ = subdivide(g)
        return verify(sg, lifted)

    lifted_report, t_lift = per_call("the lift", lift, where)
    if not lifted_report.ok:
        raise RuntimeError(f"invalid S(G) coloring at {where}")
    return result, {"color_s": t_color, "verify_s": t_verify, "audit_s": t_audit, "lift_s": t_lift}


def bench_one(n: int, m: int, label: str, seed: int) -> dict:
    before = speed_sample()
    where = f"n={n} m={m} seed={seed}"
    g, t_generate = per_call("random_subcubic", lambda: random_subcubic(n, m, seed=seed, require_non_cubic=True), where)
    result, times = time_stages(g, where)
    ref_ms = 1000 * statistics.median((before, speed_sample()))
    runs = [comp.core_run for comp in result.components if comp.core_run is not None]
    kinds = Counter(type(record.move).__name__ for run in runs for record in run.moves)
    return {
        "n": n,
        "m": m,
        "density": label,
        "generate_s": t_generate,
        **times,
        "moves": {kind.__name__: kinds[kind.__name__] for kind in get_args(Move)},
        "attempts": max((run.attempts for run in runs), default=0),
        "ref_ms": ref_ms,
    }


def _git_describe() -> str | None:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(spack.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(sizes: list[int], seed: int, json_path: str | None = None) -> int:
    print(
        f"{'n':>7} {'m':>7} {'density':>8} {'color s':>9} {'verify s':>9} {'audit s':>9} "
        f"{'lift s':>9} {'moves':>8} {'attempts':>8}"
    )
    cells = []
    for n in sizes:
        for label, m in density_ladder(n):
            cell = bench_one(n, m, label, seed)
            cells.append(cell)
            print(
                f"{n:>7} {m:>7} {label:>8} {cell['color_s']:>9.3f} {cell['verify_s']:>9.3f} "
                f"{cell['audit_s']:>9.3f} {cell['lift_s']:>9.3f} "
                f"{sum(cell['moves'].values()):>8} {cell['attempts']:>8}"
            )
    if json_path is not None:
        # what ``nproc`` prints: the CPUs this process may run on, where the OS says
        affinity = getattr(os, "sched_getaffinity", None)
        ladder = {
            "python": platform.python_version(),
            "git": _git_describe(),
            "source": _source_sha256(),
            "nproc": len(affinity(0)) if affinity else os.cpu_count(),
            "seed": seed,
            "cells": cells,
        }
        Path(json_path).write_text(json.dumps(ladder, indent=1) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--sizes",
        type=lambda s: [int(x) for x in s.split(",")],
        default=[1_000, 10_000, 100_000],
        help="comma-separated vertex counts",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", metavar="PATH", help="also write the ladder as JSON to PATH")
    args = ap.parse_args()
    return run(args.sizes, args.seed, args.json)


if __name__ == "__main__":
    sys.exit(main())
