"""spack benchmark: time from input text to a verified, audited coloring.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-1k --seed 0 --seconds 25 --trace 0

Runs one workload in this process and thread, as a closed loop with one
caller.  Prints every metric by name with its unit, then a metadata
line, then as its last line the JSON result: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Times are in
reference seconds, wall seconds scaled by the speed of a fixed kernel
timed next to them (see perfbench/pace.py).  Exits non-zero
without a result when the library sources or the corpus are missing.
See perfbench/NOTES.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
CORPUS = ROOT / "tests" / "data" / "connected_subcubic.g6"
WORKLOADS = ("dense-1k", "corpus-sweep", "oracle")


def use_checkout_sources() -> None:
    """Import spack from this checkout's ``src``, never from an installed copy."""
    missing = [str(p.relative_to(ROOT)) for p in (SOURCE / "spack", CORPUS) if not p.exists()]
    if missing:
        raise SystemExit(f"perfbench: missing {', '.join(missing)}; run from a full checkout")
    sys.path.insert(0, str(SOURCE))
    import spack

    if not Path(spack.__file__).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"perfbench: spack imported from {spack.__file__}, not {SOURCE}")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(report) -> dict:
    return {
        "workload": report.workload,
        "seed": report.seed,
        "trace": int(report.traced),
        "python": f"Python {platform.python_version()}",
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "input_sizes": report.sizes,
        "passes": len(report.passes),
        "setup_reps": report.setup_reps,
        "ref_ms": report.ref_ms,
        "percentile_samples": report.percentile_samples,
        "digest": report.passes[0].digest,
        "problems": report.problems,
    }


def print_report(report) -> None:
    print(f"workload {report.workload}  seed {report.seed}  trace {int(report.traced)}  "
          f"tasks {report.tasks}  passes {len(report.passes)}")
    for name, (value, unit) in {**report.metrics, **report.extra}.items():
        samples = report.percentile_samples.get(name)
        note = f"  (n={samples})" if samples else ""
        print(f"  {name:<36} {value:>16.6g} {unit}{note}")
    for name, message in report.failures:
        print(f"  FAILED {name}: {message}")
    for problem in report.problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({"meta": metadata(report)}, sort_keys=True))


def result_line(report) -> str:
    return json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    use_checkout_sources()
    from pipeline import run_workload

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
