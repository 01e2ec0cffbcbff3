"""Smoke tests for ``scripts/``: each script runs end to end on a small input."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spack.graphio import parse_graph6

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )


def test_scale_benchmark_one_size(tmp_path):
    out = tmp_path / "bench.json"
    done = _run("scale_benchmark.py", "--sizes", "100", "--json", str(out))
    assert done.returncode == 0, done.stderr
    _, *rows = done.stdout.splitlines()
    assert [row.split()[0] for row in rows] == ["100"] * 3
    assert [row.split()[-1] for row in rows] == ["1"] * 3  # attempts
    ladder = json.loads(out.read_text())
    assert set(ladder) == {"python", "git", "source", "nproc", "seed", "cells"}
    assert ladder["seed"] == 0 and ladder["nproc"] >= 1
    assert re.fullmatch("[0-9a-f]{64}", ladder["source"])
    cells = ladder["cells"]
    assert [(c["n"], c["density"]) for c in cells] == [(100, d) for d in ("sparse", "medium", "dense")]
    for cell, row in zip(cells, rows):
        assert set(cell) == {
            "n", "m", "density", "generate_s", "color_s", "verify_s", "audit_s", "lift_s",
            "moves", "attempts", "ref_ms",
        }
        assert set(cell["moves"]) == {
            "Absorb", "Flip", "Deg3Exchange", "SameSideExchange", "CycleSwap", "PathSwap",
        }
        # the table and the file come from the same run
        assert int(row.split()[1]) == cell["m"]
        assert int(row.split()[-2]) == sum(cell["moves"].values())
        assert cell["attempts"] == 1
        assert cell["ref_ms"] > 0


def test_restart_hunt_small_slice():
    done = _run("restart_hunt.py", "--sizes", "50", "--seeds", "10")
    assert done.returncode == 0, done.stderr
    histogram, digest = done.stdout.splitlines()
    assert histogram == "attempts {1: 20}"  # two edge counts times ten seeds
    assert digest.startswith("sha256 ") and len(digest.split()[1]) == 64


def test_build_corpus_matches_committed_corpus(tmp_path):
    pytest.importorskip("networkx")
    out = tmp_path / "corpus.g6"
    done = _run("build_corpus.py", "--max-n", "7", "--out", str(out))
    assert done.returncode == 0, done.stderr
    committed = (ROOT / "tests" / "data" / "connected_subcubic.g6").read_text().split()
    written = out.read_text().split()
    assert len(written) == 113
    assert sorted(written) == sorted(line for line in committed if parse_graph6(line).n <= 7)
