"""Self-test of the benchmark at reduced sizes.

Run from the repository root:  python -m pytest perfbench

Checks that one seed gives identical digests and counts on two runs,
that every named metric appears with its unit, that a wrong coloring
is counted as a failure, that timed work is scaled by the speed of the
reference kernel around it, and that the command refuses to run
without the library sources.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

WORKLOADS = run.WORKLOADS


@pytest.fixture(scope="module")
def bench():
    run.use_checkout_sources()
    import inputs
    import pipeline

    small = inputs.Sizes(
        dense_n=400,
        dense_graphs=2,
        sweep_random=30,
        sweep_max_n=60,
        oracle_random=3,
        oracle_n=(12, 14),
        corpus_stride=25,
    )
    return pipeline, small


def _run(bench, workload, traced, seed=0):
    pipeline, small = bench
    return pipeline.run_workload(workload, seed, 0.0, traced, run.ROOT, small)


def _result(report) -> dict:
    doc = json.loads(run.result_line(report))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digests_and_counts(bench, workload):
    pipeline, _ = bench
    first, second = _run(bench, workload, True), _run(bench, workload, True)
    for report in (first, second):
        assert report.correct, (report.failures, report.problems)
        assert len(report.passes) >= 2
        doc = _result(report)
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == dict(pipeline.PER_LAYER)
    assert first.passes[0].digest == second.passes[0].digest
    counts = [name for name, unit in pipeline.PER_LAYER if unit == "count"]
    assert [first.metrics[c] for c in counts] == [second.metrics[c] for c in counts]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(bench, workload):
    pipeline, _ = bench
    report = _run(bench, workload, False)
    assert report.correct, (report.failures, report.problems)
    doc = _result(report)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == dict(pipeline.END_TO_END)
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert report.extra["fail_ratio"] == (0.0, "ratio")


def test_benchmark_json_lists_the_reported_metrics(bench):
    pipeline, _ = bench
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(pipeline.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(pipeline.PER_LAYER)


def test_wrong_coloring_is_counted_as_failure(bench, monkeypatch):
    pipeline, _ = bench
    real = pipeline.color_graph

    def broken(g, options=None):
        result = real(g, options)
        emptied = tuple(dataclasses.replace(c, vertices=frozenset()) for c in result.coloring.classes)
        return dataclasses.replace(result, coloring=dataclasses.replace(result.coloring, classes=emptied))

    monkeypatch.setattr(pipeline, "color_graph", broken)
    report = _run(bench, "dense-1k", False)
    assert not report.correct
    assert report.failed == report.attempted
    assert [name for name, _ in report.failures] == ["dense:0", "dense:1"]
    assert _result(report)["correct"] is False


def test_wrong_chi_value_is_counted_as_failure(bench, monkeypatch):
    """A chi_rho one too high, with a valid witness for it, fails on the known values."""
    pipeline, _ = bench
    real = pipeline.chi_rho

    def too_high(g, k_max):
        res = real(g, k_max=k_max)
        witness = pipeline.decide(g, tuple(range(1, res.value + 2))).coloring
        return dataclasses.replace(res, value=res.value + 1, coloring=witness)

    monkeypatch.setattr(pipeline, "chi_rho", too_high)
    report = _run(bench, "oracle", False)
    known = {t.name for t in pipeline.inputs.build("oracle", 0, run.ROOT, pipeline.NullTracer(), bench[1])
             if t.kind == "chi" and t.expect is not None}
    assert known and {name for name, _ in report.failures} == known
    assert not report.correct


def test_pace_scales_each_block_by_the_kernel_time_around_it(monkeypatch):
    import pace

    samples = iter([0.010, 0.030, 0.020, 0.020])
    monkeypatch.setattr(pace, "speed_sample", lambda: next(samples))
    out: dict[str, float] = {}
    clock = pace.Pace()
    clock.add(out, "a", 0.1)
    clock.add(out, "b", pace.BLOCK_SECONDS)  # closes the first block: kernel 0.010 then 0.030
    clock.add(out, "c", 0.4)  # closes the second block: 0.030 then 0.020
    clock.close()  # nothing left open: takes no sample
    assert out == pytest.approx({
        "a": 0.1 * pace.REF_SECONDS / 0.020,
        "b": pace.BLOCK_SECONDS * pace.REF_SECONDS / 0.020,
        "c": 0.4 * pace.REF_SECONDS / 0.025,
    })
    assert clock.wall_s == pytest.approx(0.5 + pace.BLOCK_SECONDS)
    assert clock.samples == [0.010, 0.030, 0.020]
    assert clock.scale == pytest.approx(pace.REF_SECONDS / 0.020)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
