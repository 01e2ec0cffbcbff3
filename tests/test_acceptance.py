"""Acceptance gate: ten system-level criteria, one test per criterion.

Two more tests pin behaviour: a sha256 digest of every coloring and
move trail of criteria 1-2, and the move trail of one graph at the scale
of criterion 10, under the same time budget.

Criteria 1-2 drive the constructive colorer over an exhaustive corpus
and a large randomized sweep; their per-move and per-fixpoint evidence
is shared with criteria 5-6 through session fixtures.  Every coloring
is independently replayed and re-verified, never trusted.
"""
from __future__ import annotations

import collections
import hashlib
import random
import time
from dataclasses import dataclass, field

import pytest

from oracles import (
    check_weight_recurrence,
    check_weight_smoothness,
    load_corpus,
    naive_chi_rho,
    naive_packing_colorable,
)
from spack.audit import AuditError, audit_core_run
from spack.colorer import CubicComponentError, color_graph, peel
from spack.exact import Status, chi_rho, decide
from spack.exchange import StuckError, check_fixpoint_invariants
from spack.gen import petersen, random_subcubic
from spack.graph import build_graph, induced, subdivide
from spack.graphio import coloring_to_json
from spack.verify import derive_subdivision_coloring, verify, verify_sequence_shape
from spack.weights import compute_weights

RANDOM_SWEEP_TRIALS = 10_000
RANDOM_SWEEP_MAX_N = 200
SCALE_BUDGET_S = 30.0


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@dataclass
class SweepStats:
    trials: int = 0
    colored: int = 0
    verified: int = 0
    stuck: int = 0
    other_failures: int = 0
    moves: int = 0
    runs: int = 0
    potential_violations: int = 0
    invariant_violations: int = 0
    audit_errors: list[str] = field(default_factory=list)
    failure_notes: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    # Running hash of every coloring and move trail, in the trail format
    # of perfbench/pipeline.py, so that a change of behaviour shows.
    trail: hashlib._Hash = field(default_factory=hashlib.sha256)


def _record_run(g, result, stats: SweepStats) -> None:
    """Replay and re-check one coloring result into the counters."""
    for comp in result.components:
        run = comp.core_run
        if run is None:
            continue
        stats.runs += 1
        stats.moves += len(run.moves)
        stats.potential_violations += sum(
            1 for record in run.moves if not record.after > record.before
        )
        core = induced(g, comp.core_vertices).graph
        stats.invariant_violations += len(
            check_fixpoint_invariants(core, list(run.weights), run.final)
        )
        try:
            audit_core_run(core, run)
        except AuditError as exc:
            stats.audit_errors.append(str(exc))


def _color_and_tally(g, stats: SweepStats) -> None:
    stats.trials += 1
    try:
        result = color_graph(g)
    except StuckError:
        stats.stuck += 1
        return
    except Exception as exc:  # any failure mode counts against the criterion
        stats.other_failures += 1
        if len(stats.failure_notes) < 5:
            stats.failure_notes.append(f"{type(exc).__name__}: {exc}")
        return
    stats.colored += 1
    stats.trail.update(coloring_to_json(result.coloring).encode())
    stats.trail.update(repr([
        (c.used_exact, None if c.core_run is None else (c.core_run.attempts, c.core_run.moves))
        for c in result.components
    ]).encode())
    stats.trail.update(b"\n")
    if verify(g, result.coloring).ok:
        stats.verified += 1
    _record_run(g, result, stats)


def _non_cubic_cap(n: int) -> int:
    cap = min(3 * n // 2, n * (n - 1) // 2)
    if n >= 4 and n % 2 == 0 and cap == 3 * n // 2:
        cap -= 1
    return max(n - 1, cap)


@pytest.fixture(scope="session")
def corpus_stats(corpus_noncubic) -> SweepStats:
    """Criterion 1 evidence: every non-cubic corpus graph, audited."""
    stats = SweepStats()
    start = time.perf_counter()
    for g in corpus_noncubic:
        _color_and_tally(g, stats)
    stats.elapsed = time.perf_counter() - start
    return stats


@pytest.fixture(scope="session")
def random_sweep_stats() -> SweepStats:
    """Criterion 2 evidence: 10^4 random graphs over mixed densities."""
    stats = SweepStats()
    rng = random.Random(987654321)
    start = time.perf_counter()
    for trial in range(RANDOM_SWEEP_TRIALS):
        n = rng.randint(2, RANDOM_SWEEP_MAX_N)
        cap = _non_cubic_cap(n)
        style = trial % 3
        if style == 0:  # near-tree
            m = min(cap, n - 1 + rng.randint(0, max(1, n // 10)))
        elif style == 1:  # mid density
            m = min(cap, max(n - 1, round(1.25 * (n - 1))))
        else:  # near the subcubic ceiling
            m = rng.randint(max(n - 1, cap - max(1, n // 10)), cap)
        g = random_subcubic(n, m, seed=1_000_003 * trial + 7, require_non_cubic=True)
        _color_and_tally(g, stats)
    stats.elapsed = time.perf_counter() - start
    return stats


def test_criterion_01_exhaustive_theorem_reproduction(corpus_stats, corpus_noncubic):
    stats = corpus_stats
    ok = (
        stats.trials == len(corpus_noncubic) == 830
        and stats.colored == stats.trials
        and stats.verified == stats.trials
        and stats.stuck == 0
        and stats.other_failures == 0
        and stats.elapsed < 60.0
    )
    _report(
        1,
        ok,
        f"{stats.colored}/{stats.trials} colored+verified, "
        f"{stats.stuck} stuck, {stats.elapsed:.1f}s (budget 60s)",
    )
    assert stats.trials == 830
    assert stats.colored == stats.trials
    assert stats.verified == stats.trials
    assert stats.stuck == 0
    assert stats.other_failures == 0, stats.failure_notes
    assert stats.elapsed < 60.0


def test_criterion_02_randomized_theorem_reproduction(random_sweep_stats):
    stats = random_sweep_stats
    ok = (
        stats.trials >= RANDOM_SWEEP_TRIALS
        and stats.colored == stats.trials
        and stats.verified == stats.trials
        and stats.stuck == 0
        and stats.other_failures == 0
        and stats.elapsed < 300.0
    )
    _report(
        2,
        ok,
        f"{stats.verified}/{stats.trials} colored+verified (n <= {RANDOM_SWEEP_MAX_N}), "
        f"{stats.stuck} stuck, {stats.elapsed:.1f}s (budget 300s)",
    )
    assert stats.trials >= RANDOM_SWEEP_TRIALS
    assert stats.colored == stats.trials
    assert stats.verified == stats.trials
    assert stats.stuck == 0
    assert stats.other_failures == 0, stats.failure_notes
    assert stats.elapsed < 300.0


def test_sweep_trails_pinned(corpus_stats, random_sweep_stats):
    # A change in either digest means some coloring or committed move
    # differs.  The sweep makes every move kind, both swaps included,
    # and 4 of its runs need a second attempt.
    assert corpus_stats.trail.hexdigest() == (
        "490497b7334a2047489e737cceb141b233e537dd7e4d2ed389e4d8cfafdee618"
    )
    assert random_sweep_stats.trail.hexdigest() == (
        "abbc1ddabfb29eaa550f6f0824f179fae0454cd6a1d00dd0df7f343c6f1714b3"
    )


def test_criterion_03_petersen_dichotomy():
    g = petersen()
    start = time.perf_counter()
    refuted = decide(g, (1, 1, 2, 2))
    t_unsat = time.perf_counter() - start
    start = time.perf_counter()
    admitted = decide(g, (1, 1, 2, 2, 3))
    t_sat = time.perf_counter() - start
    payload_ok = admitted.coloring is not None and verify(g, admitted.coloring).ok
    ok = (
        refuted.status is Status.UNSAT
        and admitted.status is Status.SAT
        and payload_ok
        and t_unsat < 10.0
        and t_sat < 10.0
    )
    _report(
        3,
        ok,
        f"(1,1,2,2) {refuted.status.value} in {t_unsat:.2f}s, "
        f"(1,1,2,2,3) {admitted.status.value} in {t_sat:.2f}s (budget 10s each)",
    )
    assert refuted.status is Status.UNSAT
    assert admitted.status is Status.SAT
    assert payload_ok
    assert t_unsat < 10.0 and t_sat < 10.0


def test_criterion_04_subdivision_consequence():
    rng = random.Random(24601)
    failures = 0
    for trial in range(100):
        n = rng.randint(2, 30)
        m = rng.randint(n - 1, _non_cubic_cap(n))
        g = random_subcubic(n, m, seed=rng.randrange(2**32), require_non_cubic=True)
        lifted = derive_subdivision_coloring(g, color_graph(g).coloring)
        sg, _ = subdivide(g)
        verify_sequence_shape(lifted, (1, 2, 3, 4, 5))
        if not verify(sg, lifted).ok:
            failures += 1
    _report(4, failures == 0, f"100 subdivisions lifted to radii (1,2,3,4,5), {failures} failures")
    assert failures == 0


def test_criterion_05_potential_monotonicity(corpus_stats, random_sweep_stats):
    violations = corpus_stats.potential_violations + random_sweep_stats.potential_violations
    audit_errors = corpus_stats.audit_errors + random_sweep_stats.audit_errors
    moves = corpus_stats.moves + random_sweep_stats.moves
    ok = violations == 0 and not audit_errors
    _report(
        5,
        ok,
        f"{moves} committed moves across criteria 1-2, {violations} non-increasing, "
        f"{len(audit_errors)} replay discrepancies",
    )
    assert violations == 0
    assert audit_errors == []


def test_criterion_06_fixpoint_invariants(corpus_stats, random_sweep_stats):
    violations = corpus_stats.invariant_violations + random_sweep_stats.invariant_violations
    runs = corpus_stats.runs + random_sweep_stats.runs
    ok = violations == 0
    _report(6, ok, f"{runs} terminal states across criteria 1-2, {violations} structural violations")
    assert violations == 0


def test_criterion_07_weight_properties():
    smooth_bad = 0
    recurrence_bad = 0
    checked = 0
    for g in load_corpus(max_n=8, include_cubic=False):
        w = compute_weights(g)
        smooth_bad += len(check_weight_smoothness(g, w))
        recurrence_bad += len(check_weight_recurrence(g, w))
        checked += 1
    rng = random.Random(13579)
    cores = 0
    while cores < 1000:
        n = rng.randint(4, 50)
        m = rng.randint(n, _non_cubic_cap(n))  # at least one cycle survives peeling
        g = random_subcubic(n, m, seed=rng.randrange(2**32), require_non_cubic=True)
        core, _ = peel(g)
        if not core:
            continue
        sub = induced(g, core).graph
        w = compute_weights(sub)
        smooth_bad += len(check_weight_smoothness(sub, w))
        recurrence_bad += len(check_weight_recurrence(sub, w))
        cores += 1
    ok = smooth_bad == 0 and recurrence_bad == 0
    _report(
        7,
        ok,
        f"{checked} exhaustive graphs + {cores} random cores: "
        f"{smooth_bad} smoothness, {recurrence_bad} recurrence violations",
    )
    assert smooth_bad == 0
    assert recurrence_bad == 0


def test_criterion_08_oracle_cross_validation(corpus_n8):
    mismatches = 0
    colorer_vs_oracle = 0
    for g in corpus_n8:
        outcome = decide(g, (1, 1, 2, 2))
        assert outcome.status in (Status.SAT, Status.UNSAT)
        if (outcome.status is Status.SAT) != naive_packing_colorable(g, (1, 1, 2, 2)):
            mismatches += 1
        try:
            result = color_graph(g)
        except (CubicComponentError, StuckError):
            continue
        if not verify(g, result.coloring).ok or outcome.status is not Status.SAT:
            colorer_vs_oracle += 1
    ok = mismatches == 0 and colorer_vs_oracle == 0
    _report(
        8,
        ok,
        f"{len(corpus_n8)} graphs (cubic included): {mismatches} decide/naive mismatches, "
        f"{colorer_vs_oracle} colorer/decide mismatches",
    )
    assert mismatches == 0
    assert colorer_vs_oracle == 0


def test_criterion_09_small_known_values():
    c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    k1 = build_graph(1, [])
    # Published values: chi_rho(C_n) is 3 when n = 3 or 4 | n, and 4
    # otherwise (Goddard et al., "Broadcast chromatic numbers of graphs",
    # Ars Combin. 86, 2008); chi_rho(K1) = 1.  For C6, a (1,2,3)-packing
    # coloring would need a radius-3 class of at most one vertex (the
    # diameter is 3) and a radius-2 class of at most one antipodal pair;
    # if the radius-1 class takes an alternating triple, the other three
    # vertices are pairwise at distance 2 and give the radius-2 class at
    # most one of them, so every split covers at most five of six vertices.
    stated = {"C5": 4, "C6": 4, "K1": 1}
    solver = {
        "C5": chi_rho(c5, 6).value,
        "C6": chi_rho(c6, 6).value,
        "K1": chi_rho(k1, 6).value,
    }
    independent = {
        "C5": naive_chi_rho(c5),
        "C6": naive_chi_rho(c6),
        "K1": naive_chi_rho(k1),
    }
    assert solver == independent  # the solver always matches the naive enumerator
    ok = solver == stated
    _report(
        9,
        ok,
        f"solver C5={solver['C5']}, C6={solver['C6']}, K1={solver['K1']}; "
        f"enumerator C5={independent['C5']}, C6={independent['C6']}, K1={independent['K1']}; "
        f"stated C5={stated['C5']}, C6={stated['C6']}, K1={stated['K1']}",
    )
    assert solver["C5"] == stated["C5"]
    assert solver["K1"] == stated["K1"]
    assert solver["C6"] == stated["C6"], (
        f"chi_rho(C6) evaluates to {solver['C6']} by the solver and "
        f"{independent['C6']} by the independent enumerator; "
        f"the stated value is {stated['C6']}"
    )


def test_criterion_10_scale_target():
    g = random_subcubic(10_000, 12_500, seed=424242, require_non_cubic=True)
    start = time.perf_counter()
    result = color_graph(g)
    outcome = verify(g, result.coloring)
    elapsed = time.perf_counter() - start
    ok = outcome.ok and elapsed < SCALE_BUDGET_S
    _report(10, ok, f"n=10000 colored+verified in {elapsed:.1f}s (budget {SCALE_BUDGET_S:.0f}s)")
    assert outcome.ok
    assert elapsed < SCALE_BUDGET_S


def test_scale_dense_move_trail_pinned():
    # n = 10^4 at the densest admissible edge count.  The counts were
    # recorded from the full-rescan search the worklist replaced; a
    # change in them means the search commits different moves.
    g = random_subcubic(10_000, 14_999, seed=424242, require_non_cubic=True)
    start = time.perf_counter()
    result = color_graph(g)
    outcome = verify(g, result.coloring)
    elapsed = time.perf_counter() - start
    runs = [comp.core_run for comp in result.components if comp.core_run is not None]
    kinds = collections.Counter(type(r.move).__name__ for run in runs for r in run.moves)
    assert outcome.ok
    assert sum(kinds.values()) == 1253
    assert kinds == {
        "SameSideExchange": 808,
        "Absorb": 291,
        "Flip": 119,
        "Deg3Exchange": 34,
        "PathSwap": 1,
    }
    assert elapsed < SCALE_BUDGET_S
