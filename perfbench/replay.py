"""Traced replays of ``color_graph`` and ``chi_rho`` for the per-layer split.

The library has no tracing of its own, so these functions drive the
same stages through each module's public functions and record a span
around every call.  They mirror ``spack.colorer.color_graph`` and
``spack.exact.chi_rho`` step for step; the benchmark compares each
replay with the library call on the same input and fails the run if
the colorings, move trails or verdicts differ.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from spack.colorer import (
    CLASS_LABELS,
    CLASS_RADII,
    SEQUENCE_1122,
    ColorOptions,
    ColorResult,
    ComponentRun,
    CoreRun,
    CubicComponentError,
    PeelStep,
    color_core,
    extend_coloring,
    peel,
)
from spack.exact import ChiRhoResult, Status, decide
from spack.exchange import StuckError, initial_state, run_to_fixpoint
from spack.graph import Graph, assert_subcubic, components, induced, is_cubic
from spack.verify import ColorClass, ColoringError, PackingColoring
from spack.weights import compute_weights


@dataclass
class Tracer:
    """Wall time per span name and totals per counter name, kept in memory."""

    spans: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    enabled: bool = True

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[name] += perf_counter() - start


class NullTracer:
    """Tracing off: spans cost one call returning a shared no-op context."""

    enabled = False
    _noop = nullcontext()

    def span(self, name: str):
        return self._noop


@dataclass
class CoreTrace:
    """A core graph and its run, kept for the separately timed square call."""

    graph: Graph
    run: CoreRun


def _sets_from_coloring(coloring: PackingColoring) -> list[set[int]]:
    """Classes of a (1,1,2,2) oracle coloring in 1_a, 1_b, 2_a, 2_b order."""
    ones = [c for c in coloring.classes if c.radius == 1]
    twos = [c for c in coloring.classes if c.radius == 2]
    if len(ones) != 2 or len(twos) != 2:
        raise ColoringError("expected exactly two radius-1 and two radius-2 classes")
    return [set(c.vertices) for c in ones + twos]


def traced_decide(g: Graph, seq, tr: Tracer, budget: int):
    with tr.span("exact.decide"):
        outcome = decide(g, seq, budget=budget)
    tr.counts["exact.nodes"] += outcome.nodes
    tr.counts[f"exact.{outcome.status.value}"] += 1
    return outcome


def _oracle_component(g: Graph, options: ColorOptions, host, tr: Tracer) -> list[set[int]]:
    tr.counts["colorer.oracle_components"] += 1
    if g.n > options.fallback_max_n:
        raise CubicComponentError(host, "oracle-timeout")
    outcome = traced_decide(g, SEQUENCE_1122, tr, options.exact_budget)
    if outcome.status is Status.SAT:
        return _sets_from_coloring(outcome.coloring)
    if outcome.status is Status.UNSAT:
        raise CubicComponentError(host, "oracle-unsat")
    raise CubicComponentError(host, "oracle-timeout")


def _first_attempt(core: Graph, w: list[int], options: ColorOptions, tr: Tracer) -> CoreRun:
    """``color_core``'s attempt 0, split into initial state and search."""
    with tr.span("exchange.initial_state"):
        start = initial_state(core, w)
    with tr.span("exchange.fixpoint"):
        fixed = run_to_fixpoint(core, w, start, max_moves=options.max_moves, validate=options.validate)
    s = fixed.state
    classes = (
        ColorClass("1_a", 1, s.s1),
        ColorClass("1_b", 1, s.s2),
        ColorClass("2_a", 2, fixed.square_bipartition.h1),
        ColorClass("2_b", 2, fixed.square_bipartition.h2),
    )
    return CoreRun(
        PackingColoring(core.n, classes), tuple(w), start, s,
        fixed.square_bipartition, tuple(fixed.moves), attempts=1,
    )


def _color_component(g: Graph, options: ColorOptions, host, tr: Tracer, cores: list[CoreTrace]):
    run = ComponentRun(vertices=host)
    if is_cubic(g):
        if not options.fallback_exact:
            raise CubicComponentError(host, "fallback-disabled")
        run.used_exact = True
        return _oracle_component(g, options, host, tr), run

    with tr.span("colorer.peel"):
        core_vertices, trace = peel(g)
    run.core_vertices = tuple(host[v] for v in core_vertices)
    run.peel_trace = tuple(
        PeelStep(host[s.vertex], None if s.neighbor is None else host[s.neighbor]) for s in trace
    )
    sets = [set() for _ in CLASS_LABELS]
    if core_vertices:
        with tr.span("graph.induce"):
            core = induced(g, core_vertices).graph
        with tr.span("weights.compute"):
            w = compute_weights(core)
        try:
            core_run = _first_attempt(core, w, options, tr)
        except StuckError:
            try:
                with tr.span("colorer.color_core"):
                    core_run = color_core(
                        core, w, max_moves=options.max_moves, validate=options.validate,
                        restart_attempts=options.restart_attempts,
                    )
            except StuckError:
                if g.n <= options.fallback_max_n:
                    run.used_exact = True
                    return _oracle_component(g, options, host, tr), run
                raise
        run.core_run = core_run
        cores.append(CoreTrace(core, core_run))
        for idx, c in enumerate(core_run.coloring.classes):
            sets[idx] = {core_vertices[v] for v in c.vertices}

    partial = PackingColoring(
        g.n,
        tuple(ColorClass(label, r, frozenset(s)) for label, r, s in zip(CLASS_LABELS, CLASS_RADII, sets)),
    )
    with tr.span("colorer.extend"):
        full = extend_coloring(partial, trace)
    return [set(c.vertices) for c in full.classes], run


def traced_color_graph(
    g: Graph, options: ColorOptions, tr: Tracer, cores: list[CoreTrace]
) -> ColorResult:
    """``color_graph`` stage by stage, with a span around every stage call.

    Each core colored by the exchange search is appended to ``cores``.
    """
    assert_subcubic(g)
    merged = [set() for _ in CLASS_LABELS]
    runs: list[ComponentRun] = []
    with tr.span("graph.components"):
        comps = components(g)
    for comp in comps:
        with tr.span("graph.induce"):
            sub = induced(g, comp)
        sets, run = _color_component(sub.graph, options, sub.to_host, tr, cores)
        for target, local in zip(merged, sets):
            target.update(sub.to_host[v] for v in local)
        runs.append(run)
    classes = tuple(
        ColorClass(label, r, frozenset(s)) for label, r, s in zip(CLASS_LABELS, CLASS_RADII, merged)
    )
    return ColorResult(PackingColoring(g.n, classes), tuple(runs))


def traced_chi_rho(g: Graph, k_max: int, tr: Tracer, budget: int) -> ChiRhoResult:
    """``chi_rho`` as its sequence of ``decide`` calls, each in a span."""
    total = 0
    for k in range(1, k_max + 1):
        outcome = traced_decide(g, tuple(range(1, k + 1)), tr, budget)
        total += outcome.nodes
        if outcome.status is Status.SAT:
            return ChiRhoResult(k, outcome.coloring, total, False)
        if outcome.status is Status.BUDGET:
            return ChiRhoResult(None, None, total, True)
    return ChiRhoResult(None, None, total, False)
