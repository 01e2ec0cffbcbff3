"""End-to-end (1,1,2,2)-packing coloring of subcubic graphs.

Pipeline per connected component: 3-regular components are handed to the
exact oracle (when enabled); otherwise degree-<=1 vertices are peeled
off, the remaining core is split by the potential-increasing exchange
search, the outside of the split is 2-colored in the square graph, and
the peeled vertices are re-attached greedily into the radius-1 classes.
No other component reaches the oracle: when the exchange search stays
stuck through every restart, its StuckError surfaces.

``_layout`` builds every coloring here: the classes of
``SEQUENCE_1122`` in order, labelled by ``exact.class_labels`` as
``decide`` labels them, ``1_a``/``1_b`` (radius 1) and ``2_a``/``2_b``
(radius 2); classes may be empty.  It runs once per core run and once
per result.  Components are colored independently and merged
label-wise, which is safe because vertices in different components are
at infinite distance.

A component is colored as four plain vertex sets in its own ids.  When
the component is the whole graph, ``induced`` hands back the graph
itself and its ids are the host's, so neither the run's peel trace and
core vertices nor the classes are mapped again; likewise, when nothing
is peeled, the core is the component and its classes stand as they
are.  Peeled vertices rejoin the radius-1 sets in place by one rule,
``_reattach``, which ``extend_coloring`` applies to a finished coloring.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from .exact import DEFAULT_BUDGET, Status, class_labels, decide
from .exchange import (
    BipartitionState,
    MoveRecord,
    SquareBipartition,
    StuckError,
    initial_state,
    run_to_fixpoint,
)
from .graph import (
    Graph,
    GraphError,
    assert_subcubic,
    components,
    induced,
    is_cubic,
)
from .verify import ColorClass, InvalidInputColoringError, PackingColoring
from .weights import compute_weights

SEQUENCE_1122 = (1, 1, 2, 2)
CLASS_LABELS = class_labels(SEQUENCE_1122)
CLASS_RADII = SEQUENCE_1122


class CubicComponentError(GraphError):
    """A 3-regular component could not be colored.

    ``reason`` is one of ``fallback-disabled`` (oracle fallback not
    requested), ``oracle-unsat`` (the component genuinely admits no such
    coloring, e.g. the Petersen graph), or ``oracle-timeout`` (node
    budget or size cap exceeded).
    """

    def __init__(self, component: tuple[int, ...], reason: str):
        super().__init__(f"3-regular component {list(component)}: {reason}")
        self.component = component
        self.reason = reason


@dataclass(frozen=True)
class ColorOptions:
    """Knobs for ``color_graph``.

    ``fallback_exact`` lets 3-regular components go to the exact oracle;
    ``fallback_max_n`` caps the size of a 3-regular component sent to
    it; ``exact_budget`` caps its backtracking nodes.  ``max_moves``
    overrides the exchange-step budget, which defaults to
    (m + 1)(sum of weights + 1) commits per run on a core with m edges;
    every commit strictly increases the potential, so exceeding the
    default means the potential failed to increase.  Each commit's
    potential change is always checked against a count over the vertices
    it touched; ``validate`` adds the exchange search's O(n) checks: a
    from-scratch recount of the potential at the start and at every
    cheap-move fixpoint, and the fixpoint structure checks.
    ``restart_attempts`` bounds how many seeded greedy starts the
    exchange search may try when a run ends on an odd outside cycle
    that admits no strict-increase swap.
    """

    fallback_exact: bool = False
    exact_budget: int = DEFAULT_BUDGET
    fallback_max_n: int = 30
    max_moves: int | None = None
    validate: bool = True
    restart_attempts: int = 12


@dataclass(frozen=True)
class PeelStep:
    """One peeled vertex and its unique remaining neighbor (if any)."""

    vertex: int
    neighbor: int | None


@dataclass
class CoreRun:
    """Audit record of one exchange-search run on a min-degree-2 core."""

    coloring: PackingColoring
    weights: tuple[int, ...]
    initial: BipartitionState
    final: BipartitionState
    square: SquareBipartition
    moves: tuple[MoveRecord, ...]
    attempts: int = 1


@dataclass
class ComponentRun:
    """What happened to one connected component (vertices in host ids).

    ``core_run`` is expressed in the core's own dense id space;
    ``core_vertices[i]`` is the host id of core vertex ``i``.
    """

    vertices: tuple[int, ...]
    core_vertices: tuple[int, ...] = ()
    peel_trace: tuple[PeelStep, ...] = ()
    core_run: CoreRun | None = None
    used_exact: bool = False


@dataclass
class ColorResult:
    coloring: PackingColoring
    components: tuple[ComponentRun, ...] = field(default_factory=tuple)


def _layout(n: int, sets) -> PackingColoring:
    """The classes of CLASS_LABELS and CLASS_RADII, in order, on ``sets``."""
    return PackingColoring(
        n,
        tuple(ColorClass(label, r, frozenset(s)) for label, r, s in zip(CLASS_LABELS, CLASS_RADII, sets)),
    )


def peel(g: Graph) -> tuple[tuple[int, ...], tuple[PeelStep, ...]]:
    """Iteratively strip vertices of current degree <= 1, lowest id first.

    Returns the remaining core (ascending ids, possibly empty) and the
    removal trace; each step records the removed vertex's unique
    neighbor among the vertices still present, or None.
    """
    deg = list(map(len, g.adj))
    ready = [v for v, d in enumerate(deg) if d <= 1]  # ascending, so already a heap
    if not ready:
        return tuple(range(g.n)), ()
    removed = [False] * g.n
    trace: list[PeelStep] = []
    while ready:
        v = heapq.heappop(ready)
        if removed[v]:
            continue
        removed[v] = True
        neighbor = None
        for u in g.adj[v]:
            if not removed[u]:
                neighbor = u
                deg[u] -= 1
                if deg[u] <= 1:
                    heapq.heappush(ready, u)
        trace.append(PeelStep(v, neighbor))
    core = tuple(v for v in range(g.n) if not removed[v])
    return core, tuple(trace)


def _reattach(first: set[int], second: set[int], trace: tuple[PeelStep, ...]) -> None:
    """Replay a peel trace in reverse into two radius-1 classes, in place.

    Each re-attached vertex joins ``first`` unless its recorded neighbor
    already sits there, in which case it joins ``second``.
    """
    for step in reversed(trace):
        (second if step.neighbor in first else first).add(step.vertex)


def extend_coloring(
    coloring: PackingColoring, trace: tuple[PeelStep, ...]
) -> PackingColoring:
    """Replay a peel trace in reverse, growing the radius-1 classes.

    The first two radius-1 classes grow by ``_reattach``'s rule.
    Re-attachment adds leaves only, so distances between already-colored
    vertices are unchanged and every class stays valid.
    """
    ones = [i for i, c in enumerate(coloring.classes) if c.radius == 1]
    if len(ones) < 2:
        raise InvalidInputColoringError("need two radius-1 classes to extend")
    classes = list(coloring.classes)
    first, second = (set(classes[i].vertices) for i in ones[:2])
    _reattach(first, second, trace)
    for i, grown in zip(ones, (first, second)):
        classes[i] = replace(classes[i], vertices=frozenset(grown))
    return PackingColoring(coloring.n, tuple(classes))


def color_core(
    g: Graph,
    w: list[int] | tuple[int, ...],
    *,
    max_moves: int | None = None,
    validate: bool = True,
    restart_attempts: int = 12,
) -> CoreRun:
    """Color a connected, non-3-regular graph of minimum degree 2.

    Runs the exchange search to a fixpoint and reads off the classes:
    the two sides become the radius-1 classes, the two parts of the
    outside square bipartition the radius-2 classes.  A run can end on
    an odd outside cycle with no strict-increase swap; the search then
    restarts from a seeded greedy state (deterministic seeds 1, 2, ...),
    and only after exhausting the attempts does StuckError escape.
    """
    w = list(w)
    last_stuck: StuckError | None = None
    for attempt in range(max(1, restart_attempts)):
        start = initial_state(g, w, seed=None if attempt == 0 else attempt)
        try:
            fixed = run_to_fixpoint(g, w, start, max_moves=max_moves, validate=validate)
        except StuckError as stuck:
            last_stuck = stuck
            continue
        s, sq = fixed.state, fixed.square_bipartition
        coloring = _layout(g.n, (s.s1, s.s2, sq.h1, sq.h2))
        return CoreRun(coloring, tuple(w), start, s, sq, tuple(fixed.moves), attempts=attempt + 1)
    raise last_stuck


def _oracle_component(g: Graph, options: ColorOptions, host: tuple[int, ...]) -> PackingColoring:
    """Exact-oracle attempt on a whole component.

    ``decide`` labels the classes of SEQUENCE_1122 in order with
    ``class_labels``, which defines CLASS_LABELS, so its witness is
    returned as it is.
    """
    if g.n > options.fallback_max_n:
        raise CubicComponentError(host, "oracle-timeout")
    outcome = decide(g, SEQUENCE_1122, budget=options.exact_budget)
    if outcome.status is Status.SAT:
        return outcome.coloring
    if outcome.status is Status.UNSAT:
        raise CubicComponentError(host, "oracle-unsat")
    raise CubicComponentError(host, "oracle-timeout")


def _color_component(
    g: Graph, options: ColorOptions, host: tuple[int, ...]
) -> tuple[list, ComponentRun]:
    """Color one connected component given in its own dense id space.

    Returns the vertex sets of the classes of CLASS_LABELS, in order and
    in the component's ids, and the run in host ids.  A 3-regular
    component goes to the exact oracle when ``fallback_exact`` allows
    it; every other component goes to the exchange search, whose
    StuckError (every restart exhausted) surfaces to the caller.
    """
    run = ComponentRun(vertices=host)
    if is_cubic(g):
        if not options.fallback_exact:
            raise CubicComponentError(host, "fallback-disabled")
        run.used_exact = True
        return [c.vertices for c in _oracle_component(g, options, host).classes], run

    core_vertices, trace = peel(g)
    if host[-1] == g.n - 1:  # ascending ids, so host is 0 .. n-1: already host ids
        run.core_vertices, run.peel_trace = core_vertices, trace
    else:
        run.core_vertices = tuple(host[v] for v in core_vertices)
        run.peel_trace = tuple(PeelStep(host[s.vertex], None if s.neighbor is None else host[s.neighbor]) for s in trace)
    if not core_vertices:  # a tree peels to nothing
        sets = [set() for _ in CLASS_LABELS]
    else:
        core = induced(g, core_vertices).graph
        w = compute_weights(core)
        core_run = color_core(
            core,
            w,
            max_moves=options.max_moves,
            validate=options.validate,
            restart_attempts=options.restart_attempts,
        )
        run.core_run = core_run
        classes = core_run.coloring.classes
        if core is g:  # nothing was peeled, so the core's classes stand as they are
            return [c.vertices for c in classes], run
        sets = [set(map(core_vertices.__getitem__, c.vertices)) for c in classes]
    _reattach(sets[0], sets[1], trace)
    return sets, run


def color_graph(g: Graph, options: ColorOptions | None = None) -> ColorResult:
    """Produce a (1,1,2,2)-packing coloring of a subcubic graph.

    Works component by component; 3-regular components need the oracle
    fallback enabled (CubicComponentError otherwise, also raised for
    oracle-refuting components such as the Petersen graph).  The oracle
    sees no other component: a StuckError from the exchange search
    propagates.  The result always carries the four classes 1_a, 1_b,
    2_a, 2_b in this order.
    """
    options = options or ColorOptions()
    assert_subcubic(g)
    merged = [set() for _ in CLASS_LABELS]
    runs: list[ComponentRun] = []
    for comp in components(g):
        sub = induced(g, comp)
        sets, run = _color_component(sub.graph, options, sub.to_host)
        runs.append(run)
        if sub.graph is g:  # the only component, already in host ids
            merged = sets
            continue
        for target, local in zip(merged, sets):
            target.update(map(sub.to_host.__getitem__, local))
    return ColorResult(_layout(g.n, merged), tuple(runs))
