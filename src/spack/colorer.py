"""End-to-end (1,1,2,2)-packing coloring of subcubic graphs.

``color_graph`` works in the host graph's ids throughout.  It peels the
whole graph once: vertices of current degree <= 1 are stripped, lowest
id first, down to the min-degree-2 core.  A vertex's degree drops only
through peels in its own component, so each component's share of the
trace, in order, is the trace of peeling that component alone, and its
share of the core is its own core.  A 3-regular component peels nothing
and goes to the exact oracle (when enabled).  Every other component's
core, when not empty, is induced from the host graph and split by the
potential-increasing exchange search, and the outside of the split is
2-colored in the square graph.  No other component reaches the oracle:
when the exchange search stays stuck through every restart, its
StuckError surfaces.

Each core run keeps its classes in the core's own dense ids; they, and
each oracle witness, are mapped to host ids once and merged label-wise,
which is safe because vertices in different components are at infinite
distance.  Last, ``_reattach`` replays the whole trace in reverse into
the radius-1 classes, the rule that ``extend_coloring`` applies to a
finished coloring.

``_layout`` builds every coloring here: the classes of
``SEQUENCE_1122`` in order, labelled by ``exact.class_labels`` as
``decide`` labels them, ``1_a``/``1_b`` (radius 1) and ``2_a``/``2_b``
(radius 2); classes may be empty.  It runs once per core run and once
per result.
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
)
from .verify import ColorClass, InvalidInputColoringError, PackingColoring
from .weights import compute_weights

SEQUENCE_1122 = (1, 1, 2, 2)
CLASS_LABELS = class_labels(SEQUENCE_1122)
CLASS_RADII = SEQUENCE_1122
_RESTART_ATTEMPTS = 12


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
    """The one setting of ``color_graph``, and five constants.

    ``fallback_exact`` lets 3-regular components go to the exact oracle.

    The constants are fields that callers cannot set (``init=False``),
    only because the benchmark's replay reads them as ``options.<name>``.
    ``exact_budget`` is the oracle's default node budget
    (``exact.DEFAULT_BUDGET``), and ``fallback_max_n`` caps the size of
    a 3-regular component sent to the oracle; ``spack exact --budget``
    runs the oracle on such a component with any other budget.
    ``max_moves`` is None: the exchange-step budget is always
    (m + 1)(sum of weights + 1) commits per run on a core with m edges
    (``run_to_fixpoint``).  ``validate`` is True: the exchange search
    always recounts the potential and checks the fixpoint structure.
    ``restart_attempts`` is the number of starts ``color_core`` always
    allows.
    """

    fallback_exact: bool = False
    exact_budget: int = field(default=DEFAULT_BUDGET, init=False)
    max_moves: int | None = field(default=None, init=False)
    validate: bool = field(default=True, init=False)
    restart_attempts: int = field(default=_RESTART_ATTEMPTS, init=False)
    fallback_max_n: int = field(default=30, init=False)


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
    and only after 12 starts in all does the last StuckError escape.

    Nothing reads ``max_moves``, ``validate`` or ``restart_attempts``:
    the search always takes the potential's bound as its step budget
    (``run_to_fixpoint``), always validates and always allows 12 starts.
    The three keywords are kept only because the benchmark's replay
    passes them (as None, True and 12).
    """
    w = list(w)
    last_stuck: StuckError | None = None
    for attempt in range(_RESTART_ATTEMPTS):
        start = initial_state(g, w, seed=None if attempt == 0 else attempt)
        try:
            fixed = run_to_fixpoint(g, w, start)
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


def _split_by_component(
    n: int, comps: list[tuple[int, ...]], core: tuple[int, ...], trace: tuple[PeelStep, ...]
) -> list[tuple[tuple[int, ...], tuple[PeelStep, ...]]]:
    """Each component's share of the whole graph's core and peel trace, in order."""
    label = [0] * n
    for i, comp in enumerate(comps):
        for v in comp:
            label[v] = i
    shares: list[tuple[list[int], list[PeelStep]]] = [([], []) for _ in comps]
    for v in core:
        shares[label[v]][0].append(v)
    for step in trace:
        shares[label[step.vertex]][1].append(step)
    return [(tuple(c), tuple(t)) for c, t in shares]


def color_graph(g: Graph, options: ColorOptions | None = None) -> ColorResult:
    """Produce a (1,1,2,2)-packing coloring of a subcubic graph.

    Peels the whole graph once and colors each component's core in
    turn, in component order; 3-regular components need the oracle
    fallback enabled (CubicComponentError otherwise, also raised for
    oracle-refuting components such as the Petersen graph).  The oracle
    sees no other component: a StuckError from the exchange search
    propagates.  The result always carries the four classes 1_a, 1_b,
    2_a, 2_b in this order.
    """
    options = options or ColorOptions()
    assert_subcubic(g)
    comps = components(g)
    core, trace = peel(g)
    sets = [set() for _ in CLASS_LABELS]
    runs: list[ComponentRun] = []
    for host, (comp_core, comp_trace) in zip(comps, _split_by_component(g.n, comps, core, trace)):
        run = ComponentRun(vertices=host)
        runs.append(run)
        if not comp_trace and all(len(g.adj[v]) == 3 for v in host):
            if not options.fallback_exact:
                raise CubicComponentError(host, "fallback-disabled")
            run.used_exact = True
            sub = induced(g, host)
            classes = _oracle_component(sub.graph, options, host).classes
        else:
            run.core_vertices, run.peel_trace = comp_core, comp_trace
            if not comp_core:  # a tree peels to nothing
                continue
            sub = induced(g, comp_core)
            run.core_run = color_core(sub.graph, compute_weights(sub.graph))
            classes = run.core_run.coloring.classes
        for target, c in zip(sets, classes):
            # sub is g only for a lone component that peels nothing: host ids already
            target.update(c.vertices if sub.graph is g else map(sub.to_host.__getitem__, c.vertices))
    _reattach(sets[0], sets[1], trace)
    return ColorResult(_layout(g.n, sets), tuple(runs))
