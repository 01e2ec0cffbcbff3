"""End-to-end (1,1,2,2)-packing coloring of subcubic graphs: ``color_graph``.

It works in the host graph's ids throughout: the peel is split by
component (``_split_by_component``), each component's core is colored
by ``color_core``, and the classes of every component are mapped to
host ids once and merged label-wise, which is safe because vertices in
different components are at infinite distance.
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
    only because ``perfbench/replay.py`` reads them as ``options.<name>``
    and passes the ``max_moves``, ``validate`` and ``restart_attempts``
    keywords of ``run_to_fixpoint`` and ``color_core``, which nothing
    reads.  ``exact_budget`` is the oracle's node budget (``spack exact
    --budget`` takes another) and ``fallback_max_n`` caps the size of a
    component sent to it; the other three are what the search always
    does.
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


def _attempt_seed(k: int) -> int | None:
    """The seed of ``initial_state`` at attempt k of ``color_core``: None for k = 1, else k - 1."""
    return None if k == 1 else k - 1


def color_core(
    g: Graph,
    w: list[int] | tuple[int, ...],
    *,
    max_moves: int | None = None,
    validate: bool = True,
    restart_attempts: int = _RESTART_ATTEMPTS,
) -> CoreRun:
    """Color a connected, non-3-regular graph of minimum degree 2.

    Runs the exchange search to a fixpoint and reads off the classes:
    the two sides become the radius-1 classes, the two parts of the
    outside square bipartition the radius-2 classes.  A run can end on
    an odd outside cycle with no strict-increase swap (StuckError); the
    search then restarts.  Attempt k starts from ``initial_state`` under
    ``_attempt_seed(k)``: the unseeded greedy state first, then seeds 1,
    2, ...; after ``_RESTART_ATTEMPTS`` (12) attempts the last
    StuckError escapes.  The restarts cover the rare starting states
    that are local optima of the potential.  The keywords are read by
    nothing (``ColorOptions``).
    """
    w = list(w)
    last_stuck: StuckError | None = None
    for attempt in range(1, _RESTART_ATTEMPTS + 1):
        start = initial_state(g, w, seed=_attempt_seed(attempt))
        try:
            fixed = run_to_fixpoint(g, w, start)
        except StuckError as stuck:
            last_stuck = stuck
            continue
        s, sq = fixed.state, fixed.square_bipartition
        coloring = _layout(g.n, (s.s1, s.s2, sq.h1, sq.h2))
        return CoreRun(coloring, tuple(w), start, s, sq, tuple(fixed.moves), attempts=attempt)
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
    """Each component's share of the whole graph's core and peel trace, in order.

    A vertex's degree drops only through peels in its own component, so
    a component's share of the trace, in order, is the trace of peeling
    that component alone, and its share of the core is its own core.
    """
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

    Peels the whole graph once, colors each component's core in turn,
    in component order, and reattaches the peel (``_reattach``);
    3-regular components, which peel nothing, need the oracle fallback
    enabled (CubicComponentError otherwise, also raised for
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
