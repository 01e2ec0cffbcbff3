"""Independent replay audits of coloring runs.

Re-executes a recorded exchange run from its recorded side list alone,
under weights re-derived from the core (``weights.compute_weights``),
which must equal the recorded ones.  The replay goes through the
search's own checks, which reject malformed input themselves:
``exchange._state_from_sides`` takes the side list only when it holds an
int (not a bool) 0, 1 or 2 for each core vertex, and rebuilds its
neighbour counts from it, not from the record, so a forged count can
neither fail a sound run nor hide a fault; ``exchange.evaluate_move``
takes a move record only when it is a move that names core vertices
(ints in 0..n-1), a side of 1 or 2, for a Deg3Exchange a hub next to
its entering vertex and for a PathSwap a cross that is None or an end of
its path, and validates it before it is committed in place.  The run's
``attempts`` must be an int (not a bool) in 1 ..
``colorer._RESTART_ATTEMPTS``, and the recorded side list must be the
greedy start of that attempt, ``exchange._start_sides`` under the seed
``colorer.color_core`` gives it (None for attempt 1, k - 1 for attempt
k).  A recorded field of the wrong type, which the replay cannot read,
raises AuditError too.  The potential is recounted from scratch at the
start and at the end of the replay; in between, every move goes
through the search's own checked commit (``exchange.checked_commit``),
whose touched check always runs: the potential change must equal a count
over the vertices whose side it changed (``weights.touched_potential``),
which equals a recount by induction from the first anchor.  The replayed
final sides and potential must equal the recorded ones.  The audit then
re-checks the fixpoint structure on the replayed state and that the
square parts partition its outside, and verifies the ``colorer._layout``
of the final sides and those parts on the core, without the search's
outside square, so a fault in ``exchange.square_outside`` cannot pass
both.  The run's coloring must equal that layout, with int ids, and its
classes, in host ids, lie within the result's classes at the same
positions.  The result's coloring must be the layout of its own vertex
sets on the graph's vertices, with int ids, and verify; an error
``verify`` raises on it becomes an AuditError.  Used by the test suite
to certify that every committed move strictly increased the potential
and that every terminal state satisfies the structural invariants.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .colorer import _RESTART_ATTEMPTS, ColorResult, CoreRun, _layout
from .exchange import (
    ExchangeError,
    InvalidStateError,
    _start_sides,
    _state_from_sides,
    check_fixpoint_invariants,
    checked_commit,
    evaluate_move,
)
from .graph import Graph, GraphError, induced
from .verify import PackingColoring, verify
from .weights import compute_weights, inside_potential


class AuditError(ValueError):
    pass


def _int_ids(coloring: PackingColoring) -> bool:
    """True when every vertex id in ``coloring`` is an int (not a bool, which equals 0 or 1)."""
    return {*map(type, chain.from_iterable(c.vertices for c in coloring.classes))} <= {int}


@dataclass
class AuditReport:
    runs: int = 0
    moves: int = 0

    def merge(self, other: "AuditReport") -> None:
        self.runs += other.runs
        self.moves += other.moves


def audit_core_run(core: Graph, run: CoreRun) -> AuditReport:
    """Replay one core run; raises AuditError on any discrepancy.

    A field that the replay cannot read, because it is not of its
    recorded type, is one: the TypeError or AttributeError it raises
    becomes an AuditError here, at the run's boundary.
    """
    try:
        w = compute_weights(core)
    except GraphError as err:
        raise AuditError(f"core: {err}") from err
    try:
        attempts = run.attempts
        if type(attempts) is not int or not 1 <= attempts <= _RESTART_ATTEMPTS:
            raise AuditError(f"core run: attempts {attempts!r} is not an int in 1..{_RESTART_ATTEMPTS}")
        if tuple(w) != tuple(run.weights):
            raise AuditError("recorded weights differ from the core's own weights")
        try:
            state = _state_from_sides(core, w, list(run.initial.side))
        except InvalidStateError as err:
            raise AuditError(f"initial state: {err}") from err
        if state.potential != run.initial.potential:
            raise AuditError(f"initial potential {run.initial.potential} != recount {state.potential}")
        try:
            start = _start_sides(core, w, None if attempts == 1 else attempts - 1)
        except ExchangeError as err:
            raise AuditError(f"core run: {err}") from err
        if state.side != start:
            raise AuditError(f"core run: initial state is not the start of attempt {attempts}")
        for i, record in enumerate(run.moves):
            if record.before != state.potential:
                raise AuditError(f"move {i}: recorded before {record.before} != {state.potential}")
            if not record.after > record.before:
                raise AuditError(f"move {i}: potential did not strictly increase: {record}")
            try:
                checked_commit(core, w, state, evaluate_move(core, w, state, record.move))
            except ExchangeError as err:
                raise AuditError(f"move {i}: {err}") from err
            if state.potential != record.after:
                raise AuditError(f"move {i}: recorded after {record.after} != {state.potential}")
        scratch = inside_potential(core, w, state.side)
        if scratch != state.potential:
            raise AuditError(f"final potential {state.potential} != recount {scratch}")
        if state.side != run.final.side or state.potential != run.final.potential:
            raise AuditError("replayed final state differs from recorded final state")

        problems = check_fixpoint_invariants(core, w, state)
        if problems:
            raise AuditError("fixpoint structure violated: " + "; ".join(problems))

        h1, h2 = run.square.h1, run.square.h2
        if h1 & h2 or (h1 | h2) != state.outside or not {*map(type, h1 | h2)} <= {int}:
            raise AuditError("square bipartition does not partition the outside")
        layout = _layout(core.n, (state.s1, state.s2, h1, h2))
        outcome = verify(core, layout)
        if outcome.violations:
            a, b = outcome.violations[0].pair
            raise AuditError(f"outside vertices {a} and {b} share a radius-2 part but are within distance 2")
        if run.coloring != layout or not _int_ids(run.coloring):
            raise AuditError("run coloring is not the layout of its final sides and square parts")
        return AuditReport(runs=1, moves=len(run.moves))
    except (TypeError, AttributeError) as err:
        raise AuditError(f"core run: a recorded field has the wrong type: {err}") from err


def audit_color_result(g: Graph, result: ColorResult) -> AuditReport:
    """Audit every core run inside a coloring result and verify its coloring.

    The result's coloring must be the ``colorer._layout`` of its own
    vertex sets: ``g.n`` vertices and the classes of CLASS_LABELS and
    CLASS_RADII, in that order, holding int (not bool) ids.  Each core
    is re-derived from ``g`` and its recorded vertices alone; each run's
    classes, in host ids, must lie in the result's same-position classes.
    Raises AuditError on any discrepancy, a forged core's vertices
    included, and on a coloring that ``verify`` rejects or cannot read.
    """
    report = AuditReport()
    try:
        coloring = result.coloring
        layout = _layout(g.n, [c.vertices for c in coloring.classes])
    except (TypeError, AttributeError) as err:
        raise AuditError(f"result coloring: {err}") from err
    if coloring != layout or not _int_ids(coloring):
        raise AuditError(f"result coloring is not the (1,1,2,2) layout on {g.n} vertices with int ids")
    for comp in result.components:
        run = comp.core_run
        if run is None:
            continue
        if type(comp.core_vertices) is not tuple or not {*map(type, comp.core_vertices)} <= {int}:
            raise AuditError(f"core: {comp.core_vertices!r} is not a tuple or holds an id that is not an int")
        try:
            sub = induced(g, comp.core_vertices)
        except GraphError as err:
            raise AuditError(f"core: {err}") from err
        report.merge(audit_core_run(sub.graph, run))
        # the replay made run.coloring a layout, of as many classes as the result
        for c, held in zip(run.coloring.classes, coloring.classes):
            if not held.vertices.issuperset(map(sub.to_host.__getitem__, c.vertices)):
                raise AuditError(f"core class {c.label} at {comp.vertices[0]} is not in the result")
    try:
        outcome = verify(g, coloring)
    except GraphError as err:  # an id outside 0..n-1
        raise AuditError(f"result coloring: {err}") from err
    if not outcome.ok:
        raise AuditError(
            f"coloring fails verification: {len(outcome.violations)} violations, "
            f"{len(outcome.missing)} unassigned, {len(outcome.multiply_assigned)} duplicated"
        )
    return report
