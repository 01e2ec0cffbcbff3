"""Independent replay audits of coloring runs.

``audit_core_run`` replays a recorded exchange run from its recorded
side list alone, under weights re-derived from the core, through the
search's own checks: ``exchange._state_from_sides`` on the side list,
``exchange.evaluate_move`` on each move record and
``exchange.checked_commit`` on each commit.  The start must be the one
``exchange._start_sides`` builds for the recorded attempt
(``colorer._attempt_seed``), the potential is recounted from scratch at
both ends, and the final state must be the recorded one and pass the
fixpoint checks.

The replay thereby proves that the sides and the outside partition the
core (the start holds 0, 1 or 2 per vertex, and so does every commit)
and that both sides are independent (every commit passed
``exchange._evaluate_plan``).  That proof shares ``_evaluate_plan`` with
the search, so the final ``verify`` of the result on the graph is the
one independent check of the radius-1 classes.  Only the square parts
are left: they must partition the outside, and each must pass
``verify``'s own per-class steps (``verify._clean``, then
``verify._close_pairs``) as a radius-2 class on the core, so a fault in
``exchange.square_outside`` cannot pass both.  The run's coloring must
be the ``colorer._layout`` of those sides and parts, with int ids.
``audit_color_result`` ties the runs to the result and verifies it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .colorer import _RESTART_ATTEMPTS, CLASS_RADII, ColorResult, CoreRun, _attempt_seed, _layout
from .exchange import (
    OUTSIDE,
    ExchangeError,
    InvalidStateError,
    _start_sides,
    _state_from_sides,
    check_fixpoint_invariants,
    checked_commit,
    evaluate_move,
)
from .graph import Graph, GraphError, induced
from .verify import PackingColoring, _clean, _close_pairs, verify
from .weights import compute_weights, inside_potential


class AuditError(ValueError):
    pass


def _int_ids(coloring: PackingColoring) -> bool:
    """True when every vertex id in ``coloring`` is an int (not a bool, which equals 0 or 1)."""
    return {*map(type, chain.from_iterable(c.vertices for c in coloring.classes))} <= {int}


def _holds_side(members, side: list[int], s: int) -> bool:
    """True when the set ``members`` of int ids is exactly the vertices v with ``side[v] == s``.

    The range check comes before any lookup: a negative id would index
    ``side`` from its end.
    """
    if len(members) != side.count(s):
        return False
    if members and not 0 <= min(members) <= max(members) < len(side):
        return False
    return list(map(side.__getitem__, members)).count(s) == len(members)


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
            start = _start_sides(core, w, _attempt_seed(attempts))
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
        if h1 & h2 or not {*map(type, h1 | h2)} <= {int} or not _holds_side(h1 | h2, state.side, OUTSIDE):
            raise AuditError("square bipartition does not partition the outside")
        # the replay kept both sides independent, so only the square parts can clash
        for r, part in zip(CLASS_RADII[2:], (h1, h2)):
            close = not _clean(core.adj, part, r) and _close_pairs(core, part, r)
            if close:
                a, b = min(close)
                raise AuditError(f"outside vertices {a} and {b} share a radius-2 part but are within distance 2")
        coloring = run.coloring
        sets = [c.vertices for c in coloring.classes]
        if (
            coloring != _layout(core.n, sets)
            or not _int_ids(coloring)
            or sets[2:] != [h1, h2]
            or not _holds_side(sets[0], state.side, 1)
            or not _holds_side(sets[1], state.side, 2)
        ):
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
