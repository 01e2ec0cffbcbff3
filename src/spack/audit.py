"""Independent replay audits of coloring runs.

Re-executes a recorded exchange run from its recorded side list alone,
under weights re-derived from the core (``weights.compute_weights``),
which must equal the recorded ones.  The list must hold 0, 1 or 2 for
each core vertex; its neighbour counts are rebuilt from it, not read
from the record, so a forged count can neither fail a sound run nor hide
a fault.  Each move record must be a move that names core vertices (ints
in 0..n-1), a side of 1 or 2 and, for a Deg3Exchange, a hub next to its
entering vertex; it is then validated and committed in place.  The
potential is recounted from scratch at the start and at the end of the
replay; in between, every move goes through the search's own checked
commit (``exchange.checked_commit``), whose touched check always runs:
the potential change must equal a count over the vertices whose side it
changed (``weights.touched_potential``), which equals a recount by
induction from the first anchor.  The audit then re-checks the fixpoint
structure on the replayed state and that the square parts partition its
outside, and verifies the ``colorer._layout`` of the final sides and
those parts on the core, without the search's outside square, so a fault
in ``exchange.square_outside`` cannot pass both.  The run's coloring
must equal that layout, and its classes, in host ids, lie within the
result's classes at the same positions.  Used by the test suite to
certify that every committed move strictly increased the potential and
that every terminal state satisfies the structural invariants.
"""
from __future__ import annotations

from dataclasses import dataclass

from .colorer import ColorResult, CoreRun, _layout
from .exchange import (
    Absorb,
    BipartitionState,
    CycleSwap,
    Deg3Exchange,
    ExchangeError,
    Flip,
    InvalidMoveError,
    InvalidStateError,
    PathSwap,
    SameSideExchange,
    _hub_side,
    _state_from_sides,
    check_fixpoint_invariants,
    checked_commit,
    evaluate_move,
)
from .graph import Graph, GraphError, induced
from .verify import verify
from .weights import compute_weights, inside_potential


class AuditError(ValueError):
    pass


# The vertex ids and the side that each kind of move names.  The two
# exchanges take the side of their leaving vertex and name none, so
# they pass side 1.
_NAMED = {
    Absorb: lambda m: ((m.vertex,), m.side),
    Flip: lambda m: ((m.vertex, *m.displaced), m.side),
    Deg3Exchange: lambda m: ((m.hub, m.entering, m.leaving), 1),
    SameSideExchange: lambda m: ((m.entering, m.leaving), 1),
    CycleSwap: lambda m: ((*m.cycle, *m.displaced), m.side),
    PathSwap: lambda m: ((*m.path, *m.displaced, *(() if m.cross is None else (m.cross,))), m.side),
}


def _check_record(core: Graph, w: list[int], state: BipartitionState, move: object) -> None:
    """Raise InvalidMoveError unless ``move`` is well formed for ``state``.

    It must be a move whose vertex ids are ints (not bools) in
    0..n-1 and whose side is 1 or 2, and a Deg3Exchange's hub must be a
    hub next to its entering vertex, as the search builds it; a record
    could otherwise name a vertex through a negative index or carry a
    hub label that its plan never reads.
    """
    named = _NAMED.get(type(move))
    if named is None:
        raise InvalidMoveError(f"{move!r} is not a move")
    try:
        ids, side = named(move)
    except TypeError as err:
        raise InvalidMoveError(f"{move!r}: {err}") from None
    if type(side) is not int or side not in (1, 2):
        raise InvalidMoveError(f"side {side!r} is not 1 or 2")
    for v in ids:
        if type(v) is not int or not 0 <= v < core.n:
            raise InvalidMoveError(f"{v!r} is not a core vertex")
    if type(move) is Deg3Exchange and not (
        move.hub in core.adj[move.entering] and _hub_side(core, w, state, move.hub)
    ):
        raise InvalidMoveError(f"{move.hub} is not a hub next to {move.entering}")


@dataclass
class AuditReport:
    runs: int = 0
    moves: int = 0

    def merge(self, other: "AuditReport") -> None:
        self.runs += other.runs
        self.moves += other.moves


def audit_core_run(core: Graph, run: CoreRun) -> AuditReport:
    """Replay one core run; raises AuditError on any discrepancy."""
    try:
        w = compute_weights(core)
    except GraphError as err:
        raise AuditError(f"core: {err}") from err
    if tuple(w) != tuple(run.weights):
        raise AuditError("recorded weights differ from the core's own weights")
    side = list(run.initial.side)
    if len(side) != core.n or not {*side} <= {0, 1, 2}:
        raise AuditError(f"initial state: not a side list of length {core.n} over 0, 1 and 2")
    try:
        state = _state_from_sides(core, w, side)
    except InvalidStateError as err:
        raise AuditError(f"initial state: {err}") from err
    if state.potential != run.initial.potential:
        raise AuditError(f"initial potential {run.initial.potential} != recount {state.potential}")
    for i, record in enumerate(run.moves):
        if record.before != state.potential:
            raise AuditError(f"move {i}: recorded before {record.before} != {state.potential}")
        if not record.after > record.before:
            raise AuditError(f"move {i}: potential did not strictly increase: {record}")
        try:
            _check_record(core, w, state, record.move)
            checked_commit(core, w, state, evaluate_move(core, w, state, record.move))
        except ExchangeError as err:
            raise AuditError(f"move {i}: {err}") from err
        if state.potential != record.after:
            raise AuditError(f"move {i}: recorded after {record.after} != {state.potential}")
    scratch = inside_potential(core, w, state.side)
    if scratch != state.potential:
        raise AuditError(f"final potential {state.potential} != recount {scratch}")
    if state.side != run.final.side:
        raise AuditError("replayed final state differs from recorded final state")

    problems = check_fixpoint_invariants(core, w, state)
    if problems:
        raise AuditError("fixpoint structure violated: " + "; ".join(problems))

    h1, h2 = run.square.h1, run.square.h2
    if h1 & h2 or (h1 | h2) != state.outside:
        raise AuditError("square bipartition does not partition the outside")
    layout = _layout(core.n, (state.s1, state.s2, h1, h2))
    outcome = verify(core, layout)
    if outcome.violations:
        a, b = outcome.violations[0].pair
        raise AuditError(f"outside vertices {a} and {b} share a radius-2 part but are within distance 2")
    if run.coloring != layout:
        raise AuditError("run coloring is not the layout of its final sides and square parts")
    return AuditReport(runs=1, moves=len(run.moves))


def audit_color_result(g: Graph, result: ColorResult) -> AuditReport:
    """Audit every core run inside a coloring result and verify its coloring.

    Each core is re-derived from ``g`` and its recorded vertices alone;
    each run's classes, in host ids, must lie in the result's same-position classes.
    Raises AuditError on any discrepancy, a forged core's vertices included.
    """
    report = AuditReport()
    classes = result.coloring.classes
    for comp in result.components:
        run = comp.core_run
        if run is None:
            continue
        if any(type(v) is not int for v in comp.core_vertices):
            raise AuditError(f"core: {comp.core_vertices!r} holds an id that is not an int")
        try:
            sub = induced(g, comp.core_vertices)
        except GraphError as err:
            raise AuditError(f"core: {err}") from err
        report.merge(audit_core_run(sub.graph, run))
        for i, c in enumerate(run.coloring.classes):
            held = classes[i].vertices if i < len(classes) else frozenset()
            if not held.issuperset(map(sub.to_host.__getitem__, c.vertices)):
                raise AuditError(f"core class {c.label} at {comp.vertices[0]} is not in the result")
    outcome = verify(g, result.coloring)
    if not outcome.ok:
        raise AuditError(
            f"coloring fails verification: {len(outcome.violations)} violations, "
            f"{len(outcome.missing)} unassigned, {len(outcome.multiply_assigned)} duplicated"
        )
    return report
