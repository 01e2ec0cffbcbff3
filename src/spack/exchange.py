"""Potential-increasing exchange search for a (1,1,2,2)-friendly bipartition.

The state splits the vertices of a connected, non-3-regular graph of
minimum degree 2 into two independent sides, s1 and s2, and an outside
remainder.  Every committed move strictly raises the potential (inside
edges, then inside weight), so the search ends (``run_to_fixpoint``)
where the square of the graph on the outside is bipartite.  Each rule is
stated where its code makes it true: the cheap moves at
``_outside_sides``, ``_hub_side`` and ``_Worklist`` (with the hub lemma)
and ``_Worklist.touch``; malformed moves at ``_move_plan``; side lists
at ``_state_from_sides``; the checked commit at ``checked_commit`` and
``run_to_fixpoint``; the square stage at ``_swap_candidates_for_cycle``.
``evaluate_move`` and ``checked_commit`` validate and commit every move,
the search's own and those the audit replays.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

from .graph import Bipartition, Graph, bipartition_or_odd_cycle, min_degree
from .weights import Potential, inside_potential, touched_potential


class ExchangeError(ValueError):
    pass


class MinDegreeError(ExchangeError):
    """The state machinery needs minimum degree 2; peel pendants first."""


class InvalidStateError(ExchangeError):
    pass


class InvalidMoveError(ExchangeError):
    pass


class MoveBudgetExceededError(ExchangeError):
    """The step budget ran out; this signals an implementation bug."""


class StuckError(ExchangeError):
    """The outside square is not bipartite and no swap on its odd cycle validates.

    ``cycle`` is the one cycle tried, the square 2-coloring's
    certificate, in the searched graph's ids; ``color_core`` restarts
    from a new start.
    """

    def __init__(self, message: str, state: "BipartitionState", cycle: tuple[int, ...]):
        super().__init__(message)
        self.state = state
        self.cycle = cycle


OUTSIDE = 0


@dataclass
class BipartitionState:
    """Mutable partition of vertices into s1 / s2 / outside.

    ``nbr[s][v]`` caches how many neighbors of v currently sit on side s
    (0 = outside, 1 or 2); ``checked_commit`` checks ``potential``.
    """

    side: list[int]  # 0 = outside, 1, 2
    nbr: list[list[int]]  # nbr[s][v], indexed like side
    potential: Potential

    def _members(self, s: int) -> frozenset[int]:
        return frozenset(itertools.compress(range(len(self.side)), map(s.__eq__, self.side)))

    @property
    def s1(self) -> frozenset[int]:
        return self._members(1)

    @property
    def s2(self) -> frozenset[int]:
        return self._members(2)

    @property
    def outside(self) -> frozenset[int]:
        return self._members(OUTSIDE)

    def s_degree(self, v: int) -> int:
        """Number of neighbors of v inside s1 | s2."""
        return self.nbr[1][v] + self.nbr[2][v]

    def copy(self) -> "BipartitionState":
        return BipartitionState(list(self.side), [list(c) for c in self.nbr], self.potential)


@dataclass(frozen=True)
class Absorb:
    vertex: int
    side: int


@dataclass(frozen=True)
class Flip:
    """Vertex enters ``side``; its neighbors there are displaced across."""

    vertex: int
    side: int
    displaced: tuple[int, ...]


@dataclass(frozen=True)
class Deg3Exchange:
    """Swap ``leaving`` (in S) for ``entering`` (outside) near an
    isolated hub whose three neighbors are all outside."""

    hub: int
    entering: int
    leaving: int


@dataclass(frozen=True)
class SameSideExchange:
    """An outside vertex with three S-neighbors replaces its lone
    opposite-side neighbor."""

    entering: int
    leaving: int


@dataclass(frozen=True)
class CycleSwap:
    """Swap an odd outside-square cycle for its common S-neighbors."""

    cycle: tuple[int, ...]
    displaced: tuple[int, ...]
    side: int


@dataclass(frozen=True)
class PathSwap:
    """Swap a cycle segment onto one side for the S-neighbors it displaces.

    When ``cross`` names an endpoint of the path, that endpoint enters
    the opposite side instead; this resolves cycles closed by a genuine
    edge between the segment endpoints, which a single-side entry could
    never absorb."""

    path: tuple[int, ...]
    displaced: tuple[int, ...]
    side: int
    cross: int | None = None


Move = Union[Absorb, Flip, Deg3Exchange, SameSideExchange, CycleSwap, PathSwap]


class Candidate(NamedTuple):
    """A validated move: its (vertex, new side) plan and the potential it reaches."""

    move: Move
    plan: list[tuple[int, int]]
    potential: Potential


@dataclass(frozen=True)
class MoveRecord:
    move: Move
    before: Potential
    after: Potential


@dataclass(frozen=True)
class SquareBipartition:
    """2-coloring of the outside vertices in the square graph."""

    h1: frozenset[int]
    h2: frozenset[int]


@dataclass
class FixpointResult:
    state: BipartitionState
    square_bipartition: SquareBipartition
    moves: list[MoveRecord]


def _state_from_sides(g: Graph, w: list[int], side: list[int]) -> BipartitionState:
    """The state on ``side``, its neighbor counts and potential counted from scratch.

    Raises InvalidStateError unless ``side`` holds an int (not a bool)
    0, 1 or 2 for each vertex of ``g`` and both sides are independent.
    Everything is counted from ``side`` alone, so the search's start and
    a side list the audit replays from a record are checked alike, and a
    forged count in a record can neither fail a sound run nor hide a
    fault.
    """
    if len(side) != g.n or not {*map(type, side)} <= {int} or not {*side} <= {0, 1, 2}:
        raise InvalidStateError(f"not a side list of length {g.n} over 0, 1 and 2")
    n, adj = g.n, g.adj
    nbr = [[0] * n for _ in range(3)]
    for v, s in enumerate(side):
        counts = nbr[s]
        for u in adj[v]:
            counts[u] += 1
    for v, s in enumerate(side):
        if s and nbr[s][v]:
            u = next(u for u in adj[v] if side[u] == s)
            raise InvalidStateError(f"side containing {v} is not independent ({u}-{v})")
    return BipartitionState(side, nbr, inside_potential(g, w, side))


def initial_state(g: Graph, w: list[int], seed: int | None = None) -> BipartitionState:
    """Greedy bipartition to start the exchange from: ``_state_from_sides`` of ``_start_sides``."""
    return _state_from_sides(g, w, _start_sides(g, w, seed))


def _start_sides(g: Graph, w: list[int], seed: int | None) -> list[int]:
    """The greedy side list that the search starts from.

    With ``seed=None`` vertices are placed by descending weight (ties by
    id), each landing on side 1 when it has no placed neighbor there, else
    on side 2 when it has none there; vertices blocked on both sides
    start outside.  A seed shuffles the placement order and picks among
    the open sides instead (``color_core`` gives each attempt its seed).
    """
    if min_degree(g) < 2:
        raise MinDegreeError("initial_state needs minimum degree 2")
    side = [OUTSIDE] * g.n
    placed = [None, [0] * g.n, [0] * g.n]  # placed[s][v]: 1 once a neighbor of v is placed on side s
    on1, on2 = placed[1], placed[2]
    adj = g.adj
    rng = None if seed is None else random.Random(seed)
    if rng is None:
        # a stable sort keeps ascending ids among equal weights, reversed or not
        order = sorted(range(g.n), key=w.__getitem__, reverse=True)
    else:
        order = list(range(g.n))
        rng.shuffle(order)
    for v in order:
        if not on1[v]:
            options = (1, 2) if not on2[v] else (1,)
        elif not on2[v]:
            options = (2,)
        else:
            continue
        # a seeded start draws even when one side is open: each draw moves its stream
        choice = options[0] if rng is None else rng.choice(options)
        side[v] = choice
        marks = placed[choice]
        for u in adj[v]:
            marks[u] = 1
    return side


def _other(side: int) -> int:
    return 3 - side


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


def _move_plan(g: Graph, w: list[int], state: BipartitionState, move: Move) -> list[tuple[int, int]]:
    """Expand a move into (vertex, new side) assignments.

    Raises InvalidMoveError unless ``move`` is a move whose fields can
    be read, whose vertex ids are ints (not bools) in 0..n-1 and whose
    side is 1 or 2, all checked before any id indexes ``state``, whose
    hub, for a Deg3Exchange, is a hub (``_hub_side``) next to its
    entering vertex, and whose ``cross``, for a PathSwap, is None or an
    end of its path, as the search builds them; a move from outside
    could otherwise name a vertex through a negative index or carry a
    hub or cross label that its plan never reads.
    """
    named = _NAMED.get(type(move))
    if named is None:
        raise InvalidMoveError(f"{move!r} is not a move")
    try:
        ids, s = named(move)
    except TypeError as err:
        raise InvalidMoveError(f"{move!r}: {err}") from None
    if type(s) is not int or s not in (1, 2):
        raise InvalidMoveError(f"side {s!r} is not 1 or 2")
    n = g.n
    for v in ids:
        if type(v) is not int or not 0 <= v < n:
            raise InvalidMoveError(f"{v!r} is not a core vertex")
    if isinstance(move, Absorb):
        return [(move.vertex, s)]
    if isinstance(move, Flip):
        plan = [(u, _other(s)) for u in move.displaced]
        plan.append((move.vertex, s))
        return plan
    if isinstance(move, Deg3Exchange):
        if not (move.hub in g.adj[move.entering] and _hub_side(g, w, state, move.hub)):
            raise InvalidMoveError(f"{move.hub} is not a hub next to {move.entering}")
        target = state.side[move.leaving]
        plan = [(move.hub, _other(target))] if state.side[move.hub] == target else []
        plan.append((move.leaving, OUTSIDE))
        plan.append((move.entering, target))
        return plan
    if isinstance(move, SameSideExchange):
        target = state.side[move.leaving]
        return [(move.leaving, OUTSIDE), (move.entering, target)]
    entering = move.cycle if isinstance(move, CycleSwap) else move.path
    cross = move.cross if isinstance(move, PathSwap) else None
    if cross is not None and not (entering and cross in (entering[0], entering[-1])):
        raise InvalidMoveError(f"cross {cross} is not an end of path {entering}")
    plan = [(y, OUTSIDE) for y in move.displaced]
    plan.extend((x, _other(s) if x == cross else s) for x in entering)
    return plan


def _evaluate_plan(
    g: Graph, w: list[int], state: BipartitionState, plan: list[tuple[int, int]]
) -> tuple[Potential | None, str | None]:
    """Validate a plan in one walk over each mover's adjacency, in plan order.

    Returns (new potential, None), or (None, reason) at the first pair
    that would share a side or when the potential does not strictly rise.
    """
    targets = dict(plan)
    if len(targets) != len(plan):
        raise InvalidMoveError("plan assigns a vertex twice")
    side = state.side
    delta_e = delta_w = 0
    for v, s in targets.items():
        inside, was = s != OUTSIDE, side[v] != OUTSIDE
        if inside != was:
            delta_w += w[v] if inside else -w[v]
        for u in g.adj[v]:
            t = targets.get(u, side[u])
            if inside and t == s:
                return None, f"vertices {v} and {u} would share side {s}"
            if u < v and u in targets:
                continue  # count mover-mover edges once
            delta_e += (inside and t != OUTSIDE) - (was and side[u] != OUTSIDE)
    new = Potential(state.potential.edges + delta_e, state.potential.weight + delta_w)
    if not new > state.potential:
        return None, f"potential {state.potential} -> {new} is not a strict increase"
    return new, None


def evaluate_move(g: Graph, w: list[int], state: BipartitionState, move: Move) -> Candidate:
    """Validate a move against the state without changing it.

    Raises InvalidMoveError when the move is malformed (``_move_plan``),
    independence would break or the potential would not strictly
    increase.
    """
    plan = _move_plan(g, w, state, move)
    new_potential, reason = _evaluate_plan(g, w, state, plan)
    if new_potential is None:
        raise InvalidMoveError(f"{type(move).__name__} rejected: {reason}")
    return Candidate(move, plan, new_potential)


def commit_move(g: Graph, state: BipartitionState, found: Candidate) -> None:
    """Commit a validated move into ``state`` in place."""
    side, nbr = state.side, state.nbr
    for v, s in found.plan:
        old = side[v]
        side[v] = s
        leaving, entering = nbr[old], nbr[s]
        for u in g.adj[v]:
            leaving[u] -= 1
            entering[u] += 1
    state.potential = found.potential


def checked_commit(g: Graph, w: list[int], state: BipartitionState, found: Candidate) -> list[int]:
    """Commit ``found`` and check it on the vertices whose side it changes.

    Only those vertices C can change the potential, so the cached inside
    edges and inside weight must each move by exactly the change of
    ``touched_potential(state, C)`` from before the commit to after it,
    which reads the side list alone, not the plan's delta arithmetic.
    Raises InvalidStateError otherwise; returns C.
    """
    side = state.side
    changed = [v for v, s in found.plan if side[v] != s]
    before = state.potential
    was = touched_potential(g, w, side, changed)
    commit_move(g, state, found)
    now = touched_potential(g, w, side, changed)
    after = state.potential
    if (
        after.edges - before.edges != now.edges - was.edges
        or after.weight - before.weight != now.weight - was.weight
    ):
        raise InvalidStateError(
            f"potential {before} -> {after} disagrees with the touched count "
            f"{was} -> {now} after {found.move}"
        )
    return changed


# Each cheap kind has a rule, by which the worklist flags, and a builder.
# A rule's answer is 0 where it fails, else the side s its move is
# about, and ``build(g, w, state, v, s)`` returns the one move s promises.


def _outside_sides(g: Graph, w: list[int], state: BipartitionState, x: int) -> tuple[int, int, int]:
    """The Absorb, Flip and SameSideExchange rules at x: the side of each rule's move, or 0.

    All three fail unless x is outside, and they read the neighbor
    counts of x and, once each, the side and counts of its neighbors.

    * Absorb: the first side where x has no neighbor.  Absorbing x there
      adds w[x] >= 1 to the inside weight and loses no inside edge.
      Reads sides within distance 1.
    * Flip: the first side s where x has neighbors and none has a
      neighbor across.  Those neighbors had no inside edge (s is
      independent and nothing across touches them); after the flip each
      has one to x, so the inside edges grow by at least one.  Reads
      sides within distance 2.
    * SameSideExchange: the side of the lone S-neighbor x3 of x, when x
      has three neighbors in S split 2 + 1 across the sides and x3, the
      one alone on its side, has S-degree at most 1 or is lighter than
      x.  x3 has at most two S-neighbors (x is outside), so x taking its
      place gains 2 - s_degree(x3) >= 0 inside edges, and w[x] - w[x3]
      > 0 weight when that gain is 0.  Reads sides within distance 2.
    """
    side = state.side
    if side[x] != OUTSIDE:
        return 0, 0, 0
    in1, in2 = state.nbr[1], state.nbr[2]
    on1, on2 = in1[x], in2[x]
    flip1, flip2 = on1 > 0, on2 > 0
    lone = -1  # x3 once the loop is done, when x's S-neighbors split 2 + 1
    for u in g.adj[x]:
        t = side[u]
        if t == 1:
            flip1 = flip1 and not in2[u]
            if on1 == 1:
                lone = u
        elif t == 2:
            flip2 = flip2 and not in1[u]
            if on2 == 1:
                lone = u
    exchange = 0
    if on1 + on2 == 3 and on1 and on2 and (in1[lone] + in2[lone] <= 1 or w[lone] < w[x]):
        exchange = side[lone]
    return (
        1 if on1 == 0 else 2 if on2 == 0 else 0,
        1 if flip1 else 2 if flip2 else 0,
        exchange,
    )


def _absorb_move(g: Graph, w: list[int], state: BipartitionState, x: int, s: int) -> Absorb:
    return Absorb(x, s)


def _flip_move(g: Graph, w: list[int], state: BipartitionState, x: int, s: int) -> Flip:
    return Flip(x, s, tuple(u for u in g.adj[x] if state.side[u] == s))


def _hub_side(g: Graph, w: list[int], state: BipartitionState, z: int) -> int:
    """Deg3Exchange's rule: the side of z when z is a hub, or 0.

    A hub is a degree-3 vertex of S with no neighbor in S, so every
    neighbor of a hub is outside.  Reads sides within distance 1.
    """
    s = state.side[z]
    return s if s != OUTSIDE and len(g.adj[z]) == 3 == state.nbr[OUTSIDE][z] else 0


def _hub_move(g: Graph, w: list[int], state: BipartitionState, z: int, s: int) -> Deg3Exchange | None:
    """The hub lemma's trade: z's first lighter neighbor x for x's first lighter S-neighbor y, or None."""
    for x in g.adj[z]:
        if w[x] < w[z]:
            for y in g.adj[x]:
                if state.side[y] != OUTSIDE and w[y] < w[x]:
                    return Deg3Exchange(z, x, y)
            return None
    return None


def _same_side_move(g: Graph, w: list[int], state: BipartitionState, x: int, s: int) -> SameSideExchange:
    return SameSideExchange(x, next(u for u in g.adj[x] if state.side[u] == s))


# The cheap move kinds in priority order: (build, the index of the kind's
# flag array).  The flags of the three outside rules come first, in the
# order ``_outside_sides`` answers them, and the hub's last.
_HUB = 3
_CHEAP_KINDS = ((_absorb_move, 0), (_flip_move, 1), (_hub_move, _HUB), (_same_side_move, 2))


class _Worklist:
    """Dirty flags per cheap move kind over one search's graph, weights and state.

    Between commits ``flags[k][v]`` is set exactly where the rule of the
    kind with flag index k holds at v (``_reflag`` over every vertex,
    then ``touch`` after each commit), and the first set flag of the
    highest-priority kind with one set yields a move.  That move is
    therefore the first move of the full scan (kinds in priority order,
    vertices in ascending id).  For Absorb, Flip and SameSideExchange
    ``_outside_sides`` gives the count that makes the built move
    validate; for Deg3Exchange it is the hub lemma.

    Hub lemma: a hub z is tried only when no Absorb or Flip rule holds,
    and then ``_hub_move``'s trade validates.  z has degree 3, so its
    first lighter neighbor x has w[x] = w[z] - 1 (``weights``), and x is
    outside.  Not absorbable, x has a neighbor across from z; not
    flippable onto z's side, x has a second neighbor there, since z has
    no neighbor across.  So x has three S-neighbors and degree 3, and
    its first lighter neighbor y weighs w[x] - 1, so y is in S and is
    not z.  Trading x for y, with z stepping across when y shares its
    side, changes the inside edges by 2 - s_degree(y) >= 0 and raises
    the weight by w[x] - w[y] = 1.
    """

    def __init__(self, g: Graph, w: list[int], state: BipartitionState):
        self.g, self.w, self.state = g, w, state
        self.flags = [bytearray(g.n) for _ in range(4)]  # absorb, flip, same-side, hub
        self._reflag(range(g.n))

    def next_move(self) -> Candidate | None:
        """The move at the first set flag of the highest-priority kind, or None.

        Raises InvalidStateError, from the evaluator's InvalidMoveError,
        when the rule fails there, the kind's builder makes no move or its
        move fails validation, which the invariant rules out.
        """
        g, w, state = self.g, self.w, self.state
        for build, k in _CHEAP_KINDS:
            v = self.flags[k].find(1)
            if v >= 0:
                s = _hub_side(g, w, state, v) if k == _HUB else _outside_sides(g, w, state, v)[k]
                try:
                    return evaluate_move(g, w, state, s and build(g, w, state, v, s))
                except InvalidMoveError as err:
                    message = f"{build.__name__} found no move at flagged vertex {v}"
                    raise InvalidStateError(message) from err
        return None

    def touch(self, changed: list[int]) -> None:
        """Re-flag around ``changed``, the vertices whose sides the last commit changed.

        Flip and SameSideExchange read sides within distance 2 of their
        vertex, Absorb and the hub rule within distance 1, so a rule's
        answer can have changed only within distance 2 of ``changed``.
        The pass runs on that ball; where a rule reads less far, it
        gives its unchanged answer.
        """
        adj = self.g.adj
        ball = set(changed)
        for v in changed:
            for u in adj[v]:
                ball.add(u)
                ball.update(adj[u])
        self._reflag(ball)

    def _reflag(self, vertices: Iterable[int]) -> None:
        """Set all four flags of each of ``vertices`` from the rules in the current state.

        At an outside vertex the hub flag is clear and the other three
        are ``_outside_sides``; at a vertex of S those three are clear
        and the hub flag is ``_hub_side``'s test, read inline.
        """
        g, w, state = self.g, self.w, self.state
        side, adj, around = state.side, g.adj, state.nbr[OUTSIDE]
        absorb, flip, same, hub = self.flags
        for v in vertices:
            if side[v] == OUTSIDE:
                a, f, e = _outside_sides(g, w, state, v)
                absorb[v], flip[v], same[v], hub[v] = a > 0, f > 0, e > 0, 0
            else:
                absorb[v] = flip[v] = same[v] = 0
                hub[v] = len(adj[v]) == 3 == around[v]


def square_outside(g: Graph, state: BipartitionState) -> tuple[Graph, tuple[int, ...]]:
    """The square graph induced on the outside vertices.

    Returns the re-densified graph plus the outside vertices in the
    ascending order matching its ids.  Two outside vertices are adjacent
    when their distance in the *full* graph is at most 2.  ``pos[v]`` is
    v's outside index, or -1, so each row is read off the one- and
    two-step neighbours of its vertex.
    """
    side = state.side
    outside = [v for v in range(g.n) if side[v] == OUTSIDE]
    pos = [-1] * g.n
    for i, v in enumerate(outside):
        pos[v] = i
    adj = g.adj
    rows = []
    for i, x in enumerate(outside):
        near = set()
        for u in adj[x]:
            near.add(pos[u])
            for v in adj[u]:
                near.add(pos[v])
        near -= {-1, i}
        rows.append(tuple(sorted(near)))
    return Graph(len(outside), tuple(rows)), tuple(outside)


def _swap_candidates_for_cycle(
    g: Graph, state: BipartitionState, cycle: tuple[int, ...]
) -> Iterator[Move]:
    """Candidate Cycle/Path swaps for one chordless odd outside cycle.

    Each candidate enters a contiguous arc of the cycle onto one side
    (optionally sending one endpoint to the opposite side) and displaces
    every S-neighbor the entrants would otherwise conflict with, so
    independence holds by construction.  Long arcs come first; the
    caller validates each candidate against the potential and applies
    the first strict increase.

    Each candidate comes once, with no record of those already given.
    An arc shorter than the cycle is fixed by its start, and its three
    crossing choices differ.  The full cycle enters the same vertices
    from every start, with the same genuine pairs, so start 0 offers
    every crossing choice and each later start up to k - 2 only its own
    first vertex.  A k-cycle thus yields at most 6k(k - 2) + 2k + 2
    candidates, so trying them all needs no cap.
    """
    k = len(cycle)

    def genuine(i: int, j: int) -> bool:
        return g.has_edge(cycle[i % k], cycle[j % k])

    def displaced_for(arc: tuple[int, ...], side: int, cross: int | None) -> tuple[int, ...]:
        out = set()
        for x in arc:
            target = _other(side) if x == cross else side
            out.update(u for u in g.adj[x] if state.side[u] == target)
        return tuple(sorted(out))

    for length in range(k, 1, -1):
        full = length == k
        for start in range(k - 1 if full else k):
            idx = [(start + t) % k for t in range(length)]
            arc = tuple(cycle[i] for i in idx)
            # Consecutive entrants joined by a genuine graph edge can
            # only coexist when the pair straddles the two sides, i.e.
            # when one of them is the crossed endpoint.
            pairs = [(arc[t], arc[t + 1]) for t in range(length - 1) if genuine(idx[t], idx[t + 1])]
            if full and genuine(start - 1, start):
                pairs.append((arc[-1], arc[0]))
            crosses = (arc[0],) if full and start else (None, arc[-1], arc[0])

            for side in (1, 2):
                for cross in crosses:
                    if any(cross not in pair for pair in pairs):
                        continue
                    displaced = displaced_for(arc, side, cross)
                    if full and cross is None:
                        yield CycleSwap(cycle, displaced, side)
                    else:
                        yield PathSwap(arc, displaced, side, cross)


def _find_square_swap(
    g: Graph, w: list[int], state: BipartitionState
) -> SquareBipartition | Candidate:
    """Stage 5: bipartition the outside square or find a validated swap.

    Returns the square bipartition when the outside square is
    bipartite.  Otherwise the 2-coloring's certificate, one chordless
    odd cycle, is the only cycle tried: its swap candidates are
    validated in order and the first strict increase is returned.
    Raises StuckError, carrying ``state`` and that one cycle, when no
    candidate validates.
    """
    sq, order = square_outside(g, state)
    result = bipartition_or_odd_cycle(sq)
    if isinstance(result, Bipartition):
        h1 = frozenset(order[i] for i in result.part1)
        h2 = frozenset(order[i] for i in result.part2)
        return SquareBipartition(h1, h2)
    cycle = tuple(order[i] for i in result.vertices)
    for candidate in _swap_candidates_for_cycle(g, state, cycle):
        try:
            return evaluate_move(g, w, state, candidate)
        except InvalidMoveError:
            continue
    raise StuckError(f"no validated swap for the odd outside cycle {cycle}", state, cycle)


def check_fixpoint_invariants(g: Graph, w: list[int], state: BipartitionState) -> list[str]:
    """Structural facts that must hold once no cheap move applies.

    Returns human-readable descriptions of violations (empty = clean):
    every outside vertex sees both sides through busy neighbors, outside
    components have at most two vertices, S-vertices have at most two
    outside neighbors, and lone opposite-side neighbors of saturated
    outside vertices are heavy with two S-neighbors.
    """
    problems: list[str] = []
    side, nbr = state.side, state.nbr
    in1, in2, around = nbr[1], nbr[2], nbr[OUTSIDE]
    across = (None, in2, in1)  # across[s][u]: u's neighbors on the side opposite s
    for x in itertools.compress(range(g.n), map(OUTSIDE.__eq__, side)):
        linked = [False] * 3  # linked[s]: x has a side-s neighbor with a neighbor across
        for u in g.adj[x]:
            s = side[u]
            if s and across[s][u]:
                linked[s] = True
        for s in (1, 2):
            if not linked[s]:
                problems.append(f"outside vertex {x} has no side-{s} neighbor linked across")
        if around[x] > 1:
            problems.append(f"outside vertex {x} has {around[x]} outside neighbors")
        if in1[x] + in2[x] == 3 and 1 in (in1[x], in2[x]):
            lone_side = 1 if in1[x] == 1 else 2
            x3 = next(u for u in g.adj[x] if side[u] == lone_side)
            if state.s_degree(x3) != 2:
                problems.append(f"lone neighbor {x3} of {x} has S-degree {state.s_degree(x3)}")
            elif w[x3] < w[x]:
                problems.append(f"lone neighbor {x3} of {x} is lighter ({w[x3]} < {w[x]})")
    for z in itertools.compress(range(g.n), side):
        if around[z] > 2:
            problems.append(f"S-vertex {z} has {around[z]} outside neighbors")
    return problems


def run_to_fixpoint(
    g: Graph,
    w: list[int],
    state: BipartitionState,
    *,
    max_moves: int | None = None,
    validate: bool = True,
) -> FixpointResult:
    """Drive the state to a fixpoint whose outside square is bipartite.

    Cheap moves come from ``_Worklist``, and a swap from
    ``_find_square_swap`` whenever none is left.

    The search commits into its own copy of ``state`` in place, so the
    caller's start state stays as it was.  Every commit goes through
    ``checked_commit``, whose local check equals a recount by induction
    from an anchor.  The anchors are the from-scratch ``inside_potential``
    recount on the start state and at every cheap-move fixpoint (the
    last of which is the state returned), and the structural fixpoint
    invariants are checked next to each.  A fault raises
    InvalidStateError within the run.

    The step budget is (m + 1)(sum of w + 1) commits.  Every commit
    strictly increases the potential (inside edges, inside weight) in
    lexicographic order, and both parts are integers in [0, m] and
    [0, sum of w], so a run that exceeds the budget means the potential
    failed to increase.  ``max_moves`` and ``validate`` are read by
    nothing (``colorer.ColorOptions`` says why they stay).

    Raises StuckError (``_find_square_swap``) or MoveBudgetExceededError
    (the budget above), never leaving a corrupted state.
    """
    budget = (g.edge_count + 1) * (sum(w) + 1)
    records: list[MoveRecord] = []
    state = state.copy()
    work = _Worklist(g, w, state)

    def recount(where: str) -> None:
        scratch = inside_potential(g, w, state.side)
        if scratch != state.potential:
            raise InvalidStateError(
                f"cached potential {state.potential} != recount {scratch} {where}"
            )

    def commit(found: Candidate) -> None:
        before = state.potential
        changed = checked_commit(g, w, state, found)
        records.append(MoveRecord(found.move, before, state.potential))
        if len(records) > budget:
            raise MoveBudgetExceededError(f"move budget {budget} exhausted")
        work.touch(changed)

    recount("at the start")
    while True:
        found = work.next_move()
        if found is not None:
            commit(found)
            continue
        recount(f"at the fixpoint after {len(records)} moves")
        problems = check_fixpoint_invariants(g, w, state)
        if problems:
            raise InvalidStateError("fixpoint invariants violated: " + "; ".join(problems))
        found = _find_square_swap(g, w, state)
        if isinstance(found, SquareBipartition):
            return FixpointResult(state, found, records)
        commit(found)
