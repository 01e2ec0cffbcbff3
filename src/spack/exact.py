"""Exact backtracking decision of S-packing colorability for small graphs.

`decide` answers whether a graph admits a packing coloring with a given
radius sequence, producing an explicit coloring on success.  `chi_rho`
computes the packing chromatic number by trying (1), (1,2), (1,2,3), ...
up to a limit.

The search is iterative: an explicit array holds the class committed at
each depth, and backtracking resumes at the next class, so no depth
limit or recursion limit applies.  Conflicts are tested on bitmasks.
Each vertex's distance ball at every radius comes from one recurrence
over the adjacency lists: the closed ball at radius r is the one at
r - 1 joined with its neighbours' balls at r - 1.  So the oracle shares
no search code with ``graph.bfs``, the solvers' breadth-first search,
and the tests check its masks against a reference BFS.  For each class
the search keeps the vertices it bars: its members and every vertex
within its radius of one.  Symmetric branches are skipped by only
opening an empty class when every earlier class of the same radius is
already used.

After each commit a dead-vertex check ANDs every class's barred set
into the vertices still to be placed.  A vertex left over can join no
class, now or deeper down, since barred sets only grow along a branch;
the commit is undone at once (it still counts as a node) and the next
class is tried.  The check cuts only subtrees that hold no coloring,
so the search meets the same first coloring, in the same order, as
one without it: verdicts and witnesses do not change, node counts only
fall.

Vertices are placed in a static constrained-first order: next comes the
unplaced vertex with the most already-placed vertices within distance
2, ties going to the higher degree and then to the lower id, so the
first vertex is the lowest-id one of highest degree.  The order depends
on the graph alone.  `decide` builds the masks and the order for its
one sequence; `chi_rho` builds them once for radii 1..k_max and
searches every k on them, each k exactly as ``decide(g, (1, ..., k))``
would.

Intended for small instances; the node budget turns runaway searches
into an explicit inconclusive outcome instead of a hang.
"""
from __future__ import annotations

import heapq
import string
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .graph import Graph
from .verify import ColorClass, PackingColoring

DEFAULT_BUDGET = 10_000_000


class InvalidSequenceError(ValueError):
    pass


class Status(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    BUDGET = "budget"


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of one decision; ``coloring`` is set only when SAT.

    ``nodes`` counts committed vertex-to-class assignments, the unit the
    budget is measured in.  A commit the dead-vertex check undoes at once
    counts too, and the budget trips on it like on any other.
    """

    status: Status
    coloring: PackingColoring | None
    nodes: int


@dataclass(frozen=True)
class ChiRhoResult:
    """Smallest k with a (1,2,...,k)-coloring, or None if undetermined.

    ``limited`` distinguishes a budget-truncated search from plain
    k_max exhaustion; in either case ``value`` is None.
    """

    value: int | None
    coloring: PackingColoring | None
    nodes: int
    limited: bool


def class_labels(seq: tuple[int, ...]) -> tuple[str, ...]:
    """Stable labels per class: "r" when the radius is unique in the
    sequence, else "r_a", "r_b", ... in positional order."""
    counts = Counter(seq)
    seen: Counter = Counter()
    labels = []
    for r in seq:
        if counts[r] == 1:
            labels.append(str(r))
        else:
            labels.append(f"{r}_{string.ascii_lowercase[seen[r]]}")
            seen[r] += 1
    return tuple(labels)


def _validate_sequence(seq) -> tuple[int, ...]:
    seq = tuple(seq)
    if not seq:
        raise InvalidSequenceError("empty radius sequence")
    for r in seq:
        if not isinstance(r, int) or isinstance(r, bool) or r < 1:
            raise InvalidSequenceError(f"radius {r!r} is not a positive integer")
    if max(Counter(seq).values()) > 26:
        raise InvalidSequenceError("more than 26 classes share a radius")
    return seq


def _balls(g: Graph, radii: set[int]) -> dict[int, list[int]]:
    """balls[r][v] = bitmask of vertices u != v with dist(u, v) <= r.

    The closed balls grow one step per round: v's ball at radius r is its
    ball at r - 1 joined with those of its neighbours.  Once a round
    changes no ball, every ball holds its whole component, and each
    larger radius gets the same masks.
    """
    top = max(radii)
    closed = [1 << v for v in range(g.n)]
    balls: dict[int, list[int]] = {}
    r = 0
    while r < top:
        grown = []
        for v, nbrs in enumerate(g.adj):
            mask = closed[v]
            for u in nbrs:
                mask |= closed[u]
            grown.append(mask)
        if grown == closed:
            break
        closed = grown
        r += 1
        if r in radii:
            balls[r] = [mask ^ (1 << v) for v, mask in enumerate(closed)]
    if len(balls) < len(radii):
        whole = [mask ^ (1 << v) for v, mask in enumerate(closed)]
        for r in radii:
            balls.setdefault(r, whole)
    return balls


def _bits(mask: int):
    """The vertex ids set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _order(g: Graph, near: list[int]) -> list[int]:
    """Constrained-first vertex order: next is the unplaced vertex with the
    most placed vertices in ``near`` (its distance-2 mask), then the
    higher degree, then the lower id.

    Counts only grow, so a heap entry whose count is stale is skipped
    when popped instead of being updated in place.
    """
    placed = [False] * g.n
    count = [0] * g.n
    heap = [(0, -g.degree(v), v) for v in range(g.n)]
    heapq.heapify(heap)
    order = []
    while heap:
        c, _, v = heapq.heappop(heap)
        if placed[v] or -c != count[v]:
            continue
        placed[v] = True
        order.append(v)
        for u in _bits(near[v]):
            if not placed[u]:
                count[u] += 1
                heapq.heappush(heap, (-count[u], -g.degree(u), u))
    return order


def _plan(g: Graph, radii: tuple[int, ...]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The search order, and per depth the placed vertex's mask at each of
    ``radii``, from one ball per vertex."""
    balls = _balls(g, set(radii) | {2})
    order = _order(g, balls[2])
    return order, [tuple(balls[r][v] for r in radii) for v in order]


def _search(
    order: list[int], masks: list[tuple[int, ...]], seq: tuple[int, ...], budget: int
) -> DecisionOutcome:
    """Backtrack over the classes of ``seq`` with an explicit stack.

    ``masks[d][i]`` is the radius-``seq[i]`` mask of the vertex placed at
    depth d; a longer tuple is fine, only its first len(seq) entries are
    read.  ``nodes`` counts every commit, a commit the dead-vertex check
    undoes at once included, and the budget trips on the commit that
    passes it.
    """
    n, k = len(order), len(seq)
    labels = class_labels(seq)
    # twin[i]: class i has the radius of class i - 1; it is opened only
    # once class i - 1 is, since equal-radius classes are interchangeable.
    twin = [i > 0 and seq[i] == seq[i - 1] for i in range(k)]
    bits = [1 << v for v in order]
    rest = [0] * (n + 1)  # rest[d]: the vertices placed at depths d, d + 1, ...
    for d in range(n - 1, -1, -1):
        rest[d] = rest[d + 1] | bits[d]
    # barred[i]: the members of class i and every vertex within seq[i] of
    # one; it is 0 exactly when class i is empty.
    barred = [0] * k
    saved = [0] * n  # saved[d]: barred[chosen[d]] before the commit at depth d
    chosen = [0] * n  # chosen[d]: class committed at depth d; d's next try is chosen[d] + 1
    nodes = 0
    depth = 0
    i = 0  # next class to try at this depth
    while depth < n:
        bit = bits[depth]
        while i < k and (barred[i] & bit or (twin[i] and not barred[i] and not barred[i - 1])):
            i += 1
        if i < k:
            nodes += 1
            if nodes > budget:
                return DecisionOutcome(Status.BUDGET, None, nodes)
            old = barred[i]
            barred[i] = old | bit | masks[depth][i]
            dead = rest[depth + 1]  # the later vertices every class bars
            for mask in barred:
                dead &= mask
                if not dead:
                    break
            if dead:
                barred[i] = old
                i += 1
                continue
            saved[depth] = old
            chosen[depth] = i
            depth += 1
            i = 0
        elif depth:
            depth -= 1
            i = chosen[depth]
            barred[i] = saved[depth]
            i += 1
        else:
            return DecisionOutcome(Status.UNSAT, None, nodes)
    members: list[set[int]] = [set() for _ in range(k)]
    for v, c in zip(order, chosen):
        members[c].add(v)
    classes = tuple(ColorClass(labels[i], seq[i], frozenset(members[i])) for i in range(k))
    return DecisionOutcome(Status.SAT, PackingColoring(n, classes), nodes)


def decide(g: Graph, seq, budget: int = DEFAULT_BUDGET) -> DecisionOutcome:
    """Decide whether g admits a packing coloring with radii ``seq``.

    Complete up to the node budget: SAT comes with a coloring, UNSAT
    only after exhausting the (symmetry-reduced) search space, and
    BUDGET means the verdict is unknown.
    """
    seq = _validate_sequence(seq)
    order, masks = _plan(g, seq)
    return _search(order, masks, seq, budget)


def chi_rho(g: Graph, k_max: int, budget: int = DEFAULT_BUDGET) -> ChiRhoResult:
    """Smallest k <= k_max such that g is (1,2,...,k)-packing colorable.

    Returns value=None either when every attempt up to k_max is UNSAT or
    when some attempt hits the node budget (``limited`` tells which).
    Each k is searched exactly as ``decide(g, (1, ..., k), budget)``
    would; the masks and the order are built once for all of them.  No k
    past g.n is planned: k = n always admits one vertex per class.
    """
    if k_max < 1:
        raise InvalidSequenceError("k_max must be at least 1")
    radii = tuple(range(1, max(1, min(k_max, g.n)) + 1))
    order, masks = _plan(g, radii)
    total = 0
    for k in radii:
        outcome = _search(order, masks, radii[:k], budget)
        total += outcome.nodes
        if outcome.status is Status.SAT:
            return ChiRhoResult(k, outcome.coloring, total, False)
        if outcome.status is Status.BUDGET:
            return ChiRhoResult(None, None, total, True)
    return ChiRhoResult(None, None, total, False)
