"""Exact backtracking decision of S-packing colorability for small graphs.

`decide` answers whether a graph admits a packing coloring with a given
radius sequence, producing an explicit coloring on success.  The search
assigns vertices in descending-degree order, prunes with precomputed
distance balls held as bitmasks (one ``graph.ball`` per vertex at the
sequence's largest radius yields the mask of every radius), and skips
symmetric branches by only opening an empty class when every earlier
class of the same radius is already used.  `chi_rho` wraps it to
compute the packing chromatic number by trying (1), (1,2), (1,2,3), ...
up to a limit.

Intended for small instances; the node budget turns runaway searches
into an explicit inconclusive outcome instead of a hang.
"""
from __future__ import annotations

import string
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .graph import Graph, ball
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
    budget is measured in.
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
        if not isinstance(r, int) or r < 1:
            raise InvalidSequenceError(f"radius {r!r} is not a positive integer")
    if max(Counter(seq).values()) > 26:
        raise InvalidSequenceError("more than 26 classes share a radius")
    return seq


def _balls(g: Graph, radii: set[int]) -> dict[int, list[int]]:
    """balls[r][v] = bitmask of vertices u != v with dist(u, v) <= r.

    One ball per vertex, at the largest radius, gives the mask of every
    radius in ``radii``: it lists the vertices by distance, so the mask
    grows one layer at a time, and a radius beyond the last layer gets
    the whole ball.
    """
    top = max(radii)
    balls: dict[int, list[int]] = {r: [] for r in radii}
    for v in range(g.n):
        within: dict[int, int] = {}  # within[d]: mask of the vertices at distance 1..d
        mask = 0
        for u, d in ball(g, (v,), top).items():
            if d:
                mask |= 1 << u
            within[d] = mask
        for r, masks in balls.items():  # d is now the last layer's distance
            masks.append(within[min(r, d)])
    return balls


def decide(g: Graph, seq, budget: int = DEFAULT_BUDGET) -> DecisionOutcome:
    """Decide whether g admits a packing coloring with radii ``seq``.

    Complete up to the node budget: SAT comes with a coloring, UNSAT
    only after exhausting the (symmetry-reduced) search space, and
    BUDGET means the verdict is unknown.
    """
    seq = _validate_sequence(seq)
    k = len(seq)
    labels = class_labels(seq)
    if g.n == 0:
        empty = tuple(ColorClass(labels[i], seq[i], frozenset()) for i in range(k))
        return DecisionOutcome(Status.SAT, PackingColoring(0, empty), 0)

    balls = _balls(g, set(seq))
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    occupied = [0] * k
    assigned_class = [0] * g.n
    nodes = 0
    exceeded = False

    def dfs(idx: int) -> bool:
        nonlocal nodes, exceeded
        if idx == g.n:
            return True
        v = order[idx]
        bit = 1 << v
        for i in range(k):
            if occupied[i] & balls[seq[i]][v]:
                continue
            if not occupied[i] and i > 0 and seq[i] == seq[i - 1] and not occupied[i - 1]:
                continue  # equal-radius classes are interchangeable
            nodes += 1
            if nodes > budget:
                exceeded = True
                return False
            occupied[i] |= bit
            assigned_class[v] = i
            if dfs(idx + 1):
                return True
            occupied[i] &= ~bit
            if exceeded:
                return False
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, g.n + 200))
    try:
        found = dfs(0)
    finally:
        sys.setrecursionlimit(limit)

    if found:
        members: list[set[int]] = [set() for _ in range(k)]
        for v in range(g.n):
            members[assigned_class[v]].add(v)
        classes = tuple(
            ColorClass(labels[i], seq[i], frozenset(members[i])) for i in range(k)
        )
        return DecisionOutcome(Status.SAT, PackingColoring(g.n, classes), nodes)
    if exceeded:
        return DecisionOutcome(Status.BUDGET, None, nodes)
    return DecisionOutcome(Status.UNSAT, None, nodes)


def chi_rho(g: Graph, k_max: int, budget: int = DEFAULT_BUDGET) -> ChiRhoResult:
    """Smallest k <= k_max such that g is (1,2,...,k)-packing colorable.

    Returns value=None either when every attempt up to k_max is UNSAT or
    when some attempt hits the node budget (``limited`` tells which).
    """
    if k_max < 1:
        raise InvalidSequenceError("k_max must be at least 1")
    total = 0
    for k in range(1, k_max + 1):
        outcome = decide(g, tuple(range(1, k + 1)), budget=budget)
        total += outcome.nodes
        if outcome.status is Status.SAT:
            return ChiRhoResult(k, outcome.coloring, total, False)
        if outcome.status is Status.BUDGET:
            return ChiRhoResult(None, None, total, True)
    return ChiRhoResult(None, None, total, False)
