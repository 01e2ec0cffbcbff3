"""General S-packing coloring data model and checker.

A coloring is a list of classes, each carrying a label, a radius s and a
vertex set; vertices sharing a class must be pairwise further than s
apart.

Most classes it sees are clean, and it decides those by set operations
over whole neighbour lists, which run in C.  Let ``near`` be the
members' neighbour lists, concatenated.  The set-test lemma:

- radius 1: a class is clean exactly when no member is in ``near``;
- radius 2: exactly when the closed neighbourhoods are pairwise
  disjoint, that is when the members and ``near`` hold
  ``len(members) + len(near)`` distinct vertices (two members at
  distance 1 or 2 share a vertex of their closed neighbourhoods, and a
  shared vertex is a path of length at most 2);
- radius 3: when, in addition, no edge joins two vertices of ``near``.
  Two members at distance 3 are a path x, a, b, y with a and b in
  ``near``, so the test is sound, but it is not exact: a triangle
  x, a, b puts such an edge beside one member.

A class that fails its test, and every class of radius 4 or more, goes
to the half-radius walk below, which is the only part of ``verify``
that lists violating pairs and their distances.

The walk searches only half the radius from each member.  Let k = s // 2.
Two members x and y lie within distance d <= s exactly when their
radius-k balls meet, at a vertex (d = dx + dy) or across an edge
(d = dx + 1 + dy); every meeting is a walk from x to y, and the least
one is the true distance.  An even d = 2j has j <= k, so the middle
vertex of a shortest path is a meeting vertex.  An odd d = 2j + 1 <= s
has j <= k too, so the middle edge of a shortest path is a meeting
edge.  Edge meetings are needed only for odd s, and only between the
two balls' outermost layers: any other edge meeting is matched or beaten
by a vertex meeting one step along the edge.

``_close_pairs`` walks the balls and says why a pair's first meeting
gives its distance.  The verifier runs its own breadth-first search and
shares none with the solvers it checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .graph import Graph, VertexOutOfRangeError


class ColoringError(ValueError):
    pass


class RadiusMismatchError(ColoringError):
    """Class radii do not realize the requested packing sequence."""


class InvalidInputColoringError(ColoringError):
    """A coloring that a derivation step (a lift or a peel extension) cannot start from."""


@dataclass(frozen=True)
class ColorClass:
    label: str
    radius: int
    vertices: frozenset[int]

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ColoringError(f"class {self.label!r} has radius {self.radius} < 1")


@dataclass(frozen=True)
class PackingColoring:
    """An assignment of vertices of an n-vertex graph to packing classes."""

    n: int
    classes: tuple[ColorClass, ...]

    def radii(self) -> tuple[int, ...]:
        return tuple(cls.radius for cls in self.classes)


@dataclass(frozen=True)
class Violation:
    """Two same-class vertices closer than the class radius allows."""

    label: str
    radius: int
    pair: tuple[int, int]
    distance: int


@dataclass
class VerifyResult:
    ok: bool
    violations: list[Violation] = field(default_factory=list)
    missing: list[int] = field(default_factory=list)
    multiply_assigned: list[int] = field(default_factory=list)


def verify(g: Graph, coloring: PackingColoring) -> VerifyResult:
    """Check the partition property and all pairwise distance constraints.

    A class that ``_clean`` passes is done; any other goes to the walk,
    ``_close_pairs`` (the module docstring proves both), which needs
    every id in range, so the partition is checked first.  That is one
    comparison when it holds: class sizes that sum to n and a union
    equal to ``0 .. n - 1`` leave no vertex missing, doubly assigned or
    out of range.  Only otherwise are the vertices counted one by one.
    Every violating pair is reported with its distance, ordered by
    (class position, smaller id, larger id).
    """
    if coloring.n != g.n:
        raise ColoringError(f"coloring is for n={coloring.n}, graph has n={g.n}")
    n = g.n
    sets = [cls.vertices for cls in coloring.classes]
    missing: list[int] = []
    multiply_assigned: list[int] = []
    if sum(map(len, sets)) != n or frozenset().union(*sets) != frozenset(range(n)):
        missing, multiply_assigned = _partition_faults(coloring, n)

    violations = []
    adj = g.adj
    for cls in coloring.classes:
        if _clean(adj, cls.vertices, cls.radius):
            continue
        close = _close_pairs(g, cls.vertices, cls.radius)
        if close:
            violations.extend(
                Violation(cls.label, cls.radius, pair, close[pair]) for pair in sorted(close)
            )
    ok = not violations and not missing and not multiply_assigned
    return VerifyResult(ok, violations, missing, multiply_assigned)


def _partition_faults(coloring: PackingColoring, n: int) -> tuple[list[int], list[int]]:
    """The vertices no class holds and those two or more classes hold.

    Raises VertexOutOfRangeError at the first class, in order, that
    mentions a vertex outside ``0 .. n - 1``.
    """
    hits = [0] * n  # hits[v]: how many classes hold v
    for cls in coloring.classes:
        for v in cls.vertices:
            if not 0 <= v < n:
                raise VertexOutOfRangeError(
                    f"class {cls.label!r} mentions vertex {v} outside 0..{n - 1}"
                )
            hits[v] += 1
    missing = [v for v, k in enumerate(hits) if k == 0] if 0 in hits else []
    multiply_assigned = [v for v, k in enumerate(hits) if k > 1] if max(hits, default=0) > 1 else []
    return missing, multiply_assigned


def _clean(adj: tuple[tuple[int, ...], ...], members: frozenset[int], r: int) -> bool:
    """True when the set-test lemma shows no two members within distance r.

    At radius 4 and up it passes only a class of at most one member.
    Every member indexes ``adj`` here or in the walk's flat lists, so one
    that equals an id without being an int (such as 1.0) raises
    TypeError, as the per-vertex count does.
    """
    if r > 3 and len(members) > 1:
        return False
    near = list(chain.from_iterable(map(adj.__getitem__, members)))
    if r == 1:
        return members.isdisjoint(near)
    if r > 3:
        return True  # one member or none
    if len(members.union(near)) != len(members) + len(near):
        return False
    if r == 2:
        return True
    # the union test left near free of members and of repeats
    reach = set(near)
    return reach.isdisjoint(chain.from_iterable(map(adj.__getitem__, reach)))


def _close_pairs(g: Graph, members: frozenset[int], r: int) -> dict[tuple[int, int], int]:
    """Distance of every member pair (x, y), x < y, at most ``r`` apart.

    Every member must lie in ``0 .. g.n - 1``: the lists below are
    indexed by vertex, and a negative id would silently index from the
    end, so ``verify`` range-checks the classes first.

    Members are walked in ascending order, each one's radius-k ball a
    layer at a time.  ``last[v]`` is the member whose walk last reached
    v (-1 for none) and ``depth[v]`` its distance to v; a later walk
    moves that entry to ``overflow[v]``, so only vertices in two or more
    balls have one.  When y's walk first reaches v at distance dy, every
    entry (x, dx) held there is a vertex meeting.  The first meeting of
    a pair has the least dy, and there dx + dy is already the distance:
    a shortest path of length d has its vertex at distance max(0, d - k)
    from y inside x's ball, and no vertex nearer to y is.  For an odd
    radius, a pair still without a vertex meeting that meets across an
    edge from y's outermost layer is at distance 2k + 1 = r; at radius
    1 that layer is y alone, so this step finds every pair.  In a valid
    class the balls are disjoint, so each vertex a walk reaches costs
    two stores and ``overflow`` stays empty.
    """
    if len(members) < 2:
        return {}
    k = r // 2
    adj = g.adj
    last = [-1] * g.n
    depth = [0] * g.n
    overflow: dict[int, list[tuple[int, int]]] = {}
    close: dict[tuple[int, int], int] = {}

    def meet(v: int, y: int, d: int) -> None:
        held = overflow.setdefault(v, [])
        held.append((last[v], depth[v]))
        for x, dx in held:
            close.setdefault((x, y), dx + d)

    for y in sorted(members):
        if last[y] >= 0:
            meet(y, y, 0)
        last[y], depth[y] = y, 0
        layer = [y]
        for d in range(1, k + 1):
            reached = []
            for u in layer:
                for v in adj[u]:
                    x = last[v]
                    if x != y:
                        if x >= 0:
                            meet(v, y, d)
                        last[v] = y
                        depth[v] = d
                        reached.append(v)
            layer = reached
        if r % 2:
            # layer is y's outermost one at distance k, empty if the ball stops short
            for a in layer:
                for b in adj[a]:
                    x = last[b]
                    if x != y and x >= 0:
                        close.setdefault((x, y), r)
                    if overflow and b in overflow:
                        for x, _ in overflow[b]:
                            close.setdefault((x, y), r)
    return close


def verify_sequence_shape(coloring: PackingColoring, seq: tuple[int, ...]) -> None:
    """Require the multiset of class radii to equal the packing sequence.

    Raises RadiusMismatchError on mismatch; class order is free.
    """
    have = tuple(sorted(coloring.radii()))
    want = tuple(sorted(seq))
    if have != want:
        raise RadiusMismatchError(f"class radii {have} do not match sequence {want}")


def derive_subdivision_coloring(g: Graph, coloring: PackingColoring) -> PackingColoring:
    """Lift a (1,1,2,2)-shaped coloring of g to its subdivision, by relabelling only.

    Every subdivision vertex forms the radius-1 class; the original
    radius-1 classes become radii 2 and 3 (in input order) and the
    radius-2 classes become radii 4 and 5.  Distances double under
    subdivision, which is exactly the slack these new radii need.

    The lift does not verify the coloring on g; the one verify of S(G)
    that certifies it checks the coloring of g as well.  Lemma: when
    ``verify(g, coloring)`` returns, ``verify(S(G), lift)`` reports
    exactly its violations, with the same labels and pairs, each radius
    lifted and each distance doubled (in the same order when the input
    lists its radius-1 classes first), and the same ``missing`` and
    ``multiply_assigned``.  Vertices of g at distance d in g are at
    distance 2d in S(G); each class keeps its vertex set, and its radius
    r becomes 2r or 2r + 1, which admit the same even distances; and the
    class of edge vertices, pairwise at distance 2 or more, is clean.
    When ``verify(g, coloring)`` raises on an id outside 0..n-1, the
    S(G) verify raises too or reports that id as multiply assigned.

    Raises InvalidInputColoringError when the coloring is for another n
    or its radii are not drawn from (1, 1, 2, 2).
    """
    if coloring.n != g.n:
        raise InvalidInputColoringError(f"coloring is for n={coloring.n}, graph has n={g.n}")
    ones = [cls for cls in coloring.classes if cls.radius == 1]
    twos = [cls for cls in coloring.classes if cls.radius == 2]
    if len(ones) > 2 or len(twos) > 2 or len(ones) + len(twos) != len(coloring.classes):
        raise InvalidInputColoringError(
            f"expected radii drawn from (1, 1, 2, 2), got {coloring.radii()}"
        )
    # By ``subdivide``'s id rule, S(G) has g.n + m vertices and the
    # edge vertices are exactly g.n .. g.n + m - 1.
    sub_n = g.n + g.edge_count
    classes = [ColorClass("sub", 1, frozenset(range(g.n, sub_n)))]
    for new_radius, cls in zip((2, 3), ones):
        classes.append(ColorClass(cls.label, new_radius, cls.vertices))
    for new_radius, cls in zip((4, 5), twos):
        classes.append(ColorClass(cls.label, new_radius, cls.vertices))
    return PackingColoring(sub_n, tuple(classes))
