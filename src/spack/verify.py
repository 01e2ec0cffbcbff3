"""General S-packing coloring data model and checker.

A coloring is a list of classes, each carrying a label, a radius s and a
vertex set; vertices sharing a class must be pairwise further than s
apart.  ``verify`` enumerates every violating pair (it never stops at
the first failure) so tests can assert exact witness sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, VertexOutOfRangeError, ball, subdivide


class ColoringError(ValueError):
    pass


class RadiusMismatchError(ColoringError):
    """Class radii do not realize the requested packing sequence."""


class InvalidInputColoringError(ColoringError):
    """A derivation step was handed a coloring that does not verify."""


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

    Distances are explored lazily: per class, a breadth-first search
    truncated at the class radius runs from each member, so nothing
    close to an all-pairs matrix is ever built.  Every violating pair is
    reported, ordered by (class position, smaller id, larger id).
    """
    if coloring.n != g.n:
        raise ColoringError(f"coloring is for n={coloring.n}, graph has n={g.n}")
    counts = [0] * g.n
    for cls in coloring.classes:
        for v in cls.vertices:
            if not (0 <= v < g.n):
                raise VertexOutOfRangeError(
                    f"class {cls.label!r} mentions vertex {v} outside 0..{g.n - 1}"
                )
            counts[v] += 1
    missing = [v for v in range(g.n) if counts[v] == 0]
    multiply_assigned = [v for v in range(g.n) if counts[v] > 1]

    keyed: list[tuple[int, tuple[int, int], Violation]] = []
    for pos, cls in enumerate(coloring.classes):
        members = sorted(cls.vertices)
        member_set = cls.vertices
        for x in members:
            for y, d in ball(g, (x,), cls.radius).items():
                if y > x and y in member_set:
                    keyed.append((pos, (x, y), Violation(cls.label, cls.radius, (x, y), d)))
    keyed.sort(key=lambda item: item[:2])
    violations = [vi for _, _, vi in keyed]
    ok = not violations and not missing and not multiply_assigned
    return VerifyResult(ok, violations, missing, multiply_assigned)


def verify_sequence_shape(coloring: PackingColoring, seq: tuple[int, ...]) -> None:
    """Require the multiset of class radii to equal the packing sequence.

    Raises RadiusMismatchError on mismatch; class order is free.
    """
    have = tuple(sorted(coloring.radii()))
    want = tuple(sorted(seq))
    if have != want:
        raise RadiusMismatchError(f"class radii {have} do not match sequence {want}")


def derive_subdivision_coloring(g: Graph, coloring: PackingColoring) -> PackingColoring:
    """Lift a verified (1,1,2,2)-shaped coloring of g to its subdivision.

    Every subdivision vertex forms the radius-1 class; the original
    radius-1 classes become radii 2 and 3 (in input order) and the
    radius-2 classes become radii 4 and 5.  Distances double under
    subdivision, which is exactly the slack these new radii need.
    """
    result = verify(g, coloring)
    if not result.ok:
        raise InvalidInputColoringError(
            f"input coloring does not verify: {len(result.violations)} violation(s), "
            f"missing={result.missing}, multiply_assigned={result.multiply_assigned}"
        )
    ones = [cls for cls in coloring.classes if cls.radius == 1]
    twos = [cls for cls in coloring.classes if cls.radius == 2]
    if len(ones) > 2 or len(twos) > 2 or len(ones) + len(twos) != len(coloring.classes):
        raise InvalidInputColoringError(
            f"expected radii drawn from (1, 1, 2, 2), got {coloring.radii()}"
        )
    sg, smap = subdivide(g)
    classes = [
        ColorClass("sub", 1, frozenset(smap.edge_vertex.values())),
    ]
    for new_radius, cls in zip((2, 3), ones):
        classes.append(ColorClass(cls.label, new_radius, cls.vertices))
    for new_radius, cls in zip((4, 5), twos):
        classes.append(ColorClass(cls.label, new_radius, cls.vertices))
    return PackingColoring(sg.n, tuple(classes))
