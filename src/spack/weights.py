"""Distance-to-light-vertex weights and the search potential.

A vertex is *light* when its degree is at most 2.  The weight of x is
``1 + dist(x, nearest light vertex)``.  Two facts drive the exchange
search:

* adjacent weights differ by at most one, and
* a degree-3 vertex always satisfies ``w(x) = 1 + min over neighbors``.

The potential of a bipartition compares edge count first and total
weight second, so any move that adds an edge, or keeps edges and adds
weight, is strict progress.  ``inside_potential`` counts it from
scratch, ``touched_potential`` only the part that a side change of given
vertices can move.
"""
from __future__ import annotations

from itertools import chain, compress
from operator import not_
from typing import Iterable, NamedTuple, Sequence

from .graph import EmptyGraphError, Graph, GraphError, bfs


class CubicGraphError(GraphError):
    """No vertex of degree <= 2 exists, so weights are undefined."""


class DisconnectedError(GraphError):
    pass


class Potential(NamedTuple):
    """Lexicographic objective: edges inside the bipartition, then weight."""

    edges: int
    weight: int


def compute_weights(g: Graph) -> list[int]:
    """Per-vertex weights on a connected graph with a light vertex.

    Raises EmptyGraphError, CubicGraphError (3-regular input) or
    DisconnectedError.
    """
    if g.n == 0:
        raise EmptyGraphError("weights are undefined on the empty graph")
    sources = [v for v, d in enumerate(map(len, g.adj)) if d <= 2]
    if not sources:
        raise CubicGraphError("graph is 3-regular; no light vertex to anchor weights")
    dist = [-1] * g.n
    if len(bfs(g, sources, dist)) < g.n:
        raise DisconnectedError("graph is not connected")
    return [d + 1 for d in dist]


def inside_potential(g: Graph, w: list[int], inside: Sequence[int]) -> Potential:
    """Potential of the vertices v with ``inside[v]`` truthy, from scratch.

    ``inside`` may be an exchange state's side list (0 = outside).  It
    is counted over the outside O, the smaller part at a fixpoint: an
    edge leaves the inside edges when an end is in O, and the degree sum
    of O counts the edges with both ends in O twice, so the inside edges
    are m - (degree sum of O) + (edges within O), and the inside weight
    is sum(w) - (weight of O).
    """
    out = list(map(not_, inside))
    rows = list(compress(g.adj, out))
    within = sum(map(out.__getitem__, chain.from_iterable(rows))) // 2
    return Potential(g.edge_count - sum(map(len, rows)) + within, sum(w) - sum(compress(w, out)))


def touched_potential(
    g: Graph, w: list[int], inside: Sequence[int], vertices: Iterable[int]
) -> Potential:
    """The part of the potential that depends on ``vertices``.

    Counts the inside edges with at least one end in ``vertices`` and
    the inside weight of ``vertices``.  Every other inside edge, and
    every other vertex's weight, is the same whichever side the given
    vertices take, so when only they change side the potential changes
    by exactly the difference of this count before and after.
    """
    touched = set(vertices)
    edges = weight = 0
    for v in touched:
        if inside[v]:
            weight += w[v]
            for u in g.adj[v]:
                # an edge between two touched vertices is counted from its lower end
                if inside[u] and (u > v or u not in touched):
                    edges += 1
    return Potential(edges, weight)
