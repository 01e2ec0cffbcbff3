"""Immutable simple undirected graphs with dense 0-based vertex ids.

Adjacency lists are kept sorted so that every traversal in the package is
deterministic.  ``build_graph`` validates and sorts an edge list from
outside the package (and the fixed families and random trees of
``spack.gen``).  A graph the package derives (an induced subgraph, a
subdivision, a decoded graph6 line, an outside square, a random
subcubic graph) is built as ``Graph(n, adj)`` straight from adjacency
lists that are sorted, symmetric and loop-free by construction.  A
subdivision's edge vertex ``n + k`` has the k-th edge ``(u, v)`` as its
adjacency row, so the subdivided graph itself maps edges to the
vertices splitting them, and ``subdivide`` builds no dict.  Every
distance the solvers need beyond two steps comes from one breadth-first
search, ``bfs``, which writes depths into a flat list that the caller
owns.  It has three callers: ``components`` (one list shared across
roots), the weights (one search from every light vertex) and
``bipartition_or_odd_cycle`` (parts from depth parity).  The two
checkers are the exceptions: ``spack.verify`` decides most classes by
set operations over neighbour lists and walks its own half-radius balls
for the rest, and ``spack.exact`` grows its distance masks by a bitmask
recurrence, so that a fault in ``bfs`` cannot hide in the checks of the
colorings built on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Base class for malformed graph input."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class VertexOutOfRangeError(GraphError):
    pass


class DegreeExceededError(GraphError):
    """Some vertex has degree larger than three."""


class EmptyGraphError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    ``adj[v]`` is the sorted tuple of v's neighbours.  Build one from
    outside input with ``build_graph``; construct it directly only from
    adjacency that is already sorted, symmetric and loop-free.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, rejecting malformed input.

    Raises SelfLoopError, DuplicateEdgeError or VertexOutOfRangeError.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(nbrs)) for nbrs in adj))


def assert_subcubic(g: Graph) -> None:
    """Raise DegreeExceededError unless every degree is at most 3.

    The error names the lowest-id vertex of degree above 3.
    """
    degrees = list(map(len, g.adj))
    if degrees and max(degrees) > 3:
        v = next(v for v, d in enumerate(degrees) if d > 3)
        raise DegreeExceededError(f"vertex {v} has degree {degrees[v]} > 3")


def is_cubic(g: Graph) -> bool:
    """True when the graph is 3-regular (vacuously false when empty)."""
    return g.n > 0 and min(map(len, g.adj)) == 3 == max(map(len, g.adj))


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise EmptyGraphError("minimum degree of the empty graph is undefined")
    return min(map(len, g.adj))


def bfs(g: Graph, sources: Iterable[int], dist: list[int]) -> list[int]:
    """Breadth-first search from all sources at once, over unreached vertices.

    A vertex is unreached while ``dist[v]`` is -1; the search enters no
    other vertex and rewrites no other entry.  Each reached vertex gets
    its distance to the nearest source in ``dist``.  The reached vertices
    are returned in BFS order, the sources first, so their distances
    never decrease along the list; the list is also the queue, walked
    while it grows.
    """
    order = []
    for s in sources:
        if dist[s] == -1:
            dist[s] = 0
            order.append(s)
    adj = g.adj
    for u in order:
        d = dist[u] + 1
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = d
                order.append(v)
    return order


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as ascending tuples, ordered by smallest vertex."""
    dist = [-1] * g.n
    return [tuple(sorted(bfs(g, (root,), dist))) for root in range(g.n) if dist[root] == -1]


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph and the host id of each of its vertices."""

    graph: Graph
    to_host: tuple[int, ...]


def induced(g: Graph, vertices: Iterable[int]) -> InducedSubgraph:
    """Induce on a vertex subset; ids are re-densified in ascending order.

    Every vertex of ``g`` induces ``g`` itself, not a copy, with the
    identity map.
    """
    order = sorted(set(vertices))
    # sorted, so only the two ends can fall outside the range
    for v in order[:1] + order[-1:]:
        if not (0 <= v < g.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{g.n - 1}")
    if len(order) == g.n:
        return InducedSubgraph(g, tuple(order))
    pos = [-1] * g.n  # pos[v]: v's id in the subgraph, or -1 when v is left out
    for i, v in enumerate(order):
        pos[v] = i
    # pos is monotone on the kept vertices, so each filtered host list stays sorted
    adj = tuple([tuple([pos[v] for v in g.adj[u] if pos[v] >= 0]) for u in order])
    return InducedSubgraph(Graph(len(order), adj), tuple(order))


@dataclass(frozen=True)
class SubdivisionMap:
    """Vertex bookkeeping for a subdivision: originals keep their ids.

    The ``n`` original vertices keep ids ``0 .. n - 1``.  By
    ``subdivide``'s id rule, vertex ``n + k`` splits the k-th edge of the
    original graph, and its adjacency row in ``subdivision`` is that
    edge, so the edge-to-vertex map is ``subdivision.adj[n:]`` read in
    order and needs no field of its own.
    """

    subdivision: Graph
    n: int


def subdivide(g: Graph) -> tuple[Graph, SubdivisionMap]:
    """Replace every edge by a length-2 path through a fresh vertex.

    Original vertices keep their ids; the vertex splitting edge (u, v)
    (with u < v) gets id ``n + k`` where k is the rank of the edge in
    sorted order, and its adjacency row is ``(u, v)``.  All pairwise
    distances exactly double.
    """
    edges = list(g.edges())
    # Ids are handed out in edge rank order, so each original vertex
    # collects its edge vertices already sorted: those of (w, u) for
    # w < u, then those of (u, v) for v > u.
    original: list[list[int]] = [[] for _ in range(g.n)]
    for k, (u, v) in enumerate(edges, g.n):
        original[u].append(k)
        original[v].append(k)
    sub = Graph(g.n + len(edges), tuple(map(tuple, original)) + tuple(edges))
    return sub, SubdivisionMap(sub, g.n)


@dataclass(frozen=True)
class Bipartition:
    part1: frozenset[int]
    part2: frozenset[int]


@dataclass(frozen=True)
class OddCycle:
    """A chordless odd cycle, listed in traversal order."""

    vertices: tuple[int, ...]


def bipartition_or_odd_cycle(g: Graph) -> Bipartition | OddCycle:
    """2-color by BFS depth parity, or return a chordless odd cycle certificate.

    Components are searched by ascending root id and each root lands in
    part 1, so the bipartition is deterministic.  Adjacent depths differ
    by at most one, so an edge whose ends share a part joins two vertices
    of one layer.  The certificate is closed at the first such edge in
    BFS scan order, in the first non-bipartite component, and shortened
    across chords; it is the one odd cycle the exchange search's square
    stage tries.
    """
    depth = [-1] * g.n
    for root in range(g.n):
        if depth[root] != -1:
            continue
        order = bfs(g, (root,), depth)
        for u in order:
            du = depth[u]
            for v in g.adj[u]:
                if depth[v] == du:
                    cycle = _cycle_through(g, order, u, v)
                    return OddCycle(tuple(_shorten_to_chordless(g, cycle)))
    part1 = frozenset(v for v in range(g.n) if depth[v] % 2 == 0)
    part2 = frozenset(v for v in range(g.n) if depth[v] % 2)
    return Bipartition(part1, part2)


def _cycle_through(g: Graph, order: list[int], u: int, v: int) -> list[int]:
    """Close the cycle formed by BFS-tree paths to u and v plus edge (u, v).

    A vertex's BFS parent is the neighbour that reached it first: its
    earliest neighbour in the BFS ``order`` of its component, always one
    layer up.  u and v share a layer, so walking both up in lockstep
    meets at their lowest common ancestor.
    """
    pos = dict(zip(order, range(len(order))))
    up, down = [u], [v]
    while u != v:
        u, v = min(g.adj[u], key=pos.__getitem__), min(g.adj[v], key=pos.__getitem__)
        up.append(u)
        down.append(v)
    return up + down[-2::-1]  # u .. lca, then back down to v


def _shorten_to_chordless(g: Graph, cycle: list[int]) -> list[int]:
    """Shortcut across chords until the (still odd) cycle is chordless."""
    while True:
        k = len(cycle)
        pos = {v: i for i, v in enumerate(cycle)}
        chord = None
        for i, u in enumerate(cycle):
            for v in g.adj[u]:
                j = pos.get(v)
                if j is None or j <= i:
                    continue
                if j - i == 1 or (i == 0 and j == k - 1):
                    continue  # a cycle edge, not a chord
                chord = (i, j)
                break
            if chord:
                break
        if chord is None:
            return cycle
        i, j = chord
        inner = cycle[i : j + 1]
        outer = cycle[j:] + cycle[: i + 1]
        cycle = inner if len(inner) % 2 == 1 else outer
