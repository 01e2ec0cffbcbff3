"""Independent reference implementations the tests check the package against.

Nothing here reuses solver code: distances come from a Floyd-Warshall
matrix, colorability from a plain backtracking search that assigns
vertices in id order with no ordering heuristics, bitmasks or pruning,
graph6 decoding from a walk over every bit of the body, and graph6
encoding from a walk over every vertex pair.

The one exception is ``reference_run_to_fixpoint``: the exchange search
as it was before the dirty-flag worklist, which rescans Absorb, Flip,
Deg3Exchange and SameSideExchange over every vertex after each commit.
It shares the move primitives of ``spack.exchange`` and keeps only the
scan loop, so a differential test can show that the worklist commits
the same moves in the same order.  Its square stage builds the outside
square from the distance matrix and 2-colours it by its own BFS.  On an
odd square it takes the library's certificate, the one cycle the
search tries, only after checking that it is a chordless odd cycle of
that square, and validates its own swap candidates for it with
``apply_move``: ``reference_swap_candidates``, the library's generator
as it was when it kept a set of the candidates already given, kept
verbatim, so a differential test can show that the once-each
enumeration yields the same candidates in the same order.

``reference_decide`` is the second exception: the exact oracle as it
was before the iterative search, a recursive backtracking over the
vertices in descending-degree order that raises the recursion limit to
n + 200 while it runs.  It shares the ball masks of ``spack.exact``, and
``reference_chi_rho`` loops it over k, so differential tests can show
that the iterative search reaches the same verdicts and chi values.
``reference_search`` is the iterative search as it was before the
dead-vertex check, kept verbatim: on the same plan the library's search
must return the same verdict and the same witness, in no more nodes.

``reference_verify`` is the third: the verifier as it was before the
half-radius search, one breadth-first search truncated at the full
class radius from every member of a class.  That search is ``ball``,
the dict-returning, radius-limited search the library used before
``graph.bfs``, kept here verbatim; ``spack.verify`` walks its
half-radius balls over flat lists of its own.  So differential tests
can show that meeting radius-(s // 2) balls finds the same violations
with the same distances in the same order, by a search that shares no
code with the one it is checked against, nor with the solvers'.

``reference_bipartition_or_odd_cycle`` is the library's square
2-colouring as it was before ``graph.bfs``: a ``deque`` search with
parent and colour lists.  It shares only ``_shorten_to_chordless``, so
a differential test can pin that depth parity gives the same parts and
the same odd-cycle certificate, which the move trails depend on.

``_absorb_side``, ``_flip_side`` and ``_exchange_side`` are the
library's Absorb, Flip and SameSideExchange rules as they were before
``exchange._outside_sides`` answered the three together, one function
per rule, kept verbatim: the worklist tests check every flag against
each rule on its own.  ``reference_inside_potential`` is the library's
from-scratch potential count as it was before it counted from the
outside vertices, a walk over the inside ones, kept verbatim, so a
differential test can pin the two counts together.

The module also holds the helpers only tests need: the two weight
predicates, a set-based state constructor, a copy-on-write move
application, a coloring constructor and a check that a graph built
straight from adjacency lists is the graph ``build_graph`` makes from
its edges.
"""
from __future__ import annotations

import math
import sys
from collections import deque
from functools import lru_cache
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Iterator

from spack.exact import (
    DEFAULT_BUDGET,
    ChiRhoResult,
    DecisionOutcome,
    Status,
    _balls,
    _validate_sequence,
    class_labels,
)
from spack.exchange import (
    OUTSIDE,
    Absorb,
    BipartitionState,
    Candidate,
    CycleSwap,
    Deg3Exchange,
    FixpointResult,
    Flip,
    InvalidMoveError,
    InvalidStateError,
    Move,
    MoveBudgetExceededError,
    MoveRecord,
    PathSwap,
    SameSideExchange,
    SquareBipartition,
    StuckError,
    _hub_side,
    _other,
    _state_from_sides,
    check_fixpoint_invariants,
    commit_move,
    evaluate_move,
)
from spack.graph import (
    Bipartition,
    Graph,
    OddCycle,
    VertexOutOfRangeError,
    _shorten_to_chordless,
    bipartition_or_odd_cycle,
    build_graph,
)
from spack.graphio import (
    GRAPH6_HEADER,
    TrailingBitsError,
    _char_value,
    _parse_size,
    _size_prefix,
    parse_graph6,
)
from spack.verify import (
    ColorClass,
    ColoringError,
    PackingColoring,
    VerifyResult,
    Violation,
)
from spack.weights import Potential

DATA_DIR = Path(__file__).parent / "data"
CORPUS_FILE = DATA_DIR / "connected_subcubic.g6"

# Connected subcubic graphs per vertex count, cross-checked against the
# graph atlas (n <= 7) and the known 3-regular counts 1 / 2 / 5 for
# n = 4 / 6 / 8 when the corpus file was generated.
CORPUS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 10, 6: 29, 7: 64, 8: 194, 9: 531}


def distance_matrix(g: Graph) -> list[list[float]]:
    """All-pairs distances by Floyd-Warshall; unreachable pairs get inf."""
    dist = [[math.inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0.0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1.0
    for k in range(g.n):
        row_k = dist[k]
        for i in range(g.n):
            through = dist[i][k]
            if through == math.inf:
                continue
            row_i = dist[i]
            for j in range(g.n):
                if through + row_k[j] < row_i[j]:
                    row_i[j] = through + row_k[j]
    return dist


def ball(
    g: Graph, sources: Iterable[int], radius: int | float = math.inf
) -> dict[int, int]:
    """Distance to the nearest source for every vertex within ``radius``.

    One breadth-first search from all sources at once, a layer at a
    time.  The keys come in BFS order, the sources first, so the
    distances never decrease along the dict.  With the default radius
    the whole of each source's component is reached.
    """
    dist = dict.fromkeys(sources, 0)
    layer = list(dist)
    d = 0
    while layer and d < radius:
        d += 1
        next_layer = []
        for u in layer:
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = d
                    next_layer.append(v)
        layer = next_layer
    return dist


def reference_bipartition_or_odd_cycle(g: Graph) -> Bipartition | OddCycle:
    """2-color by BFS, or return a chordless odd cycle certificate.

    Components are processed by ascending root id and each root lands in
    part 1, so the bipartition is deterministic.  The certificate is
    closed at the first edge whose ends share a part, in the first
    non-bipartite component, and shortened across chords.
    """
    color: list[int] = [0] * g.n
    parent: list[int] = [-1] * g.n
    for root in range(g.n):
        if color[root]:
            continue
        color[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not color[v]:
                    color[v] = 3 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    cycle = _reference_cycle_through(parent, u, v)
                    return OddCycle(tuple(_shorten_to_chordless(g, cycle)))
    part1 = frozenset(v for v in range(g.n) if color[v] == 1)
    part2 = frozenset(v for v in range(g.n) if color[v] == 2)
    return Bipartition(part1, part2)


def _reference_cycle_through(parent: list[int], u: int, v: int) -> list[int]:
    """Close the cycle formed by BFS-tree paths to u and v plus edge (u, v).

    The parts alternate with BFS depth, so a same-part edge joins two
    vertices of one layer, and walking both up in lockstep meets at
    their lowest common ancestor.
    """
    up, down = [u], [v]
    while u != v:
        u, v = parent[u], parent[v]
        up.append(u)
        down.append(v)
    return up + down[-2::-1]  # u .. lca, then back down to v


def naive_packing_assignment(g: Graph, radii: tuple[int, ...]) -> list[int] | None:
    """One S-packing coloring as a vertex -> class-index list, or None.

    Vertices are assigned in id order; a class c is legal for v when no
    earlier vertex of class c sits within distance radii[c].
    """
    dist = distance_matrix(g)
    assign = [-1] * g.n

    def legal(v: int, c: int) -> bool:
        return all(
            assign[u] != c or dist[u][v] > radii[c] for u in range(v)
        )

    def place(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(len(radii)):
            if legal(v, c):
                assign[v] = c
                if place(v + 1):
                    return True
                assign[v] = -1
        return False

    return list(assign) if place(0) else None


def naive_packing_colorable(g: Graph, radii: tuple[int, ...]) -> bool:
    return naive_packing_assignment(g, radii) is not None


def naive_chi_rho(g: Graph, k_max: int = 8) -> int | None:
    """Least k with a (1, 2, ..., k)-packing coloring, or None past k_max."""
    for k in range(1, k_max + 1):
        if naive_packing_colorable(g, tuple(range(1, k + 1))):
            return k
    return None


def violating_pairs(
    g: Graph, radius: int, vertices: frozenset[int]
) -> set[tuple[int, int]]:
    """Same-class pairs at distance <= radius, by the distance matrix."""
    dist = distance_matrix(g)
    ordered = sorted(vertices)
    return {
        (u, v)
        for i, u in enumerate(ordered)
        for v in ordered[i + 1 :]
        if dist[u][v] <= radius
    }


@lru_cache(maxsize=None)
def _corpus_graphs() -> tuple[Graph, ...]:
    return tuple(
        parse_graph6(line) for line in CORPUS_FILE.read_text().split()
    )


def load_corpus(max_n: int = 9, include_cubic: bool = True) -> list[Graph]:
    """Every connected subcubic graph with 1 <= n <= max_n, from disk."""
    out = []
    for g in _corpus_graphs():
        if g.n > max_n:
            continue
        if not include_cubic and g.n > 0 and all(g.degree(v) == 3 for v in range(g.n)):
            continue
        out.append(g)
    return out


def reference_parse_graph6(text: str) -> Graph:
    """Decode one graph6 line by testing every bit of its body in turn."""
    text = text.strip()
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER) :]
    n, body = _parse_size(text)
    total_bits = n * (n - 1) // 2
    need = (total_bits + 5) // 6
    if len(body) != need:
        raise TrailingBitsError(
            f"n={n} needs {need} body bytes, got {len(body)}"
        )
    values = [_char_value(ch) for ch in body]
    edges = []
    index = 0
    for v in range(1, n):
        for u in range(v):
            if values[index // 6] & (1 << (5 - index % 6)):
                edges.append((u, v))
            index += 1
    while index < 6 * need:
        if values[index // 6] & (1 << (5 - index % 6)):
            raise TrailingBitsError("nonzero padding bits")
        index += 1
    return build_graph(n, edges)


def reference_encode_graph6(g: Graph) -> str:
    """Encode a graph6 line by testing every vertex pair in turn."""
    nbr = [set(g.adj[v]) for v in range(g.n)]
    out = [_size_prefix(g.n)]
    acc = 0
    filled = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = (acc << 1) | (1 if u in nbr[v] else 0)
            filled += 1
            if filled == 6:
                out.append(chr(acc + 63))
                acc = 0
                filled = 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)


def assert_canonical(g: Graph) -> None:
    """Assert that ``g`` is what ``build_graph`` makes of its own edges.

    That holds exactly when every adjacency list is a tuple that is
    sorted, duplicate-free and loop-free, and adjacency is symmetric.
    """
    assert g == build_graph(g.n, g.edges()), g


def reference_verify(g: Graph, coloring: PackingColoring) -> VerifyResult:
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


def make_coloring(n: int, triples) -> PackingColoring:
    """A coloring from (label, radius, vertices) triples."""
    return PackingColoring(
        n, tuple(ColorClass(label, radius, frozenset(vs)) for label, radius, vs in triples)
    )


def class_of(coloring: PackingColoring) -> dict[int, str]:
    """Vertex -> label map (later classes win on duplicates)."""
    return {v: cls.label for cls in coloring.classes for v in cls.vertices}


def check_weight_smoothness(g: Graph, w: list[int]) -> list[tuple[int, int]]:
    """Edges whose endpoint weights differ by more than one (should be none)."""
    return [(u, v) for u, v in g.edges() if abs(w[u] - w[v]) > 1]


def check_weight_recurrence(g: Graph, w: list[int]) -> list[int]:
    """Degree-3 vertices violating ``w(x) = 1 + min neighbor weight``."""
    return [
        v
        for v in range(g.n)
        if g.degree(v) == 3 and w[v] != 1 + min(w[u] for u in g.adj[v])
    ]


def reference_potential(g: Graph, w: list[int], side) -> Potential:
    """Inside edges and inside weight of a side list, by a walk over ``g.edges()``."""
    return Potential(
        sum(1 for u, v in g.edges() if side[u] and side[v]),
        sum(w[v] for v in range(g.n) if side[v]),
    )


def reference_inside_potential(g: Graph, w: list[int], inside) -> Potential:
    """Potential of the vertices v with ``inside[v]`` truthy, from scratch.

    ``inside`` may be an exchange state's side list (0 = outside).  Each
    edge with both ends inside is seen once from either end, so the
    adjacency walk over the inside vertices counts it twice.
    """
    mask = list(map(bool, inside))
    ends = sum(map(mask.__getitem__, chain.from_iterable(compress(g.adj, mask))))
    return Potential(ends // 2, sum(compress(w, mask)))


def make_state(g: Graph, w: list[int], s1, s2) -> BipartitionState:
    """Assemble and validate a state from explicit side sets."""
    a, b = frozenset(s1), frozenset(s2)
    if a & b:
        raise InvalidStateError(f"sides overlap on {sorted(a & b)}")
    side = [OUTSIDE] * g.n
    for v in a:
        side[v] = 1
    for v in b:
        side[v] = 2
    return _state_from_sides(g, w, side)


def apply_move(g: Graph, w: list[int], state: BipartitionState, move: Move) -> BipartitionState:
    """Validate a move and commit it into a copy of ``state``.

    Raises InvalidMoveError when independence would break or the
    potential would not strictly increase.
    """
    found = evaluate_move(g, w, state, move)
    out = state.copy()
    commit_move(g, out, found)
    return out


def _try_move(g: Graph, w: list[int], state: BipartitionState, move: Move) -> Candidate | None:
    """``evaluate_move``, or None where it raises InvalidMoveError."""
    try:
        return evaluate_move(g, w, state, move)
    except InvalidMoveError:
        return None


def _absorb_side(g: Graph, w: list[int], state: BipartitionState, x: int) -> int:
    """Absorb's rule: the first side where outside x has no neighbor, or 0.

    Reads sides within distance 1.  Absorbing x there adds w[x] >= 1 to
    the inside weight and loses no inside edge.
    """
    if state.side[x] != OUTSIDE:
        return 0
    nbr = state.nbr
    return 1 if nbr[1][x] == 0 else 2 if nbr[2][x] == 0 else 0


def _flip_side(g: Graph, w: list[int], state: BipartitionState, x: int) -> int:
    """Flip's rule: the first side s where outside x has neighbors and none has a neighbor across, or 0.

    Reads sides within distance 2.  Those neighbors had no inside edge
    (s is independent and nothing across touches them); after the flip
    each has one to x, so the inside edges grow by at least one.
    """
    side = state.side
    if side[x] != OUTSIDE:
        return 0
    nbr = state.nbr
    for s in (1, 2):
        if nbr[s][x]:
            across = nbr[_other(s)]
            for u in g.adj[x]:
                if side[u] == s and across[u]:
                    break
            else:
                return s
    return 0


def _exchange_side(g: Graph, w: list[int], state: BipartitionState, x: int) -> int:
    """SameSideExchange's rule: the side of the lone S-neighbor x3 of outside x, or 0.

    It holds when x has three neighbors in S split 2 + 1 across the
    sides and x3, the one alone on its side, has S-degree at most 1 or
    is lighter than x.  Reads sides within distance 2.  x3 has at most
    two S-neighbors (x is outside), so x taking its place gains
    2 - s_degree(x3) >= 0 inside edges, and w[x] - w[x3] > 0 weight when
    that gain is 0.
    """
    side = state.side
    if side[x] != OUTSIDE:
        return 0
    in1, in2 = state.nbr[1], state.nbr[2]
    if in1[x] + in2[x] != 3 or in1[x] == 3 or in2[x] == 3:
        return 0  # fewer than three S-neighbors, or absorbable rather than exchangeable
    s = 1 if in1[x] == 1 else 2
    for x3 in g.adj[x]:
        if side[x3] == s:
            return s if in1[x3] + in2[x3] <= 1 or w[x3] < w[x] else 0


def _find_absorb(g: Graph, state: BipartitionState) -> Absorb | None:
    for x in range(g.n):
        if state.side[x] != OUTSIDE:
            continue
        if state.nbr[1][x] == 0:
            return Absorb(x, 1)
        if state.nbr[2][x] == 0:
            return Absorb(x, 2)
    return None


def _find_flip(g: Graph, w: list[int], state: BipartitionState) -> Flip | None:
    for x in range(g.n):
        if state.side[x] != OUTSIDE:
            continue
        for side in (1, 2):
            displaced = tuple(u for u in g.adj[x] if state.side[u] == side)
            if not displaced:
                continue
            other_counts = state.nbr[_other(side)]
            if all(other_counts[u] == 0 for u in displaced):
                found = _try_move(g, w, state, Flip(x, side, displaced))
                if found:
                    return found.move
    return None


def _find_deg3_exchange(g: Graph, w: list[int], state: BipartitionState) -> Deg3Exchange | None:
    for z in range(g.n):
        if state.side[z] == OUTSIDE or g.degree(z) != 3 or state.s_degree(z) != 0:
            continue
        # all three neighbors of z are outside and z is isolated in S
        if any(state.side[u] != OUTSIDE for u in g.adj[z]):
            continue
        for x in g.adj[z]:
            if w[x] >= w[z]:
                continue
            for y in g.adj[x]:
                if state.side[y] == OUTSIDE or w[y] >= w[x]:
                    continue
                found = _try_move(g, w, state, Deg3Exchange(z, x, y))
                if found:
                    return found.move
    return None


def reference_deg3_exchange_at(
    g: Graph, w: list[int], state: BipartitionState, z: int
) -> Candidate | None:
    """The first validated Deg3Exchange at hub z over every (x, y) pair, or None.

    Tries each neighbor x lighter than z and, for each, each lighter
    neighbor y of x in S, returning the first trade that validates as a
    Candidate.  ``_hub_move`` builds only the first pair; the hub lemma
    says that pair validates once no Absorb or Flip rule holds.
    """
    if not _hub_side(g, w, state, z):
        return None
    for x in g.adj[z]:
        if w[x] >= w[z]:
            continue
        for y in g.adj[x]:
            if state.side[y] == OUTSIDE or w[y] >= w[x]:
                continue
            found = _try_move(g, w, state, Deg3Exchange(z, x, y))
            if found:
                return found
    return None


def _find_same_side_exchange(g: Graph, w: list[int], state: BipartitionState) -> SameSideExchange | None:
    for x in range(g.n):
        if state.side[x] != OUTSIDE or state.s_degree(x) != 3:
            continue
        if state.nbr[1][x] == 3 or state.nbr[2][x] == 3:
            continue  # absorbable, not exchangeable
        lone_side = 1 if state.nbr[1][x] == 1 else 2
        x3 = next(u for u in g.adj[x] if state.side[u] == lone_side)
        if state.s_degree(x3) <= 1 or w[x3] < w[x]:
            found = _try_move(g, w, state, SameSideExchange(x, x3))
            if found:
                return found.move
    return None


def reference_swap_candidates(
    g: Graph, state: BipartitionState, cycle: tuple[int, ...]
) -> Iterator[Move]:
    """Candidate Cycle/Path swaps for one chordless odd outside cycle.

    Each candidate enters a contiguous arc of the cycle onto one side
    (optionally sending one endpoint to the opposite side) and displaces
    every S-neighbor the entrants would otherwise conflict with, so
    independence holds by construction.  Long arcs come first; the
    caller validates each candidate against the potential and applies
    the first strict increase.  A k-cycle yields at most 6k(k - 1)
    candidates (k - 1 arc lengths, k starts, two sides, three crossing
    choices), so trying them all needs no cap.
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

    seen: set[tuple[frozenset[int], int, int | None]] = set()
    for length in range(k, 1, -1):
        for start in range(k):
            idx = [(start + t) % k for t in range(length)]
            arc = tuple(cycle[i] for i in idx)
            # Consecutive entrants joined by a genuine graph edge can
            # only coexist when the pair straddles the two sides, i.e.
            # when one of them is the crossed endpoint.
            pairs = [(arc[t], arc[t + 1]) for t in range(length - 1) if genuine(idx[t], idx[t + 1])]
            if length == k and genuine(start - 1, start):
                pairs.append((arc[-1], arc[0]))

            for side in (1, 2):
                for cross in (None, arc[-1], arc[0]):
                    if any(cross not in pair for pair in pairs):
                        continue
                    key = (frozenset(arc), side, cross)
                    if key in seen:
                        continue
                    seen.add(key)
                    displaced = displaced_for(arc, side, cross)
                    if length == k and cross is None:
                        yield CycleSwap(cycle, displaced, side)
                    else:
                        yield PathSwap(arc, displaced, side, cross)


def _reference_square_stage(
    g: Graph, w: list[int], state: BipartitionState, dist: list[list[float]]
) -> SquareBipartition | Move:
    """Bipartition the outside square, or the first validated swap on its odd cycle.

    Two outside vertices are adjacent in the square when ``dist`` puts
    them within distance 2.  A BFS from each uncoloured outside vertex,
    in ascending id, puts its root in part 1.  Raises StuckError, as the
    library does, when no candidate swap validates.
    """
    outside = [v for v in range(g.n) if state.side[v] == OUTSIDE]
    near = {x: [y for y in outside if y != x and dist[x][y] <= 2] for x in outside}
    color: dict[int, int] = {}
    odd = False
    for root in outside:
        if root in color:
            continue
        color[root] = 1
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in near[x]:
                if y not in color:
                    color[y] = 3 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    odd = True
    if not odd:
        return SquareBipartition(
            frozenset(x for x in outside if color[x] == 1),
            frozenset(x for x in outside if color[x] == 2),
        )
    index = {x: i for i, x in enumerate(outside)}
    square = build_graph(len(outside), [(index[x], index[y]) for x in outside for y in near[x] if x < y])
    certificate = bipartition_or_odd_cycle(square)
    assert isinstance(certificate, OddCycle), "the library 2-colours an odd outside square"
    cycle = tuple(outside[i] for i in certificate.vertices)
    k = len(cycle)
    assert k % 2 == 1 and k >= 3 and len(set(cycle)) == k, cycle
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            assert (dist[cycle[i]][cycle[j]] <= 2) == consecutive, (cycle, i, j)
    for move in reference_swap_candidates(g, state, cycle):
        try:
            apply_move(g, w, state, move)
        except InvalidMoveError:
            continue
        return move
    raise StuckError(f"no validated swap for the odd outside cycle {cycle}", state, cycle)


def reference_run_to_fixpoint(
    g: Graph,
    w: list[int],
    state: BipartitionState,
    *,
    validate: bool = True,
) -> FixpointResult:
    """Drive the state to a fixpoint whose outside square is bipartite.

    After exhausting the cheap moves the outside square graph is built;
    if it is bipartite we are done, otherwise a validated cycle or path
    swap is committed and the loop restarts from Absorb.  ``validate``
    additionally recounts the potential from scratch after every commit
    and checks the structural fixpoint invariants.

    Raises StuckError when an odd cycle resists every candidate swap and
    MoveBudgetExceededError when the step budget runs out; both indicate
    a bug or an unhandled configuration, never a corrupted state.
    """
    budget = (g.edge_count + 1) * (sum(w) + 1)
    records: list[MoveRecord] = []
    dist = distance_matrix(g)

    def commit(move: Move) -> None:
        nonlocal state
        before = state.potential
        state = apply_move(g, w, state, move)
        records.append(MoveRecord(move, before, state.potential))
        if validate:
            scratch = reference_potential(g, w, state.side)
            if scratch != state.potential:
                raise InvalidStateError(
                    f"cached potential {state.potential} != recount {scratch} after {move}"
                )
        if len(records) > budget:
            raise MoveBudgetExceededError(f"move budget {budget} exhausted")

    while True:
        mv = (
            _find_absorb(g, state)
            or _find_flip(g, w, state)
            or _find_deg3_exchange(g, w, state)
            or _find_same_side_exchange(g, w, state)
        )
        if mv is not None:
            commit(mv)
            continue
        if validate:
            problems = check_fixpoint_invariants(g, w, state)
            if problems:
                raise InvalidStateError("fixpoint invariants violated: " + "; ".join(problems))
        found = _reference_square_stage(g, w, state, dist)
        if isinstance(found, SquareBipartition):
            return FixpointResult(state, found, records)
        commit(found)


def reference_decide(g: Graph, seq, budget: int = DEFAULT_BUDGET) -> DecisionOutcome:
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


def reference_search(
    order: list[int], masks: list[tuple[int, ...]], seq: tuple[int, ...], budget: int
) -> DecisionOutcome:
    """Backtrack over the classes of ``seq`` with an explicit stack.

    ``masks[d][i]`` is the radius-``seq[i]`` mask of the vertex placed at
    depth d; a longer tuple is fine, only its first len(seq) entries are
    read.
    """
    n, k = len(order), len(seq)
    labels = class_labels(seq)
    # twin[i]: class i has the radius of class i - 1; it is opened only
    # once class i - 1 is, since equal-radius classes are interchangeable.
    twin = [i > 0 and seq[i] == seq[i - 1] for i in range(k)]
    bits = [1 << v for v in order]
    occupied = [0] * k
    chosen = [0] * n  # chosen[d]: class committed at depth d; d's next try is chosen[d] + 1
    nodes = 0
    depth = 0
    i = 0  # next class to try at this depth
    while depth < n:
        m = masks[depth]
        while i < k and (occupied[i] & m[i] or (twin[i] and not occupied[i] and not occupied[i - 1])):
            i += 1
        if i < k:
            nodes += 1
            if nodes > budget:
                return DecisionOutcome(Status.BUDGET, None, nodes)
            occupied[i] |= bits[depth]
            chosen[depth] = i
            depth += 1
            i = 0
        elif depth:
            depth -= 1
            i = chosen[depth]
            occupied[i] ^= bits[depth]
            i += 1
        else:
            return DecisionOutcome(Status.UNSAT, None, nodes)
    members: list[set[int]] = [set() for _ in range(k)]
    for v, c in zip(order, chosen):
        members[c].add(v)
    classes = tuple(ColorClass(labels[i], seq[i], frozenset(members[i])) for i in range(k))
    return DecisionOutcome(Status.SAT, PackingColoring(n, classes), nodes)


def reference_chi_rho(g: Graph, k_max: int, budget: int = DEFAULT_BUDGET) -> ChiRhoResult:
    """``chi_rho`` as a loop of ``reference_decide`` calls, one per k."""
    total = 0
    for k in range(1, k_max + 1):
        outcome = reference_decide(g, tuple(range(1, k + 1)), budget=budget)
        total += outcome.nodes
        if outcome.status is Status.SAT:
            return ChiRhoResult(k, outcome.coloring, total, False)
        if outcome.status is Status.BUDGET:
            return ChiRhoResult(None, None, total, True)
    return ChiRhoResult(None, None, total, False)
