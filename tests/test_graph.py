import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_canonical,
    ball,
    distance_matrix,
    make_state,
    reference_bipartition_or_odd_cycle,
)
from spack.exchange import square_outside
from spack.gen import cycle, path, petersen
from spack.graph import (
    Bipartition,
    DegreeExceededError,
    DuplicateEdgeError,
    EmptyGraphError,
    GraphError,
    OddCycle,
    SelfLoopError,
    VertexOutOfRangeError,
    assert_subcubic,
    bfs,
    bipartition_or_odd_cycle,
    build_graph,
    components,
    induced,
    is_cubic,
    min_degree,
    subdivide,
)
from strategies import loose_graphs, subcubic_graphs


def test_build_graph_p3():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.adj == ((1,), (0, 2), (1,))
    assert g.edge_count == 2
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)


def test_build_graph_single_vertex_and_empty():
    assert build_graph(1, []).adj == ((),)
    assert build_graph(0, []).n == 0
    assert list(build_graph(0, []).edges()) == []


def test_build_graph_sorts_adjacency():
    g = build_graph(4, [(3, 0), (2, 0), (0, 1)])
    assert g.adj[0] == (1, 2, 3)


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(1, 1)])


def test_build_graph_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(2, [(0, 2)])
    with pytest.raises(VertexOutOfRangeError):
        build_graph(2, [(-1, 0)])


def test_build_graph_rejects_negative_count():
    with pytest.raises(GraphError):
        build_graph(-1, [])


def test_assert_subcubic():
    assert_subcubic(cycle(5))
    assert_subcubic(build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    star5 = build_graph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(DegreeExceededError):
        assert_subcubic(star5)


def test_assert_subcubic_names_the_lowest_offender():
    # vertex 2 has degree 4 and vertex 7 degree 5; vertex 0 only degree 1
    edges = [(0, 2), (1, 2), (2, 3), (2, 4)] + [(7, v) for v in (1, 3, 4, 5, 6)]
    with pytest.raises(DegreeExceededError, match=r"^vertex 2 has degree 4 > 3$"):
        assert_subcubic(build_graph(8, edges))
    with pytest.raises(DegreeExceededError, match=r"^vertex 7 has degree 5 > 3$"):
        assert_subcubic(build_graph(8, edges[1:]))
    assert_subcubic(build_graph(0, []))
    assert_subcubic(build_graph(1, []))


def test_is_cubic():
    assert is_cubic(petersen())
    assert not is_cubic(cycle(4))
    assert not is_cubic(build_graph(0, []))
    assert not is_cubic(build_graph(1, []))
    # a 3-regular part does not make the graph 3-regular
    assert not is_cubic(build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))


def test_min_degree():
    assert min_degree(cycle(4)) == 2
    assert min_degree(path(3)) == 1
    assert min_degree(build_graph(1, [])) == 0
    with pytest.raises(EmptyGraphError):
        min_degree(build_graph(0, []))


def test_edge_count():
    assert build_graph(0, []).edge_count == 0
    assert build_graph(1, []).edge_count == 0
    assert petersen().edge_count == 15


def test_distances_c5():
    dist = [-1] * 5
    assert bfs(cycle(5), (0,), dist) == [0, 1, 4, 2, 3]  # BFS order
    assert dist == [0, 1, 2, 2, 1]


def test_distances_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    dist = [-1] * 4
    assert bfs(g, (0,), dist) == [0, 1]
    assert dist == [0, 1, -1, -1]


def _nearest(matrix, sources, n):
    """Floyd-Warshall distance to the nearest source, -1 when none is reachable."""
    near = [min((matrix[s][v] for s in sources), default=math.inf) for v in range(n)]
    return [-1 if d == math.inf else d for d in near]


@given(loose_graphs(max_n=8, max_degree=7))
def test_distances_match_floyd_warshall(g):
    matrix = distance_matrix(g)
    for source in range(g.n):
        dist = [-1] * g.n
        bfs(g, (source,), dist)
        assert dist == _nearest(matrix, (source,), g.n)


@given(loose_graphs(max_n=8, max_degree=7), st.data())
def test_bfs_several_sources_order_and_depths(g, data):
    sources = data.draw(st.permutations(range(g.n)))[: data.draw(st.integers(0, g.n))]
    dist = [-1] * g.n
    order = bfs(g, sources, dist)
    assert dist == _nearest(distance_matrix(g), sources, g.n)
    assert order[: len(sources)] == sources
    assert sorted(order) == [v for v in range(g.n) if dist[v] != -1]
    depths = [dist[v] for v in order]
    assert depths == sorted(depths)


@given(loose_graphs(max_n=8, max_degree=7), st.data())
def test_bfs_leaves_reached_vertices_alone(g, data):
    # A vertex already given a distance is a wall: it is neither entered
    # nor rewritten, even as a source, and the rest is searched as if it
    # were deleted.
    blocked = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    sources = data.draw(st.lists(st.integers(0, g.n - 1), unique=True)) if g.n else []
    dist = [7 if v in blocked else -1 for v in range(g.n)]
    order = bfs(g, sources, dist)
    assert not blocked & set(order)
    assert [dist[v] for v in blocked] == [7] * len(blocked)
    rest = induced(g, set(range(g.n)) - blocked)
    kept = [rest.to_host.index(s) for s in sources if s not in blocked]
    expect = _nearest(distance_matrix(rest.graph), kept, rest.graph.n)
    assert [dist[v] for v in rest.to_host] == expect


@given(loose_graphs(max_n=8, max_degree=7), st.data())
def test_ball_several_sources_within_radius(g, data):
    # ``ball`` is the tests' own radius-limited search: reference_verify
    # and the exact oracle's mask check rest on it.
    sources = data.draw(st.permutations(range(g.n)))[: data.draw(st.integers(0, g.n))]
    radius = data.draw(st.integers(0, 4))
    matrix = distance_matrix(g)
    nearest = {v: min((matrix[s][v] for s in sources), default=math.inf) for v in range(g.n)}
    dist = ball(g, sources, radius)
    assert dist == {v: d for v, d in nearest.items() if d <= radius}
    assert list(dist)[: len(sources)] == sources
    assert list(dist.values()) == sorted(dist.values())


def test_components_order_and_cover():
    g = build_graph(6, [(4, 5), (1, 2)])
    assert components(g) == [(0,), (1, 2), (3,), (4, 5)]


@given(loose_graphs(max_n=10, max_degree=4))
def test_components_are_the_finite_distance_classes(g):
    matrix = distance_matrix(g)
    classes = {tuple(v for v in range(g.n) if matrix[u][v] < math.inf) for u in range(g.n)}
    assert components(g) == sorted(classes)


def _square(g):
    """The square graph of g: ``square_outside`` with every vertex outside."""
    sq, order = square_outside(g, make_state(g, [1] * g.n, (), ()))
    assert order == tuple(range(g.n))
    return sq


def test_square_p3_is_triangle():
    assert set(_square(path(3)).edges()) == {(0, 1), (0, 2), (1, 2)}


def test_square_c5_is_complete():
    assert _square(cycle(5)).edge_count == 10


def test_square_claw_is_complete():
    claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert _square(claw).edge_count == 6


@given(loose_graphs(max_n=8))
def test_square_edges_are_distance_at_most_two(g):
    matrix = distance_matrix(g)
    sq = _square(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert sq.has_edge(u, v) == (matrix[u][v] <= 2)


def test_induced_redensifies_ascending():
    g = cycle(5)
    sub = induced(g, [4, 1, 2])
    assert sub.to_host == (1, 2, 4)
    assert set(sub.graph.edges()) == {(0, 1)}  # only 1-2 survives


def test_induced_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        induced(cycle(3), [0, 3])
    # g.n members each, so only the range check tells them from the whole graph
    for vertices in ([0, 1, 3], [-1, 0, 1]):
        with pytest.raises(VertexOutOfRangeError):
            induced(path(3), vertices)


def test_induced_on_every_vertex_is_the_graph_itself():
    g = cycle(5)
    sub = induced(g, reversed(range(g.n)))
    assert sub.graph is g
    assert sub.to_host == tuple(range(g.n))


@given(subcubic_graphs(max_n=12))
def test_induced_preserves_adjacency(g):
    keep = [v for v in range(g.n) if v % 2 == 0]
    sub = induced(g, keep)
    for i in range(sub.graph.n):
        for j in range(i + 1, sub.graph.n):
            assert sub.graph.has_edge(i, j) == g.has_edge(sub.to_host[i], sub.to_host[j])


@given(loose_graphs(max_n=14), st.data())
def test_induced_is_canonical_on_random_subsets(g, data):
    keep = data.draw(st.frozensets(st.integers(0, g.n - 1)) if g.n else st.just(frozenset()))
    sub = induced(g, keep)
    assert_canonical(sub.graph)
    assert sub.to_host == tuple(sorted(keep))
    assert set(sub.graph.edges()) == {
        (i, j)
        for i, u in enumerate(sub.to_host)
        for j, v in enumerate(sub.to_host)
        if i < j and g.has_edge(u, v)
    }


@given(loose_graphs(max_n=12))
def test_subdivide_is_canonical_and_numbers_edges_by_rank(g):
    s, n = subdivide(g)
    assert_canonical(s)
    edges = list(g.edges())
    assert s.n == g.n + len(edges)
    assert n == g.n
    for rank, (u, v) in enumerate(edges):
        assert s.adj[g.n + rank] == (u, v)


def test_subdivide_triangle_gives_six_cycle():
    s, n = subdivide(cycle(3))
    assert s.n == 6 and s.edge_count == 6
    assert all(s.degree(v) == 2 for v in range(6))
    assert len(components(s)) == 1
    assert n == 3 and s.adj[n:] == ((0, 1), (0, 2), (1, 2))


def test_subdivide_single_edge_gives_p3():
    s, n = subdivide(build_graph(2, [(0, 1)]))
    assert set(s.edges()) == {(0, 2), (1, 2)}
    assert n == 2 and s.adj[n:] == ((0, 1),)


def test_subdivide_petersen_size():
    s, _ = subdivide(petersen())
    assert s.n == 25 and s.edge_count == 30


@settings(max_examples=40)
@given(subcubic_graphs(max_n=10))
def test_subdivide_doubles_distances(g):
    s, _ = subdivide(g)
    before = distance_matrix(g)
    after = distance_matrix(s)
    for u in range(g.n):
        for v in range(g.n):
            assert after[u][v] == 2 * before[u][v]


def test_bipartition_c4():
    result = bipartition_or_odd_cycle(cycle(4))
    assert result == Bipartition(frozenset({0, 2}), frozenset({1, 3}))


def test_bipartition_c5_certificate():
    result = bipartition_or_odd_cycle(cycle(5))
    assert isinstance(result, OddCycle)
    assert sorted(result.vertices) == [0, 1, 2, 3, 4]


def test_bipartition_k4_certificate_is_triangle():
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    result = bipartition_or_odd_cycle(k4)
    assert isinstance(result, OddCycle)
    assert len(result.vertices) == 3


def _assert_chordless_odd_cycle(g, vertices):
    k = len(vertices)
    assert k % 2 == 1 and k >= 3
    assert len(set(vertices)) == k
    for i, u in enumerate(vertices):
        assert g.has_edge(u, vertices[(i + 1) % k])
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            assert not g.has_edge(vertices[i], vertices[j])


@given(loose_graphs(max_n=9, max_degree=8))
def test_bipartition_or_certificate_properties(g):
    result = bipartition_or_odd_cycle(g)
    if isinstance(result, Bipartition):
        assert result.part1 | result.part2 == set(range(g.n))
        assert not (result.part1 & result.part2)
        for u, v in g.edges():
            assert (u in result.part1) != (v in result.part1)
    else:
        _assert_chordless_odd_cycle(g, result.vertices)


@given(loose_graphs(max_n=12, max_degree=8))
def test_bipartition_or_certificate_matches_reference(g):
    # The exchange search's square stage tries this one certificate, so
    # the move trails depend on which odd cycle comes back, not only on
    # its being chordless and odd.
    assert bipartition_or_odd_cycle(g) == reference_bipartition_or_odd_cycle(g)
