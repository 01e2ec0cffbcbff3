import random
from operator import sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    check_weight_recurrence,
    check_weight_smoothness,
    distance_matrix,
    reference_inside_potential,
)
from spack.colorer import color_graph
from spack.gen import cycle, petersen
from spack.graph import EmptyGraphError, build_graph, induced
from spack.weights import (
    CubicGraphError,
    DisconnectedError,
    Potential,
    compute_weights,
    inside_potential,
    touched_potential,
)
from strategies import subcubic_graphs

K4_MINUS_EDGE = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def _expected_weights(g):
    """1 + distance to the nearest degree-<=2 vertex, via Floyd-Warshall."""
    matrix = distance_matrix(g)
    light = [v for v in range(g.n) if g.degree(v) <= 2]
    return [1 + min(matrix[v][u] for u in light) for v in range(g.n)]


def test_weights_c4_all_ones():
    assert compute_weights(cycle(4)) == [1, 1, 1, 1]


def test_weights_k4_minus_edge():
    # 2 and 3 are the degree-2 endpoints of the removed edge.
    assert compute_weights(K4_MINUS_EDGE) == [2, 2, 1, 1]


def test_weights_petersen_minus_edge():
    g = petersen()
    edges = [e for e in g.edges() if e != (0, 1)]
    trimmed = build_graph(g.n, edges)
    w = compute_weights(trimmed)
    assert w == _expected_weights(trimmed)
    assert w[0] == w[1] == 1
    assert sorted(w) == [1, 1, 2, 2, 2, 2, 3, 3, 3, 3]


def test_weights_reject_cubic():
    with pytest.raises(CubicGraphError):
        compute_weights(petersen())


def test_weights_reject_empty():
    with pytest.raises(EmptyGraphError):
        compute_weights(build_graph(0, []))


def test_weights_reject_unreachable_component():
    k4_plus_isolated = build_graph(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )
    with pytest.raises(DisconnectedError):
        compute_weights(k4_plus_isolated)


@given(subcubic_graphs(min_n=1, max_n=30))
def test_weights_match_distance_oracle(g):
    assert compute_weights(g) == _expected_weights(g)


def test_smoothness_clean_and_tampered():
    w = compute_weights(cycle(4))
    assert check_weight_smoothness(cycle(4), w) == []
    tampered = [5, 1, 1, 1]
    assert check_weight_smoothness(cycle(4), tampered) == [(0, 1), (0, 3)]


def test_recurrence_clean_and_vacuous():
    assert check_weight_recurrence(K4_MINUS_EDGE, compute_weights(K4_MINUS_EDGE)) == []
    assert check_weight_recurrence(cycle(4), [1, 1, 1, 1]) == []


def test_recurrence_flags_tampered_vertex():
    g = build_graph(10, [e for e in petersen().edges() if e != (0, 1)])
    w = compute_weights(g)
    victim = next(v for v in range(g.n) if g.degree(v) == 3)
    w[victim] += 7
    assert victim in check_weight_recurrence(g, w)


def test_weight_properties_on_corpus(corpus_n8_noncubic):
    for g in corpus_n8_noncubic:
        w = compute_weights(g)
        assert check_weight_smoothness(g, w) == []
        assert check_weight_recurrence(g, w) == []


@given(subcubic_graphs(min_n=2, max_n=30))
def test_weights_relabeling_equivariant(g):
    perm = list(range(g.n))
    random.Random(g.edge_count).shuffle(perm)
    relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    w = compute_weights(g)
    w_rel = compute_weights(relabeled)
    assert all(w[v] == w_rel[perm[v]] for v in range(g.n))


def test_potential_examples():
    w = [1, 1, 1, 1]
    assert inside_potential(cycle(4), w, [1, 2, 1, 2]) == Potential(4, 4)
    assert inside_potential(cycle(4), w, [1, 2, 0, 0]) == Potential(1, 2)
    assert inside_potential(cycle(4), w, [0, 0, 0, 0]) == Potential(0, 0)


def test_potential_counts_internal_edges():
    # Edges within one side count too; callers keeping the sides
    # independent never produce any.
    assert inside_potential(cycle(4), [1, 1, 1, 1], [1, 1, 0, 0]) == Potential(1, 2)


@given(subcubic_graphs(min_n=1, max_n=40), st.data())
def test_potential_matches_brute_force_edge_count(g, data):
    side = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    w = data.draw(st.lists(st.integers(1, 9), min_size=g.n, max_size=g.n))
    inside = {v for v in range(g.n) if side[v]}
    expected = Potential(
        sum(1 for u, v in g.edges() if u in inside and v in inside),
        sum(w[v] for v in inside),
    )
    assert inside_potential(g, w, side) == expected


@given(subcubic_graphs(min_n=1, max_n=40), st.data())
def test_touched_potential_moves_with_the_recount(g, data):
    # Any side changes confined to a vertex set C move the from-scratch
    # count by exactly the change of the count over C.
    sides = st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)
    before, after = data.draw(sides), data.draw(sides)
    w = data.draw(st.lists(st.integers(1, 9), min_size=g.n, max_size=g.n))
    changed = [v for v in range(g.n) if before[v] != after[v]]
    extra = data.draw(st.lists(st.integers(0, g.n - 1), max_size=3))
    touched = changed + extra  # C may hold unchanged vertices too
    assert [*map(sub, inside_potential(g, w, after), inside_potential(g, w, before))] == [
        *map(sub, touched_potential(g, w, after, touched), touched_potential(g, w, before, touched))
    ]
    assert touched_potential(g, w, after, range(g.n)) == inside_potential(g, w, after)


def test_outside_count_matches_the_inside_walk_on_random_side_lists():
    # ``inside_potential`` counts from the outside vertices; the
    # reference walks the inside ones.  Graphs of 0 to 40 vertices with
    # random edges up to degree 3 (isolated vertices included), random
    # weights, and side lists that are random, all outside or all inside.
    isolated = 0
    for trial in range(2000):
        rng = random.Random(trial)
        n = trial % 41
        degree = [0] * n
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and degree[u] < 3 and degree[v] < 3 and (min(u, v), max(u, v)) not in edges:
                edges.add((min(u, v), max(u, v)))
                degree[u] += 1
                degree[v] += 1
        g = build_graph(n, edges)
        w = [rng.randint(1, 9) for _ in range(n)]
        for side in ([rng.choice((0, 1, 2)) for _ in range(n)], [0] * n, [rng.choice((1, 2)) for _ in range(n)]):
            assert inside_potential(g, w, side) == reference_inside_potential(g, w, side), (trial, side)
        isolated += 0 in degree
    assert isolated > 1000


def test_outside_count_matches_the_inside_walk_on_corpus_runs(corpus_noncubic):
    # The start and the fixpoint of every core run of the non-cubic corpus.
    runs = 0
    for g in corpus_noncubic:
        for comp in color_graph(g).components:
            run = comp.core_run
            if run is None:
                continue
            core = induced(g, comp.core_vertices).graph
            for state in (run.initial, run.final):
                assert inside_potential(core, list(run.weights), state.side) == state.potential
                assert state.potential == reference_inside_potential(core, list(run.weights), state.side)
            runs += 1
    assert runs > 0


def test_potential_lexicographic_order():
    for a in range(3):
        for b in range(3):
            assert Potential(a, b) < Potential(a, b + 1)
            assert Potential(a, b) < Potential(a + 1, 0)


def test_weights_on_induced_core_match_direct():
    g = petersen()
    trimmed = build_graph(g.n, [e for e in g.edges() if e != (0, 1)])
    sub = induced(trimmed, range(trimmed.n))
    assert compute_weights(sub.graph) == compute_weights(trimmed)
