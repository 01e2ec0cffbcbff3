import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import class_of, make_coloring, reference_verify, violating_pairs
from spack.colorer import color_graph
from spack.gen import cycle, path, prism, random_subcubic
from spack.graph import VertexOutOfRangeError, build_graph, subdivide
from spack.verify import (
    ColorClass,
    ColoringError,
    InvalidInputColoringError,
    PackingColoring,
    RadiusMismatchError,
    Violation,
    derive_subdivision_coloring,
    verify,
    verify_sequence_shape,
)
from strategies import loose_graphs, subcubic_graphs

# the module, which the package's ``verify`` function hides as an attribute
verify_module = importlib.import_module("spack.verify")


def test_make_coloring():
    coloring = make_coloring(3, [("1", 1, [0, 2]), ("2", 2, {1})])
    assert coloring.n == 3
    assert coloring.radii() == (1, 2)
    assert class_of(coloring) == {0: "1", 1: "2", 2: "1"}


def test_color_class_rejects_bad_radius():
    with pytest.raises(ColoringError):
        ColorClass("x", 0, frozenset())


def test_verify_accepts_valid_c5():
    coloring = make_coloring(
        5, [("1", 1, [0, 2]), ("2", 2, [1]), ("3", 3, [3]), ("4", 4, [4])]
    )
    result = verify(cycle(5), coloring)
    assert result.ok
    assert result.violations == []
    assert result.missing == [] and result.multiply_assigned == []


def test_verify_flags_adjacent_pair_in_radius_one_class():
    coloring = make_coloring(
        5, [("1", 1, [0, 4]), ("2", 2, [1]), ("3", 3, [2]), ("4", 4, [3])]
    )
    result = verify(cycle(5), coloring)
    assert not result.ok
    assert result.violations == [Violation("1", 1, (0, 4), 1)]


def test_verify_flags_distance_two_pair_in_radius_two_class():
    coloring = make_coloring(3, [("2_a", 2, [0, 2]), ("1", 1, [1])])
    result = verify(path(3), coloring)
    assert result.violations == [Violation("2_a", 2, (0, 2), 2)]


def test_verify_reports_partition_defects():
    coloring = make_coloring(3, [("a", 1, [0]), ("b", 2, [0, 1])])
    result = verify(path(3), coloring)
    assert not result.ok
    assert result.missing == [2]
    assert result.multiply_assigned == [0]


def test_verify_rejects_vertex_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        verify(path(3), make_coloring(3, [("a", 1, [0, 3]), ("b", 1, [1, 2])]))
    with pytest.raises(VertexOutOfRangeError, match=r"class 'b' mentions vertex -1 outside 0\.\.2"):
        verify(path(3), make_coloring(3, [("a", 1, [0, 2]), ("b", 1, [1, -1])]))


def test_verify_names_the_first_class_out_of_range():
    # classes in order: 'b' is the first to hold an out-of-range vertex,
    # though 'a' and 'b' also overlap and 'c' is out of range too
    coloring = make_coloring(3, [("a", 1, [0, 1]), ("b", 1, [1, 5]), ("c", 2, [2, -4])])
    with pytest.raises(VertexOutOfRangeError, match=r"^class 'b' mentions vertex 5 outside 0\.\.2$"):
        verify(path(3), coloring)


def test_verify_rejects_size_mismatch():
    with pytest.raises(ColoringError):
        verify(path(3), make_coloring(4, [("a", 1, [0, 2]), ("b", 1, [1, 3])]))


@given(loose_graphs(max_n=8), st.data())
def test_verify_matches_pairwise_distance_oracle(g, data):
    radii = data.draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=4), label="radii"
    )
    assignment = data.draw(
        st.lists(st.integers(0, len(radii) - 1), min_size=g.n, max_size=g.n),
        label="assignment",
    )
    classes = [
        (str(c), radii[c], [v for v in range(g.n) if assignment[v] == c])
        for c in range(len(radii))
    ]
    result = verify(g, make_coloring(g.n, classes))
    expected = {
        (label, pair)
        for label, radius, members in classes
        for pair in violating_pairs(g, radius, frozenset(members))
    }
    assert {(v.label, v.pair) for v in result.violations} == expected
    assert result.ok == (not expected and g.n == sum(len(m) for _, _, m in classes))


def test_violations_are_sorted_by_class_then_pair():
    g = cycle(6)
    coloring = make_coloring(6, [("a", 1, [0, 1, 2]), ("b", 2, [3, 4, 5])])
    result = verify(g, coloring)
    keys = [(0 if v.label == "a" else 1, v.pair) for v in result.violations]
    assert keys == sorted(keys)


def test_verify_sequence_shape_order_free():
    coloring = make_coloring(2, [("x", 2, [0]), ("y", 1, [1])])
    verify_sequence_shape(coloring, (1, 2))
    verify_sequence_shape(coloring, (2, 1))
    with pytest.raises(RadiusMismatchError):
        verify_sequence_shape(coloring, (1, 1, 2, 2))


def test_derive_subdivision_triangle():
    g = cycle(3)
    coloring = make_coloring(
        3, [("1_a", 1, [0]), ("1_b", 1, [1]), ("2_a", 2, [2]), ("2_b", 2, [])]
    )
    lifted = derive_subdivision_coloring(g, coloring)
    sg, _ = subdivide(g)
    assert lifted.n == sg.n == 6
    assert lifted.radii() == (1, 2, 3, 4, 5)
    assert sg.adj[g.n :] == tuple(g.edges())
    assert lifted.classes[0].vertices == frozenset(range(g.n, sg.n))
    assert lifted.classes[1].vertices == frozenset({0})
    assert verify(sg, lifted).ok


def test_derive_subdivision_c5():
    g = cycle(5)
    coloring = make_coloring(
        5, [("1_a", 1, [0, 2]), ("1_b", 1, [1, 3]), ("2_a", 2, [4]), ("2_b", 2, [])]
    )
    lifted = derive_subdivision_coloring(g, coloring)
    sg, _ = subdivide(g)
    assert verify(sg, lifted).ok
    assert verify_sequence_shape(lifted, (1, 2, 3, 4, 5)) is None


def test_derive_subdivision_rejects_invalid_input():
    # The lift only relabels: a clashing coloring of C3 lifts, and the
    # verify of S(G) reports its clash at twice the distance.  A coloring
    # for another n is refused.
    g = cycle(3)
    clashing = make_coloring(
        3, [("1_a", 1, [0, 1]), ("1_b", 1, []), ("2_a", 2, [2]), ("2_b", 2, [])]
    )
    lifted = derive_subdivision_coloring(g, clashing)
    assert verify(subdivide(g)[0], lifted).violations == [Violation("1_a", 2, (0, 1), 2)]
    wide = make_coloring(4, [("1_a", 1, [0]), ("1_b", 1, [1]), ("2_a", 2, [2]), ("2_b", 2, [3])])
    with pytest.raises(InvalidInputColoringError, match="^coloring is for n=4, graph has n=3$"):
        derive_subdivision_coloring(g, wide)


def _random_subcubic_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random edges of a subcubic graph on n vertices, connected or not."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    for a, b in pairs[: rng.randint(0, len(pairs))]:
        if degree[a] < 3 and degree[b] < 3:
            degree[a] += 1
            degree[b] += 1
            edges.append((a, b))
    return edges


def test_lift_verify_repeats_the_verify_of_g_with_distances_doubled():
    # The lemma in derive_subdivision_coloring's docstring, on random
    # partitions into the four classes, some vertices in none and some
    # in two: the S(G) verify of the lift reports each violation of G's
    # verify, in order, with its radius lifted and its distance doubled,
    # and the same missing and multiply assigned vertices.
    rng = random.Random(32)
    invalid = 0
    for _ in range(2000):
        n = rng.randint(2, 16)
        g = build_graph(n, _random_subcubic_edges(rng, n))
        sets = [set() for _ in range(4)]
        for v in range(n):
            for i in rng.choices(range(4), k=rng.choice((0, 1, 1, 1, 1, 1, 1, 2))):
                sets[i].add(v)
        coloring = make_coloring(n, list(zip(("1_a", "1_b", "2_a", "2_b"), (1, 1, 2, 2), sets)))
        lifted = derive_subdivision_coloring(g, coloring)
        radius = {cls.label: cls.radius for cls in lifted.classes}
        on_g = verify(g, coloring)
        on_sg = verify(subdivide(g)[0], lifted)
        assert on_sg.violations == [
            Violation(v.label, radius[v.label], v.pair, 2 * v.distance) for v in on_g.violations
        ]
        assert (on_sg.missing, on_sg.multiply_assigned) == (on_g.missing, on_g.multiply_assigned)
        invalid += not on_g.ok
    assert 1000 < invalid < 2000


def test_derive_subdivision_rejects_wrong_shape():
    g = path(3)
    coloring = make_coloring(3, [("1", 1, [0, 2]), ("3", 3, [1])])
    with pytest.raises(InvalidInputColoringError):
        derive_subdivision_coloring(g, coloring)


@given(subcubic_graphs(min_n=1, max_n=20))
def test_derive_subdivision_verifies_on_random_graphs(g):
    result = color_graph(g)
    lifted = derive_subdivision_coloring(g, result.coloring)
    sg, _ = subdivide(g)
    assert verify(sg, lifted).ok


def test_empty_graph_verifies_trivially():
    result = verify(build_graph(0, []), make_coloring(0, []))
    assert result.ok


def test_violation_order_and_distances_are_pinned():
    g = cycle(10)
    coloring = make_coloring(
        10, [("c", 5, [0, 3, 5, 9]), ("b", 2, [2, 4, 7, 8]), ("d", 4, [1, 6])]
    )
    expected = [
        Violation("c", 5, (0, 3), 3),
        Violation("c", 5, (0, 5), 5),
        Violation("c", 5, (0, 9), 1),
        Violation("c", 5, (3, 5), 2),
        Violation("c", 5, (3, 9), 4),
        Violation("c", 5, (5, 9), 4),
        Violation("b", 2, (2, 4), 2),
        Violation("b", 2, (7, 8), 1),
    ]
    result = verify(g, coloring)
    assert result.violations == expected
    assert result == reference_verify(g, coloring)


def test_verify_matches_reference_on_corpus_colorings_and_lifts(corpus_noncubic):
    for g in corpus_noncubic:
        coloring = color_graph(g).coloring
        assert verify(g, coloring) == reference_verify(g, coloring)
        lifted = derive_subdivision_coloring(g, coloring)
        sg, _ = subdivide(g)
        outcome = verify(sg, lifted)
        assert outcome.ok
        assert outcome == reference_verify(sg, lifted)


def test_verify_matches_reference_on_perturbed_colorings(corpus_noncubic):
    rng = random.Random(8)
    flagged = 0
    for g in corpus_noncubic[::3]:
        coloring = color_graph(g).coloring
        members = [set(cls.vertices) for cls in coloring.classes]
        for _ in range(3):
            v = rng.randrange(g.n)
            for vs in members:
                vs.discard(v)
            rng.choice(members).add(v)
        perturbed = PackingColoring(
            g.n,
            tuple(
                ColorClass(cls.label, cls.radius, frozenset(vs))
                for cls, vs in zip(coloring.classes, members)
            ),
        )
        outcome = verify(g, perturbed)
        flagged += bool(outcome.violations)
        assert outcome == reference_verify(g, perturbed)
    assert flagged >= 200


def _moved(coloring, rng, moves):
    """The coloring with ``moves`` random vertices sent to random classes."""
    members = [set(cls.vertices) for cls in coloring.classes]
    for _ in range(moves):
        v = rng.randrange(coloring.n)
        for vs in members:
            vs.discard(v)
        rng.choice(members).add(v)
    return PackingColoring(
        coloring.n,
        tuple(
            ColorClass(cls.label, cls.radius, frozenset(vs))
            for cls, vs in zip(coloring.classes, members)
        ),
    )


def test_verify_matches_reference_on_perturbed_subdivision_lifts(corpus_noncubic):
    # the lifts carry radii 4 and 5, so these reach half-radius 2 and,
    # once an edge vertex joins an odd-radius class, edge meetings
    rng = random.Random(13)
    flagged = wide = odd = 0
    for g in corpus_noncubic[::2]:
        lifted = derive_subdivision_coloring(g, color_graph(g).coloring)
        sg, _ = subdivide(g)
        perturbed = _moved(lifted, rng, 4)
        outcome = verify(sg, perturbed)
        assert outcome == reference_verify(sg, perturbed)
        flagged += bool(outcome.violations)
        wide += any(v.radius >= 4 for v in outcome.violations)
        odd += any(v.radius % 2 and v.distance == v.radius > 1 for v in outcome.violations)
    # 415 lifts: 385 flagged, 187 at radius 4 or 5, 106 with an edge meeting
    assert flagged >= 350
    assert wide >= 160
    assert odd >= 90


def _graphs_up_to_60():
    rng = random.Random(60)
    out = []
    for seed in range(40):
        n = rng.randint(2, 60)
        cap = 3 * n // 2 - (1 if n % 2 == 0 else 0)
        m = rng.randint(n - 1, max(n - 1, min(cap, n * (n - 1) // 2)))
        out.append(random_subcubic(n, m, seed=seed))
    return out


@pytest.mark.parametrize("radius", range(1, 8))
def test_verify_matches_reference_on_one_all_vertex_class(corpus_all, radius):
    for g in [*corpus_all[::4], *_graphs_up_to_60()]:
        coloring = PackingColoring(g.n, (ColorClass("all", radius, frozenset(range(g.n))),))
        assert verify(g, coloring) == reference_verify(g, coloring)


@given(loose_graphs(max_n=12), st.data())
def test_verify_matches_reference_on_random_classes(g, data):
    vertex = st.integers(0, g.n - 1) if g.n else st.nothing()
    classes = data.draw(
        st.lists(
            st.tuples(st.integers(1, 7), st.frozensets(vertex, max_size=g.n)),
            max_size=4,
        ),
        label="classes",
    )
    coloring = PackingColoring(
        g.n, tuple(ColorClass(str(i), r, vs) for i, (r, vs) in enumerate(classes))
    )
    assert verify(g, coloring) == reference_verify(g, coloring)


@settings(max_examples=40)
@given(subcubic_graphs(min_n=1, max_n=30))
def test_lift_matches_the_built_subdivision(g):
    coloring = color_graph(g).coloring
    lifted = derive_subdivision_coloring(g, coloring)
    sg, _ = subdivide(g)
    assert lifted.n == sg.n
    assert lifted.classes[0].label == "sub"
    assert sg.adj[g.n :] == tuple(g.edges())
    assert lifted.classes[0].vertices == set(range(g.n, sg.n))


def test_three_balls_share_the_centre_of_a_claw():
    # every leaf's radius-1 ball holds the centre 0
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    coloring = make_coloring(4, [("leaves", 2, [1, 2, 3]), ("centre", 1, [0])])
    result = verify(g, coloring)
    assert result.violations == [
        Violation("leaves", 2, (1, 2), 2),
        Violation("leaves", 2, (1, 3), 2),
        Violation("leaves", 2, (2, 3), 2),
    ]
    assert result == reference_verify(g, coloring)


@pytest.mark.parametrize("radius", [3, 5])
def test_edge_meeting_at_a_vertex_held_by_two_earlier_balls(radius):
    # x1 and x2 end arms of k from b, y ends one of k + 1, so y's
    # outermost layer meets b, which both earlier balls hold, across an edge
    k = radius // 2
    b, x1, x2, a, y = 0, k, 2 * k, 2 * k + 1, 3 * k + 1
    edges = [(b, 1), (b, k + 1), (b, a)]
    edges += [(v, v + 1) for v in [*range(1, k), *range(k + 1, 2 * k), *range(a, y)]]
    g = build_graph(y + 1, edges)
    rest = [v for v in range(g.n) if v not in (x1, x2, y)]
    coloring = make_coloring(g.n, [("c", radius, [x1, x2, y]), ("rest", 1, rest)])
    result = verify(g, coloring)
    assert [v for v in result.violations if v.label == "c"] == [
        Violation("c", radius, (x1, x2), 2 * k),
        Violation("c", radius, (x1, y), radius),
        Violation("c", radius, (x2, y), radius),
    ]
    assert result == reference_verify(g, coloring)


@settings(deadline=None)
@given(subcubic_graphs(min_n=1, max_n=20), st.data())
def test_verify_matches_reference_on_random_classes_of_subdivisions(g, data):
    sg, _ = subdivide(g)
    vertex = st.integers(0, sg.n - 1)
    classes = data.draw(
        st.lists(
            st.tuples(st.integers(1, 5), st.frozensets(vertex, max_size=sg.n)),
            min_size=1,
            max_size=5,
        ),
        label="classes",
    )
    coloring = PackingColoring(
        sg.n, tuple(ColorClass(str(i), r, vs) for i, (r, vs) in enumerate(classes))
    )
    assert verify(sg, coloring) == reference_verify(sg, coloring)


def _walk_recorder(monkeypatch, refuse_up_to=0):
    """Patch ``_close_pairs`` to record each class's radius, refusing radii up to a bound."""
    walked = []
    walk = verify_module._close_pairs

    def recording(g, members, r):
        assert r > refuse_up_to, f"a class of radius {r} was walked"
        walked.append(r)
        return walk(g, members, r)

    monkeypatch.setattr(verify_module, "_close_pairs", recording)
    return walked


def test_valid_classes_up_to_radius_three_skip_the_walk(corpus_noncubic, monkeypatch):
    # G's radius-1 and radius-2 classes are decided by the exact set
    # tests.  S(G) is bipartite, so no triangle sends a valid radius-3
    # class to the walk; its radius-4 and radius-5 classes still go.
    walked = _walk_recorder(monkeypatch, refuse_up_to=3)
    for g in corpus_noncubic:
        coloring = color_graph(g).coloring
        assert verify(g, coloring).ok
        sg, _ = subdivide(g)
        assert verify(sg, derive_subdivision_coloring(g, coloring)).ok
    assert set(walked) == {4, 5}


def test_a_triangle_sends_a_valid_radius_three_class_to_the_walk(monkeypatch):
    walked = _walk_recorder(monkeypatch)
    # prism(3): 0 lies on the triangle 0, 1, 2, so the set test is unsure
    prism_coloring = make_coloring(
        6, [("far", 3, [0]), ("a", 1, [4]), ("b", 1, [1, 5]), ("c", 1, [2, 3])]
    )
    # a triangle 0, 1, 2 with the tail 2, 3, 4, 5: 0 and 5 are 4 apart
    tailed = build_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
    tailed_coloring = make_coloring(6, [("far", 3, [0, 5]), ("a", 1, [1, 3]), ("b", 1, [2, 4])])
    for g, coloring in ((prism(3), prism_coloring), (tailed, tailed_coloring)):
        walked.clear()
        result = verify(g, coloring)
        assert result.ok
        assert result == reference_verify(g, coloring)
        assert walked == [3]


def test_the_walk_alone_matches_the_reference(corpus_noncubic, monkeypatch):
    # With the set tests off every class is walked, valid ones of radius
    # 1 to 3 included, so the walk is checked on its own.  Radius 1 has
    # only the odd-radius edge step to find its adjacent pairs.
    monkeypatch.setattr(verify_module, "_clean", lambda adj, members, r: False)
    rng = random.Random(26)
    adjacent = 0
    for g in corpus_noncubic:
        coloring = color_graph(g).coloring
        lifted = derive_subdivision_coloring(g, coloring)
        sg, _ = subdivide(g)
        for graph, c in ((g, coloring), (sg, lifted), (g, _moved(coloring, rng, 3))):
            outcome = verify(graph, c)
            assert outcome == reference_verify(graph, c)
            adjacent += any(v.radius == 1 for v in outcome.violations)
    # 830 perturbed colorings: 457 with a radius-1 pair
    assert adjacent >= 400


def _with_one_as(coloring, stand_in):
    """The coloring with vertex 1 written as ``stand_in``."""
    classes = tuple(
        ColorClass(cls.label, cls.radius, frozenset(stand_in if v == 1 else v for v in cls.vertices))
        for cls in coloring.classes
    )
    return PackingColoring(coloring.n, classes)


@pytest.mark.parametrize("radius", range(1, 6))
def test_members_equal_to_an_id_keep_their_outcome(radius):
    # True is the int 1 and verifies as 1 does; 1.0 only equals 1 and is
    # refused with TypeError, as the per-vertex count refused it, whether
    # it sits alone in its class, beside a member two steps away or
    # beside a neighbour, and whatever the class radius.
    for x, rest in (([1], [[0, 2], [3]]), ([1, 3], [[0], [2]]), ([0, 1], [[2], [3]])):
        coloring = make_coloring(4, [("x", radius, x), ("a", 1, rest[0]), ("b", 1, rest[1])])
        assert verify(path(4), _with_one_as(coloring, True)) == verify(path(4), coloring)
        with pytest.raises(TypeError):
            verify(path(4), _with_one_as(coloring, 1.0))


def test_verify_reports_a_doubly_assigned_vertex_when_none_is_missing():
    # the classes cover 0..n-1, so only their sizes show the repeat
    coloring = make_coloring(3, [("a", 1, [0, 2]), ("b", 2, [1]), ("c", 2, [2])])
    result = verify(path(3), coloring)
    assert not result.ok
    assert result.missing == [] and result.multiply_assigned == [2]
    assert result == reference_verify(path(3), coloring)
