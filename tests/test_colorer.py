import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spack.colorer
import spack.exchange

from oracles import make_coloring, naive_packing_colorable
from spack.colorer import (
    CLASS_LABELS,
    CLASS_RADII,
    SEQUENCE_1122,
    ColorOptions,
    ComponentRun,
    CubicComponentError,
    PeelStep,
    color_core,
    color_graph,
    extend_coloring,
    peel,
)
from spack.exact import DEFAULT_BUDGET, DecisionOutcome, Status, class_labels
from spack.exchange import MoveBudgetExceededError, StuckError, initial_state
from spack.gen import cycle, path, petersen, prism, random_subcubic, random_tree
from spack.graph import DegreeExceededError, build_graph, components, induced, is_cubic
from spack.verify import ColorClass, InvalidInputColoringError, PackingColoring, verify, verify_sequence_shape
from spack.weights import compute_weights
from strategies import loose_graphs, subcubic_graphs

K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
LOLLIPOP = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])


def _class_sets(coloring):
    return {c.label: set(c.vertices) for c in coloring.classes}


def test_peel_path_consumes_everything():
    core, trace = peel(path(4))
    assert core == ()
    assert trace == (
        PeelStep(0, 1),
        PeelStep(1, 2),
        PeelStep(2, 3),
        PeelStep(3, None),
    )


def test_peel_keeps_min_degree_two_core():
    core, trace = peel(LOLLIPOP)
    assert core == (0, 1, 2)
    assert trace == (PeelStep(4, 3), PeelStep(3, 2))
    assert peel(cycle(5)) == ((0, 1, 2, 3, 4), ())


def test_extend_coloring_reattaches_leaves():
    partial = make_coloring(
        5, [("1_a", 1, [0]), ("1_b", 1, [1]), ("2_a", 2, [2]), ("2_b", 2, [])]
    )
    full = extend_coloring(partial, (PeelStep(4, 3), PeelStep(3, 2)))
    sets = _class_sets(full)
    assert sets["1_a"] == {0, 3}
    assert sets["1_b"] == {1, 4}
    assert verify(LOLLIPOP, full).ok


def test_extend_coloring_needs_two_radius_one_classes():
    partial = make_coloring(2, [("1", 1, [0]), ("2", 2, [1])])
    with pytest.raises(InvalidInputColoringError):
        extend_coloring(partial, (PeelStep(1, 0),))


def test_color_core_c4():
    run = color_core(cycle(4), [1, 1, 1, 1])
    sets = _class_sets(run.coloring)
    assert sets == {"1_a": {0, 2}, "1_b": {1, 3}, "2_a": set(), "2_b": set()}
    assert run.attempts == 1
    assert run.moves == ()


def test_color_core_c5():
    run = color_core(cycle(5), [1, 1, 1, 1, 1])
    sets = _class_sets(run.coloring)
    assert sets["2_a"] == {4} and sets["2_b"] == set()
    assert verify(cycle(5), run.coloring).ok


def test_color_graph_triangle():
    result = color_graph(cycle(3))
    sets = _class_sets(result.coloring)
    assert sets == {"1_a": {0}, "1_b": {1}, "2_a": {2}, "2_b": set()}
    run = result.components[0]
    assert not run.used_exact
    assert run.core_run is not None and run.core_run.attempts == 1


def test_color_graph_small_shapes():
    for g in (build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), cycle(6), path(7)):
        result = color_graph(g)
        assert verify(g, result.coloring).ok
        verify_sequence_shape(result.coloring, (1, 1, 2, 2))


def test_color_graph_path_peels_to_alternation():
    result = color_graph(path(7))
    sets = _class_sets(result.coloring)
    assert sets["2_a"] == sets["2_b"] == set()
    assert sets["1_a"] == {0, 2, 4, 6} and sets["1_b"] == {1, 3, 5}


def test_color_graph_merges_components():
    edges = list(cycle(4).edges()) + [(u + 4, v + 4) for u, v in cycle(5).edges()]
    g = build_graph(9, edges)
    result = color_graph(g)
    assert len(result.components) == 2
    assert result.components[0].vertices == (0, 1, 2, 3)
    assert verify(g, result.coloring).ok


def test_color_graph_trivial_graphs():
    empty = color_graph(build_graph(0, []))
    assert empty.coloring.n == 0 and empty.components == ()
    single = color_graph(build_graph(1, []))
    assert _class_sets(single.coloring)["1_a"] == {0}
    assert verify(build_graph(1, []), single.coloring).ok


def test_color_graph_rejects_high_degree():
    star5 = build_graph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(DegreeExceededError):
        color_graph(star5)


def test_cubic_component_needs_fallback():
    with pytest.raises(CubicComponentError) as exc:
        color_graph(K4)
    assert exc.value.reason == "fallback-disabled"
    assert exc.value.component == (0, 1, 2, 3)


def test_cubic_component_oracle_fallback():
    result = color_graph(K4, ColorOptions(fallback_exact=True))
    assert result.components[0].used_exact
    assert verify(K4, result.coloring).ok
    verify_sequence_shape(result.coloring, (1, 1, 2, 2))


def test_oracle_witness_keeps_the_class_order():
    # The colorer maps the oracle's classes to CLASS_LABELS by position.
    # The prism's radius-1 classes hold two vertices each, so a witness
    # whose radius-2 classes came first would fail verify.
    assert class_labels(SEQUENCE_1122) == CLASS_LABELS
    assert CLASS_LABELS == ("1_a", "1_b", "2_a", "2_b")
    assert CLASS_RADII == SEQUENCE_1122 == (1, 1, 2, 2)
    g = prism(3)
    result = color_graph(g, ColorOptions(fallback_exact=True))
    assert result.components[0].used_exact
    assert tuple(c.label for c in result.coloring.classes) == CLASS_LABELS
    assert result.coloring.radii() == CLASS_RADII
    assert [len(c.vertices) for c in result.coloring.classes[:2]] == [2, 2]
    assert verify(g, result.coloring).ok


def test_exact_budget_defaults_to_the_oracle_budget():
    assert ColorOptions().exact_budget is DEFAULT_BUDGET


def test_cubic_component_oracle_refutes_petersen():
    with pytest.raises(CubicComponentError) as exc:
        color_graph(petersen(), ColorOptions(fallback_exact=True))
    assert exc.value.reason == "oracle-unsat"


def test_cubic_component_size_cap(monkeypatch):
    # prism(16) has 32 vertices, past the cap of 30: the oracle never runs.
    monkeypatch.setattr(spack.colorer, "decide", lambda *args, **kw: pytest.fail("oracle ran"))
    with pytest.raises(CubicComponentError) as exc:
        color_graph(prism(16), ColorOptions(fallback_exact=True))
    assert exc.value.reason == "oracle-timeout"


def test_cubic_component_node_budget(monkeypatch):
    # The oracle's own BUDGET verdict, not the size cap, gives the timeout;
    # the oracle runs with its default node budget.
    budgets = []

    def out_of_budget(g, seq, *, budget):
        budgets.append(budget)
        return DecisionOutcome(Status.BUDGET, None, 0)

    monkeypatch.setattr(spack.colorer, "decide", out_of_budget)
    with pytest.raises(CubicComponentError) as exc:
        color_graph(prism(3), ColorOptions(fallback_exact=True))
    assert exc.value.reason == "oracle-timeout"
    assert budgets == [DEFAULT_BUDGET]


def _stuck_core(g, w, **_):
    raise StuckError("no swap for the test", initial_state(g, w), [])


@pytest.mark.parametrize("options", [ColorOptions(), ColorOptions(fallback_exact=True)])
def test_stuck_search_surfaces_without_the_oracle(monkeypatch, options):
    # Only 3-regular components reach the oracle: a StuckError that
    # escapes every restart reaches the caller, also on a small graph,
    # and no component is colored by the oracle (none is used_exact).
    oracle_calls = []
    monkeypatch.setattr(spack.colorer, "color_core", _stuck_core)
    monkeypatch.setattr(spack.colorer, "decide", lambda *args, **kw: oracle_calls.append(args))
    with pytest.raises(StuckError):
        color_graph(cycle(5), options)
    assert oracle_calls == []


def test_petersen_plus_isolated_vertex_still_fails():
    # Non-regular overall, yet the cubic component decides the outcome.
    edges = list(petersen().edges())
    g = build_graph(11, edges)
    with pytest.raises(CubicComponentError):
        color_graph(g, ColorOptions(fallback_exact=True))


def test_move_budget_option_propagates(monkeypatch):
    # A commit that changes nothing exhausts the potential's bound on the
    # moves; the colorer does not restart on it.
    monkeypatch.setattr(spack.exchange, "commit_move", lambda g, state, found: None)
    g = random_subcubic(53, 73, seed=178)
    with pytest.raises(MoveBudgetExceededError):
        color_graph(g)


def test_color_options_fix_validation_restarts_and_oracle_cap():
    # Constants kept as fields: readable, never settable.  The search
    # without validation stays covered through run_to_fixpoint.
    assert tuple(f.name for f in dataclasses.fields(ColorOptions) if f.init) == ("fallback_exact",)
    options = ColorOptions()
    assert (options.validate, options.restart_attempts, options.fallback_max_n, options.max_moves) == (True, 12, 30, None)
    for name in ("max_moves", "exact_budget"):
        with pytest.raises(TypeError):
            ColorOptions(**{name: 0})
    for name in ("validate", "restart_attempts", "fallback_max_n"):
        with pytest.raises(TypeError):
            ColorOptions(**{name: getattr(options, name)})
        with pytest.raises(ValueError):
            dataclasses.replace(options, **{name: getattr(options, name)})


def test_color_result_is_consistent_with_naive_oracle():
    for seed in range(5):
        g = random_subcubic(9, 11, seed=seed, require_non_cubic=True)
        result = color_graph(g)
        assert verify(g, result.coloring).ok
        assert naive_packing_colorable(g, (1, 1, 2, 2))


@settings(max_examples=80, deadline=None)
@given(subcubic_graphs(min_n=1, max_n=60))
def test_color_graph_random_always_verifies(g):
    result = color_graph(g)
    outcome = verify(g, result.coloring)
    assert outcome.ok
    verify_sequence_shape(result.coloring, (1, 1, 2, 2))
    labels = [c.label for c in result.coloring.classes]
    assert labels == ["1_a", "1_b", "2_a", "2_b"]


def test_core_run_records_weights_used():
    g = cycle(5)
    run = color_core(g, compute_weights(g))
    assert run.weights == (1, 1, 1, 1, 1)
    assert run.initial.potential <= run.final.potential


def _host_trace(trace, to_host):
    return tuple(
        PeelStep(to_host[s.vertex], None if s.neighbor is None else to_host[s.neighbor]) for s in trace
    )


# A 4-cycle on 0..3, whose own ids are its host ids; a triangle 4-6-7
# with the tail 7-9-11; and the path 5-8-10.  The last two interleave,
# so their own ids differ from their host ids.
INTERLEAVED = build_graph(
    12, list(cycle(4).edges()) + [(4, 6), (6, 7), (4, 7), (7, 9), (9, 11), (5, 8), (8, 10)]
)


@st.composite
def disjoint_unions(draw):
    """Up to four parts (loose graphs, trees, small cubic graphs) on shuffled ids."""
    parts = draw(
        st.lists(
            st.one_of(
                loose_graphs(),
                st.builds(random_tree, st.integers(1, 12), st.integers(0, 2**16)),
                st.sampled_from([K4, prism(3), prism(4)]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    host = draw(st.permutations(range(sum(part.n for part in parts))))
    edges, offset = [], 0
    for part in parts:
        edges += [(host[u + offset], host[v + offset]) for u, v in part.edges()]
        offset += part.n
    return build_graph(len(host), edges)


def _own_run(g, vertices):
    """The run of one component peeled and colored on its own, in host ids."""
    sub = induced(g, vertices)
    if is_cubic(sub.graph):
        return ComponentRun(vertices, used_exact=True)
    core, trace = peel(sub.graph)
    run = ComponentRun(vertices, tuple(sub.to_host[v] for v in core), _host_trace(trace, sub.to_host))
    if core:
        graph = induced(sub.graph, core).graph
        run.core_run = color_core(graph, compute_weights(graph))
    return run


@settings(max_examples=60, deadline=None)
@given(disjoint_unions())
@example(INTERLEAVED)
def test_component_runs_stay_in_host_ids(g):
    # color_graph peels the whole graph once; each component's run must
    # still equal that component's own peel and core run, in host ids,
    # and the coloring the union of the components' own colorings.
    options = ColorOptions(fallback_exact=True)
    result = color_graph(g, options)
    comps = components(g)
    assert list(result.components) == [_own_run(g, vertices) for vertices in comps]
    merged = [set() for _ in CLASS_LABELS]
    for vertices in comps:
        sub = induced(g, vertices)
        for target, c in zip(merged, color_graph(sub.graph, options).coloring.classes):
            target.update(sub.to_host[v] for v in c.vertices)
    assert _class_sets(result.coloring) == dict(zip(CLASS_LABELS, merged))
    assert verify(g, result.coloring).ok


def test_interleaved_components_peel_in_host_ids():
    result = color_graph(INTERLEAVED)
    assert [run.vertices for run in result.components] == [
        (0, 1, 2, 3), (4, 6, 7, 9, 11), (5, 8, 10)
    ]
    tail = result.components[1]
    assert tail.core_vertices == (4, 6, 7)
    assert tail.peel_trace == (PeelStep(11, 9), PeelStep(9, 7))


def test_connected_graph_runs_keep_the_graphs_own_ids():
    graphs = [LOLLIPOP, path(5)] + [random_subcubic(n, n + 1, seed=n) for n in range(10, 60, 7)]
    for g in graphs:
        core, trace = peel(g)
        assert trace  # every graph here has pendants
        (run,) = color_graph(g).components
        assert run.vertices == tuple(range(g.n))
        assert run.core_vertices == core
        assert run.peel_trace == trace


def test_extend_coloring_equals_the_colour_paths_reattachment():
    """``extend_coloring`` and ``color_graph``'s in-place reattachment agree."""
    rng = random.Random(7)
    peeled = 0
    for seed in range(30):
        n = rng.randint(4, 90)
        g = random_subcubic(n, n - 1 + rng.randint(0, n // 5), seed=seed)
        result = color_graph(g)
        core, trace = peel(g)
        core_run = result.components[0].core_run
        sets = [()] * len(CLASS_LABELS)
        if core_run is not None:
            sets = [[core[v] for v in c.vertices] for c in core_run.coloring.classes]
        partial = PackingColoring(
            g.n,
            tuple(ColorClass(label, r, frozenset(s)) for label, r, s in zip(CLASS_LABELS, CLASS_RADII, sets)),
        )
        assert extend_coloring(partial, trace) == result.coloring, f"seed={seed}"
        peeled += bool(trace)
    assert peeled >= 25
