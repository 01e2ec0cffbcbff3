import dataclasses
import sys

import pytest
from hypothesis import given, settings

from spack.audit import AuditError, AuditReport, audit_color_result, audit_core_run
from spack.colorer import ColorOptions, color_core, color_graph
from spack.exchange import OUTSIDE, Flip, MoveRecord, SquareBipartition, square_outside
from spack.gen import path, random_subcubic
from spack.graph import EmptyGraphError, Graph, VertexOutOfRangeError, build_graph, induced
from spack.verify import ColorClass, PackingColoring, verify
from spack.weights import DisconnectedError, Potential, compute_weights
from strategies import subcubic_graphs


def _busy_instance():
    """A deterministic coloring run that commits several moves."""
    g = random_subcubic(20, 26, seed=6)
    result = color_graph(g)
    comp = next(c for c in result.components if c.core_run is not None)
    core = induced(g, comp.core_vertices).graph
    assert len(comp.core_run.moves) >= 2
    return g, result, core, comp.core_run


def test_audit_accepts_clean_run():
    g, result, core, run = _busy_instance()
    report = audit_core_run(core, run)
    assert report == AuditReport(runs=1, moves=len(run.moves))
    total = audit_color_result(g, result)
    assert total.runs == sum(1 for c in result.components if c.core_run)
    assert total.moves >= report.moves


def test_audit_report_merge():
    a = AuditReport(runs=1, moves=3)
    a.merge(AuditReport(runs=2, moves=5))
    assert a == AuditReport(runs=3, moves=8)


def test_audit_handles_fully_peeled_components():
    result = color_graph(path(4))
    assert audit_color_result(path(4), result) == AuditReport(runs=0, moves=0)


def test_audit_rejects_dropped_move():
    _, _, core, run = _busy_instance()
    tampered = dataclasses.replace(run, moves=run.moves[:-1])
    with pytest.raises(AuditError):
        audit_core_run(core, tampered)


def test_audit_rejects_tampered_potential():
    _, _, core, run = _busy_instance()
    first = run.moves[0]
    bad = MoveRecord(first.move, first.before, Potential(first.after.edges + 1, 0))
    tampered = dataclasses.replace(run, moves=(bad,) + run.moves[1:])
    with pytest.raises(AuditError):
        audit_core_run(core, tampered)


def test_audit_rejects_a_wrong_recorded_before():
    _, _, core, run = _busy_instance()
    first = run.moves[0]
    bumped = Potential(first.before.edges, first.before.weight + 1)
    tampered = dataclasses.replace(run, moves=(MoveRecord(first.move, bumped, first.after),) + run.moves[1:])
    with pytest.raises(AuditError, match="move 0: recorded before"):
        audit_core_run(core, tampered)


def test_audit_rejects_a_start_that_is_no_fixpoint():
    # No moves and the start as the final state: the replay agrees with
    # the record, but the start still has cheap moves.
    _, _, core, run = _busy_instance()
    tampered = dataclasses.replace(run, moves=(), final=run.initial)
    with pytest.raises(AuditError, match="fixpoint structure violated: lone neighbor"):
        audit_core_run(core, tampered)


def test_audit_rejects_non_increasing_record():
    _, _, core, run = _busy_instance()
    first = run.moves[0]
    bad = MoveRecord(first.move, first.before, first.before)
    tampered = dataclasses.replace(run, moves=(bad,) + run.moves[1:])
    with pytest.raises(AuditError) as exc:
        audit_core_run(core, tampered)
    assert "strictly increase" in str(exc.value)


def test_audit_rejects_wrong_initial_potential():
    _, _, core, run = _busy_instance()
    broken = run.initial.copy()
    broken.potential = Potential(broken.potential.edges + 1, broken.potential.weight)
    tampered = dataclasses.replace(run, initial=broken)
    with pytest.raises(AuditError):
        audit_core_run(core, tampered)


def test_audit_rebuilds_neighbour_counts_from_sides():
    g = random_subcubic(60, 89, seed=5, require_non_cubic=True)
    runs = 0
    for comp in color_graph(g).components:
        if comp.core_run is None:
            continue
        core, run = induced(g, comp.core_vertices).graph, comp.core_run
        zeroed = [[0] * core.n for _ in range(3)]
        tampered = dataclasses.replace(
            run,
            initial=dataclasses.replace(run.initial, nbr=zeroed),
            final=dataclasses.replace(run.final, nbr=zeroed),
        )
        assert audit_core_run(core, tampered) == audit_core_run(core, run)
        runs += 1
    assert runs


def test_audit_rejects_dependent_initial_side():
    _, _, core, run = _busy_instance()
    broken = run.initial.copy()
    u = next(v for v in range(core.n) if broken.side[v] != OUTSIDE)
    broken.side[core.adj[u][0]] = broken.side[u]
    tampered = dataclasses.replace(run, initial=broken)
    with pytest.raises(AuditError, match="initial state: .* not independent"):
        audit_core_run(core, tampered)


@pytest.mark.parametrize(
    "forge",
    [
        lambda side: side + [OUTSIDE],
        lambda side: side[:-1],
        lambda side: [3 if s == 2 else s for s in side],
        lambda side: [-1 if s == OUTSIDE else s for s in side],
    ],
    ids=["one_too_long", "one_too_short", "side_3", "side_minus_1"],
)
def test_audit_rejects_an_initial_side_list_off_the_core(forge):
    _, _, core, run = _busy_instance()
    forged = dataclasses.replace(run.initial, side=forge(list(run.initial.side)))
    with pytest.raises(AuditError, match="initial state: not a side list of length"):
        audit_core_run(core, dataclasses.replace(run, initial=forged))


def test_audit_rejects_broken_square_bipartition():
    _, _, core, run = _busy_instance()
    outside = sorted(run.final.outside)
    if not outside:
        pytest.skip("instance has no outside vertices")
    lopsided = SquareBipartition(frozenset(outside), frozenset(outside))
    tampered = dataclasses.replace(run, square=lopsided)
    with pytest.raises(AuditError):
        audit_core_run(core, tampered)


def _sound_outside_run():
    g = random_subcubic(60, 89, seed=5, require_non_cubic=True)
    comp = next(c for c in color_graph(g).components if c.core_run is not None)
    core, run = induced(g, comp.core_vertices).graph, comp.core_run
    assert run.square.h1 and run.square.h2 and run.final.s1
    return core, run


@pytest.mark.parametrize(
    "forge",
    [
        lambda sq, s: SquareBipartition(sq.h1 | {min(sq.h2)}, sq.h2),
        lambda sq, s: SquareBipartition(sq.h1, sq.h2 - {min(sq.h2)}),
        lambda sq, s: SquareBipartition(sq.h1 | {min(s.s1)}, sq.h2),
    ],
    ids=["h2_vertex_in_h1_too", "outside_vertex_dropped", "s_vertex_in_h1"],
)
def test_audit_rejects_square_parts_that_do_not_partition_the_outside(forge):
    core, run = _sound_outside_run()
    tampered = dataclasses.replace(run, square=forge(run.square, run.final))
    with pytest.raises(AuditError, match="square bipartition does not partition the outside"):
        audit_core_run(core, tampered)


def test_audit_rejects_square_parts_within_distance_two():
    g = random_subcubic(30, 40, seed=2, require_non_cubic=True)
    comp = next(c for c in color_graph(g).components if c.core_run is not None)
    core, run = induced(g, comp.core_vertices).graph, comp.core_run
    sq, order = square_outside(core, run.final)
    a, b = next(iter(sq.edges()))
    x = order[a]
    # x crosses to the part of order[b]; the parts still partition the outside
    moved = SquareBipartition(run.square.h1 ^ {x}, run.square.h2 ^ {x})
    assert not moved.h1 & moved.h2 and moved.h1 | moved.h2 == frozenset(order)
    tampered = dataclasses.replace(run, square=moved)
    with pytest.raises(AuditError, match=f"{min(x, order[b])}.* share a radius-2 part"):
        audit_core_run(core, tampered)


def test_audit_does_not_share_the_search_square(monkeypatch):
    # Wherever the package binds square_outside, it now returns an
    # edgeless square over the same outside order.  The search then
    # splits the outside blind to distance, and only an audit that does
    # not rebuild the square with the same function sees the close pairs.
    g = random_subcubic(30, 40, seed=2, require_non_cubic=True)
    core = induced(g, next(c for c in color_graph(g).components if c.core_run).core_vertices).graph

    def edgeless(g, state):
        _, order = square_outside(g, state)
        return Graph(len(order), ((),) * len(order)), order

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "spack" and getattr(module, "square_outside", None) is square_outside:
            monkeypatch.setattr(module, "square_outside", edgeless)
    run = color_core(core, compute_weights(core))
    assert square_outside(core, run.final)[0].edge_count  # the true square is not edgeless
    with pytest.raises(AuditError, match="share a radius-2 part"):
        audit_core_run(core, run)


def _swap_first_two(classes):
    """``classes`` with the vertex sets of its first two classes exchanged."""
    a, b, *rest = classes
    return (
        dataclasses.replace(a, vertices=b.vertices),
        dataclasses.replace(b, vertices=a.vertices),
        *rest,
    )


def test_audit_rejects_forged_weights():
    # A sound run on all-ones weights: every move replays under those
    # weights, but they are not the core's own.
    g = random_subcubic(60, 89, seed=5, require_non_cubic=True)
    result = color_graph(g)
    components = list(result.components)
    i, comp = next((i, c) for i, c in enumerate(components) if c.core_run is not None)
    core = induced(g, comp.core_vertices).graph
    components[i] = dataclasses.replace(comp, core_run=color_core(core, [1] * core.n))
    forged = dataclasses.replace(result, components=tuple(components))
    with pytest.raises(AuditError, match="recorded weights differ"):
        audit_color_result(g, forged)


def test_audit_rejects_a_run_whose_coloring_is_not_in_the_result():
    # Exchanging the result's two radius-1 classes leaves a valid
    # coloring and sound runs, but no run's 1_a class is in the result's.
    g, result, _, _ = _busy_instance()
    swapped = PackingColoring(g.n, _swap_first_two(result.coloring.classes))
    assert verify(g, swapped).ok
    with pytest.raises(AuditError, match="core class 1_a .* is not in the result"):
        audit_color_result(g, dataclasses.replace(result, coloring=swapped))


def test_audit_rejects_a_run_coloring_off_its_final_state():
    _, _, core, run = _busy_instance()
    swapped = PackingColoring(core.n, _swap_first_two(run.coloring.classes))
    with pytest.raises(AuditError, match="not the layout of its final sides"):
        audit_core_run(core, dataclasses.replace(run, coloring=swapped))


def _with_first_class(coloring, **changes):
    first, *rest = coloring.classes
    return PackingColoring(coloring.n, (dataclasses.replace(first, **changes), *rest))


@pytest.mark.parametrize(
    "reshape",
    [
        lambda c: PackingColoring(c.n + 1, c.classes),
        lambda c: _with_first_class(c, label="1_z"),
        lambda c: _with_first_class(c, radius=3),
    ],
    ids=["n_plus_one", "relabelled", "radius_3"],
)
def test_audit_rejects_a_run_coloring_of_the_wrong_shape(reshape):
    _, _, core, run = _busy_instance()
    with pytest.raises(AuditError, match="run coloring is not the layout"):
        audit_core_run(core, dataclasses.replace(run, coloring=reshape(run.coloring)))


def test_audit_rejects_invalid_final_coloring():
    g, result, _, _ = _busy_instance()
    classes = list(result.coloring.classes)
    ones = classes[0]
    victim = next(iter(classes[1].vertices))
    classes[0] = ColorClass(ones.label, ones.radius, ones.vertices | {victim})
    broken = dataclasses.replace(result, coloring=PackingColoring(g.n, tuple(classes)))
    with pytest.raises(AuditError):
        audit_color_result(g, broken)


def _with_a_k4(g):
    """``g`` and a disjoint K4 on the vertices ``g.n .. g.n + 3``."""
    k4 = [(g.n + a, g.n + b) for a in range(4) for b in range(a + 1, 4)]
    return build_graph(g.n + 4, [*g.edges(), *k4])


@pytest.mark.parametrize(
    "forge, cause",
    [
        (lambda core, n: (), EmptyGraphError),
        (lambda core, n: (0, 10**6), VertexOutOfRangeError),
        # the K4 joins the core as a second component, with no light vertex
        (lambda core, n: (*core, n, n + 1, n + 2, n + 3), DisconnectedError),
    ],
    ids=["empty", "out_of_range", "two_components"],
)
def test_audit_rejects_a_forged_core_with_an_audit_error(forge, cause):
    g = random_subcubic(30, 40, seed=2, require_non_cubic=True)
    host = _with_a_k4(g) if cause is DisconnectedError else g
    result = color_graph(host, ColorOptions(fallback_exact=True))
    components = list(result.components)
    i, comp = next((i, c) for i, c in enumerate(components) if c.core_run is not None)
    components[i] = dataclasses.replace(comp, core_vertices=forge(comp.core_vertices, g.n))
    forged = dataclasses.replace(result, components=tuple(components))
    with pytest.raises(AuditError, match="^core: ") as info:
        audit_color_result(host, forged)
    assert type(info.value.__cause__) is cause


@settings(max_examples=40, deadline=None)
@given(subcubic_graphs(min_n=1, max_n=50))
def test_audit_random_colorings(g):
    result = color_graph(g)
    report = audit_color_result(g, result)
    assert report.runs == sum(1 for c in result.components if c.core_run)


def _with_move(g, index, forge):
    """The coloring of ``g``, with record ``index`` of its first core run forged.

    ``forge(move, n)`` returns the forged move, n being the core's size.
    Returns the forged result, the core and the forged run.
    """
    result = color_graph(g)
    components = list(result.components)
    i, comp = next((i, c) for i, c in enumerate(components) if c.core_run is not None)
    core = induced(g, comp.core_vertices).graph
    moves = list(comp.core_run.moves)
    moves[index] = dataclasses.replace(moves[index], move=forge(moves[index].move, core.n))
    run = dataclasses.replace(comp.core_run, moves=tuple(moves))
    components[i] = dataclasses.replace(comp, core_run=run)
    return dataclasses.replace(result, components=tuple(components)), core, run


@pytest.mark.parametrize(
    "g, index, forge, message",
    [
        # SameSideExchange(entering=3, leaving=7) on a core of 30: -27 indexes vertex 3
        (random_subcubic(30, 44, seed=0, require_non_cubic=True), 0,
         lambda m, n: dataclasses.replace(m, entering=m.entering - n), "-27 is not a core vertex"),
        # Deg3Exchange(hub=26, entering=93, leaving=28): hub 26 stays on its side
        (random_subcubic(100, 149, seed=48, require_non_cubic=True), 15,
         lambda m, n: dataclasses.replace(m, hub=0), "0 is not a hub next to 93"),
        (random_subcubic(20, 26, seed=6), 0,
         lambda m, n: dataclasses.replace(m, entering=10**6), "1000000 is not a core vertex"),
        (random_subcubic(20, 26, seed=6), 0,
         lambda m, n: dataclasses.replace(m, leaving=10**6), "1000000 is not a core vertex"),
        # record 3 is an Absorb
        (random_subcubic(60, 89, seed=2, require_non_cubic=True), 3,
         lambda m, n: dataclasses.replace(m, side=5), "side 5 is not 1 or 2"),
        (random_subcubic(60, 89, seed=2, require_non_cubic=True), 3,
         lambda m, n: dataclasses.replace(m, side=0), "side 0 is not 1 or 2"),
        (random_subcubic(60, 89, seed=2, require_non_cubic=True), 3,
         lambda m, n: dataclasses.replace(m, side=True), "side True is not 1 or 2"),
        (random_subcubic(20, 26, seed=6), 0, lambda m, n: (1, 2), r"\(1, 2\) is not a move"),
        (random_subcubic(20, 26, seed=6), 0,
         lambda m, n: Flip(m.entering, 1, 5), r"Flip\(vertex=15, side=1, displaced=5\): "),
        # onto the other side, which holds a neighbour of the absorbed vertex
        (random_subcubic(60, 89, seed=2, require_non_cubic=True), 3,
         lambda m, n: dataclasses.replace(m, side=3 - m.side), "Absorb rejected: vertices 29 and 57"),
    ],
    ids=[
        "negative_id", "hub_label", "entering_past_n", "leaving_past_n",
        "side_5", "side_0", "side_true", "not_a_move", "displaced_not_a_tuple", "rejected_move",
    ],
)
def test_audit_rejects_a_malformed_move_record(g, index, forge, message):
    forged, core, run = _with_move(g, index, forge)
    with pytest.raises(AuditError, match=f"^move {index}: {message}"):
        audit_core_run(core, run)
    with pytest.raises(AuditError, match=f"^move {index}: {message}"):
        audit_color_result(g, forged)


def test_audit_rejects_a_core_id_that_is_not_an_int():
    g = random_subcubic(30, 40, seed=2, require_non_cubic=True)
    result = color_graph(g)
    components = list(result.components)
    i, comp = next((i, c) for i, c in enumerate(components) if c.core_run is not None)
    components[i] = dataclasses.replace(comp, core_vertices=tuple(map(float, comp.core_vertices)))
    with pytest.raises(AuditError, match="^core: .* not an int"):
        audit_color_result(g, dataclasses.replace(result, components=tuple(components)))


def _forgeries(move, n):
    """Each vertex id of ``move`` forged to -1 - v and to n + v, each side to 0 and 3, and a non-move."""
    for f in dataclasses.fields(move):
        value = getattr(move, f.name)
        if f.name == "side":
            yield from (dataclasses.replace(move, side=s) for s in (0, 3))
        elif isinstance(value, tuple):
            for j, v in enumerate(value):
                for bad in (-1 - v, n + v):
                    yield dataclasses.replace(move, **{f.name: (*value[:j], bad, *value[j + 1:])})
        elif value is not None:
            for bad in (-1 - value, n + value):
                yield dataclasses.replace(move, **{f.name: bad})
    yield (1, 2)


def test_audit_rejects_every_forged_field_of_every_record(corpus_noncubic):
    # The corpus commits Absorb, Flip and SameSideExchange only; the
    # three random graphs add a CycleSwap, a Deg3Exchange and a PathSwap
    # with a crossed endpoint.
    extra = [random_subcubic(20, 29, seed=s, require_non_cubic=True) for s in (94, 117, 118)]
    forgeries = 0
    kinds = set()
    for g in [*corpus_noncubic, *extra]:
        for comp in color_graph(g).components:
            run = comp.core_run
            if run is None:
                continue
            core = induced(g, comp.core_vertices).graph
            for k, record in enumerate(run.moves):
                kinds.add(type(record.move).__name__)
                for move in _forgeries(record.move, core.n):
                    moves = (*run.moves[:k], dataclasses.replace(record, move=move), *run.moves[k + 1:])
                    with pytest.raises(AuditError, match=f"^move {k}: "):
                        audit_core_run(core, dataclasses.replace(run, moves=moves))
                    forgeries += 1
    assert kinds == {"Absorb", "Flip", "Deg3Exchange", "SameSideExchange", "CycleSwap", "PathSwap"}
    assert forgeries > 500


def _run_with(comp, **fields):
    """``comp`` with its core run's ``fields`` replaced."""
    return dataclasses.replace(comp, core_run=dataclasses.replace(comp.core_run, **fields))


def _state_with_side(state, forge):
    return dataclasses.replace(state, side=[forge(s) for s in state.side])


@pytest.mark.parametrize(
    "seed, forge, message",
    [
        (6, lambda c: _run_with(c, moves=(dataclasses.replace(c.core_run.moves[0], after=None), *c.core_run.moves[1:])),
         "^core run: "),
        (6, lambda c: _run_with(c, moves=(
            dataclasses.replace(c.core_run.moves[0], after=Potential(None, None)), *c.core_run.moves[1:])),
         "^core run: "),
        (6, lambda c: _run_with(c, moves=(c.core_run.moves[0].move, *c.core_run.moves[1:])), "^core run: "),
        (6, lambda c: _run_with(c, moves=None), "^core run: "),
        (6, lambda c: _run_with(c, weights=None), "^core run: "),
        (6, lambda c: _run_with(c, initial=None), "^core run: "),
        (6, lambda c: _run_with(c, initial=_state_with_side(c.core_run.initial, float)), "^initial state: "),
        (6, lambda c: _run_with(c, initial=_state_with_side(c.core_run.initial, lambda s: s == 1 or s)),
         "^initial state: "),
        (6, lambda c: _run_with(c, final=None), "^core run: "),
        (6, lambda c: _run_with(c, final=dataclasses.replace(c.core_run.final, potential=Potential(999, 999))),
         "^replayed final state differs from recorded final state$"),
        (6, lambda c: _run_with(c, square=None), "^core run: "),
        (6, lambda c: _run_with(c, square=dataclasses.replace(c.core_run.square, h1=list(c.core_run.square.h1))),
         "^core run: "),
        # vertex 1 is in h1, and True == 1
        (0, lambda c: _run_with(c, square=dataclasses.replace(
            c.core_run.square, h1=frozenset(v if v != 1 else True for v in c.core_run.square.h1))),
         "square bipartition does not partition"),
        (6, lambda c: dataclasses.replace(c, core_vertices=None), "^core: None is not a tuple"),
        (6, lambda c: dataclasses.replace(c, core_run=5), "^core run: "),
        *[(6, lambda c, a=a: _run_with(c, attempts=a), f"^core run: attempts {a!r} is not an int in 1..12$")
          for a in (0, -3, 13, "x", True, None)],
    ],
    ids=[
        "after_none", "after_of_nones", "bare_move", "moves_none", "weights_none", "initial_none",
        "side_floats", "side_true_for_1", "final_none", "final_potential_forged", "square_none", "h1_a_list", "h1_true_for_1",
        "core_vertices_none", "core_run_not_a_run",
        "attempts_0", "attempts_minus_3", "attempts_13", "attempts_str", "attempts_true", "attempts_none",
    ],
)
def test_audit_rejects_every_malformed_run_field(seed, forge, message):
    # Beside the record forgeries above: each field of the first core
    # run, or of its component, forged to a value of the wrong type.
    g = random_subcubic(20, 26, seed=seed)
    result = color_graph(g)
    components = list(result.components)
    i, comp = next((i, c) for i, c in enumerate(components) if c.core_run is not None)
    components[i] = forge(comp)
    with pytest.raises(AuditError, match=message):
        audit_color_result(g, dataclasses.replace(result, components=tuple(components)))


def test_audit_checks_the_start_against_the_recorded_attempt():
    # Attempt k starts from the greedy start under the seed color_core
    # gives it (None for attempt 1, k - 1 after).  The first core run of
    # this graph is an attempt 1; recorded as any later attempt, its
    # start is not that attempt's.
    g = random_subcubic(20, 26, seed=6)
    result = color_graph(g)
    components = list(result.components)
    i, comp = next((i, c) for i, c in enumerate(components) if c.core_run is not None)
    assert comp.core_run.attempts == 1
    audit_color_result(g, result)
    for attempts in range(2, 13):
        components[i] = _run_with(comp, attempts=attempts)
        message = f"^core run: initial state is not the start of attempt {attempts}$"
        with pytest.raises(AuditError, match=message):
            audit_color_result(g, dataclasses.replace(result, components=tuple(components)))
    # Runs whose canonical start gets stuck restart once and audit clean
    # from their seeded start, but not as attempt 1 or 3.
    for n, m, seed in ((105, 157, 9000345), (79, 118, 3763), (100, 148, 722)):
        g = random_subcubic(n, m, seed=seed)
        result = color_graph(g)
        audit_color_result(g, result)
        components = list(result.components)
        i, comp = next((i, c) for i, c in enumerate(components) if c.core_run is not None)
        assert comp.core_run.attempts == 2
        for attempts in (1, 3):
            components[i] = _run_with(comp, attempts=attempts)
            with pytest.raises(AuditError, match=f"start of attempt {attempts}$"):
                audit_color_result(g, dataclasses.replace(result, components=tuple(components)))


def _with_classes(coloring, forge):
    """``coloring`` with each class replaced by ``forge(class)``."""
    return PackingColoring(coloring.n, tuple(map(forge, coloring.classes)))


def _vertex_1_as(value):
    """A class forgery putting ``value`` in place of vertex 1."""
    return lambda c: dataclasses.replace(c, vertices=frozenset(value if v == 1 else v for v in c.vertices))


def _run_coloring_with_true_for_1(result):
    components = list(result.components)
    i, comp = next((i, c) for i, c in enumerate(components) if c.core_run is not None)
    components[i] = _run_with(comp, coloring=_with_classes(comp.core_run.coloring, _vertex_1_as(True)))
    return dataclasses.replace(result, components=tuple(components))


def _with_coloring(forge):
    return lambda result: dataclasses.replace(result, coloring=forge(result.coloring))


@pytest.mark.parametrize(
    "forge, message",
    [
        (_with_coloring(lambda c: _with_classes(c, lambda k: dataclasses.replace(k, radius=1))),
         "^result coloring is not the"),
        (_with_coloring(lambda c: PackingColoring(c.n, (
            *c.classes[:2], dataclasses.replace(c.classes[2], radius=1), c.classes[3]))),
         "^result coloring is not the"),
        (_with_coloring(lambda c: _with_classes(c, lambda k: dataclasses.replace(k, label=k.label.upper()))),
         "^result coloring is not the"),
        (_with_coloring(lambda c: PackingColoring(c.n, (*c.classes, ColorClass("2_c", 2, frozenset())))),
         "^result coloring is not the"),
        (_with_coloring(lambda c: _with_classes(c, _vertex_1_as(True))), "^result coloring is not the"),
        (_run_coloring_with_true_for_1, "run coloring is not the layout"),
        (_with_coloring(lambda c: PackingColoring(c.n + 1, c.classes)), "^result coloring is not the"),
        (_with_coloring(lambda c: PackingColoring(c.n, (
            *c.classes[:3], dataclasses.replace(c.classes[3], vertices=c.classes[3].vertices | {10**6})))),
         "^result coloring: class '2_b' mentions vertex 1000000 outside"),
        (_with_coloring(lambda c: _with_classes(c, _vertex_1_as(1.0))), "^result coloring is not the"),
        (_with_coloring(lambda c: PackingColoring(c.n, None)), "^result coloring: "),
        (_with_coloring(lambda c: None), "^result coloring: "),
    ],
    ids=[
        "all_radius_1", "2_a_radius_1", "relabelled", "fifth_class", "true_for_1", "run_true_for_1",
        "n_plus_one", "vertex_out_of_range", "float_id", "classes_none", "coloring_none",
    ],
)
def test_audit_rejects_every_malformed_result_coloring(forge, message):
    g = random_subcubic(20, 26, seed=0)
    result = color_graph(g)
    assert audit_color_result(g, result).runs
    with pytest.raises(AuditError, match=message):
        audit_color_result(g, forge(result))
