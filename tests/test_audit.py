import dataclasses
import sys

import pytest
from hypothesis import given, settings

from spack.audit import AuditError, AuditReport, audit_color_result, audit_core_run
from spack.colorer import ColorOptions, color_core, color_graph
from spack.exchange import OUTSIDE, MoveRecord, SquareBipartition, square_outside
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
