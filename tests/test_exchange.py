import dataclasses
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spack.colorer
import spack.exchange
from spack.audit import AuditError, audit_color_result, audit_core_run
from spack.colorer import ColorOptions, color_core, color_graph, peel
from spack.exchange import (
    OUTSIDE,
    Absorb,
    BipartitionState,
    Candidate,
    CycleSwap,
    Deg3Exchange,
    Flip,
    InvalidMoveError,
    InvalidStateError,
    MinDegreeError,
    MoveBudgetExceededError,
    PathSwap,
    SameSideExchange,
    SquareBipartition,
    StuckError,
    _CHEAP_KINDS,
    _Worklist,
    _absorb_move,
    _find_square_swap,
    _flip_move,
    _hub_move,
    _hub_side,
    _outside_sides,
    _same_side_move,
    _state_from_sides,
    _swap_candidates_for_cycle,
    check_fixpoint_invariants,
    commit_move,
    evaluate_move,
    initial_state,
    run_to_fixpoint,
    square_outside,
)
from spack.gen import cycle, path, prism, random_subcubic
from spack.graph import bipartition_or_odd_cycle, build_graph, induced
from spack.graphio import parse_graph6
from spack.weights import Potential, compute_weights, inside_potential, touched_potential
from oracles import (
    _absorb_side,
    _exchange_side,
    _flip_side,
    _try_move,
    apply_move,
    assert_canonical,
    distance_matrix,
    make_state,
    reference_bipartition_or_odd_cycle,
    reference_deg3_exchange_at,
    reference_run_to_fixpoint,
    reference_swap_candidates,
)
from strategies import subcubic_graphs

C4, C5 = cycle(4), cycle(5)
W4, W5 = [1, 1, 1, 1], [1, 1, 1, 1, 1]

# The cheap kinds in priority order as (build, rule, the radius within
# which the rule reads sides); the three outside rules are the oracles'
# one-rule-per-kind functions, which ``_outside_sides`` answers together.
KINDS = (
    (_absorb_move, _absorb_side, 1),
    (_flip_move, _flip_side, 2),
    (_hub_move, _hub_side, 1),
    (_same_side_move, _exchange_side, 2),
)
FLAG_OF = dict(_CHEAP_KINDS)  # build -> the index of its kind's flag array


def _evaluate(build, rule, g, w, state, v):
    """One kind's move at v as the search takes it: rule, then build, then ``_try_move``.

    Returns the validated Candidate, or None where the rule fails, the
    builder makes no move or the move does not validate.
    """
    s = rule(g, w, state, v)
    move = s and build(g, w, state, v, s)
    return _try_move(g, w, state, move) if move else None


def _move_at(build, rule, g, w, state, v):
    """The move one kind finds at v, without its evaluation."""
    found = _evaluate(build, rule, g, w, state, v)
    return found.move if found else None


def _first_move(build, rule, g, w, state):
    """The first move of one kind over all vertices in ascending id."""
    return next((mv for v in range(g.n) if (mv := _move_at(build, rule, g, w, state, v))), None)


def find_move(g, w, state):
    """The move the search would commit first from ``state``; None at a fixpoint."""
    found = _Worklist(g, w, state).next_move() or _find_square_swap(g, w, state)
    return None if isinstance(found, SquareBipartition) else found.move


def test_make_state_counts_and_potential():
    state = make_state(C4, W4, {0, 2}, {1, 3})
    assert state.s1 == {0, 2} and state.s2 == {1, 3}
    assert state.outside == frozenset()
    assert state.potential == Potential(4, 4)
    assert state.nbr[OUTSIDE] == [0, 0, 0, 0]
    assert state.nbr[1] == [0, 2, 0, 2]
    assert state.nbr[2] == [2, 0, 2, 0]


def test_make_state_rejects_overlap_and_dependence():
    with pytest.raises(InvalidStateError):
        make_state(C4, W4, {0, 1}, {1})
    with pytest.raises(InvalidStateError):
        make_state(C4, W4, {0, 1}, {2})


def test_initial_state_needs_min_degree_two():
    with pytest.raises(MinDegreeError):
        initial_state(path(3), [1, 1, 1])


def test_initial_state_c4_is_complete_bipartition():
    state = initial_state(C4, W4)
    assert state.s1 == {0, 2} and state.s2 == {1, 3}
    assert find_move(C4, W4, state) is None


def test_initial_state_c5_leaves_one_outside():
    state = initial_state(C5, W5)
    assert state.s1 == {0, 2} and state.s2 == {1, 3}
    assert state.outside == {4}
    assert state.potential == Potential(3, 4)
    assert find_move(C5, W5, state) is None


def test_initial_state_seeded_is_deterministic_and_valid():
    core, _ = peel(random_subcubic(30, 40, seed=7))
    g = induced(random_subcubic(30, 40, seed=7), core).graph
    w = compute_weights(g)
    for seed in (1, 2, 3):
        a = initial_state(g, w, seed=seed)
        b = initial_state(g, w, seed=seed)
        assert a.side == b.side
    assert initial_state(g, w, seed=1).side != initial_state(g, w, seed=2).side


def _assert_start_state_is_made_from_its_sides(g):
    core, _ = peel(g)
    if not core:
        return
    sub = induced(g, core).graph
    w = compute_weights(sub)
    for seed in (None, 1, 2):
        start = initial_state(sub, w, seed=seed)
        ref = make_state(sub, w, start.s1, start.s2)
        assert (start.side, start.nbr, start.potential) == (ref.side, ref.nbr, ref.potential), f"seed={seed}"


def test_initial_state_equals_make_state_on_corpus(corpus_noncubic):
    for g in corpus_noncubic:
        _assert_start_state_is_made_from_its_sides(g)


@pytest.mark.parametrize("seed", range(8))
def test_initial_state_equals_make_state_on_random_cores(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 150)
    m = rng.randint(n - 1, 3 * n // 2 - 1)
    _assert_start_state_is_made_from_its_sides(random_subcubic(n, m, seed=seed))


def test_apply_move_absorb():
    state = make_state(C4, W4, {0}, set())
    after = apply_move(C4, W4, state, Absorb(1, 2))
    assert after.s2 == {1}
    assert after.potential == Potential(1, 2)
    # the original state is untouched
    assert state.s2 == frozenset()


def test_commit_move_leaves_no_op_entries_alone():
    # No generated plan reassigns a vertex to its own side, but a forged
    # one may: 0 stays on side 1 and 3 outside while 2 is absorbed.
    state = make_state(C4, W4, {0}, set())
    found = evaluate_move(C4, W4, state, Absorb(2, 1))
    forged = Candidate(found.move, [(0, 1), (3, OUTSIDE)] + found.plan, found.potential)
    commit_move(C4, state, forged)
    fresh = make_state(C4, W4, {0, 2}, set())
    assert (state.side, state.nbr, state.potential) == (fresh.side, fresh.nbr, fresh.potential)


def test_apply_move_rejects_conflict():
    state = make_state(C4, W4, {0, 2}, {1, 3})
    with pytest.raises(InvalidMoveError):
        apply_move(C4, W4, state, Absorb(0, 2))


def test_apply_move_rejects_non_increase():
    state = make_state(C5, W5, {0, 2}, {1, 3})
    with pytest.raises(InvalidMoveError):
        apply_move(C5, W5, state, SameSideExchange(entering=4, leaving=0))


def test_evaluate_move_rejects_malformed_moves():
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 5)])
    w = [3, 2, 1, 1, 1, 1]
    # The hub 0 sits on the leaving vertex's side next to 3 on the other.
    state = make_state(g, w, {0, 4}, {3, 5})
    with pytest.raises(InvalidMoveError, match="^0 is not a hub next to 1$"):
        evaluate_move(g, w, state, Deg3Exchange(hub=0, entering=1, leaving=4))
    with pytest.raises(InvalidMoveError, match=r"^\(1, 2\) is not a move$"):
        evaluate_move(g, w, state, (1, 2))
    # A Flip that displaces its own vertex assigns it twice.
    state = make_state(C4, W4, {0}, {2})
    with pytest.raises(InvalidMoveError, match="plan assigns a vertex twice"):
        evaluate_move(C4, W4, state, Flip(vertex=1, side=1, displaced=(0, 1)))


def _malformed(move, n):
    """Each malformed variant of ``move``, with the start of the message ``evaluate_move`` gives it.

    Every vertex id forged to -1 - v and to n + v, the side to 0, 3 and
    True, ``displaced`` to an int, a Deg3Exchange's hub to its entering
    vertex, a PathSwap's cross to the lowest vertex off the ends of its
    path, and a tuple in place of the move.
    """
    for f in dataclasses.fields(move):
        value = getattr(move, f.name)
        if f.name == "side":
            for s in (0, 3, True):
                yield dataclasses.replace(move, side=s), f"side {s!r} is not 1 or 2$"
        elif isinstance(value, tuple):
            for j, v in enumerate(value):
                for bad in (-1 - v, n + v):
                    forged = (*value[:j], bad, *value[j + 1:])
                    yield dataclasses.replace(move, **{f.name: forged}), f"{bad} is not a core vertex$"
        elif value is not None:
            for bad in (-1 - value, n + value):
                yield dataclasses.replace(move, **{f.name: bad}), f"{bad} is not a core vertex$"
        if f.name == "displaced":
            forged = dataclasses.replace(move, displaced=n)
            yield forged, re.escape(f"{forged!r}: ")
        if f.name == "hub":
            yield dataclasses.replace(move, hub=move.entering), f"{move.entering} is not a hub next to {move.entering}$"
        if f.name == "cross":
            off = min(set(range(n)) - {move.path[0], move.path[-1]})
            yield dataclasses.replace(move, cross=off), re.escape(f"cross {off} is not an end of path {move.path}") + "$"
    yield (1, 2), r"\(1, 2\) is not a move$"


def test_evaluate_move_rejects_every_malformed_move():
    # Replays each committed move of four runs that commit every kind,
    # the crossed PathSwap included, through the exchange module alone;
    # before each commit, every malformed variant of the move is
    # rejected with its reason, and the state is left as it was.
    graphs = [random_subcubic(12, 16, seed=23, require_non_cubic=True)]
    graphs += [random_subcubic(20, 29, seed=s, require_non_cubic=True) for s in (94, 117, 118)]
    kinds, forgeries = set(), 0
    for g in graphs:
        sub, w = _core(g)
        run = color_core(sub, w)
        state = run.initial.copy()
        for record in run.moves:
            kinds.add(type(record.move).__name__)
            before = state.copy()
            for move, message in _malformed(record.move, sub.n):
                with pytest.raises(InvalidMoveError, match=f"^{message}"):
                    evaluate_move(sub, w, state, move)
                forgeries += 1
            assert (state.side, state.nbr, state.potential) == (before.side, before.nbr, before.potential)
            commit_move(sub, state, evaluate_move(sub, w, state, record.move))
        assert state.side == run.final.side
    assert kinds == {"Absorb", "Flip", "Deg3Exchange", "SameSideExchange", "CycleSwap", "PathSwap"}
    assert forgeries > 100
    # A cross that no end of the path names, on a path of one vertex or
    # none, is rejected; without it the same swap validates.
    w = [1, 1, 1, 1, 2]
    state = make_state(C5, w, {0, 2}, {1, 3})
    assert evaluate_move(C5, w, state, PathSwap((4,), (0,), 1)).potential == Potential(3, 5)
    for path in ((4,), ()):
        with pytest.raises(InvalidMoveError, match=re.escape(f"cross 2 is not an end of path {path}") + "$"):
            evaluate_move(C5, w, state, PathSwap(path, (0,), 1, cross=2))


@pytest.mark.parametrize(
    "forge",
    [
        lambda side: side + [OUTSIDE],
        lambda side: side[:-1],
        lambda side: [3 if s == 2 else s for s in side],
        lambda side: [-1 if s == OUTSIDE else s for s in side],
        lambda side: [float(s) for s in side],
        lambda side: [True if s == 1 else s for s in side],
    ],
    ids=["one_too_long", "one_too_short", "side_3", "side_minus_1", "side_floats", "side_true_for_1"],
)
def test_state_from_sides_rejects_a_malformed_side_list(forge):
    side = [1, 2, 1, 2, OUTSIDE]
    assert _state_from_sides(C5, W5, side).potential == Potential(3, 4)
    with pytest.raises(InvalidStateError, match="^not a side list of length 5 over 0, 1 and 2$"):
        _state_from_sides(C5, W5, forge(side))


def test_evaluate_move_names_the_first_conflicting_pair():
    # Both entrants meet side 1 (4 at 3, 1 at 0); the plan enters 4 first.
    g, w = cycle(6), [1] * 6
    state = make_state(g, w, {0, 3}, set())
    first = "^PathSwap rejected: vertices 4 and 3 would share side 1$"
    with pytest.raises(InvalidMoveError, match=first):
        evaluate_move(g, w, state, PathSwap(path=(4, 1), displaced=(), side=1))


def test_evaluate_move_names_a_non_increasing_potential():
    # 4 replaces 0: three inside edges and weight 4 before and after.
    state = make_state(C5, W5, {0, 2}, {1, 3})
    same = re.escape(f"potential {Potential(3, 4)} -> {Potential(3, 4)} is not a strict increase")
    with pytest.raises(InvalidMoveError, match=f"^SameSideExchange rejected: {same}$"):
        evaluate_move(C5, W5, state, SameSideExchange(entering=4, leaving=0))


def test_find_move_prefers_absorb():
    state = make_state(C4, W4, {0}, set())
    assert find_move(C4, W4, state) == Absorb(1, 2)


def test_find_move_flip():
    state = make_state(C4, W4, {0}, {2})
    move = find_move(C4, W4, state)
    assert move == Flip(vertex=1, side=1, displaced=(0,))
    after = apply_move(C4, W4, state, move)
    assert after.s1 == {1} and after.s2 == {0, 2}


def test_deg3_exchange_finder():
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 5)])
    w = [3, 2, 1, 1, 1, 1]
    state = make_state(g, w, {0, 4}, {5})
    move = _first_move(_hub_move, _hub_side, g, w, state)
    assert move == Deg3Exchange(hub=0, entering=1, leaving=4)
    after = apply_move(g, w, state, move)
    assert after.side[0] == 2 and after.side[1] == 1 and after.side[4] == 0
    assert after.potential > state.potential


def test_same_side_exchange_finder():
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    w = [1, 1, 1, 1, 1]
    state = make_state(g, w, {1, 2, 4}, {3})
    move = _first_move(_same_side_move, _exchange_side, g, w, state)
    assert move == SameSideExchange(entering=0, leaving=3)
    after = apply_move(g, w, state, move)
    assert after.side[0] == 2 and after.side[3] == 0


def test_square_outside():
    state = make_state(C4, W4, {0}, {2})
    sq, order = square_outside(C4, state)
    assert order == (1, 3)
    assert list(sq.edges()) == [(0, 1)]  # distance 2 through either side


def test_swap_candidates_pure_square_cycle():
    # Three outside vertices pairwise at distance two through S vertices.
    g = build_graph(6, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])
    w = [1] * 6
    state = make_state(g, w, {3, 5}, {4})
    candidates = list(_swap_candidates_for_cycle(g, state, (0, 1, 2)))
    assert candidates[0] == CycleSwap((0, 1, 2), (3, 5), 1)
    assert CycleSwap((0, 1, 2), (4,), 2) in candidates
    # No genuine edges on the cycle, so cross endpoints appear too.
    assert PathSwap((0, 1, 2), (3, 4, 5), 1, cross=2) in candidates
    assert len(candidates) == len(set(candidates))


def test_swap_candidates_all_genuine_cycle_needs_cross():
    # On a real odd cycle every consecutive pair is a genuine edge, so
    # only two-vertex arcs with a crossed endpoint survive the filter.
    w = W5
    state = make_state(C5, w, set(), set())
    candidates = list(_swap_candidates_for_cycle(C5, state, (0, 1, 2, 3, 4)))
    assert candidates
    for move in candidates:
        assert isinstance(move, PathSwap)
        assert len(move.path) == 2
        assert move.cross in move.path


def test_swap_candidates_are_deduplicated():
    g = build_graph(6, [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])
    state = make_state(g, [1] * 6, {3, 5}, {4})
    candidates = list(_swap_candidates_for_cycle(g, state, (0, 1, 2)))
    keys = [
        (frozenset(m.cycle if isinstance(m, CycleSwap) else m.path),
         m.side,
         None if isinstance(m, CycleSwap) else m.cross)
        for m in candidates
    ]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_swap_candidates_bounded_by_cycle_length(k):
    # k - 2 shorter arc lengths, k starts, two sides and three crossing
    # choices, and for the full cycle three choices at start 0 and one
    # at each of starts 1..k-2, bound the candidates of a k-cycle by
    # 6k(k - 2) + 2k + 2, so the square stage tries them all.  The even
    # vertices of C_2k form a k-cycle of its square with no genuine edge
    # (every crossing choice survives); C_k itself has a genuine edge
    # between every consecutive pair.
    sparse = cycle(2 * k)
    dense = cycle(k)
    for g, cyc in ((sparse, tuple(range(0, 2 * k, 2))), (dense, tuple(range(k)))):
        state = make_state(g, [1] * g.n, set(), set())
        candidates = list(_swap_candidates_for_cycle(g, state, cyc))
        assert 0 < len(candidates) <= 6 * k * (k - 2) + 2 * k + 2


def test_run_to_fixpoint_c4_from_empty():
    state = make_state(C4, W4, set(), set())
    result = run_to_fixpoint(C4, W4, state)
    assert result.state.potential == Potential(4, 4)
    assert len(result.moves) == 4
    potentials = [state.potential] + [r.after for r in result.moves]
    assert all(b > a for a, b in zip(potentials, potentials[1:]))
    assert result.square_bipartition.h1 == result.square_bipartition.h2 == frozenset()


def test_run_to_fixpoint_records_match_moves():
    g = random_subcubic(24, 30, seed=11)
    core, _ = peel(g)
    sub = induced(g, core)
    w = compute_weights(sub.graph)
    start = initial_state(sub.graph, w)
    result = run_to_fixpoint(sub.graph, w, start)
    replay = start
    for record in result.moves:
        assert record.before == replay.potential
        replay = apply_move(sub.graph, w, replay, record.move)
        assert record.after == replay.potential
    assert replay.side == result.state.side


def test_default_move_budget_is_the_potential_bound(monkeypatch, corpus_noncubic):
    # Every commit raises the potential (inside edges in [0, m], inside
    # weight in [0, sum w]) lexicographically, so no run needs more than
    # (m + 1)(sum w + 1) commits.
    for g in corpus_noncubic:
        for comp in color_graph(g).components:
            if comp.core_run is not None:
                m = induced(g, comp.core_vertices).graph.edge_count
                assert len(comp.core_run.moves) < (m + 1) * (sum(comp.core_run.weights) + 1)
    # A commit that changes nothing repeats until that default runs out:
    # C4 has m = 4 and weight 4 in total, so 25 commits.
    monkeypatch.setattr(spack.exchange, "commit_move", lambda g, state, found: None)
    state = make_state(C4, W4, set(), set())
    with pytest.raises(MoveBudgetExceededError, match="move budget 25 exhausted"):
        run_to_fixpoint(C4, W4, state)


def test_fixpoint_invariants_flag_bad_states():
    w = W5
    # {0,2} / {} leaves outside vertices with no side-2 witness at all.
    state = make_state(C5, w, {0, 2}, set())
    problems = check_fixpoint_invariants(C5, w, state)
    assert problems
    assert any("side-2" in p for p in problems)
    clean = make_state(C5, w, {0, 2}, {1, 3})
    assert check_fixpoint_invariants(C5, w, clean) == []
    # the outside-neighbor bounds read the cached outside counts
    problems = check_fixpoint_invariants(C5, w, make_state(C5, w, {0}, set()))
    assert "outside vertex 2 has 2 outside neighbors" in problems
    g = prism(3)
    problems = check_fixpoint_invariants(g, [1] * g.n, make_state(g, [1] * g.n, {0}, set()))
    assert "S-vertex 0 has 3 outside neighbors" in problems


@pytest.mark.parametrize(
    "text, n, m, kinds",
    [
        ("JuO`OgH@_@_", 11, 16, ["SameSideExchange", "PathSwap"]),
        ("KuO`OgH@_@_@", 12, 17, ["SameSideExchange", "PathSwap"]),
        ("KuO`OgH@?C?E", 12, 16, ["SameSideExchange", "PathSwap", "SameSideExchange", "SameSideExchange"]),
    ],
)
def test_the_square_stage_runs_up_to_twelve_vertices(text, n, m, kinds):
    # Of the 27,413 connected non-cubic subcubic graphs with n <= 12,
    # these three alone commit a square-stage swap; each has an
    # 11-vertex core, colours on its first attempt and audits clean.
    g = parse_graph6(text)
    assert (g.n, sum(1 for _ in g.edges())) == (n, m)
    result = color_graph(g)
    [run] = [c.core_run for c in result.components if c.core_run is not None]
    assert run.attempts == 1 and len(run.initial.side) == 11
    assert [type(r.move).__name__ for r in run.moves] == kinds
    assert audit_color_result(g, result).moves == len(kinds)


def test_cross_path_swap_regression():
    # This instance ends on an odd square cycle closed by a genuine edge
    # between two-S vertices; only an arc entry with a crossed endpoint
    # resolves it.
    g = random_subcubic(53, 73, seed=178)
    core, _ = peel(g)
    sub = induced(g, core)
    w = compute_weights(sub.graph)
    run = color_core(sub.graph, w)
    assert run.attempts == 1
    crossed = [
        r.move
        for r in run.moves
        if isinstance(r.move, PathSwap) and r.move.cross is not None
    ]
    assert crossed


@pytest.mark.parametrize("n, m, seed", [(105, 157, 9000345), (79, 118, 3763), (100, 148, 722)])
def test_restart_rescues_stuck_canonical_start(n, m, seed):
    # The canonical greedy start of each instance reaches a potential
    # local optimum: an odd square cycle whose every candidate swap is
    # rejected.  A reseeded start escapes it.  The last two are known
    # stuck starts of random graphs at or near the edge ceiling.
    g = random_subcubic(n, m, seed=seed)
    core, _ = peel(g)
    sub = induced(g, core)
    w = compute_weights(sub.graph)
    with pytest.raises(StuckError) as exc:
        run_to_fixpoint(sub.graph, w, initial_state(sub.graph, w))
    assert exc.value.cycle
    run = color_core(sub.graph, w)
    assert run.attempts == 2
    # restart_attempts is read by nothing: one attempt is not enforced
    assert color_core(sub.graph, w, restart_attempts=1).attempts == 2


def test_color_core_makes_twelve_starts_then_raises_the_last_stuck(monkeypatch):
    sub, w = _core(FAULT_GRAPH)
    errors = []

    def stuck(g, w, state, **kwargs):
        errors.append(StuckError("stuck", state, ()))
        raise errors[-1]

    monkeypatch.setattr(spack.colorer, "run_to_fixpoint", stuck)
    with pytest.raises(StuckError) as exc:
        color_core(sub, w, restart_attempts=1)
    assert len(errors) == ColorOptions().restart_attempts == 12
    assert exc.value is errors[-1]


def test_square_stage_raises_stuck_itself():
    # The square stage raises StuckError on the state where the canonical
    # run of the instance above stops, with the same cycle tried.
    g = random_subcubic(105, 157, seed=9000345)
    sub, w = _core(g)
    with pytest.raises(StuckError) as exc:
        run_to_fixpoint(sub, w, initial_state(sub, w))
    stuck = exc.value
    with pytest.raises(StuckError) as again:
        _find_square_swap(sub, w, stuck.state)
    assert again.value.cycle == stuck.cycle
    assert again.value.state is stuck.state
    # The one cycle tried is the square 2-coloring's certificate.
    sq, order = square_outside(sub, stuck.state)
    certificate = bipartition_or_odd_cycle(sq)
    assert stuck.cycle == tuple(order[i] for i in certificate.vertices)


@pytest.mark.parametrize("n, m, seed", [(14, 20, 1336), (17, 25, 758)])
def test_square_certificate_matches_reference_on_stuck_states(n, m, seed):
    # Two of the smallest instances whose canonical run gets stuck: the
    # certificate of the odd outside square is the one cycle tried.
    sub, w = _core(random_subcubic(n, m, seed=seed))
    with pytest.raises(StuckError) as exc:
        run_to_fixpoint(sub, w, initial_state(sub, w))
    sq, order = square_outside(sub, exc.value.state)
    certificate = bipartition_or_odd_cycle(sq)
    assert certificate == reference_bipartition_or_odd_cycle(sq)
    assert exc.value.cycle == tuple(order[i] for i in certificate.vertices)


def _random_triple(rng):
    """A random graph, side list and k-cycle of distinct vertices, k odd in 3..9.

    Each step of the cycle follows a graph edge when it can, or else
    jumps, so genuine consecutive pairs fall anywhere on the cycle, the
    closing pair included.  The swap generator reads only the sides.
    """
    n = rng.randint(10, 24)
    g = random_subcubic(n, rng.randint(n, 3 * n // 2), seed=rng.randrange(10**6))
    side = [rng.randrange(3) for _ in range(n)]
    k = rng.choice((3, 5, 7, 9))
    walk = [rng.randrange(n)]
    while len(walk) < k:
        free = [u for u in g.adj[walk[-1]] if u not in walk]
        if not free or rng.random() < 0.3:
            free = [u for u in range(n) if u not in walk]
        walk.append(rng.choice(free))
    return g, BipartitionState(side, [], Potential(0, 0)), tuple(walk)


def test_swap_candidates_match_the_reference():
    rng = random.Random(31)
    triples = [_random_triple(rng) for _ in range(400)]
    for n, m, seed in [(14, 20, 1336), (17, 25, 758), (79, 118, 3763), (100, 148, 722), (105, 157, 9000345)]:
        sub, w = _core(random_subcubic(n, m, seed=seed))
        with pytest.raises(StuckError) as exc:
            run_to_fixpoint(sub, w, initial_state(sub, w))
        triples.append((sub, exc.value.state, exc.value.cycle))
    for g, state, cyc in triples:
        assert list(_swap_candidates_for_cycle(g, state, cyc)) == list(reference_swap_candidates(g, state, cyc))


def test_square_stage_returns_bipartition_at_clean_fixpoint():
    g = random_subcubic(53, 73, seed=178)
    sub, w = _core(g)
    result = run_to_fixpoint(sub, w, initial_state(sub, w))
    found = _find_square_swap(sub, w, result.state)
    assert found == result.square_bipartition
    assert isinstance(found, SquareBipartition)


@settings(max_examples=50, deadline=None)
@given(subcubic_graphs(min_n=3, max_n=40))
def test_exchange_reaches_clean_fixpoint(g):
    core, _ = peel(g)
    if not core:
        return
    sub = induced(g, core)
    w = compute_weights(sub.graph)
    state = initial_state(sub.graph, w)
    result = run_to_fixpoint(sub.graph, w, state)
    assert check_fixpoint_invariants(sub.graph, w, result.state) == []
    outside = result.state.outside
    assert result.square_bipartition.h1 | result.square_bipartition.h2 == outside
    assert not (result.square_bipartition.h1 & result.square_bipartition.h2)


def _outcome(engine, g, w, state):
    """Everything a run exposes: its trail, end state and bipartition, or where it got stuck."""
    try:
        result = engine(g, w, state)
    except StuckError as stuck:
        return "stuck", stuck.cycle, stuck.state.side
    return "fixpoint", result.moves, result.state.side, result.square_bipartition


def _assert_same_as_reference(g, seeds=(None,)):
    core, _ = peel(g)
    if not core:
        return
    sub = induced(g, core).graph
    w = compute_weights(sub)
    for seed in seeds:
        start = initial_state(sub, w, seed=seed)
        assert _outcome(run_to_fixpoint, sub, w, start) == _outcome(
            reference_run_to_fixpoint, sub, w, start
        ), f"seed={seed}"


def test_worklist_matches_full_rescan_on_corpus(corpus_noncubic):
    for g in corpus_noncubic:
        _assert_same_as_reference(g, seeds=(None, 1))


@settings(max_examples=60, deadline=None)
@given(subcubic_graphs(min_n=3, max_n=120), st.integers(1, 50))
def test_worklist_matches_full_rescan_on_random_graphs(g, seed):
    _assert_same_as_reference(g, seeds=(None, seed))


def test_worklist_matches_full_rescan_through_swaps_and_restarts():
    # Square swaps re-flag their changed vertices; the first instance
    # needs a crossed path swap, the second gets stuck on its canonical
    # start and recovers from a seeded one.
    _assert_same_as_reference(random_subcubic(53, 73, seed=178), seeds=(None,))
    _assert_same_as_reference(random_subcubic(105, 157, seed=9000345), seeds=(None, 1, 2))


def _worklist_checks(g, seeds=(None,)):
    """Search g's core from each seeded start, checking the worklist invariant.

    The search's worklist is replaced by one that, when built and after
    every commit, asserts of each kind k at each vertex v that
    ``flags[k][v]`` is set exactly where the kind-k rule holds, that a
    clear flag means ``_evaluate`` at v returns None, and that a set
    Absorb, Flip or SameSideExchange flag yields a move.  When no Absorb
    or Flip flag is set, every set Deg3Exchange flag yields a move too
    (the hub lemma), and it is the move that the reference search over
    every (x, y) pair finds first.  Returns how many times it checked.
    """
    if not peel(g)[0]:
        return 0
    sub, w = _core(g)
    checks = 0

    class CheckedWorklist(_Worklist):
        def __init__(self, graph, weights, state):
            super().__init__(graph, weights, state)
            self.check()

        def touch(self, changed):
            super().touch(changed)
            self.check()

        def check(self):
            nonlocal checks
            graph, state = self.g, self.state
            hubs_fire = not any(1 in flags for flags in self.flags[:2])
            for build, rule, _ in KINDS:
                flags = self.flags[FLAG_OF[build]]
                for v in range(graph.n):
                    where = (build.__name__, v)
                    assert bool(flags[v]) == bool(rule(graph, w, state, v)), where
                    found = _evaluate(build, rule, graph, w, state, v)
                    if not flags[v]:
                        assert found is None, where
                    elif build is not _hub_move:
                        assert found is not None, where
                    elif hubs_fire:
                        reference = reference_deg3_exchange_at(graph, w, state, v)
                        assert found is not None and found.move == reference.move, where
            checks += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spack.exchange, "_Worklist", CheckedWorklist)
        for seed in seeds:
            try:
                run_to_fixpoint(sub, w, initial_state(sub, w, seed=seed))
            except StuckError:
                pass
    return checks


def test_worklist_clear_flag_means_no_move_on_corpus(corpus_noncubic):
    assert sum(_worklist_checks(g, seeds=(None, 1)) for g in corpus_noncubic) > 0


@settings(max_examples=40, deadline=None)
@given(subcubic_graphs(min_n=3, max_n=80), st.integers(1, 50))
def test_worklist_clear_flag_means_no_move_on_random_graphs(g, seed):
    _worklist_checks(g, seeds=(None, seed))


def test_worklist_clear_flag_means_no_move_through_swaps_and_restarts():
    # As in the differential test above: a crossed path swap, then a
    # canonical start that gets stuck and two seeded restarts.
    assert _worklist_checks(random_subcubic(53, 73, seed=178)) > 1
    assert _worklist_checks(random_subcubic(105, 157, seed=9000345), seeds=(None, 1, 2)) > 3


def test_hub_moves_match_the_reference_on_dense_graphs():
    # Near n = 1000 at the densest admissible edge count, the seeded
    # starts below reach hubs whose first lighter neighbour x has two
    # lighter S-neighbours, where the order ``_hub_move`` takes them in
    # decides the move.  Before each move the worklist takes, with no
    # Absorb or Flip flag set, every flagged hub's validated move must be
    # the one the reference search over every (x, y) pair finds first.
    hubs = several = 0
    for n, graph_seed, starts in ((998, 1, (3, 5)), (1000, 1, (7, 10)), (1002, 2, (3, 11))):
        sub, w = _core(random_subcubic(n, 3 * n // 2 - 1, seed=graph_seed, require_non_cubic=True))

        class HubCheckedWorklist(_Worklist):
            def next_move(self):
                nonlocal hubs, several
                graph, state = self.g, self.state
                if not any(1 in flags for flags in self.flags[:2]):
                    for z in (v for v, flag in enumerate(self.flags[FLAG_OF[_hub_move]]) if flag):
                        found = _evaluate(_hub_move, _hub_side, graph, w, state, z)
                        reference = reference_deg3_exchange_at(graph, w, state, z)
                        assert found is not None and found.move == reference.move, (n, z)
                        x = found.move.entering
                        lighter = [y for y in graph.adj[x] if state.side[y] != OUTSIDE and w[y] < w[x]]
                        hubs += 1
                        several += len(lighter) > 1
                return super().next_move()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spack.exchange, "_Worklist", HubCheckedWorklist)
            for seed in starts:
                try:
                    run_to_fixpoint(sub, w, initial_state(sub, w, seed=seed))
                except StuckError:
                    pass
    assert hubs >= 40 and several >= 10, (hubs, several)


def test_cheap_move_radii_are_exact():
    # The worklist recomputes kind k's flag within its rule's read radius
    # of a changed vertex.  Change one vertex of a random valid state: no
    # rule answer may change farther away than its radius, nor any
    # ``_evaluate`` answer (rule, builder and validation) farther than
    # (1, 2, 3, 2), and across the sample each radius is reached, so none
    # could be smaller.  The weights break the weight facts, so this also
    # shows that every builder returns where its rule holds.
    reads = [radius for *_, radius in KINDS]
    evaluator_radii = (1, 2, 3, 2)
    reached = [[0, 0] for _ in KINDS]
    for trial in range(1000):
        rng = random.Random(trial)
        n = rng.randint(6, 24)
        cap = min(3 * n // 2 - (1 if n % 2 == 0 else 0), n * (n - 1) // 2)
        g = random_subcubic(n, rng.randint(n - 1, cap), seed=trial, require_non_cubic=True)
        w = [rng.randint(1, 3) for _ in range(n)]
        side = [0] * n
        for v in rng.sample(range(n), n):
            s = rng.choice((0, 1, 2))
            if s and all(side[u] != s for u in g.adj[v]):
                side[v] = s
        c = rng.randrange(n)
        options = [
            s
            for s in (0, 1, 2)
            if s != side[c] and (s == 0 or all(side[u] != s for u in g.adj[c]))
        ]
        if not options:
            continue
        changed = list(side)
        changed[c] = rng.choice(options)
        before, after = (
            make_state(g, w, [v for v in range(n) if x[v] == 1], [v for v in range(n) if x[v] == 2])
            for x in (side, changed)
        )
        dist = distance_matrix(g)[c]
        for k, (build, rule, _) in enumerate(KINDS):
            for v in range(n):
                if rule(g, w, before, v) != rule(g, w, after, v):
                    assert dist[v] <= reads[k], (trial, rule.__name__, v)
                    reached[k][0] = max(reached[k][0], int(dist[v]))
                if _move_at(build, rule, g, w, before, v) != _move_at(build, rule, g, w, after, v):
                    assert dist[v] <= evaluator_radii[k], (trial, build.__name__, v)
                    reached[k][1] = max(reached[k][1], int(dist[v]))
    assert reached == [list(pair) for pair in zip(reads, evaluator_radii)]


def test_outside_sides_are_the_three_outside_rules():
    # One call answers Absorb, Flip and SameSideExchange at a vertex:
    # on random valid states, with weights that break the weight facts,
    # it must give each rule's side, not only whether it holds, at every
    # vertex, inside or outside, and each rule must answer both sides
    # somewhere in the sample.
    seen = [set(), set(), set()]
    for trial in range(1000):
        rng = random.Random(trial)
        n = rng.randint(4, 24)
        cap = min(3 * n // 2 - (1 if n % 2 == 0 else 0), n * (n - 1) // 2)
        g = random_subcubic(n, rng.randint(n - 1, cap), seed=trial, require_non_cubic=True)
        w = [rng.randint(1, 3) for _ in range(n)]
        side = [0] * n
        for v in rng.sample(range(n), n):
            s = rng.choice((0, 1, 2))
            if s and all(side[u] != s for u in g.adj[v]):
                side[v] = s
        state = _state_from_sides(g, w, side)
        for v in range(n):
            expected = tuple(rule(g, w, state, v) for rule in (_absorb_side, _flip_side, _exchange_side))
            assert _outside_sides(g, w, state, v) == expected, (trial, v)
            for answers, s in zip(seen, expected):
                answers.add(s)
    assert seen == [{0, 1, 2}] * 3


def test_next_move_raises_at_a_flagged_hub_without_a_move():
    # The hub lemma needs the weight facts and no set Absorb or Flip
    # flag; these hand-made weights break the facts.  With weights w1,
    # hub 0 (side 1) trades 4 (side 1) for 1, but 4 has two
    # S-neighbours, 6 and 7, so the trade loses an inside edge.  With
    # weights w2, no neighbour of hub 0 is lighter, so there is no trade
    # to build.  With the Absorb and Flip flags cleared by hand, the
    # flagged hub that yields no move is reported, not skipped, with the
    # evaluator's reason as its cause.
    g = build_graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6), (4, 7)])
    w1, w2 = [3, 2, 3, 3, 1, 1, 1, 1], [1] * 8
    for w, built, reason in (
        (w1, Deg3Exchange(0, 1, 4), "Deg3Exchange rejected"),
        (w2, None, "None is not a move"),
    ):
        state = make_state(g, w, {0, 4}, {6, 7})
        work = _Worklist(g, w, state)
        absorb, flip = work.flags[FLAG_OF[_absorb_move]], work.flags[FLAG_OF[_flip_move]]
        hubs = work.flags[FLAG_OF[_hub_move]]
        assert hubs[0] and _hub_move(g, w, state, 0, 1) == built
        assert _evaluate(_hub_move, _hub_side, g, w, state, 0) is None
        absorb[:] = flip[:] = bytes(g.n)
        with pytest.raises(InvalidStateError, match="_hub_move found no move at flagged vertex 0") as exc:
            work.next_move()
        assert type(exc.value.__cause__) is InvalidMoveError
        assert str(exc.value.__cause__).startswith(reason)


def _core(g):
    core, _ = peel(g)
    sub = induced(g, core).graph
    return sub, compute_weights(sub)


def _patch_commit(mp, wrapper):
    """Route every commit, in the search and in the audit replay, through ``wrapper(real, ...)``.

    Both commit through ``checked_commit``, which looks ``commit_move``
    up in ``spack.exchange``, so one patch reaches them both.
    """
    real = spack.exchange.commit_move

    def patched(g, state, found):
        wrapper(real, g, state, found)

    mp.setattr(spack.exchange, "commit_move", patched)


def _assert_local_check_matches_recount(g):
    # At every commit the touched count and the from-scratch recount
    # must move by the same amount, the cached potential must be the
    # recount and the cached neighbor counts (outside ones included)
    # must be those of a state built from scratch, in the search and
    # again in the audit replay.
    if not peel(g)[0]:
        return
    sub, w = _core(g)
    commits = []

    def check(real, graph, state, found):
        changed = [v for v, s in found.plan if state.side[v] != s]
        full = inside_potential(graph, w, state.side)
        local = touched_potential(graph, w, state.side, changed)
        real(graph, state, found)
        full_now = inside_potential(graph, w, state.side)
        local_now = touched_potential(graph, w, state.side, changed)
        assert state.potential == full_now
        assert [*map(operator.sub, full_now, full)] == [*map(operator.sub, local_now, local)]
        assert state.nbr == make_state(graph, w, state.s1, state.s2).nbr
        commits.append(found.move)

    with pytest.MonkeyPatch.context() as mp:
        _patch_commit(mp, check)
        run = color_core(sub, w)
        searched = list(commits)
        audit_core_run(sub, run)
    replayed = commits[len(searched):]
    assert replayed == [r.move for r in run.moves]
    assert searched[len(searched) - len(run.moves):] == replayed


def test_local_check_matches_recount_on_corpus(corpus_noncubic):
    for g in corpus_noncubic:
        _assert_local_check_matches_recount(g)


@settings(max_examples=60, deadline=None)
@given(subcubic_graphs(min_n=3, max_n=120))
def test_local_check_matches_recount_on_random_graphs(g):
    _assert_local_check_matches_recount(g)


# 13 moves, all cheap; the fault tests below corrupt one of its commits
FAULT_GRAPH = random_subcubic(60, 85, seed=2, require_non_cubic=True)


def _corrupt_at(index, corrupt):
    """A commit wrapper that runs ``corrupt(real, g, state, found)`` in place of commit ``index``."""
    calls = []

    def wrapper(real, g, state, found):
        calls.append(found.move)
        if len(calls) == index + 1:
            corrupt(real, g, state, found)
        else:
            real(g, state, found)

    return wrapper, calls


def _bump_potential(real, g, state, found):
    real(g, state, found)
    state.potential = Potential(state.potential.edges, state.potential.weight + 1)


def _drop_last_assignment(real, g, state, found):
    real(g, state, found._replace(plan=found.plan[:-1]))


def _move_far_vertex_outside(real, g, state, found):
    # An inside vertex neither in the plan nor next to it leaves its
    # side: the touched count of this commit cannot see it.
    near = {v for v, _ in found.plan}
    near |= {u for v in list(near) for u in g.adj[v]}
    far = next(v for v in range(g.n) if state.side[v] != OUTSIDE and v not in near)
    real(g, state, found)
    real(g, state, Candidate(found.move, [(far, OUTSIDE)], state.potential))


@pytest.mark.parametrize("corrupt", [_bump_potential, _drop_last_assignment])
@pytest.mark.parametrize("index", [0, 5, 12])
def test_validate_catches_a_bad_commit_at_that_commit(monkeypatch, corrupt, index):
    sub, w = _core(FAULT_GRAPH)
    assert len(run_to_fixpoint(sub, w, initial_state(sub, w)).moves) == 13
    wrapper, calls = _corrupt_at(index, corrupt)
    _patch_commit(monkeypatch, wrapper)
    with pytest.raises(InvalidStateError, match="touched count"):
        run_to_fixpoint(sub, w, initial_state(sub, w))
    assert len(calls) == index + 1


@pytest.mark.parametrize("index", [0, 5, 12])
def test_touched_check_runs_without_validate(monkeypatch, index):
    # validate=False cannot switch the checks off: a side changed out of
    # the plan, which the touched check cannot see, still fails the
    # recount at the next fixpoint.
    sub, w = _core(FAULT_GRAPH)
    wrapper, calls = _corrupt_at(index, _move_far_vertex_outside)
    _patch_commit(monkeypatch, wrapper)
    with pytest.raises(InvalidStateError, match="recount .* at the fixpoint after"):
        run_to_fixpoint(sub, w, initial_state(sub, w), validate=False)
    assert len(calls) > index


@pytest.mark.parametrize("index", [0, 12])
def test_validate_catches_a_side_changed_outside_the_plan_at_the_next_fixpoint(monkeypatch, index):
    sub, w = _core(FAULT_GRAPH)
    wrapper, calls = _corrupt_at(index, _move_far_vertex_outside)
    _patch_commit(monkeypatch, wrapper)
    with pytest.raises(InvalidStateError, match="recount .* at the fixpoint after") as exc:
        run_to_fixpoint(sub, w, initial_state(sub, w))
    assert len(calls) > index
    if index == 12:  # the last commit: the recount is of the state that would be returned
        assert "after 13 moves" in str(exc.value)


def test_validate_catches_a_missing_move_kind_at_the_fixpoint(monkeypatch):
    # Without SameSideExchange the search stops at a state where that
    # move still applies, and the fixpoint check names the lone
    # neighbours left behind: one with too few S-neighbours, one lighter
    # than the outside vertex it blocks.
    sub, w = _core(random_subcubic(20, 29, seed=137))
    moves = run_to_fixpoint(sub, w, initial_state(sub, w)).moves
    assert any(isinstance(record.move, SameSideExchange) for record in moves)
    kept = tuple(kind for kind in _CHEAP_KINDS if kind[0] is not _same_side_move)
    monkeypatch.setattr(spack.exchange, "_CHEAP_KINDS", kept)
    with pytest.raises(InvalidStateError, match="^fixpoint invariants violated: lone neighbor ") as exc:
        run_to_fixpoint(sub, w, initial_state(sub, w))
    assert "has S-degree 1" in str(exc.value)
    assert "is lighter" in str(exc.value)


def test_validate_recounts_the_start_state():
    sub, w = _core(FAULT_GRAPH)
    start = initial_state(sub, w)
    start.potential = Potential(start.potential.edges + 1, start.potential.weight)
    with pytest.raises(InvalidStateError, match="at the start"):
        run_to_fixpoint(sub, w, start)
    with pytest.raises(InvalidStateError, match="at the start"):
        run_to_fixpoint(sub, w, start, validate=False)


def test_run_to_fixpoint_leaves_the_start_state_alone():
    sub, w = _core(FAULT_GRAPH)
    start = initial_state(sub, w)
    kept = start.copy()
    result = run_to_fixpoint(sub, w, start)
    assert start == kept and result.state.side != start.side


@pytest.mark.parametrize("corrupt, message", [
    (_drop_last_assignment, "touched count"),
    (_move_far_vertex_outside, "final potential"),
])
def test_audit_catches_a_bad_replayed_commit(monkeypatch, corrupt, message):
    sub, w = _core(FAULT_GRAPH)
    run = color_core(sub, w)
    wrapper, _ = _corrupt_at(5, corrupt)
    _patch_commit(monkeypatch, wrapper)
    with pytest.raises(AuditError, match=message):
        audit_core_run(sub, run)


def test_square_outside_is_canonical_on_corpus_final_states(corpus_noncubic):
    for g in corpus_noncubic:
        for comp in color_graph(g).components:
            if comp.core_run is None:
                continue
            core = induced(g, comp.core_vertices).graph
            sq, order = square_outside(core, comp.core_run.final)
            assert_canonical(sq)
            assert order == tuple(sorted(comp.core_run.final.outside))
            dist = distance_matrix(core)
            assert set(sq.edges()) == {
                (a, b)
                for b in range(len(order))
                for a in range(b)
                if dist[order[a]][order[b]] <= 2
            }
