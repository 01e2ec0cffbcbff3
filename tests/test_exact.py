import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spack.exact
from oracles import (
    ball,
    load_corpus,
    naive_chi_rho,
    naive_packing_colorable,
    reference_chi_rho,
    reference_decide,
    reference_search,
)
from spack.exact import (
    DEFAULT_BUDGET,
    ChiRhoResult,
    InvalidSequenceError,
    Status,
    _balls,
    _plan,
    _search,
    chi_rho,
    class_labels,
    decide,
)
from spack.gen import cycle, path, petersen, random_subcubic
from spack.graph import build_graph
from spack.verify import verify, verify_sequence_shape
from strategies import loose_graphs

K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

CROSS_CHECK_SEQUENCES = [
    (1,),
    (1, 1),
    (1, 2),
    (2, 2),
    (1, 1, 2),
    (1, 2, 3),
    (1, 1, 2, 2),
]


def test_decide_k4_sat_with_verified_payload():
    outcome = decide(K4, (1, 1, 2, 2))
    assert outcome.status is Status.SAT
    result = verify(K4, outcome.coloring)
    assert result.ok
    verify_sequence_shape(outcome.coloring, (1, 1, 2, 2))


def test_decide_petersen_dichotomy():
    assert decide(petersen(), (1, 1, 2, 2)).status is Status.UNSAT
    outcome = decide(petersen(), (1, 1, 2, 2, 3))
    assert outcome.status is Status.SAT
    assert verify(petersen(), outcome.coloring).ok


def test_decide_empty_graph_is_sat():
    outcome = decide(build_graph(0, []), (1, 2))
    assert outcome.status is Status.SAT
    assert outcome.coloring.n == 0
    assert outcome.nodes == 0


def test_decide_matches_naive_enumeration_on_corpus():
    for g in load_corpus(max_n=6):
        for seq in CROSS_CHECK_SEQUENCES:
            outcome = decide(g, seq)
            assert outcome.status in (Status.SAT, Status.UNSAT)
            expected = naive_packing_colorable(g, seq)
            assert (outcome.status is Status.SAT) == expected, (g.adj, seq)
            if outcome.status is Status.SAT:
                assert verify(g, outcome.coloring).ok
                verify_sequence_shape(outcome.coloring, seq)


@settings(max_examples=60)
@given(loose_graphs(max_n=6, max_degree=5), st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_decide_matches_naive_enumeration_random(g, seq):
    seq = tuple(seq)
    outcome = decide(g, seq)
    assert (outcome.status is Status.SAT) == naive_packing_colorable(g, seq)
    if outcome.coloring is not None:
        assert verify(g, outcome.coloring).ok


def test_decide_monotone_in_extra_classes():
    for g in load_corpus(max_n=6):
        if decide(g, (1, 1, 2)).status is Status.SAT:
            assert decide(g, (1, 1, 2, 2)).status is Status.SAT


def test_decide_is_deterministic():
    g = cycle(7)
    first = decide(g, (1, 1, 2, 2))
    second = decide(g, (1, 1, 2, 2))
    assert first == second


def test_decide_budget_outcome():
    outcome = decide(petersen(), (1, 1, 2, 2, 3), budget=1)
    assert outcome.status is Status.BUDGET
    assert outcome.coloring is None
    assert outcome.nodes >= 1


def test_decide_rejects_bad_sequences():
    with pytest.raises(InvalidSequenceError):
        decide(K4, ())
    with pytest.raises(InvalidSequenceError):
        decide(K4, (0,))
    with pytest.raises(InvalidSequenceError):
        decide(K4, (1, -2))
    with pytest.raises(InvalidSequenceError):
        decide(K4, (2.0,))
    with pytest.raises(InvalidSequenceError):
        decide(K4, (True, 2, 2))
    with pytest.raises(InvalidSequenceError):
        decide(K4, (1,) * 27)


def test_class_labels():
    assert class_labels((1, 1, 2, 2)) == ("1_a", "1_b", "2_a", "2_b")
    assert class_labels((1, 2, 3)) == ("1", "2", "3")
    assert class_labels((2, 1, 2)) == ("2_a", "1", "2_b")


def test_chi_rho_small_cycles_and_k1():
    for g, expected in ((cycle(5), 4), (cycle(6), 4), (build_graph(1, []), 1)):
        assert naive_chi_rho(g) == expected
        result = chi_rho(g, 6)
        assert result.value == expected
        assert verify(g, result.coloring).ok
        verify_sequence_shape(result.coloring, tuple(range(1, expected + 1)))


def test_chi_rho_petersen():
    # Diameter 2 forces every class of radius >= 2 to be a singleton and
    # the largest independent set has four vertices, so seven classes
    # are needed and suffice.
    assert naive_chi_rho(petersen()) == 7
    result = chi_rho(petersen(), 8)
    assert result.value == 7
    assert verify(petersen(), result.coloring).ok


def test_chi_rho_exhausted_limit():
    assert chi_rho(cycle(5), 2) == ChiRhoResult(None, None, chi_rho(cycle(5), 2).nodes, False)


def test_chi_rho_budget_limited():
    result = chi_rho(petersen(), 8, budget=1)
    assert result.value is None
    assert result.limited


def test_chi_rho_plans_no_radius_past_n(monkeypatch):
    # k = n is always SAT (one vertex per class), so a huge k_max costs
    # what k_max = n costs and gives the same result.
    planned = []
    real_plan = spack.exact._plan

    def recording_plan(g, radii):
        planned.append(radii)
        return real_plan(g, radii)

    monkeypatch.setattr(spack.exact, "_plan", recording_plan)
    assert chi_rho(cycle(5), 10**6) == chi_rho(cycle(5), 5)
    assert planned and all(len(radii) <= 5 for radii in planned)
    for g in (build_graph(1, []), K4, path(3)):
        result = chi_rho(g, 10**6)
        assert result == chi_rho(g, g.n)
        assert result.value == reference_chi_rho(g, g.n).value


def test_chi_rho_rejects_bad_limit():
    with pytest.raises(InvalidSequenceError):
        chi_rho(cycle(3), 0)


def test_chi_rho_matches_naive_on_small_corpus():
    for g in load_corpus(max_n=5):
        expected = naive_chi_rho(g, k_max=6)
        result = chi_rho(g, 6)
        assert result.value == expected


def _check_witness(g, coloring, seq):
    assert verify(g, coloring).ok
    verify_sequence_shape(coloring, seq)


def test_decide_matches_reference_on_corpus(corpus_n8):
    sequences = CROSS_CHECK_SEQUENCES + [tuple(range(1, k + 1)) for k in range(4, 7)]
    for g in corpus_n8:
        for seq in sequences:
            outcome = decide(g, seq)
            assert outcome.status is reference_decide(g, seq).status, (g.adj, seq)
            if outcome.status is Status.SAT:
                _check_witness(g, outcome.coloring, seq)


@settings(max_examples=80)
@given(loose_graphs(max_n=8, max_degree=4), st.lists(st.integers(1, 3), min_size=1, max_size=5))
def test_decide_matches_reference_random(g, seq):
    seq = tuple(seq)
    outcome = decide(g, seq)
    assert outcome.status is reference_decide(g, seq).status
    if outcome.status is Status.SAT:
        _check_witness(g, outcome.coloring, seq)


def _chi_rho_graphs():
    yield from load_corpus(max_n=8)
    for seed in range(20):
        n = 18 + seed % 5
        yield random_subcubic(n, round(1.25 * (n - 1)), seed=seed)


def test_chi_rho_matches_reference():
    for g in _chi_rho_graphs():
        result = chi_rho(g, 10)
        assert result.value is not None
        assert result.value == reference_chi_rho(g, 10).value, g.adj
        _check_witness(g, result.coloring, tuple(range(1, result.value + 1)))


def test_chi_rho_is_its_decide_loop():
    # chi_rho shares its set-up across k, but each k must be searched
    # exactly as decide would: same verdict, witness and node count.
    for g in list(_chi_rho_graphs())[-20:] + [petersen()]:
        result = chi_rho(g, 10)
        total = 0
        for k in range(1, result.value + 1):
            outcome = decide(g, tuple(range(1, k + 1)))
            total += outcome.nodes
        assert outcome.status is Status.SAT
        assert result == ChiRhoResult(result.value, outcome.coloring, total, False)


def test_exact_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the exact oracle must not change the recursion limit")

    before = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = path(2000)
    outcome = decide(g, (1, 1))
    assert outcome.status is Status.SAT
    _check_witness(g, outcome.coloring, (1, 1))
    result = chi_rho(g, 3)
    assert result.value == 3
    _check_witness(g, result.coloring, (1, 2, 3))
    assert sys.getrecursionlimit() == before


def test_decide_budget_counts_committed_assignments():
    seq = (1, 1, 2, 2, 3)
    unbounded = decide(petersen(), seq)
    assert unbounded.status is Status.SAT
    for b in range(unbounded.nodes):
        outcome = decide(petersen(), seq, budget=b)
        assert outcome.status is Status.BUDGET
        assert outcome.nodes == b + 1
    assert decide(petersen(), seq, budget=unbounded.nodes) == unbounded

    # On an UNSAT search the dead-vertex check undoes some commits at once;
    # each still counts as a node, and the budget trips on it.
    seq = (1, 1, 2, 2)
    unbounded = decide(petersen(), seq)
    assert unbounded.status is Status.UNSAT
    order, masks = _plan(petersen(), seq)
    assert unbounded.nodes < reference_search(order, masks, seq, DEFAULT_BUDGET).nodes
    for b in range(unbounded.nodes):
        outcome = decide(petersen(), seq, budget=b)
        assert outcome.status is Status.BUDGET
        assert outcome.nodes == b + 1
    assert decide(petersen(), seq, budget=unbounded.nodes) == unbounded


def _assert_same_search(g, seq):
    """The dead-vertex check only prunes: same verdict and witness as the
    search without it, in no more nodes."""
    order, masks = _plan(g, seq)
    outcome = _search(order, masks, seq, DEFAULT_BUDGET)
    expected = reference_search(order, masks, seq, DEFAULT_BUDGET)
    assert outcome.status is expected.status, (g.adj, seq)
    assert outcome.coloring == expected.coloring, (g.adj, seq)
    assert outcome.nodes <= expected.nodes, (g.adj, seq)
    return outcome


def test_search_keeps_the_reference_witness_on_corpus(corpus_n8):
    sequences = CROSS_CHECK_SEQUENCES + [tuple(range(1, k + 1)) for k in range(4, 7)]
    for g in corpus_n8:
        for seq in sequences:
            _assert_same_search(g, seq)


def test_search_keeps_the_reference_witness_on_chi_rho_graphs():
    for g in list(_chi_rho_graphs())[-20:]:
        for seq in CROSS_CHECK_SEQUENCES:
            _assert_same_search(g, seq)
        k = 1
        while _assert_same_search(g, tuple(range(1, k + 1))).status is Status.UNSAT:
            k += 1


@settings(max_examples=80)
@given(loose_graphs(max_n=8, max_degree=4), st.lists(st.integers(1, 3), min_size=1, max_size=5))
def test_search_keeps_the_reference_witness_random(g, seq):
    _assert_same_search(g, tuple(seq))


def _masks_from_ball(g, radii):
    """balls[r][v] from one reference ``ball`` per vertex and radius."""
    return {
        r: [sum(1 << u for u, d in ball(g, (v,), r).items() if d) for v in range(g.n)]
        for r in radii
    }


def test_oracle_distances_match_the_solvers_bfs(corpus_n8):
    radii = set(range(1, 8))
    graphs = list(corpus_n8)
    graphs += [random_subcubic(n, n + n // 4, seed=n) for n in range(10, 40, 3)]
    graphs.append(build_graph(8, [(0, 1), (1, 2), (3, 4), (5, 6)]))  # radius 7 passes every component
    graphs.append(build_graph(0, []))
    for g in graphs:
        assert _balls(g, radii) == _masks_from_ball(g, radii), g.adj
    g = path(2000)
    assert _balls(g, {1, 2, 3}) == _masks_from_ball(g, {1, 2, 3})
